"""Linear policies with online observation whitening, plus behavior cloning.

A policy is a p x n weight matrix applied to whitened states:
a = theta @ (s / sqrt(max(var + mu**2, 1e-8))): scaled by the running root
mean square, never centred, so a zero state gives a zero action (centring
would add a constant action bias that no optimal linear controller has).
Whitening is the identity until at least two states have been observed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import AdamState, RunningStats, adam_step

VAR_FLOOR = 1e-8


@dataclass
class LinearPolicy:
    """Deterministic linear policy; theta is (action_dim, state_dim)."""

    theta: np.ndarray

    @classmethod
    def zeros(cls, action_dim: int, state_dim: int) -> "LinearPolicy":
        return cls(np.zeros((action_dim, state_dim)))


@dataclass
class ObservationNormalizer:
    """Running mean / diagonal variance of visited states.

    Whitening divides by the RMS sqrt(var + mu**2), uncentred yet O(1) even
    for a large-mean, tiny-spread coordinate (pendulum's cos(phi) upright).
    """

    stats: RunningStats = field(default_factory=RunningStats)

    @classmethod
    def for_dim(cls, n: int) -> "ObservationNormalizer":
        return cls(RunningStats(0, np.zeros(n), np.zeros(n)))

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def mean(self) -> np.ndarray:
        return self.stats.mean

    def variance(self) -> np.ndarray:
        return self.stats.variance()

    def snapshot(self) -> np.ndarray | None:
        """Frozen per-coordinate inverse RMS for a rollout; None while inactive."""
        if self.count < 2:
            return None
        return 1.0 / np.sqrt(np.maximum(self.variance() + self.mean ** 2, VAR_FLOOR))

    def normalize(self, state: np.ndarray) -> np.ndarray:
        inv_rms = self.snapshot()
        return state if inv_rms is None else state * inv_rms

    def add_states(self, states: np.ndarray) -> None:
        self.stats.merge_batch(states)

    def copy(self) -> "ObservationNormalizer":
        return ObservationNormalizer(self.stats.copy())


@dataclass
class BcDataset:
    """Paired (state, action) regression data for cloning."""

    states: np.ndarray   # (B, n)
    actions: np.ndarray  # (B, p)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.actions = np.asarray(self.actions, dtype=float)
        if len(self.states) != len(self.actions):
            raise ValueError("states and actions must pair up")

    def __len__(self) -> int:
        return len(self.states)


def bc_fit(dataset: BcDataset, normalizer: ObservationNormalizer,
           epochs: int = 2000, lr: float = 0.01) -> LinearPolicy:
    """Fit a linear policy to the dataset by full-batch Adam on the exact
    MSE gradient.

    States are whitened through `normalizer` first, so the fitted weights
    live in the same coordinates a trained policy would use.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit on an empty dataset")
    z = normalizer.normalize(dataset.states)
    y = dataset.actions
    n, p = z.shape[1], y.shape[1]
    theta = np.zeros((p, n))
    state = AdamState.zeros(p * n)
    for _ in range(epochs):
        # d/dtheta mean_i ||theta z_i - y_i||^2 = (2/B) sum_i (theta z_i - y_i) z_i^T
        grad = (2.0 / len(z)) * (z @ theta.T - y).T @ z
        flat = adam_step(state, theta.flatten(), grad.flatten(), lr)
        theta = flat.reshape(p, n)
    return LinearPolicy(theta)


def bc_closed_form(dataset: BcDataset, normalizer: ObservationNormalizer,
                   ridge: float = 0.0) -> LinearPolicy:
    """Exact ridge least-squares solution of the cloning objective.

    Solves (Z^T Z + ridge I) A = Z^T Y for A and returns theta = A^T.
    """
    if len(dataset) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    z = normalizer.normalize(dataset.states)
    y = dataset.actions
    gram = z.T @ z + ridge * np.eye(z.shape[1])
    rhs = z.T @ y
    try:
        a = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "normal equations are singular; pass ridge > 0") from exc
    return LinearPolicy(a.T)
