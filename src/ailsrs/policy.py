"""Linear policies with online observation whitening, plus behavior cloning.

A policy is a p x n weight matrix applied to whitened states:
a = theta @ (s / sqrt(max(var + mu**2, 1e-8))): scaled by the running root
mean square, never centred, so a zero state gives a zero action (centring
would add a constant action bias that no optimal linear controller has).
Whitening multiplies by `snapshot()`: ones until two states have been seen.
The normalizer merges its statistics a block of states at a time. Behavior
cloning fits theta to (state, action) arrays by one exact ridge solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import sum_in_order

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
    """Running per-coordinate mean and population variance of visited
    states, merged a (B, n) block at a time.

    Whitening divides by the RMS sqrt(var + mu**2), uncentred yet O(1) even
    for a large-mean, tiny-spread coordinate (pendulum's cos(phi) upright).
    """

    count: int
    mean: np.ndarray  # (n,)
    m2: np.ndarray    # (n,) sum of squared deviations from the mean

    @classmethod
    def for_dim(cls, n: int) -> "ObservationNormalizer":
        return cls(0, np.zeros(n), np.zeros(n))

    def variance(self) -> np.ndarray:
        """Population variance; zeros until the first observation."""
        if self.count == 0:
            return np.zeros(self.mean.shape)
        return self.m2 / self.count

    def snapshot(self) -> np.ndarray:
        """Frozen (n,) inverse RMS for a rollout; ones while inactive."""
        if self.count < 2:
            return np.ones(self.mean.shape)
        return 1.0 / np.sqrt(np.maximum(self.variance() + self.mean ** 2, VAR_FLOOR))

    def add_states(self, states: np.ndarray) -> None:
        """Fold a (B, n) block of states in one pairwise merge."""
        xs = np.asarray(states, dtype=float)
        if xs.ndim != 2:
            raise ValueError("add_states expects a 2-D (batch, dim) array")
        if xs.shape[1] != self.mean.shape[0]:
            raise ValueError(
                f"state width {xs.shape[1]} != normalizer shape {self.mean.shape}")
        if xs.size == 0:
            return
        nb = xs.shape[0]
        # each column in row order, as a one-row-at-a-time merge adds it,
        # even for a one-wide block, which numpy's own sum adds pairwise.
        # The deviations are laid out column by column, so that neither
        # pass runs one n-wide loop per row
        mb = sum_in_order(xs, 0) / nb
        dev = np.subtract(xs, mb, order="F")
        dev *= dev
        m2b = sum_in_order(dev, 0)
        if self.count == 0:
            self.count, self.mean, self.m2 = nb, mb, m2b
            return
        na = self.count
        delta = mb - self.mean
        tot = na + nb
        self.mean = self.mean + delta * (nb / tot)
        self.m2 = self.m2 + m2b + delta * delta * (na * nb / tot)
        self.count = tot

    def copy(self) -> "ObservationNormalizer":
        return ObservationNormalizer(self.count, self.mean.copy(), self.m2.copy())


def bc_closed_form(states: np.ndarray, actions: np.ndarray, ridge: float
                   ) -> tuple[LinearPolicy, ObservationNormalizer]:
    """Exact ridge least-squares fit of theta to (B, n) states and (B, p)
    actions. Whitens, as a trained policy does, by a normalizer of the
    states it fits, solves (Z^T Z + ridge I) A = Z^T Y for A, where Z holds
    the whitened states, and returns (LinearPolicy(A^T), that normalizer)."""
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=float)
    if states.ndim != 2 or actions.ndim != 2:
        raise ValueError("states and actions must be 2-D (batch, dim) arrays")
    if len(states) != len(actions):
        raise ValueError("states and actions must pair up")
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(actions))):
        raise ValueError("states and actions must be finite, not NaN or inf")
    if len(states) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not 0 <= ridge < np.inf:  # NaN fails too
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    normalizer = ObservationNormalizer.for_dim(states.shape[1])
    normalizer.add_states(states)
    z = states * normalizer.snapshot()
    gram = z.T @ z + ridge * np.eye(z.shape[1])
    rhs = z.T @ actions
    try:
        a = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "normal equations are singular; pass ridge > 0") from exc
    return LinearPolicy(a.T), normalizer
