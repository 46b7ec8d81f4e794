"""Derivative-free policy update: antithetic direction search with a
return-spread-scaled step.

Each iteration samples N random direction matrices as one (N, p, n) array,
Box-Muller on one block of uniform draws over the N directions' stream
keys, rolls out the policy nudged along +/- each direction, all 2N episodes
in one rollout on a key array, and moves the weights
toward the better-scoring side of every pair. The step is divided by the
standard deviation of all 2N collected returns, which keeps the update size
meaningful whatever the reward scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import make_env, rollout
from .numerics import Rng, check_integer, sum_in_order, uniform_block
from .policy import ObservationNormalizer

_TWO_PI = 2.0 * math.pi


@dataclass
class ArsConfig:
    alpha: float = 0.02        # update step size
    nu: float = 0.03           # exploration noise scale
    n_directions: int = 320

    def __post_init__(self):
        # written so that NaN fails too
        if not (0 < self.alpha < math.inf and 0 < self.nu < math.inf):
            raise ValueError("alpha, nu must be positive and finite")
        check_integer("n_directions", self.n_directions, 1)


def ars_update(theta: np.ndarray, deltas: np.ndarray, returns: np.ndarray,
               alpha: float) -> np.ndarray:
    """theta + alpha / (N * sigma) * sum_i (r+_i - r-_i) delta_i.

    `deltas` is (N, p, n) and `returns` is (N, 2), the +/- return of each
    direction; sigma is the population std of all 2N returns. Skips the
    update when the return spread collapses below 1e-12 (a constant reward
    carries no direction information). The sum runs in direction order, so
    the step does not depend on numpy's choice of summation algorithm.
    """
    if len(deltas) < 1 or deltas.shape[1:] != theta.shape \
            or returns.shape != (len(deltas), 2):
        raise ValueError(f"need deltas (N >= 1, *{theta.shape}) and returns "
                         f"(N, 2); got {deltas.shape} and {returns.shape}")
    sigma = float(returns.std())
    if sigma < 1e-12:
        return theta.copy()
    # in direction order, as the docstring promises
    step = sum_in_order((returns[:, 0] - returns[:, 1])[:, None, None] * deltas, 0)
    return theta + (alpha / (len(deltas) * sigma)) * step


def _libm(f, a: np.ndarray) -> np.ndarray:
    """f of every element of `a`, one libm call each."""
    return np.array([f(v) for v in a.ravel().tolist()]).reshape(a.shape)


def sample_directions(rng: Rng, n_directions: int, p: int, n: int) -> np.ndarray:
    """C-contiguous (N, p, n) standard-normal directions, direction i filled
    row-major by Box-Muller over the stream rng.derive(i): uniform draws
    2m + 1 and 2m + 2 give entry 2m (cosine) and entry 2m + 1 (sine), and an
    odd p n drops the last sine. Log, cosine and sine are libm's, which
    numpy's do not round like."""
    for name, value in (("n_directions", n_directions), ("p", p), ("n", n)):
        check_integer(name, value, 1)
    u = uniform_block(rng.keys(np.arange(n_directions)), p * n + p * n % 2,
                      0.0, 1.0).T
    r = np.sqrt(-2.0 * _libm(math.log, u[:, 0::2]))
    t = _TWO_PI * u[:, 1::2]
    z = np.stack([r * _libm(math.cos, t), r * _libm(math.sin, t)], axis=2)
    return np.ascontiguousarray(
        z.reshape(n_directions, -1)[:, :p * n]).reshape(n_directions, p, n)


def evaluate_directions(theta: np.ndarray, deltas: np.ndarray, nu: float,
                        env_name: str, normalizer: ObservationNormalizer,
                        rng: Rng):
    """Roll out the +/- perturbation pair of every direction in one batch.

    Returns (returns, states, actions): row i of the (N, 2) `returns` holds
    the + and - environment return of direction i; `states` (2N, T, n) and
    `actions` (2N, T, p) hold all 2N episodes in (direction, sign) order.
    Each episode draws from its own (direction, sign)-labelled stream, so
    results do not depend on execution order.
    """
    offsets = nu * deltas
    thetas = np.empty((len(deltas), 2, *theta.shape))
    np.add(theta, offsets, out=thetas[:, 0])
    np.subtract(theta, offsets, out=thetas[:, 1])
    # episode (i, sign) runs on the stream rng.derive(i, sign)
    keys = rng.keys(np.arange(len(deltas))[:, None], (0, 1)).ravel()
    states, actions, _, returns = rollout(make_env(env_name),
                                          thetas.reshape(-1, *theta.shape),
                                          normalizer, keys)
    return returns.reshape(-1, 2), states, actions
