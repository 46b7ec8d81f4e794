"""Desk-scale deterministic control environments and the rollout engine.

Three pure-cost tasks stand in for the usual physics benchmarks:

* lqr2d       - 2-state / 1-action discrete LQR with known optimal policy
* pointmass2d - planar double integrator driven to the origin
* pendulum    - torque-limited pendulum stabilized upright

Each environment holds no episode state. It is three pure functions on a
(B, k) block of internal states x, one row per independent episode:

* `reset(rngs) -> x` draws row b from rngs[b];
* `step(x, actions) -> x_next` is the dynamics only, into a fresh array;
* `rewards(xs, actions)` is elementwise over any leading shape, so one call
  on the finished (B, T, k) and (B, T, p) blocks equals T per-step calls.

The observation, what the policy sees and what is recorded, is the leading
`spec.state_dim` columns of x; any private columns follow it. `rollout`
owns the fixed horizon. There is no early termination, so lockstep is
exact, and a reward never changes control flow: the loop runs only what
feeds the next action, and rewards and returns are computed once per
finished block. Rewards are never positive; the reward for a step is
charged on the state where the action was taken.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Rng
from .policy import LinearPolicy, ObservationNormalizer

# label for per-episode evaluation/recording streams, shared by everything
# that promises "same seed, same episodes" (evaluate, record, riccati)
EPISODE_STREAM = 100

# Step constants, named by the term they enter. They are numpy scalars: a
# ufunc converts a Python float operand on every call, which costs more than
# the arithmetic at desk-scale batches. Cost weights carry the reward's sign.
_LQR_DT = np.float64(0.1)                # s' = s + dt (v, a)
_LQR_ACTION_COST = np.float64(-0.1)      # -0.1 a a
_POINTMASS_DT = np.float64(0.1)
_PEND_PI = np.float64(math.pi)
_PEND_TWO_PI = np.float64(2.0 * math.pi)
_PEND_SQUARE = np.float64(2.0)           # exponent of the libm-pow squares
_PEND_SPEED_COST = np.float64(-0.1)      # -0.1 phidot^2
_PEND_ACTION_COST = np.float64(-0.001)   # -0.001 u u
# the rod has length 1 and mass 1, so g / l is exactly 10 and m l^2 exactly 1
_PEND_G_OVER_L = np.float64(10.0)
_PEND_DT = np.float64(0.05)
_PEND_MAX_SPEED = np.float64(8.0)


@dataclass(frozen=True)
class EnvSpec:
    name: str
    state_dim: int
    action_dim: int
    horizon: int
    action_clip: float


LQR_A = np.array([[1.0, 0.1], [0.0, 1.0]])
LQR_B = np.array([[0.0], [0.1]])
LQR_Q = np.eye(2)
LQR_R = np.array([[0.1]])


class Lqr2dEnv:
    """s' = A s + B a, cost s^T s + 0.1 a^T a."""

    spec = EnvSpec("lqr2d", 2, 1, 100, 10.0)

    def reset(self, rngs) -> np.ndarray:
        return np.array([[rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)]
                         for rng in rngs])

    def step(self, x: np.ndarray, actions: np.ndarray) -> np.ndarray:
        # s' = A s + B a with A = [[1, .1], [0, 1]], B = [[0], [.1]]:
        # s' = s + 0.1 (v, a)
        x_next = np.empty_like(x)
        x_next[:, 0] = x[:, 1]
        x_next[:, 1] = actions[:, 0]
        x_next *= _LQR_DT
        x_next += x
        return x_next

    def rewards(self, xs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        # -(x x + v v + 0.1 (a a)) as -0.1 (a a) - (x x + v v)
        sq = xs * xs
        a = actions[..., 0]
        rewards = a * a
        rewards *= _LQR_ACTION_COST
        rewards -= sq[..., 0] + sq[..., 1]
        return rewards


class PointMass2dEnv:
    """Planar double integrator, dt=0.1; state (px, py, vx, vy)."""

    spec = EnvSpec("pointmass2d", 4, 2, 200, 1.0)

    def reset(self, rngs) -> np.ndarray:
        return np.array([[rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0),
                          0.0, 0.0] for rng in rngs])

    def step(self, x: np.ndarray, actions: np.ndarray) -> np.ndarray:
        # semi-implicit Euler: velocity first, then position
        x_next = x.copy()
        x_next[:, 2:] += _POINTMASS_DT * actions
        x_next[:, :2] += _POINTMASS_DT * x_next[:, 2:]
        return x_next

    def rewards(self, xs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        # a @ a as a stacked matmul rounds like a 1-d dot product
        a = actions
        return -(xs[..., 0] * xs[..., 0] + xs[..., 1] * xs[..., 1]
                 + 0.01 * (a[..., None, :] @ a[..., :, None])[..., 0, 0])


class PendulumEnv:
    """Torque-limited pendulum held upright; state (cos phi, sin phi, phidot,
    phi) with phi unwrapped, observation its first three columns."""

    spec = EnvSpec("pendulum", 3, 1, 200, 2.0)

    def reset(self, rngs) -> np.ndarray:
        x = np.empty((len(rngs), 4))
        # each row draws phi, then phidot, into columns 3 and 2
        x[:, 3:1:-1] = [(rng.uniform_in(-math.pi, math.pi),
                         rng.uniform_in(-1.0, 1.0)) for rng in rngs]
        np.cos(x[:, 3], x[:, 0])
        np.sin(x[:, 3], x[:, 1])
        return x

    def step(self, x: np.ndarray, actions: np.ndarray) -> np.ndarray:
        # phidot' = clamp(phidot + dt acc), phi' = phi + dt phidot', where
        # acc = (g / l) sin(phi) + u / (m l^2) = 10 sin(phi) + u exactly
        acc = x[:, 1] * _PEND_G_OVER_L
        acc += actions[:, 0]
        acc *= _PEND_DT
        acc += x[:, 2]
        np.maximum(acc, -_PEND_MAX_SPEED, out=acc)
        np.minimum(acc, _PEND_MAX_SPEED, out=acc)
        x_next = np.empty_like(x)
        x_next[:, 2] = acc
        acc *= _PEND_DT
        acc += x[:, 3]
        x_next[:, 3] = acc
        np.cos(x_next[:, 3], x_next[:, 0])
        np.sin(x_next[:, 3], x_next[:, 1])
        return x_next

    def rewards(self, xs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        # -(wrapped^2 + 0.1 phidot^2 + 0.001 u u), negated term by term:
        # (-0.1 phidot^2 - wrapped^2) + (-0.001 u) u. np.float_power is libm
        # pow, the rounding of a Python float's x ** 2
        u = actions[..., 0]
        wrapped = xs[..., 3] + _PEND_PI
        np.remainder(wrapped, _PEND_TWO_PI, wrapped)
        wrapped -= _PEND_PI
        np.float_power(wrapped, _PEND_SQUARE, wrapped)
        rewards = np.float_power(xs[..., 2], _PEND_SQUARE)
        rewards *= _PEND_SPEED_COST
        rewards -= wrapped
        np.multiply(u, _PEND_ACTION_COST, wrapped)
        wrapped *= u
        rewards += wrapped
        return rewards


_ENV_CLASSES = {
    "lqr2d": Lqr2dEnv,
    "pointmass2d": PointMass2dEnv,
    "pendulum": PendulumEnv,
}


def env_names() -> list[str]:
    return sorted(_ENV_CLASSES)


def make_env(name: str):
    try:
        return _ENV_CLASSES[name]()
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; valid names: {', '.join(env_names())}"
        ) from None


def rollout(env, thetas: np.ndarray, normalizer: ObservationNormalizer,
            reward_source, rngs):
    """Run B = len(rngs) episodes in lockstep to the horizon T, episode b
    reset from rngs[b]; returns the raw observed states (B, T, n), actions
    (B, T, p), env_rewards (B, T) and returns (B,).

    `thetas` is (B, p, n), one policy per episode, or one (p, n) for all;
    actions are clipped to the actuator range. `reward_source` is None for
    environment reward, or an object whose `reward_batch(states, actions)`
    scores the whole (B, T, .) block of finished episodes in one call,
    returning (B, T) rewards. The normalizer is read, never written.
    """
    spec = env.spec
    if np.shape(thetas)[-2:] != (spec.action_dim, spec.state_dim):
        raise ValueError(f"{spec.name} takes ({spec.action_dim}, {spec.state_dim})"
                         f" policies, got shape {np.shape(thetas)}")
    inv_rms = normalizer.snapshot()
    # theta @ (s * inv_rms) == (theta * inv_rms) @ s
    thetas = thetas if inv_rms is None else thetas * inv_rms
    hi = np.float64(spec.action_clip)
    lo = -hi
    n = spec.state_dim
    x = env.reset(rngs)
    xs, taken = [], []
    for _ in range(spec.horizon):
        s = x[:, :n]
        # a stacked matmul rounds like one episode's theta @ s
        a = (thetas @ s[:, :, None])[:, :, 0]
        # clip the fresh matmul output in place; NaN stays NaN, as in np.clip
        np.maximum(a, lo, out=a)
        np.minimum(a, hi, out=a)
        xs.append(x)
        taken.append(a)
        x = env.step(x, a)
    # the steps' (B, .) arrays side by side are the (B, T, .) block: one
    # copy, where np.stack would first reshape each of the T arrays
    shape = (len(x), spec.horizon, -1)
    x_block = np.concatenate(xs, axis=1).reshape(shape)
    actions = np.concatenate(taken, axis=1).reshape(shape)
    # the block itself when x holds only the observation
    states = np.ascontiguousarray(x_block[..., :n])
    env_rewards = env.rewards(x_block, actions)
    if reward_source is None:
        # cumsum adds in step order, like a scalar running sum; + 0.0 gives
        # the +0.0 that a sum started from 0.0 leaves when every reward is -0.0
        returns = np.cumsum(env_rewards, axis=1)[:, -1] + 0.0
    else:
        # each row of the C-contiguous (B, T) block is summed pairwise, as
        # np.sum sums that row alone
        returns = reward_source.reward_batch(states, actions).sum(axis=1)
    return states, actions, env_rewards, returns


def episode_rng(seed: int, index: int) -> Rng:
    """Stream for evaluation/recording episode `index` under `seed`."""
    return Rng(seed, (EPISODE_STREAM, index))


def evaluate_policy(policy: LinearPolicy, normalizer: ObservationNormalizer,
                    env_name: str, episodes: int, seed: int) -> tuple[float, float]:
    """Mean and population std of environment return over seeded episodes."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    *_, returns = rollout(make_env(env_name), policy.theta, normalizer, None,
                          [episode_rng(seed, i) for i in range(episodes)])
    return float(returns.mean()), float(returns.std())


def riccati_optimal(seed: int = 0, episodes: int = 100):
    """Exact optimal feedback for lqr2d via the discrete Riccati recurrence.

    Returns (policy, identity normalizer, mean return over seeded episodes).
    """
    p = LQR_Q.copy()
    for _ in range(100_000):
        btp = LQR_B.T @ p
        gain = np.linalg.solve(LQR_R + btp @ LQR_B, btp @ LQR_A)
        p_next = LQR_Q + LQR_A.T @ p @ LQR_A - LQR_A.T @ p @ LQR_B @ gain
        if np.max(np.abs(p_next - p)) < 1e-12:
            p = p_next
            break
        p = p_next
    btp = LQR_B.T @ p
    gain = np.linalg.solve(LQR_R + btp @ LQR_B, btp @ LQR_A)
    policy = LinearPolicy(-gain)
    normalizer = ObservationNormalizer.for_dim(2)
    mean, _ = evaluate_policy(policy, normalizer, "lqr2d", episodes, seed)
    return policy, normalizer, mean
