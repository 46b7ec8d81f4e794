"""Desk-scale deterministic control environments and the rollout engine.

Three pure-cost tasks stand in for the usual physics benchmarks:

* lqr2d       - 2-state / 1-action discrete LQR with known optimal policy
* pointmass2d - planar double integrator driven to the origin
* pendulum    - torque-limited pendulum stabilized upright

Each environment holds no episode state. It is three pure functions on
internal states x, one episode per column:

* `reset(keys) -> x` is a C-contiguous (k, B) block whose column b is
  drawn from the stream at keys[b], a (B,) uint64 array of stream keys
  (see `Rng.keys`), all B columns in one block draw;
* `step(x, actions, out)` is the dynamics only: from the (k, B) x and the
  (p, B) actions it writes the next states into `out`, a (k, B) block that
  does not overlap x. Every operand is a contiguous (B,) row, x[j], out[j]
  or actions[i], so each ufunc runs over all B episodes at unit stride;
* `rewards(xs, actions)` is elementwise over any leading shape, so one call
  on the finished episode-major (B, T, k) and (B, T, p) blocks equals T
  per-step calls on (B, k) slices.

The observation, what the policy sees and what is recorded, is the leading
`spec.state_dim` rows of x; any private rows follow it. `rollout`
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

from .numerics import Rng, check_count, uniform_block
from .policy import LinearPolicy, ObservationNormalizer

# label for per-episode evaluation/recording streams, shared by everything
# that promises "same seed, same episodes" (evaluate, record, riccati)
EPISODE_STREAM = 100

def _const(value: float) -> np.ndarray:
    """A read-only 0-d float64 array: numpy converts a numpy-scalar operand
    on every ufunc call, which costs more than the arithmetic on a 16-row
    column, and a 0-d array it does not."""
    c = np.array(value, dtype=np.float64)
    c.flags.writeable = False
    return c


# Step and reward constants, named by the term they enter. Cost weights
# carry the reward's sign.
_LQR_DT = _const(0.1)                    # s' = s + dt (v, a)
_LQR_ACTION_COST = _const(-0.1)          # -0.1 a a
_POINTMASS_DT = _const(0.1)
_PEND_PI = _const(math.pi)
_PEND_TWO_PI = _const(2.0 * math.pi)
_PEND_SQUARE = _const(2.0)               # exponent of the libm-pow squares
_PEND_SPEED_COST = _const(-0.1)          # -0.1 phidot^2
_PEND_ACTION_COST = _const(-0.001)       # -0.001 u u
# the rod has length 1 and mass 1, so g / l is exactly 10 and m l^2 exactly 1
_PEND_G_OVER_L = _const(10.0)
_PEND_DT = _const(0.05)
_PEND_MAX_SPEED = _const(8.0)
_PEND_MIN_SPEED = _const(-8.0)
_PEND_RESET_RANGE = np.array([[math.pi], [1.0]])  # |phi|, |phidot| at reset


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

    def reset(self, keys: np.ndarray) -> np.ndarray:
        return uniform_block(keys, 2, -1.0, 1.0)

    def step(self, x: np.ndarray, actions: np.ndarray, out: np.ndarray) -> None:
        # s' = A s + B a with A = [[1, .1], [0, 1]], B = [[0], [.1]]:
        # s' = s + 0.1 (v, a)
        out[0] = x[1]
        out[1] = actions[0]
        out *= _LQR_DT
        out += x

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

    def reset(self, keys: np.ndarray) -> np.ndarray:
        x = np.zeros((4, len(keys)))
        x[:2] = uniform_block(keys, 2, -1.0, 1.0)
        return x

    def step(self, x: np.ndarray, actions: np.ndarray, out: np.ndarray) -> None:
        # semi-implicit Euler: velocity first, then position
        out[...] = x
        out[2:] += _POINTMASS_DT * actions
        out[:2] += _POINTMASS_DT * out[2:]

    def rewards(self, xs: np.ndarray, actions: np.ndarray) -> np.ndarray:
        # a @ a as a stacked matmul rounds like a 1-d dot product
        a = actions
        return -(xs[..., 0] * xs[..., 0] + xs[..., 1] * xs[..., 1]
                 + 0.01 * (a[..., None, :] @ a[..., :, None])[..., 0, 0])


class PendulumEnv:
    """Torque-limited pendulum held upright; state (cos phi, sin phi, phidot,
    phi) with phi unwrapped, observation its first three rows."""

    spec = EnvSpec("pendulum", 3, 1, 200, 2.0)

    def reset(self, keys: np.ndarray) -> np.ndarray:
        x = np.empty((4, len(keys)))
        # each episode draws phi, then phidot, into rows 3 and 2
        x[3:1:-1] = uniform_block(keys, 2, -_PEND_RESET_RANGE, _PEND_RESET_RANGE)
        np.cos(x[3], x[0])
        np.sin(x[3], x[1])
        return x

    def step(self, x: np.ndarray, actions: np.ndarray, out: np.ndarray) -> None:
        # phidot' = clamp(phidot + dt acc), phi' = phi + dt phidot', where
        # acc = (g / l) sin(phi) + u / (m l^2) = 10 sin(phi) + u exactly
        acc, phi = out[2], out[3]
        np.multiply(x[1], _PEND_G_OVER_L, out=acc)
        acc += actions[0]
        acc *= _PEND_DT
        acc += x[2]
        np.maximum(acc, _PEND_MIN_SPEED, out=acc)
        np.minimum(acc, _PEND_MAX_SPEED, out=acc)
        np.multiply(acc, _PEND_DT, out=phi)
        phi += x[3]
        np.cos(phi, out[0])
        np.sin(phi, out[1])

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


_ENV_CLASSES = {cls.spec.name: cls for cls in (Lqr2dEnv, PointMass2dEnv, PendulumEnv)}


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
            keys: np.ndarray):
    """Run B = len(keys) episodes in lockstep to the horizon T, episode b
    reset from the stream at the uint64 key keys[b] of the 1-D `keys`;
    returns the raw observed states (B, T, n), actions (B, T, p),
    env_rewards (B, T) and the environment returns (B,). A discriminator
    scores the returned block afterwards (`trainer.search`).

    `thetas` is (B, p, n), one policy per episode, or one (p, n) for all,
    in any memory layout; actions are clipped to the actuator range. The
    normalizer is read, never written.

    The loop steps one time-major, episode-minor (T + 1, k, B) state block
    and one (T, p, B) action block: `step` reads the (k, B) x[t] and the
    (p, B) actions of step t and writes x[t + 1], every row of them the
    contiguous (B,) values of one coordinate. The finished blocks are
    copied once into the episode-major blocks returned.
    """
    spec = env.spec
    n, p, horizon = spec.state_dim, spec.action_dim, spec.horizon
    if np.ndim(thetas) not in (2, 3) or np.shape(thetas)[-2:] != (p, n):
        raise ValueError(f"{spec.name} takes ({p}, {n}) or (B, {p}, {n}) "
                         f"policies, got shape {np.shape(thetas)}")
    if normalizer.mean.shape != (n,):
        raise ValueError(f"{spec.name} takes {n}-wide whitening "
                         f"statistics, got shape {normalizer.mean.shape}")
    if np.ndim(keys) != 1:
        raise ValueError(f"{spec.name} takes a 1-D array of keys, one per "
                         f"episode, got shape {np.shape(keys)}")
    if len(keys) == 0:
        raise ValueError(f"{spec.name} takes one or more episodes, got 0")
    if np.ndim(thetas) == 3 and len(thetas) != len(keys):
        raise ValueError(f"{spec.name} takes one policy per episode, got "
                         f"{len(thetas)} policies for {len(keys)} episodes")
    inv_rms = normalizer.snapshot()
    # theta @ (s * inv_rms) == (theta * inv_rms) @ s; in C order, because
    # the matmul need not round a strided or Fortran-ordered stack as it
    # rounds a contiguous one
    thetas = np.ascontiguousarray(thetas if inv_rms is None else thetas * inv_rms)
    hi = _const(spec.action_clip)
    lo = _const(-spec.action_clip)
    x_0 = env.reset(keys)
    x = np.empty((horizon + 1, *x_0.shape))
    x[0] = x_0
    taken = np.empty((horizon, p, len(keys)))
    # the matmul's (B, n, 1) operands and (B, p, 1) outputs as views of the
    # blocks, made once: a view per step costs about what the layout saves
    obs = x[:, :n].transpose(0, 2, 1)[..., None]
    acts = taken.transpose(0, 2, 1)[..., None]
    for x_t, s_t, x_next, a, a_t in zip(x, obs, x[1:], acts, taken):
        # a stacked matmul rounds like one episode's theta @ s; at the
        # built-in widths (a BLAS dot for p = 1 and n <= 3, a gemv for
        # p = 2) the strided states round as contiguous ones do
        np.matmul(thetas, s_t, out=a)
        # clip in place; NaN stays NaN, as in np.clip
        np.maximum(a_t, lo, out=a_t)
        np.minimum(a_t, hi, out=a_t)
        env.step(x_t, a_t, x_next)
    # one copy of each into the (B, T, .) blocks the callers index by episode
    x_block = x[:horizon].transpose(2, 0, 1).copy()
    actions = taken.transpose(2, 0, 1).copy()
    # the block itself when x holds only the observation
    states = np.ascontiguousarray(x_block[..., :n])
    env_rewards = env.rewards(x_block, actions)
    # cumsum adds in step order, like a scalar running sum; + 0.0 gives the
    # +0.0 that a sum started from 0.0 leaves when every reward is -0.0
    returns = np.cumsum(env_rewards, axis=1)[:, -1] + 0.0
    return states, actions, env_rewards, returns


def episode_keys(seed: int, episodes: int) -> np.ndarray:
    """Stream keys of evaluation/recording episodes 0, ..., episodes - 1
    under `seed`."""
    check_count("episodes", episodes, 1)
    return Rng(seed).keys(EPISODE_STREAM, np.arange(episodes))


def evaluate_policy(policy: LinearPolicy, normalizer: ObservationNormalizer,
                    env_name: str, episodes: int, seed: int) -> tuple[float, float]:
    """Mean and population std of environment return over seeded episodes."""
    *_, returns = rollout(make_env(env_name), policy.theta, normalizer,
                          episode_keys(seed, episodes))
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
