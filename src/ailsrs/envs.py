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
* `step(x, actions, out)` is the dynamics only: x, actions and out are
  sequences of k, p and k contiguous (B,) rows, one per coordinate, and
  from the states x and the actions it writes the next states into the
  rows of out, which share no memory with x. So each ufunc runs over all
  B episodes at unit stride, and a (k, B) block is such a sequence;
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

import functools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .numerics import Rng, _const, check_integer, sum_in_order, uniform_block
from .policy import LinearPolicy, ObservationNormalizer

# label for per-episode evaluation/recording streams, shared by everything
# that promises "same seed, same episodes" (evaluate, record, riccati)
EPISODE_STREAM = 100

# the operands of `step`: contiguous (B,) rows, one per coordinate
Rows = Sequence[np.ndarray]


# numpy's clip ufunc, which np.clip and ndarray.clip reach only through
# Python dispatch that costs more than the clamp on a 16-row column; it is
# max then min, so NaN stays NaN and every bit is that of np.maximum then
# np.minimum, in one call instead of two. numpy (>= 2.0) has no public name
# for it
_CLIP = np._core.umath.clip

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
_PEND_RESET_HI = _const([[math.pi], [1.0]])  # |phi|, |phidot| at reset
_PEND_RESET_LO = _const(-_PEND_RESET_HI)


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

    def step(self, x: Rows, actions: Rows, out: Rows) -> None:
        # s' = A s + B a with A = [[1, .1], [0, 1]], B = [[0], [.1]]:
        # s' = s + 0.1 (v, a)
        np.multiply(x[1], _LQR_DT, out[0])
        np.add(out[0], x[0], out[0])
        np.multiply(actions[0], _LQR_DT, out[1])
        np.add(out[1], x[1], out[1])

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

    def step(self, x: Rows, actions: Rows, out: Rows) -> None:
        # semi-implicit Euler: velocity first, then position
        vx, vy = out[2], out[3]
        np.multiply(actions[0], _POINTMASS_DT, vx)
        np.add(x[2], vx, vx)
        np.multiply(actions[1], _POINTMASS_DT, vy)
        np.add(x[3], vy, vy)
        np.multiply(vx, _POINTMASS_DT, out[0])
        np.add(x[0], out[0], out[0])
        np.multiply(vy, _POINTMASS_DT, out[1])
        np.add(x[1], out[1], out[1])

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
        x[3:1:-1] = uniform_block(keys, 2, _PEND_RESET_LO, _PEND_RESET_HI)
        np.cos(x[3], x[0])
        np.sin(x[3], x[1])
        return x

    def step(self, x: Rows, actions: Rows, out: Rows) -> None:
        # phidot' = clamp(phidot + dt acc), phi' = phi + dt phidot', where
        # acc = (g / l) sin(phi) + u / (m l^2) = 10 sin(phi) + u exactly
        acc, phi = out[2], out[3]
        np.multiply(x[1], _PEND_G_OVER_L, out=acc)
        acc += actions[0]
        acc *= _PEND_DT
        acc += x[2]
        _CLIP(acc, _PEND_MIN_SPEED, _PEND_MAX_SPEED, acc)
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


@functools.lru_cache(maxsize=4)
def _workspace(k: int, n: int, p: int, horizon: int, episodes: int,
               thread: int):
    """The blocks and step operands of `rollout` for one shape on one
    thread (`thread` only keys the cache, so no two threads share them):
    the (T + 1, k, B) state block x, the (T, p, B) action block and, for
    every step t, the matmul's (B, n, 1) states and (B, p, 1) output views,
    the (p, B) actions to clip, and the (B,) row tuples of x[t], of the
    actions and of x[t + 1] that `step` takes. Made every step, these
    views cost about a sixth of a pendulum step on 16 episodes, so they are
    made once; a search uses two shapes, its 2N episodes and its
    evaluation episodes."""
    x = np.empty((horizon + 1, k, episodes))
    taken = np.empty((horizon, p, episodes))
    obs = x[:, :n].transpose(0, 2, 1)[..., None]
    acts = taken.transpose(0, 2, 1)[..., None]
    x_rows = [tuple(x_t) for x_t in x]
    steps = tuple(zip(obs, acts, taken, x_rows, map(tuple, taken), x_rows[1:]))
    return x, taken, steps


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
    and one (T, p, B) action block: `step` reads the rows of x[t] and of the
    actions of step t and writes the rows of x[t + 1], each row the
    contiguous (B,) values of one coordinate. The blocks and every step's
    operands are a workspace cached per (k, n, p, T, B, thread), at most
    four of them, made on a shape's first rollout on a thread and reused
    after; the finished blocks are copied once into the episode-major
    blocks returned, so nothing returned aliases the workspace.
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
    key_dtype = np.asarray(keys).dtype
    if key_dtype.kind != "u":
        raise ValueError(f"{spec.name} takes unsigned integer stream keys "
                         f"(see Rng.keys), got dtype {key_dtype}")
    if len(keys) == 0:
        raise ValueError(f"{spec.name} takes one or more episodes, got 0")
    if np.ndim(thetas) == 3 and len(thetas) != len(keys):
        raise ValueError(f"{spec.name} takes one policy per episode, got "
                         f"{len(thetas)} policies for {len(keys)} episodes")
    # theta @ (s * inv_rms) == (theta * inv_rms) @ s; in C order, because
    # the matmul need not round a strided or Fortran-ordered stack as it
    # rounds a contiguous one
    thetas = np.multiply(thetas, normalizer.snapshot(), order="C")
    hi = _const(spec.action_clip)
    lo = _const(-spec.action_clip)
    x_0 = env.reset(keys)
    x, taken, steps = _workspace(len(x_0), n, p, horizon, len(keys),
                                 threading.get_ident())
    x[0] = x_0
    # looked up per call, so a wrapper installed on the class sees every step
    step = env.step
    matmul, clip = np.matmul, _CLIP
    for s_t, a, a_t, x_t, u_t, x_next in steps:
        # a stacked matmul rounds like one episode's theta @ s; at the
        # built-in widths (a BLAS dot for p = 1 and n <= 3, a gemv for
        # p = 2) the strided states round as contiguous ones do
        matmul(thetas, s_t, out=a)
        # clip in place; NaN stays NaN, as in np.clip
        clip(a_t, lo, hi, a_t)
        step(x_t, u_t, x_next)
    # one copy of each into the (B, T, .) blocks the callers index by episode
    x_block = x[:horizon].transpose(2, 0, 1).copy()
    actions = taken.transpose(2, 0, 1).copy()
    # x_block itself when x holds only the observation (k = n), else one
    # copy of the workspace's first n coordinates
    states = x_block if len(x_0) == n else x[:horizon, :n].transpose(2, 0, 1).copy()
    env_rewards = env.rewards(x_block, actions)
    # returns in step order, like a scalar running sum, so an episode of all
    # -0.0 rewards returns +0.0
    return states, actions, env_rewards, sum_in_order(env_rewards, 1)


def episode_keys(seed: int, episodes: int) -> np.ndarray:
    """Stream keys of evaluation/recording episodes 0, ..., episodes - 1
    under `seed`."""
    check_integer("episodes", episodes, 1)
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
    p, converged = LQR_Q.copy(), False
    for _ in range(100_000):
        btp = LQR_B.T @ p
        gain = np.linalg.solve(LQR_R + btp @ LQR_B, btp @ LQR_A)
        if converged:  # the gain of the converged cost-to-go
            break
        p_next = LQR_Q + LQR_A.T @ p @ LQR_A - LQR_A.T @ p @ LQR_B @ gain
        converged = np.max(np.abs(p_next - p)) < 1e-12
        p = p_next
    policy = LinearPolicy(-gain)
    normalizer = ObservationNormalizer.for_dim(2)
    mean, _ = evaluate_policy(policy, normalizer, "lqr2d", episodes, seed)
    return policy, normalizer, mean
