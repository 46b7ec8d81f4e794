"""Desk-scale deterministic control environments and the rollout engine.

Three pure-cost tasks stand in for the usual physics benchmarks:

* lqr2d       - 2-state / 1-action discrete LQR with known optimal policy
* pointmass2d - planar double integrator driven to the origin
* pendulum    - torque-limited pendulum stabilized upright

Episodes always run to the fixed horizon; rewards are never positive.
Reward for a step is charged on the state where the action was taken.
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

    def __init__(self):
        self.s = np.zeros(2)
        self.t = 0

    def reset(self, rng: Rng) -> np.ndarray:
        self.s = np.array([rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0)])
        self.t = 0
        return self.s.copy()

    def step(self, action: np.ndarray):
        if self.t >= self.spec.horizon:
            raise RuntimeError("episode is done; reset the environment")
        a = np.clip(action, -self.spec.action_clip, self.spec.action_clip)
        s = self.s
        reward = -(s[0] * s[0] + s[1] * s[1] + 0.1 * (a[0] * a[0]))
        # s' = A s + B a with A = [[1, .1], [0, 1]], B = [[0], [.1]]
        self.s = np.array([s[0] + 0.1 * s[1], s[1] + 0.1 * a[0]])
        self.t += 1
        return self.s.copy(), reward, self.t >= self.spec.horizon


class PointMass2dEnv:
    """Planar double integrator, dt=0.1; state (px, py, vx, vy)."""

    spec = EnvSpec("pointmass2d", 4, 2, 200, 1.0)
    dt = 0.1

    def __init__(self):
        self.state = np.zeros(4)  # (px, py, vx, vy)
        self.t = 0

    def reset(self, rng: Rng) -> np.ndarray:
        self.state = np.array([rng.uniform_in(-1.0, 1.0),
                               rng.uniform_in(-1.0, 1.0), 0.0, 0.0])
        self.t = 0
        return self.state.copy()

    def step(self, action: np.ndarray):
        if self.t >= self.spec.horizon:
            raise RuntimeError("episode is done; reset the environment")
        a = np.clip(action, -self.spec.action_clip, self.spec.action_clip)
        s = self.state
        reward = -(s[0] * s[0] + s[1] * s[1] + 0.01 * float(a @ a))
        # semi-implicit Euler: velocity first, then position
        s[2:] += self.dt * a
        s[:2] += self.dt * s[2:]
        self.t += 1
        return s.copy(), reward, self.t >= self.spec.horizon


def _wrap_angle(phi: float) -> float:
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


class PendulumEnv:
    """Torque-limited pendulum held upright; observation (cos phi, sin phi, phidot)."""

    spec = EnvSpec("pendulum", 3, 1, 200, 2.0)
    g, l, m, dt = 10.0, 1.0, 1.0, 0.05
    max_speed = 8.0

    def __init__(self):
        self.phi = 0.0
        self.phidot = 0.0
        self.t = 0

    def _obs(self) -> np.ndarray:
        return np.array([math.cos(self.phi), math.sin(self.phi), self.phidot])

    def reset(self, rng: Rng) -> np.ndarray:
        self.phi = rng.uniform_in(-math.pi, math.pi)
        self.phidot = rng.uniform_in(-1.0, 1.0)
        self.t = 0
        return self._obs()

    def step(self, action: np.ndarray):
        if self.t >= self.spec.horizon:
            raise RuntimeError("episode is done; reset the environment")
        u = float(np.clip(action, -self.spec.action_clip, self.spec.action_clip)[0])
        reward = -(_wrap_angle(self.phi) ** 2 + 0.1 * self.phidot ** 2 + 0.001 * u * u)
        acc = (self.g / self.l) * math.sin(self.phi) + u / (self.m * self.l ** 2)
        self.phidot = min(max(self.phidot + self.dt * acc, -self.max_speed),
                          self.max_speed)
        self.phi = self.phi + self.dt * self.phidot
        self.t += 1
        return self._obs(), reward, self.t >= self.spec.horizon


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


@dataclass
class Trajectory:
    """One episode of raw states, executed (clipped) actions and env rewards."""

    states: np.ndarray       # (T, n)
    actions: np.ndarray      # (T, p)
    env_rewards: np.ndarray  # (T,)

    def __len__(self) -> int:
        return len(self.states)


def rollout(env, policy: LinearPolicy, normalizer: ObservationNormalizer,
            reward_source, rng: Rng, max_steps: int | None = None):
    """Run one episode; returns (trajectory, disc_return, env_return).

    `reward_source` is None for environment reward, or a discriminator-like
    object with `reward_batch(states, actions)`. The normalizer is read,
    never written; visited states come back in the trajectory. Discriminator
    rewards never influence the dynamics, so they are computed in one batch
    after the episode.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    steps = env.spec.horizon if max_steps is None else min(max_steps, env.spec.horizon)
    inv_rms = normalizer.snapshot()
    # theta @ (s * inv_rms) == (theta * inv_rms) @ s
    theta_eff = policy.theta if inv_rms is None else policy.theta * inv_rms
    clip = env.spec.action_clip
    s = env.reset(rng)
    states, actions, rewards = [], [], []
    env_return = 0.0
    for _ in range(steps):
        a = np.clip(theta_eff @ s, -clip, clip)
        s_next, r, done = env.step(a)
        env_return += r
        states.append(s)
        actions.append(a)
        rewards.append(r)
        s = s_next
        if done:
            break
    traj = Trajectory(np.array(states), np.array(actions), np.array(rewards))
    disc_return = env_return
    if reward_source is not None:
        disc_return = float(np.sum(reward_source.reward_batch(traj.states,
                                                              traj.actions)))
    return traj, disc_return, env_return


def episode_rng(seed: int, index: int) -> Rng:
    """Stream for evaluation/recording episode `index` under `seed`."""
    return Rng(seed, (EPISODE_STREAM, index))


def evaluate_policy(policy: LinearPolicy, normalizer: ObservationNormalizer,
                    env_name: str, episodes: int, seed: int,
                    max_steps: int | None = None) -> tuple[float, float]:
    """Mean and population std of environment return over seeded episodes."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    returns = np.empty(episodes)
    env = make_env(env_name)
    for i in range(episodes):
        _, _, ret = rollout(env, policy, normalizer, None, episode_rng(seed, i),
                            max_steps=max_steps)
        returns[i] = ret
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
