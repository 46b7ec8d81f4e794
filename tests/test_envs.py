import math

import numpy as np
import pytest

from ailsrs.envs import (LQR_A, LQR_B, LQR_Q, LQR_R, Trajectory, env_names,
                         episode_rng, evaluate_policy, make_env,
                         riccati_optimal, rollout)
from ailsrs.numerics import Rng
from ailsrs.policy import LinearPolicy, ObservationNormalizer


def test_make_env_specs():
    assert (make_env("lqr2d").spec.state_dim,
            make_env("lqr2d").spec.action_dim,
            make_env("lqr2d").spec.horizon) == (2, 1, 100)
    assert (make_env("pendulum").spec.state_dim,
            make_env("pendulum").spec.action_dim,
            make_env("pendulum").spec.horizon) == (3, 1, 200)
    assert (make_env("pointmass2d").spec.state_dim,
            make_env("pointmass2d").spec.action_dim,
            make_env("pointmass2d").spec.horizon) == (4, 2, 200)


def test_make_env_unknown_name():
    with pytest.raises(ValueError, match="lqr2d"):
        make_env("bogus")
    assert env_names() == ["lqr2d", "pendulum", "pointmass2d"]


def test_reset_deterministic():
    env = make_env("lqr2d")
    s1 = env.reset(Rng(5))
    s2 = make_env("lqr2d").reset(Rng(5))
    np.testing.assert_array_equal(s1, s2)


def test_reset_ranges():
    env = make_env("lqr2d")
    for i in range(50):
        s = env.reset(Rng(i))
        assert np.all(s >= -1.0) and np.all(s <= 1.0)
    pm = make_env("pointmass2d")
    s = pm.reset(Rng(0))
    np.testing.assert_array_equal(s[2:], [0.0, 0.0])


def test_lqr_step_arithmetic():
    env = make_env("lqr2d")
    env.reset(Rng(0))
    env.s = np.array([1.0, 0.0])
    s, r, done = env.step(np.array([0.0]))
    np.testing.assert_allclose(s, [1.0, 0.0])
    assert r == -1.0 and not done

    env.s = np.array([0.0, 1.0])
    s, r, _ = env.step(np.array([0.0]))
    np.testing.assert_allclose(s, [0.1, 1.0])
    assert r == -1.0


def test_pendulum_equilibrium():
    env = make_env("pendulum")
    env.reset(Rng(0))
    env.phi, env.phidot = 0.0, 0.0
    s, r, _ = env.step(np.array([0.0]))
    np.testing.assert_allclose(s, [1.0, 0.0, 0.0])
    assert r == 0.0


def test_step_after_done_errors():
    env = make_env("lqr2d")
    env.reset(Rng(1))
    for _ in range(env.spec.horizon):
        _, _, done = env.step(np.array([0.0]))
    assert done
    with pytest.raises(RuntimeError):
        env.step(np.array([0.0]))


def test_rewards_never_positive():
    for name in env_names():
        env = make_env(name)
        rng = Rng(17)
        env.reset(rng)
        for _ in range(env.spec.horizon):
            a = np.array([rng.gaussian() for _ in range(env.spec.action_dim)])
            _, r, _ = env.step(a)
            assert r <= 0.0


def test_rollout_zero_policy_matches_drift_oracle():
    # oracle: simulate the uncontrolled linear system directly
    env = make_env("lqr2d")
    rng = Rng(42)
    pol = LinearPolicy.zeros(1, 2)
    norm = ObservationNormalizer.for_dim(2)
    traj, disc_ret, env_ret = rollout(env, pol, norm, None, Rng(42))

    s = make_env("lqr2d").reset(rng)
    expect = 0.0
    for _ in range(100):
        expect -= float(s @ s)
        s = LQR_A @ s
    assert env_ret == pytest.approx(expect, rel=1e-12)
    assert disc_ret == env_ret
    assert len(traj) == 100


def test_rollout_respects_horizon_and_max_steps():
    env = make_env("lqr2d")
    pol = LinearPolicy.zeros(1, 2)
    norm = ObservationNormalizer.for_dim(2)
    traj, _, _ = rollout(env, pol, norm, None, Rng(1))
    assert len(traj) == 100
    traj, _, _ = rollout(make_env("lqr2d"), pol, norm, None, Rng(1), max_steps=7)
    assert len(traj) == 7


def test_episodes_run_exactly_to_horizon():
    for name in env_names():
        env = make_env(name)
        pol = LinearPolicy.zeros(env.spec.action_dim, env.spec.state_dim)
        norm = ObservationNormalizer.for_dim(env.spec.state_dim)
        traj, _, _ = rollout(env, pol, norm, None, Rng(2))
        assert len(traj) == env.spec.horizon


def test_rollout_deterministic():
    pol = LinearPolicy(np.array([[0.3, -0.2]]))
    norm = ObservationNormalizer.for_dim(2)
    t1, _, r1 = rollout(make_env("lqr2d"), pol, norm, None, Rng(9))
    t2, _, r2 = rollout(make_env("lqr2d"), pol, norm, None, Rng(9))
    assert r1 == r2
    assert t1.states.tobytes() == t2.states.tobytes()
    assert t1.actions.tobytes() == t2.actions.tobytes()


def test_rollout_records_clipped_actions():
    pol = LinearPolicy(np.array([[100.0, 0.0]]))  # saturates the actuator
    norm = ObservationNormalizer.for_dim(2)
    traj, _, _ = rollout(make_env("lqr2d"), pol, norm, None, Rng(3))
    assert np.max(np.abs(traj.actions)) <= 10.0


def test_riccati_fixed_point_residual():
    # oracle: plug the returned gain's fixed point back into the recurrence
    pol, _, _ = riccati_optimal(episodes=1)
    k = -pol.theta
    p = LQR_Q.copy()
    for _ in range(200_000):
        btp = LQR_B.T @ p
        gain = np.linalg.solve(LQR_R + btp @ LQR_B, btp @ LQR_A)
        p_next = LQR_Q + LQR_A.T @ p @ LQR_A - LQR_A.T @ p @ LQR_B @ gain
        if np.max(np.abs(p_next - p)) < 1e-14:
            break
        p = p_next
    resid = LQR_Q + LQR_A.T @ p @ LQR_A \
        - LQR_A.T @ p @ LQR_B @ np.linalg.solve(LQR_R + LQR_B.T @ p @ LQR_B,
                                                LQR_B.T @ p @ LQR_A) - p
    assert np.max(np.abs(resid)) <= 1e-10
    np.testing.assert_allclose(
        k, np.linalg.solve(LQR_R + LQR_B.T @ p @ LQR_B, LQR_B.T @ p @ LQR_A),
        atol=1e-9)


def test_riccati_gain_shape_and_sign():
    pol, _, _ = riccati_optimal(episodes=1)
    k = -pol.theta
    assert k.shape == (1, 2)
    assert np.all(k > 0.0)


def test_riccati_beats_zero_policy_on_every_seed():
    pol, norm, _ = riccati_optimal(episodes=1)
    zero = LinearPolicy.zeros(1, 2)
    for i in range(100):
        _, _, opt = rollout(make_env("lqr2d"), pol, norm, None, episode_rng(0, i))
        _, _, z = rollout(make_env("lqr2d"), zero, norm, None, episode_rng(0, i))
        assert opt >= z


def test_evaluate_policy_matches_riccati_estimate():
    pol, norm, estimate = riccati_optimal(seed=0, episodes=100)
    mean, _ = evaluate_policy(pol, norm, "lqr2d", 100, 0)
    assert mean == pytest.approx(estimate, abs=1e-9)


def test_evaluate_policy_single_episode_std_zero():
    pol, norm, _ = riccati_optimal(episodes=1)
    _, std = evaluate_policy(pol, norm, "lqr2d", 1, 0)
    assert std == 0.0
