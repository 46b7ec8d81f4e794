import math
import re

import numpy as np
import pytest

from _oracles import ScalarRng

from ailsrs.envs import (LQR_A, LQR_B, LQR_Q, LQR_R, EnvSpec, env_names,
                         episode_keys, evaluate_policy, make_env, riccati_optimal,
                         rollout)
from ailsrs.numerics import Rng
from ailsrs.policy import LinearPolicy, ObservationNormalizer

ENVS = ("lqr2d", "pointmass2d", "pendulum")


def _root_keys(*seeds):
    """The keys of the root streams Rng(seed), one per episode: a root
    stream's key is its seed."""
    return np.array(seeds, dtype=np.uint64)


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
    s1 = env.reset(_root_keys(5))
    s2 = make_env("lqr2d").reset(_root_keys(5))
    np.testing.assert_array_equal(s1, s2)


def test_reset_ranges():
    env = make_env("lqr2d")
    s = env.reset(_root_keys(*range(50)))
    assert s.shape == (2, 50)
    assert np.all(s >= -1.0) and np.all(s <= 1.0)
    pm = make_env("pointmass2d")
    s = pm.reset(_root_keys(0))
    np.testing.assert_array_equal(s[2:, 0], [0.0, 0.0])


def test_lqr_step_arithmetic():
    env = make_env("lqr2d")
    # one episode per column: (1, 0) and (0, 1)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    a = np.array([[0.0, 0.0]])
    x_next = np.empty_like(x)
    env.step(x, a, x_next)
    np.testing.assert_allclose(x_next, np.transpose([[1.0, 0.0], [0.1, 1.0]]))
    np.testing.assert_array_equal(env.rewards(x.T, a.T), [-1.0, -1.0])


def test_pendulum_equilibrium():
    env = make_env("pendulum")
    # upright at rest: (cos phi, sin phi, phidot, phi) = (1, 0, 0, 0)
    x, a = np.array([[1.0], [0.0], [0.0], [0.0]]), np.array([[0.0]])
    x_next = np.empty_like(x)
    env.step(x, a, x_next)
    np.testing.assert_allclose(x_next[:3], [[1.0], [0.0], [0.0]])
    assert env.rewards(x.T, a.T)[0] == 0.0


def test_rewards_never_positive():
    for name in env_names():
        env = make_env(name)
        rng = ScalarRng(17)
        x = env.reset(_root_keys(17, 18))
        for _ in range(env.spec.horizon):
            a = np.array([[rng.gaussian() for _ in range(env.spec.action_dim)]
                          for _ in range(2)])
            r = env.rewards(x.T, a)
            assert r.shape == (2,) and np.all(r <= 0.0)
            x_next = np.empty_like(x)
            env.step(x, a.T.copy(), x_next)
            x = x_next


@pytest.mark.parametrize("name", ENVS)
def test_step_writes_every_column_of_out_and_nothing_else(name):
    # the engine steps x[t] into x[t + 1] of one block: step must write every
    # row of out, private ones too, and leave x and the actions as they were
    env = make_env(name)
    x = env.reset(_root_keys(4, 5))
    actions = np.full((env.spec.action_dim, 2), 0.5)
    before = x.tobytes(), actions.tobytes()
    out = np.full_like(x, np.nan)
    env.step(x, actions, out)
    assert np.all(np.isfinite(out))
    assert (x.tobytes(), actions.tobytes()) == before


@pytest.mark.parametrize("name, scale", [
    *(pytest.param(name, 0.3, id=name) for name in ENVS),
    *(pytest.param(name, 30.0, id=f"{name}-saturating") for name in ENVS)])
def test_block_rewards_match_step_slices(name, scale):
    # rollout calls rewards once on the (B, T, .) blocks; that must equal,
    # bit for bit, one call per (B, .) step slice
    env = make_env(name)
    spec = env.spec
    rng = ScalarRng(21)
    width = env.reset(_root_keys(21)).shape[0]
    xs = np.stack([scale * rng.derive(1, b).gaussian_matrix(30, width)
                   for b in range(8)])
    actions = np.stack([scale * rng.derive(2, b).gaussian_matrix(30, spec.action_dim)
                        for b in range(8)])
    np.clip(actions, -spec.action_clip, spec.action_clip, out=actions)
    block = env.rewards(xs, actions)
    assert block.shape == (8, 30)
    for t in range(30):
        # contiguous (B, .) arrays, as a step produces them
        step = env.rewards(xs[:, t].copy(), actions[:, t].copy())
        assert block[:, t].tobytes() == step.tobytes()


@pytest.mark.parametrize("name", ENVS)
def test_observation_is_leading_columns_of_state(name):
    # rollout records the first state_dim rows of the x that reset and step
    # reach; the pendulum keeps cos and sin of its angle in rows 0, 1
    env = make_env(name)
    n, p = env.spec.state_dim, env.spec.action_dim
    rng = ScalarRng(8)
    thetas = np.stack([3.0 * rng.derive(2, b).gaussian_matrix(p, n)
                       for b in range(4)])
    states, actions, _, _ = rollout(env, thetas, ObservationNormalizer.for_dim(n),
                                    rng.keys(3, np.arange(4)))
    x = env.reset(rng.keys(3, np.arange(4)))
    assert x.ndim == 2 and x.shape[0] >= n and x.shape[1] == 4
    for t in range(env.spec.horizon):
        assert states[:, t].tobytes() == np.ascontiguousarray(x[:n].T).tobytes()
        if name == "pendulum":
            assert x[0].tobytes() == np.cos(x[3]).tobytes()
            assert x[1].tobytes() == np.sin(x[3]).tobytes()
        x_next = np.empty_like(x)
        env.step(x, actions[:, t].T.copy(), x_next)
        x = x_next


class _NegativeZeroEnv:
    """A block env whose every reward is -0.0."""

    spec = EnvSpec("negzero", 1, 1, 5, 1.0)

    def reset(self, keys):
        return np.zeros((1, len(keys)))

    def step(self, x, actions, out):
        out[...] = x

    def rewards(self, xs, actions):
        return np.full(xs.shape[:-1], -0.0)


def test_all_negative_zero_rewards_return_positive_zero():
    # a running sum started from 0.0 gives +0.0 when every reward is -0.0
    *_, env_rewards, returns = rollout(_NegativeZeroEnv(), np.zeros((1, 1)),
                                       ObservationNormalizer.for_dim(1),
                                       _root_keys(0, 1))
    assert env_rewards.tobytes() == np.full((2, 5), -0.0).tobytes()
    assert returns.tobytes() == np.zeros(2).tobytes()


def test_rollout_zero_policy_matches_drift_oracle():
    # oracle: simulate the uncontrolled linear system directly
    env = make_env("lqr2d")
    pol = LinearPolicy.zeros(1, 2)
    norm = ObservationNormalizer.for_dim(2)
    _, _, (env_rewards,), (ret,) = rollout(env, pol.theta, norm, _root_keys(42))

    s = make_env("lqr2d").reset(_root_keys(42))[:, 0]
    expect = 0.0
    for _ in range(100):
        expect -= float(s @ s)
        s = LQR_A @ s
    assert ret == pytest.approx(expect, rel=1e-12)
    # the environment return is the running sum of the recorded rewards
    assert ret == sum(env_rewards)
    assert len(env_rewards) == 100


def test_rollout_respects_horizon():
    env = make_env("lqr2d")
    pol = LinearPolicy.zeros(1, 2)
    norm = ObservationNormalizer.for_dim(2)
    states, _, _, returns = rollout(env, pol.theta, norm, _root_keys(1, 2))
    assert states.shape[:2] == (2, 100) and returns.shape == (2,)


def test_episodes_run_exactly_to_horizon():
    for name in env_names():
        env = make_env(name)
        pol = LinearPolicy.zeros(env.spec.action_dim, env.spec.state_dim)
        norm = ObservationNormalizer.for_dim(env.spec.state_dim)
        states, actions, env_rewards, returns = rollout(env, pol.theta, norm,
                                                        _root_keys(2, 3))
        n, p, horizon = env.spec.state_dim, env.spec.action_dim, env.spec.horizon
        assert states.shape == (2, horizon, n) and actions.shape == (2, horizon, p)
        assert env_rewards.shape == (2, horizon) and returns.shape == (2,)


def test_rollout_deterministic():
    pol = LinearPolicy(np.array([[0.3, -0.2]]))
    norm = ObservationNormalizer.for_dim(2)
    s1, a1, _, r1 = rollout(make_env("lqr2d"), pol.theta, norm, _root_keys(9))
    s2, a2, _, r2 = rollout(make_env("lqr2d"), pol.theta, norm, _root_keys(9))
    assert r1.tobytes() == r2.tobytes()
    assert s1.tobytes() == s2.tobytes()
    assert a1.tobytes() == a2.tobytes()


def test_rollout_records_clipped_actions():
    pol = LinearPolicy(np.array([[100.0, 0.0]]))  # saturates the actuator
    norm = ObservationNormalizer.for_dim(2)
    _, actions, _, _ = rollout(make_env("lqr2d"), pol.theta, norm, _root_keys(3))
    assert np.max(np.abs(actions)) <= 10.0


@pytest.mark.parametrize("width", [pytest.param(1, id="1-wide"),
                                   pytest.param(3, id="3-wide")])
def test_rollout_rejects_whitening_statistics_of_another_width(width):
    # a 1-wide normalizer would broadcast over both lqr2d coordinates
    norm = ObservationNormalizer(3, np.full(width, 0.5), np.full(width, 3.0))
    with pytest.raises(ValueError, match=re.escape(
            f"lqr2d takes 2-wide whitening statistics, got shape ({width},)")):
        rollout(make_env("lqr2d"), np.array([[0.3, -0.2]]), norm, _root_keys(0))


@pytest.mark.parametrize("name", ENVS)
@pytest.mark.parametrize("thetas_shape, episodes, message", [
    pytest.param((), 0, "takes one or more episodes, got 0", id="no-episodes"),
    pytest.param((3,), 0, "takes one or more episodes, got 0",
                 id="no-episodes-3-policies"),
    pytest.param((3,), 4, "takes one policy per episode, got 3 policies for 4 "
                 "episodes", id="3-policies-4-episodes"),
    pytest.param((1,), 2, "takes one policy per episode, got 1 policies for 2 "
                 "episodes", id="1-policy-2-episodes")])
def test_rollout_rejects_episode_and_policy_counts(name, thetas_shape, episodes,
                                                   message):
    # the block is sized from the episode list, and a (B, p, n) stack holds
    # one policy per episode; a (p, n) policy is shared, so any B > 0 takes it
    spec = make_env(name).spec
    thetas = np.zeros((*thetas_shape, spec.action_dim, spec.state_dim))
    with pytest.raises(ValueError, match=re.escape(f"{name} {message}")):
        rollout(make_env(name), thetas, ObservationNormalizer.for_dim(spec.state_dim),
                _root_keys(*range(episodes)))


@pytest.mark.parametrize("name", ENVS)
@pytest.mark.parametrize("stack", [pytest.param((1, 1), id="1x1-stack"),
                                   pytest.param((2, 2), id="2x2-stack")])
def test_rollout_rejects_policy_stacks_of_rank_4(name, stack):
    # a (1, 1, p, n) stack used to broadcast silently over every episode, and
    # a (2, 2, p, n) one failed inside numpy
    spec = make_env(name).spec
    p, n = spec.action_dim, spec.state_dim
    thetas = np.zeros((*stack, p, n))
    with pytest.raises(ValueError, match=re.escape(
            f"{name} takes ({p}, {n}) or (B, {p}, {n}) policies, got shape "
            f"{thetas.shape}")):
        rollout(make_env(name), thetas, ObservationNormalizer.for_dim(n),
                _root_keys(*range(stack[0])))


@pytest.mark.parametrize("name", ENVS)
@pytest.mark.parametrize("labels", [
    pytest.param((np.arange(3)[:, None], (0, 1)), id="3x2-keys"),
    pytest.param((0,), id="0d-key")])
def test_rollout_rejects_keys_that_are_not_1d(name, labels):
    # the (N, 2) block of evaluate_directions' keys before their ravel used to
    # pass the count check and fail inside numpy; a 0-d key had no length
    spec = make_env(name).spec
    keys = Rng(5).keys(*labels)
    with pytest.raises(ValueError, match=re.escape(
            f"{name} takes a 1-D array of keys, one per episode, got shape "
            f"{keys.shape}")):
        rollout(make_env(name), np.zeros((spec.action_dim, spec.state_dim)),
                ObservationNormalizer.for_dim(spec.state_dim), keys)


class _RecordingEnv:
    """Wraps an env and checks the layout of every `step` call it gets."""

    def __init__(self, env):
        self.env, self.spec, self.steps = env, env.spec, 0

    def reset(self, keys):
        return self.env.reset(keys)

    def step(self, x, actions, out):
        k, n_episodes = x.shape
        assert out.shape == (k, n_episodes) and k >= self.spec.state_dim
        assert actions.shape == (self.spec.action_dim, n_episodes)
        for block in (x, out, actions):
            assert all(row.flags.c_contiguous for row in block)
        assert not np.shares_memory(x, out)
        self.steps += 1
        self.env.step(x, actions, out)

    def rewards(self, xs, actions):
        return self.env.rewards(xs, actions)


@pytest.mark.parametrize("name", ENVS)
@pytest.mark.parametrize("shared", [False, True], ids=["stacked", "shared"])
def test_rollout_steps_on_contiguous_episode_rows(name, shared):
    # every step reads and writes (B,) rows, one per coordinate, so a ufunc
    # runs at unit stride over the episodes; a strided column would pass
    # the shape checks but not the contiguity one
    env = _RecordingEnv(make_env(name))
    n, p = env.spec.state_dim, env.spec.action_dim
    thetas = np.full((5, p, n), 0.1)
    states, *_ = rollout(env, thetas[0] if shared else thetas,
                         ObservationNormalizer.for_dim(n),
                         _root_keys(*range(5)))
    assert env.steps == env.spec.horizon
    assert states.shape == (5, env.spec.horizon, n)


def _scalar_episode(name, theta_eff, rng):
    """Reference: one episode simulated step by step with scalar
    Python-float physics (math.sin, Python's ** and min/max)."""
    spec = make_env(name).spec
    if name == "pendulum":
        phi, phidot = rng.uniform_in(-math.pi, math.pi), rng.uniform_in(-1.0, 1.0)
    else:
        s = np.array([rng.uniform_in(-1.0, 1.0), rng.uniform_in(-1.0, 1.0),
                      0.0, 0.0][:spec.state_dim])
    states, actions, rewards, ret = [], [], [], 0.0
    for _ in range(spec.horizon):
        if name == "pendulum":
            s = np.array([math.cos(phi), math.sin(phi), phidot])
        a = np.clip(theta_eff @ s, -spec.action_clip, spec.action_clip)
        states.append(s.copy())
        actions.append(a)
        if name == "lqr2d":
            r = -(s[0] * s[0] + s[1] * s[1] + 0.1 * (a[0] * a[0]))
            s = np.array([s[0] + 0.1 * s[1], s[1] + 0.1 * a[0]])
        elif name == "pointmass2d":
            r = -(s[0] * s[0] + s[1] * s[1] + 0.01 * float(a @ a))
            s[2:] += 0.1 * a
            s[:2] += 0.1 * s[2:]
        else:
            u = float(a[0])
            wrapped = (phi + math.pi) % (2.0 * math.pi) - math.pi
            r = -(wrapped ** 2 + 0.1 * phidot ** 2 + 0.001 * u * u)
            phidot = min(max(phidot + 0.05 * (10.0 * math.sin(phi) + u), -8.0), 8.0)
            phi = phi + 0.05 * phidot
        rewards.append(r)
        ret += r
    return (np.array(states), np.array(actions), np.array(rewards)), ret


@pytest.mark.parametrize("name, scale, shared", [
    *(pytest.param(name, 0.3, False, id=name) for name in ENVS),
    *(pytest.param(name, 30.0, False, id=f"{name}-saturating") for name in ENVS),
    *(pytest.param(name, 0.3, True, id=f"{name}-shared") for name in ENVS),
    *(pytest.param(name, 30.0, True, id=f"{name}-shared-saturating")
      for name in ENVS)])
def test_block_rollout_matches_scalar_reference(name, scale, shared):
    # small weights leave most actions inside the actuator range; large ones
    # drive them to +-action_clip and the pendulum to +-max_speed. A shared
    # (p, n) policy is the path of evaluate_policy and record: one policy
    # broadcast over every episode
    spec = make_env(name).spec
    rng = ScalarRng(12)
    norm = ObservationNormalizer.for_dim(spec.state_dim)
    norm.add_states(np.array([[rng.gaussian() for _ in range(spec.state_dim)]
                              for _ in range(20)]))
    thetas = np.stack([scale * rng.derive(2, b).gaussian_matrix(spec.action_dim,
                                                               spec.state_dim)
                       for b in range(16)])
    if shared:
        thetas = thetas[0]
    states, actions, env_rewards, returns = rollout(
        make_env(name), thetas, norm, rng.keys(3, np.arange(16)))
    if scale > 1.0:
        assert np.any(actions == spec.action_clip)
        assert np.any(actions == -spec.action_clip)
        if name == "pendulum":
            phidot = states[:, :, 2]
            assert np.any(phidot == 8.0) and np.any(phidot == -8.0)
    for b in range(16):
        (ref_states, ref_actions, ref_rewards), ref_ret = _scalar_episode(
            name, (thetas if shared else thetas[b]) * norm.snapshot(),
            rng.derive(3, b))
        assert states[b].tobytes() == ref_states.tobytes()
        assert actions[b].tobytes() == ref_actions.tobytes()
        assert env_rewards[b].tobytes() == ref_rewards.tobytes()
        assert returns[b] == ref_ret


def _episode_bytes(states, actions, env_rewards, returns):
    return [tuple(x.tobytes() for x in episode)
            for episode in zip(states, actions, env_rewards, returns)]


# rollout returns environment returns; the discriminator's rewards of a block
# are checked against one episode at a time by test_discriminator.py's
# test_episode_block_rewards_byte_equal_to_one_episode_at_a_time
@pytest.mark.parametrize("name", ENVS, ids=[f"env-reward-{n}" for n in ENVS])
def test_block_rollout_matches_single_episodes(name):
    # B episodes in lockstep equal B one-episode rollouts bit for bit, with
    # per-episode policies and warm whitening statistics
    spec = make_env(name).spec
    rng = ScalarRng(11)
    norm = ObservationNormalizer.for_dim(spec.state_dim)
    norm.add_states(np.array([[rng.gaussian() for _ in range(spec.state_dim)]
                              for _ in range(20)]))
    thetas = np.stack([0.5 * rng.derive(2, b).gaussian_matrix(spec.action_dim,
                                                             spec.state_dim)
                       for b in range(6)])
    block = rollout(make_env(name), thetas, norm, rng.keys(3, np.arange(6)))
    single = [rollout(make_env(name), thetas[b], norm, rng.keys(3, [b]))
              for b in range(6)]
    assert _episode_bytes(*block) == [_episode_bytes(*one)[0] for one in single]


@pytest.mark.parametrize("name", ENVS)
@pytest.mark.parametrize("whitened", [False, True], ids=["raw", "whitened"])
@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_rollout_bits_do_not_depend_on_policy_layout(name, whitened, layout):
    # the stacked matmul need not round a strided or Fortran-ordered stack as
    # it rounds a C-ordered one, so rollout makes the stack contiguous
    spec = make_env(name).spec
    p, n = spec.action_dim, spec.state_dim
    rng = ScalarRng(13)
    norm = ObservationNormalizer.for_dim(n)
    if whitened:
        norm.add_states(np.array([[rng.gaussian() for _ in range(n)]
                                  for _ in range(20)]))
    thetas = np.stack([rng.derive(2, b).gaussian_matrix(p, 2 * n) for b in range(16)])
    if layout == "fortran":
        thetas = np.asfortranarray(thetas[:, :, :n])
    else:
        thetas = thetas[:, :, ::2]
    assert not thetas.flags.c_contiguous
    keys = Rng(13).keys(3, np.arange(16))
    got = rollout(make_env(name), thetas, norm, keys)
    expect = rollout(make_env(name), np.ascontiguousarray(thetas), norm, keys)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in expect]


@pytest.mark.parametrize("episodes", [True, 2.5, np.float64(2.0), 0], ids=repr)
def test_evaluation_episode_counts_must_be_integers(episodes):
    # True used to run one episode; np.arange would take 2.5 as 3
    pol = LinearPolicy.zeros(1, 2)
    with pytest.raises(ValueError, match="^episodes must be an integer >= 1"):
        evaluate_policy(pol, ObservationNormalizer.for_dim(2), "lqr2d", episodes, 0)
    with pytest.raises(ValueError, match="^episodes must be an integer >= 1"):
        episode_keys(0, episodes)


def test_evaluation_takes_numpy_episode_counts():
    pol, norm, _ = riccati_optimal(episodes=1)
    assert evaluate_policy(pol, norm, "lqr2d", np.int64(3), 0) == \
        evaluate_policy(pol, norm, "lqr2d", 3, 0)


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
    keys = episode_keys(0, 100)
    *_, opt = rollout(make_env("lqr2d"), pol.theta, norm, keys)
    *_, zero_returns = rollout(make_env("lqr2d"), zero.theta, norm, keys)
    assert np.all(opt >= zero_returns)


def test_evaluate_policy_matches_riccati_estimate():
    pol, norm, estimate = riccati_optimal(seed=0, episodes=100)
    mean, _ = evaluate_policy(pol, norm, "lqr2d", 100, 0)
    assert mean == pytest.approx(estimate, abs=1e-9)


def test_evaluate_policy_single_episode_std_zero():
    pol, norm, _ = riccati_optimal(episodes=1)
    _, std = evaluate_policy(pol, norm, "lqr2d", 1, 0)
    assert std == 0.0
