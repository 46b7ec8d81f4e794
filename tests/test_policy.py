import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ScalarRng, welford_update

from ailsrs import envs
from ailsrs.ars import evaluate_directions
from ailsrs.envs import EnvSpec, rollout
from ailsrs.numerics import Rng
from ailsrs.policy import ObservationNormalizer, bc_closed_form


def _normalizer(mean, var, count=10):
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float)
    return ObservationNormalizer(count, mean, var * count)


class _ConstantStateEnv:
    """A block env that stays at `state` whatever the action."""

    def __init__(self, state, action_dim, horizon=1):
        self.state = np.asarray(state, dtype=float)
        self.spec = EnvSpec("constant", len(self.state), action_dim, horizon, 10.0)

    def reset(self, keys):
        return np.tile(self.state[:, None], (1, len(keys)))

    def step(self, x, actions, out):
        for row, value in zip(out, self.state):
            row.fill(value)

    def rewards(self, xs, actions):
        return np.zeros(xs.shape[:-1])


def _first_actions(thetas, norm, state):
    """The action each policy of `thetas` takes in `state`, via a one-step rollout."""
    thetas = np.asarray(thetas, dtype=float)
    env = _ConstantStateEnv(state, thetas.shape[-2])
    n_episodes = len(thetas) if thetas.ndim == 3 else 1
    _, actions, _, _ = rollout(env, thetas, norm,
                               np.arange(n_episodes, dtype=np.uint64))
    return actions[:, 0]


def test_act_identity_whitening():
    norm = _normalizer([0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(_first_actions(np.eye(2), norm, [0.3, -0.2]),
                               [[0.3, -0.2]])


def test_act_shifts_and_scales():
    # whitening divides by the RMS sqrt(var + mu^2) = sqrt(4 + 1) and does
    # not centre, so [3, 1] maps to [3, 1] / sqrt(5)
    norm = _normalizer([1.0, 1.0], [4.0, 4.0])
    expect = [3.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0)]
    np.testing.assert_allclose(np.array([3.0, 1.0]) * norm.snapshot(), expect,
                               rtol=1e-15)
    np.testing.assert_allclose(_first_actions(np.eye(2), norm, [3.0, 1.0]),
                               [expect], rtol=1e-15)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=2),
       st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2, max_size=2),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30)
def test_zero_state_gives_zero_action(mean, var, seed):
    # no constant action bias for any whitening statistics, in the whitening
    # and in the rollout's effective-weight path
    theta = ScalarRng(seed).gaussian_matrix(3, 2)
    norm = _normalizer(mean, var)
    assert np.all(np.zeros(2) * norm.snapshot() == 0.0)
    _, actions, _, _ = rollout(_ConstantStateEnv(np.zeros(2), 3, horizon=3), theta,
                               norm, Rng(seed).keys([0]))
    assert np.all(actions == 0.0)


def test_act_linear_in_theta():
    norm = _normalizer([0.5, -0.5], [2.0, 3.0])
    s = [0.7, 1.3]
    t1 = np.array([[1.0, 2.0]])
    t2 = np.array([[-0.3, 0.8]])
    lhs, a1, a2 = _first_actions([3.0 * t1 + 0.5 * t2, t1, t2], norm, s)
    np.testing.assert_allclose(lhs, 3.0 * a1 + 0.5 * a2, rtol=1e-12)


def test_act_identity_until_two_observations():
    norm = ObservationNormalizer.for_dim(2)
    welford_update(norm, np.array([5.0, 5.0]))  # count == 1: still identity
    np.testing.assert_array_equal(np.array([1.5, 9.0]) * norm.snapshot(), [1.5, 9.0])
    np.testing.assert_allclose(_first_actions([[2.0, 0.0]], norm, [1.5, 9.0]),
                               [[3.0]])


def test_act_dim_mismatch():
    with pytest.raises(ValueError, match=r"\(2, 3\)"):
        _first_actions(np.eye(2), ObservationNormalizer.for_dim(2), np.zeros(3))


class _BasisEnv:
    """Visits the basis states e_0, ..., e_{n-1} in turn, so the actions of
    an episode spell out the columns of its policy, exactly."""

    def __init__(self, p, n):
        self.spec = EnvSpec("basis", n, p, n, 1e9)

    def reset(self, keys):
        return np.tile(np.eye(self.spec.state_dim)[:, :1], (1, len(keys)))

    def step(self, x, actions, out):
        # out[j] = x[j - 1], as np.roll(x, 1, axis=0)
        for j, row in enumerate(out):
            np.copyto(row, x[j - 1])

    def rewards(self, xs, actions):
        return np.zeros(xs.shape[:-1])


def _perturbed_policies(theta, delta, nu):
    """The (+, -) policies that evaluate_directions rolls out for `delta`."""
    p, n = theta.shape
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(envs._ENV_CLASSES, "basis", lambda: _BasisEnv(p, n))
        _, _, actions = evaluate_directions(theta, delta[None], nu, "basis",
                                            ObservationNormalizer.for_dim(n),
                                            Rng(0))
    return list(actions.transpose(0, 2, 1))


def test_perturb_basic():
    theta = np.zeros((2, 2))
    plus, minus = _perturbed_policies(theta, np.ones((2, 2)), 0.03)
    np.testing.assert_allclose(plus, 0.03 * np.ones((2, 2)))
    np.testing.assert_allclose(minus, -0.03 * np.ones((2, 2)))
    assert np.all(theta == 0.0)  # input untouched


def test_perturb_pair_averages_to_original():
    rng = ScalarRng(3)
    theta = rng.gaussian_matrix(2, 3)
    delta = rng.gaussian_matrix(2, 3)
    plus, minus = _perturbed_policies(theta, delta, 0.1)
    np.testing.assert_allclose(0.5 * (plus + minus), theta, rtol=1e-15)


@given(st.floats(min_value=0.01, max_value=2.0),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30)
def test_perturb_antisymmetry(nu, seed):
    rng = ScalarRng(seed)
    theta = rng.gaussian_matrix(2, 2)
    delta = rng.gaussian_matrix(2, 2)
    plus, minus = _perturbed_policies(theta, delta, nu)
    np.testing.assert_allclose(plus - theta, -(minus - theta), rtol=1e-12,
                               atol=1e-15)


def _linear_expert_data(theta_star, n_samples, rng):
    states = rng.gaussian_matrix(n_samples, theta_star.shape[1])
    return states, states @ theta_star.T


def test_bc_closed_form_recovers_expert_exactly():
    theta_star = np.array([[1.5, -0.7], [0.2, 0.9]])
    states, actions = _linear_expert_data(theta_star, 50, ScalarRng(10))
    fitted, norm = bc_closed_form(states, actions, ridge=0.0)
    # un-whitened, the clone is the expert
    np.testing.assert_allclose(fitted.theta * norm.snapshot(), theta_star,
                               atol=1e-8)


def test_bc_closed_form_large_ridge_shrinks_to_zero():
    theta_star = np.array([[1.0, 2.0]])
    states, actions = _linear_expert_data(theta_star, 30, ScalarRng(11))
    fitted, _ = bc_closed_form(states, actions, ridge=1e12)
    assert np.max(np.abs(fitted.theta)) < 1e-6


def test_bc_closed_form_normal_equation_residual():
    rng = ScalarRng(12)
    states = rng.gaussian_matrix(200, 3)
    actions = rng.gaussian_matrix(200, 2)
    ridge = 1e-6
    fitted, norm = bc_closed_form(states, actions, ridge=ridge)
    a = fitted.theta.T
    z = states * norm.snapshot()
    resid = (z.T @ z + ridge * np.eye(3)) @ a - z.T @ actions
    assert np.max(np.abs(resid)) <= 1e-8


def test_bc_closed_form_singular_without_ridge():
    # rank-deficient states: second coordinate is always zero
    states = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    actions = np.array([[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError, match="ridge"):
        bc_closed_form(states, actions, ridge=0.0)


def test_bc_fit_zero_actions_gives_zero_policy():
    states = ScalarRng(14).gaussian_matrix(40, 2)
    fitted, _ = bc_closed_form(states, np.zeros((40, 1)), ridge=0.0)
    assert np.all(fitted.theta == 0.0)


def test_bc_fit_empty_dataset_errors():
    with pytest.raises(ValueError, match="empty dataset"):
        bc_closed_form(np.zeros((0, 2)), np.zeros((0, 1)), ridge=1e-8)


@pytest.mark.parametrize("fit", [
    pytest.param(bc_closed_form, id="bc_closed_form"),
])
def test_bc_unpaired_set_errors(fit):
    with pytest.raises(ValueError, match="pair up"):
        fit(np.zeros((3, 2)), np.zeros((2, 1)), ridge=0.0)


@pytest.mark.parametrize("states, actions, ridge, match", [
    pytest.param(np.ones((3, 2)), np.ones((3, 1)), np.nan, "ridge", id="nan-ridge"),
    pytest.param(np.ones((3, 2)), np.ones((3, 1)), np.inf, "ridge", id="inf-ridge"),
    pytest.param(np.ones(3), np.ones((3, 1)), 1e-8, "2-D", id="1d-states"),
    pytest.param(np.ones((3, 2)), np.ones(3), 1e-8, "2-D", id="1d-actions"),
    pytest.param([[1, 2], [np.nan, 1], [0.5, 0.3]], np.ones((3, 1)), 1e-8,
                 "finite", id="nan-state"),
    pytest.param(np.ones((3, 2)), [[1], [np.inf], [1]], 1e-8, "finite",
                 id="inf-action"),
])
def test_bc_unfittable_set_errors(states, actions, ridge, match):
    with pytest.raises(ValueError, match=match):
        bc_closed_form(states, actions, ridge=ridge)
