import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ScalarRng

from ailsrs.ars import (ArsConfig, ars_update, evaluate_directions,
                        sample_directions)
from ailsrs.discriminator import MlpDiscriminator
from ailsrs.envs import riccati_optimal
from ailsrs.numerics import Rng
from ailsrs.policy import ObservationNormalizer
from ailsrs.trainer import DIRECTIONS_STREAM, ROLLOUT_STREAM


def _e11():
    d = np.zeros((2, 2))
    d[0, 0] = 1.0
    return d


def _draw(rng, n, rows, cols):
    """n directions with their (+, -) returns, drawn one direction at a time."""
    deltas, returns = [], []
    for _ in range(n):
        deltas.append(rng.gaussian_matrix(rows, cols))
        returns.append([rng.gaussian(), rng.gaussian()])
    return np.array(deltas), np.array(returns)


def test_ars_update_single_direction_arithmetic():
    theta = np.zeros((2, 2))
    out = ars_update(theta, _e11()[None], np.array([[1.0, 0.0]]), alpha=0.02)
    # sigma of {1, 0} is 0.5, so the step is (0.02 / 0.5) * 1 * E11
    expect = np.zeros((2, 2))
    expect[0, 0] = 0.04
    np.testing.assert_allclose(out, expect, rtol=1e-15)


def test_ars_update_equal_returns_is_identity():
    theta = np.array([[1.0, -2.0]])
    deltas = np.array([[[0.5, 0.5]], [[-1.0, 2.0]]])
    returns = np.array([[3.0, 3.0], [3.0, 3.0]])
    np.testing.assert_array_equal(ars_update(theta, deltas, returns, 0.02), theta)


def test_ars_update_reward_scale_invariance():
    rng = ScalarRng(1)
    theta = rng.gaussian_matrix(1, 2)
    deltas, returns = _draw(rng, 8, 1, 2)
    base = ars_update(theta, deltas, returns, 0.02)
    for c in (0.1, 10.0, 1000.0):
        out = ars_update(theta, deltas, c * returns, 0.02)
        np.testing.assert_allclose(out, base, rtol=1e-12)


def test_ars_update_antisymmetry():
    rng = ScalarRng(2)
    theta = rng.gaussian_matrix(2, 3)
    deltas, returns = _draw(rng, 5, 2, 3)
    inc = ars_update(theta, deltas, returns, 0.02) - theta
    inc_swapped = ars_update(theta, deltas, returns[:, ::-1], 0.02) - theta
    np.testing.assert_allclose(inc, -inc_swapped, rtol=1e-12, atol=1e-18)


def test_ars_update_moves_along_winning_direction():
    theta = np.zeros((1, 2))
    delta = np.array([[1.0, -2.0]])
    up = ars_update(theta, delta[None], np.array([[2.0, 1.0]]), 0.02)
    assert np.dot(up.ravel(), delta.ravel()) > 0
    down = ars_update(theta, delta[None], np.array([[1.0, 2.0]]), 0.02)
    assert np.dot(down.ravel(), delta.ravel()) < 0


def test_ars_update_shape_mismatch_errors():
    with pytest.raises(ValueError):
        ars_update(np.zeros((2, 2)), np.zeros((1, 1, 2)), np.array([[1.0, 0.0]]), 0.02)
    with pytest.raises(ValueError):
        ars_update(np.zeros((1, 2)), np.zeros((2, 1, 2)), np.array([[1.0, 0.0]]), 0.02)


@given(st.integers(min_value=0, max_value=2**32),
       st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=30)
def test_ars_update_scale_invariance_property(seed, c):
    rng = ScalarRng(seed)
    theta = rng.gaussian_matrix(1, 2)
    deltas, returns = _draw(rng, 4, 1, 2)
    np.testing.assert_allclose(ars_update(theta, deltas, c * returns, 0.02),
                               ars_update(theta, deltas, returns, 0.02),
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n_directions", [1, 8, 32, 320])
@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 3), (2, 4)])
def test_ars_update_sums_directions_in_order(shape, n_directions):
    # the update is pinned bit for bit to the sequential per-direction sum,
    # so trained weights do not move with numpy's summation strategy
    # (pairwise for long contiguous reductions, blocked in tensordot).
    # theta = 0 keeps a last-bit difference in the step from being rounded
    # away by the final addition; ten draws make a reordered sum show.
    for draw in range(10):
        rng = ScalarRng(draw, (n_directions, *shape))
        theta = np.zeros(shape)
        deltas, returns = _draw(rng, n_directions, *shape)
        step = np.zeros(shape)
        for i in range(n_directions):
            step += (returns[i, 0] - returns[i, 1]) * deltas[i]
        sigma = float(np.std(returns))
        expect = theta + (0.02 / (n_directions * sigma)) * step
        got = ars_update(theta, deltas, returns, 0.02)
        assert got.tobytes() == expect.tobytes(), draw
    if n_directions == 1:
        return  # tied returns of one direction have no spread
    # signed zero: tied +/- returns and negative deltas make every product
    # in entry 0 -0.0, and -0.0 + -0.0 = -0.0; only a sum started from +0.0
    # gives the +0.0 step that turns theta's -0.0 entry into +0.0
    theta = np.zeros(shape)
    theta.flat[0] = -0.0
    returns = np.repeat(np.arange(1.0, n_directions + 1.0)[:, None], 2, axis=1)
    deltas = np.ones((n_directions, *shape))
    deltas[(slice(None), *np.unravel_index(0, shape))] = -1.0
    step = np.zeros(shape)
    for i in range(n_directions):
        step += (returns[i, 0] - returns[i, 1]) * deltas[i]
    sigma = float(np.std(returns))
    expect = theta + (0.02 / (n_directions * sigma)) * step
    got = ars_update(theta, deltas, returns, 0.02)
    assert got.tobytes() == expect.tobytes()


def test_sample_directions_shapes_and_determinism():
    dirs = sample_directions(Rng(1), 320, 1, 2)
    assert dirs.shape == (320, 1, 2)
    np.testing.assert_array_equal(dirs, sample_directions(Rng(1), 320, 1, 2))


def test_sample_directions_zero_mean():
    dirs = sample_directions(Rng(3), 320, 1, 2)
    assert abs(dirs.mean()) <= 0.05


@pytest.mark.parametrize("n_directions", [1, 8, 32, 320])
@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 3), (2, 4), (3, 3)])
def test_sample_directions_match_scalar_box_muller(n_directions, shape):
    # direction i is the oracle's row-major matrix on the stream derive(i),
    # odd entry counts included, and the stack is C-contiguous: a strided
    # stack would round differently in the rollout's matmul
    for seed in (0, 2**64 - 1):
        dirs = sample_directions(Rng(seed, (DIRECTIONS_STREAM, 5)), n_directions,
                                 *shape)
        assert dirs.shape == (n_directions, *shape) and dirs.flags.c_contiguous
        oracle = ScalarRng(seed, (DIRECTIONS_STREAM, 5))
        expect = np.stack([oracle.derive(i).gaussian_matrix(*shape)
                           for i in range(n_directions)])
        assert dirs.tobytes() == expect.tobytes()


@pytest.mark.parametrize("field, args", [
    ("n_directions", (True, 1, 2)), ("n_directions", (2.5, 1, 2)),
    ("n_directions", (np.float64(2.0), 1, 2)), ("n_directions", (0, 1, 2)),
    ("p", (2, 0, 2)), ("n", (2, 1, 1.0))])
def test_sample_directions_rejects_counts_that_are_not_integers(field, args):
    # True used to draw one direction; np.arange would take 2.5 as 3
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1"):
        sample_directions(Rng(1), *args)


def test_sample_directions_take_numpy_integers():
    dirs = sample_directions(Rng(1), np.int64(3), np.int32(1), np.uint8(2))
    assert dirs.tobytes() == sample_directions(Rng(1), 3, 1, 2).tobytes()


def test_ars_config_validation():
    with pytest.raises(ValueError):
        ArsConfig(alpha=0.0)
    with pytest.raises(ValueError):
        ArsConfig(nu=-1.0)
    cfg = ArsConfig()
    assert (cfg.alpha, cfg.nu, cfg.n_directions) == (0.02, 0.03, 320)


def test_evaluate_directions_counts_and_optimality():
    pol, norm, optimal = riccati_optimal(episodes=20)
    deltas = sample_directions(Rng(4), 6, 1, 2)
    returns, states, actions = evaluate_directions(pol.theta, deltas, 0.03, "lqr2d",
                                                   norm, Rng(5))
    assert returns.shape == (6, 2)
    assert states.shape == (12, 100, 2) and actions.shape == (12, 100, 1)
    # perturbed copies of the optimal policy cannot beat it on average
    mean_perturbed = np.mean(returns)
    per_seed_opt = np.mean([optimal])
    assert mean_perturbed <= per_seed_opt + 1e-9


def test_evaluate_directions_order_independent():
    norm = ObservationNormalizer.for_dim(2)
    theta = np.zeros((1, 2))
    deltas = sample_directions(Rng(6), 5, 1, 2)
    returns, _, _ = evaluate_directions(theta, deltas, 0.03, "lqr2d", norm,
                                        Rng(7))
    # shuffled evaluation order: run each (direction, sign) rollout by hand
    from ailsrs.envs import make_env, rollout
    order = [(3, 1), (0, 0), (4, 0), (1, 1), (2, 0), (0, 1), (3, 0),
             (2, 1), (4, 1), (1, 0)]
    got = {}
    for i, sign_idx in order:
        sign = +1 if sign_idx == 0 else -1
        *_, (ret,) = rollout(make_env("lqr2d"), theta + sign * 0.03 * deltas[i],
                             norm, Rng(7).keys([i], sign_idx))
        got[(i, sign_idx)] = ret
    for i, (r_plus, r_minus) in enumerate(returns):
        assert got[(i, 0)] == r_plus
        assert got[(i, 1)] == r_minus


def test_returns_std_is_population_std():
    # the spread of the returns {1, 0} is their population std, 0.5
    out = ars_update(np.zeros((1, 1)), np.ones((1, 1, 1)),
                     np.array([[1.0, 0.0]]), 1.0)
    assert out[0, 0] == 1.0 / 0.5


def test_constant_discriminator_freezes_theta():
    disc = MlpDiscriminator(np.zeros((100, 3)), np.zeros(100),
                            np.zeros((100, 100)), np.zeros(100),
                            np.zeros((1, 100)), 0.0)  # D = 0.5 everywhere
    theta = np.array([[0.25, -0.5]])
    root = Rng(1)
    deltas = sample_directions(root.derive(DIRECTIONS_STREAM, 0), 4, 1, 2)
    _, states, actions = evaluate_directions(theta, deltas, 0.03, "lqr2d",
                                             ObservationNormalizer.for_dim(2),
                                             root.derive(ROLLOUT_STREAM, 0))
    returns = disc.reward_batch(np.concatenate([states, actions], axis=2)).sum(
        axis=1).reshape(-1, 2)
    assert returns.mean() == pytest.approx(100 * math.log(2.0), rel=1e-12)
    assert returns.std() == 0.0
    np.testing.assert_array_equal(ars_update(theta, deltas, returns, 0.02),
                                  theta)
