import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import finite_diff, welford_update

from ailsrs.numerics import AdamState, Rng, adam_step
from ailsrs.policy import ObservationNormalizer

# ---------------------------------------------------------------------------
# Reference transcription of splitmix64, written independently of the
# package. Used as the oracle for the RNG stream tests.
# ---------------------------------------------------------------------------
_M = (1 << 64) - 1
_G = 0x9E3779B97F4A7C15


def _ref_mix(z):
    z &= _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31)


def _ref_stream(seed, labels, n):
    key = seed & _M
    for lab in labels:
        key = _ref_mix(key ^ (lab & _M))
    out = []
    for _ in range(n):
        key = (key + _G) & _M
        out.append(_ref_mix(key))
    return out


def test_same_seed_same_stream():
    a = Rng(1)
    b = Rng(1)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_labels_change_the_stream():
    assert Rng(1, (0,)).next_u64() != Rng(1, (1,)).next_u64()
    # oracle values for both labelled streams
    assert Rng(1, (0,)).next_u64() == _ref_stream(1, [0], 1)[0]
    assert Rng(1, (1,)).next_u64() == _ref_stream(1, [1], 1)[0]


def test_raw_stream_matches_reference_chain():
    assert Rng(2, (5, 0, 1)).next_u64() == _ref_stream(2, [5, 0, 1], 1)[0]
    # frozen value guards against coordinated drift of impl and oracle
    assert Rng(2, (5, 0, 1)).next_u64() == 0xEC851304642CE0B6
    assert [Rng(1).next_u64() for _ in range(1)] == [0x910A2DEC89025CC1]


def test_derive_equals_label_construction():
    root = Rng(42)
    root.next_u64()  # advancing the stream must not affect derivation
    a = root.derive(3, 7)
    b = Rng(42, (3, 7))
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


@given(st.integers(min_value=-2**63, max_value=2**63 - 1),
       st.lists(st.integers(min_value=-1000, max_value=1000), max_size=4))
@settings(max_examples=50)
def test_stream_determinism_property(seed, labels):
    xs = [Rng(seed, tuple(labels)).next_u64() for _ in range(3)]
    ys = [Rng(seed, tuple(labels)).next_u64() for _ in range(3)]
    assert xs == ys


def test_gaussian_first_value_matches_box_muller_oracle():
    # reference: Box-Muller over the splitmix64 stream, cosine branch first
    raw = _ref_stream(7, [], 2)
    u1 = ((raw[0] >> 11) + 1) * 2.0 ** -53
    u2 = ((raw[1] >> 11) + 1) * 2.0 ** -53
    expect = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    rng = Rng(7)
    assert rng.gaussian() == expect
    assert expect == 1.3649922974572279  # frozen
    # the cached sine mate comes out next
    assert rng.gaussian() == math.sqrt(-2.0 * math.log(u1)) * math.sin(2.0 * math.pi * u2)


def test_gaussian_moments():
    rng = Rng(123)
    n = 100_000
    xs = np.array([rng.gaussian() for _ in range(n)])
    assert abs(xs.mean()) <= 0.02
    assert abs(xs.var() - 1.0) <= 0.03


def test_gaussian_matrix_is_sequential_draws():
    a = Rng(9)
    b = Rng(9)
    m = a.gaussian_matrix(2, 3)
    assert m.shape == (2, 3)
    assert m.flatten().tolist() == [b.gaussian() for _ in range(6)]


def test_gaussian_matrix_stream_advances_between_calls():
    rng = Rng(11)
    m1 = rng.gaussian_matrix(2, 2)
    m2 = rng.gaussian_matrix(2, 2)
    assert not np.array_equal(m1, m2)
    # concatenation equals 8 sequential draws from a fresh stream
    fresh = Rng(11)
    seq = [fresh.gaussian() for _ in range(8)]
    assert np.concatenate([m1.flatten(), m2.flatten()]).tolist() == seq


def test_gaussian_matrix_1x1():
    assert Rng(5).gaussian_matrix(1, 1)[0, 0] == Rng(5).gaussian()


_BLOCK_SEEDS = (0, 1, -5, 2**64 - 1, 123456789)
_BLOCK_LABELS = ((), (3,), (1, 2, 3))
_BLOCK_SIZES = (0, 1, 2, 7, 999)


def _twin_streams(seed, labels, pending_mate):
    """Two identical streams, advanced past three scalar draws and, when
    `pending_mate`, left holding a cached Box-Muller sine mate."""
    pair = Rng(seed, labels), Rng(seed, labels)
    for rng in pair:
        for _ in range(3):
            rng.next_u64()
        if pending_mate:
            rng.gaussian()
    return pair


def _assert_same_stream_after(block, scalar):
    # the pending mate (if any) survives, then the raw streams line up
    assert block.gaussian() == scalar.gaussian()
    assert [block.next_u64() for _ in range(5)] == [scalar.next_u64() for _ in range(5)]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 2**32 + 1, 2**40 + 7, 2**63])
def test_integers_block_matches_scalar_draws(n):
    for i, (seed, labels, size) in enumerate(
            (seed, labels, size) for seed in _BLOCK_SEEDS
            for labels in _BLOCK_LABELS for size in _BLOCK_SIZES):
        block, scalar = _twin_streams(seed, labels, pending_mate=i % 2 == 0)
        got = block.integers(n, size)
        assert got.dtype == np.intp and got.shape == (size,)
        assert got.tolist() == [scalar.next_u64() % n for _ in range(size)]
        _assert_same_stream_after(block, scalar)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (-math.pi, math.pi),
                                    (-np.sqrt(6.0 / 106), np.sqrt(6.0 / 106))])
def test_uniforms_block_matches_scalar_draws(lo, hi):
    for i, (seed, labels, size) in enumerate(
            (seed, labels, size) for seed in _BLOCK_SEEDS
            for labels in _BLOCK_LABELS for size in _BLOCK_SIZES):
        block, scalar = _twin_streams(seed, labels, pending_mate=i % 2 == 1)
        got = block.uniforms(lo, hi, size)
        assert got.dtype == np.float64 and got.shape == (size,)
        assert got.tobytes() == np.array([scalar.uniform_in(lo, hi)
                                          for _ in range(size)]).tobytes()
        _assert_same_stream_after(block, scalar)


@pytest.mark.parametrize("n", [0, -1, -2**70, 2**63 + 1, 2**64])
def test_integers_rejects_out_of_range_n(n):
    rng = Rng(1)
    with pytest.raises(ValueError, match=r"\bn\b"):
        rng.integers(n, 3)
    assert rng.next_u64() == Rng(1).next_u64()  # nothing was drawn


def test_block_draws_reject_negative_size():
    with pytest.raises(ValueError, match="size"):
        Rng(1).integers(5, -1)
    with pytest.raises(ValueError, match="size"):
        Rng(1).uniforms(0.0, 1.0, -1)


def test_adam_first_step_magnitude_is_lr():
    state = AdamState.zeros(3)
    params = np.array([1.0, -2.0, 0.5])
    grads = np.array([0.3, -4.0, 1e-3])
    lr = 0.1
    out = adam_step(state, params, grads, lr)
    # bias-corrected first step moves by ~lr in -sign(grad) direction
    # (off by eps/(|g|+eps), largest for the smallest gradient)
    np.testing.assert_allclose(out - params, -lr * np.sign(grads), rtol=2e-5)
    assert state.step == 1


def test_adam_zero_grad_is_identity():
    state = AdamState.zeros(4)
    params = np.arange(4.0)
    out = adam_step(state, params, np.zeros(4), 0.05)
    np.testing.assert_array_equal(out, params)
    assert state.step == 1


def test_adam_minimizes_quadratic():
    # oracle: the reference Adam recurrence, transcribed independently
    def ref_adam(x0, lr, steps):
        m = v = 0.0
        x = x0
        for t in range(1, steps + 1):
            g = 2.0 * x
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1.0 - 0.9 ** t)
            vh = v / (1.0 - 0.999 ** t)
            x = x - lr * mh / (math.sqrt(vh) + 1e-8)
        return x

    state = AdamState.zeros(1)
    params = np.array([1.0])
    for _ in range(200):
        grads = 2.0 * params
        params = adam_step(state, params, grads, 0.1)
    assert abs(params[0]) < 0.05
    np.testing.assert_allclose(params[0], ref_adam(1.0, 0.1, 200), rtol=1e-12)


def test_adam_shape_mismatch_errors():
    state = AdamState.zeros(3)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.zeros(2), 0.1)


def test_welford_scalar_hand_arithmetic():
    stats = ObservationNormalizer.for_dim(1)
    for x in (1.0, 2.0, 3.0):
        welford_update(stats, np.array([x]))
    np.testing.assert_allclose(stats.mean, [2.0])
    np.testing.assert_allclose(stats.variance(), [2.0 / 3.0])


def test_welford_single_observation():
    stats = ObservationNormalizer.for_dim(2)
    welford_update(stats, np.array([4.2, -1.0]))
    np.testing.assert_array_equal(stats.mean, [4.2, -1.0])
    np.testing.assert_array_equal(stats.variance(), [0.0, 0.0])


def test_welford_matches_two_pass_batch():
    rng = Rng(2024)
    xs = np.array([[rng.gaussian() for _ in range(3)] for _ in range(1000)])
    stats = ObservationNormalizer.for_dim(3)
    for row in xs:
        welford_update(stats, row)
    batch_mean = xs.mean(axis=0)
    batch_var = ((xs - batch_mean) ** 2).mean(axis=0)  # two-pass oracle
    np.testing.assert_allclose(stats.mean, batch_mean, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(stats.variance(), batch_var, rtol=1e-10, atol=1e-10)


def test_merge_batch_matches_sequential_updates():
    rng = Rng(77)
    xs = np.array([[rng.gaussian() for _ in range(2)] for _ in range(500)])
    seq = ObservationNormalizer.for_dim(2)
    for row in xs:
        welford_update(seq, row)
    merged = ObservationNormalizer.for_dim(2)
    merged.add_states(xs[:123])
    merged.add_states(xs[123:400])
    merged.add_states(xs[400:])
    assert merged.count == seq.count
    np.testing.assert_allclose(merged.mean, seq.mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(merged.variance(), seq.variance(), rtol=1e-10, atol=1e-12)


def test_welford_dimension_mismatch_errors():
    stats = ObservationNormalizer.for_dim(2)
    stats.add_states(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        stats.add_states(np.zeros((1, 3)))


@pytest.mark.parametrize("shape", [(0, 5), (0,)])
def test_add_states_checks_shape_of_empty_block(shape):
    # no rows, but still not a block of 2-wide states
    with pytest.raises(ValueError):
        ObservationNormalizer.for_dim(2).add_states(np.zeros(shape))


def test_add_states_empty_block_is_noop():
    stats = ObservationNormalizer.for_dim(2)
    stats.add_states(np.array([[1.0, 2.0], [3.0, 5.0]]))
    before = stats.copy()
    stats.add_states(np.zeros((0, 2)))
    assert stats.count == before.count
    np.testing.assert_array_equal(stats.mean, before.mean)
    np.testing.assert_array_equal(stats.m2, before.m2)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50))
@settings(max_examples=50)
def test_welford_batch_equivalence_property(values):
    xs = np.array(values).reshape(-1, 1)
    stats = ObservationNormalizer.for_dim(1)
    for row in xs:
        welford_update(stats, row)
    bm = xs.mean(axis=0)
    bv = ((xs - bm) ** 2).mean(axis=0)
    np.testing.assert_allclose(stats.mean, bm, rtol=1e-10, atol=1e-9)
    np.testing.assert_allclose(stats.variance(), bv, rtol=1e-9, atol=1e-9)


def test_finite_diff_sum_of_squares():
    grad = finite_diff(lambda x: float(np.sum(x * x)), np.array([1.0, 2.0]), 1e-5)
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_diff_constant_is_zero():
    grad = finite_diff(lambda x: 3.14, np.array([0.3, -0.7, 2.0]), 1e-5)
    np.testing.assert_array_equal(grad, np.zeros(3))


def test_finite_diff_product():
    grad = finite_diff(lambda x: float(x[0] * x[1]), np.array([3.0, -2.0]), 1e-5)
    np.testing.assert_allclose(grad, [-2.0, 3.0], atol=1e-6)
