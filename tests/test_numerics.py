import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import ScalarRng, finite_diff, row_order_sum, welford_update

from ailsrs import envs, numerics
from ailsrs.ars import ArsConfig, sample_directions
from ailsrs.demo_io import record
from ailsrs.discriminator import disc_init
from ailsrs.envs import EPISODE_STREAM, evaluate_policy
from ailsrs.numerics import AdamState, Rng, adam_step, uniform_block
from ailsrs.policy import LinearPolicy, ObservationNormalizer
from ailsrs.trainer import (DIRECTIONS_STREAM, DISC_BATCH_STREAM, DISC_INIT_STREAM,
                            ROLLOUT_STREAM, TrainerConfig, train_expert)

_M = (1 << 64) - 1
# every stream label the package derives with, plus the edges of the
# label range: labels are taken modulo 2^64
_LABELS_IN_USE = (DIRECTIONS_STREAM, ROLLOUT_STREAM, DISC_BATCH_STREAM,
                  DISC_INIT_STREAM, EPISODE_STREAM, 0, 1)
_EDGE_LABELS = (-1, -2**63, 2**63 - 1, 2**63, 2**64 - 1)


def test_same_seed_same_stream():
    a = Rng(1)
    b = Rng(1)
    assert a.integers(2**63, 100).tolist() == b.integers(2**63, 100).tolist()
    assert a.uniforms(0.0, 1.0, 100).tobytes() == b.uniforms(0.0, 1.0, 100).tobytes()


def test_labels_change_the_stream():
    assert Rng(1).keys(0) != Rng(1).keys(1)
    # oracle values for both labelled streams
    for lab in (0, 1):
        expect = ScalarRng(1, (lab,))
        assert uniform_block(Rng(1).keys(lab), 2, 0.0, 1.0).tolist() == \
            [expect.uniform(), expect.uniform()]


def test_raw_stream_matches_reference_chain():
    # frozen values guard against coordinated drift of impl and oracle
    assert ScalarRng(2, (5, 0, 1)).next_u64() == 0xEC851304642CE0B6
    assert [ScalarRng(1).next_u64() for _ in range(1)] == [0x910A2DEC89025CC1]
    # the block draws hold the low 63 and the high 53 bits of those draws
    for rng, raw in ((Rng(2, (5, 0, 1)), 0xEC851304642CE0B6),
                     (Rng(2).derive(5, 0, 1), 0xEC851304642CE0B6),
                     (Rng(1), 0x910A2DEC89025CC1)):
        assert rng.integers(2**63, 1)[0] == raw % 2**63
    for keys, raw in ((Rng(2).keys(5, 0, 1), 0xEC851304642CE0B6),
                      (Rng(1).keys(), 0x910A2DEC89025CC1)):
        assert uniform_block(keys, 1, 0.0, 1.0)[0] == ((raw >> 11) + 1) * 2.0 ** -53


def test_derive_equals_label_construction():
    root = Rng(42)
    root.integers(5, 3)  # advancing the stream must not affect derivation
    a = root.derive(3, 7)
    b = Rng(42, (3, 7))
    assert a.integers(2**63, 10).tolist() == b.integers(2**63, 10).tolist()
    assert root.keys(3, 7).tobytes() == Rng(42).keys(3, 7).tobytes()
    assert uniform_block(root.keys(3, 7), 10, -1.0, 1.0).tobytes() == \
        Rng(42, (3, 7)).uniforms(-1.0, 1.0, 10).tobytes()


@given(st.integers(min_value=-2**63, max_value=2**63 - 1),
       st.lists(st.integers(min_value=-1000, max_value=1000), max_size=4))
@settings(max_examples=50)
def test_stream_determinism_property(seed, labels):
    xs = Rng(seed, tuple(labels)).integers(2**63, 3).tolist()
    ys = Rng(seed, tuple(labels)).integers(2**63, 3).tolist()
    assert xs == ys


def _label_array(values, axis, depth):
    """`values` along `axis` of a depth-d array, int64 when they fit, else
    the uint64 they are modulo 2^64."""
    if all(-2**63 <= v < 2**63 for v in values):
        arr = np.array(values, dtype=np.int64)
    else:
        arr = np.array([v & _M for v in values], dtype=np.uint64)
    return arr.reshape([-1 if a == axis else 1 for a in range(depth)])


_label = st.one_of(st.sampled_from(_LABELS_IN_USE + _EDGE_LABELS),
                   st.integers(min_value=-2**63, max_value=2**64 - 1))


@given(st.integers(min_value=-2**63, max_value=2**64 - 1),
       st.lists(st.lists(_label, min_size=1, max_size=3), min_size=0, max_size=3),
       st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (-math.pi, math.pi)]))
@settings(max_examples=60, deadline=None)
def test_keys_and_block_uniforms_match_scalar_derive(seed, columns, bounds):
    # label j varies along axis j, so the keys are the outer product of the
    # label lists; each is the key of the oracle's derive, and row d of the
    # block holds draw d + 1 of every derived stream
    depth = len(columns)
    keys = Rng(seed).keys(*(_label_array(c, j, depth)
                            for j, c in enumerate(columns)))
    assert keys.dtype == np.uint64 and keys.shape == tuple(len(c) for c in columns)
    lo, hi = bounds
    block = uniform_block(keys, 3, lo, hi)
    assert block.shape == (3, *keys.shape)
    for index in np.ndindex(keys.shape):
        labels = tuple(c[i] for c, i in zip(columns, index))
        oracle = ScalarRng(seed).derive(*labels)
        assert int(keys[index]) == ScalarRng(seed, labels)._key == oracle._key
        assert block[(slice(None), *index)].tobytes() == \
            np.array([oracle.uniform_in(lo, hi) for _ in range(3)]).tobytes()


def test_keys_reject_labels_that_are_not_integers():
    with pytest.raises(ValueError, match="integers"):
        Rng(1).keys(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="integers"):
        Rng(1).keys(0, [-1, 2**63])  # numpy makes this pair float64


def test_gaussian_first_value_matches_box_muller_oracle():
    # reference: Box-Muller over the splitmix64 stream, cosine branch first
    stream = ScalarRng(7).derive(0)
    raw = [stream.next_u64(), stream.next_u64()]
    u1 = ((raw[0] >> 11) + 1) * 2.0 ** -53
    u2 = ((raw[1] >> 11) + 1) * 2.0 ** -53
    expect = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    first, mate = sample_directions(Rng(7), 1, 1, 2)[0, 0]
    assert first == expect
    # the sine mate comes out next
    assert mate == math.sqrt(-2.0 * math.log(u1)) * math.sin(2.0 * math.pi * u2)
    rng = ScalarRng(7)
    assert rng.gaussian() == 1.3649922974572279  # frozen
    assert ScalarRng(7).derive(0).gaussian() == first


def test_gaussian_moments():
    xs = sample_directions(Rng(123), 50_000, 1, 2).ravel()
    assert abs(xs.mean()) <= 0.02
    assert abs(xs.var() - 1.0) <= 0.03


def test_gaussian_matrix_is_sequential_draws():
    a = ScalarRng(9)
    b = ScalarRng(9)
    m = a.gaussian_matrix(2, 3)
    assert m.shape == (2, 3)
    assert m.flatten().tolist() == [b.gaussian() for _ in range(6)]
    # a direction is the oracle's matrix on its derived stream
    dirs = sample_directions(Rng(9), 3, 2, 3)
    for i in range(3):
        assert dirs[i].tobytes() == ScalarRng(9).derive(i).gaussian_matrix(2, 3).tobytes()


def test_gaussian_matrix_stream_advances_between_calls():
    rng = ScalarRng(11)
    m1 = rng.gaussian_matrix(2, 2)
    m2 = rng.gaussian_matrix(2, 2)
    assert not np.array_equal(m1, m2)
    # concatenation equals 8 sequential draws from a fresh stream
    fresh = ScalarRng(11)
    seq = [fresh.gaussian() for _ in range(8)]
    assert np.concatenate([m1.flatten(), m2.flatten()]).tolist() == seq
    # two directions draw from two streams
    dirs = sample_directions(Rng(11), 2, 2, 2)
    assert not np.array_equal(dirs[0], dirs[1])


def test_gaussian_matrix_1x1():
    # an odd entry count drops the last sine mate
    assert sample_directions(Rng(5), 1, 1, 1)[0, 0, 0] == \
        ScalarRng(5).derive(0).gaussian()


_BLOCK_SEEDS = (0, 1, -5, 2**64 - 1, 123456789)
_BLOCK_LABELS = ((), (3,), (1, 2, 3))
_BLOCK_SIZES = (0, 1, 2, 7, 999)


def _twin_streams(seed, labels, pending_mate):
    """Two identical oracle streams, advanced past three scalar draws and,
    when `pending_mate`, left holding a cached Box-Muller sine mate."""
    pair = ScalarRng(seed, labels), ScalarRng(seed, labels)
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
    rng = ScalarRng(1)
    with pytest.raises(ValueError, match=r"\bn\b"):
        rng.integers(n, 3)
    assert rng.next_u64() == ScalarRng(1).next_u64()  # nothing was drawn


@pytest.mark.parametrize("bounds", [(1, 1), (3, 7), (1000, 2**63), (2**40 + 7, 5)])
def test_integers_with_broadcast_n_match_interleaved_scalar_draws(bounds):
    # one (steps, 2, batch) call with n = [[a], [b]] takes, step by step, a
    # call of `batch` draws % a and then one of `batch` draws % b
    for i, (seed, labels, (steps, batch)) in enumerate(
            (seed, labels, shape) for seed in _BLOCK_SEEDS
            for labels in _BLOCK_LABELS
            for shape in ((1, 0), (1, 1), (3, 8), (20, 5))):
        block, scalar = _twin_streams(seed, labels, pending_mate=i % 2 == 0)
        got = block.integers([[bounds[0]], [bounds[1]]], (steps, 2, batch))
        assert got.dtype == np.intp and got.shape == (steps, 2, batch)
        assert got.tolist() == [[[scalar.next_u64() % n for _ in range(batch)]
                                 for n in bounds] for _ in range(steps)]
        _assert_same_stream_after(block, scalar)


@pytest.mark.parametrize("n", [
    pytest.param([[5], [0]], id="zero"),
    pytest.param([[-1], [3]], id="negative"),
    pytest.param(np.array([[3], [-2**63]]), id="int64-min"),
    pytest.param([[3], [2**63 + 1]], id="above-intp-max-plus-one"),
    pytest.param([[2**64], [3]], id="above-uint64"),
    pytest.param(True, id="bool"),
    pytest.param([[True], [True]], id="bool-array"),
    pytest.param(np.True_, id="numpy-bool"),
    pytest.param(3.0, id="float"),
    pytest.param([[3.0], [4.0]], id="float-array"),
    pytest.param(np.float64(2.0), id="numpy-float"),
    pytest.param([[2], [3], [4]], id="does-not-broadcast"),
])
def test_integers_rejects_n_out_of_range_or_not_integer(n):
    rng = ScalarRng(1)
    with pytest.raises(ValueError, match=r"\bn\b"):
        rng.integers(n, (4, 2, 3))
    assert rng.next_u64() == ScalarRng(1).next_u64()  # nothing was drawn


def test_block_draws_reject_negative_size():
    with pytest.raises(ValueError, match="size"):
        Rng(1).integers(5, -1)
    with pytest.raises(ValueError, match="size"):
        Rng(1).integers(5, (3, -1))
    with pytest.raises(ValueError, match="size"):
        Rng(1).uniforms(0.0, 1.0, -1)


_ZERO_POLICY = (LinearPolicy.zeros(1, 2), ObservationNormalizer.for_dim(2))
# every public call that takes a seed, a stream label or a draw count,
# returning an array for the integer `v`
_INTEGER_ARGUMENTS = {
    "Rng-seed": lambda v: Rng(v).uniforms(0.0, 1.0, 3),
    "derive-label": lambda v: Rng(1).derive(v).uniforms(0.0, 1.0, 3),
    "uniforms-size": lambda v: Rng(1).uniforms(0.0, 1.0, v),
    "integers-size": lambda v: Rng(1).integers(5, v),
    "disc_init-dims": lambda v: disc_init(v, v, Rng(0)).get_params(),
    "record-seed": lambda v: record(*_ZERO_POLICY, "lqr2d", 2, v).rows()[0],
    "evaluate_policy-seed":
        lambda v: np.array(evaluate_policy(*_ZERO_POLICY, "lqr2d", 2, v)),
    "train_expert-seed":
        lambda v: train_expert("lqr2d", ArsConfig(n_directions=2), 1, v)[0].theta,
    "TrainerConfig-seed": lambda v: np.array(TrainerConfig(seed=v).seed),
}


@pytest.mark.parametrize("call", list(_INTEGER_ARGUMENTS.values()),
                         ids=list(_INTEGER_ARGUMENTS))
def test_integer_arguments_take_numpy_integers_and_reject_others(call):
    # a numpy int64 used to overflow against the 64-bit constants, a float
    # to raise a TypeError, and True to act as 1
    assert call(np.int64(3)).tobytes() == call(3).tobytes()
    for value in (1.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            call(value)


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


_ADAM_VALUES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=8),
       st.integers(min_value=5, max_value=9),
       st.floats(min_value=1e-6, max_value=1.0))
def test_adam_step_has_the_bytes_of_the_out_of_place_update(data, size, steps, lr):
    vectors = st.lists(_ADAM_VALUES, min_size=size, max_size=size).map(np.array)
    params = ref_params = data.draw(vectors)
    state, ref_state = AdamState.zeros(size), AdamState.zeros(size)
    for step in range(1, steps + 1):
        grads = data.draw(vectors)
        entry, entry_bytes = params, params.tobytes()
        params = adam_step(state, params, grads, lr)
        ref_params = _oracles.adam_step(ref_state, ref_params, grads, lr)
        assert entry.tobytes() == entry_bytes  # never written
        assert state.step == ref_state.step == step
        assert params.tobytes() == ref_params.tobytes()
        assert state.m.tobytes() == ref_state.m.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()
        for other in (entry, grads, state.m, state.v):
            assert not np.shares_memory(params, other)


def test_adam_shape_mismatch_errors():
    state = AdamState.zeros(3)
    with pytest.raises(ValueError):
        adam_step(state, np.zeros(3), np.zeros(2), 0.1)


@pytest.mark.parametrize("lr", [0.0, -0.1, math.nan])
def test_adam_rejects_a_learning_rate_that_is_not_positive(lr):
    state = AdamState.zeros(3)
    with pytest.raises(ValueError, match="learning rate"):
        adam_step(state, np.zeros(3), np.ones(3), lr)
    assert state.step == 0


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
    rng = ScalarRng(2024)
    xs = rng.gaussian_matrix(1000, 3)
    stats = ObservationNormalizer.for_dim(3)
    for row in xs:
        welford_update(stats, row)
    batch_mean = xs.mean(axis=0)
    batch_var = ((xs - batch_mean) ** 2).mean(axis=0)  # two-pass oracle
    np.testing.assert_allclose(stats.mean, batch_mean, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(stats.variance(), batch_var, rtol=1e-10, atol=1e-10)


def test_merge_batch_matches_sequential_updates():
    rng = ScalarRng(77)
    xs = rng.gaussian_matrix(500, 2)
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


def _block(rows, cols, seed=5):
    return ScalarRng(seed).gaussian_matrix(rows, cols)


def _zero_column(first=-0.0, rest=-0.0):
    xs = _block(6, 2)
    xs[:, 1] = [first] + [rest] * 5
    return xs


@pytest.mark.parametrize("held, xs", [
    (None, _block(1, 3)),
    (None, _block(3200, 3)),
    (None, _block(6400, 2)),
    (None, _block(3200, 1)),
    (None, _zero_column()),
    (None, _zero_column(rest=1.5)),
    (_block(50, 3, seed=6), _block(3200, 3)),
], ids=["one-row", "3200x3", "6400x2", "3200x1", "negative-zero-column",
        "negative-zero-then-nonzero", "merge-into-held"])
def test_add_states_sums_columns_in_row_order(held, xs):
    # the block's sums are the oracle's, row by row from 0.0, to the bit;
    # a held block is merged by Chan et al.'s pairwise update
    stats = ObservationNormalizer.for_dim(xs.shape[1])
    if held is not None:
        stats.add_states(held)
    count, mean, m2 = stats.count, stats.mean, stats.m2
    stats.add_states(xs)
    nb = len(xs)
    mb = row_order_sum(xs) / nb
    m2b = row_order_sum((xs - mb) ** 2)
    if count:
        delta = mb - mean
        mb = mean + delta * (nb / (count + nb))
        m2b = m2 + m2b + delta * delta * (count * nb / (count + nb))
    assert stats.count == count + nb
    assert stats.mean.tobytes() == mb.tobytes()
    assert stats.m2.tobytes() == m2b.tobytes()


@pytest.mark.parametrize("xs", [
    _block(3200, 3), _block(3200, 1), _block(1, 3), _zero_column(),
], ids=["3200x3", "one-wide", "one-row", "negative-zero-column"])
def test_sum_in_order_is_the_row_order_sum(xs):
    # to the bit, along axis 0 and along axis 1 of the transpose, as a view
    # and as a C-contiguous copy
    expected = row_order_sum(xs).tobytes()
    assert numerics.sum_in_order(xs, 0).tobytes() == expected
    assert numerics.sum_in_order(xs.T, 1).tobytes() == expected
    assert numerics.sum_in_order(np.ascontiguousarray(xs.T), 1).tobytes() == expected


@pytest.mark.parametrize("module",[numerics, envs], ids=lambda m: m.__name__)
def test_operand_constants_are_read_only_0d_arrays(module):
    # numpy converts a numpy-scalar operand on every call and a 0-d array
    # it does not; read-only, an operand cannot be changed under a step or
    # a draw
    assert not [name for name, value in vars(module).items()
                if isinstance(value, np.generic)]
    arrays = {name: value for name, value in vars(module).items()
              if name.startswith("_") and isinstance(value, np.ndarray)}
    assert arrays
    for name, value in arrays.items():
        assert value.ndim == 0 or value.size > 1, name
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0


def test_mix64_block_is_the_scalar_mixer():
    keys = [0, 1, 2**63, 2**64 - 1]
    assert numerics._mix64_block(np.array(keys, dtype=np.uint64)).tolist() == \
        [_oracles._mix(k) for k in keys]


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
