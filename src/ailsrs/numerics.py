"""Deterministic numeric substrate: seeded RNG and Adam.

Everything here is driven by a splitmix64 generator so that any quantity in
the toolkit is a pure function of (seed, label path). Every draw is a numpy
block over uint64 stream keys, bit-identical to the scalar splitmix64 draws
it stands for, so B episodes' or N directions' streams are one array, not
B objects; `Rng.integers` takes a range per row, so rows of different
ranges are one draw too. Matrices and vectors are plain float64 numpy
arrays, row-major. `adam_step` updates its moment buffers in place and
returns the new parameters as a fresh vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INTP_MAX = int(np.iinfo(np.intp).max)

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _const(value, dtype=np.float64) -> np.ndarray:
    """`value` as a read-only array, a 0-d one for a scalar: numpy converts
    a numpy-scalar operand on every ufunc call, which costs more than the
    arithmetic on a 16-row column, and a 0-d array it does not."""
    c = np.array(value, dtype=dtype)
    c.flags.writeable = False
    return c


# the uint64 operands of the block draws: splitmix64's shifts and
# multipliers, the golden step, and the 53-bit uniform's shift and offset
_SHIFT_30, _SHIFT_27, _SHIFT_31, _SHIFT_11 = (
    _const(s, np.uint64) for s in (30, 27, 31, 11))
_MUL_1 = _const(0xBF58476D1CE4E5B9, np.uint64)
_MUL_2 = _const(0x94D049BB133111EB, np.uint64)
_GOLDEN_U64 = _const(_GOLDEN, np.uint64)
_ONE_U64 = _const(1, np.uint64)


def _mix64(z: int) -> int:
    """splitmix64 output mixer (finalizer)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    """`_mix64` of every element of a uint64 array, in place; numpy uint64
    arithmetic wraps modulo 2^64, as the masks do above."""
    z ^= z >> _SHIFT_30
    z *= _MUL_1
    z ^= z >> _SHIFT_27
    z *= _MUL_2
    z ^= z >> _SHIFT_31
    return z


def check_integer(name: str, value, minimum: int | None = None) -> int:
    """`value` as a Python int; a ValueError naming the field unless it is an
    integer, a Python or numpy one but not a bool, of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or minimum is not None and value < minimum:
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def sum_in_order(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum of `a` along `axis` (counted from 0), added in index order one
    term at a time, whatever the width or layout, where numpy's own sum
    adds pairwise or in SIMD lanes depending on both. The + 0.0 gives the
    +0.0 that a sum started from 0.0 leaves where every term is -0.0."""
    return np.cumsum(a, axis=axis)[(slice(None),) * axis + (-1,)] + 0.0


def _u64_draws(keys: np.ndarray, draws: int) -> np.ndarray:
    """(draws, *keys.shape) uint64 block whose row d holds draw d + 1 of the
    stream at each key, mix64(key + (d + 1) golden)."""
    counters = np.arange(1, draws + 1, dtype=np.uint64)
    counters *= _GOLDEN_U64
    return _mix64_block(np.add.outer(counters, keys))


def uniform_block(keys: np.ndarray, draws: int, lo, hi) -> np.ndarray:
    """(draws, *keys.shape) uniforms in (lo, hi], 53-bit resolution: row d
    holds draw d + 1 of the stream at each key. `lo` and `hi` broadcast
    against the block, so each row may have its own range."""
    u = ((_u64_draws(keys, draws) >> _SHIFT_11) + _ONE_U64).astype(float)
    u *= 2.0 ** -53
    return lo + (hi - lo) * u


class Rng:
    """splitmix64 stream addressed by (seed, labels).

    The stream is a pure function of the root seed and the integer label
    path: each label is folded into the key with the splitmix64 mixer.
    Deriving sub-streams with fresh labels is how concurrent or repeated
    tasks get independent, reproducible randomness. Instances are cheap
    and must not be shared across tasks (drawing advances the state).

    splitmix64 is counter-based: draw k after the state is mix64(state +
    k * golden). So every draw is a numpy block: `keys` gives many derived
    streams' keys at once, `uniform_block` draws from all of them, and
    `integers` and `uniforms` draw a block of this stream and advance the
    state past it.
    """

    __slots__ = ("_key", "_state")

    def __init__(self, seed: int, labels: tuple[int, ...] = ()):
        key = check_integer("seed", seed) & _MASK64
        for lab in labels:
            key = _mix64(key ^ (check_integer("label", lab) & _MASK64))
        self._key = key
        self._state = key

    def derive(self, *labels: int) -> "Rng":
        """Independent sub-stream for the given extra labels."""
        return Rng(self._key, labels)

    def keys(self, *labels) -> np.ndarray:
        """uint64 array of the keys of `self.derive(*l)` for every l of the
        broadcast integer label arrays, taken modulo 2^64."""
        labels = [np.asarray(lab) for lab in labels]
        if any(lab.dtype.kind not in "iu" for lab in labels):
            raise ValueError("stream labels must be integers")
        keys = np.full(np.broadcast(*labels).shape, self._key, dtype=np.uint64)
        for lab in labels:
            # in place, so that a 0-d block stays an array
            np.bitwise_xor(keys, lab.astype(np.uint64), out=keys)
            _mix64_block(keys)
        return keys

    def _advance(self, size: int) -> np.uint64:
        """The state before the next `size` draws; the stream moves past them."""
        state = self._state
        self._state = (state + check_integer("size", size, 0) * _GOLDEN) & _MASK64
        return np.uint64(state)

    def uniforms(self, lo: float, hi: float, size: int) -> np.ndarray:
        """The next `size` uniforms in (lo, hi], as one array."""
        return uniform_block(self._advance(size), size, lo, hi)

    def integers(self, n, size) -> np.ndarray:
        """Uniform integers in [0, n), each a raw draw % n, as an array of
        shape `size` (an int or a tuple) filled in row-major order. `n` is
        an integer or an integer array that broadcasts against that shape,
        so one call may draw rows of different ranges."""
        # as Python objects: numpy would make [[3], [2**63]] a float array
        bounds = np.asarray(n, dtype=object)
        if not all(isinstance(b, (int, np.integer)) and not isinstance(b, bool)
                   and 1 <= b <= _INTP_MAX + 1 for b in bounds.flat):
            raise ValueError(f"n must be integers in [1, {_INTP_MAX + 1}], "
                             f"got {n!r}")
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        for d in shape:
            check_integer("size", d, 0)
        try:
            fits = np.broadcast_shapes(bounds.shape, shape) == shape
        except ValueError:
            fits = False
        if not fits:
            raise ValueError(f"n of shape {bounds.shape} does not broadcast "
                             f"to size {shape}")
        count = math.prod(shape)
        draws = _u64_draws(self._advance(count), count).reshape(shape)
        return (draws % bounds.astype(np.uint64)).astype(np.intp)


@dataclass
class AdamState:
    """Adam moment buffers for a flat parameter vector, which `adam_step`
    updates in place."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr: float) -> np.ndarray:
    """One Adam update with bias correction. Updates `state.m` and `state.v`
    in place, through one scratch vector, and returns the new parameters as
    a fresh vector; `params` is never written. The operations are Kingma &
    Ba's, in the order of the out-of-place update b1 m + (1 - b1) g,
    b2 v + ((1 - b2) g) g and p - (lr m_hat) / (sqrt(v_hat) + eps), so
    every bit is that update's."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads and moment buffers must share a shape")
    if not lr > 0:  # NaN fails too
        raise ValueError(f"learning rate must be positive, got {lr}")
    state.step += 1
    scratch = np.multiply(1.0 - ADAM_BETA1, grads)
    state.m *= ADAM_BETA1
    state.m += scratch
    np.multiply(1.0 - ADAM_BETA2, grads, out=scratch)
    scratch *= grads
    state.v *= ADAM_BETA2
    state.v += scratch
    # sqrt(v_hat) + eps, then lr m_hat over it
    np.divide(state.v, 1.0 - ADAM_BETA2 ** state.step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    new = np.divide(state.m, 1.0 - ADAM_BETA1 ** state.step)
    new *= lr
    new /= scratch
    return np.subtract(params, new, out=new)
