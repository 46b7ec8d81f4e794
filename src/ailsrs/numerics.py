"""Deterministic numeric substrate: seeded RNG and Adam.

Everything here is driven by a splitmix64 generator so that any quantity in
the toolkit is a pure function of (seed, label path). Integer and uniform
draws come in numpy blocks, bit-identical to the scalar draws they stand
for; Gaussians are drawn one at a time. Matrices and vectors are plain
float64 numpy arrays, row-major.
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


def _mix64(z: int) -> int:
    """splitmix64 output mixer (finalizer)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_block(z: np.ndarray) -> np.ndarray:
    """`_mix64` of every element of a uint64 array, in place; numpy uint64
    arithmetic wraps modulo 2^64, as the masks do above."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """splitmix64 stream addressed by (seed, labels).

    The stream is a pure function of the root seed and the integer label
    path: each label is folded into the key with the splitmix64 mixer.
    Deriving sub-streams with fresh labels is how concurrent or repeated
    tasks get independent, reproducible randomness. Instances are cheap
    and must not be shared across tasks (drawing advances the state).

    splitmix64 is counter-based: draw k after the state is mix64(state +
    k * golden). So `integers` and `uniforms` compute a whole block of draws
    in numpy, bit-identical to as many scalar draws, and advance the state
    past it. Gaussians stay scalar: their Box-Muller step needs libm's
    log, which np.log does not round like.
    """

    __slots__ = ("_key", "_state", "_gauss_cache")

    def __init__(self, seed: int, labels: tuple[int, ...] = ()):
        key = seed & _MASK64
        for lab in labels:
            key = _mix64(key ^ (lab & _MASK64))
        self._key = key
        self._state = key
        self._gauss_cache: float | None = None

    def derive(self, *labels: int) -> "Rng":
        """Independent sub-stream for the given extra labels."""
        return Rng(self._key, labels)

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        """Uniform draw in (0, 1], 53-bit resolution."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def _u64_block(self, size: int) -> np.ndarray:
        """The next `size` draws of `next_u64` as one uint64 array."""
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        counters = np.arange(1, size + 1, dtype=np.uint64)
        counters *= np.uint64(_GOLDEN)
        counters += np.uint64(self._state)
        self._state = (self._state + size * _GOLDEN) & _MASK64
        return _mix64_block(counters)

    def uniforms(self, lo: float, hi: float, size: int) -> np.ndarray:
        """`size` draws of `uniform_in(lo, hi)`, as one array."""
        u = ((self._u64_block(size) >> np.uint64(11)) + np.uint64(1)).astype(float)
        u *= 2.0 ** -53
        return lo + (hi - lo) * u

    def integers(self, n: int, size: int) -> np.ndarray:
        """`size` uniform integers in [0, n): each is next_u64() % n."""
        if not 1 <= n <= _INTP_MAX + 1:
            raise ValueError(f"n must be in [1, {_INTP_MAX + 1}], got {n}")
        return (self._u64_block(size) % np.uint64(n)).astype(np.intp)

    def gaussian(self) -> float:
        """Standard normal via Box-Muller; the sine mate is cached."""
        if self._gauss_cache is not None:
            z = self._gauss_cache
            self._gauss_cache = None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        t = 2.0 * math.pi * u2
        self._gauss_cache = r * math.sin(t)
        return r * math.cos(t)

    def gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols standard-normal matrix, filled row-major."""
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be >= 1")
        out = np.empty(rows * cols)
        for i in range(rows * cols):
            out[i] = self.gaussian()
        return out.reshape(rows, cols)


@dataclass
class AdamState:
    """Adam moment buffers for a flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr: float) -> np.ndarray:
    """One Adam update with bias correction. Mutates `state`, returns new params."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads and moment buffers must share a shape")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
