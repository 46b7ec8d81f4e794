"""Reference computations that only the tests use: the scalar splitmix64
stream, a generic finite-difference gradient, the single-row Welford step,
the in-order column sum, the Adam update, and the discriminator's passes,
rewards, LSGAN loss and LSGAN gradient written out of place."""
import math

import numpy as np

from ailsrs.discriminator import REWARD_CLAMP
from ailsrs.numerics import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Rng

_M = (1 << 64) - 1
_G = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64's finalizer, transcribed independently of the package."""
    z &= _M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
    return z ^ (z >> 31)


class ScalarRng(Rng):
    """The splitmix64 stream drawn one Python int at a time: the reference
    for `Rng`'s block draws, and the source of the tests' Gaussian data.

    Its key derivation and draws are plain Python integer arithmetic. It
    keeps `Rng`'s state, so block draws (`integers`, `uniforms`) and
    scalar ones may interleave on one stream.
    """

    __slots__ = ("_gauss_cache",)

    def __init__(self, seed: int, labels: tuple[int, ...] = ()):
        key = seed & _M
        for lab in labels:
            key = _mix(key ^ (lab & _M))
        self._key = self._state = key
        self._gauss_cache = None

    def derive(self, *labels: int) -> "ScalarRng":
        return ScalarRng(self._key, labels)

    def next_u64(self) -> int:
        self._state = (self._state + _G) & _M
        return _mix(self._state)

    def uniform(self) -> float:
        """Uniform draw in (0, 1], 53-bit resolution."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def gaussian(self) -> float:
        """Standard normal via Box-Muller; the sine mate is cached."""
        if self._gauss_cache is not None:
            z, self._gauss_cache = self._gauss_cache, None
            return z
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        t = 2.0 * math.pi * u2
        self._gauss_cache = r * math.sin(t)
        return r * math.cos(t)

    def gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols standard-normal matrix, filled row-major."""
        return np.array([self.gaussian() for _ in range(rows * cols)]
                        ).reshape(rows, cols)


def finite_diff(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.empty(x.shape)
    for i in range(x.size):
        step = np.zeros(x.shape)
        step.flat[i] = eps
        grad.flat[i] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return grad


def welford_update(stats, x: np.ndarray) -> None:
    """Fold one observation vector into an ObservationNormalizer by
    Welford's recurrence, the one-row-at-a-time reference for `add_states`."""
    x = np.asarray(x, dtype=float)
    stats.count += 1
    delta = x - stats.mean
    stats.mean = stats.mean + delta / stats.count
    stats.m2 = stats.m2 + delta * (x - stats.mean)


def row_order_sum(xs: np.ndarray) -> np.ndarray:
    """Column sums of a (B, n) block, added one row at a time from 0.0: the
    in-order reference for `add_states`' sums."""
    acc = np.zeros(xs.shape[1])
    for row in xs:
        acc = acc + row
    return acc


def adam_step(state, params: np.ndarray, grads: np.ndarray,
              lr: float) -> np.ndarray:
    """One Adam update with bias correction, each moment and the update a
    fresh array: the pinned reference for the in-place
    `numerics.adam_step`. Rebinds `state.m` and `state.v`."""
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    return params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def disc_layers(disc, x: np.ndarray):
    """(h1, h2, D) of a discriminator, each step a fresh array: the pinned
    reference for the in-place `MlpDiscriminator._layers`."""
    h1 = np.tanh(x @ disc.w1.T + disc.b1)
    h2 = np.tanh(h1 @ disc.w2.T + disc.b2)
    z = h2 @ disc.w3.T + disc.b3
    return h1, h2, 1.0 / (1.0 + np.exp(-z[:, 0]))


def disc_rewards(disc, pairs: np.ndarray) -> np.ndarray:
    """Out-of-place reference for `MlpDiscriminator.reward_batch` on one
    (T, n+p) episode of [state, action] rows."""
    d = disc_layers(disc, pairs)[2]
    return -np.log(1.0 - np.minimum(d, REWARD_CLAMP))


def lsgan_loss(disc, expert_inputs: np.ndarray, sampled_inputs: np.ndarray) -> float:
    """0.5 E_expert[(D-1)^2] + 0.5 E_sampled[D^2] from forward passes alone:
    the finite-difference target for `discriminator.lsgan_grad`."""
    d_e = disc_layers(disc, expert_inputs)[2]
    d_s = disc_layers(disc, sampled_inputs)[2]
    return 0.5 * float(np.mean((d_e - 1.0) ** 2)) + 0.5 * float(np.mean(d_s ** 2))


def _lsgan_half(disc, x: np.ndarray, target: float):
    h1, h2, d = disc_layers(disc, x)
    dz = ((d - target) * d * (1.0 - d) / len(x))[:, None]
    gw3 = dz.T @ h2
    gb3 = float(dz.sum())
    d2 = (dz @ disc.w3) * (1.0 - h2 * h2)
    gw2 = d2.T @ h1
    gb2 = d2.sum(axis=0)
    d1 = (d2 @ disc.w2) * (1.0 - h1 * h1)
    gw1 = d1.T @ x
    gb1 = d1.sum(axis=0)
    return 0.5 * float(np.mean((d - target) ** 2)), [gw1, gb1, gw2, gb2, gw3, gb3]


def lsgan_grad(disc, expert_inputs: np.ndarray, sampled_inputs: np.ndarray):
    """Out-of-place reference for `discriminator.lsgan_grad`: (loss, flat
    gradient in get_params order)."""
    loss_e, ge = _lsgan_half(disc, expert_inputs, 1.0)
    loss_s, gs = _lsgan_half(disc, sampled_inputs, 0.0)
    parts = [e + s for e, s in zip(ge, gs)]
    return loss_e + loss_s, np.concatenate([
        parts[0].ravel(), parts[1], parts[2].ravel(), parts[3],
        parts[4].ravel(), [parts[5]]])
