"""Reference computations that only the tests use: a generic
finite-difference gradient, the behavior-cloning objective and the
single-row Welford step."""
import numpy as np


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


def bc_loss(theta: np.ndarray, z: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of theta @ z_i against y_i."""
    resid = z @ theta.T - y
    return float(np.mean(np.sum(resid * resid, axis=1)))


def welford_update(stats, x: np.ndarray) -> None:
    """Fold one observation vector into an ObservationNormalizer by
    Welford's recurrence, the one-row-at-a-time reference for `add_states`."""
    x = np.asarray(x, dtype=float)
    stats.count += 1
    delta = x - stats.mean
    stats.mean = stats.mean + delta / stats.count
    stats.m2 = stats.m2 + delta * (x - stats.mean)
