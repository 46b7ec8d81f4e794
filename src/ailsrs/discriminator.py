"""State-action discriminator trained with the least-squares GAN objective.

The network scores (state, action) pairs with a value in (0, 1): high means
"looks like the demonstrations". Trained by pushing demonstration pairs
toward 1 and freshly sampled pairs toward 0 under a squared-error loss,
which keeps gradients alive even when the two distributions are far apart.
Its score doubles as the reward signal: -log(1 - D).

Layers: input(n+p) -> 100 tanh -> 100 tanh -> sigmoid scalar, all float64
numpy, written once in `MlpDiscriminator._layers`. `lsgan_grad` returns the
loss together with its hand-derived gradient from one forward pass (no
autodiff dependency); `disc_train` takes Adam steps on minibatches drawn
from two (M, n+p) arrays of [state, action] pairs.

The passes write their (rows, 100) activations and deltas into one scratch
block per discriminator, grown to the largest batch seen and never shrunk,
with the same ufuncs in the same order as fresh temporaries would take, so
every bit is unchanged. Nothing returned aliases the block, but it makes a
discriminator unsafe to share across threads.
"""
from __future__ import annotations

import numpy as np

from .numerics import AdamState, Rng, adam_step

HIDDEN = 100
REWARD_CLAMP = 1.0 - 1e-6  # -log(1 - D) diverges as D -> 1


class MlpDiscriminator:
    """Two-hidden-layer tanh MLP with a sigmoid head over [state; action].
    Not to be shared across threads: every pass writes into its scratch."""

    def __init__(self, w1, b1, w2, b2, w3, b3):
        self.w1, self.b1 = w1, b1
        self.w2, self.b2 = w2, b2
        self.w3, self.b3 = w3, b3
        self._scratch = np.empty((3, 0, HIDDEN))

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """D for a (B, n+p) input block; returns (B,) scores in (0, 1)."""
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"expected inputs of width {self.input_dim}, got shape {x.shape}")
        return self._layers(x)[2]

    def _blocks(self, rows: int):
        """Three C-contiguous (rows, HIDDEN) views of the scratch, which grows
        to the largest row count seen; a forward pass never touches the third."""
        if rows > self._scratch.shape[1]:
            self._scratch = np.empty((3, rows, HIDDEN))
        return self._scratch[:, :rows]

    def _layers(self, x: np.ndarray):
        """(h1, h2, D) of a (B, n+p) block. h1 and h2 are scratch views, valid
        until the next pass; D is a fresh array."""
        h1, h2, _ = self._blocks(len(x))
        np.matmul(x, self.w1.T, out=h1)
        h1 += self.b1
        np.tanh(h1, out=h1)
        np.matmul(h1, self.w2.T, out=h2)
        h2 += self.b2
        np.tanh(h2, out=h2)
        z = h2 @ self.w3.T + self.b3
        return h1, h2, 1.0 / (1.0 + np.exp(-z[:, 0]))

    def reward_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-step rewards -log(1 - D) for an episode, clamped near D = 1."""
        d = self.forward_batch(np.concatenate([states, actions], axis=1))
        return -np.log(1.0 - np.minimum(d, REWARD_CLAMP))

    def get_params(self) -> np.ndarray:
        """Flat copy of all parameters (w1, b1, w2, b2, w3, b3 order)."""
        return np.concatenate([self.w1.ravel(), self.b1, self.w2.ravel(),
                               self.b2, self.w3.ravel(), [self.b3]])

    def set_params(self, flat: np.ndarray) -> None:
        shapes = [self.w1.shape, self.b1.shape, self.w2.shape, self.b2.shape,
                  self.w3.shape]
        pos = 0
        arrays = []
        for shape in shapes:
            size = int(np.prod(shape))
            arrays.append(flat[pos:pos + size].reshape(shape).copy())
            pos += size
        self.w1, self.b1, self.w2, self.b2, self.w3 = arrays
        self.b3 = float(flat[pos])

    @property
    def n_params(self) -> int:
        return (self.w1.size + self.b1.size + self.w2.size + self.b2.size
                + self.w3.size + 1)


def disc_init(n: int, p: int, rng: Rng) -> MlpDiscriminator:
    """Glorot-uniform weights, zero biases."""
    if n < 1 or p < 1:
        raise ValueError("state and action dims must be >= 1")

    def glorot(rows, cols):  # drawn in row-major order
        s = np.sqrt(6.0 / (rows + cols))
        return rng.uniforms(-s, s, rows * cols).reshape(rows, cols)

    return MlpDiscriminator(
        glorot(HIDDEN, n + p), np.zeros(HIDDEN),
        glorot(HIDDEN, HIDDEN), np.zeros(HIDDEN),
        glorot(1, HIDDEN), 0.0,
    )


def lsgan_loss(disc: MlpDiscriminator, expert_inputs: np.ndarray,
               sampled_inputs: np.ndarray) -> float:
    """0.5 E_expert[(D-1)^2] + 0.5 E_sampled[D^2]."""
    if len(expert_inputs) == 0 or len(sampled_inputs) == 0:
        raise ValueError("both batches must be nonempty")
    d_e = disc.forward_batch(expert_inputs)
    d_s = disc.forward_batch(sampled_inputs)
    return 0.5 * float(np.mean((d_e - 1.0) ** 2)) + 0.5 * float(np.mean(d_s ** 2))


def _backprop_half(disc: MlpDiscriminator, x: np.ndarray, target: float):
    """0.5 * mean((D - target)^2) over one labelled batch, and its gradient."""
    h1, h2, d = disc._layers(x)
    d2 = disc._blocks(len(x))[2]
    # dL/dz = (D - target) * D(1-D) / B   (the 0.5 cancels the square's 2)
    dz = ((d - target) * d * (1.0 - d) / len(x))[:, None]
    gw3 = dz.T @ h2
    gb3 = float(dz.sum())
    # d2 = (dz @ w3) * (1 - h2^2), with 1 - h2^2 in h2's block; dz @ w3 has
    # K = 1, so the broadcast product rounds the same
    np.multiply(h2, h2, out=h2)
    np.subtract(1.0, h2, out=h2)
    np.multiply(dz, disc.w3, out=d2)
    d2 *= h2
    gw2 = d2.T @ h1
    gb2 = d2.sum(axis=0)
    # d1 = (d2 w2) * (1 - h1^2), in h2's block
    d1 = h2
    np.multiply(h1, h1, out=h1)
    np.subtract(1.0, h1, out=h1)
    np.matmul(d2, disc.w2, out=d1)
    d1 *= h1
    gw1 = d1.T @ x
    gb1 = d1.sum(axis=0)
    return 0.5 * float(np.mean((d - target) ** 2)), [gw1, gb1, gw2, gb2, gw3, gb3]


def lsgan_grad(disc: MlpDiscriminator, expert_inputs: np.ndarray,
               sampled_inputs: np.ndarray) -> tuple[float, np.ndarray]:
    """(lsgan_loss, its exact gradient flattened in get_params order), both
    from one forward pass."""
    if len(expert_inputs) == 0 or len(sampled_inputs) == 0:
        raise ValueError("both batches must be nonempty")
    loss_e, ge = _backprop_half(disc, expert_inputs, 1.0)
    loss_s, gs = _backprop_half(disc, sampled_inputs, 0.0)
    parts = [e + s for e, s in zip(ge, gs)]
    return loss_e + loss_s, np.concatenate([
        parts[0].ravel(), parts[1], parts[2].ravel(), parts[3],
        parts[4].ravel(), [parts[5]]])


def disc_train(disc: MlpDiscriminator, adam: AdamState, expert_pairs: np.ndarray,
               sampled_pairs: np.ndarray, iters: int, batch_size: int, rng: Rng,
               lr: float = 0.00025) -> float:
    """Adam steps on the LSGAN loss with resampled minibatches.

    `expert_pairs` and `sampled_pairs` are (M, n+p) arrays of [state, action]
    rows. Each step draws `batch_size` rows with replacement from each.
    Returns the mean of the per-step losses (the full-pool loss when
    iters == 0). Mutates `disc` and `adam`.
    """
    if len(expert_pairs) == 0 or len(sampled_pairs) == 0:
        raise ValueError("both the expert and sampled pools must be nonempty")
    if iters == 0:
        return lsgan_loss(disc, expert_pairs, sampled_pairs)
    losses = []
    for _ in range(iters):
        e_batch = expert_pairs[rng.integers(len(expert_pairs), batch_size)]
        s_batch = sampled_pairs[rng.integers(len(sampled_pairs), batch_size)]
        loss, grad = lsgan_grad(disc, e_batch, s_batch)
        losses.append(loss)
        disc.set_params(adam_step(adam, disc.get_params(), grad, lr))
    return float(np.mean(losses))
