"""State-action discriminator trained with the least-squares GAN objective.

The network scores (state, action) pairs with a value in (0, 1): high means
"looks like the demonstrations". Trained by pushing demonstration pairs
toward 1 and freshly sampled pairs toward 0 under a squared-error loss,
which keeps gradients alive even when the two distributions are far apart.
Its score doubles as the reward signal: -log(1 - D).

Layers: input(n+p) -> 100 tanh -> 100 tanh -> sigmoid scalar, all float64
numpy, written once in `MlpDiscriminator._layers`. `reward_batch` scores a
(B, T, .) block of rollout episodes in stacked passes of whole episodes,
about SCORE_ROWS rows each: numpy's stacked matmul makes for each episode
the BLAS call that a lone episode gets, so the rewards are those of one
pass per episode, bit for bit (one 2-D pass over the flattened rows is
not: OpenBLAS rounds a row by the row count of its call). `lsgan_grad`
returns the loss of a minibatch pair with its hand-derived gradient from
one forward pass (no autodiff dependency); `disc_train` takes Adam steps
on minibatches drawn from two (M, n+p) arrays of [state, action] pairs,
and when frozen (no steps) reports the loss of one such pair, never
reading the whole pool.

The passes write their (rows, 100) activations and deltas into scratch
blocks that the discriminator keeps, grown to the largest minibatch or
scoring stack seen and never shrunk, with the same ufuncs in the same
order as fresh temporaries would take, so every bit is unchanged. There
are two such lanes, because the work splits into two independent halves
that run at once: `lsgan_grad` backpropagates its sampled half on one
helper thread in lane 1 while the caller does the expert half in lane 0,
and `reward_batch` scores the second half of a block of episodes on the
helper. The helper is one thread per process, made on first use in that
process (a forked child makes its own). Every matmul keeps its shape
and BLAS keeps one thread, so each result is bit-identical whichever
thread computes it. Nothing returned aliases a lane, but a discriminator
is not to be shared across threads: each of these calls uses both lanes.
"""
from __future__ import annotations

import functools
import os

import numpy as np

from .numerics import AdamState, Rng, adam_step

HIDDEN = 100
REWARD_CLAMP = 1.0 - 1e-6  # -log(1 - D) diverges as D -> 1
# rows of one scoring pass; each lane's scratch, so peak RSS, grows with it
SCORE_ROWS = 512


class MlpDiscriminator:
    """Two-hidden-layer tanh MLP with a sigmoid head over [state; action].
    Not to be shared across threads: every pass writes into a scratch lane."""

    def __init__(self, w1, b1, w2, b2, w3, b3):
        self.w1, self.b1 = w1, b1
        self.w2, self.b2 = w2, b2
        self.w3, self.b3 = w3, b3
        # lane 0 for the calling thread, lane 1 for the helper
        self._scratch = [np.empty((3, 0, HIDDEN)), np.empty((3, 0, HIDDEN))]

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    def _blocks(self, rows: int, lane: int):
        """Three C-contiguous (rows, HIDDEN) views of a scratch lane, which
        grows to the largest row count seen in it; a forward pass never
        touches the third."""
        if rows > self._scratch[lane].shape[1]:
            self._scratch[lane] = np.empty((3, rows, HIDDEN))
        return self._scratch[lane][:, :rows]

    def _layers(self, x: np.ndarray, lane: int):
        """(h1, h2, D) of a (B, n+p) block, or of an (E, T, n+p) stack of E
        episodes, which numpy's stacked matmul multiplies one (T, n+p)
        episode at a time with the BLAS call a lone episode gets. h1 and h2
        are views of the lane, valid until its next pass; D is a fresh
        array."""
        if x.ndim not in (2, 3) or x.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected inputs of width {self.input_dim}, got shape {x.shape}")
        h1, h2, _ = self._blocks(x.size // self.input_dim, lane).reshape(
            3, *x.shape[:-1], HIDDEN)
        np.matmul(x, self.w1.T, out=h1)
        h1 += self.b1
        np.tanh(h1, out=h1)
        np.matmul(h1, self.w2.T, out=h2)
        h2 += self.b2
        np.tanh(h2, out=h2)
        z = h2 @ self.w3.T + self.b3
        return h1, h2, 1.0 / (1.0 + np.exp(-z[..., 0]))

    def reward_batch(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Per-step rewards -log(1 - D), clamped near D = 1: (B, T) rewards of
        a (B, T, .) block of B episodes, the bits of one forward pass per
        episode. Episodes [:B//2] are scored on the calling thread and
        [B//2:] on the helper, each half in stacked passes of whole
        episodes."""
        if states.ndim != 3 or actions.ndim != 3 \
                or states.shape[:2] != actions.shape[:2]:
            raise ValueError("expected (B, T, .) blocks of states and actions "
                             f"with equal (B, T), got {states.shape} and "
                             f"{actions.shape}")
        out = np.empty(states.shape[:2])
        half = len(states) // 2
        _in_both_lanes(self._score, (states[:half], actions[:half], out[:half]),
                       (states[half:], actions[half:], out[half:]))
        return out

    def _score(self, states: np.ndarray, actions: np.ndarray, out: np.ndarray,
               lane: int) -> None:
        """Rewards of each episode of a (B, T, .) block into the rows of `out`,
        in stacked passes of whole episodes, about SCORE_ROWS rows each."""
        steps = out.shape[1]
        if steps == 0:
            return
        per_pass = max(1, SCORE_ROWS // steps)
        for i in range(0, len(out), per_pass):
            x = np.concatenate([states[i:i + per_pass], actions[i:i + per_pass]],
                               axis=2)
            d = self._layers(x, lane)[2]
            out[i:i + per_pass] = -np.log(1.0 - np.minimum(d, REWARD_CLAMP))

    def get_params(self) -> np.ndarray:
        """Flat copy of all parameters (w1, b1, w2, b2, w3, b3 order)."""
        return np.concatenate([self.w1.ravel(), self.b1, self.w2.ravel(),
                               self.b2, self.w3.ravel(), [self.b3]])

    def set_params(self, flat: np.ndarray) -> None:
        if np.shape(flat) != (self.n_params,):
            raise ValueError(f"expected a vector of {self.n_params} parameters, "
                             f"got shape {np.shape(flat)}")
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


def _backprop_half(disc: MlpDiscriminator, x: np.ndarray, target: float,
                   lane: int):
    """0.5 * mean((D - target)^2) over one labelled batch, and its gradient."""
    h1, h2, d = disc._layers(x, lane)
    d2 = disc._blocks(len(x), lane)[2]
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


@functools.cache
def _helper(pid: int):
    """One-thread helper executor of process `pid`, made on its first
    two-lane call; a forked child lacks the parent's thread, and its new pid
    makes it its own. Two threads racing on that call may each make one,
    harmlessly: an executor starts its thread with its first task, and the
    one the cache drops is then collected, so its worker ends after it."""
    # imported here so that importing ailsrs starts and loads nothing
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="ailsrs-disc")


def _in_both_lanes(fn, here: tuple, there: tuple):
    """(fn(*here, 0), fn(*there, 1)), the first on the calling thread and the
    second on the helper thread, at once. `fn` must be private: bench/tracing.py
    wraps public functions around one span stack, which two threads would
    interleave."""
    later = _helper(os.getpid()).submit(fn, *there, 1)
    try:
        result = fn(*here, 0)
    finally:
        later.exception()  # wait: lane 1 is the helper's until it is done
    return result, later.result()


def lsgan_grad(disc: MlpDiscriminator, expert_inputs: np.ndarray,
               sampled_inputs: np.ndarray) -> tuple[float, np.ndarray]:
    """The LSGAN loss 0.5 E_expert[(D-1)^2] + 0.5 E_sampled[D^2] and its exact
    gradient flattened in get_params order, both from one forward pass; the
    sampled half runs on the helper thread."""
    if len(expert_inputs) == 0 or len(sampled_inputs) == 0:
        raise ValueError("both batches must be nonempty")
    (loss_e, ge), (loss_s, gs) = _in_both_lanes(
        _backprop_half, (disc, expert_inputs, 1.0), (disc, sampled_inputs, 0.0))
    return loss_e + loss_s, np.concatenate([np.ravel(e + s)
                                            for e, s in zip(ge, gs)])


def disc_train(disc: MlpDiscriminator, adam: AdamState, expert_pairs: np.ndarray,
               sampled_pairs: np.ndarray, iters: int, batch_size: int, rng: Rng,
               lr: float) -> float:
    """Adam steps on the LSGAN loss with resampled minibatches.

    `expert_pairs` and `sampled_pairs` are (M, n+p) arrays of [state, action]
    rows. Each step draws `batch_size` rows with replacement from each.
    Returns the mean of the per-step losses; with iters == 0 the
    discriminator stays frozen and the loss of one such minibatch pair is
    returned. Mutates `disc` and `adam`.
    """
    if len(expert_pairs) == 0 or len(sampled_pairs) == 0:
        raise ValueError("both the expert and sampled pools must be nonempty")
    losses = []
    for step in range(max(iters, 1)):
        e_batch = expert_pairs[rng.integers(len(expert_pairs), batch_size)]
        s_batch = sampled_pairs[rng.integers(len(sampled_pairs), batch_size)]
        loss, grad = lsgan_grad(disc, e_batch, s_batch)
        losses.append(loss)
        if step < iters:
            disc.set_params(adam_step(adam, disc.get_params(), grad, lr))
    return float(np.mean(losses))
