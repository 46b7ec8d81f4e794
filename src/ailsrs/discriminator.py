"""State-action discriminator trained with the least-squares GAN objective.

The network scores (state, action) pairs with a value in (0, 1): high means
"looks like the demonstrations". Trained by pushing demonstration pairs
toward 1 and freshly sampled pairs toward 0 under a squared-error loss,
which keeps gradients alive even when the two distributions are far apart.
Its score doubles as the reward signal: -log(1 - D).

Layers: input(n+p) -> 100 tanh -> 100 tanh -> sigmoid scalar, all float64
numpy, written once in `MlpDiscriminator._layers`; an input row is one
[state, action] pair. `reward_batch` scores a (B, T, n+p) block of rollout
episodes in stacked passes of whole episodes, about SCORE_ROWS rows each:
numpy's stacked matmul makes for each episode the BLAS call that a lone
episode gets, so the rewards are those of one pass per episode, bit for
bit. One 2-D pass over the flattened rows is not, in general: with numpy
2.4 and OpenBLAS 0.3.31 it gave the same bits when every episode had at
least 16 rows and a multiple of 4 rows (the 100- and 200-step episodes of
the built-in environments), and rewards a few ulp apart otherwise (5, 12,
17 or 150 rows). `lsgan_grad` returns a minibatch pair's loss
with its hand-derived gradient from one forward pass (no autodiff
dependency); `disc_train` takes Adam steps on minibatches drawn from two
(M, n+p) arrays of rows, all indices of a call in one draw, and when
frozen (no steps) reports one pair's loss, never reading the whole pool.

The parameters are one float64 vector in get_params order, and w1, b1,
w2, b2, w3 and b3 are read-only views of it. A vector is never written
once bound: `set_params` binds a copy of its input and each Adam step
binds the fresh vector that `adam_step` returns, so a pass that captured
the views of the old one reads it unchanged. Each half of a gradient is
written into a fresh vector in the same order, through views of it, and
the two halves are added in place.

The passes write their (rows, 100) activations and deltas into scratch
blocks that the discriminator keeps, grown to the largest minibatch or
scoring stack seen and never shrunk, with the same ufuncs in the same
order as fresh temporaries would take, so every bit is unchanged. There
are two such lanes, lane 0 for the calling thread and lane 1 for one
helper thread, and each two-lane call splits its work into jobs that the
two threads claim one at a time from one shared list: the two halves of
an `lsgan_grad` minibatch, or the stacked passes of a `reward_batch`
block. The caller may first run other work: `reward_batch(..., meanwhile)`
scores on the helper while the caller runs `meanwhile()`, then helps with
the passes left. A helper still busy with earlier work when the caller
has claimed every job is not waited for. The helper is one thread per
process, made on first use in that process (a forked child makes its
own). Every matmul keeps its shape and BLAS keeps one thread, so each
result is bit-identical whichever thread computes it. Nothing returned
aliases a lane, but a discriminator is not to be shared across threads:
each of these calls uses both lanes.
"""
from __future__ import annotations

import functools
import os

import numpy as np

from .numerics import AdamState, Rng, adam_step, check_integer

HIDDEN = 100
REWARD_CLAMP = 1.0 - 1e-6  # -log(1 - D) diverges as D -> 1
# rows of one scoring pass; each lane's scratch, so peak RSS, grows with it
SCORE_ROWS = 512


class MlpDiscriminator:
    """Two-hidden-layer tanh MLP with a sigmoid head over [state; action].
    Not to be shared across threads: every pass writes into a scratch lane."""

    # the read-only views of the vector bound now; assigning one would leave
    # the vector stale, so they have no setter
    w1, b1, w2, b2, w3, b3 = (property(lambda self, i=i: self._params[i])
                              for i in range(6))

    def __init__(self, w1, b1, w2, b2, w3, b3):
        params = (w1, b1, w2, b2, w3, b3)
        ends = np.cumsum([np.size(a) for a in params]).tolist()
        # (start, stop, shape) of each array in the parameter vector
        self._layout = [(end - np.size(a), end, np.shape(a))
                        for a, end in zip(params, ends)]
        self._bind(np.concatenate([np.ravel(a) for a in params], dtype=float))
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

    def _views(self, vector: np.ndarray) -> tuple:
        """(w1, b1, w2, b2, w3, b3) as views of a vector in get_params order."""
        return tuple(vector[start:stop].reshape(shape)
                     for start, stop, shape in self._layout)

    def _bind(self, vector: np.ndarray) -> None:
        """Make a fresh float64 vector the parameters, and `_params` its
        views. It is made read-only and never written again, so a pass that
        captured the old views reads them unchanged while the caller binds
        new ones."""
        vector.flags.writeable = False
        self._vector = vector
        self._params = self._views(vector)

    def _layers(self, x: np.ndarray, lane: int, params: tuple):
        """(h1, h2, D) under `params` of a (B, n+p) block, or of an
        (E, T, n+p) stack of E episodes, which numpy's stacked matmul
        multiplies one (T, n+p) episode at a time with the BLAS call a lone
        episode gets. h1 and h2 are views of the lane, valid until its next
        pass; D is a fresh array."""
        if x.ndim not in (2, 3) or x.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected inputs of width {self.input_dim}, got shape {x.shape}")
        w1, b1, w2, b2, w3, b3 = params
        h1, h2, _ = self._blocks(x.size // self.input_dim, lane).reshape(
            3, *x.shape[:-1], HIDDEN)
        np.matmul(x, w1.T, out=h1)
        h1 += b1
        np.tanh(h1, out=h1)
        np.matmul(h1, w2.T, out=h2)
        h2 += b2
        np.tanh(h2, out=h2)
        z = h2 @ w3.T + b3
        return h1, h2, 1.0 / (1.0 + np.exp(-z[..., 0]))

    def reward_batch(self, pairs: np.ndarray, meanwhile=None) -> np.ndarray:
        """Per-step rewards -log(1 - D), clamped near D = 1: (B, T) rewards of
        a (B, T, n+p) block of [state, action] rows of B episodes under the
        parameters at entry, the bits of one forward pass per episode.

        The block goes in stacked passes of whole episodes, about SCORE_ROWS
        rows each, claimed one at a time by the helper thread from the start
        and by the caller once `meanwhile()`, if given, has returned. So
        `meanwhile` may train this discriminator while the helper scores:
        the passes read the views of the parameter vector captured here,
        which training replaces and never writes into. An exception from
        `meanwhile` is raised once the helper is done."""
        if pairs.ndim != 3:
            raise ValueError(f"expected a (B, T, n+p) block, got shape {pairs.shape}")
        # checked here too: an empty block runs no pass
        if pairs.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected inputs of width {self.input_dim}, got shape {pairs.shape}")
        out = np.empty(pairs.shape[:2])
        per_pass = max(1, SCORE_ROWS // max(out.shape[1], 1))
        _in_both_lanes(MlpDiscriminator._score, [
            (self, self._params, pairs[i:i + per_pass], out[i:i + per_pass])
            for i in range(0, len(out), per_pass)], meanwhile)
        return out

    def _score(self, params: tuple, pairs: np.ndarray, out: np.ndarray,
               lane: int) -> None:
        """Rewards of an (E, T, n+p) stack of episodes into `out`, in one pass."""
        d = self._layers(pairs, lane, params)[2]
        out[...] = -np.log(1.0 - np.minimum(d, REWARD_CLAMP))

    def get_params(self) -> np.ndarray:
        """Copy of the parameter vector (w1, b1, w2, b2, w3, b3 order)."""
        return self._vector.copy()

    def set_params(self, flat: np.ndarray) -> None:
        if np.shape(flat) != (self.n_params,):
            raise ValueError(f"expected a vector of {self.n_params} parameters, "
                             f"got shape {np.shape(flat)}")
        self._bind(np.array(flat, dtype=float))

    @property
    def n_params(self) -> int:
        return self._vector.size


def disc_init(n: int, p: int, rng: Rng) -> MlpDiscriminator:
    """Glorot-uniform weights, zero biases."""
    check_integer("n", n, 1)
    check_integer("p", p, 1)

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
    """0.5 * mean((D - target)^2) over one labelled batch, and its gradient
    as a fresh vector in get_params order."""
    params = disc._params
    w2, w3 = params[2], params[4]
    grad = np.empty(disc.n_params)
    gw1, gb1, gw2, gb2, gw3, _ = disc._views(grad)
    h1, h2, d = disc._layers(x, lane, params)
    d2 = disc._blocks(len(x), lane)[2]
    # dL/dz = (D - target) * D(1-D) / B   (the 0.5 cancels the square's 2)
    dz = ((d - target) * d * (1.0 - d) / len(x))[:, None]
    np.matmul(dz.T, h2, out=gw3)
    grad[-1] = dz.sum()
    # d2 = (dz @ w3) * (1 - h2^2), with 1 - h2^2 in h2's block; dz @ w3 has
    # K = 1, so the broadcast product rounds the same
    np.multiply(h2, h2, out=h2)
    np.subtract(1.0, h2, out=h2)
    np.multiply(dz, w3, out=d2)
    d2 *= h2
    np.matmul(d2.T, h1, out=gw2)
    np.sum(d2, axis=0, out=gb2)
    # d1 = (d2 w2) * (1 - h1^2), in h2's block
    d1 = h2
    np.multiply(h1, h1, out=h1)
    np.subtract(1.0, h1, out=h1)
    np.matmul(d2, w2, out=d1)
    d1 *= h1
    np.matmul(d1.T, x, out=gw1)
    np.sum(d1, axis=0, out=gb1)
    return 0.5 * float(np.mean((d - target) ** 2)), grad


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


def _in_both_lanes(fn, jobs: list, meanwhile=None) -> list:
    """[fn(*job, lane) for job in jobs], the jobs claimed one at a time from
    one shared iterator (its next() holds the interpreter lock) by the
    helper thread in lane 1 and by the calling thread in lane 0, the caller
    first running `meanwhile()` if given. Lane 0 is only ever the calling
    thread's and lane 1 the helper's, so `meanwhile` may itself make
    two-lane calls on the same discriminator.

    A helper that has not started when the caller has claimed the last job
    is cancelled, not waited for: it may be busy with other work, such as
    scoring an earlier block. One that has started owns lane 1 until it is
    done, so an error on either thread is raised only after that. `fn`
    must be private: bench/tracing.py wraps public functions around one
    span stack, which two threads would interleave. An exhausted claim
    iterator drops `jobs`, so a cancelled task left in the helper's queue
    holds none of their arguments."""
    claims = enumerate(jobs)
    results = [None] * len(jobs)

    def claim(lane):
        for i, job in claims:
            results[i] = fn(*job, lane)

    later = _helper(os.getpid()).submit(claim, 1)
    try:
        if meanwhile is not None:
            meanwhile()
        claim(0)
    finally:
        helped = not later.cancel()
        if helped:
            later.exception()  # wait: lane 1 is the helper's until it is done
    if helped:
        later.result()  # raises the helper's error, if any
    return results


def lsgan_grad(disc: MlpDiscriminator, expert_inputs: np.ndarray,
               sampled_inputs: np.ndarray) -> tuple[float, np.ndarray]:
    """The LSGAN loss 0.5 E_expert[(D-1)^2] + 0.5 E_sampled[D^2] and its exact
    gradient flattened in get_params order, both from one forward pass; the
    two threads claim the expert and the sampled half."""
    if len(expert_inputs) == 0 or len(sampled_inputs) == 0:
        raise ValueError("both batches must be nonempty")
    (loss_e, ge), (loss_s, gs) = _in_both_lanes(
        _backprop_half, [(disc, expert_inputs, 1.0), (disc, sampled_inputs, 0.0)])
    ge += gs
    return loss_e + loss_s, ge


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
    check_integer("iters", iters, 0)
    check_integer("batch_size", batch_size, 1)
    if len(expert_pairs) == 0 or len(sampled_pairs) == 0:
        raise ValueError("both the expert and sampled pools must be nonempty")
    # every step's two index rows in one draw, in the stream order of two
    # draws per step
    steps = rng.integers([[len(expert_pairs)], [len(sampled_pairs)]],
                         (max(iters, 1), 2, batch_size))
    losses = []
    for step, (e_rows, s_rows) in enumerate(steps):
        loss, grad = lsgan_grad(disc, expert_pairs[e_rows], sampled_pairs[s_rows])
        losses.append(loss)
        if step < iters:
            disc._bind(adam_step(adam, disc._vector, grad, lr))
    return float(np.mean(losses))
