import contextlib
import gc
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import _oracles
from _oracles import ScalarRng, finite_diff

import ailsrs
from ailsrs import discriminator
from ailsrs.discriminator import MlpDiscriminator, disc_init, disc_train, lsgan_grad
from ailsrs.numerics import AdamState, Rng, adam_step


def _zero_disc(n=2, p=1, b3=0.0):
    return MlpDiscriminator(
        np.zeros((100, n + p)), np.zeros(100),
        np.zeros((100, 100)), np.zeros(100),
        np.zeros((1, 100)), b3,
    )


def _saturated_disc(n=2, p=1):
    """Outputs ~1 at the all-plus-ones input and ~0 at all-minus-ones."""
    d = n + p
    w1 = np.full((100, d), 5.0)
    w2 = 5.0 * np.eye(100)
    w3 = np.full((1, 100), 0.5)
    return MlpDiscriminator(w1, np.zeros(100), w2, np.zeros(100), w3, 0.0)


def _episode_rewards(disc, x):
    """`reward_batch` of the rows of a (T, n+p) input as one episode: (T,)
    rewards."""
    return disc.reward_batch(x[None])[0]


def _oracle_d(disc, x):
    return _oracles.disc_layers(disc, x)[2]


@contextlib.contextmanager
def _helper_held():
    """The helper thread blocked on an event until the block exits, so every
    two-lane job inside it runs on the caller, in lane 0. Yields the
    blocking task, which a call that waited for the helper would outlive."""
    release = threading.Event()
    blocker = discriminator._helper(os.getpid()).submit(release.wait, 60)
    try:
        yield blocker
    finally:
        release.set()
        blocker.result()


def _after_helper():
    """A `meanwhile` that returns once the helper has run every task queued
    before it: the passes of the block are all scored in lane 1."""
    discriminator._helper(os.getpid()).submit(lambda: None).result()


def test_disc_init_biases_zero_and_bounded_weights():
    disc = disc_init(2, 1, Rng(1))
    assert np.all(disc.b1 == 0.0) and np.all(disc.b2 == 0.0) and disc.b3 == 0.0
    assert np.max(np.abs(disc.w1)) <= math.sqrt(6.0 / (3 + 100))
    assert np.max(np.abs(disc.w2)) <= math.sqrt(6.0 / 200)
    assert np.max(np.abs(disc.w3)) <= math.sqrt(6.0 / 101)


def test_disc_init_deterministic():
    a = disc_init(2, 1, Rng(7))
    b = disc_init(2, 1, Rng(7))
    np.testing.assert_array_equal(a.w1, b.w1)
    np.testing.assert_array_equal(a.w2, b.w2)
    np.testing.assert_array_equal(a.w3, b.w3)


def test_forward_zero_parameters_gives_half():
    disc = _zero_disc()
    assert _oracle_d(disc, np.zeros((1, 3)))[0] == 0.5


def test_forward_saturates_with_large_bias():
    disc = _zero_disc(b3=20.0)
    assert _oracle_d(disc, np.zeros((1, 3)))[0] > 1.0 - 1e-8


def test_forward_strictly_inside_unit_interval():
    rng = ScalarRng(3)
    disc = disc_init(2, 1, rng)
    for _ in range(20):
        s = np.array([rng.gaussian(), rng.gaussian()])
        a = np.array([rng.gaussian()])
        d = _oracle_d(disc, np.concatenate([s, a])[None])[0]
        assert 0.0 < d < 1.0


def test_forward_is_pure():
    disc = disc_init(2, 1, Rng(5))
    x = np.array([[0.3, -0.7, 1.1]])
    first = _episode_rewards(disc, x)[0]
    _episode_rewards(disc, _uniform_rows(Rng(6), 40, 3))  # other rows between
    assert _episode_rewards(disc, x)[0] == first


def test_lsgan_loss_at_half_is_quarter():
    disc = _zero_disc()
    x = np.zeros((4, 3))
    assert lsgan_grad(disc, x, x)[0] == 0.25


def test_lsgan_loss_perfect_and_worst_case():
    disc = _saturated_disc()
    plus = np.ones((3, 3))
    minus = -np.ones((3, 3))
    assert lsgan_grad(disc, plus, minus)[0] <= 1e-12   # perfect separation
    assert lsgan_grad(disc, minus, plus)[0] >= 1.0 - 1e-9  # labels swapped


def test_lsgan_loss_bounded_unit_interval():
    rng = ScalarRng(8)
    for _ in range(10):
        disc = disc_init(2, 1, rng)
        xe = rng.gaussian_matrix(5, 3)
        xs = rng.gaussian_matrix(5, 3)
        assert 0.0 <= lsgan_grad(disc, xe, xs)[0] <= 1.0


def test_lsgan_loss_empty_batch_errors():
    disc = _zero_disc()
    with pytest.raises(ValueError, match="nonempty"):
        lsgan_grad(disc, np.zeros((0, 3)), np.zeros((2, 3)))


def test_lsgan_grad_matches_generic_finite_differences():
    rng = ScalarRng(21)
    disc = disc_init(2, 1, rng)
    xe = rng.gaussian_matrix(3, 3)
    xs = rng.gaussian_matrix(3, 3)

    probe = disc_init(2, 1, Rng(0))

    def loss_at(flat):
        probe.set_params(flat)
        return _oracles.lsgan_loss(probe, xe, xs)

    g_bp = lsgan_grad(disc, xe, xs)[1]
    g_fd = finite_diff(loss_at, disc.get_params(), 1e-5)
    scale = max(np.max(np.abs(g_bp)), np.max(np.abs(g_fd)))
    assert np.max(np.abs(g_bp - g_fd)) / scale <= 1e-4


def test_lsgan_grad_near_zero_at_perfect_separation():
    disc = _saturated_disc()
    plus = np.ones((3, 3))
    minus = -np.ones((3, 3))
    d_e = _oracle_d(disc, plus)
    d_s = _oracle_d(disc, minus)
    assert np.all(d_e > 1.0 - 1e-9) and np.all(d_s < 1e-9)
    grad = lsgan_grad(disc, plus, minus)[1]
    assert np.max(np.abs(grad)) <= 1e-6


def test_lsgan_grad_b3_matches_hand_derivation():
    rng = Rng(31)
    disc = disc_init(2, 1, rng)
    xe = np.array([[0.2, -0.4, 0.9]])
    xs = np.array([[-1.0, 0.3, 0.1]])
    d_e = _oracle_d(disc, xe)[0]
    d_s = _oracle_d(disc, xs)[0]
    # chain rule by hand on the single pair of samples
    expect = (d_e - 1.0) * d_e * (1.0 - d_e) + d_s * d_s * (1.0 - d_s)
    assert lsgan_grad(disc, xe, xs)[1][-1] == pytest.approx(expect, rel=1e-12)


def _toy_sets(n=2, p=1, rows=20):
    """Expert pairs at +1^(n+p), sampled pairs at -1^(n+p)."""
    return np.ones((rows, n + p)), -np.ones((rows, n + p))


def test_disc_train_separable_toy_converges():
    expert, sampled = _toy_sets()
    disc = disc_init(2, 1, Rng(2))
    adam = AdamState.zeros(disc.n_params)
    disc_train(disc, adam, expert, sampled, iters=500, batch_size=8, rng=Rng(3),
               lr=0.00025)
    final = _oracles.lsgan_loss(disc, np.ones((1, 3)), -np.ones((1, 3)))
    assert final < 0.05


def test_disc_train_zero_iters_is_frozen_on_one_minibatch():
    rng = ScalarRng(4)
    expert, sampled = rng.gaussian_matrix(30, 3), rng.gaussian_matrix(25, 3)
    disc = disc_init(2, 1, Rng(5))
    before = disc.get_params().tobytes()
    adam = AdamState.zeros(disc.n_params)
    adam_before = (adam.step, adam.m.tobytes(), adam.v.tobytes())
    loss = disc_train(disc, adam, expert, sampled, iters=0, batch_size=8,
                      rng=Rng(6), lr=0.01)
    assert disc.get_params().tobytes() == before
    assert (adam.step, adam.m.tobytes(), adam.v.tobytes()) == adam_before
    # the loss of the one minibatch pair, re-drawn from an identical stream
    draws = Rng(6)
    e_batch = expert[draws.integers(len(expert), 8)]
    s_batch = sampled[draws.integers(len(sampled), 8)]
    assert loss == _oracles.lsgan_grad(disc, e_batch, s_batch)[0]
    # a frozen discriminator reads one minibatch, never the whole pool
    for lane in disc._scratch:
        assert lane.shape[1] <= 8


@pytest.mark.parametrize("field, value", [
    ("iters", -1), ("iters", 2.5), ("iters", True),
    ("batch_size", 0), ("batch_size", 2.5), ("batch_size", True),
])
def test_disc_train_rejects_bad_counts_before_drawing(field, value):
    # iters=-1 used to act as a frozen discriminator, batch_size=0 to fail
    # late in lsgan_grad, and 2.5 or True to raise numpy TypeErrors
    disc = disc_init(2, 1, Rng(8))
    before = disc.get_params().tobytes()
    adam, rng = AdamState.zeros(disc.n_params), Rng(9)
    counts = {"iters": 3, "batch_size": 8, field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= "):
        disc_train(disc, adam, np.ones((5, 3)), -np.ones((5, 3)), rng=rng,
                   lr=0.01, **counts)
    assert disc.get_params().tobytes() == before and adam.step == 0
    assert rng.integers(7, 3).tobytes() == Rng(9).integers(7, 3).tobytes()


def test_disc_train_returns_mean_minibatch_loss():
    rng = ScalarRng(43)
    expert, sampled = rng.gaussian_matrix(30, 3), rng.gaussian_matrix(25, 3)
    disc, replay = disc_init(2, 1, Rng(44)), disc_init(2, 1, Rng(44))
    adam, replay_adam = AdamState.zeros(disc.n_params), AdamState.zeros(disc.n_params)
    loss = disc_train(disc, adam, expert, sampled, iters=6, batch_size=8,
                      rng=Rng(45), lr=0.01)
    # the same minibatches, re-drawn from an identical stream
    draws, losses = Rng(45), []
    for _ in range(6):
        e_batch = expert[draws.integers(len(expert), 8)]
        s_batch = sampled[draws.integers(len(sampled), 8)]
        losses.append(_oracles.lsgan_loss(replay, e_batch, s_batch))
        fused, grad = lsgan_grad(replay, e_batch, s_batch)
        assert fused == losses[-1]
        replay.set_params(adam_step(replay_adam, replay.get_params(), grad, 0.01))
    assert loss == float(np.mean(losses))
    np.testing.assert_array_equal(disc.get_params(), replay.get_params())


def test_disc_train_descends_on_easy_data():
    expert, sampled = _toy_sets()
    disc = disc_init(2, 1, Rng(6))
    adam = AdamState.zeros(disc.n_params)
    before = _oracles.lsgan_loss(disc, np.ones((1, 3)), -np.ones((1, 3)))
    disc_train(disc, adam, expert, sampled, iters=3, batch_size=8, rng=Rng(7),
               lr=0.00025)
    after = _oracles.lsgan_loss(disc, np.ones((1, 3)), -np.ones((1, 3)))
    assert after <= before


def test_reward_batch_anchors():
    disc = _zero_disc()  # D = 0.5 everywhere
    r = disc.reward_batch(np.zeros((1, 1, 3)))[0, 0]
    assert r == pytest.approx(math.log(2.0), abs=1e-12)

    low = _saturated_disc()
    # all-minus-ones input drives D to ~0: reward tends to -log(1) = 0
    assert low.reward_batch(-np.ones((1, 1, 3)))[0, 0] == pytest.approx(0.0, abs=1e-8)
    # saturated-high side hits the clamp ceiling
    high = _zero_disc(b3=50.0)
    assert high.reward_batch(np.zeros((1, 1, 3)))[0, 0] == pytest.approx(
        -math.log(1e-6), abs=1e-9)


def test_reward_batch_monotone_in_score():
    # sweep D over a grid by varying b3 on an otherwise zero network
    rewards = []
    for d_target in np.linspace(0.01, 0.99, 50):
        disc = _zero_disc(b3=math.log(d_target / (1.0 - d_target)))
        rewards.append(disc.reward_batch(np.zeros((1, 1, 3)))[0, 0])
    assert all(b > a for a, b in zip(rewards, rewards[1:]))


def test_reward_batch_matches_scalar_reward():
    rng = ScalarRng(9)
    disc = disc_init(2, 1, rng)
    states = rng.gaussian_matrix(5, 2)
    actions = np.array([[rng.gaussian()] for _ in range(5)])
    pairs = np.concatenate([states, actions], axis=1)
    batch = disc.reward_batch(pairs[None])[0]
    singles = [disc.reward_batch(row[None, None])[0, 0] for row in pairs]
    np.testing.assert_allclose(batch, singles, rtol=1e-15)


def _uniform_rows(rng, rows, width):
    return rng.uniforms(-2.0, 2.0, rows * width).reshape(rows, width)


@pytest.mark.parametrize("shape, expected", [
    pytest.param((5, 3), "a (B, T, n+p) block", id="2d-rows"),
    pytest.param((1, 4, 5, 3), "a (B, T, n+p) block", id="4d"),
    pytest.param((4, 5, 2), "inputs of width 3", id="wrong-width"),
    # no pass runs on an empty block, so no pass can reject it
    pytest.param((0, 5, 7), "inputs of width 3", id="empty-wrong-width"),
])
def test_reward_batch_rejects_anything_but_matching_episode_blocks(shape, expected):
    disc = disc_init(2, 1, Rng(67))
    with pytest.raises(ValueError, match=re.escape(f"expected {expected}, got shape {shape}")):
        disc.reward_batch(np.zeros(shape))


@pytest.mark.parametrize("width", [3, 5, 6])
def test_passes_byte_equal_to_out_of_place_reference(width):
    rng = Rng(50 + width)
    disc = disc_init(width - 1, 1, rng)
    # the scratch lanes grow, are read through smaller views, and grow again
    for rows in (1000, 7, 100, 1, 2000):
        xe = _uniform_rows(rng, rows, width)
        xs = _uniform_rows(rng, max(1, rows // 3), width)
        # two episodes, then one
        pair = np.stack([xe, xe[::-1]])
        assert (disc.reward_batch(pair).tobytes()
                == np.stack([_oracles.disc_rewards(disc, e)
                             for e in pair]).tobytes())
        assert (_episode_rewards(disc, xs).tobytes()
                == _oracles.disc_rewards(disc, xs).tobytes())
        # the sampled half smaller and then larger than the expert half
        for expert, sampled in ((xe, xs), (xs, xe)):
            loss, grad = lsgan_grad(disc, expert, sampled)
            ref_loss, ref_grad = _oracles.lsgan_grad(disc, expert, sampled)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("width", [3, 5, 6])
def test_episode_block_rewards_byte_equal_to_one_episode_at_a_time(width):
    rng = Rng(70 + width)
    disc = disc_init(width - 1, 1, rng)
    for steps in (1000, 7, 100, 1):
        for episodes in (1, 2, 3, 64):
            block = _uniform_rows(rng, episodes * steps, width).reshape(
                episodes, steps, width)
            rewards = disc.reward_batch(block)
            assert rewards.shape == (episodes, steps)
            assert rewards.tobytes() == np.stack([
                _oracles.disc_rewards(disc, e) for e in block]).tobytes()


@pytest.mark.parametrize("episodes, steps", [(0, 100), (64, 0), (0, 0)])
def test_empty_blocks_score_to_empty_rewards(episodes, steps):
    disc = disc_init(2, 1, Rng(68))
    rewards = disc.reward_batch(np.zeros((episodes, steps, 3)))
    assert rewards.shape == (episodes, steps)


@pytest.mark.parametrize("episodes, steps", [(64, 100), (4, 1000), (64, 1)])
def test_scoring_lanes_hold_at_most_one_stack(episodes, steps):
    # a lane grows to one pass of whole episodes, not to its share of the
    # block; which lane scores which pass is the threads' race
    rng = Rng(69)
    disc = disc_init(2, 1, rng)
    block = _uniform_rows(rng, episodes * steps, 3).reshape(episodes, steps, 3)
    rewards = disc.reward_batch(block)
    for lane in disc._scratch:
        assert lane.shape[1] <= max(discriminator.SCORE_ROWS, steps)
    with _helper_held():
        one_lane = disc.reward_batch(block)
    assert rewards.tobytes() == one_lane.tobytes()


def test_returned_arrays_do_not_alias_the_scratch():
    rng = Rng(61)
    disc = disc_init(4, 2, rng)
    x = _uniform_rows(rng, 50, 6)
    rewards = _episode_rewards(disc, x)
    block = x.reshape(5, 10, 6)
    block_rewards = disc.reward_batch(block)
    loss, grad = lsgan_grad(disc, x, _uniform_rows(rng, 40, 6))
    returned = (rewards, block_rewards, grad)
    kept = [a.copy() for a in returned]
    for rows in (10, 500):  # smaller views, then grown lanes
        y = _uniform_rows(rng, rows, 6)
        with _helper_held():  # lane 0
            _episode_rewards(disc, y)
        disc.reward_batch(y[None].repeat(3, 0), _after_helper)  # lane 1
        assert lsgan_grad(disc, y, _uniform_rows(rng, rows, 6))[0] != loss
        for fresh, copy in zip(returned, kept):
            assert fresh.tobytes() == copy.tobytes()
            for lane in disc._scratch:
                assert lane.shape[1] >= rows
                assert not np.shares_memory(fresh, lane)
    assert type(loss) is float


def test_helper_keeps_no_discriminator_alive():
    rng = Rng(64)
    disc = disc_init(2, 1, rng)
    x = _uniform_rows(rng, 40, 3)
    lsgan_grad(disc, x, x)
    disc.reward_batch(x.reshape(4, 10, 3))
    ref = weakref.ref(disc)
    del disc
    gc.collect()
    assert ref() is None


def test_helper_error_reaches_the_caller_and_the_next_call_is_exact(monkeypatch):
    rng = Rng(65)
    disc = disc_init(2, 1, rng)
    xe, xs = _uniform_rows(rng, 30, 3), _uniform_rows(rng, 20, 3)
    with pytest.raises(ValueError, match="width 3"):
        lsgan_grad(disc, xe, _uniform_rows(rng, 20, 4))  # fails in either lane
    # a failing expert half still waits for the sampled half in lane 1
    helper_started, helper_done = threading.Event(), []

    def slow_helper(disc, x, target, lane):
        if lane == 1:
            helper_started.set()
            time.sleep(0.05)
            helper_done.append(lane)
        else:  # fail only once the helper is busy
            helper_started.wait(timeout=10)
        return backprop_half(disc, x, target, lane)

    backprop_half = discriminator._backprop_half
    monkeypatch.setattr(discriminator, "_backprop_half", slow_helper)
    with pytest.raises(ValueError, match="width 3"):
        lsgan_grad(disc, _uniform_rows(rng, 30, 4), xs)
    assert helper_done == [1]
    monkeypatch.undo()
    loss, grad = lsgan_grad(disc, xe, xs)
    ref_loss, ref_grad = _oracles.lsgan_grad(disc, xe, xs)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()


@pytest.mark.parametrize("meanwhile_waits, trains", [
    pytest.param(False, False, id="caller-scores"),
    pytest.param(True, False, id="helper-scores"),
    pytest.param(False, True, id="train-caller-scores"),
    pytest.param(True, True, id="train-helper-scores"),
])
def test_scores_read_the_parameters_of_entry_while_meanwhile_sets_new_ones(
        meanwhile_waits, trains):
    rng = Rng(71)
    disc = disc_init(2, 1, rng)
    block = _uniform_rows(rng, 64 * 100, 3).reshape(64, 100, 3)
    before = disc.reward_batch(block)
    expert, sampled = _uniform_rows(rng, 300, 3), block.reshape(-1, 3)
    if trains:  # disc_train binds each Adam step's vector, not via set_params
        twin = disc_init(2, 1, Rng(71))
        disc_train(twin, AdamState.zeros(twin.n_params), expert, sampled,
                   iters=4, batch_size=100, rng=Rng(75), lr=0.01)
        new = twin.get_params()
    else:
        new = disc_init(2, 1, Rng(72)).get_params()

    def set_new_params():
        if trains:
            disc_train(disc, AdamState.zeros(disc.n_params), expert, sampled,
                       iters=4, batch_size=100, rng=Rng(75), lr=0.01)
        else:
            disc.set_params(new)
        if meanwhile_waits:  # every pass then starts on the helper after it
            _after_helper()

    rewards = disc.reward_batch(block, set_new_params)
    assert rewards.tobytes() == before.tobytes()
    assert disc.get_params().tobytes() == new.tobytes()
    assert disc.reward_batch(block).tobytes() != before.tobytes()


def test_parameters_are_one_read_only_vector_that_set_params_copies():
    disc = disc_init(2, 1, Rng(76))
    flat = disc.get_params()
    views = (disc.w1, disc.b1, disc.w2, disc.b2, disc.w3, disc.b3)
    assert [a.shape for a in views] == [(100, 3), (100,), (100, 100), (100,),
                                        (1, 100), ()]
    assert np.concatenate([a.ravel() for a in views]).tobytes() == flat.tobytes()
    for view in views:
        assert not view.flags.writeable
        assert np.shares_memory(view, disc._vector)
    got = disc.get_params()
    got[0] = 7.0  # a copy: writing it leaves the discriminator alone
    assert disc.w1[0, 0] == flat[0]
    disc.set_params(got)
    got[0] = 8.0  # set_params copied its input
    assert disc.w1[0, 0] == 7.0
    assert not np.shares_memory(disc.w1, views[0])  # rebound, not written
    assert views[0][0, 0] == flat[0]
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        with pytest.raises(AttributeError):
            setattr(disc, name, views[0])


@pytest.mark.parametrize("rows", [100, 1000])
def test_lsgan_grad_with_the_helper_busy_runs_both_halves_on_the_caller(rows):
    rng = Rng(73)
    disc = disc_init(4, 2, rng)
    xe, xs = _uniform_rows(rng, rows, 6), _uniform_rows(rng, rows, 6)
    loss, grad = lsgan_grad(disc, xe, xs)
    with _helper_held() as blocker:
        held_loss, held_grad = lsgan_grad(disc, xe, xs)
        assert not blocker.done()  # returned without waiting for the helper
    assert np.float64(held_loss).tobytes() == np.float64(loss).tobytes()
    assert held_grad.tobytes() == grad.tobytes()


def test_meanwhile_error_reaches_the_caller_once_the_helper_is_done(monkeypatch):
    rng = Rng(74)
    disc = disc_init(2, 1, rng)
    # 8 episodes of 100 steps: two passes, of 5 and 3 episodes
    block = _uniform_rows(rng, 8 * 100, 3).reshape(8, 100, 3)
    helper_started, helper_done = threading.Event(), []

    def slow_score(self, params, pairs, out, lane):
        if lane == 1:
            helper_started.set()
            time.sleep(0.05)
            helper_done.append(len(out))
        return score(self, params, pairs, out, lane)

    def failing_meanwhile():
        helper_started.wait(timeout=10)  # fail only once the helper is busy
        raise RuntimeError("meanwhile failed")

    score = MlpDiscriminator._score
    monkeypatch.setattr(MlpDiscriminator, "_score", slow_score)
    with pytest.raises(RuntimeError, match="meanwhile failed"):
        disc.reward_batch(block, failing_meanwhile)
    assert helper_done == [5, 3]  # the caller claimed no pass
    monkeypatch.undo()
    expect = np.stack([_oracles.disc_rewards(disc, e) for e in block]).tobytes()
    assert disc.reward_batch(block).tobytes() == expect
    assert disc.reward_batch(block, lambda: None).tobytes() == expect


def test_forked_child_starts_its_own_helper():
    rng = Rng(67)
    disc = disc_init(2, 1, rng)
    xe, xs = _uniform_rows(rng, 30, 3), _uniform_rows(rng, 20, 3)
    block = xs.reshape(4, 5, 3)
    rewards = disc.reward_batch(block)  # helper started
    loss, grad = lsgan_grad(disc, xe, xs)

    def child():  # a failed assertion exits 1
        assert disc.reward_batch(block).tobytes() == rewards.tobytes()
        child_loss, child_grad = lsgan_grad(disc, xe, xs)
        assert child_loss == loss and child_grad.tobytes() == grad.tobytes()
        helpers = [t for t in threading.enumerate()
                   if t.name.startswith("ailsrs-disc")]
        assert len(helpers) == 1, helpers

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(30)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("the forked child still waits on its helper after 30 s")
    assert proc.exitcode == 0


def test_importing_ailsrs_starts_no_thread_and_loads_no_executor():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ailsrs.__file__)))
    probe = ("import sys, threading, ailsrs; "
             "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=60, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["1", "False"]


def test_set_params_rejects_a_vector_of_the_wrong_length():
    disc = disc_init(2, 1, Rng(66))
    flat = disc.get_params()
    for bad in (flat[:-1], np.append(flat, 0.0)):
        with pytest.raises(ValueError, match=f"{disc.n_params} parameters.*{len(bad)}"):
            disc.set_params(bad)
    assert disc.get_params().tobytes() == flat.tobytes()


def test_params_round_trip_with_scratch_in_place():
    rng = Rng(62)
    disc = disc_init(2, 1, rng)
    x = _uniform_rows(rng, 30, 3)
    r_before = _episode_rewards(disc, x)  # allocates the scratch lanes
    flat = disc.get_params()
    other = disc_init(2, 1, Rng(63))
    disc.set_params(other.get_params())
    assert _episode_rewards(disc, x).tobytes() == _episode_rewards(other, x).tobytes()
    disc.set_params(flat)
    assert disc.get_params().tobytes() == flat.tobytes()
    assert _episode_rewards(disc, x).tobytes() == r_before.tobytes()
