"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them live).

The full-scale physics benchmarks behind the original numbers are out of
scope by design; these criteria verify the method end to end on the
built-in desk-scale tasks, against exact oracles wherever one exists.
"""
import dataclasses
import json
import math
import sys
import time

import numpy as np
import pytest

import _acceptance_report
import _oracles
from _oracles import ScalarRng

import ailsrs
from ailsrs.ars import ars_update
from ailsrs.cli import main as cli_main
from ailsrs.discriminator import disc_init, lsgan_grad
from ailsrs.envs import env_names
from ailsrs.numerics import Rng
from ailsrs.policy import ObservationNormalizer, bc_closed_form
from ailsrs.trainer import return_target

HIDDEN = 100


def _report(name: str, ok: bool, note: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if note:
        line += f"  [{note}]"
    print(line)
    # also surfaces in the terminal summary of captured runs
    _acceptance_report.VERDICTS.append(line)
    return ok


# ---------------------------------------------------------------------------
# criterion: full-scale benchmarks are substituted by the desk-scale suite
# ---------------------------------------------------------------------------
def test_desk_scale_substitution():
    ok = env_names() == ["lqr2d", "pendulum", "pointmass2d"]
    ok &= not any(m.startswith(("gym", "mujoco")) for m in sys.modules
                  if not m.startswith("_"))
    assert _report("desk-scale environments substitute the physics benchmarks",
                   ok, "lqr2d / pointmass2d / pendulum built in; no gym/mujoco")


# ---------------------------------------------------------------------------
# criterion: discriminator gradient vs central finite differences
# ---------------------------------------------------------------------------
def _fd_gradient(disc, xe, xs, eps):
    """Central-difference gradient of the LSGAN loss, coordinate by coordinate.

    Exploits that a single-coordinate perturbation touches one pre-activation
    column, so each difference needs only the local recompute; the numbers
    are identical to the naive two-sided sweep (cross-checked below).
    """
    x = np.vstack([xe, xs])
    wgt = np.concatenate([np.full(len(xe), 0.5 / len(xe)),
                          np.full(len(xs), 0.5 / len(xs))])
    tgt = np.concatenate([np.ones(len(xe)), np.zeros(len(xs))])
    z1 = x @ disc.w1.T + disc.b1
    h1 = np.tanh(z1)
    z2 = h1 @ disc.w2.T + disc.b2
    h2 = np.tanh(z2)
    z3 = h2 @ disc.w3.T[:, 0] + disc.b3

    def loss_of(z):
        d = 1.0 / (1.0 + np.exp(-z))
        return ((d - tgt) ** 2 * wgt).sum(axis=-1)

    # layer 1: perturbing w1[j, k] (or b1[j]) shifts z1[:, j] by eps * v
    # with v = x[:, k] (or ones); everything downstream of h1[:, j] moves
    probes1 = np.vstack([x.T, np.ones((1, len(x)))])        # (d+1, B)
    g1 = np.empty((HIDDEN, probes1.shape[0]))
    for j in range(HIDDEN):
        lo_hi = []
        for sign in (+1.0, -1.0):
            h1j = np.tanh(z1[:, j] + sign * eps * probes1)   # (d+1, B)
            dz2 = (h1j - h1[:, j])[:, :, None] * disc.w2[:, j]  # (d+1, B, H)
            h2p = np.tanh(z2 + dz2)
            lo_hi.append(loss_of(h2p @ disc.w3[0] + disc.b3))
        g1[j] = (lo_hi[0] - lo_hi[1]) / (2.0 * eps)

    # layer 2: perturbing w2[j, k] (or b2[j]) only moves h2[:, j]
    probes2 = np.vstack([h1.T, np.ones((1, len(x)))])       # (H+1, B)
    g2 = np.empty((HIDDEN, probes2.shape[0]))
    for j in range(HIDDEN):
        lo_hi = []
        for sign in (+1.0, -1.0):
            h2j = np.tanh(z2[:, j] + sign * eps * probes2)   # (H+1, B)
            lo_hi.append(loss_of(z3 + disc.w3[0, j] * (h2j - h2[:, j])))
        g2[j] = (lo_hi[0] - lo_hi[1]) / (2.0 * eps)

    # layer 3: z3 moves by eps * h2[:, j] (w3) or eps (b3)
    probes3 = np.vstack([h2.T, np.ones((1, len(x)))])       # (H+1, B)
    g3 = (loss_of(z3 + eps * probes3) - loss_of(z3 - eps * probes3)) / (2.0 * eps)

    return np.concatenate([g1[:, :-1].ravel(), g1[:, -1], g2[:, :-1].ravel(),
                           g2[:, -1], g3[:-1], [g3[-1]]])


def test_discriminator_gradient_oracle():
    rng = ScalarRng(2026)
    started = time.perf_counter()
    worst = 0.0
    for instance in range(20):
        disc = disc_init(2, 1, rng.derive(instance))
        xe = rng.gaussian_matrix(4, 3)
        xs = rng.gaussian_matrix(4, 3)
        g_bp = lsgan_grad(disc, xe, xs)[1]
        g_fd = _fd_gradient(disc, xe, xs, eps=1e-5)
        if instance == 0:
            # cross-check the vectorized sweep against the generic oracle
            # on a sample of coordinates
            probe = disc_init(2, 1, Rng(0))

            def loss_at(flat):
                probe.set_params(flat)
                return _oracles.lsgan_loss(probe, xe, xs)

            flat = disc.get_params()
            idx = Rng(1).integers(len(flat), 60)
            for c in np.unique(idx):
                step = np.zeros(len(flat))
                step[c] = 1e-5
                naive = (loss_at(flat + step) - loss_at(flat - step)) / 2e-5
                # the two sweeps differ only by fp noise of the difference
                # quotient itself (~ machine eps * loss / eps ~ 3e-12)
                assert abs(naive - g_fd[c]) <= 5e-11 + 1e-9 * abs(naive)
        scale = max(np.max(np.abs(g_bp)), np.max(np.abs(g_fd)))
        worst = max(worst, float(np.max(np.abs(g_bp - g_fd)) / scale))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 5.0
    assert _report("discriminator gradient matches finite differences",
                   ok, f"20 instances, max rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion: squared-error loss anchors
# ---------------------------------------------------------------------------
def test_lsgan_loss_anchors():
    half = ailsrs.MlpDiscriminator(np.zeros((HIDDEN, 3)), np.zeros(HIDDEN),
                                   np.zeros((HIDDEN, HIDDEN)), np.zeros(HIDDEN),
                                   np.zeros((1, HIDDEN)), 0.0)
    x = np.zeros((5, 3))
    exact_quarter = lsgan_grad(half, x, x)[0] == 0.25

    sep = ailsrs.MlpDiscriminator(np.full((HIDDEN, 3), 5.0), np.zeros(HIDDEN),
                                  5.0 * np.eye(HIDDEN), np.zeros(HIDDEN),
                                  np.full((1, HIDDEN), 0.5), 0.0)
    perfect = lsgan_grad(sep, np.ones((4, 3)), -np.ones((4, 3)))[0]
    ok = exact_quarter and perfect <= 1e-12
    assert _report("squared-error loss anchors", ok,
                   f"D=0.5 loss exactly 0.25; separated loss {perfect:.1e}")


# ---------------------------------------------------------------------------
# criterion: reward signal anchors
# ---------------------------------------------------------------------------
def test_reward_anchors():
    half = ailsrs.MlpDiscriminator(np.zeros((HIDDEN, 3)), np.zeros(HIDDEN),
                                   np.zeros((HIDDEN, HIDDEN)), np.zeros(HIDDEN),
                                   np.zeros((1, HIDDEN)), 0.0)
    at_half = half.reward_batch(np.zeros((1, 1, 3)))[0, 0]
    ceiling = half.get_params()
    ceiling[-1] = 60.0  # b3: saturates the score to 1.0, clamp takes over
    half.set_params(ceiling)
    at_ceiling = half.reward_batch(np.zeros((1, 1, 3)))[0, 0]
    ok = abs(at_half - math.log(2.0)) <= 1e-12
    ok &= abs(at_ceiling - (-math.log(1e-6))) <= 1e-9
    assert _report("reward anchors", ok,
                   f"-log(1-0.5)={at_half:.12f}; ceiling {at_ceiling:.6f}")


# ---------------------------------------------------------------------------
# criterion: search-update invariances
# ---------------------------------------------------------------------------
def test_ars_invariances():
    rng = ScalarRng(99)
    theta = rng.gaussian_matrix(1, 2)
    deltas, returns = [], []
    for _ in range(8):
        deltas.append(rng.gaussian_matrix(1, 2))
        returns.append([rng.gaussian(), rng.gaussian()])
    deltas, returns = np.array(deltas), np.array(returns)
    base = ars_update(theta, deltas, returns, 0.02)
    ok = True
    for c in (0.1, 10.0, 1000.0):
        rel = np.max(np.abs(ars_update(theta, deltas, c * returns, 0.02) - base)) \
            / max(np.max(np.abs(base)), 1e-300)
        ok &= rel <= 1e-12
    inc = base - theta
    inc_swapped = ars_update(theta, deltas, returns[:, ::-1], 0.02) - theta
    ok &= np.max(np.abs(inc + inc_swapped)) <= 1e-12 * max(np.max(np.abs(inc)), 1e-300)
    delta = np.array([[1.0, -0.5]])
    up = ars_update(np.zeros((1, 2)), delta[None], np.array([[2.0, 1.0]]), 0.02)
    down = ars_update(np.zeros((1, 2)), delta[None], np.array([[1.0, 2.0]]), 0.02)
    ok &= (up @ delta.T).item() > 0 > (down @ delta.T).item()
    assert _report("search-update invariances", ok,
                   "reward-scale exact to 1e-12; antisymmetric; sign test")


# ---------------------------------------------------------------------------
# criterion: streaming statistics match two-pass batch statistics
# ---------------------------------------------------------------------------
def test_welford_matches_batch_statistics():
    rng = ScalarRng(314)
    xs = rng.gaussian_matrix(1000, 3)
    stats = ObservationNormalizer.for_dim(3)
    for row in xs:
        stats.add_states(row[None])
    bm = xs.mean(axis=0)
    bv = ((xs - bm) ** 2).mean(axis=0)
    rel_mean = np.max(np.abs(stats.mean - bm) / (1.0 + np.abs(bm)))
    rel_var = np.max(np.abs(stats.variance() - bv) / (1.0 + np.abs(bv)))
    ok = rel_mean <= 1e-10 and rel_var <= 1e-10
    assert _report("streaming statistics equal two-pass statistics", ok,
                   f"rel err mean {rel_mean:.1e}, var {rel_var:.1e}")


# ---------------------------------------------------------------------------
# criterion: plain random search reaches the optimal-control oracle
# ---------------------------------------------------------------------------
def test_lqr_expert_reaches_riccati(lqr_expert_run, riccati_expert):
    _, _, optimal = riccati_expert
    target = return_target(optimal, 0.95)
    best_iter, best = max(lqr_expert_run["evals"], key=lambda e: e[1])
    seconds = lqr_expert_run["train_seconds"]
    ok = best >= target and seconds < 60.0
    # RMS whitening without centring keeps the bias-free Riccati controller
    # a = -K s representable (a centring mean adds a constant action bias).
    # The pinned seed reaches ~1.042; seeds 2-4 stay above 1.0526 within
    # 500 iterations (per-seed ratios in CHANGES.md's entry "Whitening by
    # RMS, not by mean"). Asserted as stated.
    assert _report(
        "plain search reaches 95% of the optimal-control oracle", ok,
        f"best eval {best:.4f} (iter {best_iter}) vs target {target:.4f}; "
        f"cost ratio {best / optimal:.4f} vs 1.0526 allowed; {seconds:.0f}s")


# ---------------------------------------------------------------------------
# criterion: cloning oracle
# ---------------------------------------------------------------------------
def test_bc_oracle(riccati_demos_50, riccati_expert):
    expert, _, expert_mean = riccati_expert  # identity normalizer
    closed, norm = bc_closed_form(*riccati_demos_50.rows(), ridge=1e-8)
    mean, _ = ailsrs.evaluate_policy(closed, norm, "lqr2d", 100, 0)
    # noise-free demonstrations: un-whitened, the clone is the Riccati gain
    gap = float(np.max(np.abs(closed.theta * norm.snapshot() - expert.theta)))
    ok = mean >= return_target(expert_mean, 0.95) and gap <= 1e-6
    assert _report("behavior cloning recovers the demonstrator", ok,
                   f"closed-form eval {mean:.4f} vs expert {expert_mean:.4f}; "
                   f"un-whitened clone vs Riccati gain max gap {gap:.1e}")


# ---------------------------------------------------------------------------
# criterion: end-to-end imitation on discriminator reward only
# ---------------------------------------------------------------------------
def test_end_to_end_imitation(e2e_runs, riccati_demos_50):
    runs = e2e_runs["runs"]
    hits = [r for r in runs if r["hit_iteration"] is not None]
    seconds = e2e_runs["total_seconds"]
    # report-only baselines on the expert's 100 seed-0 episodes: the zero
    # policy, each final imitator as a normalized score (0 for the zero
    # policy, 1 for the expert) and the closed-form clone of the same demos
    expert_mean = e2e_runs["expert_mean"]
    zero, _ = ailsrs.evaluate_policy(ailsrs.LinearPolicy.zeros(1, 2),
                                     ObservationNormalizer.for_dim(2), "lqr2d", 100, 0)
    bc, _ = ailsrs.evaluate_policy(
        *bc_closed_form(*riccati_demos_50.rows(), ridge=1e-8), "lqr2d", 100, 0)
    scores = [(ailsrs.evaluate_policy(r["policy"], r["normalizer"], "lqr2d",
                                      100, 0)[0] - zero) / (expert_mean - zero)
              for r in runs]
    detail = ", ".join(
        f"seed {r['seed']}: "
        + (f"hit at iter {r['hit_iteration']}" if r["hit_iteration"] is not None
           else f"no hit (final {r['final_eval']:.2f})")
        + f", score {score:.4f}"
        for r, score in zip(runs, scores))
    ok = len(hits) >= 2 and seconds < 900.0
    assert _report("imitator reaches 90% of expert on discriminator reward only",
                   ok, f"{detail}; target {e2e_runs['target']:.4f}; "
                       f"zero policy {zero:.2f}, BC clone {bc:.4f}, expert "
                       f"{expert_mean:.4f}; {seconds:.0f}s total")


# ---------------------------------------------------------------------------
# criterion: no environment-reward leakage into training
# ---------------------------------------------------------------------------
def _strip_wall_ms(csv_text: str) -> str:
    lines = csv_text.splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


FAST_TRAIN_FLAGS = ["--n-dirs", "4", "--iters", "12", "--eval-every", "5",
                    "--eval-episodes", "3"]


def _expert_demos_file(tmp_path, riccati_expert):
    pol, norm, _ = riccati_expert
    path = tmp_path / "expert.demos"
    ailsrs.save_trajectories(ailsrs.record(pol, norm, "lqr2d", 10, 0), str(path))
    return path


def _train_artifacts(tmp_path, demos, seed, tag):
    """The policy bytes and the metrics (without wall_ms) of one `train`."""
    out, metrics = tmp_path / f"{tag}.policy", tmp_path / f"{tag}.csv"
    assert cli_main(["train", "--demos", str(demos), *FAST_TRAIN_FLAGS,
                     "--seed", str(seed), "--out", str(out),
                     "--metrics", str(metrics)]) == 0
    return out.read_bytes(), _strip_wall_ms(metrics.read_text())


def test_no_reward_leakage(tmp_path, riccati_expert):
    demos_path = _expert_demos_file(tmp_path, riccati_expert)
    corrupted_path = tmp_path / "corrupted.demos"
    with open(demos_path) as src, open(corrupted_path, "w") as dst:
        dst.write(src.readline())
        for line in src:
            obj = json.loads(line)
            obj["env_rewards"] = [r + 1000.0 for r in obj["env_rewards"]]
            dst.write(json.dumps(obj) + "\n")
    ok = (_train_artifacts(tmp_path, demos_path, 1, "clean")
          == _train_artifacts(tmp_path, corrupted_path, 1, "corrupted"))
    assert _report("stored env rewards cannot influence training", ok,
                   "policy bytes and metrics identical after corrupting "
                   "every stored reward (wall_ms column excluded: measured time)")


# ---------------------------------------------------------------------------
# criterion: bitwise determinism of the training command
# ---------------------------------------------------------------------------
def test_cmd_train_determinism(tmp_path, riccati_expert):
    demos_path = _expert_demos_file(tmp_path, riccati_expert)
    ok = (_train_artifacts(tmp_path, demos_path, 7, "a")
          == _train_artifacts(tmp_path, demos_path, 7, "b"))
    assert _report("identical flags give identical artifacts", ok,
                   "policy files byte-identical; metrics identical up to "
                   "the measured wall_ms column")


# supplementary: warm-starting from the cloned policy cuts iterations to
# the 90% target (paired against the zero-init seed-1 run above)
# ---------------------------------------------------------------------------
def test_bc_init_accelerates_imitation(e2e_runs, riccati_demos_50):
    zero_init_hit = e2e_runs["runs"][0]["hit_iteration"]
    assert zero_init_hit is not None
    _, _, rows = ailsrs.train_ailsrs(
        "lqr2d", riccati_demos_50, e2e_runs["runs"][0]["cfg"],
        init=bc_closed_form(*riccati_demos_50.rows(), ridge=1e-8))
    evals = [(r.iteration, r.eval_env_return_mean) for r in rows
             if r.eval_env_return_mean is not None]
    hits = [it for it, m in evals if m >= e2e_runs["target"]]
    ok = bool(hits) and hits[0] < zero_init_hit
    assert _report("cloned warm start reaches the target sooner", ok,
                   f"bc init hits at iter {hits[0] if hits else '-'} vs "
                   f"{zero_init_hit} from zeros")


# ---------------------------------------------------------------------------
# standing negative control: the same run with a frozen discriminator does
# not reach the target by the iteration where the trained one did
# ---------------------------------------------------------------------------
def test_frozen_discriminator_does_not_imitate(e2e_runs, riccati_demos_50):
    trained_hit = e2e_runs["runs"][0]["hit_iteration"]
    assert trained_hit is not None
    target = e2e_runs["target"]
    cfg = dataclasses.replace(e2e_runs["runs"][0]["cfg"],
                              max_iterations=trained_hit + 1, disc_iters=0)
    started = time.perf_counter()
    _, _, rows = ailsrs.train_ailsrs("lqr2d", riccati_demos_50, cfg)
    seconds = time.perf_counter() - started
    best = max(r.eval_env_return_mean for r in rows
               if r.eval_env_return_mean is not None)
    ok = best < target
    assert _report("a frozen discriminator does not reach the target", ok,
                   f"seed 1, disc_iters=0: best eval {best:.2f} in {len(rows)} "
                   f"iterations vs target {target:.4f}, which the trained "
                   f"discriminator reached at iter {trained_hit}; {seconds:.1f}s")


# ---------------------------------------------------------------------------
# criterion (report-only): sample-efficiency trend across demo-set sizes
# ---------------------------------------------------------------------------
def test_sample_efficiency_trend(e2e_runs, riccati_expert):
    pol, norm, expert_mean = riccati_expert
    demos_10 = ailsrs.record(pol, norm, "lqr2d", episodes=10, seed=0)
    # seed 1 of the 50-demo runs, on 10 demos
    _, _, rows = ailsrs.train_ailsrs("lqr2d", demos_10, e2e_runs["runs"][0]["cfg"])
    finals = [r.eval_env_return_mean for r in rows
              if r.eval_env_return_mean is not None]

    def frac(achieved):
        # fraction of expert performance for cost returns: 1.0 means equal
        return expert_mean / achieved

    f10 = frac(finals[-1])
    f50 = frac(e2e_runs["runs"][0]["final_eval"])  # seed 1 of the 50-demo runs
    gap_pp = abs(f10 - f50) * 100.0
    within = gap_pp <= 5.0
    # informative, not gating: the numbers are reported either way
    _report("sample-efficiency trend (report only)", within,
            f"fraction of expert: {f10:.3f} with 10 demos vs {f50:.3f} with "
            f"50 demos; gap {gap_pp:.1f}pp vs 5pp guide")
    assert len(finals) > 0
