import dataclasses
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import _oracles

import ailsrs
from ailsrs.ars import ArsConfig, evaluate_directions, sample_directions
from ailsrs.demo_io import TrajectorySet, record
from ailsrs.discriminator import disc_train
from ailsrs.envs import evaluate_policy, make_env, riccati_optimal, rollout
from ailsrs.numerics import AdamState, Rng
from ailsrs.policy import LinearPolicy, ObservationNormalizer
from ailsrs.trainer import (DIRECTIONS_STREAM, ROLLOUT_STREAM, TrainerConfig,
                            return_target, search, train_ailsrs, train_expert,
                            write_metrics)


def _row_key(row):
    # wall_ms is measured time and varies between runs; everything else
    # must reproduce exactly
    return (row.iteration, row.mean_disc_return, row.sigma_r, row.disc_loss,
            row.eval_env_return_mean, row.eval_env_return_std)


@pytest.fixture(scope="module")
def riccati_demos():
    pol, norm, mean = riccati_optimal(seed=0, episodes=100)
    return record(pol, norm, "lqr2d", episodes=10, seed=0), mean


def _small_cfg(**overrides):
    base = dict(ars=ArsConfig(alpha=0.02, nu=0.03, n_directions=4),
                max_iterations=5, eval_every=5, eval_episodes=3, seed=1)
    base.update(overrides)
    return TrainerConfig(**base)


def test_trainer_config_defaults_match_documented_values():
    cfg = TrainerConfig()
    assert (cfg.ars.alpha, cfg.ars.nu, cfg.ars.n_directions) == (0.02, 0.03, 320)
    assert cfg.max_iterations == 100_000
    assert cfg.disc_lr == 0.00025
    assert cfg.disc_iters == 3
    assert cfg.disc_batch is None  # resolved to the episode length


COUNT_FIELDS = ("n_directions", "max_iterations", "disc_iters", "disc_batch",
                "eval_every", "eval_episodes")


def _config_with(field, value):
    if field == "n_directions":
        return ArsConfig(n_directions=value)
    return TrainerConfig(**{field: value})


@pytest.mark.parametrize("field", COUNT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 2.0, np.float64(3.0), True, np.True_],
                         ids=["2.5", "2.0", "float64", "True", "np.True_"])
def test_config_counts_reject_non_integers(field, value):
    # eval_every=2.5 used to evaluate at iterations 4 and 9, and
    # n_directions=True used to search along one direction
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= "):
        _config_with(field, value)


@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_config_counts_accept_numpy_integers(field):
    cfg = _config_with(field, np.int64(2))
    assert getattr(cfg, field) == 2


def test_return_target_sign_aware():
    assert return_target(100.0, 0.9) == pytest.approx(90.0)
    # pure-cost returns: within 10% means at most 1/0.9 of the cost
    assert return_target(-10.0, 0.9) == pytest.approx(-10.0 / 0.9)
    assert return_target(-10.0, 5.0) == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        return_target(1.0, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_return_target_rejects_non_finite_inputs(value):
    # a nan fraction used to give a nan target and an infinite one -0.0
    with pytest.raises(ValueError, match="^fraction must be positive and finite"):
        return_target(-10.0, value)
    with pytest.raises(ValueError, match="^reference_return must be finite"):
        return_target(value, 0.9)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_config_rejects_a_non_finite_early_stop_target(value):
    # a nan target used to be accepted and never stop training
    with pytest.raises(ValueError, match="^early_stop_target must be finite"):
        TrainerConfig(early_stop_target=value)


def test_train_expert_rejects_zero_iterations():
    with pytest.raises(ValueError):
        train_expert("lqr2d", ArsConfig(n_directions=2), 0, seed=1)


def test_train_expert_improves_on_pointmass():
    zero_mean, _ = evaluate_policy(LinearPolicy.zeros(2, 4),
                                   ObservationNormalizer.for_dim(4),
                                   "pointmass2d", 100, 0)
    pol, norm = train_expert("pointmass2d", ArsConfig(n_directions=8), 500, seed=1)
    mean, _ = evaluate_policy(pol, norm, "pointmass2d", 100, 0)
    # measured 3.1x cost reduction at this budget; 2.5x guards the claim
    # without flaking on refactors
    assert mean >= return_target(zero_mean, 2.5)


def test_train_ailsrs_deterministic(riccati_demos):
    demos, _ = riccati_demos
    cfg = _small_cfg()
    rows = []
    for _ in range(2):
        _, _, run_rows = train_ailsrs("lqr2d", demos, cfg)
        rows.append(run_rows)
    assert [_row_key(r) for r in rows[0]] == [_row_key(r) for r in rows[1]]


def _search_bytes(demos, seed):
    return [(theta.tobytes(), norm.mean.tobytes(), norm.m2.tobytes(), _row_key(row))
            for theta, norm, row in search("lqr2d", _small_cfg(seed=seed), demos)]


def test_searches_on_two_threads_match_their_runs_alone(riccati_demos):
    # both callers' discriminators share the one helper thread
    demos, _ = riccati_demos
    alone = {seed: _search_bytes(demos, seed) for seed in (1, 2)}
    together = {}

    def run(seed):
        together[seed] = _search_bytes(demos, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert together == alone


@pytest.mark.parametrize("imitate", [False, True],
                         ids=["env-reward", "disc-reward"])
@pytest.mark.parametrize("weight, where", [
    (np.nan, "iteration 0: non-finite value in the returns of direction 0"),
    # infinite weights saturate the action clip, so the returns stay finite
    (np.inf, "iteration 0: non-finite value in the updated weights"),
])
def test_search_stops_on_nonfinite_values(riccati_demos, imitate, weight, where):
    demos, _ = riccati_demos
    init = (LinearPolicy(np.array([[weight, 0.0]])),
            ObservationNormalizer.for_dim(2))
    run = search("lqr2d", _small_cfg(), demos if imitate else None, init)
    with pytest.raises(FloatingPointError, match=where):
        next(run)


def test_search_stops_on_nonfinite_discriminator(riccati_demos, monkeypatch):
    def poisoned_train(disc, *args, **kwargs):
        loss = disc_train(disc, *args, **kwargs)
        poisoned = disc.get_params()
        poisoned[disc.w1.size + disc.b1.size + 3 * disc.w2.shape[1] + 7] = np.nan
        disc.set_params(poisoned)  # w2[3, 7]
        return loss

    monkeypatch.setattr(ailsrs.trainer, "disc_train", poisoned_train)
    demos, _ = riccati_demos
    run = search("lqr2d", _small_cfg(), demos)
    with pytest.raises(FloatingPointError, match="iteration 0: non-finite "
                       "value in the discriminator parameters"):
        next(run)


def test_search_trains_on_a_view_of_the_block_it_scores(riccati_demos,
                                                       monkeypatch):
    # one [state, action] block per imitation iteration: disc_train reads
    # the rows that reward_batch scores, not a second concatenation
    seen = {}
    reward_batch = ailsrs.MlpDiscriminator.reward_batch

    def scoring(self, *args, **kwargs):
        seen["scored"] = args[0]
        return reward_batch(self, *args, **kwargs)

    def training(disc, adam, expert_pairs, sampled_pairs, *args, **kwargs):
        seen["trained"] = sampled_pairs
        return disc_train(disc, adam, expert_pairs, sampled_pairs, *args, **kwargs)

    monkeypatch.setattr(ailsrs.MlpDiscriminator, "reward_batch", scoring)
    monkeypatch.setattr(ailsrs.trainer, "disc_train", training)
    demos, _ = riccati_demos
    next(search("lqr2d", _small_cfg(), demos))
    scored, trained = seen["scored"], seen["trained"]
    assert scored.shape == (8, 100, 3) and trained.shape == (800, 3)
    assert np.shares_memory(trained, scored)
    assert trained.tobytes() == scored.tobytes()


@pytest.mark.parametrize("imports, preset, warns", [
    pytest.param("import numpy, ailsrs", False, True, id="numpy-first"),
    pytest.param("import ailsrs, numpy", False, False, id="ailsrs-first"),
    pytest.param("import numpy, ailsrs", True, False, id="numpy-first-pinned"),
])
def test_import_warns_when_the_blas_pin_comes_too_late(imports, preset, warns):
    # OpenBLAS reads its thread count when numpy loads, so the package's pin
    # works only if it is imported first or the variables already read 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(ailsrs.__file__)))
    pins = ailsrs._PINS
    env = {k: v for k, v in os.environ.items() if k not in pins}
    env.update(PYTHONPATH=src, **(dict.fromkeys(pins, "1") if preset else {}))
    out = subprocess.run([sys.executable, "-c", imports], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert ("RuntimeWarning" in out.stderr
            and "import ailsrs first" in out.stderr) == warns, out.stderr


# What scripts/artifact_digest.py prints, with the numpy and BLAS it was
# recorded under: the bits follow numpy's SIMD exp, tanh and log and the
# OpenBLAS kernels, so another version may print another digest. Only a
# change meant to alter artifacts changes this constant.
ARTIFACT_DIGEST = "5be3804fbf115662cad8ba9d938c06b587e04b0c1355f12c1d30b38602358915"
DIGEST_NUMPY = "2.4.6"
DIGEST_BLAS = "scipy-openblas 0.3.31.188.0"


def test_artifact_digest_is_the_recorded_one():
    script = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", "artifact_digest.py")
    digests = {}
    for threads in ("1", "2"):
        # threaded OpenBLAS rounds the discriminator's matmuls differently;
        # the package pins one thread whatever the environment asks for
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, script], env=env,
                             capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr
        digests[threads] = out.stdout.strip()
    # equal under both settings on any numpy and BLAS
    assert digests["1"] == digests["2"], digests
    digest = digests["1"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert digest == ARTIFACT_DIGEST, (
        f"artifact digest {digest} under numpy {np.__version__} "
        f"and {blas['name']} {blas['version']}; recorded {ARTIFACT_DIGEST} "
        f"under numpy {DIGEST_NUMPY} and {DIGEST_BLAS}")


def test_discriminator_loss_decreases_on_first_iteration(riccati_demos):
    demos, _ = riccati_demos
    norm = ObservationNormalizer.for_dim(2)
    root = Rng(1)
    from ailsrs.discriminator import disc_init
    disc = disc_init(2, 1, root.derive(3))
    deltas = sample_directions(root.derive(DIRECTIONS_STREAM, 0), 8, 1, 2)
    _, states, actions = evaluate_directions(np.zeros((1, 2)), deltas, 0.03, "lqr2d",
                                             norm, root.derive(ROLLOUT_STREAM, 0))
    epool = np.concatenate(demos.rows(), axis=1)
    spool = np.concatenate([states, actions], axis=2).reshape(-1, 3)
    before = _oracles.lsgan_loss(disc, epool, spool)
    adam = AdamState.zeros(disc.n_params)
    disc_train(disc, adam, epool, spool, iters=3, batch_size=100, rng=Rng(7),
               lr=TrainerConfig.disc_lr)
    after = _oracles.lsgan_loss(disc, epool, spool)
    assert after < before


def test_normalizer_count_grows_by_visited_states(riccati_demos):
    demos, _ = riccati_demos
    cfg = _small_cfg(max_iterations=3)
    _, norm, rows = train_ailsrs("lqr2d", demos, cfg)
    # 2N rollouts of full horizon per iteration
    assert norm.count == 3 * 2 * cfg.ars.n_directions * 100


def test_no_environment_reward_leakage(riccati_demos):
    demos, _ = riccati_demos
    corrupted = dataclasses.replace(demos, env_rewards=demos.env_rewards + 1000.0)
    cfg = _small_cfg(max_iterations=4)
    pol_a, _, rows_a = train_ailsrs("lqr2d", demos, cfg)
    pol_b, _, rows_b = train_ailsrs("lqr2d", corrupted, cfg)
    assert pol_a.theta.tobytes() == pol_b.theta.tobytes()
    assert [_row_key(r) for r in rows_a] == [_row_key(r) for r in rows_b]


def test_train_ailsrs_rejects_mismatched_demos(riccati_demos):
    demos, _ = riccati_demos
    with pytest.raises(ValueError, match="lqr2d"):
        train_ailsrs("pendulum", demos, _small_cfg())


def test_train_ailsrs_rejects_empty_expert_set():
    empty = TrajectorySet("lqr2d", np.zeros((0, 100, 2)), np.zeros((0, 100, 1)),
                          np.zeros((0, 100)))
    with pytest.raises(ValueError):
        train_ailsrs("lqr2d", empty, _small_cfg())


def test_metrics_rows_have_increasing_iterations(riccati_demos):
    demos, _ = riccati_demos
    cfg = _small_cfg(max_iterations=6, eval_every=2)
    _, _, rows = train_ailsrs("lqr2d", demos, cfg)
    assert len(rows) <= cfg.max_iterations
    ids = [r.iteration for r in rows]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)
    # eval columns filled exactly on the eval cadence
    for r in rows:
        has_eval = r.eval_env_return_mean is not None
        assert has_eval == ((r.iteration + 1) % 2 == 0 or r.iteration == 5)


def test_evaluate_does_not_mutate_normalizer(riccati_demos):
    demos, _ = riccati_demos
    pol, norm, _ = riccati_optimal(episodes=1)
    norm.add_states(np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.0]]))
    count_before = norm.count
    m1 = evaluate_policy(pol, norm, "lqr2d", 5, 3)
    m2 = evaluate_policy(pol, norm, "lqr2d", 5, 3)
    assert m1 == m2
    assert norm.count == count_before


def test_early_stop_honors_target(riccati_demos):
    demos, mean = riccati_demos
    # a target so loose any policy meets it at the first evaluation
    cfg = _small_cfg(max_iterations=50, eval_every=2,
                     early_stop_target=-1e9)
    _, _, rows = train_ailsrs("lqr2d", demos, cfg)
    assert len(rows) == 2  # stopped at the first eval iteration
    assert rows[-1].eval_env_return_mean is not None


def _window_means(evals, width=50, count=10):
    return [float(np.mean([m for it, m in evals if width * w <= it < width * (w + 1)]))
            for w in range(count)]


def _improves_over_two_windows(windows):
    # random search does not promise that each window beats the one just
    # before (a stretch of wobble can cost a couple of percent), but over
    # 100 iterations the climb outruns the wobble: zero slack
    return all(b > a for a, b in zip(windows, windows[2:]))


def test_expert_search_improves_over_iteration_windows(lqr_expert_run):
    windows = _window_means(lqr_expert_run["evals"])
    assert _improves_over_two_windows(windows), windows
    # the early descent itself is strictly monotone
    assert all(b > a for a, b in zip(windows[:6], windows[1:6])), windows


def test_window_property_rejects_a_search_without_updates():
    # with the update disabled theta stays zero, whose evaluation does not
    # depend on the normalizer, so every eval of such a run is this one
    frozen, _ = evaluate_policy(LinearPolicy.zeros(1, 2),
                                ObservationNormalizer.for_dim(2), "lqr2d", 100, 0)
    evals = [(t, frozen) for t in range(9, 500, 10)]
    assert not _improves_over_two_windows(_window_means(evals))


def test_write_metrics_format(tmp_path, riccati_demos):
    demos, _ = riccati_demos
    cfg = _small_cfg(max_iterations=4, eval_every=2)
    _, _, rows = train_ailsrs("lqr2d", demos, cfg)
    path = tmp_path / "metrics.csv"
    write_metrics(rows, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == ("iteration,mean_disc_return,sigma_r,disc_loss,"
                        "eval_env_return_mean,eval_env_return_std,wall_ms")
    assert len(lines) == 1 + len(rows)
    # non-eval rows leave the eval cells empty
    first = lines[1].split(",")
    assert first[0] == "0" and first[4] == "" and first[5] == ""
    # eval rows round-trip through repr exactly
    second = lines[2].split(",")
    assert float(second[4]) == rows[1].eval_env_return_mean
