import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from _oracles import ScalarRng, welford_update

from ailsrs.demo_io import (FormatError, TrajectorySet, load_policy,
                            load_trajectories, record, save_policy,
                            save_trajectories)
from ailsrs.envs import (env_names, episode_keys, evaluate_policy, make_env,
                         riccati_optimal, rollout)
from ailsrs.policy import LinearPolicy, ObservationNormalizer


@pytest.fixture
def riccati():
    pol, norm, _ = riccati_optimal(episodes=1)
    return pol, norm


def test_record_shapes(riccati):
    pol, norm = riccati
    demos = record(pol, norm, "lqr2d", episodes=10, seed=0)
    assert len(demos) == 10
    assert demos.states.shape == (10, 100, 2) and demos.actions.shape == (10, 100, 1)
    assert demos.env_rewards.shape == (10, 100)


@pytest.mark.parametrize("env_name", env_names())
def test_record_keeps_the_rollout_blocks(tmp_path, env_name):
    spec = make_env(env_name).spec
    pol = LinearPolicy(ScalarRng(3).gaussian_matrix(spec.action_dim, spec.state_dim))
    norm = ObservationNormalizer.for_dim(spec.state_dim)
    demos = record(pol, norm, env_name, 3, 7)
    block = rollout(make_env(env_name), pol.theta, norm, episode_keys(7, 3))[:3]
    for got, want in zip((demos.states, demos.actions, demos.env_rewards), block,
                         strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the learners' rows are views of the blocks, recorded or loaded
    path = str(tmp_path / "demos.jsonl")
    save_trajectories(demos, path)
    for demo_set in (demos, load_trajectories(path)):
        states, actions = demo_set.rows()
        assert np.shares_memory(states, demo_set.states)
        assert np.shares_memory(actions, demo_set.actions)


@pytest.mark.parametrize("episodes", [True, 2.5, np.float64(2.0), 0], ids=repr)
def test_record_episode_count_must_be_an_integer(riccati, episodes):
    # True used to record one episode
    pol, norm = riccati
    with pytest.raises(ValueError, match="^episodes must be an integer >= 1"):
        record(pol, norm, "lqr2d", episodes, 0)


def test_record_takes_a_numpy_episode_count(riccati):
    pol, norm = riccati
    assert len(record(pol, norm, "lqr2d", np.int64(2), 0)) == 2


def test_record_mean_matches_evaluate(riccati):
    # at 100 episodes and seed 0, pairwise sums of each episode's rewards
    # give a mean of -7.101273793389407, step-order sums -7.101273793389405
    pol, norm = riccati
    for episodes, seed in ((7, 3), (100, 0)):
        demos = record(pol, norm, "lqr2d", episodes, seed)
        mean, _ = evaluate_policy(pol, norm, "lqr2d", episodes, seed)
        assert demos.mean_env_return() == mean


def test_record_deterministic_bytes(tmp_path, riccati):
    pol, norm = riccati
    p1, p2 = tmp_path / "a.demos", tmp_path / "b.demos"
    save_trajectories(record(pol, norm, "lqr2d", 3, 5), str(p1))
    save_trajectories(record(pol, norm, "lqr2d", 3, 5), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_trajectory_roundtrip_exact(tmp_path):
    # a set's episodes need equal lengths, not the env's horizon
    rng = ScalarRng(11)
    demos = TrajectorySet("lqr2d", rng.gaussian_matrix(12, 2).reshape(3, 4, 2),
                          rng.gaussian_matrix(12, 1).reshape(3, 4, 1),
                          rng.gaussian_matrix(3, 4))
    path = str(tmp_path / "demos.jsonl")
    save_trajectories(demos, path)
    loaded = load_trajectories(path)
    assert loaded.env_name == "lqr2d"
    assert len(loaded) == 3
    np.testing.assert_array_equal(demos.states, loaded.states)
    np.testing.assert_array_equal(demos.actions, loaded.actions)
    np.testing.assert_array_equal(demos.env_rewards, loaded.env_rewards)
    # rows() joins the episodes' steps in episode order
    states, actions = loaded.rows()
    assert states.shape == (12, 2) and actions.shape == (12, 1)
    np.testing.assert_array_equal(actions[4:8], demos.actions[1])


def test_episode_shorter_than_line_2s_names_its_line(tmp_path):
    # a file holds one (E, T, .) block, so its episodes are of equal length
    header = {"format_version": 1, "env": "lqr2d", "state_dim": 2,
              "action_dim": 1, "episodes": 3}
    path = tmp_path / "demos.jsonl"
    episodes = [{"states": [[0.0, 0.0]] * k, "actions": [[0.0]] * k,
                 "env_rewards": [-1.0] * k} for k in (5, 2, 4)]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in (header, *episodes)))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: episode length 2 differs from line 2's 5 on line 3") + "$"):
        load_trajectories(str(path))


def test_validate_names_the_first_bad_episode():
    states, actions = np.zeros((3, 4, 2)), np.zeros((3, 4, 1))
    rewards = np.zeros((3, 4))
    # actions come before env rewards, but episode 1 before episode 2
    actions[2, 0, 0] = rewards[1, 3] = np.inf
    with pytest.raises(FormatError, match="^episode 1: non-finite value$"):
        TrajectorySet("lqr2d", states, actions, rewards).validate()


@pytest.mark.parametrize("workload", ["imitate-lqr2d", "disctrain-pointmass2d"])
def test_bench_setup_runs(workload):
    # the benchmark's set-up records, saves, loads and walks demonstrations
    # through this module's names, so renaming one would break the benchmark
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "bench", "run.py")
    out = subprocess.run([sys.executable, script, "--workload", workload,
                          "--seed", "1", "--setup-probe"],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_bench_traces_every_boundary_but_the_loss():
    # a renamed or deleted function would make its per-layer metric read 0
    # without an error; only lsgan_loss, which training never calls, is gone
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run, tracing; "
            "tracer = tracing.Tracer(run.BOUNDARIES); tracer.install(); "
            "print(json.dumps(tracer.absent)); tracer.uninstall()")
    out = subprocess.run([sys.executable, "-c", code, bench], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == ["discriminator.loss"]


def test_truncated_file_names_line(tmp_path, riccati):
    pol, norm = riccati
    path = str(tmp_path / "demos.jsonl")
    save_trajectories(record(pol, norm, "lqr2d", 4, 0), path)
    lines = open(path).read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError, match="line 4"):
        load_trajectories(path)


def test_corrupt_json_line_named(tmp_path, riccati):
    pol, norm = riccati
    path = str(tmp_path / "demos.jsonl")
    save_trajectories(record(pol, norm, "lqr2d", 2, 0), path)
    lines = open(path).read().splitlines()
    lines[1] = lines[1][:20]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 2"):
        load_trajectories(path)


@pytest.mark.parametrize("key, value, fault", [
    pytest.param("actions", [[0.0], [0.0]], "ragged lengths", id="ragged"),
    pytest.param("states", [[0.0, 0.0, 0.0]], "states are 3-dim, expected 2",
                 id="width"),
    pytest.param("states", [[0.0, float("nan")]], "non-finite", id="nan"),
    pytest.param("env_rewards", [[-1.0]], "env_rewards 1-D", id="2d-rewards"),
])
def test_bad_episode_names_path_and_line(tmp_path, key, value, fault):
    header = {"format_version": 1, "env": "lqr2d", "state_dim": 2,
              "action_dim": 1, "episodes": 2}
    good = {"states": [[0.0, 0.0]], "actions": [[0.0]], "env_rewards": [-1.0]}
    path = tmp_path / "demos.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n"
                            for doc in (header, good, {**good, key: value})))
    with pytest.raises(FormatError,
                       match=re.escape(f"{path}: ") + f".*{fault}.* on line 3$"):
        load_trajectories(str(path))


def test_non_numeric_episode_names_path_and_line(tmp_path):
    header = {"format_version": 1, "env": "lqr2d", "state_dim": 2,
              "action_dim": 1, "episodes": 1}
    bad = {"states": {"x": 0.0}, "actions": [[0.0]], "env_rewards": [-1.0]}
    path = tmp_path / "demos.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in (header, bad)))
    with pytest.raises(FormatError, match=re.escape(f"{path}: bad episode on line 2")):
        load_trajectories(str(path))


@pytest.mark.parametrize("key, value, fault", [
    pytest.param("format_version", True, "format_version True, expected 1",
                 id="format_version-bool"),
    pytest.param("format_version", 1.0, "format_version 1.0, expected 1",
                 id="format_version-float"),
    pytest.param("episodes", "1", "not a positive integer", id="episodes-str"),
    pytest.param("episodes", 1.0, "not a positive integer", id="episodes-float"),
    pytest.param("episodes", True, "not a positive integer", id="episodes-bool"),
    pytest.param("episodes", -1, "not a positive integer", id="episodes-negative"),
    pytest.param("episodes", 0, "not a positive integer", id="episodes-zero"),
    pytest.param("env", "nosuchenv", "unknown environment", id="env-unknown"),
    pytest.param("env", ["lqr2d"], "unknown environment", id="env-list"),
    pytest.param("state_dim", True, "not an integer", id="state_dim-bool"),
    pytest.param("state_dim", 2.0, "not an integer", id="state_dim-float"),
    pytest.param("state_dim", 3, "state_dim 3 does not match lqr2d's 2",
                 id="state_dim-spec"),
    pytest.param("action_dim", "1", "not an integer", id="action_dim-str"),
    pytest.param("action_dim", 2, "action_dim 2 does not match lqr2d's 1",
                 id="action_dim-spec"),
])
def test_bad_header_names_path_and_line(tmp_path, key, value, fault):
    header = {"format_version": 1, "env": "lqr2d", "state_dim": 2,
              "action_dim": 1, "episodes": 1}
    good = {"states": [[0.0, 0.0]], "actions": [[0.0]], "env_rewards": [-1.0]}
    path = tmp_path / "demos.jsonl"
    path.write_text("".join(json.dumps(doc) + "\n"
                            for doc in ({**header, key: value}, good)))
    with pytest.raises(FormatError,
                       match=re.escape(f"{path}: ") + f".*{fault}" + r".* \(line 1\)$"):
        load_trajectories(str(path))


def test_wrong_state_width_rejected(tmp_path):
    # lqr2d's states are 2-dim
    demos = TrajectorySet("lqr2d", np.zeros((1, 4, 3)), np.zeros((1, 4, 1)),
                          np.zeros((1, 4)))
    with pytest.raises(FormatError, match="3-dim"):
        save_trajectories(demos, str(tmp_path / "x.jsonl"))


def test_version_mismatch_rejected(tmp_path, riccati):
    pol, norm = riccati
    path = str(tmp_path / "demos.jsonl")
    save_trajectories(record(pol, norm, "lqr2d", 1, 0), path)
    lines = open(path).read().splitlines()
    lines[0] = lines[0].replace('"format_version": 1', '"format_version": 2')
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="format_version 2, expected 1"):
        load_trajectories(path)


def test_nonfinite_rejected(tmp_path):
    demos = TrajectorySet("lqr2d", np.array([[[1.0, np.nan]]]), np.zeros((1, 1, 1)),
                          np.zeros((1, 1)))
    with pytest.raises(FormatError, match="non-finite"):
        save_trajectories(demos, str(tmp_path / "x.jsonl"))


def test_policy_roundtrip(tmp_path):
    rng = ScalarRng(21)
    pol = LinearPolicy(rng.gaussian_matrix(1, 2))
    norm = ObservationNormalizer(57, np.array([0.25, -1.5]),
                                 np.array([3.0, 0.125]) * 57)
    path = str(tmp_path / "p.policy")
    save_policy(pol, norm, "lqr2d", path)
    pol2, norm2, env_name = load_policy(path)
    assert env_name == "lqr2d"
    np.testing.assert_array_equal(pol2.theta, pol.theta)
    np.testing.assert_array_equal(norm2.mean, norm.mean)
    assert norm2.count == 57
    np.testing.assert_allclose(norm2.variance(), norm.variance(), rtol=1e-15)


def test_policy_version_1_rejected(tmp_path):
    # version-1 policies were trained on mean-centred inputs; applying them
    # to RMS-whitened inputs would act differently without any error
    path = tmp_path / "p.policy"
    save_policy(LinearPolicy(np.zeros((1, 2))), ObservationNormalizer.for_dim(2),
                "lqr2d", str(path))
    text = path.read_text()
    assert '"format_version": 2' in text
    path.write_text(text.replace('"format_version": 2', '"format_version": 1'))
    with pytest.raises(FormatError, match="format_version 1, expected 2"):
        load_policy(str(path))


def test_policy_env_mismatch_rejected(tmp_path):
    # callers trust the env a policy file names, so load_policy checks the
    # name against the weights' dims
    path = tmp_path / "p.policy"
    save_policy(LinearPolicy(np.zeros((1, 2))), ObservationNormalizer.for_dim(2),
                "lqr2d", str(path))
    _, _, env_name = load_policy(str(path))
    assert env_name == "lqr2d"
    path.write_text(path.read_text().replace('"env": "lqr2d"', '"env": "pendulum"'))
    with pytest.raises(FormatError, match="state_dim 2 does not match pendulum's 3"):
        load_policy(str(path))


def test_policy_count_preserved_exactly(tmp_path):
    pol = LinearPolicy(np.zeros((1, 2)))
    norm = ObservationNormalizer.for_dim(2)
    rng = ScalarRng(5)
    for _ in range(1234):
        welford_update(norm, np.array([rng.gaussian(), rng.gaussian()]))
    path = str(tmp_path / "p.policy")
    save_policy(pol, norm, "lqr2d", path)
    _, norm2, _ = load_policy(path)
    assert norm2.count == 1234


def _policy_saver(env_name, theta_shape, normalizer):
    return lambda path: save_policy(LinearPolicy(np.zeros(theta_shape)),
                                    normalizer, env_name, path)


def _demos_saver(env_name, state_dim, dtype=float):
    demos = TrajectorySet(env_name, np.zeros((1, 4, state_dim), dtype),
                          np.zeros((1, 4, 1)), np.zeros((1, 4)))
    return lambda path: save_trajectories(demos, path)


@pytest.mark.parametrize("save, fault", [
    pytest.param(_policy_saver("pendulum", (1, 2), ObservationNormalizer.for_dim(2)),
                 r"theta shape \(1, 2\) does not match",
                 id="policy-dims-of-another-env"),
    pytest.param(_policy_saver("lqr2d", (1, 2), ObservationNormalizer.for_dim(3)),
                 "mu/var must be state_dim vectors", id="policy-normalizer-width"),
    pytest.param(_policy_saver("lqr2d", (2,), ObservationNormalizer.for_dim(2)),
                 r"theta shape \(2,\) does not match header dims \(line 1\)",
                 id="policy-1d-theta"),
    pytest.param(_policy_saver("nosuchenv", (1, 2), ObservationNormalizer.for_dim(2)),
                 "unknown environment", id="policy-unknown-env"),
    pytest.param(_policy_saver("lqr2d", (1, 2), ObservationNormalizer(
        2, np.array([np.nan, 0.0]), np.zeros(2))), "non-finite",
                 id="policy-nan-mean"),
    pytest.param(_policy_saver("lqr2d", (1, 2), ObservationNormalizer(
        2, np.zeros(2), np.array([-1.0, 0.0]))), "negative variance",
                 id="policy-negative-m2"),
    pytest.param(_policy_saver("lqr2d", (1, 2), ObservationNormalizer(
        -3, np.zeros(2), np.ones(2))), "not a non-negative integer",
                 id="policy-negative-count"),
    pytest.param(_policy_saver("lqr2d", (1, 2), ObservationNormalizer(
        np.int64(4), np.zeros(2), np.ones(2))), "not a non-negative integer",
                 id="policy-numpy-int-count"),
    pytest.param(_demos_saver("lqr2d", 3), "states are 3-dim, expected 2",
                 id="demos-dims-of-another-env"),
    pytest.param(_demos_saver("nosuchenv", 2), "unknown environment",
                 id="demos-unknown-env"),
    pytest.param(_demos_saver("lqr2d", 2, complex), "complex128 values",
                 id="demos-complex-states"),
    pytest.param(_demos_saver("lqr2d", 2, bool), "bool values", id="demos-bool-states"),
])
def test_savers_refuse_what_loaders_reject(tmp_path, save, fault):
    path = tmp_path / "out"
    with pytest.raises(FormatError, match=fault):
        save(str(path))
    assert not path.exists()


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with(key, value):
    return lambda doc: {**doc, key: value}


@pytest.mark.parametrize("edit, fault", [
    pytest.param(lambda doc: [doc], "expected an object", id="not-object"),
    pytest.param(_with("format_version", 2.0), "format_version 2.0, expected 2",
                 id="format_version-float"),
    pytest.param(_without("theta"), "header missing 'theta'", id="theta-missing"),
    pytest.param(_without("count"), "header missing 'count'", id="count-missing"),
    pytest.param(_with("action_dim", True), "not an integer", id="action_dim-bool"),
    pytest.param(_with("state_dim", 2.0), "not an integer", id="state_dim-float"),
    pytest.param(_with("count", True), "not a non-negative integer", id="count-bool"),
    pytest.param(_with("count", 2.7), "not a non-negative integer", id="count-float"),
    pytest.param(_with("count", -3), "not a non-negative integer", id="count-negative"),
    pytest.param(_with("var", [-1.0, 0.5]), "negative variance", id="var-negative"),
    pytest.param(_with("env", "nosuchenv"), "unknown environment", id="env-unknown"),
    pytest.param(_with("theta", [["x", 0.0]]), "bad array", id="theta-str"),
    pytest.param(lambda doc: {**doc, "state_dim": 3, "theta": [[0.0] * 3],
                              "mu": [0.0] * 3, "var": [1.0] * 3},
                 "state_dim 3 does not match lqr2d's 2", id="state_dim-spec"),
])
def test_bad_policy_names_path_and_line(tmp_path, edit, fault):
    path = tmp_path / "p.policy"
    norm = ObservationNormalizer(4, np.array([0.5, -0.5]), np.array([4.0, 8.0]))
    save_policy(LinearPolicy(np.zeros((1, 2))), norm, "lqr2d", str(path))
    path.write_text(json.dumps(edit(json.loads(path.read_text()))) + "\n")
    with pytest.raises(FormatError,
                       match=re.escape(f"{path}: ") + f".*{fault}" + r".*\bline 1\b"):
        load_policy(str(path))


@pytest.mark.parametrize("key, value", [
    pytest.param("theta", [[10 ** 400, 0.0]], id="theta-int-overflow"),
    pytest.param("states", [[10 ** 400, 0.2]], id="states-int-overflow"),
    pytest.param("theta", [["0.5", True]], id="theta-str-bool"),
    pytest.param("theta", [[0.5, True]], id="theta-bool"),
    pytest.param("mu", ["0.5", -0.5], id="mu-str"),
    pytest.param("var", [False, 2.0], id="var-bool"),
    pytest.param("states", [["0.1", 0.2]], id="states-str"),
    pytest.param("states", [[True, 0.2]], id="states-bool"),
    pytest.param("actions", [["0.0"]], id="actions-str"),
    pytest.param("actions", [[False]], id="actions-bool"),
    pytest.param("env_rewards", ["-1.0"], id="env_rewards-str"),
    pytest.param("env_rewards", [True], id="env_rewards-bool"),
])
def test_non_number_array_entry_names_path_and_line(tmp_path, key, value):
    # np.array(..., dtype=float) parses "0.5" and true, so these would load;
    # an integer beyond float range raises OverflowError, not a ValueError
    if key in ("theta", "mu", "var"):
        path, load, line = tmp_path / "p.policy", load_policy, 1
        save_policy(LinearPolicy(np.zeros((1, 2))), ObservationNormalizer.for_dim(2),
                    "lqr2d", str(path))
        docs = [{**json.loads(path.read_text()), key: value}]
    else:
        path, load, line = tmp_path / "demos.jsonl", load_trajectories, 2
        docs = [{"format_version": 1, "env": "lqr2d", "state_dim": 2,
                 "action_dim": 1, "episodes": 1},
                {"states": [[0.1, 0.2]], "actions": [[0.0]], "env_rewards": [-1.0],
                 key: value}]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    where = re.escape(f"{path}: ") + rf".*\bline {line}\b"
    with pytest.raises(FormatError, match=where):
        load(str(path))
