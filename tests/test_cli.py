import numpy as np
import pytest

from ailsrs.cli import (UsageError, build_parser, build_trainer_config, main,
                        parse_config_file)
from ailsrs.demo_io import (load_policy, load_trajectories, record,
                            save_policy, save_trajectories)
from ailsrs.envs import riccati_optimal


@pytest.fixture(scope="module")
def expert_policy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "expert.policy"
    pol, norm, _ = riccati_optimal(episodes=1)
    save_policy(pol, norm, "lqr2d", str(path))
    return str(path)


@pytest.fixture(scope="module")
def demos_file(tmp_path_factory, expert_policy_file):
    path = tmp_path_factory.mktemp("cli") / "expert.demos"
    pol, norm, _ = load_policy(expert_policy_file)
    save_trajectories(record(pol, norm, "lqr2d", 8, 0), str(path))
    return str(path)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# imitation settings\n"
        "alpha = 0.02\n"
        "n_directions = 16   # desk scale\n"
        "\n"
        "max_iterations = 50\n")
    values = parse_config_file(str(path))
    assert values == {"alpha": 0.02, "n_directions": 16, "max_iterations": 50}
    cfg = build_trainer_config(values, {"seed": 7})
    assert cfg.ars.n_directions == 16
    assert cfg.max_iterations == 50
    assert cfg.seed == 7


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(UsageError, match="warp_speed"):
        parse_config_file(str(path))


def test_config_file_rejects_bad_type(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("max_iterations = soon\n")
    with pytest.raises(UsageError, match="int"):
        parse_config_file(str(path))


def test_flags_override_config_values(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("seed = 3\nn_directions = 4\n")
    cfg = build_trainer_config(parse_config_file(str(path)), {"seed": 11})
    assert cfg.seed == 11 and cfg.ars.n_directions == 4


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train-expert", "--iters", "5", "--out", "x.policy"])
    assert exc.value.code == 2


def test_unknown_env_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--env", "marsrover", "--policy", "x.policy"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("train-expert", "--iters", "0"),
    ("train-expert", "--n-dirs", "0"),
    ("train-expert", "--alpha", "0"),
    ("train-expert", "--alpha", "-0.02"),
    ("train-expert", "--nu", "0"),
    ("train-expert", "--nu", "nan"),
    ("train-expert", "--eval-episodes", "0"),
    ("record", "--episodes", "0"),
    ("eval", "--episodes", "0"),
    ("bc", "--epochs", "0"),
    ("bc", "--lr", "0"),
    ("bc", "--lr", "-0.01"),
    ("train", "--target-frac", "0"),
])
def test_nonpositive_number_exits_2(command, flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    required = {
        "train-expert": ["--env", "lqr2d", "--iters", "1", "--out", str(out)],
        "record": ["--env", "lqr2d", "--policy", "p", "--episodes", "1",
                   "--out", str(out)],
        "eval": ["--env", "lqr2d", "--policy", "p"],
        "bc": ["--demos", "d", "--out", str(out)],
        "train": ["--env", "lqr2d", "--demos", "d", "--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, value])
    assert exc.value.code == 2
    assert f"{flag}: must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "-1e-12", "nan", "inf", "-inf"])
def test_negative_or_nonfinite_ridge_exits_2(value, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["bc", "--demos", "d", "--out", str(out), f"--ridge={value}"])
    assert exc.value.code == 2
    assert "--ridge: must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("alpha", "inf"), ("nu", "nan"),
                                        ("disc_lr", "nan"), ("disc_lr", "inf")])
def test_nonfinite_config_value_exits_2(key, value, demos_file, tmp_path, capsys):
    # the same value as a flag is a usage error; so it is from a config file
    out = tmp_path / "out"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\nmax_iterations = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["train", "--env", "lqr2d", "--demos", demos_file,
              "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_zero_ridge_is_accepted():
    args = build_parser().parse_args(["bc", "--demos", "d", "--out", "o",
                                      "--ridge", "0"])
    assert args.ridge == 0.0


def test_nonexistent_policy_path_exits_1(capsys):
    rc = main(["eval", "--env", "lqr2d", "--policy", "/nonexistent.policy"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_record_and_eval_roundtrip(tmp_path, expert_policy_file, capsys):
    demos_out = str(tmp_path / "d.demos")
    rc = main(["record", "--env", "lqr2d", "--policy", expert_policy_file,
               "--episodes", "5", "--seed", "2", "--out", demos_out])
    assert rc == 0
    demos = load_trajectories(demos_out)
    assert len(demos) == 5
    header = open(demos_out).readline()
    assert '"episodes": 5' in header

    rc = main(["eval", "--env", "lqr2d", "--policy", expert_policy_file,
               "--episodes", "1", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "+- 0" in out  # single episode: std is exactly 0


def test_record_determinism(tmp_path, expert_policy_file):
    a, b = str(tmp_path / "a.demos"), str(tmp_path / "b.demos")
    for out in (a, b):
        assert main(["record", "--env", "lqr2d", "--policy", expert_policy_file,
                     "--episodes", "3", "--seed", "9", "--out", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_bc_exclusive_modes_exit_2(demos_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bc", "--demos", demos_file, "--out", str(tmp_path / "p.policy"),
              "--ridge", "1e-8", "--epochs", "10"])
    assert exc.value.code == 2


def test_bc_closed_form_produces_loadable_policy(demos_file, tmp_path, capsys):
    out = str(tmp_path / "bc.policy")
    rc = main(["bc", "--demos", demos_file, "--ridge", "1e-8", "--out", out])
    assert rc == 0
    pol, norm, env_name = load_policy(out)
    assert env_name == "lqr2d"
    assert pol.theta.shape == (1, 2)
    assert norm.count > 0


def test_bc_missing_demos_exits_1():
    rc = main(["bc", "--demos", "/nonexistent.demos", "--ridge", "1e-8",
               "--out", "/tmp/x.policy"])
    assert rc == 1


def test_bc_empty_demos_file_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.demos"
    empty.write_text("")
    rc = main(["bc", "--demos", str(empty), "--ridge", "1e-8",
               "--out", str(tmp_path / "x.policy")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_smoke_and_artifacts(demos_file, tmp_path, capsys):
    out = str(tmp_path / "imitator.policy")
    metrics = str(tmp_path / "metrics.csv")
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("n_directions = 4\nmax_iterations = 4\n"
                   "eval_every = 2\neval_episodes = 2\n")
    rc = main(["train", "--env", "lqr2d", "--demos", demos_file,
               "--config", str(cfg), "--seed", "1", "--out", out,
               "--metrics", metrics])
    assert rc == 0
    pol, _, _ = load_policy(out)
    assert np.all(np.isfinite(pol.theta))
    lines = open(metrics).read().splitlines()
    assert lines[0].startswith("iteration,")
    assert len(lines) == 5


def test_train_demo_env_mismatch_exits_1(demos_file, tmp_path):
    rc = main(["train", "--env", "pendulum", "--demos", demos_file,
               "--out", str(tmp_path / "x.policy")])
    assert rc == 1


def test_train_expert_smoke(tmp_path, capsys):
    out = str(tmp_path / "tiny.policy")
    rc = main(["train-expert", "--env", "lqr2d", "--iters", "3",
               "--n-dirs", "2", "--seed", "1", "--eval-episodes", "2",
               "--out", out])
    assert rc == 0
    pol, norm, env_name = load_policy(out)
    assert env_name == "lqr2d"
    assert norm.count == 3 * 2 * 2 * 100


def test_train_expert_determinism(tmp_path):
    outs = []
    for name in ("a.policy", "b.policy"):
        out = tmp_path / name
        assert main(["train-expert", "--env", "lqr2d", "--iters", "3",
                     "--n-dirs", "2", "--seed", "4", "--eval-episodes", "2",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_eval_matches_riccati_estimate(tmp_path, expert_policy_file, capsys):
    _, _, estimate = riccati_optimal(seed=0, episodes=100)
    rc = main(["eval", "--env", "lqr2d", "--policy", expert_policy_file,
               "--episodes", "100", "--seed", "0"])
    assert rc == 0
    printed = capsys.readouterr().out.split("+-")[0].strip()
    assert printed == f"{estimate:.6g}"
