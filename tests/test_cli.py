import collections
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ailsrs.cli import build_parser, main
from ailsrs.demo_io import (load_policy, load_trajectories, record,
                            save_policy, save_trajectories)
from ailsrs.envs import riccati_optimal
from ailsrs.policy import LinearPolicy, ObservationNormalizer


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


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train-expert", "--iters", "5", "--out", "x.policy"])
    assert exc.value.code == 2


def test_unknown_env_exits_2(tmp_path):
    out = tmp_path / "x.policy"
    with pytest.raises(SystemExit) as exc:
        main(["train-expert", "--env", "marsrover", "--iters", "1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["record", "--policy", "p", "--episodes", "1", "--out", "o"],
    ["eval", "--policy", "p"],
    ["train", "--demos", "d", "--iters", "1", "--out", "o"],
], ids=lambda argv: argv[0])
def test_file_reading_commands_take_no_env_flag(argv, capsys):
    # the policy or demonstrations file names its environment
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--env", "lqr2d"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --env" in capsys.readouterr().err


def test_train_without_iters_exits_2(tmp_path, capsys):
    # parsed before any file is read: the demos path does not exist
    out = tmp_path / "x.policy"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--demos", str(tmp_path / "missing.demos"),
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--iters" in capsys.readouterr().err
    assert not out.exists()


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
    ("train", "--target-frac", "0"),
    ("train", "--iters", "0"),
    ("train", "--alpha", "inf"),
    ("train", "--nu", "nan"),
    ("train", "--disc-lr", "nan"),
    ("train", "--disc-lr", "inf"),
    ("train", "--disc-batch", "0"),
    ("train", "--eval-every", "0"),
])
def test_nonpositive_number_exits_2(command, flag, value, tmp_path, capsys):
    out = tmp_path / "out"
    required = {
        "train-expert": ["--env", "lqr2d", "--iters", "1", "--out", str(out)],
        "record": ["--policy", "p", "--episodes", "1", "--out", str(out)],
        "eval": ["--policy", "p"],
        "bc": ["--demos", "d", "--out", str(out)],
        "train": ["--demos", "d", "--iters", "1", "--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, value])
    assert exc.value.code == 2
    assert f"{flag}: must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_negative_disc_iters_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--demos", "d", "--iters", "1", "--out", str(out),
              "--disc-iters", "-1"])
    assert exc.value.code == 2
    assert "--disc-iters: must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "-1e-12", "nan", "inf", "-inf"])
def test_negative_or_nonfinite_ridge_exits_2(value, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["bc", "--demos", "d", "--out", str(out), f"--ridge={value}"])
    assert exc.value.code == 2
    assert "--ridge: must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_zero_ridge_is_accepted():
    args = build_parser().parse_args(["bc", "--demos", "d", "--out", "o",
                                      "--ridge", "0"])
    assert args.ridge == 0.0


def test_nonexistent_policy_path_exits_1(capsys):
    rc = main(["eval", "--policy", "/nonexistent.policy"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_record_and_eval_roundtrip(tmp_path, expert_policy_file, capsys):
    demos_out = str(tmp_path / "d.demos")
    rc = main(["record", "--policy", expert_policy_file,
               "--episodes", "5", "--seed", "2", "--out", demos_out])
    assert rc == 0
    demos = load_trajectories(demos_out)
    assert len(demos) == 5
    header = open(demos_out).readline()
    assert '"episodes": 5' in header

    rc = main(["eval", "--policy", expert_policy_file,
               "--episodes", "1", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "+- 0" in out  # single episode: std is exactly 0


def test_record_determinism(tmp_path, expert_policy_file):
    a, b = str(tmp_path / "a.demos"), str(tmp_path / "b.demos")
    for out in (a, b):
        assert main(["record", "--policy", expert_policy_file,
                     "--episodes", "3", "--seed", "9", "--out", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


@pytest.mark.parametrize("flag, value", [("--epochs", "10"), ("--lr", "0.01")])
def test_bc_has_no_iterative_mode(flag, value, demos_file, tmp_path, capsys):
    out = tmp_path / "p.policy"
    with pytest.raises(SystemExit) as exc:
        main(["bc", "--demos", demos_file, "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_bc_default_is_the_1e_8_ridge_solve(demos_file, tmp_path):
    default, explicit = tmp_path / "default.policy", tmp_path / "explicit.policy"
    assert main(["bc", "--demos", demos_file, "--out", str(default)]) == 0
    assert main(["bc", "--demos", demos_file, "--ridge", "1e-8",
                 "--out", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()


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
    rc = main(["train", "--demos", demos_file, "--n-dirs", "4", "--iters", "4",
               "--eval-every", "2", "--eval-episodes", "2", "--seed", "1",
               "--out", out, "--metrics", metrics])
    assert rc == 0
    pol, _, _ = load_policy(out)
    assert np.all(np.isfinite(pol.theta))
    lines = open(metrics).read().splitlines()
    assert lines[0].startswith("iteration,")
    assert len(lines) == 5


def test_train_target_frac_stops_at_the_first_reaching_evaluation(
        demos_file, tmp_path, capsys):
    # the target is the config's from its construction: a fraction this
    # small makes a cost target that the first evaluation meets
    metrics = str(tmp_path / "metrics.csv")
    rc = main(["train", "--demos", demos_file, "--n-dirs", "4", "--iters", "10",
               "--eval-every", "2", "--eval-episodes", "2", "--seed", "1",
               "--target-frac", "1e-9", "--out", str(tmp_path / "x.policy"),
               "--metrics", metrics])
    assert rc == 0
    assert len(open(metrics).read().splitlines()) == 1 + 2


def test_train_demo_env_mismatch_exits_1(demos_file, tmp_path, capsys):
    # the demonstrations name the env; an --init policy of another env is refused
    init = str(tmp_path / "pendulum.policy")
    save_policy(LinearPolicy(np.zeros((1, 3))), ObservationNormalizer.for_dim(3),
                "pendulum", init)
    out = tmp_path / "x.policy"
    rc = main(["train", "--demos", demos_file, "--iters", "1", "--init", init,
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "pendulum" in err and "lqr2d" in err
    assert not out.exists()


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
    rc = main(["eval", "--policy", expert_policy_file,
               "--episodes", "100", "--seed", "0"])
    assert rc == 0
    printed = capsys.readouterr().out.split("+-")[0].strip()
    assert printed == f"{estimate:.6g}"


def _documented_commands():
    """The arguments of every `ailsrs ...` line in README.md's CLI block and
    in scripts/*.sh, one pytest param each, with `\\` continuations joined,
    README's `[...]` optional brackets dropped and shell variables read as 1.

    A param's id is `source:command`, and `source:command:i` for the i-th
    line of one command in one source: an edit renames no line before it
    and no line of another command."""
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    cli_block = readme.split("## CLI pipeline", 1)[1].split("```")[1]
    sources = [("README.md", cli_block.replace("[", "").replace("]", ""))]
    sources += [(path.name, path.read_text())
                for path in sorted((root / "scripts").glob("*.sh"))]
    commands = []
    for name, text in sources:
        seen = collections.Counter()
        for line in text.replace("\\\n", " ").splitlines():
            words = shlex.split(re.sub(r"\$\{?\w+\}?", "1", line), comments=True)
            if words[:1] == ["ailsrs"]:
                command = words[1]
                seen[command] += 1
                nth = f":{seen[command]}" if seen[command] > 1 else ""
                commands.append(pytest.param(words[1:], id=f"{name}:{command}{nth}"))
    return commands


DOCUMENTED_COMMANDS = _documented_commands()


@pytest.mark.parametrize("argv", DOCUMENTED_COMMANDS)
def test_documented_command_parses(argv):
    build_parser().parse_args(argv)


def test_docs_show_every_command():
    assert {p.values[0][0] for p in DOCUMENTED_COMMANDS} == {
        "train-expert", "record", "bc", "train", "eval"}
