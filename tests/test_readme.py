"""README.md against the code: the flag defaults and metrics columns it
states are the parser's and `MetricsRow`'s, every repo path it names
exists, and it holds nothing that a new measurement or test would change
(measurements live in CHANGES.md and the BENCH_*.json records)."""
import re
from dataclasses import fields
from pathlib import Path

import pytest

from ailsrs.cli import build_parser
from ailsrs.trainer import MetricsRow

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

# (flag, default) of each row of README's `train` flag table
FLAG_TABLE = re.findall(r"^\| `(--[\w-]+)` \| ([^|]*?) \|", README, re.M)

# each training command's required arguments besides `--iters`
REQUIRED = {"train": ["--demos", "d.demos", "--out", "o.policy"],
            "train-expert": ["--env", "lqr2d", "--out", "o.policy"]}


def _parsed(command: str) -> dict:
    """The namespace of `command` given only its required arguments."""
    argv = [command, *REQUIRED[command], "--iters", "1"]
    return vars(build_parser().parse_args(argv))


def _value(text: str):
    """A README default as the parser holds it."""
    return None if text == "the horizon" else float(text)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def test_train_flag_table_is_the_parsers():
    parsed = _parsed("train")
    assert FLAG_TABLE[0] == ("--iters", "required")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", *REQUIRED["train"]])
    for flag, default in FLAG_TABLE[1:]:
        assert parsed[_dest(flag)] == _value(default), flag
    # every search setting of `train` is in the table; the file and
    # stopping flags are in the CLI block
    assert set(parsed) - {_dest(flag) for flag, _ in FLAG_TABLE} == {
        "command", "run", "demos", "init", "out", "metrics", "target_frac"}


def test_train_expert_defaults_are_the_parsers():
    match = re.search(r"`train-expert` takes the first (\w+), with `--n-dirs "
                      r"(\d+)` and\s+`--eval-episodes (\d+)` as its defaults",
                      README)
    assert match
    count = ["one", "two", "three", "four", "five", "six", "seven"].index(
        match[1]) + 1
    table = dict(FLAG_TABLE[1:count])
    table.update({"--n-dirs": match[2], "--eval-episodes": match[3]})
    parsed = _parsed("train-expert")
    for flag, default in table.items():
        assert parsed[_dest(flag)] == _value(default), flag
    assert set(parsed) - {_dest(flag) for flag in table} == {
        "command", "run", "env", "out", "iters"}


def test_metrics_columns_are_metrics_rows():
    assert re.findall(r"`(iteration,[\w,]+)`", README) == [
        ",".join(f.name for f in fields(MetricsRow))]


def _named_paths() -> set[str]:
    """Every repo path README names: paths under the package, scripts,
    tests and bench, BENCH records, root documents, and bare module names,
    which are the package's."""
    paths = set(re.findall(r"\b(?:src/ailsrs|scripts|tests|bench)/[\w./*-]*\w",
                           README))
    paths |= set(re.findall(r"\bBENCH_\w+\.json", README))
    paths |= set(re.findall(r"(?<![/\w])[A-Z]+\.md\b", README))
    paths |= {f"src/ailsrs/{name}"
              for name in re.findall(r"(?<![/\w])\w+\.py\b", README)}
    return paths


def test_every_named_path_exists():
    paths = _named_paths()
    assert {"tests/_oracles.py", "scripts/artifact_digest.py",
            "src/ailsrs/envs.py", "CHANGES.md"} <= paths
    assert [p for p in sorted(paths) if not list(ROOT.glob(p))] == []


def test_nothing_that_changes_with_every_measurement():
    # timings and suite counts belong to CHANGES.md and the BENCH records
    assert re.findall(r"\d\s*(?:µs|us|ms)\b", README) == []
    assert re.findall(r"\d[\d,]*\s+(?:passed|failed|tests)\b", README) == []
