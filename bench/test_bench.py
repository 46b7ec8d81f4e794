"""Self-check of the benchmark itself (not part of the program's test suite).

Each workload runs briefly in both modes and its last output line must match
the metric names and units in BENCHMARK.json; the tracer must report a
missing boundary as absent and restore what it wrapped; without the program
next to it the benchmark must fail without printing a result.

    python3 -m pytest bench/test_bench.py -q
"""
import json
import math
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from tracing import Boundary, Tracer, function  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    command = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_output_matches_the_spec(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# header: ")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in expected})
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "expert-pendulum":
        assert all(v == 0 for name, v in values.items()
                   if name.startswith("discriminator."))


def test_wrappers_count_nest_and_restore():
    mod = types.ModuleType("ailsrs.selfcheck")
    exec("import time\n"
         "def inner(rows):\n"
         "    time.sleep(0.01)\n"
         "    return rows\n"
         "def outer():\n"
         "    return inner([1, 2, 3])\n", mod.__dict__)
    alias = types.ModuleType("ailsrs.selfcheck_alias")
    alias.inner = original = mod.inner
    sys.modules[mod.__name__] = mod
    sys.modules[alias.__name__] = alias
    try:
        tracer = Tracer([
            Boundary("outer", function(mod.__name__, "outer")),
            Boundary("inner", function(mod.__name__, "inner"),
                     count=lambda args, kwargs, result: len(result)),
        ])
        with tracer.installed():
            assert alias.inner is not original
            mod.outer()
            alias.inner([0])
        assert mod.inner is original and alias.inner is original
        inner, outer = tracer.stats["inner"], tracer.stats["outer"]
        assert (inner.calls, inner.units) == (2, 4)
        assert outer.calls == 1 and outer.total_s >= 0.01
        assert outer.self_s < 0.5 * outer.total_s
    finally:
        del sys.modules[mod.__name__], sys.modules[alias.__name__]


def test_missing_boundary_is_absent_not_an_error():
    tracer = Tracer([
        Boundary("gone.function", function("json", "no_such_function")),
        Boundary("gone.module", function("no_such_module_for_bench", "f")),
    ])
    with tracer.installed():
        json.dumps(time.time())
    assert tracer.absent == ["gone.function", "gone.module"]
    assert tracer.stats["gone.function"].calls == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
