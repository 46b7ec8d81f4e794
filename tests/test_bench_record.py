import importlib.util
import json
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(_ROOT, "scripts", "bench_record.py")
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

# ten runs with median 1.0 and IQR 0.01
NARROW = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
# ten runs with median 1.5 and IQR 1.0
WIDE = [1.0, 2.0] * 5


def _runs(sides):
    """Synthetic bench/run.py results: one workload "w", one value per run
    of each metric, the metric "iter_ms" read from the plain-ms field."""
    return {side: [{"metrics": {f"w.{metric}": {"value": values[side][i]}
                                for metric, values in sides.items()},
                    "iter_ms": {"w": sides["iter_ms"][side][i]}}
                   for i in range(10)]
            for side in ("parent", "change")}


@pytest.mark.parametrize("better, bound, parent, change, expect", [
    pytest.param("lower", 0.25, NARROW, [v - 0.2 for v in NARROW], "gain",
                 id="gain"),
    pytest.param("higher", 0.25, NARROW, [v + 0.2 for v in NARROW], "gain",
                 id="gain-higher-is-better"),
    pytest.param("lower", 0.1, NARROW, [v * 1.2 for v in NARROW], "worse",
                 id="worse"),
    pytest.param("higher", 0.1, NARROW, [v * 0.8 for v in NARROW], "worse",
                 id="worse-higher-is-better"),
    pytest.param("lower", 0.25, WIDE, WIDE[::-1], "unresolved", id="unresolved"),
    pytest.param("lower", 0.25, NARROW, [v + 0.01 for v in NARROW],
                 "within bound", id="within-bound"),
    # every change run beats every parent run, but the medians differ by
    # exactly the parent's IQR, so it is no gain either
    pytest.param("lower", 0.25, WIDE, [0.5] * 10, "within bound",
                 id="wide-parent-every-run-beaten"),
    # 8 of 10 pairs won is no gain, however far apart the medians
    pytest.param("lower", 0.25, NARROW, [v - 0.2 for v in NARROW[:8]] + NARROW[8:],
                 "within bound", id="8-of-10-pairs"),
])
def test_summarize_verdict(better, bound, parent, change, expect):
    runs = _runs({"m": {"parent": parent, "change": change},
                  "iter_ms": {"parent": NARROW, "change": NARROW}})
    metrics = {"m": {"unit": "u", "better": better, "bound": bound}}
    entry = bench_record.summarize(runs, metrics)["w"]["m"]
    assert entry["verdict"] == expect


def test_summarize_verdict_without_bound():
    # a metric without a bound reads a gain or "no bound"
    runs = _runs({"m": {"parent": NARROW, "change": NARROW},
                  "iter_ms": {"parent": NARROW, "change": [v * 2 for v in NARROW]}})
    metrics = {"iter_ms": {"unit": "ms/iter", "better": "lower"}}
    assert bench_record.summarize(runs, metrics)["w"]["iter_ms"]["verdict"] == "no bound"
    runs = _runs({"m": {"parent": NARROW, "change": NARROW},
                  "iter_ms": {"parent": NARROW, "change": [v / 2 for v in NARROW]}})
    assert bench_record.summarize(runs, metrics)["w"]["iter_ms"]["verdict"] == "gain"


def _timing_metrics():
    """iter_cal and iter_ms as the script reads them from BENCHMARK.json."""
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        specs = bench_record.metric_specs(json.load(fh))
    return {name: specs[name] for name in ("iter_cal", "iter_ms")}


@pytest.mark.parametrize("iter_ms, ms_verdict, confirms", [
    pytest.param([v - 0.2 for v in NARROW], "gain", True, id="confirmed-gain"),
    # the calibration moved, not the iteration
    pytest.param(NARROW, "within bound", False, id="flat-iter-ms"),
])
def test_iter_ms_confirms_an_iter_cal_gain(iter_ms, ms_verdict, confirms):
    runs = _runs({"iter_cal": {"parent": NARROW, "change": [v - 0.2 for v in NARROW]},
                  "iter_ms": {"parent": NARROW, "change": iter_ms}})
    table = bench_record.summarize(runs, _timing_metrics())["w"]
    assert table["iter_cal"]["verdict"] == "gain"
    assert table["iter_ms"]["verdict"] == ms_verdict
    assert table["iter_cal"]["iter_ms_confirms"] is confirms


def test_iter_ms_above_its_bound_reads_worse():
    # iter_ms is judged under iter_cal's bound, 25%
    runs = _runs({"iter_cal": {"parent": NARROW, "change": NARROW},
                  "iter_ms": {"parent": NARROW, "change": [v * 1.3 for v in NARROW]}})
    table = bench_record.summarize(runs, _timing_metrics())["w"]
    assert table["iter_ms"]["bound"] == 0.25
    assert table["iter_ms"]["verdict"] == "worse"
    # no iter_cal gain, so nothing to confirm
    assert table["iter_cal"]["iter_ms_confirms"] is None


def test_runs_alternate_which_side_goes_first():
    assert list(bench_record.alternating(3)) == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"),
        (2, "parent"), (2, "change")]


def test_trace_spreads_take_each_metric_median_over_runs():
    # one traced run per side could move a layer by 20%; the record keeps
    # every run and reads the median
    runs = [{"w.a_ms": 1.0, "w.steps": 200.0}, {"w.a_ms": 3.0, "w.steps": 200.0},
            {"w.a_ms": 1.5, "w.steps": 200.0}]
    spreads = bench_record.trace_spreads(runs)
    assert spreads["w.a_ms"]["median"] == 1.5
    assert spreads["w.a_ms"]["runs"] == [1.0, 3.0, 1.5]
    assert spreads["w.steps"]["median"] == 200.0
    assert spreads["w.steps"]["iqr"] == 0.0


def test_py_lines_counts_code_apart_from_docstrings_and_comments(tmp_path):
    (tmp_path / "tests" / "sub").mkdir(parents=True)
    (tmp_path / "tests" / "test_a.py").write_text(
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment-only line\n"
        "def f():\n"
        '    """Function docstring."""\n'
        "    return 1  # a trailing comment\n")
    (tmp_path / "tests" / "sub" / "b.py").write_text("\nX = 2\n\n")
    (tmp_path / "tests" / "notes.txt").write_text("not python\n")
    assert bench_record.py_lines(str(tmp_path), "tests") == {"total": 10, "code": 3}
    assert bench_record.py_lines(str(tmp_path), "src") == {"total": 0, "code": 0}
