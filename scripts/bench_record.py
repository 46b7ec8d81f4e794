"""Record a parent-against-change benchmark comparison in BENCH_<sha>.json.

    python3 scripts/bench_record.py --parent HEAD~1 --change HEAD

The script exports both commits with `git archive` into two sibling
directories whose paths have the same length (one tree can measure 15-20%
differently from one directory to another, see CHANGES.md), then runs, in
each exported tree and with the tree's own, unchanged benchmark:

* `bench/run.py --workload all --trace 0` in ten alternating pairs (the
  parent first in even pairs, the change first in odd ones), each run at
  BENCHMARK.json's `run_seconds`;
* `bench/run.py --workload all --trace 1` in three alternating rounds per
  side (the parent first in even rounds), for the per-layer table of every
  workload: one traced run can move a layer by 20% on code the change does
  not touch;
* the tier-1 suite, `PYTHONPATH=src python -m pytest -q
  --continue-on-collection-errors`, in three alternating rounds per side
  (the parent first in even rounds), for its pass counts and the median,
  quartiles and IQR of its wall time.

The JSON holds both commits, each side's `src_lines` (the total lines of
`src/**/*.py` and the code lines among them, which leave out blank,
comment-only and docstring lines) and `tests_lines` (the same of
`tests/**/*.py`), each with the net change, the thread pins,
host and library versions (from the benchmark's header line), and per
workload the median, quartiles and IQR of every end-to-end metric of
BENCHMARK.json plus the plain ms per iteration (judged under `iter_cal`'s
bound), with every run's value, the number of pairs the change wins (ties
count for neither side), a verdict (see `verdict`) and whether `iter_ms`
confirms an `iter_cal` gain (see `summarize`), and per side the median,
quartiles, IQR and every run of each traced per-layer metric. The trees live in a temporary
directory that is removed afterwards; the JSON is written to the
repository root as BENCH_<short sha of the change>.json.
"""
from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 3600
# a claimed gain is judged over ten alternating pairs
PAIRS = 10
# tier-1's wall time moves by seconds between back-to-back runs of one tree
TIER1_ROUNDS = 3
TRACE_ROUNDS = 3
ITER_MS = re.compile(r"^iter_ms \(median of untraced calls\) ([0-9.eE+-]+) ms")
TIER1_COUNTS = re.compile(r"(\d+) (passed|failed|errors?)\b")
# printed after an iter_cal verdict, by its iter_ms_confirms
CONFIRMS = {None: "", True: ", confirmed by iter_ms",
            False: ", not confirmed by iter_ms"}
TIER1_COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors",
                 "-p", "no:cacheprovider"]


def progress(message: str) -> None:
    print(f"[bench_record {time.strftime('%H:%M:%S')}] {message}",
          file=sys.stderr, flush=True)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def alternating(rounds: int):
    """(round, side) in run order: the parent first in even rounds, the
    change first in odd ones."""
    for round_ in range(rounds):
        for side in (("parent", "change") if round_ % 2 == 0
                     else ("change", "parent")):
            yield round_, side


def export(commit: str, dest: str) -> None:
    """Write the committed files of `commit` into the empty directory `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_bench(tree: str, args: list[str]):
    """One `bench/run.py` process in `tree`: (headers, result, iter_ms) where
    headers and iter_ms are keyed by workload and result is the last line."""
    child = subprocess.run([sys.executable, "bench/run.py", *args], cwd=tree,
                           capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"bench/run.py {' '.join(args)} in {tree} exited "
                           f"{child.returncode}:\n{child.stderr[-2000:]}")
    headers, iter_ms, workload = {}, {}, None
    for line in child.stdout.splitlines():
        if line.startswith("# header: "):
            header = json.loads(line[len("# header: "):])
            workload = header["workload"]
            headers[workload] = header
        elif (match := ITER_MS.match(line)) is not None:
            iter_ms[workload] = float(match.group(1))
    result = json.loads(child.stdout.splitlines()[-1])
    if not result["correct"]:
        # a run with a failed operation reports no metrics to compare
        raise RuntimeError(f"bench/run.py {' '.join(args)} in {tree}: "
                           f"{result['failed']} of {result['attempted']} "
                           "operations failed")
    return headers, result, iter_ms


def tier1(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    start = time.monotonic()
    child = subprocess.run([sys.executable, *TIER1_COMMAND], cwd=tree, env=env,
                           capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    wall_s = time.monotonic() - start
    summary = child.stdout.strip().splitlines()[-1] if child.stdout.strip() else ""
    counts = {kind.rstrip("s"): int(n) for n, kind in TIER1_COUNTS.findall(summary)}
    # pytest exits 1 when tests fail, which is still a result to record
    if child.returncode not in (0, 1) or not counts:
        raise RuntimeError(f"tier-1 in {tree} exited {child.returncode} with "
                           f"summary {summary!r}:\n{child.stderr[-2000:]}")
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0), "wall_s": round(wall_s, 2),
            "summary": summary}


def py_lines(tree: str, top: str) -> dict:
    """Total lines of `tree`'s top/**/*.py, and the code lines among them:
    the lines that are not blank, comment-only or part of a docstring."""
    total = code = 0
    for path in glob.glob(os.path.join(tree, top, "**", "*.py"), recursive=True):
        with open(path) as fh:
            text = fh.read()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        lines = text.splitlines()
        total += len(lines)
        code += sum(1 for number, line in enumerate(lines, 1)
                    if line.strip() and not line.lstrip().startswith("#")
                    and number not in docstrings)
    return {"total": total, "code": code}


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and IQR of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def trace_spreads(runs: list[dict]) -> dict:
    """The `spread` of every metric over one side's traced runs, each run a
    {metric: value} dict."""
    return {key: spread([run[key] for run in runs]) for key in runs[0]}


def verdict(entry: dict) -> str:
    """How one metric of one workload compares, from a `summarize` entry:

    * "gain": the change wins at least 9 in 10 pairs and its median is
      better than the parent's by more than the parent's IQR;
    * "worse": the change's median is worse than the parent's by more than
      `bound` times the parent's median;
    * "unresolved": the parent's IQR exceeds `bound` times its median and
      not every change run is better than every parent run;
    * "within bound": none of these;
    * "no bound": not a gain, for a metric without a bound.
    """
    parent, change = entry["parent"], entry["change"]
    sign = 1.0 if entry["better"] == "lower" else -1.0
    # positive when the change's median is worse
    loss = sign * (change["median"] - parent["median"])
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and -loss > parent["iqr"]:
        return "gain"
    bound = entry["bound"]
    if bound is None:
        return "no bound"
    allowed = bound * abs(parent["median"])
    if loss > allowed:
        return "worse"
    all_better = (max(sign * v for v in change["runs"])
                  < min(sign * v for v in parent["runs"]))
    if parent["iqr"] > allowed and not all_better:
        return "unresolved"
    return "within bound"


def metric_specs(benchmark: dict) -> dict:
    """BENCHMARK.json's end-to-end metrics by name, plus the plain ms per
    iteration under `iter_cal`'s bound: a calibrated gain that the plain
    time does not show is no gain."""
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    metrics["iter_ms"] = {"unit": "ms/iter", "better": "lower",
                          "bound": metrics["iter_cal"]["bound"]}
    return metrics


def summarize(runs: dict, metrics: dict) -> dict:
    """Per workload and metric: both sides' spreads, the pairs the change
    wins, the ratio of the medians and the verdict. When both `iter_cal`
    and `iter_ms` are measured, the `iter_cal` entry also says whether the
    `iter_ms` of the same pairs confirms its gain: `iter_ms_confirms` is
    None when `iter_cal` shows no gain, else whether `iter_ms` reads a gain
    too."""
    workloads = sorted({key.split(".", 1)[0]
                        for key in runs["parent"][0]["metrics"]})
    out = {}
    for workload in workloads:
        out[workload] = {}
        for metric, spec in metrics.items():
            key = f"{workload}.{metric}"
            sides = {side: [r["metrics"][key]["value"] if metric != "iter_ms"
                            else r["iter_ms"][workload] for r in runs[side]]
                     for side in ("parent", "change")}
            sign = 1.0 if spec["better"] == "lower" else -1.0
            wins = sum(sign * (c - p) < 0
                       for p, c in zip(sides["parent"], sides["change"]))
            entry = {"unit": spec["unit"], "better": spec["better"],
                     "bound": spec.get("bound"),
                     "parent": spread(sides["parent"]),
                     "change": spread(sides["change"]),
                     "change_wins": wins, "pairs": len(sides["parent"])}
            base = entry["parent"]["median"]
            entry["median_ratio"] = entry["change"]["median"] / base if base else None
            entry["verdict"] = verdict(entry)
            out[workload][metric] = entry
        if "iter_cal" in out[workload] and "iter_ms" in out[workload]:
            cal = out[workload]["iter_cal"]
            cal["iter_ms_confirms"] = (
                out[workload]["iter_ms"]["verdict"] == "gain"
                if cal["verdict"] == "gain" else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    seconds = benchmark["run_seconds"]
    metrics = metric_specs(benchmark)
    commits = {"parent": git("rev-parse", "--verify", args.parent + "^{commit}"),
               "change": git("rev-parse", "--verify", args.change + "^{commit}")}
    short = git("rev-parse", "--short=7", commits["change"])
    out_path = os.path.join(ROOT, f"BENCH_{short}.json")

    workdir = tempfile.mkdtemp(prefix="bench-record-")
    # "parent" and "change" have the same length, so both trees sit at
    # paths of equal length and depth
    trees = {side: os.path.join(workdir, side) for side in commits}
    try:
        for side, commit in commits.items():
            export(commit, trees[side])
        lines = {}
        for top in ("src", "tests"):
            counts = {side: py_lines(tree, top) for side, tree in trees.items()}
            counts["net"] = {kind: counts["change"][kind] - counts["parent"][kind]
                             for kind in ("total", "code")}
            lines[top] = counts
        bench_args = ["--workload", "all", "--seed", str(args.seed),
                      "--seconds", str(seconds), "--trace", "0"]
        runs = {"parent": [], "change": []}
        headers = {}
        for pair, side in alternating(PAIRS):
            progress(f"pair {pair + 1}/{PAIRS}: {side}")
            hdrs, result, iter_ms = run_bench(trees[side], bench_args)
            headers.setdefault(side, hdrs)
            runs[side].append({**result, "iter_ms": iter_ms})
        trace_args = ["--workload", "all", "--seed", str(args.seed),
                      "--seconds", str(seconds), "--trace", "1"]
        traces = {"parent": [], "change": []}
        for round_, side in alternating(TRACE_ROUNDS):
            progress(f"trace round {round_ + 1}/{TRACE_ROUNDS}: {side}")
            traces[side].append({k: v["value"] for k, v in
                                 run_bench(trees[side], trace_args)[1]["metrics"].items()})
        tier1_rounds = {"parent": [], "change": []}
        for round_, side in alternating(TIER1_ROUNDS):
            progress(f"tier-1 round {round_ + 1}/{TIER1_ROUNDS}: {side}")
            tier1_rounds[side].append(tier1(trees[side]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first_header = next(iter(headers["change"].values()))
    record = {
        "commits": commits,
        "src_lines": lines["src"],
        "tests_lines": lines["tests"],
        "command": "python3 bench/run.py " + " ".join(bench_args),
        "pairs": PAIRS,
        "thread_pins": first_header["thread_pins"],
        "host": {"nproc": first_header["nproc"], "machine": platform.machine(),
                 "system": platform.system(), "python": first_header["python"],
                 "numpy": first_header["numpy"], "blas": first_header["blas"]},
        "operations": {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                              "failed": sum(r["failed"] for r in runs[side])}
                       for side in commits},
        "workloads": summarize(runs, metrics),
        "trace": {"command": "python3 bench/run.py " + " ".join(trace_args),
                  "rounds": TRACE_ROUNDS,
                  **{side: trace_spreads(side_runs)
                     for side, side_runs in traces.items()}},
        "tier1": {"command": "PYTHONPATH=src python3 " + " ".join(TIER1_COMMAND),
                  **{side: {"rounds": rounds,
                            "wall_s": spread([r["wall_s"] for r in rounds])}
                     for side, rounds in tier1_rounds.items()}},
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    progress(f"wrote {out_path}")
    for top, counts in lines.items():
        print(f"{top}/ lines: total {counts['parent']['total']} -> "
              f"{counts['change']['total']} ({counts['net']['total']:+d}), code "
              f"{counts['parent']['code']} -> {counts['change']['code']} "
              f"({counts['net']['code']:+d})")
    for workload, table in record["workloads"].items():
        for metric, entry in table.items():
            print(f"{workload:22s} {metric:12s} parent {entry['parent']['median']:.6g}"
                  f" (IQR {entry['parent']['iqr']:.3g})  change "
                  f"{entry['change']['median']:.6g} (IQR {entry['change']['iqr']:.3g})"
                  f"  change wins {entry['change_wins']}/{entry['pairs']}"
                  f"  {entry['verdict']}{CONFIRMS[entry.get('iter_ms_confirms')]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
