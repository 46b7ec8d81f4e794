#!/usr/bin/env python3
"""Benchmark of ailsrs training, one workload per process.

    python3 bench/run.py --workload imitate-lqr2d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is imported from `src/` next to this directory. A run sets up
the workload (demonstrations recorded and round-tripped through a file),
then repeats one short training call until `--seconds` have passed (at
least twice) and checks that every call produced finite, identical
results. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With `--trace 0` the metrics are the end-to-end ones (iter_cal, setup_s,
eval_cost, peak_rss_mb). With `--trace 1` the calls alternate between
untraced and traced, and the metrics are the per-layer ones taken from the
traced calls, plus the tracing overhead. See bench/README.md.
"""
import os
import sys
import time

# Pinned before numpy is first imported: OpenBLAS reads them only at load.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
THREADS_VAR = "AILSRS_THREADS"
os.environ.update(THREAD_PINS)
INHERITED_THREADS = os.environ.pop(THREADS_VAR, None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import numpy as np
    # The program is called through its modules (ailsrs.record, not a
    # copied name), so the tracer's wrappers are seen by these calls too.
    import ailsrs
    import ailsrs.envs
except ImportError as exc:
    sys.exit(f"error: cannot import the program from {SRC}: {exc}")
if os.path.dirname(os.path.abspath(ailsrs.__file__)) != os.path.join(SRC, "ailsrs"):
    sys.exit(f"error: imported ailsrs from {ailsrs.__file__}, not from {SRC}")

from tracing import Boundary, Tracer, arg, function, method  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    """One training call, repeated for the length of a run."""

    env: str
    n_directions: int
    iterations: int                 # per timed training call
    reference_iterations: int       # of the call that gives eval_cost
    demonstrator: str | None        # None: trained on environment reward
    demo_episodes: int = 0
    disc_iters: int = 3
    disc_batch: int | None = None   # None: the trainer default, one episode


# Why each workload exists is in README.md; in short: imitate-lqr2d is the
# discriminator read path (rollouts + scoring), expert-pendulum has no
# discriminator at all, disctrain-pointmass2d is the discriminator write
# path (backprop + Adam) on 6-wide inputs.
WORKLOADS = {
    "imitate-lqr2d": Workload("lqr2d", 32, 10, 20, "riccati", 50),
    "expert-pendulum": Workload("pendulum", 8, 5, 40, None),
    "disctrain-pointmass2d": Workload("pointmass2d", 4, 5, 6, "pd", 20,
                                      disc_iters=20, disc_batch=1000),
}
PD_GAINS = [[-1.0, 0.0, -1.5, 0.0], [0.0, -1.0, 0.0, -1.5]]
EVAL_EPISODES = 100
EVAL_SEED = 0
# eval_cost comes from these seeds, the ones of the canonical lqr2d runs
REFERENCE_DEMO_SEED = 0
REFERENCE_TRAIN_SEED = 1
SETUP_PROBES = 7    # set-ups per run; setup_s is their median
MIN_CALLS = 2       # the determinism check needs two calls of one seed

END_TO_END = {"iter_cal": "cal", "setup_s": "s", "eval_cost": "cost",
              "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    """A training call produced output that fails a correctness check."""


# ---------------------------------------------------------------------------
# the workload: set-up and one training call
# ---------------------------------------------------------------------------
def setup(wl: Workload, seed: int, workdir: str):
    """Build the demonstrator, record its demonstrations and round-trip them
    through a file. Returns the loaded set, or None for expert training."""
    if wl.demonstrator is None:
        return None
    if wl.demonstrator == "riccati":
        policy, normalizer, _ = ailsrs.riccati_optimal(seed=seed, episodes=100)
    else:
        policy = ailsrs.LinearPolicy(np.array(PD_GAINS))
        normalizer = ailsrs.ObservationNormalizer.for_dim(len(PD_GAINS[0]))
    demos = ailsrs.record(policy, normalizer, wl.env, wl.demo_episodes, seed)
    path = os.path.join(workdir, "demos.jsonl")
    ailsrs.save_trajectories(demos, path)
    loaded = ailsrs.load_trajectories(path)
    for a, b in zip(demos.trajectories, loaded.trajectories, strict=True):
        if not (np.array_equal(a.states, b.states)
                and np.array_equal(a.actions, b.actions)
                and np.array_equal(a.env_rewards, b.env_rewards)):
            raise CheckFailed("demonstrations changed in a save/load round trip")
    return loaded


def train(wl: Workload, seed: int, demos, iterations: int):
    """One training call; returns (policy, normalizer, metrics rows)."""
    ars = ailsrs.ArsConfig(alpha=0.02, nu=0.03, n_directions=wl.n_directions)
    if demos is None:
        policy, normalizer = ailsrs.train_expert(wl.env, ars, iterations, seed)
        return policy, normalizer, []
    cfg = ailsrs.TrainerConfig(ars=ars, max_iterations=iterations,
                               disc_iters=wl.disc_iters,
                               disc_batch=wl.disc_batch, eval_every=10,
                               eval_episodes=10, seed=seed)
    return ailsrs.train_ailsrs(wl.env, demos, cfg)


def reproducible_columns(rows) -> list[dict]:
    """Every metrics column but the measured wall_ms."""
    out = []
    for row in rows:
        cols = dataclasses.asdict(row)
        cols.pop("wall_ms")
        out.append(cols)
    return out


def check_and_digest(policy, normalizer, rows) -> str:
    """Raise CheckFailed on non-finite output; else hash everything the call
    must reproduce for its seed: weights, whitening statistics and the
    reproducible metrics columns."""
    arrays = [np.asarray(policy.theta, dtype=float),
              np.asarray(normalizer.mean, dtype=float),
              np.asarray(normalizer.variance(), dtype=float)]
    columns = reproducible_columns(rows)
    values = [v for cols in columns for v in cols.values() if v is not None]
    if not (all(np.all(np.isfinite(a)) for a in arrays)
            and np.all(np.isfinite(values))):
        raise CheckFailed("non-finite weights, whitening statistics or metrics")
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((normalizer.count, columns)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# tracing: the layer boundaries and the per-layer metrics
# ---------------------------------------------------------------------------
def _env_step_targets():
    from ailsrs.envs import env_names, make_env
    return [(type(make_env(name)), "step") for name in env_names()]


def _steps(args, kwargs, result):
    """Env steps of one call: one per row of a batched action."""
    action = arg(args, kwargs, 1, "action")
    return 1 if np.ndim(action) <= 1 else len(action)


BOUNDARIES = [
    Boundary("ars.sample_directions", function("ailsrs.ars", "sample_directions")),
    Boundary("ars.evaluate_directions",
             function("ailsrs.ars", "evaluate_directions")),
    Boundary("ars.update", function("ailsrs.ars", "ars_update"),
             count=lambda a, k, r: int(np.array_equal(r, arg(a, k, 0, "theta")))),
    Boundary("envs.rollout", function("ailsrs.envs", "rollout"), charged=False),
    Boundary("envs.step", _env_step_targets, charged=False, count=_steps),
    Boundary("envs.evaluate_policy", function("ailsrs.envs", "evaluate_policy")),
    Boundary("discriminator.init", function("ailsrs.discriminator", "disc_init")),
    Boundary("discriminator.score",
             method("ailsrs.discriminator", "MlpDiscriminator", "reward_batch"),
             count=lambda a, k, r: len(arg(a, k, 1, "states"))),
    Boundary("discriminator.train", function("ailsrs.discriminator", "disc_train")),
    Boundary("discriminator.loss", function("ailsrs.discriminator", "lsgan_loss")),
    Boundary("discriminator.grad", function("ailsrs.discriminator", "lsgan_grad"),
             count=lambda a, k, r: (len(arg(a, k, 1, "expert_inputs"))
                                    + len(arg(a, k, 2, "sampled_inputs")))),
    Boundary("numerics.adam", function("ailsrs.numerics", "adam_step")),
    Boundary("numerics.index_draw", method("ailsrs.numerics", "Rng", "integers")),
    Boundary("policy.normalizer_merge",
             method("ailsrs.policy", "ObservationNormalizer", "add_states")),
    Boundary("demo_io.record", function("ailsrs.demo_io", "record")),
    Boundary("demo_io.save", function("ailsrs.demo_io", "save_trajectories"),
             count=lambda a, k, r: os.path.getsize(arg(a, k, 1, "path"))),
    Boundary("demo_io.load", function("ailsrs.demo_io", "load_trajectories")),
]
TRAIN_SPAN = "trainer.train"

# per-layer metric -> (boundary, statistic, normalization, unit)
#   statistic: total (ms), self (ms), calls, units, unit_us (us per unit)
#   normalization: iter (per training iteration), call (per training call),
#                  setup (per set-up), none
LAYER_METRICS = {
    "ars.sample_directions_ms": ("ars.sample_directions", "total", "iter", "ms/iter"),
    "ars.evaluate_directions_self_ms": ("ars.evaluate_directions", "self", "iter", "ms/iter"),
    "ars.update_ms": ("ars.update", "total", "iter", "ms/iter"),
    "ars.update_skipped": ("ars.update", "units", "call", "count/call"),
    "envs.steps": ("envs.step", "units", "iter", "count/iter"),
    "envs.step_us": ("envs.step", "unit_us", "none", "us/step"),
    "envs.rollout_calls": ("envs.rollout", "calls", "iter", "count/iter"),
    "envs.eval_ms": ("envs.evaluate_policy", "total", "iter", "ms/iter"),
    "discriminator.score_ms": ("discriminator.score", "total", "iter", "ms/iter"),
    "discriminator.score_calls": ("discriminator.score", "calls", "iter", "count/iter"),
    "discriminator.pairs_scored": ("discriminator.score", "units", "iter", "count/iter"),
    "discriminator.train_ms": ("discriminator.train", "total", "iter", "ms/iter"),
    "discriminator.loss_ms": ("discriminator.loss", "total", "iter", "ms/iter"),
    "discriminator.grad_ms": ("discriminator.grad", "total", "iter", "ms/iter"),
    "discriminator.train_rows": ("discriminator.grad", "units", "iter", "count/iter"),
    "numerics.adam_ms": ("numerics.adam", "total", "iter", "ms/iter"),
    "numerics.index_draw_ms": ("numerics.index_draw", "total", "iter", "ms/iter"),
    "policy.normalizer_merge_ms": ("policy.normalizer_merge", "total", "iter", "ms/iter"),
    "trainer.self_ms": (TRAIN_SPAN, "self", "iter", "ms/iter"),
    "trainer.iterations": (TRAIN_SPAN, "iterations", "call", "count/call"),
    "discriminator.init_ms": ("discriminator.init", "total", "call", "ms/call"),
    "demo_io.record_ms": ("demo_io.record", "total", "setup", "ms/setup"),
    "demo_io.save_ms": ("demo_io.save", "total", "setup", "ms/setup"),
    "demo_io.load_ms": ("demo_io.load", "total", "setup", "ms/setup"),
    "demo_io.bytes": ("demo_io.save", "units", "setup", "bytes/setup"),
}


def layer_metrics(train_tracer: Tracer, setup_tracer: Tracer, iterations: int,
                  calls: int) -> dict:
    """Per-layer metrics of the traced calls; absent boundaries read 0."""
    out = {}
    for name, (boundary, stat, per, unit) in LAYER_METRICS.items():
        tracer = setup_tracer if per == "setup" else train_tracer
        s = tracer.stats[boundary]
        value = {"total": s.total_s * 1e3, "self": s.self_s * 1e3,
                 "calls": s.calls, "units": s.units, "iterations": iterations,
                 "unit_us": s.total_s * 1e6 / s.units if s.units else 0.0}[stat]
        out[name] = (value / {"iter": iterations, "call": calls,
                              "setup": 1, "none": 1}[per], unit)
    return out


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh processes, of process start to the end of set-up:
    imports, the demonstrator, and the demonstrations' save/load round trip."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            raise CheckFailed(f"set-up failed with exit code {probe.returncode}")
        samples.append(float(probe.stdout.split()[-1]) - spawned)
    return statistics.median(samples)


def calibration_ms() -> float:
    """Wall ms of a fixed loop in the style of the program: scalar Python
    math and small numpy operations as in an environment step, then
    1000x100 by 100x100 products as in the discriminator. It runs before
    and after each timed call, when the program runs no code, to measure
    the host's speed around that call."""
    started = time.perf_counter()
    theta = np.array([[-0.5, -0.8]])
    s = np.array([0.5, -0.5])
    for _ in range(3000):
        a = np.clip(theta @ s, -1.0, 1.0)
        s = np.array([s[0] + 0.1 * s[1], s[1] + 0.1 * a[0]])
        math.sin(s[0] * s[1])
    x = np.full((1000, 100), 0.01)
    w = np.full((100, 100), 0.01)
    for _ in range(5):
        x = np.tanh(x @ w)
    return (time.perf_counter() - started) * 1e3


def run_calls(wl: Workload, seed: int, seconds: float, demos,
              tracer: Tracer | None):
    """Repeat the training call for `seconds` (at least MIN_CALLS times).

    With a tracer, every second call is traced. Each untraced call runs
    between two calibration loops. Returns (untraced ms/iter list, their
    mean calibration ms list, traced ms/iter list, traced iterations,
    attempted, failed). A call fails if it raises, produces non-finite
    output or differs from the first call of the run; the first failure
    ends the loop.
    """
    plain, calibration, traced, traced_iters = [], [], [], 0
    attempted = failed = 0
    first_digest = None
    started = time.perf_counter()
    while True:
        use_trace = tracer is not None and attempted % 2 == 1
        attempted += 1
        try:
            with contextlib.ExitStack() as spans:
                if use_trace:
                    spans.enter_context(tracer.installed())
                    spans.enter_context(tracer.root(TRAIN_SPAN))
                else:
                    before = calibration_ms()
                t0 = time.perf_counter()
                policy, normalizer, rows = train(wl, seed, demos,
                                                 wl.iterations)
                elapsed = time.perf_counter() - t0
            digest = check_and_digest(policy, normalizer, rows)
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                raise CheckFailed("a repeated call with the same seed produced "
                                  "different weights, statistics or metrics")
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        iterations = len(rows) if rows else wl.iterations
        if use_trace:
            traced.append(elapsed * 1e3 / iterations)
            traced_iters += iterations
        else:
            plain.append(elapsed * 1e3 / iterations)
            calibration.append((before + calibration_ms()) / 2)
        spent = time.perf_counter() - started
        if attempted >= MIN_CALLS and spent + elapsed > seconds:
            break
    return plain, calibration, traced, traced_iters, attempted, failed


def reference_cost(wl: Workload) -> float:
    """eval_cost: minus the mean env return, over 100 fixed episodes, of the
    policy one training call makes from the canonical seeds. It does not
    depend on --seed, so every run of a commit reads the same value."""
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        demos = setup(wl, REFERENCE_DEMO_SEED, workdir)
    policy, normalizer, rows = train(wl, REFERENCE_TRAIN_SEED, demos,
                                     wl.reference_iterations)
    check_and_digest(policy, normalizer, rows)
    mean_return, _ = ailsrs.envs.evaluate_policy(policy, normalizer, wl.env,
                                                 EVAL_EPISODES, EVAL_SEED)
    if not np.isfinite(mean_return):
        raise CheckFailed("eval_cost is not finite")
    return -mean_return


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    train_tracer = Tracer(BOUNDARIES) if trace else None
    setup_tracer = Tracer(BOUNDARIES)
    setup_s = None if trace else setup_seconds(name, seed)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir, \
            (setup_tracer.installed() if trace else contextlib.nullcontext()):
        demos = setup(wl, seed, workdir)
    plain, calibration, traced, traced_iters, attempted, failed = run_calls(
        wl, seed, seconds, demos, train_tracer)
    attempted += 1
    try:
        eval_cost = reference_cost(wl)
    except Exception:
        traceback.print_exc()
        failed += 1
    print(f"operations: {attempted} attempted, {failed} failed")
    for label, values in (("untraced", plain), ("traced", traced)):
        if values:
            print(f"ms/iter of {len(values)} {label} calls: min {min(values):.6g}"
                  f" median {statistics.median(values):.6g} max {max(values):.6g}")
    metrics = {}
    if failed:
        print("no metrics: an operation failed", file=sys.stderr)
    elif trace:
        metrics = layer_metrics(train_tracer, setup_tracer, traced_iters,
                                len(traced))
        metrics["trace.overhead_ms"] = (
            statistics.median(traced) - statistics.median(plain), "ms/iter")
        metrics["trainer.iter_ms"] = (statistics.median(plain), "ms/iter")
        metrics["host.calibration_ms"] = (statistics.median(calibration), "ms")
        metrics["trace.absent_boundaries"] = (len(train_tracer.absent), "count")
        if train_tracer.absent:
            print("absent boundaries (reported as 0): "
                  + ", ".join(train_tracer.absent))
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # On a shared host the CPU speed swings by up to 1.7x for seconds to
        # minutes (README.md); dividing each call by the calibration loops
        # around it cancels most of that swing.
        iter_cal = statistics.median(p / c for p, c in zip(plain, calibration))
        print(f"iter_ms (median of untraced calls) {statistics.median(plain):.6g} ms;"
              f" calibration loop {statistics.median(calibration):.6g} ms")
        values = {"iter_cal": iter_cal, "setup_s": setup_s,
                  "eval_cost": eval_cost, "peak_rss_mb": peak_rss_mb}
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    for metric, (value, unit) in metrics.items():
        print(f"{metric:34s} {value:14.6g} {unit}")
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# header, all-workload mode, entry point
# ---------------------------------------------------------------------------
def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
    except OSError:
        pass
    return "unknown"


def header(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "thread_pins": THREAD_PINS,
        THREADS_VAR: ("unset" if INHERITED_THREADS is None
                      else f"unset (was {INHERITED_THREADS!r})"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process, so that peak_rss_mb
    and setup_s stay per-workload; prints one combined JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"error: workload {name} exited with {child.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(child.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.setup_probe:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as d:
            setup(WORKLOADS[args.workload], args.seed, d)
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all(args)
    print("# header: " + json.dumps(header(args)))
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
