"""Session fixtures for the expensive canonical runs, shared across files,
plus the end-of-run acceptance verdict section."""
import time

import pytest

import _acceptance_report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_report.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_report.VERDICTS:
            terminalreporter.line(line)

from ailsrs.ars import ArsConfig
from ailsrs.demo_io import record
from ailsrs.envs import evaluate_policy, riccati_optimal
from ailsrs.policy import LinearPolicy
from ailsrs.trainer import TrainerConfig, return_target, search, train_ailsrs


@pytest.fixture(scope="session")
def riccati_expert():
    """Optimal lqr2d policy with its 100-episode seed-0 mean return."""
    pol, norm, mean = riccati_optimal(seed=0, episodes=100)
    return pol, norm, mean


@pytest.fixture(scope="session")
def riccati_demos_50(riccati_expert):
    pol, norm, _ = riccati_expert
    return record(pol, norm, "lqr2d", episodes=50, seed=0)


@pytest.fixture(scope="session")
def lqr_expert_run():
    """The canonical plain-search expert run (N=8, alpha=.02, nu=.03, seed 1,
    500 iterations) with an eval trace every 10 iterations."""
    cfg = TrainerConfig(ars=ArsConfig(alpha=0.02, nu=0.03, n_directions=8),
                        max_iterations=500, seed=1)
    evals = []
    started = time.perf_counter()
    for theta, norm, row in search("lqr2d", cfg):
        train_seconds = time.perf_counter() - started
        if (row.iteration + 1) % 10 == 0:
            mean, _ = evaluate_policy(LinearPolicy(theta), norm, "lqr2d", 100, 0)
            evals.append((row.iteration, mean))
    return {"policy": LinearPolicy(theta), "normalizer": norm,
            "evals": evals, "train_seconds": train_seconds}


@pytest.fixture(scope="session")
def e2e_runs(riccati_demos_50, riccati_expert):
    """Imitation training on seeds 1-3 against the 50-episode demo set."""
    _, _, expert_mean = riccati_expert
    target = return_target(expert_mean, 0.9)
    out = []
    started = time.perf_counter()
    for seed in (1, 2, 3):
        cfg = TrainerConfig(ars=ArsConfig(alpha=0.02, nu=0.03, n_directions=32),
                            max_iterations=2000, eval_every=10,
                            eval_episodes=10, seed=seed,
                            early_stop_target=target)
        policy, norm, rows = train_ailsrs("lqr2d", riccati_demos_50, cfg)
        evals = [(r.iteration, r.eval_env_return_mean) for r in rows
                 if r.eval_env_return_mean is not None]
        hits = [it for it, m in evals if m >= target]
        out.append({"seed": seed, "cfg": cfg, "policy": policy, "normalizer": norm,
                    "rows": rows, "evals": evals,
                    "hit_iteration": hits[0] if hits else None,
                    "final_eval": evals[-1][1]})
    return {"runs": out, "target": target, "expert_mean": expert_mean,
            "total_seconds": time.perf_counter() - started}
