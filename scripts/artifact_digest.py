"""Print one sha256 over reproducible training artifacts.

The digest covers:

* `train_expert` on every built-in environment: the weights, the whitening
  statistics and a seeded evaluation of the result;
* `train_ailsrs` on lqr2d demonstrations recorded from the lqr2d expert,
  for two seeds: every metrics column except the measured `wall_ms`;
* one short `train_ailsrs` run on pointmass2d demonstrations of a PD
  controller with 20 discriminator Adam steps of 1000 rows per iteration,
  which exercises the discriminator training path far more than the
  lqr2d runs;
* the recorded demonstration sets, of the lqr2d and pendulum experts and
  of the pointmass2d PD controller: the states, actions and environment
  rewards of every episode. The pendulum's states are its observations
  (cos phi, sin phi, phidot), which no other term hashes directly;
* the policy file that the `bc` command writes from the lqr2d
  demonstrations with `--ridge 1e-8`.

Two checkouts whose training is bit-identical print the same digest, so a
refactor that must not change any artifact is checked with

    python3 scripts/artifact_digest.py

run once at each commit, with the same copy of this script. It uses only
`train_expert`, `train_ailsrs`, `record` and the episodes of the set it
returns, `save_trajectories`, `evaluate_policy`, `LinearPolicy`,
`ObservationNormalizer` and the `bc` command line, whose signatures are
stable.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

# ailsrs before numpy, so the package's BLAS thread pin takes effect
from ailsrs import cli  # noqa: E402
from ailsrs.ars import ArsConfig  # noqa: E402
from ailsrs.demo_io import record, save_trajectories  # noqa: E402
from ailsrs.envs import evaluate_policy  # noqa: E402
from ailsrs.policy import LinearPolicy, ObservationNormalizer  # noqa: E402
from ailsrs.trainer import TrainerConfig, train_ailsrs, train_expert  # noqa: E402
import numpy as np  # noqa: E402

ENVS = ("lqr2d", "pointmass2d", "pendulum")
EXPERT_ITERATIONS = 40
IMITATION_SEEDS = (1, 2)
ROW_COLUMNS = ("iteration", "mean_disc_return", "sigma_r", "disc_loss",
               "eval_env_return_mean", "eval_env_return_std")
PD_GAINS = np.array([[-1.0, 0.0, -1.5, 0.0], [0.0, -1.0, 0.0, -1.5]])


def add_policy(h, policy, normalizer) -> None:
    for a in (policy.theta, normalizer.mean, normalizer.variance()):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(repr(normalizer.count).encode())


def add_demos(h, demos) -> None:
    for t in demos.trajectories:
        for a in (t.states, t.actions, t.env_rewards):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())


def add_run(h, policy, normalizer, rows) -> None:
    add_policy(h, policy, normalizer)
    h.update(repr([tuple(getattr(r, c) for c in ROW_COLUMNS)
                   for r in rows]).encode())


def add_cloned(h, demos) -> None:
    """Hash the policy file `bc --ridge 1e-8` writes from `demos`."""
    with tempfile.TemporaryDirectory() as tmp:
        demos_path = os.path.join(tmp, "demos.jsonl")
        save_trajectories(demos, demos_path)
        out = os.path.join(tmp, "bc.policy")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["bc", "--demos", demos_path, "--out", out,
                           "--ridge", "1e-8"])
        if rc != 0:
            raise SystemExit(f"bc --ridge 1e-8 exited with {rc}")
        with open(out, "rb") as fh:
            h.update(fh.read())


def main() -> None:
    h = hashlib.sha256()
    ars = ArsConfig(alpha=0.02, nu=0.03, n_directions=8)
    experts = {}
    for env in ENVS:
        policy, normalizer = train_expert(env, ars, EXPERT_ITERATIONS, seed=1)
        experts[env] = policy, normalizer
        add_policy(h, policy, normalizer)
        h.update(repr(evaluate_policy(policy, normalizer, env, 20, 0)).encode())
    demos = record(*experts["lqr2d"], "lqr2d", 10, 0)
    add_demos(h, demos)
    add_demos(h, record(*experts["pendulum"], "pendulum", 10, 0))
    add_cloned(h, demos)
    for seed in IMITATION_SEEDS:
        cfg = TrainerConfig(ars=ars, max_iterations=30, eval_every=10,
                            eval_episodes=5, seed=seed)
        add_run(h, *train_ailsrs("lqr2d", demos, cfg))
    pd_demos = record(LinearPolicy(PD_GAINS), ObservationNormalizer.for_dim(4),
                      "pointmass2d", 5, 0)
    add_demos(h, pd_demos)
    cfg = TrainerConfig(ars=ArsConfig(alpha=0.02, nu=0.03, n_directions=4),
                        max_iterations=5, disc_iters=20, disc_batch=1000,
                        eval_every=5, eval_episodes=5, seed=1)
    add_run(h, *train_ailsrs("pointmass2d", pd_demos, cfg))
    print(h.hexdigest())


if __name__ == "__main__":
    main()
