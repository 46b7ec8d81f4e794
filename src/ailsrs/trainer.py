"""Training: one antithetic random-search loop for both reward sources.

`search` climbs the environment reward (expert training) or, given
demonstrations, a discriminator reward (imitation). One iteration:

1. sample N directions and roll out the +/- policy pair for each, which
   gives the environment returns;
2. imitation only: score the (2N, T, n+p) block of [state, action] rows,
   joined once, under the discriminator of the iteration's start (one
   frozen snapshot for all 2N episodes, so the pairwise comparisons are
   meaningful) on its helper thread; the caller takes a few Adam steps on
   a flat view of the block against the demonstrations, then helps score;
3. fold all visited states into the observation normalizer (in
   imitation, during step 2, before the caller helps score);
4. update the policy weights from the returns.

Neither the Adam steps nor the merge reads a score, and the scores read the
parameters captured before the first step, so the overlap changes no bit.
In imitation, environment returns never reach the policy update.
"""
from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .ars import ArsConfig, ars_update, evaluate_directions, sample_directions
from .demo_io import TrajectorySet
from .discriminator import disc_init, disc_train
from .envs import evaluate_policy, make_env
from .numerics import AdamState, Rng, check_integer
from .policy import LinearPolicy, ObservationNormalizer

# label namespaces for the per-iteration derived streams
DIRECTIONS_STREAM = 0
ROLLOUT_STREAM = 1
DISC_BATCH_STREAM = 2
DISC_INIT_STREAM = 3


@dataclass
class TrainerConfig:
    ars: ArsConfig = field(default_factory=ArsConfig)
    max_iterations: int = 100_000
    disc_lr: float = 0.00025
    disc_iters: int = 3
    disc_batch: int | None = None   # None: the environment's horizon
    eval_every: int = 10
    eval_episodes: int = 10
    seed: int = 0
    early_stop_target: float | None = None  # absolute eval return; None: off

    def __post_init__(self):
        if not 0 < self.disc_lr < math.inf:
            raise ValueError("disc_lr must be positive and finite")
        for name, minimum in (("max_iterations", 1), ("disc_iters", 0),
                              ("eval_every", 1), ("eval_episodes", 1), ("seed", None)):
            check_integer(name, getattr(self, name), minimum)
        if self.disc_batch is not None:
            check_integer("disc_batch", self.disc_batch, 1)
        if not math.isfinite(self.early_stop_target or 0.0):  # None is off
            raise ValueError("early_stop_target must be finite or None")


@dataclass
class MetricsRow:
    iteration: int
    mean_disc_return: float
    sigma_r: float
    disc_loss: float | None           # None when training on env reward
    eval_env_return_mean: float | None
    eval_env_return_std: float | None
    wall_ms: float


def write_metrics(rows: list[MetricsRow], path: str) -> None:
    """One CSV column per MetricsRow field: repr of the value, empty for None."""
    with open(path, "w") as fh:
        fh.write(",".join(f.name for f in fields(MetricsRow)) + "\n")
        for r in rows:
            fh.write(",".join("" if v is None else repr(v)
                              for v in astuple(r)) + "\n")


def return_target(reference_return: float, fraction: float) -> float:
    """Return threshold meaning "within `fraction` of the reference".

    For non-negative references this is fraction * reference. Our
    environments are pure cost (returns <= 0), where scaling a negative
    reference by the fraction would demand a policy strictly better than
    the reference; there the bound is reference / fraction, i.e. cost at
    most 1/fraction times the reference cost.
    """
    if not 0 < fraction < math.inf:
        raise ValueError(f"fraction must be positive and finite, got {fraction!r}")
    if not math.isfinite(reference_return):
        raise ValueError(f"reference_return must be finite, got {reference_return!r}")
    if reference_return >= 0:
        return reference_return * fraction
    return reference_return / fraction


def search(env_name: str, cfg: TrainerConfig,
           expert: TrajectorySet | None = None,
           init: tuple[LinearPolicy, ObservationNormalizer] | None = None):
    """Yield (theta, normalizer, MetricsRow) after each of at most
    `cfg.max_iterations` iterations, starting from a copy of `init` or zero.

    `expert` None climbs the environment reward, else a discriminator reward
    trained against these demonstrations. The caller may evaluate or stop
    between yields; the normalizer is the loop's own (read it, do not
    mutate it) and the rows' eval columns are left empty. Raises
    FloatingPointError at the first non-finite return, weight or
    discriminator parameter. Deterministic given (cfg, expert data, init).
    """
    spec = make_env(env_name).spec
    root = Rng(cfg.seed)
    disc = adam = expert_pairs = None
    if expert is not None:
        if expert.env_name != env_name:
            raise ValueError(f"demonstrations are for {expert.env_name!r}; "
                             f"requested {env_name!r}")
        expert.validate()
        expert_pairs = np.concatenate(expert.rows(), axis=1)  # (M, n+p)
        disc = disc_init(spec.state_dim, spec.action_dim,
                         root.derive(DISC_INIT_STREAM))
        adam = AdamState.zeros(disc.n_params)
        batch = cfg.disc_batch if cfg.disc_batch is not None else spec.horizon
    if init is None:
        init = (LinearPolicy.zeros(spec.action_dim, spec.state_dim),
                ObservationNormalizer.for_dim(spec.state_dim))
    pol, norm = init
    if pol.theta.shape != (spec.action_dim, spec.state_dim):
        raise ValueError("init policy dims do not match the environment")
    theta, normalizer = pol.theta.copy(), norm.copy()
    for t in range(cfg.max_iterations):
        started = time.perf_counter()
        deltas = sample_directions(root.derive(DIRECTIONS_STREAM, t),
                                   cfg.ars.n_directions, spec.action_dim,
                                   spec.state_dim)
        returns, states, actions = evaluate_directions(
            theta, deltas, cfg.ars.nu, env_name, normalizer,
            root.derive(ROLLOUT_STREAM, t))
        visited = states.reshape(-1, spec.state_dim)
        disc_loss = None
        if expert is None:
            normalizer.add_states(visited)
        else:
            # (2N, T, n+p) rows, scored as episodes and trained on as a view
            pairs = np.concatenate([states, actions], axis=2)

            def train_and_fold():
                nonlocal disc_loss
                disc_loss = disc_train(
                    disc, adam, expert_pairs, pairs.reshape(-1, pairs.shape[-1]),
                    cfg.disc_iters, batch, root.derive(DISC_BATCH_STREAM, t),
                    lr=cfg.disc_lr)
                normalizer.add_states(visited)

            # each row of the C-contiguous (2N, T) rewards is summed
            # pairwise, as np.sum sums that row alone
            returns = disc.reward_batch(pairs, train_and_fold).sum(
                axis=1).reshape(-1, 2)
        theta = ars_update(theta, deltas, returns, cfg.ars.alpha)
        if not (np.isfinite(returns).all() and np.isfinite(theta).all()):
            bad = np.flatnonzero(~np.isfinite(returns).all(axis=1))
            where = (f"the returns of direction {bad[0]}" if bad.size
                     else "the updated weights")
            raise FloatingPointError(f"iteration {t}: non-finite value in {where}")
        if expert is not None and not np.isfinite(disc._vector).all():
            raise FloatingPointError(f"iteration {t}: non-finite value in "
                                     "the discriminator parameters")
        wall_ms = (time.perf_counter() - started) * 1000.0
        yield theta, normalizer, MetricsRow(
            t, float(returns.mean()), float(returns.std()), disc_loss,
            None, None, wall_ms)


def train_expert(env_name: str, ars_cfg: ArsConfig, iterations: int,
                 seed: int):
    """Plain random-search training on the raw environment reward."""
    cfg = TrainerConfig(ars=ars_cfg, max_iterations=iterations, seed=seed)
    for theta, normalizer, _ in search(env_name, cfg):
        pass
    return LinearPolicy(theta), normalizer


def train_ailsrs(env_name: str, expert: TrajectorySet, cfg: TrainerConfig,
                 init: tuple[LinearPolicy, ObservationNormalizer] | None = None):
    """Imitation training driven purely by discriminator rewards.

    Returns (policy, normalizer, metrics rows). Periodic evaluations use the
    true environment reward for reporting/early-stop only and never touch
    the normalizer. Fully deterministic given (cfg, expert data).
    """
    rows: list[MetricsRow] = []
    for theta, normalizer, row in search(env_name, cfg, expert, init):
        t = row.iteration
        if (t + 1) % cfg.eval_every == 0 or t == cfg.max_iterations - 1:
            row.eval_env_return_mean, row.eval_env_return_std = evaluate_policy(
                LinearPolicy(theta), normalizer, env_name, cfg.eval_episodes,
                cfg.seed)
        rows.append(row)
        if (cfg.early_stop_target is not None
                and row.eval_env_return_mean is not None
                and row.eval_env_return_mean >= cfg.early_stop_target):
            break
    return LinearPolicy(theta), normalizer, rows
