"""Command-line front end for the full pipeline:

    train-expert -> record -> bc -> train -> eval

Every command is deterministic given its flags. Exit codes: 0 success,
1 runtime failure, 2 usage error. `record`, `eval` and `train` run on the
environment named in the policy or demonstrations file they read.
"""
from __future__ import annotations

import argparse
import math
import sys

from .ars import ArsConfig
from .demo_io import (load_policy, load_trajectories, record, save_policy,
                      save_trajectories)
from .envs import env_names, evaluate_policy
from .policy import bc_closed_form
from .trainer import (TrainerConfig, return_target, train_ailsrs, train_expert,
                      write_metrics)


def _positive(typ, allow_zero=False):
    """argparse `type=` accepting only finite numbers > 0 (>= 0) of `typ`."""
    def parse(text: str):
        value = typ(text)
        if not (math.isfinite(value) and (value > 0 or allow_zero and value == 0)):
            wanted = "non-negative" if allow_zero else "positive"
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    parse.__name__ = typ.__name__  # names the type in argparse's messages
    return parse


def _ars_config(args) -> ArsConfig:
    return ArsConfig(alpha=args.alpha, nu=args.nu, n_directions=args.n_dirs)


def cmd_train_expert(args) -> int:
    policy, normalizer = train_expert(args.env, _ars_config(args), args.iters,
                                      args.seed)
    save_policy(policy, normalizer, args.env, args.out)
    mean, std = evaluate_policy(policy, normalizer, args.env,
                                args.eval_episodes, args.seed)
    print(f"trained expert on {args.env}: eval return {mean:.6g} +- {std:.6g} "
          f"over {args.eval_episodes} episodes")
    print(f"wrote {args.out}")
    return 0


def cmd_record(args) -> int:
    policy, normalizer, env = load_policy(args.policy)
    demos = record(policy, normalizer, env, args.episodes, args.seed)
    save_trajectories(demos, args.out)
    print(f"recorded {args.episodes} episodes on {env}; "
          f"mean return {demos.mean_env_return():.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_bc(args) -> int:
    demos = load_trajectories(args.demos)
    policy, normalizer = bc_closed_form(*demos.rows(), ridge=args.ridge)
    save_policy(policy, normalizer, demos.env_name, args.out)
    mean, std = evaluate_policy(policy, normalizer, demos.env_name, 100, 0)
    print(f"cloned policy from {len(demos)} episodes: eval return "
          f"{mean:.6g} +- {std:.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    demos = load_trajectories(args.demos)
    env = demos.env_name
    target = None if args.target_frac is None else return_target(
        demos.mean_env_return(), args.target_frac)
    cfg = TrainerConfig(ars=_ars_config(args), max_iterations=args.iters,
                        disc_lr=args.disc_lr, disc_iters=args.disc_iters,
                        disc_batch=args.disc_batch, eval_every=args.eval_every,
                        eval_episodes=args.eval_episodes, seed=args.seed,
                        early_stop_target=target)
    init = None
    if args.init:
        pol, norm, init_env = load_policy(args.init)
        if init_env != env:
            raise ValueError(f"{args.init} is a {init_env} policy, but "
                             f"{args.demos} holds {env} demonstrations")
        init = (pol, norm)
    policy, normalizer, rows = train_ailsrs(env, demos, cfg, init=init)
    save_policy(policy, normalizer, env, args.out)
    if args.metrics:
        write_metrics(rows, args.metrics)
        print(f"wrote {args.metrics} ({len(rows)} rows)")
    # train_ailsrs has evaluated the last row with this policy and seed
    print(f"imitation training finished after {len(rows)} iterations: "
          f"eval return {rows[-1].eval_env_return_mean:.6g} "
          f"+- {rows[-1].eval_env_return_std:.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    policy, normalizer, env = load_policy(args.policy)
    mean, std = evaluate_policy(policy, normalizer, env, args.episodes,
                                args.seed)
    print(f"{mean:.6g} +- {std:.6g}")
    return 0


def _search_flags(p, n_dirs: int, eval_episodes: int) -> None:
    """The search settings that both training commands take."""
    p.add_argument("--iters", type=_positive(int), required=True)
    p.add_argument("--n-dirs", type=_positive(int), default=n_dirs)
    p.add_argument("--alpha", type=_positive(float), default=ArsConfig.alpha)
    p.add_argument("--nu", type=_positive(float), default=ArsConfig.nu)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-episodes", type=_positive(int), default=eval_episodes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ailsrs",
        description="Imitation learning with random-search policy updates "
                    "and a discriminator reward, on built-in control tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-expert",
                       help="train a policy on raw environment reward")
    p.add_argument("--env", required=True, choices=env_names())
    _search_flags(p, n_dirs=8, eval_episodes=100)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_train_expert)

    p = sub.add_parser("record", help="record demonstration episodes")
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=_positive(int), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=cmd_record)

    p = sub.add_parser("bc", help="behavior-clone a policy from demonstrations")
    p.add_argument("--demos", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ridge", type=_positive(float, allow_zero=True), default=1e-8,
                   help="ridge of the least-squares solve (default: 1e-8)")
    p.set_defaults(run=cmd_bc)

    p = sub.add_parser("train",
                       help="imitation training on discriminator reward only")
    p.add_argument("--demos", required=True)
    p.add_argument("--init", default=None,
                   help="warm-start policy file (e.g. from bc)")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    _search_flags(p, n_dirs=ArsConfig.n_directions,
                  eval_episodes=TrainerConfig.eval_episodes)
    p.add_argument("--disc-lr", type=_positive(float), default=TrainerConfig.disc_lr)
    p.add_argument("--disc-iters", type=_positive(int, allow_zero=True),
                   default=TrainerConfig.disc_iters)
    p.add_argument("--disc-batch", type=_positive(int), default=None,
                   help="discriminator minibatch rows (default: the horizon)")
    p.add_argument("--eval-every", type=_positive(int),
                   default=TrainerConfig.eval_every)
    p.add_argument("--target-frac", type=_positive(float), default=None,
                   help="early-stop when eval reaches this fraction of the "
                        "demo mean return")
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("eval", help="evaluate a policy file")
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=_positive(int), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as exc:  # runtime failures: message on stderr, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
