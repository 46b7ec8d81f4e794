"""Command-line front end for the full pipeline:

    train-expert -> record -> bc -> train -> eval

Every command is deterministic given its flags. Exit codes: 0 success,
1 runtime failure, 2 usage error. Config files are flat `key = value`
lines (# comments allowed); command-line flags win over file values.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .ars import ArsConfig
from .demo_io import (load_policy, load_trajectories, record, save_policy,
                      save_trajectories)
from .envs import env_names, evaluate_policy, make_env
from .policy import ObservationNormalizer, bc_closed_form, bc_fit
from .trainer import (TrainerConfig, return_target, train_ailsrs, train_expert,
                      write_metrics)

# config-file keys -> (target dataclass attribute, type)
_CONFIG_KEYS = {
    "alpha": ("ars.alpha", float),
    "nu": ("ars.nu", float),
    "n_directions": ("ars.n_directions", int),
    "max_iterations": ("max_iterations", int),
    "disc_lr": ("disc_lr", float),
    "disc_iters": ("disc_iters", int),
    "disc_batch": ("disc_batch", int),
    "eval_every": ("eval_every", int),
    "eval_episodes": ("eval_episodes", int),
    "seed": ("seed", int),
}


class UsageError(Exception):
    pass


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


def parse_config_file(path: str) -> dict:
    """Flat `key = value` file with # comments; unknown keys rejected."""
    values = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected `key = value`")
            key, _, text = line.partition("=")
            key, text = key.strip(), text.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(
                    f"{path}:{line_no}: unknown key {key!r} "
                    f"(valid: {', '.join(sorted(_CONFIG_KEYS))})")
            _, typ = _CONFIG_KEYS[key]
            try:
                values[key] = typ(text)
            except ValueError:
                raise UsageError(
                    f"{path}:{line_no}: {key} wants {typ.__name__}, got {text!r}"
                ) from None
    return values


def build_trainer_config(file_values: dict, flag_values: dict) -> TrainerConfig:
    merged = dict(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    ars_kwargs, top_kwargs = {}, {}
    for key, value in merged.items():
        attr, _ = _CONFIG_KEYS[key]
        if attr.startswith("ars."):
            ars_kwargs[attr[4:]] = value
        else:
            top_kwargs[attr] = value
    try:
        return TrainerConfig(ars=ArsConfig(**ars_kwargs), **top_kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_train_expert(args) -> int:
    ars_cfg = ArsConfig(alpha=args.alpha, nu=args.nu, n_directions=args.n_dirs)
    policy, normalizer = train_expert(args.env, ars_cfg, args.iters, args.seed)
    save_policy(policy, normalizer, args.env, args.out)
    mean, std = evaluate_policy(policy, normalizer, args.env,
                                args.eval_episodes, args.seed)
    print(f"trained expert on {args.env}: eval return {mean:.6g} +- {std:.6g} "
          f"over {args.eval_episodes} episodes")
    print(f"wrote {args.out}")
    return 0


def cmd_record(args) -> int:
    spec = make_env(args.env).spec
    policy, normalizer, _ = load_policy(args.policy, expect_env=spec)
    demos = record(policy, normalizer, args.env, args.episodes, args.seed)
    save_trajectories(demos, args.out)
    print(f"recorded {args.episodes} episodes on {args.env}; "
          f"mean return {demos.mean_env_return():.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_bc(args, parser) -> int:
    if args.ridge is not None and (args.epochs is not None or args.lr is not None):
        parser.error("--ridge and --epochs/--lr are exclusive modes")
    demos = load_trajectories(args.demos)
    states = np.concatenate([t.states for t in demos.trajectories])
    actions = np.concatenate([t.actions for t in demos.trajectories])
    # whiten against the demonstration states so the cloned weights live in
    # the same coordinates a trained policy would use
    normalizer = ObservationNormalizer.for_dim(demos.state_dim)
    normalizer.add_states(states)
    if args.ridge is not None:
        policy = bc_closed_form(states, actions, normalizer, ridge=args.ridge)
    else:
        epochs = args.epochs if args.epochs is not None else 2000
        lr = args.lr if args.lr is not None else 0.01
        policy = bc_fit(states, actions, normalizer, epochs=epochs, lr=lr)
    save_policy(policy, normalizer, demos.env_name, args.out)
    mean, std = evaluate_policy(policy, normalizer, demos.env_name, 100, 0)
    print(f"cloned policy from {len(demos)} episodes: eval return "
          f"{mean:.6g} +- {std:.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    spec = make_env(args.env).spec
    demos = load_trajectories(args.demos)
    file_values = parse_config_file(args.config) if args.config else {}
    cfg = build_trainer_config(file_values, {"seed": args.seed})
    if args.target_frac is not None:
        cfg.early_stop_target = return_target(demos.mean_env_return(),
                                              args.target_frac)
    init = None
    if args.init:
        pol, norm, _ = load_policy(args.init, expect_env=spec)
        init = (pol, norm)
    policy, normalizer, rows = train_ailsrs(args.env, demos, cfg, init=init)
    save_policy(policy, normalizer, args.env, args.out)
    if args.metrics:
        write_metrics(rows, args.metrics)
        print(f"wrote {args.metrics} ({len(rows)} rows)")
    mean, std = evaluate_policy(policy, normalizer, args.env,
                                cfg.eval_episodes, cfg.seed)
    print(f"imitation training finished after {len(rows)} iterations: "
          f"eval return {mean:.6g} +- {std:.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    spec = make_env(args.env).spec
    policy, normalizer, _ = load_policy(args.policy, expect_env=spec)
    mean, std = evaluate_policy(policy, normalizer, args.env, args.episodes,
                                args.seed)
    print(f"{mean:.6g} +- {std:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ailsrs",
        description="Imitation learning with random-search policy updates "
                    "and a discriminator reward, on built-in control tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-expert",
                       help="train a policy on raw environment reward")
    p.add_argument("--env", required=True, choices=env_names())
    p.add_argument("--iters", type=_positive(int), required=True)
    p.add_argument("--n-dirs", type=_positive(int), default=8)
    p.add_argument("--alpha", type=_positive(float), default=0.02)
    p.add_argument("--nu", type=_positive(float), default=0.03)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-episodes", type=_positive(int), default=100)
    p.add_argument("--out", required=True)

    p = sub.add_parser("record", help="record demonstration episodes")
    p.add_argument("--env", required=True, choices=env_names())
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=_positive(int), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bc", help="behavior-clone a policy from demonstrations")
    p.add_argument("--demos", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ridge", type=_positive(float, allow_zero=True), default=None,
                   help="closed-form mode with this ridge")
    p.add_argument("--epochs", type=_positive(int), default=None,
                   help="iterative mode epoch count")
    p.add_argument("--lr", type=_positive(float), default=None,
                   help="iterative mode learning rate")

    p = sub.add_parser("train",
                       help="imitation training on discriminator reward only")
    p.add_argument("--env", required=True, choices=env_names())
    p.add_argument("--demos", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--init", default=None,
                   help="warm-start policy file (e.g. from bc)")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--target-frac", type=_positive(float), default=None,
                   help="early-stop when eval reaches this fraction of the "
                        "demo mean return")

    p = sub.add_parser("eval", help="evaluate a policy file")
    p.add_argument("--env", required=True, choices=env_names())
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=_positive(int), default=100)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train-expert":
            return cmd_train_expert(args)
        if args.command == "record":
            return cmd_record(args)
        if args.command == "bc":
            return cmd_bc(args, parser)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        parser.error(f"unknown command {args.command!r}")
    except UsageError as exc:
        parser.error(str(exc))
    except Exception as exc:  # runtime failures: message on stderr, exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
