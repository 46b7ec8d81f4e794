"""Demonstration recording plus line-oriented persistence for
trajectory sets and policies.

Both file formats are JSON-based text (one header line plus one line per
episode for demonstrations; a single document for policies) and carry a
format_version field: 1 for demonstrations, 2 for policies (version-1
policies act on mean-centred inputs, so they are rejected, not reinterpreted).
Floats serialize via repr, i.e. shortest round-trip decimals, so save -> load
is exact. The dims in a header are the env spec's: the savers write them and
the loaders check them. Every fault in a file, or in a set or policy about to
be saved, is a FormatError; a loader's names the file and the line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .envs import EnvSpec, env_names, episode_keys, make_env, rollout
from .policy import LinearPolicy, ObservationNormalizer

FORMAT_VERSION = 1
POLICY_FORMAT_VERSION = 2


class FormatError(ValueError):
    """Malformed or inconsistent data file."""


@dataclass
class Trajectory:
    """One episode of raw states, executed (clipped) actions and env rewards.
    Rollouts are (B, T, .) array blocks; episodes take this form only in a
    demonstrations file, where their lengths may differ."""

    states: np.ndarray       # (T, n)
    actions: np.ndarray      # (T, p)
    env_rewards: np.ndarray  # (T,)


@dataclass
class TrajectorySet:
    """Recorded demonstration episodes for one environment, whose spec gives
    the widths of their states and actions."""

    env_name: str
    trajectories: list[Trajectory]

    def __len__(self) -> int:
        return len(self.trajectories)

    def mean_env_return(self) -> float:
        return float(np.mean([t.env_rewards.sum() for t in self.trajectories]))

    def validate(self, message=lambda k, fault: f"episode {k}: {fault}") -> None:
        """Raise a FormatError at the first bad episode, described by
        message(k, fault)."""
        if not self.trajectories:
            raise FormatError("a trajectory set needs >= 1 episode")
        spec = make_env(self.env_name).spec
        for k, t in enumerate(self.trajectories):
            if t.states.ndim != 2 or t.actions.ndim != 2 or t.env_rewards.ndim != 1:
                raise FormatError(message(
                    k, "states and actions must be 2-D arrays, env_rewards 1-D"))
            if not (len(t.states) == len(t.actions) == len(t.env_rewards)):
                raise FormatError(message(k, "ragged lengths"))
            if len(t.states) < 1:
                raise FormatError(message(k, "empty"))
            if t.states.shape[1] != spec.state_dim:
                raise FormatError(message(
                    k, f"states are {t.states.shape[1]}-dim, "
                    f"expected {spec.state_dim}"))
            if t.actions.shape[1] != spec.action_dim:
                raise FormatError(message(
                    k, f"actions are {t.actions.shape[1]}-dim, "
                    f"expected {spec.action_dim}"))
            for arr in (t.states, t.actions, t.env_rewards):
                _check_values(arr, lambda fault: message(k, fault))


def record(policy: LinearPolicy, normalizer: ObservationNormalizer,
           env_name: str, episodes: int, seed: int) -> TrajectorySet:
    """Roll the policy out for `episodes` seeded episodes and keep everything.

    Uses the same per-episode streams as evaluation, so the recorded mean
    return equals the evaluation mean for the same (policy, seed, episodes).
    """
    env = make_env(env_name)
    *block, _ = rollout(env, policy.theta, normalizer,
                        episode_keys(seed, episodes))
    return TrajectorySet(env_name, [Trajectory(*episode) for episode in zip(*block)])


def save_trajectories(demo_set: TrajectorySet, path: str) -> None:
    spec = _spec(path, demo_set.env_name)
    demo_set.validate()
    with open(path, "w") as fh:
        fh.write(json.dumps({"format_version": FORMAT_VERSION, "env": spec.name,
                             "state_dim": spec.state_dim,
                             "action_dim": spec.action_dim,
                             "episodes": len(demo_set)}) + "\n")
        for t in demo_set.trajectories:
            fh.write(json.dumps({"states": t.states.tolist(),
                                 "actions": t.actions.tolist(),
                                 "env_rewards": t.env_rewards.tolist()}) + "\n")


def _is_int(value) -> bool:
    # JSON true and false load as bools, which are ints to Python
    return isinstance(value, int) and not isinstance(value, bool)


def _check_values(arr: np.ndarray, message) -> None:
    """Raise unless an array holds finite integers or floats, which JSON
    writes as numbers that load back (bools, complex numbers and long
    doubles do not); message(fault) describes the fault."""
    if arr.dtype.kind not in "iuf" or not np.can_cast(arr.dtype, float):
        raise FormatError(message(f"{arr.dtype} values, not integers or floats"))
    if not np.all(np.isfinite(arr)):
        raise FormatError(message("non-finite value"))


def _floats(value) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array. Unlike
    np.array(..., dtype=float) alone, it rejects numeric strings and bools."""
    leaves = [value]
    while (types := set(map(type, leaves))) == {list}:
        leaves = list(chain.from_iterable(leaves))
    if not types <= {int, float}:  # a bool's type is bool, not int
        wrong = ", ".join(sorted(t.__name__ for t in types - {int, float}))
        raise TypeError(f"expected numbers, found {wrong}")
    return np.array(value, dtype=float)


def _parse_object(path: str, line_no: int, text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: bad JSON on line {line_no}: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected an object on line {line_no}")
    return obj


def _spec(path: str, env_name) -> EnvSpec:
    """The spec of the built-in env that a file names on its line 1; a
    FormatError naming the path and line 1 if there is no such env."""
    if env_name not in env_names():
        raise FormatError(f"{path}: unknown environment {env_name!r}; valid "
                          f"names: {', '.join(env_names())} (line 1)")
    return make_env(env_name).spec


def _check_header(path: str, header: dict, version: int, keys) -> EnvSpec:
    """Check the header read from a file's line 1: its version, the presence
    of `keys` beside env, state_dim and action_dim, and that the env is built
    in with exactly these dims. Returns the env's spec."""
    if header.get("format_version") != version:
        raise FormatError(
            f"{path}: format_version {header.get('format_version')!r}, "
            f"expected {version} (line 1)")
    for key in ("env", "state_dim", "action_dim", *keys):
        if key not in header:
            raise FormatError(f"{path}: header missing {key!r} (line 1)")
    spec = _spec(path, header["env"])
    for key, expected in (("state_dim", spec.state_dim),
                          ("action_dim", spec.action_dim)):
        if not _is_int(header[key]):
            raise FormatError(f"{path}: header {key} {header[key]!r} is not an "
                              "integer (line 1)")
        if header[key] != expected:
            raise FormatError(f"{path}: header {key} {header[key]} does not "
                              f"match {spec.name}'s {expected} (line 1)")
    return spec


def load_trajectories(path: str) -> TrajectorySet:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file (line 1)")
    header = _parse_object(path, 1, lines[0])
    spec = _check_header(path, header, FORMAT_VERSION, ("episodes",))
    episodes = header["episodes"]
    # a set needs >= 1 episode, so 0 is rejected here, where the line is known
    if not _is_int(episodes) or episodes < 1:
        raise FormatError(f"{path}: header episodes {episodes!r} is not a "
                          "positive integer (line 1)")
    if len(lines) - 1 != episodes:
        raise FormatError(
            f"{path}: header promises {episodes} episodes but file has "
            f"{len(lines) - 1} (line {len(lines)})")
    trajectories = []
    for k in range(episodes):
        obj = _parse_object(path, k + 2, lines[k + 1])
        try:
            trajectories.append(Trajectory(*(
                _floats(obj[key]) for key in ("states", "actions", "env_rewards"))))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad episode on line {k + 2}: {exc}") from None
    out = TrajectorySet(spec.name, trajectories)
    out.validate(lambda k, fault: f"{path}: {fault} on line {k + 2}")
    return out


def save_policy(policy: LinearPolicy, normalizer: ObservationNormalizer,
                env_name: str, path: str) -> None:
    theta, mu, var = policy.theta, normalizer.mean, normalizer.variance()
    spec = _spec(path, env_name)
    _check_policy(path, spec, theta, mu, var, normalizer.count)
    with open(path, "w") as fh:
        fh.write(json.dumps({"format_version": POLICY_FORMAT_VERSION,
                             "env": spec.name, "state_dim": spec.state_dim,
                             "action_dim": spec.action_dim, "theta": theta.tolist(),
                             "mu": mu.tolist(), "var": var.tolist(),
                             "count": normalizer.count}) + "\n")


def _check_policy(path: str, spec: EnvSpec, theta: np.ndarray, mu: np.ndarray,
                  var: np.ndarray, count) -> None:
    """Check a policy file's count and arrays, loaded or about to be saved,
    against the env's spec: a policy that saves is one that loads."""
    if not _is_int(count) or count < 0:
        raise FormatError(f"{path}: count {count!r} is not a non-negative "
                          "integer (line 1)")
    if theta.shape != (spec.action_dim, spec.state_dim):
        raise FormatError(f"{path}: theta shape {theta.shape} does not match "
                          "header dims (line 1)")
    if mu.shape != (spec.state_dim,) or var.shape != (spec.state_dim,):
        raise FormatError(f"{path}: mu/var must be state_dim vectors (line 1)")
    for arr in (theta, mu, var):
        _check_values(arr, lambda fault: f"{path}: {fault} (line 1)")
    if np.any(var < 0):
        raise FormatError(f"{path}: negative variance (line 1)")


def load_policy(path: str):
    """Read a policy file; returns (policy, normalizer, env_name)."""
    with open(path) as fh:
        doc = _parse_object(path, 1, fh.read())
    spec = _check_header(path, doc, POLICY_FORMAT_VERSION,
                         ("theta", "mu", "var", "count"))
    try:
        theta, mu, var = (_floats(doc[key]) for key in ("theta", "mu", "var"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: bad array on line 1: {exc}") from None
    _check_policy(path, spec, theta, mu, var, doc["count"])
    # the accumulator is reconstructed as var * count; observable stats
    # (mean, variance, count) are what the format preserves
    normalizer = ObservationNormalizer(doc["count"], mu, var * doc["count"])
    return LinearPolicy(theta), normalizer, spec.name
