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
from types import SimpleNamespace

import numpy as np

from .envs import EnvSpec, env_names, episode_keys, make_env, rollout
from .policy import LinearPolicy, ObservationNormalizer

FORMAT_VERSION = 1
POLICY_FORMAT_VERSION = 2
_KEYS = ("states", "actions", "env_rewards")  # of an episode line


class FormatError(ValueError):
    """Malformed or inconsistent data file."""


@dataclass
class TrajectorySet:
    """Demonstrations for one environment as one block of E equal-length
    episodes, whose widths n and p the env's spec gives."""

    env_name: str
    states: np.ndarray       # (E, T, n) raw
    actions: np.ndarray      # (E, T, p) executed (clipped)
    env_rewards: np.ndarray  # (E, T)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def trajectories(self):
        # Per-episode views, only for bench/run.py's round-trip check until
        # the bench compares the three arrays; nothing in the package reads it.
        return (SimpleNamespace(**dict(zip(_KEYS, episode))) for episode
                in zip(self.states, self.actions, self.env_rewards))

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(E·T, n) states and (E·T, p) actions of every step, episode by
        episode, as views of contiguous blocks: the learners' view, which
        leaves the env rewards out of training."""
        return (self.states.reshape(-1, self.states.shape[-1]),
                self.actions.reshape(-1, self.actions.shape[-1]))

    def mean_env_return(self) -> float:
        """Mean over episodes of the return, each summed in step order as
        `rollout` sums it (see there for the + 0.0)."""
        return float(np.mean(np.cumsum(self.env_rewards, axis=1)[:, -1] + 0.0))

    def validate(self, message=lambda k, fault: f"episode {k}: {fault}") -> None:
        """Raise a FormatError at the first bad episode, described by
        message(k, fault); a fault of a whole block is episode 0's."""
        blocks = (self.states, self.actions, self.env_rewards)
        if tuple(block.ndim for block in blocks) != (3, 3, 2):
            raise FormatError(message(0, "an episode's states and actions must "
                                      "be 2-D arrays, its env_rewards 1-D"))
        if len({block.shape[:2] for block in blocks}) > 1:
            raise FormatError(message(0, "ragged lengths"))
        if 0 in self.env_rewards.shape:
            raise FormatError("a trajectory set needs >= 1 episode of >= 1 step")
        spec = make_env(self.env_name).spec
        for name, block, expected in zip(_KEYS, blocks,
                                         (spec.state_dim, spec.action_dim)):
            if block.shape[2] != expected:
                raise FormatError(message(
                    0, f"{name} are {block.shape[2]}-dim, expected {expected}"))
        _check_values(blocks, message)


def record(policy: LinearPolicy, normalizer: ObservationNormalizer,
           env_name: str, episodes: int, seed: int) -> TrajectorySet:
    """Roll the policy out for `episodes` seeded episodes; keep its blocks.

    Uses the same per-episode streams as evaluation, so the recorded mean
    return equals the evaluation mean for the same (policy, seed, episodes).
    """
    *block, _ = rollout(make_env(env_name), policy.theta, normalizer,
                        episode_keys(seed, episodes))
    return TrajectorySet(env_name, *block)


def save_trajectories(demo_set: TrajectorySet, path: str) -> None:
    spec = _spec(path, demo_set.env_name)
    demo_set.validate()
    with open(path, "w") as fh:
        fh.write(json.dumps({"format_version": FORMAT_VERSION, "env": spec.name,
                             "state_dim": spec.state_dim,
                             "action_dim": spec.action_dim,
                             "episodes": len(demo_set)}) + "\n")
        for episode in zip(demo_set.states, demo_set.actions, demo_set.env_rewards):
            fh.write(json.dumps({key: arr.tolist() for key, arr
                                 in zip(_KEYS, episode)}) + "\n")


def _is_int(value) -> bool:
    # JSON true and false load as bools, which are ints to Python
    return isinstance(value, int) and not isinstance(value, bool)


def _check_values(arrays, message) -> None:
    """Raise unless the arrays hold finite integers or floats, which JSON
    writes as numbers that load back (bools, complex numbers and long
    doubles do not); message(k, fault) names the fault at index k of axis 0."""
    for arr in arrays:
        if arr.dtype.kind not in "iuf" or not np.can_cast(arr.dtype, float):
            raise FormatError(message(0, f"{arr.dtype} values, not integers or floats"))
    bad = np.concatenate([np.flatnonzero(~np.isfinite(arr).all(axis=tuple(
        range(1, arr.ndim)))) for arr in arrays])
    if bad.size:
        raise FormatError(message(int(bad.min()), "non-finite value"))


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
    found = header.get("format_version")
    if not _is_int(found) or found != version:
        raise FormatError(
            f"{path}: format_version {found!r}, expected {version} (line 1)")
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
    states, actions, rewards = blocks = ([], [], [])  # one array per line in each
    for line, text in enumerate(lines[1:], 2):
        obj = _parse_object(path, line, text)
        try:
            for block, key in zip(blocks, _KEYS):
                block.append(_floats(obj[key])[None])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad episode on line {line}: {exc}") from None
        TrajectorySet(spec.name, states[-1], actions[-1], rewards[-1]).validate(
            lambda _, fault: f"{path}: {fault} on line {line}")
        if rewards[-1].shape != rewards[0].shape:
            raise FormatError(f"{path}: episode length {rewards[-1].shape[1]} differs "
                              f"from line 2's {rewards[0].shape[1]} on line {line}")
    return TrajectorySet(spec.name, *map(np.concatenate, blocks))


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
    _check_values((theta, mu, var), lambda _, fault: f"{path}: {fault} (line 1)")
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
