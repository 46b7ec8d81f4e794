"""Per-layer tracing of ailsrs from outside the package.

Each `Boundary` names a public function or method of one module. `Tracer`
wraps it for the duration of a traced call and restores the original
afterwards, so the program's source carries no tracing code. A wrapper is
installed in every place the original object is reachable: the owning
class, or every `ailsrs.*` module namespace that bound the function by
name (`from .ars import evaluate_directions` copies the reference).

A boundary whose target no longer exists (renamed, deleted, folded into
another function) is reported as absent with zero counts instead of
raising, so the benchmark keeps running across refactors.

Self time: a *charged* span subtracts from the self time of the nearest
enclosing charged span. A transparent span (per-step and per-episode
boundaries) only counts calls, rows and total time; the spans nested in it
charge the enclosing charged span directly. That makes, for example,
`evaluate_directions` self time equal to its span minus its nested
`reward_batch` spans, with the per-step Python of the rollout included.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "ailsrs"


@dataclass(frozen=True)
class Boundary:
    """One traced layer boundary.

    `targets` returns the (owner, attribute) pairs to wrap; it may raise
    AttributeError or ImportError when the boundary is gone, and a pair
    whose attribute is not a function defined on that owner is skipped. `count`, if
    given, maps (args, kwargs, result) of one call to the units of work it
    did (rows scored, env steps taken, updates skipped, ...).
    """

    name: str
    targets: Callable[[], list]
    charged: bool = True
    count: Callable | None = None


@dataclass
class Stats:
    calls: int = 0
    units: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def function(module: str, attr: str) -> Callable[[], list]:
    """Targets of a module-level function."""
    return lambda: [(importlib.import_module(module), attr)]


def method(module: str, cls: str, attr: str) -> Callable[[], list]:
    """Targets of a method defined on one class."""
    return lambda: [(getattr(importlib.import_module(module), cls), attr)]


def arg(args: tuple, kwargs: dict, index: int, name: str):
    """Argument `index` (counting self) of a call, passed by position or name."""
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs wrappers on a set of boundaries and accumulates their stats."""

    def __init__(self, boundaries: list[Boundary]):
        self.boundaries = boundaries
        self.stats = {b.name: Stats() for b in boundaries}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every boundary that exists; record the ones that do not."""
        self.absent = []
        for b in self.boundaries:
            try:
                targets = b.targets()
            except (AttributeError, ImportError):
                targets = []
            wrapped = 0
            for owner, attr in targets:
                original = vars(owner).get(attr)
                if not inspect.isfunction(original):
                    continue
                wrapper = self._wrap(original, self.stats[b.name], b)
                if inspect.isclass(owner):
                    self._patch(owner, attr, wrapper)
                else:
                    self._patch_everywhere(original, wrapper)
                wrapped += 1
            if not wrapped:
                self.absent.append(b.name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def root(self, name: str):
        """A charged span opened by the benchmark itself, e.g. a training call."""
        stats = self.stats.setdefault(name, Stats())
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(stats, time.perf_counter() - started)

    def _close(self, stats: Stats, elapsed: float) -> None:
        """End the innermost charged span and charge it to its parent."""
        stats.calls += 1
        stats.total_s += elapsed
        stats.self_s += elapsed - self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _wrap(self, original, stats: Stats, b: Boundary):
        stack, close, count = self._stack, self._close, b.count
        clock = time.perf_counter

        def charged(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                close(stats, clock() - started)
            if count is not None:
                stats.units += count(args, kwargs, result)
            return result

        # per-step boundaries: kept to the fewest operations, since their
        # cost is most of the tracing overhead
        def transparent(*args, **kwargs):
            started = clock()
            result = original(*args, **kwargs)
            stats.total_s += clock() - started
            stats.calls += 1
            if count is not None:
                stats.units += count(args, kwargs, result)
            return result

        traced = charged if b.charged else transparent

        traced.__wrapped__ = original
        return traced
