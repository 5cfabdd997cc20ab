"""Spans around the program's public functions, set from outside the program.

A hook replaces a function where its caller looks it up (a module global or
a class attribute) with a wrapper that times the call.  Wrapped calls nest:
a span's self time is its duration minus the time of wrapped spans inside
it.  A hooked name that no longer exists is recorded as missing, and the
metrics that depend on it are reported as absent; tracing never stops a run.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

# (module, attribute, span): every place a caller looks the function up
HOOKS = (
    ("search", "distance_field", "grid.bfs"),
    ("lifelong", "distance_field", "grid.bfs"),
    ("oneshot", "distance_field", "grid.bfs"),
    ("grid", "parse_movingai_map", "grid.load"),
    ("grid", "largest_component_grid", "grid.load"),
    ("usage", "UsageTable.add_path", "usage.update"),
    ("usage", "UsageTable.remove_path", "usage.update"),
    ("search", "find_path_cost_to_go", "search.cost_to_go"),
    ("lifelong", "find_path_cost_to_go", "search.cost_to_go"),
    ("search", "find_path_cost_to_come", "search.cost_to_come"),
    ("search", "plan_independent_paths", "search.passes"),
    ("oneshot", "plan_independent_paths", "search.passes"),
    ("lifelong", "apply_horizon_cut", "lifelong.cut"),
    ("lifelong", "windowed_solver", "lifelong.window"),
    ("oneshot", "default_resolver_prioritized", "oneshot.resolve"),
    ("oneshot", "timed_conflicts", "metrics.conflict_scan"),
    ("oneshot", "max_vertex_overlap", "metrics.overlap"),
    ("oneshot", "total_pairwise_overlap", "metrics.overlap"),
)

KERNEL_COUNTS = ("expansions", "generated", "penalty_bound_violations")

# counts read at a span's hook, lost with it
DERIVED = {
    "grid.bfs": ("grid.bfs_cells",),
    "search.cost_to_go": tuple(f"search.{c}" for c in KERNEL_COUNTS),
    "search.cost_to_come": tuple(f"search.{c}" for c in KERNEL_COUNTS),
    "lifelong.cut": ("lifelong.target_conflicts",),
}


def resolve(module: str, attribute: str):
    """(owner, name) for a dotted attribute of a program module, or None."""
    try:
        owner = importlib.import_module(f"spreadplan.{module}")
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, name, None)):
        return None
    return owner, name


def target_conflicts(target_lists) -> int:
    """Pairs of robots sent to the same final target in one cycle."""
    finals: dict = {}
    for targets in target_lists:
        if targets:
            finals[targets[-1]] = finals.get(targets[-1], 0) + 1
    return sum(c * (c - 1) // 2 for c in finals.values())


class Tracer:
    """Per-span calls, total and self time, plus counts read at the hooks."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # span -> [calls, total s, self s]
        self.counts: dict[str, float] = {}
        self.missing: set[str] = set()     # spans or counts with a lost hook
        self._open: list[float] = []       # child time of each open span
        self._installed: list = []

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _timed(self, fn, span: str):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - t0
                inner = self._open.pop()
                if self._open:
                    self._open[-1] += took
                rec = self.spans.setdefault(span, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += took
                rec[2] += took - inner
        return traced

    def _counting(self, fn, timed, span: str):
        """Wrappers that also read counts from what the call returns."""
        if span == "grid.bfs":
            def traced(*args, **kwargs):
                field = timed(*args, **kwargs)
                try:
                    self.add("grid.bfs_cells", len(getattr(field, "dist", field)))
                except TypeError:
                    self.missing.add("grid.bfs_cells")
                return field
            return traced
        if span == "lifelong.cut":
            def traced(*args, **kwargs):
                targets = timed(*args, **kwargs)
                self.add("lifelong.target_conflicts", target_conflicts(targets))
                return targets
            return traced
        if span in ("search.cost_to_go", "search.cost_to_come"):
            return self._kernel(fn, timed)
        return timed

    def _kernel(self, fn, timed):
        """Reads the SearchStats the kernel fills, passing one in if the
        caller did not."""
        signature = inspect.signature(fn)
        try:
            from spreadplan.search import SearchStats
        except ImportError:
            SearchStats = None
        if SearchStats is None or "stats" not in signature.parameters:
            self.missing.update(f"search.{c}" for c in KERNEL_COUNTS)
            return timed

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            stats = bound.arguments.get("stats")
            if stats is None:
                stats = bound.arguments["stats"] = SearchStats()
            before = [getattr(stats, c) for c in KERNEL_COUNTS]
            path = timed(*bound.args, **bound.kwargs)
            for c, b in zip(KERNEL_COUNTS, before):
                self.add(f"search.{c}", getattr(stats, c) - b)
            return path
        return traced

    def install(self) -> None:
        for module, attribute, span in HOOKS:
            found = resolve(module, attribute)
            if found is None:
                self.missing.add(span)
                self.missing.update(DERIVED.get(span, ()))
                continue
            owner, name = found
            fn = getattr(owner, name)
            setattr(owner, name,
                    self._counting(fn, self._timed(fn, span), span))
            self._installed.append((owner, name, fn))

    def uninstall(self) -> None:
        while self._installed:
            owner, name, fn = self._installed.pop()
            setattr(owner, name, fn)


class Capture:
    """Keeps what a function returns, for checks that need more than the
    program's final result.  Unlike a span, a capture is required: without
    it the check cannot be made, so a lost name stops the run."""

    def __init__(self, module: str, *names: str):
        self.taken: dict[str, list] = {n: [] for n in names}
        self._installed = []
        for name in names:
            found = resolve(module, name)
            if found is None:
                raise RuntimeError(
                    f"spreadplan.{module}.{name} is gone; the checks of this "
                    "workload need what it returns")
            owner, attr = found
            fn = getattr(owner, attr)
            setattr(owner, attr, self._keep(fn, self.taken[name]))
            self._installed.append((owner, attr, fn))

    @staticmethod
    def _keep(fn, into: list):
        def kept(*args, **kwargs):
            result = fn(*args, **kwargs)
            into.append(result)
            return result
        return kept

    def clear(self) -> None:
        for taken in self.taken.values():
            taken.clear()

    def uninstall(self) -> None:
        while self._installed:
            owner, name, fn = self._installed.pop()
            setattr(owner, name, fn)
