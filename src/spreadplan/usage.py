"""Shared-space usage accounting for decoupled multi-robot planning.

A UsageTable counts how many already-planned paths occupy each vertex and each
directed edge, either aggregated over time or per time step.  Searches consult
it through `penalty`, a sub-unit surcharge that steers a robot away from cells
and head-to-head edges other robots have claimed, without ever trading away
path length.

A temporal table stores each occupancy once, as a step in a sorted list per
cell or directed edge, and counts the occupancies whose window covers a step
when it is read, with two bisects.  A path step thus costs one or two list
inserts, however wide the window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

Cell = tuple[int, int]
Path = list[Cell]


@dataclass(frozen=True)
class UsageParams:
    """Weights and windows for the usage penalty.

    vertex_weight + edge_weight must equal 1, so on a table of the other
    robots' paths, none revisiting a cell, the penalty stays below 1.  The
    searches do not rely on that bound: both walk only shortest paths, so
    the penalty only chooses among equal-length paths whatever its size,
    and a penalty of 1 or more is merely counted.  In temporal
    mode, an occupancy at time t also counts for the window_before steps
    before t and the window_after steps after it; occupancies late in a plan
    are the ones most likely to slip, so the forward window is typically the
    larger one.
    """

    vertex_weight: float = 0.5
    edge_weight: float = 0.5
    window_before: int = 0
    window_after: int = 0
    temporal: bool = False
    num_robots: int = 1

    def __post_init__(self) -> None:
        if self.vertex_weight < 0 or self.edge_weight < 0:
            raise ValueError("weights must be nonnegative")
        if abs(self.vertex_weight + self.edge_weight - 1.0) > 1e-9:
            raise ValueError("vertex_weight + edge_weight must equal 1")
        if self.window_before < 0 or self.window_after < 0:
            raise ValueError("windows must be nonnegative")
        if self.num_robots < 1:
            raise ValueError("num_robots must be >= 1")


class UsageUnderflowError(ValueError):
    """Removing a path that was never added."""


@dataclass
class UsageTable:
    """Occupancy counts over vertices and directed edges.

    An aggregate table keeps a counter per (x, y) cell and per directed edge,
    keyed by its (from, to) cell pair.  A temporal table keeps, under the
    same keys, the sorted steps at which a path occupies the cell or arrives
    over the edge; an occupancy at step s counts at every t >= 0 with
    s - window_before <= t <= s + window_after.  Mutated in place by
    add/remove so a planning loop can swap one robot's path without
    rebuilding; remove is the exact inverse of add.
    """

    params: UsageParams = field(default_factory=UsageParams)
    _vertex: dict = field(default_factory=dict, init=False, repr=False)
    _edge: dict = field(default_factory=dict, init=False, repr=False)

    def add_path(self, path: Path) -> None:
        self._update(path, 1)

    def remove_path(self, path: Path) -> None:
        self._update(path, -1)

    def _update(self, path: Path, delta: int) -> None:
        """Add (+1) or remove (-1) the path's claims, vertices first and then
        edges, each in path order.  Removing a claim the table does not hold
        raises; in a temporal table the error names the key with the first
        step of the claim's window."""
        if self.params.temporal:
            edges = [(t, uv) for t, uv in enumerate(zip(path, path[1:]), 1)
                     if uv[0] != uv[1]]
            for steps, claims in ((self._vertex, enumerate(path)),
                                  (self._edge, edges)):
                if delta > 0:
                    for t, key in claims:
                        held = steps.get(key)
                        if held is None:
                            steps[key] = [t]
                        else:
                            insort(held, t)
                else:
                    for t, key in claims:
                        held = steps.get(key, ())
                        i = bisect_left(held, t)
                        if i == len(held) or held[i] != t:
                            first = max(0, t - self.params.window_before)
                            raise UsageUnderflowError(
                                f"count underflow at {(*key, first)}")
                        if len(held) == 1:
                            del steps[key]
                        else:
                            del held[i]
            return
        edge_keys = [uv for uv in zip(path, path[1:]) if uv[0] != uv[1]]
        for counts, keys in ((self._vertex, path), (self._edge, edge_keys)):
            for key in keys:
                c = counts.get(key, 0) + delta
                if c > 0:
                    counts[key] = c
                elif c == 0:
                    del counts[key]
                else:
                    raise UsageUnderflowError(f"count underflow at {key}")

    def penalty(self, frm: Cell, to: Cell, t: int = 0) -> float:
        """Surcharge for arriving at `to` from `frm` at time t.

        The vertex term counts claims on the destination; the edge term counts
        robots traversing the opposite direction (to -> frm), i.e. head-to-head
        exposure.  Wait moves have no edge term.  Aggregate tables ignore t.
        """
        params = self.params
        if params.temporal:
            if t < 0:
                return 0.0
            lo, hi = t - params.window_after, t + params.window_before
            held = self._vertex.get(to)
            vcount = 0 if held is None else (bisect_right(held, hi)
                                             - bisect_left(held, lo))
            held = None if to == frm else self._edge.get((to, frm))
            ecount = 0 if held is None else (bisect_right(held, hi)
                                             - bisect_left(held, lo))
        else:
            vcount = self._vertex.get(to, 0)
            ecount = 0 if to == frm else self._edge.get((to, frm), 0)
        return (params.vertex_weight * vcount
                + params.edge_weight * ecount) / params.num_robots

    def vertex_count(self, cell: Cell, t: int | None = None) -> int:
        """Claims on `cell`; a temporal table counts those at step t (0 when
        omitted)."""
        if not self.params.temporal:
            return self._vertex.get(cell, 0)
        t = 0 if t is None else t
        held = self._vertex.get(cell)
        if held is None or t < 0:
            return 0
        return (bisect_right(held, t + self.params.window_before)
                - bisect_left(held, t - self.params.window_after))
