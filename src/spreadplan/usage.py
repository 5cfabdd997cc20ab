"""Shared-space usage accounting for decoupled multi-robot planning.

A UsageTable counts how many already-planned paths occupy each vertex and each
directed edge, either aggregated over time or per time step.  Searches consult
it through `penalty`, a sub-unit surcharge that steers a robot away from cells
and head-to-head edges other robots have claimed, without ever trading away
path length.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

Cell = tuple[int, int]
Path = list[Cell]


@dataclass(frozen=True)
class UsageParams:
    """Weights and windows for the usage penalty.

    vertex_weight + edge_weight must equal 1 so the penalty stays below 1 and
    acts purely as a tie-breaker between equal-length paths.  In temporal
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
    """Occupancy counters over vertices and directed edges.

    Keys are (x, y) / (x1, y1, x2, y2) in aggregate mode and gain a trailing
    time component in temporal mode.  Mutated in place by add/remove so a
    planning loop can swap one robot's path without rebuilding; remove is the
    exact inverse of add.
    """

    params: UsageParams = field(default_factory=UsageParams)
    vertex_use: dict = field(default_factory=dict)
    edge_use: dict = field(default_factory=dict)

    @classmethod
    def build(cls, paths: list[Path | None], params: UsageParams) -> "UsageTable":
        table = cls(params=params)
        for path in paths:
            if path is not None:
                table.add_path(path)
        return table

    def add_path(self, path: Path) -> None:
        self._update(path, 1)

    def remove_path(self, path: Path) -> None:
        self._update(path, -1)

    def _update(self, path: Path, delta: int) -> None:
        """Add delta (+1 or -1) to each counter the path claims, in a fixed
        order; a removal that would take a counter below zero raises."""
        params = self.params
        if params.temporal:
            wb, wa = params.window_before, params.window_after
            vertex_keys = [(x, y, tq) for t, (x, y) in enumerate(path)
                           for tq in range(max(0, t - wb), t + wa + 1)]
            edge_keys = [(u[0], u[1], v[0], v[1], tq)
                         for t, (u, v) in enumerate(zip(path, path[1:]), 1)
                         if u != v for tq in range(max(0, t - wb), t + wa + 1)]
        else:
            vertex_keys = path
            edge_keys = [(u[0], u[1], v[0], v[1])
                         for u, v in zip(path, path[1:]) if u != v]
        for counts, keys in ((self.vertex_use, vertex_keys),
                             (self.edge_use, edge_keys)):
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
            vcount = self.vertex_use.get((to[0], to[1], t), 0)
            ecount = 0 if to == frm else self.edge_use.get(
                (to[0], to[1], frm[0], frm[1], t), 0)
        else:
            vcount = self.vertex_use.get(to, 0)
            ecount = 0 if to == frm else self.edge_use.get(
                (to[0], to[1], frm[0], frm[1]), 0)
        return (params.vertex_weight * vcount
                + params.edge_weight * ecount) / params.num_robots

    def vertex_count(self, cell: Cell, t: int | None = None) -> int:
        if self.params.temporal:
            return self.vertex_use.get((cell[0], cell[1], 0 if t is None else t), 0)
        return self.vertex_use.get(cell, 0)

    def to_json(self) -> str:
        """Stable debug dump: sorted comma-joined keys to counts."""
        payload = {
            "params": {
                "vertex_weight": self.params.vertex_weight,
                "edge_weight": self.params.edge_weight,
                "window_before": self.params.window_before,
                "window_after": self.params.window_after,
                "temporal": self.params.temporal,
                "num_robots": self.params.num_robots,
            },
            "vertex_use": {",".join(map(str, k)): v for k, v in self.vertex_use.items()},
            "edge_use": {",".join(map(str, k)): v for k, v in self.edge_use.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)
