"""Shared-space usage accounting for decoupled multi-robot planning.

A UsageTable counts how many already-planned paths occupy each vertex and each
directed edge, either aggregated over time or per time step.  It only
stores: the two search kernels of `spreadplan.search` read its counts inline,
one read per move, as the usage penalty of a move from u to v, (vertex_weight
* claims on v + edge_weight * claims on the move v -> u) / num_robots.  That
sub-unit surcharge steers a robot away from cells and head-to-head edges
other robots have claimed, without ever trading away path length.

The table keys on the padded cell ids of its map (see `spreadplan.grid`),
the ids the searches work on, while `add_path` and `remove_path` take
(x, y) cells.

A temporal table stores each occupancy once, as a step in a sorted list per
cell or directed edge, and counts the occupancies whose window covers a step
when it is read, with two bisects.  A path step thus costs one or two list
inserts, however wide the window.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from .grid import Cell, GridMap

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


class UsageTable:
    """Occupancy counts over the vertices and directed edges of one map.

    The table keys on the map's padded ids (see `spreadplan.grid`): a claim
    on id v is keyed v, and a move from id a to id b is keyed a * size + b,
    where size is the map's number of ids.  An aggregate table keeps a count
    under each key.  A temporal table keeps, under the same keys, the sorted
    steps at which a path occupies the cell or arrives over the edge; an
    occupancy at step s counts at every t >= 0 with s - window_before <= t
    <= s + window_after.  `add_path` and `remove_path` take (x, y) cells;
    the search kernels read `vertex` and `edge` by id.  Mutated in place by
    add/remove so a planning loop can swap one robot's path without
    rebuilding; remove is the exact inverse of add.
    """

    def __init__(self, grid: GridMap, params: UsageParams) -> None:
        self.grid = grid
        self.params = params
        self.size = grid.stride * (grid.height + 2)
        self.vertex: dict = {}  # id -> count, or its sorted steps
        self.edge: dict = {}  # a * size + b -> count, or its sorted steps

    def add_path(self, path: Path) -> None:
        self._update(path, 1)

    def remove_path(self, path: Path) -> None:
        self._update(path, -1)

    def _update(self, path: Path, delta: int) -> None:
        """Add (+1) or remove (-1) the path's claims, vertices first and then
        edges, each in path order.  Removing a claim the table does not hold
        raises, naming its cell or its (from, to) cells; in a temporal table
        also the first step of the claim's window."""
        stride, size = self.grid.stride, self.size
        ids = [(y + 1) * stride + x + 1 for x, y in path]
        if self.params.temporal:
            moves = [(t, a * size + b)
                     for t, (a, b) in enumerate(zip(ids, ids[1:]), 1) if a != b]
            for steps, claims in ((self.vertex, enumerate(ids)),
                                  (self.edge, moves)):
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
                            cells = self._cells(key, steps)
                            first = max(0, t - self.params.window_before)
                            raise UsageUnderflowError(
                                f"count underflow at {(*cells, first)}")
                        if len(held) == 1:
                            del steps[key]
                        else:
                            del held[i]
            return
        moves = [a * size + b for a, b in zip(ids, ids[1:]) if a != b]
        for counts, keys in ((self.vertex, ids), (self.edge, moves)):
            for key in keys:
                c = counts.get(key, 0) + delta
                if c > 0:
                    counts[key] = c
                elif c == 0:
                    del counts[key]
                else:
                    raise UsageUnderflowError(
                        f"count underflow at {self._cells(key, counts)}")

    def _cells(self, key: int, held: dict):
        """The cell of a key of `vertex`, or the (from, to) cells of a key of
        `edge`, for error messages."""
        cell_at = self.grid.cell_at
        if held is self.vertex:
            return cell_at[key]
        a, b = divmod(key, self.size)
        return cell_at[a], cell_at[b]
