"""Exhaustive ground truth for small instances.

Enumerates every shortest path between two cells by walking the BFS-distance
DAG, then minimizes conflict objectives over the enumeration.  Used by tests
to check that the guided searches return exactly the paths they promise.
Also the per-path overlap and penalty measures that only this oracle and
the tests read.  The tables they read are `helpers.ReferenceUsageTable`s,
which share no code with the counts the search kernels read.
"""

from __future__ import annotations

from dataclasses import dataclass

from helpers import ReferenceUsageTable, neighbors
from spreadplan.grid import Cell, GridMap, distance_field
from spreadplan.metrics import _image_counts
from spreadplan.usage import Path


class TooManyPathsError(RuntimeError):
    """Enumeration would exceed the configured cap."""


@dataclass
class PathEnumeration:
    start: Cell
    goal: Cell
    paths: list[Path]


def enumerate_shortest_paths(grid: GridMap, start: Cell, goal: Cell,
                             cap: int = 100_000) -> PathEnumeration:
    """All shortest start-to-goal paths, depth-first over the distance DAG."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    dfield = distance_field(grid, goal)
    if start not in dfield:
        raise ValueError(f"goal {goal} unreachable from {start}")
    paths: list[Path] = []
    prefix: Path = [start]

    def walk(v: Cell) -> None:
        if v == goal:
            if len(paths) >= cap:
                raise TooManyPathsError(f"more than {cap} shortest paths")
            paths.append(list(prefix))
            return
        d = dfield[v]
        for nxt in neighbors(grid, v):
            if dfield.get(nxt) == d - 1:
                prefix.append(nxt)
                walk(nxt)
                prefix.pop()

    walk(start)
    return PathEnumeration(start, goal, paths)


def min_objective(enumeration: PathEnumeration, table: ReferenceUsageTable,
                  objective: str) -> tuple[int, Path]:
    """Exact minimum of a conflict objective over every enumerated path.

    objective "peak": worst usage count over interior cells.
    objective "total": summed usage count over the whole path image, which
    an aggregate table alone defines; a temporal table raises ValueError.
    """
    if objective == "total" and table.params.temporal:
        raise ValueError('objective "total" needs an aggregate table')
    best_value = None
    best_path = None
    for path in enumeration.paths:
        if objective == "peak":
            value = peak_vertex_overlap(path, table)
        elif objective == "total":
            value = sum(table.vertex_count(v) for v in set(path))
        else:
            raise ValueError(f"unknown objective {objective!r}")
        if best_value is None or value < best_value:
            best_value = value
            best_path = path
    if best_path is None:
        raise ValueError("empty enumeration")
    return best_value, best_path


def peak_vertex_overlap(path: Path, table: ReferenceUsageTable) -> int:
    """Worst usage count over the path's interior cells (endpoints excluded).

    The table should be built from the *other* robots' paths; temporal tables
    are read at the step each cell is visited.
    """
    if table.params.temporal:
        return max((table.vertex_count(path[t], t)
                    for t in range(1, len(path) - 1)), default=0)
    return max((table.vertex_count(v) for v in path[1:-1]), default=0)


def pairwise_overlap(path: Path, others: list[Path]) -> int:
    """Total image intersection size between one path and every other path:
    the others' image counts summed over the path's image."""
    counts = _image_counts(others)
    return sum(counts[v] for v in set(path))


def path_penalty(path: Path, table: ReferenceUsageTable) -> float:
    """The summed penalty of `path`, each move read at its arrival step."""
    return sum(table.penalty(path[t - 1], path[t], t)
               for t in range(1, len(path)))


def worst_move(path: Path, table: ReferenceUsageTable) -> float:
    """The largest penalty of a move of `path`, read at its arrival step."""
    return max(table.penalty(path[t - 1], path[t], t)
               for t in range(1, len(path)))
