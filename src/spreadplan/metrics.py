"""Conflict, cost, and throughput metrics shared by solvers, tests, and CLI.

A path's *image* is the set of distinct cells it visits, so waiting in place
never double-counts.  Peak metrics look at how crowded the worst cell is;
pairwise metrics sum image intersections; timed metrics require simultaneous
occupancy and mirror the solution validator's semantics (robots rest at their
final cell after their path ends).
"""

from __future__ import annotations

from collections import Counter

from .usage import Path, UsageTable

Cell = tuple[int, int]


def path_length(path: Path) -> int:
    """Index of the first step at which the final cell is reached and held."""
    if len(path) <= 1:
        return 0
    last = path[-1]
    t = len(path) - 1
    while t > 0 and path[t - 1] == last:
        t -= 1
    return t


def makespan(paths: list[Path]) -> int:
    return max((path_length(p) for p in paths), default=0)


def sum_of_cost(paths: list[Path]) -> int:
    return sum(path_length(p) for p in paths)


def throughput(goals_reached: int, elapsed_steps: int) -> float:
    return goals_reached / elapsed_steps if elapsed_steps > 0 else 0.0


def peak_vertex_overlap(path: Path, table: UsageTable) -> int:
    """Worst usage count over the path's interior cells (endpoints excluded).

    The table should be built from the *other* robots' paths; temporal tables
    are read at the step each cell is visited.
    """
    if table.params.temporal:
        return max((table.vertex_count(path[t], t)
                    for t in range(1, len(path) - 1)), default=0)
    return max((table.vertex_count(v) for v in path[1:-1]), default=0)


def _image_counts(paths: list[Path]) -> Counter:
    """Per cell, the number of path images holding it."""
    return Counter(v for p in paths for v in set(p))


def max_vertex_overlap(paths: list[Path]) -> int:
    """Largest number of path images sharing one cell."""
    return max(_image_counts(paths).values(), default=0)


def max_edge_headon(paths: list[Path]) -> int:
    """Largest number of opposing traversal pairs on one undirected edge."""
    directed: dict[tuple[Cell, Cell], int] = {}
    for p in paths:
        for a, b in set(zip(p, p[1:])):
            if a != b:
                directed[(a, b)] = directed.get((a, b), 0) + 1
    worst = 0
    for (a, b), cnt in directed.items():
        opposite = directed.get((b, a), 0)
        worst = max(worst, cnt * opposite)
    return worst


def max_vertex_overlap_timed(paths: list[Path]) -> int:
    """Largest number of robots on one cell at the same step (no rest padding)."""
    counts: dict[tuple[Cell, int], int] = {}
    for p in paths:
        for t, v in enumerate(p):
            counts[(v, t)] = counts.get((v, t), 0) + 1
    return max(counts.values(), default=0)


def max_edge_headon_timed(paths: list[Path]) -> int:
    """Largest number of simultaneous opposing traversals of one edge."""
    directed: dict[tuple[Cell, Cell, int], int] = {}
    for p in paths:
        for t in range(1, len(p)):
            a, b = p[t - 1], p[t]
            if a != b:
                key = (a, b, t)
                directed[key] = directed.get(key, 0) + 1
    worst = 0
    for (a, b, t), cnt in directed.items():
        opposite = directed.get((b, a, t), 0)
        worst = max(worst, cnt * opposite)
    return worst


def pairwise_overlap(path: Path, others: list[Path]) -> int:
    """Total image intersection size between one path and every other path:
    the others' image counts summed over the path's image."""
    counts = _image_counts(others)
    return sum(counts[v] for v in set(path))


def total_pairwise_overlap(paths: list[Path]) -> int:
    """Sum of pairwise image intersections over all ordered robot pairs
    (even): a cell in c images lies in c * (c - 1) of them."""
    return sum(c * (c - 1) for c in _image_counts(paths).values())


def robots_by_step(paths: list[Path]):
    """Per step t: (t, robots by cell, moving robots by directed edge).

    Robot indices ascend in every list.  Robots are padded to rest at their
    final cell, matching the validator; a robot moves at t when its cell at
    t differs from its cell at t - 1.
    """
    horizon = max((len(p) for p in paths), default=0)
    for t in range(horizon):
        cells: dict[Cell, list[int]] = {}
        moves: dict[tuple[Cell, Cell], list[int]] = {}
        for i, p in enumerate(paths):
            if t < len(p):
                v = p[t]
                if t and p[t - 1] != v:
                    moves.setdefault((p[t - 1], v), []).append(i)
            else:
                v = p[-1]
            cells.setdefault(v, []).append(i)
        yield t, cells, moves


def timed_conflicts(paths: list[Path]) -> tuple[int, int]:
    """Counts of (i, j, t) same-cell events and edge-swap events.

    One hashed pass per step: k robots on one cell make C(k, 2) vertex
    events, and k robots crossing an edge against k' crossing it the other
    way make k * k' swaps.  Robots are padded to rest at their final cell,
    matching the validator.
    """
    vertex_count = 0
    swap_count = 0
    for _, cells, moves in robots_by_step(paths):
        for robots in cells.values():
            k = len(robots)
            vertex_count += k * (k - 1) // 2
        for (a, b), robots in moves.items():
            back = moves.get((b, a))
            if back is not None:
                swap_count += len(robots) * len(back)
    # every swapping pair was counted once from each side
    return vertex_count, swap_count // 2


def normalize_series(values: list[float]) -> list[float]:
    """Divide a metric series by its first entry; identically zero stays zero."""
    if not values or values[0] == 0:
        return [0.0 for _ in values]
    first = values[0]
    return [v / first for v in values]
