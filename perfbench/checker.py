"""Output checks made apart from the planner.

Everything here works on the benchmark's own map representation and its own
breadth-first search, never on the planner's grid, search, metrics or
validator code, so a fault there cannot hide a fault in the planner's output.
Each check raises CheckError naming the robot and the step at fault.
"""

from __future__ import annotations

from array import array
from collections import deque

STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class CheckError(Exception):
    """A planner output broke one of the benchmark's checks."""


class Grid:
    """A 4-connected map: the cells in `free` are passable, all others not."""

    def __init__(self, width: int, height: int, free):
        self.width = width
        self.height = height
        self.free = frozenset(free)

    @classmethod
    def from_rows(cls, rows: list[str]) -> "Grid":
        """Rows of '.' (passable) and '@' (blocked), top row first."""
        free = {(x, y) for y, row in enumerate(rows)
                for x, ch in enumerate(row) if ch == "."}
        return cls(len(rows[0]), len(rows), free)

    def passable(self, cell) -> bool:
        return cell in self.free

    def index(self, cell) -> int:
        return cell[1] * self.width + cell[0]


def bfs(grid: Grid, source) -> array:
    """Distances from `source` to every cell, indexed y * width + x; -1 when
    the cell is blocked or unreachable."""
    width = grid.width
    dist = array("i", [-1]) * (width * grid.height)
    dist[grid.index(source)] = 0
    queue = deque([source])
    free = grid.free
    while queue:
        x, y = queue.popleft()
        d = dist[y * width + x] + 1
        for dx, dy in STEPS:
            nxt = (x + dx, y + dy)
            if nxt in free:
                k = nxt[1] * width + nxt[0]
                if dist[k] < 0:
                    dist[k] = d
                    queue.append(nxt)
    return dist


def component(grid: Grid, source, walls=frozenset()) -> set:
    """The cells reachable from `source` without entering `walls`."""
    free = grid.free
    seen = {source}
    queue = deque([source])
    while queue:
        x, y = queue.popleft()
        for dx, dy in STEPS:
            nxt = (x + dx, y + dy)
            if nxt in free and nxt not in seen and nxt not in walls:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def largest_component(grid: Grid) -> set:
    remaining = set(grid.free)
    best: set = set()
    while remaining:
        comp = component(grid, min(remaining))
        remaining -= comp
        if len(comp) > len(best):
            best = comp
    return best


def arrival(path) -> int:
    """First step from which the path stays on its last cell."""
    t = len(path) - 1
    while t > 0 and path[t - 1] == path[-1]:
        t -= 1
    return t


def check_moves(grid: Grid, paths) -> None:
    """Every cell passable; every step a wait or a move to a 4-neighbour."""
    for i, path in enumerate(paths):
        if not path:
            raise CheckError(f"robot {i}: empty path")
        prev = None
        for t, cell in enumerate(path):
            if not grid.passable(cell):
                raise CheckError(f"robot {i}: step {t} at {cell} is blocked "
                                 "or off the map")
            if prev is not None and abs(cell[0] - prev[0]) + abs(cell[1] - prev[1]) > 1:
                raise CheckError(f"robot {i}: step {t} jumps from {prev} to {cell}")
            prev = cell


def check_starts(paths, starts) -> None:
    for i, (path, start) in enumerate(zip(paths, starts, strict=True)):
        if path[0] != start:
            raise CheckError(f"robot {i}: starts at {path[0]}, not {start}")


def check_goals(paths, goals) -> None:
    """Each path ends resting on its goal."""
    for i, (path, goal) in enumerate(zip(paths, goals, strict=True)):
        if path[-1] != goal:
            raise CheckError(f"robot {i}: ends at {path[-1]}, not on goal {goal}")


def find_conflicts(paths) -> list[tuple[str, int, int, int]]:
    """Vertex and swap conflicts as (kind, robot, other, step).

    One pass over every robot and step, hashed on (cell, t) and (edge, t).
    Robots rest on their last cell once their path ends.
    """
    horizon = max((len(p) for p in paths), default=0)
    at: dict = {}
    moves: dict = {}
    found = []
    for i, path in enumerate(paths):
        last = len(path) - 1
        for t in range(horizon):
            cell = path[t] if t <= last else path[last]
            other = at.setdefault((cell, t), i)
            if other != i:
                found.append(("vertex", other, i, t))
            if 0 < t <= last and path[t - 1] != cell:
                moves[(path[t - 1], cell, t)] = i
    for (a, b, t), i in moves.items():
        j = moves.get((b, a, t))
        if j is not None and i < j:
            found.append(("swap", i, j, t))
    return found


def check_conflict_free(paths) -> None:
    found = find_conflicts(paths)
    if found:
        kind, i, j, t = found[0]
        raise CheckError(f"{len(found)} conflicts, first a {kind} conflict of "
                         f"robots {i} and {j} at step {t}")


def check_lengths(paths, dists, exact: bool) -> None:
    """Each path takes at least its BFS distance; with `exact`, exactly it
    and without waiting."""
    for i, (path, d) in enumerate(zip(paths, dists, strict=True)):
        steps = len(path) - 1 if exact else arrival(path)
        if steps < d or (exact and steps != d):
            raise CheckError(f"robot {i}: path takes {steps} steps, "
                             f"shortest is {d}")


def overlap(paths) -> tuple[int, int]:
    """(peak, total) image overlap: the most paths visiting one cell, and the
    summed size of image intersections over ordered pairs of robots."""
    count: dict = {}
    for path in paths:
        for cell in set(path):
            count[cell] = count.get(cell, 0) + 1
    peak = max(count.values(), default=0)
    return peak, sum(c * (c - 1) for c in count.values())


def headon(paths) -> int:
    """Head-on edge sharing: over ordered pairs of robots, the directed edges
    one path takes that the other takes in the opposite direction."""
    count: dict = {}
    for path in paths:
        for a, b in set(zip(path, path[1:])):
            if a != b:
                count[(a, b)] = count.get((a, b), 0) + 1
    return sum(c * count.get((b, a), 0) for (a, b), c in count.items())


def check_usage_never_rises(per_pass_paths, vertex_weight: float,
                            edge_weight: float) -> list[float]:
    """The usage an aggregate table weighs, after each pass: vertex_weight
    times the total image overlap plus edge_weight times the head-on edge
    sharing.  Each re-plan takes the least-used shortest path against the
    others, so this may not rise after the first pass; either term alone
    may, when the other falls by more."""
    totals = [vertex_weight * overlap(paths)[1] + edge_weight * headon(paths)
              for paths in per_pass_paths]
    for k in range(1, len(totals)):
        if totals[k] > totals[k - 1]:
            raise CheckError(f"weighted usage rose from {totals[k - 1]} after "
                             f"pass {k} to {totals[k]} after pass {k + 1}")
    return totals


def chain_segments(starts, segments, commit: int):
    """Executed trajectories from committed windows.

    Each segment holds one path per robot; the first `commit` steps of each
    are executed, and the next segment must start where they end.
    """
    trajectories = [[s] for s in starts]
    for k, seg in enumerate(segments):
        if len(seg) != len(starts):
            raise CheckError(f"segment {k}: {len(seg)} paths for "
                             f"{len(starts)} robots")
        for i, path in enumerate(seg):
            if len(path) <= commit:
                raise CheckError(f"segment {k}, robot {i}: {len(path) - 1} "
                                 f"steps, fewer than the {commit} committed")
            if path[0] != trajectories[i][-1]:
                raise CheckError(f"segment {k}, robot {i}: starts at {path[0]}"
                                 f", robot is at {trajectories[i][-1]}")
            trajectories[i].extend(path[1:commit + 1])
    return trajectories


def replay_goals(trajectories, goal_lists) -> tuple[list[int], list[int]]:
    """Goals reached along each trajectory, and the step of the last one.

    A goal counts when the robot stands on it with every earlier goal of its
    list already counted, at most one goal a step; a first goal under the
    start counts at step 0.
    """
    counts, last = [], []
    for traj, goals in zip(trajectories, goal_lists, strict=True):
        k = t_last = 0
        for t, cell in enumerate(traj):
            if k < len(goals) and cell == goals[k]:
                k += 1
                t_last = t
        counts.append(k)
        last.append(t_last)
    return counts, last


def check_goal_count(trajectories, goal_lists, reported: int):
    counts, last = replay_goals(trajectories, goal_lists)
    if sum(counts) != reported:
        raise CheckError(f"program reports {reported} goals reached, "
                         f"replay counts {sum(counts)}")
    return counts, last


def check_equal(what: str, reported, own) -> None:
    if reported != own:
        raise CheckError(f"{what}: program reports {reported}, "
                         f"benchmark computes {own}")
