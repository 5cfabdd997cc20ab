"""One-shot multi-robot pipeline: guided independent paths, then resolution.

Phase 1 plans individually-shortest paths that spread usage; phase 2 turns
them into a collision-free set.  The default resolver is prioritized
space-time planning: robots are processed longest-path-first, each keeping
its phase-1 path when it is already clean against the reservations and
re-planning around them otherwise.  Prioritized resolution is incomplete by
design; the resolver interface is a single function so a stronger engine can
be swapped in without touching phase 1.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, field

from .grid import Cell, DistanceField, GridMap, distance_field
from .metrics import (makespan, max_vertex_overlap, robots_by_step,
                      sum_of_cost, timed_conflicts, total_pairwise_overlap)
from .search import (InstanceError, SearchConfig, SearchStats, _fold, _mix,
                     plan_independent_paths)
from .usage import Path, UsageParams


class ResolverError(RuntimeError):
    """Raised when the resolution phase cannot schedule a robot."""

    def __init__(self, robot: int, message: str, stats=None):
        super().__init__(message)
        self.robot = robot
        self.stats = stats


@dataclass(frozen=True)
class MppInstance:
    grid: GridMap
    tasks: list[tuple[Cell, Cell]]  # (start, goal) per robot

    def __post_init__(self) -> None:
        starts = [s for s, _ in self.tasks]
        goals = [g for _, g in self.tasks]
        if len(set(starts)) != len(starts):
            raise InstanceError("starts must be pairwise distinct")
        if len(set(goals)) != len(goals):
            raise InstanceError("goals must be pairwise distinct")
        for i, (s, g) in enumerate(self.tasks):
            if not self.grid.passable(s) or not self.grid.passable(g):
                raise InstanceError(f"robot {i}: start or goal blocked")


@dataclass
class SolveStats:
    initial_vertex_conflicts: int = 0
    initial_swap_conflicts: int = 0
    initial_max_vertex_overlap: int = 0
    initial_total_overlap: int = 0
    resolver_expansions: int = 0
    robots_replanned: int = 0
    wait_steps_added: int = 0
    plan_seconds: float = 0.0
    resolve_seconds: float = 0.0
    search: SearchStats = field(default_factory=SearchStats)


@dataclass
class Solution:
    paths: list[Path]
    makespan: int
    sum_of_cost: int
    stats: SolveStats

    def to_json(self) -> str:
        return json.dumps({
            "paths": [[list(v) for v in p] for p in self.paths],
            "makespan": self.makespan,
            "sum_of_cost": self.sum_of_cost,
            "stats": {
                "initial_vertex_conflicts": self.stats.initial_vertex_conflicts,
                "initial_swap_conflicts": self.stats.initial_swap_conflicts,
                "initial_max_vertex_overlap": self.stats.initial_max_vertex_overlap,
                "initial_total_overlap": self.stats.initial_total_overlap,
                "resolver_expansions": self.stats.resolver_expansions,
                "robots_replanned": self.stats.robots_replanned,
                "wait_steps_added": self.stats.wait_steps_added,
            },
        }, indent=2, sort_keys=True)


def solution_paths_from_json(text: str) -> list[Path]:
    payload = json.loads(text)
    return [[tuple(v) for v in p] for p in payload["paths"]]


@dataclass(frozen=True)
class Conflict:
    kind: str  # "vertex" or "swap"; "move", "start" or "goal" for one path
    robots: tuple[int, ...]  # the two robots in a collision, else the one
    time: int
    where: tuple


def validate_solution(paths: list[Path], grid: GridMap | None = None,
                      tasks: list[tuple[Cell, Cell]] | None = None
                      ) -> list[Conflict]:
    """Complete list of faults; empty means a valid solution.

    Vertex and swap conflicts are always reported; robots rest at their
    final cell once their path ends.  Given the map, every step must also be
    a wait or a move to a passable 4-neighbour, reported as a "move" at the
    step's arrival time with the (from, to) cells.  Given the (start, goal)
    tasks, each path must start at its start and end on its goal.
    """
    conflicts = []
    if grid is not None:
        adjacency = grid.adjacency
        for i, p in enumerate(paths):
            for t, b in enumerate(p):
                a = p[t - 1] if t else b
                if not ((b == a and b in adjacency)
                        or b in adjacency.get(a, ())):
                    conflicts.append(Conflict("move", (i,), t, (a, b)))
    if tasks is not None:
        for i, (p, (s, g)) in enumerate(zip(paths, tasks, strict=True)):
            if p[0] != s:
                conflicts.append(Conflict("start", (i,), 0, p[0]))
            if p[-1] != g:
                conflicts.append(Conflict("goal", (i,), len(p) - 1, p[-1]))
    collisions = []
    for t, cells, moves in robots_by_step(paths):
        for cell, robots in cells.items():
            for k, i in enumerate(robots):
                for j in robots[k + 1:]:
                    collisions.append(Conflict("vertex", (i, j), t, cell))
        for (a, b), robots in moves.items():
            for j in moves.get((b, a), ()):
                for i in robots:
                    if i < j:
                        collisions.append(Conflict("swap", (i, j), t, (a, b)))
    # a pair is never on one cell and swapping at the same step
    collisions.sort(key=lambda c: (c.robots, c.time))
    return conflicts + collisions


class _Reservations:
    """Space-time bookkeeping for prioritized planning, hashed on (cell, t)."""

    def __init__(self) -> None:
        self.vertex: set[tuple[Cell, int]] = set()
        self.edge: set[tuple[Cell, Cell, int]] = set()  # (frm, to, arrival t)
        self.rest_from: dict[Cell, int] = {}  # cell -> first resting step
        self.last: dict[Cell, int] = {}  # cell -> latest reserved step
        self.max_time = 0

    def add_path(self, path: Path) -> None:
        last = self.last
        for t, v in enumerate(path):
            self.vertex.add((v, t))
            if last.get(v, -1) < t:
                last[v] = t
        for t in range(1, len(path)):
            if path[t - 1] != path[t]:
                self.edge.add((path[t - 1], path[t], t))
        end = path[-1]
        rest_start = len(path) - 1
        self.rest_from[end] = min(self.rest_from.get(end, rest_start), rest_start)
        self.max_time = max(self.max_time, len(path) - 1)

    def blocked_vertex(self, v: Cell, t: int) -> bool:
        if (v, t) in self.vertex:
            return True
        rest = self.rest_from.get(v)
        return rest is not None and t >= rest

    def blocked_move(self, frm: Cell, to: Cell, t: int) -> bool:
        """True when arriving at `to` at step t collides with a reservation."""
        if self.blocked_vertex(to, t):
            return True
        return frm != to and (to, frm, t) in self.edge

    def path_is_clean(self, path: Path) -> bool:
        for t, v in enumerate(path):
            if self.blocked_vertex(v, t):
                return False
            if t > 0 and self.blocked_move(path[t - 1], v, t):
                return False
        # resting at the end must stay clean forever after
        return self.last.get(path[-1], -1) < len(path) - 1

    def free_from(self, v: Cell) -> int:
        """First step after which v is never touched by a reservation."""
        if v in self.rest_from:
            return -2  # rested on forever; never free
        return self.last.get(v, -1) + 1


def default_resolver_prioritized(grid: GridMap, initial_paths: list[Path],
                                 priority: list[int] | None = None,
                                 seed: int = 0,
                                 stats: SolveStats | None = None,
                                 fields: dict[Cell, DistanceField] | None = None
                                 ) -> list[Path]:
    """Sequential space-time scheduling around earlier robots' reservations.

    Robots whose initial path is already clean keep it unchanged; the rest
    re-plan with waits allowed.  Each robot's final cell is reserved for all
    later steps.  Raises ResolverError naming the first robot that cannot be
    scheduled within the time bound.  `fields` maps goals to distance
    fields already built, such as phase 1's; fields built here are added.
    """
    n = len(initial_paths)
    if priority is None:
        priority = sorted(range(n), key=lambda i: (-(len(initial_paths[i]) - 1), i))
    if stats is None:
        stats = SolveStats()
    reservations = _Reservations()
    result: list[Path | None] = [None] * n
    if fields is None:
        fields = {}
    for order_idx, i in enumerate(priority):
        path = initial_paths[i]
        if reservations.path_is_clean(path):
            result[i] = path
            reservations.add_path(path)
            continue
        stats.robots_replanned += 1
        start, goal = path[0], path[-1]
        if goal not in fields:
            fields[goal] = distance_field(grid, goal)
        dfield = fields[goal]
        bound = 2 * (grid.width + grid.height) + reservations.max_time
        goal_free_from = reservations.free_from(goal)
        if goal_free_from == -2:
            raise ResolverError(i, f"robot {i}: goal permanently reserved", stats)
        new_path = _space_time_plan(grid, start, goal, dfield, reservations,
                                    bound, goal_free_from, _mix(seed, i), stats)
        if new_path is None:
            raise ResolverError(
                i, f"robot {i}: no conflict-free path within {bound} steps", stats)
        result[i] = new_path
        reservations.add_path(new_path)
        stats.wait_steps_added += (len(new_path) - 1) - (len(path) - 1)
    return result  # type: ignore[return-value]


def _space_time_plan(grid: GridMap, start: Cell, goal: Cell, dfield,
                     reservations: _Reservations, bound: int,
                     goal_free_from: int, seed: int,
                     stats: SolveStats) -> Path | None:
    """A* over (cell, step) states; terminal only once resting at goal is safe."""
    h0 = dfield.get(start)
    if h0 is None:
        return None
    adjacency = grid.adjacency
    dist = dfield.dist
    vertex, edge = reservations.vertex, reservations.edge
    rest_from = reservations.rest_from
    cell_mix: dict[Cell, int] = {}  # _mix(seed, x, y) per cell
    counter = 0
    heap = [(h0, 0, _mix(seed, start[0], start[1], 0), counter, (start, 0))]
    # a state enters the heap once, when it first enters parents, so no
    # state is popped twice and no closed set is needed
    parents = {(start, 0): None}
    while heap:
        f, t, _, _, state = heapq.heappop(heap)
        stats.resolver_expansions += 1
        v, t = state
        if v == goal and t >= goal_free_from:
            path = []
            cur = state
            while cur is not None:
                path.append(cur[0])
                cur = parents[cur]
            path.reverse()
            return path
        if t >= bound:
            continue
        nt = t + 1
        for nxt in adjacency[v] + (v,):
            h = dist.get(nxt)
            if h is None:
                h = dfield.get(nxt)
                if h is None:
                    continue
            # the checks of `_Reservations.blocked_move`, in its order
            if (nxt, nt) in vertex:
                continue
            rest = rest_from.get(nxt)
            if rest is not None and nt >= rest:
                continue
            if nxt != v and (nxt, v, nt) in edge:
                continue
            nstate = (nxt, nt)
            if nstate in parents:
                continue
            parents[nstate] = state
            counter += 1
            cm = cell_mix.get(nxt)
            if cm is None:
                cm = cell_mix[nxt] = _mix(seed, nxt[0], nxt[1])
            heapq.heappush(heap, (nt + h, nt, _fold(cm, nt), counter, nstate))
    return None


def solve_mpp(instance: MppInstance, params: UsageParams | None = None,
              iterations: int = 1, cfg: SearchConfig | None = None,
              resolver=None) -> Solution:
    """Two-phase solve: guided independent paths, then collision resolution."""
    params = params or UsageParams()
    cfg = cfg or SearchConfig()
    stats = SolveStats()
    fields: dict[Cell, DistanceField] = {}
    t0 = time.perf_counter()
    initial = plan_independent_paths(instance.grid, instance.tasks, params,
                                     iterations, cfg, fields=fields,
                                     stats=stats.search)
    stats.plan_seconds = time.perf_counter() - t0
    vc, sc = timed_conflicts(initial)
    stats.initial_vertex_conflicts = vc
    stats.initial_swap_conflicts = sc
    stats.initial_max_vertex_overlap = max_vertex_overlap(initial)
    stats.initial_total_overlap = total_pairwise_overlap(initial)

    t1 = time.perf_counter()
    if resolver is None:
        final = default_resolver_prioritized(instance.grid, initial,
                                             seed=cfg.tie_break_seed, stats=stats,
                                             fields=fields)
    else:
        final = resolver(instance.grid, initial)
    stats.resolve_seconds = time.perf_counter() - t1
    return Solution(final, makespan(final), sum_of_cost(final), stats)


def lower_bounds(instance: MppInstance) -> tuple[int, int]:
    """(makespan, sum-of-cost) lower bounds from single-robot distances."""
    dists = []
    for s, g in instance.tasks:
        dists.append(distance_field(instance.grid, g)[s])
    return max(dists, default=0), sum(dists)
