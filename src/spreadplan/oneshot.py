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

import json
import time
from dataclasses import dataclass, field

from .grid import Cell, FieldCache, GridMap, distance_field
from .metrics import (makespan, max_vertex_overlap, robots_by_step,
                      sum_of_cost, timed_conflicts, total_pairwise_overlap)
from .search import (InstanceError, SearchConfig, SearchStats, _fold, _mix,
                     _Reservations, _TieQueue, _unwind,
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
        stride = grid.stride
        for i, p in enumerate(paths):
            # between padded ids of passable cells, a wait or a move changes
            # the id by 0, 1 or W'
            ids = [grid.cell_id(c) if grid.passable(c) else None for c in p]
            for t in range(len(p)):
                s = t - 1 if t else t
                if (ids[t] is None or ids[s] is None
                        or abs(ids[t] - ids[s]) not in (0, 1, stride)):
                    conflicts.append(Conflict("move", (i,), t, (p[s], p[t])))
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


def default_resolver_prioritized(grid: GridMap, initial_paths: list[Path],
                                 priority: list[int] | None = None,
                                 seed: int = 0,
                                 stats: SolveStats | None = None,
                                 fields: FieldCache | None = None
                                 ) -> list[Path]:
    """Sequential space-time scheduling around earlier robots' reservations.

    Robots whose initial path is already clean keep it unchanged; the rest
    re-plan with waits allowed.  Each robot's final cell is reserved for all
    later steps.  Raises ResolverError naming the first robot that cannot be
    scheduled within the time bound.  `fields` is the map's field cache,
    such as the one phase 1 filled.
    """
    n = len(initial_paths)
    if priority is None:
        priority = sorted(range(n), key=lambda i: (-(len(initial_paths[i]) - 1), i))
    if stats is None:
        stats = SolveStats()
    reservations = _Reservations(len(grid.template))
    result: list[Path | None] = [None] * n
    if fields is None:
        fields = FieldCache(grid, distance_field)
    cell_id, cell_at = grid.cell_id, grid.cell_at
    for order_idx, i in enumerate(priority):
        path = initial_paths[i]
        ids = [cell_id(c) for c in path]
        if reservations.path_is_clean(ids):
            result[i] = path
            reservations.add_path(ids)
            continue
        stats.robots_replanned += 1
        goal = path[-1]
        bound = 2 * (grid.width + grid.height) + reservations.max_time
        goal_free_from = reservations.free_from(ids[-1])
        if goal_free_from == -2:
            raise ResolverError(i, f"robot {i}: goal permanently reserved", stats)
        new_ids = _space_time_plan(grid, ids[0], ids[-1], fields(goal),
                                   reservations, bound, goal_free_from,
                                   _mix(seed, i), stats)
        if new_ids is None:
            raise ResolverError(
                i, f"robot {i}: no conflict-free path within {bound} steps", stats)
        result[i] = [cell_at[v] for v in new_ids]
        reservations.add_path(new_ids)
        stats.wait_steps_added += (len(new_ids) - 1) - (len(path) - 1)
    return result  # type: ignore[return-value]


def _space_time_plan(grid: GridMap, start: int, goal: int, dfield,
                     reservations: _Reservations, bound: int,
                     goal_free_from: int, seed: int,
                     stats: SolveStats) -> list[int] | None:
    """A* over (id, step) states; terminal only once resting at goal is safe.

    `start`, `goal` and the returned path are padded ids, and a state is
    its reservation key, t * size + id.
    """
    h0 = dfield.at(start)
    if h0 is None:
        return None
    cell_at = grid.cell_at
    stride = grid.stride
    labels, label_at = dfield.labels, dfield.at
    size = reservations.size
    vertex, edge = reservations.vertex, reservations.edge
    rest_from = reservations.rest_from
    cell_mix: dict[int, int] = {}  # _mix(seed, x, y) per id

    def tie(state: int) -> int:
        t, v = divmod(state, size)
        cm = cell_mix.get(v)
        if cm is None:
            x, y = cell_at[v]
            cm = cell_mix[v] = _mix(seed, x, y)
        return _fold(cm, t)

    # the key f * span + t orders states by (f, t), for every t <= bound
    span = bound + 1
    queue = _TieQueue(tie)
    push, pop, live = queue.push, queue.pop, queue.keys
    push(h0 * span, start)
    # a state enters the queue once, when it first enters parents, so no
    # state is popped twice and no closed set is needed
    parents = {start: None}
    while live:
        state = pop()[1]
        stats.resolver_expansions += 1
        t, v = divmod(state, size)
        if v == goal and t >= goal_free_from:
            return _unwind(parents, state, size)
        if t >= bound:
            continue
        nt = t + 1
        at_nt = nt * size
        for nxt in (v + 1, v - 1, v + stride, v - stride, v):
            h = labels[nxt]
            if h < 0:
                h = label_at(nxt)
                if h is None:
                    continue  # blocked, or not in the goal's component
            # the checks of `_Reservations.blocked_move`, in its order
            nstate = at_nt + nxt
            if nstate in vertex:
                continue
            rest = rest_from.get(nxt)
            if rest is not None and nt >= rest:
                continue
            if nxt != v and nstate * size + v in edge:
                continue
            if nstate in parents:
                continue
            parents[nstate] = state
            push((nt + h) * span + nt, nstate)
    return None


def solve_mpp(instance: MppInstance, params: UsageParams | None = None,
              iterations: int = 1, cfg: SearchConfig | None = None,
              resolver=None, fields: FieldCache | None = None) -> Solution:
    """Two-phase solve: guided independent paths, then collision resolution.

    Both phases read one field cache of the map: `fields`, or a new one.
    """
    params = params or UsageParams()
    cfg = cfg or SearchConfig()
    stats = SolveStats()
    if fields is None:
        fields = FieldCache(instance.grid, distance_field)
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


def lower_bounds(instance: MppInstance,
                 fields: FieldCache | None = None) -> tuple[int, int]:
    """(makespan, sum-of-cost) lower bounds from single-robot distances.

    Reads `fields`, such as the cache `solve_mpp` filled, or a new cache.
    """
    if fields is None:
        fields = FieldCache(instance.grid, distance_field)
    dists = [fields.dist(s, g) for s, g in instance.tasks]
    return max(dists, default=0), sum(dists)
