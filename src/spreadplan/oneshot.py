"""One-shot multi-robot pipeline: guided independent paths, then resolution.

Phase 1 plans individually-shortest paths that spread usage; phase 2 turns
them into a collision-free set.  The resolver is prioritized space-time
planning in `search.plan_prioritized`: robots go longest-path-first, each
keeping its phase-1 path when it is clean against the reservations and
re-planning around them otherwise; a robot that cannot be scheduled goes
first on a restart.  It is still incomplete: every order can fail on a
solvable instance.  Phase 2 reads only phase 1's paths and its distance
fields, so a stronger resolver would replace `default_resolver_prioritized`
alone.  A re-plan is the layered search `search._layered_plan`, whose
paths equal those of a space-time A*.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .grid import Cell, FieldCache, GridMap, cells_from_json, distance_field
from .metrics import (makespan, max_vertex_overlap, robots_by_step,
                      sum_of_cost, timed_conflicts, total_pairwise_overlap)
from .search import (InstanceError, PlanningError, SearchConfig, SearchStats,
                     _layered_plan, _mix, _Reservations,
                     plan_independent_paths, plan_prioritized, task_distances)
from .usage import Path, UsageParams


class ResolverError(PlanningError):
    """Raised when the resolution phase cannot schedule a robot."""

    def __init__(self, robot: int, message: str, stats=None):
        super().__init__(robot, message)
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
    resolver_restarts: int = 0  # attempts after the first; not in to_json
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
            "stats": {name: getattr(self.stats, name) for name in (
                "initial_vertex_conflicts", "initial_swap_conflicts",
                "initial_max_vertex_overlap", "initial_total_overlap",
                "resolver_expansions", "robots_replanned", "wait_steps_added")},
        }, indent=2, sort_keys=True)


def solution_paths_from_json(text: str) -> list[Path]:
    """The paths of a solution; a path that is not a non-empty list of
    [x, y] cells raises ValueError naming its robot."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not isinstance(payload.get("paths"), list):
        raise ValueError('a solution needs a "paths" list')
    return [cells_from_json(p, i, "path")
            for i, p in enumerate(payload["paths"])]


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
                                 seed: int = 0,
                                 stats: SolveStats | None = None,
                                 fields: FieldCache | None = None
                                 ) -> list[Path]:
    """Prioritized space-time scheduling around earlier robots' reservations.

    Robots go longest initial path first, ties by index, restarted by
    `search.plan_prioritized` when one fails.  Robots whose initial path is
    already clean keep it unchanged; the rest re-plan with waits allowed,
    by the layered search of `search._layered_plan`, which reads the goal's
    field in `fields`: the map's field cache, such as the one phase 1
    filled, or a new one.  Each robot's final cell is reserved for all
    later steps.  Raises ResolverError naming the robot that could not be
    scheduled within the time bound on the last attempt.

    A re-planned path is the one a space-time A* over (cell, step) states
    returns (Silver, "Cooperative Pathfinding", AIIDE 2005): states keyed
    by (f, t) with the goal distance as h, ties broken by a one-step hash
    of the state's int t * size + id, `_fold(_mix(_mix(seed, i)), state)`
    for robot i, and equal hashes by the id, terminal once the robot can
    rest on its goal.  `resolver_expansions` counts the (id, step) states
    in the layers of every re-plan on every attempt; `robots_replanned` and
    `wait_steps_added` describe the returned paths.
    """
    if stats is None:
        stats = SolveStats()
    if fields is None:
        fields = FieldCache(grid, distance_field)
    cell_id, cell_at = grid.cell_id, grid.cell_at
    initial = [[cell_id(c) for c in path] for path in initial_paths]

    def plan_one(i: int, attempt: int, reservations: _Reservations) -> list[int]:
        ids = initial[i]
        if not reservations.path_is_clean(ids):
            bound = 2 * (grid.width + grid.height) + reservations.max_time
            goal_free_from = reservations.free_from(ids[-1])
            path = None
            if goal_free_from != -2:
                path, states = _layered_plan(
                    ids[0], fields(initial_paths[i][-1]), reservations, bound,
                    goal_free_from, _mix(seed, i))
                stats.resolver_expansions += states
            if path is None:
                stats.resolver_restarts = attempt
                why = ("goal permanently reserved" if goal_free_from == -2
                       else f"no conflict-free path within {bound} steps")
                raise ResolverError(i, f"robot {i}: {why}", stats)
            ids = path
        reservations.add_path(ids)
        return ids

    order = sorted(range(len(initial)), key=lambda i: (-len(initial[i]), i))
    paths, attempts = plan_prioritized(len(grid.template), order, plan_one, seed)
    stats.resolver_restarts = attempts - 1
    stats.robots_replanned = sum(p != q for p, q in zip(paths, initial))
    stats.wait_steps_added = sum(len(p) - len(q) for p, q in zip(paths, initial))
    return [[cell_at[v] for v in p] for p in paths]


def solve_mpp(instance: MppInstance, params: UsageParams | None = None,
              iterations: int = 1, cfg: SearchConfig | None = None,
              fields: FieldCache | None = None) -> Solution:
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
    stats.initial_vertex_conflicts, stats.initial_swap_conflicts = (
        timed_conflicts(initial))
    stats.initial_max_vertex_overlap = max_vertex_overlap(initial)
    stats.initial_total_overlap = total_pairwise_overlap(initial)

    t1 = time.perf_counter()
    final = default_resolver_prioritized(instance.grid, initial,
                                         seed=cfg.tie_break_seed, stats=stats,
                                         fields=fields)
    stats.resolve_seconds = time.perf_counter() - t1
    return Solution(final, makespan(final), sum_of_cost(final), stats)


def lower_bounds(instance: MppInstance,
                 fields: FieldCache | None = None) -> tuple[int, int]:
    """(makespan, sum-of-cost) lower bounds from single-robot distances;
    InstanceError when a goal is unreachable from its start.

    Reads `fields`, such as the cache `solve_mpp` filled, or a new cache.
    """
    if fields is None:
        fields = FieldCache(instance.grid, distance_field)
    dists = task_distances(fields, instance.tasks)
    return max(dists, default=0), sum(dists)
