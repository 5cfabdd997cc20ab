"""Rolling-horizon planning for streams of goals, and one-shot solving via it.

Each cycle (`_cycle`): shorten every robot's goal list to roughly one horizon
of travel; unless the variant is `baseline`, replace the last kept goal by a
vertex just past the horizon on a shortest leg (the *horizon cut*, which stops
the windowed solver from planning steps that would be thrown away), picked by
the usage penalty in the `cut+usage` variants so beyond-horizon targets spread
out; then call a windowed solver for an h-step collision-free segment and
execute all h steps.
"""

from __future__ import annotations

import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .grid import BLOCKED, Cell, DistanceField, FieldCache, GridMap, distance_field
from .metrics import makespan, sum_of_cost, throughput
from .oneshot import MppInstance, lower_bounds
from .search import (InstanceError, NoPathError, PlanningError, _fold, _mix,
                     _Reservations, _unwind, find_path_cost_to_go,
                     plan_prioritized)
from .usage import Path, UsageParams, UsageTable


class WindowedSolverError(PlanningError):
    """No collision-free window found for some robot after all restarts."""


class LivelockError(RuntimeError):
    """One-shot horizon solving stopped making progress."""


VARIANTS = ("baseline", "cut", "cut+usage", "cut+usage+temporal")
STALL_CYCLES = 20  # cycles without a newly settled robot before a livelock
MAX_EXPANSIONS = 200_000  # per robot window, before `_plan_window` falls back


@dataclass
class HorizonConfig:
    h: int = 5
    variant: str = "cut"  # one of VARIANTS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError("horizon must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


def config_for_variant(variant: str, h: int, seed: int = 0) -> HorizonConfig:
    return HorizonConfig(h=h, variant=variant, seed=seed)


class GoalStream:
    """Per-robot queue of goal cells, replenished by a seeded generator.

    Consecutive goals are always distinct so every leg has positive length.
    A stream built from a fixed list never replenishes.
    """

    def __init__(self, grid: GridMap, seed: int | None = None,
                 initial: list[Cell] | None = None):
        self._pending: deque[Cell] = deque(initial or [])
        self._last: Cell | None = self._pending[-1] if self._pending else None
        self._rng = random.Random(seed) if seed is not None else None
        self._cells = grid.passable_cells if self._rng is not None else ()

    def ensure(self, count: int) -> None:
        if self._rng is None:
            return
        while len(self._pending) < count:
            g = self._rng.choice(self._cells)
            while g == self._last and len(self._cells) > 1:
                g = self._rng.choice(self._cells)
            self._pending.append(g)
            self._last = g

    def upcoming(self, count: int) -> list[Cell]:
        self.ensure(count)
        return [self._pending[i] for i in range(min(count, len(self._pending)))]

    def peek(self) -> Cell | None:
        return self._pending[0] if self._pending else None

    def pop(self) -> Cell:
        return self._pending.popleft()

    def __len__(self) -> int:
        return len(self._pending)


@dataclass
class CycleRecord:
    cycle: int
    goals_cumulative: int
    solver_ms: float
    expansions: int
    target_conflicts: int


@dataclass
class LifelongStats:
    goals_reached: int = 0
    elapsed_steps: int = 0
    cycles: list[CycleRecord] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return throughput(self.goals_reached, self.elapsed_steps)

    @property
    def total_expansions(self) -> int:
        return sum(c.expansions for c in self.cycles)


def truncate_goal_list(position: Cell, goals: list[Cell], h: int,
                       dist) -> tuple[list[Cell], int]:
    """Keep goals until their chained travel distance first reaches h.

    Returns the kept chain with the current position prepended, plus the
    accumulated distance.  `dist(a, b)` must be an exact distance oracle.
    """
    chain = [position]
    d = 0
    for g in goals:
        d += dist(chain[-1], g)
        chain.append(g)
        if d >= h:
            break
    return chain, d


def horizon_cut_index(leg_len: int, total_dist: int, h: int) -> int:
    """Index along the final leg of the vertex one step past the horizon."""
    return min(leg_len, h - (total_dist - leg_len) + 1)


def _shortest_leg_path(start: Cell, dfield: DistanceField, steps: int) -> Path:
    """The first `steps` steps of the deterministic greedy walk down the
    distance field: at each step the first neighbour in NEIGHBOR_STEPS order
    one closer to the goal.  The walk stops early at the goal.  Looking up
    `start` labels every shortest path from it, so the walk reads labels
    and never grows the field."""
    grid = dfield.grid
    stride, cell_at = grid.stride, grid.cell_at
    labels = dfield.labels
    v = grid.cell_id(start)
    d = dfield[start]
    stop = max(0, d - steps)
    ids = [v]
    while d > stop:
        for nxt in (v + 1, v - 1, v + stride, v - stride):
            if labels[nxt] == d - 1:
                v = nxt
                d -= 1
                ids.append(v)
                break
        else:
            raise NoPathError(f"distance field has no descent from {cell_at[v]}")
    return [cell_at[v] for v in ids]


def apply_horizon_cut(grid: GridMap, chains: list[tuple[list[Cell], int]],
                      cfg: HorizonConfig, fields: FieldCache,
                      cycle_seed: int = 0) -> list[list[Cell]]:
    """Replace each chain's final goal by a vertex just past the horizon.

    With the `cut+usage` variants the leg path is chosen against a table of
    the legs already picked this cycle, so beyond-horizon targets spread
    out; with `cut` it is the greedy walk.  Chains that end inside the
    horizon are returned unchanged (the index clamps to the leg end).
    """
    table = None
    if cfg.variant.startswith("cut+usage"):
        # the temporal windows are a short smear around each leg step, 1
        # step before and 5 after; target legs are only loosely synchronized
        # with execution, and a batch calibration on warehouse runs showed a
        # small forward window works best there
        temporal = cfg.variant == "cut+usage+temporal"
        table = UsageTable(grid, UsageParams(
            0.5, 0.5, 1 if temporal else 0, 5 if temporal else 0, temporal,
            max(len(chains), 1)))
    targets: list[list[Cell]] = []
    for i, (chain, d) in enumerate(chains):
        if len(chain) < 2:
            targets.append(chain[1:])
            continue
        leg_start, leg_end = chain[-2], chain[-1]
        dfield = fields(leg_end)
        idx = horizon_cut_index(dfield[leg_start], d, cfg.h)
        if table is not None:
            # only the prefix up to the cut matters, and bounding the search
            # depth keeps long legs on large maps cheap
            leg_path = find_path_cost_to_go(leg_start, table, dfield,
                                            _mix(cfg.seed, cycle_seed, i),
                                            stop_depth=idx)
            table.add_path(leg_path)
        else:
            leg_path = _shortest_leg_path(leg_start, dfield, idx)
        targets.append(chain[1:-1] + [leg_path[-1]])
    return targets


def windowed_solver(grid: GridMap, states: list[Cell],
                    target_lists: list[list[Cell]], h: int,
                    fields: FieldCache | None = None,
                    seed: int = 0) -> tuple[list[Path], int]:
    """Prioritized h-step collision-free planning toward chained targets.

    Each robot plans a space-time path through its targets in order;
    reservations are enforced only inside the window, so planning beyond it
    is unconstrained (and the horizon cut exists to avoid it).  Robots plan
    longest-remaining-distance first, restarted by `search.plan_prioritized`
    when one fails.  Returns paths of exactly h steps and the total number
    of node expansions over every attempt.
    """
    n = len(states)
    if len(set(states)) != n:
        raise ValueError("robot states must be pairwise distinct")
    if fields is None:
        fields = FieldCache(grid, distance_field)
    plans = [_window_plan(grid, states[i], target_lists[i], fields)
             for i in range(n)]
    expansions_total = 0

    def plan_one(i: int, attempt: int, reservations: _Reservations) -> list[int]:
        nonlocal expansions_total
        path, exp = _plan_window(grid, plans[i], h, reservations,
                                 _mix(seed, attempt, i))
        expansions_total += exp
        if path is None:
            raise WindowedSolverError(
                i, f"robot {i}: no safe {h}-step window (attempt {attempt})")
        path = path[:h + 1]
        # a robot that ends the window standing still is parked up to step
        # 2h, so "wait, then walk through" never looks cheaper than an
        # actual detour around it
        parked = h if path[h] == path[h - 1] else 0
        reservations.add_path(path + [path[h]] * parked)
        return path

    order = sorted(range(n), key=lambda i: (-plans[i].rem0, i))
    paths, _ = plan_prioritized(len(grid.template), order, plan_one, seed)
    cell_at = grid.cell_at
    return [[cell_at[v] for v in p] for p in paths], expansions_total


class _WindowPlan(NamedTuple):
    """One robot's search inputs, the same on every attempt of a window."""

    start: int  # padded id
    target_ids: list[int]
    tfields: list[DistanceField]
    tlabels: list  # each target field's labels
    suffix: list[int]  # chained distance from target k to the last one
    rem0: int  # chained distance from the start through every target


def _window_plan(grid: GridMap, start: Cell, targets: list[Cell],
                 fields: FieldCache) -> _WindowPlan:
    """The plan of a robot at `start`; KeyError when a leg of its chain is
    unreachable, naming the leg's first cell."""
    tfields = [fields(g) for g in targets]
    legs = [f[a] for f, a in zip(tfields, [start] + targets)]
    K = len(targets)
    suffix = [0] * (K + 1)
    for k in range(K - 2, -1, -1):
        suffix[k] = suffix[k + 1] + legs[k + 1]
    return _WindowPlan(grid.cell_id(start), [grid.cell_id(g) for g in targets],
                       tfields, [f.labels for f in tfields], suffix, sum(legs))


def _plan_window(grid: GridMap, plan: _WindowPlan, h: int,
                 reservations: _Reservations,
                 seed: int) -> tuple[list[int] | None, int]:
    """Space-time A* through the target chain around earlier robots' windows.

    Works on padded ids: the plan's start, the reservations and the returned
    path.  The reservations hold each earlier robot's h-step window, and a
    robot that ends its window standing still stays reserved on that cell up
    to step 2h; beyond that, planning is unconstrained.  A state (id v, step
    t, targets reached k) is the int k * (max_t + 1) * size + t * size + v.
    Finishes when the whole chain is done and at least h steps have passed;
    if the chain cannot be finished within the bound, falls back to the safe
    h-step prefix that gets closest to the next target.

    Pops come in the order of a heap of (f, -t, tie, state), the tie
    `_fold(_mix(seed), state)`.  The chain's remaining distance is
    consistent, so a move raises f by 0, 1 or 2, and pops come level by
    level in f, deepest t first.  The current level is a stack of buckets
    by t, deepest last, where a move that keeps f lands at t + 1, the new
    deepest bucket.  A move that raises f puts its state on an unsorted
    list for that level, split into buckets by t only when the level is
    reached: most of those states are never popped.  A bucket of several
    states is ranked by (tie, state) once, just before its first pop; no
    state joins a bucket after that.
    """
    start, target_ids, tfields, tlabels, suffix, rem0 = plan
    K = len(target_ids)
    max_t = h + rem0 + grid.width + grid.height

    template = grid.template
    stride = grid.stride
    size = len(template)
    k_step = (max_t + 1) * size
    vertex_res, edge_res = reservations.vertex, reservations.edge

    def wait_safe(v: int, t_from: int) -> bool:
        return all(t * size + v not in vertex_res for t in range(t_from + 1, h + 1))

    salt = _mix(seed)

    def rank(states: list[int]) -> list[int]:
        """`states` in reverse pop order, the least (tie, state) last."""
        if len(states) > 1:
            states.sort(key=lambda s: (_fold(salt, s), s), reverse=True)
        return states

    # a state enters a bucket once, when it first enters parents, so no
    # state is popped twice and no closed set is needed
    parents: dict[int, int | None] = {start: None}  # the start state is t = k = 0
    f = rem0  # the level popped from
    stack = [[start]]  # its ranked buckets, deepest last
    shallower: list[list[int]] = []  # its unranked buckets, deepest last
    later: dict[int, list[int]] = {}  # f -> the states of a later level
    nearest, least = [], None  # the t == h pops of least remaining distance
    expansions = 0
    while expansions < MAX_EXPANSIONS:
        if not stack:
            if not shallower:
                if not later:
                    break
                f = min(later)
                by_t: dict[int, list[int]] = {}
                for state in later.pop(f):
                    by_t.setdefault(state % k_step // size, []).append(state)
                shallower = [by_t[t] for t in sorted(by_t)]
            stack.append(rank(shallower.pop()))
        bucket = stack[-1]
        state = bucket.pop()
        if not bucket:
            stack.pop()
        expansions += 1
        k, v = divmod(state, k_step)
        t, v = divmod(v, size)
        if k == K and (t >= h or wait_safe(v, t)):
            path = _unwind(parents, state, size)
            path.extend([v] * (h - t))
            return path, expansions
        if t == h:
            if least is None or f - h < least:
                nearest, least = [state], f - h
            elif f - h == least:
                nearest.append(state)
        if t >= max_t:
            continue
        nt = t + 1
        at_nt = nt * size
        # no reserved move arrives after step h: the parked tail only waits
        edges = edge_res if nt <= h else ()
        deeper = []  # the children that keep f
        for nxt in (v + 1, v - 1, v + stride, v - stride, v):
            if template[nxt] == BLOCKED:
                continue
            reserved = at_nt + nxt
            if reserved in vertex_res:
                continue
            # a reserved move the other way, from nxt to v
            if nxt != v and reserved * size + v in edges:
                continue
            nk = k
            if nk < K and nxt == target_ids[nk]:
                nk += 1
            nstate = nk * k_step + at_nt + nxt
            if nstate in parents:
                continue
            if nk < K:
                rem = tlabels[nk][nxt]
                if rem < 0:
                    rem = tfields[nk].at(nxt)
                    if rem is None:
                        continue
                rem += suffix[nk]
            else:
                rem = 0
            parents[nstate] = state
            nf = nt + rem
            if nf == f:
                deeper.append(nstate)
            else:
                level = later.get(nf)
                if level is None:
                    later[nf] = [nstate]
                else:
                    level.append(nstate)
        if deeper:  # at t + 1, below every bucket of the level
            stack.append(rank(deeper))
    if nearest:  # ranked only now, since a finished chain never needs it
        return _unwind(parents, rank(nearest)[-1], size), expansions
    return None, expansions


def _cycle(grid: GridMap, positions: list[Cell], goal_lists: list[list[Cell]],
           cfg: HorizonConfig, fields: FieldCache, cycle: int):
    """One planning cycle: each robot's goals truncated to about one horizon
    of travel, the last leg cut unless the variant is the baseline, then the
    windowed solve.  Returns the targets, the h-step paths, the solver's
    expansions and the milliseconds the solve took."""
    chains = [truncate_goal_list(p, goals, cfg.h, fields.dist)
              for p, goals in zip(positions, goal_lists)]
    if cfg.variant == "baseline":
        targets = [chain[1:] for chain, _ in chains]
    else:
        targets = apply_horizon_cut(grid, chains, cfg, fields, cycle)
    t0 = time.perf_counter()
    paths, expansions = windowed_solver(grid, positions, targets, cfg.h,
                                        fields, _mix(cfg.seed, cycle))
    return targets, paths, expansions, (time.perf_counter() - t0) * 1000.0


def run_lifelong(grid: GridMap, streams: list[GoalStream], cfg: HorizonConfig,
                 stop_goals: int,
                 positions: list[Cell] | None = None) -> LifelongStats:
    """Plan-execute loop until stop_goals goals have been reached.

    Deterministic for a given configuration, seed, and stream seeds.  Raises
    LivelockError when every stream has run out of goals before stop_goals
    were reached, as fixed goal lists can: no later cycle could reach one.
    InstanceError names a robot sent to a goal its cell cannot reach.
    Without `positions`, robots start on distinct cells drawn by the seed,
    and ValueError says when there are more robots than passable cells.
    """
    n = len(streams)
    stats = LifelongStats()
    if n == 0 or stop_goals <= 0:
        return stats
    if positions is None:
        cells = grid.passable_cells
        if n > len(cells):
            raise ValueError(f"cannot place {n} robots on {len(cells)} vertices")
        positions = random.Random(cfg.seed).sample(cells, n)
    fields = FieldCache(grid, distance_field)
    h = cfg.h

    # a goal reached where a robot already stands counts immediately
    for i in range(n):
        streams[i].ensure(h + 2)
        if streams[i].peek() == positions[i]:
            streams[i].pop()
            stats.goals_reached += 1

    cycle = 0
    while stats.goals_reached < stop_goals:
        for stream in streams:
            stream.ensure(h + 2)
        if all(len(stream) == 0 for stream in streams):
            raise LivelockError(
                f"every goal stream is empty after {stats.goals_reached} goals "
                f"of the {stop_goals} to reach")
        goal_lists = [s.upcoming(h + 2) for s in streams]
        try:
            targets, paths, expansions, solver_ms = _cycle(
                grid, positions, goal_lists, cfg, fields, cycle)
        except KeyError:  # a distance read across two components
            for i, goals in enumerate(goal_lists):
                for a, g in zip([positions[i]] + goals, goals):
                    if fields(g).get(a) is None:
                        raise InstanceError(
                            f"robot {i}: goal {g} unreachable from {a}") from None
            raise

        finals = Counter(ts[-1] for ts in targets if ts)
        target_conflicts = sum(c * (c - 1) // 2 for c in finals.values())

        for t in range(1, h + 1):
            for i in range(n):
                pos = paths[i][t]
                if streams[i].peek() == pos:
                    streams[i].pop()
                    stats.goals_reached += 1
        positions = [paths[i][h] for i in range(n)]
        stats.elapsed_steps += h
        cycle += 1
        stats.cycles.append(CycleRecord(cycle, stats.goals_reached, solver_ms,
                                        expansions, target_conflicts))
    return stats


@dataclass
class HorizonSolveResult:
    paths: list[Path]
    makespan: int
    sum_of_cost: int
    makespan_ratio: float
    cost_ratio: float
    cycles: int
    expansions: int


def solve_mpp_via_horizon(grid: GridMap, tasks: list[tuple[Cell, Cell]],
                          cfg: HorizonConfig) -> HorizonSolveResult:
    """One-shot solving as a horizon loop with single-goal target lists.

    The tasks are checked as an `MppInstance`, so blocked or repeated starts
    or goals raise InstanceError, as does a goal its start cannot reach.
    Cycles until every robot rests on its goal at a cycle boundary; raises
    LivelockError when STALL_CYCLES consecutive cycles pass with no robot
    newly settled.
    """
    instance = MppInstance(grid, tasks)
    n = len(tasks)
    starts = [s for s, _ in tasks]
    goals = [g for _, g in tasks]
    fields = FieldCache(grid, distance_field)
    lb_mk, lb_sc = lower_bounds(instance, fields)

    positions = list(starts)
    trajectories: list[Path] = [[s] for s in starts]
    expansions_total = 0
    cycle = 0
    best_settled = -1
    stalled = 0
    while positions != goals:
        _, paths, expansions, _ = _cycle(grid, positions, [[g] for g in goals],
                                         cfg, fields, cycle)
        expansions_total += expansions
        for i in range(n):
            trajectories[i].extend(paths[i][1:])
        positions = [p[-1] for p in paths]
        cycle += 1
        settled = sum(1 for i in range(n) if positions[i] == goals[i])
        if settled > best_settled:
            best_settled = settled
            stalled = 0
        else:
            stalled += 1
            if stalled >= STALL_CYCLES:
                raise LivelockError(
                    f"no progress for {STALL_CYCLES} cycles ({settled}/{n} settled)")

    mk, sc = makespan(trajectories), sum_of_cost(trajectories)
    return HorizonSolveResult(
        paths=trajectories, makespan=mk, sum_of_cost=sc,
        makespan_ratio=mk / lb_mk if lb_mk else 1.0,
        cost_ratio=sc / lb_sc if lb_sc else 1.0,
        cycles=cycle, expansions=expansions_total)
