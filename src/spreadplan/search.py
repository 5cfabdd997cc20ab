"""Single-robot search with usage-aware guidance, plus the multi-robot pass loop.

Both single-robot searches walk only the shortest-path DAG: from each cell
they take only the moves one distance level nearer the goal, so every path
they return is a shortest path whatever the table holds.  A state is the
cell's id alone, also on a temporal table, where the step of a cell on the
DAG is fixed by its distance.  They differ in how a move's usage penalty
counts:

* cost_to_go (`find_path_cost_to_go`): an A* whose f adds the penalty to
  the distance, so the penalty breaks ties between the equal-length paths;
  the returned path is a shortest path whose largest move penalty is as
  small as possible, which on a vertex-only table means its worst interior
  cell is as lightly claimed as possible.

* cost_to_come (`find_path_cost_to_come`): a min-sum sweep over the DAG's
  distance levels from the start, with no queue; the returned path is a
  shortest path with the least summed penalty, which on an aggregate
  vertex table is the least total overlap with other paths.  An exactly
  equal sum goes to the predecessor with the smaller tie.

`plan_independent_paths` runs these searches for every robot over several
passes, keeping one usage table updated incrementally.  `plan_prioritized`
runs both prioritized planners, the one-shot resolver and the windowed
solver: robots plan in turn around one space-time table, `_Reservations`,
and a robot that fails moves to the front of a restart.

Every search breaks ties by a seeded hash of its own int state: one
splitmix step (Steele, Lea and Flood, OOPSLA 2014), `_fold(_mix(seed),
state)`, with `_mix(seed)` computed once per search; the state itself
breaks an exactly equal hash.  `find_path_cost_to_go` pops a plain heap of
(f, h, tie, id).  `lifelong._plan_window` pops in the order of a heap of
(key, tie, state) from buckets by f level and step, ranking a bucket only
when it is first popped with more than one state.  The one-shot resolver's
re-plan, `_layered_plan`, needs no queue: one int per step holds every cell
the robot can stand on then, a layer of the bit-parallel BFS of Akiba,
Iwata and Yoshida (SIGMOD 2013), and a walk back from the goal, reading h
from the goal's distance field, picks the path an A* with this order returns.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from operator import add

from .grid import (FREE, Cell, DistanceField, FieldCache, GridMap, _bit_step,
                   distance_field)
from .usage import Path, UsageParams, UsageTable

MASK64 = (1 << 64) - 1
RESTARTS = 10  # attempts after the first in `plan_prioritized`


class NoPathError(RuntimeError):
    pass


class InstanceError(ValueError):
    pass


class PlanningError(RuntimeError):
    """A prioritized planner could not plan robot `robot`."""

    def __init__(self, robot: int, message: str):
        super().__init__(message)
        self.robot = robot


def _fold(h: int, part: int) -> int:
    """One step of the `_mix` fold: `_fold(_mix(s, *a), p) == _mix(s, *a, p)`.

    A search's tie for state p is `_fold(_mix(seed), p)`: one step per
    state, and distinct states below 2**64 never share a tie, since every
    part of the step is a bijection on 64-bit words.
    """
    h = (h ^ (part & MASK64)) * 0xBF58476D1CE4E5B9 & MASK64
    h = (h ^ (h >> 27)) * 0x94D049BB133111EB & MASK64
    return h ^ (h >> 31)


def _mix(seed: int, *parts: int) -> int:
    """Deterministic 64-bit hash for seeded tie-breaking (splitmix-style)."""
    h = (seed * 0x9E3779B97F4A7C15) & MASK64
    for p in parts:
        h = _fold(h, p)
    return h


@dataclass
class SearchConfig:
    mode: str = "cost_to_go"  # or "cost_to_come"
    tie_break_seed: int = 0


@dataclass
class SearchStats:
    expansions: int = 0
    generated: int = 0
    evaluations: int = 0  # penalty reads
    penalty_bound_violations: int = 0


def _unwind(parents: dict, state: int, size: int) -> list[int]:
    """The ids from the start state to `state`, following `parents`, for
    int states whose remainder modulo `size` is the id."""
    ids = []
    while state is not None:
        ids.append(state % size)
        state = parents[state]
    ids.reverse()
    return ids


class _Reservations:
    """Space-time bookkeeping for prioritized planning, hashed on int keys.

    Cells are padded ids below `size` (see `spreadplan.grid`), and so are
    the paths that `add_path` and `path_is_clean` take.  Id v at step t is
    the key t * size + v, and a move from `frm` to `to` that arrives at step
    t is the key (t * size + frm) * size + to.

    `add_path` stores the path and fills the `vertex` and `edge` key sets,
    which every planner reads.  The one-shot resolver also reads where
    paths rest, how late each id is reserved and, in `_layered_plan`, bit
    masks by step; these are derived from the stored paths when first read
    after an add, so the windowed solver never pays for them.

    Both indexes stay: a mask steps a whole layer in a few shifts, but one
    bit test `m >> v & 1` copies the bits above v (up to 4 us on a 257x256
    map, against 40 ns for a set probe), so per-cell checks read the sets;
    `_plan_window` on masks ran 2-9% slower on the warehouse benchmark.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.vertex: set[int] = set()  # keys of (id, t)
        self.edge: set[int] = set()  # keys of (frm, to, arrival t)
        self._pending: list[list[int]] = []  # paths not yet in the indexes
        self._rest_from: dict[int, int] = {}  # id -> first resting step
        self._last: dict[int, int] = {}  # id -> latest reserved step
        self._max_time = 0
        # by step t <= max_time, bit v for id v: the ids reserved at t, the
        # ids where a path starts resting at t, and per difference to - frm
        # the `to` ids of the reserved moves that arrive at t
        self._vertex_masks = [0]
        self._rest_masks = [0]
        self._move_masks: dict[int, list[int]] = {}

    def add_path(self, path: list[int]) -> None:
        size = self.size
        self._pending.append(path)
        self.vertex.update(map(add, range(0, len(path) * size, size), path))
        for t in range(1, len(path)):
            if path[t - 1] != path[t]:
                self.edge.add((t * size + path[t - 1]) * size + path[t])

    def _index(self) -> None:
        """Fold the paths stored since the last read into the indexes."""
        if not self._pending:
            return
        last, rest_from = self._last, self._rest_from
        vertex_masks, rest_masks = self._vertex_masks, self._rest_masks
        move_masks = self._move_masks
        for path in self._pending:
            end = len(path) - 1
            if end > self._max_time:
                grow = [0] * (end - self._max_time)
                for masks in (vertex_masks, rest_masks, *move_masks.values()):
                    masks.extend(grow)
                self._max_time = end
            prev = path[0]
            for t, v in enumerate(path):
                if last.get(v, -1) < t:
                    last[v] = t
                vertex_masks[t] |= 1 << v
                if v != prev:
                    moved = move_masks.get(v - prev)
                    if moved is None:
                        moved = move_masks[v - prev] = [0] * (self._max_time + 1)
                    moved[t] |= 1 << v
                prev = v
            rest_from[path[-1]] = min(rest_from.get(path[-1], end), end)
            rest_masks[end] |= 1 << path[-1]
        self._pending = []

    @property
    def rest_from(self) -> dict[int, int]:
        self._index()
        return self._rest_from

    @property
    def max_time(self) -> int:
        self._index()
        return self._max_time

    def path_is_clean(self, path: list[int]) -> bool:
        """True when no step of `path` meets a reservation: a reserved or
        rested-on id, or a reserved move the other way."""
        self._index()
        size, vertex, edge = self.size, self.vertex, self.edge
        rest_from = self._rest_from
        prev = path[0]
        for t, v in enumerate(path):
            key = t * size + v
            if key in vertex:
                return False
            rest = rest_from.get(v)
            if rest is not None and t >= rest:
                return False
            if v != prev and key * size + prev in edge:
                return False
            prev = v
        # resting at the end must stay clean forever after
        return self._last.get(path[-1], -1) < len(path) - 1

    def free_from(self, v: int) -> int:
        """First step after which v is never touched by a reservation."""
        if v in self.rest_from:
            return -2  # rested on forever; never free
        return self._last.get(v, -1) + 1


def _layered_plan(start: int, dfield: DistanceField,
                  reservations: _Reservations, bound: int, goal_free_from: int,
                  seed: int) -> tuple[list[int] | None, int]:
    """The path of the one-shot resolver's space-time A*, from bit-mask
    layers, or None; and the number of (id, step) states in the layers.

    `dfield` is the goal's field.  `start` and the returned path are
    padded ids of its map, and bit v of a mask stands for id v.  Layer t
    holds every id the robot can stand on at step t; the next layer is its
    four shifts and itself, cleared of blocked ids, reserved and rested-on
    ids, and of moves that swap with a reserved move.  The A*'s terminal is
    the goal in the first layer t >= `goal_free_from` that holds it, so f*
    = t; there is none when a layer is empty or t passes `bound`.  Its h is
    the distance to the goal in `dfield`.

    The A* pops a state before the terminal exactly when its f = t + h is
    at most f* (and t < f*), since h is consistent.  It gives a state its
    first-popped predecessor as parent.  Those predecessors all have f <=
    f* and the same t, and the queue pops by (key, tie, state), so the
    parent is the predecessor with the least (h, tie, id).  Labels are
    exact from the moment a cell is first reached, so h reads the label and
    grows the field only for a label still FREE.
    """
    reservations._index()
    grid = dfield.grid
    goal = grid.cell_id(dfield.goal)
    stride = grid.stride
    passable = grid.passable_mask
    steps = (1, -1, stride, -stride)
    vertex_masks, rest_masks = reservations._vertex_masks, reservations._rest_masks
    none = [0] * len(vertex_masks)
    # per step s, the ids u whose move to u + s swaps with a reserved move
    swaps = [reservations._move_masks.get(-s, none) for s in steps]
    swap1, swap2, swap3, swap4 = swaps
    # from this step on, no id is reserved and no reserved move arrives
    horizon = len(vertex_masks)
    goal_bit = 1 << goal
    layer = 1 << start
    layers = [layer]
    rested = rest_masks[0]
    t = 0
    while t < goal_free_from or not layer & goal_bit:
        if t >= bound:
            layer = 0
            break
        t += 1
        if t < horizon:
            rested |= rest_masks[t]
            layer = (layer | (layer & ~swap1[t]) << 1 | (layer & ~swap2[t]) >> 1
                     | (layer & ~swap3[t]) << stride
                     | (layer & ~swap4[t]) >> stride
                     ) & passable & ~(vertex_masks[t] | rested)
        else:
            if t == horizon:
                unreserved = passable & ~rested
            layer = _bit_step(layer, unreserved, stride)
        if not layer:
            break
        layers.append(layer)
    states = sum(r.bit_count() for r in layers)
    if not layer:
        return None, states

    labels, label_at = dfield.labels, dfield.at
    salt = _mix(seed)
    size = len(grid.template)
    path = [goal]
    v, h = goal, 0
    for t in range(t, 0, -1):
        # the predecessors of (v, t), each ranked by (h, tie, id), the tie
        # of the A* state (u, t - 1), whose int is (t - 1) * size + u
        prev = layers[t - 1]
        at_prev = (t - 1) * size
        ranked = [(h, _fold(salt, at_prev + v), v)] if prev >> v & 1 else []
        for s, swap in zip(steps, swaps):
            u = v - s
            if prev >> u & 1 and not (t < horizon and swap[t] >> u & 1):
                hu = labels[u]
                if hu == FREE:
                    hu = label_at(u)
                ranked.append((hu, _fold(salt, at_prev + u), u))
        h, _, v = min(ranked)
        path.append(v)
    path.reverse()
    return path, states


def plan_prioritized(size: int, base_order: list[int], plan_one,
                     seed: int) -> tuple[list[list[int]], int]:
    """Prioritized planning (Silver, AIIDE 2005) with restarts.

    Each attempt plans robots one at a time around a fresh `_Reservations`
    of ids below `size`: `plan_one(i, attempt, reservations)` reserves and
    returns robot i's padded-id path, or raises PlanningError.  Robots that
    failed go first, latest first, then the rest in `base_order`, shuffled
    by `_mix(seed, attempt)` when `attempt` exceeds their count plus one.
    Returns the paths by robot and the attempts made; after RESTARTS
    restarts, raises the last failure.
    """
    promoted: list[int] = []
    for attempt in range(RESTARTS + 1):
        rest = [i for i in base_order if i not in promoted]
        if attempt > len(promoted) + 1:
            random.Random(_mix(seed, attempt)).shuffle(rest)
        reservations = _Reservations(size)
        paths: list = [None] * len(base_order)
        try:
            for i in promoted + rest:
                paths[i] = plan_one(i, attempt, reservations)
        except PlanningError as err:
            failure = err.with_traceback(None)  # keeps no frames alive
            promoted = [err.robot] + [r for r in promoted if r != err.robot]
            continue
        return paths, attempt + 1
    raise failure


_UNSEEN = float("inf")  # above every f


def find_path_cost_to_go(start: Cell, table: UsageTable, dfield: DistanceField,
                         seed: int = 0, stats: SearchStats | None = None,
                         stop_depth: int | None = None) -> Path:
    """Shortest path to the goal of `dfield` with the usage penalty as a
    heuristic tie-breaker.

    A* over the cells of the shortest-path DAG, with no wait move: on a
    temporal table a cell's step is its distance from the start, and the
    penalty is read at that step.  Every move on the DAG keeps g + h at the
    start's distance d*, so a state's f is d* + pen of the move that reached
    it; the queue key is (f, h), deepest first among equal f.  An expanded
    state is closed and refuses later pushes.  With every penalty in [0, 1),
    a move off the DAG, or a wait, would give f >= d* + 1 and never be
    popped before the goal, so leaving them out changes no result.  The
    path has the least largest move penalty of all shortest paths.  With
    stop_depth set, the search instead returns the best shortest-path prefix
    of that many steps, which keeps the cost bounded when only the first
    stretch of a long route matters.  The search reads the map and the
    goal from `dfield`; a `table` built on a map of another shape, whose
    keys name other cells, raises ValueError.
    """
    if stats is None:
        stats = SearchStats()
    grid, labels = dfield.grid, dfield.labels
    size = len(labels)
    if table.size != size or table.grid.width != grid.width:
        raise ValueError("usage table built on a map of another shape")
    base = dfield.get(start)
    if base is None:
        raise NoPathError(f"no path from {start} to {dfield.goal}")
    # the goal is the one cell at distance 0
    depth_end = 0 if stop_depth is None else max(0, base - stop_depth)

    # a state is a padded id below size; on a temporal table the step of id
    # v is base - labels[v], so the step adds nothing to its tie.  The
    # penalty of a move to v is (vw * claims on v + ew * claims on the move
    # back) / num_robots, read from the id-keyed counts.
    cell_at = grid.cell_at
    stride = grid.stride
    params = table.params
    vw, ew, num_robots = params.vertex_weight, params.edge_weight, params.num_robots
    temporal, wa, wb = params.temporal, params.window_after, params.window_before
    vertex, edge = table.vertex, table.edge
    salt = _mix(seed)
    start_id = grid.cell_id(start)
    parents = {start_id: None}
    d_star = float(base)  # f of the start, and of every move with no penalty
    best = {start_id: d_star}  # least f pushed; -1.0 once closed
    queue = [(d_star, base, _fold(salt, start_id), start_id)]
    found = None
    expansions = evaluations = generated = violations = 0
    while queue:
        f, h, _, v = heappop(queue)
        if f > best[v]:
            continue  # a stale queue entry, or closed
        best[v] = -1.0
        expansions += 1
        if h <= depth_end:
            found = v
            break
        # dfield.get(start) labelled every shortest path from the start
        h_next = h - 1
        if temporal:
            t_next = base - h_next
            lo, hi = t_next - wa, t_next + wb
        for nxt in (v + 1, v - 1, v + stride, v - stride):
            if labels[nxt] != h_next:
                continue
            vcount = vertex.get(nxt, 0)
            ecount = edge.get(nxt * size + v, 0)
            if temporal:
                vcount = vcount and bisect_right(vcount, hi) - bisect_left(vcount, lo)
                ecount = ecount and bisect_right(ecount, hi) - bisect_left(ecount, lo)
            pen = (vw * vcount + ew * ecount) / num_robots
            evaluations += 1
            if not 0.0 <= pen < 1.0:
                violations += 1
            nf = d_star + pen
            if nf < best.get(nxt, _UNSEEN):
                best[nxt] = nf
                parents[nxt] = v
                generated += 1
                heappush(queue, (nf, h_next, _fold(salt, nxt), nxt))
    stats.expansions += expansions
    stats.evaluations += evaluations
    stats.generated += generated
    stats.penalty_bound_violations += violations
    if found is None:
        raise NoPathError(f"no path from {start} to {dfield.goal}")
    return [cell_at[u] for u in _unwind(parents, found, size)]


def find_path_cost_to_come(start: Cell, table: UsageTable,
                           dfield: DistanceField, seed: int = 0,
                           stats: SearchStats | None = None) -> Path:
    """Shortest path to the goal of `dfield` with the least summed usage
    penalty along it.

    A sweep over the shortest-path DAG from the start, one distance level
    at a time: each reached cell keeps the least penalty sum over the moves
    into it from the level before, and the predecessor that gives it.  An
    exactly equal sum goes to the predecessor with the smaller tie,
    `_fold(_mix(seed), id)`.  On a temporal table a move is read at the step
    of the cell it arrives at, base - its label.  Every path compared is a
    shortest path, so the sum needs no scaling and carries no step count.
    `expansions` counts the reached cells, `generated` the moves that
    lowered a sum.  Map, goal and table as in `find_path_cost_to_go`.
    """
    if stats is None:
        stats = SearchStats()
    grid, labels = dfield.grid, dfield.labels
    size = len(labels)
    if table.size != size or table.grid.width != grid.width:
        raise ValueError("usage table built on a map of another shape")
    base = dfield.get(start)
    if base is None:
        raise NoPathError(f"no path from {start} to {dfield.goal}")
    cell_at = grid.cell_at
    stride = grid.stride
    params = table.params
    vw, ew, num_robots = params.vertex_weight, params.edge_weight, params.num_robots
    temporal, wa, wb = params.temporal, params.window_after, params.window_before
    vertex, edge = table.vertex, table.edge
    salt = _mix(seed)  # folded with an id on an equal sum only

    start_id = grid.cell_id(start)
    sums = {start_id: 0.0}
    parents = {start_id: None}
    level = [start_id]
    evaluations = generated = violations = 0
    # dfield.get(start) labelled every shortest path from the start
    for h in range(base - 1, -1, -1):
        if temporal:
            t = base - h
            lo, hi = t - wa, t + wb
        reached = []
        for u in level:
            su = sums[u]
            for v in (u + 1, u - 1, u + stride, u - stride):
                if labels[v] != h:
                    continue
                # the penalty of `find_path_cost_to_go`, read the same way
                vcount = vertex.get(v, 0)
                ecount = edge.get(v * size + u, 0)
                if temporal:
                    vcount = vcount and bisect_right(vcount, hi) - bisect_left(vcount, lo)
                    ecount = ecount and bisect_right(ecount, hi) - bisect_left(ecount, lo)
                pen = (vw * vcount + ew * ecount) / num_robots
                evaluations += 1
                if not 0.0 <= pen < 1.0:
                    violations += 1
                s = su + pen
                old = sums.get(v)
                if old is None:
                    reached.append(v)
                elif s > old:
                    continue
                elif s == old:
                    if _fold(salt, u) < _fold(salt, parents[v]):
                        parents[v] = u
                    continue
                sums[v] = s
                parents[v] = u
                generated += 1
        stats.expansions += len(level)
        level = reached
    stats.expansions += len(level)
    stats.evaluations += evaluations
    stats.generated += generated
    stats.penalty_bound_violations += violations
    path = []
    v = level[0]  # the goal, the only cell at distance 0
    while v is not None:
        path.append(cell_at[v])
        v = parents[v]
    path.reverse()
    return path


def task_distances(fields: FieldCache,
                   tasks: list[tuple[Cell, Cell]]) -> list[int]:
    """Each robot's start-goal distance; InstanceError names the first robot
    whose goal its start cannot reach."""
    dists = []
    for i, (s, g) in enumerate(tasks):
        d = fields(g).get(s)
        if d is None:
            raise InstanceError(f"robot {i}: goal {g} unreachable from {s}")
        dists.append(d)
    return dists


def order_robots(distances: list[int]) -> list[int]:
    """Robot indices sorted by start-goal distance, longest first, stable ties."""
    return sorted(range(len(distances)), key=lambda i: (-distances[i], i))


def plan_independent_paths(grid: GridMap, tasks: list[tuple[Cell, Cell]],
                           params: UsageParams, iterations: int,
                           cfg: SearchConfig | None = None,
                           order: str = "desc",
                           fields: FieldCache | None = None,
                           on_iteration=None,
                           stats: SearchStats | None = None) -> list[Path]:
    """Plan one individually-shortest path per robot, spreading usage.

    Each of the `iterations` passes re-plans every robot against all other
    robots' current paths, updating one shared table incrementally.  Robots
    are processed in `order` of start-goal distance: "desc" (the default,
    longest first), "asc" (shortest first) or "random".  The order only
    shapes the first pass, which starts from an empty table, so the robots
    planned first see no usage.  There shortest-first gives the lower peak:
    long paths placed first fill the cells that short paths, having few
    alternative shortest routes, must then stack on.  Later passes see every
    other path, and all three orders reach the same peak by about r=5.
    iterations == 0 plans plain shortest paths with seeded random
    tie-breaking, against the empty table.  Paths return in input order.
    `fields` is the map's field cache, such as one a caller shares with
    later phases.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    cfg = cfg or SearchConfig()
    n = len(tasks)
    if params.num_robots != n:
        params = replace(params, num_robots=max(n, 1))
    if fields is None:
        fields = FieldCache(grid, distance_field)
    dists = task_distances(fields, tasks)

    if order == "desc":
        sequence = order_robots(dists)
    elif order == "asc":
        sequence = sorted(range(n), key=lambda i: (dists[i], i))
    elif order == "random":
        sequence = list(range(n))
        random.Random(cfg.tie_break_seed).shuffle(sequence)
    else:
        raise ValueError(f"unknown order {order!r}")

    def search(i: int, table: UsageTable) -> Path:
        s, g = tasks[i]
        seed = _mix(cfg.tie_break_seed, i)
        if cfg.mode == "cost_to_come":
            return find_path_cost_to_come(s, table, fields(g), seed, stats)
        return find_path_cost_to_go(s, table, fields(g), seed, stats)

    paths: list[Path | None] = [None] * n
    table = UsageTable(grid, params)
    if iterations == 0:
        for i in sequence:
            paths[i] = search(i, table)
        return paths  # type: ignore[return-value]

    for it in range(iterations):
        for i in sequence:
            if paths[i] is not None:
                table.remove_path(paths[i])
            paths[i] = search(i, table)
            table.add_path(paths[i])
        if on_iteration is not None:
            on_iteration(it + 1, [list(p) for p in paths])  # type: ignore[arg-type]
    return paths  # type: ignore[return-value]
