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
  equal sum goes to the predecessor with the smaller `_mix(seed, x, y)`.

`plan_independent_paths` runs these searches for every robot over several
passes, keeping one usage table updated incrementally.  `plan_prioritized`
runs both prioritized planners, the one-shot resolver and the windowed
solver: robots plan in turn around one space-time table, `_Reservations`,
and a robot that fails moves to the front of a restart.

Both A* loops (`find_path_cost_to_go` here, over ids, and
`lifelong._plan_window`, over space-time states) pop their states through
`_TieQueue`.  It pops in exactly the order of a heap of (key, tie, state)
tuples, where the tie is a seeded splitmix hash of the state and the int
state itself breaks an exactly equal tie, yet it hashes a state only when
another state holds the same key at pop time: keys compare the same way in
a dict as in a heap.  The one-shot resolver needs no queue: its layered
search (`oneshot._layered_plan`) recovers the path and the pop count of an
A* with this order from bit-mask layers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from operator import add

from .grid import Cell, DistanceField, FieldCache, GridMap, distance_field
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


class _Ranked(list):
    """A `_TieQueue` bucket that has been ranked: a heap of (tie, state)."""

    __slots__ = ()


class _TieQueue:
    """Priority queue of int states that hashes a tie only when it must.

    Pops come in the order of a heap of (key, tie(state), state) entries.
    States wait in buckets by key, and the heap `keys` holds each live key
    once, so it is empty exactly when the queue is.  A bucket popped while
    it holds one state returns that state unhashed, since no other entry
    shares its key.  A bucket popped while it holds more is ranked once by
    (tie, state), and a later push into it is hashed on arrival.  Keys may
    be ints or tuples of numbers: a dict groups exactly the keys that a
    heap finds equal (`-0.0 == 0.0`, and both hash alike), so the two
    orders agree.

    `pop` returns (key, state).  Search loops bind `push` and `pop` to
    locals.
    """

    __slots__ = ("_tie", "keys", "_buckets")

    def __init__(self, tie) -> None:
        self._tie = tie
        self.keys: list = []  # heap of the keys with a live bucket
        # key -> one state, or a list of states not yet ranked, or a _Ranked
        self._buckets: dict = {}

    def push(self, key, state: int) -> None:
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = state
            heappush(self.keys, key)
        elif type(bucket) is int:
            buckets[key] = [bucket, state]
        elif type(bucket) is list:
            bucket.append(state)
        else:
            heappush(bucket, (self._tie(state), state))

    def pop(self) -> tuple:
        keys, buckets = self.keys, self._buckets
        key = keys[0]
        bucket = buckets[key]
        if type(bucket) is int:
            heappop(keys)
            del buckets[key]
            return key, bucket
        if type(bucket) is list:
            tie = self._tie
            bucket = buckets[key] = _Ranked((tie(s), s) for s in bucket)
            bucket.sort()
        state = heappop(bucket)[1]
        if not bucket:
            heappop(keys)
            del buckets[key]
        return key, state


def _fold(h: int, part: int) -> int:
    """One step of the `_mix` fold: `_fold(_mix(s, *a), p) == _mix(s, *a, p)`.

    Search loops memoize `_mix(seed, x, y)` per cell and continue it with the
    step, which gives the same tie values for a fraction of the work.
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


def _cell_mix(grid: GridMap, seed: int):
    """`_mix(seed, x, y)` of a padded id's cell, memoized per id."""
    cell_at = grid.cell_at
    memo: dict[int, int] = {}

    def mix(v: int) -> int:
        m = memo.get(v)
        if m is None:
            x, y = cell_at[v]
            m = memo[v] = _mix(seed, x, y)
        return m
    return mix


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
    paths rest, how late each id is reserved and bit masks by step; these
    are derived from the stored paths when first read after an add, so the
    windowed solver never pays for them.

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

    def step_masks(self, steps) -> tuple[list[int], list[int], list[list[int]]]:
        """Bit masks by step t = 0..max_time, bit v standing for id v.

        The ids reserved at t; the ids where a path starts resting at t; and
        for each id difference s in `steps`, the ids u whose move to u + s
        arriving at t would swap with a reserved move from u + s to u.
        """
        self._index()
        none = [0] * (self._max_time + 1)
        return (self._vertex_masks, self._rest_masks,
                [self._move_masks.get(-s, none) for s in steps])

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


def find_path_cost_to_go(grid: GridMap, start: Cell, goal: Cell,
                         table: UsageTable, dfield: DistanceField,
                         cfg: SearchConfig | None = None,
                         stats: SearchStats | None = None,
                         stop_depth: int | None = None) -> Path:
    """Shortest path with the usage penalty as a heuristic tie-breaker.

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
    stretch of a long route matters.
    """
    if stats is None:
        stats = SearchStats()
    base = dfield.get(start)
    if base is None:
        raise NoPathError(f"no path from {start} to {goal}")
    seed = (cfg or SearchConfig()).tie_break_seed
    temporal = table.params.temporal
    depth_end = -1 if stop_depth is None else base - stop_depth

    # a state is a padded id below size; on a temporal table the step of id
    # v is base - labels[v].  The table and the tie-break see (x, y) cells.
    cell_at = grid.cell_at
    size = len(cell_at)
    stride = grid.stride
    labels = dfield.labels
    penalty = table.penalty
    goal_id = grid.cell_id(goal)
    mix = _cell_mix(grid, seed)

    def tie(v: int) -> int:
        return _fold(mix(v), base - labels[v] if temporal else 0)

    queue = _TieQueue(tie)
    push, pop, live = queue.push, queue.pop, queue.keys
    start_id = grid.cell_id(start)
    parents = {start_id: None}
    best = {start_id: float(base)}  # least f pushed; -1.0 once closed
    push((float(base), base), start_id)
    while live:
        (f, h), v = pop()
        if f > best[v]:
            continue  # a stale queue entry, or closed
        best[v] = -1.0
        stats.expansions += 1
        if v == goal_id or h <= depth_end:
            return [cell_at[u] for u in _unwind(parents, v, size)]
        # _grow labels whole BFS levels: every cell nearer the goal is labelled
        h_next = h - 1
        t_next = base - h_next if temporal else 0
        cv = cell_at[v]
        for nxt in (v + 1, v - 1, v + stride, v - stride):
            if labels[nxt] != h_next:
                continue
            pen = penalty(cv, cell_at[nxt], t_next)
            stats.evaluations += 1
            if not 0.0 <= pen < 1.0:
                stats.penalty_bound_violations += 1
            nf = float(base) + pen
            if nf < best.get(nxt, _UNSEEN):
                best[nxt] = nf
                parents[nxt] = v
                stats.generated += 1
                push((nf, h_next), nxt)
    raise NoPathError(f"no path from {start} to {goal}")


def find_path_cost_to_come(grid: GridMap, start: Cell, goal: Cell,
                           table: UsageTable, dfield: DistanceField,
                           cfg: SearchConfig | None = None,
                           stats: SearchStats | None = None) -> Path:
    """Shortest path with the least summed usage penalty along it.

    A sweep over the shortest-path DAG from the start, one distance level
    at a time: each reached cell keeps the least penalty sum over the moves
    into it from the level before, and the predecessor that gives it.  An
    exactly equal sum goes to the predecessor with the smaller
    `_mix(seed, x, y)`.  On a temporal table a move is read at the step of
    the cell it arrives at, base - its label.  Every path compared is a
    shortest path, so the sum needs no scaling and carries no step count.
    `expansions` counts the reached cells, `generated` the moves that
    lowered a sum.
    """
    if stats is None:
        stats = SearchStats()
    base = dfield.get(start)
    if base is None:
        raise NoPathError(f"no path from {start} to {goal}")
    seed = (cfg or SearchConfig()).tie_break_seed
    temporal = table.params.temporal
    cell_at = grid.cell_at
    stride = grid.stride
    labels = dfield.labels
    penalty = table.penalty
    mix = _cell_mix(grid, seed)  # hashed on a tie only

    start_id = grid.cell_id(start)
    sums = {start_id: 0.0}
    parents = {start_id: None}
    level = [start_id]
    evaluations = generated = violations = 0
    # _grow labels whole BFS levels: every cell nearer the goal is labelled
    for h in range(base - 1, -1, -1):
        t = base - h if temporal else 0
        reached = []
        for u in level:
            su = sums[u]
            cu = cell_at[u]
            for v in (u + 1, u - 1, u + stride, u - stride):
                if labels[v] != h:
                    continue
                pen = penalty(cu, cell_at[v], t)
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
                    if mix(u) < mix(parents[v]):
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
    tie-breaking and no table.  Paths return in input order.  `fields` is
    the map's field cache, such as one a caller shares with later phases.
    """
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
        robot_cfg = SearchConfig(cfg.mode, _mix(cfg.tie_break_seed, i))
        if cfg.mode == "cost_to_come":
            return find_path_cost_to_come(grid, s, g, table, fields(g),
                                          robot_cfg, stats)
        return find_path_cost_to_go(grid, s, g, table, fields(g), robot_cfg, stats)

    paths: list[Path | None] = [None] * n
    if iterations == 0:
        empty = UsageTable(params=replace(params, window_before=0,
                                          window_after=0, temporal=False))
        for i in sequence:
            paths[i] = search(i, empty)
        return paths  # type: ignore[return-value]

    table = UsageTable(params=params)
    for it in range(iterations):
        for i in sequence:
            if paths[i] is not None:
                table.remove_path(paths[i])
            paths[i] = search(i, table)
            table.add_path(paths[i])
        if on_iteration is not None:
            on_iteration(it + 1, [list(p) for p in paths])  # type: ignore[arg-type]
    return paths  # type: ignore[return-value]
