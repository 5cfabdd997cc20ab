"""Shared helpers for the test suite."""

from __future__ import annotations

import heapq
import json
import random
from collections import deque
from dataclasses import dataclass, field
from operator import add

from spreadplan.grid import FieldCache, GridMap, MapParseError, distance_field
from spreadplan.oneshot import Conflict, ResolverError, SolveStats
from spreadplan.search import (RESTARTS, SearchConfig, _fold, _mix, _TieQueue,
                               _unwind, find_path_cost_to_go)
from spreadplan.usage import (Cell, Path, UsageParams, UsageTable,
                              UsageUnderflowError)


def eager_bfs(grid: GridMap, goal):
    """Reference: every reachable cell's distance to the goal, all at once."""
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        v = queue.popleft()
        for n in grid.neighbors(v):
            if n not in dist:
                dist[n] = dist[v] + 1
                queue.append(n)
    return dist


class EagerTieHeap:
    """Reference for `search._TieQueue`: one heap of (key, tie, state)
    tuples, the tie hashed at every push."""

    def __init__(self, tie):
        self.tie = tie
        self.heap = []

    def push(self, key, state):
        heapq.heappush(self.heap, (key, self.tie(state), state))

    def pop(self):
        key, _, state = heapq.heappop(self.heap)
        return key, state


def reference_components(grid: GridMap) -> list[set]:
    """Reference: the 4-connected components, each by a per-cell BFS, in the
    row-major order of their first cell."""
    components = []
    seen: set = set()
    for y in range(grid.height):
        for x in range(grid.width):
            if (x, y) in seen or (x, y) in grid.blocked:
                continue
            component = {(x, y)}
            queue = deque([(x, y)])
            while queue:
                for n in grid.neighbors(queue.popleft()):
                    if n not in component:
                        component.add(n)
                        queue.append(n)
            seen |= component
            components.append(component)
    return components


def reference_lines(text: str) -> list[str]:
    r"""Reference: the lines of `text`, one character at a time; only `\n`,
    `\r\n` and `\r` end a line."""
    lines, line = [], ""
    after_cr = False
    for ch in text:
        if ch == "\n" and after_cr:
            after_cr = False  # the second half of a \r\n
            continue
        after_cr = ch == "\r"
        if ch in "\r\n":
            lines.append(line)
            line = ""
        else:
            line += ch
    if line:
        lines.append(line)
    return lines


def reference_parse_rows(text: str) -> GridMap:
    """Reference for the map rows of `parse_movingai_map`, one character at a
    time; the header must be well formed."""
    lines = reference_lines(text)
    height, width = int(lines[1].split()[1]), int(lines[2].split()[1])
    blocked = set()
    for y, row in enumerate(lines[4:4 + height]):
        if len(row) != width:
            raise MapParseError(
                f"line {5 + y}: row length {len(row)} does not match width {width}")
        for x, ch in enumerate(row):
            if ch in "@OT":
                blocked.add((x, y))
            elif ch not in ".G":
                raise MapParseError(f"line {5 + y}: unknown cell character {ch!r}")
    return GridMap(width, height, frozenset(blocked))


def labelled(field):
    """Every cell a distance field has labelled so far, with its distance."""
    cell_at = field.grid.cell_at
    return {cell_at[v]: d for v, d in enumerate(field.labels) if d >= 0}


def random_shortest_path(grid: GridMap, rng: random.Random):
    """A seeded random shortest path between two random reachable cells."""
    cells = list(grid.vertices())
    for _ in range(50):
        a, b = rng.sample(cells, 2)
        dfield = distance_field(grid, b)
        if a in dfield:
            empty = UsageTable(params=UsageParams(1.0, 0.0, num_robots=1))
            cfg = SearchConfig(tie_break_seed=rng.randrange(1 << 30))
            return find_path_cost_to_go(grid, a, b, empty, dfield, cfg)
    raise RuntimeError("could not sample a connected pair")


def reference_one_goal_instance(grid: GridMap, n: int, seed: int):
    """Reference for `generate_instance` with one goal per robot: it rebuilds
    the pool of free cells other than the start for every robot."""
    cells = list(grid.vertices())
    rng = random.Random(seed)
    starts = rng.sample(cells, n)
    robots = []
    available = set(cells)
    for s in starts:
        pool = [c for c in cells if c in available and c != s]
        if not pool:  # forced on a map too small to avoid start == goal
            pool = [c for c in cells if c in available]
        g = rng.choice(pool)
        available.discard(g)
        robots.append((s, [g]))
    return robots


def build_prior_paths(grid: GridMap, rng: random.Random, count: int):
    return [random_shortest_path(grid, rng) for _ in range(count)]


def pairwise_conflicts(paths):
    """Reference: the O(n^2 * T) pairwise vertex and swap scan.

    Robots rest at their final cell once their path ends.  Conflicts come in
    (i, j, t) order, as `validate_solution` reports them.
    """
    horizon = max((len(p) for p in paths), default=0)

    def pos(p, t):
        return p[t] if t < len(p) else p[-1]

    conflicts = []
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            pi, pj = paths[i], paths[j]
            for t in range(horizon):
                a, b = pos(pi, t), pos(pj, t)
                if a == b:
                    conflicts.append(Conflict("vertex", (i, j), t, a))
                if t > 0 and a != b:
                    if a == pos(pj, t - 1) and b == pos(pi, t - 1):
                        conflicts.append(Conflict("swap", (i, j), t, (b, a)))
    return conflicts


def random_walks(rng: random.Random, count: int, size: int = 5):
    """Seeded lazy random walks of unequal lengths on a small open square,
    with planted collisions: a robot on another's cell at the same step, a
    head-on swap, a follower one step behind (not a swap), and a walk into
    a robot resting at its end."""
    def walk(start, steps):
        path = [start]
        for _ in range(steps):
            x, y = path[-1]
            dx, dy = rng.choice(((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))
            path.append((min(max(x + dx, 0), size - 1),
                         min(max(y + dy, 0), size - 1)))
        return path

    def cell():
        return (rng.randrange(size), rng.randrange(size))

    paths = [walk(cell(), rng.randint(0, 9)) for _ in range(count)]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(count), 2)
        kind = rng.choice(("vertex", "swap", "follow", "rest"))
        pi = paths[i]
        if kind == "vertex":
            # j copies i's first steps and then wanders off
            paths[j] = pi[:rng.randint(1, len(pi))] + walk(pi[-1], 2)[1:]
        elif kind == "swap" and len(pi) >= 2:
            t = rng.randrange(1, len(pi))
            a, b = pi[t - 1], pi[t]
            if a != b:
                # j crosses i's move at step t the other way
                paths[j] = [b] * t + [a] + walk(a, rng.randint(0, 3))[1:]
        elif kind == "follow" and len(pi) >= 2:
            paths[j] = [pi[0]] + pi[:-1]  # one step behind i, same direction
        elif kind == "rest":
            # j walks onto i's resting cell after i has stopped there
            paths[j] = walk(cell(), len(pi) + 1) + [pi[-1]]
    return paths


# Reference for the prioritized resolver: its space-time A* and the
# reservation table it read, as they were before the layered search.

class ReferenceReservations:
    """Reference for `search._Reservations`, every index kept at each add.

    Space-time bookkeeping for prioritized planning, hashed on int keys.

    Cells are padded ids below `size` (see `spreadplan.grid`), and so are
    the paths that `add_path` and `path_is_clean` take.  Id v at step t is
    the key t * size + v, and a move from `frm` to `to` that arrives at step
    t is the key (t * size + frm) * size + to.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.vertex: set[int] = set()  # keys of (id, t)
        self.edge: set[int] = set()  # keys of (frm, to, arrival t)
        self.rest_from: dict[int, int] = {}  # id -> first resting step
        self.last: dict[int, int] = {}  # id -> latest reserved step
        self.max_time = 0

    def add_path(self, path: list[int]) -> None:
        size, last = self.size, self.last
        self.vertex.update(map(add, range(0, len(path) * size, size), path))
        for t, v in enumerate(path):
            if last.get(v, -1) < t:
                last[v] = t
        for t in range(1, len(path)):
            if path[t - 1] != path[t]:
                self.edge.add((t * size + path[t - 1]) * size + path[t])
        end = path[-1]
        rest_start = len(path) - 1
        self.rest_from[end] = min(self.rest_from.get(end, rest_start), rest_start)
        self.max_time = max(self.max_time, len(path) - 1)

    def blocked_vertex(self, v: int, t: int) -> bool:
        if t * self.size + v in self.vertex:
            return True
        rest = self.rest_from.get(v)
        return rest is not None and t >= rest

    def blocked_move(self, frm: int, to: int, t: int) -> bool:
        """True when arriving at `to` at step t collides with a reservation."""
        if self.blocked_vertex(to, t):
            return True
        # a reserved move the other way, from `to` to `frm`
        return frm != to and (t * self.size + to) * self.size + frm in self.edge

    def path_is_clean(self, path: list[int]) -> bool:
        for t, v in enumerate(path):
            if self.blocked_vertex(v, t):
                return False
            if t > 0 and self.blocked_move(path[t - 1], v, t):
                return False
        # resting at the end must stay clean forever after
        return self.last.get(path[-1], -1) < len(path) - 1

    def free_from(self, v: int) -> int:
        """First step after which v is never touched by a reservation."""
        if v in self.rest_from:
            return -2  # rested on forever; never free
        return self.last.get(v, -1) + 1


def reference_resolver_prioritized(grid: GridMap, initial_paths: list[Path],
                                   seed: int = 0,
                                   stats: SolveStats | None = None,
                                   fields: FieldCache | None = None
                                   ) -> list[Path]:
    """Reference for `oneshot.default_resolver_prioritized`, which re-planned
    each robot with the space-time A* below, with its own copy of the
    restart loop of `search.plan_prioritized`.

    Sequential space-time scheduling around earlier robots' reservations.

    Robots whose initial path is already clean keep it unchanged; the rest
    re-plan with waits allowed.  Each robot's final cell is reserved for all
    later steps.  A robot that cannot be scheduled within the time bound
    plans first on the next attempt; after RESTARTS restarts, the last such
    robot is named by a ResolverError.  `fields` is the map's field cache,
    such as the one phase 1 filled.
    """
    n = len(initial_paths)
    priority = sorted(range(n), key=lambda i: (-(len(initial_paths[i]) - 1), i))
    if stats is None:
        stats = SolveStats()
    if fields is None:
        fields = FieldCache(grid, distance_field)
    promoted: list[int] = []
    for attempt in range(RESTARTS + 1):
        rest = [i for i in priority if i not in promoted]
        if attempt > len(promoted) + 1:
            random.Random(_mix(seed, attempt)).shuffle(rest)
        try:
            result = _reference_attempt(grid, initial_paths, promoted + rest,
                                        seed, stats, fields)
        except ResolverError as err:
            stats.resolver_restarts = attempt
            failure = err
            promoted = [err.robot] + [r for r in promoted if r != err.robot]
            continue
        stats.resolver_restarts = attempt
        stats.robots_replanned = sum(
            p != q for p, q in zip(result, initial_paths))
        stats.wait_steps_added = sum(
            len(p) - len(q) for p, q in zip(result, initial_paths))
        return result
    raise failure


def _reference_attempt(grid: GridMap, initial_paths: list[Path],
                       order: list[int], seed: int, stats: SolveStats,
                       fields: FieldCache) -> list[Path]:
    """One attempt of the reference resolver, planning robots in `order`."""
    reservations = ReferenceReservations(len(grid.template))
    result: list[Path | None] = [None] * len(initial_paths)
    cell_id, cell_at = grid.cell_id, grid.cell_at
    for i in order:
        path = initial_paths[i]
        ids = [cell_id(c) for c in path]
        if reservations.path_is_clean(ids):
            result[i] = path
            reservations.add_path(ids)
            continue
        goal = path[-1]
        bound = 2 * (grid.width + grid.height) + reservations.max_time
        goal_free_from = reservations.free_from(ids[-1])
        if goal_free_from == -2:
            raise ResolverError(i, f"robot {i}: goal permanently reserved", stats)
        new_ids = reference_space_time_plan(grid, ids[0], ids[-1], fields(goal),
                                            reservations, bound, goal_free_from,
                                            _mix(seed, i), stats)
        if new_ids is None:
            raise ResolverError(
                i, f"robot {i}: no conflict-free path within {bound} steps", stats)
        result[i] = [cell_at[v] for v in new_ids]
        reservations.add_path(new_ids)
    return result  # type: ignore[return-value]


def reference_space_time_plan(grid: GridMap, start: int, goal: int, dfield,
                              reservations: ReferenceReservations, bound: int,
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


# Reference for the usage table as it was before temporal occupancies were
# stored once and counted over their window at read time.

@dataclass
class ReferenceUsageTable:
    """Reference for `usage.UsageTable`: each occupancy smeared over its
    window when written, every windowed key kept as its own counter.

    Occupancy counters over vertices and directed edges.

    Keys are (x, y) / (x1, y1, x2, y2) in aggregate mode and gain a trailing
    time component in temporal mode.  Mutated in place by add/remove so a
    planning loop can swap one robot's path without rebuilding; remove is the
    exact inverse of add.
    """

    params: UsageParams = field(default_factory=UsageParams)
    vertex_use: dict = field(default_factory=dict)
    edge_use: dict = field(default_factory=dict)

    @classmethod
    def build(cls, paths: list[Path | None], params: UsageParams) -> "ReferenceUsageTable":
        table = cls(params=params)
        for path in paths:
            if path is not None:
                table.add_path(path)
        return table

    def add_path(self, path: Path) -> None:
        self._update(path, 1)

    def remove_path(self, path: Path) -> None:
        self._update(path, -1)

    def _update(self, path: Path, delta: int) -> None:
        """Add delta (+1 or -1) to each counter the path claims, in a fixed
        order; a removal that would take a counter below zero raises."""
        params = self.params
        if params.temporal:
            wb, wa = params.window_before, params.window_after
            vertex_keys = [(x, y, tq) for t, (x, y) in enumerate(path)
                           for tq in range(max(0, t - wb), t + wa + 1)]
            edge_keys = [(u[0], u[1], v[0], v[1], tq)
                         for t, (u, v) in enumerate(zip(path, path[1:]), 1)
                         if u != v for tq in range(max(0, t - wb), t + wa + 1)]
        else:
            vertex_keys = path
            edge_keys = [(u[0], u[1], v[0], v[1])
                         for u, v in zip(path, path[1:]) if u != v]
        for counts, keys in ((self.vertex_use, vertex_keys),
                             (self.edge_use, edge_keys)):
            for key in keys:
                c = counts.get(key, 0) + delta
                if c > 0:
                    counts[key] = c
                elif c == 0:
                    del counts[key]
                else:
                    raise UsageUnderflowError(f"count underflow at {key}")

    def penalty(self, frm: Cell, to: Cell, t: int = 0) -> float:
        """Surcharge for arriving at `to` from `frm` at time t.

        The vertex term counts claims on the destination; the edge term counts
        robots traversing the opposite direction (to -> frm), i.e. head-to-head
        exposure.  Wait moves have no edge term.  Aggregate tables ignore t.
        """
        params = self.params
        if params.temporal:
            vcount = self.vertex_use.get((to[0], to[1], t), 0)
            ecount = 0 if to == frm else self.edge_use.get(
                (to[0], to[1], frm[0], frm[1], t), 0)
        else:
            vcount = self.vertex_use.get(to, 0)
            ecount = 0 if to == frm else self.edge_use.get(
                (to[0], to[1], frm[0], frm[1]), 0)
        return (params.vertex_weight * vcount
                + params.edge_weight * ecount) / params.num_robots

    def vertex_count(self, cell: Cell, t: int | None = None) -> int:
        if self.params.temporal:
            return self.vertex_use.get((cell[0], cell[1], 0 if t is None else t), 0)
        return self.vertex_use.get(cell, 0)

    def to_json(self) -> str:
        """Stable debug dump: sorted comma-joined keys to counts."""
        payload = {
            "params": {
                "vertex_weight": self.params.vertex_weight,
                "edge_weight": self.params.edge_weight,
                "window_before": self.params.window_before,
                "window_after": self.params.window_after,
                "temporal": self.params.temporal,
                "num_robots": self.params.num_robots,
            },
            "vertex_use": {",".join(map(str, k)): v for k, v in self.vertex_use.items()},
            "edge_use": {",".join(map(str, k)): v for k, v in self.edge_use.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)
