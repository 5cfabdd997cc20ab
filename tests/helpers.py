"""Shared helpers for the test suite."""

from __future__ import annotations

import heapq
import random
from collections import deque

from spreadplan.grid import GridMap, distance_field
from spreadplan.oneshot import Conflict
from spreadplan.search import SearchConfig, find_path_cost_to_go
from spreadplan.usage import UsageParams, UsageTable


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
    """Reference for `search._TieQueue`: one heap of (key, tie, counter,
    state) tuples, the tie hashed at every push."""

    def __init__(self, tie):
        self.tie = tie
        self.heap = []
        self.counter = 0

    def push(self, key, state):
        self.counter += 1
        heapq.heappush(self.heap, (key, self.tie(state), self.counter, state))

    def pop(self):
        key, _, _, state = heapq.heappop(self.heap)
        return key, state


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
