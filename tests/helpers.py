"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from collections import deque

from spreadplan.grid import GridMap, distance_field
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


def build_prior_paths(grid: GridMap, rng: random.Random, count: int):
    return [random_shortest_path(grid, rng) for _ in range(count)]
