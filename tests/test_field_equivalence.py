"""Fields that grow on demand must plan exactly as fields built whole.

Each solver runs twice on the same small instances: once as the program
runs, and once with the module's `distance_field` replaced by a complete
reference BFS.  Paths and stats must match exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

import spreadplan.lifelong as lifelong
import spreadplan.oneshot as oneshot
import spreadplan.search as search
from spreadplan.grid import (DistanceField, GridMap, generate_instance,
                             generate_random_grid, generate_warehouse)
from spreadplan.usage import UsageParams

from helpers import eager_bfs


def from_distances(grid, goal, dist):
    """A complete field from known distances; cells not in `dist` miss."""
    f = DistanceField(grid, goal)
    for cell, d in dist.items():
        f.labels[grid.cell_id(cell)] = d
    f._cur, f._g, f._expanded = [], len(f.labels), len(dist)
    return f


def complete_field(grid, goal):
    return from_distances(grid, goal, eager_bfs(grid, goal))


def test_distance_field_from_complete_dict():
    field = from_distances(GridMap(3, 1), (0, 0), {(0, 0): 0, (1, 0): 1})
    assert field[(1, 0)] == 1 and (1, 0) in field
    assert (2, 0) not in field and field.get((2, 0), 7) == 7
    with pytest.raises(KeyError):
        field[(2, 0)]


def twice(monkeypatch, run):
    """run() as the program runs it, then with every field built whole."""
    lazy = run()
    with monkeypatch.context() as m:
        for module in (search, lifelong, oneshot):
            m.setattr(module, "distance_field", complete_field)
        whole = run()
    return lazy, whole


def test_solve_via_horizon_cut_usage(monkeypatch):
    for seed in range(3):
        grid = generate_random_grid(24, 20, 0.1, seed)
        robots = generate_instance(grid, 8, seed + 40)
        tasks = [(s, gs[0]) for s, gs in robots]
        cfg = lifelong.config_for_variant("cut+usage", h=6, seed=seed)
        lazy, whole = twice(
            monkeypatch, lambda: lifelong.solve_mpp_via_horizon(grid, tasks, cfg))
        assert lazy == whole


def test_run_lifelong_cut_usage(monkeypatch):
    grid = generate_warehouse(21, 12, (3, 2), 2)

    def run():
        segments = []
        solver = lifelong.windowed_solver

        def kept(*args, **kwargs):
            segments.append(solver(*args, **kwargs))
            return segments[-1]

        with monkeypatch.context() as m:
            m.setattr(lifelong, "windowed_solver", kept)
            streams = [lifelong.GoalStream(grid, seed=100 + i) for i in range(12)]
            stats = lifelong.run_lifelong(
                grid, streams, lifelong.config_for_variant("cut+usage", h=5, seed=3),
                stop_goals=40)
        cycles = [dataclasses.replace(c, solver_ms=0.0) for c in stats.cycles]
        return segments, stats.goals_reached, stats.elapsed_steps, cycles

    lazy, whole = twice(monkeypatch, run)
    assert lazy == whole


def test_solve_mpp_temporal(monkeypatch):
    for seed in range(3):
        grid = generate_random_grid(14, 14, 0.1, seed)
        robots = generate_instance(grid, 20, seed + 7)
        inst = oneshot.MppInstance(grid, [(s, gs[0]) for s, gs in robots])
        params = UsageParams(0.5, 0.5, 2, 15, temporal=True)
        cfg = search.SearchConfig("cost_to_go", seed)

        def run():
            sol = oneshot.solve_mpp(inst, params, 2, cfg)
            stats = dataclasses.replace(sol.stats, plan_seconds=0.0,
                                        resolve_seconds=0.0)
            return sol.paths, sol.makespan, sol.sum_of_cost, stats

        lazy, whole = twice(monkeypatch, run)
        assert lazy == whole


def test_plan_independent_paths_cost_to_come(monkeypatch):
    for seed in range(3):
        grid = generate_random_grid(16, 16, 0.1, seed)
        robots = generate_instance(grid, 24, seed + 3)
        tasks = [(s, gs[0]) for s, gs in robots]

        def run():
            stats = search.SearchStats()
            paths = search.plan_independent_paths(
                grid, tasks, UsageParams(0.5, 0.5), 3,
                search.SearchConfig("cost_to_come", seed), stats=stats)
            return paths, stats

        lazy, whole = twice(monkeypatch, run)
        assert lazy == whole


def test_solve_via_horizon_cut_usage_64x64(monkeypatch):
    # long legs: aimed fields grow cones, and later lookups from elsewhere
    # send them breadth-first
    grid = generate_random_grid(64, 64, 0.1, 5)
    robots = generate_instance(grid, 16, 9)
    tasks = [(s, gs[0]) for s, gs in robots]
    cfg = lifelong.config_for_variant("cut+usage", h=12, seed=5)
    lazy, whole = twice(
        monkeypatch, lambda: lifelong.solve_mpp_via_horizon(grid, tasks, cfg))
    assert lazy == whole


def test_solve_mpp_64x64(monkeypatch):
    grid = generate_random_grid(64, 64, 0.1, 6)
    robots = generate_instance(grid, 40, 6)
    inst = oneshot.MppInstance(grid, [(s, gs[0]) for s, gs in robots])
    cfg = search.SearchConfig("cost_to_go", 6)

    def run():
        sol = oneshot.solve_mpp(inst, UsageParams(0.5, 0.5), 2, cfg)
        stats = dataclasses.replace(sol.stats, plan_seconds=0.0,
                                    resolve_seconds=0.0)
        return sol.paths, sol.makespan, sol.sum_of_cost, stats

    lazy, whole = twice(monkeypatch, run)
    assert lazy == whole
