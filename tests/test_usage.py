import random

import pytest

from helpers import (ReferenceUsageTable, build_prior_paths, neighbors,
                     usage_table)
from spreadplan.grid import GridMap, generate_random_grid
from spreadplan.usage import UsageParams, UsageTable, UsageUnderflowError

GRID = GridMap(10, 10)  # holds every cell the hand-written tables claim


def test_params_validation():
    UsageParams(1.0, 0.0)
    UsageParams(0.3, 0.7, 2, 15, True, 10)
    with pytest.raises(ValueError):
        UsageParams(0.5, 0.6)
    with pytest.raises(ValueError):
        UsageParams(-0.5, 1.5)
    with pytest.raises(ValueError):
        UsageParams(0.5, 0.5, window_before=-1)
    with pytest.raises(ValueError):
        UsageParams(0.5, 0.5, num_robots=0)


def test_build_empty():
    table = usage_table(GRID, [], UsageParams())
    assert table.vertex_count((0, 0)) == 0
    assert table.penalty((0, 0), (0, 1)) == 0.0


def test_single_path_aggregate_counts():
    path = [(0, 0), (1, 0), (2, 0)]  # A -> B -> C
    table = usage_table(GRID, [path], UsageParams(0.0, 1.0, num_robots=2))
    assert [table.vertex_count((x, 0)) for x in range(4)] == [1, 1, 1, 0]
    # each traversed edge is charged once, to the move against it
    assert table.penalty((1, 0), (0, 0)) == pytest.approx(0.5)
    assert table.penalty((2, 0), (1, 0)) == pytest.approx(0.5)
    assert table.penalty((0, 0), (1, 0)) == 0.0
    assert table.penalty((1, 0), (1, 1)) == 0.0


def test_aggregate_waits_count_per_step_but_no_self_edge():
    path = [(0, 0), (0, 0), (1, 0)]
    table = usage_table(GRID, [path], UsageParams())
    assert table.vertex_count((0, 0)) == 2
    v = GRID.cell_id((0, 0))  # edges are keyed from_id * size + to_id
    assert v * table.size + v not in table.edge


def test_temporal_window_spans_18_steps():
    # occupancy at t=5 with backward window 2 and forward window 15
    params = UsageParams(1.0, 0.0, window_before=2, window_after=15,
                         temporal=True)
    table = UsageTable(GRID, params)
    table.add_path([(3, 8), (3, 7), (3, 6), (3, 5), (3, 4), (3, 3)])
    counts = [table.vertex_count((3, 3), t) for t in range(25)]
    assert counts == [0] * 3 + [1] * 18 + [0] * 4  # 18 consecutive steps


def test_temporal_window_clamps_at_zero():
    params = UsageParams(1.0, 0.0, window_before=3, window_after=0,
                         temporal=True)
    table = usage_table(GRID, [[(0, 0), (1, 0)]], params)
    assert table.vertex_count((0, 0), 0) == 1
    assert table.vertex_count((1, 0), 0) == 1  # step 1 reaches back to 0
    assert all(table.vertex_count(v, -1) == 0 for v in ((0, 0), (1, 0)))
    assert table.penalty((0, 0), (1, 0), -1) == 0.0


def _reads(table, grid, horizon):
    """Every penalty and vertex count the searches could read, in order."""
    steps = range(-2, horizon + table.params.window_after
                  + table.params.window_before + 2)
    return [(table.penalty(v, u, t), table.vertex_count(v, t))
            for v in grid.passable_cells for u in neighbors(grid, v) + [v]
            for t in steps]


def test_add_then_remove_restores_table():
    rng = random.Random(0)
    grid = generate_random_grid(8, 8, 0.1, 1)
    for params in [UsageParams(), UsageParams(0.5, 0.5, 2, 5, True, 4),
                   UsageParams(1.0, 0.0, 9, 0, True),  # clamps at step 0
                   UsageParams(0.5, 0.5, 0, 0, True, 2),
                   UsageParams(0.3, 0.7, 1, 3, True, 3)]:
        base_paths = build_prior_paths(grid, rng, 3)
        table = usage_table(grid, base_paths, params)
        extra = build_prior_paths(grid, rng, 1)[0]
        waiting = [c for c in extra for _ in range(rng.randint(1, 3))]
        horizon = max(map(len, base_paths + [waiting]))
        before = _reads(table, grid, horizon)
        for path in (extra, waiting, base_paths[0]):
            table.add_path(path)
            table.remove_path(path)
            assert _reads(table, grid, horizon) == before


def test_two_identical_paths_double_counts():
    path = [(0, 0), (1, 0), (1, 1)]
    table = usage_table(GRID, [path, path], UsageParams(0.0, 1.0))
    assert all(table.vertex_count(v) == 2 for v in path)
    assert table.penalty((1, 0), (0, 0)) == 2.0
    assert table.penalty((1, 1), (1, 0)) == 2.0


def test_remove_never_added_underflows():
    table = usage_table(GRID, [[(0, 0), (1, 0)]], UsageParams())
    with pytest.raises(UsageUnderflowError, match=r"at \(5, 5\)$"):
        table.remove_path([(5, 5), (5, 6)])
    table = usage_table(GRID, [[(0, 0), (1, 0)]],
                        UsageParams(window_before=1, temporal=True))
    with pytest.raises(UsageUnderflowError, match=r"at \(5, 5, 0\)$"):
        table.remove_path([(5, 5), (5, 6)])


def test_remove_step_covered_by_other_windows_underflows():
    # (0, 0) is held at step 1, whose window covers step 0; a path
    # that stood there at step 0 was never added and cannot be removed
    table = usage_table(GRID, [[(1, 0), (0, 0), (0, 0)]],
                        UsageParams(window_before=1, window_after=1,
                                         temporal=True))
    with pytest.raises(UsageUnderflowError, match=r"at \(0, 0, 0\)$"):
        table.remove_path([(0, 0)])
    assert table.vertex_count((0, 0), 0) == 1


def test_penalty_vertex_term():
    table = usage_table(GRID, [[(0, 0), (1, 0), (2, 0)]],
                        UsageParams(1.0, 0.0, num_robots=2))
    assert table.penalty((1, 1), (1, 0)) == pytest.approx(0.5)
    assert table.penalty((9, 9), (9, 8)) == 0.0


def test_penalty_uses_reversed_edge():
    # one path traverses B -> A; querying the transition A -> B is the
    # head-to-head direction and must be charged, the same direction is not
    a, b = (0, 0), (1, 0)
    table = usage_table(GRID, [[b, a]], UsageParams(0.0, 1.0, num_robots=2))
    assert table.penalty(a, b) == pytest.approx(0.5)
    assert table.penalty(b, a) == 0.0


def test_penalty_wait_has_no_edge_term():
    table = usage_table(GRID, [[(0, 0), (1, 0)]],
                        UsageParams(0.0, 1.0, num_robots=2))
    assert table.penalty((1, 0), (1, 0)) == 0.0


def test_penalty_bound_for_simple_paths():
    # with weights summing to 1 and prior paths that never revisit a cell,
    # every possible query stays strictly below 1
    rng = random.Random(7)
    for seed in range(10):
        grid = generate_random_grid(6, 6, 0.1, seed)
        n = rng.randint(1, 6)
        paths = build_prior_paths(grid, rng, n)
        for params in [UsageParams(1.0, 0.0, num_robots=n + 1),
                       UsageParams(0.5, 0.5, num_robots=n + 1),
                       UsageParams(0.5, 0.5, 2, 5, True, n + 1)]:
            table = usage_table(grid, paths, params)
            for v in grid.passable_cells:
                for nxt in neighbors(grid, v) + [v]:
                    for t in range(0, 12, 3):
                        assert 0.0 <= table.penalty(v, nxt, t) < 1.0


def test_penalty_linear_in_table():
    rng = random.Random(8)
    grid = generate_random_grid(7, 7, 0.1, 9)
    paths_a = build_prior_paths(grid, rng, 2)
    paths_b = build_prior_paths(grid, rng, 3)
    params = UsageParams(0.5, 0.5, num_robots=6)
    t_a = usage_table(grid, paths_a, params)
    t_b = usage_table(grid, paths_b, params)
    t_ab = usage_table(grid, paths_a + paths_b, params)
    for v in grid.passable_cells:
        for nxt in neighbors(grid, v):
            assert t_ab.penalty(v, nxt) == pytest.approx(
                t_a.penalty(v, nxt) + t_b.penalty(v, nxt))


def test_temporal_zero_window_sums_to_aggregate():
    rng = random.Random(11)
    grid = generate_random_grid(7, 7, 0.1, 12)
    paths = build_prior_paths(grid, rng, 4)
    aggregate = usage_table(grid, paths, UsageParams())
    temporal = usage_table(grid, paths, UsageParams(0.5, 0.5, 0, 0, True, 1))
    horizon = max(map(len, paths))
    for v in grid.passable_cells:
        assert sum(temporal.vertex_count(v, t) for t in range(horizon)) == \
            aggregate.vertex_count(v)


# Equivalence with the reference table, which smears every temporal
# occupancy over its window when written.

SWEEP_PARAMS = [
    UsageParams(),
    UsageParams(0.3, 0.7, num_robots=5),
    UsageParams(0.5, 0.5, 0, 0, True, 3),  # zero window
    UsageParams(0.5, 0.5, 2, 15, True, 6),  # the benchmark's asymmetric window
    UsageParams(0.2, 0.8, 4, 1, True, 4),
    UsageParams(1.0, 0.0, 40, 3, True, 2),  # reaches back past step 0
]


def _with_waits(path, rng):
    return [c for c in path for _ in range(rng.choice((1, 1, 1, 2, 3)))]


def _assert_same(table, ref, grid, horizon):
    wa, wb = table.params.window_after, table.params.window_before
    steps = range(-2, horizon + wa + wb + 2)
    for v in grid.passable_cells:
        for u in neighbors(grid, v) + [v]:
            for t in steps:
                assert table.penalty(v, u, t) == ref.penalty(v, u, t), (v, u, t)
        for t in steps:
            assert table.vertex_count(v, t) == ref.vertex_count(v, t), (v, t)


def _reference(paths, params):
    ref = ReferenceUsageTable(params=params)
    for path in paths:
        ref.add_path(path)
    return ref


def test_penalties_match_reference_over_random_adds_and_removes():
    rng = random.Random(31)
    for case in range(12):
        grid = generate_random_grid(rng.randint(4, 7), rng.randint(4, 7),
                                    rng.choice((0.0, 0.1, 0.2)), case)
        pool = [_with_waits(p, rng) for p in build_prior_paths(grid, rng, 5)]
        pool.append([rng.choice(list(grid.passable_cells))])  # a lone step
        for params in SWEEP_PARAMS:
            table, ref = UsageTable(grid, params), ReferenceUsageTable(params=params)
            held = []
            for _ in range(8):
                if held and rng.random() < 0.4:
                    path = held.pop(rng.randrange(len(held)))
                    table.remove_path(path)
                    ref.remove_path(path)
                else:
                    path = rng.choice(pool)  # repeats stack on one another
                    held.append(path)
                    table.add_path(path)
                    ref.add_path(path)
                _assert_same(table, ref, grid, max(map(len, pool)))


def test_build_matches_reference():
    rng = random.Random(32)
    grid = generate_random_grid(7, 7, 0.1, 33)
    paths = [_with_waits(p, rng) for p in build_prior_paths(grid, rng, 6)]
    for params in SWEEP_PARAMS:
        _assert_same(usage_table(grid, paths, params), _reference(paths, params),
                     grid, max(map(len, paths)))


def test_remove_never_added_raises_whenever_reference_does():
    rng = random.Random(34)
    for case in range(40):
        grid = generate_random_grid(5, 5, 0.1, case)
        paths = [_with_waits(p, rng) for p in build_prior_paths(grid, rng, 3)]
        for params in SWEEP_PARAMS:
            # a held path shifted by a wait, cut short, or one never added
            probe = rng.choice((
                [paths[0][0]] + paths[0], paths[1][1:] or paths[1],
                paths[2][:rng.randint(1, len(paths[2]))],
                build_prior_paths(grid, rng, 1)[0]))
            outcome = []
            for table in (usage_table(grid, paths, params),
                          _reference(paths, params)):
                try:
                    table.remove_path(probe)
                    outcome.append(False)
                except UsageUnderflowError:
                    outcome.append(True)
            raised, ref_raised = outcome
            assert raised or not ref_raised, (case, params, probe)
