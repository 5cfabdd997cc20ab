import copy
import random
from collections import Counter

import pytest

from helpers import (build_prior_paths, neighbors, reference_table,
                     usage_table)
from spreadplan.grid import GridMap, distance_field, generate_random_grid
from spreadplan.search import (SearchStats, find_path_cost_to_come,
                               find_path_cost_to_go)
from spreadplan.usage import UsageParams, UsageTable, UsageUnderflowError

GRID = GridMap(10, 10)  # holds every cell the hand-written tables claim
KERNELS = (find_path_cost_to_go, find_path_cost_to_come)


def stored_counts(table):
    """The claims `table` stores, keyed as `ReferenceUsageTable` keys them:
    (x, y) for a cell and (x1, y1, x2, y2) for a move, with a trailing
    step in a temporal table, where a claim at step s counts at each step
    from max(0, s - window_before) to s + window_after."""
    cell_at, size, params = table.grid.cell_at, table.size, table.params
    vertex = {v: cell_at[v] for v in table.vertex}
    edge = {k: cell_at[k // size] + cell_at[k % size] for k in table.edge}
    counts = ({}, {})
    for claims, keys, out in ((table.vertex, vertex, counts[0]),
                              (table.edge, edge, counts[1])):
        for k, value in claims.items():
            if not params.temporal:
                out[keys[k]] = value
                continue
            for s in value:
                for t in range(max(0, s - params.window_before),
                               s + params.window_after + 1):
                    out[keys[k] + (t,)] = out.get(keys[k] + (t,), 0) + 1
    return counts


def reference_counts(paths, params):
    """The counters of a reference table holding `paths`."""
    ref = reference_table(paths, params)
    return ref.vertex_use, ref.edge_use


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
    assert table.vertex == {} and table.edge == {}
    assert stored_counts(table) == reference_counts([], UsageParams()) == ({}, {})


def test_single_path_aggregate_counts():
    path = [(0, 0), (1, 0), (2, 0)]  # A -> B -> C
    params = UsageParams(0.0, 1.0, num_robots=2)
    # each traversed edge is claimed once, in the direction of travel
    assert stored_counts(usage_table(GRID, [path], params)) == \
        reference_counts([path], params) == (
            {(0, 0): 1, (1, 0): 1, (2, 0): 1},
            {(0, 0, 1, 0): 1, (1, 0, 2, 0): 1})


def test_aggregate_waits_count_per_step_but_no_self_edge():
    path = [(0, 0), (0, 0), (1, 0)]
    table = usage_table(GRID, [path], UsageParams())
    assert stored_counts(table) == ({(0, 0): 2, (1, 0): 1}, {(0, 0, 1, 0): 1})
    v = GRID.cell_id((0, 0))  # edges are keyed from_id * size + to_id
    assert v * table.size + v not in table.edge


def test_temporal_window_spans_18_steps():
    # occupancy at t=5 with backward window 2 and forward window 15
    params = UsageParams(1.0, 0.0, window_before=2, window_after=15,
                         temporal=True)
    table = UsageTable(GRID, params)
    table.add_path([(3, 8), (3, 7), (3, 6), (3, 5), (3, 4), (3, 3)])
    vertex, _ = stored_counts(table)
    counts = [vertex.get((3, 3, t), 0) for t in range(25)]
    assert counts == [0] * 3 + [1] * 18 + [0] * 4  # 18 consecutive steps


def test_temporal_window_clamps_at_zero():
    params = UsageParams(1.0, 0.0, window_before=3, window_after=0,
                         temporal=True)
    path = [(0, 0), (1, 0)]
    # step 1 reaches back to 0 and no further
    assert stored_counts(usage_table(GRID, [path], params)) == \
        reference_counts([path], params) == (
            {(0, 0, 0): 1, (1, 0, 0): 1, (1, 0, 1): 1}, {(0, 0, 1, 0, 0): 1,
                                                        (0, 0, 1, 0, 1): 1})


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
        before = copy.deepcopy((table.vertex, table.edge))
        for path in (extra, waiting, base_paths[0]):
            table.add_path(path)
            table.remove_path(path)
            assert (table.vertex, table.edge) == before


def test_two_identical_paths_double_counts():
    path = [(0, 0), (1, 0), (1, 1)]
    table = usage_table(GRID, [path, path], UsageParams(0.0, 1.0))
    assert stored_counts(table) == ({v: 2 for v in path},
                                    {(0, 0, 1, 0): 2, (1, 0, 1, 1): 2})


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
    path = [(1, 0), (0, 0), (0, 0)]
    params = UsageParams(window_before=1, window_after=1, temporal=True)
    table = usage_table(GRID, [path], params)
    with pytest.raises(UsageUnderflowError, match=r"at \(0, 0, 0\)$"):
        table.remove_path([(0, 0)])
    vertex, _ = counts = stored_counts(table)
    assert counts == reference_counts([path], params)
    assert vertex[(0, 0, 0)] == 1


def test_penalty_vertex_term():
    # a claim on (1, 0) steers both kernels through (0, 1), on every seed
    grid = GridMap(2, 2)
    params = UsageParams(1.0, 0.0, num_robots=2)
    table = usage_table(grid, [[(1, 0)]], params)
    assert stored_counts(table) == reference_counts([[(1, 0)]], params)
    field = distance_field(grid, (1, 1))
    for kernel in KERNELS:
        for seed in range(8):
            assert kernel((0, 0), table, field, seed) == [(0, 0), (0, 1), (1, 1)]


def test_penalty_uses_reversed_edge():
    # one path traverses (0, 1) -> (0, 0), against the move (0, 0) -> (0, 1),
    # and another (0, 0) -> (1, 0), along the move (0, 0) -> (1, 0): only
    # the head-to-head move is charged, so both kernels go through (1, 0)
    grid = GridMap(2, 2)
    priors = [[(0, 1), (0, 0)], [(0, 0), (1, 0)]]
    params = UsageParams(0.0, 1.0, num_robots=3)
    table = usage_table(grid, priors, params)
    assert stored_counts(table) == reference_counts(priors, params)
    field = distance_field(grid, (1, 1))
    for kernel in KERNELS:
        for seed in range(8):
            assert kernel((0, 0), table, field, seed) == [(0, 0), (1, 0), (1, 1)]


def test_penalty_wait_has_no_edge_term():
    path = [(0, 0), (1, 0), (1, 0)]
    for params, edges in ((UsageParams(0.0, 1.0, num_robots=2),
                           {(0, 0, 1, 0): 1}),
                          (UsageParams(0.0, 1.0, 0, 0, True, 2),
                           {(0, 0, 1, 0, 1): 1})):
        counts = stored_counts(usage_table(GRID, [path], params))
        assert counts == reference_counts([path], params)
        assert counts[1] == edges


def test_penalty_bound_for_simple_paths():
    # with weights summing to 1 and prior paths that never revisit a cell,
    # every possible query stays strictly below 1, and no kernel read
    # breaches the bound
    rng = random.Random(7)
    for seed in range(10):
        grid = generate_random_grid(6, 6, 0.1, seed)
        n = rng.randint(1, 6)
        paths = build_prior_paths(grid, rng, n)
        cells = grid.passable_cells
        field = distance_field(grid, cells[-1])
        for params in [UsageParams(1.0, 0.0, num_robots=n + 1),
                       UsageParams(0.5, 0.5, num_robots=n + 1),
                       UsageParams(0.5, 0.5, 2, 5, True, n + 1)]:
            table = usage_table(grid, paths, params)
            ref = reference_table(paths, params)
            assert stored_counts(table) == (ref.vertex_use, ref.edge_use)
            for v in cells:
                for nxt in neighbors(grid, v) + [v]:
                    for t in range(0, 12, 3):
                        assert 0.0 <= ref.penalty(v, nxt, t) < 1.0
            stats = SearchStats()
            for start in cells:
                if start in field:
                    for kernel in KERNELS:
                        kernel(start, table, field, seed, stats)
            assert stats.evaluations > 0
            assert stats.penalty_bound_violations == 0


def test_penalty_linear_in_table():
    rng = random.Random(8)
    grid = generate_random_grid(7, 7, 0.1, 9)
    paths_a = build_prior_paths(grid, rng, 2)
    paths_b = build_prior_paths(grid, rng, 3)
    for params in (UsageParams(0.5, 0.5, num_robots=6),
                   UsageParams(0.5, 0.5, 1, 3, True, 6)):
        t_a, t_b, t_ab = (stored_counts(usage_table(grid, paths, params))
                          for paths in (paths_a, paths_b, paths_a + paths_b))
        for part in range(2):
            assert Counter(t_a[part]) + Counter(t_b[part]) == t_ab[part]


def test_temporal_zero_window_sums_to_aggregate():
    rng = random.Random(11)
    grid = generate_random_grid(7, 7, 0.1, 12)
    paths = build_prior_paths(grid, rng, 4)
    aggregate = stored_counts(usage_table(grid, paths, UsageParams()))
    temporal = stored_counts(usage_table(grid, paths,
                                         UsageParams(0.5, 0.5, 0, 0, True, 1)))
    for per_step, total in zip(temporal, aggregate):
        summed = Counter()
        for key, count in per_step.items():
            summed[key[:-1]] += count
        assert summed == total


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


def test_penalties_match_reference_over_random_adds_and_removes():
    rng = random.Random(31)
    for case in range(12):
        grid = generate_random_grid(rng.randint(4, 7), rng.randint(4, 7),
                                    rng.choice((0.0, 0.1, 0.2)), case)
        pool = [_with_waits(p, rng) for p in build_prior_paths(grid, rng, 5)]
        pool.append([rng.choice(list(grid.passable_cells))])  # a lone step
        for params in SWEEP_PARAMS:
            table, ref = UsageTable(grid, params), reference_table([], params)
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
                assert stored_counts(table) == (ref.vertex_use, ref.edge_use)


def test_build_matches_reference():
    rng = random.Random(32)
    grid = generate_random_grid(7, 7, 0.1, 33)
    paths = [_with_waits(p, rng) for p in build_prior_paths(grid, rng, 6)]
    for params in SWEEP_PARAMS:
        assert stored_counts(usage_table(grid, paths, params)) == \
            reference_counts(paths, params)


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
                          reference_table(paths, params)):
                try:
                    table.remove_path(probe)
                    outcome.append(False)
                except UsageUnderflowError:
                    outcome.append(True)
            raised, ref_raised = outcome
            assert raised or not ref_raised, (case, params, probe)
