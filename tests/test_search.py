import random

import pytest

from helpers import EagerTieHeap, build_prior_paths
from spreadplan import metrics
from spreadplan.bruteforce import enumerate_shortest_paths, min_objective
from spreadplan.grid import GridMap, distance_field, generate_instance, generate_random_grid
from spreadplan.search import (InstanceError, NoPathError, SearchConfig,
                               SearchStats, _fold, _mix, _Ranked, _TieQueue,
                               find_path_cost_to_come,
                               find_path_cost_to_go, order_robots,
                               plan_independent_paths)
from spreadplan.usage import UsageParams, UsageTable


def empty_table(n=1):
    return UsageTable(params=UsageParams(1.0, 0.0, num_robots=n))


def assert_valid_path(grid, path, start, goal):
    assert path[0] == start and path[-1] == goal
    for a, b in zip(path, path[1:]):
        assert a == b or abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
        assert grid.passable(b)


def test_plain_search_on_empty_grid():
    grid = GridMap(3, 3)
    field = distance_field(grid, (2, 2))
    path = find_path_cost_to_go(grid, (0, 0), (2, 2), empty_table(), field)
    assert_valid_path(grid, path, (0, 0), (2, 2))
    assert len(path) - 1 == 4


def test_no_path_raises():
    grid = GridMap(3, 1, frozenset({(1, 0)}))
    field = distance_field(grid, (2, 0))
    with pytest.raises(NoPathError):
        find_path_cost_to_go(grid, (0, 0), (2, 0), empty_table(), field)
    with pytest.raises(NoPathError):
        find_path_cost_to_come(grid, (0, 0), (2, 0), empty_table(), field)


def test_loaded_middle_row_keeps_length_and_matches_oracle():
    grid = GridMap(5, 5)
    prior = [[(x, 2) for x in range(5)]]
    table = UsageTable.build(prior, UsageParams(1.0, 0.0, num_robots=2))
    field = distance_field(grid, (4, 4))
    path = find_path_cost_to_go(grid, (0, 0), (4, 4), table, field,
                                SearchConfig(tie_break_seed=1))
    assert len(path) - 1 == 8
    enum = enumerate_shortest_paths(grid, (0, 0), (4, 4))
    best, _ = min_objective(enum, table, "peak")
    assert best == 1  # the loaded row spans the grid, one touch is forced
    assert metrics.peak_vertex_overlap(path, table) == 1


def test_concentrated_load_is_avoided():
    grid = GridMap(5, 5)
    # three robots parked around the center; a clean shortest path exists
    table = UsageTable.build([[(2, 2)], [(2, 2)], [(2, 1)]],
                             UsageParams(1.0, 0.0, num_robots=4))
    field = distance_field(grid, (4, 4))
    path = find_path_cost_to_go(grid, (0, 0), (4, 4), table, field,
                                SearchConfig(tie_break_seed=5))
    assert len(path) - 1 == 8
    assert metrics.peak_vertex_overlap(path, table) == 0


def test_vertex_information_scenario():
    # an already-planned path occupies two cells near the middle; of the
    # shortest candidates for the new robot some cross it at a cell, some
    # avoid it entirely, and no candidate ever opposes one of its edges.
    grid = GridMap(3, 3)
    blue = [(1, 0), (1, 1)]
    enum = enumerate_shortest_paths(grid, (0, 0), (2, 2))

    vertex_table = UsageTable.build([blue], UsageParams(1.0, 0.0, num_robots=2))
    peaks = sorted(metrics.peak_vertex_overlap(p, vertex_table)
                   for p in enum.paths)
    assert peaks[0] == 0 and peaks[-1] == 1  # vertex info discriminates

    edge_table = UsageTable.build([blue], UsageParams(0.0, 1.0, num_robots=2))
    exposures = {max((edge_table.penalty(p[i], p[i + 1])
                      for i in range(len(p) - 1)), default=0.0)
                 for p in enum.paths}
    assert exposures == {0.0}  # edge info alone cannot tell candidates apart

    field = distance_field(grid, (2, 2))
    path = find_path_cost_to_go(grid, (0, 0), (2, 2), vertex_table, field,
                                SearchConfig(tie_break_seed=2))
    assert metrics.peak_vertex_overlap(path, vertex_table) == 0


def test_edge_information_scenario():
    # the planned path sweeps the middle row leftwards; every shortest
    # candidate must touch that row once, so vertex counts tie, but only
    # some candidates run head-on against it.
    grid = GridMap(3, 3)
    blue = [(2, 1), (1, 1), (0, 1)]
    enum = enumerate_shortest_paths(grid, (0, 0), (2, 2))

    vertex_table = UsageTable.build([blue], UsageParams(1.0, 0.0, num_robots=2))
    peaks = {metrics.peak_vertex_overlap(p, vertex_table) for p in enum.paths}
    assert peaks == {1}  # vertex info alone ties

    edge_table = UsageTable.build([blue], UsageParams(0.0, 1.0, num_robots=2))

    def headon(p):
        return max((edge_table.penalty(p[i], p[i + 1])
                    for i in range(len(p) - 1)), default=0.0)

    exposures = sorted(headon(p) for p in enum.paths)
    assert exposures[0] == 0.0 and exposures[-1] > 0.0  # edge info discriminates

    field = distance_field(grid, (2, 2))
    path = find_path_cost_to_go(grid, (0, 0), (2, 2), edge_table, field,
                                SearchConfig(tie_break_seed=3))
    assert headon(path) == 0.0
    assert len(path) - 1 == 4


def test_temporal_information_scenario():
    # the planned path crosses both candidate corridors but at known times;
    # aggregate counts tie, only time-stamped counts reveal the collision.
    grid = GridMap(5, 3)
    orange = [(4, 1), (3, 1), (2, 1), (1, 1), (0, 1)]
    start, goal = (1, 0), (2, 2)
    enum = enumerate_shortest_paths(grid, start, goal)
    assert len(enum.paths) == 3

    aggregate = UsageTable.build([orange], UsageParams(1.0, 0.0, num_robots=2))
    peaks = {metrics.peak_vertex_overlap(p, aggregate) for p in enum.paths}
    assert peaks == {1}  # without time stamps every candidate looks alike

    conflicts = {metrics.timed_conflicts([p, orange]) for p in enum.paths}
    assert (0, 0) in conflicts and len(conflicts) > 1  # but they differ live

    temporal = UsageTable.build([orange],
                                UsageParams(1.0, 0.0, 0, 0, True, 2))
    field = distance_field(grid, goal)
    path = find_path_cost_to_go(grid, start, goal, temporal, field,
                                SearchConfig(tie_break_seed=4))
    assert len(path) - 1 == 3
    assert metrics.timed_conflicts([path, orange]) == (0, 0)


def test_cost_to_come_empty_table_shortest():
    grid = GridMap(4, 4)
    field = distance_field(grid, (3, 3))
    path = find_path_cost_to_come(grid, (0, 0), (3, 3), empty_table(), field)
    assert len(path) - 1 == 6
    # on an empty table every sum ties, so the seed alone picks the path
    grid = GridMap(6, 6)
    field = distance_field(grid, (5, 5))
    paths = set()
    for seed in range(10):
        cfg = SearchConfig("cost_to_come", seed)
        path = find_path_cost_to_come(grid, (0, 0), (5, 5), empty_table(),
                                      field, cfg)
        assert_valid_path(grid, path, (0, 0), (5, 5))
        assert len(path) - 1 == 10
        assert find_path_cost_to_come(grid, (0, 0), (5, 5), empty_table(),
                                      field, cfg) == path
        paths.add(tuple(path))
    assert len(paths) >= 2


def test_search_counts_every_penalty_evaluation():
    # corner to corner on an open 3x3 map the DAG has 2 + 4 + 4 + 2 moves,
    # and the sweep reads each of them once
    grid = GridMap(3, 3)
    field = distance_field(grid, (2, 2))
    come = SearchStats()
    find_path_cost_to_come(grid, (0, 0), (2, 2), empty_table(), field,
                           SearchConfig("cost_to_come", 3), come)
    assert come.evaluations == 12
    assert come.expansions == 9  # every cell of the DAG is reached
    go = SearchStats()
    find_path_cost_to_go(grid, (0, 0), (2, 2), empty_table(), field,
                         SearchConfig(tie_break_seed=3), go)
    for stats in (come, go):
        assert stats.evaluations >= stats.generated > 0


def test_cost_to_come_prefers_lighter_corridor():
    # two corridors of equal length; the left one carries two prior paths,
    # the right one carries one
    grid = GridMap(3, 5, frozenset({(1, 1), (1, 2), (1, 3)}))
    left = [(1, 0), (0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 4)]
    right = [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (1, 4)]
    priors = [left, list(left), right]
    table = UsageTable.build(priors, UsageParams(1.0, 0.0, num_robots=4))
    field = distance_field(grid, (1, 4))
    path = find_path_cost_to_come(grid, (1, 0), (1, 4), table, field,
                                  SearchConfig("cost_to_come", 1))
    assert (2, 2) in path  # took the right corridor
    assert metrics.pairwise_overlap(path, priors) == 11


def test_objectives_disagree_and_each_mode_wins_its_own():
    # parked robots shaped so the lightest-worst-cell path and the
    # smallest-total-overlap path differ
    grid = GridMap(5, 5)
    rests = ([[(1, 2)]] + [[(1, 3)]] + [[(2, 3)]] + [[(2, 2)]] * 2
             + [[(3, 1)]] * 5)
    table = UsageTable.build(rests, UsageParams(1.0, 0.0, num_robots=11))
    start, goal = (1, 1), (3, 3)
    enum = enumerate_shortest_paths(grid, start, goal)
    best_peak, _ = min_objective(enum, table, "peak")
    best_total, _ = min_objective(enum, table, "total")
    assert best_peak == 1 and best_total == 2  # frozen from the enumeration

    field = distance_field(grid, goal)
    go_path = find_path_cost_to_go(grid, start, goal, table, field,
                                   SearchConfig(tie_break_seed=9))
    come_path = find_path_cost_to_come(grid, start, goal, table, field,
                                       SearchConfig("cost_to_come", 9))
    go_total = sum(table.vertex_use.get(v, 0) for v in set(go_path))
    come_peak = metrics.peak_vertex_overlap(come_path, table)
    assert metrics.peak_vertex_overlap(go_path, table) == 1
    assert go_total == 3  # pays more overlap to keep the worst cell light
    assert sum(table.vertex_use.get(v, 0) for v in set(come_path)) == 2
    assert come_peak == 2  # concentrates to keep the sum down


def path_penalty(path, table):
    """The summed penalty of `path`, each move read at its arrival step."""
    return sum(table.penalty(path[t - 1], path[t], t)
               for t in range(1, len(path)))


def worst_move(path, table):
    """The largest penalty of a move of `path`, read at its arrival step."""
    return max(table.penalty(path[t - 1], path[t], t)
               for t in range(1, len(path)))


def check_oracle_case(grid, s, g, priors, window, seed, stats):
    """Both modes on one case against the exhaustive minima over every
    shortest path: cost_to_go's worst interior cell on an aggregate and a
    temporal vertex-only table and its largest move penalty on tables that
    also weigh edges, and cost_to_come's summed overlap on that aggregate
    table and its summed penalty on every kind of table."""
    field = distance_field(grid, g)
    n = len(priors) + 1
    table = UsageTable.build(priors, UsageParams(1.0, 0.0, num_robots=n))
    mixed = UsageTable.build(priors, UsageParams(0.5, 0.5, num_robots=n))
    # the same claims as temporal tables, read at each step
    timed = UsageTable.build(priors, UsageParams(1.0, 0.0, *window, True, n))
    timed_mixed = UsageTable.build(priors,
                                   UsageParams(0.5, 0.5, *window, True, n))
    enum = enumerate_shortest_paths(grid, s, g)
    for claims in (table, timed):
        path = find_path_cost_to_go(grid, s, g, claims, field,
                                    SearchConfig(tie_break_seed=seed), stats)
        assert len(path) - 1 == field[s]
        assert metrics.peak_vertex_overlap(path, claims) == \
            min_objective(enum, claims, "peak")[0]
    for claims in (mixed, timed_mixed):
        path = find_path_cost_to_go(grid, s, g, claims, field,
                                    SearchConfig(tie_break_seed=seed), stats)
        assert len(path) - 1 == field[s]
        assert worst_move(path, claims) == pytest.approx(
            min(worst_move(p, claims) for p in enum.paths), abs=1e-9)
    for claims in (table, mixed, timed, timed_mixed):
        path = find_path_cost_to_come(grid, s, g, claims, field,
                                      SearchConfig("cost_to_come", seed), stats)
        assert len(path) - 1 == field[s]
        assert path_penalty(path, claims) == pytest.approx(
            min(path_penalty(p, claims) for p in enum.paths), abs=1e-9)
        if claims is table:
            assert sum(table.vertex_use.get(v, 0) for v in set(path)) == \
                min_objective(enum, table, "total")[0]


def test_randomized_oracle_equivalence_both_modes():
    rng = random.Random(42)
    windows = random.Random(43)  # a stream apart, so the cases stay as drawn
    stats = SearchStats()
    cases = 0
    while cases < 120:
        grid = generate_random_grid(rng.randint(3, 5), rng.randint(3, 5),
                                    rng.choice([0.0, 0.1]), rng.randrange(999))
        cells = list(grid.vertices())
        s, g = rng.sample(cells, 2)
        if s not in distance_field(grid, g):
            continue
        priors = build_prior_paths(grid, rng, rng.randint(0, 6))
        window = (windows.randint(0, 2), windows.randint(0, 3))
        check_oracle_case(grid, s, g, priors, window, cases, stats)
        cases += 1
    # larger maps, drawn from a third stream
    larger = random.Random(44)
    while cases < 160:
        grid = generate_random_grid(larger.randint(6, 8), larger.randint(6, 8),
                                    larger.choice([0.0, 0.1]),
                                    larger.randrange(999))
        s, g = larger.sample(list(grid.vertices()), 2)
        if s not in distance_field(grid, g):
            continue
        priors = build_prior_paths(grid, larger, larger.randint(0, 10))
        window = (larger.randint(0, 2), larger.randint(0, 3))
        check_oracle_case(grid, s, g, priors, window, cases, stats)
        cases += 1
    assert stats.penalty_bound_violations == 0
    assert stats.evaluations >= stats.generated > 0
    # tables sized for one or two robots, where a penalty reaches 1 or more:
    # cost_to_go still finds the least worst interior cell, drawn from a
    # fourth stream
    over = random.Random(45)
    over_stats = SearchStats()
    for case in range(150):
        grid = generate_random_grid(over.randint(3, 6), over.randint(3, 6),
                                    over.choice([0.0, 0.1]), over.randrange(999))
        s, g = over.sample(list(grid.vertices()), 2)
        field = distance_field(grid, g)
        if s not in field:
            continue
        priors = build_prior_paths(grid, over, over.randint(1, 8))
        num_robots = over.randint(1, 2)
        window = (over.randint(0, 2), over.randint(0, 3))
        enum = enumerate_shortest_paths(grid, s, g)
        for params in (UsageParams(1.0, 0.0, num_robots=num_robots),
                       UsageParams(1.0, 0.0, *window, True, num_robots)):
            claims = UsageTable.build(priors, params)
            path = find_path_cost_to_go(grid, s, g, claims, field,
                                        SearchConfig(tie_break_seed=case),
                                        over_stats)
            assert len(path) - 1 == field[s]
            assert metrics.peak_vertex_overlap(path, claims) == \
                min_objective(enum, claims, "peak")[0]
    assert over_stats.penalty_bound_violations > 0


@pytest.mark.parametrize("temporal", [False, True])
def test_over_unit_penalties_buy_no_detour(temporal):
    # the straight row is claimed five times in a table sized for one robot,
    # so every penalty on it is at least 1: the search counts the breach, yet
    # it only searches shortest paths, so no detour around the row pays
    grid = GridMap(5, 3)
    row = [(x, 1) for x in range(5)]
    table = UsageTable.build([row] * 5, UsageParams(1.0, 0.0, 0, 0, temporal, 1))
    start, goal = (0, 1), (4, 1)
    field = distance_field(grid, goal)
    stats = SearchStats()
    paths = [find_path_cost_to_go(grid, start, goal, table, field,
                                  SearchConfig(tie_break_seed=0), stats),
             find_path_cost_to_come(grid, start, goal, table, field,
                                    SearchConfig("cost_to_come", 0), stats)]
    for path in paths:
        assert_valid_path(grid, path, start, goal)
        assert len(path) - 1 == field[start]
    assert stats.penalty_bound_violations > 0


def test_prefix_search_stops_at_depth():
    grid = GridMap(9, 9)
    field = distance_field(grid, (8, 8))
    path = find_path_cost_to_go(grid, (0, 0), (8, 8), empty_table(), field,
                                SearchConfig(tie_break_seed=1), stop_depth=5)
    assert len(path) - 1 == 5
    assert field[path[-1]] == 16 - 5


def test_order_robots():
    assert order_robots([3, 7, 5]) == [1, 2, 0]
    assert order_robots([4, 4, 4]) == [0, 1, 2]
    assert order_robots([9]) == [0]


def test_plan_single_robot_any_iterations():
    grid = generate_random_grid(8, 8, 0.1, 3)
    cells = list(grid.vertices())
    tasks = [(cells[0], cells[-1])]
    for r in (0, 1, 3):
        paths = plan_independent_paths(grid, tasks, UsageParams(num_robots=1), r)
        field = distance_field(grid, cells[-1])
        assert len(paths[0]) - 1 == field[cells[0]]


def test_plan_unreachable_robot_named():
    grid = GridMap(3, 1, frozenset({(1, 0)}))
    with pytest.raises(InstanceError, match="robot 0"):
        plan_independent_paths(grid, [((0, 0), (2, 0))], UsageParams(), 1)


def test_plan_crossing_column_spreads_paths():
    # several robots leaving one column for the far side; over a seed batch,
    # guided planning lowers the conflicts of the independent paths
    grid = GridMap(5, 3)
    tasks = [((0, 0), (4, 1)), ((0, 1), (4, 2)), ((0, 2), (4, 0))]
    params = UsageParams(0.5, 0.5, num_robots=3)
    base_timed = guided_timed = base_overlap = guided_overlap = 0
    for seed in range(12):
        p0 = plan_independent_paths(grid, tasks, params, 0,
                                    SearchConfig(tie_break_seed=seed))
        p1 = plan_independent_paths(grid, tasks, params, 1,
                                    SearchConfig(tie_break_seed=seed))
        base_timed += sum(metrics.timed_conflicts(p0))
        guided_timed += sum(metrics.timed_conflicts(p1))
        base_overlap += metrics.total_pairwise_overlap(p0)
        guided_overlap += metrics.total_pairwise_overlap(p1)
        for path, (s, g) in zip(p1, tasks):
            assert len(path) - 1 == distance_field(grid, g)[s]
    assert guided_timed < base_timed
    assert guided_overlap < base_overlap


def test_plan_monotone_peak_sequence():
    grid = generate_random_grid(20, 10, 0.05, seed=6)
    robots = generate_instance(grid, 100, seed=7)
    tasks = [(s, gs[0]) for s, gs in robots]
    series = []
    plan_independent_paths(grid, tasks, UsageParams(1.0, 0.0, num_robots=100), 6,
                           SearchConfig(tie_break_seed=8),
                           on_iteration=lambda r, paths: series.append(
                               metrics.max_vertex_overlap(paths)))
    assert all(b <= a for a, b in zip(series, series[1:]))


def test_plan_returns_paths_in_input_order_and_is_deterministic():
    grid = generate_random_grid(10, 10, 0.1, seed=9)
    robots = generate_instance(grid, 8, seed=10)
    tasks = [(s, gs[0]) for s, gs in robots]
    a = plan_independent_paths(grid, tasks, UsageParams(num_robots=8), 2,
                               SearchConfig(tie_break_seed=11))
    b = plan_independent_paths(grid, tasks, UsageParams(num_robots=8), 2,
                               SearchConfig(tie_break_seed=11))
    assert a == b
    for path, (s, g) in zip(a, tasks):
        assert path[0] == s and path[-1] == g


def test_plan_orderings():
    grid = generate_random_grid(10, 10, 0.1, seed=12)
    robots = generate_instance(grid, 10, seed=13)
    tasks = [(s, gs[0]) for s, gs in robots]
    for order in ("desc", "asc", "random"):
        paths = plan_independent_paths(grid, tasks, UsageParams(num_robots=10),
                                       1, SearchConfig(tie_break_seed=1),
                                       order=order)
        assert len(paths) == 10
    with pytest.raises(ValueError):
        plan_independent_paths(grid, tasks, UsageParams(num_robots=10), 1,
                               order="sideways")


def reference_mix(seed, *parts):
    """The splitmix fold in one loop, independent of `_fold`; the tie values
    of every search must never drift from it."""
    mask = (1 << 64) - 1
    h = (seed * 0x9E3779B97F4A7C15) & mask
    for p in parts:
        h = (h ^ (p & mask)) * 0xBF58476D1CE4E5B9 & mask
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & mask
        h ^= h >> 31
    return h


def test_fold_continues_mix():
    rng = random.Random(8)
    seeds = [0, 1, -1, -(1 << 70), (1 << 64) - 1, 1 << 64, (1 << 64) + 5,
             1 << 100] + [rng.randrange(-(1 << 80), 1 << 80) for _ in range(50)]
    for seed in seeds:
        for _ in range(5):
            parts = [rng.randrange(-(1 << 70), 1 << 70)
                     for _ in range(rng.randint(0, 4))]
            extra = rng.choice((0, 1, -3, rng.randrange(1 << 66)))
            expected = reference_mix(seed, *parts, extra)
            assert _mix(seed, *parts, extra) == expected
            assert _fold(_mix(seed, *parts), extra) == expected
        assert (_fold(_fold(_mix(seed, 3, 4), 5), 6)
                == reference_mix(seed, 3, 4, 5, 6))


def _random_key(rng, kind):
    if kind == "int":
        return rng.randrange(-2, 6)
    # tuples like the cost-to-go search's (f, h) keys; signed zeros are equal
    return (rng.choice((0.0, -0.0, 1.0, 1.5, 2.0)),
            rng.choice((0.0, -0.0, -1.0, -0.5)))


@pytest.mark.parametrize("kind", ["int", "float"])
def test_tie_queue_pops_in_eager_heap_order(kind):
    rng = random.Random(f"tie-queue/{kind}")
    late = ranked = 0
    for trial in range(300):
        collide = trial % 2 == 0

        def tie(state, trial=trial, collide=collide):
            # forced collisions leave the order to the state alone
            return state % 3 if collide else _mix(trial, state)

        queue, eager = _TieQueue(tie), EagerTieHeap(tie)
        for _ in range(rng.randint(1, 80)):
            if eager.heap and rng.random() < 0.4:
                key, state = queue.pop()
                assert (key, state) == eager.pop()
            else:
                # few states, so some are pushed twice, even under one key
                key, state = _random_key(rng, kind), rng.randrange(10)
                late += type(queue._buckets.get(key)) is _Ranked
                queue.push(key, state)
                eager.push(key, state)
            ranked += any(type(b) not in (int, list)
                          for b in queue._buckets.values())
        while eager.heap:
            assert queue.pop() == eager.pop()
        assert not queue.keys
    # the interleavings did reach ranked buckets and pushes into them
    assert ranked and late


def test_tie_queue_hashes_only_shared_keys():
    calls = []

    def tie(state):
        calls.append(state)
        return -state

    queue = _TieQueue(tie)
    for key, state in [(3, 30), (1, 10), (2, 20), (2, 21), (2, 22), (0, 0)]:
        queue.push(key, state)
    assert [queue.pop() for _ in range(3)] == [(0, 0), (1, 10), (2, 22)]
    assert sorted(calls) == [20, 21, 22]  # the bucket of key 2, ranked once
    queue.push(2, 23)  # a late push, hashed on arrival
    assert [queue.pop() for _ in range(4)] == [(2, 23), (2, 21), (2, 20),
                                                (3, 30)]
    assert sorted(calls) == [20, 21, 22, 23]
    assert not queue.keys
