import dataclasses
import itertools
import random
import tracemalloc

import pytest

import helpers
import spreadplan.grid as grid_module
import spreadplan.lifelong as lifelong
from helpers import eager_bfs, neighbors, reference_plan_window
from spreadplan.grid import (NEIGHBOR_STEPS, FieldCache, GridMap,
                             distance_field, generate_instance,
                             generate_random_grid, generate_warehouse)
from spreadplan.lifelong import (GoalStream, HorizonConfig, LivelockError,
                                 WindowedSolverError,
                                 apply_horizon_cut, config_for_variant,
                                 horizon_cut_index, run_lifelong,
                                 solve_mpp_via_horizon, truncate_goal_list,
                                 windowed_solver)
from spreadplan.metrics import path_length, timed_conflicts
from spreadplan.oneshot import validate_solution
from spreadplan.search import InstanceError, _fold, _mix, _Reservations
from spreadplan.usage import UsageParams


def dist_on(grid):
    cache = FieldCache(grid)
    return cache, cache.dist


def test_truncate_keeps_goals_until_horizon():
    grid = GridMap(10, 1)
    _, dist = dist_on(grid)
    # goals at distances 2 then 3 along a line, horizon 4
    chain, d = truncate_goal_list((0, 0), [(2, 0), (5, 0), (9, 0)], 4, dist)
    assert chain == [(0, 0), (2, 0), (5, 0)]
    assert d == 5


def test_truncate_first_goal_already_past_horizon():
    grid = GridMap(10, 1)
    _, dist = dist_on(grid)
    chain, d = truncate_goal_list((0, 0), [(6, 0), (9, 0)], 4, dist)
    assert chain == [(0, 0), (6, 0)]
    assert d == 6


def test_truncate_empty_goals():
    grid = GridMap(10, 1)
    _, dist = dist_on(grid)
    chain, d = truncate_goal_list((3, 0), [], 4, dist)
    assert chain == [(3, 0)] and d == 0


def test_horizon_cut_index_no_cut_at_boundary():
    assert horizon_cut_index(4, 4, 4) == 4  # travel ends exactly at horizon


def test_horizon_cut_index_single_long_leg():
    assert horizon_cut_index(9, 9, 4) == 5  # one step past the horizon


def test_horizon_cut_index_matches_executed_horizon():
    # straight corridor: execute h steps, the cut target sits one beyond
    grid = GridMap(12, 1)
    cache, dist = dist_on(grid)
    leg = [(x, 0) for x in range(10)]  # length 9
    h = 4
    idx = horizon_cut_index(9, 9, h)
    cfg = config_for_variant("cut", h=h)
    targets = apply_horizon_cut(grid, [([leg[0], leg[-1]], 9)], cfg, cache)
    assert targets == [[leg[idx]]]
    paths, _ = windowed_solver(grid, [leg[0]], targets, h, cache)
    assert paths[0][-1] == leg[h]          # executed exactly h steps forward
    assert targets[0][0] == leg[h + 1]     # target one step beyond


def test_horizon_cut_multi_leg_clamps():
    grid = GridMap(12, 1)
    cache, _ = dist_on(grid)
    # legs of length 2 then 3, h=4: boundary falls on the leg end, no cut
    chain = [(0, 0), (2, 0), (5, 0)]
    cfg = config_for_variant("cut", h=4)
    targets = apply_horizon_cut(grid, [(chain, 5)], cfg, cache)
    assert targets == [[(2, 0), (5, 0)]]


def test_windowed_all_robots_resting():
    grid = GridMap(5, 5)
    states = [(0, 0), (4, 4), (2, 2)]
    paths, _ = windowed_solver(grid, states, [[s] for s in states], 4)
    for s, p in zip(states, paths):
        assert p == [s] * 5


def test_windowed_single_robot_chains_goals():
    grid = GridMap(8, 1)
    paths, _ = windowed_solver(grid, [(0, 0)], [[(2, 0), (5, 0)]], 5)
    assert paths[0] == [(x, 0) for x in range(6)]


def test_windowed_rejects_duplicate_states():
    grid = GridMap(3, 3)
    with pytest.raises(ValueError):
        windowed_solver(grid, [(0, 0), (0, 0)], [[(1, 1)], [(2, 2)]], 3)


def brute_joint_windows(grid, states, goals, h):
    """All collision-free h-step joint plans, exhaustively."""
    def ok(prev, nxt):
        if len(set(nxt)) != len(nxt):
            return False
        for i in range(len(nxt)):
            for j in range(len(nxt)):
                if i != j and nxt[i] == prev[j] and nxt[j] == prev[i] \
                        and prev[i] != prev[j]:
                    return False
        return True

    plans = [[list(states)]]
    for _ in range(h):
        nxt_plans = []
        for plan in plans:
            prev = plan[-1]
            options = [neighbors(grid, v) + [v] for v in prev]
            for step in itertools.product(*options):
                if ok(prev, step):
                    nxt_plans.append(plan + [list(step)])
        plans = nxt_plans
    return plans


def test_windowed_two_crossing_robots_vs_exhaustive():
    grid = GridMap(3, 3)
    states = [(0, 1), (1, 0)]
    targets = [[(2, 1)], [(1, 2)]]
    h = 4
    paths, _ = windowed_solver(grid, states, targets, h)
    assert validate_solution(paths) == []
    assert all(len(p) == h + 1 for p in paths)
    # exhaustive check: some joint plan reaches both goals within h
    plans = brute_joint_windows(grid, states, [t[0] for t in targets], h)
    reaching = [pl for pl in plans
                if all(tuple(targets[i][0]) in {tuple(v) for v in
                                                [step[i] for step in pl]}
                       for i in range(2))]
    assert reaching
    for i in range(2):
        assert targets[i][0] in paths[i]


def test_window_fallback_ends_on_the_least_tie_of_the_nearest_cells():
    # a target held at every step is never reached, so the search runs dry
    # and keeps the h-step prefix ending nearest it: (3, 2), (2, 3) and
    # (4, 3) are one step away, and the seeded tie of the state picks one
    grid, h = GridMap(7, 7), 4
    plan = lifelong._window_plan(grid, (3, 0), [(3, 3)], FieldCache(grid))
    reservations = _Reservations(len(grid.template))
    reservations.add_path([grid.cell_id((3, 3))] * 40)
    nearest = [grid.cell_id(c) for c in ((3, 2), (2, 3), (4, 3))]
    at_h = h * len(grid.template)  # the state of id v at t = h, k = 0
    ends = set()
    for seed in range(20):
        path, _ = lifelong._plan_window(grid, plan, h, reservations, seed)
        salt = _mix(seed)
        assert path[-1] == min(nearest,
                               key=lambda v: (_fold(salt, at_h + v), v))
        assert len(path) == h + 1
        ends.add(path[-1])
    assert len(ends) > 1


@pytest.mark.parametrize("collide", [False, True])
def test_window_search_pops_as_one_eager_heap(monkeypatch, collide):
    """`_plan_window`'s level buckets pop exactly as one heap of (key, tie,
    state) does: on seeded random windows, `reference_plan_window` finds
    the same path with the same expansion count, also for target chains,
    around parked robots, and when the search ends in the t = h fallback
    or finds nothing.  With `collide`, ties take three values, so the
    state's id orders most states of a bucket."""
    if collide:
        for module in (lifelong, helpers):
            monkeypatch.setattr(module, "_fold", lambda salt, state: state % 3)
    plan_window = lifelong._plan_window
    seen = dict.fromkeys(("chain", "parked", "fallback", "failed"), 0)

    def checked(grid, plan, h, reservations, seed):
        expected = reference_plan_window(grid, plan, h, reservations, seed)
        path, expansions = plan_window(grid, plan, h, reservations, seed)
        assert (path, expansions) == expected
        seen["chain"] += len(plan.target_ids) > 1
        # a robot parked at the end of its window is reserved past step h
        seen["parked"] += max(reservations.vertex, default=0) >= (
            (h + 1) * reservations.size)
        if path is None:
            seen["failed"] += 1
        else:
            walk = iter(path[1:])
            seen["fallback"] += not all(g in walk for g in plan.target_ids)
        return path, expansions

    monkeypatch.setattr(lifelong, "_plan_window", checked)
    rng = random.Random(29)
    for _ in range(60):
        if rng.random() < 0.3:
            grid = generate_warehouse(rng.randint(9, 16), rng.randint(6, 10),
                                      (3, 1), 1)
        else:
            grid = generate_random_grid(rng.randint(3, 10), rng.randint(3, 10),
                                        rng.choice([0.0, 0.15, 0.3]),
                                        seed=rng.randrange(1 << 20))
        n = rng.randint(1, min(10, grid.num_vertices))
        robots = generate_instance(grid, n, rng.randrange(1 << 20),
                                   goals_per_robot=rng.randint(1, 3))
        monkeypatch.setattr(lifelong, "MAX_EXPANSIONS",
                            rng.choice((15, 40, 200_000)))
        try:
            windowed_solver(grid, [s for s, _ in robots],
                            [gs for _, gs in robots], rng.randint(1, 6),
                            seed=rng.randrange(1 << 20))
        except WindowedSolverError:
            pass
    assert all(count >= 5 for count in seen.values()), seen


def test_windowed_solver_sweep_returns_valid_windows_or_raises():
    rng = random.Random(23)
    solved = 0
    for _ in range(40):
        grid = generate_random_grid(rng.randint(3, 10), rng.randint(3, 10),
                                    rng.choice([0.0, 0.15, 0.3]),
                                    seed=rng.randrange(1 << 20))
        n = rng.randint(1, min(8, grid.num_vertices))
        h = rng.randint(1, 6)
        robots = generate_instance(grid, n, rng.randrange(1 << 20),
                                   goals_per_robot=rng.randint(1, 3))
        states = [s for s, _ in robots]
        try:
            paths, _ = windowed_solver(grid, states, [gs for _, gs in robots],
                                       h, seed=rng.randrange(1 << 20))
        except WindowedSolverError:
            continue
        solved += 1
        assert all(len(p) == h + 1 for p in paths)
        assert [p[0] for p in paths] == states
        assert validate_solution(paths, grid) == []
    assert solved >= 30


def test_usage_guided_targets_spread_crossing_robots():
    # two robots racing head-on along the bottom row; blind cutting sends
    # both to the same middle cell, usage-aware cutting spreads the targets
    # and the following window makes strictly more progress
    grid = GridMap(7, 7)
    states = [(0, 0), (6, 0)]
    goals = [(6, 6), (0, 6)]
    cache = FieldCache(grid)
    h = 2

    def one_cycle(cfg):
        chains = [([states[i], goals[i]], cache.dist(states[i], goals[i]))
                  for i in range(2)]
        targets = apply_horizon_cut(grid, chains, cfg, cache, 0)
        paths, _ = windowed_solver(grid, states, targets, h, cache, seed=3)
        return targets, paths

    plain_targets, plain_paths = one_cycle(config_for_variant("cut", h=h, seed=3))
    guided_targets, guided_paths = one_cycle(
        config_for_variant("cut+usage", h=h, seed=3))

    assert plain_targets[0] == plain_targets[1]  # both aim at the same cell
    assert guided_targets[0] != guided_targets[1]

    def progress(paths):
        return sum(cache.dist(states[i], goals[i])
                   - cache.dist(paths[i][-1], goals[i]) for i in range(2))

    assert progress(guided_paths) >= progress(plain_paths)
    second_legs = []
    for variant_paths, variant_targets in ((plain_paths, plain_targets),
                                           (guided_paths, guided_targets)):
        positions = [p[-1] for p in variant_paths]
        chains = [([positions[i], goals[i]], cache.dist(positions[i], goals[i]))
                  for i in range(2)]
        cfg = config_for_variant("cut", h=h, seed=3)
        legs = [_leg(cache, positions[i], goals[i]) for i in range(2)]
        second_legs.append(legs)
    plain_next, guided_next = second_legs
    # after the blind cut the robots sit head-on in one row; after the
    # guided cut their continuations no longer collide
    assert timed_conflicts(plain_next)[0] + timed_conflicts(plain_next)[1] > 0
    assert sum(timed_conflicts(guided_next)) == 0


def _leg(cache, start, goal):
    from spreadplan.lifelong import _shortest_leg_path
    field = cache(goal)
    return _shortest_leg_path(start, field, field[start])


def test_shortest_leg_path_reads_labels_without_growing_the_field():
    """Looking up the start labels every shortest path from it, so the
    greedy walk reads labels: the field does not grow during the walk, and
    the walk takes the first neighbour one closer in NEIGHBOR_STEPS order."""
    grid = generate_random_grid(40, 40, 0.2, seed=4)
    rng = random.Random(11)
    cells = grid.passable_cells
    for _ in range(50):
        start, goal = rng.sample(cells, 2)
        field = distance_field(grid, goal)
        d = field[start]
        labelled = len(field)
        steps = rng.randint(1, d)
        path = lifelong._shortest_leg_path(start, field, steps)
        assert len(field) == labelled
        exact = eager_bfs(grid, goal)
        walk = [start]
        for _ in range(steps):
            x, y = walk[-1]
            walk.append(next((x + dx, y + dy) for dx, dy in NEIGHBOR_STEPS
                             if exact.get((x + dx, y + dy)) == exact[(x, y)] - 1))
        assert path == walk


def test_run_lifelong_zero_robots():
    grid = GridMap(4, 4)
    stats = run_lifelong(grid, [], HorizonConfig(h=3), stop_goals=5)
    assert stats.goals_reached == 0
    assert stats.throughput == 0.0


def test_run_lifelong_single_robot_adjacent_goals():
    grid = GridMap(8, 1)
    # ping-pong between two adjacent cells: one goal reached per step
    goals = [( (1, 0) if i % 2 == 0 else (0, 0) ) for i in range(40)]
    stream = GoalStream(grid, initial=goals)
    cfg = HorizonConfig(h=4, seed=0)
    stats = run_lifelong(grid, [stream], cfg, stop_goals=20,
                         positions=[(0, 0)])
    assert stats.goals_reached >= 20
    assert stats.throughput == pytest.approx(1.0, abs=0.05)


def test_run_lifelong_deterministic():
    grid = generate_warehouse(21, 12, (3, 2), 2)
    def make_streams():
        return [GoalStream(grid, seed=100 + i) for i in range(8)]
    cfg = config_for_variant("cut+usage", h=5, seed=4)
    a = run_lifelong(grid, make_streams(), cfg, 40)
    b = run_lifelong(grid, make_streams(), cfg, 40)
    assert a.goals_reached == b.goals_reached
    assert a.elapsed_steps == b.elapsed_steps
    assert [c.expansions for c in a.cycles] == [c.expansions for c in b.cycles]


def test_run_lifelong_all_variants_work():
    grid = generate_warehouse(21, 12, (3, 2), 2)
    for variant in ("baseline", "cut", "cut+usage", "cut+usage+temporal"):
        streams = [GoalStream(grid, seed=50 + i) for i in range(10)]
        cfg = config_for_variant(variant, h=5, seed=2)
        stats = run_lifelong(grid, streams, cfg, 60)
        assert stats.goals_reached >= 60
        assert stats.throughput > 0
        assert len(stats.cycles) == stats.elapsed_steps // 5


def test_run_lifelong_raises_once_every_stream_is_empty():
    # six fixed goals in all can never make ten; the loop must not cycle on
    grid = generate_warehouse(25, 14, (3, 2), 2)
    cells = list(grid.passable_cells)
    rng = random.Random(3)
    positions = rng.sample(cells, 3)
    streams = [GoalStream(grid, initial=rng.sample(cells, 2)) for _ in range(3)]
    cfg = config_for_variant("cut+usage", h=5, seed=0)
    with pytest.raises(LivelockError, match=r"empty after \d+ goals of the 10"):
        run_lifelong(grid, streams, cfg, stop_goals=10, positions=positions)
    assert all(len(stream) == 0 for stream in streams)


def test_horizon_config_validation():
    with pytest.raises(ValueError):
        HorizonConfig(h=0)
    with pytest.raises(ValueError):
        HorizonConfig(variant="cut+sideways")


def test_run_lifelong_partial_commit():
    # every cycle executes its whole h-step window
    grid = GridMap(10, 6)
    streams = [GoalStream(grid, seed=30 + i) for i in range(4)]
    cfg = HorizonConfig(h=6, seed=1)
    stats = run_lifelong(grid, streams, cfg, stop_goals=12)
    assert stats.goals_reached >= 12
    assert stats.elapsed_steps == 6 * len(stats.cycles)


def test_goal_stream_replenishes_without_repeats():
    grid = GridMap(6, 6)
    stream = GoalStream(grid, seed=9)
    goals = stream.upcoming(50)
    assert len(goals) == 50
    assert all(a != b for a, b in zip(goals, goals[1:]))
    assert all(grid.passable(g) for g in goals)


def test_seeded_goal_streams_share_one_tuple_of_cells():
    grid = generate_warehouse(257, 256, (5, 2), 1)
    tracemalloc.start()
    try:
        streams = [GoalStream(grid, seed=i) for i in range(50)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the map's cells, built once with the first stream: 97 MB when each
    # stream listed them for itself (tracemalloc peak, 257x256)
    assert peak < 16 << 20
    cells = [(x, y) for y in range(grid.height) for x in range(grid.width)
             if (x, y) not in grid.blocked]
    for seed in (0, 1, 49):
        rng, want = random.Random(seed), []
        while len(want) < 100:
            g = rng.choice(cells)
            while want and g == want[-1]:
                g = rng.choice(cells)
            want.append(g)
        assert streams[seed].upcoming(100) == want


def test_cut_preserves_goal_reaches_within_horizon():
    # single robot, empty map: the cut only moves the beyond-horizon target,
    # so the goals reached inside each window match the uncut runs
    grid = GridMap(15, 15)
    goal_list = [(14, 0), (14, 14), (0, 14), (0, 0)] * 3
    outcomes = {}
    for variant in ("baseline", "cut"):
        stream = GoalStream(grid, initial=list(goal_list))
        cfg = config_for_variant(variant, h=5, seed=1)
        stats = run_lifelong(grid, [stream], cfg, stop_goals=6,
                             positions=[(0, 0)])
        outcomes[variant] = [c.goals_cumulative for c in stats.cycles]
    assert outcomes["baseline"] == outcomes["cut"]


def test_solve_via_horizon_single_robot():
    grid = GridMap(9, 9)
    res = solve_mpp_via_horizon(grid, [((0, 0), (8, 8))],
                                config_for_variant("cut", h=5))
    assert res.makespan == 16
    assert res.makespan_ratio == 1.0
    assert res.cost_ratio == 1.0
    assert validate_solution(res.paths, grid, [((0, 0), (8, 8))]) == []


def test_solve_via_horizon_swap_corridor_with_pocket():
    grid = GridMap(6, 2, frozenset({(0, 1), (1, 1), (2, 1), (4, 1), (5, 1)}))
    tasks = [((0, 0), (5, 0)), ((5, 0), (0, 0))]
    res = solve_mpp_via_horizon(grid, tasks, config_for_variant("cut", h=3))
    assert validate_solution(res.paths, grid, tasks) == []
    assert res.paths[0][-1] == (5, 0)
    assert res.paths[1][-1] == (0, 0)


def test_solve_via_horizon_checks_its_tasks():
    # a blocked start, a repeated goal and a goal cut off from its start
    # are rejected before any window is planned
    grid = GridMap(4, 4, frozenset({(1, 1)}))
    walled = GridMap(3, 3, frozenset({(1, 0), (1, 1), (1, 2)}))
    cfg = config_for_variant("cut", h=3)
    for g, tasks in ((grid, [((1, 1), (3, 3))]),
                     (grid, [((0, 0), (3, 3)), ((3, 0), (3, 3))]),
                     (walled, [((0, 0), (2, 2))])):
        with pytest.raises(InstanceError):
            solve_mpp_via_horizon(g, tasks, cfg)


def test_solve_via_horizon_executes_commit_steps_per_cycle():
    grid = generate_warehouse(21, 12, (3, 2), 2)
    robots = generate_instance(grid, 8, seed=17)
    tasks = [(s, gs[0]) for s, gs in robots]
    res = solve_mpp_via_horizon(grid, tasks,
                                HorizonConfig(h=4, variant="cut+usage"))
    assert validate_solution(res.paths, grid, tasks) == []
    assert all(len(p) == 1 + 4 * res.cycles for p in res.paths)


def test_solve_via_horizon_livelock_detected(monkeypatch):
    # two robots that must swap with no room anywhere
    grid = GridMap(2, 1)
    tasks = [((0, 0), (1, 0)), ((1, 0), (0, 0))]
    monkeypatch.setattr(lifelong, "STALL_CYCLES", 5)
    with pytest.raises((LivelockError, WindowedSolverError)):
        solve_mpp_via_horizon(grid, tasks, config_for_variant("cut", h=2))


def test_solve_via_horizon_row_reversal():
    # six robots whose goals reverse their order along the boundary row;
    # parked robots must be routed around, not waited out
    grid = generate_warehouse(21, 12, (3, 2), 2)
    tasks = [((0, 0), (20, 11)), ((1, 0), (19, 11)), ((2, 0), (18, 11)),
             ((3, 0), (17, 11)), ((4, 0), (16, 11)), ((5, 0), (15, 11))]
    res = solve_mpp_via_horizon(grid, tasks, config_for_variant("cut+usage", h=5))
    assert validate_solution(res.paths, grid, tasks) == []
    for path, (_, g) in zip(res.paths, tasks):
        assert path[path_length(path)] == g


def test_solve_via_horizon_multi_robot_validates():
    from spreadplan.grid import generate_instance
    grid = generate_warehouse(21, 12, (3, 2), 2)
    robots = generate_instance(grid, 8, seed=17)
    tasks = [(s, gs[0]) for s, gs in robots]
    res = solve_mpp_via_horizon(grid, tasks, config_for_variant("cut+usage", h=5))
    assert validate_solution(res.paths, grid, tasks) == []
    for path, (s, g) in zip(res.paths, tasks):
        assert path[0] == s
        assert path[path_length(path)] == g
    assert res.cost_ratio >= 1.0


def test_field_cache_bound_keeps_outputs_and_is_never_passed(monkeypatch):
    """With a byte bound of six fields, runs evict and rebuild fields and
    still return what an unbounded cache gives."""
    grid = generate_warehouse(21, 12, (3, 2), 2)
    robots = generate_instance(grid, 10, seed=17)
    tasks = [(s, gs[0]) for s, gs in robots]

    def runs():
        segments = []
        solver = lifelong.windowed_solver

        def kept(*args, **kwargs):
            segments.append(solver(*args, **kwargs))
            return segments[-1]

        with monkeypatch.context() as m:
            m.setattr(lifelong, "windowed_solver", kept)
            streams = [GoalStream(grid, seed=100 + i) for i in range(12)]
            stats = run_lifelong(grid, streams,
                                 config_for_variant("cut+usage", h=5, seed=3),
                                 stop_goals=40)
        cycles = [dataclasses.replace(c, solver_ms=0.0) for c in stats.cycles]
        horizon = solve_mpp_via_horizon(grid, tasks,
                                        config_for_variant("cut+usage", h=5))
        return segments, stats.goals_reached, cycles, horizon

    unbounded = runs()
    bound = 6 * FieldCache(grid).field_bytes
    caches = set()
    lookup = FieldCache.__call__

    def watched(cache, goal):
        field = lookup(cache, goal)
        assert cache.nbytes <= cache.max_bytes == bound
        caches.add(cache)
        return field

    monkeypatch.setattr(grid_module, "FIELD_CACHE_BYTES", bound)
    monkeypatch.setattr(FieldCache, "__call__", watched)
    assert runs() == unbounded
    assert len(caches) >= 2
    assert all(c.evictions > 0 for c in caches)
