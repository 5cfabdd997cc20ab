"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The big-map test uses the
real benchmark file when present (tests/../data/den520d.map or the
SPREADPLAN_DEN520D environment variable) and otherwise falls back to a seeded
random map of the same dimensions restricted to its largest connected
component.
"""

import os
import random
import re
import time
from pathlib import Path

import pytest

from helpers import (build_prior_paths, neighbors, pairwise_conflicts,
                     reference_table, usage_table)
from oracle import (enumerate_shortest_paths, min_objective, path_penalty,
                    peak_vertex_overlap, worst_move)
from spreadplan import metrics
from spreadplan.grid import (GridMap, distance_field, generate_instance,
                             generate_random_grid, generate_warehouse,
                             largest_component_grid, parse_movingai_map)
from spreadplan.lifelong import (GoalStream, config_for_variant, run_lifelong,
                                 solve_mpp_via_horizon)
from spreadplan.oneshot import Conflict, validate_solution
from spreadplan.search import (SearchConfig, SearchStats,
                               find_path_cost_to_come, find_path_cost_to_go,
                               plan_independent_paths)
from spreadplan.usage import UsageParams

SHARED_SEARCH_STATS = SearchStats()
README = Path(__file__).resolve().parent.parent / "README.md"
_batch_cache = {}


def report(num, name, ok, detail):
    print(f"\nacceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def random_case(rng, case_seed):
    grid = generate_random_grid(rng.randint(4, 10), rng.randint(4, 10),
                                rng.choice([0.0, 0.1, 0.15]), case_seed)
    cells = list(grid.passable_cells)
    s, g = rng.sample(cells, 2)
    field = distance_field(grid, g)
    if s not in field:
        return None
    priors = build_prior_paths(grid, rng, rng.randint(0, 6))
    return grid, s, g, field, priors


def test_01_shortest_length_preserved_in_both_modes():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    total = good = 0
    case_seed = 0
    while total < 1000:
        case_seed += 1
        case = random_case(rng, case_seed)
        if case is None:
            continue
        grid, s, g, field, priors = case
        n = len(priors) + 1
        vw = rng.choice([1.0, 0.5, 0.0])
        temporal = rng.random() < 0.5
        params = UsageParams(vw, 1.0 - vw,
                             rng.randint(0, 2) if temporal else 0,
                             rng.randint(0, 4) if temporal else 0,
                             temporal, n)
        table = usage_table(grid, priors, params)
        p1 = find_path_cost_to_go(s, table, field, case_seed,
                                  SHARED_SEARCH_STATS)
        p2 = find_path_cost_to_come(s, table, field, case_seed,
                                    SHARED_SEARCH_STATS)
        good += (len(p1) - 1 == field[s])
        good += (len(p2) - 1 == field[s])
        total += 2
    elapsed = time.perf_counter() - t0
    report(1, "shortest length preserved",
           good == total and elapsed < 30,
           f"{good}/{total} shortest, {elapsed:.1f}s < 30s")


def _oracle_cases(mode, objective, count=500):
    """Each case's search on a vertex-only aggregate table against the
    brute-force minimum of `objective`; then on the same priors as a 0.5/0.5
    aggregate table and as a 0.5/0.5 temporal one, against the brute-force
    minimum of the kernel's own objective: cost_to_go's worst move penalty,
    cost_to_come's summed penalty.  The minima read reference tables of the
    same priors.  Returns the matched and total counts of both."""
    rng = random.Random(2002 if mode == "cost_to_go" else 3003)
    # the temporal windows come from a stream apart, so the cases stay as drawn
    windows = random.Random(2003 if mode == "cost_to_go" else 3004)
    objective_of_mode = worst_move if mode == "cost_to_go" else path_penalty
    matched = total = weighted_matched = weighted_total = 0
    case_seed = 0
    while total < count:
        case_seed += 1
        grid = generate_random_grid(rng.randint(3, 5), rng.randint(3, 5),
                                    rng.choice([0.0, 0.1]), case_seed)
        cells = list(grid.passable_cells)
        s, g = rng.sample(cells, 2)
        field = distance_field(grid, g)
        if s not in field:
            continue
        priors = build_prior_paths(grid, rng, rng.randint(0, 6))
        params = UsageParams(1.0, 0.0, num_robots=len(priors) + 1)
        table = usage_table(grid, priors, params)
        ref = reference_table(priors, params)
        enum = enumerate_shortest_paths(grid, s, g)
        best, _ = min_objective(enum, ref, objective)
        if mode == "cost_to_go":
            path = find_path_cost_to_go(s, table, field, case_seed,
                                        SHARED_SEARCH_STATS)
            value = peak_vertex_overlap(path, ref)
        else:
            path = find_path_cost_to_come(s, table, field, case_seed,
                                          SHARED_SEARCH_STATS)
            value = sum(ref.vertex_count(v) for v in set(path))
        matched += (value == best)
        total += 1
        n = len(priors) + 1
        window = (windows.randint(0, 2), windows.randint(0, 3))
        for params in (UsageParams(0.5, 0.5, num_robots=n),
                       UsageParams(0.5, 0.5, *window, True, n)):
            kernel = (find_path_cost_to_go if mode == "cost_to_go"
                      else find_path_cost_to_come)
            path = kernel(s, usage_table(grid, priors, params), field,
                          case_seed, SHARED_SEARCH_STATS)
            ref = reference_table(priors, params)
            least = min(objective_of_mode(p, ref) for p in enum.paths)
            weighted_matched += (len(path) - 1 == field[s] and abs(
                objective_of_mode(path, ref) - least) <= 1e-9)
            weighted_total += 1
    return matched, total, weighted_matched, weighted_total


def test_02_min_peak_matches_bruteforce():
    matched, total, w_matched, w_total = _oracle_cases("cost_to_go", "peak")
    report(2, "worst-cell overlap equals brute-force minimum",
           matched == total and w_matched == w_total,
           f"{matched}/{total} matched; worst move penalty on edge-weighted "
           f"and temporal tables {w_matched}/{w_total} matched")


def test_03_min_total_matches_bruteforce():
    matched, total, w_matched, w_total = _oracle_cases("cost_to_come", "total")
    report(3, "summed overlap equals brute-force minimum",
           matched == total and w_matched == w_total,
           f"{matched}/{total} matched; summed penalty on edge-weighted "
           f"and temporal tables {w_matched}/{w_total} matched")


def test_04_penalty_always_below_one():
    evaluated = SHARED_SEARCH_STATS.evaluations
    violations = SHARED_SEARCH_STATS.penalty_bound_violations
    report(4, "penalty stays in [0,1) during all searches",
           evaluated > 0 and violations == 0,
           f"{violations} violations over {evaluated} evaluations")


def _convergence_instances():
    instances = []
    for seed in range(30):
        grid = generate_random_grid(20, 10, 0.05, seed)
        robots = generate_instance(grid, 100, seed * 31 + 1)
        instances.append((grid, [(s, gs[0]) for s, gs in robots]))
    return instances


def test_05_conflict_series_never_increase():
    ok_instances = 0
    checks = []
    for idx, (grid, tasks) in enumerate(_convergence_instances()):
        instance_ok = True
        for mode, metric in (("cost_to_go", metrics.max_vertex_overlap),
                             ("cost_to_come", metrics.total_pairwise_overlap)):
            series = []
            plan_independent_paths(
                grid, tasks, UsageParams(1.0, 0.0, num_robots=100), 8,
                SearchConfig(mode, idx),
                on_iteration=lambda r, paths: series.append(metric(paths)))
            if not all(b <= a for a, b in zip(series, series[1:])):
                instance_ok = False
                checks.append((idx, mode, series))
        ok_instances += instance_ok
    report(5, "conflict series never increase across passes",
           ok_instances == 30, f"{ok_instances}/30 instances monotone "
           f"in both modes{'; first violation ' + str(checks[0]) if checks else ''}")


def test_06_conflict_reduction_at_desk_scale():
    t0 = time.perf_counter()
    base = guided = 0
    for idx, (grid, tasks) in enumerate(_convergence_instances()):
        params = UsageParams(0.5, 0.5, 0, 0, True, 100)
        p0 = plan_independent_paths(grid, tasks, params, 0,
                                    SearchConfig(tie_break_seed=idx))
        p4 = plan_independent_paths(grid, tasks, params, 4,
                                    SearchConfig(tie_break_seed=idx))
        base += sum(metrics.timed_conflicts(p0))
        guided += sum(metrics.timed_conflicts(p4))
    elapsed = time.perf_counter() - t0
    reduction = 1 - guided / base
    report(6, "timed conflicts drop by at least 30%",
           reduction >= 0.30 and elapsed < 120,
           f"{100 * reduction:.1f}% reduction "
           f"({base} -> {guided}), {elapsed:.1f}s < 120s")


def test_07_curve_stabilizes_and_ordering_helps():
    seeds = range(30)
    curve = [0.0] * 9
    # One-pass peaks per first-pass order: ordering by start-goal distance
    # should beat a random order there.  Shortest-first does; the default
    # longest-first does not (see README), so it is only reported.
    desc_r1 = random_r1 = asc_r1 = 0.0
    for seed in seeds:
        grid = generate_random_grid(20, 10, 0.05, seed)
        robots = generate_instance(grid, 100, seed * 31 + 1)
        tasks = [(s, gs[0]) for s, gs in robots]
        params = UsageParams(1.0, 0.0, num_robots=100)
        p0 = plan_independent_paths(grid, tasks, params, 0,
                                    SearchConfig(tie_break_seed=seed))
        curve[0] += metrics.max_vertex_overlap(p0)
        values = {}
        plan_independent_paths(
            grid, tasks, params, 8, SearchConfig(tie_break_seed=seed),
            on_iteration=lambda r, paths: values.__setitem__(
                r, metrics.max_vertex_overlap(paths)))
        for r in range(1, 9):
            curve[r] += values[r]
        desc_r1 += values[1]
        p_rand = plan_independent_paths(grid, tasks, params, 1,
                                        SearchConfig(tie_break_seed=seed),
                                        order="random")
        random_r1 += metrics.max_vertex_overlap(p_rand)
        p_asc = plan_independent_paths(grid, tasks, params, 1,
                                       SearchConfig(tie_break_seed=seed),
                                       order="asc")
        asc_r1 += metrics.max_vertex_overlap(p_asc)
    normalized = metrics.normalize_series(curve)
    non_increasing = all(b <= a for a, b in zip(normalized, normalized[1:]))
    stabilized = abs(normalized[4] - normalized[8]) <= 0.05
    ordering = asc_r1 < random_r1
    means = {"desc": f"{desc_r1 / 30:.2f}", "random": f"{random_r1 / 30:.2f}",
             "asc": f"{asc_r1 / 30:.2f}"}
    # README quotes the three means, in its prose and its commands
    readme = " ".join(README.read_text(encoding="utf-8").split())
    quoted = dict(re.findall(r"--order (\w+) --out o\.csv # mean r1 ([\d.]+)",
                             readme))
    documented = quoted == means and (
        f"{means['desc']} longest-first (the default), {means['random']} random "
        f"and {means['asc']} shortest-first") in readme
    report(7, "curve stabilizes and distance ordering helps",
           non_increasing and stabilized and ordering and documented,
           f"non-increasing={non_increasing}, "
           f"r4->r8 delta={abs(normalized[4] - normalized[8]):.4f}<=0.05, "
           f"one-pass peak shortest-first {means['asc']} vs random "
           f"{means['random']}: {'better' if ordering else 'NOT better'} "
           f"(longest-first {means['desc']}); README quotes these means: "
           f"{documented} ({quoted})")


def warehouse_batch():
    if "batch" in _batch_cache:
        return _batch_cache["batch"]
    grid = generate_warehouse(37, 20, (4, 2), 2)
    results = {}
    timings = {}
    for variant in ("baseline", "cut", "cut+usage", "cut+usage+temporal"):
        t0 = time.perf_counter()
        throughputs = []
        expansions = []
        for seed in range(8):
            streams = [GoalStream(grid, seed=seed * 7919 + i) for i in range(80)]
            stats = run_lifelong(grid, streams,
                                 config_for_variant(variant, h=5, seed=seed),
                                 500)
            throughputs.append(stats.throughput)
            expansions.append(stats.total_expansions)
        results[variant] = (sum(throughputs) / 8, sum(expansions) / 8)
        timings[variant] = time.perf_counter() - t0
    _batch_cache["batch"] = (results, timings)
    return _batch_cache["batch"]


def test_08_horizon_cut_reduces_search_work():
    results, timings = warehouse_batch()
    base_tp, base_exp = results["baseline"]
    cut_tp, cut_exp = results["cut"]
    ratio = cut_exp / base_exp
    tp_gap = abs(cut_tp / base_tp - 1)
    elapsed = timings["baseline"] + timings["cut"]
    report(8, "horizon cut reduces windowed search work",
           ratio <= 0.70 and tp_gap <= 0.05 and elapsed < 300,
           f"expansions ratio {ratio:.2f} <= 0.70, throughput gap "
           f"{100 * tp_gap:.1f}% <= 5%, {elapsed:.0f}s < 300s")


def test_09_throughput_ordering_across_variants():
    results, _ = warehouse_batch()
    cut = results["cut"][0]
    usage = results["cut+usage"][0]
    temporal = results["cut+usage+temporal"][0]
    report(9, "guided targets order throughput as expected",
           temporal >= usage >= cut,
           f"temporal {temporal:.4f} >= usage {usage:.4f} >= cut {cut:.4f}")


def big_map():
    path = os.environ.get(
        "SPREADPLAN_DEN520D",
        os.path.join(os.path.dirname(__file__), "..", "data", "den520d.map"))
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return parse_movingai_map(fh.read()), "den520d"
    rng = random.Random(9)
    cells = [(x, y) for y in range(256) for x in range(257)]
    blocked = frozenset(rng.sample(cells, int(257 * 256 * 0.10)))
    grid = largest_component_grid(GridMap(257, 256, blocked))
    return grid, "synthetic 257x256 fallback"


def test_10_one_shot_via_horizon_near_optimal_at_scale():
    grid, source = big_map()
    mk_ratios, sc_ratios = [], []
    slowest = 0.0
    for seed in (5, 6):
        robots = generate_instance(grid, 50, seed)
        tasks = [(s, gs[0]) for s, gs in robots]
        t0 = time.perf_counter()
        res = solve_mpp_via_horizon(grid, tasks,
                                    config_for_variant("cut+usage", h=50,
                                                       seed=seed))
        slowest = max(slowest, time.perf_counter() - t0)
        assert validate_solution(res.paths, grid, tasks) == []
        mk_ratios.append(res.makespan_ratio)
        sc_ratios.append(res.cost_ratio)
    mk = sum(mk_ratios) / len(mk_ratios)
    sc = sum(sc_ratios) / len(sc_ratios)
    report(10, "bounded-horizon one-shot near optimal at scale",
           mk <= 1.05 and sc <= 1.05 and slowest < 300,
           f"{source}: makespan ratio {mk:.4f} <= 1.05, cost ratio "
           f"{sc:.4f} <= 1.05, slowest run {slowest:.0f}s < 300s")


def _fuzz_case(rng, case_idx):
    """Planted-conflict path set with its exactly-known conflict list."""
    paths = []
    expected = set()
    row = 0
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(["vertex", "swap", "clean"])
        m = rng.randint(2, 8)
        i = len(paths)
        if kind == "clean":
            paths.append([(x, row) for x in range(m + 1)])
            paths.append([(x, row + 2) for x in range(m + 1)])
        else:
            if kind == "vertex" and m % 2 == 1:
                m += 1
            if kind == "swap" and m % 2 == 0:
                m += 1
            right = [(x, row) for x in range(m + 1)]
            left = [(m - x, row) for x in range(m + 1)]
            paths.append(right)
            paths.append(left)
            if kind == "vertex":
                expected.add(("vertex", (i, i + 1), m // 2, (m // 2, row)))
            else:
                t = m // 2 + 1
                expected.add(("swap", (i, i + 1), t,
                              ((m - t, row), (t, row))))
        row += 4
    return paths, expected


def test_11_validator_finds_exactly_the_planted_conflicts():
    rng = random.Random(4004)
    exact = total = 0
    for case_idx in range(1000):
        paths, expected = _fuzz_case(rng, case_idx)
        found = {(c.kind, c.robots, c.time, c.where)
                 for c in validate_solution(paths)}
        exact += (found == expected)
        total += 1
    report(11, "validator reports exactly the planted conflicts",
           exact == total, f"{exact}/{total} exact matches")


def _illegal_move_case(rng, planted):
    """Random walks on a random map with planted faults: teleports, steps
    onto a blocked or off-map cell and back, and wrong starts and goals.
    Returns the paths, the map, the tasks and the exact fault list the validator must
    give: every move fault, then the endpoint faults, then the collisions."""
    width, height = rng.randint(2, 9), rng.randint(2, 9)
    cells = [(x, y) for y in range(height) for x in range(width)]
    grid = GridMap(width, height,
                   frozenset(rng.sample(cells, rng.randint(1, len(cells) // 3))))
    free = [c for c in cells if c not in grid.blocked]
    paths, tasks, moves, endpoints = [], [], [], []
    for i in range(rng.randint(1, 4)):
        path = [rng.choice(free)]
        for _ in range(rng.randint(0, 10)):
            here, t = path[-1], len(path)
            x, y = here
            kind = rng.choice(("step", "step", "teleport", "blocked", "off-map"))
            if kind == "teleport":
                far = [c for c in free
                       if abs(c[0] - x) + abs(c[1] - y) >= 2]
                if far:
                    there = rng.choice(far)
                    path.append(there)
                    moves.append(Conflict("move", (i,), t, (here, there)))
                    planted[kind] += 1
                    continue
            elif kind in ("blocked", "off-map"):
                near = [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]
                if kind == "blocked":
                    bad = [c for c in near if c in grid.blocked] or sorted(grid.blocked)
                else:
                    bad = [c for c in near if not grid.in_bounds(c)] or [
                        (rng.choice((-2, width + 1)), rng.randrange(height))]
                there = rng.choice(bad)
                path += [there, here]
                moves.append(Conflict("move", (i,), t, (here, there)))
                moves.append(Conflict("move", (i,), t + 1, (there, here)))
                planted[kind] += 1
                continue
            path.append(rng.choice(neighbors(grid, here) + [here]))
        start, goal = path[0], path[-1]
        if rng.random() < 0.2:
            start = rng.choice([c for c in cells if c != path[0]])
            endpoints.append(Conflict("start", (i,), 0, path[0]))
            planted["start"] += 1
        if rng.random() < 0.2:
            goal = rng.choice([c for c in cells if c != path[-1]])
            endpoints.append(Conflict("goal", (i,), len(path) - 1, path[-1]))
            planted["goal"] += 1
        paths.append(path)
        tasks.append((start, goal))
    return paths, grid, tasks, moves + endpoints + pairwise_conflicts(paths)


def test_11_validator_finds_exactly_the_planted_illegal_moves():
    rng = random.Random(4011)
    planted = dict.fromkeys(("teleport", "blocked", "off-map", "start",
                             "goal"), 0)
    exact = total = 0
    for _ in range(1000):
        paths, grid, tasks, expected = _illegal_move_case(rng, planted)
        exact += validate_solution(paths, grid, tasks) == expected
        total += 1
    report(11, "validator reports exactly the planted illegal moves",
           exact == total and min(planted.values()) >= 100,
           f"{exact}/{total} exact matches; planted {planted}")
