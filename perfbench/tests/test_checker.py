"""The benchmark's checks must reject every planted fault.

Run from the repository root with `python3 -m pytest perfbench/tests`.
Each test starts from an output that passes and plants one fault in it.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checker import CheckError, Grid  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# 5x3 map with one blocked cell in the middle:
#   .....
#   ..@..
#   .....
GRID = Grid.from_rows([".....", "..@..", "....."])

# two robots crossing the map on separate rows
STARTS = [(0, 0), (4, 2)]
GOALS = [(4, 0), (0, 2)]
PATHS = [[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)],
         [(4, 2), (3, 2), (2, 2), (1, 2), (0, 2)]]


def dists(starts=STARTS, goals=GOALS):
    return [checker.bfs(GRID, g)[GRID.index(s)] for s, g in zip(starts, goals)]


def check_one_shot(paths, starts=STARTS, goals=GOALS, exact=True):
    checker.check_moves(GRID, paths)
    checker.check_starts(paths, starts)
    checker.check_goals(paths, goals)
    checker.check_conflict_free(paths)
    checker.check_lengths(paths, dists(starts, goals), exact=exact)


def test_clean_output_passes():
    check_one_shot(PATHS)
    assert dists() == [4, 4]
    assert checker.find_conflicts(PATHS) == []


def test_teleport_is_rejected():
    with pytest.raises(CheckError, match="jumps"):
        check_one_shot([[(0, 0), (4, 0)], PATHS[1]], exact=False)


def test_move_into_blocked_cell_is_rejected():
    path = [(2, 0), (2, 1), (2, 2)]
    with pytest.raises(CheckError, match="blocked"):
        checker.check_moves(GRID, [path])


def test_move_off_the_map_is_rejected():
    with pytest.raises(CheckError, match="blocked or off the map"):
        checker.check_moves(GRID, [[(0, 0), (-1, 0)]])


def test_wrong_start_is_rejected():
    with pytest.raises(CheckError, match="starts at"):
        check_one_shot(PATHS, starts=[(1, 0), (4, 2)])


def test_wrong_goal_is_rejected():
    with pytest.raises(CheckError, match="not on goal"):
        check_one_shot([PATHS[0][:-1], PATHS[1]])


def test_vertex_conflict_is_rejected():
    # robot 1 steps onto (2, 0) as robot 0 reaches it
    paths = [PATHS[0], [(3, 1), (3, 0), (2, 0), (2, 0)]]
    found = checker.find_conflicts(paths)
    assert ("vertex", 0, 1, 2) in found
    with pytest.raises(CheckError, match="vertex"):
        checker.check_conflict_free(paths)


def test_conflict_with_a_robot_resting_on_its_goal_is_rejected():
    # robot 1 has arrived at (3, 0) and rests there; robot 0 runs into it
    paths = [PATHS[0], [(3, 1), (3, 0)]]
    assert ("vertex", 0, 1, 3) in checker.find_conflicts(paths)


def test_swap_is_rejected():
    paths = [[(0, 0), (1, 0)], [(1, 0), (0, 0)]]
    assert checker.find_conflicts(paths) == [("swap", 0, 1, 1)]
    with pytest.raises(CheckError, match="swap"):
        checker.check_conflict_free(paths)


def test_non_shortest_phase1_path_is_rejected():
    detour = [(0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (3, 0), (4, 0)]
    with pytest.raises(CheckError, match="shortest is 4"):
        check_one_shot([detour, PATHS[1]])
    # a path with a wait is not a shortest phase-1 path either
    waited = [(0, 0), (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    with pytest.raises(CheckError, match="5 steps"):
        check_one_shot([waited, PATHS[1]])
    # once waits are allowed, the same path only has to be no shorter
    check_one_shot([waited, PATHS[1]], exact=False)


def test_path_shorter_than_bfs_is_rejected():
    with pytest.raises(CheckError, match="shortest"):
        checker.check_lengths([[(0, 0), (4, 0)]], [4], exact=False)


def test_wrong_goal_count_is_rejected():
    trajectories = [PATHS[0] + [(3, 0)], PATHS[1]]
    goal_lists = [[(2, 0), (4, 0), (3, 0)], [(0, 2), (4, 2)]]
    counts, last = checker.check_goal_count(trajectories, goal_lists, 4)
    assert counts == [3, 1] and last == [5, 4]
    with pytest.raises(CheckError, match="replay counts 4"):
        checker.check_goal_count(trajectories, goal_lists, 5)


def test_goal_under_the_start_counts_at_step_zero():
    counts, last = checker.replay_goals([[(0, 0), (1, 0)]], [[(0, 0), (1, 0)]])
    assert counts == [2] and last == [1]


def test_segments_must_chain():
    seg1 = [[(0, 0), (1, 0), (2, 0)], [(4, 2), (3, 2), (2, 2)]]
    seg2 = [[(2, 0), (3, 0), (4, 0)], [(2, 2), (1, 2), (0, 2)]]
    assert checker.chain_segments(STARTS, [seg1, seg2], 2) == PATHS
    broken = [[(1, 0), (2, 0), (3, 0)], seg2[1]]
    with pytest.raises(CheckError, match="robot is at"):
        checker.chain_segments(STARTS, [seg1, broken], 2)


def test_usage_rising_after_a_pass_is_rejected():
    apart = PATHS
    together = [PATHS[0], [(4, 0), (3, 0), (2, 0), (1, 0), (0, 0)]]
    assert checker.overlap(apart) == (1, 0)
    assert checker.overlap(together) == (2, 10)
    assert checker.headon(together) == 8
    assert checker.check_usage_never_rises([together, apart], 0.5, 0.5) == [9, 0]
    with pytest.raises(CheckError, match="rose"):
        checker.check_usage_never_rises([apart, together], 0.5, 0.5)


def test_overlap_may_rise_when_head_on_sharing_falls_by_more():
    # robot 1 first runs against robot 0 along row 0, then with it
    head_on = [PATHS[0], [(3, 0), (2, 0), (1, 0)]]
    same_way = [PATHS[0], [(0, 1), (0, 0), (1, 0), (2, 0), (3, 0)]]
    assert checker.overlap(head_on)[1] == 6 and checker.headon(head_on) == 4
    assert checker.overlap(same_way)[1] == 8 and checker.headon(same_way) == 0
    assert checker.check_usage_never_rises([head_on, same_way], 0.5, 0.5) == [5, 4]


def test_reported_figure_must_match():
    with pytest.raises(CheckError, match="makespan"):
        checker.check_equal("makespan", 5, 4)


def workload_case(name, **sizes):
    """A small case of a real workload, solved by the program."""
    workload = WORKLOADS[name]()
    for attr, value in sizes.items():
        setattr(workload, attr, value)
    case = workload.make_case(random.Random(f"{name}/test"))
    capture = tracing.Capture(*workload.capture) if workload.capture else None
    try:
        prepared = workload.setup(case)
        result = workload.solve(case, prepared)
    finally:
        if capture:
            capture.uninstall()
    return workload, case, prepared, result, capture.taken if capture else {}


def test_workload_check_rejects_a_planted_teleport():
    workload, case, prepared, result, taken = workload_case(
        "spread-passes", robots=12)
    workload.check(case, prepared, result, taken)
    paths, per_pass, stats = result
    paths[0][1:-1] = []
    per_pass[-1] = [list(p) for p in paths]
    with pytest.raises(CheckError, match="jumps"):
        workload.check(case, prepared, (paths, per_pass, stats), taken)


def test_lifelong_check_rejects_a_wrong_goal_count_and_a_broken_segment():
    workload, case, prepared, stats, taken = workload_case(
        "lifelong-warehouse", robots=10, stop_goals=20)
    outcome = workload.check(case, prepared, stats, taken)
    assert outcome.goals == stats.goals_reached >= 20
    stats.goals_reached += 1
    with pytest.raises(CheckError, match="replay counts"):
        workload.check(case, prepared, stats, taken)
    stats.goals_reached -= 1
    paths, _ = taken["windowed_solver"][-1]
    paths[0][-1] = paths[1][-1]   # robot 0 ends on robot 1's cell
    with pytest.raises(CheckError):
        workload.check(case, prepared, stats, taken)


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"]) for m in declared["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in declared["per_layer"]]
            == [(n, u) for n, u, *_ in run.PER_LAYER] + [run.TRACE_OVERHEAD])
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_a_lost_hook_leaves_its_metric_out_and_the_run_goes_on(monkeypatch):
    import spreadplan.oneshot
    monkeypatch.delattr(spreadplan.oneshot, "timed_conflicts")
    workload = WORKLOADS["spread-passes"]()
    workload.robots, workload.cases_per_round = 12, 1
    bench = run.Run(workload, seed=1)
    bench.round(traced=False)
    bench.round(traced=True)
    metrics = bench.per_layer()
    assert "metrics.conflict_scan_s" not in metrics
    assert metrics["search.cost_to_come_calls"]["value"] == 4 * 12
    assert bench.correct and bench.failed == 0


def test_a_lost_capture_stops_the_run(monkeypatch):
    import spreadplan.lifelong
    monkeypatch.delattr(spreadplan.lifelong, "windowed_solver")
    with pytest.raises(RuntimeError, match="windowed_solver"):
        run.Run(WORKLOADS["lifelong-warehouse"](), seed=1)
