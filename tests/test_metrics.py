import random

from helpers import build_prior_paths, pairwise_conflicts, random_walks
from spreadplan import metrics
from spreadplan.grid import generate_random_grid
from spreadplan.oneshot import validate_solution
from spreadplan.usage import UsageParams, UsageTable


def test_path_length_strips_trailing_rest():
    assert metrics.path_length([(0, 0)]) == 0
    assert metrics.path_length([(0, 0), (1, 0), (1, 0), (1, 0)]) == 1
    assert metrics.path_length([(0, 0), (0, 0), (1, 0)]) == 2


def test_makespan_and_sum_of_cost():
    paths = [[(0, 0), (1, 0), (2, 0), (3, 0)],
             [(5, 5), (5, 6), (5, 7), (5, 8), (5, 9), (6, 9)]]
    assert metrics.makespan(paths) == 5
    assert metrics.sum_of_cost(paths) == 8


def test_throughput():
    assert metrics.throughput(0, 100) == 0.0
    assert metrics.throughput(10000, 2000) == 5.0
    assert metrics.throughput(3, 0) == 0.0


def test_peak_vertex_overlap_interior_only():
    table = UsageTable.build([[(0, 0), (1, 0)], [(0, 0), (0, 1)],
                              [(0, 0), (1, 0), (2, 0)]],
                             UsageParams(num_robots=4))
    # conflicts sit on the path's first cell only, which never counts
    path = [(0, 0), (0, 1), (0, 2)]
    assert metrics.peak_vertex_overlap(path, table) == 1  # interior (0,1)
    assert metrics.peak_vertex_overlap([(9, 9), (9, 8)], table) == 0
    three_users = [(5, 5), (0, 0), (5, 6)]
    table2 = UsageTable.build([[(0, 0)], [(0, 0)], [(0, 0)]],
                              UsageParams(num_robots=4))
    assert metrics.peak_vertex_overlap(three_users, table2) == 3


def test_peak_vertex_overlap_empty_table():
    table = UsageTable.build([], UsageParams())
    assert metrics.peak_vertex_overlap([(0, 0), (1, 0), (2, 0)], table) == 0


def test_peak_vertex_overlap_temporal_reads_each_step():
    # (1, 0) is held at step 3, which a forward window of 1 stretches to 4
    table = UsageTable.build([[(3, 0), (2, 0), (1, 1), (1, 0)]],
                             UsageParams(window_after=1, temporal=True,
                                         num_robots=2))
    assert metrics.peak_vertex_overlap([(0, 0), (1, 0), (2, 0)], table) == 0
    late = [(0, 0), (0, 0), (0, 0), (0, 0), (1, 0), (2, 0)]
    assert metrics.peak_vertex_overlap(late, table) == 1
    assert metrics.peak_vertex_overlap(late + [(2, 0)], table) == 1
    assert metrics.peak_vertex_overlap([(0, 0)] * 5 + [(1, 0), (2, 0)],
                                       table) == 0


def test_max_vertex_overlap_counts_images():
    assert metrics.max_vertex_overlap([]) == 0
    assert metrics.max_vertex_overlap([[(0, 0), (1, 0)], [(5, 5), (5, 6)]]) == 1
    shared = [[(0, 0), (1, 0)], [(2, 0), (1, 0)], [(1, 1), (1, 0)]]
    assert metrics.max_vertex_overlap(shared) == 3
    # waiting does not double-count the cell
    assert metrics.max_vertex_overlap([[(0, 0), (0, 0), (0, 0)]]) == 1


def test_pairwise_overlap_and_total():
    a = [(0, 0), (1, 0), (2, 0)]
    b = [(0, 1), (1, 1), (2, 1)]
    assert metrics.pairwise_overlap(a, [b]) == 0
    assert metrics.total_pairwise_overlap([a, b]) == 0
    identical = [a, list(a)]
    assert metrics.pairwise_overlap(a, [list(a)]) == 3
    assert metrics.total_pairwise_overlap(identical) == 6


def test_total_pairwise_overlap_is_even():
    rng = random.Random(3)
    grid = generate_random_grid(8, 8, 0.1, 1)
    for _ in range(10):
        paths = build_prior_paths(grid, rng, rng.randint(2, 6))
        total = metrics.total_pairwise_overlap(paths)
        assert total % 2 == 0
        images = [set(p) for p in paths]
        assert total == sum(len(a & b) for i, a in enumerate(images)
                            for j, b in enumerate(images) if i != j)
        assert metrics.pairwise_overlap(paths[0], paths[1:]) == sum(
            len(images[0] & b) for b in images[1:])


def test_timed_conflicts_counts():
    a = [(0, 0), (1, 0), (2, 0)]
    b = [(2, 0), (1, 0), (0, 0)]  # swaps with a at t=1 between (1,0)/(0,0)? no:
    # a: (0,0)->(1,0) while b: (2,0)->(1,0): vertex conflict at t=1 at (1,0)
    v, s = metrics.timed_conflicts([a, b])
    assert (v, s) == (1, 0)
    c = [(0, 0), (1, 0)]
    d = [(1, 0), (0, 0)]
    v, s = metrics.timed_conflicts([c, d])
    assert (v, s) == (0, 1)
    assert metrics.timed_conflicts([a]) == (0, 0)


def test_timed_conflicts_pads_rests():
    a = [(0, 0), (1, 0)]          # rests at (1,0) from t=1 on
    b = [(3, 0), (2, 0), (1, 0)]  # arrives at (1,0) at t=2
    v, s = metrics.timed_conflicts([a, b])
    assert v >= 1


def test_timed_conflicts_follow_is_not_a_swap():
    lead = [(0, 0), (1, 0), (2, 0), (3, 0)]
    follow = [(9, 9), (0, 0), (1, 0), (2, 0)]
    assert metrics.timed_conflicts([lead, follow]) == (0, 0)
    assert validate_solution([lead, follow]) == []


def test_hashed_scan_matches_pairwise_reference():
    rng = random.Random(2024)
    seen = {"vertex": 0, "swap": 0, "at rest": 0}
    for _ in range(300):
        paths = random_walks(rng, rng.randint(2, 7))
        expected = pairwise_conflicts(paths)
        assert validate_solution(paths) == expected
        counts = (sum(c.kind == "vertex" for c in expected),
                  sum(c.kind == "swap" for c in expected))
        assert metrics.timed_conflicts(paths) == counts
        seen["vertex"] += counts[0]
        seen["swap"] += counts[1]
        seen["at rest"] += sum(any(c.time >= len(paths[r]) for r in c.robots)
                               for c in expected)
    assert min(seen.values()) > 0


def test_max_edge_headon():
    right = [(0, 0), (1, 0), (2, 0)]
    left = [(2, 0), (1, 0), (0, 0)]
    assert metrics.max_edge_headon([right, left]) == 1
    assert metrics.max_edge_headon([right, right]) == 0
    assert metrics.max_edge_headon([right, left, list(left)]) == 2


def test_timed_variants():
    right = [(0, 0), (1, 0), (2, 0)]
    left = [(2, 0), (1, 0), (0, 0)]
    assert metrics.max_vertex_overlap_timed([right, left]) == 2  # both at (1,0) t=1
    assert metrics.max_edge_headon_timed([right, left]) == 0  # crossing, no swap
    swap = [[(0, 0), (1, 0)], [(1, 0), (0, 0)]]
    assert metrics.max_edge_headon_timed(swap) == 1


def test_peak_bounded_by_global_overlap():
    rng = random.Random(5)
    grid = generate_random_grid(8, 8, 0.1, 2)
    for _ in range(10):
        paths = build_prior_paths(grid, rng, rng.randint(2, 6))
        global_max = metrics.max_vertex_overlap(paths)
        for i, p in enumerate(paths):
            others = paths[:i] + paths[i + 1:]
            table = UsageTable.build(others, UsageParams(num_robots=len(paths)))
            assert metrics.peak_vertex_overlap(p, table) <= global_max


def test_normalize_series():
    assert metrics.normalize_series([4.0, 2.0, 1.0]) == [1.0, 0.5, 0.25]
    assert metrics.normalize_series([0.0, 3.0]) == [0.0, 0.0]
    assert metrics.normalize_series([]) == []
