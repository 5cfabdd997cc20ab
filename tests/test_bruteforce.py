import pytest

from helpers import reference_table
from oracle import (PathEnumeration, TooManyPathsError,
                    enumerate_shortest_paths, min_objective)
from spreadplan.grid import GridMap
from spreadplan.usage import UsageParams


def test_enumerate_2x2_corner_to_corner():
    enum = enumerate_shortest_paths(GridMap(2, 2), (0, 0), (1, 1))
    assert len(enum.paths) == 2
    assert all(len(p) == 3 for p in enum.paths)


def test_enumerate_3x3_corner_to_corner():
    enum = enumerate_shortest_paths(GridMap(3, 3), (0, 0), (2, 2))
    assert len(enum.paths) == 6
    assert len({tuple(p) for p in enum.paths}) == 6


def test_enumerate_corridor_single_path():
    grid = GridMap(4, 1)
    enum = enumerate_shortest_paths(grid, (0, 0), (3, 0))
    assert enum.paths == [[(0, 0), (1, 0), (2, 0), (3, 0)]]


def test_enumerate_cap_exceeded():
    with pytest.raises(TooManyPathsError):
        enumerate_shortest_paths(GridMap(5, 5), (0, 0), (4, 4), cap=10)


def test_enumerate_unreachable():
    grid = GridMap(3, 1, frozenset({(1, 0)}))
    with pytest.raises(ValueError):
        enumerate_shortest_paths(grid, (0, 0), (2, 0))


def test_min_objective_empty_table():
    enum = enumerate_shortest_paths(GridMap(3, 3), (0, 0), (2, 2))
    table = reference_table([], UsageParams())
    assert min_objective(enum, table, "peak")[0] == 0
    assert min_objective(enum, table, "total")[0] == 0


def test_min_objective_loaded_diagonal():
    # load the diagonal of a 3x3 grid; the two paths hugging the border skip
    # the loaded center, so best interior peak is 0 (hand-checked over all 6)
    grid = GridMap(3, 3)
    table = reference_table([[(0, 0)], [(1, 1)], [(2, 2)]],
                            UsageParams(num_robots=4))
    enum = enumerate_shortest_paths(grid, (0, 0), (2, 2))
    peak, witness = min_objective(enum, table, "peak")
    assert peak == 0
    assert witness[0] == (0, 0) and witness[-1] == (2, 2)
    assert (1, 1) not in witness
    # endpoints always carry their own load but the center stays avoidable
    total, _ = min_objective(enum, table, "total")
    assert total == 2


def test_min_objective_single_path():
    grid = GridMap(4, 1)
    enum = enumerate_shortest_paths(grid, (0, 0), (3, 0))
    table = reference_table([[(1, 0)], [(1, 0)]], UsageParams(num_robots=3))
    value, witness = min_objective(enum, table, "peak")
    assert value == 2
    assert witness == enum.paths[0]


def test_min_objective_unknown():
    enum = PathEnumeration((0, 0), (0, 0), [[(0, 0)]])
    table = reference_table([], UsageParams())
    with pytest.raises(ValueError):
        min_objective(enum, table, "nope")


def test_min_objective_total_rejects_temporal_table():
    # a temporal table counts claims per step, so a summed count over the
    # path image has no step to read at
    enum = enumerate_shortest_paths(GridMap(3, 3), (0, 0), (2, 2))
    table = reference_table([[(1, 1), (1, 1)]],
                            UsageParams(window_after=2, temporal=True))
    assert min_objective(enum, table, "peak")[0] == 0
    with pytest.raises(ValueError, match="aggregate"):
        min_objective(enum, table, "total")
