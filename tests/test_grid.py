import os
import random

import pytest

from spreadplan.grid import (DistanceField, GenerationError, GridMap,
                             MapParseError, distance_field, generate_instance,
                             generate_random_grid, generate_warehouse,
                             grid_to_movingai, instance_from_json,
                             instance_to_json, largest_component_grid,
                             parse_movingai_map, parse_movingai_scen)

from helpers import eager_bfs

DEN520D_PATH = os.environ.get(
    "SPREADPLAN_DEN520D",
    os.path.join(os.path.dirname(__file__), "..", "data", "den520d.map"))


def make_map_text(rows):
    return "\n".join(
        ["type octile", f"height {len(rows)}", f"width {len(rows[0])}", "map"]
        + rows)


def test_parse_all_passable():
    grid = parse_movingai_map(make_map_text(["..", ".."]))
    assert grid.width == 2 and grid.height == 2
    assert grid.blocked == frozenset()
    assert grid.num_vertices == 4


def test_parse_single_obstacle_vertex_count():
    grid = parse_movingai_map(make_map_text([".@", ".."]))
    assert grid.blocked == frozenset({(1, 0)})
    assert grid.num_vertices == 3


def test_parse_blocked_char_variants():
    grid = parse_movingai_map(make_map_text([".@O", "TG."]))
    assert grid.blocked == frozenset({(1, 0), (2, 0), (0, 1)})


def test_parse_errors_name_the_line():
    with pytest.raises(MapParseError, match="line 1"):
        parse_movingai_map("not a map")
    with pytest.raises(MapParseError, match="line 6"):
        parse_movingai_map(make_map_text(["...", ".."]))
    with pytest.raises(MapParseError, match="line 6"):
        parse_movingai_map(make_map_text(["..", ".x"]))
    with pytest.raises(MapParseError):
        parse_movingai_map("type octile\nheight x\nwidth 2\nmap\n..\n..")


@pytest.mark.skipif(not os.path.exists(DEN520D_PATH),
                    reason="den520d.map benchmark file not present")
def test_parse_den520d_dimensions():
    with open(DEN520D_PATH, encoding="utf-8") as fh:
        grid = parse_movingai_map(fh.read())
    assert grid.width == 257
    assert grid.height == 256
    assert grid.num_vertices == 28178


def test_serialize_roundtrip():
    rng = random.Random(5)
    for seed in range(5):
        grid = generate_random_grid(rng.randint(3, 12), rng.randint(3, 12),
                                    0.1, seed)
        assert parse_movingai_map(grid_to_movingai(grid)) == grid


def test_parse_scen():
    text = ("version 1\n"
            "0\tmaps/x.map\t64\t64\t1\t2\t3\t4\t4.5\n"
            "1\tmaps/x.map\t64\t64\t5\t6\t7\t8\t4\n")
    entries = parse_movingai_scen(text)
    assert len(entries) == 2
    assert entries[0].start == (1, 2)
    assert entries[0].goal == (3, 4)
    assert entries[0].optimal_length == 4.5
    assert entries[1].bucket == 1


def test_parse_scen_malformed():
    with pytest.raises(MapParseError, match="line 1"):
        parse_movingai_scen("0\tonly\tfour\tcols\n")


def test_random_grid_obstacle_counts():
    assert len(generate_random_grid(30, 20, 0.10, 7).blocked) == 60
    assert len(generate_random_grid(20, 10, 0.05, 7).blocked) == 10
    assert generate_random_grid(4, 4, 0.0, 7).blocked == frozenset()


def test_random_grid_connected_and_deterministic():
    a = generate_random_grid(30, 20, 0.10, seed=123)
    b = generate_random_grid(30, 20, 0.10, seed=123)
    assert a == b
    assert a.is_connected()
    assert generate_random_grid(30, 20, 0.10, seed=124) != a


def test_random_grid_ratio_out_of_range():
    with pytest.raises(ValueError):
        generate_random_grid(5, 5, 1.0, 0)
    with pytest.raises(ValueError):
        generate_random_grid(5, 5, -0.1, 0)


def test_warehouse_geometry():
    grid = generate_warehouse(37, 20, (5, 2), 1)
    assert grid.width == 37 and grid.height == 20
    assert grid.is_connected()
    # boundary ring stays passable
    assert all((x, 0) not in grid.blocked for x in range(37))
    assert all((0, y) not in grid.blocked for y in range(20))
    assert len(grid.blocked) == 360


def test_warehouse_single_cell_shelves_connected():
    grid = generate_warehouse(7, 5, (1, 1), 1)
    assert grid.is_connected()
    assert (1, 1) in grid.blocked and (3, 1) in grid.blocked


def test_warehouse_infeasible_geometry():
    with pytest.raises(GenerationError):
        generate_warehouse(37, 20, (5, 2), 0)
    with pytest.raises(GenerationError):
        generate_warehouse(6, 6, (10, 2), 1)


def test_distance_field_empty_grid_corner():
    grid = GridMap(3, 3)
    field = distance_field(grid, (0, 0))
    assert field[(2, 2)] == 4
    assert field[(0, 0)] == 0


def test_distance_field_unreachable_cell():
    grid = GridMap(3, 1, frozenset({(1, 0)}))
    field = distance_field(grid, (0, 0))
    assert (2, 0) not in field


def test_distance_field_blocked_goal():
    grid = GridMap(3, 3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        distance_field(grid, (1, 1))


def test_distance_field_bellman_property():
    for seed in range(5):
        grid = generate_random_grid(10, 8, 0.15, seed)
        goal = next(grid.vertices())
        field = distance_field(grid, goal)
        for v in grid.vertices():
            if v == goal:
                continue
            if v in field:
                assert field[v] == 1 + min(field[n] for n in grid.neighbors(v)
                                           if n in field)


def test_lazy_field_matches_eager_bfs_in_any_read_order():
    rng = random.Random(11)
    for _ in range(30):
        width, height = rng.randint(1, 12), rng.randint(1, 12)
        cells = [(x, y) for y in range(height) for x in range(width)]
        blocked = frozenset(c for c in cells[1:] if rng.random() < 0.3)
        grid = GridMap(width, height, blocked)  # often several components
        goal = rng.choice(list(grid.vertices()))
        expected = eager_bfs(grid, goal)
        field = distance_field(grid, goal)
        probes = [(x, y) for y in range(-1, height + 1)
                  for x in range(-1, width + 1)]  # blocked and off-map too
        rng.shuffle(probes)
        for cell in probes:
            want = expected.get(cell)
            read = rng.randrange(3)
            if read == 0:
                assert (cell in field) == (want is not None)
            elif read == 1 and want is None:
                with pytest.raises(KeyError):
                    field[cell]
            elif read == 1:
                assert field[cell] == want
            else:
                assert field.get(cell, -1) == (-1 if want is None else want)
        assert field.dist == expected


def test_lazy_field_labels_only_what_a_lookup_needs():
    grid = GridMap(200, 200, frozenset({(100, 101)}))
    field = distance_field(grid, (100, 100))
    assert (100, 101) not in field        # blocked
    assert field.get((-1, 100)) is None   # off the map
    assert len(field.dist) == 1           # neither miss grew the field
    assert field[(101, 102)] == 3
    within_3 = {(100 + dx, 100 + dy) for dx in range(-3, 4)
                for dy in range(-3, 4) if abs(dx) + abs(dy) <= 3}
    assert len(within_3) == 25
    assert set(field.dist) <= within_3


def test_distance_field_from_complete_dict():
    field = DistanceField((0, 0), {(0, 0): 0, (1, 0): 1})
    assert field[(1, 0)] == 1 and (1, 0) in field
    assert (2, 0) not in field and field.get((2, 0), 7) == 7
    with pytest.raises(KeyError):
        field[(2, 0)]


def test_adjacency_lists_passable_neighbours_in_step_order():
    grid = generate_random_grid(9, 7, 0.2, 3)
    assert set(grid.adjacency) == set(grid.vertices())
    for v, nbrs in grid.adjacency.items():
        assert list(nbrs) == grid.neighbors(v)


def test_largest_component_grid():
    grid = GridMap(5, 1, frozenset({(2, 0)}))  # two components of sizes 2, 2
    lcc = largest_component_grid(grid)
    assert lcc.num_vertices == 2
    assert lcc.is_connected()


def test_generate_instance_basic():
    grid = GridMap(4, 4)
    robots = generate_instance(grid, 1, seed=0)
    (s, gs), = robots
    assert s != gs[0]


def test_generate_instance_all_vertices_as_starts():
    grid = GridMap(3, 3)
    robots = generate_instance(grid, 9, seed=1)
    assert sorted(s for s, _ in robots) == sorted(grid.vertices())


def test_generate_instance_hundred_robots():
    grid = generate_random_grid(20, 10, 0.05, seed=2)
    robots = generate_instance(grid, 100, seed=3)
    starts = [s for s, _ in robots]
    goals = [gs[0] for _, gs in robots]
    assert len(set(starts)) == 100
    assert len(set(goals)) == 100
    assert all(grid.passable(c) for c in starts + goals)


def test_generate_instance_deterministic_and_too_large():
    grid = GridMap(4, 4)
    assert generate_instance(grid, 5, seed=9) == generate_instance(grid, 5, seed=9)
    with pytest.raises(ValueError):
        generate_instance(grid, 17, seed=0)


def test_generate_instance_goal_chains():
    grid = GridMap(5, 5)
    robots = generate_instance(grid, 3, seed=4, goals_per_robot=4)
    for s, gs in robots:
        assert len(gs) == 4
        chain = [s] + gs
        for a, b in zip(chain, chain[1:]):
            assert a != b  # no zero-length legs


def test_instance_json_roundtrip_inline_map():
    grid = generate_random_grid(8, 6, 0.1, seed=5)
    robots = generate_instance(grid, 4, seed=6, goals_per_robot=2)
    text = instance_to_json(grid, robots, seed=6)
    grid2, robots2, seed = instance_from_json(text)
    assert grid2 == grid
    assert robots2 == robots
    assert seed == 6


def test_instance_json_map_path(tmp_path):
    grid = generate_random_grid(8, 6, 0.1, seed=5)
    map_file = tmp_path / "m.map"
    map_file.write_text(grid_to_movingai(grid), encoding="utf-8")
    robots = generate_instance(grid, 2, seed=1)
    text = instance_to_json(grid, robots, map_path=str(map_file))
    grid2, robots2, _ = instance_from_json(text)
    assert grid2 == grid and robots2 == robots
