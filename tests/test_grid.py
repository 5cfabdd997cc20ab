import os
import random
import re

import pytest

from spreadplan.grid import (BLOCKED, FREE, NEIGHBOR_STEPS, FieldCache,
                             GenerationError, GridMap, MapParseError,
                             distance_field, generate_instance,
                             generate_random_grid, generate_warehouse,
                             grid_to_movingai, instance_from_json,
                             instance_to_json, largest_component_grid,
                             parse_movingai_map)

from helpers import (eager_bfs, labelled, neighbors, reference_components,
                     reference_lines, reference_one_goal_instance,
                     reference_parse_rows)

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


def test_parse_header_reads_its_keywords():
    rows = "\nmap\n...\n...\n"
    assert parse_movingai_map("type octile\nheight 2\nwidth 3" + rows) == GridMap(3, 2)
    for header, line in [("width 3\nheight 2", 2),    # swapped: not read as 3x2
                         ("height 0\nwidth 3", 2),
                         ("height 2\nwidth -3", 3),
                         ("height 2\nwidth 3.0", 3),
                         ("height 2\nwdth 3", 3),
                         ("height 2\nwidth", 3),
                         ("height 2 3\nwidth 3", 2)]:
        with pytest.raises(MapParseError, match=f"^line {line}: "):
            parse_movingai_map("type octile\n" + header + rows)


def test_parse_matches_per_character_reference():
    rng = random.Random(18)
    failures = 0
    for case in range(300):
        width, height = rng.randint(1, 12), rng.randint(1, 12)
        rows = ["".join(rng.choice(".G@OT") for _ in range(width))
                for _ in range(height)]
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            # a stray character, or a row of the wrong length
            y = rng.randrange(height)
            row = list(rows[y])
            if rng.random() < 0.7:
                row[rng.randrange(len(row))] = rng.choice("xg# \t*")
            else:
                row.append(rng.choice(".@"))
            rows[y] = "".join(row)
        end = rng.choice(("\n", "\r\n"))
        text = end.join(["type octile", f"height {height}", f"width {width}",
                         "map"] + rows) + rng.choice(("", end))
        try:
            want = reference_parse_rows(text)
        except MapParseError as exc:
            failures += 1
            with pytest.raises(MapParseError) as got:
                parse_movingai_map(text)
            assert str(got.value) == str(exc)
        else:
            assert parse_movingai_map(text) == want
    assert 60 <= failures < 200


def test_parse_breaks_lines_only_at_line_ends():
    # str.splitlines would end the row at the file separator: a valid 1x2 map
    with pytest.raises(MapParseError, match="^line 6: expected 2 map rows$"):
        parse_movingai_map("type octile\nheight 2\nwidth 1\nmap\n.\x1c.\n")
    for ch in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        for end in ("\n", "\r\n", "\r"):
            text = end.join(["type octile", "height 1", "width 3", "map",
                             f".{ch}."]) + end
            with pytest.raises(MapParseError) as got:
                parse_movingai_map(text)
            assert str(got.value) == f"line 5: unknown cell character {ch!r}"
    # lines may end with \r alone, as in old Mac files
    assert parse_movingai_map("type octile\rheight 2\rwidth 2\rmap\r.@\r..") \
        == GridMap(2, 2, frozenset({(1, 0)}))
    # an empty last line is no line: the header is still the short one
    for text in ("", "\n", "type octile\n", "type octile\nheight 2\nwidth 1\n"):
        with pytest.raises(MapParseError, match="^line 1: truncated header$"):
            parse_movingai_map(text)
    with pytest.raises(MapParseError, match="^line 6: expected 2 map rows$"):
        parse_movingai_map("type octile\nheight 2\nwidth 1\nmap\n.\n")


def test_parse_line_ends_match_per_character_reference():
    rng = random.Random(20)
    failures = 0
    for case in range(300):
        width, height = rng.randint(1, 8), rng.randint(1, 8)
        rows = ["".join(rng.choice(".@") for _ in range(width))
                for _ in range(height)]
        if rng.random() < 0.5:
            # a character where str.splitlines, not the parser, ends a line
            y, x = rng.randrange(height), rng.randrange(width)
            stray = rng.choice("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
            rows[y] = rows[y][:x] + stray + rows[y][x + 1:]
        ends = [rng.choice(("\n", "\r\n", "\r")) for _ in range(height + 4)]
        lines = ["type octile", f"height {height}", f"width {width}",
                 "map"] + rows
        text = "".join(line + end for line, end in zip(lines, ends))
        if rng.random() < 0.5:
            text = text[:-len(ends[-1])]
        assert reference_lines(text) == lines
        try:
            want = reference_parse_rows(text)
        except MapParseError as exc:
            failures += 1
            with pytest.raises(MapParseError) as got:
                parse_movingai_map(text)
            assert str(got.value) == str(exc)
            assert re.match(r"line \d+: unknown cell character", str(exc))
        else:
            assert parse_movingai_map(text) == want
    assert 100 <= failures < 200


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
        goal = grid.passable_cells[0]
        field = distance_field(grid, goal)
        for v in grid.passable_cells:
            if v == goal:
                continue
            if v in field:
                assert field[v] == 1 + min(
                    field[n] for n in neighbors(grid, v) if n in field)


def test_lazy_field_matches_eager_bfs_in_any_read_order():
    rng = random.Random(11)
    for _ in range(30):
        width, height = rng.randint(1, 12), rng.randint(1, 12)
        cells = [(x, y) for y in range(height) for x in range(width)]
        blocked = frozenset(c for c in cells[1:] if rng.random() < 0.3)
        grid = GridMap(width, height, blocked)  # often several components
        goal = rng.choice(list(grid.passable_cells))
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
        assert labelled(field) == expected
        assert len(field) == len(expected)


def test_lazy_field_labels_only_what_a_lookup_needs():
    grid = GridMap(200, 200, frozenset({(100, 101)}))
    field = distance_field(grid, (100, 100))
    assert (100, 101) not in field        # blocked
    assert field.get((-1, 100)) is None   # off the map
    assert len(field) == 1                # neither miss grew the field
    assert field[(101, 102)] == 3
    within_3 = {(100 + dx, 100 + dy) for dx in range(-3, 4)
                for dy in range(-3, 4) if abs(dx) + abs(dy) <= 3}
    assert len(within_3) == 25
    cells = labelled(field)
    assert set(cells) <= within_3
    assert len(field) == len(cells)


def shortest_path_cells(expected, cell):
    """Every cell on a shortest path from `cell` to the goal of `expected`."""
    seen, todo = {cell}, [cell]
    while todo:
        x, y = todo.pop()
        for dx, dy in NEIGHBOR_STEPS:
            n = (x + dx, y + dy)
            if n not in seen and expected.get(n) == expected[(x, y)] - 1:
                seen.add(n)
                todo.append(n)
    return seen


def random_field_map(rng):
    """A random map: a row, a column or a rectangle, 0-45% blocked, some
    split by a wall with at most one gap."""
    shape = rng.randrange(4)
    width = 1 if shape == 0 else rng.randint(1, 24)
    height = 1 if shape == 1 else rng.randint(1, 24)
    cells = [(x, y) for y in range(height) for x in range(width)]
    ratio = rng.uniform(0.0, 0.45)
    blocked = {c for c in cells if rng.random() < ratio}
    if shape == 3 and width > 2:
        wall = rng.randrange(1, width - 1)
        gaps = rng.sample(range(height), min(height, rng.randrange(2)))
        blocked |= {(wall, y) for y in range(height) if y not in gaps}
    blocked.discard(cells[0])
    return GridMap(width, height, frozenset(blocked))


def test_lazy_field_labels_exact_and_shortest_paths_complete():
    rng = random.Random(2021)
    for _ in range(300):
        grid = random_field_map(rng)
        goal = rng.choice(list(grid.passable_cells))
        expected = eager_bfs(grid, goal)
        field = distance_field(grid, goal)
        probes = [(x, y) for y in range(-1, grid.height + 1)
                  for x in range(-1, grid.width + 1)]
        rng.shuffle(probes)
        for cell in probes[:rng.randint(1, len(probes))]:
            want = expected.get(cell)
            read = rng.randrange(4)
            if read == 0:
                got = field.at(grid.cell_id(cell))
            elif read == 1:
                got = field.get(cell)
            elif read == 2:
                assert (cell in field) == (want is not None)
                got = want
            elif want is None:
                with pytest.raises(KeyError):
                    field[cell]
                got = None
            else:
                got = field[cell]
            assert got == want
            for c, d in labelled(field).items():
                assert expected[c] == d
            if want is not None:
                for c in shortest_path_cells(expected, cell):
                    assert field.labels[grid.cell_id(c)] == expected[c]
        assert len(field) == len(labelled(field))


@pytest.mark.parametrize("asked, want", [((34, 22), 8),    # nearer the goal
                                          ((24, 20), 16)])  # behind the goal
def test_lazy_field_goes_breadth_first_off_the_cone(asked, want):
    grid = GridMap(80, 40, frozenset((x, 30) for x in range(10, 80)))
    goal = (40, 20)
    expected = eager_bfs(grid, goal)
    field = distance_field(grid, goal)
    assert field[(52, 20)] == 12                   # the aim
    cone = len(field)
    assert field[asked] == want
    # breadth-first from there: every cell nearer than want - 1 is
    # labelled, and little more; aimed at (52, 20), (24, 20) has f = 44
    # and would label 808 cells
    assert all(field.labels[grid.cell_id(c)] == d
               for c, d in expected.items() if d < want - 1)
    assert len(field) <= cone + sum(d <= want + 1 for d in expected.values())
    assert labelled(field) == {c: expected[c] for c in labelled(field)}
    assert field[(79, 39)] == expected[(79, 39)]   # round the wall
    assert all(field[c] == d for c, d in expected.items())
    assert len(field) == len(expected)


def test_lazy_field_labels_the_cone_toward_the_cell_asked_about():
    grid = GridMap(200, 200)
    field = distance_field(grid, (20, 100))
    assert field[(170, 100)] == 150
    assert len(field) <= 1000   # a whole BFS disc to level 150 holds 24,200


def test_field_cache_evicts_least_recently_used(monkeypatch):
    import spreadplan.grid as grid_module
    grid = GridMap(6, 4)
    built = []

    def build(g, goal):
        built.append(goal)
        return distance_field(g, goal)

    field_bytes = FieldCache(grid).field_bytes
    monkeypatch.setattr(grid_module, "FIELD_CACHE_BYTES", 2 * field_bytes + 1)
    cache = FieldCache(grid, build)
    assert cache.max_bytes == 2 * field_bytes + 1
    a, b, c = (0, 0), (5, 3), (2, 1)
    assert cache.dist((1, 0), a) == 1
    cache(b)
    assert cache(a) is cache(a)           # a hit makes a the most recent
    cache(c)                              # evicts b, the least recent
    assert cache.evictions == 1 and cache.nbytes == 2 * field_bytes
    cache(a)
    assert built == [a, b, c]
    assert cache.dist((5, 2), b) == 1     # b is built again, and c evicted
    assert built == [a, b, c, b] and cache.evictions == 2
    monkeypatch.setattr(grid_module, "FIELD_CACHE_BYTES", field_bytes - 1)
    tiny = FieldCache(grid, build)        # no field fits: each use builds one
    assert tiny(a)[(2, 0)] == 2 and tiny(a) is not tiny(a)
    assert tiny.nbytes == 0 and tiny.evictions == 0


def _id_test_maps():
    """Random maps of every thin shape, obstacles included."""
    rng = random.Random(5)
    shapes = [(1, 1), (1, 7), (7, 1), (2, 1), (1, 2), (9, 7)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(20)]
    for width, height in shapes:
        cells = [(x, y) for y in range(height) for x in range(width)]
        yield GridMap(width, height,
                      frozenset(c for c in cells if rng.random() < 0.25))


def test_cell_ids_round_trip_and_template_marks_passable_cells():
    for grid in _id_test_maps():
        stride = grid.width + 2
        assert grid.stride == stride
        assert len(grid.template) == len(grid.cell_at) == stride * (grid.height + 2)
        ids = set()
        for y in range(grid.height):
            for x in range(grid.width):
                v = grid.cell_id((x, y))
                assert v == (y + 1) * stride + (x + 1)
                assert grid.cell_at[v] == (x, y)
                want = FREE if grid.passable((x, y)) else BLOCKED
                assert grid.template[v] == want
                ids.add(v)
        border = set(range(len(grid.template))) - ids
        assert len(border) == 2 * stride + 2 * grid.height
        for v in border:
            assert grid.template[v] == BLOCKED
            assert not grid.in_bounds(grid.cell_at[v])
        free = sorted(set(ids) - {grid.cell_id(c) for c in grid.blocked})
        assert grid.passable_mask == sum(1 << v for v in free)
        assert grid.passable_cells == tuple(grid.cell_at[v] for v in free)


def test_id_steps_match_neighbors_in_step_order():
    for grid in _id_test_maps():
        stride = grid.stride
        steps = [dx + dy * stride for dx, dy in NEIGHBOR_STEPS]
        assert steps == [1, -1, stride, -stride]
        for cell in grid.passable_cells:  # cells on the map's edge included
            v = grid.cell_id(cell)
            by_id = [grid.cell_at[u] for u in (v + 1, v - 1, v + stride, v - stride)
                     if grid.template[u] != BLOCKED]
            assert by_id == neighbors(grid, cell)


def test_largest_component_grid():
    grid = GridMap(5, 1, frozenset({(2, 0)}))  # two components of sizes 2, 2
    lcc = largest_component_grid(grid)
    assert lcc.num_vertices == 2
    assert lcc.is_connected()

    # of equal largest components, the first in row-major order is kept
    def kept(width, height, blocked):
        lcc = largest_component_grid(GridMap(width, height, frozenset(blocked)))
        return set(lcc.passable_cells)

    assert kept(5, 1, {(2, 0)}) == {(0, 0), (1, 0)}
    assert kept(3, 3, {(1, 0), (1, 1), (1, 2)}) == {(0, 0), (0, 1), (0, 2)}
    assert kept(3, 3, {(0, 1), (1, 1), (2, 1)}) == {(0, 0), (1, 0), (2, 0)}
    # three equal pairs: the first by its first cell, not by its last
    assert kept(4, 3, {(1, 0), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2)}) == {
        (0, 0), (0, 1)}
    # a later, larger component wins over an earlier one
    assert kept(4, 2, {(1, 0), (1, 1)}) == {(2, 0), (3, 0), (2, 1), (3, 1)}


def test_components_match_reference_flood():
    rng = random.Random(180)
    ties = several = 0
    for case in range(200):
        if case % 5 == 0:
            width, height = 1, rng.randint(1, 30)
        elif case % 5 == 1:
            width, height = rng.randint(1, 30), 1
        else:
            width, height = rng.randint(2, 20), rng.randint(2, 20)
        ratio = rng.uniform(0.20, 0.45)
        cells = [(x, y) for y in range(height) for x in range(width)]
        grid = GridMap(width, height,
                       frozenset(c for c in cells if rng.random() < ratio))
        components = reference_components(grid)
        sizes = [len(c) for c in components]
        keep = components[sizes.index(max(sizes))] if sizes else set()
        ties += sizes.count(max(sizes, default=0)) > 1
        several += len(components) > 3
        lcc = largest_component_grid(grid)
        assert lcc.blocked == frozenset(cells) - keep
        assert grid.is_connected() == (len(components) <= 1)
        assert lcc.is_connected()
    assert ties >= 10 and several >= 80
    walled = GridMap(3, 2, frozenset((x, y) for x in range(3) for y in range(2)))
    assert walled.passable_mask == 0 and walled.passable_cells == ()
    assert largest_component_grid(walled) == walled
    assert walled.is_connected()


def test_generate_instance_basic():
    grid = GridMap(4, 4)
    robots = generate_instance(grid, 1, seed=0)
    (s, gs), = robots
    assert s != gs[0]


def test_generate_instance_all_vertices_as_starts():
    grid = GridMap(3, 3)
    robots = generate_instance(grid, 9, seed=1)
    assert sorted(s for s, _ in robots) == sorted(grid.passable_cells)


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


def test_generate_instance_matches_pool_reference():
    rng = random.Random(17)
    forced = 0
    for case in range(60):
        w, h = rng.randint(1, 9), rng.randint(1, 9)
        grid = generate_random_grid(w, h, rng.choice([0.0, 0.2]),
                                    seed=rng.randrange(1 << 20))
        n = rng.randint(1, grid.num_vertices)
        if case % 3 == 0:
            n = grid.num_vertices  # the last robot may find only its start free
        seed = rng.randrange(1 << 30)
        robots = generate_instance(grid, n, seed)
        assert robots == reference_one_goal_instance(grid, n, seed)
        forced += any(s == gs[0] for s, gs in robots)
    assert forced  # the branch where only the start is free ran
    one = GridMap(1, 1)
    assert generate_instance(one, 1, 5) == [((0, 0), [(0, 0)])]
    assert generate_instance(one, 1, 5) == reference_one_goal_instance(one, 1, 5)


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
