"""Grid maps, map file parsing, procedural generators, and BFS distance fields.

Cells are (x, y) tuples, indexed row-major from the top-left, so (0, 0) is the
upper-left corner and y grows downward.  A map is a 4-connected grid with a set
of blocked cells.  Every public function takes and returns (x, y) cells.

Inside, the searches number cells by a padded row-major id: the map is framed
by a one-cell blocked border, so a row holds W' = width + 2 ids, cell (x, y)
has id (y + 1) * W' + (x + 1), and the 4-neighbours of id v are v + 1, v - 1,
v + W' and v - W' in `NEIGHBOR_STEPS` order.  A neighbour id is never out of
range, and the border stops a step off one edge from wrapping to another row.
`GridMap.template` holds FREE at every passable id and BLOCKED at blocked and
border ids; `GridMap.passable_mask` is the same as one int, bit v set for
each passable id v; `GridMap.passable_cells` lists the passable cells in
row-major order.  All three are built on first use, not when a map is parsed.

Components are flooded bit-parallel (the bit-mask BFS of Akiba, Iwata and
Yoshida, SIGMOD 2013): a mask of ids grows by one step per round,
`(m | m << 1 | m >> 1 | m << W' | m >> W') & passable`, until it stops.
`largest_component_grid` floods components in the row-major order of their
first cell, and keeps the largest; among equal largest components it keeps
the one whose first cell comes first.  It stops once the largest found holds
at least as many cells as are left unflooded.

Distance fields grow on demand: `distance_field` labels only the goal, and
a lookup resumes a reverse A* from the goal, aimed at the first cell asked
about, until the asked cell and its shortest paths are labelled; a robot far
from its goal pays for the cone between them, not a whole BFS disc.  Labels
are exact from the moment a cell is first reached, so a field answers every
lookup as a whole-map BFS would.  A field's labels are a copy of the template,
one entry per id.  `FieldCache` keeps the fields of one map by goal, bounded
by bytes with least-recently-used eviction.
"""

from __future__ import annotations

import json
import random
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

Cell = tuple[int, int]

NEIGHBOR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# labels of an id that is not a labelled distance (see GridMap.template)
FREE = -1      # passable, not labelled yet
BLOCKED = -2   # blocked, or the border around the map

# the label bytes one FieldCache may hold: 480 fields of a 257x256 map, at
# 0.27 MB each
FIELD_CACHE_BYTES = 128 << 20

# map characters: `.` and `G` passable, `@`, `O` and `T` blocked.  With every
# known character deleted, what is left of a row is its unknown characters;
# with the blocked ones made `@`, str.find walks a row's blocked cells.
_UNKNOWN_ONLY = str.maketrans("", "", ".G@OT")
_BLOCKED_AS_AT = str.maketrans("OT", "@@")
# FREE's lowest byte to the digit 1, BLOCKED's to 0 (see GridMap.passable_mask)
_MASK_DIGITS = bytes.maketrans(bytes([FREE & 0xff, BLOCKED & 0xff]), b"10")


class MapParseError(ValueError):
    """Raised for malformed map files; message names the line."""


class GenerationError(RuntimeError):
    """Raised when a procedural generator cannot satisfy its constraints."""


@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    blocked: frozenset[Cell] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid dimensions must be positive")
        for (x, y) in self.blocked:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"blocked cell {(x, y)} out of bounds")

    @property
    def num_vertices(self) -> int:
        return self.width * self.height - len(self.blocked)

    def in_bounds(self, cell: Cell) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def passable(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.blocked

    @property
    def stride(self) -> int:
        """Ids per padded row, W': the id step from a cell to the one below."""
        return self.width + 2

    def cell_id(self, cell: Cell) -> int:
        """Padded id of an in-bounds cell (or of a border cell next to one)."""
        x, y = cell
        return (y + 1) * (self.width + 2) + x + 1

    @cached_property
    def cell_at(self) -> list[Cell]:
        """The (x, y) cell of every padded id; border ids give off-map cells."""
        return [(x, y) for y in range(-1, self.height + 1)
                for x in range(-1, self.width + 1)]

    @cached_property
    def template(self) -> array:
        """FREE at every passable cell's id, BLOCKED at every other id.

        A C int array, half the bytes of a list of ints.  Built on first use
        rather than with the map, since parsing makes maps that are never
        searched.
        """
        stride = self.width + 2
        labels = array("i", [BLOCKED]) * (stride * (self.height + 2))
        row = array("i", [FREE]) * self.width
        for first in range(stride + 1, stride * (self.height + 1), stride):
            labels[first:first + self.width] = row
        for x, y in self.blocked:
            labels[(y + 1) * stride + x + 1] = BLOCKED
        return labels

    @cached_property
    def passable_mask(self) -> int:
        """Bit v set for every passable padded id v: the template as one int.

        Each label's lowest byte (0xff for FREE, 0xfe for BLOCKED) becomes
        one binary digit, highest id first, all in C.
        """
        template = self.template
        low = 0 if sys.byteorder == "little" else template.itemsize - 1
        digits = template.tobytes()[low::template.itemsize].translate(_MASK_DIGITS)
        return int(digits[::-1], 2)

    @cached_property
    def passable_cells(self) -> tuple[Cell, ...]:
        """Every passable cell, in row-major order; one tuple per map."""
        return _cells_of(self.passable_mask, self.stride)

    def is_connected(self) -> bool:
        """True when all passable cells form a single 4-connected component."""
        passable = self.passable_mask
        return _flood(passable & -passable, passable, self.stride) == passable


def _bit_step(mask: int, allowed: int, stride: int) -> int:
    """One round of the bit-parallel BFS: the ids in `mask` and their
    4-neighbours, kept where `allowed` has a bit."""
    return (mask | mask << 1 | mask >> 1 | mask << stride
            | mask >> stride) & allowed


def _flood(mask: int, passable: int, stride: int) -> int:
    """The ids of the components that hold the ids in `mask`, as a mask."""
    while True:
        wider = _bit_step(mask, passable, stride)
        if wider == mask:
            return mask
        mask = wider


def _cells_of(mask: int, stride: int) -> tuple[Cell, ...]:
    """The (x, y) cells of the padded ids in `mask`, in row-major order."""
    digits = bin(mask)[:1:-1]  # digit v is bit v
    cells = []
    add = cells.append
    v = digits.find("1")
    while v >= 0:
        y, x = divmod(v, stride)
        add((x - 1, y - 1))
        v = digits.find("1", v + 1)
    return tuple(cells)


class DistanceField:
    """Exact shortest grid distances to a fixed goal; unreachable cells miss.

    `labels` has one entry per padded id of the map: the distance of a
    labelled cell, else the template's FREE or BLOCKED.  The field grows by
    Silver's resumable reverse A* (RRA*, "Cooperative Pathfinding", AIIDE
    2005) from the goal, aimed with the Manhattan heuristic at the first
    cell it is asked about: it expands cells in order of (f, g), g the
    distance and f = g + the Manhattan distance to the aim, and labels a
    cell when first reached, which in that order is its distance.  A move
    keeps f or adds 2, so the cells of one f (a contour) are those the
    contour before pushed away from the aim, and those it pushes toward the
    aim itself, each list in order of g.

    A lookup of id v returns once v is labelled and every cell before
    (f(v), g(v) - 1) is expanded: then every cell on a shortest path from v
    to the goal is labelled, and searches read their `labels` directly.
    Asked about a cell nearer the goal than the aim, or farther from the
    aim than the goal (in Manhattan distance), the field goes on
    breadth-first for good: the same loop, with every move counted toward
    the aim.  A blocked or off-map cell misses at once.  `len(field)` is
    the number of labelled cells.
    """

    __slots__ = ("grid", "goal", "labels", "_aim", "_f", "_g", "_cur",
                 "_near", "_far", "_expanded")

    def __init__(self, grid: GridMap, goal: Cell):
        self.grid = grid
        self.goal = goal
        v = grid.cell_id(goal)
        self.labels = grid.template[:]
        self.labels[v] = 0
        # every cell before level (_f, _g) is expanded: _near holds cells of
        # level _g, _cur the contour's others from _g on, in order of g, and
        # _far those pushed away from the aim, into contour _f + 2.  _aim is
        # the aim's padded (x, y); None before any growth, or breadth-first.
        self._aim, self._f, self._g = None, 0, 0
        self._cur, self._near, self._far = [v], [], []
        self._expanded = 0

    def __len__(self) -> int:
        return (self._expanded + len(self._cur) + len(self._near)
                + len(self._far))

    def at(self, v: int) -> int | None:
        """Distance of padded id v, growing the search if needed, or None."""
        d = self.labels[v]
        if d >= 0:  # ready once every cell before (f(v), d - 1) is expanded
            f, aim = self._f, self._aim  # breadth-first, every f is _f
            if aim is not None:
                y, x = divmod(v, self.grid.width + 2)
                f = d + abs(x - aim[0]) + abs(y - aim[1])
            if f < self._f or f == self._f and d <= self._g + 1:
                return d
        elif d == BLOCKED:
            return None
        return self._grow(v)

    def _grow(self, target: int) -> int | None:
        """Expand cells until id `target` is ready; its distance, or None."""
        labels, stride = self.labels, self.grid.width + 2
        ty, tx = divmod(target, stride)
        gx, gy = self.goal[0] + 1, self.goal[1] + 1
        aim = self._aim
        if not self._expanded:  # the first growth aims at its target
            aim = self._aim = (tx, ty)
            self._f = abs(tx - gx) + abs(ty - gy)
        elif aim is not None and not (abs(tx - gx) + abs(ty - gy)
                                      >= abs(aim[0] - gx) + abs(aim[1] - gy)
                                      >= abs(tx - aim[0]) + abs(ty - aim[1])):
            self._cur = sorted(self._near + self._cur + self._far,
                               key=labels.__getitem__)
            self._near, self._far = [], []
            aim = self._aim = None
        # a move from id v in column x is toward the aim: east if x < east,
        # west if x > west, south if v < south, north if v >= north
        if aim is None:
            east, west, south, north = stride, -1, len(labels), 0
        else:
            east = west = aim[0]
            south, north = aim[1] * stride, (aim[1] + 1) * stride
            to_aim = abs(tx - aim[0]) + abs(ty - aim[1])
        F, G, expanded = self._f, self._g, self._expanded
        cur, near, far = self._cur, self._near, self._far
        i, n = 0, len(cur)
        while True:
            gc = labels[cur[i]] if i < n else -1
            if not near:
                if gc < 0:
                    if not far:  # the goal's component is labelled
                        aim = self._aim = None
                        G = len(labels)
                        break
                    F += 2
                    cur, far, i, n = far, [], 0, len(far)
                    continue
                G = gc
            while gc == G:
                near.append(cur[i])
                i += 1
                gc = labels[cur[i]] if i < n else -1
            # expand levels G, G + 1, ... while near grows, labelling the
            # cells they reach d.  A cell labelled d opens the next level,
            # from index `end`; the cells of cur join near a level early.
            d, end = G, 0
            push, away = near.append, far.append
            for v in near:
                if labels[v] == d:
                    G, d, start, end = d, d + 1, end, len(near)
                    dt = labels[target]
                    if dt >= 0:  # `target` is ready, as in `at`
                        ft = F if aim is None else dt + to_aim
                        if ft < F or ft == F and dt <= d:
                            break
                    while gc == d:
                        push(cur[i])
                        i += 1
                        gc = labels[cur[i]] if i < n else -1
                u = v + 1  # the NEIGHBOR_STEPS, unrolled; -1 is FREE
                if labels[u] == -1:
                    labels[u] = d
                    push(u) if v % stride < east else away(u)
                u = v - 1
                if labels[u] == -1:
                    labels[u] = d
                    push(u) if v % stride > west else away(u)
                u = v + stride
                if labels[u] == -1:
                    labels[u] = d
                    push(u) if v < south else away(u)
                u = v - stride
                if labels[u] == -1:
                    labels[u] = d
                    push(u) if v >= north else away(u)
            else:
                expanded += len(near)
                near, G = [], d
                continue
            expanded += start
            near = near[start:]
            break
        del cur[:i]
        self._f, self._g, self._expanded = F, G, expanded
        self._cur, self._near, self._far = cur, near, far
        d = labels[target]
        return d if d >= 0 else None

    def __contains__(self, cell: Cell) -> bool:
        return self.get(cell) is not None

    def __getitem__(self, cell: Cell) -> int:
        d = self.get(cell)
        if d is None:
            raise KeyError(cell)
        return d

    def get(self, cell: Cell, default=None):
        if not self.grid.in_bounds(cell):
            return default
        d = self.at(self.grid.cell_id(cell))
        return default if d is None else d


class FieldCache:
    """Distance fields of one map keyed by goal; `build(grid, goal)` makes one.

    Each field is charged the bytes of its label array, the same for every
    field of a map.  When holding one more field would pass
    FIELD_CACHE_BYTES (read when the cache is made), the least recently used
    fields are dropped first; a later lookup builds them again.  Fields are
    exact, so eviction changes what is computed, never what is read.
    """

    def __init__(self, grid: GridMap, build=None):
        self.grid = grid
        self._build = build or distance_field
        self._fields: dict[Cell, DistanceField] = {}  # oldest use first
        self.field_bytes = sys.getsizeof(grid.template)
        self.max_bytes = FIELD_CACHE_BYTES
        self._capacity = self.max_bytes // self.field_bytes
        self.evictions = 0

    @property
    def nbytes(self) -> int:
        return len(self._fields) * self.field_bytes

    def __call__(self, goal: Cell) -> DistanceField:
        fields = self._fields
        f = fields.pop(goal, None)
        if f is None:
            f = self._build(self.grid, goal)
            while fields and len(fields) >= self._capacity:
                del fields[next(iter(fields))]
                self.evictions += 1
            if not self._capacity:
                return f
        fields[goal] = f
        return f

    def dist(self, a: Cell, b: Cell) -> int:
        """Shortest distance from a to b; KeyError when a cannot reach b."""
        return self(b)[a]


def parse_movingai_map(text: str) -> GridMap:
    """Parse the standard grid map format: type/height/width header then rows.

    `.` and `G` are passable; `@`, `O`, `T` are blocked; anything else is an
    error naming the offending line.  Rows are checked and scanned by C
    string calls, so Python touches only the blocked cells.
    """
    lines = _lines(text)
    if len(lines) < 4:
        raise MapParseError("line 1: truncated header")
    if not lines[0].startswith("type"):
        raise MapParseError("line 1: expected 'type' header")
    height = _header_size(lines, 2, "height")
    width = _header_size(lines, 3, "width")
    if lines[3].strip() != "map":
        raise MapParseError("line 4: expected 'map' separator")
    rows = lines[4:4 + height]
    if len(rows) < height:
        raise MapParseError(f"line {4 + len(rows) + 1}: expected {height} map rows")
    if (set(map(len, rows)) != {width}
            or "".join(rows).translate(_UNKNOWN_ONLY)):
        for y, row in enumerate(rows):  # the first bad row names the error
            if len(row) != width:
                raise MapParseError(
                    f"line {5 + y}: row length {len(row)} does not match width {width}")
            unknown = row.translate(_UNKNOWN_ONLY)
            if unknown:
                raise MapParseError(
                    f"line {5 + y}: unknown cell character {unknown[0]!r}")
    blocked = []
    add = blocked.append
    for y, row in enumerate(rows):
        if "O" in row or "T" in row:
            row = row.translate(_BLOCKED_AS_AT)
        x = row.find("@")
        while x >= 0:
            add((x, y))
            x = row.find("@", x + 1)
    return GridMap(width, height, frozenset(blocked))


def _lines(text: str) -> list[str]:
    r"""The lines of `text`, ended only by `\n`, `\r\n`, `\r` or the end of
    the text (`str.splitlines` also ends them at `\x0c`, `\x85` and more)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the text ended with a line end, or was empty
    return lines


def _header_size(lines: list[str], number: int, keyword: str) -> int:
    """The size on header line `number`, which must read `<keyword> <N>`."""
    words = lines[number - 1].split()
    if (len(words) != 2 or words[0] != keyword or not words[1].isdecimal()
            or int(words[1]) < 1):
        raise MapParseError(
            f"line {number}: expected '{keyword} <N>' with N a positive integer")
    return int(words[1])


def grid_to_movingai(grid: GridMap) -> str:
    """Serialize a GridMap back to the map file format (parse round-trips)."""
    lines = ["type octile", f"height {grid.height}", f"width {grid.width}", "map"]
    for y in range(grid.height):
        lines.append("".join(
            "@" if (x, y) in grid.blocked else "." for x in range(grid.width)))
    return "\n".join(lines) + "\n"


def generate_random_grid(width: int, height: int, obstacle_ratio: float,
                         seed: int) -> GridMap:
    """Random connected grid with floor(width*height*ratio) blocked cells.

    Deterministic per seed; retries with fresh draws from the same stream,
    up to 100 times, until the passable region is connected.
    """
    if not 0 <= obstacle_ratio < 1:
        raise ValueError("obstacle_ratio must be in [0, 1)")
    rng = random.Random(seed)
    n_blocked = int(width * height * obstacle_ratio)
    cells = [(x, y) for y in range(height) for x in range(width)]
    for _ in range(100):
        blocked = frozenset(rng.sample(cells, n_blocked))
        grid = GridMap(width, height, blocked)
        if grid.is_connected():
            return grid
    raise GenerationError(
        f"no connected {width}x{height} map at ratio {obstacle_ratio} "
        "within 100 attempts")


def generate_warehouse(width: int, height: int, shelf_block: tuple[int, int],
                       aisle: int) -> GridMap:
    """Warehouse layout: rectangular shelf blocks separated by aisles.

    A passable boundary ring is kept on all four sides.  The layout is
    deterministic.
    """
    shelf_w, shelf_h = shelf_block
    if aisle < 1:
        raise GenerationError("aisle width must be >= 1")
    if shelf_w < 1 or shelf_h < 1:
        raise GenerationError("shelf block dimensions must be >= 1")
    if shelf_w + 2 > width or shelf_h + 2 > height:
        raise GenerationError("no shelf block fits inside the boundary ring")
    blocked = set()
    x = 1
    while x + shelf_w <= width - 1:
        y = 1
        while y + shelf_h <= height - 1:
            for sx in range(x, x + shelf_w):
                for sy in range(y, y + shelf_h):
                    blocked.add((sx, sy))
            y += shelf_h + aisle
        x += shelf_w + aisle
    grid = GridMap(width, height, frozenset(blocked))
    if not grid.is_connected():
        raise GenerationError("warehouse layout is not connected")
    return grid


def largest_component_grid(grid: GridMap) -> GridMap:
    """Copy of the map with everything outside the largest component blocked.

    Large sparse random maps almost always contain small isolated pockets;
    this turns them into a usable connected planning domain.  Among equal
    largest components, the one whose first cell in row-major order comes
    first is kept.
    """
    passable, stride = grid.passable_mask, grid.stride
    best, best_size = 0, 0
    rest, rest_size = passable, passable.bit_count()
    # the lowest id left is the first cell of a component not flooded yet
    while rest_size > best_size:
        component = _flood(rest & -rest, passable, stride)
        size = component.bit_count()
        rest ^= component
        rest_size -= size
        if size > best_size:
            best, best_size = component, size
    return GridMap(grid.width, grid.height,
                   grid.blocked.union(_cells_of(passable ^ best, stride)))


def distance_field(grid: GridMap, goal: Cell) -> DistanceField:
    """Exact shortest distances from every cell to the goal, labelled as read."""
    if not grid.passable(goal):
        raise ValueError(f"goal {goal} is blocked or out of bounds")
    return DistanceField(grid, goal)


def generate_instance(grid: GridMap, n: int, seed: int,
                      goals_per_robot: int = 1) -> list[tuple[Cell, list[Cell]]]:
    """Sample n robots: distinct starts, and per-robot goal chains.

    With goals_per_robot == 1 the goals are pairwise distinct across robots
    (one-shot instances need that); longer chains draw goals independently
    per robot, only avoiding zero-length legs.  Deterministic per seed.
    """
    if goals_per_robot < 1:
        raise ValueError(f"goals_per_robot must be >= 1, got {goals_per_robot}")
    cells = grid.passable_cells
    if n > len(cells):
        raise ValueError(f"cannot place {n} robots on {len(cells)} vertices")
    rng = random.Random(seed)
    starts = rng.sample(cells, n)
    robots: list[tuple[Cell, list[Cell]]] = []
    if goals_per_robot == 1:
        # indices into cells not yet taken as a goal, ascending: drawing
        # from them past the start makes the draw `rng.choice` would make
        # from the list of free cells other than the start
        free = list(range(len(cells)))
        index = {c: i for i, c in enumerate(cells)}
        for s in starts:
            at = bisect_left(free, index[s])
            # pass over the start, unless it is the only free cell left
            skip = at < len(free) and free[at] == index[s] and len(free) > 1
            j = rng.choice(range(len(free) - skip))
            g = cells[free.pop(j + (skip and j >= at))]
            robots.append((s, [g]))
    else:
        for s in starts:
            chain = []
            prev = s
            for _ in range(goals_per_robot):
                g = rng.choice(cells)
                while g == prev and len(cells) > 1:
                    g = rng.choice(cells)
                chain.append(g)
                prev = g
            robots.append((s, chain))
    return robots


def instance_to_json(grid: GridMap, robots: list[tuple[Cell, list[Cell]]],
                     seed: int | None = None, map_path: str | None = None) -> str:
    """Native instance format: map (path or inline) plus robot start/goal lists."""
    map_obj: object
    if map_path is not None:
        map_obj = map_path
    else:
        map_obj = {
            "width": grid.width,
            "height": grid.height,
            "blocked": sorted([list(c) for c in grid.blocked]),
        }
    payload = {
        "map": map_obj,
        "robots": [
            {"start": list(s), "goals": [list(g) for g in gs]} for s, gs in robots
        ],
        "seed": seed,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _is_cell(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(type(k) is int for k in value))


def cells_from_json(value, robot: int, what: str) -> list[Cell]:
    """`value` as a non-empty list of [x, y] cells, else ValueError."""
    if isinstance(value, list) and value and all(map(_is_cell, value)):
        return [tuple(c) for c in value]
    raise ValueError(f"robot {robot}: {what} is empty or not [x, y] cells")


def instance_from_json(text: str) -> tuple[GridMap, list[tuple[Cell, list[Cell]]], int | None]:
    """Parse the native instance format; a map given as a path string is read
    from the filesystem.  An inline map without integer "width" and "height"
    and a "blocked" list of [x, y] cells, or a robot without a start cell or
    a non-empty list of goal cells, raises ValueError naming the field.
    """
    payload = json.loads(text)
    if not isinstance(payload, dict) or "map" not in payload \
            or not isinstance(payload.get("robots"), list):
        raise ValueError('an instance needs a "map" and a "robots" list')
    map_obj = payload["map"]
    if isinstance(map_obj, str):
        with open(map_obj, encoding="utf-8") as fh:
            grid = parse_movingai_map(fh.read())
    else:
        if not isinstance(map_obj, dict):
            raise ValueError('"map" is neither a path nor an object')
        for key in ("width", "height"):
            if type(map_obj.get(key)) is not int:
                raise ValueError(f'map: "{key}" is not an integer')
        blocked = map_obj.get("blocked")
        if not (isinstance(blocked, list) and all(map(_is_cell, blocked))):
            raise ValueError('map: "blocked" is not a list of [x, y] cells')
        grid = GridMap(map_obj["width"], map_obj["height"],
                       frozenset(map(tuple, blocked)))
    robots = []
    for i, r in enumerate(payload["robots"]):
        r = r if isinstance(r, dict) else {}
        robots.append((cells_from_json([r.get("start")], i, "start")[0],
                       cells_from_json(r.get("goals"), i, "goals")))
    return grid, robots, payload.get("seed")
