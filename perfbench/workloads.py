"""The benchmark's four workloads: inputs made from a seed, the program's
set-up and solve calls, and the checks of every output.

A workload makes K cases per run (a round).  Each case has its own robots,
and on the random-map workloads its own map, drawn from
`random.Random(f"{workload}/{seed}/{case}")`, so the same seed gives the same
inputs.  The program receives only the map text and the
start and goal cells; the benchmark keeps its own map, component and BFS
distances to check the outputs with.

The sizes are scaled so that one solve takes one to three seconds on a
2-vCPU guest, and a run times ten or more solves.
README.md gives the full-size settings these come from and their figures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import checker
from checker import CheckError, Grid

import spreadplan.grid as sp_grid
import spreadplan.lifelong as sp_lifelong
import spreadplan.oneshot as sp_oneshot
import spreadplan.search as sp_search
from spreadplan.usage import UsageParams


@dataclass
class Case:
    text: str                 # the map as the program parses it
    grid: Grid                # the benchmark's own copy of the passable cells
    starts: list
    goals: list               # one goal per robot, or one goal list per robot
    dists: list               # own BFS distance from each start to its goal
    seed: int                 # tie-break seed handed to the program


@dataclass
class Outcome:
    """What one checked solve contributes to the quality metrics."""

    steps_sum: int            # over robots: steps to the last counted goal
    dist_sum: int             # over robots: shortest chained distance
    steps_max: int
    dist_max: int
    goals: int                # goals reached (lifelong) or robots (one-shot)
    span: int                 # steps executed (lifelong) or makespan
    counts: dict = field(default_factory=dict)  # per-layer counts


def map_text(rows: list[str]) -> str:
    return (f"type octile\nheight {len(rows)}\nwidth {len(rows[0])}\nmap\n"
            + "\n".join(rows) + "\n")


def warehouse_rows(width: int, height: int, shelf: tuple[int, int],
                   aisle: int) -> list[str]:
    """Shelf blocks separated by aisles inside a free boundary ring."""
    blocked = set()
    for x0 in range(1, width - shelf[0], shelf[0] + aisle):
        for y0 in range(1, height - shelf[1], shelf[1] + aisle):
            blocked.update((x, y) for x in range(x0, x0 + shelf[0])
                           for y in range(y0, y0 + shelf[1]))
    return ["".join("@" if (x, y) in blocked else "." for x in range(width))
            for y in range(height)]


def random_rows(rng: random.Random, width: int, height: int,
                ratio: float) -> list[str]:
    cells = [(x, y) for y in range(height) for x in range(width)]
    blocked = set(rng.sample(cells, int(width * height * ratio)))
    return ["".join("@" if (x, y) in blocked else "." for x in range(width))
            for y in range(height)]


def connected_rows(rng, width, height, ratio) -> list[str]:
    while True:
        rows = random_rows(rng, width, height, ratio)
        grid = Grid.from_rows(rows)
        if len(checker.component(grid, min(grid.free))) == len(grid.free):
            return rows


def one_shot_robots(rng, grid: Grid, n: int, lo: int, hi: int):
    """A well-formed one-shot instance: distinct starts, distinct goals, each
    goal `lo` to `hi` steps from its start, and every robot able to reach its
    goal without entering another robot's start or goal.  Returns starts,
    goals and the start-goal distances.

    The band bounds how far robots travel: with pairs drawn anywhere, the
    makespan is the longest of many random distances, and it moved goals per
    step by up to a tenth from seed to seed.  Well-formedness rules out the
    commonest way the prioritized resolver fails, a goal cut off from its
    start by cells where other robots rest for good; operations that fail
    on some seeds only would make two sets of runs fail different shares.
    """
    cells = sorted(grid.free)
    starts = rng.sample(cells, n)
    goals: list = [None] * n
    dists: list = [None] * n
    for _ in range(100):
        redrawn = False
        for i in range(n):
            endpoints = set(starts) | set(goals)
            reach = checker.component(grid, starts[i],
                                      endpoints - {starts[i], goals[i]})
            if goals[i] in reach:
                continue
            redrawn = True
            dist = checker.bfs(grid, starts[i])
            band = [c for c in sorted(reach) if c not in endpoints
                    and lo <= dist[grid.index(c)] <= hi]
            if band:
                goals[i] = rng.choice(band)
                dists[i] = dist[grid.index(goals[i])]
            else:   # boxed in by other endpoints: move the start
                starts[i] = rng.choice([c for c in cells if c not in endpoints])
                goals[i] = None
        if not redrawn:
            return starts, goals, dists
    raise RuntimeError("no well-formed instance after 100 passes")


def one_shot_outcome(paths, dists) -> tuple[list[int], Outcome]:
    steps = [checker.arrival(p) for p in paths]
    return steps, Outcome(sum(steps), sum(dists), max(steps), max(dists),
                          len(paths), max(steps))


def read(obj, path: str):
    """A count from a program result, or None when a refactor removed it."""
    for name in path.split("."):
        obj = getattr(obj, name, None)
    return obj


class LifelongWarehouse:
    """run_lifelong, variant cut+usage, on check 8's 37x20 warehouse."""

    name = "lifelong-warehouse"
    cases_per_round = 2
    robots = 80
    h = 5
    stop_goals = 1000         # long enough that most field lookups are hits
    goals_per_robot = 60      # far more than any robot reaches; checked
    capture = ("lifelong", "windowed_solver")

    def __init__(self):
        self.rows = warehouse_rows(37, 20, (4, 2), 2)
        self.grid = Grid.from_rows(self.rows)
        self._fields: dict = {}

    def dist(self, a, b) -> int:
        field_b = self._fields.get(b)
        if field_b is None:
            field_b = self._fields[b] = checker.bfs(self.grid, b)
        return field_b[self.grid.index(a)]

    def make_case(self, rng: random.Random) -> Case:
        cells = sorted(self.grid.free)
        starts = rng.sample(cells, self.robots)
        goal_lists = []
        for s in starts:
            goals, prev = [], s
            for _ in range(self.goals_per_robot):
                g = rng.choice(cells)
                while g == prev:
                    g = rng.choice(cells)
                goals.append(g)
                prev = g
            goal_lists.append(goals)
        return Case(map_text(self.rows), self.grid, starts, goal_lists, [],
                    rng.randrange(1 << 30))

    def setup(self, case: Case):
        grid = sp_grid.parse_movingai_map(case.text)
        streams = [sp_lifelong.GoalStream(grid, initial=list(goals))
                   for goals in case.goals]
        cfg = sp_lifelong.config_for_variant("cut+usage", h=self.h,
                                             seed=case.seed)
        return grid, streams, cfg

    def solve(self, case: Case, prepared):
        grid, streams, cfg = prepared
        return sp_lifelong.run_lifelong(grid, streams, cfg, self.stop_goals,
                                        positions=list(case.starts))

    def check(self, case: Case, prepared, stats, captured) -> Outcome:
        segments = [paths for paths, _ in captured["windowed_solver"]]
        checker.check_equal("cycles", len(stats.cycles), len(segments))
        trajectories = checker.chain_segments(case.starts, segments, self.h)
        checker.check_moves(case.grid, trajectories)
        checker.check_conflict_free(trajectories)
        steps = len(trajectories[0]) - 1
        checker.check_equal("steps executed", stats.elapsed_steps, steps)
        counts, last = checker.check_goal_count(trajectories, case.goals,
                                                stats.goals_reached)
        for i, stream in enumerate(prepared[1]):
            if len(stream) < self.h + 2:
                raise CheckError(f"robot {i}: goal list ran dry")
        chained = []
        for start, goals, k in zip(case.starts, case.goals, counts):
            d, prev = 0, start
            for g in goals[:k]:
                d += self.dist(prev, g)
                prev = g
            chained.append(d)
        for i, (t, d) in enumerate(zip(last, chained)):
            if t < d:
                raise CheckError(f"robot {i}: last goal reached after {t} "
                                 f"steps, shortest chain is {d}")
        return Outcome(sum(last), sum(chained), max(last), max(chained),
                       sum(counts), steps,
                       {"lifelong.expansions": read(stats, "total_expansions")})


class HorizonBigmap:
    """solve_mpp_via_horizon, cut+usage, on check 10's map shape.

    Check 10 draws 10% obstacles on 257x256 and keeps the largest component;
    here each side is halved and h is halved with it, so a robot still needs
    several cycles, each cut target still costs a whole-map BFS, and a solve
    takes about a second instead of 33 s and 1.4 GB.  Each goal lies four
    to five horizons from its start, so every robot runs about as many
    cycles and cuts, and the field cache peaks at about the same size.
    """

    name = "horizon-bigmap"
    cases_per_round = 3
    robots = 10
    h = 25
    distance = (4 * h, 5 * h)
    capture = ()

    def make_case(self, rng: random.Random) -> Case:
        rows = random_rows(rng, 129, 128, 0.10)
        full = Grid.from_rows(rows)
        grid = Grid(full.width, full.height, checker.largest_component(full))
        starts, goals, dists = one_shot_robots(rng, grid, self.robots,
                                               *self.distance)
        return Case(map_text(rows), grid, starts, goals, dists,
                    rng.randrange(1 << 30))

    def setup(self, case: Case):
        grid = sp_grid.largest_component_grid(
            sp_grid.parse_movingai_map(case.text))
        cfg = sp_lifelong.config_for_variant("cut+usage", h=self.h,
                                             seed=case.seed)
        return grid, list(zip(case.starts, case.goals)), cfg

    def solve(self, case: Case, prepared):
        return sp_lifelong.solve_mpp_via_horizon(*prepared)

    def check(self, case: Case, prepared, result, captured) -> Outcome:
        paths = result.paths
        checker.check_moves(case.grid, paths)
        checker.check_starts(paths, case.starts)
        checker.check_goals(paths, case.goals)
        checker.check_conflict_free(paths)
        checker.check_lengths(paths, case.dists, exact=False)
        steps, outcome = one_shot_outcome(paths, case.dists)
        checker.check_equal("makespan", result.makespan, max(steps))
        checker.check_equal("sum_of_cost", result.sum_of_cost, sum(steps))
        outcome.counts = {"lifelong.expansions": read(result, "expansions")}
        return outcome


class OneshotCrowd:
    """solve_mpp with a temporal 2/15 table and r=2, cost_to_go.

    The full-size setting is 200 robots on a 48x48 map with 10% obstacles;
    90 robots on an open 32x32 map keep its density (about one robot per ten
    free cells) at a ninth of the time.  The map is open because on 10%
    obstacles the resolver failed on some seeds even for well-formed
    instances (README.md).  Goals lie at most 40 steps from their starts.
    """

    name = "oneshot-crowd"
    cases_per_round = 4
    robots = 90
    distance = (1, 40)
    iterations = 2
    params = UsageParams(0.5, 0.5, 2, 15, temporal=True)
    capture = ("oneshot", "plan_independent_paths")
    rows = ["." * 32] * 32

    def make_case(self, rng: random.Random) -> Case:
        grid = Grid.from_rows(self.rows)
        starts, goals, dists = one_shot_robots(rng, grid, self.robots,
                                               *self.distance)
        return Case(map_text(self.rows), grid, starts, goals, dists,
                    rng.randrange(1 << 30))

    def setup(self, case: Case):
        grid = sp_grid.parse_movingai_map(case.text)
        return sp_oneshot.MppInstance(grid, list(zip(case.starts, case.goals)))

    def solve(self, case: Case, instance):
        return sp_oneshot.solve_mpp(instance, self.params, self.iterations,
                                    sp_search.SearchConfig("cost_to_go", case.seed))

    def check(self, case: Case, instance, solution, captured) -> Outcome:
        (phase1,) = captured["plan_independent_paths"]
        checker.check_moves(case.grid, phase1)
        checker.check_starts(phase1, case.starts)
        checker.check_goals(phase1, case.goals)
        checker.check_lengths(phase1, case.dists, exact=True)
        stats = solution.stats
        peak, total = checker.overlap(phase1)
        checker.check_equal("phase-1 peak overlap",
                            stats.initial_max_vertex_overlap, peak)
        checker.check_equal("phase-1 total overlap",
                            stats.initial_total_overlap, total)
        checker.check_equal("penalty bound violations",
                            stats.search.penalty_bound_violations, 0)
        paths = solution.paths
        checker.check_moves(case.grid, paths)
        checker.check_starts(paths, case.starts)
        checker.check_goals(paths, case.goals)
        checker.check_conflict_free(paths)
        checker.check_lengths(paths, case.dists, exact=False)
        steps, outcome = one_shot_outcome(paths, case.dists)
        checker.check_equal("makespan", solution.makespan, max(steps))
        checker.check_equal("sum_of_cost", solution.sum_of_cost, sum(steps))
        outcome.counts = {
            "search.peak_overlap": peak,
            "search.total_overlap": total,
            "oneshot.resolver_expansions": read(stats, "resolver_expansions"),
            "oneshot.replanned": read(stats, "robots_replanned"),
            "oneshot.waits_added": read(stats, "wait_steps_added"),
        }
        return outcome


class SpreadPasses:
    """plan_independent_paths alone: the paper's standalone SU-I setting.

    Four cost_to_come passes against an aggregate 0.5/0.5 table.  The
    full-size setting is 300 robots on 64x64; 115 robots on 40x40 keep its
    density.  Goals lie at most 48 steps from their starts, which cuts off
    only the longest tenth of pairs.
    """

    name = "spread-passes"
    cases_per_round = 4
    robots = 115
    distance = (1, 48)
    passes = 4
    params = UsageParams(0.5, 0.5)
    capture = ()

    def make_case(self, rng: random.Random) -> Case:
        rows = connected_rows(rng, 40, 40, 0.10)
        grid = Grid.from_rows(rows)
        starts, goals, dists = one_shot_robots(rng, grid, self.robots,
                                               *self.distance)
        return Case(map_text(rows), grid, starts, goals, dists,
                    rng.randrange(1 << 30))

    def setup(self, case: Case):
        grid = sp_grid.parse_movingai_map(case.text)
        return grid, list(zip(case.starts, case.goals))

    def solve(self, case: Case, prepared):
        grid, tasks = prepared
        per_pass: list = []
        stats = sp_search.SearchStats()
        paths = sp_search.plan_independent_paths(
            grid, tasks, self.params, self.passes,
            sp_search.SearchConfig("cost_to_come", case.seed), stats=stats,
            on_iteration=lambda _, snapshot: per_pass.append(snapshot))
        return paths, per_pass, stats

    def check(self, case: Case, prepared, result, captured) -> Outcome:
        paths, per_pass, stats = result
        checker.check_moves(case.grid, paths)
        checker.check_starts(paths, case.starts)
        checker.check_goals(paths, case.goals)
        checker.check_lengths(paths, case.dists, exact=True)
        checker.check_equal("passes", len(per_pass), self.passes)
        checker.check_equal("paths after the last pass", per_pass[-1],
                            [list(p) for p in paths])
        checker.check_usage_never_rises(per_pass, self.params.vertex_weight,
                                        self.params.edge_weight)
        checker.check_equal("penalty bound violations",
                            stats.penalty_bound_violations, 0)
        _, outcome = one_shot_outcome(paths, case.dists)
        peak, total = checker.overlap(paths)
        outcome.counts = {"search.peak_overlap": peak,
                          "search.total_overlap": total}
        return outcome


WORKLOADS = {w.name: w for w in
             (LifelongWarehouse, HorizonBigmap, OneshotCrowd, SpreadPasses)}
