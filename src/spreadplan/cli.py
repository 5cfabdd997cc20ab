"""Benchmark and utility command line: map/instance generation, solving,
lifelong runs, standalone sweeps, and solution validation.

Every subcommand is deterministic for a given seed; CSV bodies are
byte-identical across reruns except for the timing columns, which always come
last.  Each output file gets a sibling `<out>.manifest.json` recording the
full configuration.  Exit codes: 0 success, 2 parse/usage errors,
3 infeasible instance, 4 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import metrics
from .grid import (FieldCache, GenerationError, MapParseError, generate_instance,
                   generate_random_grid, generate_warehouse, grid_to_movingai,
                   instance_from_json, instance_to_json, parse_movingai_map)
from .lifelong import (VARIANTS, GoalStream, LivelockError, config_for_variant,
                       run_lifelong)
from .oneshot import (MppInstance, lower_bounds, solve_mpp,
                      solution_paths_from_json, validate_solution)
from .search import (InstanceError, NoPathError, PlanningError, SearchConfig,
                     plan_independent_paths)
from .usage import UsageParams

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _write_manifest(out_path: str, config: dict) -> None:
    config = {k: v for k, v in config.items() if k != "func"}
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def _write_csv(out_path: str, header: list[str], rows: list[list]) -> None:
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return f"{x:.6f}" if isinstance(x, float) else str(x)


def _load_grid(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_movingai_map(fh.read())


def cmd_gen_map(args) -> int:
    if args.kind == "random":
        grid = generate_random_grid(args.width, args.height, args.obstacle_ratio,
                                    args.seed)
        unread = ("shelf_width", "shelf_height", "aisle")
    else:
        grid = generate_warehouse(args.width, args.height,
                                  (args.shelf_width, args.shelf_height),
                                  args.aisle)
        unread = ("obstacle_ratio", "seed")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(grid_to_movingai(grid))
    config = {k: v for k, v in vars(args).items() if k not in unread}
    _write_manifest(args.out, config)
    print(f"wrote {args.out}: {grid.width}x{grid.height}, "
          f"{grid.num_vertices} vertices")
    return EXIT_OK


def cmd_gen_instance(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    grid = _load_grid(args.map)
    robots = generate_instance(grid, args.n, args.seed, args.goals_per_robot)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(grid, robots, args.seed, map_path=args.map))
    _write_manifest(args.out, vars(args))
    print(f"wrote {args.out}: {args.n} robots")
    return EXIT_OK


def cmd_solve(args) -> int:
    with open(args.instance, encoding="utf-8") as fh:
        grid, robots, _ = instance_from_json(fh.read())
    tasks = [(s, gs[0]) for s, gs in robots]
    instance = MppInstance(grid, tasks)
    params = UsageParams(args.vertex_weight, args.edge_weight,
                         args.window_before, args.window_after,
                         args.temporal, len(tasks))
    cfg = SearchConfig(mode=args.mode, tie_break_seed=args.seed)
    fields = FieldCache(grid)
    solution = solve_mpp(instance, params, args.iterations, cfg, fields=fields)
    conflicts = validate_solution(solution.paths, grid, tasks)
    if conflicts:
        print(f"internal error: solution has {len(conflicts)} conflicts "
              f"or illegal paths", file=sys.stderr)
        return EXIT_SOLVER
    lb_mk, lb_sc = lower_bounds(instance, fields)
    header = ["seed", "n", "mode", "iterations", "makespan", "sum_of_cost",
              "makespan_ratio", "cost_ratio", "initial_vertex_conflicts",
              "initial_swap_conflicts", "plan_seconds", "resolve_seconds"]
    row = [args.seed, len(tasks), args.mode, args.iterations,
           solution.makespan, solution.sum_of_cost,
           _fmt(solution.makespan / lb_mk if lb_mk else 1.0),
           _fmt(solution.sum_of_cost / lb_sc if lb_sc else 1.0),
           solution.stats.initial_vertex_conflicts,
           solution.stats.initial_swap_conflicts,
           _fmt(solution.stats.plan_seconds),
           _fmt(solution.stats.resolve_seconds)]
    _write_csv(args.out, header, [row])
    _write_manifest(args.out, vars(args))
    if args.solution_out:
        with open(args.solution_out, "w", encoding="utf-8") as fh:
            fh.write(solution.to_json())
    print(f"solved: makespan {solution.makespan}, "
          f"sum-of-cost {solution.sum_of_cost}")
    return EXIT_OK


def cmd_lifelong(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.total_goals < 1:
        raise ValueError("--total-goals must be >= 1")
    grid = _load_grid(args.map)
    cfg = config_for_variant(args.variant, args.h, args.seed)
    streams = [GoalStream(grid, seed=args.seed * 7919 + i)
               for i in range(args.n)]
    stats = run_lifelong(grid, streams, cfg, args.total_goals)
    header = ["cycle", "goals_reached_cumulative", "expansions",
              "conflicts_in_initial_targets", "solver_ms"]
    rows = [[c.cycle, c.goals_cumulative, c.expansions, c.target_conflicts,
             _fmt(c.solver_ms)] for c in stats.cycles]
    _write_csv(args.out, header, rows)
    _write_manifest(args.out, vars(args))
    print(f"throughput {stats.throughput:.4f} "
          f"({stats.goals_reached} goals / {stats.elapsed_steps} steps)")
    return EXIT_OK


_STANDALONE_METRICS = {
    "max-vertex": (metrics.max_vertex_overlap, dict(vw=1.0, ew=0.0, temporal=False)),
    "max-edge": (metrics.max_edge_headon, dict(vw=0.0, ew=1.0, temporal=False)),
    "max-vertex-time": (metrics.max_vertex_overlap_timed,
                        dict(vw=1.0, ew=0.0, temporal=True)),
    "max-edge-time": (metrics.max_edge_headon_timed,
                      dict(vw=0.0, ew=1.0, temporal=True)),
    "total-overlap": (metrics.total_pairwise_overlap,
                      dict(vw=1.0, ew=0.0, temporal=False)),
}


def run_standalone_case(args, seed: int) -> list[int]:
    """One seed of a standalone sweep: the metric after each pass r."""
    metric_fn, preset = _STANDALONE_METRICS[args.metric]
    grid = generate_random_grid(args.width, args.height, args.obstacle_ratio,
                                seed)
    n, r_max, order = args.n, args.r_max, args.order
    robots = generate_instance(grid, n, seed * 31 + 1)
    tasks = [(s, gs[0]) for s, gs in robots]
    params = UsageParams(preset["vw"], preset["ew"],
                         args.window_before if preset["temporal"] else 0,
                         args.window_after if preset["temporal"] else 0,
                         preset["temporal"], n)
    cfg = SearchConfig(mode=args.mode, tie_break_seed=seed)
    baseline = plan_independent_paths(grid, tasks, params, 0, cfg, order=order)
    values = [metric_fn(baseline)]
    if r_max >= 1:  # pass r calls back once, after r - 1
        plan_independent_paths(
            grid, tasks, params, r_max, cfg, order=order,
            on_iteration=lambda _, paths: values.append(metric_fn(paths)))
    return values


def cmd_bench_standalone(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")
    if args.r_max < 0:
        raise ValueError("--r-max must be >= 0")
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    results = {seed: run_standalone_case(args, seed) for seed in seeds}

    header = ["seed", "order", "metric"] + [f"r{r}" for r in range(args.r_max + 1)]
    rows = []
    for seed in seeds:
        rows.append([seed, args.order, args.metric] + results[seed])
    means = [sum(results[s][r] for s in seeds) / len(seeds)
             for r in range(args.r_max + 1)]
    rows.append(["mean", args.order, args.metric] + [_fmt(m) for m in means])
    normalized = metrics.normalize_series(means)
    rows.append(["mean_normalized", args.order, args.metric]
                + [_fmt(v) for v in normalized])
    _write_csv(args.out, header, rows)
    _write_manifest(args.out, vars(args))
    print(f"wrote {args.out}: {len(seeds)} seeds, r 0..{args.r_max}")
    return EXIT_OK


def cmd_validate(args) -> int:
    with open(args.solution, encoding="utf-8") as fh:
        paths = solution_paths_from_json(fh.read())
    grid = tasks = None
    if args.instance:
        with open(args.instance, encoding="utf-8") as fh:
            grid, robots, _ = instance_from_json(fh.read())
        tasks = [(s, gs[0]) for s, gs in robots]
        if len(tasks) != len(paths):
            raise ValueError(f"solution has {len(paths)} paths, "
                             f"instance has {len(tasks)} robots")
    conflicts = validate_solution(paths, grid, tasks)
    if not conflicts:
        print("OK: no conflicts")
        return EXIT_OK
    for c in conflicts:
        print(f"{c.kind} conflict: robots {','.join(map(str, c.robots))} "
              f"at t={c.time} {c.where}")
    print(f"{len(conflicts)} conflicts")
    return EXIT_SOLVER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spreadplan",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-map", help="generate a map file")
    p.add_argument("kind", choices=["random", "warehouse"])
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--obstacle-ratio", type=float, default=0.1)
    p.add_argument("--shelf-width", type=int, default=5)
    p.add_argument("--shelf-height", type=int, default=2)
    p.add_argument("--aisle", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_map)

    p = sub.add_parser("gen-instance", help="sample robots on a map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--goals-per-robot", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_instance)

    p = sub.add_parser("solve", help="solve a one-shot instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--mode", choices=["cost_to_go", "cost_to_come"],
                   default="cost_to_go")
    p.add_argument("--vertex-weight", type=float, default=0.5)
    p.add_argument("--edge-weight", type=float, default=0.5)
    p.add_argument("--window-before", type=int, default=2)
    p.add_argument("--window-after", type=int, default=15)
    p.add_argument("--temporal", action="store_true")
    p.add_argument("--iterations", "-r", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--solution-out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("lifelong", help="rolling-horizon run on goal streams")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--h", type=int, default=5)
    p.add_argument("--total-goals", type=int, default=1000)
    p.add_argument("--variant", choices=list(VARIANTS), default="cut+usage")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lifelong)

    p = sub.add_parser("bench-standalone",
                       help="sweep planning passes on random instances")
    p.add_argument("--width", type=int, default=20)
    p.add_argument("--height", type=int, default=10)
    p.add_argument("--obstacle-ratio", type=float, default=0.05)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--r-max", type=int, default=8)
    p.add_argument("--order", choices=["desc", "asc", "random"], default="desc")
    p.add_argument("--metric", choices=sorted(_STANDALONE_METRICS),
                   default="max-vertex")
    p.add_argument("--mode", choices=["cost_to_go", "cost_to_come"],
                   default="cost_to_go")
    p.add_argument("--window-before", type=int, default=2)
    p.add_argument("--window-after", type=int, default=15)
    p.add_argument("--seeds", type=int, default=30)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench_standalone)

    p = sub.add_parser("validate", help="check a solution file for conflicts")
    p.add_argument("solution")
    p.add_argument("--instance", default=None,
                   help="instance the solution solves: also check that every "
                        "step is a legal move and every path starts and ends "
                        "on its robot's start and goal")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GenerationError, InstanceError, NoPathError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (PlanningError, LivelockError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (MapParseError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
