"""Benchmark of the spreadplan planner.

Run one workload, as the last line of stdout printing one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

    python3 perfbench/run.py --workload lifelong-warehouse --seed 1 \
        --seconds 20 --trace 0

With `--trace 0` the metrics are the end-to-end ones, timed with no hooks
besides the captures the checks need; with `--trace 1` they are the
per-layer ones, from rounds run with every hook in `tracing.HOOKS`.  Without
`--workload`, every workload runs in a fresh process of its own and a table
of their metrics is printed.

A run makes its cases from the seed, then solves rounds of them (every case
once per round) until `--seconds` have passed, finishing the round it is in.
Each solve is one operation.  An operation fails when the program raises one
of its own errors; an output that breaks a check makes the run incorrect.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from checker import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# untraced set-up is repeated until it has taken this long, so that a set-up
# of a millisecond still gives a median that a slow moment cannot move
SETUP_MIN_S = 0.05

END_TO_END = (
    ("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"),
    ("goals_per_step", "goals/step"), ("soc_ratio", "ratio"),
    ("makespan_ratio", "ratio"),
)

# name, unit, source: the self time ("self") or call count ("calls") of a
# span, or a count ("count") read at a hook or from the program's results
PER_LAYER = (
    ("grid.bfs_s", "s", "self", "grid.bfs"),
    ("grid.bfs_fields", "fields", "calls", "grid.bfs"),
    ("grid.bfs_cells", "cells", "count", "grid.bfs_cells"),
    ("grid.load_s", "s", "self", "grid.load"),
    ("usage.update_s", "s", "self", "usage.update"),
    ("usage.updates", "calls", "calls", "usage.update"),
    ("search.cost_to_go_s", "s", "self", "search.cost_to_go"),
    ("search.cost_to_go_calls", "calls", "calls", "search.cost_to_go"),
    ("search.cost_to_come_s", "s", "self", "search.cost_to_come"),
    ("search.cost_to_come_calls", "calls", "calls", "search.cost_to_come"),
    ("search.passes_s", "s", "self", "search.passes"),
    ("search.expansions", "nodes", "count", "search.expansions"),
    ("search.generated", "nodes", "count", "search.generated"),
    ("search.peak_overlap", "paths", "count", "search.peak_overlap"),
    ("search.total_overlap", "cells", "count", "search.total_overlap"),
    ("lifelong.window_s", "s", "self", "lifelong.window"),
    ("lifelong.window_calls", "calls", "calls", "lifelong.window"),
    ("lifelong.expansions", "nodes", "count", "lifelong.expansions"),
    ("lifelong.cut_s", "s", "self", "lifelong.cut"),
    ("lifelong.target_conflicts", "pairs", "count", "lifelong.target_conflicts"),
    ("oneshot.resolve_s", "s", "self", "oneshot.resolve"),
    ("oneshot.resolver_expansions", "nodes", "count",
     "oneshot.resolver_expansions"),
    ("oneshot.replanned", "robots", "count", "oneshot.replanned"),
    ("oneshot.waits_added", "steps", "count", "oneshot.waits_added"),
    ("metrics.conflict_scan_s", "s", "self", "metrics.conflict_scan"),
    ("metrics.overlap_s", "s", "self", "metrics.overlap"),
)
TRACE_OVERHEAD = ("bench.trace_overhead_s", "s")


def import_program():
    """Import spreadplan from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spreadplan
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import spreadplan from {ROOT / 'src'}: {exc}")
    if Path(spreadplan.__file__).resolve().parent != ROOT / "src" / "spreadplan":
        sys.exit(f"perfbench: spreadplan imported from {spreadplan.__file__}, "
                 f"not from {ROOT / 'src'}")


class Run:
    """One workload's operations, their samples and their checks."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.cases = [workload.make_case(random.Random(f"{workload.name}/{seed}/{k}"))
                      for k in range(workload.cases_per_round)]
        self.capture = (tracing.Capture(*workload.capture)
                        if workload.capture else None)
        self.attempted = self.failed = 0
        self.correct = True
        self.setup_s: list[float] = []
        self.solve_s: list[float] = []
        self.traced_solve_s: list[float] = []
        self.quality = None          # outcomes of the first round
        self.layers: list[dict] = []  # per traced round: metric -> value

    def operation(self, case, traced: bool):
        """Set up and solve one case, then check the output; the outcome, or
        None when the program raised or the output broke a check."""
        gc.collect()
        self.attempted += 1
        setups = []
        while not setups or (sum(setups) < SETUP_MIN_S and not traced):
            t0 = perf_counter()
            prepared = self.workload.setup(case)
            setups.append(perf_counter() - t0)
        if self.capture:
            self.capture.clear()
        t1 = perf_counter()
        try:
            result = self.workload.solve(case, prepared)
        except (RuntimeError, ValueError) as exc:
            self.failed += 1
            print(f"perfbench: operation failed: {exc!r}", file=sys.stderr)
            return None
        t2 = perf_counter()
        if not traced:
            self.setup_s.extend(setups)
            self.solve_s.append(t2 - t1)
        else:
            self.traced_solve_s.append(t2 - t1)
        try:
            return self.workload.check(case, prepared, result,
                                       self.capture.taken if self.capture else {})
        except CheckError as exc:
            self.correct = False
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            return None

    def round(self, traced: bool) -> None:
        tracer = None
        if traced:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            outcomes = [self.operation(case, traced) for case in self.cases]
        finally:
            if tracer:
                tracer.uninstall()
        if self.quality is None and not traced:
            self.quality = [o for o in outcomes if o is not None]
        if tracer:
            self.layers.append(self.layer_values(tracer, outcomes))

    def layer_values(self, tracer, outcomes) -> dict:
        """Per-layer metrics of one traced round, as means per solve."""
        if tracer.counts.get("search.penalty_bound_violations", 0):
            self.correct = False
            print("perfbench: check failed: penalty bound violations",
                  file=sys.stderr)
        n = len(self.cases)
        counts = dict(tracer.counts)
        for outcome in outcomes:
            for name, value in (outcome.counts if outcome else {}).items():
                if value is None or counts.get(name, 0) is None:
                    counts[name] = None
                else:
                    counts[name] = counts.get(name, 0) + value
        values = {}
        for name, _, kind, key in PER_LAYER:
            if key in tracer.missing or counts.get(key, 0) is None:
                continue
            span = tracer.spans.get(key, (0, 0.0, 0.0))
            total = {"self": span[2], "calls": span[0]}.get(kind)
            values[name] = (counts.get(key, 0) if total is None else total) / n
        return values

    def measure(self, seconds: float, trace: bool) -> None:
        """Whole rounds until `seconds` have passed; with `trace`, untraced
        and traced rounds alternate, and at least one of each is run."""
        start = perf_counter()
        traced = False
        while True:
            self.round(traced)
            if perf_counter() - start >= seconds and (self.layers or not trace):
                break
            traced = trace and not traced
        if self.capture:
            self.capture.uninstall()

    def end_to_end(self) -> dict:
        q = self.quality
        if not q:
            return {}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": statistics.median(self.setup_s),
            "solve_s": statistics.median(self.solve_s),
            "peak_rss_mb": rss_mb,
            "goals_per_step": sum(o.goals for o in q) / sum(o.span for o in q),
            "soc_ratio": sum(o.steps_sum for o in q) / sum(o.dist_sum for o in q),
            "makespan_ratio": (sum(o.steps_max for o in q)
                               / sum(o.dist_max for o in q)),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END}

    def per_layer(self) -> dict:
        metrics = {}
        for name, unit, kind, _ in PER_LAYER:
            seen = [v[name] for v in self.layers if name in v]
            if len(seen) < len(self.layers) or not seen:
                print(f"perfbench: {name} absent: a hooked name is gone",
                      file=sys.stderr)
                continue
            if kind != "self" and len(set(seen)) > 1:
                print(f"perfbench: {name} differs between traced rounds: "
                      f"{seen}", file=sys.stderr)
            value = statistics.median(seen) if kind == "self" else seen[0]
            metrics[name] = {"value": value, "unit": unit}
        if self.solve_s and self.traced_solve_s:
            name, unit = TRACE_OVERHEAD
            metrics[name] = {"value": statistics.median(self.traced_solve_s)
                             - statistics.median(self.solve_s), "unit": unit}
        return metrics


def run_one(args) -> int:
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    run = Run(WORKLOADS[args.workload](), args.seed)
    run.measure(args.seconds, bool(args.trace))
    metrics = run.per_layer() if args.trace else run.end_to_end()
    result = {"correct": run.correct and run.quality is not None,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_samples=run.setup_s, solve_samples=run.solve_s,
                  traced_solve_samples=run.traced_solve_s, layers=run.layers)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; a table of what each printed."""
    import_program()
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        ok = result["correct"] and result["failed"] == 0
        status |= not ok
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload; all when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
