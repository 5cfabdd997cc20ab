"""Golden outputs: sha256 digests of eleven small fixed runs, and of the
`bench-standalone` CSV for each of its five metrics.

The digests pin every path (and the search and resolver counts that come
with them), so a change meant to be a pure speed-up shows here if it moves a
single byte.  A deliberate change to the tie-break or the search order must
update these digests and say so in CHANGES.md.  The guided search's
`generated` count is pinned apart from the digests, as a readable integer
in `GENERATED`: a change that only prunes pushes which are never popped
moves those integers and no digest.  Two runs reach the windowed
solver's rarer paths, a failed attempt and a fallback prefix; three reach
the resolver's, a robot that waits for its goal to be free, a restart that
solves and a robot it cannot schedule on any attempt; all five assert that
they do.  The last test counts the tie hashes of one run, so that eager
hashing at every push cannot return unnoticed.

Print the current digests and counts, ready to paste, with
`PYTHONPATH=src python tests/test_golden_outputs.py`.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

import spreadplan.lifelong as lifelong
import spreadplan.search as search
from spreadplan.cli import main
from spreadplan.grid import (distance_field, generate_instance, generate_random_grid,
                            generate_warehouse)
from spreadplan.lifelong import (GoalStream, config_for_variant, run_lifelong,
                                 solve_mpp_via_horizon, windowed_solver)
from spreadplan.oneshot import (MppInstance, ResolverError, solve_mpp,
                                validate_solution)
from spreadplan.search import (RESTARTS, SearchConfig, SearchStats,
                               plan_independent_paths)
from spreadplan.usage import UsageParams


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _one_shot_tasks(seed: int, n: int):
    grid = generate_random_grid(20, 20, 0.15, seed=seed)
    robots = generate_instance(grid, n, seed=seed)
    return grid, [(s, gs[0]) for s, gs in robots]


def _passes(mode: str, temporal: bool):
    grid, tasks = _one_shot_tasks(3, 40)
    params = UsageParams(0.5, 0.5, 1 if temporal else 0, 2 if temporal else 0,
                         temporal, len(tasks))
    stats = SearchStats()
    paths = plan_independent_paths(grid, tasks, params, 3,
                                   SearchConfig(mode, tie_break_seed=5),
                                   stats=stats)
    return {"paths": paths, "expansions": stats.expansions,
            "generated": stats.generated}


def run_passes_cost_to_go():
    return _passes("cost_to_go", temporal=False)


def run_passes_cost_to_come():
    return _passes("cost_to_come", temporal=False)


def run_passes_cost_to_come_temporal():
    return _passes("cost_to_come", temporal=True)


def run_solve_mpp_temporal():
    grid, tasks = _one_shot_tasks(4, 45)
    params = UsageParams(0.5, 0.5, 2, 15, True, len(tasks))
    sol = solve_mpp(MppInstance(grid, tasks), params, iterations=2,
                    cfg=SearchConfig("cost_to_go", tie_break_seed=9))
    return {"solution": json.loads(sol.to_json()),
            "expansions": sol.stats.search.expansions,
            "generated": sol.stats.search.generated}


def run_solve_mpp_goal_wait():
    """A crowded run where some robot re-plans and must wait until a robot
    planned before it has passed through its goal."""
    grid = generate_random_grid(12, 12, 0.1, seed=0)
    robots = generate_instance(grid, 20, seed=0)
    tasks = [(s, gs[0]) for s, gs in robots]
    sol = solve_mpp(MppInstance(grid, tasks), UsageParams(num_robots=20), 1,
                    SearchConfig(tie_break_seed=0))
    # some robot arrives at its goal for good only after another robot's
    # visit there, at a step no shorter path could have reached it by
    waited = 0
    for i, (path, (s, g)) in enumerate(zip(sol.paths, tasks)):
        arrival = len(path) - 1
        while arrival and path[arrival - 1] == g:
            arrival -= 1
        dist = distance_field(grid, g)[s]
        waited += any(dist <= t < arrival
                      for j, other in enumerate(sol.paths) if j != i
                      for t, c in enumerate(other) if c == g)
    assert waited >= 1
    return {"solution": json.loads(sol.to_json())}


def _crowded_10x10(seed: int):
    """24 robots on a 10x10 map with 15% obstacles, solved with r = 1."""
    grid = generate_random_grid(10, 10, 0.15, seed=seed)
    robots = generate_instance(grid, 24, seed=seed)
    tasks = [(s, gs[0]) for s, gs in robots]
    return grid, tasks, lambda: solve_mpp(
        MppInstance(grid, tasks), UsageParams(num_robots=24), 1,
        SearchConfig(tie_break_seed=seed))


def run_resolver_error():
    """A run whose resolver meets a robot it cannot schedule within the
    time bound on every attempt."""
    _, _, solve = _crowded_10x10(26)
    with pytest.raises(ResolverError) as err:
        solve()
    message = str(err.value)
    assert "no conflict-free path within" in message
    assert err.value.stats.resolver_restarts == RESTARTS
    return {"robot": err.value.robot, "message": message,
            "expansions": err.value.stats.resolver_expansions}


def run_resolver_restarts():
    """A run whose first resolver attempt fails and a restart solves."""
    grid, tasks, solve = _crowded_10x10(2)
    sol = solve()
    assert sol.stats.resolver_restarts >= 1
    assert validate_solution(sol.paths, grid, tasks) == []
    return {"solution": json.loads(sol.to_json()),
            "expansions": sol.stats.resolver_expansions}


def _recording(mp, name: str) -> list:
    """Every result of `lifelong.<name>` while `mp` is active, in call order."""
    results, func = [], getattr(lifelong, name)

    def recording(*args, **kwargs):
        result = func(*args, **kwargs)
        results.append(result)
        return result

    mp.setattr(lifelong, name, recording)
    return results


def _recorded_lifelong(grid, robots: int, stop_goals: int):
    """`run_lifelong` cut+usage at h=5, seed 2, recording every window and
    every `_plan_window` result."""
    streams = [GoalStream(grid, seed=100 + i) for i in range(robots)]
    with pytest.MonkeyPatch.context() as mp:
        windows = _recording(mp, "windowed_solver")
        attempts = _recording(mp, "_plan_window")
        stats = run_lifelong(grid, streams,
                             config_for_variant("cut+usage", h=5, seed=2),
                             stop_goals=stop_goals)
    cycles = [[c.cycle, c.goals_cumulative, c.expansions, c.target_conflicts]
              for c in stats.cycles]
    return {"windows": windows, "cycles": cycles,
            "goals": stats.goals_reached, "steps": stats.elapsed_steps}, attempts


def run_lifelong_cut_usage():
    payload, _ = _recorded_lifelong(generate_warehouse(25, 14, (3, 2), 2), 24, 60)
    return payload


def run_lifelong_retries():
    payload, attempts = _recorded_lifelong(
        generate_warehouse(37, 20, (4, 2), 2), 80, 120)
    # the run must reach the windowed solver's retry path
    assert sum(path is None for path, _ in attempts) >= 1
    return payload


def run_window_fallback():
    """One `windowed_solver` call whose expansion budget is too small for
    some robots to finish their chains, so they keep their best h-step
    prefix."""
    grid = generate_warehouse(25, 14, (3, 2), 2)
    robots = generate_instance(grid, 12, seed=3, goals_per_robot=2)
    states = [s for s, _ in robots]
    targets = [gs for _, gs in robots]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifelong, "MAX_EXPANSIONS", 40)
        attempts = _recording(mp, "_plan_window")
        paths, expansions = windowed_solver(grid, states, targets, 5, seed=3)
    fallbacks = 0
    for path, _ in attempts:
        robot = states.index(grid.cell_at[path[0]])
        walk = iter(grid.cell_at[v] for v in path[1:])
        fallbacks += not all(g in walk for g in targets[robot])
    # some robot's window is a fallback prefix that leaves its chain unfinished
    assert fallbacks >= 1
    windows = [[[grid.cell_at[v] for v in path], exp] for path, exp in attempts]
    return {"paths": paths, "expansions": expansions, "windows": windows}


def run_via_horizon():
    grid = generate_warehouse(21, 12, (3, 2), 2)
    robots = generate_instance(grid, 10, seed=17)
    tasks = [(s, gs[0]) for s, gs in robots]
    res = solve_mpp_via_horizon(grid, tasks, config_for_variant("cut+usage", h=5))
    return {"paths": res.paths, "cycles": res.cycles,
            "expansions": res.expansions}


GOLDEN = {
    "passes_cost_to_go":
        "8f1928d220ab3427866361a83f8b6c33028156455fd013ad660d16a0c2994837",
    "passes_cost_to_come":
        "b4f5a7a369da2db4765b6ef2275785999a25f83771024941f8458bcbda7c030b",
    "passes_cost_to_come_temporal":
        "53f00651ceb8eb6293c32cf927b29adeb55f51dc380cc6ce473324f7a5231fba",
    "resolver_error":
        "a259d4760f2f3fb06845815c351cc0535e988e5d1e73d3840332ced88bb10c4e",
    "resolver_restarts":
        "aba49f2b38fba2c3f93692a037874e1311eba6cedc14d87d878518539b08f1a2",
    "solve_mpp_goal_wait":
        "91c1401b576ec4ab829036b77e001cb08fdf696699798a50b0e831e1db5d878f",
    "solve_mpp_temporal":
        "c9faa27ffe98725070e2904dcbc9a19ab9b47894f0bff0ec1cc84ea1e5f68dc9",
    "lifelong_cut_usage":
        "7ab7cc0b80fd83dbfc9ea801ad915dc5b1ce48b5a03b81ac9bf77859319f8ba2",
    "lifelong_retries":
        "84c701b2b9100f8bca651d7ed13e5b979228165a860b21075115204de971b13c",
    "via_horizon":
        "cd14344428782a6288f3d36ac834525965272cbe3f238615faa78b9d2f25bcda",
    "window_fallback":
        "61002b950bdb6763877bcb8870070eefcf7253509d52634606810a9c70d3af35",
}


GENERATED = {
    "passes_cost_to_come": 5726,
    "passes_cost_to_come_temporal": 5280,
    "passes_cost_to_go": 3354,
    "solve_mpp_temporal": 2028,
}


STANDALONE = {
    "max-edge":
        "f07dfb9593d81bbe0b1b4cffcc62694a5ca5c1b7e43b4a899fb0badeba22e98c",
    "max-edge-time":
        "d96515a29ac4cc89b031944ed1c8fa9061d30c47f6381cb44274719552337bd4",
    "max-vertex":
        "b03a74c4d25d320000ed22d4da7550cf4a23d61751a66ec0f02021079ae338c0",
    "max-vertex-time":
        "7c9daae6868aadc52117dd06c37395a0c168e0af59f3acd0e02ba6261bd2e8a9",
    "total-overlap":
        "9db056cbd728059c79661050de920fd59fb71923e109e43b971f433d5929a762",
}


def _standalone_digest(metric: str) -> str:
    """The digest of the `bench-standalone` CSV for `metric`: the CLI
    defaults (100 robots on a 20x10 map), passes 0-4, seeds 0-2."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "standalone.csv"
        assert main(["bench-standalone", "--metric", metric, "--r-max", "4",
                     "--seeds", "3", "--out", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()


def _outputs(name: str) -> tuple[str, int | None]:
    """The digest of run `name` without its `generated` count, and the count
    (None for a run that does not report one)."""
    payload = globals()[f"run_{name}"]()
    generated = payload.pop("generated", None)
    return _digest(payload), generated


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    digest, generated = _outputs(name)
    assert digest == GOLDEN[name]
    assert generated == GENERATED.get(name)


@pytest.mark.parametrize("metric", sorted(STANDALONE))
def test_standalone_digest(metric):
    assert _standalone_digest(metric) == STANDALONE[metric]


def test_lifelong_hashes_few_ties():
    """The space-time loops hash a state's tie only when another state
    shares its key: on the lifelong run fewer than a quarter of the pushed
    states get hashed, in the window planner and in the cut's search."""
    counts = {}
    queue = search._TieQueue

    def counting(loop):
        pushed_hashed = counts.setdefault(loop, [0, 0])

        class Counting(queue):
            def __init__(self, tie):
                def counted(state):
                    pushed_hashed[1] += 1
                    return tie(state)
                super().__init__(counted)

            def push(self, key, state):
                pushed_hashed[0] += 1
                super().push(key, state)
        return Counting

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_TieQueue", counting("guided"))
        mp.setattr(lifelong, "_TieQueue", counting("window"))
        assert _digest(run_lifelong_cut_usage()) == GOLDEN["lifelong_cut_usage"]
    for loop, (pushed, hashed) in counts.items():
        assert pushed > 1000, loop
        assert hashed < pushed / 4, (loop, hashed, pushed)


if __name__ == "__main__":
    outputs = {name: _outputs(name) for name in sorted(GOLDEN)}
    print("GOLDEN = {")
    for name, (digest, _) in outputs.items():
        print(f'    "{name}":\n        "{digest}",')
    print("}\n\n\nGENERATED = {")
    for name, (_, generated) in outputs.items():
        if generated is not None:
            print(f'    "{name}": {generated},')
    print("}\n\n\nSTANDALONE = {")
    for metric in sorted(STANDALONE):
        print(f'    "{metric}":\n        "{_standalone_digest(metric)}",')
    print("}")
