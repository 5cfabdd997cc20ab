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
they do.

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
        "18da9a15d2fc36ec7effb605b1a02e3d6ac0cb4d91632bb729373ba94a8a7b21",
    "passes_cost_to_come":
        "f8ba63afe0c0e6213796f3e87abd003c583e1b666650a3070ebbbe5ca54469cc",
    "passes_cost_to_come_temporal":
        "5aaed1ac93458ff8f0eca6dadaa21bae777ed7254031094ce1490f105a8570ec",
    "resolver_error":
        "cbceab7a398d056cea42ccb2a41712b18aa428849db5205f1b39e116379e4fae",
    "resolver_restarts":
        "6587af06a473d5c8f20c9a769a9b694fde3d6b529361a7eafa8e0cf4c898e039",
    "solve_mpp_goal_wait":
        "341e32b4863d7c23ad4ca6adbf444358908beb7e0ca5fa33a7c778b2530aec8e",
    "solve_mpp_temporal":
        "08c4605a55781d9da98d61c7dbacf5cb35a5e7b7c58ffea73b4a2ed917bd75af",
    "lifelong_cut_usage":
        "da7bdbc9e45abd5cd5796c73f1df63903f22ae31c5bc612833c337daf2b9907b",
    "lifelong_retries":
        "721bd1f1b65174b53dea7eb28627621e3de44456ad48d2321384486003bc11ab",
    "via_horizon":
        "ace07b2f37f3cb9eb80887ac6e465881e946fd43923787e68edf29a1b58faaf6",
    "window_fallback":
        "0ac129c2617a371a538de326de976ca13e11b549acbc4c81c1a589ea570cadca",
}


GENERATED = {
    "passes_cost_to_come": 5793,
    "passes_cost_to_come_temporal": 5309,
    "passes_cost_to_go": 3227,
    "solve_mpp_temporal": 2018,
}


STANDALONE = {
    "max-edge":
        "a7b9b8940e24f96f300a8638d9c10a9f5f626e81ac30fcb8d8118d358637078a",
    "max-edge-time":
        "b57738558e846baa196e31f47dbce5114f767890c3f145248887a98cb1e09483",
    "max-vertex":
        "61b8f068c6bf93401b114de7176908f14df2ef9c17bf1293d019fa1597551462",
    "max-vertex-time":
        "55c7fccb6cd29165380dec7501851f56116bc0bb38f68907e04fdd9d970cf6a1",
    "total-overlap":
        "0384ef046356d505b09bf46272fa6669ccc553c580fed005c51557d59e01ae28",
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
