import csv
import json

import pytest

from spreadplan.cli import main


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def strip_timing(rows, header):
    """Drop the timing columns (always last) for determinism comparisons."""
    timing = [i for i, name in enumerate(header)
              if name.endswith("_seconds") or name.endswith("_ms")]
    keep = [i for i in range(len(header)) if i not in timing]
    return [[row[i] for i in keep] for row in rows]


@pytest.fixture()
def small_world(tmp_path):
    map_path = tmp_path / "m.map"
    inst_path = tmp_path / "inst.json"
    assert main(["gen-map", "random", "--width", "14", "--height", "8",
                 "--obstacle-ratio", "0.08", "--seed", "3",
                 "--out", str(map_path)]) == 0
    assert main(["gen-instance", "--map", str(map_path), "--n", "6",
                 "--seed", "4", "--out", str(inst_path)]) == 0
    return map_path, inst_path


def test_gen_map_writes_manifest(tmp_path):
    out = tmp_path / "w.map"
    assert main(["gen-map", "warehouse", "--width", "37", "--height", "20",
                 "--shelf-width", "5", "--shelf-height", "2", "--aisle", "1",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "w.map.manifest.json").read_text())
    assert manifest["command"] == "gen-map"
    assert manifest["width"] == 37
    assert manifest["aisle"] == 1
    # the warehouse layout reads no seed and no obstacle ratio
    assert "seed" not in manifest and "obstacle_ratio" not in manifest
    lines = out.read_text().splitlines()
    assert lines[1] == "height 20" and lines[2] == "width 37"
    out = tmp_path / "r.map"
    assert main(["gen-map", "random", "--width", "12", "--height", "8",
                 "--seed", "3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "r.map.manifest.json").read_text())
    assert manifest["seed"] == 3 and manifest["obstacle_ratio"] == 0.1
    assert not {"shelf_width", "shelf_height", "aisle"} & manifest.keys()


def test_gen_map_infeasible_exit_code(tmp_path):
    out = tmp_path / "bad.map"
    assert main(["gen-map", "warehouse", "--width", "37", "--height", "20",
                 "--aisle", "0", "--out", str(out)]) == 3


def test_solve_single_robot_ratio_one(tmp_path):
    map_path = tmp_path / "m.map"
    inst_path = tmp_path / "i.json"
    out = tmp_path / "s.csv"
    main(["gen-map", "random", "--width", "10", "--height", "10",
          "--obstacle-ratio", "0.0", "--seed", "1", "--out", str(map_path)])
    main(["gen-instance", "--map", str(map_path), "--n", "1", "--seed", "2",
          "--out", str(inst_path)])
    assert main(["solve", "--instance", str(inst_path), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 2  # header plus one row
    header, row = rows
    assert row[header.index("makespan_ratio")] == "1.000000"
    assert row[header.index("cost_ratio")] == "1.000000"


def test_solve_outputs_valid_solution_and_reruns_identically(small_world, tmp_path):
    _, inst_path = small_world
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    sol_path = tmp_path / "sol.json"
    for out in (out_a, out_b):
        assert main(["solve", "--instance", str(inst_path), "--iterations", "2",
                     "--seed", "9", "--out", str(out),
                     "--solution-out", str(sol_path)]) == 0
    rows_a, rows_b = read_csv(out_a), read_csv(out_b)
    assert strip_timing(rows_a[1:], rows_a[0]) == strip_timing(rows_b[1:], rows_b[0])
    assert main(["validate", str(sol_path)]) == 0


def test_validate_flags_tampered_solution(small_world, tmp_path):
    _, inst_path = small_world
    sol_path = tmp_path / "sol.json"
    main(["solve", "--instance", str(inst_path), "--seed", "1",
          "--out", str(tmp_path / "s.csv"), "--solution-out", str(sol_path)])
    payload = json.loads(sol_path.read_text())
    # drop every robot onto the same cell at step 0
    for path in payload["paths"]:
        path[0] = payload["paths"][0][0]
    sol_path.write_text(json.dumps(payload))
    assert main(["validate", str(sol_path)]) == 4


def test_lifelong_csv_structure(tmp_path):
    map_path = tmp_path / "w.map"
    out = tmp_path / "ll.csv"
    main(["gen-map", "warehouse", "--width", "21", "--height", "12",
          "--shelf-width", "3", "--shelf-height", "2", "--aisle", "2",
          "--out", str(map_path)])
    assert main(["lifelong", "--map", str(map_path), "--n", "8", "--h", "5",
                 "--total-goals", "30", "--variant", "cut+usage",
                 "--seed", "5", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["cycle", "goals_reached_cumulative", "expansions",
                       "conflicts_in_initial_targets", "solver_ms"]
    cumulative = [int(r[1]) for r in rows[1:]]
    assert cumulative == sorted(cumulative)
    assert cumulative[-1] >= 30


def test_lifelong_rerun_is_deterministic(tmp_path):
    map_path = tmp_path / "w.map"
    main(["gen-map", "warehouse", "--width", "21", "--height", "12",
          "--shelf-width", "3", "--shelf-height", "2", "--aisle", "2",
          "--out", str(map_path)])
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["lifelong", "--map", str(map_path), "--n", "6",
                     "--h", "5", "--total-goals", "20",
                     "--variant", "cut+usage+temporal", "--seed", "7",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        outs.append(strip_timing(rows[1:], rows[0]))
    assert outs[0] == outs[1]


def test_bench_standalone_deterministic_and_normalized(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["bench-standalone", "--width", "12", "--height", "8",
            "--obstacle-ratio", "0.05", "--n", "20", "--r-max", "2",
            "--seeds", "3", "--out"]
    assert main(args + [str(out_a)]) == 0
    assert main(args + [str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()
    rows = read_csv(out_a)
    assert rows[0][:3] == ["seed", "order", "metric"]
    normalized = [r for r in rows if r[0] == "mean_normalized"][0]
    assert float(normalized[3]) == 1.0


def test_unknown_file_exit_code(tmp_path):
    assert main(["solve", "--instance", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_validate_checks_moves_starts_and_goals_given_the_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "map": {"width": 51, "height": 51, "blocked": [[25, 25]]},
        "robots": [{"start": [0, 0], "goals": [[50, 50]]}], "seed": None}))
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"paths": [[[0, 0], [50, 50]]]}))
    assert main(["validate", str(sol_path)]) == 0  # conflicts only
    capsys.readouterr()
    assert main(["validate", str(sol_path), "--instance", str(inst_path)]) == 4
    out = capsys.readouterr().out
    assert "move conflict: robots 0 at t=1 ((0, 0), (50, 50))" in out
    for bad, kind in (([[1, 0], [2, 0]], "start"), ([[0, 0], [1, 0]], "goal"),
                      ([[0, 0], [0, 0]], "goal"), ([[0, 0], [-1, 0]], "move"),
                      ([[0, 0], [1, 1]], "move"),    # a diagonal step
                      ([[50, 0], [0, 1]], "move")):  # off one edge onto the next row
        sol_path.write_text(json.dumps({"paths": [bad]}))
        assert main(["validate", str(sol_path), "--instance", str(inst_path)]) == 4
        assert f"{kind} conflict: robots 0" in capsys.readouterr().out
    sol_path.write_text(json.dumps({"paths": [[[0, 0]], [[1, 1]]]}))
    assert main(["validate", str(sol_path), "--instance", str(inst_path)]) == 2


def test_validate_accepts_solve_output_given_the_instance(small_world, tmp_path):
    _, inst_path = small_world
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--instance", str(inst_path), "--seed", "2",
                 "--out", str(tmp_path / "s.csv"),
                 "--solution-out", str(sol_path)]) == 0
    assert main(["validate", str(sol_path), "--instance", str(inst_path)]) == 0


def test_validate_prints_one_robot_faults(tmp_path, monkeypatch, capsys):
    import spreadplan.cli as cli
    from spreadplan.oneshot import Conflict

    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps({"paths": [[[0, 0], [5, 5]]]}))
    monkeypatch.setattr(cli, "validate_solution", lambda paths, grid, tasks: [
        Conflict("move", (0,), 1, ((0, 0), (5, 5))),
        Conflict("vertex", (0, 2), 3, (1, 1))])
    assert main(["validate", str(sol_path)]) == 4
    out = capsys.readouterr().out
    assert "move conflict: robots 0 at t=1" in out
    assert "vertex conflict: robots 0,2 at t=3" in out
