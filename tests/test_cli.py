import json
from fractions import Fraction

from click.testing import CliRunner

import pytest

from ymesh import cli
from ymesh.cli import main
from ymesh.mesh import (DegenerateConfig, MeshError, MeshWindow, check_relations,
                        generate_1d, generate_window, step_1d)
from ymesh.projective import Point
from ymesh.serialize import dumps, loads, mesh_from_json, mesh_to_json
from ymesh.yvars import check_eqmain
from ymesh.zoo import ZOO, zoo_dim, zoo_pin


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_pin_info_reports_invariants():
    res = run("pin", "info", "--name", "pentagram")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["m"] == 1 and obj["l"] == 2
    assert set(obj["D"].values()) == {2}
    assert obj["case"] == "long_diagonal"


def test_pin_info_accepts_raw_json():
    pin = '{"a": [0, 0], "b": [2, 0], "c": [0, 1], "d": [1, 1]}'
    res = run("pin", "info", "--pin", pin)
    assert res.exit_code == 0
    assert json.loads(res.output)["case"] == "long_diagonal"


def test_pin_list_covers_zoo():
    res = run("pin", "list")
    assert res.exit_code == 0
    for name in ("pentagram", "giraffe", "penguin"):
        assert name in res.output


def test_unknown_pin_is_config_error():
    res = run("pin", "info", "--name", "unicorn")
    assert res.exit_code == 2


def test_mesh_gen_check_roundtrip(tmp_path):
    path = str(tmp_path / "mesh.json")
    res = run("mesh", "gen", "--name", "sideways", "--dim", "2",
              "--cols", "20", "--steps", "2", "--seed", "5", "--out", path)
    assert res.exit_code == 0
    res = run("mesh", "check", "--mesh", path)
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["ok"] and rep["instances"]["line"] > 0


def test_mesh_gen_is_seed_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        res = run("mesh", "gen", "--name", "pentagram", "--dim", "2",
                  "--cols", "12", "--seed", "9", "--out", path)
        assert res.exit_code == 0
    assert open(a).read() == open(b).read()


def test_mesh_step_forward_then_back(tmp_path):
    base = str(tmp_path / "m.json")
    fwd = str(tmp_path / "f.json")
    run("mesh", "gen", "--name", "pentagram", "--dim", "2", "--cols", "16",
        "--steps", "2", "--seed", "1", "--out", base)
    res = run("mesh", "step", "--mesh", base, "-n", "1", "--out", fwd)
    assert res.exit_code == 0
    res = run("mesh", "step", "--mesh", fwd, "-n", "-1")
    assert res.exit_code == 0
    back = loads(res.output)
    orig = loads(open(base).read())
    back_rows = {r["j"]: r for r in back["rows"]}
    # the common window must agree point for point
    for row in orig["rows"]:
        if row["j"] not in back_rows:
            continue
        br = back_rows[row["j"]]
        for k, pt in enumerate(row["points"]):
            i = row["i_lo"] + k
            kb = i - br["i_lo"]
            if 0 <= kb < len(br["points"]) and br["points"][kb] is not None:
                assert br["points"][kb] == pt


def test_mesh_step_on_1d_mesh(tmp_path):
    base = str(tmp_path / "m.json")
    run("mesh", "gen", "--name", "pentagram", "--dim", "1", "--cols", "20",
        "--seed", "0", "--out", base)
    res = run("mesh", "step", "--mesh", base, "-n", "1")
    assert res.exit_code == 0, res.output
    gen = run("mesh", "gen", "--name", "pentagram", "--dim", "1", "--cols", "20",
              "--steps", "1", "--seed", "0")
    assert loads(res.output)["rows"] == loads(gen.output)["rows"]
    res = run("mesh", "step", "--mesh", base, "-n", "-1")
    assert res.exit_code == 0, res.output


def test_mesh_dim_too_large_is_config_error():
    res = run("mesh", "gen", "--name", "pentagram", "--dim", "9", "--cols", "10")
    assert res.exit_code == 2


def test_verify_eqmain(tmp_path):
    path = str(tmp_path / "mesh.json")
    run("mesh", "gen", "--name", "pentagram", "--dim", "2", "--cols", "24",
        "--steps", "4", "--seed", "2", "--out", path)
    res = run("verify", "eqmain", "--mesh", path)
    assert res.exit_code == 0
    rep = json.loads(res.output)
    assert rep["instances"] > 0 and rep["failures"] == []


@pytest.mark.parametrize("name", ["dented", "elephant", "kangaroo", "rabbit"])
def test_verify_eqmain_counts_every_base(tmp_path, name):
    # bases whose own index is not a window point count too
    path = str(tmp_path / "mesh.json")
    l = zoo_pin(name).l
    run("mesh", "gen", "--name", name, "--dim", "2", "--cols", str(8 * (l + 2)),
        "--steps", str(l + 2), "--seed", "0", "--out", path)
    res = run("verify", "eqmain", "--mesh", path)
    assert res.exit_code == 0, res.output
    w = mesh_from_json(loads(open(path).read()))
    assert json.loads(res.output)["instances"] == check_eqmain(w)["checked"]


def test_verify_eqmain_exit_code(tmp_path):
    w = generate_1d(zoo_pin("pentagram"), 0, 20, seed=9)
    w = step_1d(step_1d(w))
    path = str(tmp_path / "mesh.json")
    moved = Point((Fraction(37, 7), 1))
    for point, code, failures in ((w.points[(5, 2)], 0, []),
                                  (moved, 1, [[1, 1], [2, 1], [3, 1], [4, 1], [5, 1]])):
        mesh = w.copy()
        mesh.points[(5, 2)] = point
        with open(path, "w") as fh:
            fh.write(dumps(mesh_to_json(mesh)))
        res = run("verify", "eqmain", "--mesh", path)
        assert res.exit_code == code, res.output
        assert json.loads(res.output) == {"kind": "eqmain", "instances": 14, "failures": failures}


def test_quiver_build_and_verify():
    res = run("quiver", "build", "--name", "short_diagonal", "--n", "6")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert len(obj["vertices"]) == 6 * 3  # n * l
    res = run("quiver", "verify", "--name", "short_diagonal", "--n", "6")
    assert res.exit_code == 0
    assert json.loads(res.output)["period_one"] is True


def test_quiver_verify_small_n_is_config_error():
    res = run("quiver", "verify", "--name", "giraffe", "--n", "4")
    assert res.exit_code == 2


def test_quiver_run_emits_trace_csv():
    res = run("quiver", "run", "--name", "pentagram", "--n", "7",
              "--steps", "8", "--seed", "3")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "r_i,r_j,y_num,y_den"
    assert len(lines) > 1


def test_quiver_run_geometric_init():
    res = run("quiver", "run", "--name", "pentagram", "--n", "8",
              "--steps", "6", "--init", "geometric", "--seed", "4")
    assert res.exit_code == 0


def test_lift_reports_generator():
    pin = '{"a": [-1, 1], "b": [1, 1], "c": [0, 2], "d": [0, 3]}'
    res = run("lift", "--pin", pin, "--width", "5", "--height", "5")
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert obj["generator"] == [3, -3]
    assert obj["arrows"]


def test_lift_collision_is_config_error():
    res = run("lift", "--name", "lower_pentagram")
    assert res.exit_code == 2


def test_fractal_points():
    res = run("fractal", "--name", "giraffe", "--k", "2", "--base", "0", "0")
    assert res.exit_code == 0
    assert len(json.loads(res.output)["points"]) == 10


def test_export_quiver_dot(tmp_path):
    q = str(tmp_path / "q.json")
    d = str(tmp_path / "q.dot")
    run("quiver", "build", "--name", "pentagram", "--n", "5", "--out", q)
    res = run("export", "quiver-dot", "--in", q, "--out", d)
    assert res.exit_code == 0
    assert open(d).read().startswith("digraph")


def test_mesh_on_one_line_is_degenerate_data(tmp_path):
    # distinct points on the line y = z pass every collinearity check but do
    # not span RP^2: degenerate data (exit 3), not a configuration error
    w = MeshWindow(zoo_pin("sideways"), 2)
    for i in range(8):
        for j in (1, 2):
            w.set((i, j), Point((i + 8 * j, 1, 1)))
    path = str(tmp_path / "line.json")
    open(path, "w").write(dumps(mesh_to_json(w)))
    res = run("mesh", "check", "--mesh", path)
    assert res.exit_code == 3, res.output
    assert "does not span RP^2" in res.output


def test_bad_json_is_config_error(tmp_path):
    path = str(tmp_path / "bad.json")
    open(path, "w").write("{not json")
    res = run("mesh", "check", "--mesh", path)
    assert res.exit_code == 2


def test_verify_all_at_default_seed():
    # the penguin/2 draw at seed 0 used to propagate into coincident points,
    # so the run stopped with exit code 2
    res = run("verify", "all", env={"YMESH_SEED": "0"})
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["seed"] == 0
    penguin = [job for job in report["jobs"] if job["pin"] == "penguin" and job["dim"] == 2]
    assert penguin and penguin[0]["checks"]["relations"]["L1"] > 0


def test_verify_all_reports_every_job_past_a_failure(monkeypatch):
    def failing(w):
        if w.pin == zoo_pin("pentagram"):
            raise MeshError("L1 collinearity fails at base (0, 1)")
        return check_relations(w)

    monkeypatch.setattr(cli, "check_relations", failing)
    res = CliRunner().invoke(main, ["verify", "all", "--seed", "0"])
    assert res.exit_code == 2, res.output
    report = json.loads(res.stdout)
    assert report["hard_failures"] == 1
    failed = [job for job in report["jobs"] if job["status"] != "ok"]
    assert [(job["pin"], job["dim"]) for job in failed] == [("pentagram", 2)]
    assert failed[0]["error"] == {"type": "MeshError",
                                  "message": "L1 collinearity fails at base (0, 1)"}
    assert failed[0]["height_max_bits"] > 0
    assert "config error: L1 collinearity fails" in res.stderr
    # every job is still reported, after the failed one too
    want = [(name, dim) for name in sorted(ZOO)
            for dim in sorted({1, 2, min(3, zoo_dim(name)), zoo_dim(name)})
            if dim <= zoo_dim(name)]
    assert [(job["pin"], job["dim"]) for job in report["jobs"]] == want
    assert all(job["seconds"] >= 0 and job["height_max_bits"] > 0 for job in report["jobs"])


def test_verify_all_reports_a_degenerate_draw_as_failed(monkeypatch):
    # a job whose draws all propagate degenerately is degenerate data, not a
    # skip: it fails, and the command exits 3
    def degenerate(pin, *args, **kw):
        if pin == zoo_pin("sideways"):
            raise DegenerateConfig("32 draws of the window all propagated degenerately")
        return generate_window(pin, *args, **kw)

    monkeypatch.setattr(cli, "generate_window", degenerate)
    res = CliRunner().invoke(main, ["verify", "all", "--seed", "0"])
    assert res.exit_code == 3, res.output
    report = json.loads(res.stdout)
    assert report["hard_failures"] == 1
    failed = [job for job in report["jobs"] if job["status"] != "ok"]
    assert [(job["pin"], job["dim"], job["status"]) for job in failed] == [
        ("sideways", 2, "failed")]
    assert failed[0]["error"] == {"type": "DegenerateConfig",
                                  "message": "32 draws of the window all propagated degenerately"}
    assert all("skips" not in job for job in report["jobs"])
    assert "degenerate data: 32 draws" in res.stderr
