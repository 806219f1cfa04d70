import json
import os
import subprocess
import sys
from fractions import Fraction

from click.testing import CliRunner

import pytest

import ymesh
from ymesh import battery, mesh
from ymesh.cli import main
from ymesh.mesh import (DegenerateConfig, MeshError, MeshWindow, bases, check_relations,
                        generate_1d, generate_polygon_window, generate_reduced, generate_window,
                        step_1d)
from ymesh.ijmap import row_polygon, t_ij
from ymesh.pins import ij_correspondence
from ymesh.projective import Point
from ymesh.serialize import dumps, loads, mesh_from_json, mesh_to_json, point_to_json
from ymesh.yvars import EQMAIN_LABELS, check_eqmain
from ymesh.zoo import zoo_pin


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


def _mesh_json(edit):
    obj = mesh_to_json(generate_1d(zoo_pin("pentagram"), 0, 6, seed=0))
    edit(obj)
    return obj


@pytest.mark.parametrize("obj", [
    _mesh_json(lambda obj: obj.pop("pin")),
    _mesh_json(lambda obj: obj["rows"][0]["points"].__setitem__(1, ["1/0", "1"])),
    _mesh_json(lambda obj: obj["rows"][0]["points"].__setitem__(1, ["1", "1", "1"])),
], ids=["no-pin", "zero-denominator", "mixed-length"])
def test_malformed_mesh_json_is_config_error(tmp_path, obj):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(obj))
    res = run("mesh", "check", "--mesh", str(path))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and res.output.startswith("config error: ")


@pytest.mark.parametrize("obj", [
    {"vertices": [1, 2]},
    {"vertices": [1, 2], "arrows": [[1, 2]]},
    {"vertices": [1, 2], "arrows": [[1, 2, "x"]]},
], ids=["no-arrows", "arrow-without-multiplicity", "string-multiplicity"])
def test_malformed_quiver_json_is_config_error(tmp_path, obj):
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(obj))
    res = run("export", "quiver-dot", "--in", str(path), "--out", str(tmp_path / "q.dot"))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and res.output.startswith("config error: ")


@pytest.mark.parametrize("pin", [
    '{"a": [0, 0]}', '{"a": [0, 0], "b": [2, 0], "c": [0, 1], "d": "x"}',
], ids=["missing-points", "string-point"])
def test_malformed_pin_json_is_config_error(pin):
    res = run("pin", "info", "--pin", pin)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit) and res.output.startswith("config error: a pin is")


def test_mesh_gen_on_a_long_side_pin():
    # generation once read a circuit member of this pin before placing it
    res = run("mesh", "gen", "--pin", '{"a":[3,0],"b":[2,3],"c":[2,4],"d":[3,4]}',
              "--dim", "2", "--cols", "36")
    assert res.exit_code == 0, res.output


def test_mesh_dim_too_large_is_config_error():
    res = run("mesh", "gen", "--name", "pentagram", "--dim", "9", "--cols", "10")
    assert res.exit_code == 2


def test_malformed_seed_variable_is_config_error():
    res = run("mesh", "gen", "--name", "pentagram", "--dim", "2", env={"YMESH_SEED": "abc"})
    assert res.exit_code == 2, res.output
    assert "(env var: 'YMESH_SEED'): 'abc' is not a valid integer" in res.stderr


def test_negative_step_count_is_config_error():
    res = run("mesh", "gen", "--name", "pentagram", "--dim", "2", "--steps", "-3")
    assert res.exit_code == 2 and "'--steps': -3" in res.stderr, res.output


def test_commands_close_the_files_they_read(tmp_path):
    # -X dev shows a ResourceWarning for every file left to the collector
    path = tmp_path / "mesh.json"
    w = generate_window(zoo_pin("pentagram"), 2, 0, 24, seed=2)
    path.write_text(dumps(mesh_to_json(w)))
    src = os.path.dirname(os.path.dirname(ymesh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in (("mesh", "check"), ("mesh", "step"), ("verify", "eqmain")):
        res = subprocess.run([sys.executable, "-X", "dev", "-m", "ymesh.cli", *command,
                              "--mesh", str(path)], capture_output=True, text=True, env=env)
        assert res.returncode == 0 and "ResourceWarning" not in res.stderr, (command, res.stderr)


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


def test_a_point_off_its_lines_fails_an_identity_everywhere(tmp_path):
    # the point (11, 3) moved one unit off its lines: every command that
    # checks an identity on the mesh exits 1, none reports a config error
    # (2) or degenerate data (3)
    path = str(tmp_path / "mesh.json")
    run("mesh", "gen", "--name", "pentagram", "--dim", "2", "--cols", "24",
        "--steps", "4", "--seed", "0", "--out", path)
    w = mesh_from_json(loads(open(path).read()))
    z = list(w.points[(11, 3)].z)
    z[0] += 1
    w.points[(11, 3)] = Point(z)
    open(path, "w").write(dumps(mesh_to_json(w)))
    for command, message in ((("verify", "eqmain"), "the points of L_(10,2) span rank 3"),
                             (("verify", "menelaus"), "Menelaus triple not collinear"),
                             (("mesh", "check"), "L1 collinearity fails at base (11, 2)")):
        res = CliRunner().invoke(main, [*command, "--mesh", path])
        assert res.exit_code == 1, (command, res.output)
        assert res.stderr.startswith("identity failed: ") and message in res.stderr, command


def test_verify_eqmain_reports_every_base_on_a_line_off_its_line(tmp_path):
    # the point (11, 3) moved off its lines: each base that needs one of
    # the four lines through it fails, and each such line is named
    path = str(tmp_path / "mesh.json")
    run("mesh", "gen", "--name", "pentagram", "--dim", "2", "--cols", "24",
        "--steps", "4", "--seed", "0", "--out", path)
    w = mesh_from_json(loads(open(path).read()))
    pin = w.pin
    offsets = [pin.offset(y + p) for y in EQMAIN_LABELS for p in "abcd"]
    touching = [list(r) for r in bases(w, offsets)
                if (11, 3) in {(r[0] + o1, r[1] + o2) for o1, o2 in offsets}]
    z = list(w.points[(11, 3)].z)
    z[0] += 1
    w.points[(11, 3)] = Point(z)
    open(path, "w").write(dumps(mesh_to_json(w)))
    res = run("verify", "eqmain", "--mesh", path)
    assert res.exit_code == 1, res.output
    assert json.loads(res.stdout) == {"kind": "eqmain", "instances": len(bases(w, offsets)),
                                      "failures": touching}
    named = {line.split(" span")[0] for line in res.stderr.splitlines()}
    assert named == {"identity failed: the points of L_(%d,%d)" % (11 - o1, 3 - o2)
                     for o1, o2 in pin.points}


@pytest.mark.parametrize("dim, steps", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_empty_window_is_config_error(dim, steps):
    res = run("mesh", "gen", "--name", "pentagram", "--dim", str(dim), "--cols", "-3",
              "--steps", str(steps))
    assert res.exit_code == 2 and "config error: empty window" in res.stderr, res.output


@pytest.mark.parametrize("dim", [1, 2])
def test_stepping_a_mesh_with_no_points_is_config_error(tmp_path, dim):
    path = str(tmp_path / "mesh.json")
    open(path, "w").write(dumps(mesh_to_json(MeshWindow(zoo_pin("pentagram"), dim))))
    for count in ("1", "-1"):
        res = run("mesh", "step", "--mesh", path, "-n", count)
        assert res.exit_code == 2 and res.stderr.startswith("config error: "), res.output


@pytest.mark.parametrize("generate", [
    lambda pin: generate_window(pin, 2, 5, 4), lambda pin: generate_1d(pin, 5, 4),
    lambda pin: generate_reduced(pin, 5, 4)], ids=["window", "1d", "reduced"])
def test_generators_reject_an_empty_column_range(generate):
    with pytest.raises(MeshError, match="empty window") as raised:
        generate(zoo_pin("pentagram"))
    assert not isinstance(raised.value, DegenerateConfig)


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


def test_quiver_run_on_a_quiver_that_is_not_period_one_exits_1(monkeypatch):
    # the run makes the period-one check before it drives any sweep
    from ymesh import quiver
    build = quiver.build_qs

    def broken(pin, n):
        q = build(pin, n)
        q._bump((0, pin.l - 1), (n // 2, pin.l - 1), 1)
        return q

    monkeypatch.setattr(quiver, "build_qs", broken)
    res = run("quiver", "run", "--name", "pentagram", "--n", "7", "--steps", "8", "--seed", "3")
    assert res.exit_code == 1, res.output
    assert "mu_row0(Q) != rho(Q)" in res.output


@pytest.mark.parametrize("init", ["random", "geometric"])
@pytest.mark.parametrize("n", ["2", "4"])
def test_quiver_run_small_n_is_config_error_for_both_inits(init, n):
    # the geometric init drew a polygon first, which exited 3 (degenerate data)
    res = run("quiver", "run", "--name", "pentagram", "--n", n, "--init", init, "--seed", "1")
    assert res.exit_code == 2, res.output
    assert res.output == "config error: need n >= 3 and n > 2*max|offset i| = 4\n"


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
    res = run("fractal", "--name", "pentagram", "--k", "0", "--base", "3", "1")
    assert res.exit_code == 0 and json.loads(res.output)["points"] == [[3, 1]], res.output


@pytest.mark.parametrize("args,option", [(("lift", "--width", "-3", "--height", "2"), "--width"),
                                         (("lift", "--height", "0"), "--height"),
                                         (("fractal", "--k", "-2"), "--k")],
                         ids=["lift-width", "lift-height", "fractal-k"])
def test_negative_size_is_config_error(args, option):
    # a negative width or order printed an empty quiver or point list, exit 0
    res = run(*args, "--name", "pentagram")
    assert res.exit_code == 2 and "Invalid value for '%s'" % option in res.stderr, res.output


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


def test_colliding_periodic_columns_are_config_error(tmp_path):
    # a 7-gon row whose columns 7 and 8 fold onto vertices 0 and 1
    obj = mesh_to_json(generate_polygon_window(zoo_pin("pentagram"), 7, seed=1))
    obj["rows"][0]["points"] += obj["rows"][0]["points"][1:3]
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(obj))
    res = run("mesh", "check", "--mesh", str(path))
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: two entries of the mesh fall on the index (0, 1)")


@pytest.mark.parametrize("args", [("pentagram", "2", "0"), ("pentagram", "2", "1"),
                                  ("elephant", "6", "1")])
def test_window_too_small_to_span_is_config_error(tmp_path, args):
    name, dim, cols = args
    res = run("mesh", "gen", "--name", name, "--dim", dim, "--cols", cols,
              "--out", str(tmp_path / "mesh.json"))
    assert res.exit_code == 2, res.output
    assert res.output.startswith("config error: a window spanning RP^%s needs >= " % dim)


def test_bad_json_is_config_error(tmp_path):
    path = str(tmp_path / "bad.json")
    open(path, "w").write("{not json")
    res = run("mesh", "check", "--mesh", path)
    assert res.exit_code == 2


def _short_diagonal_mesh(tmp_path):
    path = str(tmp_path / "mesh.json")
    res = run("mesh", "gen", "--name", "short_diagonal", "--dim", "3",
              "--cols", "20", "--steps", "1", "--seed", "2", "--out", path)
    assert res.exit_code == 0, res.output
    return path


def test_ijmap_matches_library(tmp_path):
    path = _short_diagonal_mesh(tmp_path)
    w = mesh_from_json(loads(open(path).read()))
    I, J, _ = ij_correspondence(zoo_pin("short_diagonal"))
    row = w.rows()[1]
    res = run("ijmap", "--mesh", path, "--row", str(row),
              "--i-tuple", ",".join(map(str, I)), "--j-tuple", ",".join(map(str, J)))
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    img = t_ij(row_polygon(w, row), I, J)
    assert (out["row"], out["I"], out["J"]) == (row, list(I), list(J))
    assert out["points"] == {str(i): point_to_json(p) for i, p in img.items()}
    assert len(img) >= 10


@pytest.mark.parametrize("row, i_tuple, j_tuple, message", [
    ("9", "2,2", "-1,2", "row 9 is not in the mesh"),
    ("1", "1,x", "-1,2", "I and J must be comma-separated integers, got '1,x' and '-1,2'"),
    ("1", "2,2", "-1,", "I and J must be comma-separated integers, got '2,2' and '-1,'"),
    ("1", "2,2,2", "-1,2", "tuples must have length D-1 = 2"),
], ids=["missing-row", "malformed-i", "malformed-j", "wrong-length"])
def test_ijmap_bad_input_is_config_error(tmp_path, row, i_tuple, j_tuple, message):
    path = _short_diagonal_mesh(tmp_path)
    res = run("ijmap", "--mesh", path, "--row", row, "--i-tuple", i_tuple, "--j-tuple", j_tuple)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output == "config error: %s\n" % message


def test_verify_all_at_default_seed():
    # the penguin/2 draw at seed 0 used to propagate into coincident points,
    # so the run stopped with exit code 2
    res = run("verify", "all", env={"YMESH_SEED": "0"})
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["seed"] == 0
    penguin = [job for job in report["jobs"] if job["pin"] == "penguin" and job["dim"] == 2]
    assert penguin and penguin[0]["checks"]["relations"]["L1"] > 0


def test_verify_all_checks_the_six_point_relation_at_every_dim():
    res = run("verify", "all", "--seed", "0")
    assert res.exit_code == 0, res.output
    jobs = json.loads(res.output)["jobs"]
    assert [(job["pin"], job["dim"]) for job in jobs] == battery.jobs()
    assert sum(job["dim"] >= 2 for job in jobs) == 22
    assert all(job["checks"]["menelaus"] > 0 for job in jobs)


def test_verify_all_reports_every_job_past_a_failure(monkeypatch):
    def failing(w):
        if w.pin == zoo_pin("pentagram"):
            raise MeshError("L1 collinearity fails at base (0, 1)")
        return check_relations(w)

    monkeypatch.setattr(battery, "check_relations", failing)
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
    assert [(job["pin"], job["dim"]) for job in report["jobs"]] == battery.jobs()
    assert all(job["seconds"] >= 0 and job["height_max_bits"] > 0 for job in report["jobs"])


def test_verify_all_reports_a_degenerate_draw_as_failed(monkeypatch):
    # a job whose draws all propagate degenerately is degenerate data, not a
    # skip: it fails, and the command exits 3
    def degenerate(pin, *args, **kw):
        if pin == zoo_pin("sideways"):
            raise DegenerateConfig("32 draws of the window all propagated degenerately")
        return generate_window(pin, *args, **kw)

    monkeypatch.setattr(battery, "generate_window", degenerate)
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


def test_verify_all_reports_the_draws_of_each_job(monkeypatch):
    want = {}
    for name, dim in battery.jobs():
        pin = zoo_pin(name)
        if dim >= 2:
            want[(name, dim)] = generate_window(pin, dim, 0, battery.columns(pin), seed=0).draws
    rejected = []
    guard = mesh._propagates

    def reject_first_sideways(window, steps, rule):
        if window.pin == zoo_pin("sideways") and not rejected:
            rejected.append(window)
            return False
        return guard(window, steps, rule)

    monkeypatch.setattr(mesh, "_propagates", reject_first_sideways)
    res = run("verify", "all", "--seed", "0")
    assert res.exit_code == 0, res.output
    draws = {(job["pin"], job["dim"]): job["draws"] for job in json.loads(res.output)["jobs"]}
    assert rejected and draws.pop(("sideways", 2)) > want.pop(("sideways", 2))
    assert {k: n for k, n in draws.items() if k[1] >= 2} == want
    assert all(n == 1 for (_, dim), n in draws.items() if dim == 1)
