import csv
import io
from fractions import Fraction

import pytest

from ymesh.rational import ExtQ
from ymesh.projective import Point
from ymesh.quiver import Quiver, build_qs
from ymesh.mesh import MeshError, generate_polygon_window, generate_window, step_forward
from ymesh.zoo import zoo_pin
from ymesh.serialize import (point_to_json, point_from_json, pin_to_json,
                             pin_from_json, mesh_to_json, mesh_from_json,
                             quiver_to_json, quiver_from_json, quiver_to_dot,
                             y_trace_csv, mesh_rows_csv, fractal_table_csv,
                             dumps, loads)


def test_point_round_trip():
    p = Point([Fraction(1, 3), Fraction(-2), Fraction(1)])
    assert point_from_json(point_to_json(p)) == p


def test_pin_round_trip(zoo_name):
    pin = zoo_pin(zoo_name)
    back = pin_from_json(loads(dumps(pin_to_json(pin))))
    assert back.points == pin.points


def test_mesh_round_trip():
    pin = zoo_pin("sideways")
    w = generate_window(pin, 2, 0, 12, seed=3)
    w = step_forward(w)
    back = mesh_from_json(loads(dumps(mesh_to_json(w, seed=3))))
    assert back.pin.points == pin.points and back.dim == w.dim
    assert back.rows() == w.rows()
    for j in w.rows():
        assert back.row_cols(j) == w.row_cols(j)
        for i in w.row_cols(j):
            assert back.get((i, j)) == w.get((i, j))


def test_mesh_with_null_gaps_round_trips():
    w = step_forward(generate_polygon_window(zoo_pin("pentagram"), 7, seed=1))
    for key in [(2, 1), (5, 1), (0, 2), (6, 2)]:
        del w.points[key]
    obj = loads(dumps(mesh_to_json(w)))
    assert [row["points"].count(None) for row in obj["rows"]] == [2, 0]
    assert mesh_from_json(obj).points == w.points


def _polygon_with_extra_columns(extra):
    """A pentagram 7-gon in JSON whose row holds `extra` more entries."""
    obj = mesh_to_json(generate_polygon_window(zoo_pin("pentagram"), 7, seed=1))
    row = obj["rows"][0]
    row["points"] += [list(p) for p in row["points"][1:1 + extra]]
    return obj


def test_colliding_periodic_columns_are_config_error():
    # columns 7 and 8 fold onto vertices 0 and 1 of the 7-gon
    with pytest.raises(MeshError, match=r"two entries of the mesh fall on the index \(0, 1\)"):
        mesh_from_json(_polygon_with_extra_columns(2))
    obj = _polygon_with_extra_columns(0)
    assert len(mesh_from_json(obj).points) == 7
    obj["rows"].append(dict(obj["rows"][0], i_lo=3, points=obj["rows"][0]["points"][:1]))
    with pytest.raises(MeshError, match=r"fall on the index \(3, 1\)"):
        mesh_from_json(obj)  # a second row 1, over column 3


def test_quiver_round_trip():
    q = build_qs(zoo_pin("short_diagonal"), 6)
    back = quiver_from_json(loads(dumps(quiver_to_json(q))))
    assert back == q


def test_quiver_dot_syntax():
    q = Quiver({1, 2, 3}, [(1, 2), (1, 2), (2, 3)])
    dot = quiver_to_dot(q, name="g")
    assert dot.startswith("digraph g {") and dot.rstrip().endswith("}")
    assert '"1" -> "2" [label="2"];' in dot
    assert '"2" -> "3";' in dot


def test_y_trace_csv_schema():
    text = y_trace_csv({(0, 1): ExtQ(3, 4), (1, 0): ExtQ(-2)})
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["r_i", "r_j", "y_num", "y_den"]
    assert rows[1] == ["0", "1", "3", "4"]
    assert rows[2] == ["1", "0", "-2", "1"]


def test_mesh_rows_csv_schema():
    w = generate_window(zoo_pin("pentagram"), 2, 0, 6, seed=0)
    rows = list(csv.reader(io.StringIO(mesh_rows_csv(w))))
    assert rows[0] == ["i", "j", "x1", "x2"]
    n_pts = sum(len(w.row_cols(j)) for j in w.rows())
    assert len(rows) == 1 + n_pts
    for r in rows[1:]:
        for cell in r[2:]:
            assert cell == "at_infinity" or Fraction(cell) is not None


def test_fractal_table_csv():
    text = fractal_table_csv([{"k": 1, "samples": 10, "generic": 10}])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [["k", "samples", "generic"], ["1", "10", "10"]]
