"""Tests of the benchmark's own arithmetic: instance enumeration, heights,
span self times, wrapping at import sites, and the tail percentile.

    python3 -m pytest perfbench
"""

import json
import os
from fractions import Fraction

import pytest

from ymesh import fractal, mesh, projective, quiver, rational, yvars
from ymesh.mesh import MeshWindow
from ymesh.zoo import zoo_pin

from perfbench import instances as inst
from perfbench import layers, spans
from perfbench.run import ROOT, end_to_end, load_library, tail
from perfbench.workloads import PassRecord

PENTAGRAM = zoo_pin("pentagram")  # a=(0,0) b=(2,0) c=(0,1) d=(1,1)


def _window(rows, cols, periodic_n=None):
    w = MeshWindow(PENTAGRAM, 2, periodic_n=periodic_n)
    for j in rows:
        for i in cols:
            w.set((i, j), None)
    return w


def test_y_bases_by_hand():
    # r, r+(2,0), r+(0,1), r+(1,1) inside rows 1..2, columns 0..5: r2 = 1 and
    # r1 = 0..3
    w = _window(rows=(1, 2), cols=range(6))
    assert inst.window_bases(w, inst.Y_WORDS) == {(0, 1), (1, 1), (2, 1), (3, 1)}


def test_y_bases_periodic_counts_each_base_once():
    # on a closed 5-gon every column is a base, once each
    w = _window(rows=(1, 2), cols=range(5), periodic_n=5)
    assert inst.window_bases(w, inst.Y_WORDS) == {(i, 1) for i in range(5)}


def test_menelaus_bases_by_hand():
    # offsets ad=(1,1) ac=(0,1) ab=(2,0) bc=(2,1) bd=(3,1) cd=(1,2): rows 1..3
    # leave r2 = 1; columns 0..5 leave r1 = 0..2 (0..4 on a closed 5-gon)
    assert inst.window_bases(_window((1, 2, 3), range(6)), inst.MENELAUS_WORDS) == \
        {(0, 1), (1, 1), (2, 1)}
    assert len(inst.window_bases(_window((1, 2, 3), range(5), 5), inst.MENELAUS_WORDS)) == 5


def test_eqmain_bases_match_library_on_open_window():
    w = mesh.generate_window(PENTAGRAM, 2, 0, 12, seed=3)
    for _ in range(3):
        w = mesh.step_forward(w)
    counts = yvars.check_eqmain(w)
    assert counts["checked"] + counts["skipped"] == len(inst.window_bases(w, inst.EQMAIN_WORDS))


def test_periodic_library_count_is_not_below_enumeration():
    w = mesh.generate_polygon_window(PENTAGRAM, 7, seed=1)
    for _ in range(4):
        w = mesh.step_forward(w)
    counts = yvars.check_eqmain(w)
    distinct = len(inst.window_bases(w, inst.EQMAIN_WORDS))
    assert distinct == 7 * 2  # base rows 1..2 fit the 5-row window
    assert counts["checked"] + counts["skipped"] > distinct  # the scan revisits bases


def test_fractal_bases_match_library():
    w = mesh.generate_window(PENTAGRAM, 2, 0, 10, seed=0)
    for _ in range(2):
        w = mesh.step_forward(w)
    for k in (1, 2):
        assert set(fractal.fractal_bases_in_window(w, k)) == inst.fractal_bases(w, k)


def test_heights():
    p = projective.Point((Fraction(1, 2), Fraction(3, 4), 1))  # primitive (2, 3, 4)
    assert inst.point_bits(p) == 3
    assert inst.y_bits(rational.ExtQ(-5, 3)) == 3
    assert inst.y_bits(rational.ExtQ.infinity()) == 1


def test_exchange_trace_instances_match_library():
    pin = zoo_pin("pentagram")
    n = 7
    i0, l = quiver.qs_period(pin)
    y0 = {(i, j): Fraction(2 + i, 3 + j) for i in range(n) for j in range(l)}
    exported, _ = quiver.run_periodic_y(pin, n, y0, 8)
    outs, ins = quiver.arrows_at_origin(pin)
    total, degenerate = inst.exchange_trace_instances(n, i0, l, exported, outs, ins)
    assert degenerate == 0
    assert quiver.check_exchange_trace(pin, n, exported) == total


def test_self_times_of_nested_spans():
    # 0: [0, 10] root; 1: [1, 4] in 0; 2: [2, 3] in 1; 3: [5, 9] in 0
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(start, end, parent)) == 10.0  # the root's duration


def test_tracer_wraps_every_import_site():
    lib = load_library()
    original = lib.projective.meet_point
    tracer = spans.Tracer()
    layers.install(tracer, lib)
    try:
        assert lib.mesh.meet_point is lib.projective.meet_point is not original
        w = lib.mesh.generate_window(PENTAGRAM, 2, 0, 8, seed=0)
        tracer.active = True
        lib.mesh.step_forward(w)
        tracer.active = False
        calls, self_s, rooted = tracer.aggregate()
        assert calls["mesh.step"] == 1
        assert calls["projective.meet_point"] >= 1
        step = tracer.names.index("mesh.step")
        meets = [k for k in range(len(tracer)) if tracer.names[tracer.name_id[k]] == "projective.meet_point"]
        assert all(tracer.names[tracer.name_id[tracer.parent[k]]] == "mesh.step" for k in meets)
        assert tracer.name_id[0] == step and tracer.parent[0] == -1
        assert sum(self_s.values()) == pytest.approx(rooted)
    finally:
        tracer.uninstall()
    assert lib.mesh.meet_point is original and lib.projective.meet_point is original


def test_tail_is_the_value_with_ten_beyond():
    values = list(range(1, 35))  # 34 samples
    assert tail(values) == (24, pytest.approx(100 * 24 / 34))
    with pytest.raises(ValueError):
        tail(range(10))


def test_reported_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rec = PassRecord()
    rec.job_s = rec.job_ref_s = [0.5] * 11
    rec.attempted, rec.checked, rec.instances, rec.heights = 11, 20, 20, [3, 5]
    metrics, _ = end_to_end([rec], setup_s=0.1)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    assert all(metrics[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    per_layer = layers.per_layer(spans.Tracer(), layers.Observations(), [rec], 5.0, [])
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(per_layer[m["name"]][1] == m["unit"] for m in spec["per_layer"])
