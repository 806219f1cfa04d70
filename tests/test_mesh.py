import random
from fractions import Fraction

import pytest

from ymesh import projective
from ymesh.projective import Point, join, meet_point
from ymesh.mesh import (MeshWindow, MeshError, generate_window, generate_1d,
                        generate_reduced, generate_polygon_window,
                        step_forward, step_backward, step_reduced_forward,
                        step_1d, check_relations, check_menelaus, random_point,
                        bases, MENELAUS_WORDS)
from ymesh.fractal import make_fractal, fractal_bases_in_window
from ymesh.quiver import qs_period, run_periodic_y
from ymesh.yvars import check_eqmain, y_of, y_available
from ymesh.pins import Pin, d_of_s, m2_of_s
from ymesh.zoo import ZOO, zoo_pin, zoo_dim, BOUNDARY_PINS


def test_generate_respects_dimension_cap():
    with pytest.raises(MeshError):
        generate_window(zoo_pin("pentagram"), 3, 0, 10)


def test_generate_and_check_relations(zoo_name):
    pin = zoo_pin(zoo_name)
    d = min(2, zoo_dim(zoo_name))
    if d < 2:
        pytest.skip("D(S) = 1 pin: planar windows not admissible")
    w = generate_window(pin, d, 0, 18, seed=0)
    for _ in range(2):
        w = step_forward(w)  # grow so every circuit kind fits the window
    counts = check_relations(w)
    assert counts["L1"] > 0 and counts["line"] > 0


def test_generate_max_dimension(zoo_name):
    pin = zoo_pin(zoo_name)
    d = zoo_dim(zoo_name)
    if d < 2:
        pytest.skip("D(S) = 1")
    if zoo_name in BOUNDARY_PINS and d > 2:
        pytest.skip("boundary generation is planar only")
    w = generate_window(pin, d, 0, 16, seed=1)
    check_relations(w)


def test_pentagram_moment_curve_oracle():
    # pentagram forward rule on the moment curve A_i = (i, i^2):
    # B_0 = meet(join(A_-1, A_1), join(A_0, A_2)) = (1/2, 1)
    pin = zoo_pin("pentagram")
    w = MeshWindow(pin, 2)
    for i in range(-3, 6):
        w.set((i, 1), Point.affine(i, i * i))
    w2 = step_forward(w)
    # base r=(-1,0): sources A_-1, A_1 / A_0, A_2; new label r+c+d = (0, 2)
    expected = meet_point(join(Point.affine(-1, 1), Point.affine(1, 1)),
                          join(Point.affine(0, 0), Point.affine(2, 4)))
    assert expected == Point.affine(Fraction(1, 2), 1)
    assert w2.get((0, 2)) == expected


def test_forward_backward_inverse(zoo_name):
    pin = zoo_pin(zoo_name)
    d = min(2, zoo_dim(zoo_name))
    if d < 2:
        pytest.skip("D(S) = 1")
    w = generate_window(pin, d, 0, 20, seed=2)
    fw = step_forward(w)
    back = step_backward(fw)
    common = [k for k in w.points if k in back.points]
    assert len(common) > 0
    assert all(back.points[k] == w.points[k] for k in common)


def test_reduced_agrees_with_full_on_overlap():
    pin = zoo_pin("rabbit")
    assert m2_of_s(pin) == 2 < pin.m
    w = generate_reduced(pin, 0, 20, seed=3)
    w2 = step_reduced_forward(step_reduced_forward(w))
    # grown window satisfies the full relation set (L2/coplanarity emergent)
    check_relations(w2)


def test_reduced_draws_are_certified(zoo_name):
    pin = zoo_pin(zoo_name)
    a, b, c, d = pin.points
    if d[1] - b[1] < c[1] - a[1]:
        pytest.skip("reduced system needs d2-b2 >= c2-a2")
    if d_of_s(pin) < 2:  # lower_pentagram: no planar windows
        with pytest.raises(MeshError):
            generate_reduced(pin, 0, 8 * (pin.l + 2))
        return
    for seed in range(40):
        w = generate_reduced(pin, 0, 8 * (pin.l + 2), seed=seed)
        for _ in range(3):
            w = step_reduced_forward(w)
        check_relations(w)


def test_1d_engine_forward_backward(zoo_name):
    pin = zoo_pin(zoo_name)
    w = generate_1d(pin, 0, 16 + 2 * pin.l, seed=4)
    fw = step_1d(w)
    assert check_menelaus(fw) > 0
    back = step_1d(fw, backward=True)
    common = [k for k in fw.points if k in back.points]
    assert all(back.points[k] == fw.points[k] for k in common)


def test_polygon_window_requires_m1():
    with pytest.raises(MeshError):
        generate_polygon_window(zoo_pin("sideways"), 8)


def test_polygon_window_periodic_propagation():
    pin = zoo_pin("pentagram")
    w = generate_polygon_window(pin, 7, seed=5, dim=2)
    for _ in range(4):
        w = step_forward(w)
    assert len(w.row_cols(w.rows()[-1])) == 7  # closed rows stay size n
    check_relations(w)


def _propagate_all_rows(w):
    """Forward pin.l + 2 rows, or until the window is too narrow to go on
    (a degenerate meet raises DegenerateError), then check every relation
    instance, which fails on coincident points."""
    for _ in range(w.pin.l + 2):
        try:
            w = step_forward(w)
        except MeshError as e:
            assert "no propagation instance" in str(e)
            break
    check_relations(w)


# at seed 39 the unguarded draws of pentagram and sideways, and at seed 33
# that of gopher, propagate into L1/L2 instances with coincident points
@pytest.mark.parametrize("name", ["short_diagonal", "pentagram", "sideways", "gopher"])
def test_generated_windows_propagate(name):
    pin = zoo_pin(name)
    span = max(p[0] for p in pin.points) - min(p[0] for p in pin.points)
    cols = 4 * (pin.l + 2) + 8 * span  # the acceptance sweep width
    for seed in range(40):
        _propagate_all_rows(generate_window(pin, 2, 0, cols, seed=seed))


def test_generated_window_of_wide_pin_propagates():
    # the unguarded draw at seed 0 had two coincident lines in its first step
    pin = Pin([(0, 0), (1, 0), (0, 1), (-12, 1)])
    _propagate_all_rows(generate_window(pin, 2, 0, 40, seed=0))


# polygon draws that failed before they were certified: coincident vertices
# (pentagram/9/1157200204: "flats meet in rank 0" at step 1) and collinear
# ones (pentagram/9/886338752: y = 0 or inf on row 1, so the Y-dynamics hit
# "inf * 0")
FAILED_POLYGONS = [("pentagram", 9, 1157200204), ("pentagram", 9, 886338752),
                   ("pentagram", 7, 636282949), ("higher_pentagram", 9, 1157200204),
                   ("higher_pentagram", 7, 33)]


@pytest.mark.parametrize("name,n,seed", FAILED_POLYGONS)
def test_certified_polygon_propagates_and_runs_y_dynamics(name, n, seed):
    pin = zoo_pin(name)
    w = generate_polygon_window(pin, n, seed=seed, dim=2)
    for _ in range(8):
        w = step_forward(w)
    check_relations(w)
    assert check_eqmain(w)["skipped"] == 0
    i0, l = qs_period(pin)
    y0 = {}
    for i in range(n):
        y0[(i, 0)] = y_of(w, (i, 3))
        y0[(i, 1)] = y_of(w, ((i - i0) % n, 2)).inv()
    exported, _ = run_periodic_y(pin, n, y0, 6)
    compared = 0
    for (i, j), val in exported.items():
        if j >= 2 and y_available(w, (i, 3 + j)):
            assert val == y_of(w, (i, 3 + j))
            compared += 1
    assert compared >= n


def test_polygon_first_draw_is_unchanged():
    # a first draw that propagates is returned as drawn: n free points from
    # the seeded stream
    pin = zoo_pin("pentagram")
    rng = random.Random(5)
    drawn = [random_point(rng, 2) for _ in range(7)]
    w = generate_polygon_window(pin, 7, seed=5, dim=2)
    assert [w.get((i, 1)) for i in range(7)] == drawn


def test_generation_makes_no_rref_call(monkeypatch):
    # every point is free, an integer combination of circuit members or the
    # meet of two lines; none of these builds an RREF basis
    def no_rref(rows):
        raise AssertionError("rref called")

    monkeypatch.setattr(projective, "rref", no_rref)
    generate_window(zoo_pin("penguin"), 2, 0, 30, seed=0)
    for name in ("rabbit", "giraffe"):
        pin = zoo_pin(name)
        generate_reduced(pin, 0, 8 * (pin.l + 2), seed=0)
    # its redraws meet a line given by one point twice
    pin = zoo_pin("gopher")
    generate_reduced(pin, 0, 8 * (pin.l + 2), seed=33)


@pytest.mark.parametrize("seed", [0, 8, 14, 19, 22, 33, 39])
def test_boundary_draws_are_certified(seed):
    # penguin/2 draws at these seeds propagated into coincident points
    pin = zoo_pin("penguin")
    span = max(p[0] for p in pin.points) - min(p[0] for p in pin.points)
    _propagate_all_rows(generate_window(pin, 2, 0, 4 * (pin.l + 2) + 8 * span, seed=seed))


@pytest.mark.parametrize("points", [[(0, 0), (0, 1), (0, 3), (1, 4)],
                                    [(0, 0), (0, 1), (2, 2), (3, 3)]])
def test_boundary_pin_with_two_binding_lines(points):
    # boundary pins whose L1 and L2 circuits both fit in m rows: the column
    # sweep places some points as the meet of two lines
    pin = Pin(points)
    for seed in range(5):
        w = generate_window(pin, 2, 0, 4 * (pin.l + 2) + 24, seed=seed)
        for _ in range(pin.l + 1):
            w = step_forward(w)
        check_relations(w)


def _offsets(pin, words):
    return [pin.offset(word) for word in words]


def _scanned_instances(window, offsets):
    """Bases by a scan of every base whose offsets can reach the window's
    bounding box, in (r2, r1) order."""
    def span(axis):
        vals = [r[axis] for r in window.points]
        offs = [o[axis] for o in offsets]
        return range(min(vals) - max(offs), max(vals) - min(offs) + 1)

    for r2 in span(1):
        for r1 in span(0):
            if all(window.has((r1 + o1, r2 + o2)) for o1, o2 in offsets):
                yield (r1, r2)


def _offset_families(pin):
    words = [("a", "b", "c"), ("b", "c", "d"), ("ac", "ad", "bc", "bd"), "abcd", MENELAUS_WORDS]
    return ([_offsets(pin, w) for w in words]
            + [sorted(make_fractal(pin, (0, 0), k)) for k in (1, 2, 3)])


@pytest.mark.parametrize("name", ["pentagram", "sideways", "short_diagonal", "penguin"])
def test_instances_from_keys_match_scan(name):
    pin = zoo_pin(name)
    w = generate_window(pin, 2, 0, 14, seed=1)
    for _ in range(3):
        w = step_forward(w)
    for offsets in _offset_families(pin):
        assert list(bases(w, offsets)) == list(_scanned_instances(w, offsets))


def test_periodic_instances_are_distinct_bases():
    w = generate_polygon_window(zoo_pin("pentagram"), 7, seed=1)
    for _ in range(3):
        w = step_forward(w)
    found = list(bases(w, _offsets(w.pin, "abcd")))
    assert len(found) == len(set(found)) == 7 * 3
    assert {r for r in _scanned_instances(w, _offsets(w.pin, "abcd"))
            if 0 <= r[0] < 7} == set(found)


@pytest.mark.parametrize("n,count", [(7, 49), (9, 63)])
def test_periodic_menelaus_counts_each_base_once(n, count):
    # the six-point words of the pentagram span rows 0..2, so the 9 rows
    # after 8 steps hold 7 base rows of n bases each
    w = generate_polygon_window(zoo_pin("pentagram"), n, seed=1)
    for _ in range(8):
        w = step_forward(w)
    assert check_menelaus(w) == count == len(list(bases(w, _offsets(w.pin, MENELAUS_WORDS))))


@pytest.mark.parametrize("i0", [10, 20])
def test_translated_pin_propagates_and_counts_alike(i0):
    # translating the pin moves every base, not the points of the mesh
    pin = zoo_pin("pentagram")
    moved = pin.apply(i0=i0)
    w, wt = generate_1d(pin, 0, 24, seed=0), generate_1d(moved, 0, 24, seed=0)
    assert wt.points == w.points
    fw, fwt = step_1d(w), step_1d(wt)
    assert len(fw.points) > len(w.points) and fwt.points == fw.points
    assert step_1d(fwt, backward=True).points == step_1d(fw, backward=True).points
    assert check_menelaus(fwt) == check_menelaus(fw) > 0
    w, wt = generate_window(pin, 2, 0, 30, seed=0), generate_window(moved, 2, 0, 30, seed=0)
    for _ in range(3):
        w, wt = step_forward(w), step_forward(wt)
    assert wt.points == w.points
    assert check_menelaus(wt) == check_menelaus(w) > 0
    assert check_eqmain(wt) == check_eqmain(w)
    for k in (1, 2, 3):
        assert len(fractal_bases_in_window(wt, k)) == len(fractal_bases_in_window(w, k)) > 0


def test_menelaus_triple_off_a_line_raises():
    # a point moved off its lines leaves six-point instances whose triples
    # are not collinear; check_menelaus raises on them instead of skipping
    # them as undefined
    w = generate_window(zoo_pin("pentagram"), 2, 0, 24, seed=0)
    for _ in range(4):
        w = step_forward(w)
    assert check_menelaus(w) == 48
    v = list(w.get((11, 3)).v)
    v[0] += 1
    w.set((11, 3), Point(v))
    with pytest.raises(MeshError, match=r"Menelaus triple not collinear at base \(10, 1\)"):
        check_menelaus(w)
