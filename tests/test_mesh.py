import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from ymesh import battery, mesh, projective
from ymesh.rational import DegenerateError
from ymesh.projective import Point, join, meet_point
from ymesh.mesh import (MeshWindow, MeshError, generate_window, generate_1d,
                        generate_reduced, generate_polygon_window,
                        step_forward, step_backward, step_reduced_forward,
                        step_1d, check_relations, check_menelaus, random_point,
                        bases, MENELAUS_WORDS)
from ymesh.filtration import FiltrationSpec, all_circuits, circuit_members
from ymesh.fractal import make_fractal, fractal_bases_in_window, fractal_dim
from ymesh.quiver import qs_period, run_periodic_y
from ymesh.serialize import dumps, loads, mesh_from_json, mesh_to_json
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


def test_place_on_dependent_members_goes_through_the_loop(monkeypatch):
    calls = []
    combine = mesh._combine_members
    monkeypatch.setattr(mesh, "_combine_members",
                        lambda rng, members: calls.append(len(members)) or combine(rng, members))
    p, q = Point((1, 2, 3)), Point((-2, 0, 1))
    r = Point([x + y for x, y in zip(p.z, q.z)])
    got = mesh._place(random.Random(0), 2, [[p, q, r]])  # three points of one line
    assert calls == [3]
    assert got not in (p, q, r) and projective.collinear((p, q, got))
    # a repeated member: every nonzero combination is that member, so no draw
    # is kept
    with pytest.raises(mesh.DegenerateConfig, match="could not place a generic point"):
        mesh._place(random.Random(0), 2, [[p, p]])
    assert calls == [3, 2]


def test_polygon_window_requires_m1():
    with pytest.raises(MeshError):
        generate_polygon_window(zoo_pin("sideways"), 8)


@pytest.mark.parametrize("name,n,dim", [("pentagram", 0, 2), ("pentagram", -2, 2),
                                        ("pentagram", 2, 2), ("higher_pentagram", 3, 3)])
def test_polygon_too_small_to_span_is_config_error(name, n, dim):
    with pytest.raises(MeshError) as err:
        generate_polygon_window(zoo_pin(name), n, dim=dim)
    assert not isinstance(err.value, mesh.DegenerateConfig)
    assert str(err.value) == ("a closed polygon in RP^%d needs n >= %d vertices (got n = %d)"
                              % (dim, dim + 1, n))


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
    for seed in range(40):
        _propagate_all_rows(generate_window(pin, 2, 0, battery.columns(pin), seed=seed))


def test_generated_window_of_wide_pin_propagates():
    # the unguarded draw at seed 0 had two coincident lines in its first step
    pin = Pin([(0, 0), (1, 0), (0, 1), (-12, 1)])
    _propagate_all_rows(generate_window(pin, 2, 0, 40, seed=0))


# a long_side pin whose f-side, by a hand-written order, once read a circuit
# member before it was placed (``ymesh mesh gen`` on it raised a KeyError)
LONG_SIDE_PIN = Pin([(3, 0), (2, 3), (2, 4), (3, 4)])


def _filtration_cases():
    return [pytest.param(zoo_pin(name), dim, id="%s-%d" % (name, dim))
            for name in sorted(ZOO) if name not in BOUNDARY_PINS
            for dim in sorted({2, zoo_dim(name)}) if zoo_dim(name) >= 2] + \
        [pytest.param(LONG_SIDE_PIN, 2, id="long_side-2")]


@pytest.mark.parametrize("pin,dim", _filtration_cases())
def test_filtration_sweep_runs_middle_out(pin, dim, monkeypatch):
    # the cells and circuits generate_window hands to the sweep (for a
    # triangle_c pin, those of its reversed pin), and the order the sweep
    # placed the cells in, which is that of the returned window's points
    seen = []
    sweep = mesh._sweep

    def recording(pin, dim, cells, circuits, rng):
        window = sweep(pin, dim, cells, circuits, rng)
        seen.append((pin, list(cells), circuits, list(window.points)))
        return window

    monkeypatch.setattr(mesh, "_sweep", recording)
    i_lo = -5
    i_hi = i_lo + battery.columns(pin)
    generate_window(pin, dim, i_lo, i_hi, seed=0)
    pin, cells, circuits, placed = seen[0]
    assert sorted(placed) == sorted(cells)
    spec = FiltrationSpec(pin)
    t_mid = (min(map(spec.birth, cells)) + max(map(spec.death, cells))) // 2
    band = {r for r in cells if spec.birth(r) <= t_mid <= spec.death(r)}
    position = {r: k for k, r in enumerate(placed)}
    bound = {}
    for r in cells:
        bound[r] = []
        for kind, base in circuits(r):
            others = [q for q in circuit_members(pin, kind, base) if q != r]
            if all(q in position for q in others):
                assert all(position[q] < position[r] for q in others), (r, kind, base)
                bound[r].append((kind, base))
    assert [r for r in band if bound[r]] == []  # the band is free
    assert set(placed[:len(band)]) == band  # and goes first
    for r in cells:
        if spec.birth(r) > t_mid:
            assert circuits(r) == [spec.g_inverse(r)], r
        elif spec.death(r) < t_mid:
            assert circuits(r) == [spec.f_inverse(r)], r
    bindings = Counter(circuit for r in cells for circuit in bound[r])
    assert bindings == Counter(all_circuits(pin, i_lo, i_hi))


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


def _fraction_random_point(rng, dim):
    """``random_point`` as it was drawn through ``Fraction``."""
    return Point.affine([Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(dim)])


def _fraction_1d_points(pin, i_lo, i_hi, seed):
    """The points of ``generate_1d`` as its loop drew them through
    ``Fraction``."""
    rng = random.Random(seed)
    span = max(20, 2 * pin.l * (i_hi - i_lo + 1))
    used, points = set(), {}
    for j in range(1, pin.l + 1):
        for i in range(i_lo, i_hi + 1):
            for _ in range(mesh.REDRAW_LIMIT):
                t = Fraction(rng.randint(-span, span), rng.randint(1, 10))
                if t not in used:
                    used.add(t)
                    break
            points[(i, j)] = Point((t, 1))
    return points


def test_integer_draws_reproduce_the_fraction_draws():
    """The integer draws make the points the ``Fraction`` draws made, from
    the same calls of the random stream in the same order."""
    for dim in range(1, 7):
        for seed in range(100):
            ours, theirs = random.Random(seed), random.Random(seed)
            got = [random_point(ours, dim) for _ in range(4)]
            assert [p.z for p in got] == [_fraction_random_point(theirs, dim).z for _ in range(4)]
            assert ours.random() == theirs.random()
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        for seed in range(10):
            w = generate_1d(pin, 0, battery.columns(pin), seed=seed)
            want = _fraction_1d_points(pin, 0, battery.columns(pin), seed)
            assert {k: p.z for k, p in w.points.items()} == {k: p.z for k, p in want.items()}


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
    _propagate_all_rows(generate_window(pin, 2, 0, battery.columns(pin), seed=seed))


@pytest.mark.parametrize("points", [[(0, 0), (0, 1), (0, 3), (1, 4)],
                                    [(0, 0), (0, 1), (2, 2), (3, 3)]])
def test_boundary_pin_with_two_binding_lines(points):
    # boundary pins whose L1 and L2 circuits both fit in m rows: the column
    # sweep places some points as the meet of two lines
    pin = Pin(points)
    for seed in range(5):
        check_relations(battery.grow(pin, 2, seed)[0])


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


def _repeats_by_scan(window):
    """Whether an L1, L2 or full-line instance of the bounding-box scan
    holds one Point twice."""
    pin = window.pin
    for words in (("a", "b", "c"), ("b", "c", "d"), "abcd"):
        offsets = _offsets(pin, words)
        for r1, r2 in _scanned_instances(window, offsets):
            pts = [window.get((r1 + o1, r2 + o2)) for o1, o2 in offsets]
            if len(set(pts)) < len(pts):
                return True
    return False


def _guarded_rows(w):
    """The window after the rows the generation guard propagates."""
    for _ in range(w.pin.l + 2):
        try:
            w = step_forward(w)
        except MeshError:
            break
    return w


def _guard_windows():
    """(label, window, fast): generated, corrupted and polygon windows, and
    whether the guard's one-pass test may decide them."""
    out = []
    for name, dim in (("pentagram", 2), ("sideways", 2), ("penguin", 2), ("dented", 3),
                      ("higher_pentagram", 3)):
        pin = zoo_pin(name)
        for seed in range(3):
            w = _guarded_rows(generate_window(pin, dim, 0, 16, seed=seed))
            out.append(("%s/%d/%d" % (name, dim, seed), w, True))
            rng = random.Random(seed)
            for k in rng.sample(sorted(w.points), 6):
                row = [q for q in w.points if q[1] == k[1] and q != k]
                if not row:
                    continue
                bad = w.copy()  # the point replaced by its nearest row neighbour
                bad.points[k] = w.points[min(row, key=lambda q: abs(q[0] - k[0]))]
                out.append(("%s/%d/%d %s" % (name, dim, seed, k), bad, False))
    for name, n in (("pentagram", 7), ("higher_pentagram", 7), ("higher_pentagram", 5)):
        w = _guarded_rows(generate_polygon_window(zoo_pin(name), n, seed=2))
        out.append(("%s n=%d" % (name, n), w, True))
    # two rows of distinct points, periodic with n at most the i-extent of
    # the pin: a and b share a key, so every L1 instance repeats a point
    rng = random.Random(4)
    for name, n in (("higher_pentagram", 3), ("pentagram", 2)):
        w = MeshWindow(zoo_pin(name), 2, periodic_n=n)
        for i in range(n):
            for j in (1, 2):
                w.set((i, j), random_point(rng, 2))
        assert len(set(w.points.values())) == len(w.points)
        out.append(("%s n=%d" % (name, n), w, False))
    return out


def test_coincidence_guard_fast_path_matches_scan(monkeypatch):
    decided = {True: 0, False: 0}
    for label, w, fast in _guard_windows():
        want = _repeats_by_scan(w)
        assert mesh._coincident_instance(w) == want, label
        assert mesh._has_coincident_points(w) == want, label
        if fast:
            # generated windows have pairwise distinct points, so the one
            # pass decides them: the scan is never called
            assert len(set(w.points.values())) == len(w.points) and not want, label
            with monkeypatch.context() as mp:
                mp.setattr(mesh, "_coincident_instance", lambda _: pytest.fail(label))
                assert not mesh._has_coincident_points(w)
        decided[want] += 1
    assert decided[True] > 10 and decided[False] > 10


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


def _bases_in_given_order(window, offsets):
    """``bases`` filtering by the offsets in the order given."""
    keys, n = window.points.keys(), window.periodic_n
    o1, o2 = offsets[0]
    found = {((i - o1) % n if n else i - o1, j - o2) for i, j in keys}
    for d1, d2 in offsets[1:]:
        found = {(r1, r2) for r1, r2 in found
                 if ((r1 + d1) % n if n else r1 + d1, r2 + d2) in keys}
    return sorted(found, key=lambda r: (r[1], r[0]))


def _with_gaps(window, rng, share):
    """A copy of the window with each point deleted at the given rate."""
    w = window.copy()
    for key in list(w.points):
        if rng.random() < share:
            del w.points[key]
    return w


def test_bases_filter_order_keeps_the_list():
    windows = []
    for name in ("pentagram", "short_diagonal", "penguin", "elephant"):
        w = generate_window(zoo_pin(name), 2, 0, 14, seed=3)
        windows += [w, step_forward(step_forward(w))]
    for name, n in (("pentagram", 7), ("higher_pentagram", 9)):
        w = generate_polygon_window(zoo_pin(name), n, seed=3)
        windows += [w, step_forward(step_forward(step_forward(w)))]
    for name in ("pentagram", "sideways"):
        w = generate_1d(zoo_pin(name), 0, 24, seed=3)
        windows += [w, step_1d(w), step_1d(w, backward=True)]
    # rows of several runs: points deleted at random from generated, stepped
    # and polygon windows, and the same windows loaded from JSON with null gaps
    rng = random.Random(3)
    gapped = [_with_gaps(w, rng, share) for w in windows for share in (0.05, 0.3)]
    loaded = [mesh_from_json(loads(dumps(mesh_to_json(w)))) for w in gapped[::3]]
    assert any(None in row["points"] for w in gapped[::3] for row in mesh_to_json(w)["rows"])
    # a whole row removed
    w = step_forward(step_forward(generate_window(zoo_pin("short_diagonal"), 2, 0, 14, seed=3)))
    cut = w.copy()
    cut.points = {k: p for k, p in w.points.items() if k[1] != w.rows()[2]}
    # a periodic row of runs (0, 2) and (6, 8), which the shifts move past
    # column 8 and split
    ring = step_forward(step_forward(generate_polygon_window(zoo_pin("higher_pentagram"), 9, seed=3)))
    ring.points = {k: p for k, p in ring.points.items() if k[1] != 2 or not 3 <= k[0] <= 5}
    assert ring.lines.row_runs()[2] == [(0, 2), (6, 8)]
    assert mesh._shifted_runs([(6, 8)], -2, 9) == [(0, 1), (8, 8)]
    # one run of an open row narrows by the spread of the shifts; on a closed
    # row the shifted runs can meet in two pieces, so it is not narrowed
    assert mesh._fitting([(2, 5)], [0, 3], None) == [(2, 2)]
    assert mesh._fitting([(2, 4)], [0, 3], None) == []
    assert mesh._fitting([(0, 6)], [0, 4], 9) == [(0, 2), (5, 6)]
    windows += gapped + loaded + [cut, ring]
    listed = 0
    for w in windows:
        for offsets in _offset_families(w.pin):
            for order in (offsets, offsets[::-1]):
                found = bases(w, order)
                assert found == _bases_in_given_order(w, order)
                listed += len(found)
    assert listed > 1000
    assert sum(len(runs) > 1 for w in windows for runs in w.lines.row_runs().values()) > 100


def test_writes_to_points_drop_the_row_runs(monkeypatch):
    pin = zoo_pin("pentagram")
    w = step_forward(step_forward(generate_window(pin, 2, 0, 14, seed=3)))
    offsets = _offsets(pin, MENELAUS_WORDS)

    def listed(window):
        found = bases(window, offsets)
        assert window.lines.runs is not None and found == _bases_in_given_order(window, offsets)
        return found

    full = listed(w)
    p = w.get((6, 2))
    # rows 1, 2, 3 hold columns 0..14, 1..12 and 2..10; a base (r1, 1) needs
    # column r1 + 2 of row 1, r1..r1 + 3 of row 2 and r1 + 1 of row 3
    writes = [lambda: w.points.__delitem__((6, 2)),
              lambda: w.points.__setitem__((6, 2), p),
              lambda: w.set((13, 2), p),
              lambda: w.points.update({(11, 3): p}),
              lambda: setattr(w, "points", {k: q for k, q in w.points.items() if k[0] != 3})]
    seen = []
    for write in writes:
        write()
        assert w.lines.runs is None
        seen.append(listed(w))
    assert len(full) == 9 and len(seen[0]) == 5
    assert seen[1] == seen[2] == full and seen[3] == full + [(10, 1)]
    assert seen[4] == [r for r in seen[3] if not 0 <= r[0] <= 3]

    # step_forward(..., drop_bottom=True) drops the row from a window whose
    # runs were listed before the drop
    propagate = mesh._propagate

    def listing(window, rule):
        out = propagate(window, rule)
        listed(out)
        return out

    monkeypatch.setattr(mesh, "_propagate", listing)
    w = step_forward(generate_window(pin, 2, 0, 14, seed=3))
    top = step_forward(w, drop_bottom=True)
    assert top.rows() == w.rows()[1:] + [w.rows()[-1] + 1]
    assert top.lines.runs is None
    listed(top)


@pytest.mark.parametrize("name,dim,i_lo,i_hi,rows", [
    ("pentagram", 2, 0, 0, 1), ("pentagram", 2, 0, 1, 1), ("elephant", 6, 0, 1, 3),
    ("sideways", 2, 4, 4, 2), ("sideways", None, 0, 0, 2)])  # None: generate_reduced
def test_window_too_small_to_span_is_config_error(monkeypatch, name, dim, i_lo, i_hi, rows):
    monkeypatch.setattr(mesh, "_certified_draw", lambda *args: pytest.fail("drew a window"))
    pin = zoo_pin(name)
    with pytest.raises(MeshError) as err:
        if dim:
            generate_window(pin, dim, i_lo, i_hi)
        else:
            generate_reduced(pin, i_lo, i_hi)
    assert not isinstance(err.value, mesh.DegenerateConfig)
    dim = dim or 2
    assert str(err.value) == ("a window spanning RP^%d needs >= %d cells (got %d rows of %d columns)"
                              % (dim, dim + 1, rows, i_hi - i_lo + 1))


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


def _store_window(kind):
    if kind == "polygon":
        w = generate_polygon_window(zoo_pin("pentagram"), 9, seed=3)
        for _ in range(4):
            w = step_forward(w)
        return w
    name, dim = kind
    pin = zoo_pin(name)
    w = generate_window(pin, dim, 0, 14, seed=2)
    for _ in range(pin.l + 1):
        w = step_forward(w)
    return w


def _store_outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as e:  # KeyError from y_of on a missing point included
        return ("raises", type(e), str(e))


def _store_outcomes(w, ys):
    return ([_store_outcome(check, w) for check in (check_relations, check_menelaus, check_eqmain)]
            + [_store_outcome(y_of, w, r) for r in ys])


STORE_WINDOWS = [("pentagram", 2), ("dented", 3), "polygon"]
STORE_IDS = ["pentagram-2", "dented-3", "polygon"]


# each write path of ``points``, with the values it puts at the point P_k in
# turn (None removes P_k; "clear" removes every point)
WRITES = {"set": ("moved", "near", None, "original"), "pop": (None,), "popitem": (None,),
          "setdefault": ("moved",), "update": ("moved",), "ior": ("moved",), "clear": (None,),
          "assign": ("moved",)}


def _write(w, write, k, p):
    """Put p at key k of w.points, or remove k when p is None, by the write
    path; "set" removes by del, and "popitem" needs k inserted last."""
    if write == "assign":
        w.points = {**w.points, k: p}
    elif write == "ior":
        w.points |= {k: p}
    elif write == "update":
        w.points.update({k: p})
    elif write == "setdefault":
        assert w.points.setdefault(k, p) is p
    elif write == "clear":
        w.points.clear()
    elif write == "popitem":
        assert w.points.popitem()[0] == k
    elif write == "pop":
        w.points.pop(k)
    elif p is None:
        del w.points[k]
    else:
        w.points[k] = p


@pytest.mark.parametrize("kind, write", [
    pytest.param(kind, write, id=label if write == "set" else "%s-%s" % (label, write))
    for kind, label in zip(STORE_WINDOWS, STORE_IDS) for write in WRITES])
def test_line_store_follows_in_place_edits(kind, write):
    """The checks and y_of on one window object, re-run after each write to
    its points, give what they give on a fresh copy, and differ from what
    they gave before the write: no write leaves a stale line store."""
    w = _store_window(kind)
    pin = w.pin
    n = w.periodic_n or 0
    inner = [k for k in sorted(w.points)
             if all(y_available(w, (k[0] - o1, k[1] - o2)) for o1, o2 in pin.points)]
    k = inner[len(inner) // 2]
    # the four lines through P_k, at bases shifted by n on a polygon
    ys = [(k[0] - o1 + n, k[1] - o2) for o1, o2 in pin.points]
    ys += [r for r in sorted(w.points)[:6] if y_available(w, r)]
    z = list(w.points[k].z)
    z[0] += 1
    near = (k[0] + 1, k[1]) if (k[0] + 1, k[1]) in w.points else (k[0] - 1, k[1])
    values = {"moved": Point(z), "near": w.points[near], "original": w.points[k], None: None}
    if write == "popitem":
        w.points[k] = w.points.pop(k)
    elif write == "setdefault":
        del w.points[k]
    before = _store_outcomes(w, ys)
    assert before == _store_outcomes(w.copy(), ys)
    seen = set()
    for value in WRITES[write]:
        _write(w, write, k, values[value])
        got = _store_outcomes(w, ys)
        assert got == _store_outcomes(w.copy(), ys) and got != before, value
        seen |= {outcome[0] for outcome in got}
        before = got
    assert seen == {"value", "raises"}


@pytest.mark.parametrize("kind", STORE_WINDOWS, ids=STORE_IDS)
def test_checks_chart_each_line_once_per_window(kind, monkeypatch):
    """The three checks and y_of on one window chart each line once, in the
    window's line store; a second round on the unchanged window charts
    none."""
    charted = []
    chart_of = mesh.chart_of
    monkeypatch.setattr(mesh, "chart_of", lambda zs: charted.append(zs) or chart_of(zs))
    w = _store_window(kind)
    assert charted == []  # generation and propagation read no line store
    first = [check(w) for check in (check_relations, check_menelaus, check_eqmain)]
    ys = [y_of(w, r) for r in sorted(w.points) if y_available(w, r)]
    assert 0 < len(charted) == len({w._key(s) for s in w.lines})  # s, s mod n share one entry
    charted.clear()
    assert [check(w) for check in (check_relations, check_menelaus, check_eqmain)] == first
    assert [y_of(w, r) for r in sorted(w.points) if y_available(w, r)] == ys
    assert charted == []


# ---- the planar redraw guard mod P ---------------------------------------


def _exact_guard(window, steps, rule):
    """The redraw guard on exact points only: propagate a copy (which keeps
    no rows of an earlier guard run), scan every relation instance for a
    repeated point, then require every 2-fractal to span at least a plane,
    by rank on all its points."""
    window = window.copy()
    for _ in range(steps):
        try:
            window = mesh._propagate(window, rule)
        except DegenerateError:
            return False
        except MeshError:
            break
    return not mesh._coincident_instance(window) and all(
        fractal_dim(window, make_fractal(window.pin, r, 2)) >= 2
        for r in fractal_bases_in_window(window, 2))


def _neighbour_replaced(w, rng):
    """A copy of w with one point replaced by a point of its row."""
    k = rng.choice(sorted(w.points))
    row = [q for q in w.points if q[1] == k[1] and q != k]
    bad = w.copy()
    bad.points[k] = w.points[rng.choice(row)]
    return bad


def _planar_draws():
    """(label, window, rule): raw draws of the filtration sweep, of the
    reduced system's column sweep and of closed polygons, which the exact
    guard accepts or rejects, and corrupted copies of some of them."""
    out = []
    rng = random.Random(21)
    for name in ("pentagram", "higher_pentagram", "sideways", "elephant"):
        pin = zoo_pin(name)
        for k in range(4):
            w = mesh._generate_filtration(pin, 2, 0, battery.columns(pin), rng)
            out.append(("%s draw %d" % (name, k), w, mesh.TOP))
    for name in ("elephant", "kangaroo", "higher_pentagram", "penguin"):
        pin = zoo_pin(name)
        rule = mesh._reduced_rule(pin)
        for k in range(8):
            w = mesh._greedy(pin, m2_of_s(pin), ("L1",), 0, 8 * (pin.l + 2), rng)
            out.append(("%s reduced draw %d" % (name, k), w, rule))
    for name, n in (("pentagram", 7), ("higher_pentagram", 6), ("higher_pentagram", 7)):
        pin = zoo_pin(name)
        for k in range(6):
            w = MeshWindow(pin, 2, periodic_n=n)
            vertices = []
            for i in range(n):
                vertices.append(mesh._random_free(rng, 2, avoid=vertices))
                w.set((i, 1), vertices[-1])
            out.append(("%s n=%d polygon %d" % (name, n, k), w, mesh.TOP))
    out += [(label + " corrupted", _neighbour_replaced(w, rng), rule)
            for label, w, rule in out[::3]]
    out += [("%s collinear 2-fractal" % name, _collinear_fractal(name, 2)[1], mesh.TOP)
            for name in ("pentagram", "sideways")]
    return out


def test_planar_guard_mod_p_decides_as_the_exact_guard():
    decided = {True: 0, False: 0}
    by_mod_p = 0
    for label, w, rule in _planar_draws():
        steps = w.pin.l + 2
        want = _exact_guard(w, steps, rule)
        assert mesh._propagates(w, steps, rule) == want, label
        last = mesh._clean_run(w.copy(), steps, rule)  # the exact guard alone
        assert (last is not None and mesh._spans_planes(last)) == want, label
        if mesh._propagates_mod_p(w, steps, rule):
            assert want, label  # an accept mod P is a proof
            by_mod_p += 1
        decided[want] += 1
    assert decided[True] > 20 and decided[False] > 10
    assert by_mod_p == decided[True]


def test_planar_guard_falls_back_where_meets_vanish_mod_p():
    """Third coordinates scaled by P (a projective map) keep the window a
    generic mesh over Q, but put every point mod P on one line, so every
    meet vanishes mod P and the exact guard decides."""
    for name, seed in (("pentagram", 3), ("sideways", 4)):
        pin = zoo_pin(name)
        w = generate_window(pin, 2, 0, battery.columns(pin), seed=seed)
        scaled = MeshWindow(pin, 2)
        scaled.points = {k: Point((z[0], z[1], mesh.P * z[2])) for k, z in
                         ((k, p.z) for k, p in w.points.items())}
        steps = pin.l + 2
        assert not mesh._propagates_mod_p(scaled, steps, mesh.TOP)
        assert mesh._propagates(scaled, steps, mesh.TOP)
        assert _exact_guard(scaled, steps, mesh.TOP)
        bad = _neighbour_replaced(scaled, random.Random(seed))
        assert mesh._propagates(bad, steps, mesh.TOP) == _exact_guard(bad, steps, mesh.TOP)


def _normal_mod_p(z):
    """The integer vector z mod P, scaled so that its first nonzero entry
    is 1 by its own inverse."""
    z = [x % mesh.P for x in z]
    inv = pow(next(x for x in z if x), -1, mesh.P)
    return tuple([x * inv % mesh.P for x in z])


def test_meet_mod_p_is_the_reduced_exact_meet():
    """Random quadruples, each point scaled mod P by a random unit, and
    degenerate ones (a repeated point, one line twice), where the integer
    meet vanishes and so does the meet mod P.  The meet mod P is compared
    projectively: normalized, it is the normalized exact meet."""
    rng = random.Random(22)
    vanished = 0
    for _ in range(200):
        p, q, u, w = (Point([rng.randint(-9, 9) for _ in range(2)] + [rng.randint(1, 9)])
                      for _ in range(4))
        for pts in ([p, q, u, w], [p, p, u, w], [p, q, q, p], [p, q, u, u]):
            reduced = []
            for x in pts:
                unit = rng.randrange(1, mesh.P)
                reduced.append(tuple([c * unit % mesh.P for c in x.z]))
            if projective._meet_lines(*(x.z for x in pts)) is None:
                with pytest.raises(DegenerateError):
                    mesh._meet_mod_p(reduced)
                vanished += 1
            else:
                want = _normal_mod_p(meet_point(join(*pts[:2]), join(*pts[2:])).z)
                assert _normal_mod_p(mesh._meet_mod_p(reduced)) == want, pts
    assert vanished >= 600


def test_batch_normalization_is_one_vector_normalization():
    """One inverse for a whole window normalizes each vector as its own
    inverse does: random vectors, vectors with leading zeros, and windows
    of one vector and of none."""
    rng = random.Random(24)
    zs = [tuple(rng.randrange(mesh.P) for _ in range(3)) for _ in range(60)]
    zs += [(0, 5, 7), (0, 0, 3), (0, mesh.P - 1, 0), (1, 0, 0), (0, 0, mesh.P - 2)]
    rng.shuffle(zs)
    assert mesh._normalized_mod_p(zs) == [_normal_mod_p(z) for z in zs]
    for z in zs[:8]:
        assert mesh._normalized_mod_p([z]) == [_normal_mod_p(z)]
    assert mesh._normalized_mod_p([]) == []


@pytest.mark.parametrize("name,dim", [("pentagram", 2), ("sideways", 2), ("dented", 3),
                                      ("rabbit", 4)])
@pytest.mark.parametrize("slot,kind", [(2, "L1"), (1, "L2"), (0, "line")])
def test_guard_run_stops_at_the_first_repeating_row(name, dim, slot, kind, monkeypatch):
    """A rule that solves the sixth base r of the first row as its source
    in the given slot (P_{r+ad}, P_{r+bc} or P_{r+ac}) repeats a point in
    the L1 instance at r + d, the L2 instance at r + c or the line L_{r+c}:
    the guard's run makes that row and no other."""
    pin = zoo_pin(name)
    w = generate_window(pin, dim, 0, battery.columns(pin), seed=0)

    def repeating():
        solved = []

        def solve(pts):
            solved.append(pts)
            return pts[slot] if len(solved) == 6 else mesh._meet(pts)
        return mesh.TOP._replace(solve=solve)

    first = mesh._propagate(w.copy(), repeating())
    words = "abcd" if kind == "line" else Pin.CIRCUIT_WORDS[kind]
    offs = [pin.offset(word) for word in words]
    assert any(mesh._repeats(first.at(r, offs)) for r in bases(first, offs))
    calls = []
    propagate = mesh._propagate
    monkeypatch.setattr(mesh, "_propagate", lambda *a: calls.append(a) or propagate(*a))
    assert mesh._clean_run(w, pin.l + 2, repeating()) is None
    assert len(calls) == 1


# ---- the exact guard's rows, handed to the caller -------------------------


def _kept_cases():
    """(name, dim, cols): every zoo pin at every admissible D >= 3 at the
    acceptance width, where the exact guard decides, and a planar window
    that every run mod P rejects (third coordinates scaled by P), so that
    the exact guard decides it too."""
    cases = []
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        cases += [(name, dim, battery.columns(pin)) for dim in range(3, d_of_s(pin) + 1)]
    return cases + [("pentagram", 2, 16)]


def _kept_window(name, dim, cols):
    pin = zoo_pin(name)
    w = generate_window(pin, dim, 0, cols, seed=1)
    if dim == 2:
        w = MeshWindow(pin, 2, {k: Point((z[0], z[1], mesh.P * z[2]))
                                for k, z in ((k, p.z) for k, p in w.points.items())})
        assert not mesh._propagates_mod_p(w, pin.l + 2, mesh.TOP)
        assert mesh._propagates(w, pin.l + 2, mesh.TOP)
    return w


@pytest.fixture
def meets(monkeypatch):
    """The calls of ``mesh.meet_point``, counted."""
    calls = []
    meet = mesh.meet_point
    monkeypatch.setattr(mesh, "meet_point", lambda *a: calls.append(a) or meet(*a))
    return calls


@pytest.mark.parametrize("case", _kept_cases(), ids=lambda case: "%s-%d" % case[:2])
def test_guard_rows_are_handed_over(case, meets):
    """The first l + 2 steps of a window that the exact guard accepted make
    no meet, and equal the steps of a copy, which keeps nothing."""
    steps = zoo_pin(case[0]).l + 2
    w = _kept_window(*case)
    fresh = w.copy()
    assert fresh.lines.kept is None
    meets.clear()
    stepped = []
    for _ in range(steps):
        w = step_forward(w)
        stepped.append(w.points)
    assert meets == [] and w.lines.kept is None
    for points in stepped:
        fresh = step_forward(fresh)
        assert meets and fresh.points == points


@pytest.mark.parametrize("write", ["set", "del", "assign"])
def test_a_write_drops_the_kept_row(write, meets):
    w = _kept_window("dented", 3, 36)
    successor = w.lines.kept[1]
    meets.clear()
    k = sorted(w.points)[len(w.points) // 2]
    if write == "set":
        w.points[k] = w.points[k]
    elif write == "del":
        p = w.points[k]
        del w.points[k]
        assert w.lines.kept is None
        w.points[k] = p
    else:
        w.points = dict(w.points)
    assert w.lines.kept is None
    stepped = step_forward(w)
    assert meets and stepped is not successor
    assert stepped.points == successor.points == step_forward(w.copy()).points


def test_stepping_twice_gives_distinct_windows():
    w = _kept_window("giraffe", 4, 40)
    first, second = step_forward(w), step_forward(w)
    assert first is not second and first.points == second.points
    k = max(first.points.keys() - w.points.keys())  # a point of the new row
    first.points[k] = w.points[min(w.points)]
    assert second.points[k] != first.points[k] and second.points == step_forward(w.copy()).points
    assert w.lines.kept is None


def test_another_rule_leaves_the_kept_row_alone(meets):
    w = _kept_window("rabbit", 3, 40)
    successor = w.lines.kept[1]
    meets.clear()
    back = step_backward(w)
    assert meets and min(j for _, j in back.points) < min(j for _, j in w.points)
    assert w.lines.kept[1] is successor and step_forward(w) is successor


def test_kept_rows_make_no_reference_cycle():
    """A draw and the windows its kept rows become are freed by reference
    counting, with the collector off."""
    pin = zoo_pin("kangaroo")
    enabled = gc.isenabled()
    gc.disable()
    try:
        w = generate_window(pin, 3, 0, 44, seed=1)
        refs = [weakref.ref(w)]
        for _ in range(pin.l + 2):
            w = step_forward(w)
            refs.append(weakref.ref(w))
        assert [ref() is None for ref in refs] == [True] * (pin.l + 2) + [False]
        del w
        assert refs[-1]() is None
    finally:
        if enabled:
            gc.enable()


# ---- the 2-fractal certificate -------------------------------------------


def _certificate_cases():
    """(name, dim): every zoo pin at every D >= 2 that it generates."""
    cases = []
    for name in sorted(ZOO):
        top = 2 if name in BOUNDARY_PINS else d_of_s(zoo_pin(name))
        cases += [(name, dim) for dim in range(2, top + 1)]
    return cases


@pytest.mark.parametrize("name,dim", _certificate_cases())
def test_accepted_draws_have_2_fractals_spanning_planes(name, dim):
    """Every 2-fractal in the l + 2 rows the guard propagates spans a plane,
    by rank on its points, on accepted draws at the acceptance width."""
    pin = zoo_pin(name)
    for seed in range(4):
        w = _guarded_rows(generate_window(pin, dim, 0, battery.columns(pin), seed=seed))
        found = fractal_bases_in_window(w, 2)
        assert found
        for r in found:
            assert fractal_dim(w, make_fractal(pin, r, 2)) == 2, (seed, r)


def _collinear_fractal(name, dim):
    """(good, bad): a generated window grown by l + 2 rows, and a copy whose
    lowest 2-fractal is moved onto one line by new, pairwise distinct
    points.  The guard propagates only the top rows, so the bad window
    still propagates cleanly."""
    pin = zoo_pin(name)
    good = _guarded_rows(generate_window(pin, dim, 0, battery.columns(pin), seed=0)).copy()
    bad = good.copy()
    r = fractal_bases_in_window(bad, 2, limit=1)[0]
    for k, q in enumerate(sorted(make_fractal(pin, r, 2))):
        bad.set(q, Point((1, 7919 + k) + (0,) * (dim - 1)))
    return good, bad


@pytest.mark.parametrize("name,dim", [("pentagram", 2), ("sideways", 2), ("dented", 3),
                                      ("rabbit", 4)])
def test_a_collinear_2_fractal_is_redrawn(name, dim):
    good, bad = _collinear_fractal(name, dim)
    steps = good.pin.l + 2
    assert mesh._clean_run(bad.copy(), steps, mesh.TOP) is not None
    assert not _exact_guard(bad, steps, mesh.TOP)
    assert not mesh._propagates(bad, steps, mesh.TOP)
    if dim == 2:
        assert not mesh._propagates_mod_p(bad, steps, mesh.TOP)
    stub = iter([bad, good])
    w = mesh._certified_draw(lambda rng: next(stub), random.Random(0), steps, mesh.TOP)
    assert w is good and w.draws == 2


def test_generators_record_their_draws():
    pin = zoo_pin("pentagram")
    assert generate_window(pin, 2, 0, 16, seed=0).draws >= 1
    assert generate_polygon_window(pin, 7, seed=5).draws == 1
    assert generate_reduced(zoo_pin("rabbit"), 0, 24, seed=3).draws >= 1
    assert generate_1d(pin, 0, 8).draws == 1
    assert step_forward(generate_window(pin, 2, 0, 16)).draws is None


def test_a_vanishing_minor_falls_back_to_the_rank():
    """A projective map that sends coordinate 2 of P_{r+aa}, P_{r+ab},
    P_{r+bb} to 0, at the first 2-fractal of the guard's rows, makes their
    minor on the first three coordinates vanish; the mapped window is still
    a generic mesh, so the exact guard accepts it by the rank."""
    pin = zoo_pin("dented")
    w = generate_window(pin, 3, 0, 24, seed=0)
    grown = _guarded_rows(w)
    r = fractal_bases_in_window(grown, 2, limit=1)[0]
    three = [grown.get(pin.shift(r, word)).z for word in ("aa", "ab", "bb")]
    f, = projective.nullspace(three, 4)
    assert f[2]

    def mapped(z):
        return Point((z[0], z[1], sum(c * x for c, x in zip(f, z)), z[3]))

    assert mesh._minor3(*[mapped(z).z for z in three]) == 0
    image = MeshWindow(pin, 3, {k: mapped(p.z) for k, p in w.points.items()})
    assert mesh._propagates(image, pin.l + 2, mesh.TOP)
