import random
from itertools import combinations
from math import gcd

import pytest

from ymesh import yvars
from ymesh.rational import ExtQ, DegenerateError
from ymesh.projective import Point, join, cross_ratio_on, det2
from ymesh.mesh import (IdentityFailure, MeshError, MeshWindow, generate_window,
                        generate_polygon_window, generate_1d, step_forward, step_1d, bases,
                        _random_free)
from ymesh.yvars import (EQMAIN_LABELS, y_of, y_pair, y_available, check_eqmain,
                         eqmain_instance, eqmain_residual, GENERAL_Y_TABLE, general_y_factor_route,
                         general_y_multiratio_route, cycle_diagram,
                         bracket_product)
from ymesh.zoo import zoo_pin


def grown_window(name, dim, seed=0, cols=None):
    pin = zoo_pin(name)
    w = generate_window(pin, dim, 0, cols or 6 * (pin.l + 2), seed=seed)
    for _ in range(pin.l + 2):
        w = step_forward(w)
    return w


def test_eqmain_residual_is_one_on_pentagram():
    w = grown_window("pentagram", 2, seed=1)
    counts = check_eqmain(w)
    assert counts["checked"] >= 20


def test_eqmain_on_a_window_without_instances_is_too_small():
    # no exchange instance fits in four columns: a configuration error, as
    # check_relations reports it, not a failed identity
    w = generate_window(zoo_pin("pentagram"), 2, 0, 4, seed=0)
    with pytest.raises(MeshError, match=r"window too small: only 0 exchange instances") as info:
        check_eqmain(w)
    assert not isinstance(info.value, AssertionError)
    for n in (None, 7):  # an empty window too, open or closed
        with pytest.raises(MeshError, match=r"window too small: only 0 exchange instances"):
            check_eqmain(MeshWindow(zoo_pin("pentagram"), 2, periodic_n=n))


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (MeshError, DegenerateError) as e:
        return ("raises", type(e), str(e))


def _bounding_box_counts(window):
    """check_eqmain's counts by a scan of every base whose 24 points can
    reach the window's bounding box (unreduced on a periodic window), each
    decided by ``eqmain_instance``."""
    pin = window.pin
    reach = [(o1 + p1, o2 + p2) for o1, o2 in map(pin.offset, EQMAIN_LABELS)
             for p1, p2 in pin.points]

    def span(axis):
        vals, offs = [r[axis] for r in window.points], [o[axis] for o in reach]
        return range(min(vals) - max(offs), max(vals) - min(offs) + 1)

    checked = skipped = 0
    for r2 in span(1):
        for r1 in span(0):
            rel = eqmain_instance(window, (r1, r2))
            if rel == "degenerate":
                skipped += 1
            elif rel is not None:
                assert rel[0], (r1, r2)
                checked += 1
    if not checked:
        raise MeshError("window too small: only %d exchange instances found (%d skipped)"
                        % (checked, skipped))
    return {"checked": checked, "skipped": skipped}


def _eqmain_offsets(pin):
    return [pin.offset(y + p) for y in EQMAIN_LABELS for p in "abcd"]


@pytest.mark.parametrize("name", ["pentagram", "higher_pentagram"])
def test_eqmain_counts_match_the_bounding_box_scan_on_closed_polygons(name):
    """On a closed polygon a base counts once per column of the scan that is
    congruent to it mod n."""
    pin = zoo_pin(name)
    compared = 0
    for n in range(3, 13):
        try:
            w = generate_polygon_window(pin, n, seed=n)
        except MeshError:  # too small to span the plane
            continue
        for _ in range(8):
            w = step_forward(w)
        want = _outcome(_bounding_box_counts, w)
        assert _outcome(check_eqmain, w) == want, n
        compared += want[0] == "value"
    assert compared >= 7  # n = 3, 4 (and 6 for higher_pentagram) do not propagate


@pytest.mark.parametrize("name", ["pentagram", "higher_pentagram"])
def test_eqmain_counts_match_the_bounding_box_scan_at_every_polygon_size(monkeypatch, name):
    """The counts alone, on periodic windows of random points of RP^1 at
    n = 3..12, where the identity is taken to hold at every base."""
    monkeypatch.setattr(yvars, "eqmain_relation", lambda ys: (True,))
    rng = random.Random(4)
    for n in range(3, 13):
        for rows in (4, 6, 9):
            w = MeshWindow(zoo_pin(name), 1, {(i, j): Point((rng.randint(-99, 99), 1))
                                               for i in range(n) for j in range(rows)},
                           periodic_n=n)
            want = _outcome(_bounding_box_counts, w)
            assert _outcome(check_eqmain, w) == want, (n, rows)


@pytest.mark.parametrize("name, dim", [("pentagram", 2), ("higher_pentagram", 3), ("sideways", 2),
                                       ("gopher", 2), ("dented", 3), ("rabbit", 4)])
def test_eqmain_counts_match_the_bounding_box_scan_on_open_windows(name, dim):
    w = grown_window(name, dim, seed=3)
    assert check_eqmain(w) == _bounding_box_counts(w)
    w1 = generate_1d(zoo_pin(name), 0, 20, seed=3)
    for _ in range(zoo_pin(name).l + 2):
        w1 = step_1d(w1)
    assert _outcome(check_eqmain, w1) == _outcome(_bounding_box_counts, w1)


@pytest.mark.parametrize("periodic", [True, False])
def test_eqmain_decides_each_base_once(monkeypatch, periodic):
    pin = zoo_pin("pentagram")
    if periodic:
        w = generate_polygon_window(pin, 7, seed=1)
        for _ in range(4):
            w = step_forward(w)
    else:
        w = grown_window("pentagram", 2, seed=1)
    calls = []
    relation = yvars.eqmain_relation
    monkeypatch.setattr(yvars, "eqmain_relation", lambda ys: calls.append(ys) or relation(ys))
    counts = check_eqmain(w)
    distinct = bases(w, _eqmain_offsets(pin))
    assert len(calls) == len(distinct) > 0  # no base of these windows is degenerate
    if periodic:  # 14 bases, each counted for every congruent column of the scan
        assert len(distinct) == 14 and counts["checked"] > 14
    else:
        assert counts["checked"] == len(distinct)


def test_eqmain_reports_a_line_off_its_line_before_a_failing_instance():
    """A planar copy of a 1D mesh keeps its lines on one line; moving a point
    of the bottom row along it makes an exchange instance fail, and lifting
    a point of the top row off it breaks its lines.  The lines are read
    first, so the line is reported, though the failing base comes first."""
    pin = zoo_pin("pentagram")
    w1 = generate_1d(pin, 0, 20, seed=9)
    for _ in range(pin.l + 2):
        w1 = step_1d(w1)
    w = MeshWindow(pin, 2, {k: Point(p.z + (0,)) for k, p in w1.points.items()})
    assert check_eqmain(w)["checked"] > 0
    bottom, top = w.rows()[0], w.rows()[-1]
    x, y, _ = w.points[(10, bottom)].z
    w.points[(10, bottom)] = Point((x + y, y, 0))
    x, y, _ = w.points[(10, top)].z
    w.points[(10, top)] = Point((x, y, 1))
    outcomes = []
    for r in bases(w, _eqmain_offsets(pin)):
        outcomes.append(_outcome(eqmain_instance, w, r))
    failing = [k for k, out in enumerate(outcomes) if out[0] == "value" and not out[1][0]]
    off_line = [k for k, out in enumerate(outcomes) if out[0] == "raises"]
    assert failing and off_line and failing[0] < off_line[0]
    with pytest.raises(IdentityFailure, match=r"the points of L_\(9,5\) span rank 3"):
        check_eqmain(w)


def test_eqmain_residual_value():
    w = grown_window("sideways", 2, seed=2)
    seen = 0
    for j in w.rows():
        for i in w.row_cols(j):
            res = eqmain_residual(w, (i, j))
            if res in (None, "degenerate"):
                continue
            assert res == ExtQ(1)
            seen += 1
    assert seen > 0


def test_general_y_routes_agree():
    w = grown_window("pentagram", 2, seed=4, cols=40)
    for subset in GENERAL_Y_TABLE:
        hits = 0
        for j in w.rows():
            for i in w.row_cols(j):
                try:
                    f = general_y_factor_route(w, (i, j), subset)
                    m = general_y_multiratio_route(w, (i, j), subset)
                except (KeyError, DegenerateError):
                    continue
                if f is None or m is None:
                    continue
                assert f == m, (subset, (i, j))
                hits += 1
        assert hits >= 20, subset


def test_cycle_diagram_single_factor():
    cyc = cycle_diagram(frozenset({"A"}))
    assert [d for d, _ in cyc] == ["S", "E", "NE", "W", "NW", "S"]
    assert [s for _, s in cyc] == ["solid", "dashed"] * 3


def test_bracket_product_is_one():
    rng = random.Random(11)
    done = 0
    while done < 40:
        pts = [_random_free(rng, 2) for _ in range(4)]
        lines = [join(_random_free(rng, 2), _random_free(rng, 2)) for _ in range(4)]
        try:
            val = bracket_product(pts, lines)
        except DegenerateError:
            continue
        assert val == ExtQ(1)
        done += 1


# ---- y-values as reduced pairs -------------------------------------------


PAIR_WINDOWS = [("pentagram", 2), ("dented", 3), ("rabbit", 4), ("giraffe", 5), "polygon", "1D"]


def _pair_window(kind):
    """A window at D = 2..5, a closed polygon or a 1D window."""
    if kind == "polygon":
        w = generate_polygon_window(zoo_pin("pentagram"), 7, seed=3)
        for _ in range(5):
            w = step_forward(w)
        return w
    if kind == "1D":
        pin = zoo_pin("sideways")
        return step_1d(generate_1d(pin, 0, 16 + 2 * pin.l, seed=3))
    return grown_window(*kind, seed=1)


def _charts(zs):
    """Every chart (i, j) of the line of the distinct vectors zs."""
    p, q = zs[0], next(z for z in zs if z != zs[0])
    return [(i, j) for i, j in combinations(range(len(p)), 2) if det2(p, q, i, j)]


@pytest.mark.parametrize("kind", PAIR_WINDOWS, ids=["D2", "D3", "D4", "D5", "polygon", "1D"])
def test_y_pair_is_the_reduced_pair_on_every_chart(kind):
    w = _pair_window(kind)
    bases = [r for r in sorted(w.points) if y_available(w, r)]
    assert len(bases) > 5
    charts = 0
    for r in bases:
        p, q = y_pair(w, r)
        assert gcd(p, q) == 1 and q >= 0 and (q or p == 1)
        assert (p, q) == y_of(w, r).as_pair()
        za, zb, zc, zd = (w.get(w.pin.shift(r, lab)).z for lab in "abcd")
        for i, j in _charts([za, zb, zc, zd]):
            num, den = cross_ratio_on(za, zc, zb, zd, i, j)
            assert ExtQ(-num, den).as_pair() == (p, q), (r, i, j)
            charts += 1
    # a line of RP^1 has one chart, a line of RP^D (D >= 2) has several
    assert charts > len(bases) if w.dim >= 2 else charts == len(bases)


def test_y_pair_of_zero_and_inf():
    # on RP^1, y = -[a, c, b, d] is 0 when c = a and inf when c = b; the
    # line then has no chart and the pair comes from cross_ratio_pair
    pin = zoo_pin("pentagram")
    a, b, d = Point((3, 1)), Point((-5, 2)), Point((7, 3))
    for c, want in ((a, (0, 1)), (b, (1, 0))):
        w = MeshWindow(pin, 1)
        for lab, p in zip("abcd", (a, b, c, d)):
            w.set(pin.shift((0, 0), lab), p)
        assert y_pair(w, (0, 0)) == want == y_of(w, (0, 0)).as_pair()
