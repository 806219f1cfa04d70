import random
from itertools import combinations
from math import gcd

import pytest

from ymesh.rational import ExtQ, DegenerateError
from ymesh.projective import Point, join, cross_ratio_on, det2
from ymesh.mesh import (MeshError, MeshWindow, generate_window, generate_polygon_window, generate_1d,
                        step_forward, step_1d, _random_free)
from ymesh.yvars import (y_of, y_pair, y_available, check_eqmain, eqmain_residual,
                         GENERAL_Y_TABLE, general_y_factor_route,
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
