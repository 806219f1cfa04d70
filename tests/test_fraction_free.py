"""The fraction-free identity checks against their ExtQ routes.

Each check below compares integer (num, den) products by cross-multiplying.
The references in this file are the ExtQ formulations of the same checks:
on random data, on data with degenerate values (0, -1, inf) and on corrupted
meshes and traces they must count the same instances and raise the same
errors.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from ymesh.rational import ExtQ, DegenerateError
from ymesh.pins import Pin, d_of_s
from ymesh.projective import Point, join, multi_ratio, rank_of
from ymesh.mesh import (DegenerateConfig, IdentityFailure, MeshError, MeshWindow, generate_1d,
                        generate_window, step_1d, step_forward, check_menelaus, check_relations,
                        MENELAUS_WORDS, _random_free, bases)
from ymesh.yvars import (EQMAIN_LABELS, y_of, y_pair, y_available, check_eqmain,
                         eqmain_relation, bracket, bracket_product, _parity)
from ymesh.quiver import (Quiver, QuiverConfigError, mutate_y, qs_period, arrows_at_origin,
                          build_qs, run_periodic_y, check_exchange_trace, run_1d_y,
                          check_1d_y_relation)
from ymesh.zoo import BOUNDARY_PINS, ZOO, zoo_pin

DEGENERATE = (ExtQ(0), ExtQ(-1), ExtQ.infinity())


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (AssertionError, DegenerateError, MeshError, QuiverConfigError) as e:
        return ("raises", type(e), str(e))


# ---- ExtQ references ------------------------------------------------------


def _extq_eqmain_residual(window, r):
    pin = window.pin
    ys = {}
    for lab in EQMAIN_LABELS:
        u = pin.shift(r, lab)
        if not y_available(window, u):
            return None
        try:
            ys[lab] = y_of(window, u)
        except DegenerateError:
            rank = rank_of([window.get(pin.shift(u, x)) for x in "abcd"])
            if rank <= 2:
                raise
            # points off one line fail the mesh's line relation
            raise IdentityFailure("the points of L_(%d,%d) span rank %d, expected a line"
                                  % (window._key(u) + (rank,)))
    if any(y in DEGENERATE for y in ys.values()):
        return "degenerate"
    lhs = ys["ab"] * ys["cd"]
    rhs = ((1 + ys["ac"]) * (1 + ys["bd"])
           / ((1 + ys["ad"].inv()) * (1 + ys["bc"].inv())))
    return lhs / rhs


def _extq_check_eqmain(window):
    i_vals = [i for (i, _) in window.points]
    j_vals = [j for (_, j) in window.points]
    checked = skipped = 0
    for r2 in range(min(j_vals) - 8, max(j_vals) + 8):
        for r1 in range(min(i_vals) - 8, max(i_vals) + 9):
            res = _extq_eqmain_residual(window, (r1, r2))
            if res is None:
                continue
            if res == "degenerate":
                skipped += 1
                continue
            if res != ExtQ(1):
                raise IdentityFailure("exchange identity fails at (%d, %d): %s" % (r1, r2, res))
            checked += 1
    if checked < 1:
        raise MeshError("window too small: only %d exchange instances found (%d skipped)"
                        % (checked, skipped))
    return {"checked": checked, "skipped": skipped}


def _extq_check_menelaus(window):
    i_vals = [i for (i, _) in window.points]
    j_vals = [j for (_, j) in window.points]
    count = 0
    for r2 in range(min(j_vals) - 8, max(j_vals) + 8):
        for r1 in range(min(i_vals) - 8, max(i_vals) + 9):
            labels = [window.pin.shift((r1, r2), word) for word in MENELAUS_WORDS]
            if not all(window.has(q) for q in labels):
                continue
            pts = [window.get(q) for q in labels]
            try:
                val = multi_ratio(pts)
            except DegenerateError:
                if any(rank_of(t) > 2 for t in (pts[0:3], pts[2:5], pts[4:6] + pts[:1])):
                    raise IdentityFailure("Menelaus triple not collinear at base (%d, %d)"
                                          % (r1, r2))
                continue
            if val != ExtQ(-1):
                raise IdentityFailure("Menelaus relation fails at base (%d, %d): %s"
                                      % (r1, r2, val))
            count += 1
    return count


def _rank_check_relations(window):
    """check_relations instance by instance: a Bareiss rank for every L1,
    L2, P3 and full-line instance of the bounding box scan."""
    pin = window.pin
    i_vals = [i for (i, _) in window.points]
    j_vals = [j for (_, j) in window.points]
    scan = [(r1, r2) for r2 in range(min(j_vals) - 8, max(j_vals) + 8)
            for r1 in range(min(i_vals) - 8, max(i_vals) + 9)]
    counts = {}
    for kind, words in list(Pin.CIRCUIT_WORDS.items()) + [("line", "abcd")]:
        counts[kind] = 0
        for r in scan:
            labels = [pin.shift(r, word) for word in words]
            if not all(window.has(q) for q in labels):
                continue
            pts = [window.get(q) for q in labels]
            distinct = len(set(pts)) == len(pts)
            if kind == "P3":
                if rank_of(pts) > 3:
                    raise IdentityFailure("coplanarity fails at base (%d, %d)" % r)
            elif kind == "line":
                if rank_of(pts) > 2 or not distinct:
                    raise IdentityFailure("line L_(%d,%d) degenerate" % r)
            elif rank_of(pts) > 2:
                raise IdentityFailure("%s collinearity fails at base (%d, %d)" % ((kind,) + r))
            elif not distinct:
                raise IdentityFailure("%s has coincident points at base (%d, %d)"
                                      % ((kind,) + r))
            counts[kind] += 1
    if rank_of(list(window.points.values())) != window.dim + 1:
        raise DegenerateConfig("window does not span RP^%d" % window.dim)
    if sum(counts.values()) < 1:
        raise MeshError("window too small: only %s relation instances" % counts)
    return counts


def _extq_check_exchange_trace(pin, n, exported):
    i0, l = qs_period(pin)
    outs, ins = arrows_at_origin(pin)
    checked = 0
    for (i, j) in sorted(exported):
        u = (i, j)
        top = ((i + i0) % n, j + l)
        if top not in exported:
            continue
        need = [(((top[0] - v[0]) % n, top[1] - v[1]), m, "in") for v, m in ins]
        need += [(((top[0] - v[0]) % n, top[1] - v[1]), m, "out") for v, m in outs]
        if not all(lab in exported for lab, _, _ in need):
            continue
        if any(exported[lab] in DEGENERATE for lab, _, _ in need):
            continue
        rhs = ExtQ(1)
        for lab, m, side in need:
            yv = exported[lab]
            for _ in range(m):
                rhs = rhs * (1 + yv) if side == "in" else rhs / (1 + yv.inv())
        lhs = exported[top] * exported[u]
        if lhs != rhs:
            raise IdentityFailure("exchange trace fails at %s: %s vs %s" % (u, lhs, rhs))
        checked += 1
    if checked < 1:
        raise QuiverConfigError("only %d exchange-trace instances" % checked)
    return checked


def _extq_check_1d_y_relation(q, m, trace):
    checked = 0
    for j in range(1, len(trace) - m + 1):
        rhs = ExtQ(1)
        ok = True
        for k in range(1, m):
            e = q.bval(k + 1, 1)
            y = trace[j + m - k - 1]
            if e and y in DEGENERATE:
                ok = False
                break
            for _ in range(abs(e)):
                rhs = rhs * (1 + y) if e > 0 else rhs / (1 + y.inv())
        if not ok:
            continue
        if trace[j - 1] * trace[j + m - 1] != rhs:
            raise IdentityFailure("1D y-relation fails at j=%d" % j)
        checked += 1
    return checked


def _extq_mutate_y(quiver, ys, v, divide=True):
    """Division by 1 + 1/y_v once per arrow, or (divide=False) multiplication
    by its inverse, computed once."""
    out = dict(ys)
    yv = ys[v]
    out[v] = inv = yv.inv()
    up, down = 1 + yv, 1 + inv
    if not divide:
        down = down.inv()
    for u, e in quiver.adj[v].items():
        val = ys[u]
        for _ in range(abs(e)):
            if e < 0:
                val = val * up
            else:
                val = val / down if divide else val * down
        out[u] = val
    return out


def _extq_run_periodic_y(pin, n, y0, sweeps):
    i0, l = qs_period(pin)
    q = build_qs(pin, n)
    ys = {v: ExtQ(val) for v, val in y0.items()}
    exported = {}
    for s in range(sweeps):
        jr, t = s % l, s // l
        for i in range(n):
            exported[((i + t * i0) % n, jr + t * l)] = ys[(i, jr)]
        for i in range(n):
            ys = _extq_mutate_y(q, ys, (i, jr), divide=False)
            q = q.mutate((i, jr))
    return exported, ys


def _extq_run_1d_y(q, m, y_init, steps):
    ys = {j: ExtQ(y_init[j - 1]) for j in range(1, m + 1)}
    out = []
    for _ in range(steps):
        out.append(ys[1])
        ys2 = _extq_mutate_y(q, ys, 1, divide=False)
        ys = {j: ys2[j % m + 1] for j in range(1, m + 1)}
    return out


def _extq_bracket_product(points, lines):
    total = ExtQ(1)
    for i in range(4):
        for k in range(i + 1, 4):
            j, l = [x for x in range(4) if x not in (i, k)]
            if _parity((i, j, k, l)) != 0:
                j, l = l, j
            total = total * bracket(points[i], lines[j], points[k], lines[l])
    return total


# ---- random and degenerate y-values -----------------------------------------


def _rand_y(rng, degenerate_share=0.0):
    if rng.random() < degenerate_share:
        return rng.choice(DEGENERATE)
    while True:
        y = ExtQ(rng.randint(-40, 40), rng.randint(1, 40))
        if y not in DEGENERATE:
            return y


def test_eqmain_holds_matches_extq_formula():
    rng = random.Random(1)
    holds = 0
    for _ in range(400):
        y = {lab: _rand_y(rng) for lab in EQMAIN_LABELS}
        if rng.random() < 0.5:  # make the identity hold
            y["cd"] = ((1 + y["ac"]) * (1 + y["bd"])
                       / ((1 + y["ad"].inv()) * (1 + y["bc"].inv()))) / y["ab"]
            if y["cd"] in DEGENERATE:
                continue
        expected = y["ab"] * y["cd"] == ((1 + y["ac"]) * (1 + y["bd"])
                                         / ((1 + y["ad"].inv()) * (1 + y["bc"].inv())))
        # unreduced pairs with either sign of the denominator
        pairs = []
        for lab in EQMAIN_LABELS:
            p, q = y[lab].as_pair()
            k = rng.choice((1, -1)) * rng.randint(1, 9)
            pairs.append((k * p, k * q))
        assert eqmain_relation(pairs)[0] == expected
        holds += expected
    assert 100 < holds < 300


def test_y_pair_matches_y_of(zoo_name):
    pin = zoo_pin(zoo_name)
    w = generate_1d(pin, 0, 16 + 2 * pin.l, seed=3)
    w = step_1d(w)
    seen = 0
    for (i, j) in w.points:
        if y_available(w, (i, j)):
            p, q = y_pair(w, (i, j))
            assert ExtQ(p, q) == y_of(w, (i, j))
            seen += 1
    assert seen > 0


def test_mutate_y_matches_division_per_arrow():
    rng = random.Random(2)
    for _ in range(300):
        verts = range(rng.randint(2, 7))
        q = Quiver(verts)
        for _ in range(rng.randint(1, 10)):
            u, w = rng.sample(verts, 2)
            q._add(u, w, rng.randint(1, 3))
        ys = {v: _rand_y(rng, 0.2) for v in verts}
        v = rng.choice(verts)
        try:
            want = ("value", _extq_mutate_y(q, ys, v))
        except DegenerateError as e:
            want = ("raises", str(e))
        try:
            got = ("value", mutate_y(q, ys, v)[1])
        except DegenerateError as e:
            got = ("raises", str(e))
        if want != got:
            # 1 + 1/y_v = inf (y_v = 0) meeting y_u = inf: dividing by it was
            # "inf / inf", multiplying by its inverse is "inf * 0"
            assert want == ("raises", "inf / inf") and got == ("raises", "inf * 0")
            assert ys[v] == ExtQ(0)
    q = Quiver({0, 1}, [(0, 1)])
    ys = {0: ExtQ(0), 1: ExtQ.infinity()}
    with pytest.raises(DegenerateError, match="inf / inf"):
        _extq_mutate_y(q, ys, 0)
    with pytest.raises(DegenerateError, match=r"inf \* 0"):
        mutate_y(q, ys, 0)


# ---- whole Y-runs --------------------------------------------------------


def _initial_values(rng, count, k):
    """count random y-values, among them none (k = 0), one (k = 1) or all
    three (k = 2) of 0, -1 and inf."""
    ys = [Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99)) for _ in range(count)]
    bad = {0: (), 1: (rng.choice(DEGENERATE),), 2: DEGENERATE}[k]
    for k, y in zip(rng.sample(range(count), len(bad)), bad):
        ys[k] = y
    return ys


@pytest.mark.parametrize("name", sorted(ZOO))
def test_periodic_y_run_matches_extq_route(name):
    pin = zoo_pin(name)
    _, l = qs_period(pin)
    outcomes = set()
    for n in (8, 16):
        for seed in range(3):
            rng = random.Random(100 * n + seed)
            verts = [(i, j) for i in range(n) for j in range(l)]
            y0 = dict(zip(verts, _initial_values(rng, len(verts), seed)))
            want = _outcome(_extq_run_periodic_y, pin, n, y0, 3 * l)
            assert _outcome(run_periodic_y, pin, n, y0, 3 * l) == want, (n, seed)
            outcomes.add(want[0])
    assert "value" in outcomes


ONE_D_QUIVERS = [(Quiver({1, 2}, [(1, 2)]), 2), (Quiver({1, 2, 3}, [(1, 2), (3, 1)]), 3),
                 (Quiver({1, 2, 3}, [(2, 1, 2), (1, 3)]), 3)]


def test_1d_y_run_matches_extq_route():
    rng = random.Random(11)
    outcomes = []
    for q, m in ONE_D_QUIVERS:
        for seed in range(3):
            for _ in range(4):
                init = _initial_values(rng, m, min(seed, m - 1))
                want = _outcome(_extq_run_1d_y, q, m, init, 14)
                assert _outcome(run_1d_y, q, m, init, 14) == want
                outcomes.append(want[0])
    assert {"value", "raises"} <= set(outcomes)


def _assert_reduced(values):
    """Each value is inf or num/den with den > 0 and gcd 1: the form
    ``ExtQ.from_reduced`` trusts the Y-side's pairs to have."""
    for y in values:
        if not y.is_inf:
            num, den = y.q.numerator, y.q.denominator
            assert den > 0 and gcd(num, den) == 1, (num, den)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_y_side_values_are_reduced(name):
    pin = zoo_pin(name)
    _, l = qs_period(pin)
    seen = 0
    for n in (8, 16):
        for seed in range(3):
            rng = random.Random(100 * n + seed)
            verts = [(i, j) for i in range(n) for j in range(l)]
            y0 = dict(zip(verts, _initial_values(rng, len(verts), seed)))
            got = _outcome(run_periodic_y, pin, n, y0, 3 * l)
            if got[0] == "value":
                exported, final = got[1]
                _assert_reduced([*exported.values(), *final.values()])
                seen += 1
            q, ys = build_qs(pin, n), {v: ExtQ(y) for v, y in y0.items()}
            for v in sorted(verts, key=lambda v: v[1]):  # rows in the run's order
                got = _outcome(mutate_y, q, ys, v)
                if got[0] == "raises":
                    break
                q, ys = got[1]
                _assert_reduced(ys.values())
                seen += 1
    rng = random.Random(name)
    for q, m in ONE_D_QUIVERS:
        for seed in range(3):
            got = _outcome(run_1d_y, q, m, _initial_values(rng, m, min(seed, m - 1)), 14)
            if got[0] == "value":
                _assert_reduced(got[1])
                seen += 1
    assert seen > 0


def test_y_side_makes_no_extq_arithmetic(monkeypatch):
    """The Y-runs and the exchange checks work on integer pairs: ExtQ is only
    the type they take and return."""
    layers = pytest.importorskip("perfbench.layers")
    pin, n = zoo_pin("rabbit"), 9
    _, l = qs_period(pin)
    y0 = {(i, j): Fraction(2 + i, 3 + j) for i in range(n) for j in range(l)}
    w = _grown_1d("pentagram", 9)

    def forbidden(*args):
        raise AssertionError("ExtQ arithmetic on the y-side")

    for attr in layers.EXTQ_ARITHMETIC:
        monkeypatch.setattr(ExtQ, attr, forbidden)
    exported, _ = run_periodic_y(pin, n, y0, 3 * l)
    assert check_exchange_trace(pin, n, exported) > 0
    trace = run_1d_y(Quiver({1, 2}, [(1, 2)]), 2, [Fraction(1, 2), Fraction(3)], 12)
    assert check_1d_y_relation(Quiver({1, 2}, [(1, 2)]), 2, trace) > 0
    assert check_eqmain(w)["checked"] > 0


# ---- exchange traces ---------------------------------------------------------


def _trace(name, n, seed, sweeps=None):
    pin = zoo_pin(name)
    _, l = qs_period(pin)
    rng = random.Random(seed)
    y0 = {(i, j): Fraction(rng.randint(1, 99), rng.randint(1, 99))
          for i in range(n) for j in range(l)}
    exported, _ = run_periodic_y(pin, n, y0, sweeps or 3 * l)
    return pin, exported


@pytest.mark.parametrize("name", sorted(ZOO))
def test_exchange_trace_matches_extq_route(name):
    pin, exported = _trace(name, 9, 4)
    assert (_outcome(check_exchange_trace, pin, 9, exported)
            == _outcome(_extq_check_exchange_trace, pin, 9, exported))
    rng = random.Random(5)
    labels = sorted(exported)
    for _ in range(6):
        bad = dict(exported)
        lab = rng.choice(labels)
        bad[lab] = rng.choice((bad[lab] + 1, ExtQ(0), ExtQ(-1), ExtQ.infinity(),
                               _rand_y(rng)))
        want = _outcome(_extq_check_exchange_trace, pin, 9, bad)
        assert _outcome(check_exchange_trace, pin, 9, bad) == want


def test_exchange_trace_corruptions_raise_alike():
    pin, exported = _trace("pentagram", 7, 6)
    i0, l = qs_period(pin)
    u = min(k for k in exported if ((k[0] + i0) % 7, k[1] + l) in exported)
    top = ((u[0] + i0) % 7, u[1] + l)
    cases = {
        "wrong value": {u: exported[u] * 2},
        "inf lhs": {u: ExtQ.infinity()},
        "inf * 0 lhs": {u: ExtQ.infinity(), top: ExtQ(0)},
    }
    seen = set()
    for name, change in cases.items():
        bad = dict(exported)
        bad.update(change)
        want = _outcome(_extq_check_exchange_trace, pin, 7, bad)
        assert want[0] == "raises", name
        assert _outcome(check_exchange_trace, pin, 7, bad) == want, name
        seen.add(want[1])
    assert seen == {IdentityFailure, DegenerateError}


def test_1d_y_relation_matches_extq_route():
    rng = random.Random(7)
    raised = 0
    for q, m in ONE_D_QUIVERS:
        trace = run_1d_y(q, m, [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                for _ in range(m)], 14)
        assert check_1d_y_relation(q, m, trace) == _extq_check_1d_y_relation(q, m, trace) > 0
        for _ in range(20):
            bad = list(trace)
            k = rng.randrange(len(bad))
            bad[k] = rng.choice((bad[k] + 1, ExtQ(0), ExtQ(-1), ExtQ.infinity()))
            want = _outcome(_extq_check_1d_y_relation, q, m, bad)
            assert _outcome(check_1d_y_relation, q, m, bad) == want
            raised += want[0] == "raises"
    assert raised > 0


# ---- meshes ------------------------------------------------------------------


def _grown_1d(name, seed, steps=2):
    pin = zoo_pin(name)
    w = generate_1d(pin, 0, 16 + 2 * pin.l, seed=seed)
    for _ in range(steps):
        w = step_1d(w)
    return w


@pytest.mark.parametrize("name", sorted(ZOO))
def test_mesh_checks_match_extq_route(name):
    w = _grown_1d(name, 8)
    assert _outcome(check_eqmain, w) == _outcome(_extq_check_eqmain, w)
    assert _outcome(check_menelaus, w) == _outcome(_extq_check_menelaus, w)
    assert check_menelaus(w) > 0


@pytest.mark.parametrize("name", ["pentagram", "sideways", "gopher", "rabbit"])
def test_mesh_corruptions_raise_alike(name):
    """Moving a point of a 1D mesh keeps every cross ratio defined, so the
    identities fail; replacing it by a neighbour makes factors degenerate.
    l steps give every pin's window exchange instances."""
    w = _grown_1d(name, 9, steps=zoo_pin(name).l)
    assert _outcome(check_eqmain, w)[0] == "value"
    rng = random.Random(10)
    keys = sorted(w.points)
    raised = set()
    for _ in range(12):
        bad = w.copy()
        k = rng.choice(keys)
        if rng.random() < 0.5:
            t = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            bad.points[k] = Point((t, 1))
        else:
            bad.points[k] = w.points[rng.choice(keys)]
        for check, ref in ((check_eqmain, _extq_check_eqmain),
                           (check_menelaus, _extq_check_menelaus)):
            want = _outcome(ref, bad)
            assert _outcome(check, bad) == want
            if want[0] == "raises":
                raised.add((check, want[1]))
    # failures, not only skips: the six-point relation and the exchange
    # identity fail
    assert (check_menelaus, IdentityFailure) in raised
    assert (check_eqmain, IdentityFailure) in raised


def test_planar_mesh_checks_match_extq_route():
    w = generate_window(zoo_pin("pentagram"), 2, 0, 24, seed=0)
    for _ in range(3):
        w = step_forward(w)
    assert _outcome(check_eqmain, w) == _outcome(_extq_check_eqmain, w)
    assert _outcome(check_menelaus, w) == _outcome(_extq_check_menelaus, w)


def _moved(w, k):
    """A copy of w with the point at k moved by one unit in its first
    homogeneous coordinate: off every line through it."""
    z = list(w.points[k].z)
    z[0] += 1
    bad = w.copy()
    bad.points[k] = Point(z)
    return bad


def _replaced(w, changes):
    bad = w.copy()
    for k, src in changes.items():
        bad.points[k] = w.points[src]
    return bad


@pytest.mark.parametrize("name, dim", [("pentagram", 2), ("gopher", 2), ("dented", 3),
                                       ("short_diagonal", 3)])
def test_corrupted_planar_and_spatial_checks_match_references(name, dim):
    """The line-table checks against per-instance references on windows
    with points moved off their lines or replaced by a neighbour."""
    pin = zoo_pin(name)
    w = generate_window(pin, dim, 0, 14, seed=2)
    for _ in range(pin.l + 1):
        w = step_forward(w)
    rng = random.Random(20 + dim)
    keys = sorted(w.points)
    d = pin.d
    # an inner point x: the line L_{x-d} it breaks keeps a collinear L1
    # triple, which the L1 scan reaches before x's own L1 instances
    x = next(k for k in keys if all(w.has(pin.shift((k[0] - d[0], k[1] - d[1]), lab))
                                    for lab in "abcd"))
    # at the first Menelaus base r: the triple ad, ac, ab made to coincide;
    # and ac = cd = ad, an inf * 0 instance whose triples stay collinear
    # while their lines L_{r+a} and L_{r+d} repeat a point
    offs = [pin.offset(word) for word in MENELAUS_WORDS]
    r = next(k for k in sorted(keys, key=lambda k: (k[1], k[0]))
             if all(w.has((k[0] + o1, k[1] + o2)) for o1, o2 in offs))
    ad, ac, ab, cd = (pin.shift(r, word) for word in ("ad", "ac", "ab", "cd"))
    cases = [w, _moved(w, x), _replaced(w, {ac: ad, ab: ad}), _replaced(w, {ac: ad, cd: ad})]
    for _ in range(4):
        cases.append(_moved(w, rng.choice(keys)))
        k = rng.choice(keys)
        near = (k[0] + 1, k[1])
        cases.append(_replaced(w, {k: near if near in w.points else rng.choice(keys)}))
    if dim >= 3:
        cases.append(_skew_lines(w))
    outcomes = []
    for bad in cases:
        for check, ref in ((check_relations, _rank_check_relations),
                           (check_menelaus, _extq_check_menelaus),
                           (check_eqmain, _extq_check_eqmain)):
            want = _outcome(ref, bad)
            assert _outcome(check, bad) == want, (check.__name__, want)
            outcomes.append(want)
    assert outcomes[0][0] == outcomes[1][0] == outcomes[2][0] == "value"
    # the moved inner point fails at an L1 instance of its own, not at x - d
    assert outcomes[3][:2] == ("raises", IdentityFailure)
    assert "L1 collinearity fails" in outcomes[3][2]
    assert "(%d, %d)" % (x[0] - d[0], x[1] - d[1]) not in outcomes[3][2]
    # the inf * 0 instance at r is skipped, not reported
    assert "base (%d, %d)" % r not in str(outcomes[10])
    # check_eqmain fails on the moved inner point too
    assert outcomes[5][:2] == ("raises", IdentityFailure)
    if dim >= 3:
        # the skew lines at a P3 base whose P_{r+cd} is outside the window
        assert outcomes[-3][:2] == ("raises", IdentityFailure)
        assert "coplanarity fails" in outcomes[-3][2]


def _skew_lines(w, x="c", y="d", shear=True):
    """The points of L_{r+x} and L_{r+y} at the first P3 base r of w (x, y
    the pair c, d or a, b), without P_{r+xy}, those of L_{r+y} sheared: both
    lines keep a chart, but in D >= 3 they are skew, so the P3 instance at r
    fails.  Unsheared, the lines still meet, outside the window."""
    pin = w.pin
    r = bases(w, [pin.offset(word) for word in Pin.CIRCUIT_WORDS["P3"]])[0]
    on_x = {pin.shift(r, x + lab) for lab in "abcd"} & w.points.keys()
    on_y = {pin.shift(r, y + lab) for lab in "abcd"} & w.points.keys()
    xy = pin.shift(r, x + y)
    skew = MeshWindow(pin, w.dim, {k: w.points[k] for k in on_x - {xy}})
    for k in on_y - {xy}:
        z = w.points[k].z
        skew.points[k] = Point((z[0] + z[1],) + z[1:]) if shear else w.points[k]
    assert not skew.has(xy)
    assert skew.lines[pin.shift(r, x)][2] and skew.lines[pin.shift(r, y)][2]
    return skew


def _without_row(w, j):
    return MeshWindow(w.pin, w.dim, {k: p for k, p in w.points.items() if k[1] != j})


@pytest.mark.parametrize("dim", range(2, 6))
def test_p3_routes_match_rank_reference(dim, monkeypatch):
    """P3 at r holds when L_{r+c}, L_{r+d} meet at P_{r+cd} in the window,
    or else L_{r+a}, L_{r+b} at P_{r+ab}; any other instance is decided by
    rank_of.  check_relations agrees with the rank reference on generated
    windows, on copies without the top row (no P_{r+cd} on it) or the
    bottom row (no P_{r+ab}), on corrupted copies, and on two lines whose
    meet is left out, sheared off each other or not; each route is taken."""
    routes = Counter()
    lines_meet = MeshWindow.lines_meet

    def spy(window, r, x, y):
        met = lines_meet(window, r, x, y)
        # a, b is asked only when c, d fails, and rank_of runs when both fail
        routes[x + y if met else "rank" if x + y == "ab" else "not cd"] += 1
        return met

    monkeypatch.setattr(MeshWindow, "lines_meet", spy)
    rng = random.Random(30 + dim)
    outcomes = []
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        if d_of_s(pin) < dim or dim > 2 and name in BOUNDARY_PINS:
            continue
        w = generate_window(pin, dim, 0, 12, seed=3)
        for _ in range(pin.l + 1):
            w = step_forward(w)
        rows, keys = w.rows(), sorted(w.points)
        cases = [w, _without_row(w, rows[-1]), _without_row(w, rows[0]),
                 _moved(w, rng.choice(keys)), _replaced(w, {rng.choice(keys[1:]): keys[0]})]
        cases += [_skew_lines(w, x, y, shear) for x, y in ("cd", "ab") for shear in (True, False)]
        for case in cases:
            want = _outcome(_rank_check_relations, case)
            assert _outcome(check_relations, case) == want, (name, want)
            outcomes.append(want)
    assert routes["cd"] and routes["ab"] and routes["rank"], routes
    # the skew lines fail P3 in D >= 3 only
    assert any("coplanarity fails" in str(want) for want in outcomes) == (dim > 2)


def test_bracket_product_matches_extq_route():
    rng = random.Random(12)
    values = raised = 0
    for _ in range(150):
        pts = [_random_free(rng, 2) for _ in range(4)]
        lines = [join(_random_free(rng, 2), _random_free(rng, 2)) for _ in range(4)]
        if rng.random() < 0.4:  # put a point on a line: zero and infinite brackets
            lines[rng.randrange(4)] = join(pts[rng.randrange(4)], _random_free(rng, 2))
        want = _outcome(_extq_bracket_product, pts, lines)
        assert _outcome(bracket_product, pts, lines) == want
        values += want[0] == "value"
        raised += want[0] == "raises"
    assert values > 50 and raised > 5
