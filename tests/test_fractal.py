import random
from math import comb

import pytest

from ymesh.fractal import (make_fractal, sub_fractals,
                           check_sub_fractal_intersections, fractal_dim,
                           fractal_bases_in_window, genericity_audit, bound_check,
                           genericity_evidence, _span_dim)
from ymesh.mesh import (MeshWindow, generate_1d, generate_polygon_window, generate_window,
                        step_1d, step_forward)
from ymesh.projective import Point
from ymesh.zoo import zoo_pin


def test_fractal_sizes_fixture():
    g = zoo_pin("giraffe")
    assert [len(make_fractal(g, (0, 0), k)) for k in (1, 2, 3)] == [4, 10, 20]
    assert len(make_fractal(zoo_pin("elephant"), (0, 0), 4)) == comb(7, 3)


def test_one_fractal_is_translate_of_pin(zoo_name):
    pin = zoo_pin(zoo_name)
    f = make_fractal(pin, (2, 5), 1)
    assert f == {(p[0] + 2, p[1] + 5) for p in pin.points}


def test_size_bound(zoo_name):
    pin = zoo_pin(zoo_name)
    for k in range(6):
        assert len(make_fractal(pin, (0, 0), k)) <= comb(k + 3, 3)


def test_sub_fractal_intersections(zoo_name):
    pin = zoo_pin(zoo_name)
    for k in range(2, 6):
        assert check_sub_fractal_intersections(pin, (0, 0), k)
        assert check_sub_fractal_intersections(pin, (-1, 3), k)


def test_point_level_counterexample_documented():
    # at the merged point-set level the intersection can exceed the
    # (k-2)-fractal: pentagram pin, b + 3c = a + c + 2d
    pin = zoo_pin("pentagram")
    subs = sub_fractals(pin, (0, 0), 4)
    extra = (subs["a"] & subs["b"]) - make_fractal(pin, (2, 0), 2)
    assert (2, 3) in extra


def grown(name, dim, seed=0, cols=None, steps=None):
    # a 2-fractal spans 2m+1 rows, so grow by 2m+2 steps
    pin = zoo_pin(name)
    w = generate_window(pin, dim, 0, cols or 12 * pin.m + 14, seed=seed)
    for _ in range(steps if steps is not None else 2 * pin.m + 2):
        w = step_forward(w)
    return w


def test_two_genericity_and_bound():
    for name in ("pentagram", "sideways", "short_diagonal", "penguin"):
        w = grown(name, 2)
        counts = genericity_audit(w, 2)
        assert counts[1] > 0 and counts[2] > 0
        bound_check(w, 2)


def test_low_dimensional_mesh_caps_spans():
    # a D=2 window of a D(S)=5 pin cannot be 3-generic
    w = grown("giraffe", 2, cols=12 * zoo_pin("giraffe").m + 20)
    with pytest.raises(AssertionError):
        genericity_audit(w, 3)


def test_evidence_table_reports_only():
    w = grown("short_diagonal", 3, seed=1)
    rows = genericity_evidence(w, 3)
    assert [r["k"] for r in rows] == [1, 2, 3]
    for r in rows:
        assert 0 <= r["generic"] <= r["samples"]


# ---- line-store decisions against fractal_dim ------------------------------


def _reference_audit(window, d, max_bases=40):
    """genericity_audit with every span taken by fractal_dim."""
    counts = {}
    for i in range(1, d + 1):
        bases = fractal_bases_in_window(window, i, limit=max_bases)
        for r in bases:
            dim = fractal_dim(window, make_fractal(window.pin, r, i))
            if dim != i:
                raise AssertionError("%d-fractal at %s spans dim %d" % (i, r, dim))
        counts[i] = len(bases)
    return counts


def _reference_evidence(window, dim, k_max, max_bases=25):
    """genericity_evidence with every span taken by fractal_dim."""
    rows = []
    for k in range(1, k_max + 1):
        bases = fractal_bases_in_window(window, k, limit=max_bases)
        hits = sum(fractal_dim(window, make_fractal(window.pin, r, k)) == min(k, dim)
                   for r in bases)
        rows.append({"k": k, "samples": len(bases), "generic": hits})
    return rows


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except AssertionError as e:
        return "raises", str(e)


def _collinear_mesh(name, seed):
    """A 1D mesh put on the line z = 0 of RP^2: every line of it has a chart
    and L_{r+a} = L_{r+b}, so every 2-fractal spans a line only."""
    pin = zoo_pin(name)
    w = generate_1d(pin, 0, 12 * pin.m + 14, seed=seed)
    for _ in range(2 * pin.m + 2):
        w = step_1d(w)
    flat = MeshWindow(pin, 2)
    flat.points = {k: Point(p.z + (0,)) for k, p in w.points.items()}
    return flat


def _audited_windows():
    """Generated, stepped, polygon, collinear and corrupted windows: each
    point moved off its lines, or replaced by a neighbour (a line without a
    chart)."""
    out = [("%s/%d" % (name, dim), grown(name, dim, seed=dim))
           for name, dim in (("pentagram", 2), ("sideways", 2), ("penguin", 2),
                             ("short_diagonal", 3), ("giraffe", 4))]
    out.append(("pentagram unstepped", grown("pentagram", 2, steps=0)))
    poly = generate_polygon_window(zoo_pin("pentagram"), 7, seed=1)
    for _ in range(6):
        poly = step_forward(poly)
    out.append(("pentagram n=7", poly))
    out += [("collinear %s" % name, _collinear_mesh(name, 5)) for name in ("pentagram", "rabbit")]
    rng = random.Random(30)
    for label, w in list(out):
        keys = sorted(w.points)
        for _ in range(3):
            k = rng.choice(keys)
            moved = w.copy()
            moved.points[k] = Point((w.points[k].z[0] + 1,) + w.points[k].z[1:])
            out.append(("%s moved %s" % (label, k), moved))
            near = w.copy()
            near.points[k] = w.points[rng.choice(keys)]
            out.append(("%s replaced %s" % (label, k), near))
    return out


def test_line_store_spans_match_fractal_dim():
    """Every 1- and 2-fractal of each window, by the line store and by
    fractal_dim; then the audit and the evidence table, messages included."""
    seen = set()
    for label, w in _audited_windows():
        for k in (1, 2):
            for r in fractal_bases_in_window(w, k):
                want = fractal_dim(w, make_fractal(w.pin, r, k))
                assert _span_dim(w, r, k) == want, (label, r, k)
                seen.add((k, want))
        d = min(2, w.dim)
        assert _outcome(genericity_audit, w, d, None) == _outcome(_reference_audit, w, d, None), label
        assert _outcome(genericity_audit, w, d) == _outcome(_reference_audit, w, d), label
        assert genericity_evidence(w, w.dim, 2, None) == _reference_evidence(w, w.dim, 2, None), label
    assert {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)} <= seen
