import random

import pytest

from ymesh.ijmap import (IJMapError, t_ij, t_ij_inverse,
                         constant_case_shortcut, polygons_equal_up_to_shift,
                         row_polygon)
from ymesh.mesh import generate_window, step_forward, _random_free
from ymesh.pins import ij_correspondence, horizontal_info, offsets_of_tuple
from ymesh.projective import Point
from ymesh.zoo import zoo_pin

from fraction_gauss import fraction_meet, fraction_rref


def random_polygon(n, dim, seed=0):
    rng = random.Random(seed)
    return {i: _random_free(rng, dim) for i in range(n)}


def test_rejects_non_distinct_partial_sums():
    with pytest.raises(IJMapError):
        t_ij(random_polygon(10, 3), (1, -1), (1, 1))


def test_empty_polygon_is_an_ijmap_error():
    with pytest.raises(IJMapError, match="no vertices"):
        t_ij({}, (1,), (1,))


def test_inverse_round_trip_3d():
    poly = random_polygon(16, 3, seed=5)
    for I, J in (((2, 2), (1, 1)), ((1, 2), (2, 1))):
        back = t_ij_inverse(t_ij(poly, I, J), I, J)
        assert polygons_equal_up_to_shift(back, poly, max_shift=16) is not None


def test_constant_case_shortcut_matches_full_map():
    # I = (s,s), J = I with t at slot k
    poly = random_polygon(18, 3, seed=6)
    s, t, k = 1, 2, 1
    I, J = (s, s), (t, s)
    full = t_ij(poly, I, J)
    short = constant_case_shortcut(poly, s, t, k, 3)
    sh = polygons_equal_up_to_shift(short, full, max_shift=10)
    assert sh is not None


def mesh_rows(name, dim, cols, steps, seed=2):
    pin = zoo_pin(name)
    w = generate_window(pin, dim, 0, cols, seed=seed)
    for _ in range(steps):
        w = step_forward(w)
    return pin, w


def test_short_diagonal_rows_are_ij_images():
    pin, w = mesh_rows("short_diagonal", 3, 34, 6)
    I, J, D = ij_correspondence(pin)
    pq = horizontal_info(pin)["p"] * horizontal_info(pin)["q"]
    matched = 0
    for j in w.rows():
        if j + pq > w.rows()[-1]:
            break
        img = t_ij(row_polygon(w, j), I, J)
        assert len(img) >= 10
        sh = polygons_equal_up_to_shift(img, row_polygon(w, j + pq),
                                        max_shift=14, min_overlap=10)
        assert sh is not None
        matched += 1
    assert matched >= 3


def test_giraffe_rows_are_ij_images():
    pin, w = mesh_rows("giraffe", 4, 44, 9)
    I, J, D = ij_correspondence(pin)
    assert I == (2, 2, 2)
    pq = 3
    matched = 0
    for j in w.rows():
        if j + pq > w.rows()[-1]:
            break
        img = t_ij(row_polygon(w, j), I, J)
        assert len(img) >= 10
        sh = polygons_equal_up_to_shift(img, row_polygon(w, j + pq),
                                        max_shift=14, min_overlap=10)
        assert sh is not None
        matched += 1
    assert matched >= 3


def _fraction_t_ij(polygon, i_tuple, j_tuple):
    """T_{I,J} by the Fraction route: H_i is the reduced basis of the span of
    its D points, and an image vertex is D - 1 chained meets of hyperplanes."""
    dim = next(iter(polygon.values())).dim
    if len(i_tuple) != dim - 1 or len(j_tuple) != dim - 1:
        raise IJMapError("tuples must have length D-1 = %d" % (dim - 1))
    i_offs, j_offs = sorted(offsets_of_tuple(i_tuple)), sorted(offsets_of_tuple(j_tuple))
    for tup, offs in ((i_tuple, i_offs), (j_tuple, j_offs)):
        if len(offs) != dim:
            raise IJMapError("partial sums of %s are not distinct" % (tup,))

    def hyperplane(i):
        if not all(i + o in polygon for o in i_offs):
            return None
        rows = fraction_rref([polygon[i + o].z for o in i_offs])[0]
        return rows if len(rows) == dim else None

    out = {}
    for i in polygon:
        hs = [hyperplane(i + o) for o in j_offs]
        if any(h is None for h in hs):
            continue
        cur = hs[0]
        for h in hs[1:]:
            cur = fraction_meet(cur, h, dim + 1)
        if len(cur) != 1:
            raise IJMapError("hyperplanes at %d meet in rank %d" % (i, len(cur)))
        out[i] = Point(cur[0])
    if not out:
        raise IJMapError("no image vertex could be computed")
    return out


def _ij_outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except IJMapError as e:
        return ("raises", str(e))


@pytest.mark.parametrize("dim", range(2, 6))
def test_t_ij_matches_chained_fraction_meets(dim):
    """Random polygons in RP^D and step tuples: images, skipped vertices and
    errors as the Fraction route has them.  Some polygons have small
    coordinates, some a vertex repeated inside one H_i, which skips the
    image vertices that use H_i, and some lie in a hyperplane, so that
    their hyperplanes meet in rank D; some tuples have equal partial sums."""
    rng = random.Random(700 + dim)
    seen = set()
    for trial in range(60):
        n = rng.randint(dim + 3, 4 * dim + 4)
        I = tuple(rng.randint(1, 3) for _ in range(dim - 1))
        J = tuple(rng.randint(1, 3) for _ in range(dim - 1))
        if trial % 10 == 5:
            I = (0,) + I[1:]
        if trial % 3 == 1:
            poly = {i: Point([rng.randint(-2, 2) for _ in range(dim)] + [1]) for i in range(n)}
        else:
            poly = {i: _random_free(rng, dim) for i in range(n)}
        if trial % 2:
            k = rng.randrange(n // 2)
            poly[min(n - 1, k + sum(I))] = poly[k]
        if trial % 10 == 9:
            poly = {i: Point(p.z[:-1] + (0,)) if any(p.z[:-1]) else p for i, p in poly.items()}
        got = _ij_outcome(t_ij, poly, I, J)
        assert got == _ij_outcome(_fraction_t_ij, poly, I, J), (poly, I, J)
        if got[0] == "raises":
            seen.add("meet in rank" if "meet in rank" in got[1] else got[1].split()[0])
        else:
            reach = {o + p for o in offsets_of_tuple(I) for p in offsets_of_tuple(J)}
            full = [i for i in poly if all(i + o in poly for o in reach)]
            seen.add("skipped" if len(got[1]) < len(full) else "value")
    assert {"value", "skipped", "meet in rank", "partial"} <= seen, seen
