"""Hyperplane maps on polygons in RP^D.

Given step tuples I = (s1..s_{D-1}) and J = (t1..t_{D-1}) with distinct
partial sums, H_i is the hyperplane through the D points A_{i+o}, o over the
partial sums of I, and the image vertex with label i is the intersection of
the D hyperplanes H_{i+o'}, o' over the partial sums of J.  H_i is kept as
its covector, the one kernel vector of its D points, and the image vertex is
the one kernel vector of its D covectors.  The inverse map is the one with
both tuples reversed.
"""

from .projective import Point, meet, nullspace, span
from .pins import offsets_of_tuple


class IJMapError(ValueError):
    pass


def _offsets(tup, dim):
    offs = sorted(offsets_of_tuple(tup))
    if len(offs) != dim:
        raise IJMapError("partial sums of %s are not distinct" % (tup,))
    return offs


def t_ij(polygon, i_tuple, j_tuple):
    """Apply T_{I,J} to polygon (dict index -> Point); returns the image
    polygon on indices where all sources exist."""
    if not polygon:
        raise IJMapError("the polygon has no vertices")
    dim = next(iter(polygon.values())).dim
    if len(i_tuple) != dim - 1 or len(j_tuple) != dim - 1:
        raise IJMapError("tuples must have length D-1 = %d" % (dim - 1))
    i_offs, j_offs = _offsets(i_tuple, dim), _offsets(j_tuple, dim)
    planes = {}

    def hyperplane(i):
        if i not in planes:
            if not all(i + o in polygon for o in i_offs):
                planes[i] = None
            else:
                ker = nullspace([polygon[i + o].z for o in i_offs], dim + 1)
                planes[i] = ker[0] if len(ker) == 1 else None
        return planes[i]

    out = {}
    for i in polygon:
        hs = [hyperplane(i + o) for o in j_offs]
        if any(h is None for h in hs):
            continue
        ker = nullspace(hs, dim + 1)
        if len(ker) != 1:
            raise IJMapError("hyperplanes at %d meet in rank %d" % (i, len(ker)))
        out[i] = Point(ker[0])
    if not out:
        raise IJMapError("no image vertex could be computed")
    return out


def t_ij_inverse(polygon, i_tuple, j_tuple):
    """Apply the inverse map T_{J*,I*} (reversed tuples)."""
    return t_ij(polygon, tuple(reversed(j_tuple)), tuple(reversed(i_tuple)))


def constant_case_shortcut(polygon, s, t, k, dim):
    """For I = (s,...,s) and J = I with t at slot k (gcd(s,t)=1): the image
    vertex with our labeling is the meet of the span of A_{i+(k-1)s..(D-1)s}
    (step s) with the span of A_{i+(D-2)s+t..(D+k-2)s+t} (step s)."""
    out = {}
    for i in polygon:
        first = [i + v * s for v in range(k - 1, dim)]
        second = [i + (dim - 2 + v) * s + t for v in range(0, k + 1)]
        if not all(x in polygon for x in first + second):
            continue
        f1 = span([polygon[x] for x in first])
        f2 = span([polygon[x] for x in second])
        cur = meet(f1, f2)
        if cur.rank != 1:
            raise IJMapError("shortcut meet at %d has rank %d" % (i, cur.rank))
        out[i] = cur.point()
    return out


def polygons_equal_up_to_shift(p1, p2, max_shift=8, min_overlap=3):
    """Whether two partial polygons agree after some index shift; returns the
    shift or None."""
    for sh in range(-max_shift, max_shift + 1):
        common = [i for i in p1 if i + sh in p2]
        if len(common) >= min_overlap and all(p1[i] == p2[i + sh] for i in common):
            return sh
    return None


def row_polygon(window, j):
    """Extract mesh row j as a polygon dict."""
    return {i: window.get((i, j)) for i in window.row_cols(j)}
