"""Index pins S = {a,b,c,d} in Z^2 and their combinatorial invariants."""

from fractions import Fraction
from math import gcd

from .projective import rref


class PinError(ValueError):
    pass


def _sorted_labels(points):
    pts = sorted(set(map(tuple, points)), key=lambda p: (p[1], p[0]))
    if len(pts) != 4:
        raise PinError("a pin needs four distinct points")
    return pts


class Pin:
    """Four distinct points a,b,c,d in Z^2 with a2 <= b2 < c2 <= d2 (rows j),
    whose differences from a generate the full lattice Z^2.

    Ties inside {a,b} and {c,d} are broken lexicographically by (j, i).
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, points):
        a, b, c, d = _sorted_labels(points)
        if not b[1] < c[1]:
            raise PinError("no row split with b2 < c2: rows %s" % [p[1] for p in (a, b, c, d)])
        self.a, self.b, self.c, self.d = a, b, c, d
        if not self.spans_lattice():
            raise PinError("differences of %s do not generate Z^2" % (self.points,))

    @property
    def points(self):
        return (self.a, self.b, self.c, self.d)

    def spans_lattice(self):
        a = self.a
        dets = []
        diffs = [tuple(p[k] - a[k] for k in (0, 1)) for p in (self.b, self.c, self.d)]
        for i in range(3):
            for j in range(i + 1, 3):
                dets.append(diffs[i][0] * diffs[j][1] - diffs[i][1] * diffs[j][0])
        g = 0
        for v in dets:
            g = gcd(g, v)
        return g == 1

    @property
    def m(self):
        """Number of rows an order-m map acts on: d2 - a2."""
        return self.d[1] - self.a[1]

    @property
    def l(self):
        """Period offset c2 + d2 - a2 - b2 of the associated quiver."""
        return self.c[1] + self.d[1] - self.a[1] - self.b[1]

    def __eq__(self, other):
        return isinstance(other, Pin) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "Pin(a=%s, b=%s, c=%s, d=%s)" % self.points

    # lattice symmetries -------------------------------------------------

    def apply(self, sign=1, shear=0, i0=0, j0=0):
        """Equivalence g(i,j) = (sign*i + shear*j + i0, j + j0), sign = +-1."""
        if sign not in (1, -1):
            raise PinError("sign must be +-1")
        return Pin([(sign * i + shear * j + i0, j + j0) for (i, j) in self.points])

    def time_reverse(self):
        """(i,j) -> (i,-j); pins of the inverse dynamics."""
        return Pin([(i, -j) for (i, j) in self.points])

    def normalized(self):
        """Translate so a = (0,0)."""
        ai, aj = self.a
        return self.apply(i0=-ai, j0=-aj)


def convex_relation(pin):
    """Primitive integer relation m1*a + m2*b + m3*c + m4*d = 0 with
    m1+m2+m3+m4 = 0, normalized so the first nonzero of (m2, m1) is positive.

    |mi| equals twice the area of the triangle on the other three points, so
    the positive part sums to M(S) and D(S) = M(S) - 1.
    """
    a, b, c, d = pin.points

    def det3(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    m1 = det3(b, c, d)
    m2 = -det3(a, c, d)
    m3 = det3(a, b, d)
    m4 = -det3(a, b, c)
    g = 0
    for v in (m1, m2, m3, m4):
        g = gcd(g, v)
    ms = tuple(v // g for v in (m1, m2, m3, m4))
    lead = ms[1] if ms[1] != 0 else ms[0]
    if lead < 0:
        ms = tuple(-v for v in ms)
    assert sum(ms) == 0
    assert sum(m * p[0] for m, p in zip(ms, pin.points)) == 0
    assert sum(m * p[1] for m, p in zip(ms, pin.points)) == 0
    return ms


def hull_area_twice(points):
    """Twice the area of the convex hull of the points (monotone chain)."""
    pts = sorted(set(map(tuple, points)))

    def half(iterable):
        out = []
        for p in iterable:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    a2 = 0
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        a2 += x1 * y2 - x2 * y1
    return abs(a2)


def _hnf_index(gens):
    """Index of the sublattice of Z^2 generated by gens (0 if not full rank)."""
    vecs = [tuple(v) for v in gens if v != (0, 0)]
    if not vecs:
        return 0
    # bring to upper triangular form by integer row reduction
    rows = [list(v) for v in vecs]
    # eliminate first column
    while True:
        nz = [r for r in rows if r[0] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda r: abs(r[0]))
        pivot = nz[0]
        for r in nz[1:]:
            q = r[0] // pivot[0]
            r[0] -= q * pivot[0]
            r[1] -= q * pivot[1]
    first = next((r for r in rows if r[0] != 0), None)
    if first is None:
        return 0
    g = 0
    for r in rows:
        if r is not first and r[0] == 0:
            g = gcd(g, r[1])
    # reduce first's second entry irrelevant for index
    if g == 0:
        return 0
    return abs(first[0]) * abs(g)


def lattice_pieces(pin):
    """Partition of S into the two pieces given by the convex-relation signs.

    Returns a list of one or two partitions (each a pair of tuples of points);
    a zero coefficient (fourth point on a hull edge) yields both groupings.
    """
    ms = convex_relation(pin)
    pos = [p for m, p in zip(ms, pin.points) if m > 0]
    neg = [p for m, p in zip(ms, pin.points) if m < 0]
    zero = [p for m, p in zip(ms, pin.points) if m == 0]
    if not zero:
        return [(tuple(pos), tuple(neg))]
    if len(zero) != 1:
        raise PinError("degenerate relation %s" % (ms,))
    z = zero[0]
    return [(tuple(pos + [z]), tuple(neg)), (tuple(pos), tuple(neg + [z]))]


def lattice_index(pin):
    """Index of the difference lattice Lambda(S) in Z^2 (one value; asserts all
    valid groupings agree)."""
    vals = set()
    for piece1, piece2 in lattice_pieces(pin):
        gens = []
        for piece in (piece1, piece2):
            base = piece[0]
            gens += [(p[0] - base[0], p[1] - base[1]) for p in piece[1:]]
        vals.add(_hnf_index(gens))
    if len(vals) != 1:
        raise PinError("lattice groupings disagree: %s" % vals)
    return vals.pop()


def d_of_s(pin, route="relation"):
    """Maximal mesh dimension D(S).

    Three independent routes: 'relation' (positive part of the convex relation
    minus 1), 'hull' (twice the hull area minus 1), 'lattice' (index of the
    difference lattice minus 1).
    """
    if route == "relation":
        ms = convex_relation(pin)
        return sum(m for m in ms if m > 0) - 1
    if route == "hull":
        return hull_area_twice(pin.points) - 1
    if route == "lattice":
        return lattice_index(pin) - 1
    raise PinError("unknown route %r" % route)


def m2_of_s(pin):
    """Order of the reduced planar system: max(c2-a2, d2-b2)."""
    return max(pin.c[1] - pin.a[1], pin.d[1] - pin.b[1])


# horizontal pins and (I,J)-map data ------------------------------------


def horizontal_info(pin):
    """Data of a horizontal pin (a2 == b2) in normalized position.

    Normalizes to a=(0,0), b=(b1,0) with b1>0; requires gcd(p,q)=1 where
    p = c2, q = d2.  Returns dict with p, q, s=b1, c, d.
    """
    if pin.a[1] != pin.b[1]:
        raise PinError("not a horizontal pin (a2 != b2)")
    p0 = pin.normalized()
    if p0.b[0] < 0:
        p0 = p0.apply(sign=-1).normalized()
    a, b, c, d = p0.points
    p, q = c[1], d[1]
    if gcd(p, q) != 1:
        raise PinError("rows p=%d, q=%d not coprime" % (p, q))
    return {"pin": p0, "p": p, "q": q, "s": b[0], "c": c, "d": d}


def ij_correspondence(pin):
    """(I, J, D) of the hyperplane map realizing the horizontal pin's dynamics
    in dimension D = p + q: I = (s,...,s); J = I with t at slot k = p, where
    t = q*c1 - p*d1 - (q-1)*s.  A^{(j + p*q)} = T_{I,J}(A^{(j)})."""
    info = horizontal_info(pin)
    p, q, s = info["p"], info["q"], info["s"]
    c, d = info["c"], info["d"]
    dim = p + q
    t = q * c[0] - p * d[0] - (q - 1) * s
    i_tuple = (s,) * (dim - 1)
    j_tuple = tuple(t if k == p else s for k in range(1, dim))
    return i_tuple, j_tuple, dim


def offsets_of_tuple(tup):
    """Partial-sum offset set {0, t1, t1+t2, ...} of a step tuple."""
    out = [0]
    for t in tup:
        out.append(out[-1] + t)
    return frozenset(out)


def tuples_shift_equivalent(t1, t2):
    """Whether two step tuples define the same hyperplane family up to a
    common index shift (equal offset sets modulo translation)."""
    o1 = sorted(offsets_of_tuple(t1))
    o2 = sorted(offsets_of_tuple(t2))
    if len(o1) != len(o2):
        return False
    shift = o2[0] - o1[0]
    return all(x + shift == y for x, y in zip(o1, o2))
