"""Exact projective geometry over the rationals.

Points of RP^D are nonzero homogeneous vectors in Q^(D+1) up to scale, kept as
primitive integer vectors; flats are linear subspaces kept as integer reduced
echelon bases (``rref``), so equality of flats is equality of tuples, and two
flats meet in the common kernel of their covectors (``nullspace``).  Ranks,
echelon forms, kernels, cross ratios and meets work on integer vectors without
fractions (fraction-free elimination, Bareiss, Math. Comp. 22, 1968).  One
integer line chart decides every collinearity (``_line_of``): x is on the line
of p, q iff d·x = det(x, q)·p + det(p, x)·q, and on a chart i, j where
d = det(p, q) != 0 that holds for every x, so only the other D - 1
coordinates are compared; it also gives the rank of up to three vectors
(``rank_of``), and Bareiss elimination that of longer lists.
The identity checks chart each mesh line once (``chart_of``) and read cross
ratios (``cross_ratio_on``) and multi-ratio factors (``factor_pair``) off
that chart.  Everything is exact; no floats.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .rational import ExtQ, DegenerateError


def rref(rows):
    """Integer reduced row echelon form of integer rows: (rows, pivot_columns)
    as tuples.  Each row is the row of the form over Q scaled to its
    primitive integer vector, pivot positive, so the form is canonical.  A
    row is divided by its content each time a pivot clears its column."""
    mat = [list(r) for r in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        pv = top[col]
        for r, row in enumerate(mat):
            f = row[col]
            if f and r != rank:
                row = [pv * x - f * y for x, y in zip(row, top)]
                g = gcd(*row)
                mat[r] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return tuple(_primitive(r) for r in mat[:len(pivots)]), tuple(pivots)


def nullspace(rows, ncols):
    """Basis of the right kernel of the integer rows (each of length ncols):
    for each free column c of ``rref``, the kernel vector over Q that is 1 at
    c and 0 at the other free columns, as a primitive integer vector."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    scale = lcm(*(r[pc] for r, pc in zip(red, pivots)))
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = scale
        for r, pc in zip(red, pivots):
            vec[pc] = -r[fc] * (scale // r[pc])
        basis.append(_primitive(vec))
    return basis


def _primitive(ints):
    """The primitive integer vector of a nonzero integer vector, first
    nonzero entry positive."""
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector is not a projective point")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


class Point:
    """Projective point.  ``z`` is its primitive integer vector (first nonzero
    entry positive), which equality and hashing use; ``v`` is the same point
    as rational coordinates normalized so the first nonzero one is 1."""

    __slots__ = ("z", "_v")

    def __init__(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if not all(type(c) is int for c in coords):
            fr = [Fraction(c) for c in coords]
            den = lcm(*(c.denominator for c in fr))
            coords = [c.numerator * (den // c.denominator) for c in fr]
        self.z = _primitive(coords)
        self._v = None

    @property
    def v(self):
        if self._v is None:
            lead = next(x for x in self.z if x)
            self._v = tuple(Fraction(x, lead) for x in self.z)
        return self._v

    @property
    def dim(self):
        return len(self.z) - 1

    def __eq__(self, other):
        return isinstance(other, Point) and self.z == other.z

    def __hash__(self):
        return hash(self.z)

    def __repr__(self):
        return "Point(%s)" % ", ".join(str(c) for c in self.v)

    @classmethod
    def affine(cls, *coords):
        """Point with an appended homogenizing 1."""
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        return cls(tuple(coords) + (1,))


class Flat:
    """Projective flat = linear subspace of Q^(n), spanned by the integer
    vectors ``gens``; ``rows`` is its integer reduced echelon form.

    The basis is reduced on first use of ``rows``, so a line built by
    ``join`` and only met with another line never reduces it."""

    __slots__ = ("gens", "_rows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = [tuple(r) for r in rows]
        if ncols is None:
            if not rows:
                raise ValueError("empty flat needs explicit ambient dimension")
            ncols = len(rows[0])
        self.ncols = ncols
        self.gens = rows
        self._rows = None

    @property
    def rows(self):
        if self._rows is None:
            self._rows, _ = rref(self.gens)
        return self._rows

    @property
    def rank(self):
        return len(self.rows)

    @property
    def dim(self):
        """Projective dimension (-1 for the empty flat)."""
        return self.rank - 1

    def __eq__(self, other):
        return isinstance(other, Flat) and self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __repr__(self):
        return "Flat(dim=%d, ambient=%d)" % (self.dim, self.ncols - 1)

    def point(self):
        if self.rank != 1:
            raise ValueError("flat of rank %d is not a point" % self.rank)
        return Point(self.rows[0])


def span(points):
    """Smallest flat containing the given points."""
    pts = list(points)
    return Flat([p.z for p in pts], ncols=len(pts[0].z))


def join(*points):
    return span(points)


def _int_rank(rows):
    """Rank of a list of integer vectors.  Fraction-free (Bareiss)
    elimination: every division is exact, and it ends once the rank equals
    the number of rows or columns."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    rank, prev = 0, 1
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        pv = top[col]
        for r in range(rank + 1, len(mat)):
            row = mat[r]
            f = row[col]
            mat[r] = [0] * (col + 1) + [(pv * x - f * y) // prev
                                        for x, y in zip(row[col + 1:], top[col + 1:])]
        prev = pv
        rank += 1
        if rank == len(mat):
            break
    return rank


def rank_of(points):
    """Rank of the points' vectors.  Up to three vectors are decided by the
    line chart (``_line_of``): () is one vector repeated (rank 1), a chart
    a line (rank 2) and None a plane (rank 3), since two distinct primitive
    vectors are independent.  A longer list is reduced by ``_int_rank``;
    one longer than the vectors first reduces only its first D + 1 vectors,
    and spans RP^D if they do."""
    zs = [p.z for p in points]
    if 0 < len(zs) <= 3:
        chart = _line_of(zs)
        return 3 if chart is None else 2 if chart else 1
    full = len(zs[0]) if zs else 0
    if len(zs) > full and _int_rank(zs[:full]) == full:
        return full
    return _int_rank(zs)


def collinear(points):
    """Whether the points span at most a line (rank <= 2)."""
    return _line_of([p.z for p in points]) is not None


def meet(f1, f2):
    """Intersection of two flats: the common kernel of the covectors that
    cut out each of them."""
    if f1.ncols != f2.ncols:
        raise ValueError("ambient dimension mismatch")
    n = f1.ncols
    return Flat(nullspace(nullspace(f1.gens, n) + nullspace(f2.gens, n), n), ncols=n)


_NO_MEET = "flats meet in rank %d, expected a point"


def meet_point(f1, f2):
    """Intersection of two flats, required to be a single point.

    Two lines given by two vectors each (as ``join`` builds them) meet by
    Cramer's rule on those vectors (``_meet_lines``), or else coincide or are
    skew.  A line given by one point twice meets a point in that point when
    they are equal, and a line when the point is on it; otherwise the flats
    meet in rank 0.  Every other input goes through ``meet``.
    """
    if len(f1.gens) == 2 == len(f2.gens) and f1.ncols == f2.ncols:
        x = _meet_lines(*f1.gens, *f2.gens)
        if x is not None:
            return Point(x)
        c1, c2 = _chart2(*f1.gens), _chart2(*f2.gens)
        if c1 and c2:  # coincident or skew lines
            rank = 4 - _int_rank([Point(g).z for g in f1.gens + f2.gens])
            raise DegenerateError(_NO_MEET % rank)
        if not (c1 or c2):  # two points
            p = Point(f1.gens[0])
            if p == Point(f2.gens[0]):
                return p
        else:  # a point and a line
            p, line = (Point(f2.gens[0]), f1.gens) if c1 else (Point(f1.gens[0]), f2.gens)
            if _line_of([*line, p.z]) is not None:
                return p
        raise DegenerateError(_NO_MEET % 0)
    m = meet(f1, f2)
    if m.rank != 1:
        raise DegenerateError(_NO_MEET % m.rank)
    return m.point()


def det2(p, q, i, j):
    """det(p, q) on coordinates i and j."""
    return p[i] * q[j] - p[j] * q[i]


def _cross3(p, q, i, j, k):
    """Cofactors of p, q on coordinates i, j, k: det(p, q, r) on those
    coordinates is their dot product with (r_i, r_j, r_k)."""
    return (p[j] * q[k] - p[k] * q[j], p[k] * q[i] - p[i] * q[k], p[i] * q[j] - p[j] * q[i])


def _chart2(p, q):
    """The chart (i, j, d) of integer vectors p, q: the first coordinates
    with d = det(p, q) != 0 on them; None when p and q are proportional."""
    for i, j in combinations(range(len(p)), 2):
        d = det2(p, q, i, j)
        if d:
            return i, j, d
    return None


def _line_of(zs):
    """The chart (i, j, d) of the first vector p of zs and the first vector
    q != p (independent of p, as primitive vectors are) when every vector x
    after q is on their line, that is d·x = det(x, q)·p + det(p, x)·q off
    the chart.  () when zs holds one vector or none, None when zs spans more
    than a line."""
    p = zs[0] if zs else None
    for n, q in enumerate(zs):
        if q != p:
            break
    else:
        return ()
    i, j, d = chart = _chart2(p, q)
    for x in zs[n + 1:]:
        s, t = det2(x, q, i, j), det2(p, x, i, j)
        for k in range(len(x)):
            if k != i and k != j and d * x[k] != s * p[k] + t * q[k]:
                return None
    return chart


def chart_of(zs):
    """The chart (i, j) of ``_line_of`` on the vectors of zs that are not
    None, in order, or None unless they are distinct (at least two) and lie
    on one line.  On a chart every collinearity and distinctness test of
    those vectors holds, and their 2x2 determinants differ from those on any
    other chart of the line by one common nonzero factor."""
    present = [z for z in zs if z is not None]
    chart = _line_of(present)
    return chart[:2] if chart and len(set(present)) == len(present) else None


def _meet_lines(a, b, u, w):
    """The vector where line <a, b> meets line <u, w>, or None when the input
    is degenerate (a line through one point, coincident or skew lines).

    On the three coordinates of a chart where the plane of the four vectors
    projects isomorphically, Cramer's rule gives the meet as lam u - mu w,
    lam = det(a, b, w), mu = det(a, b, u).  Both are dot products with the
    cofactors of a, b, so they share those cofactors' common factor (and
    often more); they are divided by gcd(lam, mu) first, which leaves the
    point as it was and makes the vector about half the size.
    """
    for i, j, k in combinations(range(len(a)), 3):
        c = _cross3(a, b, i, j, k)
        lam = c[0] * w[i] + c[1] * w[j] + c[2] * w[k]
        mu = c[0] * u[i] + c[1] * u[j] + c[2] * u[k]
        if not (lam or mu):
            continue
        g = gcd(lam, mu)
        lam, mu = lam // g, mu // g
        x = [lam * s - mu * t for s, t in zip(u, w)]
        return x if any(x) and (len(a) == 3 or _line_of([a, b, x])) else None
    return None


def _common_line(pts):
    """Integer vectors of points on one line and a chart (i, j) of it; points
    that do not span a line raise DegenerateError."""
    zs = [x.z for x in pts]
    chart = _line_of(zs)
    if not chart:
        raise DegenerateError("points span rank %d, expected a line" % rank_of(pts))
    return zs, chart[:2]


def cross_ratio_pair(x1, x2, x3, x4):
    """[x1,x2,x3,x4] as an unreduced integer pair (num, den), den = 0 for
    inf: the 2x2 determinants ``cross_ratio`` divides.  Raises where
    ``cross_ratio`` does."""
    zs, chart = _common_line((x1, x2, x3, x4))
    return cross_ratio_on(*zs, *chart)


def cross_ratio_on(z1, z2, z3, z4, i, j):
    """``cross_ratio_pair`` of the integer vectors z1..z4 on a chart (i, j)
    of their common line.  The pairs of two charts differ by a positive
    factor, the square of the ratio of their det(p, q)."""
    num = det2(z1, z2, i, j) * det2(z3, z4, i, j)
    den = det2(z2, z3, i, j) * det2(z4, z1, i, j)
    if num == 0 and den == 0:
        raise DegenerateError("0/0")
    return num, den


def cross_ratio(x1, x2, x3, x4):
    """[x1,x2,x3,x4] = (x1-x2)(x3-x4) / ((x2-x3)(x4-x1)) for collinear points.

    The value is a ratio of 2x2 determinants in which every point appears
    once above and once below, so it is computed on the integer vectors in a
    chart of the common line; points not on one line raise DegenerateError.
    """
    return ExtQ(*cross_ratio_pair(x1, x2, x3, x4))


def multi_ratio_pair(points):
    """The multi-ratio of ``multi_ratio`` as an unreduced integer pair
    (num, den), den = 0 for inf.  Raises where ``multi_ratio`` does."""
    pts = list(points)
    n = len(pts)
    if n % 2 != 0 or n < 4:
        raise ValueError("multi-ratio needs an even number (>= 4) of points")

    def factors():
        for i in range(0, n, 2):
            (z1, z2, z3), (k, m) = _common_line([pts[i], pts[(i + 1) % n], pts[(i + 2) % n]])
            yield det2(z1, z2, k, m), det2(z2, z3, k, m)

    return factor_pair(factors())


def factor_pair(factors):
    """The product of the factors a/b, given as integer pairs (a, b) in
    charts of their lines, as an unreduced pair (num, den); raises like
    ``multi_ratio_pair``.  A factor read on another chart of its line
    changes the pair by a common nonzero factor only."""
    num, den = 1, 1
    for a, b in factors:
        if a == 0 and b == 0:
            raise DegenerateError("0/0 factor in multi-ratio")
        num *= a
        den *= b
    if num == 0 and den == 0:
        # an inf factor met a 0 factor, however many of each
        raise DegenerateError("inf * 0 in multi-ratio")
    return num, den


def multi_ratio(points):
    """Cyclic multi-ratio [P1,...,P_2k] of points with collinear consecutive
    triples {P_(2i-1), P_(2i), P_(2i+1)} (1-based, cyclic).

    Each factor P_(2i-1)P_(2i) / P_(2i)P_(2i+1) is a ratio of 2x2
    determinants of the integer vectors in a chart of the triple's own line;
    the chart's scale cancels in each factor and the vectors' scales cancel
    around the cycle.  k=2 reduces to the cross ratio.  A zero and an
    infinite factor raise DegenerateError, so den = 0 means inf.
    """
    return ExtQ(*multi_ratio_pair(points))
