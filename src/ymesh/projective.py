"""Exact projective geometry over the rationals.

Points of RP^D are nonzero homogeneous vectors in Q^(D+1) up to scale, kept as
primitive integer vectors; flats are linear subspaces stored as reduced row
echelon bases, so equality of flats is equality of tuples.  Ranks, cross
ratios and the meet of two lines work on the integer vectors without
fractions (fraction-free elimination, Bareiss, Math. Comp. 22, 1968).
Everything is exact; no floats.
"""

from fractions import Fraction
from math import gcd, lcm

from .rational import ExtQ, DegenerateError


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns) as tuples."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return tuple(tuple(r) for r in mat[:rank]), tuple(pivots)


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix given by rows (each of length ncols)."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            vec[pc] = -r[fc]
        basis.append(tuple(vec))
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
    """Projective flat = linear subspace of Q^(n), stored as an RREF basis.

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

    def contains(self, point):
        red, _ = rref(list(self.rows) + [point.z])
        return len(red) == self.rank

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


def _int_rank(rows, stop=None):
    """Rank of a list of integer vectors, or ``stop`` once the rank reaches
    it.  Fraction-free (Bareiss) elimination: every division is exact, and
    it ends once the rank equals the number of rows or columns."""
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
        if rank == stop or rank == len(mat):
            break
    return rank


def rank_of(points):
    return _int_rank([p.z for p in points])


def collinear(points):
    return _int_rank([p.z for p in points], 3) <= 2


def meet(f1, f2):
    """Intersection of two flats."""
    if f1.ncols != f2.ncols:
        raise ValueError("ambient dimension mismatch")
    n = f1.ncols
    k1, k2 = f1.rank, f2.rank
    # columns of M are the basis vectors of f1 and -f2; kernel elements give
    # coefficient pairs with equal combinations.
    mat = [[f1.rows[j][i] for j in range(k1)] + [-f2.rows[j][i] for j in range(k2)]
           for i in range(n)]
    basis = []
    for coef in nullspace(mat, k1 + k2):
        vec = tuple(sum(coef[j] * f1.rows[j][i] for j in range(k1)) for i in range(n))
        basis.append(vec)
    if not basis:
        return Flat([], ncols=n)
    return Flat(basis, ncols=n)


def meet_point(f1, f2):
    """Intersection of two flats, required to be a single point.

    Two lines given by two vectors each (as ``join`` builds them) meet by
    Cramer's rule on those vectors (``_meet_lines``); every other input, and
    every degenerate one, goes through ``meet``.
    """
    if len(f1.gens) == 2 == len(f2.gens) and f1.ncols == f2.ncols:
        x = _meet_lines(*f1.gens, *f2.gens)
        if x is not None:
            return Point(x)
    m = meet(f1, f2)
    if m.rank != 1:
        raise DegenerateError("flats meet in rank %d, expected a point" % m.rank)
    return m.point()


def _det2(p, q, i, j):
    return p[i] * q[j] - p[j] * q[i]


def _cross3(p, q, i, j, k):
    """Cofactors of p, q on coordinates i, j, k: det(p, q, r) on those
    coordinates is their dot product with (r_i, r_j, r_k)."""
    return (p[j] * q[k] - p[k] * q[j], p[k] * q[i] - p[i] * q[k], p[i] * q[j] - p[j] * q[i])


def _chart2(p, q):
    """Two coordinates on which the integer vectors p, q are independent, or
    None when they are proportional."""
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if _det2(p, q, i, j):
                return i, j
    return None


def _on_line(x, p, q, chart):
    """Whether the integer vector x lies in the span of p and q (independent
    on the coordinates ``chart``)."""
    i, j = chart
    d = _det2(p, q, i, j)
    s, t = _det2(x, q, i, j), _det2(p, x, i, j)
    return all(d * xk == s * pk + t * qk for xk, pk, qk in zip(x, p, q))


def _meet_lines(a, b, u, w):
    """The vector where line <a, b> meets line <u, w>, or None when the input
    is degenerate (a line through one point, coincident or skew lines).

    On the three coordinates of a chart where the plane of the four vectors
    projects isomorphically, Cramer's rule gives the meet as
    det(a, b, w) u - det(a, b, u) w.
    """
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                c = _cross3(a, b, i, j, k)
                lam = c[0] * w[i] + c[1] * w[j] + c[2] * w[k]
                mu = c[0] * u[i] + c[1] * u[j] + c[2] * u[k]
                if not (lam or mu):
                    continue
                x = [lam * s - mu * t for s, t in zip(u, w)]
                if any(x) and (n == 3 or _on_line(x, a, b, _chart2(a, b))):
                    return x
                return None
    return None


def line_chart(points):
    """Pivot-coordinate chart on the line through the given points.

    Returns for each point the pair (alpha, beta) of its coordinates in the
    RREF basis of the common line.  Requires the points to be collinear and
    the span to be an actual line (rank 2).
    """
    pts = list(points)
    line = span(pts)
    if line.rank != 2:
        raise DegenerateError("points span rank %d, expected a line" % line.rank)
    red = line.rows
    # pivot columns of the line's own basis
    j1 = next(i for i, c in enumerate(red[0]) if c != 0)
    j2 = next(i for i, c in enumerate(red[1]) if c != 0)
    return [(p.v[j1], p.v[j2]) for p in pts]


def _common_line(pts):
    """Integer vectors of points on one line and a chart of that line: two
    coordinates on which the line projects isomorphically.  Points that do
    not span a line raise DegenerateError."""
    zs = [x.z for x in pts]
    p = zs[0]
    q = next((x for x in zs[1:] if x != p), None)
    chart = _chart2(p, q) if q is not None else None
    if chart is None or not all(_on_line(x, p, q, chart) for x in zs):
        raise DegenerateError("points span rank %d, expected a line" % rank_of(pts))
    return zs, chart


def cross_ratio(x1, x2, x3, x4):
    """[x1,x2,x3,x4] = (x1-x2)(x3-x4) / ((x2-x3)(x4-x1)) for collinear points.

    The value is a ratio of 2x2 determinants in which every point appears
    once above and once below, so it is computed on the integer vectors in a
    chart of the common line; points not on one line raise DegenerateError.
    """
    (z1, z2, z3, z4), chart = _common_line((x1, x2, x3, x4))
    num = _det2(z1, z2, *chart) * _det2(z3, z4, *chart)
    den = _det2(z2, z3, *chart) * _det2(z4, z1, *chart)
    return ExtQ(num, den)


def multi_ratio(points):
    """Cyclic multi-ratio [P1,...,P_2k] of points with collinear consecutive
    triples {P_(2i-1), P_(2i), P_(2i+1)} (1-based, cyclic).

    Each factor P_(2i-1)P_(2i) / P_(2i)P_(2i+1) is a ratio of 2x2
    determinants of the integer vectors in a chart of the triple's own line;
    the chart's scale cancels in each factor and the vectors' scales cancel
    around the cycle.  k=2 reduces to the cross ratio.
    """
    pts = list(points)
    n = len(pts)
    if n % 2 != 0 or n < 4:
        raise ValueError("multi-ratio needs an even number (>= 4) of points")
    num, den = 1, 1
    inf_count = 0
    for i in range(0, n, 2):
        (z1, z2, z3), chart = _common_line([pts[i], pts[(i + 1) % n], pts[(i + 2) % n]])
        a = _det2(z1, z2, *chart)
        b = _det2(z2, z3, *chart)
        if a == 0 and b == 0:
            raise DegenerateError("0/0 factor in multi-ratio")
        if b == 0:
            inf_count += 1
        elif a == 0:
            inf_count -= 1
        num *= a
        den *= b
    if num == 0 and den == 0:
        # an inf factor met a 0 factor, however many of each
        raise DegenerateError("inf * 0 in multi-ratio")
    if inf_count > 0:
        return ExtQ.infinity()
    return ExtQ(num, den)

