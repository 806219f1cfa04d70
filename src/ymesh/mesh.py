"""Mesh windows: exact generation and propagation.

A mesh assigns a point of RP^D to each index (i, j); row j is swept by the
order-m dynamics, m = d2 - a2.  Windows are finite rectangles of that grid.
Generation follows the filtration sweep (free points on the low-phi edge,
every other point a small integer combination of the rest of its g-circuit),
and a draw is kept only if it propagates without a degenerate meet or
coincident points.  Propagation adds a row on top (or bottom) by
intersecting two lines:

    top:    P_{r+c+d} = <P_{r+a+c}, P_{r+b+c}> ^ <P_{r+a+d}, P_{r+b+d}>
    bottom: P_{r+a+b} = <P_{r+a+c}, P_{r+a+d}> ^ <P_{r+b+c}, P_{r+b+d}>
"""

import random
from fractions import Fraction

from .rational import ExtQ, DegenerateError
from .projective import Point, span, join, meet, meet_point, rank_of, collinear
from .pins import Pin, PinError, d_of_s, m2_of_s
from .filtration import (classify_case, FiltrationSpec, FiltrationUnavailable,
                         circuit_members, base_row_range, _KIND_OFFSETS,
                         _resolve, _add, _sub,
                         CASE_BOUNDARY, CASE_TRIANGLE_C)

REDRAW_LIMIT = 32
# bound on the member coefficients of a generated point.  Over seeds 0-39 of
# the acceptance sweep at every D >= 2, a bound of 8 took 1617 redraws and
# still left 53 more windows failing check_relations; 256 takes 11 redraws.
# A bound of 2^20 raises the median coordinate height from ~100 to ~170 bits.
COMBINE_BOUND = 256


class MeshError(ValueError):
    pass


class DegenerateConfig(MeshError):
    pass


def _rand_frac(rng):
    return Fraction(rng.randint(-20, 20), rng.randint(1, 10))


def random_point(rng, dim):
    return Point.affine([_rand_frac(rng) for _ in range(dim)])


class MeshWindow:
    """Sparse window of a mesh: dict (i, j) -> Point; optionally periodic in i
    (closed polygons: index i is taken mod periodic_n)."""

    def __init__(self, pin, dim, points=None, periodic_n=None):
        self.pin = pin
        self.dim = dim
        self.periodic_n = periodic_n
        self.points = {}
        if points:
            for r, p in points.items():
                self.set(r, p)

    def _key(self, r):
        if self.periodic_n:
            return (r[0] % self.periodic_n, r[1])
        return tuple(r)

    def set(self, r, p):
        self.points[self._key(r)] = p

    def get(self, r):
        return self.points[self._key(r)]

    def has(self, r):
        return self._key(r) in self.points

    def rows(self):
        return sorted({j for (_, j) in self.points})

    def row_cols(self, j):
        return sorted(i for (i, jj) in self.points if jj == j)

    def copy(self):
        w = MeshWindow(self.pin, self.dim, periodic_n=self.periodic_n)
        w.points = dict(self.points)
        return w

    def shift(self, di, dj):
        w = MeshWindow(self.pin, self.dim, periodic_n=self.periodic_n)
        for (i, j), p in self.points.items():
            w.points[(i + di, j + dj)] = p
        return w


# ---- generation --------------------------------------------------------


def _place_on_span(rng, flat, avoid):
    """Random point of a flat (a combination of its RREF basis), distinct
    from given points."""
    for _ in range(REDRAW_LIMIT):
        coeffs = [_rand_frac(rng) for _ in flat.rows]
        try:
            p = Point(tuple(sum(c * row[k] for c, row in zip(coeffs, flat.rows))
                            for k in range(flat.ncols)))
        except ValueError:
            continue
        if all(p != q for q in avoid):
            return p
    raise DegenerateConfig("could not place a generic point on a span")


def _combine_members(rng, members, avoid_lines):
    """Random point of the span of the members: their primitive integer
    vectors combined with nonzero integer coefficients in [-COMBINE_BOUND,
    COMBINE_BOUND], so heights add instead of multiplying.  The point is
    distinct from the members and off the lines through the given pairs."""
    for _ in range(REDRAW_LIMIT):
        coeffs = [rng.randint(1, COMBINE_BOUND) * rng.choice((1, -1)) for _ in members]
        try:
            p = Point([sum(c * q.z[k] for c, q in zip(coeffs, members))
                       for k in range(len(members[0].z))])
        except ValueError:
            continue
        if all(p != q for q in members) and not any(collinear((u, v, p)) for u, v in avoid_lines):
            return p
    raise DegenerateConfig("could not place a generic point on a span")


def _random_free(rng, dim, avoid=()):
    for _ in range(REDRAW_LIMIT):
        p = random_point(rng, dim)
        if all(p != q for q in avoid):
            return p
    raise DegenerateConfig("could not draw a free point")


def generate_window(pin, dim, i_lo, i_hi, seed=0):
    """Generic window of an X_{D,S} mesh on rows 1..m, columns [i_lo, i_hi].

    Free points go on the low-sweep edge (circuits sticking out of the
    window); every other point is placed generically on the span of the rest
    of its g-circuit.  A drawn window must propagate pin.l + 2 rows forward
    (or until it is too narrow to propagate) without a degenerate meet, and
    no L1, L2 or line instance of the result may repeat a point; otherwise
    it is redrawn from the same random stream, at most REDRAW_LIMIT times,
    before DegenerateConfig is raised.  Boundary pins
    (a zero convex-relation coefficient, so FiltrationSpec raises) use a
    left-to-right greedy sweep instead, support D = 2 only and are not
    redrawn.
    """
    if dim < 2:
        raise MeshError("generate_window needs D >= 2; use generate_1d")
    if dim > d_of_s(pin):
        raise MeshError("D = %d exceeds D(S) = %d" % (dim, d_of_s(pin)))
    case = classify_case(pin)
    if case == CASE_BOUNDARY:
        return _generate_boundary(pin, dim, i_lo, i_hi, seed)
    if case == CASE_TRIANGLE_C:
        rev = pin.time_reverse()
        sh = -min(j for (_, j) in rev.points)  # renormalize rows to start at 0
        rev = rev.apply(j0=sh)
    rng = random.Random(seed)
    for _ in range(REDRAW_LIMIT):
        if case == CASE_TRIANGLE_C:
            w = _generate_filtration(rev, dim, i_lo, i_hi, rng)
            window = MeshWindow(pin, dim)
            for (i, j), p in w.points.items():
                window.points[(i, pin.m + 1 - j)] = p
        else:
            window = _generate_filtration(pin, dim, i_lo, i_hi, rng)
        if _propagates(window, pin.l + 2):
            return window
    raise DegenerateConfig("%d draws of the window all propagated degenerately" % REDRAW_LIMIT)


def _propagates(window, steps):
    """Whether the window takes the given number of forward steps (or as many
    as its width allows) without a degenerate meet, and then has no relation
    instance with coincident points."""
    for _ in range(steps):
        try:
            window = _step_forward(window)
        except DegenerateError:
            return False
        except MeshError:
            break
    return not _has_coincident_points(window)


def _generate_filtration(pin, dim, i_lo, i_hi, rng):
    spec = FiltrationSpec(pin)
    m = pin.m
    window = MeshWindow(pin, dim)
    pts = [(i, j) for j in range(1, m + 1) for i in range(i_lo, i_hi + 1)]
    pts.sort(key=spec.birth_order_key)
    inside = set(pts)
    for r in pts:
        kind, base = spec.g_inverse(r)
        members = circuit_members(pin, kind, base)
        others = [q for q in members if q != r]
        if all(q in inside for q in others):
            other_pts = [window.get(q) for q in others]
            rank = rank_of(other_pts)
            if rank >= dim + 1:
                window.set(r, _random_free(rng, dim, avoid=other_pts))
            else:
                # keep proper subsets of the circuit independent: for the
                # coplanar quadruple, stay off the lines through member pairs
                avoid_lines = []
                if len(other_pts) == 3 and rank == 3:
                    avoid_lines = [(other_pts[u], other_pts[v])
                                   for u in range(3) for v in range(u + 1, 3)]
                window.set(r, _combine_members(rng, other_pts, avoid_lines))
        else:
            window.set(r, _random_free(rng, dim))
    _spanning_check(window)
    return window


def _generate_boundary(pin, dim, i_lo, i_hi, seed):
    if dim != 2:
        raise MeshError("boundary pins: only D = 2 generation is supported")
    rng = random.Random(seed)
    m = pin.m
    window = MeshWindow(pin, dim)
    # sweep-last member offset for each collinearity circuit kind
    last_off = {}
    for kind in ("L1", "L2"):
        offs = [_resolve(pin, lab) for lab in _KIND_OFFSETS[kind]]
        last_off[kind] = max(offs, key=lambda o: (o[0], o[1]))
    inside = {(i, j) for j in range(1, m + 1) for i in range(i_lo, i_hi + 1)}
    for i in range(i_lo, i_hi + 1):
        for j in range(1, m + 1):
            r = (i, j)
            constraints = []
            for kind in ("L1", "L2"):
                base = _sub(r, last_off[kind])
                lo, hi = base_row_range(pin, kind)
                if not (lo < base[1] <= hi):
                    continue
                members = circuit_members(pin, kind, base)
                others = [q for q in members if q != r]
                if all(q in inside and (q[0], q[1]) < (i, j) for q in others):
                    constraints.append([window.get(q) for q in others])
            if not constraints:
                window.set(r, _random_free(rng, dim))
            elif len(constraints) == 1:
                flat = span(constraints[0])
                window.set(r, _place_on_span(rng, flat, constraints[0]))
            else:
                flats = [span(c) for c in constraints]
                cur = flats[0]
                for f in flats[1:]:
                    cur = meet(cur, f)
                if cur.rank != 1:
                    raise DegenerateConfig("inconsistent boundary constraints at %s" % (r,))
                window.set(r, cur.point())
    _spanning_check(window)
    return window


def _spanning_check(window):
    if rank_of(window.points.values()) != window.dim + 1:
        raise DegenerateConfig("window does not span RP^%d" % window.dim)


def generate_polygon_window(pin, n, seed=0, dim=2):
    """Closed twisted-free polygon data for pins with m = 1 (single free row):
    a random n-gon in RP^dim, periodic in i."""
    if pin.m != 1:
        raise MeshError("closed polygon windows need m = 1 (got m = %d)" % pin.m)
    rng = random.Random(seed)
    w = MeshWindow(pin, dim, periodic_n=n)
    for i in range(n):
        w.set((i, 1), _random_free(rng, dim))
    _spanning_check(w)
    return w


# ---- propagation -------------------------------------------------------


def _top_sources(pin, r):
    a, b, c, d = pin.points
    return [_add(r, _resolve(pin, lab)) for lab in ("ac", "bc", "ad", "bd")]


def step_forward(window, drop_bottom=False):
    """Add the next row on top via the intersection rule; optionally drop the
    bottom row (the genuine order-m map)."""
    return _step_forward(window, drop_bottom)


# generate_window's trial steps call this directly, so that a profile of
# step_forward counts only the steps made on a returned window
def _step_forward(window, drop_bottom=False):
    pin = window.pin
    c2d2 = pin.c[1] + pin.d[1]
    rows = window.rows()
    j_new = rows[-1] + 1
    r2 = j_new - c2d2
    c1d1 = pin.c[0] + pin.d[0]
    w = window.copy()
    added = 0
    if window.periodic_n:
        cand = range(window.periodic_n)
    else:
        cols = window.row_cols(rows[-1])
        cand = range(cols[0] - abs(c1d1) - 4, cols[-1] + abs(c1d1) + 5)
    for r1 in cand:
        r = (r1, r2)
        s_ac, s_bc, s_ad, s_bd = _top_sources(pin, r)
        if not all(window.has(s) for s in (s_ac, s_bc, s_ad, s_bd)):
            continue
        p = meet_point(join(window.get(s_ac), window.get(s_bc)),
                       join(window.get(s_ad), window.get(s_bd)))
        w.set(_add(r, (c1d1, c2d2)), p)
        added += 1
    if not added:
        raise MeshError("no propagation instance fits the window")
    if drop_bottom:
        for i in w.row_cols(rows[0]):
            del w.points[w._key((i, rows[0]))]
    return w


def step_backward(window, drop_top=False):
    """Add the previous row at the bottom via the inverse intersection rule."""
    pin = window.pin
    a2b2 = pin.a[1] + pin.b[1]
    a1b1 = pin.a[0] + pin.b[0]
    rows = window.rows()
    j_new = rows[0] - 1
    r2 = j_new - a2b2
    w = window.copy()
    added = 0
    if window.periodic_n:
        cand = range(window.periodic_n)
    else:
        cols = window.row_cols(rows[0])
        cand = range(cols[0] - abs(a1b1) - 4, cols[-1] + abs(a1b1) + 5)
    for r1 in cand:
        r = (r1, r2)
        s_ac, s_bc, s_ad, s_bd = _top_sources(pin, r)
        if not all(window.has(s) for s in (s_ac, s_bc, s_ad, s_bd)):
            continue
        p = meet_point(join(window.get(s_ac), window.get(s_ad)),
                       join(window.get(s_bc), window.get(s_bd)))
        w.set(_add(r, (a1b1, a2b2)), p)
        added += 1
    if not added:
        raise MeshError("no inverse propagation instance fits the window")
    if drop_top:
        for i in w.row_cols(rows[-1]):
            del w.points[w._key((i, rows[-1]))]
    return w


def step_reduced_forward(window):
    """Order-reduced planar propagation (needs d2-b2 >= c2-a2):
    P_{r+c+d} = <P_{r+2c}, P_{r+b+c}> ^ <P_{r+a+d}, P_{r+b+d}>."""
    pin = window.pin
    a, b, c, d = pin.points
    if d[1] - b[1] < c[1] - a[1]:
        raise MeshError("reduced rule needs d2-b2 >= c2-a2; time-reverse first")
    if c[1] == d[1]:
        # the source point r+2c sits in the row being created, so the reduced
        # rule gains nothing (m' = m); fall back to the full-order rule
        return step_forward(window)
    c2d2, c1d1 = c[1] + d[1], c[0] + d[0]
    rows = window.rows()
    j_new = rows[-1] + 1
    r2 = j_new - c2d2
    w = window.copy()
    added = 0
    cols = window.row_cols(rows[-1])
    for r1 in range(cols[0] - abs(c1d1) - 4, cols[-1] + abs(c1d1) + 5):
        r = (r1, r2)
        s_2c = _add(r, (2 * c[0], 2 * c[1]))
        s_bc = _add(r, (b[0] + c[0], b[1] + c[1]))
        s_ad = _add(r, (a[0] + d[0], a[1] + d[1]))
        s_bd = _add(r, (b[0] + d[0], b[1] + d[1]))
        if not all(window.has(s) for s in (s_2c, s_bc, s_ad, s_bd)):
            continue
        p = meet_point(join(window.get(s_2c), window.get(s_bc)),
                       join(window.get(s_ad), window.get(s_bd)))
        w.set(_add(r, (c1d1, c2d2)), p)
        added += 1
    if not added:
        raise MeshError("no reduced propagation instance fits the window")
    return w


def generate_reduced(pin, i_lo, i_hi, seed=0):
    """Generic planar window of the order-reduced system: m' = max(c2-a2,
    d2-b2) rows constrained only by the L1 collinearity (greedy sweep)."""
    a, b, c, d = pin.points
    if d[1] - b[1] < c[1] - a[1]:
        raise MeshError("reduced system needs d2-b2 >= c2-a2; time-reverse first")
    rng = random.Random(seed)
    mp = m2_of_s(pin)
    window = MeshWindow(pin, 2)
    offs = [_resolve(pin, lab) for lab in ("a", "b", "c")]
    last = max(offs, key=lambda o: (o[0], o[1]))
    inside = {(i, j) for j in range(1, mp + 1) for i in range(i_lo, i_hi + 1)}
    for i in range(i_lo, i_hi + 1):
        for j in range(1, mp + 1):
            r = (i, j)
            base = _sub(r, last)
            ok = -a[1] < base[1] <= mp - c[1]
            others = [q for q in (_add(base, o) for o in offs) if q != r]
            if ok and all(q in inside for q in others):
                pts = [window.get(q) for q in others]
                window.set(r, _place_on_span(rng, span(pts), pts))
            else:
                window.set(r, _random_free(rng, 2))
    _spanning_check(window)
    return window


# ---- validation --------------------------------------------------------


def _instances(window, labels):
    """Base and points of every instance of the labelled offsets that lies
    fully inside the window."""
    offs = [_resolve(window.pin, lab) for lab in labels]
    keys = list(window.points)
    i_vals = [i for (i, _) in keys]
    j_vals = [j for (_, j) in keys]
    for r2 in range(min(j_vals) - 8, max(j_vals) + 8):
        for r1 in range(min(i_vals) - 8, max(i_vals) + 9):
            members = [_add((r1, r2), o) for o in offs]
            if all(window.has(q) for q in members):
                yield (r1, r2), [window.get(q) for q in members]


_LINE_LABELS = ("a", "b", "c", "d")


def _repeats(pts):
    return len(set(pts)) != len(pts)


def _has_coincident_points(window):
    """Whether an L1 or L2 instance or a full line L_r inside the window
    repeats a point (what check_relations reports as coincident points or
    a degenerate line)."""
    return any(_repeats(pts)
               for labels in (_KIND_OFFSETS["L1"], _KIND_OFFSETS["L2"], _LINE_LABELS)
               for _, pts in _instances(window, labels))


def check_relations(window, require_instances=1):
    """Verify every relation instance fully inside the window: L1/L2
    collinearity, P3 coplanarity, full-line collinearity of {r+a,...,r+d},
    distinctness, and that the window spans RP^D.  Returns instance counts."""
    counts = {"L1": 0, "L2": 0, "P3": 0, "line": 0}
    for kind in ("L1", "L2", "P3"):
        for (r1, r2), pts in _instances(window, _KIND_OFFSETS[kind]):
            if kind == "P3":
                if rank_of(pts) > 3:
                    raise MeshError("coplanarity fails at base (%d, %d)" % (r1, r2))
            else:
                if not collinear(pts):
                    raise MeshError("%s collinearity fails at base (%d, %d)" % (kind, r1, r2))
                if _repeats(pts):
                    raise MeshError("%s has coincident points at base (%d, %d)" % (kind, r1, r2))
            counts[kind] += 1
    # full lines L_r: all four of r+a .. r+d collinear and distinct
    for (r1, r2), pts in _instances(window, _LINE_LABELS):
        if not collinear(pts) or _repeats(pts):
            raise MeshError("line L_(%d,%d) degenerate" % (r1, r2))
        counts["line"] += 1
    _spanning_check(window)
    if sum(counts.values()) < require_instances:
        raise MeshError("window too small: only %s relation instances" % counts)
    return counts


# ---- one-dimensional meshes --------------------------------------------


def _det2(p, q):
    return p.v[0] * q.v[1] - p.v[1] * q.v[0]


def solve_menelaus(points):
    """Given six RP^1 points with exactly one None, return the point making
    the cyclic multi-ratio equal -1 (triples {1,2,3},{3,4,5},{5,6,1})."""
    idx = points.index(None)
    num_pairs = [(0, 1), (2, 3), (4, 5)]
    den_pairs = [(1, 2), (3, 4), (5, 0)]
    s_num, s_den = Fraction(1), Fraction(1)
    lin_num = lin_den = None
    for (u, v) in num_pairs:
        if idx in (u, v):
            lin_num = (u, v)
        else:
            s_num *= _det2(points[u], points[v])
    for (u, v) in den_pairs:
        if idx in (u, v):
            lin_den = (u, v)
        else:
            s_den *= _det2(points[u], points[v])

    def linform(pair):
        u, v = pair
        if u == idx:  # det(P, q) = x*y_q - y*x_q
            q = points[v]
            return (q.v[1], -q.v[0])
        q = points[u]  # det(q, P) = x_q*y - y_q*x
        return (-q.v[1], q.v[0])

    a1, b1 = linform(lin_num)
    a2, b2 = linform(lin_den)
    # s_num*(a1 x + b1 y) + s_den*(a2 x + b2 y) = 0
    ax = s_num * a1 + s_den * a2
    by = s_num * b1 + s_den * b2
    if ax == 0 and by == 0:
        raise DegenerateError("Menelaus solve is indeterminate")
    return Point((by, -ax))


def _six_labels(pin, r):
    return [_add(r, _resolve(pin, lab)) for lab in ("ad", "ac", "ab", "bc", "bd", "cd")]


def generate_1d(pin, i_lo, i_hi, seed=0):
    """Random 1D window: m = c2+d2-a2-b2 free rows of distinct RP^1 points."""
    rng = random.Random(seed)
    m = pin.l
    w = MeshWindow(pin, 1)
    used = set()
    span = max(20, 2 * m * (i_hi - i_lo + 1))  # pool large enough for the window
    for j in range(1, m + 1):
        for i in range(i_lo, i_hi + 1):
            for _ in range(REDRAW_LIMIT):
                t = Fraction(rng.randint(-span, span), rng.randint(1, 10))
                if t not in used:
                    used.add(t)
                    break
            else:
                raise DegenerateConfig("could not draw distinct 1D values")
            w.set((i, j), Point((t, 1)))
    return w


def step_1d(window, backward=False):
    """Propagate a 1D mesh one row (top if forward, bottom if backward) by
    solving the six-point Menelaus relation for the unknown point."""
    pin = window.pin
    m = pin.l
    rows = window.rows()
    a, b, c, d = pin.points
    if backward:
        j_new = rows[0] - 1
        r2 = j_new - a[1] - b[1]
        unknown = 2
        off = (a[0] + b[0], a[1] + b[1])
    else:
        j_new = rows[-1] + 1
        r2 = j_new - c[1] - d[1]
        unknown = 5
        off = (c[0] + d[0], c[1] + d[1])
    w = window.copy()
    i_all = [i for (i, _) in window.points]
    added = 0
    for r1 in range(min(i_all) - 8, max(i_all) + 9):
        r = (r1, r2)
        labels = _six_labels(pin, r)
        known = [lab for k, lab in enumerate(labels) if k != unknown]
        if not all(window.has(q) for q in known):
            continue
        six = [window.get(lab) if k != unknown else None for k, lab in enumerate(labels)]
        p = solve_menelaus(six)
        w.set(_add(r, off), p)
        added += 1
    if not added:
        raise MeshError("no 1D propagation instance fits the window")
    return w


def check_menelaus(window):
    """Verify the six-point relation (= -1) for every base fully inside a 1D
    or higher-dimensional window; returns the instance count.  Instances whose
    multi-ratio is undefined (coincident points can occur on boundary-pin
    meshes and for pins with a+d = b+c) are skipped."""
    from .projective import multi_ratio
    from .rational import DegenerateError
    pin = window.pin
    keys = list(window.points)
    i_vals = [i for (i, _) in keys]
    j_vals = [j for (_, j) in keys]
    count = 0
    for r2 in range(min(j_vals) - 8, max(j_vals) + 8):
        for r1 in range(min(i_vals) - 8, max(i_vals) + 9):
            labels = _six_labels(pin, (r1, r2))
            if not all(window.has(q) for q in labels):
                continue
            try:
                val = multi_ratio([window.get(q) for q in labels])
            except DegenerateError:
                continue
            if val != ExtQ(-1):
                raise MeshError("Menelaus relation fails at base (%d, %d): %s" % (r1, r2, val))
            count += 1
    return count
