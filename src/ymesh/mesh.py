"""Mesh windows: exact generation and propagation.

A mesh assigns a point of RP^D to each index (i, j); row j is swept by the
order-m dynamics, m = d2 - a2.  Windows are finite rectangles of that grid.
Generation is one sweep, ``_sweep``, over the cells of a window, with one
placement rule, ``_place``: a point that no circuit binds is free, a point
bound by one circuit is a small integer combination of the circuit's other
members, and a point bound by two lines is their meet.  The filtration sweep
visits cells in birth order, each bound by its g-circuit, so free points sit
on the low-phi edge.  Boundary pins and the reduced system sweep column by
column (``_greedy``), and each L1 (for boundary pins also L2) circuit binds
its lexicographically last member.  A draw is kept only if it propagates
without a degenerate meet or coincident points.

Propagation adds a row on top (or bottom) by one routine, ``_propagate``,
driven by a table of rules.  A rule names its source words, its target word
and a solver; at each base r of the new row it solves P_{r+target} from the
points P_{r+source}:

    TOP:             <ac, bc> ^ <ad, bd> -> cd   (step_forward)
    BOTTOM:          <ac, ad> ^ <bc, bd> -> ab   (step_backward)
    REDUCED:         <cc, bc> ^ <ad, bd> -> cd   (step_reduced_forward)
    MENELAUS_TOP:    six-point relation solved for cd  (step_1d)
    MENELAUS_BOTTOM: six-point relation solved for ab  (step_1d backward)

The checks list their instances with ``bases``, which reads the bases off
the window's keys, so no scan range depends on the size of the pin.  Each
collinearity the checks test lies on a line L_s = {s+a, s+b, s+c, s+d}: L1
and L2 at base r on L_r, each Menelaus triple on L_{r+a}, L_{r+b} or L_{r+d}.
So every call of ``check_relations`` and ``check_menelaus`` keeps a
``LineTable``, which charts each line it touches once, on the line's points
inside the window (``chart_of``).  A line whose present points are distinct
and on one line answers its sub-tests by lookup, and its 2x2 determinants
give the Menelaus factors; any other line falls back to the per-instance
kernels (``collinear``, ``multi_ratio_pair``) on the instance's own points,
so decisions, counts and messages are those of the kernels.
"""

import random
from collections import namedtuple
from fractions import Fraction

from .rational import ExtQ, DegenerateError
from .projective import (Point, join, meet_point, multi_ratio_pair, factor_pair, rank_of,
                         collinear, coplanar, chart_of, det2)
from .pins import Pin, d_of_s, m2_of_s
from .filtration import (classify_case, FiltrationSpec, circuit_members, CASE_BOUNDARY,
                         CASE_TRIANGLE_C)

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

    def at(self, r, offsets):
        """The points at r + offset, one per offset."""
        r1, r2 = r
        n = self.periodic_n
        if n:
            return [self.points[((r1 + d1) % n, r2 + d2)] for d1, d2 in offsets]
        return [self.points[(r1 + d1, r2 + d2)] for d1, d2 in offsets]

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


def _place(rng, dim, constraints):
    """A generic point on the span of each list of placed circuit members.

    A list whose members span RP^dim constrains nothing; with none left the
    point is free (and off every member).  One flat gets a combination of
    its members (``_combine_members``), two lines their meet."""
    flats = [(pts, rank_of(pts)) for pts in constraints]
    flats = [(pts, rank) for pts, rank in flats if rank <= dim]
    if not flats:
        return _random_free(rng, dim, avoid=[p for pts in constraints for p in pts])
    if len(flats) == 2:
        return meet_point(join(*flats[0][0]), join(*flats[1][0]))
    (pts, rank), = flats
    # keep proper subsets of the circuit independent: for the coplanar
    # quadruple, stay off the lines through member pairs
    avoid_lines = []
    if len(pts) == 3 and rank == 3:
        avoid_lines = [(pts[u], pts[v]) for u in range(3) for v in range(u + 1, 3)]
    return _combine_members(rng, pts, avoid_lines)


def _sweep(pin, dim, cells, circuits, rng):
    """A window on the cells, visited in order.  A circuit (kind, base) of
    circuits(r) binds r when all its other members are cells (the order
    places them first); r is placed on the flats of its binding circuits
    by ``_place``."""
    inside = set(cells)
    window = MeshWindow(pin, dim)
    for r in cells:
        constraints = []
        for kind, base in circuits(r):
            others = [q for q in circuit_members(pin, kind, base) if q != r]
            if all(q in inside for q in others):
                constraints.append([window.get(q) for q in others])
        window.set(r, _place(rng, dim, constraints))
    _spanning_check(window)
    return window


def _generate_filtration(pin, dim, i_lo, i_hi, rng):
    """The filtration sweep: cells in birth order, each bound by its
    g-circuit."""
    spec = FiltrationSpec(pin)
    cells = sorted(((i, j) for j in range(1, pin.m + 1) for i in range(i_lo, i_hi + 1)),
                   key=spec.birth_order_key)
    return _sweep(pin, dim, cells, lambda r: [spec.g_inverse(r)], rng)


def _greedy(pin, rows, kinds, i_lo, i_hi, rng):
    """A planar window on rows 1..rows by a column sweep: each circuit of
    the given kinds binds its lexicographically last member, which the
    sweep visits after the others."""
    last = [(kind, max(pin.offset(word) for word in Pin.CIRCUIT_WORDS[kind])) for kind in kinds]
    cells = [(i, j) for i in range(i_lo, i_hi + 1) for j in range(1, rows + 1)]
    return _sweep(pin, 2, cells,
                  lambda r: [(kind, (r[0] - o1, r[1] - o2)) for kind, (o1, o2) in last], rng)


def generate_window(pin, dim, i_lo, i_hi, seed=0):
    """Generic window of an X_{D,S} mesh on rows 1..m, columns [i_lo, i_hi].

    Free points go on the low-sweep edge (circuits sticking out of the
    window); every other point is placed generically on the span of the rest
    of its g-circuit.  A drawn window must propagate pin.l + 2 rows forward
    (or until it is too narrow to propagate) without a degenerate meet, and
    no L1, L2 or line instance of the result may repeat a point; otherwise
    it is redrawn from the same random stream, at most REDRAW_LIMIT times,
    before DegenerateConfig is raised.  Boundary pins (a zero
    convex-relation coefficient, so FiltrationSpec raises) use the column
    sweep of ``_greedy`` on their L1 and L2 circuits instead and support
    D = 2 only; their draws are redrawn the same way.
    """
    if dim < 2:
        raise MeshError("generate_window needs D >= 2; use generate_1d")
    if dim > d_of_s(pin):
        raise MeshError("D = %d exceeds D(S) = %d" % (dim, d_of_s(pin)))
    case = classify_case(pin)
    if case == CASE_BOUNDARY:
        if dim != 2:
            raise MeshError("boundary pins: only D = 2 generation is supported")

        def draw(rng):
            return _greedy(pin, pin.m, ("L1", "L2"), i_lo, i_hi, rng)
    elif case == CASE_TRIANGLE_C:
        rev = pin.time_reverse()
        sh = -min(j for (_, j) in rev.points)  # renormalize rows to start at 0
        rev = rev.apply(j0=sh)

        def draw(rng):
            w = _generate_filtration(rev, dim, i_lo, i_hi, rng)
            window = MeshWindow(pin, dim)
            for (i, j), p in w.points.items():
                window.points[(i, pin.m + 1 - j)] = p
            return window
    else:
        def draw(rng):
            return _generate_filtration(pin, dim, i_lo, i_hi, rng)
    return _certified_draw(draw, random.Random(seed), pin.l + 2, TOP)


def _certified_draw(draw, rng, steps, rule):
    """The first window that draw(rng) returns which propagates `steps` rows
    by the rule cleanly (``_propagates``); at most REDRAW_LIMIT draws."""
    for _ in range(REDRAW_LIMIT):
        window = draw(rng)
        if _propagates(window, steps, rule):
            return window
    raise DegenerateConfig("%d draws of the window all propagated degenerately" % REDRAW_LIMIT)


def _propagates(window, steps, rule):
    """Whether the window takes the given number of steps by the rule (or as
    many as its width allows) without a degenerate meet, and then has no
    relation instance with coincident points."""
    for _ in range(steps):
        try:
            # the engine, so a profile of step_forward counts only kept steps
            window = _propagate(window, rule)
        except DegenerateError:
            return False
        except MeshError:
            break
    return not _has_coincident_points(window)


def _spanning_check(window):
    if rank_of(window.points.values()) != window.dim + 1:
        raise DegenerateConfig("window does not span RP^%d" % window.dim)


def generate_polygon_window(pin, n, seed=0, dim=2):
    """Closed twisted-free polygon data for pins with m = 1 (single free row):
    a random n-gon in RP^dim with distinct vertices, periodic in i.  Like
    generate_window, a polygon that does not propagate pin.l + 2 rows
    cleanly is redrawn from the same random stream."""
    if pin.m != 1:
        raise MeshError("closed polygon windows need m = 1 (got m = %d)" % pin.m)

    def draw(rng):
        w = MeshWindow(pin, dim, periodic_n=n)
        vertices = []
        for i in range(n):
            vertices.append(_random_free(rng, dim, avoid=vertices))
            w.set((i, 1), vertices[-1])
        _spanning_check(w)
        return w

    return _certified_draw(draw, random.Random(seed), pin.l + 2, TOP)


# ---- propagation -------------------------------------------------------

# A rule adds one row.  At each base r of that row it solves the point at
# r + target from the points at r + source, one per source word; the row goes
# on top when the target lies above the first source, else at the bottom.
Rule = namedtuple("Rule", "name sources target solve")

# the six-point relation: triples {1,2,3}, {3,4,5}, {5,6,1} are collinear
MENELAUS_WORDS = ("ad", "ac", "ab", "bc", "bd", "cd")


def _meet(pts):
    """The line through the first two points met with the line through the
    last two."""
    return meet_point(join(pts[0], pts[1]), join(pts[2], pts[3]))


def _menelaus_rule(slot):
    """The 1D rule that solves the six-point relation for the word in slot."""
    return Rule("1D propagation", MENELAUS_WORDS[:slot] + MENELAUS_WORDS[slot + 1:],
                MENELAUS_WORDS[slot], lambda pts: solve_menelaus(pts[:slot] + [None] + pts[slot:]))


TOP = Rule("propagation", ("ac", "bc", "ad", "bd"), "cd", _meet)
BOTTOM = Rule("inverse propagation", ("ac", "ad", "bc", "bd"), "ab", _meet)
REDUCED = Rule("reduced propagation", ("cc", "bc", "ad", "bd"), "cd", _meet)
MENELAUS_TOP = _menelaus_rule(5)
MENELAUS_BOTTOM = _menelaus_rule(2)


def _propagate(window, rule):
    """A copy of the window with the rule's row added, solved at each base
    in ascending r1 (mod n on a periodic window).  The bases are read off
    the keys of the first source's row."""
    pin = window.pin
    offs = [pin.offset(word) for word in rule.sources]
    t1, t2 = pin.offset(rule.target)
    f1, f2 = offs[0]
    rows = window.rows()
    r2 = (rows[-1] + 1 if t2 > f2 else rows[0] - 1) - t2
    w = window.copy()
    for r1, _ in sorted({window._key((i - f1, r2)) for (i, j) in window.points if j == r2 + f2}):
        if all(window.has((r1 + d1, r2 + d2)) for d1, d2 in offs):
            w.set((r1 + t1, r2 + t2), rule.solve(window.at((r1, r2), offs)))
    if len(w.points) == len(window.points):
        raise MeshError("no %s instance fits the window" % rule.name)
    return w


def _drop_row(window, j):
    window.points = {k: p for k, p in window.points.items() if k[1] != j}


def step_forward(window, drop_bottom=False):
    """Add the next row on top via the intersection rule; optionally drop the
    bottom row (the genuine order-m map)."""
    w = _propagate(window, TOP)
    if drop_bottom:
        _drop_row(w, window.rows()[0])
    return w


def step_backward(window, drop_top=False):
    """Add the previous row at the bottom via the inverse intersection rule."""
    w = _propagate(window, BOTTOM)
    if drop_top:
        _drop_row(w, window.rows()[-1])
    return w


def step_reduced_forward(window):
    """Order-reduced planar propagation (needs d2-b2 >= c2-a2):
    P_{r+c+d} = <P_{r+2c}, P_{r+b+c}> ^ <P_{r+a+d}, P_{r+b+d}>."""
    a, b, c, d = window.pin.points
    if d[1] - b[1] < c[1] - a[1]:
        raise MeshError("reduced rule needs d2-b2 >= c2-a2; time-reverse first")
    if c[1] == d[1]:
        # the source point r+2c sits in the row being created, so the reduced
        # rule gains nothing (m' = m); fall back to the full-order rule
        return step_forward(window)
    return _propagate(window, REDUCED)


def step_1d(window, backward=False):
    """Propagate a 1D mesh one row (top if forward, bottom if backward) by
    solving the six-point Menelaus relation for the unknown point."""
    return _propagate(window, MENELAUS_BOTTOM if backward else MENELAUS_TOP)


def generate_reduced(pin, i_lo, i_hi, seed=0):
    """Generic planar window of the order-reduced system: m' = max(c2-a2,
    d2-b2) rows constrained only by the L1 collinearity (the column sweep of
    ``_greedy``), redrawn like generate_window by the rule of
    ``step_reduced_forward``."""
    a, b, c, d = pin.points
    if d[1] - b[1] < c[1] - a[1]:
        raise MeshError("reduced system needs d2-b2 >= c2-a2; time-reverse first")
    if d_of_s(pin) < 2:
        raise MeshError("the reduced system is planar; D(S) = %d" % d_of_s(pin))
    mp = m2_of_s(pin)
    rule = TOP if c[1] == d[1] else REDUCED  # as step_reduced_forward
    return _certified_draw(lambda rng: _greedy(pin, mp, ("L1",), i_lo, i_hi, rng),
                           random.Random(seed), pin.l + 2, rule)


# ---- validation --------------------------------------------------------


def bases(window, offsets):
    """Every base r whose points r + offset all lie inside the window, once
    each (mod n on a periodic window), ordered by (r2, r1): the window's
    keys shifted back by the first offset, intersected with the keys
    shifted back by each other offset."""
    keys = window.points.keys()
    n = window.periodic_n
    o1, o2 = offsets[0]
    found = {((i - o1) % n if n else i - o1, j - o2) for i, j in keys}
    for d1, d2 in offsets[1:]:
        found = {(r1, r2) for r1, r2 in found
                 if ((r1 + d1) % n if n else r1 + d1, r2 + d2) in keys}
    return sorted(found, key=lambda r: (r[1], r[0]))


class LineTable(dict):
    """An entry for each line L_s a check call touches, keyed by base s and
    made on first use by ``entry`` (once per line mod n on a periodic
    window): (zs, chart), the primitive vectors of P_{s+a} .. P_{s+d} (None
    for a point outside the window) and their ``chart_of``.  A table serves
    one check call, so in-place edits of ``window.points`` cannot leave it
    stale."""

    __slots__ = ("window",)

    def __init__(self, window):
        super().__init__()
        self.window = window

    def __missing__(self, s):
        key = self.window._key(s)
        self[s] = entry = self[key] if key != s else self.entry(s)
        return entry

    def entry(self, s):
        s1, s2 = s
        n = self.window.periodic_n
        get = self.window.points.get
        zs = []
        for o1, o2 in self.window.pin.points:
            p = get(((s1 + o1) % n if n else s1 + o1, s2 + o2))
            zs.append(None if p is None else p.z)
        return zs, chart_of(zs)


def _repeats(pts):
    return len(set(pts)) != len(pts)


def _has_coincident_points(window):
    """Whether an L1 or L2 instance or a full line L_r inside the window
    repeats a point (what check_relations reports as coincident points or
    a degenerate line)."""
    for words in (Pin.CIRCUIT_WORDS["L1"], Pin.CIRCUIT_WORDS["L2"], "abcd"):
        offs = [window.pin.offset(word) for word in words]
        if any(_repeats(window.at(r, offs)) for r in bases(window, offs)):
            return True
    return False


def check_relations(window, require_instances=1):
    """Verify every relation instance fully inside the window: L1/L2
    collinearity, P3 coplanarity, full-line collinearity of {r+a,...,r+d},
    distinctness, and that the window spans RP^D.  Returns instance counts.

    L1 = {r+a, r+b, r+c} and L2 = {r+b, r+c, r+d} lie on L_r, so every
    collinearity and distinctness test of base r holds when L_r has a chart
    in the call's ``LineTable``; a line without one tests each instance on
    its points."""
    pin = window.pin
    lines = LineTable(window)
    counts = {"L1": 0, "L2": 0, "P3": 0, "line": 0}
    for kind, words in Pin.CIRCUIT_WORDS.items():
        offs = [pin.offset(word) for word in words]
        for r in bases(window, offs):
            if kind == "P3":
                if not coplanar(window.at(r, offs)):
                    raise MeshError("coplanarity fails at base (%d, %d)" % r)
            elif not lines[r][1]:
                pts = window.at(r, offs)
                if not collinear(pts):
                    raise MeshError("%s collinearity fails at base (%d, %d)" % ((kind,) + r))
                if _repeats(pts):
                    raise MeshError("%s has coincident points at base (%d, %d)" % ((kind,) + r))
            counts[kind] += 1
    # full lines L_r: all four of r+a .. r+d collinear and distinct
    offs = pin.points
    for r in bases(window, offs):
        if not lines[r][1]:
            pts = window.at(r, offs)
            if not collinear(pts) or _repeats(pts):
                raise MeshError("line L_(%d,%d) degenerate" % r)
        counts["line"] += 1
    _spanning_check(window)
    if sum(counts.values()) < require_instances:
        raise MeshError("window too small: only %s relation instances" % counts)
    return counts


# ---- one-dimensional meshes --------------------------------------------


def solve_menelaus(points):
    """Given six RP^1 points with exactly one None, return the point making
    the cyclic multi-ratio equal -1 (triples {1,2,3},{3,4,5},{5,6,1}).  Each
    known point's integer vector appears once in each term, so scales cancel."""
    zs = [None if p is None else p.z for p in points]
    idx = zs.index(None)
    terms = []
    for pairs in (((0, 1), (2, 3), (4, 5)), ((1, 2), (3, 4), (5, 0))):
        scale = 1
        for u, v in pairs:
            if u == idx:  # det(P, z_v) = x*y_v - y*x_v
                form = (zs[v][1], -zs[v][0])
            elif v == idx:  # det(z_u, P) = x_u*y - y_u*x
                form = (-zs[u][1], zs[u][0])
            else:
                scale *= det2(zs[u], zs[v], 0, 1)
        terms.append((scale * form[0], scale * form[1]))
    # numerator term + denominator term = ax x + by y = 0
    ax, by = terms[0][0] + terms[1][0], terms[0][1] + terms[1][1]
    if ax == 0 and by == 0:
        raise DegenerateError("Menelaus solve is indeterminate")
    return Point((by, -ax))


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


# the triples of the six-point relation by line, as indices into a..d:
# (ad, ac, ab) on L_{r+a}, (ab, bc, bd) on L_{r+b}, (bd, cd, ad) on L_{r+d}
MENELAUS_LINES = (("a", (3, 2, 1)), ("b", (0, 2, 3)), ("d", (1, 2, 0)))


def check_menelaus(window):
    """Verify the six-point relation (= -1) for every base fully inside a 1D
    or higher-dimensional window, each once (mod n on a periodic window);
    returns the instance count.  The multi-ratio is compared as an integer
    pair: num + den == 0.  Undefined ones (0/0 or inf * 0, from coincident
    points on boundary-pin meshes and pins with a+d = b+c) are skipped; a
    triple off a line raises.

    Each triple lies on a line L_s; when all three lines have a chart in the
    call's ``LineTable``, the factors are 2x2 determinants on those charts,
    else the instance goes through ``multi_ratio_pair`` on its points."""
    pin = window.pin
    offs = [pin.offset(word) for word in MENELAUS_WORDS]
    triples = [(pin.offset(label), idx) for label, idx in MENELAUS_LINES]
    lines = LineTable(window)
    count = 0
    for r in bases(window, offs):
        r1, r2 = r
        on = [(lines[(r1 + o1, r2 + o2)], idx) for (o1, o2), idx in triples]
        try:
            if all(chart for (_, chart), _ in on):
                num, den = factor_pair((det2(zs[x], zs[y], i, j), det2(zs[y], zs[z], i, j))
                                       for (zs, (i, j)), (x, y, z) in on)
            else:
                num, den = multi_ratio_pair(window.at(r, offs))
        except DegenerateError:
            pts = window.at(r, offs)
            if not all(chart or collinear(t) for ((_, chart), _), t
                       in zip(on, (pts[0:3], pts[2:5], pts[4:6] + pts[:1]))):
                raise MeshError("Menelaus triple not collinear at base (%d, %d)" % r)
            continue
        if num + den != 0:
            raise MeshError("Menelaus relation fails at base (%d, %d): %s"
                            % (r + (ExtQ(num, den),)))
        count += 1
    return count
