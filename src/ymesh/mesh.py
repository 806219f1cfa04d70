"""Mesh windows: exact generation and propagation.

A mesh assigns a point of RP^D to each index (i, j); row j is swept by the
order-m dynamics, m = d2 - a2.  Windows are finite rectangles of that grid.
Generation is one sweep, ``_sweep``, over the cells of a window, with one
placement rule, ``_place``: a point that no circuit binds is free, a point
bound by one circuit is a small integer combination of the circuit's other
members, and a point bound by two lines is their meet.  The sweep places the
cells in the order ``filtration.binding_order`` makes of the order it is
given: each cell after the other members of its binding circuits.  The
filtration sweep runs middle-out: the band H_{t_mid} in the middle of the
window's sweep times is free, the cells born after it follow in birth order,
each bound by its g-circuit, and the cells that die before it follow by
descending death, each bound by its f-circuit, so heights grow with the
distance from the middle band rather than from an edge of the window.
Boundary pins and the reduced system sweep column by column (``_greedy``),
and each L1 (for boundary pins also L2) circuit binds its lexicographically
last member.  A draw is kept only if it propagates pin.l + 2 rows without a
degenerate meet or coincident points, and every 2-fractal of the last window
of that run spans at least a plane (``_propagates``).  The run stops at the
first row that repeats a point in an L1, L2 or line instance: forward steps
keep every point, so that instance is one of the last window too.  The
2-fractal certificate is a nonzero 3x3 minor of P_{r+aa}, P_{r+ab},
P_{r+bb}, else the rank of all the fractal's points; a 1-fractal L_r spans a
line once no full line repeats a point, which the coincidence test already
checks, and the upper bounds (at most a line, at most a plane) are the mesh
incidences that ``check_relations`` verifies.  A planar draw is first
propagated on its points mod the prime P = 2^61 - 1: a run mod P with no
vanishing meet, no two points equal and no minor vanishing proves that the
exact run has none of these, as a nonzero meet or minor mod P is the
reduction of a nonzero integer one and points that differ mod P differ.  The
run mod P keeps its vectors unnormalized and normalizes its last window
once, with one inverse for all of its points (batch inversion), before the
tests of equal points and minors.  Any other draw runs the exact guard, so
every decision is the exact one; in D >= 3 the guard also rests on an
equality (two lines meet), which no run mod P can prove.  The exact guard
keeps the rows it makes: each window of its run holds its successor in its
line store, and the first ``_propagate`` call with the same rule hands that
successor over.  So the first pin.l + 2 steps of a window that the exact
guard accepted make no meet; a planar draw accepted mod P keeps no rows, and
a write to ``points`` drops a kept successor with the store.  The window a
generator returns records in ``draws`` how many draws it took.

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
the window's rows, so no scan range depends on the size of the pin: the
line store caches each row's maximal runs of consecutive columns, and at
each base row r2 the runs of the rows r2 + d2, shifted back by d1, are
intersected over the offsets (d1, d2), one row at a time.  Each
collinearity the checks test lies on a line L_s = {s+a, s+b, s+c, s+d}: L1
and L2 at base r on L_r, each Menelaus triple on L_{r+a}, L_{r+b} or
L_{r+d}.  So a window keeps a line store, ``MeshWindow.lines``, whose entry
for L_s is made on first use from the line's points inside the window: the
points, their vectors, their chart (``chart_of``) and, on a charted line
with all four points, its y-value.  Every write to ``points`` empties the
store, so an entry is never stale, and the checks and ``yvars.y_pair`` on
one window chart each line once.  A line whose present points are distinct
and on one line answers its sub-tests by lookup, its 2x2 determinants give
the Menelaus factors, and two such lines through a point of the window
(``MeshWindow.lines_meet``: L_{r+c}, L_{r+d} through P_{r+cd}, or L_{r+a},
L_{r+b} through P_{r+ab}) decide the P3 instance at r; any other line
falls back to the per-instance kernels (``collinear``, ``rank_of``,
``multi_ratio_pair``) on the instance's own points, so decisions, counts
and messages are those of the kernels.
"""

import random
import weakref
from collections import namedtuple
from itertools import islice, repeat
from math import gcd, lcm

from .rational import ExtQ, DegenerateError
from .projective import (Point, join, meet_point, multi_ratio_pair, factor_pair, rank_of,
                         collinear, chart_of, cross_ratio_on, det2)
from .pins import Pin, d_of_s, m2_of_s
from .filtration import (classify_case, FiltrationSpec, binding_order, circuit_members,
                         CASE_BOUNDARY, CASE_TRIANGLE_C)

REDRAW_LIMIT = 32
# bound on the member coefficients of a generated point: each column of a
# sweep adds about log2(bound) + 1 bits of height.  Over seeds 0-39 of every
# zoo pin at every D >= 2 at the acceptance width, the certified guard
# rejects 125 of 1165 draws at 32 and 26 of 1066 at 256, none of them for a
# 2-fractal alone; at 16 it rejects 311 of 1351, as D >= 3 draws collide in
# their coefficient ratios (two propagated points of one line coincide).
COMBINE_BOUND = 32


class MeshError(ValueError):
    pass


class IdentityFailure(MeshError, AssertionError):
    """An identity the mesh must satisfy fails on its points: a relation of
    ``check_relations``, the six-point relation or the exchange identity.
    It is a ``MeshError`` and an ``AssertionError``, so callers that catch
    either still catch it, and the command line exits 1 on it."""


class DegenerateConfig(MeshError):
    pass


def random_point(rng, dim):
    """A random point of the affine chart: coordinate k is num_k / den_k,
    with num_k in [-20, 20] and den_k in [1, 10] drawn in that order, as
    integers over the lcm of the denominators."""
    fracs = [(rng.randint(-20, 20), rng.randint(1, 10)) for _ in range(dim)]
    den = lcm(*(d for _, d in fracs))
    return Point([num * (den // d) for num, d in fracs] + [den])


class MeshWindow:
    """Sparse window of a mesh: dict (i, j) -> Point; optionally periodic in i
    (closed polygons: index i is taken mod periodic_n).

    ``lines`` is the window's line store (``_Lines``), emptied by every
    write to ``points`` (a ``_Points``) and by assigning a dict to
    ``points``, which keeps a copy of it.  A ``copy`` has its own store.

    ``draws`` is the number of draws a generator took for the window it
    returns (None on every other window, copies included)."""

    draws = None

    def __init__(self, pin, dim, points=None, periodic_n=None):
        self.pin = pin
        self.dim = dim
        self.periodic_n = periodic_n
        self.lines = _Lines(self)
        self.points = {self._key(r): p for r, p in (points or {}).items()}

    def __setattr__(self, name, value):
        if name == "points":
            self.lines.clear()
            value = _Points(value)
            value.lines = self.lines
        object.__setattr__(self, name, value)

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

    def lines_meet(self, r, x, y):
        """Whether the lines L_{r+x} and L_{r+y} (x, y labels of the pin)
        have charts in the line store and meet at a point of the window,
        P_{r+xy}; their points then span at most a plane."""
        (x1, x2), (y1, y2) = getattr(self.pin, x), getattr(self.pin, y)
        r1, r2 = r
        return (self.has((r1 + x1 + y1, r2 + x2 + y2)) and self.lines[(r1 + x1, r2 + x2)][2]
                and self.lines[(r1 + y1, r2 + y2)][2])

    def copy(self):
        w = MeshWindow(self.pin, self.dim, periodic_n=self.periodic_n)
        w.points = self.points  # kept as a copy
        return w


class _Points(dict):
    """The points of a window: a dict whose every write (set, del, pop,
    popitem, setdefault, update, |= and clear) first empties the window's
    line store, so no store entry outlives the points it was made from."""

    __slots__ = ("lines",)


def _emptying(write):
    def method(self, *args, **kw):
        self.lines.clear()
        return write(self, *args, **kw)
    return method


for _write in "__setitem__ __delitem__ pop popitem setdefault update __ior__ clear".split():
    setattr(_Points, _write, _emptying(getattr(dict, _write)))


class _Lines(dict):
    """A window's line store: base s -> (pts, zs, chart, y) for the line L_s,
    made on first use: the points P_{s+a} .. P_{s+d} (None for a point
    outside the window), their primitive vectors, their ``chart_of``, and
    the reduced y-pair ``yvars.y_pair`` of a line with a chart and all four
    points (else None).  On a periodic window s and s mod n share one entry.

    ``runs`` is None or the window's rows as runs (``row_runs``), made on
    the first call of ``bases``.  ``kept`` is None or (rule, successor): the
    window ``_propagate`` makes from this window by the rule, kept by the
    exact redraw guard for the first ``_propagate`` call with that rule.
    ``clear`` drops both with the entries, so a write to ``points`` leaves
    neither stale.  The store refers to its window weakly, and a successor
    does not refer back, so none of them makes a reference cycle."""

    __slots__ = ("window", "kept", "runs")

    def __init__(self, window):
        self.window = weakref.ref(window)
        self.kept = self.runs = None

    def clear(self):
        self.kept = self.runs = None
        dict.clear(self)

    def row_runs(self):
        """Row j -> the maximal runs (lo, hi) of consecutive columns of row
        j (columns mod n on a periodic window), ascending; made once."""
        if self.runs is None:
            cols = {}
            for i, j in self.window().points:
                cols.setdefault(j, []).append(i)
            self.runs = {}
            for j, row in cols.items():
                row.sort()
                runs = []
                lo = prev = row[0]
                for i in row:
                    if i > prev + 1:
                        runs.append((lo, prev))
                        lo = i
                    prev = i
                runs.append((lo, prev))
                self.runs[j] = runs
        return self.runs

    def __missing__(self, s):
        w = self.window()
        key = w._key(s)
        if key != s:
            entry = self[key]
        else:
            s1, s2 = s
            n = w.periodic_n
            get = w.points.get
            pts = tuple([get(((s1 + o1) % n if n else s1 + o1, s2 + o2))
                         for o1, o2 in w.pin.points])
            zs = tuple([None if p is None else p.z for p in pts])
            chart = chart_of(zs)
            y = None
            if chart and None not in zs:  # four distinct points: num, den != 0
                num, den = cross_ratio_on(zs[0], zs[2], zs[1], zs[3], *chart)
                g = gcd(num, den) if den > 0 else -gcd(num, den)
                y = -num // g, den // g
            entry = pts, zs, chart, y
        self[s] = entry
        return entry


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
    """A window on the cells.  A circuit (kind, base) of circuits(r) binds r
    when all its other members are cells.  The cells are placed on the flats
    of their binding circuits (``_place``), and the window's points inserted,
    in the order ``binding_order`` makes of the order given."""
    inside = set(cells)
    binding = {}
    for r in cells:
        binding[r] = []
        for circuit in circuits(r):
            others = [q for q in circuit_members(pin, *circuit) if q != r]
            if all(q in inside for q in others):
                binding[r].append((circuit, others))
    window = MeshWindow(pin, dim)
    for r in binding_order(cells, binding):
        window.set(r, _place(rng, dim, [[window.get(q) for q in others]
                                        for _, others in binding[r]]))
    _spanning_check(window)
    return window


def _generate_filtration(pin, dim, i_lo, i_hi, rng):
    """The middle-out filtration sweep, from the band H_{t_mid}, t_mid the
    middle of the sweep times of the window's cells, both ways.

    The cells of H_{t_mid} go first, free.  The cells born after t_mid
    follow in birth order, each bound by its g-circuit; then the cells that
    die before t_mid, by descending death, each bound by its f-circuit.  A
    circuit I has f(I) dying at its time t_I and g(I) born at t_I + 1, and
    its members lie in H_{t_I} u H_{t_I + 1} (conditions 4 and 5), so it
    binds exactly one cell: g(I) if t_I >= t_mid, else f(I).  Its other
    members lie in the band, or are born no later than g(I), or die no
    earlier than f(I); ties go by descending row, then column, and
    ``_sweep`` puts each cell after them (conditions 6 and 7: such an order
    exists).  No circuit has all its members in the band, so its free
    points obey no relation."""
    spec = FiltrationSpec(pin)
    cells = [(i, j) for j in range(1, pin.m + 1) for i in range(i_lo, i_hi + 1)]
    birth = {r: spec.birth(r) for r in cells}
    death = {r: spec.death(r) for r in cells}
    t_mid = (min(birth.values()) + max(death.values())) // 2
    band = [r for r in cells if birth[r] <= t_mid <= death[r]]
    later = sorted((r for r in cells if birth[r] > t_mid), key=lambda r: (birth[r], -r[1], r[0]))
    earlier = sorted((r for r in cells if death[r] < t_mid), key=lambda r: (-death[r], -r[1], r[0]))
    binding = {r: [] for r in band}
    binding.update((r, [spec.g_inverse(r)]) for r in later)
    binding.update((r, [spec.f_inverse(r)]) for r in earlier)
    return _sweep(pin, dim, band + later + earlier, binding.get, rng)


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

    Free points go on the middle band H_{t_mid} of the filtration and where
    a circuit sticks out of the window; a cell born after t_mid is placed
    generically on the span of the rest of its g-circuit, and one that dies
    before t_mid on that of its f-circuit (``_generate_filtration``).  A
    drawn window must propagate pin.l + 2 rows forward (or until it is too
    narrow to propagate) without a degenerate meet, no L1, L2 or line
    instance of the result may repeat a point, and every 2-fractal of the
    result must span at least a plane (a nonzero minor of P_{r+aa},
    P_{r+ab}, P_{r+bb}, else the rank of the fractal); otherwise it is
    redrawn from the same random stream, at most REDRAW_LIMIT times,
    before DegenerateConfig is raised.  The run stops at the first row that
    repeats a point in one of those instances, which every later window of
    the run keeps.  The number of draws taken is kept in the window's
    ``draws``.  Boundary pins (a zero convex-relation
    coefficient, so FiltrationSpec raises) use the column sweep of
    ``_greedy`` on their L1 and L2 circuits instead and support D = 2 only;
    their draws are redrawn the same way.  A planar draw is accepted by the
    same propagation on its points mod P = 2^61 - 1 when that run meets no
    vanishing meet, no two equal points and no vanishing minor, which
    proves the exact guard accepts; otherwise the exact guard decides.  That
    run keeps its vectors mod P unnormalized and normalizes its last window
    once, by batch inversion, before the tests of equal points and minors.  A
    window that the exact guard accepted carries the rows it made: its
    first pin.l + 2 ``step_forward`` calls (each on the window the last one
    returned) hand them over instead of propagating again.
    """
    if dim < 2:
        raise MeshError("generate_window needs D >= 2; use generate_1d")
    _check_columns(i_lo, i_hi, pin.m, dim)
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
            return MeshWindow(pin, dim, {(i, pin.m + 1 - j): p for (i, j), p in w.points.items()})
    else:
        def draw(rng):
            return _generate_filtration(pin, dim, i_lo, i_hi, rng)
    return _certified_draw(draw, random.Random(seed), pin.l + 2, TOP)


def _check_columns(i_lo, i_hi, rows=1, dim=0):
    """A ``MeshError`` unless columns i_lo..i_hi of the given number of rows
    hold at least dim + 1 cells, as a window spanning RP^dim needs."""
    if i_hi < i_lo:
        raise MeshError("empty window: columns %d..%d" % (i_lo, i_hi))
    if rows * (i_hi - i_lo + 1) < dim + 1:
        raise MeshError("a window spanning RP^%d needs >= %d cells (got %d rows of %d columns)"
                        % (dim, dim + 1, rows, i_hi - i_lo + 1))


def _certified_draw(draw, rng, steps, rule):
    """The first window that draw(rng) returns which the redraw guard
    certifies (``_propagates``: `steps` clean rows by the rule, and every
    2-fractal of the last one spanning a plane); at most REDRAW_LIMIT
    draws.  The window records in ``draws`` how many draws it took, and,
    when the exact guard decided, keeps the rows it made."""
    for k in range(1, REDRAW_LIMIT + 1):
        window = draw(rng)
        if _propagates(window, steps, rule):
            window.draws = k
            return window
    raise DegenerateConfig("%d draws of the window all propagated degenerately" % REDRAW_LIMIT)


def _propagates(window, steps, rule):
    """Whether the window takes the given number of steps by the rule (or as
    many as its width allows) without a degenerate meet, the last window of
    that run has no relation instance with coincident points, and each of
    its 2-fractals spans at least a plane.  Its 1-fractals need no test of
    their own: L_r spans a line once its four points are distinct, which
    the coincidence test checks on every full line.

    A planar window under a meet rule is first propagated mod P
    (``_propagates_mod_p``); when that run accepts, so does the exact one.
    Every other window, and every planar one the run mod P does not accept,
    is decided by the exact run (``_clean_run``) and ``_spans_planes``."""
    if window.dim == 2 and rule.solve is _meet and _propagates_mod_p(window, steps, rule):
        return True
    last = _clean_run(window, steps, rule)
    return last is not None and _spans_planes(last)


def _clean_run(window, steps, rule):
    """The last window of the run of the given number of steps by the rule
    (or as many as the width allows), or None when a meet degenerates or a
    window of the run has a relation instance with coincident points.  The
    run keeps one set of the points it has made and scans the instances
    only of a window whose new row repeats one, and of the last window when
    its points are not all distinct.  Forward steps keep every point, so an
    instance of any window of the run is one of the last: stopping at the
    first row that repeats a point in an instance is the decision on the
    last window.  Each window of the run keeps its successor
    (``_Lines.kept``) for the next ``_propagate`` call with the rule, and
    the successor carries the next one."""
    seen = set(window.points.values())
    for _ in range(steps):
        try:
            # the engine, so a profile of step_forward counts only the
            # caller's steps; one whose row was kept here makes no meet
            successor = _propagate(window, rule)
        except DegenerateError:
            return None
        except MeshError:
            break
        window.lines.kept = rule, successor
        size, added = len(seen), len(successor.points) - len(window.points)
        # _propagate writes its row last, so it ends the successor's points
        seen.update(islice(reversed(successor.points.values()), added))
        window = successor
        if len(seen) - size < added and _coincident_instance(window):
            return None
    return None if _has_coincident_points(window, len(seen) == len(window.points)) else window


# the words of the points of a 2-fractal: first the points of the minor,
# P_{r+aa}, P_{r+ab}, P_{r+bb}
FRACTAL_2_WORDS = ("aa", "ab", "bb", "ac", "ad", "bc", "bd", "cc", "cd", "dd")


def _fractal_2_offsets(pin):
    """The offsets of the points of a 2-fractal, one per word of
    FRACTAL_2_WORDS."""
    return [pin.offset(word) for word in FRACTAL_2_WORDS]


def _minor3(u, v, w):
    """The 3x3 minor of the vectors u, v, w on their first three
    coordinates."""
    return ((u[1] * v[2] - u[2] * v[1]) * w[0] + (u[2] * v[0] - u[0] * v[2]) * w[1]
            + (u[0] * v[1] - u[1] * v[0]) * w[2])


def _spans_planes(window):
    """Whether every 2-fractal inside the window spans at least a plane:
    P_{r+aa}, P_{r+ab}, P_{r+bb} have a nonzero minor on the first three
    coordinates, or else the rank of all the fractal's points is at least
    3."""
    offs = _fractal_2_offsets(window.pin)
    return all(_minor3(*[p.z for p in window.at(r, offs[:3])]) or rank_of(window.at(r, offs)) >= 3
               for r in bases(window, offs))


# a prime of 61 bits: the planar redraw guard propagates mod P first
P = 2 ** 61 - 1


def _normalized_mod_p(zs):
    """The vectors zs mod P (each nonzero mod P, entries in [0, P)), each
    scaled so that its first nonzero entry is 1, as tuples.  One inverse
    serves them all (batch inversion, Montgomery, Math. Comp. 48, 1987):
    the inverse of the product of the leading entries, peeled off from the
    last vector back by the prefix products."""
    leads = [next(x for x in z if x) for z in zs]
    prefix = []
    acc = 1
    for x in leads:
        prefix.append(acc)
        acc = acc * x % P
    inv = pow(acc, -1, P)  # the inverse of leads[0] * ... * leads[k] below
    out = [None] * len(zs)
    for k in range(len(zs) - 1, -1, -1):
        lead_inv = inv * prefix[k] % P
        inv = inv * leads[k] % P
        out[k] = tuple([y * lead_inv % P for y in zs[k]])
    return out


def _meet_mod_p(pts):
    """``_meet`` of four points of RP^2 given by vectors mod P: the Cramer
    meet lam·u - mu·w of ``projective._meet_lines`` mod P, unnormalized
    (a nonzero multiple of the meet of any other representatives);
    DegenerateError when it vanishes mod P."""
    (a0, a1, a2), (b0, b1, b2), u, w = pts
    c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    lam = (c0 * w[0] + c1 * w[1] + c2 * w[2]) % P
    mu = (c0 * u[0] + c1 * u[1] + c2 * u[2]) % P
    z = ((lam * u[0] - mu * w[0]) % P, (lam * u[1] - mu * w[1]) % P, (lam * u[2] - mu * w[2]) % P)
    if z == (0, 0, 0):
        raise DegenerateError("meet vanishes mod P")
    return z


def _propagates_mod_p(window, steps, rule):
    """``_clean_run`` on the window's primitive vectors mod P, with the
    rule's meet taken mod P, then the coincidence test and the 2-fractal
    minors of ``_spans_planes`` on its last window, whose vectors are
    normalized once (``_normalized_mod_p``).  True proves that the exact
    guard accepts.  A primitive vector is nonzero mod P, and a meet that is
    nonzero mod P is the reduction of a nonzero integer meet, so
    ``_meet_lines`` finds the exact meet, whose primitive vector reduces to
    a multiple of the meet mod P: the exact run meets no degenerate pair of
    lines and its points reduce to the points mod P.  Points that differ
    mod P differ, so no relation instance repeats a point either, and a
    minor that is nonzero mod P is the reduction of a nonzero integer
    minor.  A meet or minor that vanishes mod P, or points that coincide
    mod P, prove nothing; equal unnormalized vectors are equal points, so a
    row that repeats one in an instance ends the run at once."""
    reduced = MeshWindow(window.pin, 2, periodic_n=window.periodic_n)
    reduced.points = {k: tuple([x % P for x in p.z]) for k, p in window.points.items()}
    last = _clean_run(reduced, steps, rule._replace(solve=_meet_mod_p))
    if last is None:
        return False
    last.points = dict(zip(last.points, _normalized_mod_p(list(last.points.values()))))
    if _has_coincident_points(last):
        return False
    offs = _fractal_2_offsets(last.pin)
    return all(_minor3(*last.at(r, offs[:3])) % P for r in bases(last, offs))


def _spanning_check(window):
    if rank_of(window.points.values()) != window.dim + 1:
        raise DegenerateConfig("window does not span RP^%d" % window.dim)


def generate_polygon_window(pin, n, seed=0, dim=2):
    """Closed twisted-free polygon data for pins with m = 1 (single free row):
    a random n-gon in RP^dim with distinct vertices, periodic in i.  Fewer
    than dim + 1 vertices cannot span RP^dim, a ``MeshError``.  Like
    generate_window, a polygon that the redraw guard does not certify is
    redrawn from the same random stream."""
    if pin.m != 1:
        raise MeshError("closed polygon windows need m = 1 (got m = %d)" % pin.m)
    if n < dim + 1:
        raise MeshError("a closed polygon in RP^%d needs n >= %d vertices (got n = %d)"
                        % (dim, dim + 1, n))

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
    the keys of the first source's row; the row is solved into one dict
    and written to the copy at once.  A successor kept for the rule
    (``_Lines.kept``) is handed over instead, once, so no two calls return
    one window object."""
    kept = window.lines.kept
    if kept and kept[0] is rule:
        window.lines.kept = None
        return kept[1]
    pin = window.pin
    offs = [pin.offset(word) for word in rule.sources]
    t1, t2 = pin.offset(rule.target)
    f1, f2 = offs[0]
    rows = window.rows()
    if not rows:
        raise MeshError("the window has no points to propagate")
    r2 = (rows[-1] + 1 if t2 > f2 else rows[0] - 1) - t2
    points = window.points
    n = window.periodic_n
    row = {}
    for r1 in sorted({(i - f1) % n if n else i - f1 for i, j in points if j == r2 + f2}):
        try:
            pts = [points[((r1 + d1) % n if n else r1 + d1, r2 + d2)] for d1, d2 in offs]
        except KeyError:  # a source outside the window
            continue
        row[((r1 + t1) % n if n else r1 + t1, r2 + t2)] = rule.solve(pts)
    if not row:
        raise MeshError("no %s instance fits the window" % rule.name)
    w = window.copy()
    w.points.update(row)
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


def step_backward(window):
    """Add the previous row at the bottom via the inverse intersection rule."""
    return _propagate(window, BOTTOM)


def _reduced_rule(pin):
    """The rule of the order-reduced system, which needs d2-b2 >= c2-a2:
    REDUCED, or TOP when c2 == d2, where the source point r+2c sits in the
    row being created, so the reduced rule gains nothing (m' = m)."""
    a, b, c, d = pin.points
    if d[1] - b[1] < c[1] - a[1]:
        raise MeshError("reduced system needs d2-b2 >= c2-a2; time-reverse first")
    return TOP if c[1] == d[1] else REDUCED


def step_reduced_forward(window):
    """Order-reduced planar propagation (``_reduced_rule``):
    P_{r+c+d} = <P_{r+2c}, P_{r+b+c}> ^ <P_{r+a+d}, P_{r+b+d}>."""
    return _propagate(window, _reduced_rule(window.pin))


def step_1d(window, backward=False):
    """Propagate a 1D mesh one row (top if forward, bottom if backward) by
    solving the six-point Menelaus relation for the unknown point."""
    return _propagate(window, MENELAUS_BOTTOM if backward else MENELAUS_TOP)


def generate_reduced(pin, i_lo, i_hi, seed=0):
    """Generic planar window of the order-reduced system: m' = max(c2-a2,
    d2-b2) rows constrained only by the L1 collinearity (the column sweep of
    ``_greedy``), redrawn like generate_window by the rule of
    ``step_reduced_forward``."""
    rule = _reduced_rule(pin)
    if d_of_s(pin) < 2:
        raise MeshError("the reduced system is planar; D(S) = %d" % d_of_s(pin))
    mp = m2_of_s(pin)
    _check_columns(i_lo, i_hi, mp, 2)
    return _certified_draw(lambda rng: _greedy(pin, mp, ("L1",), i_lo, i_hi, rng),
                           random.Random(seed), pin.l + 2, rule)


# ---- validation --------------------------------------------------------


def bases(window, offsets):
    """Every base r whose points r + offset all lie inside the window, once
    each (mod n on a periodic window), ordered by (r2, r1).  At each base
    row r2 the runs of row r2 + d2 (``_Lines.row_runs``), shifted back by
    d1, are intersected over the offsets (d1, d2); the surviving intervals
    hold the bases of row r2.  The offsets on one row are taken together
    (``_fitting``)."""
    runs = window.lines.row_runs()
    n = window.periodic_n
    shifts = {}
    for d1, d2 in offsets:
        shifts.setdefault(d2, []).append(d1)
    found = []
    for r2 in sorted(j - offsets[0][1] for j in runs):
        live = None
        for d2, ds in shifts.items():
            row = runs.get(r2 + d2)
            if row is None:
                break
            fit = _fitting(row, ds, n)
            live = fit if live is None else _intersect_runs(live, fit)
            if not live:
                break
        else:
            for lo, hi in live:
                found += zip(range(lo, hi + 1), repeat(r2))
    return found


def _fitting(runs, ds, n):
    """The runs of the columns r1 with r1 + d in the given runs of a row for
    every d in ds (mod n on a periodic window), ascending: the runs shifted
    back by each d and intersected.  One run of an open row narrows to one,
    and a closed row without a gap holds every shift."""
    if not n and len(runs) == 1:
        (lo, hi), = runs
        lo, hi = lo - min(ds), hi - max(ds)
        return [(lo, hi)] if lo <= hi else []
    if n and runs == [(0, n - 1)]:
        return runs
    live = _shifted_runs(runs, ds[0], n)
    for d in ds[1:]:
        live = _intersect_runs(live, _shifted_runs(runs, d, n))
    return live


def _shifted_runs(runs, d, n):
    """The runs moved by -d, ascending; mod n a run that crosses n - 1 is
    split in two."""
    if not n:
        return [(lo - d, hi - d) for lo, hi in runs]
    out = []
    for lo, hi in runs:
        lo, hi = (lo - d) % n, (lo - d) % n + hi - lo
        if hi < n:
            out.append((lo, hi))
        else:
            out += [(lo, n - 1), (0, hi - n)]
    out.sort()
    return out


def _intersect_runs(xs, ys):
    """The intersection of two ascending lists of disjoint runs."""
    out = []
    k = m = 0
    while k < len(xs) and m < len(ys):
        lo, hi = max(xs[k][0], ys[m][0]), min(xs[k][1], ys[m][1])
        if lo <= hi:
            out.append((lo, hi))
        if xs[k][1] < ys[m][1]:
            k += 1
        else:
            m += 1
    return out


def _repeats(pts):
    return len(set(pts)) != len(pts)


def _has_coincident_points(window, distinct=None):
    """Whether an L1 or L2 instance or a full line L_r inside the window
    repeats a point (what check_relations reports as coincident points or
    a degenerate line).  ``distinct``, when given, says whether the
    window's points are pairwise distinct.

    Each instance takes its points at r + offset for distinct offsets among
    a, b, c, d.  Unless the window is periodic with n at most the i-extent
    of the pin, distinct offsets give distinct keys, so a window whose
    points are pairwise distinct has no such instance: one pass over its
    points decides.  Any other window is scanned instance by instance."""
    n = window.periodic_n
    xs = [o1 for o1, _ in window.pin.points]
    if not n or n > max(xs) - min(xs):
        if distinct is None:
            pts = window.points.values()
            distinct = len(set(pts)) == len(pts)
        if distinct:
            return False
    return _coincident_instance(window)


def _coincident_instance(window):
    """``_has_coincident_points`` by a scan of every instance."""
    for words in (Pin.CIRCUIT_WORDS["L1"], Pin.CIRCUIT_WORDS["L2"], "abcd"):
        offs = [window.pin.offset(word) for word in words]
        if any(_repeats(window.at(r, offs)) for r in bases(window, offs)):
            return True
    return False


def check_relations(window):
    """Verify every relation instance fully inside the window: L1/L2
    collinearity, P3 coplanarity, full-line collinearity of {r+a,...,r+d},
    distinctness, and that the window spans RP^D.  Returns instance counts;
    a failed instance raises ``IdentityFailure``.

    L1 = {r+a, r+b, r+c}, L2 = {r+b, r+c, r+d} and the full line lie on
    L_r, so every collinearity and distinctness test of base r holds when
    L_r has a chart in the window's line store; a line without one tests
    each instance on its points.  P3 = {r+ac, r+ad, r+bc, r+bd} lies on the
    lines L_{r+c} and L_{r+d}, which pass through P_{r+cd}, and on L_{r+a}
    and L_{r+b}, which pass through P_{r+ab}; it spans at most a plane when
    either pair meets in the window (``MeshWindow.lines_meet``), and any
    other P3 instance is decided by ``rank_of`` on its points."""
    pin = window.pin
    lines = window.lines
    counts = {}
    for kind, words in [*Pin.CIRCUIT_WORDS.items(), ("line", "abcd")]:
        offs = [pin.offset(word) for word in words]
        counts[kind] = 0
        for r in bases(window, offs):
            if kind == "P3":
                if not (window.lines_meet(r, "c", "d") or window.lines_meet(r, "a", "b")
                        or rank_of(window.at(r, offs)) <= 3):
                    raise IdentityFailure("coplanarity fails at base (%d, %d)" % r)
            elif not lines[r][2]:
                pts = window.at(r, offs)
                flaw = ("collinearity fails" if not collinear(pts)
                        else "has coincident points" if _repeats(pts) else None)
                if flaw:
                    raise IdentityFailure("line L_(%d,%d) degenerate" % r if kind == "line"
                                          else "%s %s at base (%d, %d)" % ((kind, flaw) + r))
            counts[kind] += 1
    _spanning_check(window)
    if not any(counts.values()):
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
    """Random 1D window: m = c2+d2-a2-b2 free rows of distinct RP^1 points,
    in one draw (``draws`` is 1)."""
    _check_columns(i_lo, i_hi)
    rng = random.Random(seed)
    m = pin.l
    w = MeshWindow(pin, 1)
    used = set()
    span = max(20, 2 * m * (i_hi - i_lo + 1))  # pool large enough for the window
    for j in range(1, m + 1):
        for i in range(i_lo, i_hi + 1):
            for _ in range(REDRAW_LIMIT):
                p = Point((rng.randint(-span, span), rng.randint(1, 10)))
                if p not in used:
                    used.add(p)
                    break
            else:
                raise DegenerateConfig("could not draw distinct 1D values")
            w.set((i, j), p)
    w.draws = 1
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
    failed relation or a triple off a line raises ``IdentityFailure``.

    Each triple lies on a line L_s; when all three lines have a chart in the
    window's line store, the factors are 2x2 determinants on those charts,
    else the instance goes through ``multi_ratio_pair`` on its points."""
    pin = window.pin
    offs = [pin.offset(word) for word in MENELAUS_WORDS]
    triples = [(pin.offset(label), idx) for label, idx in MENELAUS_LINES]
    lines = window.lines
    count = 0
    for r in bases(window, offs):
        r1, r2 = r
        on = [(lines[(r1 + o1, r2 + o2)], idx) for (o1, o2), idx in triples]
        try:
            if all(line[2] for line, _ in on):
                num, den = factor_pair((det2(zs[x], zs[y], i, j), det2(zs[y], zs[z], i, j))
                                       for (_, zs, (i, j), _), (x, y, z) in on)
            else:
                num, den = multi_ratio_pair(window.at(r, offs))
        except DegenerateError:
            pts = window.at(r, offs)
            if not all(line[2] or collinear(t) for (line, _), t
                       in zip(on, (pts[0:3], pts[2:5], pts[4:6] + pts[:1]))):
                raise IdentityFailure("Menelaus triple not collinear at base (%d, %d)" % r)
            continue
        if num + den != 0:
            raise IdentityFailure("Menelaus relation fails at base (%d, %d): %s"
                                  % (r + (ExtQ(num, den),)))
        count += 1
    return count
