"""Hull-case classification and circuit filtrations.

The dependency structure of a mesh window is a family of circuits on the strip
R = Z x {1..m}: collinear triples L1 = {r+a, r+b, r+c} and L2 = {r+b, r+c, r+d}
and coplanar quadruples P3 = {r+a+c, r+a+d, r+b+c, r+b+d}.  A filtration is a
sweep (f, g, H_t) satisfying seven conditions (see audit).  FiltrationSpec
builds one for the three strict hull cases.  For a boundary pin one
coefficient of the convex relation is zero (that point sits on a hull edge),
and FiltrationSpec raises FiltrationUnavailable instead.

Window generation (``mesh._generate_filtration``) uses both sides of the
sweep: from a middle band H_{t_mid} it places the cells born later by their
g-circuits (``g_inverse``, by ``birth``) and the cells that die earlier by
their f-circuits (``f_inverse``, by descending ``death``), so each circuit
binds exactly one cell.  Conditions 6 and 7 ask only for an order that puts
each cell after the other members of its circuit; ``binding_order`` derives
one (a topological sort), for generation and the audit alike.
"""

from heapq import heappop, heappush
from math import gcd

from .pins import Pin, PinError, convex_relation, d_of_s

CASE_LONG_DIAGONAL = "long_diagonal"
CASE_LONG_SIDE = "long_side"
CASE_TRIANGLE_B = "triangle_b"
CASE_TRIANGLE_C = "triangle_c"
CASE_BOUNDARY = "boundary"


class FiltrationUnavailable(PinError):
    pass


def classify_case(pin):
    """Hull shape of S relative to the labels.

    long_diagonal / long_side: strict quadrilateral with a-d a diagonal/side;
    triangle_b / triangle_c: strict triangle with b resp. c interior;
    boundary: one point on an edge of the hull (zero relation coefficient).
    """
    ms = convex_relation(pin)
    if any(m == 0 for m in ms):
        return CASE_BOUNDARY
    pos = [i for i, m in enumerate(ms) if m > 0]
    neg = [i for i, m in enumerate(ms) if m < 0]
    if len(pos) == 2:
        # quadrilateral; same-sign pairs are opposite vertices
        same_piece_ad = ({0, 3} == set(pos)) or ({0, 3} == set(neg))
        return CASE_LONG_DIAGONAL if same_piece_ad else CASE_LONG_SIDE
    singleton = (pos if len(pos) == 1 else neg)[0]
    if singleton == 1:
        return CASE_TRIANGLE_B
    if singleton == 2:
        return CASE_TRIANGLE_C
    raise PinError("unexpected interior label %d for %r" % (singleton, pin))


# (f | middle | g) designations per hull case
_TABLES = {
    CASE_LONG_DIAGONAL: {
        "L1": ("b", "c"),
        "L2": ("b", "c"),
        "P3": ("bd", "ac"),
    },
    CASE_TRIANGLE_B: {
        "L1": ("c", "a"),
        "L2": ("c", "d"),
        "P3": ("ac", "ad"),
    },
    CASE_LONG_SIDE: {
        "L1": ("c", "a"),
        "L2": ("b", "d"),
        "P3": ("bc", "ad"),
    },
}


def base_row_range(pin, kind):
    """Valid base rows r2 for a circuit kind: lo < r2 <= hi, the rows where
    every member lies in rows 1..m."""
    rows = [pin.offset(word)[1] for word in Pin.CIRCUIT_WORDS[kind]]
    return (-min(rows), pin.m - max(rows))


def circuit_members(pin, kind, base):
    """Members of the circuit (kind, base); coincident labels are merged."""
    out = []
    for lab in Pin.CIRCUIT_WORDS[kind]:
        p = pin.shift(base, lab)
        if p not in out:
            out.append(p)
    return tuple(out)


def all_circuits(pin, i_lo, i_hi):
    """Circuits whose members all lie in columns [i_lo, i_hi]."""
    out = []
    for kind, words in Pin.CIRCUIT_WORDS.items():
        lo, hi = base_row_range(pin, kind)
        offs = [pin.offset(lab) for lab in words]
        for r2 in range(lo + 1, hi + 1):
            for r1 in range(i_lo - min(o[0] for o in offs), i_hi - max(o[0] for o in offs) + 1):
                out.append((kind, (r1, r2)))
    return out


def _primitive(al, be):
    g = gcd(al, be)
    return (al // g, be // g) if g else (0, 0)


class FiltrationSpec:
    """The sweep data (phi, f, g, H_t) for one of the three strict hull cases.

    For a triangle_c pin, audit/generate the time-reversed pin (the reversed
    pin is triangle_b); boundary pins raise FiltrationUnavailable.
    """

    def __init__(self, pin):
        self.pin = pin
        self.case = classify_case(pin)
        if self.case == CASE_BOUNDARY:
            raise FiltrationUnavailable(
                "boundary pin %r: a zero convex-relation coefficient (a point "
                "on a hull edge) leaves no filtration of the three strict hull "
                "cases" % (pin,))
        if self.case == CASE_TRIANGLE_C:
            raise FiltrationUnavailable(
                "triangle_c pin: build the filtration for pin.time_reverse() "
                "(its case is triangle_b) and map back")
        a, b, c, d = pin.points
        # phi vanishes on q - p, with phi(x) <= phi(p) (>= on a long side)
        p, q, x, side = {CASE_LONG_DIAGONAL: (a, d, b, -1), CASE_TRIANGLE_B: (a, b, c, -1),
                         CASE_LONG_SIDE: (b, c, a, 1)}[self.case]
        al, be = _primitive(q[1] - p[1], p[0] - q[0])
        if side * (al * (x[0] - p[0]) + be * (x[1] - p[1])) < 0:
            al, be = -al, -be
        self.alpha, self.beta = al, be
        pa, pb, pc, pd = (self.phi(p) for p in pin.points)
        m = pin.m
        if self.case == CASE_LONG_DIAGONAL:
            assert pa == pd and pb < pa < pc
            self.blocks = [(1, m, pb, pc)]
        elif self.case == CASE_TRIANGLE_B:
            assert pa == pb and pc < pa < pd
            self.blocks = [
                (1, c[1] - a[1], pc, pd),
                (c[1] - a[1] + 1, m, pd - (pa - pc), pd),
            ]
        else:
            assert pb == pc and pa > pb and pd > pb
            top = pa + pd - pb
            self.blocks = [
                (1, b[1] - a[1], pa, top),
                (b[1] - a[1] + 1, c[1] - a[1], pb, top),
                (c[1] - a[1] + 1, m, pd, top),
            ]
        self._g_rows = self._row_partition(g_side=True)
        self._f_rows = self._row_partition(g_side=False)

    # ---- basic maps ----------------------------------------------------

    def phi(self, r):
        return self.alpha * r[0] + self.beta * r[1]

    def f_point(self, kind, base):
        return self.pin.shift(base, _TABLES[self.case][kind][0])

    def g_point(self, kind, base):
        return self.pin.shift(base, _TABLES[self.case][kind][1])

    def _row_partition(self, g_side):
        """Map row -> (kind, offset) for the f- or g-designated points; the
        three row intervals must partition (0, m]."""
        intervals = []
        for kind in Pin.CIRCUIT_WORDS:
            off = self.pin.offset(_TABLES[self.case][kind][1 if g_side else 0])
            lo, hi = base_row_range(self.pin, kind)
            intervals.append((lo + off[1], hi + off[1], kind, off))
        rows = {}
        for lo, hi, kind, off in intervals:
            for row in range(lo + 1, hi + 1):
                if row in rows:
                    raise FiltrationUnavailable(
                        "row %d claimed twice in %s designation" % (row, "g" if g_side else "f"))
                rows[row] = (kind, off)
        if set(rows) != set(range(1, self.pin.m + 1)):
            raise FiltrationUnavailable("rows not partitioned: %s" % sorted(rows))
        return rows

    def g_inverse(self, r):
        """The circuit (kind, base) with g(circuit) == r."""
        kind, off = self._g_rows[r[1]]
        return kind, (r[0] - off[0], r[1] - off[1])

    def f_inverse(self, r):
        kind, off = self._f_rows[r[1]]
        return kind, (r[0] - off[0], r[1] - off[1])

    # ---- H_t -----------------------------------------------------------

    def _block(self, row):
        for lo, hi, plo, phi_ in self.blocks:
            if lo <= row <= hi:
                return plo, phi_
        raise ValueError("row %d outside strip" % row)

    def in_H(self, r, t):
        for lo, hi, plo, phi_ in self.blocks:
            if lo <= r[1] <= hi:
                return t + plo <= self.phi(r) < t + phi_
        return False

    def birth(self, r):
        """Smallest t with r in H_t."""
        return self.phi(r) - self._block(r[1])[1] + 1

    def death(self, r):
        """Largest t with r in H_t."""
        return self.phi(r) - self._block(r[1])[0]

    def H(self, t):
        """Enumerate H_t (finite: phi is non-constant in i on each row)."""
        if self.alpha == 0:
            raise FiltrationUnavailable("phi constant in i")
        out = []
        for lo, hi, plo, phi_ in self.blocks:
            for j in range(lo, hi + 1):
                # membership: lo_v <= alpha*i <= hi_v, so i runs from
                # ceil(lo_v / alpha) to floor(hi_v / alpha), the bounds
                # swapped for a negative alpha
                lo_v, hi_v = t + plo - self.beta * j, t + phi_ - self.beta * j - 1
                if self.alpha < 0:
                    lo_v, hi_v = hi_v, lo_v
                out.extend((i, j) for i in range(-(-lo_v // self.alpha), hi_v // self.alpha + 1))
        return sorted(set(out))


def binding_order(cells, binding):
    """The cells, each after the other members of its binding circuits.

    ``binding[r]`` lists the pairs (circuit, others) of the circuits that
    bind the cell r, others being the circuit's other members; a member that
    is not a cell counts as placed.  The order given comes back unchanged
    where it is valid; otherwise a cell waits until its members are out
    (Kahn's topological sort, ties broken by the position given).  Cells
    left on a cycle raise FiltrationUnavailable, naming one and its circuit.
    """
    position = {r: k for k, r in enumerate(cells)}
    waiting, dependents = {}, {r: [] for r in cells}
    for r in cells:
        members = {q for _, others in binding[r] for q in others if q in position}
        waiting[r] = len(members)
        for q in members:
            dependents[q].append(r)
    ready = [k for k, r in enumerate(cells) if not waiting[r]]  # sorted: a heap
    order = []
    while ready:
        r = cells[heappop(ready)]
        order.append(r)
        for s in dependents[r]:
            waiting[s] -= 1
            if not waiting[s]:
                heappush(ready, position[s])
    if len(order) < len(cells):
        r = next(r for r in cells if waiting[r])
        circuit = next(c for c, others in binding[r] if any(waiting.get(q) for q in others))
        raise FiltrationUnavailable("no order places %r after the other members of its "
                                    "circuit %r: they wait on it in a cycle" % (r, circuit))
    return order


def audit_filtration(pin, t_lo=None, t_hi=None):
    """Machine-verify the seven filtration conditions on a window of sweep
    times; returns a report dict.  Raises FiltrationUnavailable for boundary
    pins; for triangle_c pins the time-reversed pin is audited.
    """
    reversed_pin = False
    if classify_case(pin) == CASE_TRIANGLE_C:
        pin = pin.time_reverse()
        reversed_pin = True
    spec = FiltrationSpec(pin)
    m = pin.m
    if t_lo is None:
        t_lo, t_hi = -3 * m * max(1, abs(spec.alpha), abs(spec.beta)), 3 * m * max(1, abs(spec.alpha), abs(spec.beta))
    want = d_of_s(pin) + 1
    report = {"case": spec.case, "reversed": reversed_pin, "H_size": want, "t_range": (t_lo, t_hi)}

    H_prev = set(spec.H(t_lo))
    for t in range(t_lo, t_hi):
        H_t, H_t1 = H_prev, set(spec.H(t + 1))
        H_prev = H_t1
        if len(H_t) != want:
            raise AssertionError("|H_%d| = %d != %d" % (t, len(H_t), want))
        out_set, in_set = H_t - H_t1, H_t1 - H_t
        # (3): membership intervals are contiguous
        for r in H_t | H_t1:
            if not (spec.birth(r) <= t + 1 <= spec.death(r) + 1
                    and spec.in_H(r, t) == (spec.birth(r) <= t <= spec.death(r))):
                raise AssertionError
        # (1)+(2): f,g belong to their circuits, differ, and invert correctly
        for r in in_set | out_set:
            for inv, fwd in ((spec.g_inverse, spec.g_point), (spec.f_inverse, spec.f_point)):
                kind, base = inv(r)
                if not (fwd(kind, base) == r and r in circuit_members(pin, kind, base)
                        and spec.f_point(kind, base) != spec.g_point(kind, base)):
                    raise AssertionError
        # (4): g o f^{-1} bijects out_set -> in_set
        image = set()
        for r in out_set:
            kind, base = spec.f_inverse(r)
            image.add(spec.g_point(kind, base))
        if image != in_set:
            raise AssertionError("condition 4 fails at t=%d: %s vs %s"
                                 % (t, sorted(image), sorted(in_set)))
        # (5): f(I) dying at t => I inside H_t u H_{t+1}
        both = H_t | H_t1
        for r in out_set:
            kind, base = spec.f_inverse(r)
            if not set(circuit_members(pin, kind, base)) <= both:
                raise AssertionError("condition 5 fails at t=%d for %s" % (t, (kind, base)))
        # (6)+(7): an order of in_set places each r after the other members
        # of g^{-1}(r) in in_set, and one of out_set after those of f^{-1}(r)
        for cond, moved, inverse in ((6, in_set, spec.g_inverse), (7, out_set, spec.f_inverse)):
            binding = {}
            for r in moved:
                circuit = inverse(r)
                binding[r] = [(circuit, [q for q in circuit_members(pin, *circuit) if q != r])]
            try:
                binding_order(sorted(moved), binding)
            except FiltrationUnavailable as e:
                raise AssertionError("condition %d fails at t=%d: %s" % (cond, t, e)) from None
    report["checked_t"] = t_hi - t_lo
    return report
