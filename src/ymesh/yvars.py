"""y-variables of a mesh and their exact identities.

y_r(P) = -[P_{r+a}, P_{r+c}, P_{r+b}, P_{r+d}], a cross ratio on the line L_r.
The propagation dynamics satisfies, for every base r,

  y_{r+a+b} y_{r+c+d} = (1+y_{r+a+c})(1+y_{r+b+d})
                        / ((1+1/y_{r+a+d})(1+1/y_{r+b+c})) .

``check_eqmain`` and ``verify eqmain`` read their y-values off a ``YTable``,
the line table of ``ymesh.mesh`` with one y-value per line, made for one
check call: whether L_s is inside the window is a set lookup, and its cross
ratio is four 2x2 determinants on the line's chart.  A line without a chart
(points off one line, or repeated) goes through ``y_pair``, which raises as
``cross_ratio_pair`` does.
"""

from .rational import (ExtQ, DegenerateError, degenerate_pair, exchange_relation, in_factor,
                       out_factor)
from .projective import cross_ratio_pair, cross_ratio_on, multi_ratio, join, meet_point
from .mesh import LineTable, bases

EQMAIN_LABELS = ("ab", "cd", "ac", "bd", "ad", "bc")


def y_of(window, r):
    """The y-variable at base r (all four of r+a..r+d must be in the window)."""
    return ExtQ(*y_pair(window, r))


def y_pair(window, r):
    """y_of(window, r) as an unreduced integer pair (num, den), den = 0 for
    inf."""
    pin = window.pin
    pts = [window.get(pin.shift(r, lab)) for lab in "acbd"]
    num, den = cross_ratio_pair(*pts)
    return -num, den


def y_available(window, r):
    pin = window.pin
    return all(window.has(pin.shift(r, lab)) for lab in "abcd")


def eqmain_relation(ys):
    """``rational.exchange_relation`` for y_ab y_cd = (1+y_ac)(1+y_bd) /
    ((1+1/y_ad)(1+1/y_bc)), on integer pairs ys in EQMAIN_LABELS order."""
    ab, cd, ac, bd, ad, bc = ys
    return exchange_relation(ab, cd, ((ac, 1, in_factor), (bd, 1, in_factor),
                                      (ad, 1, out_factor), (bc, 1, out_factor)))


def eqmain_instance(window, r, cache=None):
    """``eqmain_relation`` at base r; None when one of its y-values is not
    inside the window, "degenerate" when one is 0, -1 or inf.

    ``cache`` (a ``YTable`` of the window) lets calls on one window share
    their y-values."""
    offsets = [window.pin.offset(lab) for lab in EQMAIN_LABELS]
    return _eqmain_instance(window, r, YTable(window) if cache is None else cache, offsets)


class YTable(LineTable):
    """A ``LineTable`` whose entry for L_s is its y-value as an integer
    pair, or False when a point of L_s is outside the window: a lookup in
    the set of lines inside (``bases`` over the offsets a, b, c, d).  The
    y-value is read off the line's chart; a line without one goes through
    ``y_pair``, which raises as ``cross_ratio_pair`` does.  The pair may
    differ from ``y_pair``'s by a positive factor."""

    __slots__ = ("inside",)

    def __init__(self, window):
        super().__init__(window)
        self.inside = set(bases(window, window.pin.points))

    def entry(self, s):
        if s not in self.inside:
            return False
        (za, zb, zc, zd), chart = super().entry(s)
        if chart is None:
            return y_pair(self.window, s)
        num, den = cross_ratio_on(za, zc, zb, zd, *chart)
        return -num, den


def _eqmain_instance(window, r, ys, offsets):
    r1, r2 = r
    pairs = []
    for o1, o2 in offsets:
        y = ys[(r1 + o1, r2 + o2)]
        if not y:
            return None
        pairs.append(y)
    return "degenerate" if any(degenerate_pair(*y) for y in pairs) else eqmain_relation(pairs)


def eqmain_residual(window, r, cache=None):
    """LHS/RHS of the exchange identity at base r; 1 on a mesh.  None (not
    inside the window) or "degenerate" (skip) as from ``eqmain_instance``."""
    rel = eqmain_instance(window, r, cache)
    if not isinstance(rel, tuple):
        return rel
    _, (lhs_n, lhs_d), (rhs_n, rhs_d) = rel
    return ExtQ(lhs_n * rhs_d, lhs_d * rhs_n)


def check_eqmain(window, min_instances=1):
    """Verify the exchange identity at every base fully inside the window on
    integer pairs (``eqmain_instance``); each y-value is computed once, in
    the call's ``YTable``.  The scan covers every base whose 24 points (four
    per y-value) can reach the window's bounding box.

    On a periodic window the scan counts a base once for each unreduced r1
    that reaches it: the benchmark's ``yvars.check_eqmain.count_ratio`` is
    1.75 on its ``polygon_periodic`` workload.  The fix, listing the bases
    with ``bases`` as ``verify eqmain`` does, waits on open item 1 of
    ROADMAP.md, because a benchmark test pins the overcount."""
    pin = window.pin
    offsets = [pin.offset(lab) for lab in EQMAIN_LABELS]
    reach = [(o1 + p1, o2 + p2) for o1, o2 in offsets for p1, p2 in pin.points]

    def scan(axis):
        vals = [r[axis] for r in window.points]
        offs = [o[axis] for o in reach]
        return range(min(vals) - max(offs), max(vals) - min(offs) + 1)

    checked = skipped = 0
    cache = YTable(window)
    cols = scan(0)
    for r2 in scan(1):
        for r1 in cols:
            rel = _eqmain_instance(window, (r1, r2), cache, offsets)
            if rel is None:
                continue
            if rel == "degenerate":
                skipped += 1
                continue
            if not rel[0]:
                res = eqmain_residual(window, (r1, r2), cache)
                raise AssertionError("exchange identity fails at (%d, %d): %s" % (r1, r2, res))
            checked += 1
    if checked < min_instances:
        raise AssertionError("only %d exchange instances found (%d skipped)" % (checked, skipped))
    return {"checked": checked, "skipped": skipped}


# ---- point/line bracket product ----------------------------------------


def _bracket_pair(p1, l1, p2, l2):
    line = join(p1, p2)
    x = meet_point(line, l1)
    y = meet_point(line, l2)
    return cross_ratio_pair(p1, x, p2, y)


def bracket(p1, l1, p2, l2):
    """[P1, L1, P2, L2]: cross ratio of P1, line^L1, P2, line^L2 on the line
    through P1, P2 (L1, L2 are flats meeting that line in single points)."""
    return ExtQ(*_bracket_pair(p1, l1, p2, l2))


def bracket_product(points, lines):
    """Product over 1<=i<k<=4 of y_(i,k) = [P_i, L_j, P_k, L_l], with {j,l}
    ordered so (i,j,k,l) is an even permutation of (1,2,3,4); equals 1.

    The brackets are multiplied as integer pairs and reduced once; the first
    product of a zero and an infinite bracket raises, as in ExtQ."""
    assert len(points) == 4 and len(lines) == 4
    num = den = 1
    for i in range(4):
        for k in range(i + 1, 4):
            j, l = [x for x in range(4) if x not in (i, k)]
            if _parity((i, j, k, l)) != 0:
                j, l = l, j
            p, q = _bracket_pair(points[i], lines[j], points[k], lines[l])
            num, den = num * p, den * q
            if num == 0 and den == 0:
                raise DegenerateError("inf * 0")
    return ExtQ(num, den)


def _parity(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return inv % 2


# ---- general y-variables (intermediate mutation states) -----------------

# multi-ratio expressions for the covered factor subsets; labels are offset
# words, sign is the leading sign of the multi-ratio
GENERAL_Y_TABLE = {
    frozenset(): (-1, ("abc", "abb", "abd", "aab")),
    frozenset("A"): (1, ("abc", "abb", "abd", "aad", "acd", "acc")),
    frozenset("AC"): (1, ("abc", "abb", "abd", "add", "acd", "acc")),
    frozenset("AD"): (1, ("bcd", "bbd", "abd", "aad", "acd", "ccd")),
    frozenset("ACD"): (1, ("bcd", "bbd", "abd", "add", "acd", "ccd")),
    frozenset("AB"): (-1, ("abc", "bbc", "bcd", "bdd", "abd", "aad", "acd", "acc")),
    frozenset("CD"): (-1, ("abc", "bcc", "bcd", "bbd", "abd", "add", "acd", "aac")),
    frozenset("ABCD"): (-1, ("acd", "ccd", "bcd", "cdd")),
}

COMPASS = {
    ("a", "d"): "N", ("b", "c"): "S", ("d", "b"): "E", ("c", "a"): "W",
    ("a", "b"): "NE", ("c", "d"): "NW", ("b", "a"): "SW", ("d", "c"): "SE",
}


def general_y_factor_route(window, r, subset):
    """y^(1) at r+c+d times the chosen 1+y factors, from plain y-values."""
    pin = window.pin
    y = {lab: y_of(window, pin.shift(r, lab)) for lab in ("ab", "ac", "bd", "ad", "bc")}
    val = y["ab"].inv()
    if "A" in subset:
        val = val * (1 + y["ac"])
    if "B" in subset:
        val = val * (1 + y["bd"])
    if "C" in subset:
        val = val / (1 + y["ad"].inv())
    if "D" in subset:
        val = val / (1 + y["bc"].inv())
    return val


def general_y_multiratio_route(window, r, subset):
    """The same quantity as a single signed multi-ratio of mesh points."""
    pin = window.pin
    sign, labels = GENERAL_Y_TABLE[frozenset(subset)]
    pts = [window.get(pin.shift(r, lab)) for lab in labels]
    return ExtQ(sign) * multi_ratio(pts)


def cycle_diagram(subset):
    """Compass word of the subset's multi-ratio: consecutive label differences
    mapped to the eight compass directions, alternating solid/dashed."""
    _, labels = GENERAL_Y_TABLE[frozenset(subset)]
    out = []
    n = len(labels)
    for idx in range(n):
        cur, nxt = labels[idx], labels[(idx + 1) % n]
        # difference nxt - cur as pin-label exchange x -> y (one letter swap)
        cs, ns = sorted(cur), sorted(nxt)
        removed = _multiset_diff(cs, ns)
        added = _multiset_diff(ns, cs)
        assert len(removed) == 1 and len(added) == 1, (cur, nxt)
        direction = COMPASS[(added[0], removed[0])]
        style = "solid" if idx % 2 == 0 else "dashed"
        out.append((direction, style))
    return out


def _multiset_diff(xs, ys):
    ys = list(ys)
    out = []
    for x in xs:
        if x in ys:
            ys.remove(x)
        else:
            out.append(x)
    return out
