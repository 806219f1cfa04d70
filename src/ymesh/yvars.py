"""y-variables of a mesh and their exact identities.

y_r(P) = -[P_{r+a}, P_{r+c}, P_{r+b}, P_{r+d}], a cross ratio on the line L_r.
The propagation dynamics satisfies, for every base r,

  y_{r+a+b} y_{r+c+d} = (1+y_{r+a+c})(1+y_{r+b+d})
                        / ((1+1/y_{r+a+d})(1+1/y_{r+b+c})) .
"""

from .rational import ExtQ, DegenerateError
from .projective import cross_ratio, multi_ratio, join, meet_point
from .filtration import _resolve, _add

DEGENERATE_Y = (ExtQ(0), ExtQ(-1), ExtQ.infinity())


def y_of(window, r):
    """The y-variable at base r (all four of r+a..r+d must be in the window)."""
    pin = window.pin
    pts = [window.get(_add(r, _resolve(pin, lab))) for lab in ("a", "c", "b", "d")]
    return -cross_ratio(*pts)


def y_available(window, r):
    pin = window.pin
    return all(window.has(_add(r, _resolve(pin, lab))) for lab in ("a", "b", "c", "d"))


def eqmain_residual(window, r, cache=None):
    """LHS/RHS of the exchange identity at base r; 1 on a mesh.  Returns None
    (skip) when some participating y is degenerate (0, -1 or inf).

    ``cache`` (a dict, window key -> y-value) lets calls on one window share
    their y-values; on a periodic window the key is taken mod n."""
    pin = window.pin
    if cache is None:
        cache = {}
    ys = {}
    for lab in ("ab", "cd", "ac", "bd", "ad", "bc"):
        u = _add(r, _resolve(pin, lab))
        if not y_available(window, u):
            return None
        key = window._key(u)
        if key not in cache:
            cache[key] = y_of(window, u)
        ys[lab] = cache[key]
    if any(y in DEGENERATE_Y for y in ys.values()):
        return "degenerate"
    lhs = ys["ab"] * ys["cd"]
    rhs = ((1 + ys["ac"]) * (1 + ys["bd"])
           / ((1 + ys["ad"].inv()) * (1 + ys["bc"].inv())))
    return lhs / rhs


def check_eqmain(window, min_instances=1):
    """Verify the exchange identity at every base fully inside the window;
    each y-value is computed once."""
    keys = list(window.points)
    i_vals = [i for (i, _) in keys]
    j_vals = [j for (_, j) in keys]
    checked = skipped = 0
    cache = {}
    for r2 in range(min(j_vals) - 8, max(j_vals) + 8):
        for r1 in range(min(i_vals) - 8, max(i_vals) + 9):
            res = eqmain_residual(window, (r1, r2), cache)
            if res is None:
                continue
            if res == "degenerate":
                skipped += 1
                continue
            if res != ExtQ(1):
                raise AssertionError("exchange identity fails at (%d, %d): %s" % (r1, r2, res))
            checked += 1
    if checked < min_instances:
        raise AssertionError("only %d exchange instances found (%d skipped)" % (checked, skipped))
    return {"checked": checked, "skipped": skipped}


# ---- point/line bracket product ----------------------------------------


def bracket(p1, l1, p2, l2):
    """[P1, L1, P2, L2]: cross ratio of P1, line^L1, P2, line^L2 on the line
    through P1, P2 (L1, L2 are flats meeting that line in single points)."""
    line = join(p1, p2)
    x = meet_point(line, l1)
    y = meet_point(line, l2)
    return cross_ratio(p1, x, p2, y)


def bracket_product(points, lines):
    """Product over 1<=i<k<=4 of y_(i,k) = [P_i, L_j, P_k, L_l], with {j,l}
    ordered so (i,j,k,l) is an even permutation of (1,2,3,4); equals 1."""
    assert len(points) == 4 and len(lines) == 4
    total = ExtQ(1)
    for i in range(4):
        for k in range(i + 1, 4):
            j, l = [x for x in range(4) if x not in (i, k)]
            if _parity((i, j, k, l)) != 0:
                j, l = l, j
            total = total * bracket(points[i], lines[j], points[k], lines[l])
    return total


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
    y = {lab: y_of(window, _add(r, _resolve(pin, lab))) for lab in ("ab", "ac", "bd", "ad", "bc")}
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
    pts = [window.get(_add(r, _resolve(pin, lab))) for lab in labels]
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
