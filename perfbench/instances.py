"""Distinct identity instances, enumerated from window keys, and heights.

The benchmark counts the instances each check should verify without asking
the library: a base r is an instance when r + o is a point of the window for
every offset o of the identity.  On a periodic window (closed polygon) the
column index is taken mod n, so every base is counted once.  The counts fix
the numerator of ``instances_per_s`` and the lower bound that a check's
reported count must reach.
"""

from math import gcd

# offset words per identity; a word is the sum of the named pin points
Y_WORDS = ("a", "b", "c", "d")
EQMAIN_WORDS = tuple(x + y for x in ("ab", "cd", "ac", "bd", "ad", "bc") for y in "abcd")
MENELAUS_WORDS = ("ad", "ac", "ab", "bc", "bd", "cd")
RELATION_WORDS = {
    "L1": ("a", "b", "c"),
    "L2": ("b", "c", "d"),
    "P3": ("ac", "ad", "bc", "bd"),
    "line": ("a", "b", "c", "d"),
}


def word_offset(pin, word):
    pts = dict(zip("abcd", pin.points))
    return (sum(pts[ch][0] for ch in word), sum(pts[ch][1] for ch in word))


def fractal_offsets(pin, k):
    """Offsets of the k-fractal: alpha*a + beta*b + gamma*c + delta*d over
    nonnegative exponents summing to k."""
    a, b, c, d = pin.points
    out = set()
    for al in range(k + 1):
        for be in range(k + 1 - al):
            for ga in range(k + 1 - al - be):
                de = k - al - be - ga
                out.add(tuple(al * a[t] + be * b[t] + ga * c[t] + de * d[t] for t in (0, 1)))
    return sorted(out)


def bases(keys, offsets, periodic_n=None):
    """Distinct bases r with r + o in keys for every offset o."""
    def norm(i, j):
        return (i % periodic_n, j) if periodic_n else (i, j)

    keys = set(keys)
    o0 = offsets[0]
    out = set()
    for (i, j) in keys:
        r = norm(i - o0[0], j - o0[1])
        if r not in out and all(norm(r[0] + o[0], r[1] + o[1]) in keys for o in offsets):
            out.add(r)
    return out


def window_bases(window, words):
    offsets = [word_offset(window.pin, w) for w in words]
    return bases(window.points, offsets, window.periodic_n)


def fractal_bases(window, k):
    return bases(window.points, fractal_offsets(window.pin, k), window.periodic_n)


def exchange_trace_instances(n, i0, l, exported, outs, ins):
    """Instances of the exchange-trace relation in an exported y-trace and
    the subset whose factors include a degenerate y (0, -1 or inf), which the
    check skips.  outs/ins are the arrow offsets at the origin."""
    instances = degenerate = 0
    arrows = [v for v, _ in outs] + [v for v, _ in ins]
    for (i, j) in exported:
        top = ((i + i0) % n, j + l)
        if top not in exported:
            continue
        labels = [((top[0] - v[0]) % n, top[1] - v[1]) for v in arrows]
        if not all(lab in exported for lab in labels):
            continue
        instances += 1
        if any(_degenerate_y(exported[lab]) for lab in labels):
            degenerate += 1
    return instances, degenerate


def _degenerate_y(y):
    return y.is_inf or y.q == 0 or y.q == -1


def point_bits(point):
    """Bit length of the largest entry of the point's primitive integer
    vector (its coordinate height)."""
    den = 1
    for x in point.v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [x.numerator * (den // x.denominator) for x in point.v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return max(abs(x) // g for x in ints).bit_length()


def y_bits(y):
    """Bit length of max(|num|, den) of an extended rational (inf: 1 bit)."""
    num, den = y.as_pair()
    return max(abs(num), den).bit_length()
