"""The lifted quiver on Z^2.

The quiver of a pin lives on Z x {0..l-1}; pulling back along
phi(i,j) = (d-b)i + (a-d)j  (mod the principal ideal generated by c+d-a-b)
gives a quiver on the full lattice whose arrows are unit steps: E=(1,0),
W=(-1,0), N=(0,1), S=(0,-1), NE=(1,1), NW=(-1,1).  Two independent
constructions are provided and cross-checked: pulling back the arrow classes
of the pin's quiver, and the direct label rule (horizontal arrows toward the
bigger label, vertical toward the smaller, diagonals completing oriented
triangle pairs).
"""

from .pins import PinError, convex_relation
from .quiver import Quiver, qs_period, infinite_arrow_classes


class LiftedUnavailable(PinError):
    pass


def compass_displacements(pin):
    """The eight compass displacement vectors of ``Pin.COMPASS_WORDS``
    (must be pairwise distinct)."""
    comp = {}
    for name, (added, removed) in pin.COMPASS_WORDS.items():
        (i1, j1), (i2, j2) = pin.offset(added), pin.offset(removed)
        comp[name] = (i1 - i2, j1 - j2)
    if len(set(comp.values())) != 8:
        raise LiftedUnavailable("compass displacements collide for %r" % (pin,))
    return comp


COMPASS_UNITS = {
    "N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0),
    "NE": (1, 1), "NW": (-1, 1), "SW": (-1, -1), "SE": (1, -1),
}


def phi_map(pin, ij):
    """phi(i,j), represented in Z x {0..l-1}."""
    a, b, c, d = pin.points
    i, j = ij
    w = ((d[0] - b[0]) * i + (a[0] - d[0]) * j,
         (d[1] - b[1]) * i + (a[1] - d[1]) * j)
    i0, l = qs_period(pin)
    q = w[1] // l
    return (w[0] - q * i0, w[1] - q * l)


def tilde_ideal_generator(pin):
    """Generator (i,j) of the kernel lattice of phi modulo the quiver period:
    from the primitive convex relation (m1..m4): k = -m3, j = m1+m3,
    i = -m2-m3."""
    m1, m2, m3, m4 = convex_relation(pin)
    gi, gj = -m2 - m3, m1 + m3
    if gi < 0 or (gi == 0 and gj < 0):
        gi, gj = -gi, -gj
    return (gi, gj)


def lift_route_pullback(pin, i_lo, i_hi, j_lo, j_hi):
    """Lift by pulling back arrow classes of the pin's quiver along phi."""
    comp = compass_displacements(pin)
    by_disp = {v: name for name, v in comp.items()}
    classes = infinite_arrow_classes(pin)
    verts = {(i, j) for i in range(i_lo, i_hi + 1) for j in range(j_lo, j_hi + 1)}
    q = Quiver(verts)
    for (row, disp), mult in classes.items():
        if disp not in by_disp:
            raise LiftedUnavailable("arrow displacement %s has no compass type" % (disp,))
        unit = COMPASS_UNITS[by_disp[disp]]
        for u in verts:
            if phi_map(pin, u)[1] != row:
                continue
            w = (u[0] + unit[0], u[1] + unit[1])
            if w in verts:
                q._bump(u, w, mult)
    return q


def lift_label(pin, ij):
    """Row label of phi: (p*i + q*j) mod l with p = d2-b2, q = c2-b2."""
    a, b, c, d = pin.points
    l = pin.l
    return ((d[1] - b[1]) * ij[0] + (c[1] - b[1]) * ij[1]) % l


def lift_route_labels(pin, i_lo, i_hi, j_lo, j_hi):
    """Direct rule: horizontal arrows toward the bigger label, vertical toward
    the smaller; a diagonal is added iff it splits its unit square into two
    oriented triangles."""
    verts = {(i, j) for i in range(i_lo, i_hi + 1) for j in range(j_lo, j_hi + 1)}
    q = Quiver(verts)
    lab = {u: lift_label(pin, u) for u in verts}
    for (i, j) in verts:
        if (i + 1, j) in verts:
            u, w = (i, j), (i + 1, j)
            if lab[u] < lab[w]:
                q._bump(u, w, 1)
            else:
                q._bump(w, u, 1)
        if (i, j + 1) in verts:
            u, w = (i, j), (i, j + 1)
            if lab[u] > lab[w]:
                q._bump(u, w, 1)
            else:
                q._bump(w, u, 1)
    for (i, j) in verts:
        sq = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
        if not all(p in verts for p in sq):
            continue
        p00, p10, p11, p01 = sq
        # NE diagonal p00 -> p11: both split triangles must be cycles
        if (q.bval(p11, p10) > 0 and q.bval(p10, p00) > 0
                and q.bval(p11, p01) > 0 and q.bval(p01, p00) > 0):
            q._bump(p00, p11, 1)
        # NW diagonal p10 -> p01
        if (q.bval(p01, p00) > 0 and q.bval(p00, p10) > 0
                and q.bval(p01, p11) > 0 and q.bval(p11, p10) > 0):
            q._bump(p10, p01, 1)
    return q


def build_lifted(pin, i_lo, i_hi, j_lo, j_hi):
    """Lifted-quiver window (pullback route), after asserting that the label
    route agrees on arrows whose endpoints are interior (one-cell margin,
    where window truncation cannot differ)."""
    q = lift_route_pullback(pin, i_lo, i_hi, j_lo, j_hi)
    q2 = lift_route_labels(pin, i_lo, i_hi, j_lo, j_hi)
    interior = {(i, j) for i in range(i_lo + 1, i_hi) for j in range(j_lo + 1, j_hi)}
    for u in interior:
        for w in interior:
            if abs(u[0] - w[0]) <= 1 and abs(u[1] - w[1]) <= 1 and u != w:
                if q.bval(u, w) != q2.bval(u, w):
                    raise LiftedUnavailable(
                        "lift routes disagree on %s -> %s: %d vs %d"
                        % (u, w, q.bval(u, w), q2.bval(u, w)))
    return q


SLOT_ORDER = ("E", "NE", "N", "NW", "W", "SW", "S", "SE")

# the sixteen admissible local patterns: all four orthogonal arrows present,
# an even set of diagonals, and the present arrows alternating in/out in
# cyclic order; canonical ids 1..16 by (diagonal mask, orientation of E)
def _admissible_patterns():
    diag_slots = ("NE", "NW", "SW", "SE")
    out = []
    for mask in range(16):
        if bin(mask).count("1") % 2:
            continue
        present = [s for s in SLOT_ORDER
                   if s not in diag_slots or (mask >> diag_slots.index(s)) & 1]
        for e_out in (True, False):
            pat = {}
            cur = e_out
            for s in present:
                pat[s] = "out" if cur else "in"
                cur = not cur
            out.append(pat)
    return out

LOCAL_PATTERNS = _admissible_patterns()


def local_config(quiver, u):
    """Local arrow pattern at a lifted vertex reachable by degree-4 mutations:
    arrows to all four orthogonal neighbors, optional diagonals, alternating
    in/out cyclically.  Returns (config id 1..16, pattern dict slot ->
    'out'/'in').  Raises LiftedUnavailable when the bullets fail."""
    pattern = {}
    for name in SLOT_ORDER:
        dx, dy = COMPASS_UNITS[name]
        w = (u[0] + dx, u[1] + dy)
        b = quiver.bval(u, w) if w in quiver.vertices else 0
        if b > 0:
            pattern[name] = "out"
        elif b < 0:
            pattern[name] = "in"
    for name in ("E", "N", "W", "S"):
        if name not in pattern:
            raise LiftedUnavailable("no arrow on orthogonal edge %s at %s" % (name, u))
    seq = [pattern[s] for s in SLOT_ORDER if s in pattern]
    if any(seq[k] == seq[(k + 1) % len(seq)] for k in range(len(seq))):
        raise LiftedUnavailable("arrows at %s do not alternate in/out" % (u,))
    return LOCAL_PATTERNS.index(pattern) + 1, pattern
