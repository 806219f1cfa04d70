"""Index fractals and genericity of mesh point configurations.

The k-fractal at base r is the set {r + alpha*a + beta*b + gamma*c + delta*d}
over nonnegative integer exponents summing to k (coincident labels merge).
A mesh is d-generic when every i-fractal with i <= d spans an i-flat.

The audits decide the 1- and 2-fractals from the window's line store,
``MeshWindow.lines``.  The 1-fractal at r is the line L_r, so it spans a
line when L_r has a chart.  The 2-fractal at r is the union of the lines
L_{r+a}, L_{r+b}, L_{r+c} and L_{r+d}.  When all four have charts and
P_{r+aa}, P_{r+ab}, P_{r+bb} are not collinear, L_{r+a} and L_{r+b} are two
lines through P_{r+ab} (``MeshWindow.lines_meet``, the test that also
certifies P3 in ``check_relations``) and span a plane; L_{r+c} passes
through P_{r+ac} and P_{r+bc}, and L_{r+d} through P_{r+ad} and P_{r+bd},
all on those two lines, so the fractal spans exactly that plane.  Any other
fractal is decided by ``fractal_dim`` on its points, so the reported
dimensions are the exact ones.

Generation certifies the lower bound: a window that ``mesh.generate_window``
returns (and a reduced or polygon window) has every 2-fractal of the
pin.l + 2 rows its redraw guard propagated spanning at least a plane
(``mesh._spans_planes``).  The audits still check both bounds on whatever
window they are given.
"""

from itertools import combinations, islice

from .projective import collinear, rank_of
from .mesh import bases


def make_fractal(pin, r, k):
    """The k-fractal at base r, as a frozenset of lattice labels."""
    a, b, c, d = pin.points
    out = set()
    for al in range(k + 1):
        for be in range(k + 1 - al):
            for ga in range(k + 1 - al - be):
                de = k - al - be - ga
                out.add((r[0] + al * a[0] + be * b[0] + ga * c[0] + de * d[0],
                         r[1] + al * a[1] + be * b[1] + ga * c[1] + de * d[1]))
    return frozenset(out)


def sub_fractals(pin, r, k):
    """The four sub-(k-1)-fractals of the k-fractal at r, keyed by label."""
    return {lab: make_fractal(pin, pin.shift(r, lab), k - 1) for lab in "abcd"}


def _exponent_simplex(k):
    return {(al, be, ga, k - al - be - ga)
            for al in range(k + 1)
            for be in range(k + 1 - al)
            for ga in range(k + 1 - al - be)}


def check_sub_fractal_intersections(pin, r, k):
    """f_x intersect f_y equals the (k-2)-fractal at r+x+y, for x != y.

    The identity lives on exponent vectors (the sub-fractal f_x is the face
    of the exponent simplex with positive x-exponent); at the lattice-point
    level distinct exponent vectors may collide, making the point-set
    intersection strictly larger.  Both layers are checked: the exponent-level
    identity exactly, and containment at the point level."""
    idx = {"a": 0, "b": 1, "c": 2, "d": 3}
    simplex = _exponent_simplex(k)
    subs = sub_fractals(pin, r, k)
    for x, y in combinations("abcd", 2):
        fx = {e for e in simplex if e[idx[x]] > 0}
        fy = {e for e in simplex if e[idx[y]] > 0}
        expect = {e for e in simplex if e[idx[x]] > 0 and e[idx[y]] > 0}
        if fx & fy != expect:
            raise AssertionError("exponent-level intersection f_%s ^ f_%s at %s, k=%d"
                                 % (x, y, r, k))
        pts = make_fractal(pin, pin.shift(r, x + y), k - 2)
        if not pts <= (subs[x] & subs[y]):
            raise AssertionError("point-level containment f_%s ^ f_%s at %s, k=%d"
                                 % (x, y, r, k))
    return True


def fractal_dim(window, labels):
    """Dimension of the affine (projective) span of the mesh points at the
    given labels."""
    return rank_of([window.get(lab) for lab in labels]) - 1


def _span_dim(window, r, k):
    """``fractal_dim`` of the k-fractal at r: read off the window's line
    store where a certificate of the module docstring holds (k <= 2), else
    computed on the fractal's points."""
    pin, lines = window.pin, window.lines
    if k == 1 and lines[r][2]:
        return 1
    if k == 2:
        la, lb, lc, ld = [lines[pin.shift(r, label)] for label in "abcd"]
        if (window.lines_meet(r, "a", "b") and lc[2] and ld[2]
                and not collinear((la[0][0], la[0][1], lb[0][1]))):
            return 2
    return fractal_dim(window, make_fractal(pin, r, k))


def fractal_bases_in_window(window, k, limit=None):
    """Bases r whose whole k-fractal lies inside the window, in (r2, r1)
    order; the first ``limit`` of them if a limit is given."""
    found = bases(window, sorted(make_fractal(window.pin, (0, 0), k)))
    return list(islice(found, limit or None))


def genericity_audit(window, d, max_bases=40):
    """Verify d-genericity: every i-fractal (i <= d) inside the window spans
    an i-flat.  Returns counts per i."""
    counts = {}
    for i in range(1, d + 1):
        bases = fractal_bases_in_window(window, i, limit=max_bases)
        for r in bases:
            dim = _span_dim(window, r, i)
            if dim != i:
                raise AssertionError("%d-fractal at %s spans dim %d" % (i, r, dim))
        counts[i] = len(bases)
    return counts


def bound_check(window, d, max_bases=40):
    """On a d-generic window, (d+1)-fractals must span at most a (d+1)-flat."""
    pin = window.pin
    bases = fractal_bases_in_window(window, d + 1, limit=max_bases)
    for r in bases:
        f = make_fractal(pin, r, d + 1)
        dim = fractal_dim(window, f)
        if dim > d + 1:
            raise AssertionError("(d+1)-fractal at %s spans dim %d > %d" % (r, dim, d + 1))
    return len(bases)


def genericity_evidence(window, dim, k_max=None, max_bases=25):
    """Evidence table: fraction of sampled k-fractals with span dim equal to
    min(k, D); reported, not asserted."""
    if k_max is None:
        k_max = dim
    rows = []
    for k in range(1, k_max + 1):
        bases = fractal_bases_in_window(window, k, limit=max_bases)
        hits = 0
        for r in bases:
            if _span_dim(window, r, k) == min(k, dim):
                hits += 1
        rows.append({"k": k, "samples": len(bases), "generic": hits})
    return rows
