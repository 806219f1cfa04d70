"""Quivers, mutation, and the periodic Y-dynamics attached to a pin.

A quiver is stored as its skew-symmetric adjacency map: adj[u][w] = b_uw =
(#arrows u->w) - (#arrows w->u), with a row for every vertex, only nonzero
entries kept and adj[w][u] == -adj[u][w].  Mutation at v touches only v and
its neighbours: each path u->v->w adds b_uv*b_vw arrows u->w (2-cycles cancel
as entries reach zero and are dropped), then the arrows at v reverse.  Its
arithmetic costs O(deg(v)^2).  ``Quiver.mutate`` never modifies its source:
the new quiver shares every row it does not change with the old one.  The
Y-run and the period-one check mutate a quiver of their own, built by
``build_qs``, in place by the same rule (``Quiver._mutate_in_place``).
"""

from .rational import ExtQ, degenerate_pair, exchange_relation, in_factor, mul_pow, out_factor
from .pins import PinError
from .mesh import IdentityFailure


class QuiverConfigError(PinError):
    pass


class Quiver:
    def __init__(self, vertices, arrows=None):
        """arrows: iterable of (u, v) or (u, v, mult)."""
        self.vertices = frozenset(vertices)
        self.adj = {v: {} for v in self.vertices}
        for arr in (arrows or ()):
            u, v = arr[0], arr[1]
            mult = arr[2] if len(arr) > 2 else 1
            self._bump(u, v, mult)

    @property
    def b(self):
        """The arrow classes: (u, w) -> multiplicity > 0 of the arrows u->w."""
        return {(u, w): m for u, w, m in self.arrows()}

    def _bump(self, u, v, mult):
        if u == v:
            raise QuiverConfigError("loop at %r" % (u,))
        if u not in self.vertices or v not in self.vertices:
            raise QuiverConfigError("arrow endpoint outside vertex set")
        self._add(u, v, mult)

    def _add(self, u, w, mult):
        """b_uw += mult, b_wu -= mult, dropping an entry that reaches zero."""
        row, col = self.adj[u], self.adj[w]
        old = row.get(w, 0)
        new = old + mult
        if new:
            row[w], col[u] = new, -new
        elif old:
            del row[w], col[u]

    def bval(self, u, v):
        row = self.adj.get(u)
        return row.get(v, 0) if row else 0

    def arrows(self):
        """Canonical arrow list [(u, v, mult)] with mult > 0."""
        return [(u, w, m) for u, row in self.adj.items() for w, m in row.items() if m > 0]

    def mutate(self, v):
        """The quiver mutated at v; this one is left unchanged."""
        q = Quiver.__new__(Quiver)
        q.vertices = self.vertices
        q.adj = adj = dict(self.adj)
        for u in self.adj[v]:
            adj[u] = dict(adj[u])
        q._mutate_in_place(v)
        return q

    def _mutate_in_place(self, v):
        """Mutate this quiver at v.  It must own the rows of v's neighbours:
        no other quiver may share them (row v itself is replaced)."""
        adj = self.adj
        row = adj[v]
        ins = [(u, -b) for u, b in row.items() if b < 0]
        outs = [(w, b) for w, b in row.items() if b > 0]
        for u, buv in ins:
            for w, bvw in outs:
                self._add(u, w, buv * bvw)
        adj[v] = {u: -b for u, b in row.items()}
        for u, b in row.items():
            adj[u][v] = b

    def relabel(self, fn):
        return Quiver({fn(v) for v in self.vertices},
                      ((fn(u), fn(w), m) for u, w, m in self.arrows()))

    def canon(self):
        return frozenset(self.arrows())

    def __eq__(self, other):
        # a row per vertex and no zero entries: equal maps, equal quivers
        return isinstance(other, Quiver) and self.adj == other.adj

    def __repr__(self):
        return "Quiver(%d vertices, %d arrow classes)" % (len(self.vertices), len(self.arrows()))


def mutate_y(quiver, ys, v):
    """Y-seed mutation: y'_v = 1/y_v; y'_u = y_u (1+y_v)^{#u->v} (1+1/y_v)^{-#v->u},
    ExtQ values in and out, exchanged on integer pairs (``_mutate_pairs``)."""
    pairs = {u: ExtQ(ys[u]).as_pair() for u in (v, *quiver.adj[v])}
    _mutate_pairs(quiver.adj[v], pairs, v)
    return quiver.mutate(v), {**ys, **{u: ExtQ.from_reduced(*pair) for u, pair in pairs.items()}}


def _mutate_pairs(row, ys, v):
    """mutate_y in place on reduced integer pairs, row = quiver.adj[v]; the
    pairs stay reduced (``ExtQ.from_reduced`` relies on it)."""
    p, q = ys[v]
    up, down = in_factor(p, q), out_factor(p, q)
    ys[v] = (q, p) if p >= 0 else (-q, -p)
    for u, e in row.items():  # e = b_vu: <0: -e arrows u->v ; >0: e arrows v->u
        ys[u] = mul_pow(ys[u], up if e < 0 else down, abs(e))


def mutate_x(quiver, xs, v):
    """Cluster mutation: x_v x'_v = prod_{v->w} x_w + prod_{u->v} x_u."""
    out = dict(xs)
    p_out = ExtQ(1)
    p_in = ExtQ(1)
    for u, e in quiver.adj[v].items():
        if e > 0:
            for _ in range(e):
                p_out = p_out * xs[u]
        else:
            for _ in range(-e):
                p_in = p_in * xs[u]
    out[v] = (p_out + p_in) / xs[v]
    return quiver.mutate(v), out


# ---- the quiver of a pin ------------------------------------------------


def _pin_offsets(pin):
    """Multiplicity function m_v on row offsets: +1 at c-a and d-b, -1 at
    c-b and d-a (coincident offsets merge)."""
    a, b, c, d = pin.points
    m = {}
    for p, q, s in ((c, a, 1), (d, b, 1), (c, b, -1), (d, a, -1)):
        v = (p[0] - q[0], p[1] - q[1])
        m[v] = m.get(v, 0) + s
    return {v: s for v, s in m.items() if s != 0}


def qs_period(pin):
    """(i0, l): the exchange relation shifts indices by c+d-a-b."""
    a, b, c, d = pin.points
    return (c[0] + d[0] - a[0] - b[0], pin.l)


def infinite_arrow_classes(pin):
    """Net arrow classes of the pin's (unquotiented) quiver: dict
    (source_row, displacement) -> positive multiplicity, after 2-cycle
    cancellation; translation-invariant in the i-coordinate."""
    l = pin.l
    offs = _pin_offsets(pin)
    signed = {}

    def bump(row, disp, mult):
        # canonical orientation: displacement lexicographically positive
        if disp < (0, 0):
            row, disp, mult = row + disp[1], (-disp[0], -disp[1]), -mult
        signed[(row, disp)] = signed.get((row, disp), 0) + mult

    for v, mv in offs.items():
        for r in range(0, l - v[1]):
            if mv > 0:
                bump(r, v, mv)
            else:
                bump(r + v[1], (-v[0], -v[1]), -mv)
    for v, mv in offs.items():
        for w, mw in offs.items():
            eps = (abs(mw) * mv - mw * abs(mv)) // 2
            if eps <= 0 or v[1] + w[1] > l - 1:
                continue
            for r in range(0, l - v[1] - w[1]):
                bump(r + v[1], (w[0] - v[0], w[1] - v[1]), eps)
    out = {}
    for (row, disp), val in signed.items():
        if val > 0:
            out[(row, disp)] = val
        elif val < 0:
            out[(row + disp[1], (-disp[0], -disp[1]))] = -val
    return out


def check_qs_size(pin, n):
    """QuiverConfigError unless Q_{n,S} can be built: n >= 3 and n > 2 max|i|
    over the row offsets i of the pin."""
    max_i = max(abs(v[0]) for v in _pin_offsets(pin))
    if n < 3 or n <= 2 * max_i:
        raise QuiverConfigError("need n >= 3 and n > 2*max|offset i| = %d" % (2 * max_i))


def build_qs(pin, n):
    """Finite quotient Q_{n,S} on (Z/n) x {0..l-1}: each arrow class of
    ``infinite_arrow_classes`` at every column k mod n."""
    l = pin.l
    check_qs_size(pin, n)
    q = Quiver({(i, j) for i in range(n) for j in range(l)})
    for (row, (di, dj)), mult in infinite_arrow_classes(pin).items():
        for k in range(n):
            q._bump((k, row), ((k + di) % n, row + dj), mult)
    return q


def arrows_at_origin(pin):
    """Arrow offsets at a row-0 vertex of the infinite quiver of S:
    returns (out_offsets, in_offsets) as lists of ((di,dj), mult)."""
    offs = _pin_offsets(pin)
    outs = [(v, m) for v, m in offs.items() if m > 0]
    ins = [(v, -m) for v, m in offs.items() if m < 0]
    return outs, ins


def rho_relabel(pin, n):
    """Period-one relabeling: rho(i,j) = (i,j+1) for j < l-1, (i-i0, 0) on top."""
    i0, l = qs_period(pin)

    def rho(v):
        i, j = v
        if j < l - 1:
            return (i, j + 1)
        return ((i - i0) % n, 0)

    return rho


def verify_period_one(pin, n):
    """Check Q_{n,S} is period one: row 0 is arrow-free internally and
    mutating all of row 0 equals the rho-relabeled quiver.  rho(Q) is built
    first; Q, which this check owns, is then mutated in place."""
    q = build_qs(pin, n)
    for u, w, _ in q.arrows():
        if u[1] == 0 and w[1] == 0:
            raise IdentityFailure("row 0 is not arrow-free: %s -> %s" % (u, w))
    rho_q = q.relabel(rho_relabel(pin, n))
    for i in range(n):
        q._mutate_in_place((i, 0))
    if q != rho_q:
        raise IdentityFailure("mu_row0(Q) != rho(Q) for %r, n=%d" % (pin, n))
    return True


def run_periodic_y(pin, n, y0, sweeps):
    """Drive the Y-dynamics of Q_{n,S}: mutate rows 0,1,...,l-1,0,... and
    record, before each mutation, the exported grid value of each vertex.

    y0: dict vertex -> value on (Z/n) x {0..l-1}, each value anything
    ``ExtQ()`` accepts; y0 is not modified.  Returns (exported, final_ys)
    where exported maps grid labels (i, j), j >= 0, to ExtQ: a vertex (i, jr)
    mutated for the (t+1)-th time carries grid label ((i + t*i0) mod n,
    jr + t*l).  The quiver is this run's own and is mutated in place.
    """
    i0, l = qs_period(pin)
    q = build_qs(pin, n)
    ys = {v: ExtQ(val).as_pair() for v, val in y0.items()}
    exported = {}
    for s in range(sweeps):
        jr, t = s % l, s // l
        for i in range(n):
            exported[((i + t * i0) % n, jr + t * l)] = ExtQ.from_reduced(*ys[(i, jr)])
        for i in range(n):
            v = (i, jr)
            _mutate_pairs(q.adj[v], ys, v)
            q._mutate_in_place(v)
    return exported, {v: ExtQ.from_reduced(*pair) for v, pair in ys.items()}


def check_exchange_trace(pin, n, exported):
    """Verify the exported trace against the exchange relation
    y_{u+(i0,l)} y_u = prod_in (1+y_{u+(i0,l)-v}) / prod_out (1+1/y_{u+(i0,l)-v}).

    Both sides are products of the integer pairs of the exported values
    (``rational.exchange_relation``), compared and reported from those pairs.
    Instances with a degenerate factor (0, -1 or inf) are skipped.  A
    failed instance raises ``IdentityFailure``; a trace with no checked
    instance raises ``QuiverConfigError``."""
    i0, l = qs_period(pin)
    outs, ins = arrows_at_origin(pin)
    offsets = [(v, m, in_factor) for v, m in ins] + [(v, m, out_factor) for v, m in outs]
    pairs = {lab: y.as_pair() for lab, y in exported.items()}
    checked = 0
    for (i, j) in sorted(exported):
        u = (i, j)
        top = ((i + i0) % n, j + l)
        need = [(((top[0] - v[0]) % n, top[1] - v[1]), m, fn) for v, m, fn in offsets]
        if top not in pairs or not all(lab in pairs for lab, _, _ in need):
            continue
        factors = [(pairs[lab], m, fn) for lab, m, fn in need]
        if any(degenerate_pair(*pair) for pair, _, _ in factors):
            continue
        holds, lhs, rhs = exchange_relation(pairs[top], pairs[u], factors)
        if not holds:
            raise IdentityFailure("exchange trace fails at %s: %s vs %s"
                                 % (u, ExtQ(*lhs), ExtQ(*rhs)))
        checked += 1
    if not checked:
        raise QuiverConfigError("only %d exchange-trace instances" % checked)
    return checked


# ---- one-dimensional (single row) specialization ------------------------


def verify_period_one_1d(q, m):
    """mu_1(Q) == rho(Q) with rho(j) = j+1 cyclically on vertices 1..m."""
    rho = lambda j: j % m + 1
    return q.mutate(1) == q.relabel(rho)


def run_1d_y(q, m, y_init, steps):
    """Exported y-sequence y_1, y_2, ... of a period-one 1D quiver: each step
    exports the value at vertex 1, mutates there, then relabels j -> j-1."""
    ys = {j: ExtQ(y_init[j - 1]).as_pair() for j in range(1, m + 1)}
    out = []
    for _ in range(steps):
        out.append(ExtQ.from_reduced(*ys[1]))
        _mutate_pairs(q.adj[1], ys, 1)
        ys = {j: ys[j % m + 1] for j in range(1, m + 1)}
    return out


def run_1d_x(q, m, x_init, steps):
    """Exported x-sequence; vertex 1 carries the exchange."""
    xs = {j: ExtQ(x_init[j - 1]) for j in range(1, m + 1)}
    out = []
    for _ in range(steps):
        out.append(xs[1])
        _, xs2 = mutate_x(q, xs, 1)
        xs = {j: xs2[j % m + 1] for j in range(1, m + 1)}
    return out


def check_1d_y_relation(q, m, trace):
    """y_{j+m} y_j = prod_{(k+1)->1}(1+y_{j+m-k}) / prod_{1->(k+1)}(1+1/y_{j+m-k}),
    checked on integer pairs like ``check_exchange_trace``."""
    pairs = [y.as_pair() for y in trace]
    arrows = [(k, abs(e), in_factor if e > 0 else out_factor)
              for k, e in ((k, q.bval(k + 1, 1)) for k in range(1, m)) if e]
    checked = 0
    for j in range(1, len(trace) - m + 1):
        factors = [(pairs[j + m - k - 1], e, fn) for k, e, fn in arrows]
        if any(degenerate_pair(*pair) for pair, _, _ in factors):
            continue
        if not exchange_relation(pairs[j - 1], pairs[j + m - 1], factors)[0]:
            raise IdentityFailure("1D y-relation fails at j=%d" % j)
        checked += 1
    return checked
