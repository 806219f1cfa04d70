"""Quivers, mutation, and the periodic Y-dynamics attached to a pin.

A quiver is stored as its skew-symmetric adjacency map: adj[u][w] = b_uw =
(#arrows u->w) - (#arrows w->u), with a row for every vertex, only nonzero
entries kept and adj[w][u] == -adj[u][w].  Mutation at v touches only v and
its neighbours: each path u->v->w adds b_uv*b_vw arrows u->w (2-cycles cancel
as entries reach zero and are dropped), then the arrows at v reverse.  Its
arithmetic costs O(deg(v)^2).  ``Quiver.mutate`` never modifies its source:
the new quiver shares every row it does not change with the old one.  The
period-one check mutates row 0 of its own Q_{n,S} in place and compares the
result with rho(Q); the Y-run makes that check once and mutates no quiver,
since its sweep s acts on rho^s(Q), whose rows are those of Q relabelled.
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

    @staticmethod
    def _of(adj):
        q = Quiver.__new__(Quiver)
        q.vertices, q.adj = frozenset(adj), adj
        return q

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
        """The quiver with each vertex v renamed fn(v); fn must be one-to-one."""
        names = {v: fn(v) for v in self.vertices}
        if len(set(names.values())) != len(names):
            raise QuiverConfigError("relabelling is not one-to-one")
        return Quiver._of({names[u]: {names[w]: m for w, m in row.items()}
                           for u, row in self.adj.items()})

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
    """mutate_y in place on reduced integer pairs, row = adj[v] in the quiver
    mutated at v; the pairs stay reduced (``ExtQ.from_reduced`` relies on it)."""
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


def min_qs_size(pin):
    """The smallest n for which Q_{n,S} can be built: n > 2 max|i| over the
    row offsets i of the pin.  It is at least 3, as max|i| >= 1 when the
    pin's differences generate Z^2."""
    return 2 * max(abs(v[0]) for v in _pin_offsets(pin)) + 1


def check_qs_size(pin, n):
    """QuiverConfigError unless n >= ``min_qs_size(pin)``."""
    size = min_qs_size(pin)
    if n < size:
        raise QuiverConfigError("need n >= 3 and n > 2*max|offset i| = %d" % (size - 1))


def build_qs(pin, n):
    """Finite quotient Q_{n,S} on (Z/n) x {0..l-1}: the arrow classes of
    ``infinite_arrow_classes`` summed into a template of each row j, a map
    (column offset mod n, target row) -> b, stamped at every column k."""
    check_qs_size(pin, n)
    template = [{} for _ in range(pin.l)]
    for (row, (di, dj)), mult in infinite_arrow_classes(pin).items():
        for j, key, b in ((row, (di % n, row + dj), mult), (row + dj, (-di % n, row), -mult)):
            template[j][key] = template[j].get(key, 0) + b
    return Quiver._of({(k, j): {((k + d) % n, t): b for (d, t), b in template[j].items() if b}
                       for k in range(n) for j in range(pin.l)})


def arrows_at_origin(pin):
    """Arrow offsets at a row-0 vertex of the infinite quiver of S:
    returns (out_offsets, in_offsets) as lists of ((di,dj), mult)."""
    offs = _pin_offsets(pin)
    outs = [(v, m) for v, m in offs.items() if m > 0]
    ins = [(v, -m) for v, m in offs.items() if m < 0]
    return outs, ins


def _period_one_rows(pin, n):
    """The period-one check of Q = Q_{n,S}; returns the rows adj[(i, 0)] of Q,
    i = 0..n-1.  Row 0 must be arrow-free; then mutating all of row 0 of Q,
    which this check owns, in place must give rho(Q)."""
    q = build_qs(pin, n)
    rows = [q.adj[(i, 0)] for i in range(n)]  # the mutations replace these dicts
    bad = [((i, 0), w) for i, row in enumerate(rows) for w, m in row.items()
           if w[1] == 0 and m > 0]
    if bad:
        raise IdentityFailure("row 0 is not arrow-free: %s -> %s" % bad[0])
    i0, l = qs_period(pin)  # rho(i, j) = (i, j + 1) below the top row, (i - i0, 0) on it
    rho_q = q.relabel(lambda v: (v[0], v[1] + 1) if v[1] < l - 1 else ((v[0] - i0) % n, 0))
    for i in range(n):
        q._mutate_in_place((i, 0))
    if q != rho_q:
        raise IdentityFailure("mu_row0(Q) != rho(Q) for %r, n=%d" % (pin, n))
    return rows


def verify_period_one(pin, n):
    """Check Q_{n,S} is period one: row 0 is arrow-free internally and
    mutating all of row 0 equals the rho-relabeled quiver.  Then the quiver
    after s row sweeps is rho^s(Q), which ``run_periodic_y`` relies on."""
    _period_one_rows(pin, n)
    return True


def run_periodic_y(pin, n, y0, sweeps):
    """Drive the Y-dynamics of Q_{n,S}: mutate rows 0,1,...,l-1,0,... and
    record, before each mutation, the exported grid value of each vertex.

    y0: dict vertex -> value on (Z/n) x {0..l-1}, each value anything
    ``ExtQ()`` accepts; y0 is not modified.  Returns (exported, final_ys)
    where exported maps grid labels (i, j), j >= 0, to ExtQ: a vertex (i, jr)
    mutated for the (t+1)-th time carries grid label ((i + t*i0) mod n,
    jr + t*l).  The run makes the period-one check (``IdentityFailure`` if
    Q_{n,S} fails it) and mutates no quiver: sweep s = t*l + jr mutates the
    arrow-free row jr of rho^s(Q), where (i, jr) has the row of
    ((i + t*i0) mod n, 0) in Q relabelled by rho^s, which moves (k, j) to
    ((k - w*i0) mod n, (j + jr) mod l) after w = t + (j + jr) // l wraps.
    """
    i0, l = qs_period(pin)
    rows = _period_one_rows(pin, n)
    ys = {v: ExtQ(val).as_pair() for v, val in y0.items()}
    exported = {}
    for s in range(sweeps):
        jr, t = s % l, s // l
        shift = [((t + (j + jr) // l) * i0, (j + jr) % l) for j in range(l)]
        for i in range(n):
            exported[((i + t * i0) % n, jr + t * l)] = ExtQ.from_reduced(*ys[(i, jr)])
        for i in range(n):
            row = rows[(i + t * i0) % n]
            _mutate_pairs({((k - shift[j][0]) % n, shift[j][1]): b for (k, j), b in row.items()},
                          ys, (i, jr))
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
        top = pairs.get(((i + i0) % n, j + l))
        if top is None:
            continue
        factors = []
        for (di, dj), m, fn in offsets:
            pair = pairs.get(((i + i0 - di) % n, j + l - dj))
            if pair is None or degenerate_pair(*pair):
                break
            factors.append((pair, m, fn))
        else:
            holds, lhs, rhs = exchange_relation(top, pairs[(i, j)], factors)
            if not holds:
                raise IdentityFailure("exchange trace fails at %s: %s vs %s"
                                     % ((i, j), ExtQ(*lhs), ExtQ(*rhs)))
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
