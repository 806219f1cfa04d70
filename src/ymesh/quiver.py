"""Quivers, mutation, and the periodic Y-dynamics attached to a pin.

A quiver is stored as its skew-symmetric adjacency map: adj[u][w] = b_uw =
(#arrows u->w) - (#arrows w->u), with a row for every vertex, only nonzero
entries kept and adj[w][u] == -adj[u][w].  Mutation at v touches only v and
its neighbours: each path u->v->w adds b_uv*b_vw arrows u->w (2-cycles cancel
as entries reach zero and are dropped), then the arrows at v reverse.  Its
arithmetic costs O(deg(v)^2); the new quiver shares every row it does not
change with the old one, which is never modified.
"""

from collections.abc import Mapping

from .rational import ExtQ
from .pins import PinError


class QuiverConfigError(PinError):
    pass


class _ArrowClasses(Mapping):
    """Read-only view of the arrow classes: (u, w) -> multiplicity > 0 of
    the arrows u->w.  Its length is kept by the quiver, so len() is O(1)."""

    def __init__(self, quiver):
        self._q = quiver

    def __len__(self):
        return self._q._classes

    def __iter__(self):
        return ((u, w) for u, row in self._q.adj.items() for w, m in row.items() if m > 0)

    def __getitem__(self, key):
        m = self._q.bval(*key)
        if m <= 0:
            raise KeyError(key)
        return m


class Quiver:
    def __init__(self, vertices, arrows=None):
        """arrows: iterable of (u, v) or (u, v, mult)."""
        self.vertices = frozenset(vertices)
        self.adj = {v: {} for v in self.vertices}
        self._classes = 0
        for arr in (arrows or ()):
            u, v = arr[0], arr[1]
            mult = arr[2] if len(arr) > 2 else 1
            self._bump(u, v, mult)

    @property
    def b(self):
        return _ArrowClasses(self)

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
            self._classes += not old
        elif old:
            del row[w], col[u]
            self._classes -= 1

    def bval(self, u, v):
        row = self.adj.get(u)
        return row.get(v, 0) if row else 0

    def arrows(self):
        """Canonical arrow list [(u, v, mult)] with mult > 0."""
        return [(u, w, m) for u, row in self.adj.items() for w, m in row.items() if m > 0]

    def neighbors(self, v):
        return set(self.adj.get(v, ()))

    def mutate(self, v):
        row = self.adj[v]
        q = Quiver.__new__(Quiver)
        q.vertices, q._classes = self.vertices, self._classes
        q.adj = adj = dict(self.adj)
        for u in row:
            adj[u] = dict(adj[u])
        ins = [(u, -b) for u, b in row.items() if b < 0]
        outs = [(w, b) for w, b in row.items() if b > 0]
        for u, buv in ins:
            for w, bvw in outs:
                q._add(u, w, buv * bvw)
        adj[v] = {u: -b for u, b in row.items()}
        for u, b in row.items():
            adj[u][v] = b
        return q

    def relabel(self, fn):
        return Quiver({fn(v) for v in self.vertices},
                      ((fn(u), fn(w), m) for u, w, m in self.arrows()))

    def canon(self):
        return frozenset(self.arrows())

    def __eq__(self, other):
        # a row per vertex and no zero entries: equal maps, equal quivers
        return isinstance(other, Quiver) and self.adj == other.adj

    def __repr__(self):
        return "Quiver(%d vertices, %d arrow classes)" % (len(self.vertices), self._classes)


def mutate_y(quiver, ys, v):
    """Y-seed mutation: y'_v = 1/y_v; y'_u = y_u (1+y_v)^{#u->v} (1+1/y_v)^{-#v->u}."""
    out = dict(ys)
    yv = ys[v]
    out[v] = inv = yv.inv()
    up, down = 1 + yv, 1 + inv
    for u, e in quiver.adj[v].items():  # e = b_vu: <0: -e arrows u->v ; >0: e arrows v->u
        val = ys[u]
        if e < 0:
            for _ in range(-e):
                val = val * up
        else:
            for _ in range(e):
                val = val / down
        out[u] = val
    return quiver.mutate(v), out


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


def build_qs(pin, n):
    """Finite quotient Q_{n,S} on (Z/n) x {0..l-1}."""
    i0, l = qs_period(pin)
    offs = _pin_offsets(pin)
    max_i = max(abs(v[0]) for v in offs)
    if n < 3 or n <= 2 * max_i:
        raise QuiverConfigError("need n >= 3 and n > 2*max|offset i| = %d" % (2 * max_i))
    verts = {(i, j) for i in range(n) for j in range(l)}
    q = Quiver(verts)
    for v, mv in offs.items():
        for r in range(0, l - v[1]):
            for k in range(n):
                u, w = (k, r), ((k + v[0]) % n, r + v[1])
                if mv > 0:
                    q._bump(u, w, mv)
                else:
                    q._bump(w, u, -mv)
    for v, mv in offs.items():
        for w, mw in offs.items():
            eps = (abs(mw) * mv - mw * abs(mv)) // 2
            if eps <= 0 or v[1] + w[1] > l - 1:
                continue
            for r in range(0, l - v[1] - w[1]):
                for k in range(n):
                    u1 = ((k + v[0]) % n, r + v[1])
                    u2 = ((k + w[0]) % n, r + w[1])
                    q._bump(u1, u2, eps)
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
    mutating all of row 0 equals the rho-relabeled quiver."""
    q = build_qs(pin, n)
    for u, w, _ in q.arrows():
        if u[1] == 0 and w[1] == 0:
            raise AssertionError("row 0 is not arrow-free: %s -> %s" % (u, w))
    mq = q
    for i in range(n):
        mq = mq.mutate((i, 0))
    if mq != q.relabel(rho_relabel(pin, n)):
        raise AssertionError("mu_row0(Q) != rho(Q) for %r, n=%d" % (pin, n))
    return True


def run_periodic_y(pin, n, y0, sweeps):
    """Drive the Y-dynamics of Q_{n,S}: mutate rows 0,1,...,l-1,0,... and
    record, before each mutation, the exported grid value of each vertex.

    y0: dict vertex -> ExtQ on (Z/n) x {0..l-1}.  Returns (exported, final_ys)
    where exported maps grid labels (i, j), j >= 0, to ExtQ: a vertex (i, jr)
    mutated for the (t+1)-th time carries grid label ((i + t*i0) mod n,
    jr + t*l).
    """
    i0, l = qs_period(pin)
    q = build_qs(pin, n)
    ys = {v: ExtQ(val) for v, val in y0.items()}
    exported = {}
    for s in range(sweeps):
        jr, t = s % l, s // l
        for i in range(n):
            exported[((i + t * i0) % n, jr + t * l)] = ys[(i, jr)]
        for i in range(n):
            q, ys = mutate_y(q, ys, (i, jr))
    return exported, ys


def check_exchange_trace(pin, n, exported, min_instances=1):
    """Verify the exported trace against the exchange relation
    y_{u+(i0,l)} y_u = prod_in (1+y_{u+(i0,l)-v}) / prod_out (1+1/y_{u+(i0,l)-v})."""
    i0, l = qs_period(pin)
    outs, ins = arrows_at_origin(pin)
    checked = 0
    for (i, j) in sorted(exported):
        u = (i, j)
        top = ((i + i0) % n, j + l)
        if top not in exported:
            continue
        need = [(((top[0] - v[0]) % n, top[1] - v[1]), m, "in") for v, m in ins]
        need += [(((top[0] - v[0]) % n, top[1] - v[1]), m, "out") for v, m in outs]
        if not all(lab in exported for lab, _, _ in need):
            continue
        rhs = ExtQ(1)
        ok = True
        for lab, m, side in need:
            yv = exported[lab]
            if yv in (ExtQ(0), ExtQ(-1)) or yv.is_inf:
                ok = False
                break
            for _ in range(m):
                rhs = rhs * (1 + yv) if side == "in" else rhs / (1 + yv.inv())
        if not ok:
            continue
        lhs = exported[top] * exported[u]
        if lhs != rhs:
            raise AssertionError("exchange trace fails at %s: %s vs %s" % (u, lhs, rhs))
        checked += 1
    if checked < min_instances:
        raise AssertionError("only %d exchange-trace instances" % checked)
    return checked


# ---- one-dimensional (single row) specialization ------------------------


def verify_period_one_1d(q, m):
    """mu_1(Q) == rho(Q) with rho(j) = j+1 cyclically on vertices 1..m."""
    rho = lambda j: j % m + 1
    return q.mutate(1) == q.relabel(rho)


def run_1d_y(q, m, y_init, steps):
    """Exported y-sequence y_1, y_2, ... of a period-one 1D quiver: each step
    exports the value at vertex 1, mutates there, then relabels j -> j-1."""
    ys = {j: ExtQ(y_init[j - 1]) for j in range(1, m + 1)}
    out = []
    for _ in range(steps):
        out.append(ys[1])
        _, ys2 = mutate_y(q, ys, 1)
        ys = {j: ys2[j % m + 1] for j in range(1, m + 1)}
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
    """y_{j+m} y_j = prod_{(k+1)->1}(1+y_{j+m-k}) / prod_{1->(k+1)}(1+1/y_{j+m-k})."""
    checked = 0
    for j in range(1, len(trace) - m + 1):
        yj, yjm = trace[j - 1], trace[j + m - 1]
        rhs = ExtQ(1)
        ok = True
        for k in range(1, m):
            e = q.bval(k + 1, 1)
            y = trace[j + m - k - 1]
            if e and (y in (ExtQ(0), ExtQ(-1)) or y.is_inf):
                ok = False
                break
            if e > 0:
                for _ in range(e):
                    rhs = rhs * (1 + y)
            else:
                for _ in range(-e):
                    rhs = rhs / (1 + y.inv())
        if not ok:
            continue
        if yj * yjm != rhs:
            raise AssertionError("1D y-relation fails at j=%d" % j)
        checked += 1
    return checked
