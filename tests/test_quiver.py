import random
from fractions import Fraction

import pytest

from ymesh.mesh import IdentityFailure
from ymesh.rational import ExtQ
from ymesh.quiver import (Quiver, QuiverConfigError, mutate_x, mutate_y,
                          build_qs, qs_period, arrows_at_origin, infinite_arrow_classes,
                          verify_period_one, run_periodic_y,
                          check_exchange_trace, verify_period_one_1d,
                          run_1d_y, run_1d_x, check_1d_y_relation)
from ymesh.zoo import zoo_pin


def fig_quiver():
    # six vertices; mutation fixture quiver
    return Quiver(range(1, 7), [(1, 2), (3, 2), (4, 1), (2, 5), (6, 3), (5, 4)])


def test_mutation_fixture_arrows():
    q2 = fig_quiver().mutate(2)
    assert q2.canon() == {(1, 5, 1), (3, 5, 1), (2, 1, 1), (2, 3, 1),
                          (4, 1, 1), (5, 2, 1), (6, 3, 1), (5, 4, 1)}


def test_mutation_is_involutive():
    q = fig_quiver()
    assert q.mutate(2).mutate(2) == q


def test_mutation_fixture_y_row():
    q = fig_quiver()
    ys = {v: ExtQ(1) for v in q.vertices}
    _, ys2 = mutate_y(q, ys, 2)
    assert ys2 == {1: ExtQ(2), 2: ExtQ(1), 3: ExtQ(2),
                   4: ExtQ(1), 5: ExtQ(1, 2), 6: ExtQ(1)}


def test_mutation_fixture_x_row():
    q = fig_quiver()
    xs = {v: ExtQ(v) for v in q.vertices}  # x_i = i
    _, xs2 = mutate_x(q, xs, 2)
    # x2' = (x1 x3 + x5) / x2
    assert xs2[2] == (ExtQ(1) * ExtQ(3) + ExtQ(5)) / ExtQ(2)
    assert all(xs2[v] == ExtQ(v) for v in (1, 3, 4, 5, 6))


def test_relabel_builds_the_renamed_quiver():
    q = fig_quiver()
    assert q.relabel(lambda v: 10 * v) == Quiver(
        {10 * v for v in q.vertices}, [(10 * u, 10 * w, m) for u, w, m in q.arrows()])
    rho = {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1}
    assert q.relabel(rho.get).relabel({v: u for u, v in rho.items()}.get) == q


@pytest.mark.parametrize("merge", [{1: 2}, {1: 3}, {2: 1, 6: 4}])
def test_relabel_that_merges_vertices_is_config_error(merge):
    # 1 -> 2 is an arrow (a loop once merged); 1 and 3 share no arrow, so
    # merging them would add up the arrows 1 -> 2 and 3 -> 2
    with pytest.raises(QuiverConfigError, match="not one-to-one"):
        fig_quiver().relabel(lambda v: merge.get(v, v))


def _bumped_qs(pin, n):
    """Q_{n,S} with one ``_bump`` per arrow class and column."""
    q = Quiver({(i, j) for i in range(n) for j in range(pin.l)})
    for (row, (di, dj)), mult in infinite_arrow_classes(pin).items():
        for k in range(n):
            q._bump((k, row), ((k + di) % n, row + dj), mult)
    return q


def test_build_qs_template_matches_arrow_by_arrow(zoo_name):
    pin = zoo_pin(zoo_name)
    built = 0
    for n in range(3, 41):
        try:
            q = build_qs(pin, n)
        except QuiverConfigError:
            continue
        ref = _bumped_qs(pin, n)
        assert q == ref and q.vertices == ref.vertices
        built += 1
    assert built >= 30


def test_build_qs_figquiver_pattern_at_origin():
    pin = zoo_pin("short_diagonal")
    assert qs_period(pin) == (0, 3)
    n = 6
    q = build_qs(pin, n)
    outs = {w for (u, w, m) in q.arrows() if u == (0, 0)}
    ins = {u for (u, w, m) in q.arrows() if w == (0, 0)}
    assert outs == {(1, 1), ((-1) % n, 2)}
    assert ins == {((-1) % n, 1), (1, 2)}


def test_row0_is_arrow_free(zoo_name):
    q = build_qs(zoo_pin(zoo_name), 7)
    assert not any(u[1] == 0 and w[1] == 0 for (u, w, m) in q.arrows())


def test_period_one_all_pins(zoo_name):
    pin = zoo_pin(zoo_name)
    for n in range(4, 9):
        try:
            assert verify_period_one(pin, n)
        except QuiverConfigError:
            outs, ins = arrows_at_origin(pin)
            max_i = max(abs(v[0]) for v, _ in outs + ins)
            assert n <= 2 * max_i  # n genuinely too small for this pin


def test_exchange_trace_random_runs(zoo_name):
    pin = zoo_pin(zoo_name)
    n = 7
    i0, l = qs_period(pin)
    rng = random.Random(13)
    y0 = {(i, j): Fraction(rng.randint(1, 9), rng.randint(1, 9))
          for i in range(n) for j in range(l)}
    before = dict(y0)
    exported, final = run_periodic_y(pin, n, y0, 12)
    assert check_exchange_trace(pin, n, exported) >= 1
    # the run mutates its own quiver and pairs: y0 is untouched, and a
    # second run starts from the same state
    assert y0 == before
    assert run_periodic_y(pin, n, y0, 12) == (exported, final)


def _mutating_run(pin, n, y0, sweeps):
    """``run_periodic_y`` by mutating Q_{n,S} at every vertex of every sweep."""
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


def test_run_equals_a_run_that_mutates_the_quiver(zoo_name):
    pin = zoo_pin(zoo_name)
    _, l = qs_period(pin)
    rng = random.Random(5)
    for n in (7, 9, 12):
        y0 = {(i, j): Fraction(rng.randint(1, 30), rng.randint(1, 30))
              for i in range(n) for j in range(l)}
        for sweeps in (1, l + 1, 3 * l):
            assert run_periodic_y(pin, n, y0, sweeps) == _mutating_run(pin, n, y0, sweeps)


@pytest.mark.parametrize("rounds", [3, 6])
def test_run_mutates_only_the_check_quiver(monkeypatch, zoo_name, rounds):
    """The period-one check mutates row 0 once; the sweeps mutate no quiver."""
    pin = zoo_pin(zoo_name)
    _, l = qs_period(pin)
    n = 9
    calls = []
    mutate_in_place = Quiver._mutate_in_place

    def spy(self, v):
        calls.append(v)
        return mutate_in_place(self, v)

    monkeypatch.setattr(Quiver, "_mutate_in_place", spy)
    y0 = {(i, j): Fraction(i + 2, j + 1) for i in range(n) for j in range(l)}
    exported, _ = run_periodic_y(pin, n, y0, rounds * l)
    assert len(exported) == rounds * l * n
    assert calls == [(i, 0) for i in range(n)]


def test_exchange_trace_without_instances_is_config_error():
    with pytest.raises(QuiverConfigError, match="only 0 exchange-trace instances"):
        check_exchange_trace(zoo_pin("pentagram"), 8, {})


def test_1d_fm_recurrence():
    # m = 2 with a single arrow 1 -> 2: x_{j+2} x_j = x_{j+1} + 1 (period 5)
    q = Quiver({1, 2}, [(1, 2)])
    assert verify_period_one_1d(q, 2)
    xs = run_1d_x(q, 2, [Fraction(2), Fraction(3)], 12)
    for j in range(10):
        assert xs[j + 2] * xs[j] == xs[j + 1] + 1
    assert xs[:5] == xs[5:10]  # Lyness 5-periodicity


def test_1d_y_relation():
    q = Quiver({1, 2}, [(1, 2)])
    ys = run_1d_y(q, 2, [Fraction(1, 2), Fraction(3)], 12)
    assert check_1d_y_relation(q, 2, ys) >= 8


# ---- local mutation against the dense matrix rule ------------------------


def _dense(q, verts):
    return [[q.bval(u, w) for w in verts] for u in verts]


def _dense_mutate(b, k):
    """Matrix mutation: b'_uw = -b_uw if k in {u, w}, else
    b_uw + (|b_uk| b_kw + b_uk |b_kw|) / 2."""
    n = len(b)
    return [[-b[u][w] if k in (u, w)
             else b[u][w] + (abs(b[u][k]) * b[k][w] + b[u][k] * abs(b[k][w])) // 2
             for w in range(n)] for u in range(n)]


def _random_quiver(rng):
    verts = list(range(rng.randint(6, 12)))
    arrows = []
    for _ in range(rng.randint(len(verts), 3 * len(verts))):
        u, w = rng.sample(verts, 2)
        arrows.append((u, w, rng.randint(1, 3)))
    return Quiver(verts, arrows), verts


def test_mutation_matches_dense_rule():
    rng = random.Random(2024)
    created = cancelled = 0
    for _ in range(200):
        q, verts = _random_quiver(rng)
        own = Quiver(verts, q.arrows())  # a private copy, mutated in place
        b = _dense(q, verts)
        for _ in range(6):
            k = rng.choice(verts)
            b2 = _dense_mutate(b, k)
            q = q.mutate(k)
            own._mutate_in_place(k)
            assert _dense(q, verts) == b2
            assert own == q and len(own.b) == len(q.b)
            assert len(q.b) == sum(1 for row in b2 for x in row if x > 0)
            assert dict(q.b) == {(u, w): x for u, row in enumerate(b2)
                                 for w, x in enumerate(row) if x > 0}
            assert all(q.adj[w][u] == -m for u in verts for w, m in q.adj[u].items())
            pairs = [(u, w) for u in verts for w in verts if u < w]
            created += sum(1 for u, w in pairs if b[u][w] == 0 and b2[u][w] != 0)
            cancelled += sum(1 for u, w in pairs if b[u][w] != 0 and b2[u][w] == 0
                             and k not in (u, w))
            b = b2
    assert created > 100 and cancelled > 100


def test_mutation_leaves_source_unchanged():
    rng = random.Random(7)
    for _ in range(100):
        q, verts = _random_quiver(rng)
        before = _dense(q, verts)
        for v in verts:
            for w in verts:
                q.mutate(v).mutate(w)
        assert _dense(q, verts) == before
        assert len(q.b) == sum(1 for row in before for x in row if x > 0)


def test_period_one_at_large_n(zoo_name):
    # local mutation keeps this linear in n; the old O(|arrows|) rule took
    # seconds per pin here
    assert verify_period_one(zoo_pin(zoo_name), 200)


def _y_run(pin, n):
    _, l = qs_period(pin)
    return run_periodic_y(pin, n, {(i, j): 2 for i in range(n) for j in range(l)}, 2 * l)


@pytest.mark.parametrize("where,run", [
    pytest.param(where, run, id=where + label)
    for run, label in ((verify_period_one, ""), (_y_run, "-y_run"))
    for where in ("outside row 0", "inside row 0")])
def test_period_one_check_catches_an_extra_arrow(monkeypatch, zoo_name, where, run):
    """One arrow added to Q_{n,S}: off row 0 it breaks mu_row0(Q) == rho(Q),
    inside row 0 it breaks the arrow-free precondition.  The Y-run makes the
    same check, so it raises the same failure."""
    import ymesh.quiver as quiver_module
    pin = zoo_pin(zoo_name)
    _, l = qs_period(pin)
    build = quiver_module.build_qs

    def broken(pin, n):
        q = build(pin, n)
        if where == "outside row 0":
            q._bump((0, l - 1), (n // 2, l - 1), 1)
        else:
            q._bump((0, 0), (n // 2, 0), 1)
        return q

    assert run(pin, 8)
    monkeypatch.setattr(quiver_module, "build_qs", broken)
    message = "mu_row0" if where == "outside row 0" else "row 0 is not arrow-free"
    with pytest.raises(IdentityFailure, match=message):
        run(pin, 8)
