import random
from fractions import Fraction

import pytest

from ymesh.rational import ExtQ
from ymesh.quiver import (Quiver, QuiverConfigError, mutate_x, mutate_y,
                          build_qs, qs_period, arrows_at_origin,
                          verify_period_one, run_periodic_y,
                          check_exchange_trace, verify_period_one_1d,
                          run_1d_y, run_1d_x, check_1d_y_relation)
from ymesh.zoo import ZOO, zoo_pin


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
    exported, _ = run_periodic_y(pin, n, y0, 12)
    assert check_exchange_trace(pin, n, exported) >= 1


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
        b = _dense(q, verts)
        for _ in range(6):
            k = rng.choice(verts)
            b2 = _dense_mutate(b, k)
            q = q.mutate(k)
            assert _dense(q, verts) == b2
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
