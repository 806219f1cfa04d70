import pytest

from ymesh.pins import Pin
from ymesh.quiver import build_qs
from ymesh.lifted import (LiftedUnavailable, compass_displacements, phi_map,
                          tilde_ideal_generator, build_lifted,
                          lift_route_pullback, local_config, LOCAL_PATTERNS)
from ymesh.zoo import zoo_pin

FIG_PIN = Pin([(-1, 1), (1, 1), (0, 2), (0, 3)])

# the published 5x5 unfolding fixture: picture (X, Y) = lattice (i+3, j+3),
# labels i=(i,0), i'=(i,1), i''=(i,2)
FIG_LABELS = {
    (1, 1): (4, 0), (2, 1): (3, 2), (3, 1): (2, 1), (4, 1): (1, 0), (5, 1): (0, 2),
    (1, 2): (3, 1), (2, 2): (2, 0), (3, 2): (1, 2), (4, 2): (0, 1), (5, 2): (-1, 0),
    (1, 3): (2, 2), (2, 3): (1, 1), (3, 3): (0, 0), (4, 3): (-1, 2), (5, 3): (-2, 1),
    (1, 4): (1, 0), (2, 4): (0, 2), (3, 4): (-1, 1), (4, 4): (-2, 0), (5, 4): (-3, 2),
    (1, 5): (0, 1), (2, 5): (-1, 0), (3, 5): (-2, 2), (4, 5): (-3, 1), (5, 5): (-4, 0),
}

FIG_ARROWS = (
    # vertical edges
    [((1, 2), (1, 1)), ((1, 3), (1, 2)), ((1, 3), (1, 4)), ((1, 5), (1, 4)),
     ((2, 1), (2, 2)), ((2, 3), (2, 2)), ((2, 4), (2, 3)), ((2, 4), (2, 5)),
     ((3, 2), (3, 1)), ((3, 2), (3, 3)), ((3, 4), (3, 3)), ((3, 5), (3, 4)),
     ((4, 2), (4, 1)), ((4, 3), (4, 2)), ((4, 3), (4, 4)), ((4, 5), (4, 4)),
     ((5, 1), (5, 2)), ((5, 3), (5, 2)), ((5, 4), (5, 3)), ((5, 4), (5, 5))]
    # horizontal edges
    + [((1, 1), (2, 1)), ((3, 1), (2, 1)), ((4, 1), (3, 1)), ((4, 1), (5, 1)),
       ((2, 2), (1, 2)), ((2, 2), (3, 2)), ((4, 2), (3, 2)), ((5, 2), (4, 2)),
       ((2, 3), (1, 3)), ((3, 3), (2, 3)), ((3, 3), (4, 3)), ((5, 3), (4, 3)),
       ((1, 4), (2, 4)), ((3, 4), (2, 4)), ((4, 4), (3, 4)), ((4, 4), (5, 4)),
       ((2, 5), (1, 5)), ((2, 5), (3, 5)), ((4, 5), (3, 5)), ((5, 5), (4, 5))]
    # diagonals (all northeast)
    + [((1, 2), (2, 3)), ((2, 3), (3, 4)), ((3, 4), (4, 5)),
       ((3, 1), (4, 2)), ((4, 2), (5, 3))]
)


def test_tilde_ideal_generator_fixture():
    assert tilde_ideal_generator(FIG_PIN) == (3, -3)


def test_generator_is_in_phi_kernel(zoo_name):
    pin = zoo_pin(zoo_name)
    g = tilde_ideal_generator(pin)
    assert g != (0, 0)
    assert phi_map(pin, g) == (0, 0)


def test_phi_fibers_are_generator_cosets():
    g = tilde_ideal_generator(FIG_PIN)
    pts = [(i, j) for i in range(-5, 6) for j in range(-5, 6)]
    for p in pts:
        for q in pts:
            d = (q[0] - p[0], q[1] - p[1])
            is_mult = d == (0, 0) or (g[0] != 0 and d[0] % g[0] == 0
                                      and d[0] // g[0] * g[1] == d[1])
            assert (phi_map(pin=FIG_PIN, ij=p) == phi_map(pin=FIG_PIN, ij=q)) == is_mult


def test_figure_labels():
    for (x, y), lab in FIG_LABELS.items():
        assert phi_map(FIG_PIN, (x - 3, y - 3)) == lab


def test_figure_arrows_both_routes():
    q = build_lifted(FIG_PIN, -2, 2, -2, 2)  # cross-checks the two routes
    got = {(u, w) for (u, w, m) in q.arrows()}
    expect = {((a[0] - 3, a[1] - 3), (b[0] - 3, b[1] - 3)) for a, b in FIG_ARROWS}
    assert got == expect


def test_no_square_has_both_diagonals(zoo_name):
    pin = zoo_pin(zoo_name)
    try:
        q = build_lifted(pin, -3, 3, -3, 3)
    except LiftedUnavailable:
        pytest.skip("compass displacements collide")
    for i in range(-3, 3):
        for j in range(-3, 3):
            ne = q.bval((i, j), (i + 1, j + 1)) != 0
            nw = q.bval((i + 1, j), (i, j + 1)) != 0
            assert not (ne and nw)


def test_quotient_recovers_qs_arrows():
    # project lifted arrows through phi; per-source-vertex multiset must match
    # the infinite quiver's local pattern, i.e. build_qs at large n
    pin = FIG_PIN
    n = 9
    qn = build_qs(pin, n)
    q = lift_route_pullback(pin, -6, 6, -6, 6)
    u0 = (0, 0)
    pu = phi_map(pin, u0)
    got = sorted((phi_map(pin, w)[0] - pu[0], phi_map(pin, w)[1], m)
                 for (u, w, m) in q.arrows() if u == u0)
    exp = sorted((w[0] % n - pu[0] % n, w[1], m)
                 for (u, w, m) in qn.arrows() if u == (pu[0] % n, pu[1]))
    # compare displacement multisets modulo n wrap
    got_n = sorted(((di % n), r, m) for di, r, m in got)
    exp_n = sorted(((di % n), r, m) for di, r, m in exp)
    assert got_n == exp_n


def test_local_config_base_patterns():
    q = build_lifted(FIG_PIN, -4, 4, -4, 4)
    ids = set()
    for i in range(-3, 4):
        for j in range(-3, 4):
            cid, pat = local_config(q, (i, j))
            assert 1 <= cid <= 16
            if len(pat) == 4:
                ids.add(cid)
    assert ids <= {1, 2}  # unmutated degree-4 vertices: the two base configs


def test_bullets_hold_after_degree4_mutation():
    q = build_lifted(FIG_PIN, -4, 4, -4, 4)
    deg4 = [(i, j) for i in range(-3, 4) for j in range(-3, 4)
            if len(local_config(q, (i, j))[1]) == 4]
    v = deg4[0]
    mq = q.mutate(v)
    for i in range(-2, 3):
        for j in range(-2, 3):
            cid, _ = local_config(mq, (i, j))  # raises if a bullet fails
            assert 1 <= cid <= 16


def test_sixteen_admissible_patterns():
    assert len(LOCAL_PATTERNS) == 16
    assert len({tuple(sorted(p.items())) for p in LOCAL_PATTERNS}) == 16


def test_compass_collision_raises():
    with pytest.raises(LiftedUnavailable):
        compass_displacements(zoo_pin("lower_pentagram"))
