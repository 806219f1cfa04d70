import random

import pytest

from ymesh.pins import (Pin, PinError, convex_relation, d_of_s, m2_of_s,
                        ij_correspondence, tuples_shift_equivalent)
from ymesh.zoo import zoo_pin, zoo_dim


def test_label_ordering_ties_resolved_lexicographically():
    pin = Pin([(2, 0), (1, 0), (0, 1), (4, 1)])
    assert pin.a == (1, 0) and pin.b == (2, 0)
    assert pin.c == (0, 1) and pin.d == (4, 1)


def test_rejects_non_spanning_differences():
    with pytest.raises(PinError):
        Pin([(0, 0), (2, 0), (0, 2), (2, 2)])  # differences span 2Z^2


def test_rejects_bad_row_split():
    with pytest.raises(PinError):
        Pin([(0, 0), (1, 0), (2, 0), (3, 0)])  # needs b2 < c2


def test_m_and_l():
    pin = zoo_pin("pentagram")
    assert (pin.m, pin.l) == (1, 2)
    assert (zoo_pin("sideways").m, zoo_pin("sideways").l) == (2, 3)


def test_convex_relation_fixtures():
    assert convex_relation(zoo_pin("pentagram")) == (-1, 1, 2, -2)
    assert convex_relation(Pin([(-1, 1), (1, 1), (0, 2), (0, 3)])) == (1, 1, -4, 2)
    assert convex_relation(zoo_pin("penguin")) == (1, 0, -3, 2)
    assert convex_relation(zoo_pin("dented")) == (-1, 2, 2, -3)


def test_convex_relation_invariants(pin):
    m = convex_relation(pin)
    assert sum(m) == 0
    sx = sum(mi * p[0] for mi, p in zip(m, pin.points))
    sy = sum(mi * p[1] for mi, p in zip(m, pin.points))
    assert (sx, sy) == (0, 0)


def test_d_of_s_zoo_trinity(zoo_name):
    pin = zoo_pin(zoo_name)
    expected = zoo_dim(zoo_name)
    for route in ("relation", "hull", "lattice"):
        assert d_of_s(pin, route) == expected


def test_equivalence_moves_preserve_everything(pin):
    moved = pin.apply(sign=-1, shear=2, i0=3, j0=-1)
    assert d_of_s(moved) == d_of_s(pin)
    assert moved.m == pin.m and moved.l == pin.l


def test_time_reversal_preserves_d(pin):
    assert d_of_s(pin.time_reverse()) == d_of_s(pin)


def test_random_pins_three_routes_agree():
    rng = random.Random(0)
    done = 0
    while done < 200:
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
        try:
            pin = Pin(pts)
        except PinError:
            continue
        assert d_of_s(pin, "relation") == d_of_s(pin, "hull") == d_of_s(pin, "lattice")
        done += 1


def test_horizontal_info_and_correspondence():
    I, J, D = ij_correspondence(zoo_pin("short_diagonal"))
    assert I == (2, 2) and D == 3 and tuples_shift_equivalent(J, (1, 1))
    I, J, D = ij_correspondence(zoo_pin("giraffe"))
    assert I == (2, 2, 2) and D == 4 and tuples_shift_equivalent(J, (2, 1, 1))


def test_m2_of_s():
    assert m2_of_s(zoo_pin("rabbit")) == 2
    assert m2_of_s(zoo_pin("kangaroo")) == 3
