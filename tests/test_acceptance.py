"""End-to-end acceptance battery.

One numbered test (or small group) per advertised guarantee.  The mesh sweep
(criteria 2-4) is built once per session from ``ymesh.battery``: every zoo
pin, every admissible dimension (``battery.dims``), three seeds, each window
grown as ``ymesh verify all`` grows it.

Known red: the boundary pin ("penguin") has no column filtration of the kind
audited here -- see "Known limitation" in README.md.  test_10 keeps it in
scope on purpose rather than special-casing it green.
"""

import json
import random
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from test_lifted import FIG_PIN as LIFT_PIN, FIG_LABELS, FIG_ARROWS

from ymesh.rational import ExtQ, DegenerateError
from ymesh.projective import join
from ymesh.pins import Pin, PinError, d_of_s, ij_correspondence, horizontal_info
from ymesh.mesh import (MeshError, MeshWindow, generate_window, generate_polygon_window,
                        step_forward, step_backward, step_1d, check_menelaus, _random_free)
from ymesh.yvars import (y_of, y_available, check_eqmain, GENERAL_Y_TABLE,
                         general_y_factor_route, general_y_multiratio_route,
                         bracket_product)
from ymesh.quiver import (Quiver, QuiverConfigError, mutate_y, mutate_x,
                          build_qs, qs_period, arrows_at_origin,
                          verify_period_one, run_periodic_y,
                          check_exchange_trace)
from ymesh.lifted import build_lifted, phi_map, tilde_ideal_generator
from ymesh.fractal import (check_sub_fractal_intersections, genericity_audit, bound_check,
                           genericity_evidence)
from ymesh.filtration import audit_filtration, classify_case
from ymesh.ijmap import t_ij, t_ij_inverse, polygons_equal_up_to_shift, row_polygon
from ymesh import battery
from ymesh.cli import main
from ymesh.zoo import ZOO, zoo_pin

SEEDS = (0, 1, 2)

ZOO_DIMS = {"lower_pentagram": 1, "pentagram": 2, "higher_pentagram": 3,
            "sideways": 2, "short_diagonal": 3, "dented": 3, "gopher": 2,
            "penguin": 2, "rabbit": 4, "giraffe": 5, "kangaroo": 5,
            "elephant": 6}


@pytest.fixture(scope="session")
def sweep():
    """meshes[(name, dim, seed)] -> grown window; plus the build wall time."""
    t0 = time.time()
    meshes = {(name, dim, seed): battery.grow(zoo_pin(name), dim, seed)[0]
              for name, dim in battery.jobs() for seed in SEEDS}
    return meshes, time.time() - t0


# 1. the three D(S) routes agree, and match the published table ------------


def test_01_dimension_trinity():
    t0 = time.time()
    for name, want in ZOO_DIMS.items():
        pin = zoo_pin(name)
        for route in ("relation", "hull", "lattice"):
            assert d_of_s(pin, route) == want, (name, route)
    rng = random.Random(0)
    done = 0
    while done < 1000:
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
        try:
            pin = Pin(pts)
        except PinError:
            continue
        assert (d_of_s(pin, "relation") == d_of_s(pin, "hull")
                == d_of_s(pin, "lattice")), pts
        done += 1
    assert time.time() - t0 < 1.0


# 2. master recurrence: residual == 1 across the full sweep ----------------


def test_02_master_recurrence(sweep):
    meshes, gen_time = sweep
    t0 = time.time()
    for key, w in meshes.items():
        counts = check_eqmain(w)
        assert counts["checked"] >= 20, key
    check_time = time.time() - t0
    assert gen_time + check_time < 30.0, \
        "build %.1f s + check %.1f s" % (gen_time, check_time)


# 3. backward step inverts forward step ------------------------------------


def test_03_inverse_maps(sweep):
    meshes, _ = sweep
    for (name, dim, seed), w in meshes.items():
        if dim == 1:
            j0 = w.rows()[0]
            stripped = MeshWindow(w.pin, 1)
            for k, p in w.points.items():
                if k[1] != j0:
                    stripped.points[k] = p
            back = step_1d(stripped, backward=True)
        else:
            back = step_backward(step_forward(w, drop_bottom=True))
        recreated = [k for k in w.points
                     if k in back.points and k[1] == w.rows()[0]]
        assert recreated, (name, dim, seed)
        common = [k for k in w.points if k in back.points]
        assert all(back.points[k] == w.points[k] for k in common), (name, dim, seed)


# 4. six-point multi-ratio == -1 on every D >= 2 mesh ----------------------


def test_04_menelaus(sweep):
    meshes, _ = sweep
    for (name, dim, seed), w in meshes.items():
        if dim < 2:
            continue
        assert check_menelaus(w) >= 1, (name, dim, seed)


# 5. quiver side: periodicity, exchange trace, geometric trace -------------


def test_05a_period_one():
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        for n in range(4, 9):
            try:
                assert verify_period_one(pin, n), (name, n)
            except QuiverConfigError:
                outs, ins = arrows_at_origin(pin)
                max_i = max(abs(v[0]) for v, _ in outs + ins)
                assert n <= 2 * max_i, (name, n)  # n genuinely too small


def test_05b_exchange_trace_random_runs():
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        n = 7
        _, l = qs_period(pin)
        rng = random.Random(29)
        y0 = {(i, j): Fraction(rng.randint(1, 9), rng.randint(1, 9))
              for i in range(n) for j in range(l)}
        exported, _ = run_periodic_y(pin, n, y0, 12)
        assert check_exchange_trace(pin, n, exported) >= 1, name


def test_05c_quiver_trace_equals_geometric_trace():
    # closed-polygon pins (m = 1, D = 2 admissible): seed the Y-dynamics
    # from mesh cross ratios and compare every exported value
    for name in ("pentagram", "higher_pentagram"):
        pin = zoo_pin(name)
        n = 9
        w = generate_polygon_window(pin, n, seed=7, dim=2)
        for _ in range(14):
            w = step_forward(w)
        i0, l = qs_period(pin)
        j0 = 3
        y0 = {}
        for i in range(n):
            y0[(i, 0)] = y_of(w, (i, j0))
            y0[(i, 1)] = y_of(w, ((i - i0) % n, j0 - 1)).inv()
        exported, _ = run_periodic_y(pin, n, y0, 4)
        matches = 0
        for (i, j), val in exported.items():
            if j >= 2 and y_available(w, (i, j0 + j)):
                assert val == y_of(w, (i, j0 + j)), (name, i, j)
                matches += 1
        assert matches >= n, name


# 6. figure fixtures -------------------------------------------------------


def test_06a_periodic_quiver_figure():
    pin = Pin([(-1, 0), (1, 0), (0, 1), (0, 2)])
    n = 6
    q = build_qs(pin, n)
    outs = {w for (u, w, m) in q.arrows() if u == (0, 0)}
    ins = {u for (u, w, m) in q.arrows() if w == (0, 0)}
    assert outs == {(1, 1), ((-1) % n, 2)}
    assert ins == {((-1) % n, 1), (1, 2)}


def test_06b_lifted_quiver_figure():
    assert tilde_ideal_generator(LIFT_PIN) == (3, -3)
    for (x, y), lab in FIG_LABELS.items():
        assert phi_map(LIFT_PIN, (x - 3, y - 3)) == lab
    q = build_lifted(LIFT_PIN, -2, 2, -2, 2)
    got = {(u, w) for (u, w, m) in q.arrows()}
    assert got == {((a[0] - 3, a[1] - 3), (b[0] - 3, b[1] - 3))
                   for a, b in FIG_ARROWS}


def test_06c_mutation_figure():
    q = Quiver(range(1, 7), [(1, 2), (3, 2), (4, 1), (2, 5), (6, 3), (5, 4)])
    assert q.mutate(2).canon() == {(1, 5, 1), (3, 5, 1), (2, 1, 1), (2, 3, 1),
                                   (4, 1, 1), (5, 2, 1), (6, 3, 1), (5, 4, 1)}
    ys = {v: ExtQ(1) for v in q.vertices}
    _, ys2 = mutate_y(q, ys, 2)
    assert ys2 == {1: ExtQ(2), 2: ExtQ(1), 3: ExtQ(2),
                   4: ExtQ(1), 5: ExtQ(1, 2), 6: ExtQ(1)}
    xs = {v: ExtQ(v) for v in q.vertices}
    _, xs2 = mutate_x(q, xs, 2)
    assert xs2[2] == (ExtQ(1) * ExtQ(3) + ExtQ(5)) / ExtQ(2)


# 7. (I,J)-map correspondence ----------------------------------------------


def _rows_match_ij_image(name, dim, cols, steps, pq, seed=2):
    pin = zoo_pin(name)
    w = generate_window(pin, dim, 0, cols, seed=seed)
    for _ in range(steps):
        w = step_forward(w)
    I, J, _ = ij_correspondence(pin)
    matched = 0
    for j in w.rows():
        if j + pq > w.rows()[-1]:
            break
        img = t_ij(row_polygon(w, j), I, J)
        assert len(img) >= 10, (name, j)
        assert polygons_equal_up_to_shift(img, row_polygon(w, j + pq),
                                          max_shift=14, min_overlap=10) is not None
        matched += 1
    assert matched >= 3, name


def test_07a_short_diagonal_rows():
    pin = zoo_pin("short_diagonal")
    hi = horizontal_info(pin)
    assert hi["p"] * hi["q"] == 2
    _rows_match_ij_image("short_diagonal", 3, 34, 6, pq=2)


def test_07b_giraffe_rows():
    assert ij_correspondence(zoo_pin("giraffe"))[0] == (2, 2, 2)
    _rows_match_ij_image("giraffe", 4, 44, 9, pq=3)


def test_07c_inverse_identity_on_generic_polygons():
    rng = random.Random(5)
    poly = {i: _random_free(rng, 3) for i in range(16)}
    for I, J in (((2, 2), (1, 1)), ((1, 2), (2, 1))):
        back = t_ij_inverse(t_ij(poly, I, J), I, J)
        assert polygons_equal_up_to_shift(back, poly, max_shift=16) is not None


# 8. generalized y-variables -----------------------------------------------


def test_08a_covered_subsets_two_routes():
    pin = zoo_pin("pentagram")
    w = generate_window(pin, 2, 0, 40, seed=4)
    for _ in range(pin.l + 2):
        w = step_forward(w)
    for subset in GENERAL_Y_TABLE:
        hits = 0
        for j in w.rows():
            for i in w.row_cols(j):
                try:
                    f = general_y_factor_route(w, (i, j), subset)
                    g = general_y_multiratio_route(w, (i, j), subset)
                except (KeyError, DegenerateError):
                    continue
                if f is None or g is None:
                    continue
                assert f == g, (subset, (i, j))
                hits += 1
        assert hits >= 20, subset


def test_08b_bracket_product_on_random_configurations():
    rng = random.Random(17)
    done = 0
    while done < 100:
        pts = [_random_free(rng, 2) for _ in range(4)]
        lines = [join(_random_free(rng, 2), _random_free(rng, 2))
                 for _ in range(4)]
        try:
            val = bracket_product(pts, lines)
        except DegenerateError:
            continue
        assert val == ExtQ(1)
        done += 1


# 9. fractals and genericity -----------------------------------------------


def test_09a_two_genericity_everywhere(sweep):
    meshes, _ = sweep
    audited = 0
    for (name, dim, seed), w in meshes.items():
        if dim < 2:
            continue
        counts = genericity_audit(w, 2, max_bases=20)
        bound_check(w, 2, max_bases=20)
        audited += sum(counts.values())
    assert audited > 0


def test_09b_sub_fractal_structure_exact():
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        for k in range(2, 6):
            assert check_sub_fractal_intersections(pin, (0, 0), k)


def test_09c_evidence_table(capsys):
    pin = zoo_pin("short_diagonal")
    w = generate_window(pin, 3, 0, 12 * pin.m + 14, seed=1)
    for _ in range(2 * pin.m + 2):
        w = step_forward(w)
    rows = genericity_evidence(w, 3)
    assert [r["k"] for r in rows] == [1, 2, 3]
    assert all(r["samples"] > 0 for r in rows)
    total = sum(r["samples"] for r in rows)
    generic = sum(r["generic"] for r in rows)
    # observed rate is reported, not asserted
    print("\nfractal span evidence: %d/%d generic (%.0f%%)"
          % (generic, total, 100.0 * generic / total))
    for r in rows:
        print("  k=%d  %d/%d" % (r["k"], r["generic"], r["samples"]))


# 10. filtration audit ------------------------------------------------------


def test_10a_seven_conditions(zoo_name):
    # intentionally includes the boundary pin; see the module docstring
    pin = zoo_pin(zoo_name)
    report = audit_filtration(pin)
    assert report["H_size"] == d_of_s(pin) + 1
    lo, hi = report["t_range"]
    assert lo <= -3 * pin.m and hi >= 3 * pin.m


def test_10b_dimension_demand_is_rank_capped():
    for name in ("pentagram", "sideways", "giraffe"):
        pin = zoo_pin(name)
        with pytest.raises(MeshError):
            generate_window(pin, d_of_s(pin) + 1, 0, 10)


def random_pins(seed, count):
    """count distinct non-boundary pins (up to translation), each point drawn
    with i in [-3, 3] and j in [0, 4]."""
    rng = random.Random(seed)
    pins = {}
    while len(pins) < count:
        try:
            pin = Pin([(rng.randint(-3, 3), rng.randint(0, 4)) for _ in range(4)])
        except PinError:
            continue
        if classify_case(pin) != "boundary":
            pins.setdefault(pin.normalized(), pin)
    return list(pins.values())


def test_10c_random_pins_pass_the_battery_and_the_audit():
    # seed 0 draws ten long_side pins; a hand-written f-side order had
    # generation read a member before placing it at 15 jobs of four of them
    pins = random_pins(0, 30)
    assert sum(classify_case(pin) == "long_side" for pin in pins) == 10
    for pin in pins:
        report = audit_filtration(pin)
        assert report["H_size"] == d_of_s(pin) + 1
        for dim in battery.dims(pin):
            window, _ = battery.grow(pin, dim, seed=0)
            battery.check(window, {})


# 11. `ymesh verify all` grows the windows of this sweep --------------------


def test_11_verify_all_grows_the_sweep_windows(sweep):
    meshes, _ = sweep
    res = CliRunner().invoke(main, ["verify", "all", "--seed", "0"])
    assert res.exit_code == 0, res.output
    jobs = json.loads(res.stdout)["jobs"]
    assert [(job["pin"], job["dim"], job["seed"]) for job in jobs] == \
        [key for key in meshes if key[2] == 0]
    for job in jobs:
        w = meshes[(job["pin"], job["dim"], 0)]
        height = max(max(abs(x) for x in p.z).bit_length() for p in w.points.values())
        assert job["height_max_bits"] == height, job
