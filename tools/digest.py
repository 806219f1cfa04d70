#!/usr/bin/env python3
"""A digest of the library's exact outputs, to compare two source trees.

    python3 tools/digest.py

Run from anywhere; the library is imported from the ``src/`` directory next
to this script's directory.  There are no options, and every draw comes from
the fixed seeds 0-2.  Each entry is one printed line: a window as a sha256 of
its points, or the outcome of a check (its counts, or the exception type and
message).  The entries cover

- ``generate_window`` at every zoo pin and admissible D >= 2, then l + 1
  forward steps, one forward step with the bottom row dropped and one
  backward step;
- ``generate_reduced`` with three reduced steps, and ``check_relations``;
- 48 closed polygons (pentagram and higher_pentagram, n = 7 and 9) with
  eight forward steps and the y-values of row 3;
- ``generate_1d`` at every zoo pin with l + 1 steps forward and one back;
- ``check_relations``, ``check_menelaus``, ``check_eqmain``,
  ``genericity_audit`` and the eqmain loop of ``ymesh verify eqmain``
  (``cli._mesh_report`` on the window written to a mesh file: its instance
  count and failing bases) on the generated, polygon and 1D windows and on
  corrupted copies of them (a point moved by one unit, or replaced by a
  neighbour);
- the decision of the redraw guard, ``_propagates(w, l + 2, rule)``, on
  every planar window: generated, stepped and reduced ones, polygons, and
  their corrupted and edited copies;
- the same checks and the y-values of the four lines through one point,
  re-run on the checked window object after each of four in-place edits of
  its points: the point moved, replaced by a neighbour, deleted and
  restored.  A window keeps a store of its lines between checks, so these
  entries show that the store follows edits;
- the quiver side: ``verify_period_one`` at every zoo pin for n = 8 and 64;
  ``run_periodic_y`` at every zoo pin for n = 8 and 16, its exported and
  final values as (num, den) pairs, from y0 with none (seed 0), one (seed 1)
  or all three (seed 2) of 0, -1 and inf among random values, and
  ``check_exchange_trace`` on each trace and on a copy with one value
  changed; ``run_1d_y`` on three small period-one quivers;
- ``t_ij`` with the pin's (I, J) on every row of the windows of the row
  correspondence tests (short_diagonal at D = 3 with 34 columns and six
  forward steps, giraffe at D = 4 with 44 columns and nine), and on 12
  random polygons per D = 2..5 with random step tuples: generic ones, ones
  with coordinates in -2..2 and a repeated vertex, and such ones moved into
  a hyperplane, so that the hyperplanes H_i that they span are all one;
- ``meet`` of 20 pairs of random flats per D = 2..5 whose spans share a
  random subspace: its rank, and its point when it is one.

The last line is the sha256 over all entries: two trees whose outputs agree
print the same one.
"""

import hashlib
import os
import random
import sys
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ymesh import battery  # noqa: E402
from ymesh.cli import _mesh_report  # noqa: E402
from ymesh.fractal import genericity_audit  # noqa: E402
from ymesh.ijmap import row_polygon, t_ij  # noqa: E402
from ymesh.mesh import (TOP, generate_1d, generate_polygon_window,  # noqa: E402
                        generate_reduced, generate_window, step_1d, step_backward,
                        step_forward, step_reduced_forward, check_menelaus,
                        check_relations, _propagates, _reduced_rule)
from ymesh.pins import d_of_s, ij_correspondence  # noqa: E402
from ymesh.projective import Point, meet, span  # noqa: E402
from ymesh.quiver import (Quiver, check_exchange_trace, qs_period, run_1d_y,  # noqa: E402
                          run_periodic_y, verify_period_one)
from ymesh.rational import ExtQ  # noqa: E402
from ymesh.serialize import dumps, mesh_to_json  # noqa: E402
from ymesh.yvars import check_eqmain, y_available, y_of  # noqa: E402
from ymesh.zoo import ZOO, zoo_pin  # noqa: E402

SEEDS = (0, 1, 2)
POLYGON_PINS = ("pentagram", "higher_pentagram")
POLYGON_SIZES = (7, 9)
POLYGONS_PER_SEED = 4  # per pin and size: 2 * 2 * 4 * 3 seeds = 48 polygons
CORRUPTIONS = 2  # corrupted copies of each kind per window
PERIOD_SIZES = (8, 64)
Y_RUN_SIZES = (8, 16)
Y_RUN_ROUNDS = 3  # sweeps = 3 l
ONE_D_QUIVERS = (({1, 2}, [(1, 2)]), ({1, 2, 3}, [(1, 2), (3, 1)]),
                 ({1, 2, 3}, [(2, 1, 2), (1, 3)]))
DEGENERATE = (ExtQ(0), ExtQ(-1), ExtQ.infinity())
IJ_WINDOWS = (("short_diagonal", 3, 34, 6), ("giraffe", 4, 44, 9))  # pin, D, columns, steps
IJ_POLYGONS = 12  # per D and seed
MEET_PAIRS = 20  # per D and seed

entries = []


def emit(label, value):
    line = "%s: %s" % (label, value)
    entries.append(line)
    print(line)


def outcome(fn, *args, **kw):
    """(True, value), or (False, "Type: message") when fn raises."""
    try:
        return True, fn(*args, **kw)
    except Exception as e:  # every library error is an outcome to compare
        return False, "%s: %s" % (type(e).__name__, e)


def points_digest(points):
    """A dict of Points as a sha256 of its keys and integer vectors."""
    points = sorted((k, p.z) for k, p in points.items())
    return "%d points %s" % (len(points), hashlib.sha256(repr(points).encode()).hexdigest()[:16])


def window_digest(w):
    return points_digest(w.points)


def record(label, fn, *args, **kw):
    """Emit the window fn returns (or its error); return the window or None."""
    ok, value = outcome(fn, *args, **kw)
    emit(label, window_digest(value) if ok else value)
    return value if ok else None


def guard(label, w, rule=TOP):
    """The redraw guard's decision on a planar window."""
    if w.dim == 2:
        emit(label + " guard", outcome(_propagates, w, w.pin.l + 2, rule)[1])


def verify_eqmain(w):
    """The instance count and failing bases of ``ymesh verify eqmain`` on
    w, from ``cli._mesh_report`` on w written to a mesh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.json")
        with open(path, "w") as fh:
            fh.write(dumps(mesh_to_json(w)))
        rep = _mesh_report(path, "eqmain")
    return "%d instances, failures %s" % (rep["instances"], rep["failures"])


def checks(label, w):
    emit(label + " relations", outcome(check_relations, w)[1])
    emit(label + " menelaus", outcome(check_menelaus, w)[1])
    emit(label + " eqmain", outcome(check_eqmain, w)[1])
    emit(label + " verify eqmain", outcome(verify_eqmain, w)[1])
    emit(label + " genericity", outcome(genericity_audit, w, min(2, w.dim))[1])
    guard(label, w)


def corrupted(w, rng):
    """Copies of w with one point moved by one unit in its first homogeneous
    coordinate, and with one point replaced by its row neighbour."""
    keys = sorted(w.points)
    out = []
    for _ in range(CORRUPTIONS):
        k = rng.choice(keys)
        z = list(w.points[k].z)
        z[0] += 1
        bad = w.copy()
        bad.points[k] = Point(z)
        out.append(("moved %s" % (k,), bad))
    for _ in range(CORRUPTIONS):
        k = rng.choice(keys)
        near = (k[0] + 1, k[1])
        bad = w.copy()
        bad.points[k] = w.points[near] if near in w.points else w.points[rng.choice(keys)]
        out.append(("replaced %s" % (k,), bad))
    return out


def edited_in_place(label, w):
    """The checks and y-values on w after each in-place edit of its middle
    point; the last edit restores w."""
    keys = sorted(w.points)
    k = keys[len(keys) // 2]
    original = w.points[k]
    z = list(original.z)
    z[0] += 1
    near = keys[len(keys) // 2 + 1]
    ys = [(k[0] - o1, k[1] - o2) for o1, o2 in w.pin.points]
    for what in ("moved", "replaced", "deleted", "restored"):
        if what == "moved":
            w.points[k] = Point(z)
        elif what == "replaced":
            w.points[k] = w.points[near]
        elif what == "deleted":
            del w.points[k]
        else:
            w.points[k] = original
        edited = "%s %s %s in place" % (label, what, k)
        checks(edited, w)
        emit(edited + " y", " ".join(str(outcome(y_of, w, r)[1]) for r in ys))


def checks_with_corruptions(label, w, rng):
    checks(label, w)
    for what, bad in corrupted(w, rng):
        checks("%s %s" % (label, what), bad)
    edited_in_place(label, w)


def planar(seed, rng):
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        for dim in range(2, d_of_s(pin) + 1):
            label = "window %s D=%d seed=%d" % (name, dim, seed)
            w = record(label, generate_window, pin, dim, 0, battery.columns(pin), seed=seed)
            if w is None:
                continue
            guard(label, w)
            for s in range(pin.l + 1):
                w = record("%s step %d" % (label, s + 1), step_forward, w)
                if w is None:
                    break
            else:
                fwd = record(label + " drop-bottom", step_forward, w, drop_bottom=True)
                if fwd is not None:
                    record(label + " backward", step_backward, fwd)
                checks_with_corruptions(label, w, rng)


def reduced(seed):
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        label = "reduced %s seed=%d" % (name, seed)
        w = record(label, generate_reduced, pin, 0, 8 * (pin.l + 2), seed=seed)
        if w is None:
            continue
        rule = _reduced_rule(pin)
        guard(label, w, rule)
        for s in range(3):
            if w is None:
                break
            w = record("%s step %d" % (label, s + 1), step_reduced_forward, w)
        if w is not None:
            emit(label + " relations", outcome(check_relations, w)[1])
            guard(label + " stepped", w, rule)


def polygons(seed, rng):
    draws = random.Random(seed)
    for name in POLYGON_PINS:
        pin = zoo_pin(name)
        for n in POLYGON_SIZES:
            for _ in range(POLYGONS_PER_SEED):
                s = draws.randrange(2 ** 31)
                label = "polygon %s n=%d draw=%d" % (name, n, s)
                w = record(label, generate_polygon_window, pin, n, seed=s, dim=2)
                if w is not None:
                    guard(label, w)
                for step in range(8):
                    if w is None:
                        break
                    w = record("%s step %d" % (label, step + 1), step_forward, w)
                if w is None:
                    continue
                ys = [outcome(y_of, w, (i, 3))[1] for i in range(n) if y_available(w, (i, 3))]
                emit(label + " y row 3", " ".join(map(str, ys)))
                checks_with_corruptions(label, w, rng)


def one_dim(seed, rng):
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        label = "1d %s seed=%d" % (name, seed)
        w = record(label, generate_1d, pin, 0, 20 + 2 * pin.l, seed=seed)
        for s in range(pin.l + 1):
            if w is None:
                break
            w = record("%s step %d" % (label, s + 1), step_1d, w)
        if w is None:
            continue
        record(label + " backward", step_1d, w, backward=True)
        checks_with_corruptions(label, w, rng)


def pairs_digest(items):
    """(label, value) items as labels and (num, den) pairs, inf as (1, 0);
    the integers in hex, which has no length limit."""
    lines = ["%r %x %x" % (k, *y.as_pair()) for k, y in items]
    return "%d values %s" % (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16])


def y_values(rng, count, seed):
    """count random y-values, among them none (seed 0), one (seed 1) or all
    three (seed 2) of 0, -1 and inf."""
    ys = [Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99)) for _ in range(count)]
    bad = {0: (), 1: (rng.choice(DEGENERATE),), 2: DEGENERATE}[seed]
    for k, y in zip(rng.sample(range(count), len(bad)), bad):
        ys[k] = y
    return ys


def y_runs(seed, rng):
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        _, l = qs_period(pin)
        for n in Y_RUN_SIZES:
            label = "y-run %s n=%d seed=%d" % (name, n, seed)
            verts = [(i, j) for i in range(n) for j in range(l)]
            y0 = dict(zip(verts, y_values(rng, len(verts), seed)))
            ok, value = outcome(run_periodic_y, pin, n, y0, Y_RUN_ROUNDS * l)
            if not ok:
                emit(label, value)
                continue
            exported, final = value
            emit(label + " exported", pairs_digest(sorted(exported.items())))
            emit(label + " final", pairs_digest(sorted(final.items())))
            emit(label + " trace", outcome(check_exchange_trace, pin, n, exported)[1])
            # a finite value of the middle period, whose exchange instance
            # has its top and every factor in the trace
            middle = [k for k, y in sorted(exported.items()) if l <= k[1] < 2 * l and not y.is_inf]
            if middle:
                k = rng.choice(middle)
                bad = dict(exported)
                bad[k] = exported[k] + 1
                emit("%s trace with %s changed" % (label, k),
                     outcome(check_exchange_trace, pin, n, bad)[1])
    for vertices, arrows in ONE_D_QUIVERS:
        q, m = Quiver(vertices, arrows), len(vertices)
        label = "1d y-run %s seed=%d" % (arrows, seed)
        ok, value = outcome(run_1d_y, q, m, y_values(rng, m, min(seed, m - 1)), 14)
        emit(label, pairs_digest(enumerate(value)) if ok else value)


def ij_maps(seed, rng):
    for name, dim, cols, steps in IJ_WINDOWS:
        pin = zoo_pin(name)
        I, J, _ = ij_correspondence(pin)
        w = generate_window(pin, dim, 0, cols, seed=seed)
        for _ in range(steps):
            w = step_forward(w)
        for j in w.rows():
            ok, img = outcome(t_ij, row_polygon(w, j), I, J)
            emit("t_ij %s D=%d seed=%d row %d" % (name, dim, seed, j), points_digest(img) if ok else img)
    for dim in range(2, 6):
        for k in range(IJ_POLYGONS):
            n = rng.randint(dim + 3, 4 * dim + 4)
            if k % 3 == 0:
                poly = {i: Point([rng.randint(-99, 99) for _ in range(dim)] + [1]) for i in range(n)}
            else:
                poly = {i: Point([rng.randint(-2, 2) for _ in range(dim)] + [1]) for i in range(n)}
                poly[rng.randrange(n)] = poly[rng.randrange(n)]
            if k % 3 == 2:
                poly = {i: Point(p.z[:-1] + (0,)) if any(p.z[:-1]) else p for i, p in poly.items()}
            I = tuple(rng.choice((-1, 1, 2, 3)) for _ in range(dim - 1))
            J = tuple(rng.choice((-1, 1, 2, 3)) for _ in range(dim - 1))
            ok, img = outcome(t_ij, poly, I, J)
            emit("t_ij polygon D=%d seed=%d #%d %s %s" % (dim, seed, k, I, J),
                 points_digest(img) if ok else img)


def random_vector(rng, n):
    while True:
        v = [rng.randint(-9, 9) for _ in range(n)]
        if any(v):
            return v


def random_points(rng, basis, count):
    """count nonzero points of the span of the integer vectors."""
    out = []
    while len(out) < count:
        v = [sum(rng.randint(-5, 5) * x[m] for x in basis) for m in range(len(basis[0]))]
        if any(v):
            out.append(Point(v))
    return out


def meets(seed, rng):
    for dim in range(2, 6):
        n = dim + 1
        for k in range(MEET_PAIRS):
            common = [random_vector(rng, n) for _ in range(rng.randint(0, dim))]
            flats = []
            for _ in range(2):
                own = [random_vector(rng, n) for _ in range(rng.randint(0 if common else 1, 3))]
                flats.append(span(random_points(rng, common + own, len(common) + len(own))))
            m = meet(*flats)
            emit("meet D=%d seed=%d #%d" % (dim, seed, k),
                 "rank %d%s" % (m.rank, " point %s" % (m.point().z,) if m.rank == 1 else ""))


def quiver_side():
    for name in sorted(ZOO):
        for n in PERIOD_SIZES:
            emit("period one %s n=%d" % (name, n), outcome(verify_period_one, zoo_pin(name), n)[1])
    for seed in SEEDS:
        y_runs(seed, random.Random(2000 + seed))


def main():
    for seed in SEEDS:
        rng = random.Random(1000 + seed)
        planar(seed, rng)
        reduced(seed)
        polygons(seed, rng)
        one_dim(seed, rng)
    quiver_side()
    for seed in SEEDS:
        rng = random.Random(3000 + seed)
        ij_maps(seed, rng)
        meets(seed, rng)
    print("%d entries, sha256 %s" % (len(entries),
                                     hashlib.sha256("\n".join(entries).encode()).hexdigest()))


if __name__ == "__main__":
    main()
