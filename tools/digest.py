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
- ``check_relations``, ``check_menelaus``, ``check_eqmain`` and
  ``genericity_audit`` on the generated, polygon and 1D windows and on
  corrupted copies of them (a point moved by one unit, or replaced by a
  neighbour).

The last line is the sha256 over all entries: two trees whose outputs agree
print the same one.
"""

import hashlib
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ymesh.fractal import genericity_audit  # noqa: E402
from ymesh.mesh import (generate_1d, generate_polygon_window, generate_reduced,  # noqa: E402
                        generate_window, step_1d, step_backward, step_forward,
                        step_reduced_forward, check_menelaus, check_relations)
from ymesh.pins import d_of_s  # noqa: E402
from ymesh.projective import Point  # noqa: E402
from ymesh.yvars import check_eqmain, y_available, y_of  # noqa: E402
from ymesh.zoo import ZOO, zoo_pin  # noqa: E402

SEEDS = (0, 1, 2)
POLYGON_PINS = ("pentagram", "higher_pentagram")
POLYGON_SIZES = (7, 9)
POLYGONS_PER_SEED = 4  # per pin and size: 2 * 2 * 4 * 3 seeds = 48 polygons
CORRUPTIONS = 2  # corrupted copies of each kind per window

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


def window_digest(w):
    points = sorted((k, p.z) for k, p in w.points.items())
    return "%d points %s" % (len(points), hashlib.sha256(repr(points).encode()).hexdigest()[:16])


def record(label, fn, *args, **kw):
    """Emit the window fn returns (or its error); return the window or None."""
    ok, value = outcome(fn, *args, **kw)
    emit(label, window_digest(value) if ok else value)
    return value if ok else None


def checks(label, w):
    emit(label + " relations", outcome(check_relations, w)[1])
    emit(label + " menelaus", outcome(check_menelaus, w)[1])
    emit(label + " eqmain", outcome(check_eqmain, w)[1])
    emit(label + " genericity", outcome(genericity_audit, w, min(2, w.dim))[1])


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


def checks_with_corruptions(label, w, rng):
    checks(label, w)
    for what, bad in corrupted(w, rng):
        checks("%s %s" % (label, what), bad)


def planar(seed, rng):
    for name in sorted(ZOO):
        pin = zoo_pin(name)
        xs = [p[0] for p in pin.points]
        cols = 4 * (pin.l + 2) + 8 * (max(xs) - min(xs))
        for dim in range(2, d_of_s(pin) + 1):
            label = "window %s D=%d seed=%d" % (name, dim, seed)
            w = record(label, generate_window, pin, dim, 0, cols, seed=seed)
            if w is None:
                continue
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
        for s in range(3):
            if w is None:
                break
            w = record("%s step %d" % (label, s + 1), step_reduced_forward, w)
        if w is not None:
            emit(label + " relations", outcome(check_relations, w)[1])


def polygons(seed, rng):
    draws = random.Random(seed)
    for name in POLYGON_PINS:
        pin = zoo_pin(name)
        for n in POLYGON_SIZES:
            for _ in range(POLYGONS_PER_SEED):
                s = draws.randrange(2 ** 31)
                label = "polygon %s n=%d draw=%d" % (name, n, s)
                w = record(label, generate_polygon_window, pin, n, seed=s, dim=2)
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


def main():
    for seed in SEEDS:
        rng = random.Random(1000 + seed)
        planar(seed, rng)
        reduced(seed)
        polygons(seed, rng)
        one_dim(seed, rng)
    print("%d entries, sha256 %s" % (len(entries),
                                     hashlib.sha256("\n".join(entries).encode()).hexdigest()))


if __name__ == "__main__":
    main()
