"""JSON / CSV / DOT serialization.

Rationals travel as strings "p/q" (or "p", or "inf"); points as arrays of
such strings; meshes as {pin, dim, seed, rows: [{j, i_lo, points}]}; quivers
as {vertices, arrows}.
"""

import csv
import io
import json
from fractions import Fraction

from .pins import Pin, PinError
from .projective import Point
from .mesh import MeshError, MeshWindow
from .quiver import Quiver, QuiverConfigError


def point_to_json(p):
    return [str(c) for c in p.v]


def point_from_json(arr):
    return Point([Fraction(s) for s in arr])


def pin_to_json(pin):
    return {"a": list(pin.a), "b": list(pin.b), "c": list(pin.c), "d": list(pin.d)}


def pin_from_json(obj):
    """The pin of ``pin_to_json``; input of any other form raises
    ``PinError``."""
    try:
        points = [tuple(obj[k]) for k in "abcd"]
        if all(len(p) == 2 and all(type(x) is int for x in p) for p in points):
            return Pin(points)
    except (KeyError, TypeError):
        pass
    raise PinError("a pin is a, b, c and d, each a pair of integers; got %r" % (obj,))


def mesh_to_json(window, seed=None):
    rows = []
    for j in window.rows():
        cols = window.row_cols(j)
        i_lo = cols[0]
        pts = []
        for i in range(i_lo, cols[-1] + 1):
            pts.append(point_to_json(window.get((i, j))) if window.has((i, j)) else None)
        rows.append({"j": j, "i_lo": i_lo, "points": pts})
    out = {"pin": pin_to_json(window.pin), "dim": window.dim, "rows": rows}
    if seed is not None:
        out["seed"] = seed
    if window.periodic_n:
        out["periodic_n"] = window.periodic_n
    return out


def mesh_from_json(obj):
    """The window of ``mesh_to_json``; input of any other form raises
    ``MeshError`` (``PinError`` for the pin)."""
    try:
        pin, dim, n = obj["pin"], obj["dim"], obj.get("periodic_n")
        points = {(row["i_lo"] + k, row["j"]): point_from_json(arr)
                  for row in obj["rows"] for k, arr in enumerate(row["points"]) if arr is not None}
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise MeshError("malformed mesh: %s: %s" % (type(e).__name__, e)) from None
    if not (type(dim) is int and dim > 0 and (n is None or type(n) is int and n > 0) and all(
            type(i) is type(j) is int and len(p.z) == dim + 1 for (i, j), p in points.items())):
        raise MeshError("a mesh needs integer indices, dim, periodic_n > 0 and points dim + 1 long")
    return MeshWindow(pin_from_json(pin), dim, points, periodic_n=n)


def _vkey(v):
    return list(v) if isinstance(v, tuple) else v


def quiver_to_json(quiver):
    verts = sorted(quiver.vertices)
    arrows = sorted(quiver.arrows())
    return {"vertices": [_vkey(v) for v in verts],
            "arrows": [[_vkey(u), _vkey(w), m] for (u, w, m) in arrows]}


def quiver_from_json(obj):
    """The quiver of ``quiver_to_json``; input of any other form (also
    vertices that do not sort, as ``quiver_to_json`` sorts them) raises
    ``QuiverConfigError``."""
    def key(v):
        return tuple(v) if isinstance(v, list) else v
    try:
        arrows = [(key(u), key(w), m) for u, w, m in obj["arrows"]]
        if not all(type(m) is int and m > 0 for _, _, m in arrows):
            raise QuiverConfigError("an arrow is [u, w, m] with m a positive integer")
        return Quiver(sorted({key(v) for v in obj["vertices"]}), arrows)
    except QuiverConfigError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise QuiverConfigError("malformed quiver: %s: %s" % (type(e).__name__, e)) from None


def quiver_to_dot(quiver, name="quiver"):
    lines = ["digraph %s {" % name]
    for v in sorted(quiver.vertices):
        lines.append('  "%s";' % (v,))
    for (u, w, m) in sorted(quiver.arrows()):
        attr = ' [label="%d"]' % m if m > 1 else ""
        lines.append('  "%s" -> "%s"%s;' % (u, w, attr))
    lines.append("}")
    return "\n".join(lines) + "\n"


def y_trace_csv(values):
    """values: dict (i, j) -> ExtQ.  Columns: r_i, r_j, y_num, y_den."""
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["r_i", "r_j", "y_num", "y_den"])
    for (i, j) in sorted(values):
        num, den = values[(i, j)].as_pair()
        wr.writerow([i, j, num, den])
    return buf.getvalue()


def mesh_rows_csv(window):
    """Affine charts of mesh rows: columns i, j, then x1.. as "p/q" strings."""
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["i", "j"] + ["x%d" % k for k in range(1, window.dim + 1)])
    for j in window.rows():
        for i in window.row_cols(j):
            co = window.get((i, j)).v
            if co[-1] != 0:
                wr.writerow([i, j] + [str(c / co[-1]) for c in co[:-1]])
            else:
                wr.writerow([i, j] + ["at_infinity"] * window.dim)
    return buf.getvalue()


def fractal_table_csv(rows):
    """rows from fractal.genericity_evidence."""
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(["k", "samples", "generic"])
    for r in rows:
        wr.writerow([r["k"], r["samples"], r["generic"]])
    return buf.getvalue()


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text):
    return json.loads(text)
