"""Command-line interface.

Exit codes: 0 ok, 1 an identity failed (or another assertion), 2 config
error, 3 degenerate data.  All randomness is driven by --seed (default from
YMESH_SEED).
"""

import functools
import json
import sys
import time

import click

from . import battery, serialize as sz
from .rational import DegenerateError
from .pins import PinError, convex_relation, d_of_s, horizontal_info, ij_correspondence
from .filtration import classify_case, FiltrationUnavailable
from .mesh import (MeshError, DegenerateConfig, IdentityFailure, generate_window, generate_1d,
                   step_forward, step_backward, step_1d, check_relations,
                   check_menelaus, bases)
from .yvars import EQMAIN_LABELS, eqmain_instance, y_of
from .quiver import (QuiverConfigError, build_qs, check_qs_size, verify_period_one,
                     run_periodic_y, check_exchange_trace, qs_period)
from .lifted import build_lifted, tilde_ideal_generator, LiftedUnavailable
from .fractal import make_fractal, genericity_evidence, check_sub_fractal_intersections
from .ijmap import IJMapError, t_ij, row_polygon
from .zoo import ZOO, zoo_pin


def _load(path):
    """The JSON document in the file at path."""
    with open(path) as fh:
        return sz.loads(fh.read())


def resolve_pin(name, pin_json):
    if name:
        if name not in ZOO:
            raise PinError("unknown pin name %r (known: %s)" % (name, ", ".join(ZOO)))
        return zoo_pin(name)
    if pin_json:
        return sz.pin_from_json(json.loads(pin_json))
    raise PinError("provide --name or --pin")


# (library errors, exit code, label), matched in order: IdentityFailure and
# DegenerateConfig before MeshError, which they subclass
_EXIT_CODES = (
    ((IdentityFailure,), 1, "identity failed"),
    ((DegenerateError, DegenerateConfig), 3, "degenerate data"),
    ((PinError, QuiverConfigError, IJMapError, FiltrationUnavailable, LiftedUnavailable,
      MeshError, json.JSONDecodeError), 2, "config error"),
    ((AssertionError,), 1, "assertion failure"),
)
_LIBRARY_ERRORS = tuple(t for types, _, _ in _EXIT_CODES for t in types)


def _fail(error):
    """Report a library error and exit with its code."""
    code, label = next((code, label) for types, code, label in _EXIT_CODES
                       if isinstance(error, types))
    click.echo("%s: %s" % (label, error), err=True)
    sys.exit(code)


def guarded(fn):
    """Map library errors onto the exit-code contract."""
    @functools.wraps(fn)
    def wrap(*a, **kw):
        try:
            return fn(*a, **kw)
        except _LIBRARY_ERRORS as e:
            _fail(e)
    return wrap


def emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


pin_opts = [click.option("--name", help="zoo pin name"),
            click.option("--pin", "pin_json", help='pin JSON {"a":[i,j],...}')]
seed_opt = click.option("--seed", type=int, envvar="YMESH_SEED", default=0, show_envvar=True)


def add_opts(opts):
    def deco(fn):
        for o in reversed(opts):
            fn = o(fn)
        return fn
    return deco


@click.group()
def main():
    pass


# ---- pin ----------------------------------------------------------------


@main.group("pin")
def pin_group():
    pass


@pin_group.command("info")
@add_opts(pin_opts)
@guarded
def pin_info(name, pin_json):
    pin = resolve_pin(name, pin_json)
    out = {
        "pin": sz.pin_to_json(pin),
        "m": pin.m, "l": pin.l,
        "D": {route: d_of_s(pin, route) for route in ("relation", "hull", "lattice")},
        "convex_relation": list(convex_relation(pin)),
        "case": classify_case(pin),
    }
    try:
        hi = horizontal_info(pin)
        I, J, D = ij_correspondence(pin)
        out["horizontal"] = {"p": hi["p"], "q": hi["q"], "s": hi["s"],
                             "I": list(I), "J": list(J), "map_dim": D}
    except PinError:
        out["horizontal"] = None
    click.echo(sz.dumps(out), nl=False)


@pin_group.command("list")
def pin_list():
    for name_, (pts, dim) in ZOO.items():
        click.echo("%-18s %-40s D(S)=%d" % (name_, pts, dim))


# ---- mesh ---------------------------------------------------------------


@main.group("mesh")
def mesh_group():
    pass


@mesh_group.command("gen")
@add_opts(pin_opts)
@click.option("--dim", type=int, required=True)
@click.option("--cols", type=int, default=24, help="window width")
@click.option("--steps", type=click.IntRange(min=0), default=0,
              help="forward steps after generation")
@seed_opt
@click.option("--out", type=click.Path())
@guarded
def mesh_gen(name, pin_json, dim, cols, steps, seed, out):
    pin = resolve_pin(name, pin_json)
    if dim == 1:
        w = generate_1d(pin, 0, cols, seed=seed)
        for _ in range(steps):
            w = step_1d(w)
    else:
        w = generate_window(pin, dim, 0, cols, seed=seed)
        for _ in range(steps):
            w = step_forward(w)
    emit(sz.dumps(sz.mesh_to_json(w, seed=seed)), out)


@mesh_group.command("step")
@click.option("--mesh", "mesh_path", type=click.Path(exists=True), required=True)
@click.option("-n", "count", type=int, default=1, help="steps; negative = backward")
@click.option("--out", type=click.Path())
@guarded
def mesh_step(mesh_path, count, out):
    w = sz.mesh_from_json(_load(mesh_path))
    for _ in range(abs(count)):
        if w.dim == 1:
            w = step_1d(w, backward=count < 0)
        else:
            w = step_forward(w) if count > 0 else step_backward(w)
    emit(sz.dumps(sz.mesh_to_json(w)), out)


@mesh_group.command("check")
@click.option("--mesh", "mesh_path", type=click.Path(exists=True), required=True)
@guarded
def mesh_check(mesh_path):
    w = sz.mesh_from_json(_load(mesh_path))
    if w.dim == 1:
        counts = {"menelaus": check_menelaus(w)}
    else:
        counts = check_relations(w)
    click.echo(sz.dumps({"ok": True, "instances": counts}), nl=False)


@mesh_group.command("csv")
@click.option("--mesh", "mesh_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path())
@guarded
def mesh_csv(mesh_path, out):
    w = sz.mesh_from_json(_load(mesh_path))
    emit(sz.mesh_rows_csv(w), out)


# ---- verify -------------------------------------------------------------


@main.group("verify")
def verify_group():
    pass


def _mesh_report(path, kind):
    return _mesh_report_and_lines(path, kind)[0]


def _mesh_report_and_lines(path, kind):
    """The report of ``verify`` on the mesh file, and the messages of the
    lines L_s inside the window whose points span more than a line: every
    exchange instance that needs such a line is a failing base."""
    w = sz.mesh_from_json(_load(path))
    failures = []
    not_lines = {}
    instances = 0
    if kind == "menelaus":
        instances = check_menelaus(w)
    else:
        # a base fits when the four points of each of its six y-values do
        offsets = [w.pin.offset(y + p) for y in EQMAIN_LABELS for p in "abcd"]
        for r in bases(w, offsets):
            try:
                rel = eqmain_instance(w, r)
            except IdentityFailure as e:  # a line of the base is not a line
                not_lines[str(e)] = None
                rel = (False,)
            if rel == "degenerate":
                continue
            instances += 1
            if not rel[0]:
                failures.append(list(r))
    return {"kind": kind, "instances": instances, "failures": failures}, list(not_lines)


@verify_group.command("eqmain")
@click.option("--mesh", "mesh_path", type=click.Path(exists=True), required=True)
@guarded
def verify_eqmain(mesh_path):
    rep, not_lines = _mesh_report_and_lines(mesh_path, "eqmain")
    click.echo(sz.dumps(rep), nl=False)
    for message in not_lines:
        click.echo("identity failed: %s" % message, err=True)
    if rep["failures"]:
        sys.exit(1)


@verify_group.command("menelaus")
@click.option("--mesh", "mesh_path", type=click.Path(exists=True), required=True)
@guarded
def verify_menelaus(mesh_path):
    rep = _mesh_report(mesh_path, "menelaus")
    click.echo(sz.dumps(rep), nl=False)


@verify_group.command("all")
@seed_opt
@click.option("--out", type=click.Path())
@guarded
def verify_all(seed, out):
    """Run the check battery (``ymesh.battery``) over the zoo.  Every job runs
    and is reported, with its status, seconds, height and draws (None when
    growing failed); then the first failed job's error sets the exit code."""
    jobs, errors = [], []
    for name, dim in battery.jobs():
        job = {"pin": name, "dim": dim, "seed": seed, "checks": {}, "height_max_bits": 0,
               "draws": None}
        start = time.perf_counter()
        try:
            w, job["draws"] = battery.grow(zoo_pin(name), dim, seed)
            job["height_max_bits"] = max(max(map(abs, p.z)).bit_length() for p in w.points.values())
            battery.check(w, job["checks"])
        except _LIBRARY_ERRORS as e:
            errors.append(e)
            job["error"] = {"type": type(e).__name__, "message": str(e)}
        job["status"] = "failed" if "error" in job else "ok"
        job["seconds"] = round(time.perf_counter() - start, 3)
        jobs.append(job)
    report = {"seed": seed, "jobs": jobs, "hard_failures": len(errors)}
    emit(sz.dumps(report), out)
    if errors:
        _fail(errors[0])


# ---- quiver -------------------------------------------------------------


@main.group("quiver")
def quiver_group():
    pass


@quiver_group.command("build")
@add_opts(pin_opts)
@click.option("--n", type=int, required=True)
@click.option("--dot", is_flag=True)
@click.option("--out", type=click.Path())
@guarded
def quiver_build(name, pin_json, n, dot, out):
    pin = resolve_pin(name, pin_json)
    q = build_qs(pin, n)
    emit(sz.quiver_to_dot(q) if dot else sz.dumps(sz.quiver_to_json(q)), out)


@quiver_group.command("verify")
@add_opts(pin_opts)
@click.option("--n", type=int, required=True)
@guarded
def quiver_verify(name, pin_json, n):
    pin = resolve_pin(name, pin_json)
    verify_period_one(pin, n)
    click.echo(sz.dumps({"period_one": True, "n": n}), nl=False)


@quiver_group.command("run")
@add_opts(pin_opts)
@click.option("--n", type=int, required=True)
@click.option("--steps", type=int, default=12)
@click.option("--init", type=click.Choice(["random", "geometric"]), default="random")
@seed_opt
@click.option("--out", type=click.Path())
@guarded
def quiver_run(name, pin_json, n, steps, init, seed, out):
    """Drive the periodic Y-dynamics and emit the exported y-trace as CSV.
    Both inits check n against Q_{n,S} before they draw."""
    import random as _random
    from fractions import Fraction
    pin = resolve_pin(name, pin_json)
    i0, l = qs_period(pin)
    check_qs_size(pin, n)
    if init == "geometric":
        if pin.m != 1 or l != 2:
            raise PinError("geometric init needs a closed-polygon pin (m=1, l=2)")
        from .mesh import generate_polygon_window
        w = generate_polygon_window(pin, n, seed=seed, dim=2)
        for _ in range(6):
            w = step_forward(w)
        j0 = 3
        y0 = {}
        for i in range(n):
            y0[(i, 0)] = y_of(w, (i, j0))
            y0[(i, 1)] = y_of(w, ((i - i0) % n, j0 - 1)).inv()
    else:
        rng = _random.Random(seed)
        y0 = {(i, j): Fraction(rng.randint(1, 9), rng.randint(1, 9))
              for i in range(n) for j in range(l)}
    exported, _ = run_periodic_y(pin, n, y0, steps)
    check_exchange_trace(pin, n, exported)
    emit(sz.y_trace_csv(exported), out)


# ---- lift ---------------------------------------------------------------


@main.command("lift")
@add_opts(pin_opts)
@click.option("--width", type=click.IntRange(min=1), default=5)
@click.option("--height", type=click.IntRange(min=1), default=5)
@click.option("--dot", is_flag=True)
@click.option("--out", type=click.Path())
@guarded
def lift_cmd(name, pin_json, width, height, dot, out):
    pin = resolve_pin(name, pin_json)
    q = build_lifted(pin, 0, width - 1, 0, height - 1)
    if dot:
        emit(sz.quiver_to_dot(q, "lifted"), out)
        return
    obj = sz.quiver_to_json(q)
    from .lifted import phi_map
    obj["labels"] = [[i, j, list(phi_map(pin, (i, j)))]
                     for i in range(width) for j in range(height)]
    obj["generator"] = list(tilde_ideal_generator(pin))
    emit(sz.dumps(obj), out)


# ---- fractal ------------------------------------------------------------


@main.command("fractal")
@add_opts(pin_opts)
@click.option("--k", type=click.IntRange(min=0), required=True)
@click.option("--base", nargs=2, type=int, default=(0, 0))
@click.option("--mesh", "mesh_path", type=click.Path(exists=True))
@click.option("--out", type=click.Path())
@guarded
def fractal_cmd(name, pin_json, k, base, mesh_path, out):
    pin = resolve_pin(name, pin_json)
    if k >= 2:
        check_sub_fractal_intersections(pin, tuple(base), k)
    pts = sorted(make_fractal(pin, tuple(base), k))
    click.echo(sz.dumps({"k": k, "base": list(base), "points": [list(p) for p in pts]}),
               nl=False)
    if mesh_path:
        w = sz.mesh_from_json(_load(mesh_path))
        rows = genericity_evidence(w, w.dim, k_max=k)
        emit(sz.fractal_table_csv(rows), out)


# ---- ijmap --------------------------------------------------------------


@main.command("ijmap")
@click.option("--mesh", "mesh_path", type=click.Path(exists=True), required=True)
@click.option("--row", type=int, required=True)
@click.option("--i-tuple", "i_str", required=True, help="comma-separated I")
@click.option("--j-tuple", "j_str", required=True, help="comma-separated J")
@guarded
def ijmap_cmd(mesh_path, row, i_str, j_str):
    w = sz.mesh_from_json(_load(mesh_path))
    try:
        I, J = (tuple(int(x) for x in text.split(",")) for text in (i_str, j_str))
    except ValueError:
        raise IJMapError("I and J must be comma-separated integers, got %r and %r"
                         % (i_str, j_str)) from None
    if row not in w.rows():
        raise IJMapError("row %d is not in the mesh" % row)
    img = t_ij(row_polygon(w, row), I, J)
    click.echo(sz.dumps({"row": row, "I": list(I), "J": list(J),
                         "points": {str(i): sz.point_to_json(p)
                                    for i, p in sorted(img.items())}}), nl=False)


# ---- export -------------------------------------------------------------


@main.command("export")
@click.argument("kind", type=click.Choice(["mesh-csv", "quiver-dot"]))
@click.option("--in", "in_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@guarded
def export_cmd(kind, in_path, out):
    obj = _load(in_path)
    if kind == "mesh-csv":
        emit(sz.mesh_rows_csv(sz.mesh_from_json(obj)), out)
    else:
        emit(sz.quiver_to_dot(sz.quiver_from_json(obj)), out)


if __name__ == "__main__":
    main()
