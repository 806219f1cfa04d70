"""The three workloads: job lists drawn from the benchmark seed, job bodies,
and the correctness gate.

sweep
    One job per (zoo pin, admissible dim in {1, 2, min(3, D), D}) with the
    benchmark seed as mesh seed: the battery of ``ymesh verify all`` at the
    acceptance column count.  It is the work the acceptance sweep gates and
    that users run, and its heights span both cost regimes: D = 1 jobs cost
    per-operation overhead, high-D jobs cost bigint arithmetic.  The boundary
    pin ``penguin`` stays in; its failures are counted, not hidden.
polygon_periodic
    Closed polygons of ``pentagram`` and ``higher_pentagram`` at two sizes of
    n, propagated deep in time, then the quiver y-trace seeded from the
    mesh's cross ratios is compared with ``y_of`` and the final window is
    checked.  The only workload with periodic windows and with height born
    in propagation rather than generation; its cost is in the checks.
quiver_period
    For every zoo pin at two large n: period-one verification of Q_{n,S}, a
    Y-seed run from random y-values and its exchange-trace check.  Quiver
    mutation and ExtQ arithmetic only, no projective geometry, so geometry
    changes must not move it.

Each job runs its library calls inside timed regions; enumeration, gate
checks and height probes run outside them.  A library AssertionError, a
round-trip or y-trace mismatch, or a check reporting fewer instances than the
window holds is a wrong result.  Any other library exception is a failed
operation, recorded with its type and message.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from . import instances as inst
from .clock import RefClock

FRACTAL_LIMIT = 40  # max_bases default of genericity_audit and bound_check

POLYGON_PINS = ("pentagram", "higher_pentagram")
POLYGON_SIZES = (7, 9)
POLYGON_SEEDS = 12
POLYGON_STEPS = 8
POLYGON_J0 = 3  # row whose y-values seed the quiver run (as in test_05c)
POLYGON_SWEEPS = POLYGON_STEPS - 2  # exported rows stay inside the window

QUIVER_SIZES = (64, 112)
QUIVER_Y_COLUMNS = 4  # the Y-seed run uses n // 4 columns
QUIVER_Y_ROUNDS = 3  # ... and 3 * l row sweeps
# initial y-values have 12-bit numerators and denominators, so the height of
# the trace depends on the dynamics rather than on lucky small draws
QUIVER_Y_RANGE = (2 ** 11, 2 ** 12)


class WrongResult(Exception):
    pass


class OpFailed(Exception):
    pass


class PassRecord:
    """What one pass over the job list measured and verified."""

    def __init__(self):
        self.clock = RefClock()
        self.job_s = []  # raw seconds
        self.job_ref_s = []  # seconds at the reference speed
        self.attempted = 0
        self.failures = []
        self.wrong = []
        self.instances = 0
        self.checked = 0
        self.skipped = 0
        self.eqmain_library = 0
        self.eqmain_enumerated = 0
        self.relations_instances = 0
        self.menelaus_instances = 0
        self.heights = []
        self.step_bits = {}  # step index -> bits of the points it added


class Job:
    def __init__(self, rec, index, label, tracer=None, probe=False):
        self.rec = rec
        self.index = index
        self.label = label
        self.tracer = tracer
        self.probe = probe

    @contextmanager
    def timed(self):
        tracer = self.tracer
        if tracer is not None:
            tracer.job_id = self.index
            tracer.active = True
        t0 = perf_counter()
        try:
            yield
        finally:
            seconds = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            self.rec.clock.add(self.index, seconds)

    def op(self, name, fn, *args, **kwargs):
        self.rec.attempted += 1
        try:
            with self.timed():
                return fn(*args, **kwargs)
        except AssertionError as e:
            raise WrongResult("%s: %s" % (name, e)) from e
        except Exception as e:  # a library failure: record it, keep running
            self.rec.failures.append((self.label, name, type(e).__name__, str(e)))
            raise OpFailed(name) from e

    def require(self, ok, message):
        if not ok:
            raise WrongResult(message)

    def step(self, index, fn, window):
        """One propagation step of the job's main loop; the probe records
        the height of the points it added."""
        out = self.op("step", fn, window)
        if self.probe:
            self.rec.step_bits.setdefault(index, []).extend(
                inst.point_bits(out.points[k]) for k in out.points.keys() - window.points.keys())
        return out

    def final_points(self, window):
        if self.probe:
            self.rec.heights.extend(inst.point_bits(p) for p in window.points.values())


def independent(*checks):
    """Run checks that do not depend on each other; a failed one does not
    stop the rest."""
    for check in checks:
        try:
            check()
        except OpFailed:
            pass


# ---- shared checks -----------------------------------------------------


def check_eqmain(lib, job, w):
    enum = len(inst.window_bases(w, inst.EQMAIN_WORDS))
    counts = job.op("check_eqmain", lib.yvars.check_eqmain, w)
    got = counts["checked"] + counts["skipped"]
    job.require(got >= enum, "check_eqmain reported %d instances, window has %d" % (got, enum))
    rec = job.rec
    rec.eqmain_library += got
    rec.eqmain_enumerated += enum
    rec.checked += counts["checked"]
    rec.skipped += counts["skipped"]
    rec.instances += enum


def check_menelaus(lib, job, w):
    enum = inst.window_bases(w, inst.MENELAUS_WORDS)
    count = job.op("check_menelaus", lib.mesh.check_menelaus, w)
    skipped = 0
    if count < len(enum):
        # check_menelaus drops undefined multi-ratios without counting them;
        # only those may be missing from its count
        skipped = sum(1 for r in enum if _menelaus_degenerate(lib, w, r))
        job.require(count >= len(enum) - skipped,
                    "check_menelaus verified %d of %d instances (%d degenerate)"
                    % (count, len(enum), skipped))
    rec = job.rec
    rec.checked += count
    rec.skipped += skipped
    rec.instances += len(enum)
    rec.menelaus_instances += len(enum)


def _menelaus_degenerate(lib, w, r):
    pts = [w.get((r[0] + o[0], r[1] + o[1]))
           for o in (inst.word_offset(w.pin, x) for x in inst.MENELAUS_WORDS)]
    try:
        lib.projective.multi_ratio(pts)
    except lib.rational.DegenerateError:
        return True
    return False


def check_relations(lib, job, w):
    enum = {kind: len(inst.window_bases(w, words))
            for kind, words in inst.RELATION_WORDS.items()}
    counts = job.op("check_relations", lib.mesh.check_relations, w)
    for kind, n in enum.items():
        job.require(counts[kind] >= n, "check_relations reported %d %s instances, window has %d"
                    % (counts[kind], kind, n))
    rec = job.rec
    rec.checked += sum(counts.values())
    rec.instances += sum(enum.values())
    rec.relations_instances += sum(enum.values())


def check_genericity(lib, job, w):
    enum = {k: min(FRACTAL_LIMIT, len(inst.fractal_bases(w, k))) for k in (1, 2, 3)}
    counts = job.op("genericity_audit", lib.fractal.genericity_audit, w, 2)
    for k in (1, 2):
        job.require(counts[k] >= enum[k], "genericity_audit reported %d %d-fractals, expected %d"
                    % (counts[k], k, enum[k]))
    bound = job.op("bound_check", lib.fractal.bound_check, w, 2)
    job.require(bound >= enum[3], "bound_check reported %d 3-fractals, expected %d" % (bound, enum[3]))
    rec = job.rec
    rec.checked += counts[1] + counts[2] + bound
    rec.instances += enum[1] + enum[2] + enum[3]


# ---- sweep -------------------------------------------------------------


def sweep_jobs(lib, seed):
    jobs = []
    for name in sorted(lib.zoo.ZOO):
        D = lib.pins.d_of_s(lib.zoo.zoo_pin(name))
        for dim in sorted({1, 2, min(3, D), D} & set(range(1, D + 1))):
            jobs.append((name, dim, seed))
    return jobs


def sweep_job(lib, job, spec):
    name, dim, seed = spec
    mesh = lib.mesh
    pin = lib.zoo.zoo_pin(name)
    xs = [p[0] for p in pin.points]
    cols = 4 * (pin.l + 2) + 8 * (max(xs) - min(xs))  # acceptance sweep width
    if dim == 1:
        w = job.op("generate", mesh.generate_1d, pin, 0, cols, seed=seed)
        step = mesh.step_1d
    else:
        w = job.op("generate", mesh.generate_window, pin, dim, 0, cols, seed=seed)
        step = mesh.step_forward
    for s in range(pin.l + 1):
        w = job.step(s + 1, step, w)
    job.final_points(w)
    checks = [lambda: check_eqmain(lib, job, w), lambda: round_trip(lib, job, w, dim)]
    if dim >= 2:
        checks += [lambda: check_menelaus(lib, job, w),
                   lambda: check_relations(lib, job, w),
                   lambda: check_genericity(lib, job, w)]
    independent(*checks)


def round_trip(lib, job, w, dim):
    """Forward with the bottom row dropped, then backward: every point the
    two windows share must agree, and the dropped row must come back."""
    bottom = min(j for (_, j) in w.points)
    if dim == 1:
        fwd = job.op("step", lib.mesh.step_1d, w)
        with job.timed():
            for key in [k for k in fwd.points if k[1] == bottom]:
                del fwd.points[key]
        back = job.op("step", lib.mesh.step_1d, fwd, backward=True)
    else:
        fwd = job.op("step", lib.mesh.step_forward, w, drop_bottom=True)
        back = job.op("step", lib.mesh.step_backward, fwd)
    with job.timed():
        common = w.points.keys() & back.points.keys()
        bad = [k for k in common if back.points[k] != w.points[k]]
    job.require(not bad, "round trip changes %d points, e.g. %s" % (len(bad), sorted(bad)[:3]))
    job.require(any(j == bottom for (_, j) in common), "round trip did not recreate row %d" % bottom)
    job.rec.checked += len(common)
    job.rec.instances += len(common)


# ---- polygon_periodic --------------------------------------------------


def polygon_jobs(lib, seed):
    rng = random.Random(seed)
    return [(name, n, rng.randrange(2 ** 31))
            for name in POLYGON_PINS for n in POLYGON_SIZES for _ in range(POLYGON_SEEDS)]


def polygon_job(lib, job, spec):
    name, n, seed = spec
    pin = lib.zoo.zoo_pin(name)
    w = job.op("generate", lib.mesh.generate_polygon_window, pin, n, seed=seed, dim=2)
    for s in range(POLYGON_STEPS):
        w = job.step(s + 1, lib.mesh.step_forward, w)
    job.final_points(w)
    independent(lambda: y_trace(lib, job, w, pin, n),
                lambda: check_eqmain(lib, job, w),
                lambda: check_menelaus(lib, job, w))


def y_trace(lib, job, w, pin, n):
    """Seed the Y-dynamics of Q_{n,S} from the mesh's cross ratios and
    compare every exported value with the y-variable of the mesh."""
    yvars = lib.yvars
    i0, l = lib.quiver.qs_period(pin)
    j0 = POLYGON_J0

    def seed_values():
        y0 = {}
        for i in range(n):
            y0[(i, 0)] = yvars.y_of(w, (i, j0))
            y0[(i, 1)] = yvars.y_of(w, ((i - i0) % n, j0 - 1)).inv()
        return y0

    def compare(exported):
        matches, bad = 0, []
        for (i, j), val in exported.items():
            if j >= 2 and yvars.y_available(w, (i, j0 + j)):
                if val != yvars.y_of(w, (i, j0 + j)):
                    bad.append((i, j))
                matches += 1
        return matches, bad

    y0 = job.op("y_seed", seed_values)
    exported, _ = job.op("run_periodic_y", lib.quiver.run_periodic_y, pin, n, y0, POLYGON_SWEEPS)
    matches, bad = job.op("y_compare", compare, exported)
    job.require(not bad, "quiver y-trace differs from y_of at %s" % sorted(bad)[:3])
    ybases = inst.window_bases(w, inst.Y_WORDS)
    expected = sum(1 for (i, j) in exported if j >= 2 and (i, j0 + j) in ybases)
    job.require(matches == expected and matches >= n,
                "y-trace compared %d values, window has %d" % (matches, expected))
    job.rec.checked += matches
    job.rec.instances += expected


# ---- quiver_period -----------------------------------------------------


def quiver_jobs(lib, seed):
    rng = random.Random(seed)
    jobs = []
    for name in sorted(lib.zoo.ZOO):
        _, l = lib.quiver.qs_period(lib.zoo.zoo_pin(name))
        for n in QUIVER_SIZES:
            ny = n // QUIVER_Y_COLUMNS
            y0 = {(i, j): Fraction(rng.randrange(*QUIVER_Y_RANGE), rng.randrange(*QUIVER_Y_RANGE))
                  for i in range(ny) for j in range(l)}
            jobs.append((name, n, ny, y0, QUIVER_Y_ROUNDS * l))
    return jobs


def quiver_job(lib, job, spec):
    name, n, ny, y0, sweeps = spec
    quiver = lib.quiver
    pin = lib.zoo.zoo_pin(name)
    i0, l = quiver.qs_period(pin)
    job.op("verify_period_one", quiver.verify_period_one, pin, n)
    job.rec.checked += n * l
    job.rec.instances += n * l
    exported, _ = job.op("run_periodic_y", quiver.run_periodic_y, pin, ny, y0, sweeps)
    checked = job.op("check_exchange_trace", quiver.check_exchange_trace, pin, ny, exported)
    outs, ins = quiver.arrows_at_origin(pin)
    total, degenerate = inst.exchange_trace_instances(ny, i0, l, exported, outs, ins)
    job.require(checked >= total - degenerate,
                "check_exchange_trace verified %d of %d instances (%d degenerate)"
                % (checked, total, degenerate))
    job.rec.checked += checked
    job.rec.skipped += degenerate
    job.rec.instances += total
    if job.probe:
        job.rec.heights.extend(inst.y_bits(y) for y in exported.values())


WORKLOADS = {
    "sweep": (sweep_jobs, sweep_job),
    "polygon_periodic": (polygon_jobs, polygon_job),
    "quiver_period": (quiver_jobs, quiver_job),
}


def job_label(spec):
    return "/".join(str(x) for x in spec[:3])


def run_pass(lib, workload, jobs, tracer=None, probe=False):
    body = WORKLOADS[workload][1]
    rec = PassRecord()
    for index, spec in enumerate(jobs):
        job = Job(rec, index, job_label(spec), tracer, probe)
        try:
            body(lib, job, spec)
        except OpFailed:
            pass
        except WrongResult as e:
            rec.wrong.append("%s: %s" % (job.label, e))
    rec.clock.close()
    rec.job_s = [rec.clock.raw.get(k, 0.0) for k in range(len(jobs))]
    rec.job_ref_s = [rec.clock.scaled.get(k, 0.0) for k in range(len(jobs))]
    return rec


def warm_up(lib):
    """A few small calls through every layer the workloads use."""
    pin = lib.zoo.zoo_pin("pentagram")
    w = lib.mesh.generate_window(pin, 2, 0, 12, seed=0)
    for _ in range(pin.l + 1):
        w = lib.mesh.step_forward(w)
    lib.yvars.check_eqmain(w)
    lib.mesh.check_menelaus(w)
    lib.fractal.genericity_audit(w, 2, max_bases=4)
    lib.quiver.verify_period_one(pin, 8)
