"""Which library boundaries the traced run wraps, and the per-layer metrics
derived from its spans.

Every span name below is reported with its calls and self seconds, so the
self times of all spans plus ``trace.unspanned_s`` (time in the timed
regions outside any span: the benchmark's own comparisons and library calls
left unwrapped) add up to ``trace.wall_s``.
"""

import statistics

# span name -> (module, function names) whose module attributes are replaced
FUNCTION_SPANS = {
    "projective.rref": ("projective", ("rref",)),
    "projective.meet_point": ("projective", ("meet_point",)),
    "projective.span": ("projective", ("span",)),
    "projective.rank_of": ("projective", ("rank_of",)),
    "projective.cross_ratio": ("projective", ("cross_ratio",)),
    "projective.multi_ratio": ("projective", ("multi_ratio",)),
    "mesh.generate": ("mesh", ("generate_window", "generate_1d", "generate_polygon_window")),
    "mesh.step": ("mesh", ("step_forward", "step_backward", "step_1d")),
    "mesh.check_relations": ("mesh", ("check_relations",)),
    "mesh.check_menelaus": ("mesh", ("check_menelaus",)),
    "yvars.check_eqmain": ("yvars", ("check_eqmain",)),
    "yvars.y_of": ("yvars", ("y_of",)),
    "yvars.eqmain_residual": ("yvars", ("eqmain_residual",)),
    "fractal.fractal_bases_in_window": ("fractal", ("fractal_bases_in_window",)),
    "fractal.genericity_audit": ("fractal", ("genericity_audit",)),
    "fractal.bound_check": ("fractal", ("bound_check",)),
    "quiver.build_qs": ("quiver", ("build_qs",)),
    "quiver.mutate_y": ("quiver", ("mutate_y",)),
    "quiver.verify_period_one": ("quiver", ("verify_period_one",)),
    "quiver.check_exchange_trace": ("quiver", ("check_exchange_trace",)),
    "quiver.run_periodic_y": ("quiver", ("run_periodic_y",)),
}

EXTQ_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__rtruediv__", "__neg__", "inv")

SPAN_NAMES = tuple(FUNCTION_SPANS) + ("filtration.FiltrationSpec", "quiver.mutate", "rational.ExtQ")

RREF_SAMPLE_EVERY = 16
RREF_SAMPLE_CAP = 4096


class Observations:
    """Counts taken at the span boundaries, next to the spans."""

    def __init__(self):
        self.points_added = 0
        self.y_bases = set()
        self.y_windows = {}
        self.arrow_classes = []
        self.rref_calls = 0
        self.rref_samples = []

    def step(self, args, result):
        self.points_added += len(result.points) - len(args[0].points)

    def y_of(self, args, result):
        window, r = args[0], args[1]
        n = window.periodic_n
        self.y_windows[id(window)] = window  # keeps ids unique during the run
        self.y_bases.add((id(window), (r[0] % n, r[1]) if n else tuple(r)))

    def mutate(self, args, result):
        self.arrow_classes.append(len(args[0].b))

    def rref(self, args, result):
        self.rref_calls += 1
        if self.rref_calls % RREF_SAMPLE_EVERY == 0 and len(self.rref_samples) < RREF_SAMPLE_CAP:
            self.rref_samples.append(args[0])


def install(tracer, lib):
    """Wrap the layer boundaries of the loaded library; returns the
    observations the wrappers fill in."""
    obs = Observations()
    observers = {"mesh.step": obs.step, "yvars.y_of": obs.y_of, "projective.rref": obs.rref}
    for name, (module, functions) in FUNCTION_SPANS.items():
        for fn in functions:
            tracer.replace_function(getattr(lib, module), fn,
                                    lambda f, n=name: tracer.span_wrapper(n, f, observers.get(n)))
    tracer.replace_function(lib.filtration, "circuit_members",
                            lambda f: tracer.count_wrapper("filtration.circuit_members", f))
    spec = lib.filtration.FiltrationSpec
    for attr, value in list(vars(spec).items()):
        if callable(value) and (attr == "__init__" or not attr.startswith("_")):
            tracer.replace_method(spec, attr,
                                  lambda f: tracer.span_wrapper("filtration.FiltrationSpec", f))
    tracer.replace_method(lib.quiver.Quiver, "mutate",
                          lambda f: tracer.span_wrapper("quiver.mutate", f, obs.mutate))
    for attr in EXTQ_ARITHMETIC:
        tracer.replace_method(lib.rational.ExtQ, attr,
                              lambda f: tracer.span_wrapper("rational.ExtQ", f))
    return obs


def _operand_bits(rows):
    best = 0
    for row in rows:
        for x in row:
            best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return best


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, obs, records, untraced_wall, step_bits):
    """Per-layer metrics per traced pass (totals over the traced passes
    divided by their number), in seconds at the reference speed."""
    passes = len(records)
    calls, self_s, rooted = tracer.aggregate()
    wall = sum(sum(rec.job_s) for rec in records)
    unspanned = wall - rooted
    total_self = sum(self_s.values())
    if abs(total_self - rooted) > 1e-6 * max(wall, 1.0) or unspanned < -1e-6 * wall:
        raise RuntimeError("span self times %.6f s do not add up to rooted time %.6f s (wall %.6f s)"
                           % (total_self, rooted, wall))
    # the factor the reference clock applied to the traced passes, shared by
    # all spans so that the parts still add up to the whole
    scale = sum(sum(rec.job_ref_s) for rec in records) / wall / passes
    m = {}
    for name in SPAN_NAMES:
        calls_key = "rational.ExtQ.ops" if name == "rational.ExtQ" else name + ".calls"
        m[calls_key] = (calls.get(name, 0) / passes, "count")
        m[name + ".self_s"] = (self_s.get(name, 0.0) * scale, "s")
    bits = [_operand_bits(rows) for rows in obs.rref_samples]
    m["projective.rref.operand_bits_p50"] = (statistics.median(bits) if bits else 0, "bits")
    m["mesh.step.points_added"] = (obs.points_added / passes, "count")
    m["mesh.step.out_bits_p50"] = (statistics.median(step_bits) if step_bits else 0, "bits")
    m["mesh.check_relations.instances"] = (
        sum(rec.relations_instances for rec in records) / passes, "count")
    m["mesh.check_menelaus.instances"] = (
        sum(rec.menelaus_instances for rec in records) / passes, "count")
    m["yvars.check_eqmain.count_ratio"] = (_ratio(
        sum(rec.eqmain_library for rec in records),
        sum(rec.eqmain_enumerated for rec in records)), "ratio")
    m["yvars.y_of.useful_ratio"] = (_ratio(len(obs.y_bases), calls.get("yvars.y_of", 0)), "ratio")
    m["filtration.circuit_members.calls"] = (
        tracer.counts.get("filtration.circuit_members", 0) / passes, "count")
    m["quiver.arrow_classes_p50"] = (
        statistics.median(obs.arrow_classes) if obs.arrow_classes else 0, "count")
    m["trace.wall_s"] = (wall * scale, "s")
    m["trace.unspanned_s"] = (unspanned * scale, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_ratio"] = (_ratio(wall * scale, untraced_wall), "ratio")
    m["trace.spans"] = (len(tracer) / passes, "count")
    m["trace.ref_kernel_s"] = (statistics.median(ref for rec in records for ref in rec.clock.refs), "s")
    return m
