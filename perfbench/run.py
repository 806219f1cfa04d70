#!/usr/bin/env python3
"""Benchmark of the ymesh library.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``).  One workload runs in this process and thread as a closed loop
with one caller: each job starts when the previous one has ended, and passes
over the workload's fixed job list repeat while another pass fits in
``--seconds`` (at least one pass runs).  Job inputs come from ``--seed``
only.  Workloads are described in ``perfbench/workloads.py``.

Set-up (imports, job list, warm-up) is repeated SETUP_REPS times and its
median reported.  Times are seconds at a reference CPU speed: raw seconds
scaled by a reference kernel timed beside them (``perfbench/clock.py``); the
report also prints the raw wall time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes, reports the per-layer metrics and writes
the spans to ``.bench_out/``.  A report goes to standard output, and its last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output was correct, 1 on a wrong
result, 2 when the library cannot be found.

Tests of the benchmark itself: ``python3 -m pytest perfbench``.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import types
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, ROOT)

from perfbench import clock, layers, spans, workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
LIBRARY_MODULES = ("rational", "projective", "pins", "filtration", "mesh", "yvars",
                   "quiver", "fractal", "zoo")
SETUP_REPS = 5


def load_library():
    """Import the library afresh (set-up is timed from a cold import)."""
    for name in [m for m in sys.modules if m == "ymesh" or m.startswith("ymesh.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return types.SimpleNamespace(**{m: importlib.import_module("ymesh." + m) for m in LIBRARY_MODULES})


def set_up(workload, seed):
    """Set up SETUP_REPS times; returns the library, the job list and the
    median set-up seconds at the reference speed."""
    times = []
    for _ in range(SETUP_REPS):
        ref_before = clock.kernel_seconds()
        t0 = perf_counter()
        lib = load_library()
        jobs = workloads.WORKLOADS[workload][0](lib, seed)
        workloads.warm_up(lib)
        raw = perf_counter() - t0
        ref = (ref_before + clock.kernel_seconds()) / 2
        times.append(raw * clock.REF_NOMINAL_S / ref)
    return lib, jobs, statistics.median(times)


def run_passes(lib, workload, jobs, budget, t_start, tracer=None, probe=False, at_most=None):
    """Passes over the job list while the next one is expected to end
    within budget seconds of t_start; at least one."""
    records, took = [], []
    while True:
        t0 = perf_counter()
        records.append(workloads.run_pass(lib, workload, jobs, tracer, probe and not records))
        took.append(perf_counter() - t0)
        if at_most and len(records) >= at_most:
            break
        if perf_counter() - t_start + statistics.median(took) > budget:
            break
    return records


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    (n - 10)-th smallest value and its percentile."""
    xs = sorted(values)
    k = len(xs) - 10
    if k < 1:
        raise ValueError("a tail needs at least 11 samples, got %d" % len(xs))
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(records, setup_s):
    """End-to-end metrics and the figures the report prints beside them."""
    first = records[0]
    wall = statistics.median(sum(rec.job_ref_s) for rec in records)
    raw_wall = statistics.median(sum(rec.job_s) for rec in records)
    per_job = [statistics.median(rec.job_ref_s[k] for rec in records) for k in range(len(first.job_s))]
    refs = [ref for rec in records for ref in rec.clock.refs]
    tail_s, tail_pct = tail(per_job)
    attempted = sum(rec.attempted for rec in records)
    failed = sum(len(rec.failures) for rec in records)
    checked = sum(rec.checked for rec in records)
    skipped = sum(rec.skipped for rec in records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "instances_per_s": (first.instances / wall, "1/s"),
        "job_p50_s": (statistics.median(per_job), "s"),
        "job_tail_s": (tail_s, "s"),
        "ok_ops_ratio": (1.0 - failed / attempted, "ratio"),
        "checked_ratio": (checked / (checked + skipped), "ratio"),
        "height_p50_bits": (statistics.median(first.heights), "bits"),
        "height_max_bits": (max(first.heights), "bits"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = {
        "wall_s": "at reference speed; raw %.3f s, reference kernel p50 %.5f s (nominal %.5f s)"
                  % (raw_wall, statistics.median(refs), clock.REF_NOMINAL_S),
        "job_tail_s": "p%.1f of %d jobs (%d passes)" % (tail_pct, len(per_job), len(records)),
        "ok_ops_ratio": "failed_ops_ratio %.6f = %d / %d" % (failed / attempted, failed, attempted),
        "checked_ratio": "skip_ratio %.6f = %d / %d" % (skipped / (checked + skipped), skipped,
                                                         checked + skipped),
        "instances_per_s": "%d distinct instances per pass" % first.instances,
    }
    return metrics, notes


def print_report(workload, seed, records, metrics, notes):
    print("workload %s  seed %d  passes %d  jobs %d" % (workload, seed, len(records), len(records[0].job_s)))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print("  %-34s %16.6f %-6s %s" % (name, value, unit, note))
    first = records[0]
    if first.step_bits:
        curve = ["%d:%d" % (s, statistics.median(b)) for s, b in sorted(first.step_bits.items())]
        print("  height p50 bits after each step: %s" % " ".join(curve))
    for label, op, kind, message in records[0].failures:
        print("  failed op %s %s: %s: %s" % (label, op, kind, message))
    for rec in records:
        for message in rec.wrong:
            print("  WRONG %s" % message)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ymesh", "__init__.py")):
        print("error: no ymesh sources under %s; run from a source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))

    lib, jobs, setup_s = set_up(args.workload, args.seed)
    t_start = perf_counter()
    if not args.trace:
        records = run_passes(lib, args.workload, jobs, args.seconds, t_start, probe=True)
        metrics, notes = end_to_end(records, setup_s)
        print_report(args.workload, args.seed, records, metrics, notes)
    else:
        untraced = run_passes(lib, args.workload, jobs, args.seconds, t_start, probe=True, at_most=1)
        tracer = spans.Tracer()
        obs = layers.install(tracer, lib)
        traced = run_passes(lib, args.workload, jobs, args.seconds, t_start, tracer)
        step_bits = [b for bits in untraced[0].step_bits.values() for b in bits]
        metrics = layers.per_layer(tracer, obs, traced, sum(untraced[0].job_ref_s), step_bits)
        records = untraced + traced
        print_report(args.workload, args.seed, records, metrics, {})
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "spans-%s.tsv" % args.workload)
        tracer.write(path)
        print("  spans written to %s" % os.path.relpath(path, ROOT))
    correct = not any(rec.wrong for rec in records)
    attempted = sum(rec.attempted for rec in records)
    failed = sum(len(rec.failures) for rec in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
