#!/usr/bin/env python3
"""Measure the benchmark over several seeds and write the baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload of BENCHMARK.json: one untraced run per seed (median and
quartiles of every end-to-end metric, and the spread as a share of the
median), then one traced run on the first seed for the per-layer figures.
Records the machine, the seeds, the failed operations seen, why each workload
was chosen and which layer metric should move which end-to-end metric.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600

# which end-to-end metric each layer's metrics should move, on which
# workload, and where they should not move it
LAYER_EXPECTATIONS = {
    "projective": {
        "metrics": "calls and self_s of rref, meet_point, span, rank_of, cross_ratio, multi_ratio; "
                   "projective.rref.operand_bits_p50",
        "moves": "job_p50_s and instances_per_s on sweep; wall_s on polygon_periodic",
        "not": "quiver_period"},
    "mesh": {
        "metrics": "mesh.generate.calls/.self_s; mesh.step.calls/.self_s/.points_added/.out_bits_p50",
        "moves": "mesh.generate.self_s: job_tail_s and height_* on sweep; mesh.step.*: wall_s on sweep",
        "not": "mesh.generate.self_s: polygon_periodic, quiver_period"},
    "mesh checks": {
        "metrics": "self_s and .instances of mesh.check_relations and mesh.check_menelaus",
        "moves": "wall_s on sweep and polygon_periodic",
        "not": ""},
    "yvars": {
        "metrics": "yvars.check_eqmain.self_s/.count_ratio; yvars.y_of.calls/.self_s/.useful_ratio; "
                   "yvars.eqmain_residual.self_s",
        "moves": "wall_s and instances_per_s, mostly on polygon_periodic, less on sweep",
        "not": "quiver_period"},
    "fractal": {
        "metrics": "self_s of fractal_bases_in_window, genericity_audit, bound_check",
        "moves": "job_p50_s on sweep",
        "not": "polygon_periodic, quiver_period (absent there)"},
    "filtration": {
        "metrics": "filtration.FiltrationSpec.self_s; filtration.circuit_members.calls",
        "moves": "job_tail_s on sweep",
        "not": ""},
    "quiver": {
        "metrics": "self_s of build_qs, mutate_y, verify_period_one, check_exchange_trace, run_periodic_y; "
                   "quiver.mutate.calls/.self_s; quiver.arrow_classes_p50",
        "moves": "wall_s on quiver_period",
        "not": "sweep; only a small share of polygon_periodic"},
    "rational": {
        "metrics": "rational.ExtQ.ops and rational.ExtQ.self_s",
        "moves": "wall_s on quiver_period and polygon_periodic",
        "not": ""},
    "trace": {
        "metrics": "trace.overhead_ratio (traced wall_s / untraced wall_s)",
        "moves": "",
        "not": ""},
}


def machine():
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": model}


def run(command, workload, seed, seconds, trace):
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s%s" % (workload, seed, proc.returncode,
                                                           proc.stdout, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    failures = [line.strip()[len("failed op "):] for line in lines if line.strip().startswith("failed op ")]
    return json.loads(lines[-1]), failures


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=os.path.join("perfbench", "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seeds = parse_seeds(args.seeds)
    out = {"machine": machine(), "seeds": seeds, "run_seconds": spec["run_seconds"],
           "layer_expectations": LAYER_EXPECTATIONS, "workloads": {}}
    for w in spec["workloads"]:
        metrics, failures = {}, {}
        for seed in seeds:
            result, failed = run(spec["command"], w["name"], seed, spec["run_seconds"], 0)
            print("%s seed %d: %s" % (w["name"], seed, json.dumps(result)), file=sys.stderr, flush=True)
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            if failed:
                failures[str(seed)] = failed
        traced, _ = run(spec["command"], w["name"], seeds[0], spec["run_seconds"], 1)
        out["workloads"][w["name"]] = {
            "why": w["why"],
            "end_to_end": {name: summary(values) for name, values in metrics.items()},
            "failed_ops": failures,
            "per_layer_seed_%d" % seeds[0]: {name: m["value"] for name, m in traced["metrics"].items()},
        }
    with open(os.path.join(ROOT, args.out), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
