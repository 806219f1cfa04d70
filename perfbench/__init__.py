"""Benchmark of the ymesh library: workloads, instance enumeration, height
probes and in-memory tracing.  The entry point is ``perfbench/run.py``."""
