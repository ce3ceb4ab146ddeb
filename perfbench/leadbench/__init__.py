"""Benchmark of the leadopt package: workloads, instrumentation and reports.

Run it through ``perfbench/run.py``; see ``perfbench/README.md``.
"""
