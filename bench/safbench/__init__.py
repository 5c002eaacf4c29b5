"""Benchmark harness for safnet: workloads, tracing and result assembly.

Run it through ``bench/run.py``; importing this package starts nothing.
"""
