"""Benchmark harness for mmvport: workloads, worker, tracing, checks."""

WORKLOADS = ("sweep-small", "ladder-large", "laws-msharpe")
