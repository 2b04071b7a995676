"""Benchmark of the qstokes package; run it with perfbench/run.py."""
