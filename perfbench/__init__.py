"""Benchmark harness for powergraph; run it as ``python3 perfbench/run.py``."""
