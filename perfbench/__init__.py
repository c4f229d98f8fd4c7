"""Benchmark for the entswap package: four workloads, one traced run per layer.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and baseline.
"""
