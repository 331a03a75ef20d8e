"""End-to-end and per-layer benchmark for the ConfValley reproduction.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` describes
the workloads, the metrics and the ground-truth checks.
"""
