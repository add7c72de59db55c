"""Benchmark for the ccspace CLI and library: workloads, checks and tracing.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""
