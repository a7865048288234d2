"""Benchmark of the hiera_est simulator: workloads, tracing and reports.

Run it as ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/NOTES.md``.
"""
