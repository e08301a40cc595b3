"""End-to-end benchmark of the TagDM serving fleet.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the repository root; the last line
of standard output is the JSON result.  ``BENCHMARK.json`` lists the
workloads and metrics.
"""
