"""Benchmark of the repository's capacity-planning pipeline.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload from the root of a checkout.  See ``perfbench/README.md``
for the workloads, the metrics and which layer metric should move which
end-to-end metric.
"""
