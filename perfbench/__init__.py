"""The repository benchmark: four seeded request workloads driven through
the public API, with end-to-end metrics and a traced per-layer breakdown.

Run it from the repository root::

    python3 perfbench/run.py --workload identity-mid-n --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metric definitions and
the host facts that fix the numbers.
"""
