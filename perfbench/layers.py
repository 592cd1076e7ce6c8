"""Per-layer metrics and the layer-share report of a traced phase.

Seconds are per op (an op is one tester call, serve session or sweep
trial) so they do not depend on how many cycles fit in the run; layers
that only some workloads reach (serve, store, worker) are reported as
shares of the phase's wall time.  Counts are per op, per serve batch or
per sweep, as their unit says.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.tracing import stage_sampling

#: The kernel ops registered in ``repro.kernels``; fixed here so the metric
#: names stay the same if an op is later removed (it then reads 0).
KERNEL_OPS = (
    "blocks.build",
    "blocks.cover_walk",
    "chi2.paired_point_terms",
    "chi2.point_terms",
    "dp.segment_first_min",
    "rank_tree.build",
    "rank_tree.interval_stats",
    "rank_tree.prefix_stats",
    "sampling.counts_from_samples",
    "serve.aggregate_rows",
)

PER_LAYER = (
    ("check.busy_s", "s/op"),
    ("check.calls", "count/op"),
    ("check.base_intervals", "count"),
    ("check.reject_share", "ratio"),
    ("projection.oracle_cost_evals", "count/op"),
    ("projection.oracle_cache_hits", "count/op"),
    ("sampling.busy_s", "s/op"),
    ("sampling.draw_calls", "count/op"),
    ("sampling.samples", "count/op"),
    ("partition.busy_s", "s/op"),
    ("learn.busy_s", "s/op"),
    ("sieve.busy_s", "s/op"),
    ("sieve.rounds", "count/op"),
    ("sieve.removed", "count/op"),
    ("sieve.reject_share", "ratio"),
    ("chi2.busy_s", "s/op"),
    ("chi2.escalations", "count/op"),
    ("kernels.busy_s", "s/op"),
    ("kernels.share", "ratio"),
    *((f"kernels.{op}.calls", "count/op") for op in KERNEL_OPS),
    *((f"kernels.{op}.share", "ratio") for op in KERNEL_OPS),
    ("serve.rounds", "count/batch"),
    ("serve.batch_size", "count"),
    ("serve.batch.share", "ratio"),
    ("serve.step.share", "ratio"),
    ("serve.check_cache_hit_ratio", "ratio"),
    ("serve.retries", "count/batch"),
    ("serve.projection_fallbacks", "count/batch"),
    ("serve.evicted", "count/batch"),
    ("store.claim.share", "ratio"),
    ("store.commit.share", "ratio"),
    ("store.txns_per_shard", "count"),
    ("worker.overhead_share", "ratio"),
    ("runner.trials", "count/sweep"),
    ("runner.evaluations", "count/sweep"),
    ("tester.busy_s", "s/op"),
    ("trace.overhead_throughput", "ratio"),
    ("trace.overhead_latency_p50", "ratio"),
)

#: Store calls made by the worker's own thread (heartbeats run beside it).
_STORE_CALLS = ("store.claim", "store.commit", "store.finished", "store.spec")


def counter_delta(before: dict, after: dict) -> dict:
    """Per-series growth of every numeric metrics-registry series."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _series(delta: dict, name: str, **labels) -> float:
    """Sum of the series of ``name`` whose labels include ``labels``."""
    total = 0.0
    for key, value in delta.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        pairs = dict(item.split("=", 1) for item in rest.rstrip("}").split(",") if item)
        if all(pairs.get(k) == str(v) for k, v in labels.items()):
            total += value
    return total


def kernel_delta(before: list, after: list) -> dict:
    """``op -> (calls, seconds)`` grown between two kernel snapshots."""
    start = {(op, kernel): (calls, secs) for op, kernel, calls, secs in before}
    out: dict = defaultdict(lambda: (0, 0.0))
    for op, kernel, calls, secs in after:
        calls0, secs0 = start.get((op, kernel), (0, 0.0))
        c, s = out[op]
        out[op] = (c + calls - calls0, s + secs - secs0)
    return out


def _sieves(verdict) -> list:
    """The sieve results a verdict carries (one stream, or both of a pair)."""
    found = [getattr(verdict, name, None) for name in ("sieve", "sieve_p", "sieve_q")]
    return [s for s in found if s is not None]


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_seconds(probe, kernels: dict) -> dict:
    """Seconds spent in each layer during the traced phase, by report row."""
    stage: dict = defaultdict(float)  # stage wall seconds from the verdicts
    inside: dict = defaultdict(float)  # the sampling seconds inside them
    for key, verdict in probe.verdicts:
        for name, seconds in verdict.stage_timings.items():
            stage[name] += seconds
        for name, seconds in stage_sampling(verdict, probe.draws.get(key, [])).items():
            inside[name] += seconds
    store = sum(probe.total(name) for name in _STORE_CALLS)
    return {
        "sampling": probe.total("sampling"),
        **{f"{name} (self)": stage[name] - inside[name] for name in ("partition", "learn", "sieve")},
        "check": stage["check"],
        "chi2 (self)": stage["chi2"] - inside["chi2"],
        "plugin (self)": stage["plugin"] - inside["plugin"],
        "kernels (inside the rows above)": sum(secs for _, secs in kernels.values()),
        "serve.step": probe.total("serve.step"),
        "serve.batch": probe.total("serve.batch"),
        "store calls": store,
        "worker overhead": probe.total("worker.run_local") - store - probe.total("worker.shard"),
        "tester (all stages)": sum(stage.values()),
    }


def layer_metrics(probe, phase, counters: dict, kernels: dict) -> dict:
    """Every :data:`PER_LAYER` metric except the two tracing overheads."""
    ops = max(1, phase.attempted)
    wall = phase.wall
    seconds = layer_seconds(probe, kernels)
    verdicts = [verdict for _, verdict in probe.verdicts]
    checks = [v for v in verdicts if "check" in v.stage_timings]
    sieved = [v for v in verdicts if "sieve" in v.stage_timings]
    draws = [span for span in probe.spans if span.name == "sampling"]
    batches = max(1, len(probe.reports))
    sweeps = max(1, probe.notes["sweeps"])
    cache = {
        result: _series(counters, "serve.check_cache", result=result)
        + _series(counters, "serve.project_cache", result=result)
        for result in ("hit", "miss")
    }

    values = {
        "check.busy_s": seconds["check"] / ops,
        "check.calls": len(checks) / ops,
        "check.base_intervals": statistics.median(
            [len(v.partition) for v in checks if v.partition is not None] or [0]
        ),
        "check.reject_share": _share(sum(v.stage == "check" for v in checks), len(checks)),
        "projection.oracle_cost_evals": _series(counters, "projection.oracle_cost_evals") / ops,
        "projection.oracle_cache_hits": _series(counters, "projection.oracle_cache_hits") / ops,
        "sampling.busy_s": seconds["sampling"] / ops,
        "sampling.draw_calls": len(draws) / ops,
        "sampling.samples": sum(span.attrs["units"] for span in draws) / ops,
        "partition.busy_s": seconds["partition (self)"] / ops,
        "learn.busy_s": seconds["learn (self)"] / ops,
        "sieve.busy_s": seconds["sieve (self)"] / ops,
        "sieve.rounds": sum(s.rounds for v in sieved for s in _sieves(v)) / ops,
        "sieve.removed": sum(s.num_removed for v in sieved for s in _sieves(v)) / ops,
        "sieve.reject_share": _share(sum(v.stage == "sieve" for v in sieved), len(sieved)),
        "chi2.busy_s": seconds["chi2 (self)"] / ops,
        "chi2.escalations": _series(counters, "tester.chi2_escalations") / ops,
        "kernels.busy_s": seconds["kernels (inside the rows above)"] / ops,
        "kernels.share": _share(seconds["kernels (inside the rows above)"], wall),
        "serve.rounds": sum(r.rounds for r in probe.reports) / batches,
        "serve.batch_size": statistics.mean(
            [span.attrs["items"] for span in probe.spans if span.name == "serve.batch"] or [0]
        ),
        "serve.batch.share": _share(seconds["serve.batch"], wall),
        "serve.step.share": _share(seconds["serve.step"], wall),
        "serve.check_cache_hit_ratio": _share(cache["hit"], cache["hit"] + cache["miss"]),
        "serve.retries": _series(counters, "serve.retries") / batches,
        "serve.projection_fallbacks": _series(counters, "serve.projection_fallbacks") / batches,
        "serve.evicted": sum(
            o.state == "EVICTED" for r in probe.reports for o in r.outcomes
        ) / batches,
        "store.claim.share": _share(probe.total("store.claim"), wall),
        "store.commit.share": _share(probe.total("store.commit"), wall),
        "store.txns_per_shard": _share(probe.notes["store.txns"], probe.notes["shards"]),
        "worker.overhead_share": _share(seconds["worker overhead"], wall),
        "runner.trials": probe.notes["trials"] / sweeps,
        "runner.evaluations": probe.notes["runner.evaluations"] / sweeps,
        "tester.busy_s": seconds["tester (all stages)"] / ops,
    }
    for op in KERNEL_OPS:
        calls, secs = kernels.get(op, (0, 0.0))
        values[f"kernels.{op}.calls"] = calls / ops
        values[f"kernels.{op}.share"] = _share(secs, wall)
    return values


#: The rows that partition a tester call's time between layers.
_STAGE_ROWS = (
    "sampling",
    "partition (self)",
    "learn (self)",
    "sieve (self)",
    "check",
    "chi2 (self)",
    "plugin (self)",
)


def predictions(workload: str, share: dict) -> list:
    """The layer-share predictions this workload can confirm or refute."""
    if workload == "identity-mid-n":
        largest = max(_STAGE_ROWS, key=share.get)
        return [
            (
                "check is the largest layer on identity-mid-n",
                largest == "check",
                f"largest is {largest} at {share[largest]:.3f} of op wall",
            )
        ]
    if workload == "closeness-large-n":
        return [
            (
                "check is under 5 % of op wall on closeness-large-n",
                share["check"] < 0.05,
                f"check is {share['check']:.4f} of op wall",
            )
        ]
    return []
