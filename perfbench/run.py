"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload identity-mid-n --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the untraced run and prints the end-to-end metrics.
``--trace 1`` measures an untraced phase and then a traced phase of the
same length, and prints the per-layer metrics, the tracing overhead (the
traced phase's end-to-end metrics against the untraced ones) and the
layer-share report.  ``--smoke`` shrinks every workload for the
benchmark's own test.

Each phase runs whole cycles over the workload's inputs until ``--seconds``
have passed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an output check fails and 2 when the program under test cannot
be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: How many times set-up is repeated; ``setup_s`` reports the median.
SETUP_REPEATS = 3

#: The end-to-end metrics, in print order, with their units.
END_TO_END = (
    ("throughput_per_s", "ops/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("samples_per_op", "samples"),
    ("success_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Phase:
    """Whole cycles measured back to back, and their wall time."""

    cycles: list = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(c.attempted for c in self.cycles)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.cycles)

    @property
    def errors(self) -> int:
        return sum(c.errors for c in self.cycles)

    @property
    def latencies(self) -> list:
        return sorted(x for c in self.cycles for x in c.latencies)


def run_phase(workload, seconds: float, probe) -> Phase:
    phase = Phase()
    start, cpu = time.perf_counter(), time.process_time()
    while True:
        phase.cycles.append(workload.run_cycle(probe))
        phase.wall = time.perf_counter() - start
        phase.cpu = time.process_time() - cpu
        if phase.wall >= seconds:
            return phase


def tail_latency(latencies: list) -> "tuple[int, float]":
    """The highest whole percentile that leaves at least ten ops above it
    (nearest rank), and its value; the median below 20 ops."""
    count = len(latencies)
    percentile = max(50, min(99, (100 * (count - 10)) // count)) if count >= 20 else 50
    rank = max(1, -(-percentile * count // 100))
    return percentile, latencies[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(phase: Phase, setup_s: float) -> dict:
    latencies = phase.latencies
    return {
        "throughput_per_s": phase.attempted / phase.wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_latency(latencies)[1],
        "samples_per_op": statistics.median(s for c in phase.cycles for s in c.samples),
        "success_share": 1.0 - phase.failed / phase.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def print_end_to_end(label: str, phase: Phase, values: dict) -> None:
    percentile, _ = tail_latency(phase.latencies)
    ops = phase.attempted
    print(
        f"end-to-end ({label}): {len(phase.cycles)} cycle(s), {ops} ops, "
        f"{phase.wall:.3f} s wall, {phase.cpu:.3f} s cpu"
    )
    notes = {
        "latency_p50_s": f"over {len(phase.latencies)} latencies",
        "latency_tail_s": f"p{percentile} of {len(phase.latencies)} latencies",
        "samples_per_op": f"median over {ops} ops",
        "success_share": f"failed_share {phase.failed / ops:.4f} ({phase.failed} of {ops})",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<18} {values[name]:>16.6f} {unit:<8} {notes.get(name, f'{ops} ops')}")


def output_problems(phases: "list[Phase]") -> list:
    """Output checks shared by every workload."""
    problems = [p for phase in phases for c in phase.cycles for p in c.problems]
    digests = {c.digest() for phase in phases for c in phase.cycles}
    if len(digests) != 1:
        problems.append(f"cycles disagree: {len(digests)} distinct decision digests")
    for phase in phases:
        if phase.errors * 3 > phase.attempted:
            problems.append(
                f"{phase.errors} of {phase.attempted} ops raised or contradicted a "
                "certified label (more than the tester's 1/3 error guarantee)"
            )
    return problems


def host_facts() -> str:
    import numpy
    from repro.kernels import native_available, resolve_kernel

    return (
        f"host: cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} kernel={resolve_kernel()} "
        f"numba={'present' if native_available() else 'absent'} projection_engine=auto"
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # One client with at most two threads, on the repository's defaults.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for var in ("REPRO_KERNEL", "REPRO_WORKERS", "REPRO_BACKEND"):
        os.environ.pop(var, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    started = time.perf_counter()
    from perfbench.workloads import OUT_DIR, WORKLOADS

    import_s = time.perf_counter() - started
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)

    workload, setups = None, []
    for _ in range(SETUP_REPEATS):
        workload = None  # let the previous inputs go before building new ones
        tick = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
        workload.prepare()
        setups.append(time.perf_counter() - tick)
    setup_s = import_s + statistics.median(setups)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(host_facts())
    print(f"setup: import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
          f"{statistics.median(setups):.4f} s")

    from perfbench.tracing import NULL_PROBE

    workload.warm_up()
    untraced = run_phase(workload, args.seconds, NULL_PROBE)
    values = end_to_end(untraced, setup_s)
    print_end_to_end("untraced", untraced, values)
    phases = [untraced]
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}

    if args.trace:
        phase, layers = traced_run(workload, args, setup_s, values)
        phases.append(phase)
        metrics = layers

    problems = output_problems(phases)
    print(f"digest {args.workload} sha256={untraced.cycles[0].digest()}")
    for problem in problems:
        print(f"OUTPUT CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.errors for p in phases),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 1 if problems else 0


def traced_run(workload, args, setup_s: float, untraced: dict) -> "tuple[Phase, dict]":
    """The traced phase: per-layer metrics, tracing overhead, layer shares."""
    from repro.kernels.dispatch import kernel_seconds_snapshot
    from repro.observability.metrics import get_metrics

    from perfbench.layers import (
        PER_LAYER,
        counter_delta,
        kernel_delta,
        layer_metrics,
        layer_seconds,
        predictions,
    )
    from perfbench.tracing import Probe
    from perfbench.workloads import OUT_DIR

    probe = Probe()
    counters, kernels = get_metrics().snapshot(), kernel_seconds_snapshot()
    with probe.installed():
        phase = run_phase(workload, args.seconds, probe)
    counters = counter_delta(counters, get_metrics().snapshot())
    kernels = kernel_delta(kernels, kernel_seconds_snapshot())
    traced = end_to_end(phase, setup_s)
    print_end_to_end("traced", phase, traced)

    values = layer_metrics(probe, phase, counters, kernels)
    values["trace.overhead_throughput"] = 1.0 - traced["throughput_per_s"] / untraced["throughput_per_s"]
    values["trace.overhead_latency_p50"] = traced["latency_p50_s"] / untraced["latency_p50_s"] - 1.0
    print("per-layer (traced phase):")
    for name, unit in PER_LAYER:
        print(f"  {name:<40} {values[name]:>16.6f} {unit}")

    seconds = layer_seconds(probe, kernels)
    shares = {name: value / phase.wall for name, value in seconds.items()}
    print(f"layer shares of op wall ({phase.wall:.3f} s):")
    for name, value in seconds.items():
        print(f"  {name:<34} {value:>10.4f} s {shares[name]:>8.4f}")
    for claim, holds, detail in predictions(args.workload, shares):
        print(f"prediction: {claim}: {'HOLDS' if holds else 'DOES NOT HOLD'} ({detail})")

    spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    probe.write(spans)
    print(f"spans: {len(probe.spans)} written to {spans.relative_to(ROOT)}")
    return phase, {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
