"""The four benchmark workloads: seeded inputs, one cycle of ops, output checks.

A workload generates all of its inputs from the seed in :meth:`prepare`
(timed as set-up), then :meth:`run_cycle` drives every input through the
public API once, in a fixed order, and returns a :class:`Cycle`: per-op
latencies and sample counts, failure counts, the canonical decisions that
feed the digest, and any output-check problems.  The order and the tester
seeds are fixed, so every cycle of one invocation must reproduce the same
decisions; the runner checks that.

An *op* is one ``test_histogram``/``test_closeness`` call, one serve
session, or one tester trial inside a sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import test_closeness, test_histogram
from repro.core.backends import BACKENDS
from repro.distributed.coordinator import assemble, create_store, run_local
from repro.distributed.spec import SweepSpec
from repro.experiments.sweeps import complexity_sweep
from repro.experiments.workloads import CLOSENESS_REGISTRY, REGISTRY, make, make_pair
from repro.serve.chaos import ChaosConfig, build_requests
from repro.serve.service import ServiceConfig

from perfbench.tracing import NULL_PROBE

#: Scratch files (sweep stores, span dumps) live here, inside the checkout.
OUT_DIR = Path(__file__).resolve().parents[1] / ".perfbench_out"

#: Certified labels by registry nature; "ambiguous" instances have none.
_LABELS = {"complete": True, "close": True, "far": False}


def derive_seed(seed: int, *tags: int) -> int:
    """A 32-bit integer seed derived from the run seed and a tag path."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


@dataclass
class Cycle:
    """What one pass over a workload's inputs produced."""

    attempted: int = 0
    #: Ops that raised, were rejected or evicted, or contradicted their
    #: certified label (the ``failed_share`` numerator).
    failed: int = 0
    #: The subset that raised or contradicted a certified label.
    errors: int = 0
    latencies: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def score(self, label: "bool | None", accept: "bool | None") -> None:
        """Count one finished op against its certified label."""
        self.attempted += 1
        if label is not None and accept is not None and accept != label:
            self.failed += 1
            self.errors += 1

    def raised(self, what: str, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors += 1
        self.decisions.append([what, "raised", type(exc).__name__])

    def digest(self) -> str:
        text = json.dumps(self.decisions, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class TesterOp:
    """One tester call: the instance, its certified label and its seed."""

    k: int
    backend: str
    label: "bool | None"
    seed: int
    p: object
    q: object = None


class IdentityWorkload:
    """``test_histogram`` over complete, certified-far and ambiguous
    instances, alternating the pods16 and cdkl22 backends."""

    name = "identity-mid-n"
    eps = 0.25
    families = (
        "staircase",
        "random-histogram",
        "spiky-histogram",
        "paninski",
        "sawtooth-uniform",
        "zipf",
    )

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.ns = (2_000, 5_000) if smoke else (10_000, 100_000)
        self.ks = (4, 8) if smoke else (8, 16, 32)
        self.ops: list[TesterOp] = []

    def prepare(self) -> None:
        ops = []
        for n in self.ns:
            for k in self.ks:
                for index, family in enumerate(self.families):
                    try:
                        dist = make(family, n, k, self.eps, rng=derive_rng(self.seed, 1, n, k, index))
                    except ValueError:
                        continue  # the far construction does not exist at this (n, k, ε)
                    label = _LABELS.get(REGISTRY[family].nature)
                    for backend in BACKENDS:
                        seed = derive_seed(self.seed, 2, len(ops))
                        ops.append(TesterOp(k, backend, label, seed, dist))
        self.ops = ops

    def warm_up(self) -> None:
        for op in self.ops[:2]:
            self._call(op)

    def _call(self, op: TesterOp):
        return test_histogram(
            op.p, op.k, self.eps, rng=np.random.default_rng(op.seed), backend=op.backend
        )

    def run_cycle(self, probe) -> Cycle:
        cycle = Cycle()
        for index, op in enumerate(self.ops):
            with probe.op(("op", index)):
                start = time.perf_counter()
                try:
                    verdict = self._call(op)
                except Exception as exc:  # an op that raises is a failed op
                    cycle.raised(f"op-{index}", exc)
                    continue
                cycle.latencies.append(time.perf_counter() - start)
                probe.verdict(verdict)
            cycle.score(op.label, verdict.accept)
            cycle.samples.append(verdict.samples_used)
            cycle.decisions.append([verdict.accept, verdict.stage, verdict.samples_used])
            self._check(index, verdict, cycle)
        return cycle

    def _check(self, index: int, verdict, cycle: Cycle) -> None:
        if verdict.samples_used != sum(verdict.stage_samples.values()):
            cycle.problems.append(f"op {index}: samples_used != sum of stage samples")


class ClosenessWorkload(IdentityWorkload):
    """``test_closeness`` on close pairs (identical staircase / random) and
    far pairs (offset combs, flattening-blind)."""

    name = "closeness-large-n"
    families = ("identical-staircase", "identical-random", "offset-combs", "flattening-blind")
    #: Tester seeds per pair, by n.  Sixteen pairs alone leave no ten ops
    #: above any tail, and equal counts at the two sizes would put the
    #: median in the gap between their latencies.
    repeats = {300_000: 3, 1_000_000: 2}

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.ns = (20_000,) if smoke else (300_000, 1_000_000)
        self.ks = (8,) if smoke else (16, 32)

    def prepare(self) -> None:
        ops = []
        for n in self.ns:
            for k in self.ks:
                for index, family in enumerate(self.families):
                    p, q = make_pair(family, n, k, self.eps, rng=derive_rng(self.seed, 1, n, k, index))
                    label = _LABELS[CLOSENESS_REGISTRY[family].nature]
                    for _ in range(self.repeats.get(n, 1)):
                        seed = derive_seed(self.seed, 2, len(ops))
                        ops.append(TesterOp(k, "dkn17", label, seed, p, q))
        self.ops = ops

    def warm_up(self) -> None:
        self._call(self.ops[0])

    def _call(self, op: TesterOp):
        return test_closeness(op.p, op.q, op.k, self.eps, rng=np.random.default_rng(op.seed))

    def _check(self, index: int, verdict, cycle: Cycle) -> None:
        super()._check(index, verdict, cycle)
        if verdict.samples_used != verdict.samples_p + verdict.samples_q:
            cycle.problems.append(f"op {index}: samples_used != samples_p + samples_q")


class ServeWorkload:
    """Batches of 48 chaos requests (mixed backends, 10 % faulty), each
    submitted up front and driven to completion by ``TesterService.run()``."""

    name = "serve-mixed-chaos"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        # Sessions that retry or escalate set the tail, and how many there
        # are depends on each batch's seed, so a cycle pools many batches.
        self.batches = 2 if smoke else 24
        self.chaos = ChaosConfig(
            sessions=12 if smoke else 48,
            n=1024 if smoke else 4096,
            k=5,
            eps=0.3,
            backend="mixed",
            fault_rate=0.1,
        )
        self.config = ServiceConfig(workers=None)
        self.requests: list[list] = []
        self.labels: list[dict] = []

    def prepare(self) -> None:
        self.requests, self.labels = [], []
        for batch in range(self.batches):
            config = dataclasses.replace(self.chaos, seed=derive_seed(self.seed, 3, batch))
            requests = build_requests(config)
            self.requests.append(requests)
            self.labels.append(
                {
                    request.request_id: _LABELS.get(
                        REGISTRY[config.workloads[i % len(config.workloads)]].nature
                    )
                    if request.faults is None
                    else None  # injected sample faults change the distribution
                    for i, request in enumerate(requests)
                }
            )
        NULL_PROBE.service(self.config)  # construction cost counts as set-up

    def warm_up(self) -> None:
        self._run_batch(0, NULL_PROBE)

    def _run_batch(self, batch: int, probe):
        service = probe.service(self.config)
        for request in self.requests[batch]:
            service.submit(request)
        return service.run()

    def run_cycle(self, probe) -> Cycle:
        cycle = Cycle()
        for batch in range(self.batches):
            with probe.op(("batch", batch)):
                report = self._run_batch(batch, probe)
            labels = self.labels[batch]
            cycle.attempted += len(report.rejections)
            cycle.failed += len(report.rejections)
            for outcome in report.outcomes:
                cycle.latencies.append(outcome.wall_seconds)
                cycle.samples.append(outcome.samples_total)
                if outcome.state == "VERDICT":
                    cycle.score(labels[outcome.request_id], outcome.accept)
                else:  # EVICTED fails; DEGRADED counts as succeeded
                    cycle.attempted += 1
                    cycle.failed += outcome.state == "EVICTED"
                if outcome.samples_total != sum(outcome.attempt_samples):
                    cycle.problems.append(
                        f"{outcome.request_id}: samples_total != sum(attempt_samples)"
                    )
            cycle.decisions.append(report.canonical_json())
        return cycle


class SweepWorkload:
    """Many-shard ``SweepSpec`` runs through ``create_store`` →
    ``run_local`` → ``assemble`` in-process."""

    name = "sweep-store"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        top, count = (256, 4) if smoke else (1536, 12)
        values = tuple(int(round(v)) for v in np.geomspace(32, top, count))
        # Each seed bisects to its own budgets, so one sweep's trial mix
        # swings the metrics; a cycle pools several seeds' sweeps.
        self.specs = [
            SweepSpec(
                axis="n",
                values=values,
                n=values[0],
                k=3,
                eps=0.3,
                trials=3 if smoke else 6,
                bisection_steps=2 if smoke else 3,
                seed=derive_seed(seed, 4, index),
            )
            for index in range(1 if smoke else 7)
        ]
        self._stores = 0
        self.reference: "str | None" = None

    def _path(self) -> Path:
        self._stores += 1
        return OUT_DIR / f"sweep-{os.getpid()}-{self._stores}.sqlite"

    @staticmethod
    def _remove(path: Path) -> None:
        for suffix in ("", "-wal", "-shm"):
            Path(str(path) + suffix).unlink(missing_ok=True)

    def prepare(self) -> None:
        path = self._path()
        create_store(path, self.specs[0], clock=time.perf_counter, resume=False).close()
        self._remove(path)

    def warm_up(self) -> None:
        """The serial reference sweep of the first spec, once per invocation
        and outside the timed phase."""
        spec = self.specs[0]
        result = complexity_sweep(
            spec.axis,
            spec.values,
            n=spec.n,
            k=spec.k,
            eps=spec.eps,
            trials=spec.trials,
            bisection_steps=spec.bisection_steps,
            rng=spec.seed,
            backend=spec.backend,
        )
        self.reference = _points(result.points)

    def run_cycle(self, probe) -> Cycle:
        cycle = Cycle()
        for index, spec in enumerate(self.specs):
            self._run_sweep(index, spec, probe, cycle)
        return cycle

    def _run_sweep(self, index: int, spec: SweepSpec, probe, cycle: Cycle) -> None:
        path = self._path()
        with probe.op(("sweep", self._stores)):
            store = create_store(path, spec, clock=time.perf_counter, resume=False)
            store = probe.store(store, time.perf_counter)
            try:
                with probe.span("worker.run_local"):
                    summary = run_local(store)
                result = assemble(store)
                rows = store.results()
                events = list(store.events())
            finally:
                store.close()
                self._remove(path)
        claimed: dict[str, float] = {}
        for event in events:
            if event["kind"] == "claim":
                claimed[event["shard_id"]] = event["at"]
            elif event["kind"] == "commit":
                cycle.latencies.append(event["at"] - claimed[event["shard_id"]])
        samples = []
        for row in rows:
            for event in row.trace:
                if event["kind"] != "event":
                    continue
                if event["name"].endswith("ledger"):
                    samples.append(event["attrs"]["total"])
                elif event["name"].endswith("trial_failure"):
                    cycle.raised(f"shard-{row.index}", RuntimeError(event["attrs"]["error"]))
        cycle.attempted += len(samples)
        cycle.samples += samples
        if summary.committed != len(spec.values):
            cycle.problems.append(f"sweep {index}: {summary.committed}/{len(spec.values)} shards committed")
        if summary.samples_total != sum(samples):
            cycle.problems.append(f"sweep {index}: worker samples_total != sum of trial ledger totals")
        probe.note("runner.evaluations", sum(p.estimate.evaluations for p in result.points))
        probe.note("shards", len(rows))
        probe.note("sweeps", 1)
        points = _points(result.points)
        if index == 0 and self.reference is not None and points != self.reference:
            cycle.problems.append(f"sweep {index}: assembled points differ from the serial complexity_sweep")
        cycle.decisions.append(points)


def _points(points) -> str:
    """Canonical text of sweep points (a string compare also equates NaNs)."""
    return json.dumps([dataclasses.asdict(point) for point in points], sort_keys=True)


WORKLOADS = {
    cls.name: cls
    for cls in (IdentityWorkload, ClosenessWorkload, ServeWorkload, SweepWorkload)
}
