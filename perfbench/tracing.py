"""Spans recorded from the benchmark's side of each layer boundary.

The untraced run uses :data:`NULL_PROBE`, whose hooks do nothing.  The
traced run uses a :class:`Probe`, which, while :meth:`Probe.installed` is
active, wraps the calls the workloads make into each layer:

* sampling — the three sampling methods of ``DiscreteDistribution`` that
  every ``SampleSource`` draws through (the sources the benchmark hands in,
  and the ones serve sessions and sweep trials build from its inputs);
* serve — a ``TesterService`` subclass timing each session step, plus a
  timing wrapper around the service's batched final-statistics call;
* store/worker — a ``ResultsStore`` subclass timing every store call and
  counting write transactions, and a wrapper around ``run_shard``;
* runner — a wrapper around the sweep's tester call, which hands each
  trial's verdict to the probe.

Spans are kept in memory and written out by :meth:`Probe.write` at the
end.  Stage times come from the ``stage_timings`` on the verdicts the probe
collects; the sampling inside each stage is found by walking the op's
draws in order against the verdict's per-stage sample counts, which the
ledger makes integer-exact.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.distributed.store import ResultsStore
from repro.distributions.discrete import DiscreteDistribution
from repro.serve.service import TesterService

_DRAW_METHODS = ("sample", "sample_counts", "sample_counts_poissonized")


class NullProbe:
    """The untraced run's probe: every hook is a no-op."""

    def op(self, key):
        return nullcontext()

    def span(self, name: str, **attrs):
        return nullcontext()

    def verdict(self, verdict) -> None:
        pass

    def note(self, name: str, amount: float) -> None:
        pass

    def service(self, config) -> TesterService:
        return TesterService(config)

    def store(self, store: ResultsStore, clock) -> ResultsStore:
        return store


NULL_PROBE = NullProbe()


@dataclass
class Span:
    name: str
    op: object
    parent: "int | None"
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Probe(NullProbe):
    """In-memory span recorder for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: op key -> [(charged units, seconds)] in draw order.
        self.draws: "defaultdict[object, list]" = defaultdict(list)
        #: (op key, verdict) for every verdict a tester call returned.
        self.verdicts: list = []
        self.notes: Counter = Counter()
        self.reports: list = []
        self._key = None
        self._local = threading.local()
        self._services = 0

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        record = Span(name, self._key, stack[-1] if stack else None, time.perf_counter(), attrs=attrs)
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def scope(self, key):
        """Attribute draws and verdicts to ``key`` (no span of its own)."""
        previous, self._key = self._key, key
        try:
            yield
        finally:
            self._key = previous

    @contextmanager
    def op(self, key):
        with self.scope(key), self.span("op"):
            yield

    def verdict(self, verdict) -> None:
        self.verdicts.append((self._key, verdict))

    def note(self, name: str, amount: float) -> None:
        self.notes[name] += amount

    def total(self, name: str) -> float:
        """Summed seconds of every span called ``name``."""
        return sum(span.seconds for span in self.spans if span.name == name)

    # -- layer wrappers ----------------------------------------------------

    def service(self, config) -> TesterService:
        self._services += 1
        return _TracedService(config, self, self._services)

    def store(self, store: ResultsStore, clock) -> ResultsStore:
        timed = _TimedStore(store.path, self, clock=clock)
        store.close()
        return timed

    def _timed_draw(self, original):
        probe = self

        def draw(dist, m, rng=None):
            if getattr(probe._local, "drawing", False):
                return original(dist, m, rng)
            probe._local.drawing = True
            try:
                with probe.span("sampling", units=math.ceil(m)) as record:
                    return original(dist, m, rng)
            finally:
                probe._local.drawing = False
                probe.draws[record.op].append((record.attrs["units"], record.seconds))

        return draw

    def _timed_call(self, original, name: str, **attrs_of):
        probe = self

        def call(*args, **kwargs):
            attrs = {key: fn(*args) for key, fn in attrs_of.items()}
            with probe.span(name, **attrs):
                return original(*args, **kwargs)

        return call

    def _sweep_tester(self, original):
        probe = self

        def tester(*args, **kwargs):
            probe.notes["trials"] += 1
            with probe.scope(("trial", probe.notes["trials"])):
                verdict = original(*args, **kwargs)
                probe.verdict(verdict)
            return verdict

        return tester

    @contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        from repro.distributed import worker
        from repro.experiments import sweeps
        from repro.serve import service

        patches = [
            (DiscreteDistribution, name, self._timed_draw(getattr(DiscreteDistribution, name)))
            for name in _DRAW_METHODS
        ]
        patches += [
            (
                service,
                "compute_final_statistics",
                self._timed_call(
                    service.compute_final_statistics, "serve.batch", items=lambda items: len(items)
                ),
            ),
            (worker, "run_shard", self._timed_call(worker.run_shard, "worker.shard")),
            (sweeps, "test_histogram", self._sweep_tester(sweeps.test_histogram)),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as one JSON line (times relative to the first)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "op": repr(span.op),
                    "parent": span.parent,
                    "start_s": span.start - origin,
                    "end_s": span.end - origin,
                    "attrs": span.attrs,
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class _TracedService(TesterService):
    """A ``TesterService`` whose session steps are timed and attributed."""

    def __init__(self, config, probe: Probe, index: int) -> None:
        super().__init__(config)
        self._probe = probe
        self._index = index

    def _key(self, session) -> tuple:
        return ("session", self._index, session.request.request_id)

    def _step_to_final(self, session, round_index):
        with self._probe.scope(self._key(session)), self._probe.span("serve.step"):
            return super()._step_to_final(session, round_index)

    def _final_item(self, pipeline):
        session = next(s for s in self.sessions.values() if s.pipeline is pipeline)
        with self._probe.scope(self._key(session)):
            return super()._final_item(pipeline)

    def _retire_with_verdict(self, session, verdict, round_index) -> None:
        with self._probe.scope(self._key(session)):
            self._probe.verdict(verdict)
        super()._retire_with_verdict(session, verdict, round_index)

    def run(self):
        report = super().run()
        self._probe.reports.append(report)
        return report


class _TimedStore(ResultsStore):
    """A ``ResultsStore`` that times every call a worker makes and counts
    write transactions."""

    def __init__(self, path, probe: Probe, **kwargs) -> None:
        self.probe = probe
        super().__init__(path, **kwargs)

    def _txn(self):
        self.probe.notes["store.txns"] += 1
        return super()._txn()

    def claim(self, *args, **kwargs):
        with self.probe.span("store.claim"):
            return super().claim(*args, **kwargs)

    def commit(self, *args, **kwargs):
        with self.probe.span("store.commit"):
            return super().commit(*args, **kwargs)

    def heartbeat(self, *args, **kwargs):
        with self.probe.span("store.heartbeat"):
            return super().heartbeat(*args, **kwargs)

    def finished(self):
        with self.probe.span("store.finished"):
            return super().finished()

    def spec(self):
        with self.probe.span("store.spec"):
            return super().spec()


def stage_sampling(verdict, draws: list) -> dict:
    """Seconds of sampling inside each stage of ``verdict``.

    ``draws`` holds the op's ``(units, seconds)`` in draw order; when the op
    made several attempts (serve retries) only the trailing draws that add
    up to ``verdict.samples_used`` belong to the verdict's attempt.
    """
    tail, covered = [], 0
    for units, seconds in reversed(draws):
        if covered >= verdict.samples_used:
            break
        tail.append((units, seconds))
        covered += units
    tail.reverse()
    budget = [(stage, verdict.stage_samples.get(stage, 0)) for stage in verdict.stage_timings]
    budget = [(stage, units) for stage, units in budget if units > 0]
    spent = dict.fromkeys(verdict.stage_timings, 0.0)
    position, remaining = 0, budget[0][1] if budget else 0
    for units, seconds in tail:
        while remaining <= 0 and position + 1 < len(budget):
            position += 1
            remaining = budget[position][1]
        if budget:
            spent[budget[position][0]] += seconds
        remaining -= units
    return spent
