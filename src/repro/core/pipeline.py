"""The stepped pipeline skeleton and the PODS'16 procedure that runs on it.

Every tester here is the same "few bins are enough" reduction::

    prepare → partition → learn → sieve → check → final χ² (→ escalate)

:class:`Pipeline` owns that control flow once: argument validation, input
normalisation, the regime decision (:func:`regime`), the per-stage log and
sample ledger, the open χ² handle, the escalation loop, abort and exit.  A
:class:`Procedure` supplies only what differs between decision rules: its
budget, its degenerate-regime behaviour, the learner's sample count and
streams, sieve and check, the final plan, draw, statistics and decide rule,
and its verdict type.  Three procedures run on the skeleton:

* :class:`Pods16` (here) — Algorithm 1 of the source paper;
* ``CDKL22`` (:mod:`repro.core.backends.cdkl22`) — testing by learning;
* ``DKN17`` (:mod:`repro.core.closeness`) — two-sample closeness.

Procedures are stateless singletons: per-run state (learned histograms,
sieve results, oracles) lives on the pipeline instance they are handed, so
one procedure object serves every session of a service.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.core.budget import algorithm1_budget
from repro.core.chi2 import Chi2Result, active_mask, median_interval_statistics
from repro.core.config import TesterConfig
from repro.core.learner import learn_histogram
from repro.core.partition import approx_partition
from repro.core.sieve import SieveResult, sieve_intervals
from repro.distributions.histogram import Histogram
from repro.distributions.sampling import PairedSampleSource, SampleSource
from repro.observability.ledger import SampleLedger
from repro.observability.trace import Tracer
from repro.util.intervals import Partition
from repro.util.rng import RandomState


def regime(n: int, k: int, eps: float, config: TesterConfig, *, task: str = "identity") -> str:
    """Which regime an ``(n, k, ε)`` instance runs in — decided only here.

    * ``"trivial"`` — nothing to test: for identity ``k ≥ n`` (``H_k`` is
      all of ``Δ([n])``), for closeness ``n = 1``.
    * ``"degenerate"`` — ``2b + 2 ≥ n/2`` with ``b = Θ(k log k/ε)``: the
      adaptive partition would be almost all singletons, so the reduction
      buys nothing and the procedure falls back (plug-in for identity, the
      singleton partition for closeness).
    * ``"main"`` — the reduction runs and its budget formula applies.

    Ledger caps and serve admission prices branch on the result.
    """
    if n <= 1 or (task == "identity" and k >= n):
        return "trivial"
    if 2.0 * config.partition_b(k, eps) + 2.0 >= n / 2.0:
        return "degenerate"
    return "main"


def as_task_source(inputs: tuple, rng: RandomState) -> SampleSource | PairedSampleSource:
    """The input normalisation every procedure shares.

    ``(dist,)`` becomes a :class:`SampleSource`; ``(p, q)`` becomes a
    :class:`PairedSampleSource`, and ``(pair, None)`` passes a ready-made pair
    through.  Input that already owns its stream(s) — a source, a pair, or
    two sources — refuses ``rng`` with the same error for either task: the
    seed could only be dropped, making differently seeded calls identical.
    """
    if len(inputs) == 2:
        p, q = inputs
        if isinstance(p, PairedSampleSource):
            if q is not None:
                raise ValueError("q must be None when p is already a PairedSampleSource")
            inputs = (p,)
        elif q is None:
            raise ValueError("closeness testing needs two distributions")
    owned = all(isinstance(x, (SampleSource, PairedSampleSource)) for x in inputs)
    if owned and rng is not None:
        kind = "PairedSampleSource" if isinstance(inputs[0], PairedSampleSource) else "SampleSource"
        raise ValueError(f"cannot reseed an existing {kind}")
    if len(inputs) == 2:
        return PairedSampleSource(inputs[0], inputs[1], rng)
    return inputs[0] if owned else SampleSource(inputs[0], rng)


@dataclass(frozen=True)
class Verdict:
    """The identity tester's decision, with a full audit trail."""

    accept: bool
    stage: str  # "trivial" | "sieve" | "check" | "chi2" | "plugin"
    reason: str
    samples_used: int
    k: int
    eps: float
    partition: Optional[Partition] = None
    learned: Optional[Histogram] = None
    sieve: Optional[SieveResult] = None
    chi2: Optional[Chi2Result] = None
    #: Integer samples drawn per executed stage; sums *exactly* to
    #: ``samples_used`` (ledger-reconciled on every exit path).
    stage_samples: dict = field(default_factory=dict)
    #: Wall-clock seconds per stage (partition/learn/sieve/check/chi2),
    #: recorded with ``time.perf_counter``; purely observational — no
    #: decision depends on it.
    stage_timings: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.accept


@dataclass(frozen=True)
class FinalTestPlan:
    """Everything a batched executor needs for one session's final test.

    ``reference_pmf`` is the one-sample χ² reference (``None`` for the
    paired closeness statistic).  ``stage`` counts escalations: when a
    procedure escalates, the pipeline's *current* plan (exposed as
    :attr:`Pipeline.final_plan`) is replaced with a stage-1 copy at the
    larger ``m`` — a batch executor must re-read it before re-drawing.
    """

    m: float
    repeats: int
    eps_final: float
    reference_pmf: Optional[np.ndarray]
    mask: np.ndarray
    stage: int = 0


@dataclass(frozen=True)
class Decision:
    """A procedure's final-test decision, before the skeleton records it.

    The verdict reason reads ``"{label} {statistic}{note} <=|> threshold
    {threshold}"``; ``attrs`` are extra attributes for the chi2 span.
    """

    statistic: float
    threshold: float
    label: str
    note: str = ""
    attrs: dict = field(default_factory=dict)


class _StageHandle:
    """An open stage: pairs the trace span with the draw/clock marks."""

    __slots__ = ("name", "cm", "span", "mark", "tick")

    def __init__(self, name: str, cm, span, mark: int, tick: float) -> None:
        self.name = name
        self.cm = cm
        self.span = span
        self.mark = mark
        self.tick = tick


class _StageLog:
    """Per-stage accounting shared by the verdict, the trace and the ledger.

    One stage (opened with :meth:`begin`/:meth:`end`, or the :meth:`stage`
    context manager wrapping them) records the integer draw count and
    wall-clock duration into the verdict's dicts, enters the draws into the
    sample ledger, and closes a trace span carrying the same numbers — a
    single source of truth for all three views.  The explicit begin/end
    form exists for the stepped pipeline, where a stage stays open across
    several calls (the batched final test).
    """

    def __init__(self, source, trace: Tracer, ledger: SampleLedger) -> None:
        self._source = source
        self._trace = trace
        self._ledger = ledger
        self.stage_samples: dict[str, int] = {}
        self.stage_timings: dict[str, float] = {}

    def begin(self, name: str, **attrs: object) -> _StageHandle:
        mark = self._source.samples_drawn
        tick = time.perf_counter()
        cm = self._trace.span(name, **attrs)
        span = cm.__enter__()
        return _StageHandle(name, cm, span, mark, tick)

    def end(self, handle: _StageHandle) -> None:
        try:
            drew = self._source.samples_drawn - handle.mark
            handle.span.set(samples=drew)
            self.stage_samples[handle.name] = drew
            self.stage_timings[handle.name] = time.perf_counter() - handle.tick
            self._ledger.record(handle.name, drew)
        finally:
            handle.cm.__exit__(None, None, None)

    @contextmanager
    def stage(self, name: str, **attrs: object) -> Iterator[object]:
        handle = self.begin(name, **attrs)
        try:
            yield handle.span
        finally:
            self.end(handle)


def _finish(trace: Tracer, ledger: SampleLedger, samples_used: int) -> int:
    """Reconcile the ledger against the source's counter and emit the audit
    event.  Raises ``LedgerError`` on any leak/double-count/cap overrun."""
    total = ledger.reconcile(samples_used)
    trace.event("ledger", **ledger.as_attrs())
    return total


class Procedure:
    """One decision rule on the :class:`Pipeline` skeleton.

    Hooks receive the pipeline (``pipe``) and read or write its run state;
    hooks that can reject return the reason string, ``None`` to continue.

    * ``budget(n, k, eps, config=None)`` — worst-case sample usage;
      ``ledger_cap(pipe)`` — the run's ledger cap (``None``: uncapped).
    * ``trivial_reason(pipe)`` — the trivial-regime verdict's reason.
    * ``degenerate(pipe)`` — decide the degenerate regime outright
      (``(accept, reason)``, logged as the ``plugin`` stage) or fix the
      partition and return ``None``.
    * ``partition_source(pipe)`` — the stream ``APPROXPART`` draws from;
      ``learn(pipe)`` — the learner's sample count and streams.
    * ``sieve(pipe)`` — opens its own stage through :meth:`Pipeline.stage`
      (a procedure may have none); ``check(pipe, span)`` runs inside the
      check stage.
    * ``final_plan(pipe)``, ``draw(pipe, plan)`` and ``statistics(pipe,
      plan, counts)`` — the final test's :class:`FinalTestPlan`, counts and
      per-interval statistics (the serial path).
    * ``decide(pipe, plan, z)`` — a :class:`Decision`, or an escalated
      :class:`FinalTestPlan` to redraw under.
    * ``verdict(pipe, **fields)`` — the verdict, from the skeleton's fields.
    """

    name: str
    #: ``"identity"`` or ``"closeness"`` — selects the trivial regime.
    task: str = "identity"


class Pipeline:
    """Stepped (batch-first) execution of one procedure over one input.

    Stepping protocol — each boundary is a point where a multiplexing
    service may interleave other sessions::

        verdict = pipeline.run_to_final()      # prepare … check, open chi2
        while verdict is None:                 # a procedure may escalate
            plan = pipeline.final_plan
            counts = pipeline.draw_final_counts()
            z = <per-interval statistics of counts under plan>
            verdict = pipeline.finish_final_test(z)

    :meth:`run_to_final` is ``prepare``, ``run_partition``, ``run_learn``,
    ``run_sieve``, ``run_check`` and ``begin_final_test`` in order, each
    also callable on its own.  The statistics step takes *pre-drawn*
    counts, so a batch executor can stack many sessions' count matrices and
    compute them in one vectorized call — bit-identical to the serial path,
    because the arithmetic is elementwise.

    Every verdict path reconciles the per-run ledger exactly.  A caller
    that abandons a pipeline mid-flight (stream failure, timeout, budget
    overrun) must call :meth:`abort` so the partial draws of any open stage
    land in the ledger and the reconciliation still balances.
    """

    __test__ = False  # "Test"-named product subclasses; not a pytest suite

    def __init__(
        self,
        procedure: Procedure,
        inputs: tuple,
        k: int,
        eps: float,
        *,
        config: TesterConfig | None,
        rng: RandomState,
        trace: Tracer,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        self.procedure = procedure
        self.k = k
        self.eps = eps
        self.config = config if config is not None else TesterConfig.practical()
        self.trace = trace
        self.source = as_task_source(inputs, rng)
        self.n = self.source.n
        self.start = self.source.samples_drawn
        self.regime: str | None = None
        self.partition: Partition | None = None
        self.b: float | None = None
        self._ledger: SampleLedger | None = None
        self._log: _StageLog | None = None
        self._final: _StageHandle | None = None
        self._plan: FinalTestPlan | None = None

    # -- stepped stages -------------------------------------------------------

    def prepare(self):
        """Decide the regime and set up the ledger.

        Returns a short-circuit verdict for the trivial regime and for a
        procedure that decides the degenerate regime outright, ``None`` when
        the stages should run.
        """
        n, k, eps = self.n, self.k, self.eps
        self.regime = regime(n, k, eps, self.config, task=self.procedure.task)
        if self.regime == "trivial":
            self._open_ledger(None)
            reason = self.procedure.trivial_reason(self)
            return self._exit(accept=True, stage="trivial", reason=reason)
        self.b = self.config.partition_b(k, eps)
        self._open_ledger(self.procedure.ledger_cap(self))
        if self.regime == "degenerate":
            decided = self.procedure.degenerate(self)
            if decided is not None:
                accept, reason = decided
                return self._exit(accept=accept, stage="plugin", reason=reason)
        return None

    def _open_ledger(self, budget_cap: int | None) -> None:
        self._ledger = SampleLedger(budget_cap=budget_cap)
        self._log = _StageLog(self.source, self.trace, self._ledger)

    def stage(self, name: str, **attrs: object):
        """Open a logged stage (context manager yielding its span) — for
        procedures whose stage the skeleton does not open itself."""
        return self._log.stage(name, **attrs)

    def run_partition(self) -> None:
        """Stage 1: ``APPROXPART`` [line 3].  A degenerate-regime run keeps
        the partition its procedure fixed and opens no stage."""
        if self.regime == "degenerate":
            return
        with self._log.stage("partition", b=int(self.b)) as span:
            self.partition = approx_partition(
                self.procedure.partition_source(self),
                self.b,
                self.config.partition_samples(self.k, self.eps),
            )
            span.set(intervals=len(self.partition))

    def run_learn(self) -> None:
        """Stage 2: the Lemma 3.5 χ² learner [line 4] on the partition."""
        if self.regime == "degenerate":
            return
        with self._log.stage("learn"):
            self.procedure.learn(self)

    def run_sieve(self):
        """Stage 3: the procedure's sieve [lines 6–8]; returns a rejecting
        verdict or None."""
        reason = self.procedure.sieve(self)
        if reason is not None:
            return self._exit(accept=False, stage="sieve", reason=reason)
        return None

    def run_check(self):
        """Stage 4: the check [line 10]; returns a rejecting verdict or None.

        Sample-free, but logged like every other stage so the per-stage
        views cover all executed work on all exit paths.
        """
        if self.regime == "degenerate":
            return None
        with self._log.stage("check") as span:
            reason = self.procedure.check(self, span)
        if reason is not None:
            return self._exit(accept=False, stage="check", reason=reason)
        return None

    # -- stage 5: final test [line 13], stepped -------------------------------

    def begin_final_test(self) -> FinalTestPlan:
        """Fix the final test's parameters and open the chi2 stage."""
        self._plan = self.procedure.final_plan(self)
        self._final = self._log.begin("chi2")
        return self._plan

    def draw_final_counts(self):
        """Draw the counts for the *current* plan.

        This is the only sampling step of the final test — the step where
        stream faults, deadline overruns, and budget exhaustion surface.
        """
        return self.procedure.draw(self, self._plan)

    def finish_final_test(self, z_per_interval: np.ndarray):
        """Threshold the (externally computed) statistics into a verdict.

        Returns ``None`` when the procedure escalates: :attr:`final_plan` is
        replaced with a stage-1 copy at a larger ``m`` and the caller must
        draw fresh counts, recompute statistics, and call again (the chi2
        stage stays open, so ledger accounting spans every batch).
        """
        z_per_interval = np.asarray(z_per_interval, dtype=np.float64)
        plan = self._plan
        handle = self._final
        decision = self.procedure.decide(self, plan, z_per_interval)
        if isinstance(decision, FinalTestPlan):
            self._plan = decision
            return None
        chi2 = Chi2Result(
            accept=decision.statistic <= decision.threshold,
            statistic=decision.statistic,
            threshold=decision.threshold,
            m=plan.m,
            interval_statistics=z_per_interval,
            samples_used=self.source.samples_drawn - handle.mark,
        )
        handle.span.set(
            statistic=chi2.statistic,
            threshold=chi2.threshold,
            accept=chi2.accept,
            **decision.attrs,
        )
        self._final = None
        self._log.end(handle)
        reason = (
            f"{decision.label} {chi2.statistic:.4g}{decision.note} "
            f"{'<=' if chi2.accept else '>'} threshold {chi2.threshold:.4g}"
        )
        return self._exit(accept=chi2.accept, stage="chi2", reason=reason, chi2=chi2)

    @property
    def final_plan(self) -> FinalTestPlan | None:
        """The *current* final-test plan — re-read after every
        ``finish_final_test`` returning ``None``, since escalation replaces
        it with a larger-``m`` stage-1 copy."""
        return self._plan

    @property
    def final_in_flight(self) -> bool:
        """True between ``begin_final_test`` and its finish/close — i.e. the
        learn/sieve/check prefix already passed (degradation policy hook)."""
        return self._final is not None

    def close_final_test(self) -> None:
        """Close an open chi2 stage without a verdict (failure path): the
        partial draws are recorded so the ledger can still reconcile."""
        if self._final is not None:
            handle, self._final = self._final, None
            self._log.end(handle)

    def abort(self) -> int:
        """Abandon the pipeline mid-flight and reconcile what was drawn.

        Closes any open final-test stage, then demands the usual exact
        integer reconciliation over every stage the attempt executed
        (partial draws included — stages record in ``finally``).  Returns
        the attempt's reconciled sample total.
        """
        self.close_final_test()
        samples = self.source.samples_drawn - self.start
        if self._ledger is None:
            return samples  # failed before prepare(): nothing was drawn
        return _finish(self.trace, self._ledger, samples)

    # -- drivers --------------------------------------------------------------

    def run_to_final(self):
        """Run every stage up to the final test; returns an early verdict,
        or ``None`` with the chi2 stage open and :attr:`final_plan` set."""
        verdict = self.prepare()
        if verdict is None:
            self.run_partition()
            self.run_learn()
            verdict = self.run_sieve()
        if verdict is None:
            verdict = self.run_check()
        if verdict is None:
            self.begin_final_test()
        return verdict

    def run(self):
        """Run every stage in order (the single-call driver)."""
        verdict = self.run_to_final()
        while verdict is None:
            plan = self._plan
            try:
                counts = self.draw_final_counts()
                z = self.procedure.statistics(self, plan, counts)
            except BaseException:
                self.close_final_test()
                raise
            verdict = self.finish_final_test(z)
        return verdict

    def _exit(self, accept: bool, stage: str, reason: str, chi2: Chi2Result | None = None):
        samples_used = _finish(self.trace, self._ledger, self.source.samples_drawn - self.start)
        return self.procedure.verdict(
            self,
            accept=accept,
            stage=stage,
            reason=reason,
            samples_used=samples_used,
            k=self.k,
            eps=self.eps,
            partition=self.partition,
            chi2=chi2,
            stage_samples=dict(self._log.stage_samples),
            stage_timings=dict(self._log.stage_timings),
        )


class Pods16(Procedure):
    """Algorithm 1 of the source paper: partition → learn (ε/40) → sieve →
    yes/no Step-10 check → final χ² against ``D̂`` on the kept domain at
    ``ε' = 13ε/30``.  Runs on a :class:`~repro.core.tester.TesterPipeline`
    (``pipe.learned``, ``pipe.sieve``, the check oracle and engine)."""

    name = "pods16"

    def budget(self, n, k, eps, config=None):
        return algorithm1_budget(n, k, eps, config)

    def ledger_cap(self, pipe):
        if pipe.regime == "degenerate":
            return None  # the plug-in draws Θ(n), outside the budget formula
        return int(math.ceil(self.budget(pipe.n, pipe.k, pipe.eps, pipe.config)))

    def trivial_reason(self, pipe):
        return f"k={pipe.k} >= n={pipe.n}: every distribution is an n-histogram"

    def degenerate(self, pipe):
        # k·log k/ε = Ω(n): Algorithm 1's budget exceeds the trivial one.
        # The paper's efficiency case is k = o(n) (Section 1.1: "one can
        # always … compute the closest histogram offline from O(n) data
        # points"); do exactly that here.
        from repro.baselines.learn_offline import learn_offline_test

        with pipe.stage("plugin"):
            plugin = learn_offline_test(pipe.source, pipe.k, pipe.eps)
        return plugin.accept, (
            f"b={pipe.b:.0f} ~ n={pipe.n}: plug-in fallback; empirical distance "
            f"{plugin.plugin_distance:.4g} vs threshold {plugin.threshold:.4g}"
        )

    def partition_source(self, pipe):
        return pipe.source

    def learner_samples(self, pipe) -> int:
        return pipe.config.learner_samples(len(pipe.partition), pipe.eps)

    def learn(self, pipe):
        pipe.learned = learn_histogram(
            pipe.source, pipe.partition, self.learner_samples(pipe), pipe.trace
        )

    def sieve(self, pipe):
        with pipe.stage("sieve") as span:
            if pipe.config.sieve_enabled:
                pipe.sieve = sieve_intervals(
                    pipe.source, pipe.learned, pipe.k, pipe.eps, pipe.config, pipe.trace
                )
            else:
                # Ablation mode (E15): keep everything; the breakpoint intervals'
                # chi2 mass flows straight into the final test.
                pipe.sieve = SieveResult.keep_all(
                    len(pipe.partition), "sieve disabled by configuration"
                )
            span.set(
                rounds=pipe.sieve.rounds,
                removed=pipe.sieve.num_removed,
                rejected=pipe.sieve.rejected,
            )
        return pipe.sieve.reason if pipe.sieve.rejected else None

    def check(self, pipe, span):
        tolerance = pipe.config.check_tolerance(pipe.eps)
        close = pipe.check_oracle(
            pipe.learned.to_pmf(),
            pipe.partition,
            pipe.k,
            pipe.sieve.kept,
            tolerance,
            engine=pipe.engine,
        )
        span.set(close=bool(close))
        if close:
            return None
        return (
            f"no k-histogram within {tolerance:.4g} "
            "of the learned distribution on the kept domain"
        )

    def chi2_plan(self, pipe, eps_final: float, reference: np.ndarray, within) -> FinalTestPlan:
        """The χ² plan against ``reference`` on its ``A_ε`` (∩ ``within``)."""
        config = pipe.config
        return FinalTestPlan(
            m=config.chi2_samples(pipe.n, eps_final),
            repeats=config.chi2_repeat_count(pipe.k),
            eps_final=eps_final,
            reference_pmf=reference,
            mask=active_mask(reference, eps_final, config.chi2_truncation, within),
        )

    def final_plan(self, pipe):
        kept_points = pipe.partition.restrict_mask(list(np.flatnonzero(pipe.sieve.kept)))
        eps_final = pipe.config.final_eps(pipe.eps)
        return self.chi2_plan(pipe, eps_final, pipe.learned.to_pmf(), kept_points)

    def draw(self, pipe, plan):
        # The per-repeat loop is deliberate: batching the draws would change
        # the RNG call sequence and so every replayed verdict.
        return np.stack(
            [pipe.source.draw_counts_poissonized(plan.m) for _ in range(plan.repeats)]
        )

    def statistics(self, pipe, plan, counts):
        return median_interval_statistics(
            counts, plan.m, plan.reference_pmf, pipe.partition, plan.mask
        )

    def decide(self, pipe, plan, z):
        threshold = pipe.config.chi2_accept_fraction * plan.m * plan.eps_final * plan.eps_final
        return Decision(float(z.sum()), threshold, "final χ² statistic")

    def verdict(self, pipe, **fields):
        return Verdict(learned=pipe.learned, sieve=pipe.sieve, **fields)


PODS16 = Pods16()
