"""Algorithm 1 — the k-histogram tester (Theorem 3.1), end to end.

Pipeline (paper line numbers in brackets):

1. **Partition** [3]: ``APPROXPART`` with ``b = Θ(k log k / ε)``.
2. **Learn** [4]: the Lemma 3.5 χ² learner on that partition → ``D̂``.
3. **Sieve** [6–8]: discard up to ``O(k log k)`` suspect intervals via
   per-interval χ² statistics; may already reject.
4. **Check** [10]: is some ``D* ∈ H_k`` within ``ε/60`` of ``D̂`` in TV
   restricted to the kept domain ``G``? (dynamic programming).
5. **Test** [13]: the [ADK15] χ²-vs-TV tester of ``D`` against ``D̂`` on
   ``G`` with parameter ``ε' = 13ε/30``.

The tester draws samples exclusively through a
:class:`~repro.distributions.sampling.SampleSource`, so the reported
``samples_used`` is exact and auditable: every executed stage is entered in
a :class:`~repro.observability.ledger.SampleLedger`, which is reconciled —
integer equality, no tolerance — against the source's draw counter on
*every* exit path before a :class:`Verdict` is returned.
``Verdict.stage_samples`` / ``stage_timings`` are views over the same
per-stage log that feeds the trace, so a ``--trace`` run and the verdict
can never disagree.

The core is *batch-first*: :class:`TesterPipeline` exposes the stages as
individual steps so a service multiplexing many sessions
(:mod:`repro.serve`) can pause every session at the final χ² test and
compute a whole batch of per-interval statistics in one vectorized pass.
:func:`test_histogram` — the single-call API — is a thin wrapper that runs
the same steps in order, so the two paths cannot drift.

Two *backends* share this stepped skeleton (see :mod:`repro.core.backends`):
``backend="pods16"`` is Algorithm 1 verbatim as above; ``backend="cdkl22"``
is the near-optimal testing-by-learning variant — no sieve, the check stage
projects ``D̂`` onto ``H_k`` and the final χ² test runs against that
projection with a trimmed statistic and an adaptive two-stage sample
schedule (``finish_final_test`` may return ``None`` = "escalate: draw a
fresh, larger batch and call me again").
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional

import numpy as np

from repro.core.backends import DEFAULT_BACKEND, backend_budget, validate_backend
from repro.core.backends import cdkl22 as _cdkl22
from repro.core.chi2 import Chi2Result, active_mask, median_interval_statistics
from repro.core.config import TesterConfig
from repro.core.learner import learn_histogram
from repro.core.partition import approx_partition
from repro.core.sieve import SieveResult, sieve_intervals
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import Histogram
from repro.distributions.projection import (
    Projection,
    coarse_flattening_projection,
    exists_close_histogram,
    validate_engine,
)
from repro.distributions.sampling import SampleSource, as_source
from repro.observability.ledger import SampleLedger
from repro.observability.metrics import get_metrics
from repro.observability.trace import NULL_TRACER, Tracer
from repro.util.intervals import Partition
from repro.util.rng import RandomState

#: Canonical stage order of the pipeline (used by the CLI stage table and
#: trace summaries; early-exit verdicts record a prefix of it).
STAGE_ORDER = ("partition", "learn", "sieve", "check", "chi2", "plugin")

#: Signature of the Step-10 check oracle: ``(pmf, partition, k, kept,
#: tolerance, engine=...) -> bool``.  The default is the DP of
#: :func:`~repro.distributions.projection.exists_close_histogram`; the serve
#: layer injects a caching/fallback wrapper with the same signature.
CheckOracle = Callable[..., bool]

#: Signature of the cdkl22 projection oracle: ``(pmf, partition, k, kept,
#: engine=...) -> Projection``.  The default is
#: :func:`~repro.distributions.projection.coarse_flattening_projection`; the
#: serve layer injects a caching/fallback wrapper with the same signature.
ProjectOracle = Callable[..., Projection]


@dataclass(frozen=True)
class Verdict:
    """The tester's decision, with a full audit trail."""

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

    def __init__(self, source: SampleSource, trace: Tracer, ledger: SampleLedger) -> None:
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


@dataclass(frozen=True)
class FinalTestPlan:
    """Everything a batched executor needs for one session's final χ² test.

    ``backend``/``stage`` carry the cdkl22 adaptive schedule: when
    ``finish_final_test`` escalates, the pipeline's *current* plan (exposed
    as :attr:`TesterPipeline.final_plan`) is replaced with a stage-1 copy at
    the larger ``m`` — a batch executor must re-read it before re-drawing.
    """

    m: float
    repeats: int
    eps_final: float
    reference_pmf: np.ndarray
    mask: np.ndarray
    backend: str = DEFAULT_BACKEND
    stage: int = 0


class TesterPipeline:
    """Stepped (batch-first) execution of Algorithm 1 over one source.

    Stepping protocol — each boundary is a point where a multiplexing
    service may interleave other sessions::

        pipeline = TesterPipeline(dist, k, eps, config=..., trace=...)
        verdict = pipeline.prepare()            # trivial/plugin short-circuit
        if verdict is None:
            pipeline.run_partition()
            pipeline.run_learn()
            verdict = pipeline.run_sieve()      # may reject
        if verdict is None:
            verdict = pipeline.run_check()      # may reject
        if verdict is None:
            plan = pipeline.begin_final_test()
            counts = pipeline.draw_final_counts()           # (repeats, n)
            z = median_interval_statistics(
                counts, plan.m, plan.reference_pmf, pipeline.partition, plan.mask
            )
            verdict = pipeline.finish_final_test(z)

    The statistics step takes *pre-drawn* counts, so a batch executor can
    stack many sessions' count matrices and compute every session's χ²
    point terms in one vectorized call — bit-identical to the serial path,
    because the arithmetic is elementwise.

    Every verdict path reconciles the per-session ledger exactly.  A caller
    that abandons a pipeline mid-flight (stream failure, timeout, budget
    overrun) must call :meth:`abort` so the partial draws of any open stage
    land in the ledger and the reconciliation still balances.
    """

    __test__ = False  # "Test"-prefixed product class; not a pytest suite

    def __init__(
        self,
        dist: DiscreteDistribution | SampleSource,
        k: int,
        eps: float,
        *,
        config: TesterConfig | None = None,
        rng: RandomState = None,
        backend: str = DEFAULT_BACKEND,
        projection_engine: str = "auto",
        check_oracle: CheckOracle | None = None,
        project_oracle: ProjectOracle | None = None,
        trace: Tracer = NULL_TRACER,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        self.k = k
        self.eps = eps
        self.config = config if config is not None else TesterConfig.practical()
        self.backend = validate_backend(backend)
        # Validated here so a misspelling fails before any sample is drawn.
        self.engine = validate_engine(projection_engine)
        self.check_oracle = (
            check_oracle if check_oracle is not None else exists_close_histogram
        )
        self.project_oracle = (
            project_oracle if project_oracle is not None else coarse_flattening_projection
        )
        self.trace = trace
        self.source = as_source(dist, rng)
        self.n = self.source.n
        self.start = self.source.samples_drawn
        self.partition: Partition | None = None
        self.learned: Histogram | None = None
        self.sieve: SieveResult | None = None
        self._b: float | None = None
        self._ledger: SampleLedger | None = None
        self._log: _StageLog | None = None
        self._final: _StageHandle | None = None
        self._plan: FinalTestPlan | None = None
        self._reference: Projection | None = None  # cdkl22: D* ∈ H_k

    # -- admission metadata ---------------------------------------------------

    def budget_cap(self) -> int | None:
        """The backend's sample cap for this instance (``None`` when the
        trivial/plugin regimes apply and the formula does not)."""
        if self.k >= self.n:
            return 0
        b = self.config.partition_b(self.k, self.eps)
        if 2.0 * b + 2.0 >= self.n / 2.0:
            return None
        return int(backend_budget(self.backend, self.n, self.k, self.eps, self.config))

    # -- stepped stages -------------------------------------------------------

    def prepare(self) -> Verdict | None:
        """Dispatch the degenerate regimes; set up the ledger otherwise.

        Returns a short-circuit :class:`Verdict` for the trivial (``k ≥ n``)
        and plug-in (``b ≈ n``) regimes, ``None`` when the main pipeline
        should run.
        """
        n, k, eps = self.n, self.k, self.eps
        # H_k for k >= n is all of Δ([n]): accept without drawing a sample.
        if k >= n:
            ledger = SampleLedger()
            samples_used = _finish(self.trace, ledger, self.source.samples_drawn - self.start)
            return Verdict(
                accept=True,
                stage="trivial",
                reason=f"k={k} >= n={n}: every distribution is an n-histogram",
                samples_used=samples_used,
                k=k,
                eps=eps,
            )

        b = self.config.partition_b(k, eps)
        if 2.0 * b + 2.0 >= n / 2.0:
            # Degenerate regime k·log k/ε = Ω(n): the partition would be almost
            # all singletons and Algorithm 1's budget exceeds the trivial one.
            # The paper's efficiency case is k = o(n) (Section 1.1: "one can
            # always … compute the closest histogram offline from O(n) data
            # points"); do exactly that here.  The plug-in draws Θ(n) samples,
            # outside the Algorithm 1 budget formula, so its ledger is uncapped.
            from repro.baselines.learn_offline import learn_offline_test

            self._ledger = SampleLedger()
            self._log = _StageLog(self.source, self.trace, self._ledger)
            with self._log.stage("plugin"):
                plugin = learn_offline_test(self.source, k, eps)
            return self._exit(
                accept=plugin.accept,
                stage="plugin",
                reason=(
                    f"b={b:.0f} ~ n={n}: plug-in fallback; empirical distance "
                    f"{plugin.plugin_distance:.4g} vs threshold {plugin.threshold:.4g}"
                ),
            )

        self._b = b
        self._ledger = SampleLedger(
            budget_cap=int(backend_budget(self.backend, n, k, eps, self.config))
        )
        self._log = _StageLog(self.source, self.trace, self._ledger)
        return None

    def run_partition(self) -> None:
        """Stage 1: partition [line 3]."""
        with self._log.stage("partition", b=int(self._b)) as span:
            self.partition = approx_partition(
                self.source, self._b, self.config.partition_samples(self.k, self.eps)
            )
            span.set(intervals=len(self.partition))

    def run_learn(self) -> None:
        """Stage 2: learn [line 4].  The cdkl22 reduction runs the same
        learner at its coarser accuracy (``ε/16`` vs ``ε/40``) — projecting
        onto ``H_k`` needs far less precision than per-interval sieving."""
        if self.backend == "cdkl22":
            num_samples = self.config.cdkl22_learner_samples(len(self.partition), self.eps)
        else:
            num_samples = self.config.learner_samples(len(self.partition), self.eps)
        with self._log.stage("learn"):
            self.learned = learn_histogram(
                self.source, self.partition, num_samples, self.trace
            )

    def run_sieve(self) -> Verdict | None:
        """Stage 3: sieve [lines 6–8]; returns a rejecting verdict or None.

        The cdkl22 backend has no sieve stage at all — breakpoint-interval
        contamination is removed by the trimmed final statistic instead —
        so it keeps every interval without opening a stage (no span, no
        ledger entry, zero samples).
        """
        if self.backend == "cdkl22":
            self.sieve = SieveResult(
                rejected=False,
                reason="cdkl22: sieve replaced by the trimmed final statistic",
                kept=np.ones(len(self.partition), dtype=bool),
                removed=np.empty(0, dtype=np.int64),
                rounds=0,
                samples_used=0,
                final_statistic=float("nan"),
            )
            return None
        with self._log.stage("sieve") as span:
            if self.config.sieve_enabled:
                self.sieve = sieve_intervals(
                    self.source, self.learned, self.k, self.eps, self.config, self.trace
                )
            else:
                # Ablation mode (E15): keep everything; the breakpoint intervals'
                # chi2 mass flows straight into the final test.
                self.sieve = SieveResult(
                    rejected=False,
                    reason="sieve disabled by configuration",
                    kept=np.ones(len(self.partition), dtype=bool),
                    removed=np.empty(0, dtype=np.int64),
                    rounds=0,
                    samples_used=0,
                    final_statistic=float("nan"),
                )
            span.set(
                rounds=self.sieve.rounds,
                removed=self.sieve.num_removed,
                rejected=self.sieve.rejected,
            )
        if self.sieve.rejected:
            return self._exit(accept=False, stage="sieve", reason=self.sieve.reason)
        return None

    def run_check(self) -> Verdict | None:
        """Stage 4: check [line 10]; returns a rejecting verdict or None.

        Sample-free (pure DP over the learned pmf), but logged like every
        other stage so the per-stage views cover all executed work on all
        exit paths.

        pods16 asks the yes/no Step-10 question against ``D̂``.  cdkl22
        computes the actual projection ``D* ∈ H_k`` (the testing-by-learning
        gate): reject sample-free when ``D̂`` is far from ``H_k``, otherwise
        keep ``D*`` as the final test's reference.
        """
        if self.backend == "cdkl22":
            return self._run_check_cdkl22()
        with self._log.stage("check") as span:
            close = self.check_oracle(
                self.learned.to_pmf(),
                self.partition,
                self.k,
                self.sieve.kept,
                self.config.check_tolerance(self.eps),
                engine=self.engine,
            )
            span.set(close=bool(close))
        if not close:
            return self._exit(
                accept=False,
                stage="check",
                reason=(
                    f"no k-histogram within {self.config.check_tolerance(self.eps):.4g} "
                    "of the learned distribution on the kept domain"
                ),
            )
        return None

    def _run_check_cdkl22(self) -> Verdict | None:
        tolerance = self.config.cdkl22_check_tolerance(self.eps)
        with self._log.stage("check") as span:
            projection = self.project_oracle(
                self.learned.to_pmf(),
                self.partition,
                self.k,
                self.sieve.kept,
                engine=self.engine,
            )
            self._reference = projection
            close = projection.distance <= tolerance
            span.set(close=bool(close), distance=float(projection.distance))
        if not close:
            return self._exit(
                accept=False,
                stage="check",
                reason=(
                    f"testing-by-learning gate: learned distribution is "
                    f"{projection.distance:.4g} from H_k on the partition "
                    f"borders (> {tolerance:.4g})"
                ),
            )
        return None

    # -- stage 5: final χ² test [line 13], stepped ---------------------------

    def begin_final_test(self) -> FinalTestPlan:
        """Open the chi2 stage and fix the test parameters.

        pods16 tests against the learned ``D̂`` restricted to the kept
        domain at ``ε' = 13ε/30``; cdkl22 tests against the projection
        ``D* ∈ H_k`` over the whole domain at its larger effective ``ε'``.
        """
        if self.backend == "cdkl22":
            eps_final = self.config.cdkl22_final_eps(self.k, self.eps)
            ref = self._reference.histogram.to_pmf()
            mask = active_mask(ref, eps_final, self.config.chi2_truncation, None)
        else:
            eps_final = self.config.final_eps(self.eps)
            kept_points = self.partition.restrict_mask(
                list(np.flatnonzero(self.sieve.kept))
            )
            ref = self.learned.to_pmf()
            mask = active_mask(ref, eps_final, self.config.chi2_truncation, kept_points)
        self._plan = FinalTestPlan(
            m=self.config.chi2_samples(self.n, eps_final),
            repeats=self.config.chi2_repeat_count(self.k),
            eps_final=eps_final,
            reference_pmf=ref,
            mask=mask,
            backend=self.backend,
        )
        self._final = self._log.begin("chi2")
        return self._plan

    def draw_final_counts(self) -> np.ndarray:
        """Draw the ``(repeats, n)`` Poissonized count matrix for the test.

        This is the only sampling step of the final test — the step where
        stream faults, deadline overruns, and budget exhaustion surface.
        """
        plan = self._plan
        # The per-repeat loop is deliberate: batching the draws would change
        # the RNG call sequence and so every replayed verdict.
        return np.stack(
            [self.source.draw_counts_poissonized(plan.m) for _ in range(plan.repeats)]
        )

    def finish_final_test(self, z_per_interval: np.ndarray) -> Verdict | None:
        """Threshold the (externally computed) statistics into a verdict.

        Returns ``None`` **only** on the cdkl22 adaptive path when the
        stage-0 statistic is too close to the threshold to call: the plan
        (:attr:`final_plan`) is replaced with a stage-1 copy at
        ``escalation_factor × m`` and the caller must draw fresh counts,
        recompute statistics, and call again (the chi2 stage stays open, so
        ledger accounting spans both batches).  pods16 always decides in
        one call.
        """
        z_per_interval = np.asarray(z_per_interval, dtype=np.float64)
        if self._plan.backend == "cdkl22":
            return self._finish_cdkl22(z_per_interval)
        plan = self._plan
        handle = self._final
        statistic = float(z_per_interval.sum())
        threshold = self.config.chi2_accept_fraction * plan.m * plan.eps_final * plan.eps_final
        chi2 = Chi2Result(
            accept=statistic <= threshold,
            statistic=statistic,
            threshold=threshold,
            m=plan.m,
            interval_statistics=z_per_interval,
            samples_used=self.source.samples_drawn - handle.mark,
        )
        handle.span.set(statistic=chi2.statistic, threshold=chi2.threshold, accept=chi2.accept)
        self._final = None
        self._log.end(handle)
        reason = (
            f"final χ² statistic {chi2.statistic:.4g} "
            f"{'<=' if chi2.accept else '>'} threshold {chi2.threshold:.4g}"
        )
        return self._exit(accept=chi2.accept, stage="chi2", reason=reason, chi2=chi2)

    def _finish_cdkl22(self, z_per_interval: np.ndarray) -> Verdict | None:
        plan = self._plan
        handle = self._final
        trimmed = _cdkl22.trimmed_statistic(
            z_per_interval, self.partition, plan.reference_pmf, self.config, self.k, self.eps
        )
        statistic = trimmed.statistic
        threshold = self.config.chi2_accept_fraction * plan.m * plan.eps_final * plan.eps_final
        if plan.stage == 0:
            guard = _cdkl22.guard_width(self.config, plan.mask)
            if threshold - guard < statistic < threshold + guard:
                # Ambiguous: escalate once, with fresh draws at a larger m.
                self._plan = replace(
                    plan, m=float(self.config.cdkl22_escalated_m(plan.m)), stage=1
                )
                self.trace.event(
                    "chi2_escalate",
                    statistic=statistic,
                    threshold=threshold,
                    guard=guard,
                    m_next=self._plan.m,
                )
                get_metrics().counter("tester.chi2_escalations").inc()
                return None
        chi2 = Chi2Result(
            accept=statistic <= threshold,
            statistic=statistic,
            threshold=threshold,
            m=plan.m,
            interval_statistics=z_per_interval,
            samples_used=self.source.samples_drawn - handle.mark,
        )
        handle.span.set(
            statistic=chi2.statistic,
            threshold=chi2.threshold,
            accept=chi2.accept,
            trimmed=int(trimmed.trimmed_indices.size),
            stage=plan.stage,
        )
        self._final = None
        self._log.end(handle)
        escalated = ", after escalation" if plan.stage else ""
        reason = (
            f"cdkl22 trimmed χ² statistic {chi2.statistic:.4g} "
            f"({trimmed.trimmed_indices.size} intervals trimmed{escalated}) "
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

    def run(self) -> Verdict:
        """Run every stage in order (the single-session driver)."""
        verdict = self.prepare()
        if verdict is None:
            self.run_partition()
            self.run_learn()
            verdict = self.run_sieve()
        if verdict is None:
            verdict = self.run_check()
        if verdict is None:
            self.begin_final_test()
            while verdict is None:  # cdkl22 may escalate once
                plan = self._plan
                try:
                    counts = self.draw_final_counts()
                    z = median_interval_statistics(
                        counts, plan.m, plan.reference_pmf, self.partition, plan.mask
                    )
                except BaseException:
                    self.close_final_test()
                    raise
                verdict = self.finish_final_test(z)
        return verdict

    def _exit(self, accept: bool, stage: str, reason: str, chi2: Chi2Result | None = None) -> Verdict:
        samples_used = _finish(self.trace, self._ledger, self.source.samples_drawn - self.start)
        return Verdict(
            accept=accept,
            stage=stage,
            reason=reason,
            samples_used=samples_used,
            k=self.k,
            eps=self.eps,
            partition=self.partition,
            learned=self.learned,
            sieve=self.sieve,
            chi2=chi2,
            stage_samples=dict(self._log.stage_samples),
            stage_timings=dict(self._log.stage_timings),
        )


def test_histogram(
    dist: DiscreteDistribution | SampleSource,
    k: int,
    eps: float,
    *,
    config: TesterConfig | None = None,
    rng: RandomState = None,
    backend: str = DEFAULT_BACKEND,
    projection_engine: str = "auto",
    trace: Tracer = NULL_TRACER,
) -> Verdict:
    """Test whether the unknown distribution is a ``k``-histogram.

    A thin wrapper over :class:`TesterPipeline` — construct it, run every
    stage in order, count the verdict.

    Parameters
    ----------
    dist:
        The unknown distribution — either a raw
        :class:`~repro.distributions.discrete.DiscreteDistribution` (wrapped
        into a sample source with ``rng``) or an existing
        :class:`~repro.distributions.sampling.SampleSource`.  The tester
        only ever draws samples.
    k:
        The number of histogram pieces being tested for.
    eps:
        The TV-distance proximity parameter.
    config:
        Constant profile; defaults to :meth:`TesterConfig.practical`.
    backend:
        Which decision procedure runs ("pods16" | "cdkl22"; see
        :mod:`repro.core.backends`).  Unlike ``projection_engine`` this
        changes budgets and (on marginal inputs) verdicts, so experiment
        checkpoints fingerprint it.
    projection_engine:
        Which DP engine backs the Step-10 check ("auto" | "fast" |
        "dense"); a pure execution knob that never changes the verdict, so
        it is a call parameter rather than part of ``TesterConfig``.
        A misspelling raises ``ValueError`` before any sample is drawn.
    trace:
        Observability sink (default: the no-op tracer).  A
        :class:`~repro.observability.trace.RecordingTracer` captures one
        span per stage, per-round sieve spans, and a final ``ledger``
        event reconciling every draw.

    Returns
    -------
    Verdict
        ``accept`` ≈ "``D ∈ H_k``" (guaranteed w.p. ≥ 2/3 when true);
        ``not accept`` ≈ "``dTV(D, H_k) ≥ ε``" (w.p. ≥ 2/3 when true).
    """
    pipeline = TesterPipeline(
        dist,
        k,
        eps,
        config=config,
        rng=rng,
        backend=backend,
        projection_engine=projection_engine,
        trace=trace,
    )
    with trace.span("test", n=pipeline.n, k=k, eps=eps, backend=pipeline.backend) as run_span:
        verdict = pipeline.run()
        run_span.set(
            accept=verdict.accept,
            stage=verdict.stage,
            samples_used=verdict.samples_used,
        )
    get_metrics().counter(
        "tester.verdicts", stage=verdict.stage, accept=verdict.accept
    ).inc()
    return verdict


def _finish(trace: Tracer, ledger: SampleLedger, samples_used: int) -> int:
    """Reconcile the ledger against the source's counter and emit the audit
    event.  Raises ``LedgerError`` on any leak/double-count/cap overrun."""
    total = ledger.reconcile(samples_used)
    trace.event("ledger", **ledger.as_attrs())
    return total


# The public name begins with "test_", which pytest would otherwise collect
# from any test module importing it.
test_histogram.__test__ = False  # type: ignore[attr-defined]


class HistogramTester:
    """Object-style façade over :func:`test_histogram`.

    Convenient when running many trials with one configuration::

        tester = HistogramTester(k=8, eps=0.2)
        verdict = tester.test(dist, rng=seed)
    """

    def __init__(
        self,
        k: int,
        eps: float,
        config: TesterConfig | None = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        self.k = k
        self.eps = eps
        self.config = config if config is not None else TesterConfig.practical()
        self.backend = validate_backend(backend)

    def test(
        self,
        dist: DiscreteDistribution | SampleSource,
        rng: RandomState = None,
        trace: Tracer = NULL_TRACER,
    ) -> Verdict:
        """Run one test; see :func:`test_histogram`."""
        return test_histogram(
            dist,
            self.k,
            self.eps,
            config=self.config,
            rng=rng,
            backend=self.backend,
            trace=trace,
        )

    def expected_samples(self, n: int) -> float:
        """Closed-form estimate of the sample budget on a size-``n`` domain."""
        return backend_budget(self.backend, n, self.k, self.eps, self.config)
