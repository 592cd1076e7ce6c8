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

Two *backends* run on the one stepped skeleton of
:mod:`repro.core.pipeline` (see also :mod:`repro.core.backends`):
``backend="pods16"`` is Algorithm 1 verbatim as above; ``backend="cdkl22"``
is the near-optimal testing-by-learning variant — no sieve, the check stage
projects ``D̂`` onto ``H_k`` and the final χ² test runs against that
projection with a trimmed statistic and an adaptive two-stage sample
schedule (``finish_final_test`` may return ``None`` = "escalate: draw a
fresh, larger batch and call me again").  :class:`TesterPipeline` only picks
the procedure and holds the identity run state (learned histogram, sieve
result, check oracles).
"""

from __future__ import annotations

from typing import Callable

from repro.core.backends import DEFAULT_BACKEND, backend_budget, procedure_for, validate_backend
from repro.core.config import TesterConfig
from repro.core.pipeline import Pipeline, Verdict
from repro.core.sieve import SieveResult
from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import Histogram
from repro.distributions.projection import (
    Projection,
    coarse_flattening_projection,
    exists_close_histogram,
    validate_engine,
)
from repro.distributions.sampling import SampleSource
from repro.observability.metrics import get_metrics
from repro.observability.trace import NULL_TRACER, Tracer
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


class TesterPipeline(Pipeline):
    """Stepped (batch-first) execution of Algorithm 1 (or cdkl22) over one
    source; see :class:`~repro.core.pipeline.Pipeline` for the stepping
    protocol.  The serial statistics of the final test are
    :func:`~repro.core.chi2.median_interval_statistics` of the drawn
    ``(repeats, n)`` counts under :attr:`final_plan`."""

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
        procedure = procedure_for(backend)
        # Validated here so a misspelling fails before any sample is drawn.
        self.engine = validate_engine(projection_engine)
        super().__init__(procedure, (dist,), k, eps, config=config, rng=rng, trace=trace)
        self.backend = backend
        self.check_oracle = (
            check_oracle if check_oracle is not None else exists_close_histogram
        )
        self.project_oracle = (
            project_oracle if project_oracle is not None else coarse_flattening_projection
        )
        self.learned: Histogram | None = None
        self.sieve: SieveResult | None = None
        self.projection: Projection | None = None  # cdkl22: D* ∈ H_k


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
