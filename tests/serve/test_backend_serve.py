"""Backend threading through the serve layer.

Regression net for the bug this PR fixes: ``StreamSession.start_attempt``
used to hard-code the pipeline construction, so a request's ``backend``
field silently ran pods16.  Covers the full path — request validation,
session → pipeline threading, mixed-backend batch grouping (same-shape
sessions on different backends share one kernel group, bit-identically to
each computed alone), the escalation redraw loop inside a service round,
and the cdkl22 projection fault → dense fallback → DEGRADED path.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.backends import BACKENDS
from repro.core.chi2 import median_interval_statistics
from repro.core.config import TesterConfig
from repro.core.tester import TesterPipeline
from repro.distributions.discrete import DiscreteDistribution
from repro.observability.metrics import get_metrics
from repro.serve import ChaosConfig, ServiceConfig, TesterService, build_requests
from repro.serve.batch import FinalBatchItem, compute_final_statistics
from repro.serve.service import StepClock
from repro.serve.session import SessionState, StreamRequest, StreamSession

N, K, EPS = 512, 4, 0.3  # full-pipeline regime (not plug-in, not trivial)
CONFIG = TesterConfig.practical()


def _request(**overrides):
    params = dict(
        request_id="req-0",
        dist=DiscreteDistribution.uniform(N),
        k=K,
        eps=EPS,
        seed=11,
    )
    params.update(overrides)
    return StreamRequest(**params)


def _session(request, **overrides):
    params = dict(
        config=CONFIG,
        budget_cap=None,
        clock=StepClock(),
        admitted_round=1,
    )
    params.update(overrides)
    return StreamSession(0, request, **params)


class TestBackendThreading:
    def test_request_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            _request(backend="pods17")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_threads_backend_into_pipeline(self, backend):
        """The regression: the pipeline must carry the request's backend,
        not a hard-coded default."""
        session = _session(_request(backend=backend))
        pipeline = session.start_attempt()
        assert pipeline.backend == backend
        session.abort_attempt()

    def test_attempt_span_records_backend(self):
        session = _session(_request(backend="cdkl22"))
        pipeline = session.start_attempt()
        verdict = pipeline.run()
        session.close_attempt(verdict.samples_used)
        spans = [e for e in session.tracer.export() if e["name"] == "attempt"]
        assert spans and spans[0]["attrs"]["backend"] == "cdkl22"


class TestMixedBatchGrouping:
    def _item(self, backend, seed):
        """A real pending final test: a pipeline run up to the chi2 stage."""
        pipeline = TesterPipeline(
            DiscreteDistribution.uniform(N), K, EPS, config=CONFIG, rng=seed, backend=backend
        )
        assert pipeline.run_to_final() is None
        plan = pipeline.final_plan
        counts = pipeline.draw_final_counts()
        item = FinalBatchItem(
            counts=counts,
            m=plan.m,
            reference_pmf=plan.reference_pmf,
            mask=plan.mask,
            partition=pipeline.partition,
        )
        serial = median_interval_statistics(
            counts, plan.m, plan.reference_pmf, pipeline.partition, plan.mask
        )
        return item, serial

    def test_mixed_backends_match_singleton_path_bitwise(self):
        """pods16 and cdkl22 plans of one shape share a kernel group; every
        batched statistic must still equal its singleton computation (and
        the pipeline's serial statistics) bit for bit."""
        built = [self._item(BACKENDS[i % len(BACKENDS)], seed=i) for i in range(6)]
        items = [item for item, _ in built]
        assert len({item.counts.shape for item in items}) == 1
        assert not np.array_equal(items[0].reference_pmf, items[1].reference_pmf)
        batched = compute_final_statistics(items)
        for (item, serial), z in zip(built, batched):
            (alone,) = compute_final_statistics([item])
            np.testing.assert_array_equal(z, alone)
            np.testing.assert_array_equal(z, serial)

    def test_mixed_chaos_drill_replays_byte_identically(self):
        def run():
            chaos = ChaosConfig(sessions=8, fault_rate=0.25, seed=5, backend="mixed")
            service = TesterService(ServiceConfig(tester=CONFIG))
            for request in build_requests(chaos):
                service.submit(request)
            return service.run()

        first, second = run(), run()
        assert first.canonical_json() == second.canonical_json()
        assert len(first.outcomes) == 8


class TestEscalationInRound:
    def test_escalated_session_redraws_within_the_round(self):
        """Force the stage-0 statistic into the guard band (guard width →
        ∞), so every cdkl22 session must escalate: the service's inner batch
        loop redraws at the larger m and still retires a VERDICT whose
        ledger covers both draws."""
        config = replace(CONFIG, cdkl22_guard_sigmas=1e9)
        service = TesterService(ServiceConfig(tester=config))
        service.submit(_request(backend="cdkl22", seed=23))
        before = get_metrics().snapshot().get("tester.chi2_escalations", 0)
        report = service.run()
        after = get_metrics().snapshot().get("tester.chi2_escalations", 0)

        (outcome,) = report.outcomes
        assert outcome.state == SessionState.VERDICT
        assert after - before >= 1
        assert "after escalation" in outcome.reason

    def test_escalated_verdict_matches_standalone_pipeline(self):
        """The batched escalation redraw must be invisible: serve and a
        plain pipeline run on the same seed stream agree exactly."""
        config = replace(CONFIG, cdkl22_guard_sigmas=1e9)
        service = TesterService(ServiceConfig(tester=config))
        service.submit(_request(backend="cdkl22", seed=23))
        (outcome,) = service.run().outcomes

        session = _session(_request(backend="cdkl22", seed=23), config=config)
        verdict = session.start_attempt().run()
        assert outcome.accept == verdict.accept
        assert outcome.reason == verdict.reason
        assert outcome.samples_total == verdict.samples_used


class TestProjectionFallback:
    def test_cdkl22_projection_fault_degrades_to_dense(self):
        """A cdkl22 session with an injected fast-engine failure must land
        DEGRADED via the dense projection fallback, not crash the round."""
        service = TesterService(ServiceConfig(tester=CONFIG))
        service.submit(
            _request(backend="cdkl22", engine="fast", projection_fault=True)
        )
        (outcome,) = service.run().outcomes
        assert outcome.state == SessionState.DEGRADED
        assert outcome.degraded_mode == "projection-dense-fallback"
        assert outcome.accept is not None  # still reached a verdict
