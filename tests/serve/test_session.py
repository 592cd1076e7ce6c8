"""Tests for the per-stream session state machine.

The load-bearing property is exit-path sample accounting: *every* attempt's
ledger reconciles with exact integer equality whether the attempt finished,
died mid-stage, or was abandoned — the corrigendum's lesson applied to the
service layer.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import TesterConfig
from repro.distributions.discrete import DiscreteDistribution
from repro.observability.metrics import get_metrics
from repro.robustness.resilience import TrialTimeout
from repro.serve.service import StepClock
from repro.serve.session import (
    FULL_CONFIDENCE,
    PARTIAL_CONFIDENCE,
    SessionState,
    StreamRequest,
    StreamSession,
)

N, K, EPS = 512, 4, 0.3  # full-pipeline regime (not plug-in, not trivial)


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


def _session(request, clock=None, **overrides):
    params = dict(
        config=TesterConfig.practical(),
        budget_cap=None,
        clock=clock if clock is not None else StepClock(),
        admitted_round=1,
    )
    params.update(overrides)
    return StreamSession(0, request, **params)


class TestStreamRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            _request(deadline_ticks=0)
        with pytest.raises(ValueError):
            _request(max_samples=0)

    def test_misspelled_engine_is_never_admitted(self):
        """A bad ``engine`` fails at construction, so no session is admitted,
        no sample is drawn and no projection fallback is counted."""
        fallbacks = get_metrics().counter("serve.projection_fallbacks").value
        with pytest.raises(ValueError, match="engine must be one of"):
            _request(engine="fsat")
        with pytest.raises(ValueError, match="engine must be one of"):
            dataclasses.replace(_request(), engine="fsat")
        assert get_metrics().counter("serve.projection_fallbacks").value == fallbacks


class TestStateMachine:
    def test_attempt_opens_sampling_and_closes_with_reconciled_total(self):
        session = _session(_request())
        assert session.state == SessionState.ACCEPTED
        pipeline = session.start_attempt()
        assert session.state == SessionState.SAMPLING
        assert session.attempt == 1
        verdict = pipeline.run()
        session.close_attempt(verdict.samples_used)
        outcome = session.retire_verdict(verdict, round_index=3, wall=0.0)
        assert session.state == SessionState.VERDICT
        assert outcome.state in SessionState.TERMINAL
        assert outcome.attempts == 1
        assert outcome.samples_total == verdict.samples_used
        assert outcome.attempt_samples == (verdict.samples_used,)
        assert outcome.confidence == FULL_CONFIDENCE

    def test_attempts_use_disjoint_seed_streams(self):
        session = _session(_request())
        first = session.start_attempt().source.draw(1000)
        session.abort_attempt()
        second = session.start_attempt().source.draw(1000)
        session.abort_attempt()
        # spawn_key=(index, attempt) differs per attempt: retrying must not
        # replay (or reuse) the failed attempt's sample stream.
        assert not np.array_equal(first, second)
        # A different session index diverges from both.
        other = StreamSession(
            1,
            _request(),
            config=TesterConfig.practical(),
            budget_cap=None,
            clock=StepClock(),
            admitted_round=1,
        )
        third = other.start_attempt().source.draw(1000)
        assert not np.array_equal(first, third)

    def test_degrade_first_mode_sticks(self):
        session = _session(_request())
        session.degrade("projection-dense-fallback")
        session.degrade("partial-pipeline")
        assert session.degraded_mode == "projection-dense-fallback"

    def test_degraded_verdict_state(self):
        session = _session(_request())
        pipeline = session.start_attempt()
        verdict = pipeline.run()
        session.close_attempt(verdict.samples_used)
        session.degrade("projection-dense-fallback")
        outcome = session.retire_verdict(verdict, round_index=2, wall=0.0)
        assert outcome.state == SessionState.DEGRADED
        assert outcome.degraded_mode == "projection-dense-fallback"
        assert outcome.confidence == FULL_CONFIDENCE  # verdict itself is exact

    def test_retire_degraded_partial(self):
        session = _session(_request())
        session.attempt = 1
        session.attempt_samples.append(1000)
        outcome = session.retire_degraded_partial("final test died", 5, 0.0)
        assert outcome.state == SessionState.DEGRADED
        assert outcome.accept is True
        assert outcome.stage == "check"
        assert outcome.confidence == PARTIAL_CONFIDENCE
        assert outcome.degraded_mode == "partial-pipeline"

    def test_retire_evicted(self):
        session = _session(_request())
        outcome = session.retire_evicted("retries exhausted", 9, 0.0)
        assert outcome.state == SessionState.EVICTED
        assert outcome.accept is None and outcome.confidence is None

    def test_canonical_excludes_wall_clock(self):
        session = _session(_request())
        outcome = session.retire_evicted("x", 1, wall=123.456)
        assert "wall_seconds" not in outcome.canonical()
        assert outcome.wall_seconds == 123.456


class TestDeadlineMidSieve:
    """Satellite: a deadline death mid-sieve still reconciles exactly."""

    def test_mid_sieve_timeout_reconciles_ledger_exactly(self):
        # With a step clock, draw call j expires a t-tick deadline iff
        # j ≥ t; at n=512 draws go partition(1), learn(2), sieve(3, 4), so
        # t=4 dies on the sieve's second draw with a nonzero partial ledger.
        clock = StepClock()
        session = _session(_request(deadline_ticks=4), clock=clock)
        pipeline = session.start_attempt()
        assert pipeline.prepare() is None
        pipeline.run_partition()
        pipeline.run_learn()
        with pytest.raises(TrialTimeout):
            pipeline.run_sieve()
        # abort() reconciles the partial ledger with exact integer equality
        # (it raises internally on any mismatch) — including the sieve draws
        # recorded by the stage's finally block.
        reconciled = session.abort_attempt()
        assert session.attempt_samples == [reconciled]
        assert reconciled > 0
        events = session.tracer.export()
        ledger_events = [
            e for e in events
            if e["kind"] == "event" and e["name"].endswith("ledger")
        ]
        assert len(ledger_events) == 1
        assert ledger_events[0]["attrs"]["total"] == reconciled
        # The partial sieve draws are attributed to the sieve stage.
        assert ledger_events[0]["attrs"]["stages"]["sieve"] > 0

    def test_deadline_is_shared_across_attempts(self):
        clock = StepClock()
        session = _session(_request(deadline_ticks=4), clock=clock)
        pipeline = session.start_attempt()
        assert pipeline.prepare() is None
        pipeline.run_partition()
        pipeline.run_learn()
        with pytest.raises(TrialTimeout):
            pipeline.run_sieve()
        session.abort_attempt()
        # A retry cannot reset the clock: the session deadline object is
        # shared, so attempt 2's very first draw dies immediately.
        pipeline = session.start_attempt()
        with pytest.raises(TrialTimeout):
            pipeline.prepare()
            pipeline.run_partition()
        reconciled = session.abort_attempt()
        assert reconciled == 0
        assert len(session.attempt_samples) == 2
        assert session.samples_total == sum(session.attempt_samples)
