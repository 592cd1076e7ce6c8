"""Byte-identity regressions: the kernel layer's settings are execution-only.

The numpy kernels split large query batches into ``_QUERY_CHUNK``-sized
chunks; chunks are independent queries, so the chunk size may change *how
fast* a verdict is reached, never the verdict, the trace, an acceptance
estimate, or a sweep checkpoint.  Each test runs the fast projection
engine (the path that reaches the chunked rank-tree and cover-walk ops)
under the shipped chunk size and under a tiny one that forces chunking
on every batch.  Assertions are byte-level (canonical JSON / JSONL), the
same bar ``test_determinism.py`` sets for the worker-count knob.
"""

import functools
import json
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from repro.core.config import TesterConfig
from repro.core.tester import test_histogram
from repro.distributions import projection_engine
from repro.experiments import sweeps
from repro.experiments.runner import acceptance_probability
from repro.experiments.sweeps import StaircaseWorkload, _point_to_json, complexity_sweep
from repro.kernels import pykernels
from repro.observability.trace import NULL_TRACER, RecordingTracer, canonical_jsonl

CONFIG = TesterConfig.practical()

#: Query-chunk sizes every artefact must agree across: the shipped cap and
#: one small enough that every fast-engine batch is split.
KERNEL_SETTINGS = (pykernels._QUERY_CHUNK, 7)


@pytest.fixture
def use_chunk(monkeypatch):
    return lambda chunk: monkeypatch.setattr(pykernels, "_QUERY_CHUNK", chunk)


@pytest.fixture
def fast_sweeps(monkeypatch):
    """Route the sweep testers through the fast projection engine."""
    monkeypatch.setattr(
        sweeps,
        "test_histogram",
        functools.partial(test_histogram, projection_engine="fast"),
    )


@dataclass(frozen=True)
class FastEngineTester:
    """Picklable tester running the fast projection engine."""

    k: int
    eps: float
    config: TesterConfig

    supports_trace = True

    def __call__(self, source, trace=NULL_TRACER) -> bool:
        return test_histogram(
            source, self.k, self.eps,
            config=self.config, projection_engine="fast", trace=trace,
        ).accept


def _staircase(n=512, k=4):
    return StaircaseWorkload(n, k)(np.random.default_rng(0))


def _verdict_and_trace(*, n=512, k=4, eps=0.3, seed=7):
    tracer = RecordingTracer()
    verdict = test_histogram(
        _staircase(n, k), k, eps,
        config=CONFIG, rng=seed, projection_engine="fast", trace=tracer,
    )
    return verdict, canonical_jsonl(tracer.export())


def _verdict_key(v):
    """Byte-level identity of everything decision-relevant in a Verdict
    (numpy payloads via tobytes; wall-clock stage_timings excluded)."""
    return (
        v.accept,
        v.stage,
        v.reason,
        v.samples_used,
        v.k,
        v.eps,
        tuple(sorted(v.stage_samples.items())),
        None if v.partition is None else v.partition.boundaries.tobytes(),
        None if v.learned is None else v.learned.to_pmf().tobytes(),
    )


def sweep_json(result) -> str:
    return json.dumps(
        {
            "axis": result.axis,
            "points": [_point_to_json(p) for p in result.points],
            "exponent": result.exponent,
        },
        sort_keys=True,
    )


class TestVerdictAndTraceByteIdentity:
    def test_verdicts_identical_across_kernels(self, use_chunk, monkeypatch):
        batches = []
        interval_stats = projection_engine.rank_interval_stats

        def spy(tree, a, b, L):
            batches.append(len(a))
            return interval_stats(tree, a, b, L)

        monkeypatch.setattr(projection_engine, "rank_interval_stats", spy)
        keys = {}
        for chunk in KERNEL_SETTINGS:
            use_chunk(chunk)
            keys[chunk] = _verdict_key(_verdict_and_trace()[0])
        assert max(batches) > min(KERNEL_SETTINGS), batches
        assert len(set(keys.values())) == 1, keys

    def test_traces_identical_across_kernels(self, use_chunk):
        """The full event stream — every stage's recorded statistics and
        budgets — is byte-identical, not just the final verdict."""
        traces = {}
        for chunk in KERNEL_SETTINGS:
            use_chunk(chunk)
            traces[chunk] = _verdict_and_trace()[1]
        assert len(set(traces.values())) == 1, {
            k: t[:160] for k, t in traces.items()
        }

    def test_acceptance_estimate_identical_across_kernels(self, use_chunk):
        payloads = {}
        for chunk in KERNEL_SETTINGS:
            use_chunk(chunk)
            payloads[chunk] = json.dumps(
                asdict(
                    acceptance_probability(
                        StaircaseWorkload(600, 3),
                        FastEngineTester(3, 0.35, CONFIG),
                        trials=6,
                        rng=11,
                    )
                ),
                sort_keys=True,
            )
        assert len(set(payloads.values())) == 1, payloads


@pytest.mark.usefixtures("fast_sweeps")
class TestSweepByteIdentity:
    VALUES = [400, 800]
    KWARGS = dict(k=3, eps=0.35, config=CONFIG, trials=3, bisection_steps=2)

    def test_sweep_identical_across_kernels_and_workers(self, use_chunk):
        payloads = {}
        for chunk in KERNEL_SETTINGS:
            use_chunk(chunk)
            for workers in (None, 2, 4):
                payloads[chunk, workers] = sweep_json(
                    complexity_sweep(
                        "n", self.VALUES, rng=3, workers=workers, **self.KWARGS
                    )
                )
        assert len(set(payloads.values())) == 1

    def test_checkpoint_resume_across_kernels(self, tmp_path, use_chunk):
        """A checkpoint written under one chunk size resumes under another
        (the fingerprint holds no kernel-layer setting, like workers)."""
        from repro.experiments.sweeps import _default_workloads
        from repro.robustness.checkpoint import CheckpointStore

        values = [400, 600, 800]
        path = tmp_path / "sweep.json"
        uninterrupted = complexity_sweep("n", values, rng=3, **self.KWARGS)

        calls = []

        def dying_workloads(n, k, eps):
            calls.append(n)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return _default_workloads(n, k, eps)

        use_chunk(KERNEL_SETTINGS[0])
        with pytest.raises(KeyboardInterrupt):
            complexity_sweep(
                "n", values, rng=3, checkpoint=path,
                workloads=dying_workloads, **self.KWARGS,
            )
        assert len(CheckpointStore(path).load()["points"]) == 2

        use_chunk(KERNEL_SETTINGS[1])
        resumed = complexity_sweep(
            "n", values, rng=3, checkpoint=path, workers=2, **self.KWARGS,
        )
        assert sweep_json(resumed) == sweep_json(uninterrupted)
