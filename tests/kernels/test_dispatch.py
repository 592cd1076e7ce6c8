"""Unit tests for kernel metering and the benchmark's host-fact functions.

Every hot op records ``kernels.seconds{op=…, kernel="python"}`` on each
call — also after a ``get_metrics().reset()`` — and
:func:`kernel_seconds_snapshot` turns those series into the ``(op, kernel,
calls, seconds)`` rows behind ``repro test --stage-timings`` and the
benchmark's per-op layer metrics.
"""

import numpy as np

from repro.kernels import kernel_seconds_snapshot, native_available, pykernels, resolve_kernel
from repro.observability.metrics import get_metrics

#: The op names the benchmark's per-layer report reads.
EXPECTED_OPS = (
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

METERED_OPS = tuple(
    fn for fn in vars(pykernels).values() if callable(fn) and hasattr(fn, "op")
)


def _calls() -> dict:
    return {(op, kernel): calls for op, kernel, calls, _ in kernel_seconds_snapshot()}


class TestResolveKernel:
    def test_auto_without_native_is_python(self):
        assert native_available() is False
        assert resolve_kernel() == "python"


class TestDispatch:
    def test_every_hot_op_is_registered(self):
        assert sorted(fn.op for fn in METERED_OPS) == list(EXPECTED_OPS)

    def test_dispatch_binds_python(self):
        before = _calls()
        counts = pykernels.counts_from_samples(np.array([0, 2, 2]), 4)
        assert counts.tolist() == [1, 0, 2, 0]
        assert counts.dtype == np.int64
        key = ("sampling.counts_from_samples", "python")
        assert _calls()[key] == before.get(key, 0) + 1


class TestKernelSecondsSnapshot:
    def test_dispatched_calls_are_metered(self):
        before = _calls()
        pykernels.counts_from_samples(np.array([0, 1]), 2)
        pykernels.counts_from_samples(np.array([1]), 2)
        key = ("sampling.counts_from_samples", "python")
        assert _calls()[key] == before.get(key, 0) + 2

    def test_rows_are_well_formed(self):
        pykernels.aggregate_rows(np.ones((2, 4)), np.array([0, 2]))
        rows = kernel_seconds_snapshot()
        assert rows
        for op, kernel, calls, seconds in rows:
            assert isinstance(op, str) and kernel == "python"
            assert calls >= 0
            assert seconds >= 0.0
        assert _calls()[("serve.aggregate_rows", "python")] >= 1

    def test_metering_resumes_after_registry_reset(self):
        pykernels.counts_from_samples(np.array([0]), 1)
        get_metrics().reset()
        assert kernel_seconds_snapshot() == []
        pykernels.counts_from_samples(np.array([0]), 1)
        assert _calls() == {("sampling.counts_from_samples", "python"): 1}

    def test_chunked_call_is_one_observation(self, monkeypatch):
        """Query chunking happens inside one op call: one metered call."""
        monkeypatch.setattr(pykernels, "_QUERY_CHUNK", 3)
        values = np.linspace(0.0, 1.0, 16)
        ones = np.ones(16)
        tree = pykernels.build_rank_tree(values, ones, values)
        before = _calls()
        x = np.arange(10, dtype=np.int64)
        pykernels.rank_prefix_stats(tree, x, x)
        key = ("rank_tree.prefix_stats", "python")
        assert _calls()[key] == before.get(key, 0) + 1

    def test_metering_leaves_results_unchanged(self):
        counts = np.array([[3.0, 0.0, 5.0, 1.0]])
        pmf = np.full(4, 0.25)
        mask = np.array([True, True, False, True])
        metered = pykernels.chi2_point_terms(counts, 8.0, pmf, mask)
        raw = pykernels.chi2_point_terms.__wrapped__(counts, 8.0, pmf, mask)
        assert np.array_equal(metered, raw)
