"""Kernel correctness: every op against an independent brute-force reference.

Each kernel in :mod:`repro.kernels.pykernels` is checked against a direct
(scalar or one-liner numpy) restatement of its contract over
hypothesis-generated inputs.  The references sum in a different order from
the kernels, so they get a 1e-12 tolerance; query chunking, which must not
change a single bit, is checked with exact equality.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.kernels import pykernels

ATOL = 1e-12


@st.composite
def rank_tree_inputs(draw):
    """Values with deliberate duplicates plus masked weight arrays."""
    n = draw(st.integers(min_value=1, max_value=48))
    pool = draw(st.integers(min_value=1, max_value=6))
    values = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.sampled_from([round(0.1 * j, 1) for j in range(pool)]),
        )
    )
    weights = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    mask = draw(hnp.arrays(np.bool_, n))
    queries = draw(st.integers(min_value=0, max_value=12))
    x = draw(
        hnp.arrays(np.int64, queries, elements=st.integers(min_value=0, max_value=n))
    )
    nu = len(np.unique(values))
    L = draw(
        hnp.arrays(np.int64, queries, elements=st.integers(min_value=0, max_value=nu))
    )
    return values, weights, mask, x, L


class TestRankTree:
    @given(rank_tree_inputs())
    @settings(max_examples=120, deadline=None)
    def test_prefix_stats_matches_brute_force(self, inputs):
        values, weights, mask, x, L = inputs
        wm = np.where(mask, weights, 0.0)
        wvm = wm * values
        tree = pykernels.build_rank_tree(values, wm, wvm)
        w, wv = pykernels.rank_prefix_stats(tree, x, L)
        ranks = np.searchsorted(tree.unique_vals, values)
        for q in range(len(x)):
            sel = (np.arange(len(values)) < x[q]) & (ranks < L[q])
            assert w[q] == pytest.approx(float(wm[sel].sum()), abs=ATOL)
            assert wv[q] == pytest.approx(float(wvm[sel].sum()), abs=ATOL)

    @given(rank_tree_inputs())
    @settings(max_examples=40, deadline=None)
    def test_query_chunking_is_exact(self, inputs):
        """Chunks are independent queries: splitting never changes a bit."""
        values, weights, mask, x, L = inputs
        wm = np.where(mask, weights, 0.0)
        tree = pykernels.build_rank_tree(values, wm, wm * values)
        whole = pykernels.rank_prefix_stats(tree, x, L)
        original = pykernels._QUERY_CHUNK
        pykernels._QUERY_CHUNK = 3
        try:
            chunked = pykernels.rank_prefix_stats(tree, x, L)
        finally:
            pykernels._QUERY_CHUNK = original
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])


@st.composite
def interval_inputs(draw):
    """Rank-tree inputs with interval queries (empty intervals included)."""
    values, weights, mask, _, _ = draw(rank_tree_inputs())
    n = len(values)
    queries = draw(st.integers(min_value=0, max_value=12))
    a = draw(
        hnp.arrays(np.int64, queries, elements=st.integers(min_value=0, max_value=n))
    )
    b = draw(
        hnp.arrays(np.int64, queries, elements=st.integers(min_value=0, max_value=n))
    )
    nu = len(np.unique(values))
    L = draw(
        hnp.arrays(np.int64, queries, elements=st.integers(min_value=0, max_value=nu))
    )
    return values, weights, mask, a, b, L


class TestIntervalStats:
    @given(interval_inputs())
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force(self, inputs):
        values, weights, mask, a, b, L = inputs
        wm = np.where(mask, weights, 0.0)
        wvm = wm * values
        tree = pykernels.build_rank_tree(values, wm, wvm)
        w, wv = pykernels.rank_interval_stats(tree, a, b, L)
        ranks = np.searchsorted(tree.unique_vals, values)
        pos = np.arange(len(values))
        for q in range(len(a)):
            sel = (pos >= a[q]) & (pos < b[q]) & (ranks < L[q])
            assert w[q] == pytest.approx(float(wm[sel].sum()), abs=ATOL)
            assert wv[q] == pytest.approx(float(wvm[sel].sum()), abs=ATOL)

    @given(interval_inputs())
    @settings(max_examples=60, deadline=None)
    def test_consistent_with_prefix_difference(self, inputs):
        """The interval form must agree with differencing two prefix queries
        (different decomposition, so tolerance rather than bit equality)."""
        values, weights, mask, a, b, L = inputs
        wm = np.where(mask, weights, 0.0)
        tree = pykernels.build_rank_tree(values, wm, wm * values)
        w, wv = pykernels.rank_interval_stats(tree, a, b, L)
        wb, wvb = pykernels.rank_prefix_stats(tree, np.maximum(a, b), L)
        wa, wva = pykernels.rank_prefix_stats(tree, a, L)
        keep = a < b  # empty intervals are exactly zero
        assert np.allclose(w[keep], (wb - wa)[keep], atol=ATOL)
        assert np.allclose(wv[keep], (wvb - wva)[keep], atol=ATOL)
        assert not w[~keep].any()
        assert not wv[~keep].any()

    @given(interval_inputs())
    @settings(max_examples=40, deadline=None)
    def test_query_chunking_is_exact(self, inputs):
        values, weights, mask, a, b, L = inputs
        wm = np.where(mask, weights, 0.0)
        tree = pykernels.build_rank_tree(values, wm, wm * values)
        whole = pykernels.rank_interval_stats(tree, a, b, L)
        original = pykernels._QUERY_CHUNK
        pykernels._QUERY_CHUNK = 3
        try:
            chunked = pykernels.rank_interval_stats(tree, a, b, L)
        finally:
            pykernels._QUERY_CHUNK = original
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])


@st.composite
def block_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    v = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        )
    )
    weights = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    mask = draw(hnp.arrays(np.bool_, n))
    return v, np.where(mask, weights, 0.0)


def _brute_block_cost(v, w):
    """Optimal masked ℓ1 cost of one block: minimise over candidate centres
    (any block value is a valid optimum for weighted ℓ1)."""
    if w.sum() == 0:
        return 0.0
    return min(float(np.sum(w * np.abs(v - c))) for c in v)


class TestBlockTables:
    @given(block_inputs())
    @settings(max_examples=100, deadline=None)
    def test_costs_match_brute_force(self, inputs):
        v, wm = inputs
        n = len(v)
        costs_flat, costs_off, prefix2d, nlevels = pykernels.build_block_tables(v, wm)
        for b in range(nlevels):
            size = 1 << b
            nblocks = -(n // -size)
            costs = costs_flat[costs_off[b] : costs_off[b + 1]]
            assert len(costs) == nblocks
            for j in range(nblocks):
                vb = v[j * size : (j + 1) * size]
                wb = wm[j * size : (j + 1) * size]
                assert costs[j] == pytest.approx(_brute_block_cost(vb, wb), abs=ATOL)
            assert np.allclose(
                prefix2d[b, : nblocks + 1], np.concatenate(([0.0], np.cumsum(costs)))
            )
            assert not prefix2d[b, nblocks + 1 :].any()  # zero-padded tail

    @given(block_inputs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cover_walk_matches_scalar_walk(self, inputs, data):
        v, wm = inputs
        n = len(v)
        costs_flat, costs_off, _, nlevels = pykernels.build_block_tables(v, wm)
        pairs = data.draw(st.integers(min_value=0, max_value=8))
        a = np.array(
            [data.draw(st.integers(min_value=0, max_value=n)) for _ in range(pairs)],
            dtype=np.int64,
        )
        b = np.array(
            [data.draw(st.integers(min_value=0, max_value=n)) for _ in range(pairs)],
            dtype=np.int64,
        )
        got = pykernels.cover_walk(costs_flat, costs_off, nlevels, a, b)
        for q in range(pairs):
            l, r, total = int(a[q]), int(b[q]), 0.0
            for lev in range(nlevels):
                if l >= r:
                    break
                base = int(costs_off[lev])
                if l & 1:
                    total += costs_flat[base + l]
                    l += 1
                if r & 1:
                    r -= 1
                    total += costs_flat[base + r]
                l >>= 1
                r >>= 1
            assert got[q] == total  # identical adds in identical order

    @given(block_inputs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_cover_walk_chunking_is_exact(self, inputs, data):
        v, wm = inputs
        n = len(v)
        costs_flat, costs_off, _, nlevels = pykernels.build_block_tables(v, wm)
        pairs = data.draw(st.integers(min_value=0, max_value=8))
        a = np.array(
            [data.draw(st.integers(min_value=0, max_value=n)) for _ in range(pairs)],
            dtype=np.int64,
        )
        b = np.array(
            [data.draw(st.integers(min_value=0, max_value=n)) for _ in range(pairs)],
            dtype=np.int64,
        )
        whole = pykernels.cover_walk(costs_flat, costs_off, nlevels, a, b)
        original = pykernels._QUERY_CHUNK
        pykernels._QUERY_CHUNK = 3
        try:
            chunked = pykernels.cover_walk(costs_flat, costs_off, nlevels, a, b)
        finally:
            pykernels._QUERY_CHUNK = original
        assert np.array_equal(whole, chunked)


@st.composite
def segment_inputs(draw):
    nseg = draw(st.integers(min_value=1, max_value=6))
    sizes = [draw(st.integers(min_value=1, max_value=7)) for _ in range(nseg)]
    total = sum(sizes)
    vals = draw(
        hnp.arrays(
            np.float64,
            total,
            elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(
                lambda f: round(f, 1)  # coarse grid → frequent ties
            ),
        )
    )
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    i_arr = np.asarray(
        draw(st.permutations(list(range(total)))), dtype=np.int64
    )
    return vals, starts, i_arr


class TestSegmentFirstMin:
    @given(segment_inputs())
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_loop(self, inputs):
        vals, starts, i_arr = inputs
        mins, argi = pykernels.segment_first_min(vals, starts, i_arr)
        bounds = np.append(starts, len(vals))
        for s in range(len(starts)):
            seg = slice(int(bounds[s]), int(bounds[s + 1]))
            assert mins[s] == vals[seg].min()
            winners = i_arr[seg][vals[seg] == mins[s]]
            assert argi[s] == winners.min()  # smallest i on ties


@st.composite
def chi2_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    repeats = draw(st.integers(min_value=1, max_value=3))
    counts = draw(
        hnp.arrays(
            np.int64, (repeats, n), elements=st.integers(min_value=0, max_value=30)
        )
    )
    pmf = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    mask = draw(hnp.arrays(np.bool_, n))
    m = draw(st.floats(min_value=0.5, max_value=200.0, allow_nan=False))
    return counts, m, pmf, mask


class TestChi2PointTerms:
    @given(chi2_inputs())
    @settings(max_examples=120, deadline=None)
    def test_matches_direct_formula(self, inputs):
        counts, m, pmf, mask = inputs
        terms = pykernels.chi2_point_terms(counts, m, pmf, mask)
        assert terms.shape == counts.shape
        for r in range(counts.shape[0]):
            for i in range(counts.shape[1]):
                expected = m * pmf[i]
                if not mask[i] or expected <= 0:
                    assert terms[r, i] == 0.0
                else:
                    with np.errstate(over="ignore"):
                        d = counts[r, i] - expected
                        # d * d, not d ** 2: scalar ``**`` routes through
                        # libm pow, which may differ from the kernel's
                        # vectorized square by one ulp at huge magnitudes.
                        direct = (d * d - counts[r, i]) / expected
                    assert terms[r, i] == pytest.approx(direct, abs=ATOL)


@st.composite
def paired_chi2_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    repeats = draw(st.integers(min_value=1, max_value=3))
    counts_x = draw(
        hnp.arrays(
            np.int64, (repeats, n), elements=st.integers(min_value=0, max_value=30)
        )
    )
    counts_y = draw(
        hnp.arrays(
            np.int64, (repeats, n), elements=st.integers(min_value=0, max_value=30)
        )
    )
    mask = draw(hnp.arrays(np.bool_, n))
    return counts_x, counts_y, mask


class TestChi2PairedPointTerms:
    @given(paired_chi2_inputs())
    @settings(max_examples=120, deadline=None)
    def test_matches_direct_formula(self, inputs):
        counts_x, counts_y, mask = inputs
        terms = pykernels.chi2_paired_point_terms(counts_x, counts_y, mask)
        assert terms.shape == counts_x.shape
        for r in range(counts_x.shape[0]):
            for i in range(counts_x.shape[1]):
                x, y = int(counts_x[r, i]), int(counts_y[r, i])
                if not mask[i] or x + y == 0:
                    assert terms[r, i] == 0.0
                else:
                    d = float(x - y)
                    direct = (d * d - x - y) / (x + y)
                    assert terms[r, i] == pytest.approx(direct, abs=ATOL)

    @given(paired_chi2_inputs())
    @settings(max_examples=60, deadline=None)
    def test_one_dimensional_inputs_broadcast(self, inputs):
        """A single repeat row must equal the stacked form's row."""
        counts_x, counts_y, mask = inputs
        stacked = pykernels.chi2_paired_point_terms(counts_x, counts_y, mask)
        flat = pykernels.chi2_paired_point_terms(counts_x[0], counts_y[0], mask)
        assert np.array_equal(flat, stacked[0])

    def test_equal_counts_are_negative_or_zero(self):
        """X = Y makes every kept nonzero cell (0 − 2x)/2x = −1: the
        statistic is pulled below zero exactly when the streams agree."""
        counts = np.array([[4, 0, 9]], dtype=np.int64)
        mask = np.ones(3, dtype=bool)
        terms = pykernels.chi2_paired_point_terms(counts, counts, mask)
        assert np.array_equal(terms, np.array([[-1.0, 0.0, -1.0]]))


@st.composite
def aggregate_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    repeats = draw(st.integers(min_value=1, max_value=4))
    terms = draw(
        hnp.arrays(
            np.float64,
            (repeats, n),
            elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        )
    )
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), max_size=5, unique=True)
        if n > 1
        else st.just([])
    )
    starts = np.array(sorted({0, *cuts}), dtype=np.int64)
    return terms, starts


class TestAggregateRows:
    @given(aggregate_inputs())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_row_reduceat(self, inputs):
        terms, starts = inputs
        got = pykernels.aggregate_rows(terms, starts)
        for r in range(terms.shape[0]):
            assert np.array_equal(got[r], np.add.reduceat(terms[r], starts))


class TestCountsFromSamples:
    @given(
        st.integers(min_value=1, max_value=40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                hnp.arrays(
                    np.int64,
                    st.integers(min_value=0, max_value=60),
                    elements=st.integers(min_value=0, max_value=n - 1),
                ),
            )
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_bincount(self, inputs):
        n, samples = inputs
        counts = pykernels.counts_from_samples(samples, n)
        assert counts.dtype == np.int64
        assert len(counts) == n
        assert counts.sum() == len(samples)
        for i in range(n):
            assert counts[i] == int((samples == i).sum())
