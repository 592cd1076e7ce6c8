"""Golden equivalence: the fast oracle engine must match the dense DP.

The fast engine (:mod:`repro.distributions.projection_engine`) prunes its
candidate space with admissible lower bounds and a verified two-pass DP; a
single inadmissible bound silently corrupts distances.  These tests pin it
against the dense cost-matrix reference on random pmfs, masks (including
fully masked domains), piece counts, and the piecewise-constant coarse
path — agreement to 1e-12, well below any statistical tolerance.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.distributions.projection import (
    coarse_flattening_projection,
    flattening_distance,
    flattening_profile,
    project_flattening,
    unconstrained_l1_distance,
)
from repro.util.intervals import Partition

ATOL = 1e-12


@st.composite
def masked_pmfs(draw, max_n=96):
    """(pmf, mask, k): weights with zeros and spikes, any mask incl. empty."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    weights = np.asarray(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(1e-6, 100.0, allow_nan=False)),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    total = weights.sum()
    pmf = weights / total if total > 0 else np.full(n, 1.0 / n)
    mask = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    k = draw(st.integers(min_value=1, max_value=n + 2))
    return pmf, mask, k


class TestEngineEquivalence:
    @given(masked_pmfs())
    def test_flattening_distance_matches_dense(self, case):
        pmf, mask, k = case
        fast = flattening_distance(pmf, k, mask, engine="fast")
        dense = flattening_distance(pmf, k, mask, engine="dense")
        assert abs(fast - dense) <= ATOL

    @given(masked_pmfs())
    def test_unconstrained_l1_matches_dense(self, case):
        pmf, mask, k = case
        fast = unconstrained_l1_distance(pmf, k, mask, engine="fast")
        dense = unconstrained_l1_distance(pmf, k, mask, engine="dense")
        assert abs(fast - dense) <= ATOL

    @given(masked_pmfs())
    def test_profile_matches_dense(self, case):
        pmf, mask, k = case
        fast = flattening_profile(pmf, k, mask, engine="fast")
        dense = flattening_profile(pmf, k, mask, engine="dense")
        np.testing.assert_allclose(fast, dense, atol=ATOL, rtol=0)

    @given(masked_pmfs())
    def test_fast_projection_realises_its_distance(self, case):
        # The fast engine's boundaries must *realise* the cost it reports —
        # a pruned-away optimal parent would break this, not just the total.
        pmf, mask, k = case
        proj = project_flattening(pmf, k, mask, engine="fast")
        assert proj.histogram.num_pieces <= k
        realised = 0.5 * (np.abs(pmf - proj.histogram.to_pmf()) * mask).sum()
        assert abs(proj.distance - realised) <= ATOL

    @given(st.integers(1, 64), st.integers(0, 10_000))
    def test_single_piece_matches_dense(self, n, seed):
        pmf = np.random.default_rng(seed).dirichlet(np.ones(n))
        fast = flattening_distance(pmf, 1, engine="fast")
        dense = flattening_distance(pmf, 1, engine="dense")
        assert abs(fast - dense) <= ATOL

    def test_all_masked_is_zero_on_both_engines(self):
        pmf = np.random.default_rng(0).dirichlet(np.ones(40))
        mask = np.zeros(40, dtype=bool)
        for k in (1, 3, 40):
            assert flattening_distance(pmf, k, mask, engine="fast") <= ATOL
            assert flattening_distance(pmf, k, mask, engine="dense") <= ATOL

    def test_singleton_domain(self):
        pmf = np.ones(1)
        for engine in ("fast", "dense"):
            assert flattening_distance(pmf, 1, engine=engine) <= ATOL


class TestKernelEngineMatrix:
    """The engine matrix over the numpy kernels: every engine cell agrees.

    ``engine`` selects which DP runs (fast vs dense); neither may move a
    distance by more than 1e-12 from the dense reference.
    """

    @given(masked_pmfs(max_n=64))
    def test_all_cells_agree(self, case):
        pmf, mask, k = case
        results = {
            engine: flattening_distance(pmf, k, mask, engine=engine)
            for engine in ("auto", "fast", "dense")
        }
        reference = flattening_distance(pmf, k, mask, engine="dense")
        for cell, value in results.items():
            assert abs(value - reference) <= ATOL, (cell, value, reference)


class TestCoarseEquivalence:
    @st.composite
    def coarse_cases(draw, max_cells=48):
        cells = draw(st.integers(min_value=1, max_value=max_cells))
        widths = np.asarray(
            draw(st.lists(st.integers(1, 4), min_size=cells, max_size=cells))
        )
        boundaries = np.concatenate(([0], np.cumsum(widths)))
        masses = np.asarray(
            draw(
                st.lists(st.floats(0.0, 100.0, allow_nan=False),
                         min_size=cells, max_size=cells)
            )
        )
        total = masses.sum()
        masses = masses / total if total > 0 else np.full(cells, 1.0 / cells)
        pmf = np.repeat(masses / widths, widths)
        kept = np.asarray(
            draw(st.lists(st.booleans(), min_size=cells, max_size=cells)), dtype=bool
        )
        k = draw(st.integers(min_value=1, max_value=cells))
        return pmf, Partition(boundaries), kept, k

    @given(coarse_cases())
    def test_piecewise_constant_path_matches_dense(self, case):
        # The fast engine's weighted pwc path (non-unit lengths, masses as
        # mean numerators) vs the dense per-cell matrix.
        pmf, base, kept, k = case
        fast = coarse_flattening_projection(pmf, base, k, kept, engine="fast")
        dense = coarse_flattening_projection(pmf, base, k, kept, engine="dense")
        assert abs(fast.distance - dense.distance) <= ATOL
