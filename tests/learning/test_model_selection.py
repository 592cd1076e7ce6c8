"""Tests for the doubling-search model-selection pipeline."""

import pytest

from repro.core.config import TesterConfig
from repro.distributions import families
from repro.distributions.distances import tv_distance
from repro.distributions.projection import flattening_distance
from repro.distributions.sampling import SampleSource
from repro.learning.model_selection import select_k


CFG = TesterConfig.practical()


class TestSelectK:
    def test_misspelled_engine_refused_before_sampling(self):
        source = SampleSource(families.uniform(1500), rng=0)
        with pytest.raises(ValueError, match="engine must be one of"):
            select_k(source, 0.3, k_max=8, repeats=3, config=CFG, projection_engine="bogus")
        assert source.samples_drawn == 0

    def test_uniform_selects_one(self):
        result = select_k(families.uniform(1500), 0.3, k_max=64, repeats=3, rng=0, config=CFG)
        assert result.k == 1
        assert result.tests_run == 1

    def test_selected_k_is_epsilon_sufficient(self):
        dist = families.staircase(1500, 8, ratio=3.0).to_distribution()
        result = select_k(dist, 0.25, k_max=64, repeats=3, rng=1, config=CFG)
        # The accepted k must genuinely be eps-sufficient (up to the
        # tester's own tolerance: check at 2*eps with the exact DP).
        assert flattening_distance(dist.pmf[:1500], result.k) <= 2 * 0.25

    def test_not_wildly_over(self):
        # A strong 6-step staircase should not select k far above 6.
        dist = families.staircase(1200, 6, ratio=3.0).to_distribution()
        result = select_k(dist, 0.2, k_max=64, repeats=3, rng=2, config=CFG)
        assert result.k <= 12

    def test_learned_histogram_matches_selection(self):
        dist = families.staircase(1000, 4, ratio=2.0).to_distribution()
        result = select_k(dist, 0.3, k_max=32, repeats=3, rng=3, config=CFG)
        assert result.histogram.num_pieces <= result.k
        assert tv_distance(dist, result.histogram.to_pmf()) <= 0.45

    def test_trace_records_all_probes(self):
        dist = families.staircase(1000, 4, ratio=3.0).to_distribution()
        result = select_k(dist, 0.25, k_max=32, repeats=3, rng=4, config=CFG)
        assert result.tests_run == len(result.accepted_trace)
        assert result.accepted_trace[result.k] is True

    def test_raises_when_nothing_fits(self):
        # Paninski-style alternation is far from every small-k histogram.
        dist = families.far_from_hk(1024, 8, 0.3, rng=5)
        with pytest.raises(ValueError, match="no k"):
            select_k(dist, 0.25, k_max=4, repeats=3, rng=6, config=CFG)

    def test_samples_accounted(self):
        result = select_k(families.uniform(800), 0.3, k_max=8, repeats=3, rng=7, config=CFG)
        assert result.samples_used > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            select_k(families.uniform(100), 0.0, config=CFG)
        with pytest.raises(ValueError):
            select_k(families.uniform(100), 0.3, k_max=0, config=CFG)
        with pytest.raises(ValueError):
            select_k(families.uniform(100), 0.3, repeats=0, config=CFG)
