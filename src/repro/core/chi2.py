"""The χ²-vs-TV tester of [ADK15] (Theorem 3.2 / Proposition 3.3).

Given an explicit reference ``D*`` and Poissonized counts ``N_i`` from the
unknown ``D`` (``N_i ~ Poisson(m·D(i))``, independent), the per-interval
statistics are

    ``Z_j = Σ_{i ∈ I_j ∩ A}  ((N_i − m·D*(i))² − N_i) / (m·D*(i))``

with the truncated domain ``A = {i : D*(i) ≥ ε/(50n)}``.  Then
``E[Z_j] = m · Σ_{i ∈ I_j ∩ A} (D(i) − D*(i))²/D*(i)`` — an unbiased
χ²-divergence estimator — and Proposition 3.3 gives the separation

* completeness: ``dχ²(D‖D*) ≤ ε²/500  ⇒  E[Z] ≤ m·ε²/500``,
* soundness:    ``dTV(D,D*) ≥ ε       ⇒  E[Z] ≥ m·ε²/5``,

with relative variance ``Var Z ≤ (E Z)²/100`` at ``m = Ω(√n/ε²)``.  The
tester thresholds ``Z`` between the two expectations.

Everything here supports *sub*-domains (a boolean mask): the statistic
simply skips masked-out points, which is the refinement Algorithm 1 uses
after sieving (footnote 6's restricted distances).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.distributions.histogram import Histogram
from repro.distributions.sampling import SampleSource
from repro.kernels import pykernels
from repro.util.intervals import Partition


def _reference_pmf(reference: DiscreteDistribution | Histogram | np.ndarray) -> np.ndarray:
    if isinstance(reference, Histogram):
        return reference.to_pmf()
    if isinstance(reference, DiscreteDistribution):
        return reference.pmf
    arr = np.asarray(reference, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("reference must be a 1-d pmf")
    return arr


def active_mask(
    reference_pmf: np.ndarray,
    eps: float,
    truncation: float,
    domain_mask: np.ndarray | None = None,
) -> np.ndarray:
    """The truncated domain ``A_ε`` intersected with an optional subdomain.

    ``A_ε = {i : D*(i) ≥ truncation · ε / n}`` (paper: truncation = 1/50).
    Points below the cut contribute at most ``truncation·ε`` of TV mass in
    total, which the soundness margin absorbs.
    """
    n = len(reference_pmf)
    cut = truncation * eps / n
    mask = reference_pmf >= cut
    if domain_mask is not None:
        domain_mask = np.asarray(domain_mask, dtype=bool)
        if domain_mask.shape != (n,):
            raise ValueError("domain mask shape mismatch")
        mask &= domain_mask
    return mask


def chi2_point_terms(
    counts: np.ndarray,
    m: "float | np.ndarray",
    reference_pmf: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Point-level χ² terms — the batch-first core of every statistic here.

    All arguments broadcast: a single stream passes ``(n,)`` arrays and a
    scalar ``m``; the serve layer stacks whole batches as ``(streams,
    repeats, n)`` counts against ``(streams, 1, n)`` references/masks and
    per-stream ``m`` of shape ``(streams, 1, 1)``, computing every session's
    terms in one vectorized pass.  The arithmetic is elementwise, so the
    stacked result is bit-identical to the per-stream loop.
    """
    return pykernels.chi2_point_terms(counts, m, reference_pmf, mask)


def interval_statistics(
    counts: np.ndarray,
    m: float,
    reference_pmf: np.ndarray,
    partition: Partition,
    mask: np.ndarray,
) -> np.ndarray:
    """Per-interval statistics ``Z_j`` from a Poissonized count vector.

    A thin single-stream wrapper over :func:`chi2_point_terms` plus the
    partition aggregation.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != reference_pmf.shape:
        raise ValueError("counts and reference cover different domains")
    if partition.n != len(counts):
        raise ValueError("partition does not cover the domain")
    if m <= 0:
        raise ValueError("expected sample size must be positive")
    return partition.aggregate(chi2_point_terms(counts, m, reference_pmf, mask))


@dataclass(frozen=True)
class Chi2Result:
    """Outcome of one (possibly amplified) χ² test run."""

    accept: bool
    statistic: float
    threshold: float
    m: float
    interval_statistics: np.ndarray
    samples_used: int


def median_interval_statistics(
    counts: np.ndarray,
    m: float,
    reference: DiscreteDistribution | Histogram | np.ndarray,
    partition: Partition,
    mask: np.ndarray,
) -> np.ndarray:
    """Median-amplified per-interval statistics from *pre-drawn* batches.

    ``counts`` has shape ``(repeats, n)`` — one Poissonized count vector per
    row.  Separating the draws from the arithmetic is what lets the stepped
    tester pipeline and the serve batch executor compute statistics away
    from the sample stream; given the same draws the result is bit-identical
    to :func:`collect_interval_statistics`.

    All repeats are computed in one batch: the point terms broadcast over
    the ``(repeats, n)`` stack (elementwise, so identical to the per-row
    loop) and the ``serve.aggregate_rows`` kernel performs every row's
    partition aggregation at once with ``np.add.reduceat`` semantics —
    exactly what ``partition.aggregate`` does per row.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError(f"counts must be (repeats, n), got shape {counts.shape}")
    ref = _reference_pmf(reference)
    if counts.shape[1] != len(ref):
        raise ValueError("counts and reference cover different domains")
    if partition.n != counts.shape[1]:
        raise ValueError("partition does not cover the domain")
    if m <= 0:
        raise ValueError("expected sample size must be positive")
    terms = chi2_point_terms(counts, m, ref, mask)
    batches = pykernels.aggregate_rows(terms, partition.boundaries[:-1])
    return np.median(batches, axis=0)


def paired_point_terms(
    counts_x: np.ndarray,
    counts_y: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Paired closeness terms ``((X − Y)² − X − Y)/(X + Y)`` (CDVV14).

    Under ``p = q`` every term has mean *exactly* zero (conditionally on
    ``s = X + Y``, ``X ~ Binomial(s, 1/2)``, so ``E[(X − Y)²] = s``) and
    variance at most 2, so the null statistic over ``B`` active cells has
    standard deviation at most ``√(2B)`` — no centering constant to
    calibrate.  When ``dTV(p, q) ≥ ε`` and cell masses are not tiny,
    ``E[Z] ≈ m·Σ (p−q)²/(p+q) ≥ 2·m·ε²`` by Cauchy–Schwarz.
    """
    return pykernels.chi2_paired_point_terms(counts_x, counts_y, mask)


def median_paired_interval_statistics(
    counts_x: np.ndarray,
    counts_y: np.ndarray,
    partition: Partition,
    mask: np.ndarray,
) -> np.ndarray:
    """Median-amplified per-interval paired statistics from pre-drawn counts.

    ``counts_x``/``counts_y`` have shape ``(repeats, n)`` — one Poissonized
    count vector per stream per repeat.  Both streams' rows are first
    aggregated to interval totals (the DKN17 flattening: closeness of the
    flattened distributions is exactly closeness of the interval-mass
    vectors), then the paired terms are computed per interval and the
    entrywise median over repeats is returned.  ``mask`` is a boolean mask
    over the partition's *intervals* (the jointly-kept set).
    """
    counts_x = np.asarray(counts_x, dtype=np.float64)
    counts_y = np.asarray(counts_y, dtype=np.float64)
    if counts_x.ndim != 2 or counts_x.shape != counts_y.shape:
        raise ValueError(
            f"counts must be matching (repeats, n) matrices, got "
            f"{counts_x.shape} and {counts_y.shape}"
        )
    if partition.n != counts_x.shape[1]:
        raise ValueError("partition does not cover the domain")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(partition),):
        raise ValueError("mask must cover the partition's intervals")
    starts = partition.boundaries[:-1]
    interval_x = pykernels.aggregate_rows(counts_x, starts)
    interval_y = pykernels.aggregate_rows(counts_y, starts)
    terms = paired_point_terms(interval_x, interval_y, mask)
    return np.median(terms, axis=0)


def collect_interval_statistics(
    source: SampleSource,
    reference: DiscreteDistribution | Histogram | np.ndarray,
    m: float,
    partition: Partition,
    mask: np.ndarray,
    repeats: int = 1,
) -> np.ndarray:
    """Draw ``repeats`` independent Poissonized batches and return the
    entrywise median of the per-interval statistics (the paper's standard
    median amplification of §3.2.1)."""
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    counts = np.stack([source.draw_counts_poissonized(m) for _ in range(repeats)])
    return median_interval_statistics(counts, m, reference, partition, mask)


def chi2_test(
    source: SampleSource,
    reference: DiscreteDistribution | Histogram | np.ndarray,
    eps: float,
    *,
    m: float,
    accept_fraction: float = 1.0 / 10.0,
    truncation: float = 1.0 / 50.0,
    domain_mask: np.ndarray | None = None,
    partition: Partition | None = None,
    repeats: int = 1,
) -> Chi2Result:
    """The Theorem 3.2 tester: accept χ²-close, reject TV-far.

    Accepts iff the (median-amplified) total statistic satisfies
    ``Z ≤ accept_fraction · m · ε²``.  With ``domain_mask`` this is the
    subdomain variant used as Step 13 of Algorithm 1; standalone (no mask)
    it reproduces [ADK15]'s tolerant identity tester.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    ref = _reference_pmf(reference)
    if len(ref) != source.n:
        raise ValueError("reference does not cover the source domain")
    part = partition if partition is not None else Partition.trivial(source.n)
    mask = active_mask(ref, eps, truncation, domain_mask)
    before = source.samples_drawn
    z_per_interval = collect_interval_statistics(source, ref, m, part, mask, repeats)
    statistic = float(z_per_interval.sum())
    threshold = accept_fraction * m * eps * eps
    return Chi2Result(
        accept=statistic <= threshold,
        statistic=statistic,
        threshold=threshold,
        m=m,
        interval_statistics=z_per_interval,
        samples_used=source.samples_drawn - before,
    )


def expected_statistic(
    dist: DiscreteDistribution | np.ndarray,
    reference: DiscreteDistribution | Histogram | np.ndarray,
    m: float,
    eps: float,
    truncation: float = 1.0 / 50.0,
    domain_mask: np.ndarray | None = None,
) -> float:
    """Ground truth ``E[Z] = m · Σ_{A} (D − D*)²/D*`` (tests & E11)."""
    p = dist.pmf if isinstance(dist, DiscreteDistribution) else np.asarray(dist)
    ref = _reference_pmf(reference)
    mask = active_mask(ref, eps, truncation, domain_mask)
    diff = p[mask] - ref[mask]
    return float(m * np.sum(diff * diff / ref[mask]))
