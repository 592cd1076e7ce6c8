"""Sample access discipline.

Testing algorithms must only see i.i.d. samples, never the pmf.  To keep
that honest (and to account sample budgets exactly, which the whole
evaluation revolves around), every tester in this library draws through a
:class:`SampleSource` — a wrapper around a distribution that exposes *only*
sampling operations and counts every sample drawn.

Accounting is **integer-exact**: every charge is coerced through
:func:`charge_units` (``ceil`` for fractional Poissonized expectations), so
``samples_drawn``/``lifetime_drawn`` are exact integers that per-stage
ledgers can reconcile without tolerance (see
:mod:`repro.observability.ledger`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.kernels import pykernels
from repro.util.rng import RandomState, child_rng, ensure_rng


def counts_from_samples(samples: np.ndarray, n: int) -> np.ndarray:
    """Occurrence counts ``N_i`` over the domain ``{0, …, n-1}``
    (metered as the ``sampling.counts_from_samples`` kernel op)."""
    samples = np.asarray(samples, dtype=np.int64)
    if len(samples) and (samples.min() < 0 or samples.max() >= n):
        raise ValueError("samples outside the domain")
    return pykernels.counts_from_samples(samples, n)


def charge_units(m: float) -> int:
    """The integer budget charge for a requested draw size.

    Exact draws pass through unchanged; fractional Poissonized expectations
    round *up* — the conservative direction for a budget (never under-bill
    against the cap), and the only choice that keeps per-stage ledger sums
    integer-exact.
    """
    if m < 0:
        raise ValueError(f"sample size must be non-negative, got {m}")
    return int(math.ceil(m))


class SampleBudgetExceeded(RuntimeError):
    """A draw would push a capped source past its ``max_samples`` limit.

    Raised *before* any samples are served, so a capped source never
    over-delivers: a runaway configuration fails fast instead of simulating
    forever.  See :func:`repro.core.budget.capped_source` for deriving a cap
    from the closed-form budget of Algorithm 1.
    """

    def __init__(self, requested: int, drawn: int, max_samples: int) -> None:
        super().__init__(
            f"sample budget exhausted: draw of {requested:,d} would bring the "
            f"total to {drawn + requested:,d}, over the cap of "
            f"{max_samples:,d} — raise max_samples or shrink the "
            "configuration (see repro.core.budget.algorithm1_budget)"
        )
        self.requested = requested
        self.drawn = drawn
        self.max_samples = max_samples


class SampleSource:
    """Sample-only access to an unknown distribution, with budget accounting.

    ``poissonized`` draws report the *expected* number of samples to the
    budget (the standard accounting under the Poissonization trick: the
    realised ``Poisson(m)`` count concentrates around ``m``); a fractional
    expectation is charged as ``ceil(m)`` so the books stay integral.

    ``max_samples`` optionally caps the *per-trial* total: a draw that would
    exceed it raises :class:`SampleBudgetExceeded` before serving anything.
    ``reset_budget`` restarts the per-trial counter (and the headroom under
    the cap) while :attr:`lifetime_drawn` keeps the cumulative audit total.
    """

    def __init__(
        self,
        dist: DiscreteDistribution,
        rng: RandomState = None,
        *,
        max_samples: float | None = None,
    ) -> None:
        self._dist = dist
        self._rng = ensure_rng(rng)
        self._init_accounting(max_samples)

    # -- budget accounting (shared with every SampleSource subclass) -------

    def _init_accounting(self, max_samples: float | None) -> None:
        if max_samples is not None and max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        # A fractional cap is ceiled once here; everything downstream is int.
        self._max_samples = None if max_samples is None else charge_units(max_samples)
        self._drawn = 0
        self._lifetime_drawn = 0
        self._draw_calls = 0

    def _check_budget(self, m: float) -> None:
        units = charge_units(m)
        if self._max_samples is not None and self._drawn + units > self._max_samples:
            raise SampleBudgetExceeded(units, self._drawn, self._max_samples)

    def _record(self, m: float) -> None:
        units = charge_units(m)
        self._drawn += units
        self._lifetime_drawn += units
        self._draw_calls += 1

    def _charge(self, m: float) -> None:
        self._check_budget(m)
        self._record(m)

    @property
    def n(self) -> int:
        """Domain size (public knowledge in the testing model)."""
        return self._dist.n

    @property
    def samples_drawn(self) -> int:
        """Samples charged since the last ``reset_budget`` (ceiled expected
        counts for Poisson draws).  Always an exact integer."""
        return self._drawn

    @property
    def lifetime_drawn(self) -> int:
        """Cumulative samples charged over the source's whole life.

        Unlike :attr:`samples_drawn` this is never reset: it audits total
        draw volume across trials even when per-trial counters are zeroed.
        """
        return self._lifetime_drawn

    @property
    def draw_calls(self) -> int:
        """Number of charged draw operations over the source's life."""
        return self._draw_calls

    @property
    def max_samples(self) -> int | None:
        """The per-trial hard cap (an integer), or ``None`` when unenforced."""
        return self._max_samples

    def reset_budget(self) -> None:
        """Zero the per-trial sample counter (e.g. between independent
        trials).  :attr:`lifetime_drawn` is unaffected."""
        self._drawn = 0

    def draw(self, m: int) -> np.ndarray:
        """``m`` i.i.d. samples as domain indices."""
        self._charge(m)
        return self._dist.sample(m, self._rng)

    def draw_counts(self, m: int) -> np.ndarray:
        """Occurrence counts of ``m`` i.i.d. samples."""
        self._charge(m)
        return self._dist.sample_counts(m, self._rng)

    def draw_counts_poissonized(self, m: float) -> np.ndarray:
        """Independent per-element counts ``N_i ~ Poisson(m · D(i))``."""
        self._charge(m)
        return self._dist.sample_counts_poissonized(m, self._rng)

    def spawn(self) -> "SampleSource":
        """An independent source over the same distribution (fresh stream),
        sharing no budget with the parent — used for trial isolation.  The
        per-trial cap (if any) carries over with fresh headroom."""
        return SampleSource(
            self._dist, child_rng(self._rng), max_samples=self._max_samples
        )

    def permuted(self, sigma: np.ndarray) -> "SampleSource":
        """A source for the relabeled distribution ``D ∘ σ⁻¹``.

        Models the Section-4.2 reduction step: "re-building the identity of
        the samples according to σ" — samples from the permuted source are
        exactly ``σ(s)`` for ``s`` drawn from the original.
        """
        return SampleSource(
            self._dist.permute(sigma),
            child_rng(self._rng),
            max_samples=self._max_samples,
        )


class _JointBudgetStream(SampleSource):
    """One stream of a :class:`PairedSampleSource`.

    Draws are served by the underlying per-stream source (so fault-injecting
    or deadline wrappers compose unchanged: pass a wrapped source into the
    pair), but every charge is checked against — and recorded into — the
    pair's *joint* budget in addition to this stream's own counters.  The
    stream's own counters are the accounting surface of record for the pair:
    they are charged before delegation, so ``pair.samples_drawn`` stays
    integer-exact even when the base source faults mid-draw.
    """

    def __init__(self, pair: "PairedSampleSource", base: SampleSource) -> None:
        self._pair = pair
        self._base = base
        self._init_accounting(None)

    @property
    def n(self) -> int:
        return self._base.n

    @property
    def max_samples(self) -> int | None:
        """The pair's *joint* cap: one budget governs both streams."""
        return self._pair.max_samples

    def _charge(self, m: float) -> None:
        units = charge_units(m)
        self._pair._check_joint(units)
        self._record(units)
        self._pair._record_joint(units)

    def draw(self, m: int) -> np.ndarray:
        self._charge(m)
        return self._base.draw(m)

    def draw_counts(self, m: int) -> np.ndarray:
        self._charge(m)
        return self._base.draw_counts(m)

    def draw_counts_poissonized(self, m: float) -> np.ndarray:
        self._charge(m)
        return self._base.draw_counts_poissonized(m)

    def spawn(self) -> "SampleSource":
        raise TypeError(
            "a paired stream cannot be spawned on its own — spawn the "
            "PairedSampleSource so the joint budget is preserved"
        )

    def permuted(self, sigma: np.ndarray) -> "SampleSource":
        raise TypeError("paired streams do not support permutation")


class PairedSampleSource:
    """Two per-stream sample sources sharing one joint budget.

    The two-sample closeness tester (:mod:`repro.core.closeness`) draws from
    two unknown distributions ``p`` and ``q``.  The quantity the
    sample-complexity experiments measure — and the quantity a
    :class:`~repro.observability.ledger.SampleLedger` reconciles — is the
    *sum* over both streams, so the pair enforces one joint ``max_samples``
    cap while each stream keeps its own ``lifetime_drawn`` audit trail.

    Either side may be a raw :class:`DiscreteDistribution` (sampled through a
    child stream of ``rng``) or an existing :class:`SampleSource` (e.g. a
    fault-injecting or deadline wrapper), whose own per-source cap, if any,
    stays enforced underneath the joint one.
    """

    def __init__(
        self,
        p: DiscreteDistribution | SampleSource,
        q: DiscreteDistribution | SampleSource,
        rng: RandomState = None,
        *,
        max_samples: float | None = None,
    ) -> None:
        if isinstance(p, SampleSource) and isinstance(q, SampleSource):
            if rng is not None:
                raise ValueError("cannot reseed existing SampleSources")
        else:
            rng = ensure_rng(rng)
        base_p = p if isinstance(p, SampleSource) else SampleSource(p, child_rng(rng))
        base_q = q if isinstance(q, SampleSource) else SampleSource(q, child_rng(rng))
        if base_p.n != base_q.n:
            raise ValueError(
                f"paired sources must share a domain, got n={base_p.n} and n={base_q.n}"
            )
        if max_samples is not None and max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self._max_samples = None if max_samples is None else charge_units(max_samples)
        self._drawn = 0
        self._lifetime_drawn = 0
        self.p = _JointBudgetStream(self, base_p)
        self.q = _JointBudgetStream(self, base_q)

    # -- joint accounting ---------------------------------------------------

    def _check_joint(self, units: int) -> None:
        if self._max_samples is not None and self._drawn + units > self._max_samples:
            raise SampleBudgetExceeded(units, self._drawn, self._max_samples)

    def _record_joint(self, units: int) -> None:
        self._drawn += units
        self._lifetime_drawn += units

    @property
    def n(self) -> int:
        """Shared domain size of both streams."""
        return self.p.n

    @property
    def samples_drawn(self) -> int:
        """Joint per-trial total over both streams (always an exact
        integer; always equals ``p.samples_drawn + q.samples_drawn``)."""
        return self._drawn

    @property
    def lifetime_drawn(self) -> int:
        """Cumulative joint total; never reset."""
        return self._lifetime_drawn

    @property
    def draw_calls(self) -> int:
        """Charged draw operations across both streams."""
        return self.p.draw_calls + self.q.draw_calls

    @property
    def max_samples(self) -> int | None:
        """The joint per-trial hard cap, or ``None`` when unenforced."""
        return self._max_samples

    def reset_budget(self) -> None:
        """Zero the joint and both per-stream per-trial counters."""
        self._drawn = 0
        self.p.reset_budget()
        self.q.reset_budget()

    def spawn(self) -> "PairedSampleSource":
        """An independent pair over the same distributions (fresh streams,
        fresh joint headroom) — used for trial isolation."""
        return PairedSampleSource(
            self.p._base.spawn(), self.q._base.spawn(), max_samples=self._max_samples
        )


def as_source(
    dist: DiscreteDistribution | SampleSource, rng: RandomState = None
) -> SampleSource:
    """Normalise tester input: wrap a raw distribution into a source.

    When ``dist`` is already a source, ``rng`` must be None (the source owns
    its stream).
    """
    if isinstance(dist, SampleSource):
        if rng is not None:
            raise ValueError("cannot reseed an existing SampleSource")
        return dist
    return SampleSource(dist, rng)
