"""Tester backend registry.

The repo ships two implementations of the histogram-testing decision
procedure, selected by the ``backend=`` knob that every tester entry point
(:func:`~repro.core.tester.test_histogram`, the stepped
:class:`~repro.core.tester.TesterPipeline`, ``select_k``, sweeps, the serve
layer, the CLI) threads through:

* ``pods16`` — Algorithm 1 of the source paper (partition → learn → sieve →
  check → final χ² at ``ε' = 13ε/30``).  The fidelity reference: its budget
  and behaviour match the paper's analysis stage for stage.
* ``cdkl22`` — the near-optimal tester in the style of the follow-up work
  the corrigendum points at (Canonne–Diakonikolas–Kane–Liu, arXiv:2207.06596),
  built on the *same* partition/learner/projection/χ² substrate: a
  testing-by-learning reduction with no sieve, a trimmed final statistic,
  and an adaptive two-stage sample schedule.  See
  :mod:`repro.core.backends.cdkl22`.

Each backend is a :class:`~repro.core.pipeline.Procedure` on the one
pipeline skeleton; :func:`procedure_for` resolves the name.  Unlike the
projection ``engine`` knob (execution-only, fingerprint-exempt), the
backend changes sample budgets and — on marginal inputs — verdicts, so it
**is** part of experiment checkpoint fingerprints and admission prices.
"""

from __future__ import annotations

from repro.core.backends.cdkl22 import CDKL22
from repro.core.config import TesterConfig
from repro.core.pipeline import PODS16, Procedure

BACKENDS = ("pods16", "cdkl22")
DEFAULT_BACKEND = "pods16"
_PROCEDURES = {"pods16": PODS16, "cdkl22": CDKL22}


def validate_backend(backend: str) -> str:
    """Return ``backend`` if known, raise ``ValueError`` otherwise."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def procedure_for(backend: str) -> Procedure:
    """The procedure object that implements ``backend``."""
    return _PROCEDURES[validate_backend(backend)]


def backend_budget(
    backend: str, n: int, k: int, eps: float, config: TesterConfig | None = None
) -> float:
    """Worst-case sample budget of ``backend`` on an ``(n, k, ε)`` instance.

    Single dispatch point so admission control, ledger caps, and the budget
    experiments all price a backend identically.
    """
    return procedure_for(backend).budget(n, k, eps, config)
