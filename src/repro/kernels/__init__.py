"""Hot-path kernels: the pure-numpy ops in :mod:`repro.kernels.pykernels`.

Callers import the ops directly; each one is metered into the metrics
registry under a stable op name (see :mod:`repro.kernels.dispatch`).  See
DESIGN.md § "Kernel layer" for why there is one implementation family.
"""

from repro.kernels.dispatch import kernel_seconds_snapshot


def native_available() -> bool:
    """Host fact for benchmark headers: no JIT kernel family exists."""
    return False


def resolve_kernel() -> str:
    """Host fact for benchmark headers: every op runs the numpy kernels."""
    return "python"


__all__ = ["kernel_seconds_snapshot", "native_available", "resolve_kernel"]
