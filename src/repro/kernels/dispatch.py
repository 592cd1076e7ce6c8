"""Kernel metering: every hot-path op records its calls and wall time.

Each op in :mod:`repro.kernels.pykernels` carries :func:`metered` under a
stable op name (``"rank_tree.prefix_stats"``, ``"blocks.cover_walk"``, …)
and records every call into the metrics registry:

    ``kernels.seconds{op=…, kernel="python"}`` — a distribution whose
    ``count`` is the number of calls and whose ``sum`` is the wall-clock
    seconds spent inside them.

The series is fetched on every call, so metering resumes into fresh series
after a ``get_metrics().reset()``.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

from repro.observability.metrics import Distribution, get_metrics

def metered(op: str) -> Callable[[Callable], Callable]:
    """Decorator: meter ``fn`` as op ``op`` (exposed as ``fn.op``)."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def call(*args: Any, **kwargs: Any) -> Any:
            metric = get_metrics().distribution("kernels.seconds", op=op, kernel="python")
            tick = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                metric.observe(time.perf_counter() - tick)

        call.op = op
        return call

    return decorate


def kernel_seconds_snapshot() -> "list[tuple[str, str, int, float]]":
    """Rows ``(op, kernel, calls, seconds)`` from the metrics registry.

    Sourced from the process-wide ``kernels.seconds`` distributions — the
    data behind ``repro test --stage-timings``'s per-op breakdown.
    """
    rows = []
    for inst in get_metrics():
        if isinstance(inst, Distribution) and inst.name == "kernels.seconds":
            rows.append(
                (
                    str(inst.labels.get("op", "?")),
                    str(inst.labels.get("kernel", "?")),
                    int(inst.count),
                    float(inst.total),
                )
            )
    rows.sort(key=lambda row: (-row[3], row[0], row[1]))
    return rows
