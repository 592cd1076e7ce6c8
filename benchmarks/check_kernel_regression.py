"""CI kernel-layer gate: speedup, memory, and drift.

Compares a freshly produced ``BENCH_e26.json`` (see
``bench_e26_kernel_layer.py``) against **two** committed baselines:

* ``baselines/BENCH_e22_baseline.json`` — the pre-kernel fast-engine
  times.  The **speedup gate** divides the baseline's largest-``n`` time
  by the fresh run's time at the same ``n`` and requires ≥ 1.5×.  The
  largest grid point is the one the kernel layer exists for — smaller
  sizes are overhead-dominated and noisy.
* ``baselines/BENCH_e26_baseline.json`` — the post-kernel reference.  The
  **drift gate** requires every fresh time to stay within
  ``--factor`` of this baseline's (which already carries 1.5× headroom
  for slower CI hosts), so the kernel layer itself can't quietly rot.

One ungated-by-factor check rides along: ``peak_memory_slope`` must stay
≤ 1.5 — the sparse-table / block-table preallocation contract is O(n·k);
a quadratic table would show ≈ 2.

``REPRO_PERF_FACTOR`` overrides ``--factor`` on the *timing* gates only
(the speedup threshold is divided by ``factor / 2`` so the default keeps
the literal 1.5× bar while a known-slow runner can loosen both timing
gates together); the memory gate never loosens.

Usage::

    python benchmarks/check_kernel_regression.py BENCH_e26.json
        [--e22-baseline PATH] [--baseline PATH] [--factor 2.0]
"""

import argparse
import json
import os
import sys
from pathlib import Path

BASELINES = Path(__file__).parent / "baselines"
DEFAULT_E22 = BASELINES / "BENCH_e22_baseline.json"
DEFAULT_E26 = BASELINES / "BENCH_e26_baseline.json"

#: Required speedup over the pre-kernel E22 baseline at the largest
#: shared grid point.
SPEEDUP_REQUIRED = 1.5


def load(path: "str | Path") -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if "metrics" not in data or "bench" not in data:
        raise SystemExit(f"{path}: not a BENCH_*.json payload")
    return data


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="freshly produced BENCH_e26.json")
    parser.add_argument("--e22-baseline", default=DEFAULT_E22,
                        help="pre-kernel times the speedup gate divides")
    parser.add_argument("--baseline", default=DEFAULT_E26,
                        help="post-kernel times the drift gate compares")
    parser.add_argument("--factor", type=float, default=None,
                        help="allowed slowdown vs baselines (default 2.0)")
    args = parser.parse_args(argv)

    factor = args.factor
    if factor is None:
        factor = float(os.environ.get("REPRO_PERF_FACTOR", "2.0"))
    if factor <= 0:
        raise SystemExit(f"factor must be positive, got {factor}")

    fresh = load(args.fresh)
    e22 = load(args.e22_baseline)
    e26 = load(args.baseline)
    if fresh["bench"] != "e26":
        raise SystemExit(f"fresh payload is {fresh['bench']!r}, expected 'e26'")
    if e22["bench"] != "e22" or e26["bench"] != "e26":
        raise SystemExit("baseline bench tags do not match e22/e26")

    failures = []
    pre = e22["metrics"].get("fast_seconds_by_n", {})

    times = fresh["metrics"].get("fast_seconds_by_n_python")
    if times is None:
        raise SystemExit("fresh run has no fast-engine timings")

    # Speedup gate: largest grid point shared with the pre-kernel baseline.
    shared = sorted(set(pre) & set(times), key=int)
    if not shared:
        raise SystemExit("no shared sizes between fresh run and E22 baseline")
    n = shared[-1]
    bar = SPEEDUP_REQUIRED / (factor / 2.0)
    speedup = pre[n] / times[n]
    verdict = "ok" if speedup >= bar else "REGRESSION"
    print(f"speedup gate: n={n} {pre[n]:.3f}s -> {times[n]:.3f}s "
          f"= {speedup:.2f}x (>= {bar:g}x)  {verdict}")
    if speedup < bar:
        failures.append("speedup")

    # Drift gate: fresh times vs the committed post-kernel baseline.
    post = e26["metrics"].get("fast_seconds_by_n_python", {})
    shared = sorted(set(post) & set(times), key=int)
    print(f"drift gate: fresh <= {factor:g}x E26 baseline ({len(shared)} sizes)")
    for n in shared:
        allowed = factor * post[n]
        got = times[n]
        verdict = "ok" if got <= allowed else "REGRESSION"
        print(f"  n={n:>6}: {got:8.3f}s vs allowed {allowed:8.3f}s  {verdict}")
        if got > allowed:
            failures.append(f"drift-{n}")

    # Memory gate — never loosened by --factor.
    slope = fresh["metrics"].get("peak_memory_slope")
    print(f"memory gate: peak log-log slope {slope:.2f} (<= 1.5)")
    if not slope <= 1.5:
        failures.append("memory-slope")

    if failures:
        print(f"FAIL: {failures}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
