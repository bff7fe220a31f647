"""Disabled observability must stay within 5% of the raw sort (ISSUE bound).

The hot path pays one no-op method call per event when ``obs`` is the
shared NOOP: ``timed_sort`` still wraps the sort in a Timer (it always
did), and the span/bridge branches short-circuit on ``obs.enabled``.
Min-of-repeats on a 50k-point Backward-Sort keeps the comparison stable —
the minimum strips scheduler noise, and both paths sort identical fresh
copies of the same workload.

A wall-clock assertion: it lives here, outside ``testpaths``, so a noisy
neighbour cannot decide the deterministic tier-1 gate.  CI runs it as its
own step: ``python -m pytest benchmarks/bench_obs_overhead.py -q``.
"""

from __future__ import annotations

from repro.bench.timing import measure
from repro.core.instrumentation import SortStats
from repro.obs import NOOP
from repro.sorting.registry import get_sorter
from repro.theory import ExponentialDelay
from repro.workloads import TimeSeriesGenerator

N_POINTS = 50_000
REPEATS = 5


def test_noop_obs_overhead_under_five_percent():
    stream = TimeSeriesGenerator(ExponentialDelay(0.3)).generate(N_POINTS, seed=23)
    sorter = get_sorter("backward")

    def fresh():
        return list(stream.timestamps), list(stream.values)

    def raw(arrays):
        ts, vs = arrays
        sorter.sort(ts, vs, SortStats())

    def through_noop(arrays):
        ts, vs = arrays
        sorter.timed_sort(ts, vs, obs=NOOP)

    baseline = measure(raw, repeats=REPEATS, warmup=1, setup=fresh)
    instrumented = measure(through_noop, repeats=REPEATS, warmup=1, setup=fresh)
    ratio = instrumented.minimum / baseline.minimum
    assert ratio < 1.05, (
        f"NOOP observability overhead {ratio:.3f}x exceeds the 5% budget "
        f"(baseline {baseline.minimum:.6f}s, instrumented "
        f"{instrumented.minimum:.6f}s)"
    )
