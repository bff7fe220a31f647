"""Deterministic sorter-ops baseline: ``BENCH_sorter.json`` and its checker.

Wall-clock timing is too noisy to gate CI on, but the *operation counts* a
sorter performs on a fixed input are exactly reproducible: same stream,
same algorithm, same comparisons and moves.  This module pins those counts
for every paper algorithm on the three synthetic delay models (§VI-A3) and
fails when a change inflates any cell past a ratio — an algorithmic
regression (say, a cutoff change that degrades backward-sort to quadratic
behaviour) caught without ever measuring time.

Usage::

    python -m repro.bench.baseline --write             # refresh the baseline
    python -m repro.bench.baseline --check BENCH_sorter.json --max-ratio 2.0

Exit status: 0 when within budget, 1 on a regression or a baseline/current
cell mismatch, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.sorting import PAPER_ALGORITHMS, get_sorter
from repro.theory.distributions import (
    AbsNormalDelay,
    DelayDistribution,
    ExponentialDelay,
    LogNormalDelay,
)
from repro.workloads import TimeSeriesGenerator

#: The synthetic delay models of the paper's evaluation (§VI-A3).
DELAY_MODELS: tuple[tuple[str, DelayDistribution], ...] = (
    ("exponential", ExponentialDelay(lam=1.0)),
    ("absnormal", AbsNormalDelay(mu=1.0, sigma=1.0)),
    ("lognormal", LogNormalDelay(mu=1.0, sigma=1.0)),
)

DEFAULT_N = 4000
DEFAULT_SEED = 42
DEFAULT_PATH = "BENCH_sorter.json"
DEFAULT_MAX_RATIO = 2.0

#: Shard counts pinned by the ingest-throughput cells.
INGEST_SHARD_COUNTS = (1, 4)
#: Devices of the ingest workload (spread over the shards by the router).
INGEST_DEVICES = 8
#: Ceiling on the batched ingest run's WAL bytes: a column frame costs 8
#: bytes per numeric value, at most 8 per deflated timestamp, and about 30
#: bytes plus the two names per frame (one flush each); the JSON frames it
#: replaced cost ~54 bytes per point.
WAL_BYTES_PER_POINT = 16
WAL_BYTES_PER_FRAME = 64


def _ingest_workload(n: int, seed: int):
    """The seeded batched write workload every ingest cell drives."""
    from repro.bench.workload import SystemWorkloadConfig

    return SystemWorkloadConfig(
        dataset="lognormal",
        total_points=n,
        batch_size=max(1, n // 40),
        write_percentage=1.0,
        device="root.baseline.d",
        n_devices=INGEST_DEVICES,
        seed=seed,
    )


def _ingest_shard_ops(n: int, seed: int, shards: int) -> dict[int, int]:
    """Per-shard work of one deterministic batched ingest run.

    A shard's work is the points it accepted (route + memtable insert)
    plus the comparisons and moves its flush sorts performed — all
    operation counts, never time, so the numbers are machine-independent.
    The ingest is driven single-threaded: shard totals depend only on the
    device→shard routing and each device's seeded arrival stream.
    """
    from repro.bench.workload import WriteOp, build_operations
    from repro.iotdb import IoTDBConfig, StorageEngine

    workload = _ingest_workload(n, seed)
    engine = StorageEngine.create(
        IoTDBConfig(
            sorter="backward",
            shards=shards,
            memtable_flush_threshold=max(2, n // 16),
        )
    )
    for op in build_operations(workload):
        if isinstance(op, WriteOp):
            engine.write_batch(op.device, workload.sensor, op.timestamps, op.values)
    engine.flush_all()
    per_shard: dict[int, int] = {}
    for shard in engine.shards:
        sort_ops = sum(
            chunk.sort_stats.comparisons + chunk.sort_stats.moves
            for report in shard.flush_reports
            for chunk in report.chunks
        )
        points = int(shard.snapshot()["points_written"])
        per_shard[shard.shard_id] = points + sort_ops
    engine.close()
    return per_shard


def collect_ingest_cells(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED
) -> dict[str, dict[str, int]]:
    """Ingest-throughput cells: critical-path op counts per shard count.

    ``critical_path_ops`` is the busiest shard's work — the run's length
    under perfect parallelism, the deterministic proxy for ingest
    throughput (lower = faster).  By construction the sharded cell's
    critical path cannot exceed the unsharded one, which pins "a sharded
    engine ingests at least as fast" without measuring wall-clock.
    ``total_ops`` guards against sharding inflating the *aggregate* work.
    """
    cells: dict[str, dict[str, int]] = {}
    for shards in INGEST_SHARD_COUNTS:
        per_shard = _ingest_shard_ops(n, seed, shards)
        cells[f"ingest/shards={shards}"] = {
            "critical_path_ops": max(per_shard.values()),
            "total_ops": sum(per_shard.values()),
        }
    return cells


def _ingest_path_wal_work(n: int, seed: int, batched: bool) -> dict[str, int]:
    """WAL work (bytes + flush syscalls) of one ingest run, point vs batch.

    The same seeded workload is driven through ``engine.write`` point by
    point (batches of one) or through ``engine.write_batch`` per generated
    batch; the WAL is enabled and both runs go down the one write path, so
    the difference between the two cells is exactly the framing and flush
    amortisation a larger batch size buys.
    """
    from repro.bench.workload import WriteOp, build_operations
    from repro.iotdb import IoTDBConfig, StorageEngine

    workload = _ingest_workload(n, seed)
    engine = StorageEngine.create(
        IoTDBConfig(
            sorter="backward",
            wal_enabled=True,
            memtable_flush_threshold=max(2, n // 16),
        )
    )
    for op in build_operations(workload):
        if not isinstance(op, WriteOp):
            continue
        if batched:
            engine.write_batch(op.device, workload.sensor, op.timestamps, op.values)
        else:
            for t, v in zip(op.timestamps, op.values):
                engine.write(op.device, workload.sensor, t, v)
    engine.flush_all()
    stats = engine.wal_stats()
    engine.close()
    return stats


def collect_ingest_path_cells(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED
) -> dict[str, dict[str, int]]:
    """Batch-size-1 vs generated-batch ingest cells, measured in WAL work.

    The checker enforces — structurally, every run — that the batched
    run's total (bytes + flushes) is strictly below the point-by-point
    run's: that amortisation is the whole reason clients batch.
    """
    return {
        f"ingest/path={name}": _ingest_path_wal_work(n, seed, batched)
        for name, batched in (("point", False), ("batch", True))
    }


def collect_backend_cells(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED
) -> dict[str, dict[str, int]]:
    """Persisted-byte accounting of one WAL-enabled ingest run.

    The seeded batched workload runs over a ``data_dir`` tree; the cell
    records the WAL bytes/flushes the run appended and the total bytes of
    the sealed TsFiles it left behind — exact byte/operation counts of
    deterministic encoders.  One cell is enough: that every store
    persists identical bytes is proven byte-for-byte by
    ``tests/iotdb/test_backend_parity.py``.
    """
    import shutil
    import tempfile

    from repro.bench.workload import WriteOp, build_operations
    from repro.iotdb import IoTDBConfig, StorageEngine

    workload = _ingest_workload(n, seed)
    tmp = tempfile.mkdtemp(prefix="repro-bench-backend-")
    try:
        engine = StorageEngine.create(
            IoTDBConfig(
                sorter="backward",
                wal_enabled=True,
                memtable_flush_threshold=max(2, n // 16),
                data_dir=tmp,
            )
        )
        for op in build_operations(workload):
            if isinstance(op, WriteOp):
                engine.write_batch(
                    op.device, workload.sensor, op.timestamps, op.values
                )
        engine.flush_all()
        wal = engine.wal_stats()
        store = engine.store
        sealed_bytes = sum(
            len(store.get(key))
            for key in store.list("")
            if key.endswith(".tsfile")
        )
        engine.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "ingest/backend=local": {
            "wal_bytes": wal["bytes_appended"],
            "wal_flushes": wal["flushes"],
            "sealed_bytes": sealed_bytes,
        }
    }


def _flush_sort_ops(n: int, seed: int, cache_enabled: bool) -> int:
    """Flush-sort work of a steady multi-flush stream, L-cache on vs off.

    One device, small flush threshold: the same series flushes many times
    with the same arrival pattern, which is the block-size cache's target
    case.  The stream is a heavy-delay LogNormal (``mu=4.0``) whose
    converged ``L`` sits stably several doublings above ``L0`` — on a
    stream where the search converges at its first probe, a cache hit
    costs exactly one probe too and saves nothing.  The returned scalar
    sums comparisons + moves over every flushed chunk — the search's probe
    comparisons land in there, so a working cache shows up as fewer ops.
    """
    from repro.iotdb import IoTDBConfig, StorageEngine

    stream = TimeSeriesGenerator(LogNormalDelay(mu=4.0, sigma=1.0)).generate(
        n, seed=seed
    )
    engine = StorageEngine.create(
        IoTDBConfig(
            sorter="backward",
            sorter_options={"cache_block_sizes": cache_enabled},
            memtable_flush_threshold=max(2, n // 16),
        )
    )
    for t, v in zip(stream.timestamps, stream.values):
        engine.write("root.baseline.f", "s0", t, v)
    engine.flush_all()
    ops = sum(
        chunk.sort_stats.comparisons + chunk.sort_stats.moves
        for report in engine.flush_reports
        for chunk in report.chunks
    )
    engine.close()
    return ops


def collect_flush_cells(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED
) -> dict[str, dict[str, int]]:
    """Flush-sort cells for the per-series block-size cache, on vs off.

    The checker enforces — structurally, every run — that the cached run
    never performs *more* flush-sort ops than the uncached one; the strict
    saving on the default multi-doubling workload is pinned by the
    committed baseline values.
    """
    return {
        f"flush/lcache={name}": {"sort_ops": _flush_sort_ops(n, seed, enabled)}
        for name, enabled in (("on", True), ("off", False))
    }


def _query_index_files_opened(n: int, seed: int, index_enabled: bool) -> int:
    """Sealed files opened by a fixed query set, with or without the index.

    A high-disorder LogNormal stream (heavy-tailed delays spread late
    points across many unsequence files) is ingested with a small flush
    threshold, then a seeded set of narrow range queries runs; the result
    is the summed ``files_opened`` — an operation count, never time, so
    the cell is machine-independent.  The only difference between the two
    cells is ``config.index_enabled``.
    """
    import random

    from repro.iotdb import IoTDBConfig, StorageEngine

    stream = TimeSeriesGenerator(LogNormalDelay(mu=1.0, sigma=2.0)).generate(
        n, seed=seed
    )
    engine = StorageEngine.create(
        IoTDBConfig(
            sorter="backward",
            memtable_flush_threshold=max(2, n // 24),
            index_enabled=index_enabled,
        )
    )
    for t, v in zip(stream.timestamps, stream.values):
        engine.write("root.baseline.q", "s0", t, v)
    engine.flush_all()
    horizon = max(stream.timestamps) + 1
    width = max(1, horizon // 20)
    rng = random.Random(seed + 1)
    opened = 0
    for _ in range(32):
        start = rng.randrange(max(1, horizon - width))
        result = engine.query("root.baseline.q", "s0", start, start + width)
        opened += result.stats.files_opened
    engine.close()
    return opened


def collect_query_index_cells(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED
) -> dict[str, dict[str, int]]:
    """File-open cells for the interval index, on vs off.

    The checker enforces two things: each cell stays within the ratio
    budget of its pinned baseline, and — structurally, every run — the
    ``index=on`` cell opens *strictly fewer* files than ``index=off``
    (the index must actually prune on the high-disorder workload, not
    merely not regress).
    """
    return {
        f"query/index={name}": {
            "files_opened": _query_index_files_opened(n, seed, enabled)
        }
        for name, enabled in (("on", True), ("off", False))
    }


def _live_tail_sort_ops(n: int, seed: int, tail_queries: bool) -> int:
    """Live-TVList sort work of one batched ingest that never flushes.

    One device receives a ``lognormal(1,1)`` stream in batches of 50.  With
    ``tail_queries``, a query of the latest 500 time units follows every
    batch and the result sums each query's comparisons + moves; without,
    one query of everything at the end sorts the whole stream once.
    """
    from repro.iotdb import IoTDBConfig, StorageEngine

    stream = TimeSeriesGenerator(LogNormalDelay(mu=1.0, sigma=1.0)).generate(
        n, seed=seed
    )
    engine = StorageEngine.create(
        IoTDBConfig(sorter="backward", memtable_flush_threshold=2 * n)
    )
    device = "root.baseline.tail"
    latest = 0
    queries = []
    for at in range(0, n, 50):
        ts = stream.timestamps[at : at + 50]
        engine.write_batch(device, "s0", ts, stream.values[at : at + 50])
        latest = max(latest, *ts)
        if tail_queries:
            queries.append(engine.query(device, "s0", latest - 499, latest + 1))
    if not tail_queries:
        queries.append(engine.query(device, "s0", 0, latest + 1))
    engine.close()
    return sum(q.stats.sort_stats.comparisons + q.stats.sort_stats.moves for q in queries)


def collect_live_tail_cells(
    n: int = DEFAULT_N, seed: int = DEFAULT_SEED
) -> dict[str, dict[str, int]]:
    """The live-tail cell: tail queries over a growing live TVList.

    ``query_sort_ops`` is the sort work of a tail query after every batch,
    ``single_sort_ops`` that of sorting the same stream once.  A query
    sorts only what arrived since the previous one and backward-merges it
    into the sorted prefix, so the checker enforces — structurally, every
    run — that the whole loop costs at most twice the single sort.
    """
    return {
        "query/live-tail": {
            "query_sort_ops": _live_tail_sort_ops(n, seed, True),
            "single_sort_ops": _live_tail_sort_ops(n, seed, False),
        }
    }


def collect_baseline(n: int = DEFAULT_N, seed: int = DEFAULT_SEED) -> dict:
    """Op counts for every (algorithm, delay model) and ingest cell.

    Deterministic: the streams are seeded and both the sorters and the
    ingest engine count operations, not time, so two runs on any machine
    produce identical numbers.
    """
    cells: dict[str, dict[str, int]] = {}
    for model_name, delay in DELAY_MODELS:
        stream = TimeSeriesGenerator(delay).generate(n, seed=seed)
        for algorithm in PAPER_ALGORITHMS:
            ts, vs = stream.sort_input()
            stats = get_sorter(algorithm).sort(ts, vs)
            cells[f"{algorithm}/{model_name}"] = {
                "comparisons": stats.comparisons,
                "moves": stats.moves,
            }
    cells.update(collect_ingest_cells(n=n, seed=seed))
    cells.update(collect_backend_cells(n=n, seed=seed))
    cells.update(collect_query_index_cells(n=n, seed=seed))
    cells.update(collect_ingest_path_cells(n=n, seed=seed))
    cells.update(collect_flush_cells(n=n, seed=seed))
    cells.update(collect_live_tail_cells(n=n, seed=seed))
    return {"n": n, "seed": seed, "cells": cells}


def _total(cell: dict[str, int]) -> int:
    """One scalar per cell: the sum of its operation counters."""
    return sum(int(value) for value in cell.values())


def check_invariants(current: dict) -> list[str]:
    """Structural invariants of the *current* run, independent of any
    pinned baseline.

    Each one asserts that an optimisation actually wins on its target
    workload, not merely that it doesn't regress: the interval index must
    open strictly fewer files, the batch ingest path must do strictly less
    WAL work than the point path and log no more than a binary column frame
    costs, the block-size cache must save
    flush-sort ops on a steady stream, and tail queries must not re-sort
    what an earlier query already sorted.
    """
    cells = current.get("cells", {})
    problems: list[str] = []

    on = cells.get("query/index=on")
    off = cells.get("query/index=off")
    if on is not None and off is not None and _total(on) >= _total(off):
        problems.append(
            f"query/index=on opened {_total(on)} files but index=off opened "
            f"{_total(off)}: the interval index must open strictly fewer"
        )

    point = cells.get("ingest/path=point")
    batched = cells.get("ingest/path=batch")
    if point is not None and batched is not None and _total(batched) >= _total(point):
        problems.append(
            f"ingest/path=batch did {_total(batched)} units of WAL work but "
            f"path=point did {_total(point)}: the batch path must do strictly "
            "less"
        )
    if batched is not None:
        points = current.get("n", 0)
        ceiling = WAL_BYTES_PER_POINT * points + WAL_BYTES_PER_FRAME * batched["flushes"]
        if batched["bytes_appended"] > ceiling:
            problems.append(
                f"ingest/path=batch appended {batched['bytes_appended']} WAL "
                f"bytes for {points} points in {batched['flushes']} frames, "
                f"over the {ceiling} a column frame costs "
                f"({WAL_BYTES_PER_POINT} per point + {WAL_BYTES_PER_FRAME} per "
                "frame): the WAL is no longer binary"
            )

    cache_on = cells.get("flush/lcache=on")
    cache_off = cells.get("flush/lcache=off")
    if (
        cache_on is not None
        and cache_off is not None
        and _total(cache_on) > _total(cache_off)
    ):
        # Non-strict: on streams whose chunks converge at the first probe
        # (or are too small to search at all) a cache hit costs exactly one
        # probe — the same as the search — so equality is the correct
        # outcome there.  The cache must simply never cost extra; the
        # strict win on a multi-doubling stream is pinned by the committed
        # baseline values and the sorter's own cache unit tests.
        problems.append(
            f"flush/lcache=on performed {_total(cache_on)} flush-sort ops but "
            f"lcache=off performed {_total(cache_off)}: the block-size cache "
            "must never cost more than the full search"
        )

    tail = cells.get("query/live-tail")
    if tail is not None and tail["query_sort_ops"] > 2 * tail["single_sort_ops"]:
        problems.append(
            f"query/live-tail tail queries performed {tail['query_sort_ops']} "
            f"sort ops but one sort of the stream performed "
            f"{tail['single_sort_ops']}: a query must sort only what arrived "
            "since the last one (at most 2x the single sort)"
        )

    return problems


def check_baseline(
    baseline: dict, current: dict, max_ratio: float
) -> list[str]:
    """Human-readable regression messages; empty when within budget."""
    problems: list[str] = list(check_invariants(current))
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    if set(base_cells) != set(cur_cells):
        missing = sorted(set(base_cells) - set(cur_cells))
        extra = sorted(set(cur_cells) - set(base_cells))
        problems.append(
            f"cell sets differ (missing={missing}, extra={extra}); "
            "refresh the baseline with --write"
        )
        return problems
    for key in sorted(base_cells):
        base_total = _total(base_cells[key])
        cur_total = _total(cur_cells[key])
        if base_total <= 0:
            problems.append(f"{key}: baseline total is {base_total}")
            continue
        ratio = cur_total / base_total
        if ratio > max_ratio:
            problems.append(
                f"{key}: {cur_total} ops vs baseline {base_total} "
                f"({ratio:.2f}x > {max_ratio:.2f}x budget)"
            )
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench-baseline",
        description="Pin / check deterministic sorter operation counts.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--write",
        action="store_true",
        help="collect the counts and write the baseline file",
    )
    mode.add_argument(
        "--check",
        metavar="BASELINE",
        help="collect the counts and compare against BASELINE",
    )
    parser.add_argument(
        "--path",
        default=DEFAULT_PATH,
        help=f"baseline file to write (default: {DEFAULT_PATH})",
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=DEFAULT_MAX_RATIO,
        help=f"fail when any cell exceeds baseline × ratio (default: {DEFAULT_MAX_RATIO})",
    )
    parser.add_argument("--n", type=int, default=DEFAULT_N, help="stream length")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="stream seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_ratio <= 0:
        print("repro-bench-baseline: --max-ratio must be > 0", file=sys.stderr)
        return 2

    current = collect_baseline(n=args.n, seed=args.seed)

    if args.write:
        problems = check_invariants(current)
        if problems:
            for problem in problems:
                print(f"repro-bench-baseline: {problem}", file=sys.stderr)
            return 1
        Path(args.path).write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"repro-bench-baseline: wrote {len(current['cells'])} cells to {args.path}")
        return 0

    baseline_path = Path(args.check)
    if not baseline_path.exists():
        print(
            f"repro-bench-baseline: no such baseline: {baseline_path}",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("n") != current["n"] or baseline.get("seed") != current["seed"]:
        print(
            "repro-bench-baseline: baseline was collected with "
            f"n={baseline.get('n')} seed={baseline.get('seed')}, current run "
            f"uses n={current['n']} seed={current['seed']}",
            file=sys.stderr,
        )
        return 2
    problems = check_baseline(baseline, current, args.max_ratio)
    if problems:
        for problem in problems:
            print(f"repro-bench-baseline: {problem}", file=sys.stderr)
        return 1
    print(
        f"repro-bench-baseline: {len(current['cells'])} cells within "
        f"{args.max_ratio:.2f}x of {baseline_path}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
