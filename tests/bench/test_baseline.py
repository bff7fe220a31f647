"""Sorter-ops baseline: determinism, write/check roundtrip, regression gate."""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.baseline import (
    DELAY_MODELS,
    INGEST_SHARD_COUNTS,
    check_baseline,
    check_invariants,
    collect_baseline,
    main,
)
from repro.sorting import PAPER_ALGORITHMS

_N = 400  # small streams keep the test fast; determinism is size-independent


def test_collect_is_deterministic():
    first = collect_baseline(n=_N, seed=7)
    second = collect_baseline(n=_N, seed=7)
    assert first == second
    sorter_cells = {
        f"{algorithm}/{model}"
        for algorithm in PAPER_ALGORITHMS
        for model, _ in DELAY_MODELS
    }
    ingest_cells = {f"ingest/shards={shards}" for shards in INGEST_SHARD_COUNTS}
    index_cells = {"query/index=on", "query/index=off"}
    path_cells = {"ingest/path=point", "ingest/path=batch"}
    flush_cells = {"flush/lcache=on", "flush/lcache=off"}
    backend_cells = {"ingest/backend=local"}
    tail_cells = {"query/live-tail"}
    assert set(first["cells"]) == (
        sorter_cells
        | ingest_cells
        | index_cells
        | path_cells
        | flush_cells
        | backend_cells
        | tail_cells
    )
    for name in sorter_cells:
        cell = first["cells"][name]
        assert cell["comparisons"] > 0 and cell["moves"] > 0
    for name in ingest_cells:
        cell = first["cells"][name]
        assert 0 < cell["critical_path_ops"] <= cell["total_ops"]
    for name in index_cells:
        assert first["cells"][name]["files_opened"] > 0
    for name in path_cells:
        cell = first["cells"][name]
        assert cell["bytes_appended"] > 0 and cell["flushes"] > 0
    for name in flush_cells:
        assert first["cells"][name]["sort_ops"] > 0
    for name in backend_cells:
        cell = first["cells"][name]
        assert cell["wal_bytes"] > 0 and cell["sealed_bytes"] > 0
    for name in tail_cells:
        cell = first["cells"][name]
        assert 0 < cell["single_sort_ops"] <= cell["query_sort_ops"]


def test_sharded_ingest_critical_path_never_exceeds_unsharded():
    # The throughput gate: under the op-count proxy, the four-shard
    # engine's busiest shard does at most the single shard's whole work.
    cells = collect_baseline(n=_N, seed=7)["cells"]
    assert (
        cells["ingest/shards=4"]["critical_path_ops"]
        <= cells["ingest/shards=1"]["critical_path_ops"]
    )


def test_write_then_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    assert main(["--write", "--path", str(path), "--n", str(_N)]) == 0
    assert main(["--check", str(path), "--n", str(_N)]) == 0
    assert "within" in capsys.readouterr().out


def test_check_fails_on_an_ops_regression(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    assert main(["--write", "--path", str(path), "--n", str(_N)]) == 0
    baseline = json.loads(path.read_text(encoding="utf-8"))
    # Shrink every pinned cell: the (unchanged) current counts now look
    # like a >2x regression against the doctored baseline.
    for cell in baseline["cells"].values():
        for key in cell:
            cell[key] //= 3
    path.write_text(json.dumps(baseline), encoding="utf-8")
    capsys.readouterr()
    assert main(["--check", str(path), "--n", str(_N)]) == 1
    err = capsys.readouterr().err
    assert "budget" in err


def test_check_rejects_mismatched_parameters(tmp_path, capsys):
    path = tmp_path / "baseline.json"
    assert main(["--write", "--path", str(path), "--n", str(_N)]) == 0
    assert main(["--check", str(path), "--n", str(_N * 2)]) == 2
    assert "baseline was collected with" in capsys.readouterr().err


def test_check_rejects_missing_baseline(tmp_path, capsys):
    assert main(["--check", str(tmp_path / "nope.json"), "--n", str(_N)]) == 2
    assert "no such baseline" in capsys.readouterr().err


def test_check_reports_cell_set_drift():
    baseline = {"cells": {"backward/exponential": {"comparisons": 1, "moves": 1}}}
    current = {"cells": {"quick/exponential": {"comparisons": 1, "moves": 1}}}
    problems = check_baseline(baseline, current, max_ratio=2.0)
    assert len(problems) == 1
    assert "cell sets differ" in problems[0]


def test_index_on_opens_strictly_fewer_files():
    # The CI-enforced payoff: on the high-disorder LogNormal workload the
    # interval index must prune, not merely not regress.
    cells = collect_baseline(n=_N, seed=7)["cells"]
    assert (
        cells["query/index=on"]["files_opened"]
        < cells["query/index=off"]["files_opened"]
    )


def test_invariant_catches_a_non_pruning_index():
    current = {
        "cells": {
            "query/index=on": {"files_opened": 10},
            "query/index=off": {"files_opened": 10},
        }
    }
    problems = check_invariants(current)
    assert len(problems) == 1
    assert "strictly fewer" in problems[0]
    # And the full checker surfaces it even when every ratio is in budget.
    assert check_baseline(current, current, max_ratio=2.0) == problems


def test_invariant_catches_tail_queries_that_resort_the_list():
    # Re-sorting the whole live list on every tail query costs ~40x one
    # sort of the stream on this cell.
    current = {
        "cells": {
            "query/live-tail": {"query_sort_ops": 929_091, "single_sort_ops": 23_331}
        }
    }
    problems = check_invariants(current)
    assert len(problems) == 1
    assert "arrived since the last one" in problems[0]


def test_invariant_catches_a_wal_that_is_no_longer_binary():
    # The JSON batch frame logged 218 182 bytes for this cell's 4 000 points.
    point = {"bytes_appended": 249_630, "flushes": 4_000}
    json_batch = {"bytes_appended": 218_182, "flushes": 69}
    current = {
        "n": 4000,
        "cells": {"ingest/path=point": point, "ingest/path=batch": json_batch},
    }
    problems = check_invariants(current)
    assert len(problems) == 1
    assert "no longer binary" in problems[0]
    # The column frames of the same run: 42 193 bytes, ~10.5 per point.
    column_batch = {"bytes_appended": 42_193, "flushes": 69}
    current["cells"]["ingest/path=batch"] = column_batch
    assert check_invariants(current) == []


def test_committed_baseline_matches_the_current_tree():
    committed = Path(__file__).resolve().parents[2] / "BENCH_sorter.json"
    baseline = json.loads(committed.read_text(encoding="utf-8"))
    current = collect_baseline(n=baseline["n"], seed=baseline["seed"])
    assert check_baseline(baseline, current, max_ratio=2.0) == []
