"""Smoke test of the regression benchmark (``pytest perf/``, not tier-1).

Runs the real command at 1/20 length (``--seconds 1``) and checks the shape of what it prints
against ``BENCHMARK.json``, that the byte and point counters are a function
of the seed alone, and that the oracle fails a run whose answers are wrong.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
UNITS = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
ROW = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")


def quick(*args: str) -> dict[tuple[str, str], dict]:
    """``{(workload, "untraced"|"traced"): {"rows": ..., "result": ...}}``
    parsed from one ``perf/run.py --seconds 1`` invocation."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    runs: dict[tuple[str, str], dict] = {}
    current = None
    for line in done.stdout.splitlines():
        if line.startswith("## "):
            _, workload, *rest = line.split()
            current = runs[workload, rest[2]] = {"rows": {}, "result": None}
        elif line.startswith("{"):
            current["result"] = json.loads(line)
        elif (row := ROW.match(line)) and current is not None:
            name, value, unit, samples = row.groups()
            current["rows"][name] = (float(value), unit, int(samples))
    return runs


@pytest.fixture(scope="module")
def everything():
    return quick("--seed", "0")


def test_every_workload_prints_exactly_the_contracts_metrics(everything):
    assert sorted({workload for workload, _ in everything}) == sorted(WORKLOADS)
    for (workload, mode), run in everything.items():
        expected = END_TO_END if mode == "untraced" else PER_LAYER
        assert list(run["rows"]) == expected, (workload, mode)
        assert list(run["result"]["metrics"]) == expected, (workload, mode)
        for name, (value, unit, samples) in run["rows"].items():
            assert math.isfinite(value), (workload, name)
            assert unit == UNITS[name], (workload, name)
            assert samples >= 0, (workload, name)
            assert run["result"]["metrics"][name]["unit"] == unit


def test_no_operation_fails_and_end_to_end_metrics_are_never_zero(everything):
    for (workload, mode), run in everything.items():
        result = run["result"]
        assert result["correct"] is True, (workload, mode)
        assert result["failed"] == 0 and result["attempted"] >= 1
        if mode == "untraced":
            for name, (value, _unit, samples) in run["rows"].items():
                assert value > 0 and samples > 0, (workload, name)


def test_layer_self_times_add_up_to_the_timed_regions(everything):
    for workload in WORKLOADS:
        rows = everything[workload, "traced"]["rows"]
        assert 0.85 <= rows["trace.reconcile_ratio"][0] <= 1.15, workload
        assert rows["trace.overhead_ratio"][0] > 0


def test_counters_depend_on_the_seed_and_nothing_else(everything):
    def counters(runs):
        untraced = runs["late-history", "untraced"]["result"]["metrics"]
        traced = runs["late-history", "traced"]["result"]["metrics"]
        picked = {n: untraced[n]["value"]
                  for n in ("stored_bytes_per_point", "write_amplification")}
        picked.update({n: traced[n]["value"]
                       for n in ("wal.bytes_appended", "flush.count",
                                 "separation.unseq_ratio")})
        return picked

    first = counters(everything)
    again = counters(quick("--seed", "0", "--workload", "late-history"))
    other = counters(quick("--seed", "1", "--workload", "late-history"))
    assert again == first
    # flush.count is set by the point count and the threshold, so two seeds
    # may well agree on it; every byte-level counter must not.
    for name in first:
        if name != "flush.count":
            assert other[name] != first[name], name


@pytest.fixture
def in_process(monkeypatch):
    """The benchmark's modules importable in this process, for this test only."""
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))


def test_a_perturbed_answer_fails_the_run(in_process, monkeypatch, tmp_path):
    from repro.iotdb import StorageEngine
    from workloads import BY_NAME, run_pass

    honest = StorageEngine.query

    def off_by_a_little(self, *args):
        result = honest(self, *args)
        if result.values:
            result.values[-1] += 1e-6
        return result

    monkeypatch.setattr(StorageEngine, "query", off_by_a_little)
    done = run_pass(BY_NAME["ingest-mild"], 0, 1, tmp_path)
    assert done.failed > 0
    assert done.attempted > done.failed


def test_an_exception_after_restart_is_a_failed_operation(in_process, monkeypatch, tmp_path):
    from repro.iotdb import StorageEngine
    from workloads import BY_NAME, run_pass

    honest = StorageEngine.open.__func__

    def unreadable(cls, *args, **kwargs):
        reopened = honest(cls, *args, **kwargs)
        reopened.query = None  # any read of the reopened engine raises
        return reopened

    monkeypatch.setattr(StorageEngine, "open", classmethod(unreadable))
    done = run_pass(BY_NAME["ingest-mild"], 0, 1, tmp_path)
    assert done.failed > 0
    assert len(done.open_s) == done.rounds


def test_spans_opened_inside_a_generator_are_its_children(in_process):
    from spans import Tracer

    tracer = Tracer()
    tracer.active = True
    inside = tracer.wrap(lambda: None, "inside")
    between = tracer.wrap(lambda: None, "between")

    def produce():
        for item in range(2):
            inside()
            yield item

    for _ in tracer.wrap_generator(produce, "generator")():
        between()
    parents = [
        (name, tracer.spans[parent][0] if parent >= 0 else None)
        for name, _start, _end, parent, _phase in tracer.spans
    ]
    assert parents.count(("inside", "generator")) == 2
    assert parents.count(("between", None)) == 2
    assert tracer.items["generator"] == 2
