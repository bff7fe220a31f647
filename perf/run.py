"""The repo's regression benchmark: one command, every metric by name.

    python3 perf/run.py --seed 0                      # all workloads, both passes
    python3 perf/run.py --seed 0 --workload late-history --trace 0
    python3 perf/run.py --seed 0 --seconds 1          # 1/20 size, for smoke tests

``--trace 0`` runs a workload untraced and prints the end-to-end metrics;
``--trace 1`` runs it traced and prints the per-layer metrics (after an
untraced pass of the same size, which is what ``trace.overhead_ratio``
compares against).  Without ``--trace`` both happen, in that order.  Every
answer is checked against ``oracle.py``; the last line of each run is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

See README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Default scratch tree for engine data; listed in the root .gitignore.
DATA_ROOT = ROOT / ".perf_data"


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(moment: str, file=None) -> None:
    """Print what the numbers were measured on, and how busy it was."""
    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    print(
        f"# {moment}: nproc={cores} cpu={cpu_model()!r} "
        f"python={platform.python_version()} load1={load:.2f}",
        file=file,
    )
    if load > cores:
        print(f"# WARNING: load average {load:.2f} exceeds nproc={cores}; "
              "timings from this run are suspect", file=file)


def report(title: str, attempted: int, failed: int, metrics: dict) -> None:
    """The human-readable table, then the contract's JSON line."""
    print(f"## {title}")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit:9s} n={samples}")
    finite = all(math.isfinite(value) for value, _unit, _n in metrics.values())
    print(
        json.dumps(
            {
                "correct": failed == 0 and finite,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in metrics.items()
                },
            }
        ),
        flush=True,
    )


def run_untraced(workload, seed: int, seconds: float, data_root) -> None:
    from workloads import SETUP_REPEATS, run_pass

    done = run_pass(workload, seed, seconds, data_root, setup_repeats=SETUP_REPEATS)
    report(
        f"{workload.name} seed={seed} seconds={seconds:g} untraced "
        f"(timed {done.timed_seconds:.2f} s)",
        done.attempted,
        done.failed,
        done.end_to_end(),
    )


def run_traced(workload, seed: int, seconds: float, data_root, out) -> None:
    """Half the run untraced, half traced: shares, not absolutes."""
    from spans import Tracer, layer_metrics
    from workloads import TRACED_ROUNDS, run_pass

    plain = run_pass(workload, seed, seconds / 2, data_root, rounds=TRACED_ROUNDS)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, seed, seconds / 2, data_root, tracer=tracer,
                          rounds=TRACED_ROUNDS)
    finally:
        tracer.uninstall()
    if out is not None:
        tracer.write(out)
    report(
        f"{workload.name} seed={seed} seconds={seconds:g} traced "
        f"({len(tracer.spans)} spans)",
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        layer_metrics(tracer, traced, plain),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end only, 1 = per-layer only (default: both)")
    parser.add_argument("--out", help="write the traced run's spans here (JSON lines)")
    parser.add_argument("--data-root", default=str(DATA_ROOT),
                        help="where engine trees are created (and removed)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    contract = load_contract()
    from workloads import BY_NAME, WORKLOADS, warm_up

    if args.workload is not None and args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(BY_NAME)}")
    selected = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")

    data_root = Path(args.data_root)
    data_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=data_root))
    try:
        fingerprint("start")
        warm_up(scratch)
        for workload in selected:
            if args.trace in (None, 0):
                run_untraced(workload, args.seed, seconds, scratch)
            if args.trace in (None, 1):
                run_traced(workload, args.seed, seconds, scratch, args.out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            data_root.rmdir()
        except OSError:
            pass  # not empty: someone else's trees live there too
    # Stderr, so the JSON object stays the last line of standard output.
    fingerprint("end", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
