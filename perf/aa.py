"""A/A tool: does the benchmark agree with itself within its own bounds?

    python3 perf/aa.py --sets 10 > perf/AA.md

Runs ``perf/run.py --trace 0`` ``--sets`` times per workload on this tree,
each time with another seed, as the acceptance gate does, and prints for
every (workload, end-to-end metric) pair the min / median / max, the
spread — the distance between the first and third quartile as a share of
the median, the statistic the acceptance gate uses — and the bound from
``BENCHMARK.json``, and whether the spread is below a third of the bound, the
steadiness the benchmark aims for.  With ``--groups 2`` the whole thing runs
twice and the drift of the second median against the first (worse =
positive) is held to the same bound.  Exits non-zero if any pair is over its
bound; ``setup_s`` is exempt from the spread check (not from the drift
check), as at the gate.

The table this prints is committed as AA.md: the evidence for every bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int) -> dict[str, float]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    first, _mid, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=10, help="runs per workload and group")
    parser.add_argument("--groups", type=int, default=1, choices=(1, 2))
    args = parser.parse_args(argv)
    if args.sets < 2:
        parser.error("--sets must be at least 2 to have quartiles")

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    workloads = [w["name"] for w in contract["workloads"]]

    print(f"# A/A: {args.groups} group(s) of {args.sets} runs per workload, "
          f"seeds from 0, seconds={contract['run_seconds']}\n")
    header = "| workload | metric | min | median | max | spread | bound | < bound/3 |"
    rule = "|---|---|---:|---:|---:|---:|---:|---|"
    if args.groups == 2:
        header += " drift |"
        rule += "---:|"
    print(header + " verdict |")
    print(rule + "---|")

    over = 0
    for workload in workloads:
        groups = []
        for group in range(args.groups):
            runs = []
            for n in range(args.sets):
                runs.append(one_run(workload, group * args.sets + n))
                print(f"{workload} group {group} run {n} done", file=sys.stderr)
            groups.append(runs)
        for name, metric in metrics.items():
            values = [run[name] for run in groups[0]]
            mid = statistics.median(values)
            wide = spread(values)
            bad = wide > metric["bound"] and name != "setup_s"
            row = (f"| {workload} | {name} | {min(values):.6g} | {mid:.6g} | "
                   f"{max(values):.6g} | {wide:.2%} | {metric['bound']:.1%} | "
                   f"{'yes' if wide < metric['bound'] / 3 else 'NO'} |")
            if args.groups == 2:
                second = statistics.median(run[name] for run in groups[1])
                drift = (second - mid) / mid
                if metric["better"] == "higher":
                    drift = -drift
                bad = bad or drift > metric["bound"]
                row += f" {drift:+.2%} |"
            over += bad
            print(row + (" OVER |" if bad else " ok |"), flush=True)
    print(f"\n{over} pair(s) over their bound.")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
