"""Crash-consistency harness: seeded workload, exhaustive crash sweep, checks.

The contract being verified (the one a WAL exists to provide):

* **No lost writes** — every point whose ``StorageEngine.write`` returned
  (was *acknowledged*) is present, with the right value, after recovery.
* **No phantoms** — recovery produces no point that was never written; at
  most the single *in-flight* write interrupted by the crash may appear
  (it reached the WAL but was never acknowledged — either outcome is
  legal), and any non-acknowledged write may legally be missing.
* **No duplicates / wrong values** — last-write-wins semantics survive:
  each timestamp maps to exactly the freshest acknowledged value.
* **Coherent watermarks** — after recovery the sequence memtable holds no
  point at or below its device's separation watermark.
* **Coherent interval index** — after recovery every shard's in-memory
  interval index holds exactly one entry per non-empty sealed file, with
  the file's true time range (a torn or stale ``interval-index.json`` must
  have been rebuilt, never believed).
* **Coherent aggregates** — after recovery ``engine.aggregate`` over each
  column equals the fold of ``engine.query`` over the same range, so every
  crash state also exercises the statistics-vs-raw-scan decision.

The sweep enumerates every fault site the workload actually reaches (an
empty :class:`FaultPlan` counts site visits), then replays the workload
once per (site, nth-call) pair with a crash injected there, snapshots the
durable state, recovers with ``StorageEngine.open``, and checks the
contract against the in-memory :class:`OracleModel`.  ``python -m
repro.faults.harness`` runs the sweep standalone (CI's ``faults`` job
does exactly this).

The whole sweep is backend-parametric (``FaultWorkload.backend`` /
``--backend``): ``local`` is a ``data_dir`` tree, snapshot by directory
copy (:class:`CrashSimulator`); ``memory`` runs over a
:class:`~repro.iotdb.backends.MemoryStore`, snapshot by
``store.snapshot()`` at the crash point — in both cases the snapshot is
taken *before* the crashed engine is abandoned, so bytes still pending in
a :class:`~repro.faults.files.FaultyFile` buffer are absent from it, on
either backend, through the same code path.  A crash can also fire inside
``StorageEngine.create`` itself (the ``meta.*`` stamp sites), leaving an
unversioned or torn-stamp tree; the sweep recovers those too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import InjectedCrashError
from repro.faults.crash import CrashSimulator
from repro.faults.injector import FaultInjector
from repro.faults.oracle import OracleModel
from repro.faults.plan import FaultPlan, FaultRule


@dataclass
class FaultWorkload:
    """A deterministic, seeded write workload for the crash harness.

    Small by design: the sweep replays it once per crash case, so its
    size multiplies the number of reachable (site, call) pairs.
    """

    points: int = 400
    devices: int = 2
    sensors: int = 2
    #: Fraction of writes sent to an already-flushed (old) timestamp —
    #: exercises the unsequence space and the overwrite rule.
    late_fraction: float = 0.15
    flush_threshold: int = 60
    deferred: bool = False
    #: Issue a compact op after every N writes (0 = never).
    compact_every: int = 0
    #: Issue a drain op after every N writes (0 = never; deferred mode).
    drain_every: int = 0
    #: Storage groups inside the engine; each shard's pipeline is swept
    #: independently (a crash in one shard's flush must not corrupt the
    #: others' recovery).  Flushes stay inline (``flush_workers=0``) so
    #: the sweep's (site, nth) enumeration is deterministic.
    shards: int = 1
    #: Which store the sweep runs over: ``"local"`` (a ``data_dir``
    #: tree) or ``"memory"`` (a
    #: :class:`~repro.iotdb.backends.MemoryStore`).
    backend: str = "local"
    seed: int = 7

    def config(self, data_dir):
        from repro.iotdb.config import IoTDBConfig

        if self.backend not in ("local", "memory"):
            raise ValueError(f"unknown harness backend {self.backend!r}")
        return IoTDBConfig(
            data_dir=None if self.backend == "memory" else data_dir,
            wal_enabled=True,
            memtable_flush_threshold=self.flush_threshold,
            deferred_flush=self.deferred,
            shards=self.shards,
        )

    def ops(self) -> list[tuple]:
        """The op sequence: ``("write", d, s, t, v)``, ``("compact",)``,
        ``("drain",)`` — identical for a given workload, every time."""
        import random

        rng = random.Random(self.seed)
        next_t = {f"d{i}": 0 for i in range(self.devices)}
        ops: list[tuple] = []
        for n in range(self.points):
            device = f"d{rng.randrange(self.devices)}"
            sensor = f"s{rng.randrange(self.sensors)}"
            if next_t[device] > 20 and rng.random() < self.late_fraction:
                t = rng.randrange(max(1, next_t[device] - 20))
            else:
                t = next_t[device]
                next_t[device] += rng.randrange(1, 4)
            ops.append(("write", device, sensor, t, float(n)))
            if self.compact_every and (n + 1) % self.compact_every == 0:
                ops.append(("compact",))
            if self.drain_every and (n + 1) % self.drain_every == 0:
                ops.append(("drain",))
        return ops


@dataclass
class CrashCaseResult:
    """Outcome of one crash case of the sweep."""

    site: str
    nth: int
    kind: str
    #: Did the planned fault actually fire?  (A site may be unreachable at
    #: that call count for this workload variant.)
    fired: bool
    #: Writes acknowledged before the crash.
    acked_points: int
    #: Points visible after recovery.
    recovered_points: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class SweepReport:
    """All cases of one crash sweep."""

    sites: dict[str, int]
    cases: list[CrashCaseResult] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        return [
            f"{case.site}:nth={case.nth}:{case.kind}: {violation}"
            for case in self.cases
            for violation in case.violations
        ]

    @property
    def fired_cases(self) -> int:
        return sum(1 for case in self.cases if case.fired)

    def summary(self) -> dict:
        return {
            "sites": dict(self.sites),
            "cases": len(self.cases),
            "fired": self.fired_cases,
            "violations": self.violations,
        }


def run_ops(engine, ops, oracle: OracleModel | None = None):
    """Execute ``ops`` against ``engine``, recording acknowledged writes.

    Returns ``(acked, inflight)``: the oracle of acknowledged writes and
    the op in flight when a simulated crash struck (``None`` if the
    workload ran to completion).  The in-flight write may or may not
    survive recovery; everything in ``acked`` must.
    """
    acked = oracle if oracle is not None else OracleModel()
    for op in ops:
        try:
            if op[0] == "write":
                _, device, sensor, t, v = op
                engine.write(device, sensor, t, v)
                acked.write(device, sensor, t, v)
            elif op[0] == "compact":
                engine.compact()
            elif op[0] == "drain":
                engine.drain_flushes()
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown op {op!r}")
        except InjectedCrashError:
            return acked, op
    return acked, None


def check_points(recovered: dict, acked: dict, allowed_extra=None) -> list[str]:
    """Pure prefix-consistency check for one column.

    ``recovered`` and ``acked`` map timestamp → value; ``allowed_extra``
    maps timestamps of *unacknowledged but legally possible* points (the
    write in flight at the crash) to the value they were written with —
    each may be present or absent, but if present must carry that value,
    unless an acknowledged write at the same timestamp supersedes it.
    Returns human-readable violations (empty = consistent).
    """
    violations: list[str] = []
    for t, v in sorted(acked.items()):
        if t not in recovered:
            violations.append(f"lost acknowledged point t={t} v={v!r}")
        elif recovered[t] != v:
            violations.append(
                f"wrong value at t={t}: expected {v!r}, got {recovered[t]!r}"
            )
    allowed = {
        t: v for t, v in (allowed_extra or {}).items() if t not in acked
    }
    for t, v in sorted(recovered.items()):
        if t in acked:
            continue
        if t in allowed:
            if v != allowed[t]:
                violations.append(
                    f"in-flight point t={t} recovered with value {v!r}, "
                    f"expected {allowed[t]!r}"
                )
            continue
        violations.append(f"phantom point t={t} v={v!r}")
    return violations


def check_recovery(engine, acked: OracleModel, inflight_op=None) -> list[str]:
    """Check a recovered engine against the acknowledged-write oracle."""
    from repro.iotdb.aggregation import aggregate_from_points, is_close
    from repro.iotdb.interval_index import build_entries
    from repro.iotdb.separation import Space

    violations: list[str] = []
    inflight_key = None
    inflight_point = None
    if inflight_op is not None and inflight_op[0] == "write":
        _, device, sensor, t, v = inflight_op
        inflight_key = (device, sensor)
        inflight_point = (t, v)

    columns = set(acked.columns())
    if inflight_key is not None:
        columns.add(inflight_key)
    for device, sensor in sorted(columns):
        acked_col = acked.column(device, sensor)
        times = list(acked_col)
        if inflight_key == (device, sensor):
            times.append(inflight_point[0])
        horizon = max(times) + 1 if times else 1
        result = engine.query(device, sensor, 0, horizon)
        recovered = dict(zip(result.timestamps, result.values))
        if len(recovered) != len(result.timestamps):
            violations.append(f"{device}.{sensor}: duplicated timestamps in query")
        allowed = (
            {inflight_point[0]: inflight_point[1]}
            if inflight_key == (device, sensor)
            else None
        )
        violations.extend(
            f"{device}.{sensor}: {v}"
            for v in check_points(recovered, acked_col, allowed)
        )
        # Whatever source set the crash left (overlapping sequence files
        # included), the shard's statistics-or-raw-scan choice must fold to
        # what the query just returned.
        got = engine.aggregate(device, sensor, 0, horizon)
        want = aggregate_from_points(result)
        exact = ("count", "min_value", "max_value", "first", "last")
        if not is_close(got.sum, want.sum) or any(
            getattr(got, name) != getattr(want, name) for name in exact
        ):
            violations.append(
                f"{device}.{sensor}: aggregate {got!r} but the query folds to {want!r}"
            )

    # Watermark coherence: every shard's recovered sequence memtable must
    # hold no point at or below its device's watermark.
    for shard in engine.shards:
        with shard._lock:
            seq_memtable = shard._working[Space.SEQUENCE]
            index_entries = sorted(shard._index.entries())
            expected_entries = sorted(build_entries(shard._sealed))
        if index_entries != expected_entries:
            violations.append(
                f"shard {shard.shard_id}: interval index diverges from the "
                f"sealed files: index={index_entries!r} "
                f"expected={expected_entries!r}"
            )
        for device, sensor, tvlist in seq_memtable.iter_chunks():
            watermark = shard.separation.watermark(device)
            if watermark is None:
                continue
            min_time = min(tvlist.timestamps())
            if min_time <= watermark:
                violations.append(
                    f"{device}.{sensor} (shard {shard.shard_id}): sequence "
                    f"memtable holds t={min_time} at or below watermark "
                    f"{watermark}"
                )
    return violations


def _count_recovered(engine, acked: OracleModel, inflight_op=None) -> int:
    total = 0
    columns = set(acked.columns())
    if inflight_op is not None and inflight_op[0] == "write":
        columns.add((inflight_op[1], inflight_op[2]))
    for device, sensor in sorted(columns):
        result = engine.query(device, sensor, 0, 1 << 60)
        total += len(result.timestamps)
    return total


def _abandon(engine) -> None:
    """Drop a crashed engine's store handles without committing anything new.

    Called only *after* the snapshot is taken, so any pending bytes a
    close might flush land in the abandoned directory, never the snapshot.
    """
    for shard in engine.shards:
        with shard._lock:
            for sealed in shard._sealed:
                try:
                    sealed.buffer.close()
                except Exception:
                    pass
            if shard._wals:
                for wal in shard._wals.values():
                    try:
                        wal.close()
                    except Exception:
                        pass


def _make_store(workload: FaultWorkload):
    """The explicit store a workload backend needs (``None`` = data_dir).

    Constructed *before* the engine so it survives a crash injected
    inside ``create`` itself (the caller snapshots it either way).
    """
    if workload.backend == "memory":
        from repro.iotdb.backends import MemoryStore

        return MemoryStore()
    return None


def _create_engine(workload: FaultWorkload, data_dir, injector, store=None):
    """``StorageEngine.create`` over the workload's backend.

    A crash during create propagates — the caller owns the try/except.
    """
    from repro.iotdb.engine import StorageEngine

    config = workload.config(data_dir)
    return StorageEngine.create(config, faults=injector, backend=store)


def _reopen_memory(workload: FaultWorkload, snapshot: dict):
    """``StorageEngine.open`` over a MemoryStore crash snapshot."""
    from repro.iotdb.backends import MemoryStore
    from repro.iotdb.engine import StorageEngine

    return StorageEngine.open(
        workload.config(None), backend=MemoryStore.from_snapshot(snapshot)
    )


def discover_sites(workload: FaultWorkload, root: Path) -> dict[str, int]:
    """Run the workload fault-free and return every visited site's call count."""
    root = Path(root)
    data_dir = root / "discover"
    injector = FaultInjector(FaultPlan())
    engine = _create_engine(workload, data_dir, injector, _make_store(workload))
    run_ops(engine, workload.ops())
    engine.close()
    return dict(injector.plan.calls)


def run_crash_case(
    workload: FaultWorkload,
    site: str,
    nth: int,
    root: Path,
    *,
    kind: str = "crash",
    arg: float = 0.5,
) -> CrashCaseResult:
    """Crash the workload at the nth visit of ``site``, recover, and check."""
    import shutil

    root = Path(root)
    case_dir = root / f"{site.replace('.', '_')}-{nth}-{kind}"
    if case_dir.exists():
        shutil.rmtree(case_dir)
    data_dir = case_dir / "data"

    plan = FaultPlan(
        [FaultRule(site=site, kind=kind, nth=nth, arg=arg)], seed=workload.seed
    )
    injector = FaultInjector(plan)
    store = _make_store(workload)
    engine = None
    try:
        engine = _create_engine(workload, data_dir, injector, store)
    except InjectedCrashError:
        # create() itself crashed (a meta.* stamp site): zero acknowledged
        # writes, and the tree on disk may be unversioned or carry a torn
        # stamp — recovery below must still open it.
        pass
    if engine is not None:
        acked, inflight = run_ops(engine, workload.ops())
    else:
        acked, inflight = OracleModel(), None

    if not injector.fired:
        # The workload finished without reaching (site, nth); shutdown
        # still flushes and can legitimately hit the fault site.
        try:
            engine.close()
        except InjectedCrashError:
            pass
    if not injector.fired:
        # Unreachable (site, nth) for this workload: nothing to check.
        shutil.rmtree(case_dir, ignore_errors=True)
        return CrashCaseResult(
            site=site, nth=nth, kind=kind, fired=False,
            acked_points=acked.total_points(), recovered_points=0,
        )

    # Snapshot the durable state BEFORE abandoning the crashed engine:
    # closing its handles would commit FaultyFile-pending bytes the
    # simulated crash never flushed.
    if workload.backend == "memory":
        snapshot = store.snapshot()
        if engine is not None:
            _abandon(engine)
        recovered = _reopen_memory(workload, snapshot)
    else:
        simulator = CrashSimulator(data_dir, case_dir / "snapshot")
        simulator.snapshot()
        if engine is not None:
            _abandon(engine)
        recovered = simulator.reopen(workload.config(data_dir))
    try:
        violations = check_recovery(recovered, acked, inflight)
        recovered_points = _count_recovered(recovered, acked, inflight)
    finally:
        recovered.close()
    result = CrashCaseResult(
        site=site,
        nth=nth,
        kind=kind,
        fired=True,
        acked_points=acked.total_points(),
        recovered_points=recovered_points,
        violations=violations,
    )
    if result.ok:
        shutil.rmtree(case_dir, ignore_errors=True)
    return result


def _nth_positions(calls: int, max_nth: int) -> list[int]:
    """Which call numbers to crash at: all of them when they fit the
    budget, otherwise ``max_nth`` positions spread across the range
    (always including the first and last call)."""
    if calls <= max_nth:
        return list(range(1, calls + 1))
    positions = {
        1 + round(i * (calls - 1) / (max_nth - 1)) for i in range(max_nth)
    }
    return sorted(positions)


#: Sites whose faults model torn *file writes*: sweep them with a torn
#: (prefix-keeping) variant as well as a clean pre-write crash.
WRITE_SITES = ("wal.write", "sink.write", "index.write", "meta.write")


def run_crash_sweep(
    workload: FaultWorkload,
    root: Path,
    *,
    max_nth: int = 5,
    torn_writes: bool = True,
) -> SweepReport:
    """Exhaustive (bounded) crash sweep over every reachable fault site."""
    root = Path(root)
    sites = discover_sites(workload, root)
    report = SweepReport(sites=sites)
    for site in sorted(sites):
        if site == "clock":
            continue  # jump faults do not kill the process
        for nth in _nth_positions(sites[site], max_nth):
            report.cases.append(run_crash_case(workload, site, nth, root))
            if torn_writes and site in WRITE_SITES:
                report.cases.append(
                    run_crash_case(workload, site, nth, root, kind="torn", arg=0.5)
                )
    return report


def run_fault_plan(
    workload: FaultWorkload, plan: FaultPlan, root: Path
) -> CrashCaseResult:
    """Run the workload under an arbitrary plan (the ``--faults`` CLI path).

    If a crash fires, recover and check; if only recoverable faults fire
    (or none), finish the workload, then verify the surviving engine
    agrees with the oracle exactly.
    """
    import shutil

    from repro.errors import InjectedFaultError

    root = Path(root)
    case_dir = root / "plan-run"
    if case_dir.exists():
        shutil.rmtree(case_dir)
    data_dir = case_dir / "data"

    injector = FaultInjector(plan)
    store = _make_store(workload)
    engine = None
    crashed = False
    try:
        engine = _create_engine(workload, data_dir, injector, store)
    except InjectedCrashError:
        crashed = True
    acked = OracleModel()
    inflight = None
    ops = workload.ops() if engine is not None else []
    for op in ops:
        try:
            if op[0] == "write":
                _, device, sensor, t, v = op
                engine.write(device, sensor, t, v)
                acked.write(device, sensor, t, v)
            elif op[0] == "compact":
                engine.compact()
            elif op[0] == "drain":
                engine.drain_flushes()
        except InjectedFaultError:
            # Recoverable: the op failed, the engine lives on.  A failing
            # *write* is ambiguous (e.g. the point landed durably but the
            # flush it triggered failed), so probe the surviving engine to
            # settle whether the point counts as written.
            if op[0] == "write":
                _, device, sensor, t, v = op
                probe = engine.query(device, sensor, t, t + 1)
                if probe.timestamps == [t] and probe.values == [v]:
                    acked.write(device, sensor, t, v)
            continue
        except InjectedCrashError:
            crashed = True
            inflight = op
            break

    kind = injector.fired[-1].kind if injector.fired else "none"
    site = injector.fired[-1].site if injector.fired else "<none>"
    nth = injector.fired[-1].call if injector.fired else 0
    # The plan covers the workload; verification and shutdown run healthy.
    injector.disarm()
    if crashed:
        if workload.backend == "memory":
            snapshot = store.snapshot()
            if engine is not None:
                _abandon(engine)
            checked = _reopen_memory(workload, snapshot)
        else:
            simulator = CrashSimulator(data_dir, case_dir / "snapshot")
            simulator.snapshot()
            if engine is not None:
                _abandon(engine)
            checked = simulator.reopen(workload.config(data_dir))
    else:
        engine.drain_flushes()
        checked = engine
    try:
        violations = check_recovery(checked, acked, inflight)
        recovered_points = _count_recovered(checked, acked, inflight)
    finally:
        checked.close()
    return CrashCaseResult(
        site=site, nth=nth, kind=kind, fired=bool(injector.fired),
        acked_points=acked.total_points(), recovered_points=recovered_points,
        violations=violations,
    )


def main(argv=None) -> int:
    """CLI: run the crash sweep and exit non-zero on any violation."""
    import argparse
    import json
    import tempfile

    parser = argparse.ArgumentParser(
        description="repro.faults crash-consistency sweep"
    )
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--flush-threshold", type=int, default=60)
    parser.add_argument("--max-nth", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--deferred", action="store_true")
    parser.add_argument("--compact-every", type=int, default=0)
    parser.add_argument("--drain-every", type=int, default=0)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument(
        "--backend",
        choices=("local", "memory"),
        default="local",
        help="blob store to sweep (a data_dir tree / a MemoryStore)",
    )
    parser.add_argument("--root", type=Path, default=None,
                        help="work directory (default: a fresh temp dir)")
    args = parser.parse_args(argv)

    workload = FaultWorkload(
        points=args.points,
        flush_threshold=args.flush_threshold,
        seed=args.seed,
        deferred=args.deferred,
        compact_every=args.compact_every,
        drain_every=args.drain_every,
        shards=args.shards,
        backend=args.backend,
    )
    root = args.root if args.root is not None else Path(tempfile.mkdtemp(prefix="repro-faults-"))
    report = run_crash_sweep(workload, root, max_nth=args.max_nth)
    print(json.dumps(report.summary(), indent=2))
    return 1 if report.violations else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
