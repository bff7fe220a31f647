"""Compaction: fold unsequence files back into sequence space.

The separation policy (paper §II, building on the authors' ICDE 2022
"Separation or not" study) deliberately lets very late points accumulate in
unsequence files whose time ranges overlap the sealed sequence files.  The
deferred cost is query-time merging across seq and unseq files; compaction
pays that cost once: for every column it merges the selected sealed files'
chunks with the very function queries use
(:func:`repro.iotdb.query.merge_last_write_wins`: unsequence beats
sequence, later files beat earlier ones) and rewrites the result as a
single sealed sequence file appended to the shard's file list.

Which files a pass merges is a pluggable :class:`CompactionPolicy`:

:class:`FullMergePolicy` (``config.compaction_policy = "full"``, default)
    merges *every* sealed file into one sequence file — maximum read
    amplification repair, maximum write amplification.

:class:`OverlapDrivenPolicy` (``"overlap"``)
    scores each unsequence file by how many sequence files its time range
    overlaps (the interval index's ``overlapping`` measure) and seeds the
    selection with files scoring at least
    ``config.compaction_overlap_threshold`` — the files queries actually
    pay to merge.  Low-overlap files are left in place: partial compaction
    that spends write I/O only where read amplification lives.

Partial compaction is only sound because the merged output is appended as
the shard's *freshest sequence file* and a write-order safety closure runs
the seed selection to fixpoint (:meth:`OverlapDrivenPolicy.select`):

- *efficacy*: a sequence file overlapping a selected unsequence file is
  pulled in (otherwise the query-time merge it causes would survive);
- *safety (a)*: a selected sequence file overlapping an unselected **later**
  sequence file pulls that later file in — the merged output is fresher
  than every surviving sequence file, so leaving the later file behind
  would flip the winner of their duplicate timestamps;
- *safety (b)*: a selected unsequence file overlapping an unselected
  **earlier** unsequence file pulls the earlier file in — surviving
  unsequence files are fresher than the merged output, so the stale
  earlier file would otherwise start winning.

Range overlap is a conservative proxy for "may share a timestamp"
(duplicates require intersecting ranges), so the closure can over-select
but never under-select; the policy contract tests assert query-result
equivalence before/after compaction under both policies.

After compaction the engine serves the same query results (asserted by the
equivalence tests), with every fully compacted region once again eligible
for the page-statistics aggregate — whose fold does not depend on where the
appended file sits in the sealed list.  Per-pass decisions are exported
through ``repro.obs``: ``engine_compactions_total`` /
``engine_compaction_files_selected_total`` /
``engine_compaction_files_skipped_total``, all labelled by policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.iotdb.interval_index import IndexEntry
from repro.iotdb.query import merge_last_write_wins
from repro.iotdb.separation import Space


@dataclass
class CompactionReport:
    """Outcome of one compaction pass (or an engine-wide aggregate)."""

    files_before: int
    files_after: int
    unseq_files_merged: int
    points_written: int
    seconds: float
    #: Scheduling policy that ran (``"full"`` / ``"overlap"``; aggregates
    #: over mixed policies join the distinct names with ``+``).
    policy: str = "full"
    #: Sealed files merged into the output file.
    files_selected: int = 0
    #: Sealed files the policy left in place.
    files_skipped: int = 0


@dataclass(frozen=True)
class CompactionSelection:
    """A policy's verdict over one shard's sealed-file entries."""

    #: ``file_id``s to merge (empty = the pass is a no-op).
    file_ids: frozenset = frozenset()
    #: The unsequence files whose overlap score seeded the selection.
    seed_ids: frozenset = frozenset()


class CompactionPolicy:
    """Decides which sealed files one compaction pass merges.

    Policies are pure functions over the shard's interval-index entries
    (write order preserved per space), so they are unit- and
    property-testable without a shard.  ``select`` runs under the shard
    lock; it must not touch the shard.
    """

    name = "abstract"

    def select(self, entries: list[IndexEntry]) -> CompactionSelection:
        raise NotImplementedError


class FullMergePolicy(CompactionPolicy):
    """Merge every sealed file into one sequence file (the original
    behaviour): a no-op only when at most one file exists and nothing
    lives in unsequence space."""

    name = "full"

    def select(self, entries: list[IndexEntry]) -> CompactionSelection:
        unseq = [e for e in entries if e.space == Space.UNSEQUENCE.value]
        if len(entries) <= 1 and not unseq:
            return CompactionSelection()
        ids = frozenset(e.file_id for e in entries)
        return CompactionSelection(
            file_ids=ids, seed_ids=frozenset(e.file_id for e in unseq)
        )


class OverlapDrivenPolicy(CompactionPolicy):
    """Merge only the unsequence files that queries pay for.

    An unsequence file's *overlap score* is the number of sequence files
    whose closed time range intersects its own — exactly the extra files a
    range query hitting it must open and merge.  Files scoring at least
    ``threshold`` seed the selection; the seed is then closed under the
    efficacy and write-order safety rules (module docstring) until a
    fixpoint, so merging the selection and appending the output as the
    freshest sequence file preserves every overwrite outcome.
    """

    name = "overlap"

    def __init__(self, threshold: int = 2) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold

    def select(self, entries: list[IndexEntry]) -> CompactionSelection:
        seq = [e for e in entries if e.space == Space.SEQUENCE.value]
        unseq = [e for e in entries if e.space == Space.UNSEQUENCE.value]

        seeds = {
            u.file_id
            for u in unseq
            if sum(1 for s in seq if s.overlaps_entry(u)) >= self.threshold
        }
        if not seeds:
            return CompactionSelection()

        selected = set(seeds)
        changed = True
        while changed:
            changed = False
            chosen_seq = [s for s in seq if s.file_id in selected]
            chosen_unseq = [u for u in unseq if u.file_id in selected]
            # Efficacy: take the sequence files the selected unsequence
            # files overlap — the merge queries currently pay for.
            for s in seq:
                if s.file_id in selected:
                    continue
                if any(s.overlaps_entry(u) for u in chosen_unseq):
                    selected.add(s.file_id)
                    changed = True
            # Safety (a): a later sequence file overlapping a selected
            # earlier one must come along (the output outranks it).
            for i, s in enumerate(seq):
                if s.file_id in selected:
                    continue
                if any(
                    x.file_id in selected and x.overlaps_entry(s)
                    for x in seq[:i]
                ):
                    selected.add(s.file_id)
                    changed = True
            # Safety (b): an earlier unsequence file overlapping a selected
            # later one must come along (it would outrank the output).
            for i, u in enumerate(unseq):
                if u.file_id in selected:
                    continue
                if any(
                    x.file_id in selected and x.overlaps_entry(u)
                    for x in unseq[i + 1 :]
                ):
                    selected.add(u.file_id)
                    changed = True
        return CompactionSelection(
            file_ids=frozenset(selected), seed_ids=frozenset(seeds)
        )


def policy_from_config(config) -> CompactionPolicy:
    """The policy ``config.compaction_policy`` names."""
    if config.compaction_policy == "overlap":
        return OverlapDrivenPolicy(config.compaction_overlap_threshold)
    return FullMergePolicy()


def compact(shard, policy: CompactionPolicy | None = None) -> CompactionReport:
    """Run one compaction pass over a shard's sealed files.

    Live memtables are untouched (IoTDB compacts sealed files only).  The
    ``policy`` (default: whatever ``shard.config.compaction_policy``
    names) picks the subset to merge; an empty selection is a no-op pass.
    Compaction is a per-shard operation: each storage group compacts its
    own sealed-file list under its own lock
    (:meth:`repro.iotdb.engine.StorageEngine.compact` fans out and
    aggregates the reports).
    """
    from repro.bench.timing import Timer

    if policy is None:
        policy = policy_from_config(shard.config)
    obs = shard.obs
    with shard._lock:
        return _compact_locked(shard, policy, obs, Timer)


def _compact_locked(shard, policy, obs, Timer) -> CompactionReport:
    # Snapshot: _swap_sealed edits the shard's list in place, so an alias
    # would see the post-compaction set.
    sealed = list(shard._sealed)
    # The index stores entries sorted by ending time; the policies' safety
    # rules reason about write order, so re-order per the sealed list.
    by_id = {e.file_id: e for e in shard._index.entries()}
    entries = [by_id[f.file_id] for f in sealed if f.file_id in by_id]
    selection = policy.select(entries)
    chosen = [f for f in sealed if f.file_id in selection.file_ids]
    skipped = len(sealed) - len(chosen)
    instruments = shard._instruments
    instruments.compactions.labels(policy=policy.name).inc()
    instruments.compaction_files_selected.labels(policy=policy.name).inc(len(chosen))
    instruments.compaction_files_skipped.labels(policy=policy.name).inc(skipped)
    if not chosen:
        return CompactionReport(
            files_before=len(sealed),
            files_after=len(sealed),
            unseq_files_merged=0,
            points_written=0,
            seconds=0.0,
            policy=policy.name,
            files_selected=0,
            files_skipped=skipped,
        )

    unseq_merged = sum(1 for f in chosen if f.space is Space.UNSEQUENCE)
    with Timer(obs.clock) as timer:
        # Freshness order matches the query path: seq files then unseq
        # files, each in write order; the shared merge lets later win.
        ordered = [f for f in chosen if f.space is Space.SEQUENCE] + [
            f for f in chosen if f.space is Space.UNSEQUENCE
        ]
        columns: dict[tuple[str, str], list[tuple[list[int], list]]] = {}
        dtypes: dict[tuple[str, str], object] = {}
        for f in ordered:
            for chunk in f.reader.chunks():
                if not chunk.pages:
                    continue  # holds no point, so its dtype must not win
                key = (chunk.device, chunk.sensor)
                columns.setdefault(key, []).append(f.reader.read_chunk(*key))
                dtypes[key] = chunk.dtype

        writer, new_sealed = shard._new_sink(Space.SEQUENCE)
        points = 0
        for (device, sensor) in sorted(columns):
            ts, vs = merge_last_write_wins(columns[(device, sensor)])
            if not ts:
                continue
            writer.write_chunk(
                device,
                sensor,
                dtypes[(device, sensor)],
                ts,
                vs,
                time_encoding=shard.config.time_encoding,
                value_encoding="plain",
                page_size=shard.config.page_size,
                compression=shard.config.compression,
            )
            points += len(ts)
        writer.close()

        if points:
            # Seal the merged file *before* unlinking its inputs: a crash
            # between the two leaves overlapping sequence files, which the
            # query merge tolerates (later file wins) and the aggregation
            # fast path detects — duplicated work, never lost data.
            shard._seal_sink(new_sealed)
            shard.faults.crash_point("compact.swap", shard=shard.shard_id)
            shard._swap_sealed(chosen, new_sealed)
        else:
            shard._discard_sink(new_sealed)
            shard._swap_sealed(chosen, None)
    shard._instruments.compaction_seconds.observe(timer.seconds)
    return CompactionReport(
        files_before=len(sealed),
        files_after=len(sealed) - len(chosen) + (1 if points else 0),
        unseq_files_merged=unseq_merged,
        points_written=points,
        seconds=timer.seconds,
        policy=policy.name,
        files_selected=len(chosen),
        files_skipped=skipped,
    )
