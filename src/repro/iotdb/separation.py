"""The separation policy: sequence vs unsequence routing (paper §II).

"Since separation policy is applied in Apache IoTDB, any timestamp smaller
than the current flushing time will be ingested into the unsequence
memtable.  Therefore, extreme delays like system recovery from failure are
not what we focus on."

The policy tracks, per device, the largest timestamp already flushed to
sequence space (the *flush watermark*).  Incoming points at or below the
watermark go to the unsequence memtable; everything else stays in sequence
space.  This is the mechanism that makes the *not-too-distant* assumption
hold for the data Backward-Sort actually sees: by construction, the
sequence memtable only ever contains points delayed less than one
memtable's span.

The policy is applied to a whole batch at once (:meth:`SeparationPolicy.split`):
one watermark lookup and one ``min``/``max`` compare decide the common
cases — under delay-only arrival almost every batch lies wholly above the
watermark and goes to sequence space as it came, uncopied — and only a
batch that straddles the watermark is partitioned, in one pass.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress
from operator import not_


class Space(Enum):
    SEQUENCE = "seq"
    UNSEQUENCE = "unseq"


class SeparationPolicy:
    """Per-device flush-watermark router."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._watermarks: dict[str, int] = {}
        self._routed = {Space.SEQUENCE: 0, Space.UNSEQUENCE: 0}

    def split(self, device: str, timestamps, values) -> list[tuple[Space, object, object]]:
        """Partition one batch by space: ``[(space, timestamps, values), …]``.

        Every point is judged against the device's watermark as of the
        batch's start, so the result is exactly what routing each point on
        its own would give; the parts keep arrival order, sequence first,
        and an empty part is omitted.  A batch wholly on one side of the
        watermark is returned as it came (the caller's sequences, not
        copies).  The routed counters advance by the parts' sizes.
        """
        n = len(timestamps)
        if not n:
            return []
        watermark = self._watermarks.get(device) if self.enabled else None
        if watermark is None or min(timestamps) > watermark:
            self._routed[Space.SEQUENCE] += n
            return [(Space.SEQUENCE, timestamps, values)]
        if max(timestamps) <= watermark:
            self._routed[Space.UNSEQUENCE] += n
            return [(Space.UNSEQUENCE, timestamps, values)]
        late = [t <= watermark for t in timestamps]
        on_time = list(map(not_, late))
        late_ts = list(compress(timestamps, late))
        self._routed[Space.SEQUENCE] += n - len(late_ts)
        self._routed[Space.UNSEQUENCE] += len(late_ts)
        return [
            (
                Space.SEQUENCE,
                list(compress(timestamps, on_time)),
                list(compress(values, on_time)),
            ),
            (Space.UNSEQUENCE, late_ts, list(compress(values, late))),
        ]

    def watermark(self, device: str) -> int | None:
        """The device's current flush watermark (None before any seq flush)."""
        return self._watermarks.get(device)

    def update_watermark(self, device: str, max_flushed_time: int) -> None:
        """Advance the watermark after a sequence-space flush."""
        current = self._watermarks.get(device)
        if current is None or max_flushed_time > current:
            self._watermarks[device] = max_flushed_time

    def routed_counts(self) -> dict[Space, int]:
        """How many points went to each space (observability for benches)."""
        return dict(self._routed)
