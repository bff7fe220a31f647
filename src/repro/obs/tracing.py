"""Tracer: nested spans over the injectable clock.

A span is one timed region of the hot path (``engine.write_batch`` →
``engine.flush`` → ``sort``); nesting follows the call stack, so the span
tree answers "where does write→flush→query latency go?" without editing
source.  All timing goes through :mod:`repro.obs.clock` — monotonic by
default, a :class:`~repro.obs.clock.FakeClock` in tests.

Spans are retained in memory up to ``max_spans`` (a bound, not a sample:
beyond it spans still nest and time correctly but are not kept, and the
``dropped`` counter says how many).  For long benchmark runs,
``sample_rate`` keeps a representative fraction instead of a truncated
prefix: the decision is made once per *root* span with a seeded RNG (so a
given seed always keeps the same traces) and applies to the whole tree —
an unsampled root's descendants are never retained, because a partial
trace is worse than none.  The no-op twin hands out one shared context
manager, so a disabled tracer costs a single method call per span.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.clock import MONOTONIC, Clock


@dataclass
class Span:
    """One timed region with attributes and child spans."""

    name: str
    span_id: int
    parent_id: int | None = None
    start: float = 0.0
    end: float | None = None
    attributes: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attributes) -> None:
        """Attach attributes to the span (merged over existing keys)."""
        self.attributes.update(attributes)

    def iter(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) named ``name``, depth-first."""
        for span in self.iter():
            if span.name == name:
                return span
        return None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }


class _SpanContext:
    """Context manager that opens/closes one span on the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._open(self._span)
        return self._span

    def __exit__(self, *exc_info) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Produces nested spans; keeps the finished tree for export."""

    def __init__(
        self,
        clock: Clock | None = None,
        max_spans: int = 10_000,
        sample_rate: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            from repro.errors import InvalidParameterError

            raise InvalidParameterError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        self._clock = clock if clock is not None else MONOTONIC
        self._max_spans = max_spans
        self._sample_rate = sample_rate
        self._rng = random.Random(seed)
        # Depth inside an unsampled root's subtree (0 = sampling normally).
        self._unsampled_depth = 0
        self._stack: list[Span] = []
        self._next_id = 1
        self.roots: list[Span] = []
        self.span_count = 0
        self.dropped = 0
        #: Spans not retained because their root lost the sampling draw.
        self.sampled_out = 0

    def span(self, name: str, **attributes) -> _SpanContext:
        """Open a span on entry; attributes may be extended via ``span.set``."""
        span = Span(name=name, span_id=self._next_id, attributes=attributes)
        self._next_id += 1
        return _SpanContext(self, span)

    def _open(self, span: Span) -> None:
        if self._stack:
            span.parent_id = self._stack[-1].span_id
        if self._unsampled_depth:
            # Inside an unsampled root's subtree: never retain.
            self._unsampled_depth += 1
            self.sampled_out += 1
        elif (
            not self._stack
            and self._sample_rate < 1.0
            and self._rng.random() >= self._sample_rate
        ):
            # Root lost the (seeded, deterministic) sampling draw.
            self._unsampled_depth = 1
            self.sampled_out += 1
        elif self.span_count < self._max_spans:
            self.span_count += 1
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)
        else:
            self.dropped += 1
        self._stack.append(span)
        span.start = self._clock.now()  # last: exclude bookkeeping from the span

    def _close(self, span: Span) -> None:
        span.end = self._clock.now()
        # Tolerate out-of-order exits (a span leaked across a generator):
        # unwind to the matching entry instead of corrupting the stack.
        while self._stack:
            top = self._stack.pop()
            if self._unsampled_depth:
                self._unsampled_depth -= 1
            if top is span:
                break

    def iter_spans(self) -> Iterator[Span]:
        """Every retained span, depth-first over the root forest."""
        for root in self.roots:
            yield from root.iter()

    def find(self, name: str) -> Span | None:
        """First retained span named ``name``, depth-first."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    def clear(self) -> None:
        """Drop all retained spans (the stack of open spans survives)."""
        self.roots = []
        self.span_count = 0
        self.dropped = 0
        self.sampled_out = 0


class _NoopSpan:
    """Shared do-nothing span/context-manager for the disabled path."""

    __slots__ = ()
    name = "noop"
    span_id = 0
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    @property
    def attributes(self) -> dict:
        # Fresh per access: the no-op span is a shared singleton, so a
        # class-level dict would be cross-thread mutable state.
        return {}

    @property
    def children(self) -> list:
        return []

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes) -> None:
        pass

    def iter(self) -> Iterator["_NoopSpan"]:
        return iter(())

    def find(self, name: str) -> None:
        return None

    def as_dict(self) -> dict:
        return {}


NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Tracer twin returning the shared no-op span."""

    roots: tuple = ()
    span_count = 0
    dropped = 0
    sampled_out = 0

    def span(self, name: str, **attributes) -> _NoopSpan:
        return NOOP_SPAN

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> None:
        return None

    def clear(self) -> None:
        pass


#: Shared no-op tracer (stateless, safe to share process-wide).
NOOP_TRACER = NoopTracer()
