"""Typed TVList variants, one per column type (paper §V-A).

"In the real implementation of IoTDB, in order to reduce the time-consuming
of Java template conversion, IoTDB implements a separate class for each
custom basic type such as DoubleTVList."  Python has no template-erasure
cost, so the per-type classes here earn their keep through *validation*:
each rejects values that its on-disk encoders could not round-trip, failing
at ingestion time instead of at flush time.

They also earn their keep through *storage*: every typed list backs its
time column with an ``array('q')`` (int64, matching IoTDB's timestamp
type), and the numeric lists back their value column with ``array('q')``
(INT32/INT64) or ``array('d')`` (FLOAT/DOUBLE) — one contiguous typed
buffer per column instead of a list of boxed objects, which is what makes
the bulk ``extend`` and slice-assignment paths in
:class:`~repro.iotdb.tvlist.TVList` C-speed copies.  BOOLEAN and TEXT
values keep plain list storage (no
fixed-width typecode represents them losslessly).  One visible consequence:
FLOAT/DOUBLE columns store every value as a C double, so an ``int`` written
into an existing float column reads back as ``float`` — exactly what the
on-disk encoders already did at flush time — and an ``int`` no double can
hold (beyond ``±sys.float_info.max``) is rejected like any other bad value.

Each class also says, in its ``_batch_is_valid``, when a whole batch is
certainly valid on a few C-level scans (the set of value types, and for
the numeric columns ``min``/``max``), so :meth:`TVList.validate_all` runs
one Python check per value only for the batches that need it.
"""

from __future__ import annotations

import sys

from repro.errors import InvalidParameterError
from repro.iotdb.config import TSDataType
from repro.iotdb.tvlist import TVList

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_FLOAT_MAX = sys.float_info.max

_INTS = frozenset({int})
_NUMBERS = frozenset({float, int})
_BOOLS = frozenset({bool})
_STRINGS = frozenset({str})


def _ints_within(values, low: int, high: int) -> bool:
    """True when every value is a plain ``int`` in ``[low, high]``."""
    return {*map(type, values)} <= _INTS and (
        not values or low <= min(values) and max(values) <= high
    )


class IntTVList(TVList):
    """32-bit integer values (IoTDB INT32)."""

    dtype = TSDataType.INT32
    _TIME_TYPECODE = "q"
    _VALUE_TYPECODE = "q"

    @classmethod
    def _batch_is_valid(cls, values) -> bool:
        return _ints_within(values, _INT32_MIN, _INT32_MAX)

    @classmethod
    def _validate_value(cls, value) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidParameterError(f"INT32 TVList requires int, got {type(value).__name__}")
        if not _INT32_MIN <= value <= _INT32_MAX:
            raise InvalidParameterError(f"value {value} out of INT32 range")


class LongTVList(TVList):
    """64-bit integer values (IoTDB INT64)."""

    dtype = TSDataType.INT64
    _TIME_TYPECODE = "q"
    _VALUE_TYPECODE = "q"

    @classmethod
    def _batch_is_valid(cls, values) -> bool:
        return _ints_within(values, _INT64_MIN, _INT64_MAX)

    @classmethod
    def _validate_value(cls, value) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidParameterError(f"INT64 TVList requires int, got {type(value).__name__}")
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise InvalidParameterError(f"value {value} out of INT64 range")


class _FloatingTVList(TVList):
    """Shared FLOAT/DOUBLE validation: floats, and ints a double can hold."""

    _TIME_TYPECODE = "q"
    _VALUE_TYPECODE = "d"

    @classmethod
    def _batch_is_valid(cls, values) -> bool:
        # Only an int can lie beyond the double range, so min/max are taken
        # only when one is present.  A NaN never passes the range compare,
        # so a batch holding one falls through to the per-value loop.
        types = {*map(type, values)}
        return types <= _NUMBERS and (
            int not in types or -_FLOAT_MAX <= min(values) and max(values) <= _FLOAT_MAX
        )

    @classmethod
    def _validate_value(cls, value) -> None:
        kind = cls.dtype.name
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InvalidParameterError(f"{kind} TVList requires float, got {type(value).__name__}")
        if isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise InvalidParameterError(f"int value out of {kind} range")


class FloatTVList(_FloatingTVList):
    """Single-precision float values (IoTDB FLOAT); stored as Python float."""

    dtype = TSDataType.FLOAT


class DoubleTVList(_FloatingTVList):
    """Double-precision float values (IoTDB DOUBLE)."""

    dtype = TSDataType.DOUBLE


class BooleanTVList(TVList):
    """Boolean values (IoTDB BOOLEAN)."""

    dtype = TSDataType.BOOLEAN
    _TIME_TYPECODE = "q"

    @classmethod
    def _batch_is_valid(cls, values) -> bool:
        return {*map(type, values)} <= _BOOLS

    @classmethod
    def _validate_value(cls, value) -> None:
        if not isinstance(value, bool):
            raise InvalidParameterError(f"BOOLEAN TVList requires bool, got {type(value).__name__}")


class TextTVList(TVList):
    """String values (IoTDB TEXT); each must be encodable as UTF-8, the
    form both the WAL and the TsFile text encoder store."""

    dtype = TSDataType.TEXT
    _TIME_TYPECODE = "q"

    @classmethod
    def _batch_is_valid(cls, values) -> bool:
        if not {*map(type, values)} <= _STRINGS:
            return False
        try:
            "".join(values).encode("utf-8")
        except UnicodeEncodeError:
            return False
        return True

    @classmethod
    def _validate_value(cls, value) -> None:
        if not isinstance(value, str):
            raise InvalidParameterError(f"TEXT TVList requires str, got {type(value).__name__}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidParameterError(
                "TEXT value is not encodable as UTF-8 (lone surrogate)"
            ) from None


_TVLIST_CLASSES: dict[TSDataType, type[TVList]] = {
    TSDataType.INT32: IntTVList,
    TSDataType.INT64: LongTVList,
    TSDataType.FLOAT: FloatTVList,
    TSDataType.DOUBLE: DoubleTVList,
    TSDataType.BOOLEAN: BooleanTVList,
    TSDataType.TEXT: TextTVList,
}


def tvlist_class(dtype: TSDataType) -> type[TVList]:
    """The typed TVList class of a column type."""
    try:
        return _TVLIST_CLASSES[dtype]
    except KeyError:
        raise InvalidParameterError(f"no TVList class for {dtype!r}") from None


def tvlist_for(dtype: TSDataType) -> TVList:
    """Instantiate the typed TVList for a column type."""
    return tvlist_class(dtype)()


def infer_dtype(value) -> TSDataType:
    """Infer a column type from the first written value (schema-on-write)."""
    if isinstance(value, bool):
        return TSDataType.BOOLEAN
    if isinstance(value, int):
        return TSDataType.INT64
    if isinstance(value, float):
        return TSDataType.DOUBLE
    if isinstance(value, str):
        return TSDataType.TEXT
    raise InvalidParameterError(f"cannot infer TSDataType for {type(value).__name__}")
