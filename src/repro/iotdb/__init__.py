"""The Apache IoTDB write-path substrate (paper §V), reimplemented in Python."""

from repro.iotdb.backends import (
    BlobNotFoundError,
    BlobStore,
    LocalDirStore,
    MemoryStore,
)
from repro.iotdb.meta import (
    ENGINE_META_KEY,
    EngineMeta,
    read_meta,
    write_meta,
)

from repro.iotdb.aggregation import (
    AGGREGATIONS,
    AggregationResult,
    WindowAggregate,
    aggregate_from_points,
    aggregate_windows,
)
from repro.iotdb.compaction import (
    CompactionPolicy,
    CompactionReport,
    CompactionSelection,
    FullMergePolicy,
    OverlapDrivenPolicy,
    compact,
    policy_from_config,
)

from repro.iotdb.config import IoTDBConfig, TSDataType
from repro.iotdb.interval_index import IndexEntry, IntervalIndex
from repro.iotdb.encoding import Encoder, get_encoder
from repro.iotdb.engine import StorageEngine
from repro.iotdb.flush import ChunkFlushReport, FlushReport, flush_memtable
from repro.iotdb.memtable import MemTable, MemTableState
from repro.iotdb.query import QueryResult, QueryStats, TimeRangeQueryExecutor
from repro.iotdb.separation import SeparationPolicy, Space
from repro.iotdb.session import ParsedQuery, Session
from repro.iotdb.shard import StorageShard
from repro.iotdb.tsfile import (
    ChunkMetadata,
    PageMetadata,
    PageStatistics,
    TsFileReader,
    TsFileWriter,
)
from repro.iotdb.tvlist import TVList, dedupe_arrival
from repro.iotdb.typed_tvlists import (
    BooleanTVList,
    DoubleTVList,
    FloatTVList,
    IntTVList,
    LongTVList,
    TextTVList,
    infer_dtype,
    tvlist_for,
)
from repro.iotdb.wal import SegmentedWal, WriteAheadLog

__all__ = [
    "AGGREGATIONS",
    "AggregationResult",
    "BlobNotFoundError",
    "BlobStore",
    "ENGINE_META_KEY",
    "EngineMeta",
    "LocalDirStore",
    "MemoryStore",
    "read_meta",
    "write_meta",
    "CompactionPolicy",
    "CompactionReport",
    "CompactionSelection",
    "FullMergePolicy",
    "IndexEntry",
    "IntervalIndex",
    "OverlapDrivenPolicy",
    "aggregate_from_points",
    "aggregate_windows",
    "WindowAggregate",
    "compact",
    "policy_from_config",
    "BooleanTVList",
    "ChunkFlushReport",
    "ChunkMetadata",
    "DoubleTVList",
    "Encoder",
    "FloatTVList",
    "FlushReport",
    "IntTVList",
    "IoTDBConfig",
    "LongTVList",
    "MemTable",
    "MemTableState",
    "PageMetadata",
    "PageStatistics",
    "QueryResult",
    "QueryStats",
    "SeparationPolicy",
    "ParsedQuery",
    "Session",
    "Space",
    "SegmentedWal",
    "StorageEngine",
    "StorageShard",
    "TSDataType",
    "TVList",
    "TextTVList",
    "TimeRangeQueryExecutor",
    "TsFileReader",
    "TsFileWriter",
    "WriteAheadLog",
    "dedupe_arrival",
    "flush_memtable",
    "get_encoder",
    "infer_dtype",
    "tvlist_for",
]
