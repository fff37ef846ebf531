"""The CLAM and its BufferHash data structure: the paper's primary contribution.

Quick start::

    from repro.core import CLAM, CLAMConfig

    clam = CLAM(CLAMConfig.scaled(), storage="intel-ssd")
    clam.insert(b"fingerprint-1", b"chunk-address-1")
    result = clam.lookup(b"fingerprint-1")
    assert result.value == b"chunk-address-1"
    print(result.latency_ms, "simulated ms")
"""

from repro.core.buffer import Buffer, optimal_num_hashes
from repro.core.clam import CLAM, build_device, STORAGE_PROFILES
from repro.core.config import CLAMConfig
from repro.core.durable import (
    CheckpointRegion,
    CheckpointState,
    DurableLogStore,
    read_superblock,
    serialize_checkpoint,
    write_superblock,
)
from repro.core.errors import (
    BufferHashError,
    ClusterCloseError,
    ConfigurationError,
    KeyTooLargeError,
    PageFormatError,
    PowerLossError,
    TornPageError,
    WireProtocolError,
    WorkerDiedError,
)
from repro.core.eviction import (
    EvictionContext,
    EvictionPolicy,
    FIFOEviction,
    LRUEviction,
    PriorityBasedEviction,
    UpdateBasedEviction,
    make_policy,
)
from repro.core.hashing import (
    KeyDigest,
    as_digest,
    count_hash_calls,
    hash_key,
    key_data,
    to_key_bytes,
)
from repro.core.incarnation import IncarnationHandle, build_pages, search_page
from repro.core.recovery import CrashRecoveryReport, DurableCLAM
from repro.core.results import (
    DeleteResult,
    FlushResult,
    InsertResult,
    LookupResult,
    OperationStats,
    ServedFrom,
)
from repro.core.sliced_bloom import BitSlicedBloomArray
from repro.core.storage import (
    IncarnationStore,
    MultiDeviceLogStore,
    PartitionedChipStore,
    PartitionedDeviceStore,
    WholeDeviceLogStore,
)
from repro.core.supertable import SuperTable

__all__ = [
    "optimal_num_hashes",
    "Buffer",
    "CLAM",
    "build_device",
    "STORAGE_PROFILES",
    "CLAMConfig",
    "CheckpointRegion",
    "CheckpointState",
    "DurableLogStore",
    "read_superblock",
    "serialize_checkpoint",
    "write_superblock",
    "BufferHashError",
    "ClusterCloseError",
    "ConfigurationError",
    "KeyTooLargeError",
    "PageFormatError",
    "PowerLossError",
    "TornPageError",
    "WireProtocolError",
    "WorkerDiedError",
    "CrashRecoveryReport",
    "DurableCLAM",
    "EvictionContext",
    "EvictionPolicy",
    "FIFOEviction",
    "LRUEviction",
    "PriorityBasedEviction",
    "UpdateBasedEviction",
    "make_policy",
    "KeyDigest",
    "as_digest",
    "count_hash_calls",
    "hash_key",
    "key_data",
    "to_key_bytes",
    "IncarnationHandle",
    "build_pages",
    "search_page",
    "DeleteResult",
    "FlushResult",
    "InsertResult",
    "LookupResult",
    "OperationStats",
    "ServedFrom",
    "BitSlicedBloomArray",
    "IncarnationStore",
    "MultiDeviceLogStore",
    "PartitionedChipStore",
    "PartitionedDeviceStore",
    "WholeDeviceLogStore",
    "SuperTable",
]
