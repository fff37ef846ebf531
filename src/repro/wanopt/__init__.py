"""WAN optimizer built on a CLAM fingerprint index (§8 of the paper).

A WAN optimizer suppresses redundant bytes from network transfers:

* the **chunker** cuts each object into content-defined chunks (Rabin-Karp
  fingerprinting);
* the **compression engine** looks each chunk's SHA-1 fingerprint up in a
  large hash table (the CLAM, or a Berkeley-DB-style baseline), replaces
  chunks seen before with small references, stores new chunks in an on-disk
  content cache and inserts their fingerprints into the index;
* the **network subsystem** transmits the compressed object over the WAN
  link.

The package also contains the synthetic trace generator used in place of the
paper's university packet traces (see DESIGN.md, substitutions table).
"""

from repro.wanopt.chunking import RabinChunker, ChunkBoundary
from repro.wanopt.fingerprint import Chunk, fingerprint_bytes, chunk_from_bytes
from repro.wanopt.cache import ContentCache
from repro.wanopt.network import Link, TransmissionResult
from repro.wanopt.engine import (
    CompressionEngine,
    FingerprintIndex,
    ObjectCompressionResult,
)
from repro.wanopt.topology import (
    BranchObjectOutcome,
    BranchOffice,
    DedupReceiver,
    MultiBranchTopology,
)
from repro.wanopt.optimizer import (
    WANOptimizer,
    ThroughputTestResult,
    HighLoadResult,
    ObjectTimeline,
    BranchThroughputResult,
    MultiBranchThroughputResult,
    MultiBranchThroughputTest,
)
from repro.wanopt.traces import (
    TraceObject,
    SyntheticTraceGenerator,
    BranchTraceGenerator,
    build_payload_objects,
)

__all__ = [
    "RabinChunker",
    "ChunkBoundary",
    "Chunk",
    "fingerprint_bytes",
    "chunk_from_bytes",
    "ContentCache",
    "Link",
    "TransmissionResult",
    "CompressionEngine",
    "FingerprintIndex",
    "ObjectCompressionResult",
    "WANOptimizer",
    "ThroughputTestResult",
    "HighLoadResult",
    "ObjectTimeline",
    "BranchOffice",
    "BranchObjectOutcome",
    "DedupReceiver",
    "MultiBranchTopology",
    "BranchThroughputResult",
    "MultiBranchThroughputResult",
    "MultiBranchThroughputTest",
    "TraceObject",
    "SyntheticTraceGenerator",
    "BranchTraceGenerator",
    "build_payload_objects",
]
