"""Merging a smaller deduplication index into a larger one (§3).

"To merge a smaller index into a larger one, fingerprints from the latter
dataset need to be looked up, and the larger index updated with any new
information."  Every fingerprint of the smaller index therefore costs the
larger index one lookup, and the new ones cost an insert as well — which is
why the operation is dominated by the larger index's random-operation
latency, and why the paper estimates ~2 hours on Berkeley-DB versus under
2 minutes on a CLAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple


@dataclass(frozen=True)
class MergeReport:
    """Outcome of one index merge."""

    fingerprints_processed: int
    new_fingerprints: int
    already_present: int
    lookup_time_ms: float
    insert_time_ms: float

    @property
    def total_time_ms(self) -> float:
        """Total simulated time the merge took."""
        return self.lookup_time_ms + self.insert_time_ms


def merge_indexes(
    larger_index,
    smaller_entries: Iterable[Tuple[bytes, bytes]],
) -> MergeReport:
    """Merge ``smaller_entries`` (fingerprint → value pairs) into ``larger_index``.

    ``larger_index`` is any object with the common ``lookup``/``insert`` API —
    a CLAM or a baseline — so the same function reproduces both sides of the
    paper's 2 h vs 2 min comparison.
    """
    processed = 0
    new = 0
    present = 0
    lookup_ms = 0.0
    insert_ms = 0.0
    for fingerprint, value in smaller_entries:
        processed += 1
        result = larger_index.lookup(fingerprint)
        lookup_ms += result.latency_ms
        if result.found:
            present += 1
            continue
        insert = larger_index.insert(fingerprint, value)
        insert_ms += insert.latency_ms
        new += 1
    return MergeReport(
        fingerprints_processed=processed,
        new_fingerprints=new,
        already_present=present,
        lookup_time_ms=lookup_ms,
        insert_time_ms=insert_ms,
    )


def scale_merge_time(
    report: MergeReport, measured_fingerprints: int, target_fingerprints: int
) -> float:
    """Extrapolate a measured merge to the paper's full-size index (in minutes).

    The merge is a linear pass over the smaller index's fingerprints, so
    per-fingerprint cost times the target count estimates the full-scale
    duration (the paper's 20 GB-index scenario has ~1.25 billion
    fingerprints more than a scaled run touches).
    """
    if measured_fingerprints <= 0 or target_fingerprints <= 0:
        raise ValueError("fingerprint counts must be positive")
    per_fingerprint_ms = report.total_time_ms / measured_fingerprints
    return per_fingerprint_ms * target_fingerprints / 60_000.0
