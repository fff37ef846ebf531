"""Workload construction with controlled lookup success rate and operation mix.

Three builders cover the paper's micro-benchmarks:

* :func:`build_lookup_then_insert_workload` — the §7.2 default: every key is
  first looked up, then inserted; the target lookup success rate (LSR)
  controls how often the looked-up key was already inserted recently.
* :func:`build_mixed_workload` — an arbitrary lookup/insert mix (Table 3).
* :func:`build_update_workload` — an insert/lookup stream where a fraction of
  inserts are updates (or deletes) of existing keys (Figure 8).
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.workloads.keygen import fingerprint_for


class OpKind(enum.Enum):
    """Kind of one workload operation."""

    LOOKUP = "lookup"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"

    # Identity hash (members are singletons): ``Enum.__hash__`` is a
    # Python-level function, and the wire codec keys a dict by kind once per
    # encoded operation.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Operation:
    """One operation in a workload stream."""

    kind: OpKind
    key: bytes
    value: bytes = b""


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a synthetic workload.

    Attributes
    ----------
    num_keys:
        Number of distinct new keys introduced by the workload.
    target_lsr:
        Desired lookup success rate — the probability that a lookup targets a
        key inserted recently enough to still be retained.
    lookup_fraction:
        Fraction of operations that are lookups (the rest are inserts), used
        by :func:`build_mixed_workload`.
    update_fraction:
        Fraction of inserts that overwrite an existing key, used by
        :func:`build_update_workload`.
    delete_fraction:
        Fraction of operations that delete an existing key.
    value_size:
        Size of generated values in bytes.
    recency_window:
        Lookups that are meant to hit sample their key from the most recent
        ``recency_window`` inserted keys, so hits stay within the CLAM's
        retention even when the workload is much larger than the table.
    seed:
        RNG seed; workloads are fully deterministic given the spec.
    """

    num_keys: int = 10_000
    target_lsr: float = 0.4
    lookup_fraction: float = 0.5
    update_fraction: float = 0.0
    delete_fraction: float = 0.0
    value_size: int = 8
    recency_window: int = 2_000
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_keys <= 0:
            raise ValueError("num_keys must be positive")
        if not 0.0 <= self.target_lsr <= 1.0:
            raise ValueError("target_lsr must be in [0, 1]")
        if not 0.0 <= self.lookup_fraction <= 1.0:
            raise ValueError("lookup_fraction must be in [0, 1]")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ValueError("update_fraction must be in [0, 1]")
        if not 0.0 <= self.delete_fraction <= 1.0:
            raise ValueError("delete_fraction must be in [0, 1]")
        if self.value_size < 0:
            raise ValueError("value_size must be non-negative")
        if self.recency_window <= 0:
            raise ValueError("recency_window must be positive")


def _value_for(key: bytes, size: int) -> bytes:
    if size == 0:
        return b""
    repeated = (key * ((size // max(1, len(key))) + 1))[:size]
    return repeated


class _RecentKeys:
    """Sliding window of recently inserted keys used to aim lookups at hits."""

    def __init__(self, window: int) -> None:
        self._window: Deque[bytes] = deque(maxlen=window)

    def add(self, key: bytes) -> None:
        self._window.append(key)

    def sample(self, rng: random.Random) -> Optional[bytes]:
        if not self._window:
            return None
        return self._window[rng.randrange(len(self._window))]

    def __len__(self) -> int:
        return len(self._window)


def build_lookup_then_insert_workload(spec: WorkloadSpec) -> List[Operation]:
    """The paper's default micro-benchmark: lookup each key, then insert it.

    With probability ``target_lsr`` the looked-up key is drawn from the
    recent-insert window (a hit); otherwise a brand-new key is looked up (a
    miss) and then inserted.
    """
    rng = random.Random(spec.seed)
    recent = _RecentKeys(spec.recency_window)
    operations: List[Operation] = []
    next_id = 0
    for _ in range(spec.num_keys):
        hit_key = recent.sample(rng) if rng.random() < spec.target_lsr else None
        if hit_key is not None:
            operations.append(Operation(OpKind.LOOKUP, hit_key))
            # Re-inserting the same key models the WAN optimizer updating the
            # fingerprint's location after a match.
            operations.append(
                Operation(OpKind.INSERT, hit_key, _value_for(hit_key, spec.value_size))
            )
        else:
            key = fingerprint_for(next_id, namespace=b"wl-%d" % spec.seed)
            next_id += 1
            operations.append(Operation(OpKind.LOOKUP, key))
            operations.append(Operation(OpKind.INSERT, key, _value_for(key, spec.value_size)))
            recent.add(key)
    return operations


def preload_keys_for(spec: WorkloadSpec) -> List[bytes]:
    """Keys :func:`build_mixed_workload` assumes are already in the index.

    Lookup-heavy mixes (e.g. Table 3's 100 %-lookup point) need a populated
    index to exhibit the target lookup success rate even though the operation
    stream itself contains few or no inserts; callers should insert these keys
    before running the workload (the paper pre-populates its tables the same
    way).
    """
    return [
        fingerprint_for(identifier, namespace=b"wl-pre-%d" % spec.seed)
        for identifier in range(spec.recency_window)
    ]


def build_mixed_workload(spec: WorkloadSpec) -> List[Operation]:
    """A workload with an explicit lookup fraction (Table 3).

    Inserts introduce new keys; lookups hit recent keys (or the pre-loaded
    keys from :func:`preload_keys_for`) with probability ``target_lsr`` and
    miss otherwise.
    """
    rng = random.Random(spec.seed)
    recent = _RecentKeys(spec.recency_window)
    for key in preload_keys_for(spec):
        recent.add(key)
    operations: List[Operation] = []
    next_id = 0
    miss_id = 1_000_000_000
    for _ in range(spec.num_keys):
        if rng.random() < spec.lookup_fraction:
            hit_key = recent.sample(rng) if rng.random() < spec.target_lsr else None
            if hit_key is not None:
                operations.append(Operation(OpKind.LOOKUP, hit_key))
            else:
                operations.append(
                    Operation(
                        OpKind.LOOKUP,
                        fingerprint_for(miss_id, namespace=b"wl-miss-%d" % spec.seed),
                    )
                )
                miss_id += 1
        else:
            key = fingerprint_for(next_id, namespace=b"wl-%d" % spec.seed)
            next_id += 1
            operations.append(Operation(OpKind.INSERT, key, _value_for(key, spec.value_size)))
            recent.add(key)
    return operations


def build_update_workload(spec: WorkloadSpec) -> List[Operation]:
    """Insert/lookup stream where a fraction of inserts update existing keys.

    Used for the update-based and priority-based eviction experiments
    (Figure 8): updated keys make some on-flash entries stale, which is what
    partial-discard eviction reclaims.
    """
    rng = random.Random(spec.seed)
    recent = _RecentKeys(spec.recency_window)
    operations: List[Operation] = []
    next_id = 0
    for _ in range(spec.num_keys):
        update_key = recent.sample(rng) if rng.random() < spec.update_fraction else None
        if update_key is not None:
            if spec.delete_fraction > 0 and rng.random() < spec.delete_fraction:
                operations.append(Operation(OpKind.DELETE, update_key))
            else:
                operations.append(
                    Operation(
                        OpKind.UPDATE, update_key, _value_for(update_key, spec.value_size)
                    )
                )
        else:
            key = fingerprint_for(next_id, namespace=b"wl-upd-%d" % spec.seed)
            next_id += 1
            recent.add(key)
            operations.append(Operation(OpKind.INSERT, key, _value_for(key, spec.value_size)))
        if rng.random() < spec.lookup_fraction:
            hit_key = recent.sample(rng) if rng.random() < spec.target_lsr else None
            if hit_key is not None:
                operations.append(Operation(OpKind.LOOKUP, hit_key))
            else:
                operations.append(
                    Operation(
                        OpKind.LOOKUP,
                        fingerprint_for(next_id + 500_000_000, namespace=b"wl-upd-miss"),
                    )
                )
    return operations
