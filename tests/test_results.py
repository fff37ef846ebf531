"""Tests for operation result records and aggregated statistics."""

import copy
import dataclasses
import pickle

import pytest

from repro.core import InsertResult, LookupResult, OperationStats, ServedFrom
from repro.core.results import DeleteResult, FlushResult


class TestLookupResult:
    def test_found_property(self):
        hit = LookupResult(key=b"k", value=b"v", latency_ms=0.1, served_from=ServedFrom.BUFFER)
        miss = LookupResult(key=b"k", value=None, latency_ms=0.1, served_from=ServedFrom.MISSING)
        assert hit.found is True
        assert miss.found is False


class TestOperationStats:
    def test_lookup_aggregates(self):
        stats = OperationStats()
        stats.record_lookup(
            LookupResult(key=b"a", value=b"v", latency_ms=1.0, served_from=ServedFrom.BUFFER)
        )
        stats.record_lookup(
            LookupResult(key=b"b", value=None, latency_ms=3.0, served_from=ServedFrom.MISSING)
        )
        assert stats.lookups == 2
        assert stats.lookup_hits == 1
        assert stats.mean_lookup_latency_ms == pytest.approx(2.0)
        assert stats.lookup_latency_max_ms == pytest.approx(3.0)
        assert stats.lookup_success_rate == pytest.approx(0.5)

    def test_insert_aggregates(self):
        stats = OperationStats()
        stats.record_insert(InsertResult(key=b"a", latency_ms=0.5, flushed=True, flash_writes=4))
        stats.record_insert(InsertResult(key=b"b", latency_ms=1.5))
        assert stats.inserts == 2
        assert stats.flash_writes == 4
        assert stats.mean_insert_latency_ms == pytest.approx(1.0)

    def test_empty_stats_safe(self):
        stats = OperationStats()
        assert stats.mean_lookup_latency_ms == 0.0
        assert stats.mean_insert_latency_ms == 0.0
        assert stats.lookup_success_rate == 0.0

    def test_false_positive_reads_accumulate(self):
        stats = OperationStats()
        stats.record_lookup(
            LookupResult(
                key=b"a",
                value=None,
                latency_ms=1.0,
                served_from=ServedFrom.MISSING,
                flash_reads=2,
                false_positive_reads=2,
            )
        )
        assert stats.false_positive_reads == 2
        assert stats.flash_reads == 2


RECORDS = [
    LookupResult(b"k", b"v", 0.25, ServedFrom.INCARNATION, 2, 3, 1),
    InsertResult(b"k", 1.5, True, 1.25, 2, 16, 8),
    DeleteResult(b"k", 0.004, True),
    FlushResult(2.5, 1, 16, 16, True),
    OperationStats(lookups=3),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
class TestRecordsAreSlotted:
    """One is built per operation and kept per key by batch callers, so none
    owns a ``__dict__`` — and everything a plain dataclass could do still works."""

    def test_no_dict_and_no_ad_hoc_attribute(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.annotation = "ad hoc"

    def test_field_names_and_positions_are_the_constructor(self, record):
        names = [field.name for field in dataclasses.fields(record)]
        assert list(type(record).__slots__) == names
        values = [getattr(record, name) for name in names]
        assert type(record)(*values) == record

    def test_copy_replace_asdict_and_pickle_round_trip(self, record):
        assert copy.copy(record) == record and copy.copy(record) is not record
        assert copy.deepcopy(record) == record
        assert type(record)(**dataclasses.asdict(record)) == record
        first = dataclasses.fields(record)[0].name
        changed = dataclasses.replace(record, **{first: getattr(record, first) * 2})
        assert changed != record and getattr(changed, first) == getattr(record, first) * 2
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record
