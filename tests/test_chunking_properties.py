"""Property-based tests for the Rabin content-defined chunker.

Four invariants every content-defined chunker must hold, checked over
seeded random byte streams (plus arbitrary hypothesis-generated bytes for
the universally-true properties):

1. **Losslessness** — concatenating the chunk payloads reconstructs the
   input byte-exactly, for any input.
2. **Size bounds** — every chunk is at most ``max_size`` long, and every
   chunk except possibly the final one is at least ``min_size`` long.
3. **Boundary stability** — boundaries are content-defined: inserting bytes
   at the front of a random stream only perturbs a handful of chunks near
   the edit; the chunk sequence re-synchronises and the entire tail is
   byte-identical.  (This is the property that makes dedup survive edits —
   a fixed-offset chunker would shift every boundary.)
4. **Optimized/naive equivalence** — wherever the tiled numpy scan runs
   (numpy importable, ``min_size`` at least the rolling window) it emits
   boundaries **bit-identical** to the frozen per-byte reference
   implementation, on arbitrary inputs and across min/avg/max shapes
   (including non-power-of-two averages); below the window every chunker
   runs the reference itself.

The high-example-count variants are marked ``slow`` and run in the nightly /
full CI job; the quick variants keep the default ``-m "not slow"`` lane
honest.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.wanopt import chunking
from repro.wanopt.chunking import HAVE_NUMPY, RabinChunker

WINDOW = chunking._WINDOW_SIZE

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the tiled scan needs numpy")

#: Observed worst case over thousands of seeded random streams is 4 changed
#: chunks; 12 leaves generous slack while still proving locality (a
#: fixed-offset chunker would change *every* chunk).
MAX_CHANGED_CHUNKS = 12

COMMON = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def chunks_of(chunker: RabinChunker, data: bytes) -> list:
    return [data[b.start : b.end] for b in chunker.boundaries(data)]


def common_suffix_length(first: list, second: list) -> int:
    length = 0
    while length < min(len(first), len(second)) and first[-1 - length] == second[-1 - length]:
        length += 1
    return length


def assert_reconstructs(chunker: RabinChunker, data: bytes) -> None:
    pieces = chunks_of(chunker, data)
    assert b"".join(pieces) == data
    # boundaries() must also tile [0, len) exactly, in order.
    boundaries = chunker.boundaries(data)
    position = 0
    for boundary in boundaries:
        assert boundary.start == position
        assert boundary.end > boundary.start
        position = boundary.end
    assert position == len(data)


def assert_bounds(chunker: RabinChunker, data: bytes) -> None:
    pieces = chunks_of(chunker, data)
    for piece in pieces:
        assert len(piece) <= chunker.max_size
    # Every chunk except possibly the last respects the minimum: a boundary
    # is only ever declared at or beyond min_size, but the stream may end
    # mid-chunk.
    for piece in pieces[:-1]:
        assert len(piece) >= chunker.min_size


def assert_prefix_stability(data: bytes, prefix: bytes, average_size: int) -> None:
    chunker = RabinChunker(average_size=average_size)
    original = chunks_of(chunker, data)
    modified = chunks_of(chunker, prefix + data)
    preserved = common_suffix_length(original, modified)
    changed = len(modified) - preserved
    assert changed <= MAX_CHANGED_CHUNKS, (
        f"prefix insertion of {len(prefix)} bytes changed {changed} chunks "
        f"(of {len(modified)}); content-defined boundaries should re-sync"
    )
    # The preserved tail really is the tail of the original data.
    if preserved:
        assert b"".join(modified[-preserved:]) == b"".join(original[-preserved:])


# -- Losslessness -------------------------------------------------------------------------


@given(data=st.binary(max_size=20_000), average=st.sampled_from([64, 256, 1024, 4096]))
@settings(max_examples=60, **COMMON)
def test_concatenation_reconstructs_arbitrary_bytes(data: bytes, average: int):
    assert_reconstructs(RabinChunker(average_size=average), data)


@pytest.mark.slow
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, **COMMON)
def test_concatenation_reconstructs_seeded_random_streams(seed: int):
    rng = random.Random(seed)
    data = rng.randbytes(rng.randint(0, 60_000))
    assert_reconstructs(RabinChunker(average_size=rng.choice([256, 1024, 4096])), data)


# -- Size bounds --------------------------------------------------------------------------


@given(data=st.binary(max_size=20_000), average=st.sampled_from([64, 256, 1024]))
@settings(max_examples=60, **COMMON)
def test_size_bounds_hold_for_arbitrary_bytes(data: bytes, average: int):
    assert_bounds(RabinChunker(average_size=average), data)


@pytest.mark.slow
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, **COMMON)
def test_size_bounds_hold_for_seeded_random_streams(seed: int):
    rng = random.Random(seed)
    data = rng.randbytes(rng.randint(0, 60_000))
    min_size = rng.choice([1, 64, 256])
    chunker = RabinChunker(average_size=1024, min_size=min_size, max_size=rng.choice([2048, 4096]))
    assert_bounds(chunker, data)
    assert_reconstructs(chunker, data)


# -- Boundary stability under prefix insertion --------------------------------------------


def test_prefix_insertion_only_changes_chunks_near_the_edit_quick():
    for seed in range(10):
        rng = random.Random(seed)
        data = rng.randbytes(rng.randint(8_192, 32_768))
        prefix = rng.randbytes(rng.randint(1, 256))
        assert_prefix_stability(data, prefix, average_size=1024)


@pytest.mark.slow
@given(seed=st.integers(0, 2**32 - 1), average=st.sampled_from([512, 1024, 2048]))
@settings(max_examples=200, **COMMON)
def test_prefix_insertion_only_changes_chunks_near_the_edit(seed: int, average: int):
    rng = random.Random(seed)
    data = rng.randbytes(rng.randint(4_096, 40_000))
    prefix = rng.randbytes(rng.randint(1, 512))
    assert_prefix_stability(data, prefix, average_size=average)


# -- Optimized vs naive boundary equivalence ----------------------------------------------


def assert_paths_match_reference(data: bytes, average: int, min_size: int, max_size: int) -> None:
    """The tiled scan equals the reference wherever it runs; below the
    window ``boundaries`` is the reference itself, so there is nothing to
    compare."""
    if min_size < WINDOW:
        return
    chunker = RabinChunker(average_size=average, min_size=min_size, max_size=max_size)
    assert chunker.boundaries(data) == chunker.reference_boundaries(data), (
        "the tiled scan diverged from the reference "
        f"(avg={average}, min={min_size}, max={max_size}, n={len(data)})"
    )


@needs_numpy
@given(
    data=st.binary(max_size=20_000),
    average=st.sampled_from([64, 100, 256, 1024, 4096]),
)
@settings(max_examples=60, **COMMON)
def test_optimized_paths_match_reference_on_arbitrary_bytes(data: bytes, average: int):
    chunker = RabinChunker(average_size=average)
    assert_paths_match_reference(data, average, chunker.min_size, chunker.max_size)


@needs_numpy
@given(
    data=st.binary(max_size=12_000),
    average=st.sampled_from([64, 256, 1000, 1024]),
    min_size=st.sampled_from([1, 16, 47, 48, 49, 300]),
)
@settings(max_examples=60, **COMMON)
def test_optimized_paths_match_reference_across_min_sizes(data: bytes, average: int, min_size: int):
    max_size = max(min_size, average * 4)
    assert_paths_match_reference(data, average, min_size, max_size)


@needs_numpy
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(48, 20_000),
    average=st.sampled_from([64, 100, 256, 1024]),
    tile=st.sampled_from([49, 64, 257, 1000]),
)
@settings(max_examples=60, **COMMON)
def test_tiled_scan_matches_reference_at_any_tile_size(seed, size, average, tile):
    """Tiles far smaller than the shipped one put a seam every few windows,
    so first-in-tile, last-in-tile and straddling windows all carry cuts.
    The walk runs cold, then warm on the same bytes behind a new head: the
    head's chunks are scanned, the rest come from the cache, and the scan
    resumes past every run of hits.  Seeded streams, not ``st.binary``:
    hypothesis keeps arbitrary byte strings far shorter than one rolling
    window."""
    rng = random.Random(seed)
    data = rng.randbytes(size)
    edited = rng.randbytes(rng.randint(1, 512)) + data
    chunker = RabinChunker(average_size=average, min_size=WINDOW)
    for payload in (data, edited):
        reference = [(b.start, b.end) for b in chunker.reference_boundaries(payload)]
        assert chunker._walk_boundaries(memoryview(payload), tile) == reference


@pytest.mark.slow
@needs_numpy
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, **COMMON)
def test_optimized_paths_match_reference_on_seeded_random_streams(seed: int):
    rng = random.Random(seed)
    data = rng.randbytes(rng.randint(0, 60_000))
    average = rng.choice([64, 100, 256, 1024, 4096])
    min_size = rng.choice([1, 16, 48, 300, max(1, average // 4)])
    max_size = rng.choice([max(min_size, average * 2), max(min_size, average * 4), min_size])
    assert_paths_match_reference(data, average, min_size, max_size)


@pytest.mark.slow
def test_long_stream_tail_survives_prefix_insertion():
    """For long streams the overwhelming majority of chunks must survive."""
    for seed in range(20):
        rng = random.Random(1_000 + seed)
        data = rng.randbytes(65_536)
        prefix = rng.randbytes(rng.randint(1, 128))
        chunker = RabinChunker(average_size=1024)
        original = chunks_of(chunker, data)
        modified = chunks_of(chunker, prefix + data)
        preserved = common_suffix_length(original, modified)
        assert preserved >= len(original) - MAX_CHANGED_CHUNKS
        assert preserved / len(original) > 0.75
