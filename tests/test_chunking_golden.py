"""Golden-boundary regression tests: the optimized chunker is bit-identical to seed.

The tiled numpy scan must emit **exactly** the boundaries the original
per-byte loop emitted — same Rabin polynomial, same residue rule, same
min/max clamping.  These tests freeze that contract two ways:

* golden digests, computed from the *seed implementation before the rewrite*
  and hard-coded below: several payload sizes and min/avg/max shapes,
  covering the tiled-scan regime (``min >= WINDOW``), the window-filling
  regime (``min < WINDOW``, where every chunker runs the reference loop),
  non-power-of-two averages, a forced ``max_size`` cut and a payload shorter
  than ``min_size``;
* cross-checks of both execution paths (the tiled scan, and the verbatim
  ``reference_boundaries`` every chunker falls back to) against those
  digests and each other.  The fallback is checked on every run, with
  numpy present or not, by patching the module's numpy handle away.

If any of these digests ever changes, previously deduplicated content stops
matching its stored fingerprints — treat a failure here as data corruption,
not as a test to update.
"""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from array import array

import pytest

from repro.wanopt import chunking
from repro.wanopt.chunking import HAVE_NUMPY, RabinChunker

WINDOW = chunking._WINDOW_SIZE

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the tiled scan needs numpy")

# (case id) -> (payload seed, payload size, chunker kwargs, sha256 of the
# JSON boundary list, number of chunks, first boundaries, last boundary).
# Digests were produced by the pre-rewrite per-byte implementation.
GOLDEN = {
    "64k_avg4096_default": (
        101,
        64 * 1024,
        dict(average_size=4096),
        "7c29f73de8742aa48eccd7678ff0acacbd9861c4ff7563d4d98f552cb971be2c",
        19,
        [(0, 3041), (3041, 4119), (4119, 5244)],
        (64686, 65536),
    ),
    "64k_avg1024_default": (
        102,
        64 * 1024,
        dict(average_size=1024),
        "08ab0e1feb5140873813fef0a32accaf9de0001ad1248c51680902bd0a00549f",
        46,
        [(0, 1311), (1311, 2548), (2548, 3094)],
        (65102, 65536),
    ),
    "64k_avg4096_min512_max8192": (
        103,
        64 * 1024,
        dict(average_size=4096, min_size=512, max_size=8192),
        "1e40149f0f38a62d70627fc3a21a67c2f03a854b1d34e6e4340932f039957ce1",
        14,
        [(0, 1869), (1869, 10061), (10061, 18253)],
        (64578, 65536),
    ),
    "32k_avg256_min16": (
        104,
        32 * 1024,
        dict(average_size=256, min_size=16),
        "067d6e845ae44a0545a51dcbdfadd45a5bd934eb86dbe5be6c7fde8303091274",
        135,
        [(0, 35), (35, 177), (177, 384)],
        (32752, 32768),
    ),
    "16k_avg64_default": (
        105,
        16 * 1024,
        dict(average_size=64),
        "45555393c6265fd6febe7dc3147f858dc28812c9f66adc5faf686ba13be26e75",
        198,
        [(0, 65), (65, 93), (93, 117)],
        (16335, 16384),
    ),
    "20k_avg1000_default": (
        106,
        20 * 1024,
        dict(average_size=1000),
        "e94141d508302312dd9afb2da4abff7612202b293a528a5c60a95ea410d50652",
        24,
        [(0, 296), (296, 1324), (1324, 1681)],
        (20071, 20480),
    ),
    "256k_avg4096_default": (
        107,
        256 * 1024,
        dict(average_size=4096),
        "a73518885141b82be8355c40c209c895101b626cfb9feaf9c87da8503fde94de",
        46,
        [(0, 4443), (4443, 9258), (9258, 16992)],
        (253171, 262144),
    ),
    "3k_avg4096_shorter_than_min": (
        108,
        3 * 1024,
        dict(average_size=4096),
        "722b33f77ccd4f3d8928fc0d29ef3701d6b90bb2766709e8b323495c76204880",
        2,
        [(0, 2226), (2226, 3072)],
        (2226, 3072),
    ),
    # The end-to-end benchmark's object shape (32 tiles of the vectorised
    # scan); digest taken from ``reference_boundaries``.
    "512k_avg8192_default": (
        112,
        512 * 1024,
        dict(average_size=8192),
        "006f056856092cfc9fabe13df5e6c40c8540ca4ebf8c3d32b09bed87d58e76c2",
        61,
        [(0, 17228), (17228, 24333), (24333, 26768)],
        (521637, 524288),
    ),
}


def boundary_digest(boundaries) -> str:
    flat = [(boundary.start, boundary.end) for boundary in boundaries]
    return hashlib.sha256(json.dumps(flat).encode()).hexdigest()


@pytest.fixture(params=["numpy", "no-numpy"])
def numpy_mode(request, monkeypatch):
    """Run a test with the module's numpy handle as imported, then with it
    patched away, so the reference fallback is checked on every run."""
    if request.param == "no-numpy":
        monkeypatch.setattr(chunking, "_np", None)
    elif not HAVE_NUMPY:
        pytest.skip("numpy is not importable")
    return request.param


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_boundaries_match_golden_digest(case, numpy_mode):
    seed, size, kwargs, digest, count, first, last = GOLDEN[case]
    data = random.Random(seed).randbytes(size)
    chunker = RabinChunker(**kwargs)
    boundaries = chunker.boundaries(data)
    assert len(boundaries) == count
    assert [(b.start, b.end) for b in boundaries[: len(first)]] == first
    assert (boundaries[-1].start, boundaries[-1].end) == last
    assert boundary_digest(boundaries) == digest
    assert boundaries == chunker.reference_boundaries(data)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_reference_implementation_matches_golden_digest(case):
    """The frozen reference itself must still reproduce the seed digests."""
    seed, size, kwargs, digest, _, _, _ = GOLDEN[case]
    data = random.Random(seed).randbytes(size)
    chunker = RabinChunker(**kwargs)
    assert boundary_digest(chunker.reference_boundaries(data)) == digest


@pytest.mark.parametrize("min_size", [1, 16, WINDOW - 1])
def test_min_size_below_the_window_runs_the_reference(monkeypatch, min_size):
    """Below the window the hash at an eligible cut depends on the chunk
    start, so even with numpy importable the tiled scan must not run."""

    def refuse(*_args):
        raise AssertionError("the tiled scan ran with min_size < WINDOW")

    monkeypatch.setattr(RabinChunker, "_walk_boundaries", refuse)
    chunker = RabinChunker(average_size=256, min_size=min_size)
    data = random.Random(111).randbytes(8 * 1024)
    assert chunker.boundaries(data) == chunker.reference_boundaries(data)


@needs_numpy
def test_min_size_at_the_window_runs_the_tiled_scan(monkeypatch):
    """From the window up, with numpy importable, ``boundaries`` never
    falls back to the per-byte loop."""

    def refuse(*_args):
        raise AssertionError("the reference ran where the tiled scan can")

    chunker = RabinChunker(average_size=256, min_size=WINDOW)
    data = random.Random(112).randbytes(8 * 1024)
    want = chunker.reference_boundaries(data)
    monkeypatch.setattr(RabinChunker, "reference_boundaries", refuse)
    assert chunker.boundaries(data) == want
    assert b"".join(chunker.split(data)) == data


def test_all_paths_agree_on_memoryview_and_bytearray_input(numpy_mode):
    data = random.Random(109).randbytes(24 * 1024)
    chunker = RabinChunker(average_size=1024)
    want = chunker.reference_boundaries(data)
    for view in (memoryview(data), bytearray(data)):
        assert chunker.boundaries(view) == want
    # A strided view and a view of wider items chunk as the bytes they hold.
    strided = memoryview(data)[::2]
    words = memoryview(array("I", data))
    for view in (strided, words):
        want = chunker.reference_boundaries(view.tobytes())
        assert want[-1].end == view.nbytes
        assert chunker.boundaries(view) == want
        assert b"".join(chunker.split(view)) == view.tobytes()


def test_split_yields_zero_copy_views_tiling_the_input(numpy_mode):
    data = random.Random(110).randbytes(48 * 1024)
    chunker = RabinChunker(average_size=2048)
    pieces = list(chunker.split(data))
    assert all(isinstance(piece, memoryview) for piece in pieces)
    assert b"".join(pieces) == data
    # Zero-copy: every view aliases the original buffer.
    assert all(piece.obj is data for piece in pieces)


# -- The tiled scan: seams, sizes and scratch ---------------------------------------------


#: Empty, one byte, and lengths ending just before, on and after each of the
#: first seams of the shipped tile (``min_size == WINDOW`` below puts the
#: first window at byte 0, so a tile ends at ``k * _TILE + 47``).
SEAM_SIZES = [0, 1]
SEAM_SIZES += [k * chunking._TILE + offset for k in (0, 1, 2) for offset in (47, 48, 49)]


@needs_numpy
@pytest.mark.parametrize("size", SEAM_SIZES)
def test_tiled_scan_equals_reference_around_tile_seams(size):
    data = random.Random(113).randbytes(size)
    chunker = RabinChunker(average_size=256, min_size=WINDOW)
    assert chunker.boundaries(data) == chunker.reference_boundaries(data)


@needs_numpy
def test_tiled_scan_matches_reference_digest_beyond_four_mebibytes():
    """Digest taken once from ``reference_boundaries``, which would take
    over a second to walk these 5 MiB byte by byte on every run."""
    data = random.Random(114).randbytes(5 * 1024 * 1024 + 123)
    boundaries = RabinChunker(average_size=8192).boundaries(data)
    assert len(boundaries) == 517
    assert (boundaries[-1].start, boundaries[-1].end) == (5241902, 5243003)
    assert (
        boundary_digest(boundaries)
        == "019845f522baf4f3a12ac68e95d3ff7e9fddcf36855203ac88687b7fbc0844d6"
    )


@needs_numpy
def test_scan_scratch_is_tile_sized_and_power_tables_are_shared():
    data = random.Random(115).randbytes(8 * 1024 * 1024)
    tracemalloc.start()
    try:
        chunker = RabinChunker(average_size=8192)
        # The wan_rpc_2w pipeline constructs a chunker and never scans:
        # construction allocates nothing array-sized.
        assert tracemalloc.get_traced_memory()[1] < 4096
        chunker.boundaries(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1024 * 1024, peak  # the 8 MiB input predates the trace
    tables = chunking._TILE_POWERS
    RabinChunker(average_size=1024).boundaries(data[:65536])
    assert chunking._TILE_POWERS is tables
