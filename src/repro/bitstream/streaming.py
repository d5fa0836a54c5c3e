"""Tile iteration and streaming accumulation over packed bitstreams.

The packed backend stores a whole stream as ``(batch, words)`` uint64
matrices; every consumer so far materialises the full length. This module
is the constant-memory counterpart: streams are processed as fixed-size
**tiles** of ``tile_words`` 64-bit words (``tile_words * 64`` stream
bits), and whole-stream quantities are recovered from per-tile partial
sums instead of retained bits:

* :func:`tile_bounds` — the canonical tile decomposition of an N-bit
  stream: every tile but the last spans exactly ``tile_words * 64`` bits;
  the last covers the (possibly odd) tail. Tile starts are always
  word-aligned, so a tile's packed form occupies a contiguous word slice.
* :func:`iter_tiles` — tile views over an existing
  :class:`~repro.bitstream.packed.PackedBitstreamBatch` (zero-copy word
  slices).
* :class:`PackedTileSource` — a comparator D/S converter that emits
  packed words *per tile on demand* from a windowed RNG
  (:meth:`~repro.rng.base.StreamRNG.sequence_window`), so a batch of
  source streams never exists in memory at full length.
* :class:`ValueAccumulator` — per-row 1-count partial sums; the final
  values equal whole-stream popcount values exactly (integer sums).
* :class:`OverlapAccumulator` — pairwise overlap partial sums whose final
  SCC is float-identical to
  :func:`~repro.bitstream.metrics.scc_batch_packed` on the full streams.
* :class:`TileAssembler` — optional materialisation of selected streams:
  writes tile word slices into a preallocated full-length matrix (memory
  is spent only on streams a caller explicitly keeps).

Doctest — streaming SCC equals whole-stream SCC::

    >>> import numpy as np
    >>> from repro.bitstream.packed import pack_bits
    >>> from repro.bitstream.metrics import scc_batch_packed
    >>> from repro.bitstream.streaming import OverlapAccumulator, tile_bounds
    >>> rng = np.random.default_rng(7)
    >>> x = (rng.random((2, 1000)) < 0.3).astype(np.uint8)
    >>> y = (rng.random((2, 1000)) < 0.6).astype(np.uint8)
    >>> xw, yw = pack_bits(x), pack_bits(y)
    >>> acc = OverlapAccumulator(1000)
    >>> for start, stop in tile_bounds(1000, tile_words=3):
    ...     w0, w1 = start // 64, start // 64 + (stop - start + 63) // 64
    ...     acc.update(xw[:, w0:w1], yw[:, w0:w1])
    >>> bool(np.array_equal(acc.scc(), scc_batch_packed(xw, yw, 1000)))
    True
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple, Union

import numpy as np

from .._validation import check_stream_length, check_tile_words
from ..rng.base import StreamRNG
from .encoding import Encoding, ones_to_value
from .metrics import popcount_words, scc_from_overlap_counts
from .packed import (
    WORD_BITS,
    PackedBitstreamBatch,
    pack_bits_unchecked,
    words_per_stream,
)

__all__ = [
    "DEFAULT_TILE_WORDS",
    "tile_bounds",
    "tile_count",
    "iter_tiles",
    "PackedTileSource",
    "ValueAccumulator",
    "OverlapAccumulator",
    "TileAssembler",
    "materialized_batch_bytes",
]

# 4096 words = 2**18 bits = 32 KiB per stream row per tile: big enough to
# amortise python dispatch, small enough that a whole plan's working set
# stays cache-resident.
DEFAULT_TILE_WORDS = 4096


def materialized_batch_bytes(
    nodes: int,
    batch: int,
    length: int,
    *,
    sequences: int = 0,
    transform_groups: int = 0,
) -> int:
    """Bytes one *whole-stream* batched pass allocates.

    A whole-stream pass (:func:`repro.engine.executor.run_batch` /
    ``audit_batch``) holds, at worst, one ``(batch, words)`` uint64
    matrix per scheduled node, one full-length int64 comparator sequence
    per distinct source generator, and each transform group's unpacked
    uint8 operands and outputs (two ``(batch, N)`` matrices in, two
    out) — packed words alone are ~40x short at N = 2^20. The serving
    layer compares this estimate against its memory budget to decide
    whether a coalesced group is safe to run whole-stream or must shed
    load into constant-memory tiles, whose working set is
    O(batch × tile) regardless of N.

    >>> materialized_batch_bytes(nodes=10, batch=32, length=2**20)
    41943040
    >>> materialized_batch_bytes(10, 32, 2**20, sequences=2, transform_groups=1)
    192937984
    """
    length = int(length)
    batch = int(batch)
    return (
        int(nodes) * batch * words_per_stream(length) * 8
        + int(sequences) * length * 8
        + int(transform_groups) * 4 * batch * length
    )


def tile_count(length: int, tile_words: int = DEFAULT_TILE_WORDS) -> int:
    """Number of tiles covering an ``length``-bit stream."""
    length = check_stream_length(length)
    tile_bits = check_tile_words(tile_words) * WORD_BITS
    return (length + tile_bits - 1) // tile_bits


def tile_bounds(
    length: int, tile_words: int = DEFAULT_TILE_WORDS
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start_bit, stop_bit)`` for each tile of an N-bit stream.

    Starts are multiples of ``tile_words * 64`` (word-aligned); the final
    tile's ``stop`` is ``length`` itself, covering odd-length tails.
    """
    length = check_stream_length(length)
    tile_bits = check_tile_words(tile_words) * WORD_BITS
    for start in range(0, length, tile_bits):
        yield start, min(start + tile_bits, length)


def iter_tiles(
    batch: Union[PackedBitstreamBatch, np.ndarray],
    tile_words: int = DEFAULT_TILE_WORDS,
    *,
    length: Optional[int] = None,
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(start_bit, stop_bit, word_view)`` tiles of a packed batch.

    Accepts a :class:`PackedBitstreamBatch` or a raw ``(batch, words)``
    uint64 matrix (then ``length`` is required). Word views are zero-copy
    slices; the final view's trailing bits past ``stop_bit`` are zero by
    the packed tail convention.
    """
    if isinstance(batch, PackedBitstreamBatch):
        words, n = batch.words, batch.length
    else:
        if length is None:
            raise ValueError("length is required for raw word matrices")
        words, n = np.asarray(batch), check_stream_length(length)
        if words.ndim != 2 or words.shape[1] != words_per_stream(n):
            raise ValueError(
                f"word matrix shape {words.shape} cannot hold n={n} bits"
            )
    for start, stop in tile_bounds(n, tile_words):
        w0 = start // WORD_BITS
        w1 = w0 + (stop - start + WORD_BITS - 1) // WORD_BITS
        yield start, stop, words[:, w0:w1]


class PackedTileSource:
    """A comparator D/S converter emitting packed words tile by tile.

    The classic converter builds the full RNG sequence and compares every
    level against it at once. This source instead asks the RNG for just
    the ``[start, stop)`` window per tile and packs the comparator output
    immediately, so peak memory is O(tile) regardless of stream length —
    and the emitted bits are identical to the one-shot conversion
    (windowed sequences are value-exact).

    Args:
        levels: ``(batch,)`` integer comparison levels (a level ``L``
            yields a 1 wherever ``L > r_t``).
        rng: the comparator sequence generator.
    """

    def __init__(self, levels: np.ndarray, rng: StreamRNG) -> None:
        self._levels = np.atleast_1d(np.asarray(levels, dtype=np.int64))
        if self._levels.ndim != 1:
            raise ValueError("levels must be a scalar or 1-D array")
        self._rng = rng

    @property
    def batch_size(self) -> int:
        return int(self._levels.size)

    def tile(self, start: int, stop: int) -> np.ndarray:
        """Packed ``(batch, ceil((stop-start)/64))`` words for one tile."""
        window = self._rng.sequence_window(start, stop)
        # Comparator output is 0/1 by construction: skip re-validation
        # (np.packbits packs the bool matrix directly).
        return pack_bits_unchecked(self._levels[:, None] > window[None, :])


class ValueAccumulator:
    """Streaming per-row 1-counts; values without retaining any bits.

    Integer partial sums of word popcounts — the total equals the
    whole-stream popcount exactly, so :meth:`values` returns the same
    floats a materialised run would.
    """

    __slots__ = ("_length", "_ones")

    def __init__(self, length: int) -> None:
        self._length = check_stream_length(length)
        self._ones: Optional[np.ndarray] = None

    def update(self, tile_words_matrix: np.ndarray) -> None:
        counts = popcount_words(tile_words_matrix)  # a fresh array
        if self._ones is None:
            self._ones = counts
        else:
            self._ones += counts

    def merge(self, other: "ValueAccumulator") -> None:
        """Fold another accumulator's partial counts into this one.

        Integer addition, so merging per-span partials in span order is
        exactly the sequential accumulation — the parallel tile
        scheduler's determinism hinges on this.
        """
        if other._ones is None:
            return
        if self._ones is None:
            self._ones = other._ones.copy()
        else:
            self._ones += other._ones

    @property
    def ones(self) -> np.ndarray:
        if self._ones is None:
            raise ValueError("no tiles accumulated yet")
        return self._ones

    def values(self, encoding: Union[Encoding, str] = Encoding.UNIPOLAR) -> np.ndarray:
        """Per-row encoded values of the accumulated stream."""
        return ones_to_value(self.ones, self._length, Encoding.coerce(encoding))


class OverlapAccumulator:
    """Streaming pairwise overlap counts for SCC.

    Accumulates ``a`` (both-ones) plus the per-stream 1-counts tile by
    tile; ``b``, ``c``, ``d`` follow from ``n`` at the end, exactly as in
    :func:`~repro.bitstream.metrics.overlap_counts_packed` — so the final
    SCC floats match the whole-stream kernel bit for bit.
    """

    __slots__ = ("_length", "_a", "_ones_x", "_ones_y")

    def __init__(self, length: int) -> None:
        self._length = check_stream_length(length)
        self._a: Optional[np.ndarray] = None
        self._ones_x: Optional[np.ndarray] = None
        self._ones_y: Optional[np.ndarray] = None

    def update(self, x_tile: np.ndarray, y_tile: np.ndarray) -> None:
        a = popcount_words(x_tile & y_tile)
        ones_x = popcount_words(x_tile)
        ones_y = popcount_words(y_tile)
        if self._a is None:  # popcounts are fresh arrays: no copies
            self._a, self._ones_x, self._ones_y = a, ones_x, ones_y
        else:
            self._a += a
            self._ones_x = self._ones_x + ones_x
            self._ones_y = self._ones_y + ones_y

    def merge(self, other: "OverlapAccumulator") -> None:
        """Fold another accumulator's partial overlap counts into this
        one (integer sums — see :meth:`ValueAccumulator.merge`)."""
        if other._a is None:
            return
        if self._a is None:
            self._a = other._a.copy()
            self._ones_x = other._ones_x.copy()
            self._ones_y = other._ones_y.copy()
        else:
            self._a += other._a
            self._ones_x = self._ones_x + other._ones_x
            self._ones_y = self._ones_y + other._ones_y

    def counts(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The accumulated ``(a, b, c, d)`` overlap counts."""
        if self._a is None:
            raise ValueError("no tiles accumulated yet")
        b = self._ones_x - self._a
        c = self._ones_y - self._a
        d = self._length - self._a - b - c
        return self._a, b, c, d

    def scc(self) -> np.ndarray:
        """Per-row SCC of the accumulated pair."""
        return scc_from_overlap_counts(*self.counts())


class TileAssembler:
    """Materialise one stream from its tiles into a full packed matrix.

    The streaming executor keeps memory O(tile) by default; streams a
    caller explicitly asks to keep are assembled here — the only place a
    full-length buffer is allocated, and only for those streams.
    """

    def __init__(self, rows: int, length: int) -> None:
        self._length = check_stream_length(length)
        self._words = np.zeros((rows, words_per_stream(length)), dtype="<u8")

    def write(self, start: int, tile_words_matrix: np.ndarray) -> None:
        """Install one tile (``start`` must be word-aligned, as produced
        by :func:`tile_bounds`)."""
        if start % WORD_BITS:
            raise ValueError(f"tile start {start} is not word-aligned")
        w0 = start // WORD_BITS
        self._words[:, w0 : w0 + tile_words_matrix.shape[1]] = tile_words_matrix

    def packed(
        self, encoding: Union[Encoding, str] = Encoding.UNIPOLAR
    ) -> PackedBitstreamBatch:
        return PackedBitstreamBatch(self._words, self._length, encoding)

    @property
    def words(self) -> np.ndarray:
        return self._words
