"""Stochastic-number substrate: streams, batches, encodings, metrics.

This subpackage is the foundation of the library: everything else consumes
and produces the types defined here.

* :class:`~repro.bitstream.bitstream.Bitstream` — one stochastic number.
* :class:`~repro.bitstream.batch.BitstreamBatch` — a vectorised batch
  (unpacked: one byte per bit).
* :class:`~repro.bitstream.packed.PackedBitstreamBatch` — the packed
  fast path (64 bits per uint64 word, popcount-based values/SCC).
* :class:`~repro.bitstream.encoding.Encoding` — unipolar / bipolar value maps.
* :mod:`~repro.bitstream.metrics` — SCC (the paper's correlation metric),
  bias, and error measures, in unpacked and packed variants.
* :mod:`~repro.bitstream.generation` — exact/reference stream constructors.

Dispatch layer
--------------

The ``batch_*`` helpers below are the *public* packed/unpacked dispatch:
the surface for sweep drivers and user code working on loose operands
(:func:`repro.analysis.experiments.fig2` muxes through ``batch_mux``).
The circuit classes themselves dispatch internally via
:func:`repro.arith._coerce.packed_pair` / ``unwrap`` — same rules,
private entry point — so changes to the routing policy must keep the two
in step. Each helper accepts any mix of :class:`PackedBitstreamBatch`,
:class:`BitstreamBatch`, :class:`Bitstream`, or raw bit arrays. The
rules are:

* **all packed** -> compute word-parallel, return packed;
* **anything unpacked in the mix** -> compute on unpacked uint8 bits,
  return the unpacked result (packed operands are unpacked first);
* sequential circuits never dispatch here — they unpack at their input
  boundary and repack at their output (see :mod:`repro.arith._coerce`).
"""

from typing import Union

import numpy as np

from .batch import BitstreamBatch
from .bitstream import Bitstream
from .encoding import Encoding, ones_to_value, probability_of, value_to_ones
from .generation import bernoulli_stream, correlated_pair, exact_stream, rotations
from .metrics import (
    autocorrelation,
    bias,
    mean_absolute_error,
    overlap_counts,
    overlap_counts_packed,
    popcount_words,
    scc,
    scc_batch,
    scc_batch_packed,
    value_of_bits,
)
from .metrics import scc_from_overlap_counts
from .packed import PackedBitstreamBatch, pack_bits, unpack_bits, words_per_stream
from .streaming import (
    DEFAULT_TILE_WORDS,
    OverlapAccumulator,
    PackedTileSource,
    ValueAccumulator,
    iter_tiles,
    tile_bounds,
    tile_count,
)

__all__ = [
    "Bitstream",
    "BitstreamBatch",
    "PackedBitstreamBatch",
    # streaming tile layer
    "DEFAULT_TILE_WORDS",
    "tile_bounds",
    "tile_count",
    "iter_tiles",
    "PackedTileSource",
    "ValueAccumulator",
    "OverlapAccumulator",
    "scc_from_overlap_counts",
    "Encoding",
    "ones_to_value",
    "value_to_ones",
    "probability_of",
    "exact_stream",
    "bernoulli_stream",
    "correlated_pair",
    "rotations",
    "scc",
    "scc_batch",
    "scc_batch_packed",
    "overlap_counts",
    "overlap_counts_packed",
    "popcount_words",
    "pack_bits",
    "unpack_bits",
    "words_per_stream",
    "bias",
    "mean_absolute_error",
    "value_of_bits",
    "autocorrelation",
    # dispatch layer
    "BatchLike",
    "is_packed",
    "to_packed",
    "to_unpacked",
    "batch_and",
    "batch_or",
    "batch_xor",
    "batch_not",
    "batch_mux",
    "batch_values",
    "batch_scc",
]

BatchLike = Union[PackedBitstreamBatch, BitstreamBatch, Bitstream, np.ndarray]


def is_packed(x: BatchLike) -> bool:
    """True when ``x`` is in the packed (uint64-word) representation."""
    return isinstance(x, PackedBitstreamBatch)


def to_packed(x: BatchLike) -> PackedBitstreamBatch:
    """Coerce any stream-like operand into the packed representation."""
    return PackedBitstreamBatch.pack(x)


def to_unpacked(x: BatchLike) -> np.ndarray:
    """Coerce any stream-like operand into a ``(batch, N)`` uint8 matrix."""
    if isinstance(x, PackedBitstreamBatch):
        return x.unpack().bits
    if isinstance(x, BitstreamBatch):
        return x.bits
    if isinstance(x, Bitstream):
        return x.bits.reshape(1, -1)
    arr = np.asarray(x, dtype=np.uint8)
    return arr.reshape(1, -1) if arr.ndim == 1 else arr


def _dispatch_binary(x: BatchLike, y: BatchLike, word_op, bit_op):
    if is_packed(x) and is_packed(y):
        return word_op(x, y)
    return bit_op(to_unpacked(x), to_unpacked(y))


def batch_and(x: BatchLike, y: BatchLike):
    """AND two batches — word-parallel when both operands are packed."""
    return _dispatch_binary(x, y, lambda a, b: a & b, np.bitwise_and)


def batch_or(x: BatchLike, y: BatchLike):
    """OR two batches — word-parallel when both operands are packed."""
    return _dispatch_binary(x, y, lambda a, b: a | b, np.bitwise_or)


def batch_xor(x: BatchLike, y: BatchLike):
    """XOR two batches — word-parallel when both operands are packed."""
    return _dispatch_binary(x, y, lambda a, b: a ^ b, np.bitwise_xor)


def batch_not(x: BatchLike):
    """Complement a batch; the packed path masks the tail padding bits."""
    if is_packed(x):
        return ~x
    return (1 - to_unpacked(x)).astype(np.uint8)


def batch_mux(select: BatchLike, x: BatchLike, y: BatchLike):
    """2:1 mux (emit ``y`` where select=1, else ``x``) across representations."""
    if is_packed(select) and is_packed(x) and is_packed(y):
        return PackedBitstreamBatch.mux(select, x, y)
    sb, xb, yb = to_unpacked(select), to_unpacked(x), to_unpacked(y)
    return np.where(sb == 1, yb, xb).astype(np.uint8)


def batch_values(x: BatchLike) -> np.ndarray:
    """Per-stream encoded values for any representation.

    Encoding-carrying inputs (stream, batch, packed) report their encoded
    value; raw bit arrays have no encoding and report unipolar, matching
    the rest of the library.
    """
    if isinstance(x, (PackedBitstreamBatch, BitstreamBatch)):
        return np.atleast_1d(x.values)
    if isinstance(x, Bitstream):
        return np.atleast_1d(x.value)
    return np.atleast_1d(value_of_bits(to_unpacked(x)))


def batch_scc(x: BatchLike, y: BatchLike) -> np.ndarray:
    """Row-wise SCC for either representation (packed kernel when possible)."""
    if is_packed(x) and is_packed(y):
        return x.scc(y)
    return scc_batch(to_unpacked(x), to_unpacked(y))
