"""Packed <-> unpacked equivalence: the packed backend must agree bit for
bit with the byte-per-bit path on values, SCC, gate ops, and every routed
circuit, for arbitrary batches, odd lengths, and both encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.arith import (
    AbsSubtractor,
    AndMin,
    CAMax,
    CorDiv,
    Multiplier,
    OrMax,
    SaturatingAdder,
    ScaledAdder,
)
from repro.bitstream import (
    Bitstream,
    BitstreamBatch,
    PackedBitstreamBatch,
    batch_and,
    batch_mux,
    batch_not,
    batch_or,
    batch_scc,
    batch_values,
    batch_xor,
    pack_bits,
    scc_batch,
    scc_batch_packed,
    unpack_bits,
    words_per_stream,
)
from repro.bitstream.metrics import (
    _popcount_lut,
    overlap_counts,
    overlap_counts_packed,
    popcount_words,
)
from repro.core import Desynchronizer, SyncMax, Synchronizer
from repro.exceptions import EncodingError, LengthMismatchError
from tests.helpers import unpacked_pair_sweep

# Odd lengths on purpose: 1, sub-word, word-boundary +/- 1, multi-word.
LENGTHS = [1, 7, 63, 64, 65, 100, 128, 200, 256]


def random_bits(batch, n, seed=0, p=0.5):
    rng = np.random.default_rng(seed + 31 * n + batch)
    return (rng.random((batch, n)) < p).astype(np.uint8)


# --------------------------------------------------------------------- #
# Packing primitives
# --------------------------------------------------------------------- #


class TestPackingPrimitives:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_roundtrip(self, n):
        bits = random_bits(9, n)
        assert np.array_equal(unpack_bits(pack_bits(bits), n), bits)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_word_count(self, n):
        assert pack_bits(random_bits(3, n)).shape == (3, words_per_stream(n))

    def test_tail_bits_are_zero(self):
        words = pack_bits(np.ones((4, 100), dtype=np.uint8))
        assert (words[:, -1] >> np.uint64(100 - 64) == 0).all()

    def test_popcount_matches_lut_fallback(self):
        words = pack_bits(random_bits(32, 200))
        assert np.array_equal(popcount_words(words), _popcount_lut(words))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_popcount_matches_unpacked_sum(self, n):
        bits = random_bits(16, n)
        assert np.array_equal(
            popcount_words(pack_bits(bits)), bits.sum(axis=1, dtype=np.int64)
        )

    def test_words_per_stream_rejects_nonpositive(self):
        with pytest.raises(EncodingError):
            words_per_stream(0)


# --------------------------------------------------------------------- #
# Metrics kernels
# --------------------------------------------------------------------- #


class TestPackedMetrics:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_overlap_counts_equivalence(self, n):
        x, y = random_bits(20, n, seed=1), random_bits(20, n, seed=2)
        unpacked = overlap_counts(x, y)
        packed = overlap_counts_packed(pack_bits(x), pack_bits(y), n)
        for u, p in zip(unpacked, packed):
            assert np.array_equal(u, p)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_scc_equivalence_is_exact(self, n):
        x, y = random_bits(40, n, seed=3), random_bits(40, n, seed=4)
        assert np.array_equal(
            scc_batch(x, y), scc_batch_packed(pack_bits(x), pack_bits(y), n)
        )

    def test_scc_constant_streams_degenerate_to_zero(self):
        zeros = np.zeros((2, 70), dtype=np.uint8)
        ones = np.ones((2, 70), dtype=np.uint8)
        assert (scc_batch_packed(pack_bits(zeros), pack_bits(ones), 70) == 0).all()

    def test_broadcasting_one_row(self):
        x, y = random_bits(1, 96, seed=5), random_bits(12, 96, seed=6)
        assert np.array_equal(
            scc_batch(x, y), scc_batch_packed(pack_bits(x), pack_bits(y), 96)
        )

    def test_word_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            overlap_counts_packed(
                pack_bits(random_bits(2, 64)), pack_bits(random_bits(2, 128)), 64
            )


# --------------------------------------------------------------------- #
# PackedBitstreamBatch
# --------------------------------------------------------------------- #


class TestPackedBatch:
    @pytest.mark.parametrize("encoding", ["unipolar", "bipolar"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_values_match(self, n, encoding):
        batch = BitstreamBatch(random_bits(11, n), encoding)
        assert np.array_equal(batch.to_packed().values, batch.values)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_gate_ops_match(self, n):
        x = BitstreamBatch(random_bits(13, n, seed=7))
        y = BitstreamBatch(random_bits(13, n, seed=8))
        px, py = x.to_packed(), y.to_packed()
        for op in ("__and__", "__or__", "__xor__"):
            assert np.array_equal(
                getattr(px, op)(py).unpack().bits, getattr(x, op)(y).bits
            )
        assert np.array_equal((~px).unpack().bits, (~x).bits)

    def test_invert_masks_tail_padding(self):
        packed = PackedBitstreamBatch.pack(np.zeros((2, 70), dtype=np.uint8))
        assert (~packed).ones.tolist() == [70, 70]

    def test_scc_matches_unpacked(self):
        x = BitstreamBatch(random_bits(25, 256, seed=9))
        y = BitstreamBatch(random_bits(25, 256, seed=10))
        assert np.array_equal(x.to_packed().scc(y.to_packed()), x.scc(y))

    def test_mux_matches_where(self):
        s, x, y = (random_bits(6, 90, seed=k) for k in (11, 12, 13))
        expected = np.where(s == 1, y, x).astype(np.uint8)
        muxed = PackedBitstreamBatch.mux(
            *(PackedBitstreamBatch.pack(b) for b in (s, x, y))
        )
        assert np.array_equal(muxed.unpack().bits, expected)

    def test_stream_extraction_and_iteration(self):
        bits = random_bits(4, 75)
        packed = PackedBitstreamBatch.pack(bits)
        assert np.array_equal(packed.stream(2).bits, bits[2])
        assert [s.ones for s in packed] == [int(r.sum()) for r in bits]
        assert len(packed) == 4

    def test_pack_is_idempotent_and_kind_preserving(self):
        packed = PackedBitstreamBatch.pack(random_bits(3, 50))
        assert PackedBitstreamBatch.pack(packed) is packed

    def test_pack_accepts_bitstream(self):
        stream = Bitstream("0110101", "bipolar")
        packed = PackedBitstreamBatch.pack(stream)
        assert packed.batch_size == 1 and packed.encoding is stream.encoding
        assert packed.stream(0) == stream

    def test_constructor_masks_dirty_tail(self):
        dirty = np.full((1, 1), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        packed = PackedBitstreamBatch(dirty, 10)
        assert packed.ones.tolist() == [10]

    def test_length_mismatch_raises(self):
        x = PackedBitstreamBatch.pack(random_bits(2, 64))
        y = PackedBitstreamBatch.pack(random_bits(2, 65))
        with pytest.raises(LengthMismatchError):
            _ = x & y

    def test_encoding_mismatch_raises(self):
        x = PackedBitstreamBatch.pack(random_bits(2, 64), encoding="unipolar")
        y = PackedBitstreamBatch.pack(random_bits(2, 64), encoding="bipolar")
        with pytest.raises(EncodingError):
            _ = x ^ y

    def test_repr_mentions_shape(self):
        packed = PackedBitstreamBatch.pack(random_bits(5, 100))
        assert "batch=5" in repr(packed) and "n=100" in repr(packed)


# --------------------------------------------------------------------- #
# Dispatch layer
# --------------------------------------------------------------------- #


class TestDispatch:
    def setup_method(self):
        self.x = random_bits(8, 77, seed=20)
        self.y = random_bits(8, 77, seed=21)
        self.s = random_bits(8, 77, seed=22)
        self.px = PackedBitstreamBatch.pack(self.x)
        self.py = PackedBitstreamBatch.pack(self.y)
        self.ps = PackedBitstreamBatch.pack(self.s)

    def test_packed_operands_stay_packed(self):
        for fn, expected in [
            (batch_and, self.x & self.y),
            (batch_or, self.x | self.y),
            (batch_xor, self.x ^ self.y),
        ]:
            result = fn(self.px, self.py)
            assert isinstance(result, PackedBitstreamBatch)
            assert np.array_equal(result.unpack().bits, expected)
        assert isinstance(batch_not(self.px), PackedBitstreamBatch)
        assert isinstance(batch_mux(self.ps, self.px, self.py), PackedBitstreamBatch)

    def test_mixed_operands_fall_back_to_unpacked(self):
        result = batch_and(self.px, self.y)
        assert isinstance(result, np.ndarray)
        assert np.array_equal(result, self.x & self.y)

    def test_values_and_scc_agree_across_representations(self):
        assert np.array_equal(batch_values(self.px), batch_values(self.x))
        assert np.array_equal(batch_scc(self.px, self.py), batch_scc(self.x, self.y))

    def test_values_respect_encoding_for_every_kind(self):
        bits = "0011"
        stream = Bitstream(bits, "bipolar")
        batch = BitstreamBatch(np.array([[0, 0, 1, 1]], dtype=np.uint8), "bipolar")
        packed = batch.to_packed()
        assert batch_values(stream).tolist() == [0.0]
        assert batch_values(batch).tolist() == [0.0]
        assert batch_values(packed).tolist() == [0.0]
        # raw arrays carry no encoding: unipolar by convention
        assert batch_values(np.array([0, 0, 1, 1], dtype=np.uint8)).tolist() == [0.5]

    def test_mux_matches_unpacked(self):
        packed = batch_mux(self.ps, self.px, self.py)
        assert np.array_equal(
            packed.unpack().bits, batch_mux(self.s, self.x, self.y)
        )


# --------------------------------------------------------------------- #
# Circuit routing
# --------------------------------------------------------------------- #


class TestCircuitRouting:
    @pytest.mark.parametrize("n", [63, 64, 256])
    @pytest.mark.parametrize(
        "op",
        [Multiplier(), OrMax(), AndMin(), AbsSubtractor(), SaturatingAdder()],
        ids=lambda op: type(op).__name__,
    )
    def test_combinational_packed_equals_unpacked(self, op, n):
        x = BitstreamBatch(random_bits(17, n, seed=30))
        y = BitstreamBatch(random_bits(17, n, seed=31))
        packed = op.compute(x.to_packed(), y.to_packed())
        assert isinstance(packed, PackedBitstreamBatch)
        assert np.array_equal(packed.unpack().bits, op.compute(x, y).bits)

    def test_bipolar_multiplier_xnor_masks_tail(self):
        x = BitstreamBatch(random_bits(9, 70, seed=32), "bipolar")
        y = BitstreamBatch(random_bits(9, 70, seed=33), "bipolar")
        packed = Multiplier().compute(x.to_packed(), y.to_packed())
        assert np.array_equal(packed.unpack().bits, Multiplier().compute(x, y).bits)

    def test_scaled_adder_packed_select(self):
        x = BitstreamBatch(random_bits(10, 96, seed=34))
        y = BitstreamBatch(random_bits(10, 96, seed=35))
        s = BitstreamBatch(random_bits(1, 96, seed=36))
        unpacked = ScaledAdder().compute(x, y, select=s)
        for select in (s, s.to_packed()):
            packed = ScaledAdder().compute(x.to_packed(), y.to_packed(), select=select)
            assert isinstance(packed, PackedBitstreamBatch)
            assert np.array_equal(packed.unpack().bits, unpacked.bits)

    @pytest.mark.parametrize(
        "circuit",
        [Synchronizer(), Desynchronizer(), SyncMax()],
        ids=lambda c: type(c).__name__,
    )
    def test_sequential_circuits_convert_at_boundaries(self, circuit):
        x = BitstreamBatch(random_bits(12, 100, seed=40))
        y = BitstreamBatch(random_bits(12, 100, seed=41))
        if hasattr(circuit, "process_pair"):
            pox, poy = circuit.process_pair(x.to_packed(), y.to_packed())
            uox, uoy = circuit.process_pair(x, y)
            assert isinstance(pox, PackedBitstreamBatch)
            assert np.array_equal(pox.unpack().bits, uox.bits)
            assert np.array_equal(poy.unpack().bits, uoy.bits)
        else:
            packed = circuit.compute(x.to_packed(), y.to_packed())
            assert isinstance(packed, PackedBitstreamBatch)
            assert np.array_equal(packed.unpack().bits, circuit.compute(x, y).bits)

    @pytest.mark.parametrize(
        "op", [CAMax(), CorDiv()], ids=lambda op: type(op).__name__
    )
    def test_sequential_arith_convert_at_boundaries(self, op):
        x = BitstreamBatch(random_bits(12, 80, seed=42))
        y = BitstreamBatch(random_bits(12, 80, seed=43))
        packed = op.compute(x.to_packed(), y.to_packed())
        assert isinstance(packed, PackedBitstreamBatch)
        assert np.array_equal(packed.unpack().bits, op.compute(x, y).bits)

    def test_sweep_backends_agree(self):
        from repro.analysis import measure_pair_transform

        packed = measure_pair_transform(Synchronizer(), "vdc", "halton3", n=64, step=8)
        input_scc, output_scc, bias_x, bias_y = unpacked_pair_sweep(
            Synchronizer(), "vdc", "halton3", n=64, step=8
        )
        assert packed.input_scc == pytest.approx(input_scc, abs=1e-12)
        assert packed.output_scc == pytest.approx(output_scc, abs=1e-12)
        assert packed.bias_x == pytest.approx(bias_x, abs=1e-12)
        assert packed.bias_y == pytest.approx(bias_y, abs=1e-12)


# --------------------------------------------------------------------- #
# Property-based equivalence
# --------------------------------------------------------------------- #


def bit_matrices(max_batch=6, max_len=130):
    return st.tuples(
        st.integers(1, max_batch), st.integers(1, max_len)
    ).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))
    )


class TestPackedProperties:
    @given(bit_matrices())
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_any_shape(self, bits):
        assert np.array_equal(unpack_bits(pack_bits(bits), bits.shape[1]), bits)

    @given(bit_matrices())
    @settings(max_examples=120, deadline=None)
    def test_ones_and_scc_any_shape(self, bits):
        batch = BitstreamBatch(bits) if bits.size else None
        packed = batch.to_packed()
        assert np.array_equal(packed.ones, batch.ones)
        assert np.array_equal(packed.scc(packed), batch.scc(batch))

    @given(bit_matrices())
    @settings(max_examples=120, deadline=None)
    def test_demorgan_holds_packed(self, bits):
        x = PackedBitstreamBatch.pack(bits)
        y = PackedBitstreamBatch.pack(np.roll(bits, 1, axis=1))
        assert np.array_equal(
            (~(x & y)).unpack().bits, ((~x) | (~y)).unpack().bits
        )
