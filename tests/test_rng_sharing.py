"""Unit tests for RNG sharing/rotation utilities."""

import numpy as np
import pytest

from repro.bitstream import scc
from repro.exceptions import RNGConfigurationError
from repro.rng import LFSR, Halton, SystemRNG, VanDerCorput
from repro.rng.sharing import RNGBank, RotatedView


class TestRotatedView:
    def test_zero_phase_is_identity(self):
        parent = LFSR(width=8)
        view = RotatedView(parent, 0)
        assert np.array_equal(view.sequence(100), parent.sequence(100))

    def test_phase_rotates(self):
        parent = LFSR(width=8)
        view = RotatedView(parent, 5)
        assert np.array_equal(view.sequence(50), parent.sequence(55)[5:])

    def test_wraps_at_period(self):
        parent = VanDerCorput(width=4)
        view = RotatedView(parent, 3)
        seq = view.sequence(32)
        assert np.array_equal(seq[:16], seq[16:])

    @pytest.mark.parametrize("make_parent", [
        lambda: Halton(base=3, width=8), lambda: SystemRNG(width=8, seed=4),
    ], ids=["halton", "system"])
    def test_aperiodic_parent_is_shifted_not_wrapped(self, make_parent):
        # The parent has no period, so neither has the view: it must not
        # wrap at the modulus (index 256 - 5) where the parent does not.
        parent = make_parent()
        view = RotatedView(parent, 5)
        assert getattr(view, "period", None) is None
        assert view._cacheable_period() is None
        want = parent.sequence(305)[5:]
        assert np.array_equal(view.sequence(300), want)
        assert np.array_equal(view.sequence_window(240, 300), want[240:])
        idx = np.array([0, 250, 251, 299])
        assert np.array_equal(view.sequence_at(idx), want[idx])

    def test_name_mentions_phase(self):
        assert ">>7" in RotatedView(LFSR(width=8), 7).name

    def test_views_decorrelate_streams(self):
        parent = LFSR(width=8)
        a = RotatedView(parent, 0)
        b = RotatedView(parent, 97)
        x = (128 > a.sequence(256)).astype(np.uint8)
        y = (128 > b.sequence(256)).astype(np.uint8)
        assert abs(scc(x, y)) < 0.3


class TestRNGBank:
    def test_issues_distinct_phases(self):
        bank = RNGBank(LFSR(width=8), stride=37)
        views = bank.take_many(5)
        assert [v.phase for v in views] == [0, 37, 74, 111, 148]
        assert bank.issued == 5

    def test_stride_collision_rejected(self):
        # LFSR period 255 = 3*5*17; stride 15 shares factors.
        with pytest.raises(RNGConfigurationError):
            RNGBank(LFSR(width=8), stride=15)

    def test_full_period_unique_phases(self):
        bank = RNGBank(LFSR(width=4), stride=2)  # period 15, gcd(2,15)=1
        phases = {bank.take().phase for _ in range(15)}
        assert len(phases) == 15

    def test_bank_streams_pairwise_weakly_correlated(self):
        bank = RNGBank(LFSR(width=8), stride=37)
        views = bank.take_many(4)
        streams = [(100 > v.sequence(256)).astype(np.uint8) for v in views]
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(scc(streams[i], streams[j])) < 0.35

    def test_aperiodic_parent_taps_are_shifted_not_wrapped(self):
        # Phases step modulo the modulus, but a tap's values do not wrap
        # there: it reads the parent's sequence from its phase on.
        parent = Halton(base=3, width=8)
        tap = RNGBank(parent, stride=37).take_many(2)[1]
        assert getattr(tap, "period", None) is None
        assert np.array_equal(tap.sequence(300), parent.sequence(337)[37:])

    def test_take_many_requires_positive_count(self):
        from repro.exceptions import CircuitConfigurationError

        with pytest.raises(CircuitConfigurationError):
            RNGBank(LFSR(width=8), stride=37).take_many(0)


class TestSharingInvariants:
    """Rotation algebra: composing phases behaves like adding them."""

    def test_rotation_composes_additively(self):
        parent = LFSR(width=8)
        period = parent.period
        once = RotatedView(parent, 40)
        twice = RotatedView(once, 60, period=period)
        direct = RotatedView(parent, 100)
        assert np.array_equal(twice.sequence(300), direct.sequence(300))

    def test_view_is_a_cyclic_shift_of_parent(self):
        parent = VanDerCorput(width=5)
        period = 32
        view = RotatedView(parent, 11)
        assert np.array_equal(
            view.sequence(period), np.roll(parent.sequence(period), -11)
        )

    def test_view_preserves_value_multiset(self):
        parent = LFSR(width=6)
        view = RotatedView(parent, 17)
        assert sorted(view.sequence(parent.period).tolist()) == sorted(
            parent.sequence(parent.period).tolist()
        )

    def test_direct_sharing_is_maximally_correlated(self):
        # Two converters comparing against the *same* tap: SCC = +1.
        bank = RNGBank(LFSR(width=8), stride=37)
        view = bank.take()
        seq = view.sequence(256)
        x = (150 > seq).astype(np.uint8)
        y = (90 > seq).astype(np.uint8)
        assert scc(x, y) == pytest.approx(1.0)


class TestSharingPackedBackend:
    """Rotated-view streams through the packed uint64 fast path."""

    def test_packed_scc_matches_unpacked_for_bank_views(self):
        from repro.bitstream.metrics import scc_batch, scc_batch_packed
        from repro.bitstream.packed import pack_bits

        bank = RNGBank(LFSR(width=8), stride=37)
        a, b = bank.take_many(2)
        levels = np.arange(0, 256, 16, dtype=np.int64)
        x = (levels[:, None] > a.sequence(256)[None, :]).astype(np.uint8)
        y = (levels[:, None] > b.sequence(256)[None, :]).astype(np.uint8)
        packed = scc_batch_packed(pack_bits(x), pack_bits(y), 256)
        unpacked = scc_batch(x, y)
        assert np.array_equal(packed, unpacked)

    def test_level_batch_values_exact_after_packing(self):
        from repro.analysis import generate_level_batch
        from repro.bitstream import PackedBitstreamBatch

        view = RNGBank(VanDerCorput(width=8), stride=37).take()
        levels = np.array([0, 13, 128, 255])
        bits = generate_level_batch(levels, view, 256)
        packed = PackedBitstreamBatch.pack(bits)
        # VDC rotations are permutations of one period: popcounts (and so
        # values) are exact for every phase.
        assert np.array_equal(packed.values * 256, levels)

    def test_pair_sweep_through_rotated_views(self):
        """RNGBank views drive a Table-II style sweep end to end: register
        the bank's taps as factory specs, sweep packed, unregister."""
        from repro.analysis import measure_pair_transform
        from repro.core import Synchronizer
        from repro.rng.factory import _BUILDERS, _SEED_MAPS, _SEEDABLE, register_rng

        bank = RNGBank(LFSR(width=8), stride=97)
        view_a, view_b = bank.take_many(2)
        register_rng("bank_tap_a", lambda width=8, **kw: view_a)
        register_rng("bank_tap_b", lambda width=8, **kw: view_b)
        try:
            result = measure_pair_transform(
                Synchronizer(depth=1), "bank_tap_a", "bank_tap_b", n=64, step=16
            )
            reference = measure_pair_transform(
                Synchronizer(depth=1), "bank_tap_a", "bank_tap_b", n=64, step=16,
                backend="unpacked",
            )
            # Packed and unpacked metric reductions agree bit for bit.
            assert result.input_scc == reference.input_scc
            assert result.output_scc == reference.output_scc
            # The synchronizer raises the rotated pair's correlation.
            assert result.output_scc > result.input_scc
        finally:
            for name in ("bank_tap_a", "bank_tap_b"):
                _BUILDERS.pop(name, None)
                _SEEDABLE.pop(name, None)
                _SEED_MAPS.pop(name, None)
