"""Unit tests for the RNG zoo (repro.rng)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import RNGConfigurationError
from repro.rng import (
    LFSR,
    MAXIMAL_TAPS,
    CounterRNG,
    Halton,
    Sobol,
    SystemRNG,
    VanDerCorput,
    available_rngs,
    make_rng,
    radical_inverse,
)
from repro.rng.vandercorput import _reverse_bits


def _shift_loop_reverse(values, width):
    """Bit reversal one bit per pass: the oracle for the byte-table VDC."""
    result = np.zeros_like(values)
    v = values.copy()
    for _ in range(width):
        result = (result << 1) | (v & 1)
        v >>= 1
    return result


def _digit_loop_radical_inverse(index, base):
    """One digit per pass until every index is spent: the oracle for the
    table-driven radical inverse."""
    index = np.asarray(index, dtype=np.int64)
    result = np.zeros(index.shape, dtype=np.float64)
    scale = 1.0 / base
    remaining = index.copy()
    while remaining.max(initial=0) > 0:
        digit = remaining % base
        result += digit * scale
        scale /= base
        remaining //= base
    return result


def _indices(high):
    return arrays(np.int64, st.integers(0, 40), elements=st.integers(0, high))


class TestLFSR:
    def test_full_period_covers_all_nonzero_states(self):
        for width in (3, 4, 5, 8):
            lfsr = LFSR(width=width)
            seq = lfsr.sequence((1 << width) - 1)
            # Mapped to state-1: every residue 0..2^w-2 exactly once.
            assert sorted(seq.tolist()) == list(range((1 << width) - 1))

    def test_period_property(self):
        assert LFSR(width=8).period == 255

    def test_deterministic_replay(self):
        a = LFSR(width=8, seed=17).sequence(100)
        b = LFSR(width=8, seed=17).sequence(100)
        assert np.array_equal(a, b)

    def test_different_seeds_are_rotations(self):
        base = LFSR(width=4, seed=1).sequence(15)
        other = LFSR(width=4, seed=7).sequence(15)
        assert sorted(base.tolist()) == sorted(other.tolist())
        assert not np.array_equal(base, other)

    def test_phase_skips_outputs(self):
        base = LFSR(width=8).sequence(20)
        shifted = LFSR(width=8, phase=5).sequence(15)
        assert np.array_equal(base[5:], shifted)

    def test_zero_seed_rejected(self):
        with pytest.raises(RNGConfigurationError):
            LFSR(width=8, seed=0)

    def test_seed_too_large_rejected(self):
        with pytest.raises(RNGConfigurationError):
            LFSR(width=4, seed=16)

    def test_unknown_width_needs_taps(self):
        with pytest.raises(RNGConfigurationError):
            LFSR(width=99)

    def test_custom_taps(self):
        lfsr = LFSR(width=3, taps=(3, 2))
        assert lfsr.sequence(7).size == 7

    def test_taps_must_include_width(self):
        with pytest.raises(RNGConfigurationError):
            LFSR(width=4, taps=(3, 2))

    def test_taps_table_covers_common_widths(self):
        for width in range(2, 25):
            assert width in MAXIMAL_TAPS


class TestVanDerCorput:
    def test_first_values_width3(self):
        # Bit-reversal of 0,1,2,3,... in 3 bits: 0,4,2,6,1,5,3,7.
        seq = VanDerCorput(width=3).sequence(8)
        assert seq.tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_full_period_is_permutation(self):
        seq = VanDerCorput(width=8).sequence(256)
        assert sorted(seq.tolist()) == list(range(256))

    def test_period_wraps(self):
        v = VanDerCorput(width=3)
        seq = v.sequence(16)
        assert np.array_equal(seq[:8], seq[8:])

    def test_phase(self):
        base = VanDerCorput(width=4).sequence(16)
        shifted = VanDerCorput(width=4, phase=3).sequence(13)
        assert np.array_equal(base[3:], shifted)

    def test_low_discrepancy_prefix(self):
        # Every prefix of length 2^k hits each residue class mod 2^k once.
        seq = VanDerCorput(width=8).sequence(16)
        assert sorted((seq >> 4).tolist()) == list(range(16))

    @given(width=st.integers(1, 62), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_byte_table_matches_shift_loop(self, width, data):
        values = data.draw(_indices((1 << width) - 1))
        got = _reverse_bits(values, width)
        assert got.dtype == values.dtype
        assert np.array_equal(got, _shift_loop_reverse(values, width))

    @given(width=st.integers(1, 62), phase=st.integers(0, 1 << 61),
           length=st.integers(1, 300), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_sequences_match_shift_loop_with_phase(self, width, phase, length, data):
        vdc = VanDerCorput(width=width, phase=phase)
        mask = (1 << width) - 1

        def oracle(index):
            return _shift_loop_reverse((index + phase) & mask, width)

        assert np.array_equal(
            vdc.sequence(length), oracle(np.arange(length, dtype=np.int64))
        )
        start = data.draw(st.integers(0, 1 << 61))
        assert np.array_equal(
            vdc.sequence_window(start, start + length),
            oracle(np.arange(start, start + length, dtype=np.int64)),
        )
        indices = data.draw(_indices(1 << 61))
        assert np.array_equal(vdc.sequence_at(indices), oracle(indices))

    def test_width_above_62_rejected_at_construction(self):
        # A 63-bit modulus does not fit the int64 index arithmetic: it
        # used to construct fine and overflow on the first sequence().
        with pytest.raises(RNGConfigurationError):
            VanDerCorput(width=63)
        with pytest.raises(RNGConfigurationError):
            make_rng("vdc", width=64)
        widest = VanDerCorput(width=62, phase=5)
        assert widest.sequence(4).tolist() == _shift_loop_reverse(
            np.arange(5, 9, dtype=np.int64), 62
        ).tolist()


class TestHalton:
    def test_radical_inverse_base2(self):
        out = radical_inverse(np.array([1, 2, 3, 4]), 2)
        assert np.allclose(out, [0.5, 0.25, 0.75, 0.125])

    def test_radical_inverse_base3(self):
        out = radical_inverse(np.array([1, 2, 3]), 3)
        assert np.allclose(out, [1 / 3, 2 / 3, 1 / 9])

    def test_values_in_range(self):
        seq = Halton(base=3, width=8).sequence(500)
        assert seq.min() >= 0 and seq.max() <= 255

    def test_base_must_be_at_least_two(self):
        with pytest.raises(RNGConfigurationError):
            Halton(base=1)

    def test_distinct_bases_decorrelated(self):
        a = Halton(base=3, width=8).fractions(512)
        b = Halton(base=5, width=8).fractions(512)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_approximate_uniformity(self):
        seq = Halton(base=3, width=8).sequence(3**5)
        hist, _ = np.histogram(seq, bins=4, range=(0, 256))
        assert hist.max() - hist.min() <= 4

    @given(base=st.integers(2, 13), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_radical_inverse_matches_digit_loop(self, base, data):
        index = data.draw(_indices(1 << 62))
        got = radical_inverse(index, base)
        assert got.dtype == np.float64 and got.shape == index.shape
        assert got.tobytes() == _digit_loop_radical_inverse(index, base).tobytes()

    @pytest.mark.parametrize("base", range(2, 14))
    def test_radical_inverse_edges_match_digit_loop(self, base):
        # Every index of all-top digits below 2**62 (the float sums that
        # round to 1.0 or past it), plus the empty input.
        tops, top = [], base - 1
        while top <= 1 << 62:
            tops.append(top)
            top = top * base + base - 1
        index = np.array(tops + [0, 1, 1 << 62], dtype=np.int64)
        want = _digit_loop_radical_inverse(index, base)
        assert radical_inverse(index, base).tobytes() == want.tobytes()
        empty = radical_inverse(np.empty(0, dtype=np.int64), base)
        assert empty.shape == (0,) and empty.dtype == np.float64
        assert radical_inverse([], base).tobytes() == b""
        scalar = radical_inverse(base + 2, base)
        assert scalar.shape == ()
        assert scalar.tobytes() == _digit_loop_radical_inverse(base + 2, base).tobytes()

    def test_radical_inverse_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            radical_inverse(np.array([3, -1]), 3)

    @given(base=st.integers(2, 13), width=st.integers(1, 62),
           phase=st.integers(0, 1 << 40), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_quantised_values_match_digit_loop(self, base, width, phase, data):
        modulus = 1 << width
        halton = Halton(base=base, width=width, phase=phase)

        def oracle(index):
            fracs = _digit_loop_radical_inverse(index + phase, base)
            return np.minimum((fracs * modulus).astype(np.int64), modulus - 1)

        start = data.draw(st.integers(0, 1 << 40))
        assert np.array_equal(
            halton.sequence_window(start, start + 50),
            oracle(np.arange(start, start + 50, dtype=np.int64)),
        )
        indices = data.draw(_indices(1 << 61))
        assert np.array_equal(halton.sequence_at(indices), oracle(indices))

    def test_width_above_63_rejected_at_construction(self):
        # A 64-bit modulus does not fit int64 values: it used to
        # construct fine and overflow on the first sequence().
        with pytest.raises(RNGConfigurationError):
            Halton(width=64)
        with pytest.raises(RNGConfigurationError):
            make_rng("halton3", width=65)

    def test_width_63_clamps_a_sum_that_rounds_to_one(self):
        # Index 2**62 - 1 has 62 one digits: its float sum rounds to 1.0,
        # which must clamp to the top value, not wrap negative.
        halton = Halton(base=2, width=63)
        assert radical_inverse(np.array([(1 << 62) - 1]), 2)[0] == 1.0
        top = halton.sequence_at(np.array([(1 << 62) - 2, 0]))
        assert top.tolist() == [(1 << 63) - 1, 1 << 62]
        assert (halton.sequence(64) >= 0).all()


class TestSobol:
    def test_dimension_zero_is_vdc_family(self):
        # Gray-code Sobol dimension 0 visits the same values as the Van der
        # Corput sequence (it is the VDC net in Gray-code order), and every
        # power-of-two prefix is balanced across halves like VDC.
        sobol = Sobol(dimension=0, width=8).sequence(256)
        vdc = VanDerCorput(width=8).sequence(256)
        assert sorted(sobol.tolist()) == sorted(vdc.tolist())
        assert sorted((sobol[:16] >> 4).tolist()) == list(range(16))

    def test_full_period_is_permutation(self):
        for dim in (1, 2, 3):
            seq = Sobol(dimension=dim, width=6).sequence(64)
            assert sorted(seq.tolist()) == list(range(64))

    def test_dimensions_decorrelated(self):
        a = Sobol(dimension=1, width=8).fractions(256)
        b = Sobol(dimension=2, width=8).fractions(256)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.15

    def test_dimension_out_of_range(self):
        with pytest.raises(RNGConfigurationError):
            Sobol(dimension=99)

    def test_phase(self):
        base = Sobol(dimension=1, width=6).sequence(20)
        shifted = Sobol(dimension=1, width=6, phase=4).sequence(16)
        assert np.array_equal(base[4:], shifted)


class TestCounter:
    def test_ramp(self):
        assert CounterRNG(width=3).sequence(10).tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_offset(self):
        assert CounterRNG(width=3, offset=6).sequence(4).tolist() == [6, 7, 0, 1]


class TestSystemRNG:
    def test_reproducible(self):
        assert np.array_equal(
            SystemRNG(width=8, seed=9).sequence(64), SystemRNG(width=8, seed=9).sequence(64)
        )

    def test_range(self):
        seq = SystemRNG(width=4, seed=0).sequence(1000)
        assert seq.min() >= 0 and seq.max() < 16


class TestStreamRNGBase:
    def test_fractions_in_unit_interval(self):
        f = VanDerCorput(width=8).fractions(256)
        assert f.min() >= 0.0 and f.max() < 1.0

    def test_integers_rescale(self):
        ints = VanDerCorput(width=8).integers(256, 4)
        assert set(ints.tolist()) == {0, 1, 2, 3}
        # Balanced: the VDC is exactly uniform over a full period.
        assert np.bincount(ints).tolist() == [64, 64, 64, 64]

    def test_next_value_streaming_matches_sequence(self):
        rng = Halton(base=3, width=8)
        streamed = [rng.next_value() for _ in range(300)]
        assert streamed == rng.sequence(300).tolist()

    def test_reset(self):
        rng = LFSR(width=8)
        first = [rng.next_value() for _ in range(5)]
        rng.reset()
        again = [rng.next_value() for _ in range(5)]
        assert first == again


class TestFactory:
    def test_known_specs(self):
        for spec in ("lfsr", "vdc", "halton3", "halton5", "sobol1", "counter", "system"):
            rng = make_rng(spec)
            assert rng.sequence(16).size == 16

    def test_unknown_spec(self):
        with pytest.raises(RNGConfigurationError):
            make_rng("quantum")

    def test_available_list(self):
        names = available_rngs()
        assert "lfsr" in names and "vdc" in names

    def test_kwargs_forwarded(self):
        rng = make_rng("lfsr", seed=33)
        assert "seed=33" in rng.name


class TestDefaultSeed:
    """The ambient seed the runner installs around shard execution."""

    def test_no_ambient_seed_keeps_builder_defaults(self):
        from repro.rng import get_default_seed

        assert get_default_seed() is None
        assert "seed=1" in make_rng("lfsr").name

    def test_ambient_seed_reaches_seedable_specs(self):
        from repro.rng import default_seed, get_default_seed

        with default_seed(42):
            assert get_default_seed() == 42
            assert "seed=43" in make_rng("lfsr").name  # folded: 1 + 42 % 255
        assert get_default_seed() is None

    def test_out_of_range_seed_folds_into_lfsr_domain(self):
        from repro.rng import default_seed

        with default_seed(0):
            assert "seed=1" in make_rng("lfsr").name
        with default_seed(255):  # 255 % 255 == 0 -> folded to 1
            assert "seed=1" in make_rng("lfsr").name
        with default_seed(10**9):
            make_rng("lfsr").sequence(8)  # any int is a valid ambient seed

    def test_explicit_seed_wins_over_ambient(self):
        from repro.rng import default_seed

        with default_seed(42):
            assert "seed=33" in make_rng("lfsr", seed=33).name

    def test_seedless_specs_unaffected(self):
        from repro.rng import default_seed

        base = make_rng("vdc").sequence(32)
        with default_seed(42):
            assert np.array_equal(make_rng("vdc").sequence(32), base)
            assert np.array_equal(
                make_rng("halton3").sequence(32), make_rng("halton3").sequence(32)
            )

    def test_nesting_restores_previous_seed(self):
        from repro.rng import default_seed, get_default_seed

        with default_seed(1):
            with default_seed(2):
                assert get_default_seed() == 2
            assert get_default_seed() == 1

    def test_system_rng_is_seedable(self):
        from repro.rng import default_seed

        with default_seed(7):
            a = make_rng("system").sequence(32)
        with default_seed(8):
            b = make_rng("system").sequence(32)
        assert not np.array_equal(a, b)
