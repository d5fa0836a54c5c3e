"""Unit tests for the RNG zoo (repro.rng)."""

from unittest import mock

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
    RotatedView,
    Sobol,
    SystemRNG,
    VanDerCorput,
    available_rngs,
    make_rng,
    radical_inverse,
)
from repro.rng.base import PERIOD_CACHE_LIMIT
from repro.rng.halton import _low_digits
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


def _per_tap_step(state, width, taps):
    """One Fibonacci LFSR step with the feedback XORed one tap at a time:
    the oracle for the tap-mask parity step."""
    feedback = 0
    for tap in taps:
        feedback ^= (state >> (tap - 1)) & 1
    return ((state << 1) | feedback) & ((1 << width) - 1)


def _per_tap_outputs(width, seed, taps, phase, length):
    """``length`` outputs (``state - 1``) after ``phase`` discarded ones."""
    out, state = [], seed
    for _ in range(phase + length):
        out.append(state - 1)
        state = _per_tap_step(state, width, taps)
    return np.array(out[phase:], dtype=np.int64)


def _per_tap_cycle(width, seed, taps):
    steps, state = 1, _per_tap_step(seed, width, taps)
    while state != seed:
        steps, state = steps + 1, _per_tap_step(state, width, taps)
    return steps


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

    def test_custom_taps_period_is_the_seed_cycle(self):
        # x^4 + x^2 + 1 is not primitive: seed 1's orbit has 6 states,
        # not 15, and every period-served path must agree with stepping.
        lfsr = LFSR(width=4, taps=(4, 2), phase=3)
        stepped = lfsr._generate(40)
        assert lfsr.period == 6
        assert np.array_equal(lfsr.sequence(40), stepped)
        assert np.array_equal(lfsr.sequence_window(20, 40), stepped[20:40])
        idx = np.array([0, 5, 6, 17, 39])
        assert np.array_equal(lfsr.sequence_at(idx), stepped[idx])

    def test_long_custom_cycle_is_not_walked_by_sequence_reads(self):
        # x^32 + x^22 + x^2 + x + 1 is primitive: a 2^32 - 1 cycle. Reads
        # stop looking for it past the period cache limit, once, and then
        # step only what they return; a view walks nothing until used,
        # and then no more than its parent's reads.
        lfsr = LFSR(width=32, taps=(32, 22, 2, 1), seed=5)
        with mock.patch.object(lfsr, "_step", wraps=lfsr._step) as spy:
            view = RotatedView(lfsr, 3)
            assert spy.call_count == 0
            head = lfsr.sequence(10)
            assert spy.call_count <= PERIOD_CACHE_LIMIT + 10
            window = lfsr.sequence_window(5, 10)
            at = lfsr.sequence_at(np.array([0, 7]))
            again = lfsr.sequence(10)
            shifted = view.sequence(7)
            assert spy.call_count <= PERIOD_CACHE_LIMIT + 50
        stepped = lfsr._generate(10)
        assert np.array_equal(head, stepped)
        assert np.array_equal(window, stepped[5:])
        assert np.array_equal(at, stepped[[0, 7]])
        assert np.array_equal(again, stepped)
        assert np.array_equal(shifted, stepped[3:])

    def test_builtin_taps_in_any_order_keep_the_maximal_period(self):
        assert LFSR(width=8, taps=(4, 5, 6, 8)).period == 255

    @given(width=st.integers(2, 8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_custom_taps_match_stepped_generate(self, width, data):
        taps = data.draw(st.sets(st.integers(1, width - 1))) | {width}
        seed = data.draw(st.integers(1, (1 << width) - 1))
        phase = data.draw(st.integers(0, 300))
        start = data.draw(st.integers(0, 600))
        stop = start + data.draw(st.integers(1, 300))
        lfsr = LFSR(width, seed=seed, taps=tuple(taps), phase=phase)
        stepped = lfsr._generate(stop)
        assert np.array_equal(lfsr.sequence(stop), stepped)
        assert np.array_equal(lfsr.sequence_window(start, stop), stepped[start:])
        idx = data.draw(_indices(stop - 1))
        assert np.array_equal(lfsr.sequence_at(idx), stepped[idx])

    def test_taps_must_include_width(self):
        with pytest.raises(RNGConfigurationError):
            LFSR(width=4, taps=(3, 2))

    @pytest.mark.parametrize("width", sorted(MAXIMAL_TAPS))
    def test_parity_step_equals_per_tap_step(self, width):
        # Every built-in width: the tap-mask parity step and the outputs
        # built from it equal the per-tap XOR, from several seeds and
        # phases; the narrow registers also walk their whole cycle.
        taps = MAXIMAL_TAPS[width]
        top = (1 << width) - 1
        for seed in sorted({1, 2, top // 3 or 1, top}):
            lfsr = LFSR(width, seed=seed)
            state = seed
            for _ in range(300):
                assert lfsr._step(state) == _per_tap_step(state, width, taps)
                state = _per_tap_step(state, width, taps)
            for phase in (0, 1, 37):
                got = LFSR(width, seed=seed, phase=phase)._generate(200)
                assert got.dtype == np.int64
                assert np.array_equal(
                    got, _per_tap_outputs(width, seed, taps, phase, 200)
                )
        if width <= 12:
            assert LFSR(width)._cycle_length() == _per_tap_cycle(width, 1, taps) == top

    @pytest.mark.parametrize("width, taps, seed, period", [
        (4, (4, 2), 1, 6), (4, (4, 2), 3, 6), (5, (5, 4, 3, 2), 1, 31),
        (6, (6, 3), 5, None), (8, (8, 7, 2), 9, None), (3, (3,), 1, None),
    ])
    def test_custom_taps_parity_step_and_cycle(self, width, taps, seed, period):
        # Custom taps: steps, outputs at several phases and the seed's
        # cycle length equal the per-tap oracle's.
        lfsr = LFSR(width, seed=seed, taps=taps)
        cycle = _per_tap_cycle(width, seed, taps)
        assert period is None or cycle == period
        assert lfsr._cycle_length() == cycle == lfsr.period
        assert lfsr._cycle_length(limit=cycle) == cycle
        if cycle > 1:
            assert lfsr._cycle_length(limit=cycle - 1) is None
        for state in range(1, 1 << width):
            assert lfsr._step(state) == _per_tap_step(state, width, taps)
        for phase in (0, 3, cycle + 2):
            got = LFSR(width, seed=seed, taps=taps, phase=phase)
            want = _per_tap_outputs(width, seed, taps, phase, 3 * cycle + 5)
            assert np.array_equal(got._generate(want.size), want)
            assert np.array_equal(got.sequence(want.size), want)

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
        # Bits past the width are ignored: ranges reverse unreduced runs.
        assert np.array_equal(_reverse_bits(values | (1 << width), width), got)

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

    @pytest.mark.parametrize("width", [17, 18, 20, 24, 33, 47, 61, 62])
    def test_wide_windows_match_shift_loop_across_runs_and_wraps(self, width):
        # Wide registers build windows from runs of 256 consecutive
        # reduced indices; windows here start one before, at and one
        # after a run edge, and cross the modulus wrap.
        modulus = 1 << width
        lengths = (4099, 1 << 18) if width in (17, 20) else (4099,)
        for phase in (0, 3, modulus - 700):
            vdc = VanDerCorput(width=width, phase=phase)
            for first in (0, 255, 256, 257, modulus - 1, modulus - 1000):
                start = (first - phase) % modulus
                for length in lengths:
                    index = np.arange(start, start + length, dtype=np.int64)
                    want = _shift_loop_reverse((index + phase) & (modulus - 1), width)
                    got = vdc.sequence_window(start, start + length)
                    assert got.tobytes() == want.tobytes(), (phase, first, length)
        # sequence() takes the same path, through three wraps.
        vdc = VanDerCorput(width=17, phase=5)
        index = np.arange(3 * (1 << 17) + 5, dtype=np.int64)
        want = _shift_loop_reverse((index + 5) & ((1 << 17) - 1), 17)
        assert vdc.sequence(index.size).tobytes() == want.tobytes()

    @given(width=st.integers(17, 62), phase=st.integers(0, 1 << 61),
           run=st.integers(0, 1 << 54), offset=st.integers(-300, 300),
           length=st.integers(1, 700))
    @settings(max_examples=100, deadline=None)
    def test_wide_windows_at_run_edges_match_shift_loop(
        self, width, phase, run, offset, length
    ):
        # ``run * 256`` may reach the modulus: the window then wraps.
        modulus = 1 << width
        first = (run % ((modulus >> 8) + 1)) * 256 + offset
        start = (first - phase) % modulus
        index = np.arange(start, start + length, dtype=np.int64)
        want = _shift_loop_reverse((index + phase) & (modulus - 1), width)
        got = VanDerCorput(width=width, phase=phase).sequence_window(start, start + length)
        assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("base", range(2, 14))
    @pytest.mark.parametrize("width,phase,block,length", [
        (8, 1, 1, 1 << 16),
        (20, 0, 3, 1 << 18),
        (1, 5, 1 << 20, 1 << 16),
        (37, 2, 10**9, 1 << 16),
        (63, 1, None, 1 << 16),
    ])
    def test_long_windows_match_radical_inverse(self, base, width, phase, block, length):
        # Windows span several of the ``span``-index blocks they are
        # built from, starting one before, at and one after a block
        # edge; ``block=None`` starts near 2**61.
        span = _low_digits(base)[1]
        if block is None:
            block = (1 << 61) // span
        halton = Halton(base=base, width=width, phase=phase)
        for start in (block * span - 1, block * span, block * span + 1):
            index = np.arange(start + phase, start + phase + length, dtype=np.int64)
            want = halton._quantise(radical_inverse(index, base))
            got = halton.sequence_window(start, start + length)
            assert got.tobytes() == want.tobytes(), start

    @pytest.mark.parametrize("base", range(2, 14))
    @pytest.mark.parametrize("width", [8, 63])
    def test_sequence_across_blocks_matches_radical_inverse(self, base, width):
        halton = Halton(base=base, width=width)
        length = 3 * _low_digits(base)[1] + 2
        index = np.arange(1, length + 1, dtype=np.int64)
        want = halton._quantise(radical_inverse(index, base))
        assert halton.sequence(length).tobytes() == want.tobytes()

    @given(base=st.integers(2, 13), width=st.integers(1, 63),
           phase=st.integers(0, 1 << 20), block=st.integers(0, 1 << 46),
           offset=st.integers(-40, 40), length=st.integers(1, 300))
    @settings(max_examples=150, deadline=None)
    def test_short_windows_at_block_edges_match_radical_inverse(
        self, base, width, phase, block, offset, length
    ):
        halton = Halton(base=base, width=width, phase=phase)
        start = max(0, block * _low_digits(base)[1] + offset)
        index = np.arange(start + phase, start + phase + length, dtype=np.int64)
        want = halton._quantise(radical_inverse(index, base))
        assert halton.sequence_window(start, start + length).tobytes() == want.tobytes()
        head = halton._quantise(radical_inverse(index - start, base))
        assert halton.sequence(length).tobytes() == head.tobytes()

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


# Generators whose ``sequence()`` is checked against their own
# ``_generate`` below: every built-in type, periodic ones with and
# without a phase.
SEQUENCE_GENERATORS = {
    "lfsr": lambda: LFSR(width=6),
    "lfsr-phase": lambda: LFSR(width=6, seed=9, phase=40),
    "lfsr-custom-taps": lambda: LFSR(width=4, taps=(4, 2), seed=3, phase=2),
    "vdc": lambda: VanDerCorput(width=6),
    "vdc-phase": lambda: VanDerCorput(width=6, phase=5),
    "counter": lambda: CounterRNG(width=6, offset=9),
    "sobol": lambda: Sobol(dimension=0, width=6),
    "sobol-phase": lambda: Sobol(dimension=3, width=6, phase=11),
    "halton": lambda: Halton(base=3, width=6),
    "system": lambda: SystemRNG(width=6, seed=4),
    "rotated-lfsr": lambda: RotatedView(LFSR(width=6), 7),
    "rotated-halton": lambda: RotatedView(Halton(base=5, width=6), 3),
}


def _make_sequence_rng(kind, width, phase):
    if kind == "lfsr":
        return LFSR(width=width, phase=phase)
    if kind == "lfsr-custom-taps":
        return LFSR(width=width, taps=(width, max(1, width // 2)), phase=phase)
    if kind == "vdc":
        return VanDerCorput(width=width, phase=phase)
    if kind == "counter":
        return CounterRNG(width=width, offset=phase)
    if kind == "sobol":
        return Sobol(dimension=phase % (Sobol.MAX_DIMENSION + 1), width=width, phase=phase)
    if kind == "halton":
        return Halton(base=3, width=width, phase=phase)
    if kind == "system":
        return SystemRNG(width=width, seed=phase)
    return RotatedView(LFSR(width=width), phase)


def _assert_sequence_contract(rng, length):
    """``sequence(length)`` equals ``_generate(length)`` (the oracle) and
    is a fresh, writable int64 array: writing into it changes nothing
    the next call returns."""
    want = rng._generate(length)
    got = rng.sequence(length)
    assert got.dtype == np.int64
    assert got.flags.writeable
    assert np.array_equal(got, want)
    got[:] = -1
    assert np.array_equal(rng.sequence(length), want)


class TestSequenceContract:
    @pytest.mark.parametrize("make", SEQUENCE_GENERATORS.values(),
                             ids=SEQUENCE_GENERATORS.keys())
    def test_sequence_equals_generate_around_the_period(self, make):
        rng = make()
        period = getattr(rng, "period", 64)
        for length in (1, period - 1, period, period + 1, 2 * period, 3 * period + 5):
            _assert_sequence_contract(rng, length)

    @given(kind=st.sampled_from(["lfsr", "lfsr-custom-taps", "vdc", "counter",
                                 "sobol", "halton", "system", "rotated"]),
           width=st.integers(2, 9), phase=st.integers(0, 600),
           length=st.integers(1, 1200))
    @settings(max_examples=150, deadline=None)
    def test_sequence_equals_generate(self, kind, width, phase, length):
        _assert_sequence_contract(_make_sequence_rng(kind, width, phase), length)


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
