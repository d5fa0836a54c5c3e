"""Unit tests for fault injection (repro.faults)."""

import itertools
from unittest import mock

import numpy as np
import pytest

from repro import faults
from repro.analysis.experiments import fault_tolerance
from repro.exceptions import ReproError
from repro.faults import (
    FaultPoint,
    fault_sweep,
    flip_binary_words,
    flip_bits,
    stream_error_moments,
    word_error_moments,
)


class TestFlipBits:
    def test_zero_rate_is_identity(self):
        bits = np.random.default_rng(0).integers(0, 2, (4, 64)).astype(np.uint8)
        assert np.array_equal(flip_bits(bits, 0.0, seed=1), bits)

    def test_full_rate_is_complement(self):
        bits = np.random.default_rng(0).integers(0, 2, (4, 64)).astype(np.uint8)
        assert np.array_equal(flip_bits(bits, 1.0, seed=1), 1 - bits)

    def test_rate_statistics(self):
        bits = np.zeros((64, 256), dtype=np.uint8)
        flipped = flip_bits(bits, 0.1, seed=2)
        assert flipped.mean() == pytest.approx(0.1, abs=0.01)

    def test_deterministic_with_seed(self):
        bits = np.ones((2, 32), dtype=np.uint8)
        assert np.array_equal(flip_bits(bits, 0.5, seed=7), flip_bits(bits, 0.5, seed=7))

    def test_rate_validated(self):
        with pytest.raises(ReproError):
            flip_bits(np.zeros((1, 4), dtype=np.uint8), 1.5)


class TestFlipBinaryWords:
    def test_zero_rate_identity(self):
        words = np.array([0, 100, 255])
        assert np.array_equal(flip_binary_words(words, 8, 0.0, seed=0), words)

    def test_full_rate_complements(self):
        words = np.array([0, 255])
        out = flip_binary_words(words, 8, 1.0, seed=0)
        assert out.tolist() == [255, 0]

    def test_range_validated(self):
        with pytest.raises(ReproError):
            flip_binary_words(np.array([256]), 8, 0.1)

    def test_msb_flip_is_catastrophic(self):
        # The structural point: one flip can move a BE value by half scale.
        words = np.array([0])
        out = flip_binary_words(words, 8, 1e-9, seed=0)  # ~never flips
        assert out[0] == 0
        # Force an MSB flip manually to document the magnitude.
        assert (0 ^ (1 << 7)) / 256 == 0.5


class TestFaultSweep:
    def test_returns_point_per_rate(self):
        points = fault_sweep(rates=(0.0, 0.01), trials=16)
        assert len(points) == 2
        assert isinstance(points[0], FaultPoint)

    def test_zero_rate_zero_error(self):
        point = fault_sweep(rates=(0.0,), trials=16)[0]
        assert point.sc_value_error == pytest.approx(0.0, abs=0.01)
        assert point.be_value_error == 0.0

    def test_sc_degrades_gracefully(self):
        # At equal per-bit fault rates the SC representation loses less
        # value accuracy than the binary one (the paper's intro claim).
        points = fault_sweep(rates=(0.01, 0.05), trials=128, seed=1)
        for point in points:
            assert point.sc_value_error < point.be_value_error

    def test_error_monotone_in_rate(self):
        points = fault_sweep(rates=(0.001, 0.01, 0.1), trials=128, seed=2)
        sc_errors = [p.sc_value_error for p in points]
        assert sc_errors == sorted(sc_errors)

    def test_multiply_error_tracks_rate(self):
        points = fault_sweep(rates=(0.0, 0.05), trials=64, seed=3)
        assert points[1].sc_multiply_error > points[0].sc_multiply_error

    def test_as_row(self):
        row = fault_sweep(rates=(0.01,), trials=8)[0].as_row()
        assert len(row) == 4


def _enumerated_moments(levels, rate, width, encode, scale):
    """Mean and variance of ``|decode(flipped) - level / 2**width|`` by
    enumerating every flip pattern of the encoded bits."""
    means, variances = [], []
    for level in levels:
        bits = encode(level)
        mean = second = 0.0
        for pattern in itertools.product((0, 1), repeat=bits.size):
            flips = np.array(pattern)
            prob = np.prod(np.where(flips, rate, 1.0 - rate))
            error = abs(scale(bits ^ flips) - level / (1 << width))
            mean += prob * error
            second += prob * error * error
        means.append(mean)
        variances.append(second - mean * mean)
    return np.array(means), np.array(variances)


class TestExactErrorMoments:
    @pytest.mark.parametrize("n, width", [(6, 3), (7, 3), (8, 2)])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.37, 1.0])
    def test_stream_moments_match_enumeration(self, n, width, rate):
        levels = np.arange(1 << width)

        def encode(level):
            bits = np.zeros(n, dtype=np.int64)
            bits[: level * n // (1 << width)] = 1  # order is irrelevant
            return bits

        mean, var = stream_error_moments(levels, rate, n=n, width=width)
        ref_mean, ref_var = _enumerated_moments(
            levels, rate, width, encode, lambda bits: bits.sum() / n
        )
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.5])
    def test_word_moments_match_enumeration(self, width, rate):
        levels = np.arange(1 << width)
        weights = 1 << np.arange(width)
        mean, var = word_error_moments(levels, rate, width=width)
        ref_mean, ref_var = _enumerated_moments(
            levels, rate, width,
            lambda level: (level >> np.arange(width)) & 1,
            lambda bits: (bits * weights).sum() / (1 << width),
        )
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-12)

    def test_stream_beats_word_in_expectation_over_uniform_levels(self):
        levels = np.arange(256)
        for rate, sc, be in ((0.001, 0.00092, 0.00100), (0.01, 0.0066, 0.0099),
                             (0.1, 0.052, 0.091)):
            sc_mean = stream_error_moments(levels, rate)[0].mean()
            be_mean = word_error_moments(levels, rate)[0].mean()
            assert sc_mean == pytest.approx(sc, rel=0.01)
            assert be_mean == pytest.approx(be, rel=0.01)
            assert sc_mean < be_mean


class TestFaultToleranceClaims:
    def test_default_seed_matches_expectation(self):
        checks = fault_tolerance(seed=7).checks
        assert checks["errors_match_expectation"]
        assert checks["sc_beats_binary_in_expectation"]

    @pytest.mark.parametrize("name", ["flip_bits", "flip_binary_words"])
    def test_flipping_at_twice_the_rate_is_caught(self, name):
        real = getattr(faults, name)

        def doubled(*args, **kwargs):
            *head, rate = args
            return real(*head, min(1.0, 2 * rate), **kwargs)

        with mock.patch.object(faults, name, doubled):
            checks = fault_tolerance(seed=7).checks
        assert not checks["errors_match_expectation"]
