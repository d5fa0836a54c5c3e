"""Unit tests for repro._validation and the exception hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import (
    as_bit_array,
    as_bit_matrix,
    check_non_negative_int,
    check_positive_int,
    check_power_of_two,
    check_probability,
    check_same_length,
)
from repro.exceptions import (
    CircuitConfigurationError,
    EncodingError,
    HardwareModelError,
    LengthMismatchError,
    PipelineError,
    ReproError,
    RNGConfigurationError,
)


class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (EncodingError, LengthMismatchError, RNGConfigurationError,
                    CircuitConfigurationError, HardwareModelError, PipelineError):
            assert issubclass(exc, ReproError)

    def test_value_error_compatibility(self):
        # Callers used to ValueError semantics should still catch these.
        for exc in (EncodingError, LengthMismatchError, RNGConfigurationError):
            assert issubclass(exc, ValueError)


class TestBitArrayCoercion:
    def test_string(self):
        assert as_bit_array("0110").tolist() == [0, 1, 1, 0]

    def test_list(self):
        assert as_bit_array([1, 0]).dtype == np.uint8

    def test_bool(self):
        assert as_bit_array(np.array([True, False])).tolist() == [1, 0]

    def test_bad_string(self):
        with pytest.raises(EncodingError):
            as_bit_array("01a")

    def test_bad_values(self):
        with pytest.raises(EncodingError):
            as_bit_array([0, 1, 3])

    def test_matrix_promotion(self):
        assert as_bit_matrix([1, 0]).shape == (1, 2)

    def test_matrix_rejects_3d(self):
        with pytest.raises(EncodingError):
            as_bit_matrix(np.zeros((2, 2, 2), dtype=np.uint8))


# The values the dtype-aware bit check must sort the same way as the
# unique/isin expression it replaced.
BIT_CHECK_VALUES = (0, 1, 2, -1, 255, 0.5, -0.0, float("nan"))
BIT_CHECK_DTYPES = (np.bool_, np.uint8, np.uint16, np.int8, np.int64, np.float64)


def _representable(value, dtype):
    if dtype.kind == "f":
        return True
    if np.isnan(value) or not float(value).is_integer():
        return False
    if dtype.kind == "b":
        return value in (0, 1)
    info = np.iinfo(dtype)
    return info.min <= value <= info.max


class TestBitCheckAgainstUniqueIsin:
    @given(dtype=st.sampled_from(BIT_CHECK_DTYPES), matrix=st.booleans(),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_unique_isin(self, dtype, matrix, data):
        dtype = np.dtype(dtype)
        allowed = [v for v in BIT_CHECK_VALUES if _representable(v, dtype)]
        values = data.draw(st.lists(st.sampled_from(allowed), max_size=12))
        arr = np.array(values, dtype=np.float64).astype(dtype)
        if matrix:
            arr = arr.reshape(1, -1)
        coerced = arr.astype(np.uint8) if dtype == bool else arr
        valid = not coerced.size or np.isin(np.unique(coerced), (0, 1)).all()
        if valid:
            out = as_bit_array(arr, name="x")
            assert out.dtype == np.uint8
            assert np.array_equal(out, coerced)
        else:
            with pytest.raises(
                EncodingError, match=r"^x: bit arrays may only contain 0 and 1$"
            ):
                as_bit_array(arr, name="x")


class TestScalarChecks:
    def test_positive_int(self):
        assert check_positive_int(5, name="n") == 5

    def test_positive_int_rejects(self):
        for bad in (0, -1, 1.5, True, "3"):
            with pytest.raises(CircuitConfigurationError):
                check_positive_int(bad, name="n")

    def test_non_negative(self):
        assert check_non_negative_int(0, name="n") == 0
        with pytest.raises(CircuitConfigurationError):
            check_non_negative_int(-1, name="n")

    def test_probability(self):
        assert check_probability(0.5) == 0.5
        with pytest.raises(EncodingError):
            check_probability(1.0001)

    def test_power_of_two(self):
        assert check_power_of_two(8, name="n") == 8
        with pytest.raises(CircuitConfigurationError):
            check_power_of_two(12, name="n")

    def test_same_length(self):
        check_same_length(np.zeros((2, 4)), np.zeros((3, 4)))
        with pytest.raises(LengthMismatchError):
            check_same_length(np.zeros((2, 4)), np.zeros((2, 5)))
