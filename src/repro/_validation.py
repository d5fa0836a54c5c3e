"""Internal argument-validation helpers shared across the library.

These helpers normalise user input into the canonical internal forms
(numpy ``uint8`` bit arrays, positive integers, probabilities) and raise
library-specific exceptions with actionable messages. They are private:
the public API re-raises their errors but does not re-export them.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .exceptions import (
    CircuitConfigurationError,
    EncodingError,
    LengthMismatchError,
)

ArrayLike = Union[np.ndarray, Iterable[int], str]


def as_bit_array(bits: ArrayLike, *, name: str = "bits") -> np.ndarray:
    """Normalise ``bits`` into a numpy ``uint8`` array of 0s and 1s.

    Accepts numpy arrays, iterables of ints/bools, and strings such as
    ``"01101"`` (a convenience for writing the paper's literal examples).

    Raises:
        EncodingError: if any element is not 0 or 1.
    """
    if isinstance(bits, str):
        try:
            arr = np.array([int(ch) for ch in bits], dtype=np.uint8)
        except ValueError as exc:
            raise EncodingError(
                f"{name}: bit strings may only contain '0' and '1', got {bits!r}"
            ) from exc
    else:
        arr = np.asarray(bits)
        if arr.dtype == bool:
            arr = arr.astype(np.uint8)
    if arr.size and not _only_zeros_and_ones(arr):
        raise EncodingError(f"{name}: bit arrays may only contain 0 and 1")
    return arr.astype(np.uint8, copy=False)


def _only_zeros_and_ones(arr: np.ndarray) -> bool:
    """Is every element of the non-empty ``arr`` 0 or 1?

    Integer dtypes answer with one or two reductions; sorting the array
    for its unique values costs far more on large bit matrices.
    """
    kind = arr.dtype.kind
    if kind == "u":
        return bool(arr.max() <= 1)
    if kind == "i":
        return bool(arr.min() >= 0 and arr.max() <= 1)
    return bool(np.isin(np.unique(arr), (0, 1)).all())


def as_bit_matrix(bits: ArrayLike, *, name: str = "bits") -> np.ndarray:
    """Normalise ``bits`` into a 2-D ``(batch, length)`` uint8 bit matrix."""
    arr = as_bit_array(bits, name=name)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise EncodingError(f"{name}: expected a 1-D or 2-D bit array, got ndim={arr.ndim}")
    return arr


def check_same_length(x: np.ndarray, y: np.ndarray, *, context: str = "operation") -> None:
    """Raise :class:`LengthMismatchError` unless the trailing axes match."""
    if x.shape[-1] != y.shape[-1]:
        raise LengthMismatchError(
            f"{context}: bitstream lengths differ ({x.shape[-1]} vs {y.shape[-1]})"
        )


def check_positive_int(value: int, *, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise CircuitConfigurationError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise CircuitConfigurationError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative_int(value: int, *, name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise CircuitConfigurationError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise CircuitConfigurationError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_probability(value: float, *, name: str = "probability") -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise EncodingError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_power_of_two(value: int, *, name: str) -> int:
    """Validate that ``value`` is a positive power of two and return it."""
    value = check_positive_int(value, name=name)
    if value & (value - 1):
        raise CircuitConfigurationError(f"{name} must be a power of two, got {value}")
    return value


def check_stream_length(value: int, *, name: str = "length") -> int:
    """Validate a logical stream length N and return it as an ``int``.

    The single source of truth for stream-length validation across
    ``bitstream``, ``engine``, and the CLI: N must be a positive integer
    but is otherwise unconstrained — *odd* lengths (N not a multiple of
    64) are explicitly supported everywhere. The packed backend stores
    such streams with zeroed tail bits in the final uint64 word, and the
    tile iterators emit a final partial tile of ``N mod tile_bits`` bits
    whose packed form keeps the same zero-tail convention.

    Raises:
        EncodingError: if ``value`` is not a positive integer (the
            historical error type of the packed layer's length checks).
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise EncodingError(
            f"{name} must be an integer stream length, got {type(value).__name__}"
        )
    if value <= 0:
        raise EncodingError(f"{name} must be positive, got {value}")
    return int(value)


def check_jobs(value: int, *, name: str = "jobs") -> int:
    """Validate a worker-process count and return it.

    The single source of truth for every ``jobs=`` knob (streaming
    executor, accelerator, runner, CLI): any positive integer is legal —
    ``1`` means inline sequential execution, and counts beyond the
    available CPUs merely oversubscribe the pool.

    Raises:
        CircuitConfigurationError: if ``value`` is not a positive integer.
    """
    return check_positive_int(value, name=name)


def check_tile_words(value: int, *, name: str = "tile_words") -> int:
    """Validate a streaming tile size in 64-bit words and return it.

    A tile is ``tile_words * 64`` stream bits; every tile but the last is
    exactly that long, and the last covers the odd-length tail (see
    :func:`check_stream_length`). Any positive integer is legal — tile
    sizes need not divide the stream length or be powers of two.

    Raises:
        CircuitConfigurationError: if ``value`` is not a positive integer.
    """
    return check_positive_int(value, name=name)
