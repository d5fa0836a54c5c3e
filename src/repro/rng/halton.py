"""Halton (generalised Van der Corput) low-discrepancy sequences.

The base-``b`` radical inverse of ``t`` reflects ``t``'s base-``b`` digits
about the radix point: ``t = d0 + d1*b + d2*b^2 + ...`` maps to
``d0/b + d1/b^2 + d2/b^3 + ...``. Base 2 recovers the Van der Corput
sequence; distinct (coprime) bases give mutually uncorrelated sequences,
which is how the paper's Table II/III builds its *uncorrelated* input
configurations (VDC base 2 against Halton base 3).

Values are quantised to ``width``-bit integers (``floor(frac * 2**width)``)
so the generator is drop-in compatible with the comparator-based D/S
converter.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from ..exceptions import RNGConfigurationError
from .base import StreamRNG

__all__ = ["Halton", "radical_inverse"]


# The low-digit tables hold at most this many entries (256 KiB of float64).
_TABLE_LIMIT = 1 << 15

# Widest output: values are int64, quantised through uint64.
_MAX_WIDTH = 63


@functools.lru_cache(maxsize=16)
def _low_digits(base: int) -> Tuple[np.ndarray, int, float]:
    """``(table, span, scale)`` for the ``digits`` lowest base-``b``
    digits, where ``span = base**digits`` is the largest such power
    within :data:`_TABLE_LIMIT`: ``table[r]`` is the radical inverse of
    ``r < span`` summed digit by digit, least significant first, exactly
    as :func:`radical_inverse` sums every digit; ``scale`` is the weight
    of the next digit. Read-only, built once per base."""
    digits, span = 1, base
    while span * base <= _TABLE_LIMIT:
        digits, span = digits + 1, span * base
    remaining = np.arange(span, dtype=np.int64)
    table = np.zeros(span, dtype=np.float64)
    scale = 1.0 / base
    for _ in range(digits):
        table += (remaining % base) * scale
        scale /= base
        remaining //= base
    table.setflags(write=False)
    return table, span, scale


def radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """Vectorised base-``b`` radical inverse, returning float64 in [0, 1)
    (up to rounding: a float sum may land on 1.0 or just past it).

    The value of each non-negative ``index`` is the float sum of its
    base-``b`` digits' weights ``d_j * b**-(j + 1)``, least significant
    digit first. The lowest digits come from one per-base table lookup;
    each remaining digit costs one in-place ``divmod`` pass.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size and index.min() < 0:
        raise ValueError("radical_inverse needs non-negative indices")
    table, span, scale = _low_digits(base)
    high, digit = np.empty_like(index), np.empty_like(index)
    np.divmod(index, span, out=(high, digit))
    result = np.empty(index.shape, dtype=np.float64)
    np.take(table, digit, out=result, mode="clip")
    top = int(high.max(initial=0))
    passes = 0
    while top:
        top //= base
        passes += 1
    weight = np.empty_like(result)
    for _ in range(passes):
        np.divmod(high, base, out=(high, digit))
        np.multiply(digit, scale, out=weight)
        result += weight
        scale /= base
    return result


class Halton(StreamRNG):
    """Base-``b`` Halton sequence quantised to ``width``-bit integers.

    Args:
        base: radix of the radical inverse (>= 2). Use coprime bases for
            independent sequences.
        width: output bit width (1..63; modulus ``2**width``).
        phase: start index offset (skipping the 0th value, which is 0, is
            conventional; default phase=1 matches common SC practice).
    """

    def __init__(self, base: int = 3, width: int = 8, phase: int = 1) -> None:
        if base < 2:
            raise RNGConfigurationError(f"Halton base must be >= 2, got {base}")
        width = check_positive_int(width, name="width")
        if width > _MAX_WIDTH:
            raise RNGConfigurationError(
                f"Halton width must be <= {_MAX_WIDTH}, got {width}"
            )
        super().__init__(modulus=1 << width)
        self._base = base
        self._width = width
        self._phase = check_non_negative_int(phase, name="phase")

    @property
    def name(self) -> str:
        return f"halton{self._base}"

    @property
    def base(self) -> int:
        return self._base

    @property
    def width(self) -> int:
        return self._width

    def _generate(self, length: int) -> np.ndarray:
        return self._generate_window(0, length)

    def _generate_window(self, start: int, stop: int) -> np.ndarray:
        # The radical inverse is index-addressable, so a window costs
        # O(stop - start) regardless of where it starts — the aperiodic
        # generator the tile-streaming sources still window for free.
        return self._quantise(radical_inverse(
            np.arange(start + self._phase, stop + self._phase, dtype=np.int64),
            self._base,
        ))

    def _generate_at(self, indices: np.ndarray) -> np.ndarray:
        return self._quantise(radical_inverse(indices + self._phase, self._base))

    def _quantise(self, fracs: np.ndarray) -> np.ndarray:
        """``floor(frac * 2**width)``, clamped to ``2**width - 1`` (a float
        sum may round up to 1.0). Cast through uint64 so that the rounded
        ``2**63`` of a 63-bit register clamps instead of overflowing."""
        fracs *= self.modulus
        values = fracs.astype(np.uint64)
        np.minimum(values, np.uint64(self.modulus - 1), out=values)
        return values.view(np.int64)
