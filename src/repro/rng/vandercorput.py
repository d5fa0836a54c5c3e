"""Van der Corput (VDC) low-discrepancy sequence generator.

The base-2 Van der Corput sequence is the bit-reversal permutation: the
``t``-th value is ``reverse_bits(t, width) / 2**width``. Driving a D/S
converter with it produces SNs whose 1s are maximally evenly spread, which
both reduces quantisation noise and (per the paper's Table II) makes the
synchronizer/desynchronizer FSMs more effective, because runs of identical
bits are short.

Over one period of ``2**width`` cycles every residue appears exactly once,
so a VDC-driven D/S converter is *exact*: an input ``x`` yields a stream
with exactly ``x`` ones.

Arbitrary indices are reversed one byte lane per pass. Contiguous ranges
(``sequence``, and the windows of registers too wide for the period
cache) reverse only the bits above the low byte, once per run of 256
consecutive indices, and OR in a reversed-byte row.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from ..exceptions import RNGConfigurationError
from .base import PERIOD_CACHE_LIMIT, StreamRNG

__all__ = ["VanDerCorput"]


# Widest register: index arithmetic and the reversed values are int64.
_MAX_WIDTH = 62

# byte -> the byte with its 8 bits in reverse order.
_REVERSED_BYTE = np.array(
    [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.int64
)


def _reverse_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Bit-reverse each element of ``values`` as a ``width``-bit integer.

    One byte lane per pass through a 256-entry reversal table: bit ``j``
    of the lane at bit ``low`` lands on bit ``width - 1 - low - j``, so
    the reversed lane shifts left by ``width - 8 - low`` (right, for a
    top lane narrower than a byte). Bits at and above ``width`` fall out
    of that shift or are never read, so values need not be reduced.
    """
    result = np.zeros_like(values)
    lane = np.empty_like(values)
    for low in range(0, width, 8):
        np.right_shift(values, low, out=lane)
        lane &= 0xFF
        np.take(_REVERSED_BYTE, lane, out=lane, mode="clip")
        shift = width - 8 - low
        if shift >= 0:
            lane <<= shift
        else:
            lane >>= -shift
        result |= lane
    return result


class VanDerCorput(StreamRNG):
    """Base-2 Van der Corput sequence as a ``width``-bit integer stream.

    Args:
        width: bit width (1..62); the period is ``2**width``.
        phase: start the sequence at index ``phase`` (rotating the sequence
            gives decorrelated variants sharing one generator core).
    """

    def __init__(self, width: int = 8, phase: int = 0) -> None:
        width = check_positive_int(width, name="width")
        if width > _MAX_WIDTH:
            raise RNGConfigurationError(
                f"VanDerCorput width must be <= {_MAX_WIDTH}, got {width}"
            )
        super().__init__(modulus=1 << width)
        self._width = width
        self._phase = check_non_negative_int(phase, name="phase")

    @property
    def name(self) -> str:
        suffix = f"+{self._phase}" if self._phase else ""
        return f"vdc{self._width}{suffix}"

    @property
    def width(self) -> int:
        return self._width

    @property
    def period(self) -> int:
        return self.modulus

    def _generate(self, length: int) -> np.ndarray:
        return self._range(0, length)

    def _generate_window(self, start: int, stop: int):
        # Bit reversal is index-addressable, so windows cost O(window)
        # at any width — wide-register VDC sources stay streamable even
        # when the period is too large for the period cache. Narrow
        # registers decline (return None): tiling the cached period is
        # cheaper than building the window.
        if self.period <= PERIOD_CACHE_LIMIT:
            return None
        return self._range(start, stop)

    def _generate_at(self, indices: np.ndarray):
        if self.period <= PERIOD_CACHE_LIMIT:
            return None
        return self._values(indices)

    def _values(self, indices: np.ndarray) -> np.ndarray:
        # The modulus is a power of two: reduce the index with a mask.
        index = indices + self._phase
        index &= self.modulus - 1
        return _reverse_bits(index, self._width)

    def _range(self, start: int, stop: int) -> np.ndarray:
        """Values at the consecutive indices ``[start, stop)``.

        Consecutive reduced indices that share their bits above the low
        byte form a run: those bits reversed, once per run, OR'd with a
        row of reversed low bytes. The reversal drops bits past the
        width, so one ``(runs, 256)`` broadcast also spans modulus wraps.
        """
        lane = min(8, self._width)
        high_width = self._width - lane
        low = (_REVERSED_BYTE[: 1 << lane] >> (8 - lane)) << high_width
        index = (start + self._phase) & (self.modulus - 1)
        first, last = index >> lane, (index + stop - start - 1) >> lane
        high = _reverse_bits(np.arange(first, last + 1, dtype=np.int64), high_width)
        offset = index - (first << lane)
        return (high[:, None] | low).reshape(-1)[offset : offset + stop - start]
