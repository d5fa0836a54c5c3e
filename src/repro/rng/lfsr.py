"""Linear feedback shift register (LFSR) sequence generator.

LFSRs are the classic SC random source (paper Section II-B): compact, but
*not* low-discrepancy, and pairs of LFSRs are not automatically
uncorrelated — the paper notes that rotated outputs or distinct seeds are
needed to keep cross-correlation down, and Table II uses an LFSR as the
"mediocre RNG" configuration.

This is a Fibonacci LFSR over GF(2): at each cycle the register shifts left
and the new low bit is the XOR of the tap positions. With maximal-length
taps the state walks through all ``2**width - 1`` non-zero values before
repeating. Because state 0 never occurs, a real LFSR cannot emit one of the
``2**width`` residues; we expose the raw behaviour (mapped to
``state - 1``) rather than papering over it — the resulting value bias is
part of what Table II measures.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from ..exceptions import RNGConfigurationError
from .base import PERIOD_CACHE_LIMIT, StreamRNG

__all__ = ["LFSR", "MAXIMAL_TAPS"]

# Maximal-length polynomial taps (1-indexed bit positions, XNOR-free
# Fibonacci form) for common widths. Source: standard m-sequence tables.
MAXIMAL_TAPS: Dict[int, Tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 18, 17, 14),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
}


class LFSR(StreamRNG):
    """Fibonacci LFSR emitting ``state - 1`` in ``[0, 2**width - 2]``.

    Args:
        width: register width in bits; the period is ``2**width - 1``
            with the built-in maximal-length taps.
        seed: initial non-zero state (defaults to 1).
        taps: optional custom tap positions (1-indexed, must include
            ``width``); defaults to a maximal-length polynomial. Taps
            that are not maximal-length give a shorter period, the
            length of the seed's cycle.
        phase: discard this many initial outputs — the cheap trick used to
            derive "different" SNs from one LFSR (paper Section II-B).
    """

    def __init__(
        self,
        width: int = 8,
        seed: int = 1,
        taps: Optional[Tuple[int, ...]] = None,
        phase: int = 0,
    ) -> None:
        width = check_positive_int(width, name="width")
        if taps is None:
            if width not in MAXIMAL_TAPS:
                raise RNGConfigurationError(
                    f"no built-in maximal taps for width {width}; pass taps= explicitly"
                )
            taps = MAXIMAL_TAPS[width]
        if max(taps) != width:
            raise RNGConfigurationError(
                f"highest tap must equal width ({width}), got taps={taps}"
            )
        if any(t < 1 for t in taps):
            raise RNGConfigurationError(f"taps are 1-indexed positive positions, got {taps}")
        period = (1 << width) - 1
        seed = int(seed)
        if not 1 <= seed <= period:
            raise RNGConfigurationError(
                f"seed must be a non-zero {width}-bit value in [1, {period}], got {seed}"
            )
        super().__init__(modulus=1 << width)
        self._width = width
        self._seed = seed
        self._taps = tuple(sorted(set(taps), reverse=True))
        self._tap_mask = sum(1 << (tap - 1) for tap in self._taps)
        self._register_mask = (1 << width) - 1
        self._phase = check_non_negative_int(phase, name="phase")
        # Built-in taps are maximal-length; custom taps measure the
        # seed's cycle on first use (see ``period``). ``_long_cycle``
        # records a walk that gave up past the period cache limit.
        self._period: Optional[int] = (
            period if self._taps == MAXIMAL_TAPS.get(width) else None
        )
        self._long_cycle = False

    @property
    def name(self) -> str:
        return f"lfsr{self._width}(seed={self._seed})"

    @property
    def width(self) -> int:
        return self._width

    @property
    def period(self) -> int:
        """Sequence period: the length of the seed's cycle.

        ``2**width - 1`` for maximal-length taps. Custom taps walk the
        cycle once, on first read: the top tap is ``width``, so the state
        map is a bijection and the seed always comes back. That walk is
        O(period) python steps; :meth:`sequence` and the windowed reads
        never ask for more than :data:`PERIOD_CACHE_LIMIT` of them.
        """
        if self._period is None:
            self._period = self._cycle_length()
        return self._period

    def _cacheable_period(self) -> Optional[int]:
        if self._period is None and not self._long_cycle:
            self._period = self._cycle_length(limit=PERIOD_CACHE_LIMIT)
            self._long_cycle = self._period is None
        if self._period is None or self._period > PERIOD_CACHE_LIMIT:
            return None
        return self._period

    def _cycle_length(self, limit: Optional[int] = None) -> Optional[int]:
        """Steps until the seed comes back, or ``None`` past ``limit``."""
        steps, state = 1, self._step(self._seed)
        while state != self._seed:
            if limit is not None and steps >= limit:
                return None
            steps, state = steps + 1, self._step(state)
        return steps

    def _step(self, state: int) -> int:
        # The feedback bit is the XOR of the tapped bits: their parity.
        feedback = (state & self._tap_mask).bit_count() & 1
        return ((state << 1) | feedback) & self._register_mask

    def _generate(self, length: int) -> np.ndarray:
        step = self._step
        states = []
        append = states.append
        state = self._seed
        for _ in range(length + self._phase):
            append(state)
            state = step(state)
        # Map non-zero states 1..2^w-1 onto residues 0..2^w-2. The residue
        # 2^w - 1 is never emitted: a real LFSR artifact kept on purpose.
        return np.array(states[self._phase :], dtype=np.int64) - 1
