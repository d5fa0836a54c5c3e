"""RNG sharing and rotation utilities.

RNGs dominate SC area/power, so real designs amortise one generator over
many D/S converters (paper Section II-B). Two standard wirings:

* **direct sharing** — several converters compare against the same
  sequence; the generated SNs are maximally positively correlated;
* **rotated outputs** — each converter taps the sequence at a different
  phase ("use rotated LFSR outputs ... to minimize correlation"); the SNs
  are (approximately) decorrelated at zero generator cost.

:class:`RotatedView` wraps any :class:`~repro.rng.base.StreamRNG` as a
phase-shifted view; :class:`RNGBank` hands out systematically rotated
views of one generator, and models the hardware honestly: one generator's
cost, many streams.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .._validation import check_non_negative_int, check_positive_int
from ..exceptions import RNGConfigurationError
from .base import StreamRNG

__all__ = ["RotatedView", "RNGBank"]


class RotatedView(StreamRNG):
    """A phase-shifted view of another generator's sequence.

    The view shares the parent's period and value set; only the starting
    offset differs. Views of one parent model rotated taps on one physical
    register chain.
    """

    def __init__(self, parent: StreamRNG, phase: int, *, period: Optional[int] = None) -> None:
        super().__init__(modulus=parent.modulus)
        self._parent = parent
        self._phase = check_non_negative_int(phase, name="phase")
        # The parent's period is read on first use: learning it can walk
        # a whole cycle (an LFSR with custom taps).
        self._period = (
            None if period is None else check_positive_int(period, name="period")
        )

    @property
    def name(self) -> str:
        return f"{self._parent.name}>>{self._phase}"

    @property
    def parent(self) -> StreamRNG:
        return self._parent

    @property
    def phase(self) -> int:
        return self._phase

    @property
    def period(self) -> int:
        """The parent's period (views only change the starting offset)."""
        if self._period is None:
            self._period = check_positive_int(
                getattr(self._parent, "period", self._parent.modulus), name="period"
            )
        return self._period

    def _generate(self, length: int) -> np.ndarray:
        # One parent period suffices: index modulo the period.
        period = self.period
        base = self._parent.sequence(period)
        idx = (np.arange(length, dtype=np.int64) + self._phase) % period
        return base[idx]


class RNGBank:
    """A single generator amortised over many streams via rotated taps.

    Args:
        parent: the one physical generator.
        stride: phase distance between consecutive taps. Choose a value
            coprime with the parent period so taps never collide; the
            constructor enforces this.
    """

    def __init__(self, parent: StreamRNG, stride: int = 37) -> None:
        self._parent = parent
        self._stride = check_positive_int(stride, name="stride")
        self._period = int(getattr(parent, "period", parent.modulus))
        if np.gcd(self._stride, self._period) != 1:
            raise RNGConfigurationError(
                f"stride {stride} shares a factor with the period {self._period}; "
                "taps would collide"
            )
        self._issued = 0

    @property
    def parent(self) -> StreamRNG:
        return self._parent

    @property
    def issued(self) -> int:
        """Number of views handed out so far."""
        return self._issued

    def take(self) -> RotatedView:
        """Issue the next rotated view."""
        view = RotatedView(
            self._parent, (self._issued * self._stride) % self._period,
            period=self._period,
        )
        self._issued += 1
        return view

    def take_many(self, count: int) -> List[RotatedView]:
        """Issue ``count`` views at once."""
        check_positive_int(count, name="count")
        return [self.take() for _ in range(count)]
