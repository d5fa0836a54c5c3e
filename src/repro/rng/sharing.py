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
    offset differs: value ``i`` is the parent's value ``i + phase``. Views
    of one parent model rotated taps on one physical register chain. A
    view of an aperiodic parent has no period, like its parent; an
    explicit ``period`` only sets what :attr:`period` reports.
    """

    def __init__(self, parent: StreamRNG, phase: int, *, period: Optional[int] = None) -> None:
        super().__init__(modulus=parent.modulus)
        self._parent = parent
        self._phase = check_non_negative_int(phase, name="phase")
        # The parent's period is read on use, not here: learning it can
        # walk a whole cycle (an LFSR with custom taps).
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
        """The explicit ``period``, else the parent's (views only change
        the starting offset). Raises ``AttributeError`` when neither
        exists, as reading an aperiodic parent's period does."""
        if self._period is not None:
            return self._period
        return self._parent.period

    def _cacheable_period(self) -> Optional[int]:
        return self._parent._cacheable_period()

    def _generate(self, length: int) -> np.ndarray:
        # A copy: a parent window may be its read-only period memo.
        return self._generate_window(0, length).copy()

    def _generate_window(self, start: int, stop: int) -> np.ndarray:
        return self._parent.sequence_window(start + self._phase, stop + self._phase)


class RNGBank:
    """A single generator amortised over many streams via rotated taps.

    Args:
        parent: the one physical generator.
        stride: phase distance between consecutive taps. Choose a value
            coprime with the parent period (its modulus, for an aperiodic
            parent) so taps never collide; the constructor enforces this.
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
        view = RotatedView(self._parent, (self._issued * self._stride) % self._period)
        self._issued += 1
        return view

    def take_many(self, count: int) -> List[RotatedView]:
        """Issue ``count`` views at once."""
        check_positive_int(count, name="count")
        return [self.take() for _ in range(count)]
