"""Base class for stochastic-number random number generators.

In SC hardware, an RNG is a small sequential circuit that emits one
``width``-bit integer per cycle; a D/S converter compares that integer
against a binary input to produce one stream bit per cycle (paper Fig. 2g).
The *choice* of RNG determines the correlation structure of the generated
SNs (paper Section II-B):

* two SNs driven by the *same* RNG sequence are maximally positively
  correlated (SCC = +1);
* SNs driven by independent, well-chosen RNGs are uncorrelated (SCC ~ 0);
* low-discrepancy sequences (VDC, Halton, Sobol) additionally minimise
  quantisation noise.

Every generator in this package is deterministic and replayable:
:meth:`StreamRNG.sequence` always returns the same values for the same
constructor arguments, and :meth:`StreamRNG.reset` rewinds the internal
cursor used by the streaming :meth:`StreamRNG.next_value` interface.

A generator with a finite ``period`` no larger than
:data:`PERIOD_CACHE_LIMIT` serves ``sequence(length)`` for
``length >= period`` by tiling its cached period (below), so a slow
sequential ``_generate`` (the LFSR's per-step python loop) runs once
per instance, not once per call. Shorter requests still call
``_generate``: tiling them would build a whole period for a prefix.

Windowed generation
-------------------

The tile-streaming execution core (:mod:`repro.engine.streaming`) pumps
fixed-size chunks of a stream through a whole plan, so it needs *windows*
``sequence(stop)[start:stop]`` of a sequence without materialising the
``stop``-element prefix. :meth:`StreamRNG.sequence_window` (and the
derived :meth:`StreamRNG.integers_window` / :meth:`StreamRNG.sequence_at`)
provide exactly that, with three resolution strategies, best first:

1. a subclass :meth:`StreamRNG._generate_window` override computing the
   window directly (Halton's radical inverse and wide VDC's bit reversal
   are index-addressable; a rotated view shifts its parent's window);
2. a finite ``period`` property no larger than
   :data:`PERIOD_CACHE_LIMIT`: one period is generated once, cached on
   the instance, and indexed modulo the period (VDC, LFSR, counter,
   Sobol);
3. the always-correct fallback ``_generate(stop)[start:]`` — O(stop)
   memory, used only by generators that are neither windowable nor
   periodic (the PCG-backed :class:`~repro.rng.system.SystemRNG`).

All three are value-exact: ``sequence_window(s, e)`` equals
``sequence(e)[s:e]`` element for element (property-tested in
``tests/test_streaming.py``).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from .._validation import check_non_negative_int, check_positive_int

__all__ = ["StreamRNG", "PERIOD_CACHE_LIMIT"]

# Periods up to this many values may be materialised (and cached on the
# instance) to serve windowed generation; 2**16 int64s = 512 KiB, far
# below one streaming tile. Every built-in periodic generator is width-8
# by default (period <= 256), so the cap only guards pathological widths.
PERIOD_CACHE_LIMIT = 1 << 16


def _cyclic_window(period: np.ndarray, start: int, length: int) -> np.ndarray:
    """Values ``[start, start + length)`` of the sequence that repeats
    ``period``: one C-level tile of the rolled period instead of an
    arange + modulo + gather over the window."""
    p = period.size
    phase = start % p
    rolled = np.roll(period, -phase) if phase else period
    return np.tile(rolled, -(-length // p))[:length]


class StreamRNG(abc.ABC):
    """Abstract deterministic integer-sequence generator.

    Subclasses implement :meth:`_generate` returning the first ``length``
    values of their sequence as ``int64`` integers in ``[0, modulus)``.
    """

    def __init__(self, modulus: int) -> None:
        self._modulus = check_positive_int(modulus, name="modulus")
        self._cursor = 0
        self._cache: Optional[np.ndarray] = None
        self._period_cache: Optional[np.ndarray] = None
        # (phase, length) -> expanded window memo for the period path.
        # Tile streaming asks for the same (start % period, tile) window
        # on every full tile, so one slot hits almost always.
        self._window_memo: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # Abstract surface
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def _generate(self, length: int) -> np.ndarray:
        """Return the first ``length`` sequence values in ``[0, modulus)``."""

    def _generate_window(self, start: int, stop: int) -> Optional[np.ndarray]:
        """Subclass hook: values at indices ``[start, stop)`` computed
        directly, or ``None`` when the generator has no closed-form
        window (the base class then falls back to period indexing or
        prefix generation)."""
        return None

    def _generate_at(self, indices: np.ndarray) -> Optional[np.ndarray]:
        """Subclass hook: values at arbitrary absolute ``indices``, or
        ``None`` when the generator is not index-addressable (the base
        class then falls back to period indexing or prefix generation —
        the latter is O(max index), so index-addressable generators
        should implement this)."""
        return None

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short human-readable identifier (used in experiment tables)."""

    # ------------------------------------------------------------------ #
    # Concrete API
    # ------------------------------------------------------------------ #

    @property
    def modulus(self) -> int:
        """Exclusive upper bound of emitted values (``2**width`` usually)."""
        return self._modulus

    def sequence(self, length: int) -> np.ndarray:
        """The first ``length`` values of the sequence (replayable).

        Always a fresh, writable int64 array: callers may write into it.
        """
        length = check_positive_int(length, name="length")
        period = self._cacheable_period()
        if period is not None and period <= length:
            return _cyclic_window(self._period_values(), 0, length)
        seq = self._generate(length)
        if seq.shape != (length,):
            raise AssertionError(
                f"{type(self).__name__}._generate returned shape {seq.shape}, "
                f"expected ({length},)"
            )
        return seq.astype(np.int64, copy=False)

    def fractions(self, length: int) -> np.ndarray:
        """The sequence scaled into ``[0, 1)`` as float64."""
        return self.sequence(length) / float(self._modulus)

    # ------------------------------------------------------------------ #
    # Windowed generation (constant-memory tile streaming)
    # ------------------------------------------------------------------ #

    def _cacheable_period(self) -> Optional[int]:
        """The ``period`` when it is at most :data:`PERIOD_CACHE_LIMIT`,
        else ``None`` (aperiodic, or too long to cache). Generators whose
        period is costly to learn override this to stop looking past the
        limit (the LFSR with custom taps)."""
        period = getattr(self, "period", None)
        if period is None or period > PERIOD_CACHE_LIMIT:
            return None
        return int(period)

    def _period_values(self) -> Optional[np.ndarray]:
        """One full period of the sequence, cached on the instance — or
        ``None`` when the generator is aperiodic or its period exceeds
        :data:`PERIOD_CACHE_LIMIT`."""
        if self._period_cache is None:
            period = self._cacheable_period()
            if period is None:
                return None
            values = self._generate(period).astype(np.int64, copy=False)
            values.setflags(write=False)
            self._period_cache = values
        return self._period_cache

    def sequence_window(self, start: int, stop: int) -> np.ndarray:
        """Values at indices ``[start, stop)`` — exactly
        ``sequence(stop)[start:stop]`` — without materialising the prefix
        when the generator is windowable or periodic (see the module
        docstring for the resolution order)."""
        start = check_non_negative_int(start, name="start")
        if stop < start:
            raise ValueError(f"window stop {stop} precedes start {start}")
        if stop == start:
            return np.empty(0, dtype=np.int64)
        window = self._generate_window(start, stop)
        if window is None:
            # Prefer the period path even for start=0: generators with a
            # slow sequential _generate (the LFSR's per-step python loop)
            # then pay one period, not one tile, per window.
            period = self._period_values()
            if period is not None:
                phase = start % period.size
                length = stop - start
                if self._window_memo is not None:
                    memo_phase, memo_length, memo = self._window_memo
                    if memo_phase == phase and memo_length == length:
                        return memo
                window = _cyclic_window(period, start, length)
                window.setflags(write=False)
                self._window_memo = (phase, length, window)
            elif start == 0:
                window = self.sequence(stop)
            else:
                window = self._generate(stop)[start:]
        if window.shape != (stop - start,):
            raise AssertionError(
                f"{type(self).__name__} window has shape {window.shape}, "
                f"expected ({stop - start},)"
            )
        return window.astype(np.int64, copy=False)

    def sequence_at(self, indices: np.ndarray) -> np.ndarray:
        """Values at arbitrary absolute ``indices`` (int64 array).

        Periodic generators serve this from the cached period; aperiodic
        ones fall back to generating the ``max(indices) + 1`` prefix.
        Used by consumers whose index pattern is not a contiguous window
        (the image pipeline's phase-rotated select taps).
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            return np.empty(indices.shape, dtype=np.int64)
        if indices.min() < 0:
            raise ValueError("sequence indices must be non-negative")
        values = self._generate_at(indices)
        if values is not None:
            return values.astype(np.int64, copy=False)
        period = self._period_values()
        if period is not None:
            return period[indices % period.size]
        return self._generate(int(indices.max()) + 1)[indices]

    def fractions_window(self, start: int, stop: int) -> np.ndarray:
        """Windowed :meth:`fractions`."""
        return self.sequence_window(start, stop) / float(self._modulus)

    def integers_window(self, start: int, stop: int, high: int) -> np.ndarray:
        """Windowed :meth:`integers`: the window rescaled to ``[0, high)``.

        A window at least one cacheable period long rescales that period
        and tiles the result, instead of rescaling the window: a tile
        walk's phase moves on almost every tile (2^18 mod 255 = 4 for an
        8-bit LFSR), so the window memo would not hit.
        """
        high = check_positive_int(high, name="high")
        period = self._period_values()
        if period is None or period.size > stop - start:
            return (self.sequence_window(start, stop) * high) // self._modulus
        start = check_non_negative_int(start, name="start")
        return _cyclic_window((period * high) // self._modulus, start, stop - start)

    def integers(self, length: int, high: int) -> np.ndarray:
        """The sequence rescaled to integers in ``[0, high)``.

        Used e.g. by shuffle buffers that need addresses in ``[0, depth)``
        from a generic RNG; the scaling preserves low-discrepancy structure.
        """
        high = check_positive_int(high, name="high")
        return (self.sequence(length) * high) // self._modulus

    def next_value(self) -> int:
        """Streaming interface: emit the next sequence value.

        Cycle-level circuit models use this one value at a time; batch code
        should prefer :meth:`sequence`.
        """
        if self._cache is None or self._cursor >= self._cache.size:
            grow = max(256, self._cursor + 1)
            self._cache = self.sequence(2 * grow)
        value = int(self._cache[self._cursor])
        self._cursor += 1
        return value

    def reset(self) -> None:
        """Rewind the streaming cursor to the beginning of the sequence."""
        self._cursor = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, modulus={self._modulus})"
