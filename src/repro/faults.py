"""Bit-flip fault injection: quantifying SC's error-tolerance claim.

The paper's opening pitch for stochastic computing includes "improved
error tolerance": because every bit of an SN carries equal weight ``1/N``,
a soft error flips the value by at most ``1/N``, whereas a single flip in
a binary-encoded (BE) word can be worth half the full scale. This module
provides the fault machinery used by the error-tolerance benchmark:

* :func:`flip_bits` — i.i.d. bit flips on a stream batch;
* :func:`flip_binary_words` — the same fault rate applied to BE words;
* :func:`fault_sweep` — value-error-vs-fault-rate curves for both
  representations (the cross-over argument), including a faulted pass
  through an SC operator;
* :func:`stream_error_moments` / :func:`word_error_moments` — the exact
  mean and variance of one stream's or one word's value error at a fault
  rate, against which :func:`fault_sweep` states its measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._validation import as_bit_matrix, check_positive_int
from .exceptions import ReproError

__all__ = [
    "flip_bits",
    "flip_binary_words",
    "stream_error_moments",
    "word_error_moments",
    "FaultPoint",
    "fault_sweep",
]


def _check_rate(rate: float) -> float:
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise ReproError(f"fault rate must be in [0, 1], got {rate}")
    return rate


def flip_bits(
    bits: np.ndarray,
    rate: float,
    *,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Flip each bit of a stream (batch) independently with ``rate``."""
    arr = as_bit_matrix(bits)
    rate = _check_rate(rate)
    if rng is None:
        rng = np.random.default_rng(seed)
    mask = (rng.random(arr.shape) < rate).astype(np.uint8)
    return arr ^ mask


def flip_binary_words(
    words: np.ndarray,
    width: int,
    rate: float,
    *,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Flip each of the ``width`` bits of each word independently.

    Models the same physical fault rate hitting a binary-encoded register
    instead of a stochastic stream.
    """
    words = np.asarray(words, dtype=np.int64)
    width = check_positive_int(width, name="width")
    rate = _check_rate(rate)
    if words.size and (words.min() < 0 or words.max() >= (1 << width)):
        raise ReproError(f"words out of range for width {width}")
    if rng is None:
        rng = np.random.default_rng(seed)
    flips = rng.random((words.size, width)) < rate
    masks = (flips * (1 << np.arange(width))).sum(axis=1).astype(np.int64)
    return words ^ masks


def _binomial_pmf(trials: np.ndarray, p: float, size: int) -> np.ndarray:
    """Row ``i``: the pmf of Bin(``trials[i]``, ``p``) over ``0..size-1``
    (``size`` > every trial count)."""
    m = np.asarray(trials, dtype=np.int64)
    a = np.arange(size, dtype=np.int64)
    if p in (0.0, 1.0):
        return (a[None, :] == (m[:, None] if p else 0)).astype(np.float64)
    # log(j!) for j < size, then +inf where a negative index (a > m)
    # wraps around, so those entries come out as exp(-inf) = 0.
    log_fact = np.concatenate((
        [0.0], np.cumsum(np.log(np.arange(1, size))), np.full(size, np.inf)
    ))
    log_q = np.log1p(-p)
    return np.exp(
        (log_fact[m] + m * log_q)[:, None]
        + (a * (np.log(p) - log_q) - log_fact[a])[None, :]
        - log_fact[m[:, None] - a[None, :]]
    )


def stream_error_moments(
    levels: np.ndarray, rate: float, *, n: int = 256, width: int = 8
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact mean and variance, per level, of :func:`fault_sweep`'s SC
    value error: a stream of ``n`` bits holding ``k = level * n //
    2**width`` ones, every bit flipped independently with ``rate``,
    decoded against ``level / 2**width``.

    The faulted 1-count is ``k - F1 + F0`` with ``F1 ~ Bin(k, rate)``
    (ones lost) and ``F0 ~ Bin(n - k, rate)`` (zeros gained): one
    convolution of two binomial pmfs, for all levels at once by FFT (the
    count never exceeds ``n``, so any circular length above ``n`` is
    exact)."""
    rate = _check_rate(rate)
    levels = np.asarray(levels, dtype=np.int64)
    k = levels * n // (1 << width)
    size = 1 << n.bit_length()
    kept = np.fft.rfft(_binomial_pmf(k, 1.0 - rate, n + 1), size, axis=1)
    gained = np.fft.rfft(_binomial_pmf(n - k, rate, n + 1), size, axis=1)
    count_pmf = np.fft.irfft(kept * gained, size, axis=1)[:, : n + 1]
    error = np.abs(np.arange(n + 1) / n - (levels / (1 << width))[:, None])
    mean = (count_pmf * error).sum(axis=1)
    var = (count_pmf * error * error).sum(axis=1) - mean * mean
    return mean, np.maximum(var, 0.0)


def word_error_moments(
    levels: np.ndarray, rate: float, *, width: int = 8
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact mean and variance, per level, of :func:`fault_sweep`'s BE
    value error: a ``width``-bit word with every bit flipped
    independently with ``rate`` — a sum over the ``2**width`` flip
    masks."""
    rate = _check_rate(rate)
    levels = np.asarray(levels, dtype=np.int64)
    masks = np.arange(1 << width, dtype=np.int64)
    flips = sum((masks >> b) & 1 for b in range(width))
    prob = rate ** flips * (1.0 - rate) ** (width - flips)
    error = np.abs((levels[:, None] ^ masks[None, :]) - levels[:, None]) / (1 << width)
    mean = error @ prob
    return mean, np.maximum((error * error) @ prob - mean * mean, 0.0)


@dataclass(frozen=True)
class FaultPoint:
    """Error measurements at one fault rate, each with the exact
    expectation of its trial mean and that mean's standard deviation
    (over the drawn levels, from :func:`stream_error_moments` and
    :func:`word_error_moments`)."""

    rate: float
    sc_value_error: float
    be_value_error: float
    sc_multiply_error: float
    sc_expected_error: float
    sc_error_sd: float
    be_expected_error: float
    be_error_sd: float

    def as_row(self) -> list:
        return [
            self.rate,
            round(self.sc_value_error, 4),
            round(self.be_value_error, 4),
            round(self.sc_multiply_error, 4),
        ]


def fault_sweep(
    rates: Sequence[float] = (0.0, 0.001, 0.005, 0.01, 0.05, 0.1),
    *,
    n: int = 256,
    width: int = 8,
    trials: int = 64,
    seed: int = 0,
) -> List[FaultPoint]:
    """Value error vs fault rate for SC streams and BE words.

    For each rate: encode ``trials`` random values both ways, inject
    faults at the same per-bit rate, and measure mean absolute value
    error; additionally push two faulted SC streams through an AND
    multiplier to show the error tolerance composes through computation.
    Each point also carries the exact expectation and standard deviation
    of both value errors' trial means over the drawn levels.
    """
    check_positive_int(trials, name="trials")
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 1 << width, size=trials)
    values = levels / (1 << width)

    # Exact SC encodings (evenly spread 1s, the VDC shape).
    t = np.arange(n + 1, dtype=np.int64)
    streams = np.zeros((trials, n), dtype=np.uint8)
    for i, level in enumerate(levels):
        k = int(level * n) // (1 << width)
        marks = (t * k) // n
        streams[i] = (marks[1:] > marks[:-1]).astype(np.uint8)

    partner_levels = rng.integers(0, 1 << width, size=trials)
    partner_values = partner_levels / (1 << width)
    partners = np.zeros((trials, n), dtype=np.uint8)
    offset = n // 2
    for i, level in enumerate(partner_levels):
        k = int(level * n) // (1 << width)
        marks = (t * k) // n
        partners[i] = np.roll((marks[1:] > marks[:-1]).astype(np.uint8), offset)

    distinct, index = np.unique(levels, return_inverse=True)
    points: List[FaultPoint] = []
    for rate in rates:
        fault_rng = np.random.default_rng(seed + int(rate * 1e6) + 1)
        sc_faulted = flip_bits(streams, rate, rng=fault_rng)
        sc_error = float(np.abs(sc_faulted.mean(axis=1) - values).mean())

        be_faulted = flip_binary_words(levels, width, rate, rng=fault_rng)
        be_error = float(
            np.abs(be_faulted / (1 << width) - values).mean()
        )

        partner_faulted = flip_bits(partners, rate, rng=fault_rng)
        product = (sc_faulted & partner_faulted).mean(axis=1)
        mul_error = float(np.abs(product - values * partner_values).mean())

        sc_mean, sc_var = stream_error_moments(distinct, rate, n=n, width=width)
        be_mean, be_var = word_error_moments(distinct, rate, width=width)
        points.append(
            FaultPoint(
                rate=float(rate),
                sc_value_error=sc_error,
                be_value_error=be_error,
                sc_multiply_error=mul_error,
                sc_expected_error=float(sc_mean[index].mean()),
                sc_error_sd=float(np.sqrt(sc_var[index].sum())) / trials,
                be_expected_error=float(be_mean[index].mean()),
                be_error_sd=float(np.sqrt(be_var[index].sum())) / trials,
            )
        )
    return points
