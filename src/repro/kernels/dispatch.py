"""Kernel dispatch: route circuit evaluations to time-parallel executors.

Circuits keep their public API and their reference per-bit loops; their
``_process_bits`` / ``compute`` entry points first offer the evaluation to
this module. The dispatcher compiles the circuit's transition tables once
(cached on the instance), runs the appropriate stepper, and gathers the
output bits — or returns ``None``, in which case the caller falls back to
its reference loop. ``set_backend("reference")`` forces the fallback
everywhere (the equivalence tests and benchmarks use it to time and
compare the two paths).

The shuffle buffer gets a dedicated time-parallel kernel instead of a
transition table: its state space (``2**depth`` buffer contents times the
address phase) is large, but the circuit is a pure *bit relocation* — the
bit emitted at cycle ``t`` is the one last written to slot
``addresses[t]``, or the slot's contents entering the chunk if the chunk
has not written it yet. Each chunk's read index points every cycle at
its source in ``[contents | bits]`` (a slot's first hit at its entry
contents, every later hit at the bit its previous hit wrote), and one
``take`` reads the whole output for every batch row. When the address
RNG has a cacheable period (an LFSR, a counter, a narrow VDC) the index
comes from the buffer's :class:`_ShuffleCycle`, built once per instance
from one period of addresses: one period of the index, doubled out to
the chunk's length, with no address window. Other address sources (Halton, a wide VDC) take
:func:`shuffle_reads`, which finds every slot's hits in one pass per
slot over the chunk's address window. The one-shot kernel starts a
chunk from the initial fill, the tile carrier
(:mod:`repro.kernels.streaming`) from its carried contents.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional, Tuple

import numpy as np

from ..obs import counter_add
from ..obs import span as obs_span
from .steppers import STRATEGIES, chunked_outputs, state_trajectory
from .tables import CompiledFSM, compile_transform

__all__ = [
    "get_backend",
    "set_backend",
    "use_backend",
    "get_strategy",
    "set_strategy",
    "pair_kernel",
    "op_kernel",
    "tfm_kernel",
    "shuffle_kernel",
    "shuffle_reads",
    "compiled_kernel",
    "is_kernelized",
]

_BACKENDS = ("auto", "reference")

_backend = "auto"
_strategy = "auto"

_UNCOMPILABLE = object()        # instance-cache sentinel: compilation declined


def get_backend() -> str:
    """Current dispatch mode: ``"auto"`` (kernels) or ``"reference"``."""
    return _backend


def set_backend(mode: str) -> None:
    """Select ``"auto"`` (compiled kernels, the default) or
    ``"reference"`` (every circuit runs its original per-bit loop)."""
    global _backend
    if mode not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {mode!r}")
    _backend = mode


def get_strategy() -> str:
    """Current stepper strategy (``"auto"`` unless overridden)."""
    return _strategy


def set_strategy(strategy: str) -> None:
    """Force per-cycle stepping (``"step"``) or restore the chunked
    stepper (``"auto"``, the default)."""
    global _strategy
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    _strategy = strategy


@contextmanager
def use_backend(mode: str, *, strategy: Optional[str] = None):
    """Temporarily switch backend (and optionally stepper strategy)."""
    prev_backend, prev_strategy = _backend, _strategy
    set_backend(mode)
    if strategy is not None:
        set_strategy(strategy)
    try:
        yield
    finally:
        set_backend(prev_backend)
        set_strategy(prev_strategy)


def compiled_kernel(circuit) -> Optional[CompiledFSM]:
    """The circuit's compiled tables (built on first use, cached on the
    instance), or ``None`` if its type has no lowering."""
    cached = getattr(circuit, "_compiled_fsm_kernel", None)
    if cached is None:
        with obs_span("kernels.compile", circuit=type(circuit).__name__) as sp:
            cached = compile_transform(circuit)
            if cached is not None:
                sp.annotate(states=cached.n_states, outputs=cached.outputs)
        counter_add("kernels.compile")
        circuit._compiled_fsm_kernel = cached if cached is not None else _UNCOMPILABLE
    return None if cached is _UNCOMPILABLE else cached


def is_kernelized(transform) -> bool:
    """Does this transform execute time-parallel (no per-bit python loop)?

    Used by the engine's plan classifier. True for table-compiled FSMs,
    for circuits with dedicated vectorised kernels (shuffle buffer /
    decorrelator, TFM pair, isolator), and for series compositions whose
    every stage qualifies.
    """
    from ..core.compose import SeriesPair, SeriesStream
    from ..core.decorrelator import Decorrelator
    from ..core.isolator import Isolator, IsolatorPair
    from ..core.shuffle_buffer import ShuffleBuffer
    from ..core.tfm import TFMPair

    if type(transform) in (Decorrelator, TFMPair, Isolator, IsolatorPair, ShuffleBuffer):
        return True
    if type(transform) in (SeriesPair, SeriesStream):
        return all(is_kernelized(stage) for stage in transform.stages)
    return compiled_kernel(transform) is not None


# ---------------------------------------------------------------------- #
# Table-driven execution
# ---------------------------------------------------------------------- #

def _run_tables(
    fsm: CompiledFSM, x: np.ndarray, y: np.ndarray,
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Execute steady part + flush tail; returns ``(out_x, out_y)``.

    The chunked stepper emits output bits straight from its composed
    LUTs and builds chunk codes directly from the two input bit planes
    (the symbol matrix is never materialised); the ``"step"`` strategy
    recovers the state trajectory cycle by cycle and gathers outputs
    from it.
    """
    batch, length = x.shape
    tail = min(len(fsm.tails), length)
    steady_len = length - tail
    want_y = fsm.steady.out_y is not None

    if _strategy != "step":
        ox_steady, oy_steady, state = chunked_outputs(
            fsm, x[:, :steady_len], y[:, :steady_len],
            _initial_states(fsm, batch),
        )
        out_x = np.empty((batch, length), dtype=np.uint8)
        out_x[:, :steady_len] = ox_steady
        out_y = None
        if want_y:
            out_y = np.empty((batch, length), dtype=np.uint8)
            out_y[:, :steady_len] = oy_steady
    else:
        out_x = np.empty((batch, length), dtype=np.uint8)
        out_y = np.empty((batch, length), dtype=np.uint8) if want_y else None
        head = _pair_symbols(x[:, :steady_len], y[:, :steady_len])
        states, state = state_trajectory(fsm, head, strategy="step")
        out_x[:, :steady_len] = fsm.steady.out_x[head, states]
        if want_y:
            out_y[:, :steady_len] = fsm.steady.out_y[head, states]

    # Flush tail: per-remaining tables, O(depth) iterations total.
    for t in range(steady_len, length):
        table = fsm.tails[length - t - 1]
        sym_t = (x[:, t] << np.uint8(1)) | y[:, t]
        out_x[:, t] = table.out_x[sym_t, state]
        if want_y:
            out_y[:, t] = table.out_y[sym_t, state]
        state = table.next_state[sym_t, state]
    return out_x, out_y


def _initial_states(fsm: CompiledFSM, batch: int) -> np.ndarray:
    return np.full(batch, fsm.initial_state, dtype=fsm.steady.next_state.dtype)


def _pair_symbols(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x.astype(np.uint8) << np.uint8(1)) | y.astype(np.uint8)


def pair_kernel(
    circuit, x: np.ndarray, y: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Two-output FSM evaluation, or ``None`` to use the reference loop."""
    if _backend == "reference":
        return None
    fsm = compiled_kernel(circuit)
    if fsm is None or fsm.outputs != 2:
        return None
    # No-op for the usual uint8 matrices; tolerates wider int dtypes the
    # reference loops also accept (np.packbits insists on uint8/bool).
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    counter_add("kernels.dispatch.pair")
    return _run_tables(fsm, x, y)


def op_kernel(circuit, x: np.ndarray, y: np.ndarray) -> Optional[np.ndarray]:
    """Single-output FSM evaluation (CORDIV, CA adder, CA max), or
    ``None`` to use the reference loop."""
    if _backend == "reference":
        return None
    fsm = compiled_kernel(circuit)
    if fsm is None or fsm.outputs != 1:
        return None
    counter_add("kernels.dispatch.op")
    out, _ = _run_tables(fsm, np.asarray(x, dtype=np.uint8), np.asarray(y, dtype=np.uint8))
    return out


def tfm_kernel(tfm, bits: np.ndarray) -> Optional[np.ndarray]:
    """Tracking forecast memory: table-driven estimate trajectory, then
    one vectorised comparison against the auxiliary random sequence."""
    if _backend == "reference":
        return None
    fsm = compiled_kernel(tfm)
    if fsm is None:
        return None
    counter_add("kernels.dispatch.tfm")
    length = bits.shape[1]
    states, _ = state_trajectory(
        fsm, np.ascontiguousarray(bits, dtype=np.uint8), strategy=_strategy
    )
    rand = (tfm._rng.sequence(length) * (tfm._max + 1)) // tfm._rng.modulus
    return (rand[None, :] < states.astype(np.int64)).astype(np.uint8)


def shuffle_kernel(buffer, bits: np.ndarray) -> Optional[np.ndarray]:
    """Shuffle buffer as one gather: emit, per cycle, the bit last written
    to the addressed slot (or that slot's initial fill)."""
    if _backend == "reference":
        return None
    counter_add("kernels.dispatch.shuffle")
    out, _ = _shuffle_chunk(buffer, buffer._initial_buffer(bits.shape[0]), bits, 0)
    return out


def _shuffle_chunk(
    buffer, contents: np.ndarray, bits: np.ndarray, start: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``buffer`` over the chunk of ``bits`` at stream offset ``start``,
    entered holding ``contents``: ``(out, contents after)``. Addresses
    with a cacheable period read through the buffer's
    :class:`_ShuffleCycle` (built on first use, cached on the instance;
    an aperiodic RNG caches ``False``, which survives pickling to pool
    workers); others take :func:`shuffle_reads`' pass per slot over the
    chunk's address window."""
    cycle = getattr(buffer, "_shuffle_cycle", None)
    if cycle is None:
        period = buffer.rng._period_values()
        cycle = False if period is None else _ShuffleCycle(
            (period * buffer.depth) // buffer.rng.modulus, buffer.depth
        )
        buffer._shuffle_cycle = cycle
    if cycle is not False:
        return cycle.reads(contents, bits, start)
    counter_add("kernels.shuffle.fallback.aperiodic")
    addresses = buffer.rng.integers_window(
        start, start + bits.shape[1], buffer.depth
    )
    return shuffle_reads(contents, bits, addresses)


class _ShuffleCycle:
    """Shuffle reads indexed from one period of slot addresses.

    With ``slots[c]`` the slot addressed at phase ``c`` of a period of
    ``P`` cycles, ``back[c]`` (1 to ``P``) is how many cycles earlier the
    same slot was last addressed, cyclically. The chunk cycle ``t`` at
    phase ``c`` reads ``index[t] = t - back[c] + depth`` in the
    ``[contents | bits]`` pool: the bit written ``back[c]`` cycles
    earlier. An index below ``depth`` marks the slot's first hit in the
    chunk, which reads its entry contents (``src = slot``) instead and
    can only fall in the chunk's first ``P`` cycles. Carried on for one
    period past the chunk's end, the same index finds each slot's next
    hit there, and so the chunk's last write to it (or none: an index
    below ``depth``). ``slots`` is stored twice over, so the head's and
    the tail's slots are plain slices at any phase.
    """

    def __init__(self, slots: np.ndarray, depth: int) -> None:
        period = slots.size
        # Phases grouped by slot, ascending within a slot; the phase
        # before a slot's first one is its last one a period earlier.
        order = np.argsort(slots, kind="stable")
        grouped = slots[order]
        firsts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        prev = np.empty(period, dtype=np.intp)
        prev[1:] = order[:-1]
        prev[firsts] = order[np.r_[firsts[1:], period] - 1] - period
        self._period = period
        self._depth = depth
        self._slots = np.tile(slots.astype(np.intp), 2)
        # base[c] = c - back[c] + depth: phase c's index in the first
        # period (prev is negative where the slot's previous phase lies a
        # period earlier).
        self._base = np.empty(period, dtype=np.intp)
        self._base[order] = prev + depth

    def reads(
        self, contents: np.ndarray, bits: np.ndarray, start: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The chunk of ``bits`` at stream offset ``start``:
        ``(out, contents after)``, as :func:`shuffle_reads` returns."""
        length = bits.shape[1]
        period, depth = self._period, self._depth
        phase = start % period
        # index[u] = u - back[u % P] + depth - phase, from the start of
        # the chunk's first period to a period past its end: one period,
        # then doublings, each adding a whole number of periods to what is
        # filled (a broadcast add over (rows, P) pays a call per row).
        size = phase + length + period
        index = np.empty(size, dtype=np.intp)
        np.subtract(self._base, phase, out=index[:period])
        filled = period
        while filled < size:
            step = min(filled, size - filled)
            np.add(index[:step], filled, out=index[filled:filled + step])
            filled += step
        src = index[phase:phase + length]
        after = index[phase + length:phase + length + period]
        head = min(period, length)
        first = src[:head] < depth
        src[:head][first] = self._slots[phase:phase + head][first]
        tail = (phase + length) % period
        written = (after >= depth) & (after < length + depth)
        last = np.arange(depth, dtype=np.intp)
        last[self._slots[tail:tail + period][written]] = after[written]
        return _pool_take(contents, bits, src, last)


def shuffle_reads(
    contents: np.ndarray, bits: np.ndarray, addresses: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """A shuffle buffer over one chunk: ``(out, contents after)``.

    ``contents`` is the ``(batch, depth)`` buffer entering the chunk,
    ``bits`` the ``(batch, length)`` inputs and ``addresses`` the slot
    addressed at each cycle. Both results are gathers from
    ``pool = [contents | bits]``: a slot's first hit reads its entry
    contents (``src = slot``), every later hit the bit its previous hit
    wrote (``src = previous hit + depth``), and each slot leaves holding
    its last write, or its entry contents if the chunk never addressed
    it. One pass per slot finds the hits: the path for addresses without
    a cacheable period, and the oracle for :class:`_ShuffleCycle`.
    """
    length = bits.shape[1]
    depth = contents.shape[1]
    # The narrowest dtype that holds a slot makes each pass cheaper.
    addresses = addresses.astype(np.min_scalar_type(depth - 1), copy=False)
    src = np.empty(length, dtype=np.intp)
    last = np.arange(depth, dtype=np.intp)
    for slot in range(depth):
        hits = np.flatnonzero(addresses == slot)
        if hits.size:
            src[hits[0]] = slot
            src[hits[1:]] = hits[:-1] + depth
            last[slot] = hits[-1] + depth
    return _pool_take(contents, bits, src, last)


def _pool_take(
    contents: np.ndarray, bits: np.ndarray, src: np.ndarray, last: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Gather the chunk's outputs (``src``) and the contents it leaves
    (``last``) from ``pool = [contents | bits]``; one index serves every
    batch row."""
    batch, length = bits.shape
    depth = contents.shape[1]
    pool = np.empty((batch, depth + length), dtype=np.uint8)
    pool[:, :depth] = contents
    pool[:, depth:] = bits
    return pool.take(src, axis=1), pool.take(last, axis=1)
