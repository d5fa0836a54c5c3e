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
has not written it yet. :func:`shuffle_reads` finds every slot's hits in
one pass per slot, points each hit at its source in ``[contents | bits]``
(a slot's first hit at its entry contents, every later hit at the bit
its previous hit wrote), and reads the whole output with a single
``take``. The one-shot kernel runs it from the initial fill, the tile
carrier (:mod:`repro.kernels.streaming`) from its carried contents.
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
    batch, length = bits.shape
    addresses = buffer.rng.integers(length, buffer.depth)
    out, _ = shuffle_reads(buffer._initial_buffer(batch), bits, addresses)
    return out


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
    it. One pass per slot finds the hits.
    """
    batch, length = bits.shape
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
    pool = np.empty((batch, depth + length), dtype=np.uint8)
    pool[:, :depth] = contents
    pool[:, depth:] = bits
    return pool.take(src, axis=1), pool.take(last, axis=1)
