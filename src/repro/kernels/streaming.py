"""Resumable (carry-state) execution of sequential circuits.

The kernels in :mod:`repro.kernels.dispatch` evaluate a whole stream per
call: every circuit restarts from its initial state. Tile streaming needs
the opposite — a stream arrives chunk by chunk, and the circuit's state
must survive the chunk boundary. This module wraps each kernelized
circuit type in a **carrier**: a small stateful object created once per
stream evaluation whose ``step(...)`` consumes consecutive chunks and is
bit-identical to the one-shot kernel over the concatenation.

Carrier construction mirrors :func:`repro.kernels.dispatch.is_kernelized`:

* table-compiled pair FSMs (synchronizer, desynchronizer, flush modes
  included) resume via :func:`repro.kernels.steppers.step_chunk`;
* the shuffle buffer carries its ``depth``-slot contents plus the stream
  offset; each chunk is one gather of the one-shot kernel's, indexed
  from the buffer's address cycle at the chunk's offset (or, for an
  address RNG without a cacheable period, from the RNG's address window
  by :func:`repro.kernels.dispatch.shuffle_reads`);
* the isolator carries its last ``delay`` input bits;
* the TFM carries its estimate register; its auxiliary comparator
  sequence is windowed;
* decorrelator / isolator-pair / TFM-pair / series compositions compose
  carriers of their parts.

:func:`make_pair_carrier` returns ``None`` for circuits without a
resumable lowering — callers fall back to whole-stream evaluation.

Next to each carrier lives a **composer** — the same circuit viewed as a
*transition function* instead of a concrete state. A composer's
``step(...)`` consumes a chunk of inputs and folds it into a **state
map**: a picklable summary that, applied to *any* entry state, yields
the exit state the carrier would have reached. Maps compose
associatively (``tests/test_parallel_streaming.py`` property-checks
this), which is the prefix-scan precondition the parallel tile scheduler
(:mod:`repro.engine.parallel`) is built on: each worker composes its
span's map independently, a scan over the maps recovers every span's
entry state, then carriers seeded at those states evaluate all spans in
parallel — bit-identical to a one-span walk.

Map representations per circuit:

* table FSMs (incl. the TFM's estimate register, a 2-symbol FSM over
  ``2**bits`` states) — a ``(batch, n_states)`` array advanced by
  :func:`repro.kernels.steppers.compose_chunk`; compose is a gather,
  apply a row lookup;
* shuffle buffer — ``(written, values)``: which slots the span wrote,
  and the last bit written to each (addresses are position-only, so the
  map is input-affine); a chunk's last writes are searched back from its
  end, asking the RNG only for the tail that holds them; compose
  overlays the later map's writes;
* isolator — the span's last ``min(delay, span_len)`` input bits;
  compose concatenates and truncates;
* decorrelator / TFM-pair / isolator-pair — componentwise maps of their
  parts.

**Series compositions have no composer** (``make_pair_composer`` /
``make_stream_composer`` return ``None``): stage B's inputs depend on
stage A's outputs, which depend on stage A's unknown entry state, so a
span's transition function would need the product state space. Plans
containing them walk as one span — documented in
``docs/architecture.md``.
"""

from __future__ import annotations

import abc
from typing import Any, Optional, Tuple

import numpy as np

from .dispatch import _shuffle_chunk, compiled_kernel
from .steppers import compose_chunk, state_trajectory, step_chunk
from .tables import CompiledFSM

__all__ = [
    "PairCarrier",
    "StreamCarrier",
    "PairComposer",
    "StreamComposer",
    "make_pair_carrier",
    "make_stream_carrier",
    "make_pair_composer",
    "make_stream_composer",
]


class StreamCarrier(abc.ABC):
    """Resumable one-in / one-out circuit execution."""

    @abc.abstractmethod
    def step(self, bits: np.ndarray) -> np.ndarray:
        """Consume the next ``(batch, chunk_len)`` chunk; return the
        like-shaped output chunk."""

    @abc.abstractmethod
    def get_state(self) -> Any:
        """A picklable snapshot of the carried state."""

    @abc.abstractmethod
    def set_state(self, state: Any) -> None:
        """Restore a snapshot produced by :meth:`get_state` (or by a
        composer's ``apply``)."""


class PairCarrier(abc.ABC):
    """Resumable two-in / two-out circuit execution."""

    @abc.abstractmethod
    def step(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Consume the next chunk of both operands; return both outputs."""

    @abc.abstractmethod
    def get_state(self) -> Any:
        """A picklable snapshot of the carried state."""

    @abc.abstractmethod
    def set_state(self, state: Any) -> None:
        """Restore a snapshot produced by :meth:`get_state` (or by a
        composer's ``apply``)."""


class StreamComposer(abc.ABC):
    """State-map composition for a one-input circuit.

    ``step`` folds a chunk of inputs into the running map; ``state_map``
    exposes it (picklable). ``compose``/``apply`` are pure map algebra —
    usable on maps produced by *any* instance over the same circuit.
    """

    @abc.abstractmethod
    def step(self, bits: np.ndarray) -> None:
        """Fold the next ``(batch, chunk_len)`` input chunk into the map."""

    @property
    @abc.abstractmethod
    def state_map(self) -> Any:
        """The composed map of every chunk stepped so far."""

    @abc.abstractmethod
    def compose(self, first: Any, second: Any) -> Any:
        """The map of ``first``'s span followed by ``second``'s."""

    @abc.abstractmethod
    def apply(self, state_map: Any, state: Any) -> Any:
        """Push a carrier state through a map: the exit state of a span
        entered in ``state``."""


class PairComposer(abc.ABC):
    """State-map composition for a two-input circuit (same contract as
    :class:`StreamComposer`, with a two-operand ``step``)."""

    @abc.abstractmethod
    def step(self, x: np.ndarray, y: np.ndarray) -> None:
        """Fold the next chunk of both operands into the map."""

    @property
    @abc.abstractmethod
    def state_map(self) -> Any:
        ...

    @abc.abstractmethod
    def compose(self, first: Any, second: Any) -> Any:
        ...

    @abc.abstractmethod
    def apply(self, state_map: Any, state: Any) -> Any:
        ...


# ---------------------------------------------------------------------- #
# Table-compiled pair FSMs
# ---------------------------------------------------------------------- #

class TablePairCarrier(PairCarrier):
    """Carrier over a compiled two-output transition-table FSM.

    ``total_length`` lets flush-mode circuits locate the end-of-stream
    tail region across chunk boundaries (``step_chunk`` receives how many
    cycles remain after each chunk); ``start`` positions the carrier
    mid-stream for span-parallel evaluation.
    """

    def __init__(
        self, fsm: CompiledFSM, total_length: int, batch: int, start: int = 0
    ) -> None:
        self._fsm = fsm
        self._remaining = int(total_length) - int(start)
        self._state = np.full(
            batch, fsm.initial_state, dtype=fsm.steady.next_state.dtype
        )

    def step(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        self._remaining -= x.shape[1]
        if self._remaining < 0:
            raise ValueError("carrier stepped past the declared stream length")
        self._state, out_x, out_y = step_chunk(
            self._fsm, self._state, x, y, remaining_after=self._remaining
        )
        return out_x, out_y

    def get_state(self) -> np.ndarray:
        return self._state.copy()

    def set_state(self, state: np.ndarray) -> None:
        self._state = np.asarray(
            state, dtype=self._fsm.steady.next_state.dtype
        ).copy()


def _identity_map(fsm: CompiledFSM, batch: int) -> np.ndarray:
    return np.broadcast_to(
        np.arange(fsm.n_states, dtype=fsm.steady.next_state.dtype),
        (batch, fsm.n_states),
    ).copy()


class TablePairComposer(PairComposer):
    """State maps of a compiled pair FSM over a span of the stream.

    The map is a ``(batch, n_states)`` array: column ``s`` holds the exit
    state of a span entered in state ``s``. Flush tails are positional —
    they depend on where the span ends, not on the entry state — so maps
    across tail-straddling spans stay exact.
    """

    def __init__(
        self, fsm: CompiledFSM, total_length: int, batch: int, start: int = 0
    ) -> None:
        self._fsm = fsm
        self._remaining = int(total_length) - int(start)
        self._map = _identity_map(fsm, batch)

    def step(self, x: np.ndarray, y: np.ndarray) -> None:
        self._remaining -= x.shape[1]
        if self._remaining < 0:
            raise ValueError("composer stepped past the declared stream length")
        symbols = (x.astype(np.uint8) << np.uint8(1)) | y.astype(np.uint8)
        self._map = compose_chunk(
            self._fsm, self._map, symbols, remaining_after=self._remaining
        )

    @property
    def state_map(self) -> np.ndarray:
        return self._map

    def compose(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        return np.take_along_axis(second, first.astype(np.int64), axis=1)

    def apply(self, state_map: np.ndarray, state: np.ndarray) -> np.ndarray:
        picked = np.take_along_axis(
            state_map, state.astype(np.int64)[:, None], axis=1
        )
        return picked[:, 0].astype(self._fsm.steady.next_state.dtype)


# ---------------------------------------------------------------------- #
# Stream circuits with dedicated carriers
# ---------------------------------------------------------------------- #

class ShuffleCarrier(StreamCarrier):
    """Shuffle buffer with carried slot contents and stream offset: each
    chunk is the one-shot kernel's gather from the carried contents (the
    kernel starts it from the initial fill), its read index taken from
    the buffer's address cycle at the chunk's offset when the address RNG
    has a cacheable period, else from a pass per slot over the RNG's
    address window."""

    def __init__(self, buffer, batch: int, start: int = 0) -> None:
        self._buffer = buffer
        self._contents = buffer._initial_buffer(batch)    # (batch, depth)
        self._offset = int(start)

    def step(self, bits: np.ndarray) -> np.ndarray:
        out, self._contents = _shuffle_chunk(
            self._buffer, self._contents, bits, self._offset
        )
        self._offset += bits.shape[1]
        return out

    def get_state(self) -> np.ndarray:
        return self._contents.copy()

    def set_state(self, state: np.ndarray) -> None:
        self._contents = np.asarray(state, dtype=np.uint8).copy()


class ShuffleComposer(StreamComposer):
    """Shuffle-buffer state maps: the slot addresses are a pure function
    of stream position, so a span's effect on the buffer is *input-affine*
    — ``(written, values)``: which slots the span wrote at all, and the
    bit each received from its last write. Entry contents only survive in
    slots the span never addressed.

    Only each slot's last write matters, so ``step`` searches back from
    the chunk's end through windows of 64, 64, 128, 256, … cycles (the
    searched tail doubles) until every slot has been seen, and asks the
    RNG for those windows only. A slot the chunk never addresses makes
    the search cover the whole chunk."""

    def __init__(self, buffer, batch: int, start: int = 0) -> None:
        self._buffer = buffer
        self._offset = int(start)
        self._written = np.zeros(buffer.depth, dtype=bool)
        self._values = np.zeros((batch, buffer.depth), dtype=np.uint8)

    def step(self, bits: np.ndarray) -> None:
        buffer = self._buffer
        length = bits.shape[1]
        start = self._offset
        self._offset += length
        # slot_last[s]: chunk index of slot s's last write, -1 if none.
        # Windows are searched latest first, so a later hit is never
        # overwritten by an earlier one.
        slot_last = np.full(buffer.depth, -1, dtype=np.int64)
        stop, tail = length, 64
        while stop > 0 and (slot_last < 0).any():
            begin = max(0, length - tail)
            addresses = buffer.rng.integers_window(
                start + begin, start + stop, buffer.depth
            )
            np.maximum.at(slot_last, addresses, np.arange(begin, stop))
            stop, tail = begin, 2 * tail
        written = slot_last >= 0
        if written.any():
            self._written |= written
            self._values[:, written] = bits[:, slot_last[written]]

    @property
    def state_map(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._written, self._values

    def compose(self, first, second) -> Tuple[np.ndarray, np.ndarray]:
        w1, v1 = first
        w2, v2 = second
        return w1 | w2, np.where(w2[None, :], v2, v1)

    def apply(self, state_map, state: np.ndarray) -> np.ndarray:
        written, values = state_map
        return np.where(written[None, :], values, state).astype(np.uint8)


class IsolatorCarrier(StreamCarrier):
    """Fixed delay line with a carried ``delay``-bit history."""

    def __init__(self, isolator, batch: int) -> None:
        self._history = np.full(
            (batch, isolator.delay), isolator._fill, dtype=np.uint8
        )

    def step(self, bits: np.ndarray) -> np.ndarray:
        length = bits.shape[1]
        extended = np.concatenate([self._history, bits], axis=1)
        self._history = extended[:, length:]
        return np.ascontiguousarray(extended[:, :length])

    def get_state(self) -> np.ndarray:
        return self._history.copy()

    def set_state(self, state: np.ndarray) -> None:
        self._history = np.asarray(state, dtype=np.uint8).copy()


class IsolatorComposer(StreamComposer):
    """Delay-line state maps: a span leaves the line holding the span's
    last ``delay`` input bits, preceded (for short spans) by the tail of
    whatever was there before — so the map is just the span's trailing
    ``min(delay, span_len)`` bits and compose is concat-and-truncate."""

    def __init__(self, isolator, batch: int) -> None:
        self._delay = int(isolator.delay)
        self._tail = np.empty((batch, 0), dtype=np.uint8)

    def step(self, bits: np.ndarray) -> None:
        self._tail = np.concatenate([self._tail, bits], axis=1)[:, -self._delay:]

    @property
    def state_map(self) -> np.ndarray:
        return self._tail

    def compose(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        return np.concatenate([first, second], axis=1)[:, -self._delay:]

    def apply(self, state_map: np.ndarray, state: np.ndarray) -> np.ndarray:
        merged = np.concatenate([state, state_map], axis=1)[:, -self._delay:]
        return np.ascontiguousarray(merged, dtype=np.uint8)


class TFMCarrier(StreamCarrier):
    """Tracking forecast memory with a carried estimate register."""

    def __init__(self, tfm, fsm: CompiledFSM, batch: int, start: int = 0) -> None:
        self._tfm = tfm
        self._fsm = fsm
        self._offset = int(start)
        self._state = np.full(
            batch, fsm.initial_state, dtype=fsm.steady.next_state.dtype
        )

    def step(self, bits: np.ndarray) -> np.ndarray:
        tfm = self._tfm
        length = bits.shape[1]
        states, self._state = state_trajectory(
            self._fsm,
            np.ascontiguousarray(bits, dtype=np.uint8),
            initial=self._state,
        )
        window = tfm._rng.sequence_window(self._offset, self._offset + length)
        self._offset += length
        rand = (window * (tfm._max + 1)) // tfm._rng.modulus
        return (rand[None, :] < states.astype(np.int64)).astype(np.uint8)

    def get_state(self) -> np.ndarray:
        return self._state.copy()

    def set_state(self, state: np.ndarray) -> None:
        self._state = np.asarray(
            state, dtype=self._fsm.steady.next_state.dtype
        ).copy()


class FSMStreamComposer(StreamComposer):
    """State maps of a single-input compiled FSM (the TFM's estimate
    register: 2 symbols over ``2**bits`` states). The EMA transition has
    no closed-form composition, but the generic ``(batch, n_states)``
    map advance through the composed chunk LUTs needs none."""

    def __init__(self, fsm: CompiledFSM, batch: int) -> None:
        self._fsm = fsm
        self._map = _identity_map(fsm, batch)

    def step(self, bits: np.ndarray) -> None:
        symbols = np.ascontiguousarray(bits, dtype=np.uint8)
        self._map = compose_chunk(self._fsm, self._map, symbols)

    @property
    def state_map(self) -> np.ndarray:
        return self._map

    def compose(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        return np.take_along_axis(second, first.astype(np.int64), axis=1)

    def apply(self, state_map: np.ndarray, state: np.ndarray) -> np.ndarray:
        picked = np.take_along_axis(
            state_map, state.astype(np.int64)[:, None], axis=1
        )
        return picked[:, 0].astype(self._fsm.steady.next_state.dtype)


class SeriesStreamCarrier(StreamCarrier):
    def __init__(self, stages) -> None:
        self._stages = stages

    def step(self, bits: np.ndarray) -> np.ndarray:
        for stage in self._stages:
            bits = stage.step(bits)
        return bits

    def get_state(self) -> Tuple:
        return tuple(stage.get_state() for stage in self._stages)

    def set_state(self, state: Tuple) -> None:
        for stage, sub in zip(self._stages, state):
            stage.set_state(sub)


# ---------------------------------------------------------------------- #
# Pair adapters
# ---------------------------------------------------------------------- #

class TwoStreamPairCarrier(PairCarrier):
    """A pair circuit made of one independent stream carrier per operand
    (decorrelator, TFM pair)."""

    def __init__(self, carrier_x: StreamCarrier, carrier_y: StreamCarrier) -> None:
        self._cx = carrier_x
        self._cy = carrier_y

    def step(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self._cx.step(x), self._cy.step(y)

    def get_state(self) -> Tuple:
        return self._cx.get_state(), self._cy.get_state()

    def set_state(self, state: Tuple) -> None:
        self._cx.set_state(state[0])
        self._cy.set_state(state[1])


class TwoStreamPairComposer(PairComposer):
    """Componentwise maps: the operands never interact, so the pair's
    map is just the pair of per-operand maps."""

    def __init__(self, composer_x: StreamComposer, composer_y: StreamComposer) -> None:
        self._cx = composer_x
        self._cy = composer_y

    def step(self, x: np.ndarray, y: np.ndarray) -> None:
        self._cx.step(x)
        self._cy.step(y)

    @property
    def state_map(self) -> Tuple:
        return self._cx.state_map, self._cy.state_map

    def compose(self, first, second) -> Tuple:
        return (
            self._cx.compose(first[0], second[0]),
            self._cy.compose(first[1], second[1]),
        )

    def apply(self, state_map, state) -> Tuple:
        return (
            self._cx.apply(state_map[0], state[0]),
            self._cy.apply(state_map[1], state[1]),
        )


class PassthroughYPairCarrier(PairCarrier):
    """X passes through combinationally; Y goes through a stream carrier
    (isolator-pair insertion)."""

    def __init__(self, carrier_y: StreamCarrier) -> None:
        self._cy = carrier_y

    def step(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return x, self._cy.step(y)

    def get_state(self) -> Any:
        return self._cy.get_state()

    def set_state(self, state: Any) -> None:
        self._cy.set_state(state)


class PassthroughYPairComposer(PairComposer):
    def __init__(self, composer_y: StreamComposer) -> None:
        self._cy = composer_y

    def step(self, x: np.ndarray, y: np.ndarray) -> None:
        self._cy.step(y)

    @property
    def state_map(self) -> Any:
        return self._cy.state_map

    def compose(self, first, second):
        return self._cy.compose(first, second)

    def apply(self, state_map, state):
        return self._cy.apply(state_map, state)


class SeriesPairCarrier(PairCarrier):
    def __init__(self, stages) -> None:
        self._stages = stages

    def step(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        for stage in self._stages:
            x, y = stage.step(x, y)
        return x, y

    def get_state(self) -> Tuple:
        return tuple(stage.get_state() for stage in self._stages)

    def set_state(self, state: Tuple) -> None:
        for stage, sub in zip(self._stages, state):
            stage.set_state(sub)


# ---------------------------------------------------------------------- #
# Factories
# ---------------------------------------------------------------------- #

def make_stream_carrier(
    transform, total_length: int, batch: int, start: int = 0
) -> Optional[StreamCarrier]:
    """A resumable carrier for a stream transform, or ``None``.

    ``start`` positions offset-addressed circuits (shuffle addresses,
    TFM comparator windows) mid-stream for span-parallel evaluation; the
    carried *state* still starts at the circuit's initial state — seed it
    with :meth:`~StreamCarrier.set_state` for spans past the first.
    """
    from ..core.compose import SeriesStream
    from ..core.isolator import Isolator
    from ..core.shuffle_buffer import ShuffleBuffer
    from ..core.tfm import TrackingForecastMemory

    if type(transform) is ShuffleBuffer:
        return ShuffleCarrier(transform, batch, start)
    if type(transform) is Isolator:
        return IsolatorCarrier(transform, batch)
    if type(transform) is TrackingForecastMemory:
        fsm = compiled_kernel(transform)
        if fsm is None:
            return None
        return TFMCarrier(transform, fsm, batch, start)
    if type(transform) is SeriesStream:
        stages = [
            make_stream_carrier(stage, total_length, batch, start)
            for stage in transform.stages
        ]
        if any(stage is None for stage in stages):
            return None
        return SeriesStreamCarrier(stages)
    return None


def make_pair_carrier(
    transform, total_length: int, batch: int, start: int = 0
) -> Optional[PairCarrier]:
    """A resumable carrier for a pair transform, or ``None`` when the
    circuit has no chunk-resumable lowering (callers fall back to
    whole-stream evaluation)."""
    from ..core.compose import SeriesPair
    from ..core.decorrelator import Decorrelator
    from ..core.isolator import IsolatorPair
    from ..core.tfm import TFMPair

    if type(transform) is Decorrelator:
        cx = make_stream_carrier(transform.buffer_x, total_length, batch, start)
        cy = make_stream_carrier(transform.buffer_y, total_length, batch, start)
        return TwoStreamPairCarrier(cx, cy)
    if type(transform) is IsolatorPair:
        return PassthroughYPairCarrier(
            IsolatorCarrier(transform._isolator, batch)
        )
    if type(transform) is TFMPair:
        cx = make_stream_carrier(transform._tfm_x, total_length, batch, start)
        cy = make_stream_carrier(transform._tfm_y, total_length, batch, start)
        if cx is None or cy is None:
            return None
        return TwoStreamPairCarrier(cx, cy)
    if type(transform) is SeriesPair:
        stages = [
            make_pair_carrier(stage, total_length, batch, start)
            for stage in transform.stages
        ]
        if any(stage is None for stage in stages):
            return None
        return SeriesPairCarrier(stages)
    fsm = compiled_kernel(transform)
    if fsm is not None and fsm.outputs == 2 and fsm.n_symbols == 4:
        return TablePairCarrier(fsm, total_length, batch, start)
    return None


def make_stream_composer(
    transform, total_length: int, batch: int, start: int = 0
) -> Optional[StreamComposer]:
    """A state-map composer for a stream transform, or ``None`` when the
    circuit's transition function does not compose (series compositions —
    callers force the sequential path)."""
    from ..core.isolator import Isolator
    from ..core.shuffle_buffer import ShuffleBuffer
    from ..core.tfm import TrackingForecastMemory

    if type(transform) is ShuffleBuffer:
        return ShuffleComposer(transform, batch, start)
    if type(transform) is Isolator:
        return IsolatorComposer(transform, batch)
    if type(transform) is TrackingForecastMemory:
        fsm = compiled_kernel(transform)
        if fsm is None:
            return None
        return FSMStreamComposer(fsm, batch)
    return None


def make_pair_composer(
    transform, total_length: int, batch: int, start: int = 0
) -> Optional[PairComposer]:
    """A state-map composer for a pair transform, or ``None`` when the
    circuit's transition function does not compose (series compositions,
    unkernelized circuits — callers force the sequential path)."""
    from ..core.decorrelator import Decorrelator
    from ..core.isolator import IsolatorPair
    from ..core.tfm import TFMPair

    if type(transform) is Decorrelator:
        cx = make_stream_composer(transform.buffer_x, total_length, batch, start)
        cy = make_stream_composer(transform.buffer_y, total_length, batch, start)
        if cx is None or cy is None:
            return None
        return TwoStreamPairComposer(cx, cy)
    if type(transform) is IsolatorPair:
        return PassthroughYPairComposer(
            IsolatorComposer(transform._isolator, batch)
        )
    if type(transform) is TFMPair:
        cx = make_stream_composer(transform._tfm_x, total_length, batch, start)
        cy = make_stream_composer(transform._tfm_y, total_length, batch, start)
        if cx is None or cy is None:
            return None
        return TwoStreamPairComposer(cx, cy)
    fsm = compiled_kernel(transform)
    if fsm is not None and fsm.outputs == 2 and fsm.n_symbols == 4:
        return TablePairComposer(fsm, total_length, batch, start)
    return None
