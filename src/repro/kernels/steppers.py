"""Time-parallel execution of compiled transition tables.

The reference FSM loops run one numpy masked-update pass *per stream bit*
— ``O(length)`` python-level iterations, each touching only ``batch``
elements. Given a :class:`~repro.kernels.tables.CompiledFSM`, the steppers
here recover the state trajectory with far fewer, far fatter numpy calls:

* **chunked-LUT stepper** — pre-composes the per-symbol transition
  functions over every possible ``k``-symbol window into one LUT
  ``(symbol-chunk code, state) -> state`` (``n_symbols**k * n_states``
  entries, cached per FSM). The LUT is built by doubling: the 2-, 4-,
  8-… step maps are each one gather of the previous map through itself,
  and the binary digits of ``k`` pick which of them to chain, so a build
  costs about ``log2 k`` gathers instead of ``k`` full passes. The time
  loop then advances ``k`` cycles per lookup: ``length/k + 2k`` python
  iterations. A batch of rows is advanced with one fancy-indexed gather
  over the whole batch per chunk; a single row (``batch == 1``, the
  tile-streaming shape) is walked with python ints through a zero-copy
  ``memoryview`` of the LUT, because a numpy call per chunk on a 1-row
  array costs far more dispatch than lookup.
* **log-doubling scan stepper** — materialises each cycle's transition
  function as a ``(batch, length, n_states)`` state-map tensor and
  composes prefixes associatively by Hillis–Steele doubling:
  ``O(log length)`` python iterations of ``O(batch * length * n_states)``
  gathers. Wins when the batch is small and the stream long (the chunked
  stepper's per-call overhead dominates there).

Both produce the exact state sequence of the reference loop — the
trajectory is defined by the tables, and the tables are exact — so the
outputs gathered from them are bit-identical. ``strategy="auto"`` picks
per ``(length, batch, n_states)`` with a simple cost model.
"""

from __future__ import annotations

import math
import sys
from typing import Optional, Tuple

import numpy as np

from .tables import CompiledFSM

__all__ = [
    "state_trajectory",
    "chunked_outputs",
    "step_chunk",
    "compose_chunk",
    "choose_chunk",
    "choose_strategy",
    "STRATEGIES",
]

STRATEGIES = ("auto", "chunked", "scan", "step")

# Composed chunk LUTs are capped at this many entries (~2 MB of int16).
_CHUNK_TABLE_LIMIT = 1 << 20
_MAX_CHUNK = 16

# Rough element-equivalent cost of one python-level numpy dispatch; used
# only to pick a strategy, so the exact value is uncritical.
_CALL_OVERHEAD = 4096

# The scan tensor is (batch, length, n_states) int16; refuse to build one
# beyond this many elements (auto falls back to chunked).
_SCAN_ELEMENT_LIMIT = 1 << 27


def choose_chunk(n_symbols: int, n_states: int) -> int:
    """Largest ``k`` whose composed chunk LUT stays within the size cap."""
    k = 1
    while (
        k < _MAX_CHUNK
        and n_symbols ** (k + 1) * n_states <= _CHUNK_TABLE_LIMIT
    ):
        k += 1
    return k


def choose_strategy(batch: int, length: int, n_states: int, n_symbols: int) -> str:
    """Cost-model pick between the chunked and scan steppers."""
    if length <= 1:
        return "step"
    k = choose_chunk(n_symbols, n_states)
    chunks = length // k
    chunk_cost = (
        batch * length                      # intra-chunk expansion gathers
        + batch * chunks                    # chunk-entry gathers
        + _CALL_OVERHEAD * (chunks + k + (length - chunks * k))
    )
    rounds = max(1, math.ceil(math.log2(length)))
    scan_elements = batch * length * n_states
    scan_cost = scan_elements * (rounds + 1) + _CALL_OVERHEAD * (rounds + 2)
    if scan_cost < chunk_cost and scan_elements <= _SCAN_ELEMENT_LIMIT:
        return "scan"
    return "chunked"


def _composed_table(fsm: CompiledFSM, k: int, fused: bool) -> np.ndarray:
    """The k-step composition LUT, cached per ``(k, fused)``.

    Chunk codes pack symbols little-endian: ``code = sum_j sym_j *
    n_symbols**j`` where step ``j`` is applied ``j``-th.

    * ``fused=False`` — the plain state map: ``comp[code, s]`` is the
      state after the k steps (trajectory steppers).
    * ``fused=True`` — a uint32 LUT whose low 16 bits hold that state and
      whose high 16 bits pack the k per-step output bits: bit
      ``16 + 2j`` is step ``j``'s ``out_x``, bit ``16 + 2j + 1`` its
      ``out_y`` (single-output circuits use bit ``16 + j``). One gather
      per chunk then yields both the state advance and the output bits.
      Requires ``stride * k <= 16`` (the caller caps k).

    Built by doubling (see :func:`_then`): the ``2**i``-step maps come
    from squaring, and the ones at ``k``'s set bits are chained, shortest
    first. Every intermediate stays in the table's own dtype.
    """
    key = (k, fused)
    cached = fsm._composed.get(key)
    if cached is None:
        steady = fsm.steady
        stride = 2 if steady.out_y is not None else 1
        if fused:
            power = steady.next_state.astype(np.uint32)
            power |= steady.out_x.astype(np.uint32) << np.uint32(16)
            if stride == 2:
                power |= steady.out_y.astype(np.uint32) << np.uint32(17)
        else:
            power = steady.next_state.copy()
        span, steps = 1, 0
        while True:
            if k & span:
                cached = power if not steps else _then(
                    cached, steps, power, fused, stride
                )
                steps += span
            if 2 * span > k:
                break
            power = _then(power, span, power, fused, stride)
            span *= 2
        fsm._composed[key] = cached
    return cached


def _then(
    first: np.ndarray, steps: int, second: np.ndarray, fused: bool, stride: int,
) -> np.ndarray:
    """The map of ``first`` (``steps`` symbols) followed by ``second``.

    Row ``a + b * len(first)`` is chunk ``a`` of ``first`` then chunk ``b``
    of ``second`` (little-endian codes, as :func:`_composed_table`), so the
    whole composition is one ``take`` of ``second``'s columns at
    ``first``'s states. ``first`` is the shorter map: its states are the
    index array numpy widens, and the output is the table's own dtype.
    For fused maps, ``second``'s output bits move up past ``first``'s.
    """
    if not fused:
        return np.take(second, first, axis=1).reshape(-1, first.shape[1])
    mask = np.uint32(0xFFFF)
    out = np.take(second, first & mask, axis=1)
    later = out & ~mask
    later <<= np.uint32(stride * steps)
    out &= mask
    out |= later
    out |= first & ~mask
    return out.reshape(-1, first.shape[1])


def _chunk_codes(sym3: np.ndarray, n_symbols: int, k: int) -> np.ndarray:
    """Pack each row of k symbols into one chunk code, ``(batch, chunks)``.

    Symbol alphabets here are powers of two (4 for pair circuits, 2 for
    single-input ones), so the pack is a shift-accumulate over uint32;
    the general multiply-sum is kept for completeness.
    """
    bits = n_symbols.bit_length() - 1
    if n_symbols == 1 << bits:
        codes = sym3[:, :, 0].astype(np.uint32)
        for j in range(1, k):
            codes |= sym3[:, :, j].astype(np.uint32) << np.uint32(bits * j)
        return codes
    powers = n_symbols ** np.arange(k, dtype=np.int64)
    return (sym3.astype(np.int64) * powers).sum(axis=2)


_MORTON_LUT: Optional[np.ndarray] = None


def _morton_lut() -> np.ndarray:
    """byte -> uint32 with bit j spread to bit 2j (build once)."""
    global _MORTON_LUT
    if _MORTON_LUT is None:
        b = np.arange(256, dtype=np.uint32)
        spread = np.zeros(256, dtype=np.uint32)
        for j in range(8):
            spread |= ((b >> np.uint32(j)) & np.uint32(1)) << np.uint32(2 * j)
        _MORTON_LUT = spread
    return _MORTON_LUT


def _pair_chunk_codes(
    x: np.ndarray, y: np.ndarray, chunks: int, k: int,
) -> np.ndarray:
    """Chunk codes for a 4-symbol pair circuit straight from the two bit
    planes: ``code = sum_j (2 x_j + y_j) 4^j``.

    For the byte-aligned case (k = 8) this is one ``np.packbits`` per
    plane plus a Morton-spread LUT gather — no per-symbol python loop at
    all; other k fall back to the shift-accumulate over the symbol array.
    """
    batch = x.shape[0]
    if k == 8:
        xb = np.packbits(x[:, : chunks * 8], axis=1, bitorder="little")
        yb = np.packbits(y[:, : chunks * 8], axis=1, bitorder="little")
        lut = _morton_lut()
        return (lut[xb] << np.uint32(1)) | lut[yb]
    span = chunks * k
    sym3 = (
        ((x[:, :span] << np.uint8(1)) | y[:, :span]).reshape(batch, chunks, k)
    )
    return _chunk_codes(sym3, 4, k)


def _step_trajectory(
    next_state: np.ndarray, symbols: np.ndarray, state: np.ndarray,
    states: np.ndarray, start: int, stop: int,
) -> np.ndarray:
    """Reference per-cycle stepping over ``[start, stop)`` (also the tail
    helper for the chunked stepper's sub-chunk remainder)."""
    for t in range(start, stop):
        states[:, t] = state
        state = next_state[symbols[:, t], state]
    return state


def _chunked_trajectory(
    fsm: CompiledFSM, symbols: np.ndarray, state: np.ndarray, states: np.ndarray,
) -> np.ndarray:
    next_state = fsm.steady.next_state
    batch, length = symbols.shape
    k = choose_chunk(fsm.n_symbols, fsm.n_states)
    chunks = length // k
    if chunks:
        comp = _composed_table(fsm, k, fused=False)
        sym3 = symbols[:, : chunks * k].reshape(batch, chunks, k)
        codes = _chunk_codes(sym3, fsm.n_symbols, k)
        entry = np.empty((batch, chunks), dtype=next_state.dtype)
        for c in range(chunks):
            entry[:, c] = state
            state = comp[codes[:, c], state]
        # Expand intra-chunk states: k gathers over (batch, chunks).
        traj = np.empty((batch, chunks, k), dtype=next_state.dtype)
        st = entry
        for j in range(k):
            traj[:, :, j] = st
            if j + 1 < k:
                st = next_state[sym3[:, :, j], st]
        states[:, : chunks * k] = traj.reshape(batch, chunks * k)
    return _step_trajectory(next_state, symbols, state, states, chunks * k, length)


# ---------------------------------------------------------------------- #
# Single-row walks. With batch == 1 every numpy call in a per-chunk loop
# moves one element, so the walks below run the chunk loop on python
# ints over zero-copy memoryviews of the composed LUTs instead.
# ---------------------------------------------------------------------- #

def _state_half(fused: np.ndarray) -> np.ndarray:
    """Zero-copy uint16 view of a fused LUT's state field (low 16 bits)."""
    halves = fused.view(np.uint16)
    return halves[0::2] if sys.byteorder == "little" else halves[1::2]


def _walk_states(lut: np.ndarray, bases: list, state: int) -> Tuple[list, int]:
    """Walk one state through chunk rows starting at flat offsets ``bases``.

    Returns the state entering each chunk and the state after the last.
    """
    step = memoryview(lut)
    entry = []
    append = entry.append
    for base in bases:
        append(state)
        state = step[base + state]
    return entry, state


def _walk_map(lut: np.ndarray, bases: list, row: list) -> list:
    """Advance one state map ``row`` through the chunk rows at ``bases``.

    Only the distinct states of the map are walked: maps of these FSMs
    contract (rows entered in different states soon agree), so after a
    few chunks the walk is one lookup per chunk however many states the
    FSM has. ``slots[s]`` is entry state ``s``'s position in ``image``.
    """
    step = memoryview(lut)
    image = list(dict.fromkeys(row))
    position = {s: i for i, s in enumerate(image)}
    slots = [position[s] for s in row]
    chunks = iter(bases)
    if len(image) > 1:
        for base in chunks:
            image = [step[base + s] for s in image]
            merged = list(dict.fromkeys(image))
            if len(merged) < len(image):
                position = {s: i for i, s in enumerate(merged)}
                slots = [position[image[j]] for j in slots]
                image = merged
                if len(image) == 1:
                    break
    if len(image) == 1:
        (state,) = image
        for base in chunks:
            state = step[base + state]
        return [state] * len(slots)
    return [image[j] for j in slots]


def chunked_outputs(
    fsm: CompiledFSM, x: np.ndarray, y: np.ndarray, state: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Chunked-LUT execution of a 4-symbol pair circuit, emitting output
    bits directly from the input bit planes.

    The fused chunk LUT carries, next to the k-step state map, the k
    packed per-step output bits — so the hot loop is a *single* flat
    ``take`` per chunk over the batch axis and the state trajectory is
    never materialised. A single row instead walks its chunk entry states
    with python ints (:func:`_walk_states`) and fetches every chunk's
    output word in one ``take`` afterwards. Chunk codes come straight
    from the bit planes (:func:`_pair_chunk_codes`), and the packed
    output words are split into bit matrices with one ``np.unpackbits``
    pass. Returns ``(out_x, out_y, final_state)`` over the inputs' full
    extent (``out_y`` is ``None`` for single-output circuits).
    """
    next_state = fsm.steady.next_state
    batch, length = x.shape
    two = fsm.steady.out_y is not None
    stride = 2 if two else 1
    out_x = np.empty((batch, length), dtype=np.uint8)
    out_y = np.empty((batch, length), dtype=np.uint8) if two else None
    # The fused LUT spends 16 bits on the state and 16 on output bits.
    k = min(choose_chunk(fsm.n_symbols, fsm.n_states), 16 // stride)
    chunks = length // k
    if chunks:
        fused = _composed_table(fsm, k, fused=True).ravel()
        n_states = np.uint32(fsm.n_states)
        state_mask = np.uint32(0xFFFF)
        codes = _pair_chunk_codes(x, y, chunks, k)
        if batch == 1:
            # Flat index fits uint32: n_codes * n_states <= the table cap.
            index = codes * n_states
            entry, last = _walk_states(
                _state_half(fused), index[0].tolist(), int(state[0])
            )
            index[0] += np.array(entry, dtype=np.uint32)
            words = fused.take(index) >> np.uint32(16)
            state = np.array([last], dtype=next_state.dtype)
        else:
            words = np.empty((batch, chunks), dtype=np.uint32)
            st = state.astype(np.uint32)
            for c in range(chunks):
                # Flat index fits uint32: n_codes * n_states <= the table cap.
                f = fused.take(codes[:, c] * n_states + st)
                words[:, c] = f >> np.uint32(16)
                st = f & state_mask
            state = st.astype(next_state.dtype)
        # Split the packed words into bits: little-endian byte view ->
        # one unpackbits pass -> strided slices per output.
        byte_view = words.astype("<u4", copy=False).view(np.uint8)
        allbits = np.unpackbits(byte_view, axis=1, bitorder="little")
        allbits = allbits.reshape(batch, chunks, 32)
        out_x[:, : chunks * k] = (
            allbits[:, :, 0 : stride * k : stride].reshape(batch, chunks * k)
        )
        if two:
            out_y[:, : chunks * k] = (
                allbits[:, :, 1 : 2 * k : 2].reshape(batch, chunks * k)
            )
    # Sub-chunk remainder: per-cycle gathers, at most k - 1 iterations.
    for t in range(chunks * k, length):
        sym_t = (x[:, t] << np.uint8(1)) | y[:, t]
        out_x[:, t] = fsm.steady.out_x[sym_t, state]
        if two:
            out_y[:, t] = fsm.steady.out_y[sym_t, state]
        state = next_state[sym_t, state]
    return out_x, out_y, state


def step_chunk(
    fsm: CompiledFSM,
    state: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    *,
    remaining_after: int = 0,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Resumable chunk execution: advance the FSM over one chunk of the
    stream, carrying state across chunk boundaries.

    One-shot stepping restarts the FSM from its initial state on every
    call — fine for whole streams, impossible for tile streaming, where a
    stream arrives as a sequence of chunks. ``step_chunk`` instead takes
    the state the previous chunk ended in and returns the state this one
    ends in, so splitting a stream at *any* boundaries reproduces the
    one-shot run bit for bit::

        state = initial
        for chunk in chunks:
            state, ox, oy = step_chunk(fsm, state, cx, cy,
                                       remaining_after=cycles_after_chunk)

    Args:
        fsm: a compiled pair FSM (``n_symbols == 4``, ``outputs >= 1``;
            trajectory-only circuits resume via
            :func:`state_trajectory`'s ``initial`` argument instead).
        state: ``(batch,)`` states entering the chunk (start a stream
            with ``fsm.initial_state`` everywhere).
        x, y: ``(batch, chunk_len)`` input bit planes.
        remaining_after: stream cycles that follow this chunk (0 for the
            final chunk). Flush-mode circuits consult it to decide which
            cycles fall in the tail region: a cycle with
            ``remaining <= len(fsm.tails)`` steps its per-remaining tail
            table — even when the tail region straddles chunk boundaries.

    Returns:
        ``(state_after, out_x, out_y)`` — ``out_y`` is ``None`` for
        single-output circuits.
    """
    if fsm.n_symbols != 4 or not fsm.outputs:
        raise ValueError(
            f"step_chunk needs a pair FSM with outputs (got n_symbols="
            f"{fsm.n_symbols}, outputs={fsm.outputs})"
        )
    if remaining_after < 0:
        raise ValueError(f"remaining_after must be >= 0, got {remaining_after}")
    batch, length = x.shape
    two = fsm.steady.out_y is not None
    # Cycles of this chunk that fall in the flush-tail region (remaining
    # counts down to remaining_after + 1 at the chunk's last cycle).
    tail_here = max(0, min(length, len(fsm.tails) - remaining_after))
    steady_len = length - tail_here
    state = state.astype(fsm.steady.next_state.dtype, copy=True)
    if steady_len:
        ox_steady, oy_steady, state = chunked_outputs(
            fsm, x[:, :steady_len], y[:, :steady_len], state
        )
    out_x = np.empty((batch, length), dtype=np.uint8)
    out_y = np.empty((batch, length), dtype=np.uint8) if two else None
    if steady_len:
        out_x[:, :steady_len] = ox_steady
        if two:
            out_y[:, :steady_len] = oy_steady
    for t in range(steady_len, length):
        remaining = length - t + remaining_after
        table = fsm.tails[remaining - 1]
        sym_t = (x[:, t] << np.uint8(1)) | y[:, t]
        out_x[:, t] = table.out_x[sym_t, state]
        if two:
            out_y[:, t] = table.out_y[sym_t, state]
        state = table.next_state[sym_t, state]
    return state, out_x, out_y


def compose_chunk(
    fsm: CompiledFSM,
    maps: np.ndarray,
    symbols: np.ndarray,
    *,
    remaining_after: int = 0,
) -> np.ndarray:
    """Advance a batch of *state maps* over one symbol chunk.

    Where :func:`step_chunk` advances one concrete state per row, this
    advances the whole transition *function*: ``maps[b, s]`` is the state
    row ``b`` would be in after the already-composed prefix **if** it had
    entered that prefix in state ``s``. Feeding consecutive chunks
    composes their transition functions, so a span of a stream can be
    summarised as a single ``(batch, n_states)`` map without knowing the
    span's entry state — the enabler for prefix-scanned parallel tile
    scheduling (:mod:`repro.engine.parallel`).

    The steady region advances ``k`` symbols per gather through the same
    composed chunk LUT as the trajectory steppers (a single map walks it
    with python ints, see :func:`_walk_map`); flush-tail cycles
    (``remaining <= len(fsm.tails)``) step their per-remaining tail
    table exactly as :func:`step_chunk` does, so maps composed across a
    tail-straddling boundary stay exact.

    Args:
        fsm: compiled transition tables (any ``n_symbols``).
        maps: ``(batch, n_states)`` prefix maps (start a span with the
            identity map ``arange(n_states)`` broadcast over the batch).
        symbols: ``(batch, length)`` symbol indices.
        remaining_after: stream cycles that follow this chunk.

    Returns the advanced ``(batch, n_states)`` maps (a fresh array; the
    input is never mutated).
    """
    if remaining_after < 0:
        raise ValueError(f"remaining_after must be >= 0, got {remaining_after}")
    batch, length = symbols.shape
    n_states = fsm.n_states
    if maps.shape != (batch, n_states):
        raise ValueError(
            f"maps shape {maps.shape} does not match (batch, n_states) = "
            f"({batch}, {n_states})"
        )
    maps = maps.astype(fsm.steady.next_state.dtype, copy=True)
    tail_here = max(0, min(length, len(fsm.tails) - remaining_after))
    steady_len = length - tail_here
    k = choose_chunk(fsm.n_symbols, n_states)
    chunks = steady_len // k
    if chunks:
        flat = _composed_table(fsm, k, fused=False).ravel()
        sym3 = symbols[:, : chunks * k].reshape(batch, chunks, k)
        codes = _chunk_codes(sym3, fsm.n_symbols, k).astype(np.int64)
        if batch == 1:
            row = _walk_map(flat, (codes[0] * n_states).tolist(), maps[0].tolist())
            maps = np.array([row], dtype=maps.dtype)
        else:
            for c in range(chunks):
                maps = flat.take(codes[:, c, None] * n_states + maps)
    for t in range(chunks * k, steady_len):
        maps = fsm.steady.next_state[symbols[:, t, None], maps]
    for t in range(steady_len, length):
        remaining = length - t + remaining_after
        table = fsm.tails[remaining - 1]
        maps = table.next_state[symbols[:, t, None], maps]
    return maps


def _scan_trajectory(
    fsm: CompiledFSM, symbols: np.ndarray, state: np.ndarray, states: np.ndarray,
) -> np.ndarray:
    next_state = fsm.steady.next_state
    batch, length = symbols.shape
    # g[b, t, s] = state after step t if the state before step 0 was s;
    # initialised to the per-step maps, then prefix-composed by doubling.
    g = next_state[symbols]                       # (batch, length, n_states)
    d = 1
    while d < length:
        g[:, d:, :] = np.take_along_axis(g[:, d:, :], g[:, :-d, :], axis=2)
        d *= 2
    # The trajectory needs one starting column per distinct initial state;
    # every caller starts all rows at fsm.initial_state, so a single
    # column gather suffices.
    init = int(state[0])
    states[:, 0] = init
    states[:, 1:] = g[:, :-1, init]
    return g[:, -1, init].astype(next_state.dtype, copy=False)


def state_trajectory(
    fsm: CompiledFSM,
    symbols: np.ndarray,
    *,
    strategy: str = "auto",
    initial: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """States *before* each steady-state step, plus the final state.

    Args:
        fsm: compiled transition tables (steady table only; flush tails
            are the dispatcher's job).
        symbols: ``(batch, length)`` symbol indices in
            ``[0, fsm.n_symbols)``.
        strategy: ``"auto"`` | ``"chunked"`` | ``"scan"`` | ``"step"``.
        initial: optional ``(batch,)`` starting states (defaults to
            ``fsm.initial_state`` everywhere). The scan stepper requires
            a uniform start and falls back to chunked otherwise.

    Returns:
        ``(states, final)`` — ``states[b, t]`` is row ``b``'s state
        entering step ``t`` (shape of ``symbols``); ``final`` the state
        after the last step.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    batch, length = symbols.shape
    dtype = fsm.steady.next_state.dtype
    if initial is None:
        state = np.full(batch, fsm.initial_state, dtype=dtype)
        uniform = True
    else:
        state = initial.astype(dtype, copy=True)
        uniform = bool(batch) and bool(np.all(state == state[0]))
    states = np.empty((batch, length), dtype=dtype)
    if length == 0 or batch == 0:
        return states, state
    if strategy == "auto":
        strategy = choose_strategy(batch, length, fsm.n_states, fsm.n_symbols)
    if strategy == "scan" and not uniform:
        strategy = "chunked"
    if strategy == "scan":
        final = _scan_trajectory(fsm, symbols, state, states)
    elif strategy == "chunked":
        final = _chunked_trajectory(fsm, symbols, state, states)
    else:
        final = _step_trajectory(
            fsm.steady.next_state, symbols, state, states, 0, length
        )
    return states, final
