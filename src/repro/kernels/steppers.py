"""Time-parallel execution of compiled transition tables.

The reference FSM loops run one numpy masked-update pass *per stream bit*
— ``O(length)`` python-level iterations, each touching only ``batch``
elements. Given a :class:`~repro.kernels.tables.CompiledFSM`, the
chunked-LUT stepper here recovers the state trajectory with far fewer
python iterations: it pre-composes the per-symbol transition functions
over every possible ``k``-symbol window into one LUT ``(symbol-chunk
code, state) -> state`` (``n_symbols**k * n_states`` entries, cached per
FSM). The LUT is built by doubling: the 2-, 4-, 8-… step maps are each
one gather of the previous map through itself, and the binary digits of
``k`` pick which of them to chain, so a build costs about ``log2 k``
gathers instead of ``k`` full passes. The time loop then advances ``k``
cycles per lookup: ``length/k + 2k`` python iterations.

How a chunk loop runs depends on the batch and the row. A batch of up
to eight rows (the tile-streaming and served shapes) is walked one row
at a time, because a numpy call per chunk on a few-row array costs far
more dispatch than lookup. A short row, or one over a wide table, walks
with python ints through a zero-copy ``memoryview`` of the LUT. A long
row over a small table (a stream tile: tens of thousands of chunks
through the synchronizer's or desynchronizer's few states) runs a
two-level blocked scan instead: one gather per chunk position composes
every block's full state map at once, a python scan over the block maps
finds each block's entry state, and one gather per chunk position
expands those into every chunk's entry state. A larger batch (the paper
sweeps, hundreds of rows) advances all rows with one fancy-indexed
gather per chunk. On every path each chunk's entry state is read from
the same LUT entry, so the paths agree bit for bit.

The trajectory is defined by the tables, and the tables are exact, so
the outputs gathered from it are bit-identical to the reference loop.
``strategy="auto"`` is the chunked stepper; ``"step"`` forces per-cycle
stepping (the reference the tests compare against).
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import Iterable, Optional, Tuple

import numpy as np

from .tables import CompiledFSM

__all__ = [
    "state_trajectory",
    "chunked_outputs",
    "step_chunk",
    "compose_chunk",
    "choose_chunk",
    "STRATEGIES",
]

STRATEGIES = ("auto", "step")

# Composed chunk LUTs are capped at this many entries (~2 MB of int16).
_CHUNK_TABLE_LIMIT = 1 << 20
_MAX_CHUNK = 16

# Batches up to this many rows walk their chunk loops one row at a time
# with python ints; larger ones take one gather per chunk over the batch.
# At N=256 a batch of 32 already runs faster on the gathers. Served
# fsm_zoo runs coalesce a few requests a group: at N=2^12 a batch-2 run
# takes 1.4 ms this way against 7.1 ms with batch-1-only walks (2 vCPU).
_ROW_WALK_BATCH = 8

# Rows of at least this many chunks, over tables of at most this many
# states, walk in blocks (:func:`_walk_blocked`, :func:`_map_blocked`);
# shorter rows and wider tables keep the python-int walks. Min of 7 on a
# 2-vCPU VM, python -> blocked at 1024 / 2048 / 32768 chunks: row walks
# over random fused LUTs, 3 states 0.124 -> 0.090 / 0.214 -> 0.134 /
# 5.14 -> 1.01 ms, 16 states 0.120 -> 0.137 / 0.234 -> 0.226 / 7.35 ->
# 3.49 ms (24 states lose below 8192 chunks); the synchronizer's span
# map 0.102 -> 0.144 / 0.192 -> 0.168 / 4.62 -> 0.78 ms. Stream tiles
# (2^15 chunks) take the blocks; served rows (<= 512 chunks) and the
# TFM's 256-state register keep the python walks.
_BLOCK_WALK_CHUNKS = 2048
_BLOCK_WALK_STATES = 16


def choose_chunk(n_symbols: int, n_states: int) -> int:
    """Largest ``k`` whose composed chunk LUT stays within the size cap."""
    k = 1
    while (
        k < _MAX_CHUNK
        and n_symbols ** (k + 1) * n_states <= _CHUNK_TABLE_LIMIT
    ):
        k += 1
    return k


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
        if batch <= _ROW_WALK_BATCH:
            entry = _walk_rows(
                comp.ravel(), codes * np.uint32(fsm.n_states), state, fsm.n_states
            )
        else:
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
# Row walks. With a few rows every numpy call in a per-chunk loop moves
# a few elements, so the walks below run the chunk loop of one row on
# python ints over zero-copy memoryviews of the composed LUTs instead,
# or, for a long row over a small table, in blocks: each numpy call then
# moves one chunk position of every block.
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


def _walk_rows(
    lut: np.ndarray, index: np.ndarray, state: np.ndarray, n_states: int,
) -> np.ndarray:
    """:func:`_walk_states` for each row of flat chunk offsets ``index``
    ``(batch, chunks)``: returns the ``(batch, chunks)`` states entering
    each chunk and leaves each row's final state in ``state``. Long rows
    over small tables walk in blocks (:func:`_walk_blocked`)."""
    entry = np.empty(index.shape, dtype=lut.dtype)
    blocked = _blocked(index.shape[1], n_states)
    for b in range(index.shape[0]):
        if blocked:
            state[b] = _walk_blocked(lut, index[b], int(state[b]), n_states, entry[b])
        else:
            entry[b], state[b] = _walk_states(lut, index[b].tolist(), int(state[b]))
    return entry


def _blocked(chunks: int, n_states: int) -> bool:
    """Does a row of ``chunks`` over ``n_states`` states walk in blocks?"""
    return chunks >= _BLOCK_WALK_CHUNKS and n_states <= _BLOCK_WALK_STATES


def _blocks(index: np.ndarray) -> np.ndarray:
    """A row's whole blocks of flat chunk offsets, ``(size, n_blocks)``:
    row ``j`` holds chunk ``j`` of every block. ``size`` is about
    ``sqrt(chunks / 32)`` (at least 8, at most the row), which balances
    the two levels' ``2 * size`` numpy calls against the scan's
    ``chunks / size`` python steps; the remainder chunks past the last
    whole block are left to the caller."""
    chunks = index.shape[0]
    size = min(chunks, max(8, math.isqrt(chunks // 32)))
    n_blocks = chunks // size
    return index[: size * n_blocks].reshape(n_blocks, size).T.astype(np.intp)


def _block_maps(lut: np.ndarray, blocks: np.ndarray, n_states: int) -> np.ndarray:
    """Level 1: every block's full state map, ``(n_states, n_blocks)`` —
    column ``b`` holds block ``b``'s exit state for each entry state. One
    gather per chunk position over all blocks and states at once."""
    maps = np.arange(n_states, dtype=np.intp)[:, None]
    for bases in blocks:
        maps = lut[bases + maps]
    return maps


def _walk_blocked(
    lut: np.ndarray, index: np.ndarray, state: int, n_states: int,
    entry: np.ndarray,
) -> int:
    """:func:`_walk_states` over one long row of flat chunk offsets, in
    two levels: fills ``entry`` with the state entering each chunk and
    returns the state after the last.

    The block maps (:func:`_block_maps`) are scanned in python for each
    block's entry state, and level 2 expands those inside every block
    with one gather per chunk position over all blocks. Chunks past the
    last whole block walk in python. Each chunk's state comes from the
    same LUT entry as in the plain walk.
    """
    blocks = _blocks(index)
    size, n_blocks = blocks.shape
    maps = _block_maps(lut, blocks, n_states).T.ravel()
    starts, state = _walk_states(maps, range(0, maps.size, n_states), state)
    inner = entry[: blocks.size].reshape(n_blocks, size)
    st = np.array(starts, dtype=np.intp)
    for j, bases in enumerate(blocks):
        inner[:, j] = st
        st = lut[bases + st]
    entry[blocks.size:], state = _walk_states(lut, index[blocks.size:].tolist(), state)
    return state


def _walk_block(step: memoryview, bases: Iterable[int], state: int) -> int:
    """One state through the chunk rows at ``bases``; the state after."""
    for base in bases:
        state = step[base + state]
    return state


def _walk_map(lut: np.ndarray, bases: list, row: list) -> list:
    """Advance one state map ``row`` through the chunk rows at ``bases``.

    Only the distinct states of the map are walked, each through blocks
    of 1, 2, 4, … chunks; states that meet at a block's end merge, and
    once one state is left it walks the rest in one block. Contracting
    maps (the synchronizer's, the TFM's) merge within a few short
    blocks; a map that keeps several states (the desynchronizer's keeps
    two) costs one plain walk per state. ``slots[s]`` is entry state
    ``s``'s position in ``image``.
    """
    step = memoryview(lut)
    image = list(dict.fromkeys(row))
    position = {s: i for i, s in enumerate(image)}
    slots = [position[s] for s in row]
    chunks = iter(bases)
    block = 1
    while len(image) > 1:
        chunk = list(islice(chunks, block))
        if not chunk:
            break
        image = [_walk_block(step, chunk, s) for s in image]
        merged = list(dict.fromkeys(image))
        if len(merged) < len(image):
            position = {s: i for i, s in enumerate(merged)}
            slots = [position[image[j]] for j in slots]
            image = merged
        block *= 2
    if len(image) == 1:
        return [_walk_block(step, chunks, image[0])] * len(slots)
    return [image[j] for j in slots]


def _map_blocked(
    lut: np.ndarray, index: np.ndarray, row: np.ndarray, n_states: int,
) -> list:
    """:func:`_walk_map` over one long row of flat chunk offsets: the
    block maps (:func:`_block_maps`) fold pairwise into the map of all
    whole blocks, which then takes ``row``'s states; the chunks past the
    last whole block walk in python."""
    blocks = _blocks(index)
    maps = _block_maps(lut, blocks, n_states)
    while maps.shape[1] > 1:
        even = maps.shape[1] & ~1
        folded = np.take_along_axis(maps[:, 1:even:2], maps[:, 0:even:2], axis=0)
        maps = np.concatenate([folded, maps[:, even:]], axis=1)
    return _walk_map(lut, index[blocks.size:].tolist(), maps[row, 0].tolist())


def chunked_outputs(
    fsm: CompiledFSM, x: np.ndarray, y: np.ndarray, state: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
    """Chunked-LUT execution of a 4-symbol pair circuit, emitting output
    bits directly from the input bit planes.

    The fused chunk LUT carries, next to the k-step state map, the k
    packed per-step output bits — so the hot loop is a *single* flat
    ``take`` per chunk over the batch axis and the state trajectory is
    never materialised. A batch of up to eight rows instead walks each
    row's chunk entry states (:func:`_walk_rows`: python ints, or blocks
    for a long row) and fetches every chunk's output word in one
    ``take`` afterwards. Chunk codes come straight from the bit planes
    (:func:`_pair_chunk_codes`), and the packed output words are split
    into bit matrices with one ``np.unpackbits`` pass. Returns
    ``(out_x, out_y, final_state)`` over the inputs' full extent
    (``out_y`` is ``None`` for single-output circuits).
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
        if batch <= _ROW_WALK_BATCH:
            # Flat index fits uint32: n_codes * n_states <= the table cap.
            index = codes * n_states
            state = state.astype(next_state.dtype)
            index += _walk_rows(_state_half(fused), index, state, fsm.n_states)
            words = fused.take(index) >> np.uint32(16)
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
    composed chunk LUT as the trajectory steppers. A single map walks it
    with python ints (:func:`_walk_map`), or, for a long row over a small
    table, composes every block's map with one gather per chunk position
    and folds the block maps pairwise (:func:`_map_blocked`). Flush-tail
    cycles (``remaining <= len(fsm.tails)``) step their per-remaining
    tail table exactly as :func:`step_chunk` does, so maps composed
    across a tail-straddling boundary stay exact.

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
            bases = codes[0] * n_states
            if _blocked(chunks, n_states):
                row = _map_blocked(flat, bases, maps[0], n_states)
            else:
                row = _walk_map(flat, bases.tolist(), maps[0].tolist())
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
        strategy: ``"auto"`` (the chunked stepper) or ``"step"``
            (per-cycle stepping).
        initial: optional ``(batch,)`` starting states (defaults to
            ``fsm.initial_state`` everywhere).

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
    else:
        state = initial.astype(dtype, copy=True)
    states = np.empty((batch, length), dtype=dtype)
    if length == 0 or batch == 0:
        return states, state
    if strategy == "step":
        final = _step_trajectory(
            fsm.steady.next_state, symbols, state, states, 0, length
        )
    else:
        final = _chunked_trajectory(fsm, symbols, state, states)
    return states, final
