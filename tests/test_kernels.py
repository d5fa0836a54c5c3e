"""Equivalence and determinism suite for :mod:`repro.kernels`.

The contract under test: for every circuit with a registered kernel, the
time-parallel execution is **bit-identical** to the circuit's per-cycle
reference loop — across depths, flush modes, encodings, odd/short
lengths, batch sizes, and every stepper strategy — and compilation is a
deterministic pure function of the circuit's constructor parameters.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import kernels, obs
from repro.arith.agnostic import CAAdder, CAMax
from repro.arith.divide import CorDiv
from repro.bitstream import Bitstream, BitstreamBatch
from repro.bitstream.encoding import Encoding
from repro.core import (
    Decorrelator,
    Desynchronizer,
    IsolatorPair,
    SeriesPair,
    ShuffleBuffer,
    Synchronizer,
    TFMPair,
    TrackingForecastMemory,
)
from repro.kernels import dispatch, steppers
from repro.kernels.steppers import _composed_table, chunked_outputs, compose_chunk
from repro.kernels.streaming import make_stream_carrier, make_stream_composer
from repro.rng import LFSR, CounterRNG, Halton

DEPTHS = (1, 2, 4, 8)
BATCHES = (1, 7, 256)
LENGTHS = (1, 3, 17, 64, 255, 256)


def _bits(rng, batch, length):
    return rng.integers(0, 2, (batch, length)).astype(np.uint8)


@pytest.fixture(autouse=True)
def _restore_dispatch():
    yield
    kernels.set_backend("auto")
    kernels.set_strategy("auto")


def _scan_trajectory(fsm, symbols):
    """States entering each steady step from ``fsm.initial_state``, and
    the final state, by log-doubling prefix composition of the per-step
    maps: the scan stepper the product path used to pick for small
    batches, kept as an oracle for the chunked stepper."""
    next_state = fsm.steady.next_state
    batch, length = symbols.shape
    states = np.empty((batch, length), dtype=next_state.dtype)
    init = fsm.initial_state
    if length == 0 or batch == 0:
        return states, np.full(batch, init, dtype=next_state.dtype)
    # g[b, t, s] = state after step t if the state before step 0 was s;
    # initialised to the per-step maps, then prefix-composed by doubling.
    g = next_state[symbols]                       # (batch, length, n_states)
    d = 1
    while d < length:
        g[:, d:, :] = np.take_along_axis(g[:, d:, :], g[:, :-d, :], axis=2)
        d *= 2
    states[:, 0] = init
    states[:, 1:] = g[:, :-1, init]
    return states, g[:, -1, init].astype(next_state.dtype, copy=False)


def _scan_outputs(circuit, x, y):
    """A pair circuit's ``(out_x, out_y)`` through the scan oracle: the
    steady trajectory by :func:`_scan_trajectory`, then the flush tail
    one cycle at a time."""
    fsm = kernels.compile_transform(circuit)
    length = x.shape[1]
    steady_len = length - min(len(fsm.tails), length)
    head = (x[:, :steady_len] << np.uint8(1)) | y[:, :steady_len]
    states, state = _scan_trajectory(fsm, head)
    out_x = np.empty(x.shape, dtype=np.uint8)
    out_y = np.empty(x.shape, dtype=np.uint8)
    out_x[:, :steady_len] = fsm.steady.out_x[head, states]
    out_y[:, :steady_len] = fsm.steady.out_y[head, states]
    for t in range(steady_len, length):
        table = fsm.tails[length - t - 1]
        sym = (x[:, t] << np.uint8(1)) | y[:, t]
        out_x[:, t] = table.out_x[sym, state]
        out_y[:, t] = table.out_y[sym, state]
        state = table.next_state[sym, state]
    return out_x, out_y


# ---------------------------------------------------------------------- #
# Pair transforms: full (depth, flush, length, batch, strategy) grid
# ---------------------------------------------------------------------- #

class TestPairEquivalence:
    @pytest.mark.parametrize("cls", [Synchronizer, Desynchronizer])
    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("flush", [False, True])
    def test_bit_identical_to_reference(self, cls, depth, flush):
        rng = np.random.default_rng(depth * 10 + flush)
        circuit = cls(depth, flush=flush)
        for batch in BATCHES:
            for length in LENGTHS:
                x = _bits(rng, batch, length)
                y = _bits(rng, batch, length)
                ref = circuit._reference_process_bits(x, y)
                scan = _scan_outputs(circuit, x, y)
                assert np.array_equal(ref[0], scan[0])
                assert np.array_equal(ref[1], scan[1])
                for strategy in ("auto", "step"):
                    kernels.set_strategy(strategy)
                    got = circuit._process_bits(x, y)
                    assert np.array_equal(ref[0], got[0]), (
                        f"{circuit.name} X differs: {strategy}, "
                        f"batch={batch}, length={length}"
                    )
                    assert np.array_equal(ref[1], got[1]), (
                        f"{circuit.name} Y differs: {strategy}, "
                        f"batch={batch}, length={length}"
                    )

    def test_biased_initial_state(self):
        rng = np.random.default_rng(5)
        x, y = _bits(rng, 16, 199), _bits(rng, 16, 199)
        for initial in (-2, -1, 0, 1, 2):
            sync = Synchronizer(2, flush=True, initial_state=initial)
            ref = sync._reference_process_bits(x, y)
            got = sync._process_bits(x, y)
            assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])

    def test_desynchronizer_first_save(self):
        rng = np.random.default_rng(6)
        x, y = _bits(rng, 8, 130), _bits(rng, 8, 130)
        for first in ("x", "y"):
            desync = Desynchronizer(3, flush=True, first_save=first)
            ref = desync._reference_process_bits(x, y)
            got = desync._process_bits(x, y)
            assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])

    @pytest.mark.parametrize("encoding", [Encoding.UNIPOLAR, Encoding.BIPOLAR])
    def test_both_encodings_via_process_pair(self, encoding):
        rng = np.random.default_rng(7)
        bits_x, bits_y = _bits(rng, 1, 256)[0], _bits(rng, 1, 256)[0]
        x = Bitstream(bits_x, encoding=encoding)
        y = Bitstream(bits_y, encoding=encoding)
        sync = Synchronizer(2, flush=True)
        kx, ky = sync.process_pair(x, y)
        kernels.set_backend("reference")
        rx, ry = sync.process_pair(x, y)
        assert np.array_equal(kx.bits, rx.bits)
        assert np.array_equal(ky.bits, ry.bits)
        assert kx.encoding is encoding and ky.encoding is encoding

    def test_stuck_bits_diagnostic_matches_reference(self):
        rng = np.random.default_rng(8)
        x, y = _bits(rng, 32, 255), _bits(rng, 32, 255)
        sync = Synchronizer(4)
        with_kernel = sync.stuck_bits(x, y)
        kernels.set_backend("reference")
        assert np.array_equal(with_kernel, sync.stuck_bits(x, y))


# ---------------------------------------------------------------------- #
# Stream transforms
# ---------------------------------------------------------------------- #

class TestStreamEquivalence:
    @pytest.mark.parametrize("depth", [1, 2, 4, 8])
    @pytest.mark.parametrize("init", ["half_ones", "zeros", "ones"])
    def test_shuffle_buffer(self, depth, init):
        rng = np.random.default_rng(depth)
        for batch, length in ((1, 1), (7, 63), (256, 256)):
            buf = ShuffleBuffer(LFSR(8, seed=45), depth, init=init)
            bits = _bits(rng, batch, length)
            assert np.array_equal(
                buf._reference_process_stream_bits(bits),
                buf._process_stream_bits(bits),
            )

    def test_shuffle_residual_ones_matches_reference(self):
        rng = np.random.default_rng(11)
        bits = _bits(rng, 16, 200)
        buf = ShuffleBuffer(LFSR(8, seed=45), 4)
        with_kernel = buf.residual_ones(bits)
        kernels.set_backend("reference")
        assert np.array_equal(with_kernel, buf.residual_ones(bits))

    def test_decorrelator(self):
        rng = np.random.default_rng(12)
        x, y = _bits(rng, 33, 257), _bits(rng, 33, 257)
        deco = Decorrelator(LFSR(8, seed=45), LFSR(8, seed=142), depth=4)
        kx, ky = deco._process_bits(x, y)
        kernels.set_backend("reference")
        rx, ry = deco._process_bits(x, y)
        assert np.array_equal(kx, rx) and np.array_equal(ky, ry)

    @pytest.mark.parametrize("bits_width", [4, 8])
    @pytest.mark.parametrize("shift", [1, 3])
    def test_tfm(self, bits_width, shift):
        rng = np.random.default_rng(13)
        tfm = TrackingForecastMemory(LFSR(8, seed=7), bits_width, shift=shift)
        for batch, length in ((1, 3), (7, 100), (64, 257)):
            stream = _bits(rng, batch, length)
            assert np.array_equal(
                tfm._reference_process_stream_bits(stream),
                tfm._process_stream_bits(stream),
            )

    def test_tfm_pair(self):
        rng = np.random.default_rng(14)
        x, y = _bits(rng, 9, 256), _bits(rng, 9, 256)
        pair = TFMPair(LFSR(8, seed=77))
        kx, ky = pair._process_bits(x, y)
        kernels.set_backend("reference")
        rx, ry = pair._process_bits(x, y)
        assert np.array_equal(kx, rx) and np.array_equal(ky, ry)


# ---------------------------------------------------------------------- #
# Single-output FSM operators
# ---------------------------------------------------------------------- #

class TestOpEquivalence:
    @pytest.mark.parametrize("op", [
        CorDiv(), CorDiv(initial=1), CAAdder(),
        CAMax(), CAMax(counter_bits=3), CAMax(counter_bits=10),
    ], ids=lambda op: f"{type(op).__name__}")
    def test_bit_identical(self, op):
        rng = np.random.default_rng(21)
        for batch in BATCHES:
            for length in (1, 17, 256):
                x = _bits(rng, batch, length)
                y = _bits(rng, batch, length)
                ref = op._reference_compute_bits(x, y)
                got = np.asarray(op.compute(BitstreamBatch(x), BitstreamBatch(y)).bits)
                assert np.array_equal(ref, got), (type(op).__name__, batch, length)

    def test_oversized_counter_declines_compilation(self):
        wide = CAMax(counter_bits=16)      # 65536 states > MAX_TABLE_STATES
        assert kernels.compiled_kernel(wide) is None
        rng = np.random.default_rng(22)
        x, y = _bits(rng, 4, 64), _bits(rng, 4, 64)
        # compute still works — through the reference loop.
        out = wide.compute(x, y)
        assert np.array_equal(out, wide._reference_compute_bits(x, y))


# ---------------------------------------------------------------------- #
# Compilation properties
# ---------------------------------------------------------------------- #

class TestCompilation:
    @pytest.mark.parametrize("make", [
        lambda: Synchronizer(3, flush=True, initial_state=-1),
        lambda: Desynchronizer(2, flush=True, first_save="y"),
        lambda: CorDiv(initial=1),
        lambda: CAAdder(),
        lambda: CAMax(counter_bits=4),
        lambda: TrackingForecastMemory(LFSR(8, seed=7), 6, shift=2),
    ])
    def test_compilation_is_deterministic(self, make):
        a = kernels.compile_transform(make())
        b = kernels.compile_transform(make())
        assert a.n_states == b.n_states
        assert a.n_symbols == b.n_symbols
        assert a.initial_state == b.initial_state
        assert np.array_equal(a.steady.next_state, b.steady.next_state)
        for out_a, out_b in ((a.steady.out_x, b.steady.out_x),
                             (a.steady.out_y, b.steady.out_y)):
            assert (out_a is None) == (out_b is None)
            if out_a is not None:
                assert np.array_equal(out_a, out_b)
        assert len(a.tails) == len(b.tails)
        for ta, tb in zip(a.tails, b.tails):
            assert np.array_equal(ta.next_state, tb.next_state)

    @given(
        depth=st.integers(1, 8),
        flush=st.booleans(),
        cls_index=st.integers(0, 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_compilation_deterministic_property(self, depth, flush, cls_index):
        # Property: compilation is a pure function of the constructor
        # parameters — two independent compiles of equal circuits yield
        # identical tables, tail count, and initial state.
        cls = (Synchronizer, Desynchronizer)[cls_index]
        a = kernels.compile_transform(cls(depth, flush=flush))
        b = kernels.compile_transform(cls(depth, flush=flush))
        assert a.initial_state == b.initial_state
        assert np.array_equal(a.steady.next_state, b.steady.next_state)
        assert np.array_equal(a.steady.out_x, b.steady.out_x)
        assert np.array_equal(a.steady.out_y, b.steady.out_y)
        assert len(a.tails) == len(b.tails) == (depth if flush else 0)
        for ta, tb in zip(a.tails, b.tails):
            assert np.array_equal(ta.next_state, tb.next_state)
            assert np.array_equal(ta.out_x, tb.out_x)
            assert np.array_equal(ta.out_y, tb.out_y)

    @given(
        pair=st.integers(4, 96).flatmap(
            lambda n: st.tuples(
                arrays(np.uint8, (3, n), elements=st.integers(0, 1)),
                arrays(np.uint8, (3, n), elements=st.integers(0, 1)),
            )
        ),
        depth=st.integers(1, 4),
        flush=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_equals_reference_property(self, pair, depth, flush):
        x, y = pair
        for cls in (Synchronizer, Desynchronizer):
            circuit = cls(depth, flush=flush)
            ref = circuit._reference_process_bits(x, y)
            got = circuit._process_bits(x, y)
            assert np.array_equal(ref[0], got[0])
            assert np.array_equal(ref[1], got[1])

    def test_state_space_sizes(self):
        assert kernels.compile_transform(Synchronizer(4)).n_states == 9
        assert kernels.compile_transform(Desynchronizer(4)).n_states == 10
        assert kernels.compile_transform(CorDiv()).n_states == 2
        assert kernels.compile_transform(CAAdder()).n_states == 2

    def test_flush_adds_tail_tables(self):
        assert len(kernels.compile_transform(Synchronizer(4)).tails) == 0
        assert len(kernels.compile_transform(Synchronizer(4, flush=True)).tails) == 4
        assert len(kernels.compile_transform(Desynchronizer(2, flush=True)).tails) == 2

    def test_kernel_cached_per_instance(self):
        sync = Synchronizer(2)
        assert kernels.compiled_kernel(sync) is kernels.compiled_kernel(sync)

    def test_subclass_is_not_kernelized(self):
        class Tweaked(Synchronizer):
            pass

        assert kernels.compiled_kernel(Tweaked(1)) is None
        assert not kernels.is_kernelized(Tweaked(1))

    def test_is_kernelized_composites(self):
        assert kernels.is_kernelized(Synchronizer(1))
        assert kernels.is_kernelized(Decorrelator(LFSR(8, seed=1), LFSR(8, seed=2)))
        assert kernels.is_kernelized(TFMPair(LFSR(8, seed=3)))
        assert kernels.is_kernelized(IsolatorPair(delay=2))
        assert kernels.is_kernelized(
            SeriesPair([Synchronizer(1), Synchronizer(1)])
        )

    def test_backend_and_strategy_validation(self):
        with pytest.raises(ValueError):
            kernels.set_backend("gpu")
        with pytest.raises(ValueError):
            kernels.set_strategy("warp")
        with kernels.use_backend("reference", strategy="step"):
            assert kernels.get_backend() == "reference"
            assert kernels.get_strategy() == "step"
        assert kernels.get_backend() == "auto"
        assert kernels.get_strategy() == "auto"


# ---------------------------------------------------------------------- #
# Steppers
# ---------------------------------------------------------------------- #

class TestSteppers:
    def test_trajectory_strategies_agree(self):
        rng = np.random.default_rng(31)
        fsm = kernels.compile_transform(Synchronizer(4))
        symbols = rng.integers(0, 4, (13, 301)).astype(np.uint8)
        baseline = _scan_trajectory(fsm, symbols)
        for strategy in ("auto", "step"):
            states, final = kernels.state_trajectory(fsm, symbols, strategy=strategy)
            assert np.array_equal(states, baseline[0]), strategy
            assert np.array_equal(final, baseline[1]), strategy

    def test_auto_strategy_is_chunked(self):
        # One row over 2^16 cycles: the shape the dropped cost model
        # sent to the scan stepper.
        rng = np.random.default_rng(32)
        sync = Synchronizer(4)
        fsm = kernels.compile_transform(sync)
        symbols = rng.integers(0, 4, (1, 1 << 16)).astype(np.uint8)
        with mock.patch.object(
            steppers, "_chunked_trajectory", wraps=steppers._chunked_trajectory
        ) as spy:
            kernels.state_trajectory(fsm, symbols)
        assert spy.call_count == 1
        x, y = _bits(rng, 1, 1 << 16), _bits(rng, 1, 1 << 16)
        with mock.patch.object(
            dispatch, "chunked_outputs", wraps=dispatch.chunked_outputs
        ) as spy:
            sync._process_bits(x, y)
        assert spy.call_count == 1
        assert kernels.STRATEGIES == ("auto", "step")
        for gone in ("scan", "chunked"):
            with pytest.raises(ValueError):
                kernels.set_strategy(gone)

    def test_chunk_size_respects_table_cap(self):
        # 4 symbols, 9 states -> 4^k * 9 <= 2^20 caps k at 8.
        assert kernels.choose_chunk(4, 9) == 8
        # 2 symbols, 256 states (TFM) packs longer chunks.
        assert kernels.choose_chunk(2, 256) == 12

    def test_empty_batch(self):
        # Degenerate but reference-supported shape: zero rows.
        empty = np.zeros((0, 64), np.uint8)
        sync = Synchronizer(2)
        ref = sync._reference_process_bits(empty, empty)
        got = sync._process_bits(empty, empty)
        assert got[0].shape == ref[0].shape == (0, 64)
        assert _scan_outputs(sync, empty, empty)[0].shape == (0, 64)
        for strategy in ("auto", "step"):
            kernels.set_strategy(strategy)
            assert sync._process_bits(empty, empty)[0].shape == (0, 64)

    def test_trajectory_rejects_unknown_strategy(self):
        fsm = kernels.compile_transform(Synchronizer(1))
        with pytest.raises(ValueError):
            kernels.state_trajectory(fsm, np.zeros((1, 4), np.uint8), strategy="nope")


# ---------------------------------------------------------------------- #
# Single-row walks and doubled LUTs against the loops they replaced
# ---------------------------------------------------------------------- #

def _per_step_table(fsm, k, fused):
    """The k-step chunk LUT built one step per full pass: the oracle for
    the doubling build in ``steppers._composed_table``."""
    n_codes = fsm.n_symbols ** k
    comp = np.broadcast_to(
        np.arange(fsm.n_states, dtype=fsm.steady.next_state.dtype),
        (n_codes, fsm.n_states),
    ).copy()
    out_words = np.zeros((n_codes, fsm.n_states), dtype=np.uint32)
    codes = np.arange(n_codes, dtype=np.int64)
    stride = 2 if fsm.steady.out_y is not None else 1
    for j in range(k):
        digit = (codes // fsm.n_symbols ** j) % fsm.n_symbols
        if fused:
            bits_x = fsm.steady.out_x[digit[:, None], comp]
            out_words |= bits_x.astype(np.uint32) << np.uint32(stride * j)
            if stride == 2:
                bits_y = fsm.steady.out_y[digit[:, None], comp]
                out_words |= bits_y.astype(np.uint32) << np.uint32(2 * j + 1)
        comp = fsm.steady.next_state[digit[:, None], comp]
    if fused:
        return comp.astype(np.uint32) | (out_words << np.uint32(16))
    return comp


# One instance per compilable type (and both flush modes of the
# flush-capable ones): the circuits whose tables the LUT build composes.
LUT_CIRCUITS = [
    Synchronizer(1), Synchronizer(4, flush=True),
    Desynchronizer(2), Desynchronizer(4, flush=True),
    CorDiv(initial=1), CAAdder(), CAMax(counter_bits=4),
    TrackingForecastMemory(LFSR(8, seed=7)),
]

# The circuits the single-row walks run: synchronizer and desynchronizer
# at depths {1, 2, 4}, flush on and off, and the CA adder and CA max.
WALK_CIRCUITS = [
    cls(depth, flush=flush)
    for cls in (Synchronizer, Desynchronizer)
    for depth in (1, 2, 4)
    for flush in (False, True)
] + [CAAdder(), CAMax(counter_bits=1), CAMax(counter_bits=2), CAMax(counter_bits=4)]


def _stepped_outputs(fsm, x, y, state):
    """``chunked_outputs`` one cycle at a time over the steady table."""
    two = fsm.steady.out_y is not None
    out_x = np.empty(x.shape, dtype=np.uint8)
    out_y = np.empty(x.shape, dtype=np.uint8) if two else None
    for t in range(x.shape[1]):
        sym = (x[:, t] << np.uint8(1)) | y[:, t]
        out_x[:, t] = fsm.steady.out_x[sym, state]
        if two:
            out_y[:, t] = fsm.steady.out_y[sym, state]
        state = fsm.steady.next_state[sym, state]
    return out_x, out_y, state


def _walk_case():
    """(circuit index, length, seed, row): the batch-of-3 inputs and
    entry states are drawn from the seed, and ``row`` is the one run
    alone."""
    return st.tuples(
        st.integers(0, len(WALK_CIRCUITS) - 1), st.integers(0, 300),
        st.integers(0, 2**32 - 1), st.integers(0, 2),
    )


def _walk_map_per_chunk(lut, bases, row):
    """The span-map walk with merge bookkeeping after every chunk: the
    single-map walk ``steppers._walk_map`` replaced, kept as its oracle."""
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


# The maps compose_chunk walks: every walked circuit, the synchronizer
# and desynchronizer at depth 3 too, and the TFM's 256-state register.
MAP_CIRCUITS = WALK_CIRCUITS + [
    cls(3, flush=flush)
    for cls in (Synchronizer, Desynchronizer)
    for flush in (False, True)
] + [TrackingForecastMemory(LFSR(8, seed=7))]


class TestSingleRowWalks:
    def test_lut_circuits_cover_every_compilable_type(self):
        assert {type(c) for c in LUT_CIRCUITS} == set(kernels.compilable_types())

    @pytest.mark.parametrize("circuit", LUT_CIRCUITS, ids=repr)
    def test_doubled_lut_equals_per_step_build(self, circuit):
        fsm = kernels.compile_transform(circuit)
        k_max = kernels.choose_chunk(fsm.n_symbols, fsm.n_states)
        stride = 2 if fsm.steady.out_y is not None else 1
        for fused in (False, True):
            if fused and fsm.steady.out_x is None:
                continue
            for k in range(1, (min(k_max, 16 // stride) if fused else k_max) + 1):
                got = _composed_table(fsm, k, fused)
                want = _per_step_table(fsm, k, fused)
                assert got.dtype == want.dtype, (k, fused)
                assert np.array_equal(got, want), (k, fused)

    @given(index=st.integers(0, len(WALK_CIRCUITS) - 1),
           batch=st.integers(1, steppers._ROW_WALK_BATCH + 1),
           length=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_chunked_outputs_row_equals_batched_take(self, index, batch, length, seed):
        # Batches on both sides of the row-walk limit, each row entering
        # in its own state: the row walks, the batched take loop and
        # per-cycle stepping agree.
        fsm = kernels.compile_transform(WALK_CIRCUITS[index])
        rng = np.random.default_rng(seed)
        x, y = _bits(rng, batch, length), _bits(rng, batch, length)
        state = rng.integers(0, fsm.n_states, batch).astype(fsm.steady.next_state.dtype)
        entry = state.copy()
        walked = chunked_outputs(fsm, x, y, state)
        with mock.patch.object(steppers, "_ROW_WALK_BATCH", 0):
            taken = chunked_outputs(fsm, x, y, state)
        assert np.array_equal(state, entry)
        stepped = _stepped_outputs(fsm, x, y, state)
        for got, want, ref in zip(walked, taken, stepped):
            assert (got is None) == (want is None) == (ref is None)
            if want is not None:
                assert got.dtype == want.dtype == ref.dtype
                assert np.array_equal(got, want)
                assert np.array_equal(got, ref)

    @given(tfm=st.booleans(),
           batch=st.integers(1, steppers._ROW_WALK_BATCH + 1),
           length=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_state_trajectory_rows_equal_batched_take(self, tfm, batch, length, seed):
        circuit = TrackingForecastMemory(LFSR(8, seed=7)) if tfm else Synchronizer(4)
        fsm = kernels.compile_transform(circuit)
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, fsm.n_symbols, (batch, length)).astype(np.uint8)
        initial = rng.integers(0, fsm.n_states, batch).astype(fsm.steady.next_state.dtype)
        walked = kernels.state_trajectory(fsm, symbols, initial=initial)
        with mock.patch.object(steppers, "_ROW_WALK_BATCH", 0):
            taken = kernels.state_trajectory(fsm, symbols, initial=initial)
        stepped = kernels.state_trajectory(
            fsm, symbols, strategy="step", initial=initial
        )
        for got, want, ref in zip(walked, taken, stepped):
            assert got.dtype == want.dtype == ref.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(got, ref)

    @given(case=_walk_case(), remaining_after=st.integers(0, 6))
    @settings(max_examples=120, deadline=None)
    def test_step_chunk_row_equals_batched_take(self, case, remaining_after):
        # Flush circuits step their tail tables around the walked steady
        # region; the split must not depend on the batch size.
        index, length, seed, row = case
        fsm = kernels.compile_transform(WALK_CIRCUITS[index])
        rng = np.random.default_rng(seed)
        x, y = _bits(rng, 3, length), _bits(rng, 3, length)
        state = rng.integers(0, fsm.n_states, 3).astype(np.int16)
        with mock.patch.object(steppers, "_ROW_WALK_BATCH", 0):
            batched = kernels.step_chunk(
                fsm, state, x, y, remaining_after=remaining_after
            )
        single = kernels.step_chunk(
            fsm, state[row:row + 1], x[row:row + 1], y[row:row + 1],
            remaining_after=remaining_after,
        )
        for got, want in zip(single, batched):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want[row:row + 1])

    # About half the draws take the TFM, the one wide map that merges.
    @given(index=st.one_of(st.integers(0, len(MAP_CIRCUITS) - 1),
                           st.just(len(MAP_CIRCUITS) - 1)),
           length=st.integers(0, 2**14), seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from(["identity", "random", "constant"]),
           remaining_after=st.integers(0, 6))
    @settings(max_examples=160, deadline=None)
    def test_compose_chunk_row_equals_batched_take(
        self, index, length, seed, spread, remaining_after
    ):
        # Up to 2^14 symbols (thousands of chunks, so many doubled
        # blocks): the block walk at batch 1, the per-chunk walk and the
        # batch-3 take loop agree on every row. Flush circuits step their
        # tail tables around the walked steady region, and the TFM's
        # 256-state maps merge as their states meet.
        fsm = kernels.compile_transform(MAP_CIRCUITS[index])
        rng = np.random.default_rng(seed)
        n = fsm.n_states
        symbols = rng.integers(0, fsm.n_symbols, (3, length)).astype(np.uint8)
        maps = {
            "identity": np.tile(np.arange(n, dtype=np.int16), (3, 1)),
            "random": rng.integers(0, n, (3, n)).astype(np.int16),
            "constant": np.full((3, n), rng.integers(0, n), dtype=np.int16),
        }[spread]
        batched = compose_chunk(fsm, maps, symbols, remaining_after=remaining_after)
        for row in range(3):
            args = (fsm, maps[row:row + 1], symbols[row:row + 1])
            single = compose_chunk(*args, remaining_after=remaining_after)
            with mock.patch.object(steppers, "_walk_map", _walk_map_per_chunk):
                oracle = compose_chunk(*args, remaining_after=remaining_after)
            assert single.dtype == oracle.dtype == batched.dtype
            assert np.array_equal(single, oracle)
            assert np.array_equal(single, batched[row:row + 1])

    @given(length=st.integers(0, 2000), seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from(["identity", "random", "constant"]))
    @settings(max_examples=40, deadline=None)
    def test_compose_chunk_row_merges_wide_maps_exactly(self, length, seed, spread):
        # The TFM register has 256 states: the single-row walk follows
        # only the distinct states of the map, merging them as they meet.
        fsm = kernels.compile_transform(TrackingForecastMemory(LFSR(8, seed=7)))
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, 2, (3, length)).astype(np.uint8)
        maps = {
            "identity": np.tile(np.arange(256, dtype=np.int16), (3, 1)),
            "random": rng.integers(0, 256, (3, 256)).astype(np.int16),
            "constant": np.full((3, 256), rng.integers(0, 256), dtype=np.int16),
        }[spread]
        batched = compose_chunk(fsm, maps, symbols)
        for row in range(3):
            single = compose_chunk(fsm, maps[row:row + 1], symbols[row:row + 1])
            with mock.patch.object(steppers, "_walk_map", _walk_map_per_chunk):
                oracle = compose_chunk(fsm, maps[row:row + 1], symbols[row:row + 1])
            assert np.array_equal(single, oracle)
            assert np.array_equal(single, batched[row:row + 1])

    @pytest.mark.parametrize("circuit, persistent", [
        (Desynchronizer(1), 2),
        (Synchronizer(1), 1),
        (TrackingForecastMemory(LFSR(8, seed=7)), 1),
    ], ids=["desync1", "sync1", "tfm"])
    def test_walks_blocks_not_chunks(self, circuit, persistent):
        # The desynchronizer's map never contracts to one state (two stay
        # apart for good), so a walk that merges per chunk would call the
        # block helper once per state per chunk. Blocks of 1, 2, 4, ...
        # chunks bound the calls by the map's distinct entry states times
        # the number of blocks, and merging keeps the lookups near one
        # walk per persistent state.
        fsm = kernels.compile_transform(circuit)
        rng = np.random.default_rng(3)
        symbols = rng.integers(0, fsm.n_symbols, (1, 2**16)).astype(np.uint8)
        identity = np.arange(fsm.n_states, dtype=np.int16)[None, :]
        chunks = 2**16 // steppers.choose_chunk(fsm.n_symbols, fsm.n_states)
        walk_block, blocks = steppers._walk_block, []

        def spy(step, bases, state):
            bases = list(bases)
            blocks.append(len(bases))
            return walk_block(step, bases, state)

        # 2^16 symbols is past the block-walk switch: raise it over this
        # row so the python-int map walk is the one counted.
        with mock.patch.object(steppers, "_BLOCK_WALK_CHUNKS", chunks + 1):
            with mock.patch.object(steppers, "_walk_block", spy):
                walked = compose_chunk(fsm, identity, symbols)
            with mock.patch.object(steppers, "_walk_map", _walk_map_per_chunk):
                assert np.array_equal(walked, compose_chunk(fsm, identity, symbols))
        assert len(set(walked[0].tolist())) == persistent
        bound = fsm.n_states * (int(np.log2(chunks)) + 1)
        assert 0 < len(blocks) <= bound, (len(blocks), bound)
        assert sum(blocks) < (persistent + 1) * chunks, (sum(blocks), chunks)


# The tables the blocked walks run: every map circuit but the TFM, whose
# 256 states are over the switch's state cap.
BLOCK_CIRCUITS = MAP_CIRCUITS[:-1]


def _block_lut(draw_case):
    """``(lut, n_states, n_codes)`` for one drawn table: a random LUT of
    2-16 states, or a compiled circuit's fused state field or plain
    composed map (what ``chunked_outputs`` and the trajectory walk)."""
    kind, index, n, fused, seed = draw_case
    rng = np.random.default_rng(seed)
    if kind == "random":
        n_codes = int(rng.integers(1, 300))
        lut = rng.integers(0, n, (n_codes, n)).astype(np.int16).ravel()
        return lut, n, n_codes
    fsm = kernels.compile_transform(BLOCK_CIRCUITS[index])
    k = kernels.choose_chunk(fsm.n_symbols, fsm.n_states)
    if fused:
        stride = 2 if fsm.steady.out_y is not None else 1
        table = _composed_table(fsm, min(k, 16 // stride), True)
        return steppers._state_half(table.ravel()), fsm.n_states, table.shape[0]
    table = _composed_table(fsm, k, False)
    return table.ravel(), fsm.n_states, table.shape[0]


def _block_table():
    return st.tuples(
        st.sampled_from(["random", "circuit"]),
        st.integers(0, len(BLOCK_CIRCUITS) - 1), st.integers(2, 16),
        st.booleans(), st.integers(0, 2**32 - 1),
    )


def _row_chunks():
    """Chunk counts on both sides of the switch, most not multiples of
    the block size."""
    switch = steppers._BLOCK_WALK_CHUNKS
    return st.one_of(
        st.integers(0, 200), st.integers(switch - 40, switch + 600),
    )


class TestBlockedWalks:
    @given(table=_block_table(), batch=st.integers(1, 8), chunks=_row_chunks(),
           seed=st.integers(0, 2**32 - 1), low=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_blocked_rows_equal_per_row_walks(self, table, batch, chunks, seed, low):
        # The row walk (blocked past the switch, or everywhere with the
        # switch patched down) gives each chunk's entry state and each
        # row's final state exactly as a plain per-row walk.
        lut, n, n_codes = _block_lut(table)
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, n_codes, (batch, chunks)).astype(np.uint32)
        index = codes * np.uint32(n)
        state = rng.integers(0, n, batch).astype(np.int16)
        entry = state.copy()
        switch = 1 if low else steppers._BLOCK_WALK_CHUNKS
        with mock.patch.object(steppers, "_BLOCK_WALK_CHUNKS", switch), \
                mock.patch.object(steppers, "_walk_blocked",
                                  wraps=steppers._walk_blocked) as blocked:
            walked = steppers._walk_rows(lut, index, state, n)
        assert walked.dtype == lut.dtype and walked.shape == (batch, chunks)
        assert blocked.call_count == (batch if chunks >= switch else 0)
        for b in range(batch):
            want, final = steppers._walk_states(lut, index[b].tolist(), int(entry[b]))
            assert walked[b].tolist() == want
            assert int(state[b]) == final

    @given(index=st.integers(0, len(BLOCK_CIRCUITS) - 1),
           length=st.one_of(st.integers(0, 400),
                            st.integers(2048 * 9, 2048 * 9 + 3000)),
           seed=st.integers(0, 2**32 - 1),
           spread=st.sampled_from(["identity", "random", "constant"]),
           remaining_after=st.integers(0, 6), low=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_blocked_compose_equals_per_chunk_walk_and_batched_take(
        self, index, length, seed, spread, remaining_after, low
    ):
        # compose_chunk at batch 1 past the switch (or with it patched
        # down) folds block maps; it equals the per-chunk map walk with
        # the switch out of reach and the batch-3 take loop, flush tails
        # included.
        fsm = kernels.compile_transform(BLOCK_CIRCUITS[index])
        rng = np.random.default_rng(seed)
        n = fsm.n_states
        symbols = rng.integers(0, fsm.n_symbols, (3, length)).astype(np.uint8)
        maps = {
            "identity": np.tile(np.arange(n, dtype=np.int16), (3, 1)),
            "random": rng.integers(0, n, (3, n)).astype(np.int16),
            "constant": np.full((3, n), rng.integers(0, n), dtype=np.int16),
        }[spread]
        batched = compose_chunk(fsm, maps, symbols, remaining_after=remaining_after)
        switch = 1 if low else steppers._BLOCK_WALK_CHUNKS
        for row in range(3):
            args = (fsm, maps[row:row + 1], symbols[row:row + 1])
            with mock.patch.object(steppers, "_BLOCK_WALK_CHUNKS", switch):
                single = compose_chunk(*args, remaining_after=remaining_after)
            with mock.patch.object(steppers, "_BLOCK_WALK_CHUNKS", 2**62), \
                    mock.patch.object(steppers, "_walk_map", _walk_map_per_chunk):
                oracle = compose_chunk(*args, remaining_after=remaining_after)
            assert single.dtype == oracle.dtype == batched.dtype
            assert np.array_equal(single, oracle)
            assert np.array_equal(single, batched[row:row + 1])

    def test_routing_follows_row_length_and_state_count(self):
        # A 2^18-bit stream tile through Synchronizer(1) walks and
        # composes in blocks; a 2^12-bit served row and the TFM's
        # 256-state register keep the python-int walks.
        spies = {
            name: mock.MagicMock(wraps=getattr(steppers, name))
            for name in ("_walk_blocked", "_map_blocked", "_walk_states", "_walk_map")
        }

        def route(call):
            for spy in spies.values():
                spy.reset_mock()
            with mock.patch.multiple(steppers, **spies):
                call()
            return {name: spy.call_count for name, spy in spies.items()}

        rng = np.random.default_rng(11)
        sync = kernels.compile_transform(Synchronizer(1))
        tfm = kernels.compile_transform(TrackingForecastMemory(LFSR(8, seed=7)))
        state = np.zeros(1, dtype=np.int16)
        tile, served = _bits(rng, 2, 2**18), _bits(rng, 2, 2**12)
        identity = np.arange(sync.n_states, dtype=np.int16)[None, :]

        calls = route(lambda: kernels.step_chunk(sync, state, tile[:1], tile[1:]))
        assert calls["_walk_blocked"] == 1 and calls["_map_blocked"] == 0
        # The block-map scan and the sub-block remainder reuse the walk.
        assert calls["_walk_states"] == 2
        calls = route(lambda: compose_chunk(sync, identity, tile[:1]))
        assert calls["_map_blocked"] == 1 and calls["_walk_blocked"] == 0
        calls = route(lambda: kernels.step_chunk(sync, state, served[:1], served[1:]))
        assert calls["_walk_blocked"] == 0 and calls["_walk_states"] == 1
        calls = route(lambda: compose_chunk(sync, identity, served[:1]))
        assert calls["_map_blocked"] == 0 and calls["_walk_map"] == 1
        tfm_identity = np.arange(tfm.n_states, dtype=np.int16)[None, :]
        calls = route(lambda: kernels.state_trajectory(tfm, tile[:1]))
        assert calls["_walk_blocked"] == 0 and calls["_walk_states"] == 1
        calls = route(lambda: compose_chunk(tfm, tfm_identity, tile[:1]))
        assert calls["_map_blocked"] == 0 and calls["_walk_map"] == 1


# ---------------------------------------------------------------------- #
# Shuffle reads and shuffle maps against the passes they replaced
# ---------------------------------------------------------------------- #

def _gather_trick_shuffle(buffer, bits):
    """The one-shot shuffle kernel as a previous-hit index, two gathers
    and a select: the form ``dispatch.shuffle_reads`` replaced."""
    length = bits.shape[1]
    addresses = buffer.rng.integers(length, buffer.depth)
    prev = np.full(length, -1, dtype=np.int64)
    for slot in range(buffer.depth):
        hits = np.flatnonzero(addresses == slot)
        if hits.size > 1:
            prev[hits[1:]] = hits[:-1]
    fallback = buffer._initial_buffer(1)[0][addresses]
    gathered = bits[:, np.maximum(prev, 0)]
    return np.where(prev >= 0, gathered, fallback[None, :]).astype(np.uint8)


def _full_scan_map(buffer, bits, start):
    """One chunk's shuffle map ``(written, values)`` from a pass per slot
    over the chunk's whole address window: the composer step the tail
    search replaced."""
    length = bits.shape[1]
    addresses = buffer.rng.integers_window(start, start + length, buffer.depth)
    slot_last = np.full(buffer.depth, -1, dtype=np.int64)
    for slot in range(buffer.depth):
        hits = np.flatnonzero(addresses == slot)
        if hits.size:
            slot_last[slot] = hits[-1]
    written = slot_last >= 0
    values = np.zeros((bits.shape[0], buffer.depth), dtype=np.uint8)
    values[:, written] = bits[:, slot_last[written]]
    return written, values


# Address sources: an LFSR hits every slot within a few cycles; a
# width-8 counter dwells on each slot for 256 / depth cycles, so a slot's
# last write can lie far behind a chunk's end; a width-2 counter never
# addresses most slots of a deep buffer. Halton has no period, so its
# buffers take the pass per slot; the others read through the cycle.
ADDRESS_RNGS = {
    "lfsr": lambda: LFSR(8, seed=45),
    "counter8": lambda: CounterRNG(8),
    "counter2": lambda: CounterRNG(2),
    "halton": lambda: Halton(3, 8),
}


def _cuts(lengths):
    return np.cumsum([0] + list(lengths)).tolist()


class TestShuffleReads:
    @given(depth=st.integers(1, 32),
           init=st.sampled_from(["half_ones", "zeros", "ones"]),
           batch=st.sampled_from([1, 8, 64]),
           source=st.sampled_from(sorted(ADDRESS_RNGS)),
           lengths=st.lists(
               st.one_of(st.integers(1, 64), st.integers(1, 800)),
               min_size=1, max_size=6,
           ),
           resume=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kernel_and_carrier_equal_reference(
        self, depth, init, batch, source, lengths, resume, seed
    ):
        # The one-shot kernel and a carrier fed the same stream in random
        # chunks (shorter than the address period, or several periods
        # long) both read what the per-cycle loop reads, and the carrier
        # leaves each slot holding its last write. A second carrier that
        # starts mid-stream from the first one's state, as a span after
        # the first does, reads the rest of the stream the same way.
        buffer = ShuffleBuffer(ADDRESS_RNGS[source](), depth, init=init)
        cuts = _cuts(lengths)
        resume = cuts[min(resume, len(lengths) - 1)]
        bits = _bits(np.random.default_rng(seed), batch, cuts[-1])
        reference = buffer._reference_process_stream_bits(bits)
        kernel = dispatch.shuffle_kernel(buffer, bits)
        assert kernel.dtype == np.uint8
        assert np.array_equal(kernel, reference)
        assert np.array_equal(kernel, _gather_trick_shuffle(buffer, bits))

        carrier = make_stream_carrier(buffer, cuts[-1], batch)
        steps = []
        for a, b in zip(cuts, cuts[1:]):
            if a == resume:
                resumed = make_stream_carrier(buffer, cuts[-1], batch, start=a)
                resumed.set_state(carrier.get_state())
            steps.append(carrier.step(bits[:, a:b]))
        assert np.array_equal(np.concatenate(steps, axis=1), reference)
        written, values = _full_scan_map(buffer, bits, 0)
        final = np.where(written[None, :], values, buffer._initial_buffer(batch))
        assert np.array_equal(carrier.get_state(), final)

        rest = [resumed.step(bits[:, a:b])
                for a, b in zip(cuts, cuts[1:]) if a >= resume]
        assert np.array_equal(np.concatenate(rest, axis=1), reference[:, resume:])
        assert np.array_equal(resumed.get_state(), final)

    @pytest.mark.parametrize("source, periodic", [("lfsr", True), ("halton", False)])
    def test_address_windows_only_without_a_period(self, source, periodic):
        # Addresses with a cacheable period come from the buffer's cycle:
        # neither the kernel nor a carrier asks the RNG for an address
        # window. Aperiodic ones still do, and tick the fallback counter
        # once per chunk.
        buffer = ShuffleBuffer(ADDRESS_RNGS[source](), 4)
        rng = buffer.rng
        bits = _bits(np.random.default_rng(23), 2, 700)
        with mock.patch.object(rng, "integers", wraps=rng.integers) as integers, \
                mock.patch.object(rng, "integers_window",
                                  wraps=rng.integers_window) as window, \
                obs.observe() as trace:
            dispatch.shuffle_kernel(buffer, bits)
            carrier = make_stream_carrier(buffer, 700, 2)
            for a, b in ((0, 100), (100, 600), (600, 700)):
                carrier.step(bits[:, a:b])
        asked = integers.call_count + window.call_count
        fallbacks = trace.metrics["counters"].get("kernels.shuffle.fallback.aperiodic", 0)
        assert (asked, fallbacks) == ((0, 0) if periodic else (4, 4))

    def test_long_stream_audit_counts_no_fallback(self):
        # Every decorrelator the library builds is LFSR-addressed: each
        # tile of a tiled long-stream audit reads both buffers through
        # their cycles, and no chunk takes the pass per slot.
        from repro import engine
        from repro.engine.library import long_stream_graph

        cycle_reads = dispatch._ShuffleCycle.reads
        calls = []

        def spy(cycle, *args):
            calls.append(args[1].shape)
            return cycle_reads(cycle, *args)

        plan = engine.compile(long_stream_graph(16))
        with mock.patch.object(dispatch._ShuffleCycle, "reads", spy), \
                obs.observe() as trace:
            engine.audit_streaming(plan, 1 << 14, tile_words=64)
        assert calls == [(1, 4096)] * 8
        counters = trace.metrics["counters"]
        assert "kernels.shuffle.fallback.aperiodic" not in counters

    @given(depth=st.integers(1, 8),
           batch=st.sampled_from([1, 8]),
           source=st.sampled_from(sorted(ADDRESS_RNGS)),
           start=st.integers(0, 600),
           lengths=st.lists(
               st.one_of(st.integers(1, 63), st.integers(64, 700)),
               min_size=1, max_size=6,
           ),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_composer_equals_full_scan(
        self, depth, batch, source, start, lengths, seed
    ):
        # Chunks shorter than the first tail window, chunks whose slots'
        # last writes lie far behind their end, slots a chunk never
        # addresses: every chunk's map is the full scan's, and the
        # composed map lands on the carrier's contents.
        buffer = ShuffleBuffer(ADDRESS_RNGS[source](), depth)
        cuts = _cuts(lengths)
        bits = _bits(np.random.default_rng(seed), batch, cuts[-1])
        composer = make_stream_composer(buffer, start + cuts[-1], batch, start)
        expected = (np.zeros(depth, dtype=bool),
                    np.zeros((batch, depth), dtype=np.uint8))
        for a, b in zip(cuts, cuts[1:]):
            composer.step(bits[:, a:b])
            chunk = _full_scan_map(buffer, bits[:, a:b], start + a)
            expected = composer.compose(expected, chunk)
            written, values = composer.state_map
            assert np.array_equal(written, expected[0])
            assert np.array_equal(values[:, written], expected[1][:, written])
        carrier = make_stream_carrier(buffer, start + cuts[-1], batch, start)
        entry = carrier.get_state()
        carrier.step(bits)
        assert np.array_equal(
            composer.apply(composer.state_map, entry), carrier.get_state()
        )

    def test_last_write_far_behind_tile_end(self):
        # A width-8 counter over 8 slots addresses slot 0 for cycles
        # 0-31 only: in a 256-cycle tile its last write is 224 cycles
        # before the end, three doublings past the first tail window.
        buffer = ShuffleBuffer(CounterRNG(8), 8)
        bits = _bits(np.random.default_rng(21), 2, 256)
        composer = make_stream_composer(buffer, 256, 2)
        composer.step(bits)
        written, values = composer.state_map
        assert written.all()
        assert np.array_equal(values, bits[:, 31::32])

    def test_slot_never_addressed(self):
        # A width-2 counter reaches slots 0, 2, 4 and 6 of 8 only: the
        # search covers the whole tile and leaves the odd slots unwritten.
        buffer = ShuffleBuffer(CounterRNG(2), 8)
        bits = _bits(np.random.default_rng(22), 3, 1000)
        composer = make_stream_composer(buffer, 1000, 3)
        composer.step(bits)
        written, values = composer.state_map
        assert written.tolist() == [True, False] * 4
        assert np.array_equal(values[:, written], bits[:, 996:])


# ---------------------------------------------------------------------- #
# Engine integration
# ---------------------------------------------------------------------- #

class TestEngineIntegration:
    def test_audit_float_identical_across_backends(self):
        from repro import engine
        from repro.engine.library import build_graph

        plan = engine.compile(build_graph("fsm_zoo"))
        with_kernels = plan.audit(256)
        kernels.set_backend("reference")
        reference = plan.audit(256)
        assert with_kernels.values == reference.values
        for a, b in zip(with_kernels.entries, reference.entries):
            assert a.measured_scc == b.measured_scc
            assert a.measured_value == b.measured_value

    def test_run_batch_rows_bit_identical_across_backends(self):
        from repro import engine
        from repro.engine.library import build_graph

        plan = engine.compile(build_graph("fsm_zoo"))
        values = {"a": np.linspace(0.1, 0.9, 17)}
        with_kernels = plan.run_batch(255, values=values)
        kernels.set_backend("reference")
        reference = plan.run_batch(255, values=values)
        for name in with_kernels.names:
            assert np.array_equal(
                with_kernels.words(name), reference.words(name)
            ), name
