"""Equivalence and determinism suite for :mod:`repro.kernels`.

The contract under test: for every circuit with a registered kernel, the
time-parallel execution is **bit-identical** to the circuit's per-cycle
reference loop — across depths, flush modes, encodings, odd/short
lengths, batch sizes, and every stepper strategy — and compilation is a
deterministic pure function of the circuit's constructor parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import kernels
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
from repro.kernels.steppers import _composed_table, chunked_outputs, compose_chunk
from repro.rng import LFSR

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
                for strategy in ("chunked", "scan", "step", "auto"):
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
        baseline = kernels.state_trajectory(fsm, symbols, strategy="step")
        for strategy in ("chunked", "scan", "auto"):
            states, final = kernels.state_trajectory(fsm, symbols, strategy=strategy)
            assert np.array_equal(states, baseline[0]), strategy
            assert np.array_equal(final, baseline[1]), strategy

    def test_strategy_choice_scales_with_shape(self):
        # Big batch -> chunked; tiny batch + long stream -> scan.
        assert kernels.choose_strategy(1024, 1024, 9, 4) == "chunked"
        assert kernels.choose_strategy(1, 1 << 16, 9, 4) == "scan"

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
        for strategy in ("chunked", "scan", "step"):
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


def _walk_case():
    """(circuit index, length, seed, row): the batch-of-3 inputs, entry
    states and maps are drawn from the seed, and ``row`` is the one run
    alone."""
    return st.tuples(
        st.integers(0, len(WALK_CIRCUITS) - 1), st.integers(0, 300),
        st.integers(0, 2**32 - 1), st.integers(0, 2),
    )


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

    @given(case=_walk_case())
    @settings(max_examples=120, deadline=None)
    def test_chunked_outputs_row_equals_batched_take(self, case):
        index, length, seed, row = case
        fsm = kernels.compile_transform(WALK_CIRCUITS[index])
        rng = np.random.default_rng(seed)
        x, y = _bits(rng, 3, length), _bits(rng, 3, length)
        dtype = fsm.steady.next_state.dtype
        state = rng.integers(0, fsm.n_states, 3).astype(dtype)
        batched = chunked_outputs(fsm, x, y, state.copy())
        single = chunked_outputs(
            fsm, x[row:row + 1], y[row:row + 1], state[row:row + 1].copy()
        )
        for got, want in zip(single, batched):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want[row:row + 1])

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
        batched = kernels.step_chunk(fsm, state, x, y, remaining_after=remaining_after)
        single = kernels.step_chunk(
            fsm, state[row:row + 1], x[row:row + 1], y[row:row + 1],
            remaining_after=remaining_after,
        )
        for got, want in zip(single, batched):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want[row:row + 1])

    @given(case=_walk_case(), remaining_after=st.integers(0, 6),
           identity=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_compose_chunk_row_equals_batched_take(self, case, remaining_after, identity):
        index, length, seed, row = case
        fsm = kernels.compile_transform(WALK_CIRCUITS[index])
        rng = np.random.default_rng(seed)
        symbols = rng.integers(0, 4, (3, length)).astype(np.uint8)
        if identity:
            maps = np.tile(np.arange(fsm.n_states, dtype=np.int16), (3, 1))
        else:
            maps = rng.integers(0, fsm.n_states, (3, fsm.n_states)).astype(np.int16)
        batched = compose_chunk(fsm, maps, symbols, remaining_after=remaining_after)
        single = compose_chunk(
            fsm, maps[row:row + 1], symbols[row:row + 1],
            remaining_after=remaining_after,
        )
        assert single.dtype == batched.dtype
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
            assert np.array_equal(single, batched[row:row + 1])


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
