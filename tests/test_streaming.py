"""Streaming tile execution: bit-identity at every tile boundary.

Four contracts, each enforced against the existing engines rather than
against fixtures:

1. **Windowed RNGs** — ``sequence_window(s, e)`` equals
   ``sequence(e)[s:e]`` for every registered generator (hypothesis over
   window bounds);
2. **Resumable steppers** — ``step_chunk`` / the transform carriers
   reproduce one-shot kernel execution bit for bit when a stream is cut
   at arbitrary boundaries, for every FSM kernel, across odd lengths and
   the tile sizes {1, 7, 64, 4096} words;
3. **Streaming executor** — ``run_streaming`` / ``audit_streaming`` are
   bit-/float-identical to ``run_batch`` / ``audit`` for every library
   graph, both encodings, odd lengths, batches >= 1, with and without
   fusion;
4. **Streaming pipeline** — the accelerator's ``backend="streaming"``
   output equals the engine route exactly, per variant.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import CAAdder, CAMax, CorDiv
from repro.bitstream.packed import pack_bits, unpack_bits
from repro.bitstream.streaming import (
    OverlapAccumulator,
    PackedTileSource,
    ValueAccumulator,
    iter_tiles,
    tile_bounds,
    tile_count,
)
from repro.core import (
    Decorrelator,
    Desynchronizer,
    IsolatorPair,
    SeriesPair,
    Synchronizer,
    TFMPair,
)
from repro.core.tfm import TrackingForecastMemory
from repro.engine import (
    GRAPH_LIBRARY,
    build_graph,
    clear_sequence_cache,
    compile_graph,
    run_streaming,
)
from repro.engine.executor import audit, audit_batch, run_batch
from repro.engine.library import long_stream_graph, mux_chain_graph
from repro.engine.plan import FusedChain
from repro.engine.streaming import audit_streaming
from repro.exceptions import EncodingError, GraphCompilationError
from repro.kernels import compiled_kernel, make_pair_carrier, step_chunk
from repro.kernels.dispatch import _run_tables
from repro.rng import LFSR, make_rng
from tests.helpers import assert_backends_equivalent, in_process_lane

# Tile sizes from the issue's acceptance grid, in 64-bit words.
TILE_WORDS_GRID = (1, 7, 64, 4096)


def _random_bits(shape, seed, p=0.5):
    return (np.random.default_rng(seed).random(shape) < p).astype(np.uint8)


# ---------------------------------------------------------------------- #
# 1. Windowed RNG generation
# ---------------------------------------------------------------------- #

WINDOW_SPECS = [
    ("vdc", {}), ("halton3", {}), ("halton5", {}), ("halton7", {}),
    ("lfsr", {}), ("counter", {}), ("sobol0", {}), ("sobol1", {}),
    ("system", {}), ("vdc", {"width": 20}), ("sobol0", {"width": 20}),
    ("counter", {"width": 20}), ("halton3", {"width": 20}),
]


class TestWindowedRNG:
    @pytest.mark.parametrize("spec,kwargs", WINDOW_SPECS,
                             ids=[f"{s}-{k.get('width', 8)}" for s, k in WINDOW_SPECS])
    @given(bounds=st.tuples(st.integers(0, 2000), st.integers(0, 2000)))
    @settings(max_examples=25, deadline=None)
    def test_window_equals_prefix_slice(self, spec, kwargs, bounds):
        start, stop = min(bounds), max(bounds)
        rng = make_rng(spec, **kwargs)
        full = rng.sequence(2000) if stop else None
        window = rng.sequence_window(start, stop)
        assert window.shape == (stop - start,)
        if stop:
            assert np.array_equal(window, full[start:stop])

    @pytest.mark.parametrize("spec,kwargs", [
        ("vdc", {}), ("halton3", {}), ("vdc", {"width": 20}),
        ("halton5", {"width": 20}), ("sobol0", {"width": 20}),
        ("counter", {"width": 20}),
    ], ids=["vdc8", "halton3-8", "vdc20", "halton5-20", "sobol0-20", "counter20"])
    def test_sequence_at_arbitrary_indices(self, spec, kwargs):
        rng = make_rng(spec, **kwargs)
        full = rng.sequence(1500)
        idx = np.array([[0, 700, 3], [1499, 256, 255]])
        assert np.array_equal(rng.sequence_at(idx), full[idx])

    def test_sequence_at_is_index_addressed_for_aperiodic(self):
        """Aperiodic (Halton) and wide generators must not fall back to
        generating the max-index prefix — the streaming blur's phase
        rotation indexes near the end of very long streams."""
        rng = make_rng("halton3", width=20)
        huge = np.array([10_000_000, 3, 10_000_001])
        values = rng.sequence_at(huge)
        assert values.shape == (3,)
        assert np.array_equal(values[[1]], rng.sequence(4)[[3]])

    def test_integers_window_matches(self):
        rng = LFSR(8, seed=9)
        # Windows longer and shorter than the 255-value period, and empty.
        for start, stop in ((13, 900), (13, 77), (300, 300)):
            assert np.array_equal(
                rng.integers_window(start, stop, 4), rng.integers(900, 4)[start:stop]
            )

    def test_window_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            make_rng("vdc").sequence_window(10, 3)


# ---------------------------------------------------------------------- #
# 2. Resumable steppers: step_chunk + carriers
# ---------------------------------------------------------------------- #

PAIR_FSMS = [
    pytest.param(lambda: Synchronizer(depth=1), id="sync-d1"),
    pytest.param(lambda: Synchronizer(depth=3), id="sync-d3"),
    pytest.param(lambda: Synchronizer(depth=2, flush=True), id="sync-flush"),
    pytest.param(lambda: Desynchronizer(depth=2), id="desync-d2"),
    pytest.param(lambda: Desynchronizer(depth=3, flush=True), id="desync-flush"),
]

SINGLE_FSMS = [
    pytest.param(CorDiv, id="cordiv"),
    pytest.param(CAAdder, id="ca-adder"),
    pytest.param(lambda: CAMax(counter_bits=4), id="ca-max"),
]


def _chunked_pair(fsm, x, y, tile_bits):
    state = np.full(x.shape[0], fsm.initial_state,
                    dtype=fsm.steady.next_state.dtype)
    total = x.shape[1]
    ox_parts, oy_parts = [], []
    for start in range(0, total, tile_bits):
        stop = min(start + tile_bits, total)
        state, ox, oy = step_chunk(
            fsm, state, x[:, start:stop], y[:, start:stop],
            remaining_after=total - stop,
        )
        ox_parts.append(ox)
        if oy is not None:
            oy_parts.append(oy)
    return (np.concatenate(ox_parts, axis=1),
            np.concatenate(oy_parts, axis=1) if oy_parts else None)


class TestStepChunkResumption:
    @pytest.mark.parametrize("tile_words", TILE_WORDS_GRID)
    @pytest.mark.parametrize("factory", PAIR_FSMS)
    def test_pair_fsm_chunks_match_one_shot(self, factory, tile_words):
        circuit = factory()
        fsm = compiled_kernel(circuit)
        # Odd length straddling several tiles of the smaller sizes and a
        # partial final tile of the largest.
        n = min(tile_words * 64 * 2 + 17, 9000)
        x = _random_bits((3, n), seed=1, p=0.6)
        y = _random_bits((3, n), seed=2, p=0.3)
        ref_x, ref_y = _run_tables(fsm, x, y)
        got_x, got_y = _chunked_pair(fsm, x, y, tile_words * 64)
        assert np.array_equal(got_x, ref_x)
        assert np.array_equal(got_y, ref_y)

    @pytest.mark.parametrize("tile_words", TILE_WORDS_GRID)
    @pytest.mark.parametrize("factory", SINGLE_FSMS)
    def test_single_output_fsm_chunks_match_one_shot(self, factory, tile_words):
        circuit = factory()
        fsm = compiled_kernel(circuit)
        n = min(tile_words * 64 * 2 + 17, 9000)
        x = _random_bits((2, n), seed=3, p=0.4)
        y = _random_bits((2, n), seed=4, p=0.8)
        ref, _ = _run_tables(fsm, x, y)
        got, none_y = _chunked_pair(fsm, x, y, tile_words * 64)
        assert none_y is None
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("tile_words", TILE_WORDS_GRID)
    def test_tfm_carrier_matches_one_shot(self, tile_words):
        n = min(tile_words * 64 * 2 + 17, 9000)
        bits = _random_bits((2, n), seed=5, p=0.55)
        from repro.kernels.streaming import make_stream_carrier

        one_shot = TrackingForecastMemory(LFSR(8, seed=11))
        ref = one_shot._process_stream_bits(bits)
        carrier = make_stream_carrier(
            TrackingForecastMemory(LFSR(8, seed=11)), n, 2
        )
        parts = [
            carrier.step(bits[:, s : s + tile_words * 64])
            for s in range(0, n, tile_words * 64)
        ]
        assert np.array_equal(np.concatenate(parts, axis=1), ref)

    @given(
        splits=st.lists(st.integers(1, 400), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_split_points_property(self, splits, seed):
        """Hypothesis: cutting a stream at ANY boundaries reproduces the
        one-shot run for a flush-mode FSM (the hardest case: the tail
        tables depend on global position)."""
        n = sum(splits)
        circuit = Synchronizer(depth=2, flush=True)
        fsm = compiled_kernel(circuit)
        x = _random_bits((2, n), seed=seed, p=0.5)
        y = _random_bits((2, n), seed=seed + 1, p=0.5)
        ref_x, ref_y = _run_tables(fsm, x, y)
        state = np.full(2, fsm.initial_state, dtype=fsm.steady.next_state.dtype)
        pos, ox_parts, oy_parts = 0, [], []
        for width in splits:
            stop = pos + width
            state, ox, oy = step_chunk(
                fsm, state, x[:, pos:stop], y[:, pos:stop],
                remaining_after=n - stop,
            )
            ox_parts.append(ox)
            oy_parts.append(oy)
            pos = stop
        assert np.array_equal(np.concatenate(ox_parts, axis=1), ref_x)
        assert np.array_equal(np.concatenate(oy_parts, axis=1), ref_y)

    @pytest.mark.parametrize("transform_factory", [
        lambda: Decorrelator(LFSR(8, seed=45), LFSR(8, seed=142), depth=4),
        lambda: IsolatorPair(delay=3),
        lambda: TFMPair(LFSR(8, seed=77)),
        lambda: SeriesPair([Synchronizer(depth=1), Synchronizer(depth=1, flush=True)]),
    ], ids=["decorrelator", "isolator-pair", "tfm-pair", "series-pair"])
    def test_composite_carriers_match_one_shot(self, transform_factory):
        n = 1013
        x = _random_bits((2, n), seed=6, p=0.7)
        y = _random_bits((2, n), seed=7, p=0.4)
        ref_x, ref_y = transform_factory()._process_bits(x.copy(), y.copy())
        for tile_bits in (64, 448, 1013):
            carrier = make_pair_carrier(transform_factory(), n, 2)
            parts = [
                carrier.step(x[:, s : s + tile_bits], y[:, s : s + tile_bits])
                for s in range(0, n, tile_bits)
            ]
            got_x = np.concatenate([p[0] for p in parts], axis=1)
            got_y = np.concatenate([p[1] for p in parts], axis=1)
            assert np.array_equal(got_x, ref_x), tile_bits
            assert np.array_equal(got_y, ref_y), tile_bits

    def test_step_chunk_rejects_trajectory_only_fsm(self):
        fsm = compiled_kernel(TrackingForecastMemory(LFSR(8, seed=1)))
        with pytest.raises(ValueError):
            step_chunk(fsm, np.zeros(1, dtype=np.int16),
                       np.zeros((1, 8), dtype=np.uint8),
                       np.zeros((1, 8), dtype=np.uint8))


# ---------------------------------------------------------------------- #
# 3. Streaming executor vs materialised engine
# ---------------------------------------------------------------------- #

class TestRunStreamingIdentity:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_LIBRARY))
    @pytest.mark.parametrize("length", [1, 63, 257, 1000])
    def test_bit_identity_all_library_graphs(self, graph_name, length):
        # The shared cross-backend matrix: interpreter == engine ==
        # streaming == parallel streaming at every tile size.
        assert_backends_equivalent(
            build_graph(graph_name), length, tile_words=(1, 7, 64)
        )

    @pytest.mark.parametrize("encoding", ["unipolar", "bipolar"])
    def test_encodings_and_values(self, encoding):
        plan = compile_graph(build_graph("mixed_pipeline"))
        ref = run_batch(plan, 777, encoding=encoding)
        result = run_streaming(plan, 777, tile_words=3, encoding=encoding)
        for name in plan.node_order:
            assert np.array_equal(result.values(name), ref.values(name))

    def test_batched_overrides_and_keep_subset(self):
        plan = compile_graph(build_graph("depth8"))
        values = {"src0": np.linspace(0.0, 1.0, 5),
                  "src4": np.linspace(1.0, 0.0, 5)}
        ref = run_batch(plan, 999, values=values)
        result = run_streaming(
            plan, 999, tile_words=4, values=values, keep=("n4", "n8")
        )
        assert result.batch_size == 5
        assert sorted(result.names) == ["n4", "n8"]
        assert np.array_equal(result.words("n4"), ref.words("n4"))
        assert np.array_equal(result.words("n8"), ref.words("n8"))
        assert np.array_equal(result.values("n8"), ref.values("n8"))

    def test_fusion_never_changes_bits(self):
        plan = compile_graph(mux_chain_graph(16))
        fused = run_streaming(plan, 4099, tile_words=8, keep=("n16",), fuse=True)
        unfused = run_streaming(plan, 4099, tile_words=8, keep=("n16",), fuse=False)
        assert fused.fused_super_steps >= 1
        assert unfused.fused_super_steps == 0
        assert np.array_equal(fused.words("n16"), unfused.words("n16"))

    def test_keep_validates_names(self):
        plan = compile_graph(build_graph("correlated_multiply"))
        with pytest.raises(GraphCompilationError):
            run_streaming(plan, 64, keep=("nope",))

    def test_values_only_for_kept_nodes(self):
        plan = compile_graph(build_graph("depth8"))
        result = run_streaming(plan, 256, keep=("n8",))
        with pytest.raises(KeyError):
            result.values("n1")

    @pytest.mark.parametrize("graph_name", sorted(GRAPH_LIBRARY))
    def test_audit_streaming_float_identity(self, graph_name):
        for length in (63, 700):
            assert_backends_equivalent(
                build_graph(graph_name), length, tile_words=(5,), audit=True
            )

    def test_long_stream_graph_agrees_across_rng_blocks(self):
        # An odd length past two of halton3's 3**9-index blocks and across
        # many 256-index runs of the width-20 VDC. The interpreter and the
        # whole-stream audit_batch read sequence(); tiled walks read
        # windows, each tile cutting blocks and runs somewhere else.
        length = 2 * 3**9 + 1001
        graph = long_stream_graph(20)
        bits = graph.run(length, backend="interpreter")
        want = graph.audit(length, backend="interpreter")
        plan = compile_graph(graph)
        whole = audit_batch(plan, length)
        for entry in want.entries:
            got = whole.entry(entry.node)
            assert got.measured_scc[0] == entry.measured_scc
            assert got.measured_value[0] == entry.measured_value
        sources = ("a", "b", "c", "d")
        for tile_words in (1, 3, 64):
            tiled = audit_streaming(plan, length, tile_words=tile_words)
            assert tiled.entries == want.entries, tile_words
            assert tiled.values == want.values, tile_words
            streamed = run_streaming(plan, length, tile_words=tile_words, keep=sources)
            for name in sources:
                assert np.array_equal(streamed.bits(name)[0], bits[name]), (name, tile_words)

    def test_long_stream_graph_width_matched_audit(self):
        plan = compile_graph(long_stream_graph(14))
        result = audit_streaming(plan, 1 << 14, tile_words=64)
        diff = next(e for e in result.entries if e.node == "diff")
        assert diff.measured_scc >= 0.999
        assert abs(diff.measured_value - diff.expected_value) < 1e-3


class TestFusionPass:
    def test_chain_collapses_single_consumer_runs(self):
        plan = compile_graph(mux_chain_graph(16))
        schedule = plan.fused_schedule(exposed={"n16"})
        chains = [s for s in schedule if isinstance(s, FusedChain)]
        assert len(chains) == 1
        assert len(chains[0]) == 16
        assert chains[0].name == "n16"

    def test_exposed_interior_splits_chain(self):
        plan = compile_graph(mux_chain_graph(16))
        schedule = plan.fused_schedule(exposed={"n8", "n16"})
        chains = [s for s in schedule if isinstance(s, FusedChain)]
        assert sorted(len(c) for c in chains) == [8, 8]

    def test_exposed_none_means_no_fusion(self):
        plan = compile_graph(mux_chain_graph(8))
        assert all(
            not isinstance(s, FusedChain) for s in plan.fused_schedule(None)
        )

    def test_dependent_steps_keep_relative_order(self):
        plan = compile_graph(build_graph("fsm_zoo"))
        schedule = plan.fused_schedule(exposed={"out"})
        seen = set()
        for item in schedule:
            steps = item.steps if isinstance(item, FusedChain) else (item,)
            for step in steps:
                for dep in step.inputs:
                    assert dep in seen, f"{step.name} scheduled before {dep}"
                seen.add(step.name)


# ---------------------------------------------------------------------- #
# 4. Bitstream tile layer
# ---------------------------------------------------------------------- #

class TestTileLayer:
    def test_tile_bounds_cover_odd_lengths(self):
        bounds = list(tile_bounds(1000, tile_words=3))
        assert bounds[0] == (0, 192)
        assert bounds[-1][1] == 1000
        spans = [stop - start for start, stop in bounds]
        assert all(s == 192 for s in spans[:-1]) and spans[-1] == 1000 % 192
        assert tile_count(1000, 3) == len(bounds)

    def test_iter_tiles_views_roundtrip(self):
        bits = _random_bits((2, 517), seed=8)
        words = pack_bits(bits)
        rebuilt = np.zeros_like(words)
        for start, stop, view in iter_tiles(words, 2, length=517):
            rebuilt[:, start // 64 : start // 64 + view.shape[1]] = view
        assert np.array_equal(rebuilt, words)

    def test_packed_tile_source_matches_one_shot(self):
        rng = make_rng("halton3")
        levels = np.array([0, 50, 199, 256])
        one_shot = pack_bits(
            (levels[:, None] > rng.sequence(700)[None, :]).astype(np.uint8)
        )
        source = PackedTileSource(levels, make_rng("halton3"))
        for start, stop in tile_bounds(700, 2):
            tile = source.tile(start, stop)
            assert np.array_equal(
                unpack_bits(tile, stop - start),
                unpack_bits(one_shot, 700)[:, start:stop],
            )

    @given(
        n=st.integers(1, 600),
        tile_words=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_accumulators_match_whole_stream_property(self, n, tile_words, seed):
        from repro.bitstream.metrics import popcount_words, scc_batch_packed

        x = pack_bits(_random_bits((2, n), seed=seed, p=0.4))
        y = pack_bits(_random_bits((2, n), seed=seed + 1, p=0.7))
        vacc = ValueAccumulator(n)
        oacc = OverlapAccumulator(n)
        for start, stop, view in iter_tiles(x, tile_words, length=n):
            vacc.update(view)
        for (_, _, xv), (_, _, yv) in zip(
            iter_tiles(x, tile_words, length=n), iter_tiles(y, tile_words, length=n)
        ):
            oacc.update(xv, yv)
        assert np.array_equal(vacc.ones, popcount_words(x))
        assert np.array_equal(oacc.scc(), scc_batch_packed(x, y, n))


# ---------------------------------------------------------------------- #
# 5. Validation + cache safety satellites
# ---------------------------------------------------------------------- #

class TestValidationAndCaches:
    def test_check_stream_length(self):
        from repro._validation import check_stream_length

        assert check_stream_length(17) == 17
        for bad in (0, -1, 2.5, "16", True):
            with pytest.raises(EncodingError):
                check_stream_length(bad)

    def test_check_tile_words(self):
        from repro._validation import check_tile_words
        from repro.exceptions import CircuitConfigurationError

        assert check_tile_words(1) == 1
        with pytest.raises(CircuitConfigurationError):
            check_tile_words(0)

    def test_clear_sequence_cache_exported_and_clears_select_tiles(self):
        from repro.engine.streaming import _SELECT_TILE_CACHE, _select_tile

        _select_tile(0, 128)
        assert _SELECT_TILE_CACHE
        clear_sequence_cache()
        assert not _SELECT_TILE_CACHE

    def test_sequence_cache_thread_safety_smoke(self):
        """Concurrent evaluation across threads must agree with serial
        evaluation (the memos are lock-guarded)."""
        clear_sequence_cache()
        plan = compile_graph(build_graph("mixed_pipeline"))
        expected = run_batch(plan, 333).words("avg")
        failures = []

        def worker():
            for _ in range(5):
                got = run_batch(plan, 333).words("avg")
                if not np.array_equal(got, expected):
                    failures.append("mismatch")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_fork_hooks_rebind_locks_and_drop_memos(self):
        """The at-fork hooks must leave a child with empty caches and
        fresh (unheld) locks — simulated by invoking them directly."""
        from repro.engine import executor as ex
        from repro.engine import streaming as est

        run_batch(compile_graph(build_graph("mixed_pipeline")), 64)
        est._select_tile(0, 64)
        old_lock = ex._SEQ_LOCK
        ex._reinit_after_fork()
        est._reinit_after_fork()
        assert ex._SEQ_LOCK is not old_lock
        assert not ex._SEQ_CACHE
        assert not est._SELECT_TILE_CACHE
        assert ex._SEQ_LOCK.acquire(blocking=False)
        ex._SEQ_LOCK.release()


# ---------------------------------------------------------------------- #
# 6. Streaming pipeline + long_stream spec
# ---------------------------------------------------------------------- #

class TestStreamingPipeline:
    @pytest.mark.parametrize("variant", ["none", "regeneration", "synchronizer"])
    def test_streaming_backend_equals_engine(self, variant):
        from repro.pipeline import AcceleratorConfig, SCAccelerator, standard_test_images

        image = list(standard_test_images(12).values())[0] \
            if isinstance(standard_test_images(12), dict) \
            else standard_test_images(12)[0]
        image = np.asarray(image, dtype=np.float64)
        config = AcceleratorConfig(variant=variant, stream_length=192, tile=10)
        reference = SCAccelerator(config).process(image, backend="auto")
        streamed = SCAccelerator(config).process(
            image, backend="streaming", tile_words=1
        )
        assert np.array_equal(reference.output, streamed.output)
        assert reference.mean_abs_error == streamed.mean_abs_error

    @pytest.mark.parametrize("variant", ["none", "regeneration", "synchronizer"])
    def test_parallel_streaming_backend_on_both_lanes(self, variant):
        # Span-parallel detection equals the batched engine pass, on the
        # warm pool and on the in-process lane alike (tile_words=4 is one
        # window, hence one span); phase 1 composes every span but the
        # last, and only the synchronizer variant composes at all.
        from repro import obs
        from repro.engine.parallel import spans_for
        from repro.pipeline import AcceleratorConfig, SCAccelerator
        from repro.pipeline.images import blob_image

        image = blob_image(12)
        config = AcceleratorConfig(variant=variant, stream_length=192, tile=10)
        acc = SCAccelerator(config)
        reference = acc.process(image, backend="auto")
        for jobs in (2, 3):
            for tile_words in (1, 4):
                spans = len(spans_for(config.stream_length, tile_words, jobs))
                composed = spans - 1 if variant == "synchronizer" else 0
                with obs.observe() as trace:
                    pooled = acc.process(
                        image, backend="streaming", tile_words=tile_words, jobs=jobs
                    )
                with in_process_lane(), obs.observe() as inline_trace:
                    inline = acc.process(
                        image, backend="streaming", tile_words=tile_words, jobs=jobs
                    )
                case = (jobs, tile_words)
                counters = trace.metrics["counters"]
                assert counters.get("pipeline.stream.pooled", 0) == (spans > 1), case
                for traced in (trace, inline_trace):
                    assert len(traced.by_name("pipeline.stream.compose")) == composed, case
                assert np.array_equal(pooled.output, reference.output), case
                assert np.array_equal(inline.output, reference.output), case


class TestLongStreamSpec:
    def test_spec_expands_one_shard_per_length(self):
        from repro.runner import get_spec

        spec = get_spec("long_stream")
        params = spec.params("smoke")
        shards = spec.shards(params)
        assert [s.label for s in shards] == ["N=2^14", "N=2^16"]
        assert all(s.kwargs["tile_words"] == params["tile_words"] for s in shards)

    def test_shard_and_merge_roundtrip(self):
        from repro.analysis.experiments import (
            _long_stream_merge,
            _long_stream_shard,
        )

        payloads = [
            _long_stream_shard(e, tile_words=64) for e in (10, 12)
        ]
        result = _long_stream_merge({}, payloads)
        assert result.experiment_id == "long_stream"
        assert len(result.rows) == 2

    def test_registered_in_all_experiments(self):
        from repro.analysis import ALL_EXPERIMENTS

        assert "long_stream" in ALL_EXPERIMENTS
