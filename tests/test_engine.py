"""Engine-vs-interpreter equivalence and plan/cache behaviour
(repro.engine).

The engine's contract is that it is a *faster schedule for the same
circuit*: bit-identical ``run`` streams, float-identical audits, across
odd stream lengths, both encodings, every FSM node type, and batched
configuration sweeps. These tests enforce that contract, plus the plan
cache semantics the autofix loop depends on.
"""

import numpy as np
import pytest

from repro import SCGraph, autofix, engine
from repro.bitstream.packed import unpack_bits
from repro.engine.library import GRAPH_LIBRARY, build_graph, depth_chain_graph
from repro.exceptions import GraphCompilationError
from repro.graph.nodes import Node, TransformNode
from tests.helpers import assert_backends_equivalent, fsm_domain_graph

LENGTHS = [7, 64, 100, 256, 333]


class TestRunEquivalence:
    @pytest.mark.parametrize("name", sorted(GRAPH_LIBRARY))
    @pytest.mark.parametrize("length", LENGTHS)
    def test_library_graphs_bit_identical(self, name, length):
        # interpreter == engine == streaming == parallel streaming.
        assert_backends_equivalent(build_graph(name), length)

    @pytest.mark.parametrize("length", [100, 256])
    def test_autofixed_graphs_bit_identical(self, length):
        # Autofix inserts every transform kind depending on the violation;
        # the fixed graphs must still round-trip through every backend.
        report = autofix(build_graph("correlated_multiply"), iterations=3)
        assert_backends_equivalent(report.fixed_graph, length)

    def test_default_backend_is_engine_and_matches(self):
        g = build_graph("mixed_pipeline")
        assert {
            k: v.tolist() for k, v in g.run(256).items()
        } == {k: v.tolist() for k, v in g.run(256, backend="interpreter").items()}

    def test_explicit_engine_backend(self):
        g = build_graph("uncorrelated_subtract")
        streams = g.run(128, backend="engine")
        assert streams["diff"].shape == (128,)

    def test_unknown_backend_rejected(self):
        from repro.exceptions import CircuitConfigurationError

        with pytest.raises(CircuitConfigurationError):
            build_graph("correlated_multiply").run(64, backend="frobnicate")


class TestAuditEquivalence:
    @pytest.mark.parametrize("name", sorted(GRAPH_LIBRARY))
    @pytest.mark.parametrize("length", [100, 256, 333])
    def test_audit_entries_identical(self, name, length):
        # Float-exact audits across all four execution routes.
        assert_backends_equivalent(build_graph(name), length, audit=True)

    def test_autofix_identical_across_backends(self):
        g1 = build_graph("mixed_pipeline")
        g2 = build_graph("mixed_pipeline")
        r_eng = autofix(g1, iterations=2)
        r_int = autofix(g2, iterations=2, backend="interpreter")
        assert r_eng.insertions == r_int.insertions
        assert r_eng.error_after == r_int.error_after


class TestRunBatch:
    def test_rows_bit_identical_to_per_config_interpretation(self):
        rng = np.random.default_rng(3)
        values = {f"src{i}": rng.random(6) for i in range(5)}
        plan = engine.compile(depth_chain_graph(4))
        result = plan.run_batch(256, values=values)
        assert result.batch_size == 6
        for row in range(6):
            g = depth_chain_graph(4, [values[f"src{i}"][row] for i in range(5)])
            interp = g.run(256, backend="interpreter")
            for name in interp:
                bits = result.bits(name)
                assert np.array_equal(bits[row % bits.shape[0]], interp[name])

    def test_fsm_graph_batched_odd_length(self):
        g = build_graph("fsm_zoo")
        plan = engine.compile(g)
        values = {"a": np.array([0.1, 0.7, 1.0]), "b": np.array([0.0, 0.4, 0.9])}
        result = plan.run_batch(133, values=values)
        for row in range(3):
            g2 = build_graph("fsm_zoo")
            # fsm_zoo rebuilds fresh transforms, but their bit behaviour is
            # parameter-deterministic, so per-config interpretation matches.
            g2._nodes["a"].value = float(values["a"][row])
            g2._nodes["b"].value = float(values["b"][row])
            interp = g2.run(133, backend="interpreter")
            for name in interp:
                bits = result.bits(name)
                assert np.array_equal(bits[row % bits.shape[0]], interp[name]), name

    def test_level_overrides_match_value_overrides(self):
        plan = engine.compile(build_graph("uncorrelated_subtract"))
        by_level = plan.run_batch(256, levels={"a": np.arange(0, 256, 16)})
        by_value = plan.run_batch(256, values={"a": np.arange(0, 256, 16) / 256.0})
        assert np.array_equal(by_level.words("diff"), by_value.words("diff"))

    def test_both_encodings(self):
        plan = engine.compile(build_graph("uncorrelated_subtract"))
        uni = plan.run_batch(100, encoding="unipolar")
        bi = plan.run_batch(100, encoding="bipolar")
        # Same bits, different value map: b = 2u - 1.
        assert np.array_equal(uni.words("diff"), bi.words("diff"))
        assert bi.values("diff") == pytest.approx(2 * uni.values("diff") - 1)

    def test_keep_releases_intermediates(self):
        plan = engine.compile(build_graph("mixed_pipeline"))
        result = plan.run_batch(256, keep=["avg"])
        assert result.names == ["avg"]
        full = plan.run_batch(256)
        assert np.array_equal(result.words("avg"), full.words("avg"))

    def test_override_validation(self):
        plan = engine.compile(build_graph("uncorrelated_subtract"))
        with pytest.raises(GraphCompilationError):
            plan.run_batch(64, values={"nope": 0.5})
        with pytest.raises(GraphCompilationError):
            plan.run_batch(64, values={"a": 1.5})
        with pytest.raises(GraphCompilationError):
            plan.run_batch(64, values={"a": np.array([0.1, 0.2]), "b": np.array([0.1, 0.2, 0.3])})
        with pytest.raises(GraphCompilationError):
            plan.run_batch(64, values={"a": 0.5}, levels={"a": 3})
        with pytest.raises(GraphCompilationError):
            plan.run_batch(64, levels={"a": np.array([0.5])})
        with pytest.raises(GraphCompilationError):
            plan.run_batch(64, keep=["ghost"])
        with pytest.raises(GraphCompilationError):
            plan.run_batch(64, values={"a": np.array([np.nan, 0.5])})
        with pytest.raises(GraphCompilationError):
            plan.run_batch(64, levels={"a": np.array([-5, 100])})
        with pytest.raises(GraphCompilationError):
            plan.run_batch(64, levels={"a": 65})

    def test_stream_batch_container(self):
        plan = engine.compile(build_graph("correlated_multiply"))
        packed = plan.run_batch(256).stream_batch("prod")
        assert packed.length == 256
        assert packed.values.shape == (1,)


class TestBatchAudit:
    def test_rows_match_scalar_audits(self):
        plan = engine.compile(depth_chain_graph(3))
        rng = np.random.default_rng(11)
        values = {f"src{i}": rng.random(4) for i in range(4)}
        batch = plan.audit_batch(256, values=values)
        assert batch.batch_size == 4
        for row in range(4):
            g = depth_chain_graph(3, [values[f"src{i}"][row] for i in range(4)])
            scalar = g.audit(256, backend="interpreter")
            for s_entry, b_entry in zip(scalar.entries, batch.entries):
                assert s_entry.node == b_entry.node
                assert s_entry.measured_scc == b_entry.measured_scc[row]
                assert s_entry.measured_value == b_entry.measured_value[row]
                assert s_entry.expected_value == pytest.approx(b_entry.expected_value[row])
                assert s_entry.violated == bool(b_entry.violated[row])

    def test_entry_lookup_and_rates(self):
        plan = engine.compile(build_graph("correlated_multiply"))
        batch = plan.audit_batch(256)
        entry = batch.entry("prod")
        assert entry.violation_rate == 1.0
        assert batch.mean_value_error("prod") > 0.05
        with pytest.raises(KeyError):
            batch.entry("ghost")


class TestCarrierlessPlans:
    """Plans with an ``fsm``-domain transform have no streaming carrier:
    the whole-stream tile runs them through the circuit's one-shot
    ``_process_bits``; tiled walks must reject them."""

    VALUES = np.array([0.125, 0.5, 0.8125])

    @pytest.mark.parametrize("optimize", [True, False])
    def test_run_and_rows_match_interpreter(self, optimize):
        plan = engine.compile(fsm_domain_graph(), optimize=optimize)
        assert plan.fsm_nodes == ["t_x", "t_y"]
        interp = fsm_domain_graph().run(333, backend="interpreter")
        eng = plan.run(333)
        assert list(eng) == list(interp)
        for name in interp:
            assert np.array_equal(eng[name], interp[name]), name
        batch = plan.run_batch(333, values={"a": self.VALUES})
        for row, value in enumerate(self.VALUES):
            ref = fsm_domain_graph(a=value).run(333, backend="interpreter")
            for name in ref:
                got = batch.bits(name)[min(row, batch.packed[name].shape[0] - 1)]
                assert np.array_equal(got, ref[name]), (name, row)

    @pytest.mark.parametrize("optimize", [True, False])
    def test_audit_and_rows_match_interpreter(self, optimize):
        plan = engine.compile(fsm_domain_graph(), optimize=optimize)
        ref = fsm_domain_graph().audit(333, backend="interpreter")
        got = plan.audit(333)
        assert got.entries == ref.entries
        assert got.values == ref.values
        batch = plan.audit_batch(333, values={"a": self.VALUES})
        for row, value in enumerate(self.VALUES):
            scalar = fsm_domain_graph(a=value).audit(333, backend="interpreter")
            for s_entry, b_entry in zip(scalar.entries, batch.entries):
                assert s_entry.measured_scc == b_entry.measured_scc[row]
                assert s_entry.measured_value == b_entry.measured_value[row]
                assert s_entry.violated == bool(b_entry.violated[row])

    def test_tiled_walks_raise(self):
        plan = engine.compile(fsm_domain_graph())
        with pytest.raises(GraphCompilationError, match="no chunk-resumable"):
            plan.run_streaming(333, tile_words=2)
        with pytest.raises(GraphCompilationError, match="no chunk-resumable"):
            plan.audit_streaming(333, tile_words=2)
        with pytest.raises(GraphCompilationError, match="no chunk-resumable"):
            plan.audit_batch(333, tile_words=2)


class TestWholeStreamWalk:
    def test_batch_calls_are_not_stream_walks(self):
        """A whole-stream tile keeps the batch calls' ``engine.execute``
        span and opens no ``engine.stream*`` span, nor counts tiles."""
        from repro import obs

        plan = engine.compile(build_graph("fsm_zoo"))
        with obs.observe() as trace:
            plan.run_batch(300)
            plan.audit(300)
            plan.audit_batch(300, values={"a": [0.25, 0.75]})
        names = {rec["name"] for rec in trace.spans}
        assert len(trace.by_name("engine.execute")) == 3
        assert not any(name.startswith("engine.stream") for name in names)
        counters = trace.metrics["counters"]
        assert "engine.stream.tiles" not in counters
        assert "engine.stream.words" not in counters

    def test_audit_batch_tiles_match_whole_stream(self):
        plan = engine.compile(depth_chain_graph(5))
        values = {"src0": np.linspace(0.1, 0.9, 5), "src3": np.full(5, 0.3)}
        whole = plan.audit_batch(1001, values=values)
        for tile_words, jobs in ((1, 1), (3, 1), (2, 2)):
            tiled = plan.audit_batch(
                1001, values=values, tile_words=tile_words, jobs=jobs
            )
            assert tiled.batch_size == whole.batch_size
            for a, b in zip(whole.entries, tiled.entries):
                assert a.node == b.node
                for field in ("measured_scc", "measured_value", "expected_value", "violated"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), field
            for name in whole.values:
                assert np.array_equal(whole.values[name], tiled.values[name])

    def test_optimized_walk_recycles_into_arena(self):
        # Every buffer of an audit leaves the walk at its free point, so
        # a depth-8 chain needs far fewer fresh buffers than steps.
        from repro import obs

        plan = engine.compile(depth_chain_graph(8))
        with obs.observe() as trace:
            plan.audit(512)
        counters = trace.metrics["counters"]
        assert counters["engine.arena.reuse"] > 0
        assert counters["engine.arena.alloc"] < len(plan.steps)


class TestSequenceMemo:
    @pytest.fixture(autouse=True)
    def _clean_memo(self):
        engine.clear_sequence_cache()
        yield
        engine.clear_sequence_cache()

    def test_memo_is_bounded_in_bytes(self):
        from repro import obs
        from repro.engine import executor as ex

        n = 1 << 22
        with obs.observe() as trace:
            for width in (22, 23, 24):
                seq = ex._rng_sequence("vdc", (("width", width),), n)
                assert seq.nbytes == 8 * n
        held = sum(a.nbytes for a in ex._SEQ_CACHE.values())
        assert held <= ex._SEQ_CACHE_BYTES
        assert held == ex._seq_cache_nbytes
        assert trace.metrics["counters"]["engine.seq_memo.evict"] >= 1
        # The oldest sequence went first; the newest is held.
        assert ("vdc", (("width", 22),), n) not in ex._SEQ_CACHE
        assert ("vdc", (("width", 24),), n) in ex._SEQ_CACHE

    def test_oversized_sequence_is_not_stored(self, monkeypatch):
        from repro.engine import executor as ex

        monkeypatch.setattr(ex, "_SEQ_CACHE_BYTES", 1024)
        small = ex._rng_sequence("vdc", (), 64)
        big = ex._rng_sequence("vdc", (), 4096)
        assert np.array_equal(big[:64], small)
        # Keyed on the factory's builder arguments (width defaulted in).
        assert list(ex._SEQ_CACHE) == [("vdc", (("width", 8),), 64)]
        assert ex._seq_cache_nbytes == small.nbytes

    def test_byte_total_survives_thread_hammer(self, monkeypatch):
        import sys
        import threading

        from repro.engine import executor as ex
        from repro.rng import make_rng

        monkeypatch.setattr(ex, "_SEQ_CACHE_BYTES", 4 * 8 * 512)
        keys = [(spec, n) for spec in ("vdc", "halton3", "halton5") for n in (256, 384, 512)]
        errors = []

        def worker(seed):
            for i in range(60):
                spec, n = keys[(seed * 7 + i) % len(keys)]
                got = ex._rng_sequence(spec, (), n)
                if not np.array_equal(got, make_rng(spec).sequence(n)):
                    errors.append((spec, n))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        held = sum(a.nbytes for a in ex._SEQ_CACHE.values())
        assert held == ex._seq_cache_nbytes <= ex._SEQ_CACHE_BYTES

    def test_memo_follows_the_ambient_seed(self):
        # An unseeded "lfsr" source takes the ambient seed when it is
        # built, so a sequence memoised under seed 1 must not serve a
        # later call under seed 2 (a warm pool worker sees both).
        from repro.engine import executor as ex
        from repro.rng import default_seed

        def graph():
            g = SCGraph()
            g.source("a", 0.5, "lfsr")
            g.source("b", 0.3, "vdc")
            g.op("m", "mul", "a", "b")
            return g

        plan = engine.compile(graph())
        with default_seed(2):
            bits = graph().run(256, backend="interpreter")
            audit = graph().audit(256, backend="interpreter")
        for call in (ex.run, ex.run_batch, ex.audit):
            engine.clear_sequence_cache()
            with default_seed(1):
                call(plan, 256)
            with default_seed(2):
                got = call(plan, 256)
            if call is ex.audit:
                assert got.entries == audit.entries
                assert got.values == audit.values
            else:
                for name in bits:
                    row = got[name] if call is ex.run else got.bits(name)[0]
                    assert np.array_equal(row, bits[name]), (call.__name__, name)

    def test_hits_refresh_recency(self, monkeypatch):
        from repro.engine import executor as ex

        monkeypatch.setattr(ex, "_SEQ_CACHE_BYTES", 3 * 8 * 256)
        for spec in ("vdc", "halton3", "halton5"):
            ex._rng_sequence(spec, (), 256)
        ex._rng_sequence("vdc", (), 256)  # hit: now the most recent
        ex._rng_sequence("halton7", (), 256)  # evicts halton3, not vdc
        assert [key[0] for key in ex._SEQ_CACHE] == ["halton5", "vdc", "halton7"]


class TestPlanAndCache:
    def test_levelization(self):
        plan = engine.compile(build_graph("mixed_pipeline"))
        assert plan.levels[0] == ["a", "b", "c"]
        assert plan.step("diff").level == 1
        assert plan.step("peak").level == 2
        assert plan.step("avg").level == 3

    def test_domains_and_boundaries(self):
        plan = engine.compile(build_graph("fsm_zoo"))
        assert set(plan.sequential_nodes) == {
            "sync_x", "sync_y", "desync_x", "desync_y", "deco_x", "deco_y",
            "iso_x", "iso_y", "tfm_x", "tfm_y",
        }
        # Every zoo transform has a time-parallel kernel, so the whole
        # sequential set lands in the kernel domain and nothing is left
        # on the per-cycle reference loop.
        assert set(plan.kernel_nodes) == set(plan.sequential_nodes)
        assert plan.fsm_nodes == []
        # 5 transform groups, each unpacking 2 operands + repacking 2 ports.
        assert plan.boundary_count == 20
        assert "prod" in plan.packed_nodes

    def test_unkernelized_transform_stays_fsm_domain(self):
        # A PairTransform subclass the kernel layer has never heard of
        # must classify as fsm (reference loop), not silently inherit a
        # parent's tables.
        from repro.core import Synchronizer

        class Tweaked(Synchronizer):
            pass

        g = SCGraph()
        g.source("a", 0.5, "vdc")
        g.source("b", 0.5, "halton3")
        shared = {}
        g.add(TransformNode("t_x", Tweaked(1), ("a", "b"), 0, shared))
        g.add(TransformNode("t_y", Tweaked(1), ("a", "b"), 1, shared))
        plan = engine.compile(g)
        assert plan.fsm_nodes == ["t_x", "t_y"]
        assert plan.kernel_nodes == []

    def test_describe_mentions_domains(self):
        text = engine.compile(build_graph("fsm_zoo")).describe()
        assert "kernel:" in text and "packed" in text and "level 0" in text

    def test_cache_hit_for_equal_structure(self):
        engine.clear_cache()
        g = build_graph("correlated_multiply")
        p1 = engine.compile(g)
        p2 = engine.compile(build_graph("correlated_multiply"))  # equal by value
        assert p1 is p2
        info = engine.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_transform_fingerprint_prevents_false_sharing(self):
        # Every seed in the zoo is fixed, so two fresh builds are
        # structurally equal and share one plan. A build whose
        # decorrelator differs only in one LFSR seed gets its own plan
        # and its own bits.
        from repro.core import Decorrelator
        from repro.rng import LFSR

        engine.clear_cache()
        p1 = engine.compile(build_graph("fsm_zoo"))
        assert engine.compile(build_graph("fsm_zoo")) is p1
        reseeded = build_graph("fsm_zoo")
        deco = Decorrelator(LFSR(8, seed=46), LFSR(8, seed=142), depth=4)
        for name in ("deco_x", "deco_y"):
            reseeded.node(name).transform = deco
        p3 = engine.compile(reseeded)
        assert p3 is not p1
        assert not np.array_equal(p3.run(256)["deco_x"], p1.run(256)["deco_x"])
        assert np.array_equal(
            p3.run(256)["deco_x"], reseeded.run(256, backend="interpreter")["deco_x"]
        )

    def test_autofix_loop_reuses_plans(self):
        engine.clear_cache()
        autofix(build_graph("correlated_multiply"), iterations=4)
        info = engine.cache_info()
        # audit -> splice -> re-audit: the re-audit and the final audit of
        # the fixed graph hit the cached plan instead of recompiling.
        assert info["hits"] >= 1
        assert info["misses"] <= 3

    def test_unsupported_node_falls_back_to_interpreter(self):
        class Constant(Node):
            def emit(self, input_bits, length):
                return np.zeros(length, dtype=np.uint8)

            def expected(self, input_values):
                return 0.0

        g = SCGraph()
        g.source("a", 0.5, "vdc")
        g.add(Constant("k", ("a",)))
        # auto silently falls back; explicit engine raises.
        assert g.run(64)["k"].sum() == 0
        with pytest.raises(GraphCompilationError):
            g.run(64, backend="engine")
        with pytest.raises(GraphCompilationError):
            engine.compile(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphCompilationError):
            engine.compile(SCGraph())

    def test_list_rng_kwargs_compile_and_match_interpreter(self):
        # Unhashable kwarg values (taps lists) are frozen into the cache
        # key instead of crashing the default engine route.
        g = SCGraph()
        g.source("a", 0.5, "lfsr", taps=[8, 6, 5, 4])
        g.source("b", 0.5, "halton3")
        g.op("p", "mul", "a", "b")
        assert_backends_equivalent(g, 64)

    def test_batch_audit_arrays_are_writable(self):
        plan = engine.compile(build_graph("correlated_multiply"))
        batch = plan.audit_batch(256, values={"a": np.linspace(0, 1, 5)})
        batch.values["prod"] += 0.1  # must not raise (no read-only views)
        batch.entry("prod").measured_value.sort()

    def test_engine_audit_on_byte_lut_popcount_fallback(self, monkeypatch):
        # numpy < 2 has no np.bitwise_count; the engine's popcount-based
        # values/SCC must be identical on the byte-LUT fallback (CI runs
        # the whole suite on numpy 1.x — this is the local smoke check).
        from repro.bitstream import metrics

        g = build_graph("mixed_pipeline")
        with_intrinsic = g.audit(256, backend="engine")
        monkeypatch.setattr(metrics, "_HAS_BITWISE_COUNT", False)
        with_lut = g.audit(256, backend="engine")
        assert with_intrinsic.entries == with_lut.entries
        assert with_intrinsic.values == with_lut.values


class TestPipelineEngineBackend:
    @pytest.mark.parametrize("variant", ["none", "regeneration", "synchronizer"])
    def test_accelerator_backends_identical(self, variant):
        from repro.pipeline import AcceleratorConfig, SCAccelerator, standard_test_images

        image = standard_test_images(16)["gradient"]
        acc = SCAccelerator(AcceleratorConfig(variant=variant, stream_length=64))
        ref = acc.process(image, backend="interpreter")
        eng = acc.process(image)
        assert np.array_equal(ref.output, eng.output)
        assert ref.mean_abs_error == eng.mean_abs_error

    def test_accelerator_chunked_batches_identical(self, monkeypatch):
        # Force multiple engine chunks on a small image: per-chunk
        # batching must still match the per-tile reference exactly.
        from repro.pipeline import accelerator as accel_mod
        from repro.pipeline import AcceleratorConfig, SCAccelerator, standard_test_images

        monkeypatch.setattr(accel_mod, "_ENGINE_CHUNK_BYTES", 1)  # 1 tile per chunk
        image = standard_test_images(16)["checker"]
        acc = SCAccelerator(AcceleratorConfig(stream_length=64))
        ref = acc.process(image, backend="interpreter")
        eng = acc.process(image)
        assert np.array_equal(ref.output, eng.output)

    def test_mux_select_shared_between_backends(self):
        # The interpreter's scaled-add emit and the engine's packed mux
        # must draw their select bits from one helper.
        from repro.bitstream.packed import unpack_bits as _unpack
        from repro.engine.streaming import _select_tile
        from repro.graph.nodes import mux_select_bits

        assert np.array_equal(
            _unpack(_select_tile(0, 133), 133)[0], mux_select_bits(133)
        )

    def test_propagation_backends_agree_on_pure_gates(self):
        from repro.analysis.propagation_study import correlation_propagation

        eng = {e.gate: e for e in correlation_propagation(n=64, step=8)}
        ref = {e.gate: e for e in correlation_propagation(n=64, step=8, backend="interpreter")}
        # AND/OR/XOR are select-free: identical through either route. The
        # MUX row legitimately differs (engine uses the graph layer's
        # halton-7 select).
        for gate in ("AND (multiply)", "OR (sat add)", "XOR (subtract)"):
            assert eng[gate].scc_out_c == ref[gate].scc_out_c

    def test_sweep_graph_routes_through_engine(self):
        from repro.analysis.sweeps import sweep_graph

        result = sweep_graph(
            build_graph("correlated_multiply"),
            n=256,
            values={"a": np.linspace(0.0, 1.0, 9)},
        )
        assert result.configs == 9
        assert result.violation_rate["prod"] > 0.5
        assert result.worst_node() == "prod"
        # Expected semantics follow the overridden values.
        assert result.expected["prod"] == pytest.approx(np.linspace(0.0, 1.0, 9) * 0.5)
