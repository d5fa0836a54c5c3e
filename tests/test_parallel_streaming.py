"""Parallel tile scheduler (repro.engine.parallel).

``jobs`` must be a pure *execution* parameter: worker count changes
wall-clock time and nothing else. These tests pin the three-phase
scheduler — span composition, prefix scan, seeded evaluation — to the
sequential paths it shadows: bit-identical streams and float-identical
audits at every tile size and worker count, byte-identical runner
stores, plus the composer algebra (associative, offset-correct span
maps) the state hand-off relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from repro import engine, kernels, obs
from repro.core import (
    Decorrelator,
    Desynchronizer,
    IsolatorPair,
    SeriesPair,
    Synchronizer,
    TFMPair,
)
from repro.engine import run_streaming, audit_streaming
from repro.engine.executor import audit, run_batch
from repro.engine.library import GRAPH_LIBRARY, build_graph, long_stream_graph
from repro.engine.parallel import plan_waves, spans_for
from repro.exceptions import CircuitConfigurationError, GraphCompilationError
from repro.graph.graph import SCGraph
from repro.graph.nodes import TransformNode
from repro.kernels import dispatch, steppers
from repro.kernels.streaming import make_pair_carrier, make_pair_composer
from repro.rng import LFSR
from tests.helpers import assert_backends_equivalent, in_process_lane

compile_graph = engine.compile


def _state_equal(a, b) -> bool:
    """Recursive equality over carrier states / composer maps (tuples of
    arrays for the composite carriers)."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and len(a) == len(b)
            and all(_state_equal(p, q) for p, q in zip(a, b))
        )
    return np.array_equal(np.asarray(a), np.asarray(b))


# ---------------------------------------------------------------------- #
# 1. Static analysis: spans and waves
# ---------------------------------------------------------------------- #

class TestSchedulerUnits:
    def test_spans_cover_balance_and_align(self):
        spans = spans_for(100 * 64, tile_words=1, jobs=4)
        assert spans[0][0] == 0 and spans[-1][1] == 6400
        assert all(a0 % 64 == 0 for a0, _ in spans)  # word-aligned starts
        assert [b[0] for b in spans[1:]] == [a[1] for a in spans[:-1]]
        sizes = [(stop - start) // 64 for start, stop in spans]
        assert max(sizes) - min(sizes) <= 1  # balanced within one tile

    def test_spans_never_exceed_tile_count(self):
        # One tile -> one span, regardless of jobs.
        assert spans_for(100, tile_words=4096, jobs=8) == [(0, 100)]
        # 200 bits at tile_words=1 is 4 tiles: jobs=8 clamps to 4 spans.
        spans = spans_for(200, tile_words=1, jobs=8)
        assert len(spans) == 4
        assert spans[-1][1] == 200  # ragged tail stays inside the last span

    def test_spans_jobs_one_is_single_span(self):
        assert spans_for(5000, tile_words=2, jobs=1) == [(0, 5000)]

    def test_fsm_zoo_has_three_waves(self):
        # sync/desync/deco read sources (wave 0); iso reads sync+desync
        # outputs (wave 1); tfm reads deco+iso outputs (wave 2).
        wave_of, group_inputs = plan_waves(compile_graph(build_graph("fsm_zoo")))
        assert sorted(wave_of.values()) == [0, 0, 0, 1, 2]
        plan_names = {s.name for s in compile_graph(build_graph("fsm_zoo")).steps}
        for inputs in group_inputs.values():
            assert set(inputs) <= plan_names

    def test_long_stream_is_single_wave(self):
        wave_of, _ = plan_waves(compile_graph(long_stream_graph(12)))
        assert set(wave_of.values()) == {0}

    def test_combinational_plan_has_no_waves(self):
        wave_of, group_inputs = plan_waves(compile_graph(build_graph("depth8")))
        assert wave_of == {} and group_inputs == {}


# ---------------------------------------------------------------------- #
# 2. The cross-backend equivalence matrix
# ---------------------------------------------------------------------- #

class TestCrossBackendMatrix:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_LIBRARY))
    def test_four_route_equivalence(self, graph_name):
        # interpreter == engine == streaming == parallel streaming,
        # streams and audits, at a length that straddles word boundaries.
        assert_backends_equivalent(
            build_graph(graph_name), 333, tile_words=(1, 7), jobs=3, audit=True
        )


class TestParallelIdentity:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_LIBRARY))
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_words_match_sequential_everywhere(self, graph_name, jobs):
        plan = compile_graph(build_graph(graph_name))
        ref = run_batch(plan, 1000)
        for tile_words in (1, 16):
            result = run_streaming(plan, 1000, tile_words=tile_words, jobs=jobs)
            for name in plan.node_order:
                assert np.array_equal(result.words(name), ref.words(name)), (
                    graph_name, tile_words, jobs, name,
                )

    @pytest.mark.parametrize("jobs", [2, 5])
    def test_audit_float_identity_width_matched(self, jobs):
        plan = compile_graph(long_stream_graph(12))
        reference = audit(plan, 1 << 12)
        sequential = audit_streaming(plan, 1 << 12, tile_words=8)
        parallel = audit_streaming(plan, 1 << 12, tile_words=8, jobs=jobs)
        assert parallel.entries == sequential.entries  # every field
        assert parallel.values == sequential.values
        assert parallel.expected == sequential.expected
        for ref_entry, got in zip(reference.entries, parallel.entries):
            assert ref_entry.node == got.node
            assert ref_entry.measured_scc == got.measured_scc
            assert ref_entry.measured_value == got.measured_value
            assert ref_entry.violated == got.violated

    @pytest.mark.parametrize("encoding", ["unipolar", "bipolar"])
    def test_encodings_and_values(self, encoding):
        plan = compile_graph(build_graph("mixed_pipeline"))
        ref = run_batch(plan, 777, encoding=encoding)
        result = run_streaming(plan, 777, tile_words=3, jobs=2, encoding=encoding)
        for name in plan.node_order:
            assert np.array_equal(result.values(name), ref.values(name))

    def test_series_composition_falls_back_sequentially(self):
        # SeriesPair has no composer: jobs>1 must walk one span (counted)
        # and still produce identical bits.
        plan = compile_graph(_series_graph())
        ref = run_batch(plan, 1000)
        with obs.observe() as trace:
            result = run_streaming(plan, 1000, tile_words=2, jobs=4)
        _assert_one_span_counted(trace, "series")
        for name in plan.node_order:
            assert np.array_equal(result.words(name), ref.words(name)), name

    def test_jobs_validation(self):
        plan = compile_graph(build_graph("correlated_multiply"))
        for bad in (0, -1, 1.5, "two"):
            with pytest.raises(CircuitConfigurationError):
                run_streaming(plan, 64, jobs=bad)
        with pytest.raises(CircuitConfigurationError):
            audit_streaming(plan, 64, jobs=0)


class TestPerCycleOracle:
    """Tiled audits against an oracle that shares none of their chunk
    walks: the whole-stream audit with every FSM stepped one cycle at a
    time (``strategy="step"`` never calls ``chunked_outputs``)."""

    @pytest.fixture(scope="class")
    def stepped(self):
        plan = compile_graph(long_stream_graph(16))
        with mock.patch.object(dispatch, "chunked_outputs") as chunked, \
                kernels.use_backend("auto", strategy="step"):
            reference = audit(plan, 1 << 16)
        assert not chunked.called
        return plan, reference

    # 64-word tiles walk 512 chunks per row (python walks); 4096-word
    # tiles cover the 1024-word stream in one 8192-chunk row, and the
    # jobs=2 spans of one 512-word tile compose and evaluate 3640 and
    # 4096 chunks: both past the block-walk switch.
    @pytest.mark.parametrize("tile_words, jobs, blocked", [
        (64, 1, False), (4096, 1, True), (512, 2, True),
    ])
    def test_tiled_audit_equals_per_cycle_audit(
        self, stepped, tile_words, jobs, blocked
    ):
        plan, reference = stepped
        walks = {
            name: mock.MagicMock(wraps=getattr(steppers, name))
            for name in ("_walk_blocked", "_map_blocked")
        }
        with in_process_lane(), mock.patch.multiple(steppers, **walks):
            got = audit_streaming(plan, 1 << 16, tile_words=tile_words, jobs=jobs)
        assert walks["_walk_blocked"].called == blocked
        assert walks["_map_blocked"].called == (blocked and jobs > 1)
        assert got.entries == reference.entries
        assert got.values == reference.values
        assert got.expected == reference.expected

    # A span-map fold that applies block maps out of order still passes
    # the long_stream cases above, whose chunk maps nearly commute; this
    # graph's do not. At tile_words=256 each tile is 2048 chunks, exactly
    # 256 blocks of 8, so no python remainder walk resets the state a
    # misordered fold got wrong.
    _DESYNC_LENGTH = 1 << 16

    @pytest.fixture(scope="class")
    def desync_stepped(self):
        g = SCGraph()
        g.source("a", 0.7, "vdc", width=16)
        g.source("b", 0.4, "halton3", width=16)
        shared: dict = {}
        desync = Desynchronizer(depth=2)
        g.add(TransformNode("d_x", desync, ("a", "b"), 0, shared))
        g.add(TransformNode("d_y", desync, ("a", "b"), 1, shared))
        g.op("prod", "mul", "d_x", "d_y")
        plan = compile_graph(g)
        with mock.patch.object(dispatch, "chunked_outputs") as chunked, \
                kernels.use_backend("auto", strategy="step"):
            reference = audit(plan, self._DESYNC_LENGTH)
        assert not chunked.called
        return plan, reference

    def _desync_audit(self, plan, fold):
        with in_process_lane(), mock.patch.object(steppers, "_map_blocked", fold):
            return audit_streaming(plan, self._DESYNC_LENGTH, tile_words=256, jobs=2)

    def test_desync_span_maps_equal_per_cycle_audit(self, desync_stepped):
        plan, reference = desync_stepped
        fold = mock.MagicMock(wraps=steppers._map_blocked)
        got = self._desync_audit(plan, fold)
        assert fold.call_count == 2  # span 0's two tiles compose by blocks
        assert got.entries == reference.entries
        assert got.values == reference.values
        assert got.expected == reference.expected

    def test_desync_case_catches_a_misordered_fold(self, desync_stepped):
        def swapped_fold(lut, index, row, n_states):
            # steppers._map_blocked, with each pair's maps applied in the
            # wrong order.
            blocks = steppers._blocks(index)
            maps = steppers._block_maps(lut, blocks, n_states)
            while maps.shape[1] > 1:
                even = maps.shape[1] & ~1
                folded = np.take_along_axis(
                    maps[:, 0:even:2], maps[:, 1:even:2], axis=0
                )
                maps = np.concatenate([folded, maps[:, even:]], axis=1)
            return steppers._walk_map(
                lut, index[blocks.size:].tolist(), maps[row, 0].tolist()
            )

        plan, reference = desync_stepped
        got = self._desync_audit(plan, swapped_fold)
        assert got.values != reference.values


# ---------------------------------------------------------------------- #
# 2b. One span: jobs=1, a single tile, a series plan
# ---------------------------------------------------------------------- #

def _series_graph() -> SCGraph:
    g = SCGraph()
    g.source("a", 0.7, "vdc")
    g.source("b", 0.4, "halton3")
    shared: dict = {}
    series = SeriesPair([Synchronizer(depth=1), IsolatorPair(delay=2)])
    g.add(TransformNode("s_x", series, ("a", "b"), 0, shared))
    g.add(TransformNode("s_y", series, ("a", "b"), 1, shared))
    g.op("out", "sub", "s_x", "s_y")
    return g


def _assert_one_span_counted(trace, reason: str) -> None:
    counters = trace.metrics["counters"]
    assert counters["engine.parallel.fallback"] == 1
    assert counters[f"engine.parallel.fallback.{reason}"] == 1
    assert "engine.parallel.spans" not in counters
    assert not trace.by_name("engine.parallel.evaluate")
    assert len(trace.by_name("engine.stream.walk")) == 1


class TestOneSpan:
    def test_jobs_one_records_no_parallel_span_or_counter(self):
        plan = compile_graph(build_graph("fsm_zoo"))
        with obs.observe() as trace:
            run_streaming(plan, 1 << 12, tile_words=2)
            audit_streaming(plan, 1 << 12, tile_words=2)
        names = [rec["name"] for rec in trace.spans]
        assert names.count("engine.stream") == 2
        assert names.count("engine.stream.walk") == 2
        assert not [n for n in names if n.startswith("engine.parallel")]
        counters = trace.metrics["counters"]
        assert not [n for n in counters if n.startswith("engine.parallel")]
        assert counters["engine.stream.tiles"] == 2 * 32

    def test_single_tile_at_jobs_above_one_is_one_counted_span(self):
        plan = compile_graph(build_graph("fsm_zoo"))
        ref = run_batch(plan, 1000)
        with obs.observe() as trace:
            result = run_streaming(plan, 1000, tile_words=16, jobs=4)
        _assert_one_span_counted(trace, "single_span")
        for name in plan.node_order:
            assert np.array_equal(result.words(name), ref.words(name)), name

    def test_one_span_keeps_one_full_length_buffer(self):
        # Kept words land straight in the result buffer: no span buffer
        # copied into a second full-length one.
        import tracemalloc

        plan = compile_graph(build_graph("depth8"))
        length = 1 << 20
        run_streaming(plan, length, tile_words=16, keep=("src0",))  # warm
        tracemalloc.start()
        try:
            run = run_streaming(plan, length, tile_words=16, keep=("src0",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full = run.words("src0").nbytes
        assert full == length // 8
        assert peak < 1.5 * full


# ---------------------------------------------------------------------- #
# 3. keep= / override regressions under the parallel merge
# ---------------------------------------------------------------------- #

class TestKeepAndOverrides:
    def test_keep_subset_assembles_across_spans(self):
        # Many spans, batched overrides, a keep subset: every kept node
        # must assemble in node_order with full-stream words regardless
        # of which span finishes first.
        plan = compile_graph(build_graph("depth8"))
        values = {"src0": np.linspace(0.0, 1.0, 5),
                  "src4": np.linspace(1.0, 0.0, 5)}
        ref = run_batch(plan, 3333, values=values)
        result = run_streaming(
            plan, 3333, tile_words=1, jobs=4, values=values, keep=("n8", "n4")
        )
        assert result.batch_size == 5
        assert result.names == ["n4", "n8"]  # node_order, not keep order
        for name in ("n4", "n8"):
            assert np.array_equal(result.words(name), ref.words(name))
            assert np.array_equal(result.values(name), ref.values(name))

    def test_level_overrides_match_value_overrides(self):
        plan = compile_graph(build_graph("uncorrelated_subtract"))
        by_level = run_streaming(
            plan, 256, tile_words=1, jobs=4, levels={"a": np.arange(0, 256, 16)}
        )
        by_value = run_streaming(
            plan, 256, tile_words=1, jobs=4,
            values={"a": np.arange(0, 256, 16) / 256.0},
        )
        assert np.array_equal(by_level.words("diff"), by_value.words("diff"))

    def test_keep_validates_names(self):
        plan = compile_graph(build_graph("correlated_multiply"))
        with pytest.raises(GraphCompilationError):
            run_streaming(plan, 6400, tile_words=1, jobs=4, keep=("nope",))

    def test_values_only_for_kept_nodes(self):
        plan = compile_graph(build_graph("depth8"))
        result = run_streaming(plan, 6400, tile_words=1, jobs=4, keep=("n8",))
        with pytest.raises(KeyError):
            result.values("n1")


# ---------------------------------------------------------------------- #
# 4. Properties: arbitrary splits and the composer algebra
# ---------------------------------------------------------------------- #

PAIR_FAMILIES = [
    ("synchronizer", lambda: Synchronizer(depth=1)),
    ("desynchronizer", lambda: Desynchronizer(depth=1)),
    ("decorrelator",
     lambda: Decorrelator(LFSR(8, seed=45), LFSR(8, seed=142), depth=4)),
    ("isolator", lambda: IsolatorPair(delay=3)),
    ("tfm", lambda: TFMPair(LFSR(8, seed=77))),
]


class TestSplitProperties:
    @given(
        length=st.integers(1, 1500),
        tile_words=st.integers(1, 5),
        jobs=st.integers(2, 6),
    )
    @settings(max_examples=15, deadline=None)
    def test_fsm_zoo_any_split_bit_identical(self, length, tile_words, jobs):
        # Every (tile size, span count) partition of a three-wave FSM
        # graph reproduces the sequential bits exactly (span tasks run
        # in-process: same code path, fast enough for hypothesis).
        with in_process_lane():
            plan = compile_graph(build_graph("fsm_zoo"))
            ref = run_batch(plan, length)
            result = run_streaming(plan, length, tile_words=tile_words, jobs=jobs)
            for name in plan.node_order:
                assert np.array_equal(result.words(name), ref.words(name)), (
                    length, tile_words, jobs, name,
                )

    @pytest.mark.parametrize(
        "factory", [f for _, f in PAIR_FAMILIES],
        ids=[name for name, _ in PAIR_FAMILIES],
    )
    @given(
        lens=st.tuples(
            st.integers(1, 64), st.integers(1, 64), st.integers(1, 64)
        ),
        seed=st.integers(0, 2 ** 16),
    )
    @settings(max_examples=15, deadline=None)
    def test_span_maps_compose(self, factory, lens, seed):
        # The algebra the prefix scan rests on: span maps composed in
        # any association equal the one-shot map, and applying the
        # composed map to the fresh state lands on the carrier's state.
        total, batch = sum(lens), 2
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=(batch, total), dtype=np.uint8)
        y = rng.integers(0, 2, size=(batch, total), dtype=np.uint8)

        maps, offset = [], 0
        for chunk in lens:
            composer = make_pair_composer(factory(), total, batch, offset)
            composer.step(x[:, offset:offset + chunk],
                          y[:, offset:offset + chunk])
            maps.append(composer.state_map)
            offset += chunk

        algebra = make_pair_composer(factory(), total, batch)
        left = algebra.compose(algebra.compose(maps[0], maps[1]), maps[2])
        right = algebra.compose(maps[0], algebra.compose(maps[1], maps[2]))
        assert _state_equal(left, right)

        one_shot = make_pair_composer(factory(), total, batch)
        one_shot.step(x, y)
        assert _state_equal(left, one_shot.state_map)

        carrier = make_pair_carrier(factory(), total, batch)
        fresh = carrier.get_state()
        carrier.step(x, y)
        assert _state_equal(algebra.apply(left, fresh), carrier.get_state())


# ---------------------------------------------------------------------- #
# 5. Runner determinism: jobs is invisible to the store
# ---------------------------------------------------------------------- #

SMALL_LONG_STREAM = {"exponents": (10, 12), "tile_words": 512}


class TestRunnerDeterminism:
    @staticmethod
    def _files(root):
        return sorted(
            p.relative_to(root) for p in root.rglob("*") if p.is_file()
        )

    def test_store_byte_identical_across_jobs(self, tmp_path):
        from repro.runner import ResultStore, run_spec

        roots = {}
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            run_spec(
                "long_stream", fidelity="smoke", seed=11,
                store=ResultStore(str(root)), log=None,
                overrides={**SMALL_LONG_STREAM, "jobs": jobs},
            )
            roots[jobs] = root
        files = self._files(roots[1])
        assert files and files == self._files(roots[2])
        for rel in files:
            assert (roots[1] / rel).read_bytes() == (roots[2] / rel).read_bytes(), rel

    def test_parallel_run_hits_sequential_cache(self, tmp_path):
        from repro.runner import ResultStore, run_spec

        store = ResultStore(str(tmp_path / "store"))
        first = run_spec(
            "long_stream", fidelity="smoke", seed=7, store=store, log=None,
            overrides={**SMALL_LONG_STREAM, "jobs": 1},
        )
        assert first.computed == first.shard_count
        second = run_spec(
            "long_stream", fidelity="smoke", seed=7, store=store, log=None,
            overrides={**SMALL_LONG_STREAM, "jobs": 4},
        )
        # jobs is stripped from the content address: the parallel run
        # resolves entirely from the sequential run's cache entries.
        assert second.all_from_cache

    def test_content_params_strips_execution_keys(self):
        from repro.runner.spec import EXECUTION_PARAMS, content_params

        assert "jobs" in EXECUTION_PARAMS
        assert content_params({"jobs": 8, "exponents": (10,)}) == {
            "exponents": (10,)
        }
