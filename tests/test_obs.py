"""Observability layer (repro.obs).

Pins the tracing contract end to end: span nesting and attribution in
one process, metric merge semantics, cross-process aggregation under
fork (including a shard-style forked worker whose own ``jobs > 1`` call
runs in-process), exporter output against golden files, and the
load-bearing invariant that enabling tracing never changes a result bit
(the cross-backend equivalence matrix run inside a session).
"""

import json
import multiprocessing
import os
import pathlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine, obs
from repro.engine.library import GRAPH_LIBRARY, build_graph
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from tests.helpers import assert_backends_equivalent

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test must leave the module-global tracer torn down."""
    assert obs.current_tracer() is None
    yield
    assert obs.current_tracer() is None


# ---------------------------------------------------------------------- #
# Disabled path
# ---------------------------------------------------------------------- #

class TestDisabled:
    def test_span_returns_shared_null_handle(self):
        handle = obs.span("engine.execute", length=64)
        assert handle is obs.span("anything.else")
        with handle as sp:
            sp.annotate(extra=1)  # no-op, no error

    def test_counters_are_noops(self):
        obs.counter_add("engine.plan.cache.hit")
        obs.gauge_set("g", 3)
        obs.histogram_record("h", 17)
        assert obs.metrics_snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_enabled_reflects_session_state(self):
        assert not obs.enabled()
        with obs.observe():
            assert obs.enabled()
        assert not obs.enabled()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            obs.stop()

    def test_nested_start_raises(self):
        with obs.observe():
            with pytest.raises(RuntimeError):
                obs.start()


# ---------------------------------------------------------------------- #
# Span tree
# ---------------------------------------------------------------------- #

class TestSpanTree:
    def test_nesting_parent_depth_category(self):
        with obs.observe() as trace:
            with obs.span("runner.run_many", jobs=2):
                with obs.span("runner.plan"):
                    pass
                with obs.span("store.write", key="abc"):
                    pass
        names = [s["name"] for s in trace.spans]
        assert names == ["runner.run_many", "runner.plan", "store.write"]
        root, plan, write = trace.spans
        assert root["parent"] == -1 and root["depth"] == 0
        assert plan["parent"] == 0 and plan["depth"] == 1
        assert write["parent"] == 0 and write["depth"] == 1
        assert root["cat"] == "runner" and write["cat"] == "store"
        assert root["args"] == {"jobs": 2}

    def test_annotate_merges_into_args(self):
        with obs.observe() as trace:
            with obs.span("engine.plan.compile", nodes=4) as sp:
                sp.annotate(levels=2, fsm=1)
        assert trace.spans[0]["args"] == {"nodes": 4, "levels": 2, "fsm": 1}

    def test_wall_and_cpu_times_recorded(self):
        with obs.observe() as trace:
            with obs.span("engine.execute"):
                time.sleep(0.01)
        rec = trace.spans[0]
        assert rec["dur"] >= 0.01
        assert rec["cpu"] >= 0.0
        assert rec["t0"] >= 0.0

    def test_exception_still_closes_span(self):
        with obs.observe() as trace:
            with pytest.raises(ValueError):
                with obs.span("engine.execute"):
                    raise ValueError("boom")
        assert trace.spans[0]["dur"] >= 0.0
        # The stack unwound: a sibling opened afterwards is a root.
        with obs.observe() as trace2:
            with obs.span("kernels.compile"):
                pass
        assert trace2.spans[0]["depth"] == 0

    def test_memory_attribution_opt_in(self):
        with obs.observe(memory=True) as trace:
            with obs.span("engine.execute"):
                _ = np.zeros(1 << 16, dtype=np.uint8)
        rec = trace.spans[0]
        assert "mem_peak" in rec and rec["mem_peak"] > 0
        assert "mem_net" in rec
        # Off by default.
        with obs.observe() as plain:
            with obs.span("engine.execute"):
                pass
        assert "mem_peak" not in plain.spans[0]

    def test_trace_helpers(self):
        with obs.observe() as trace:
            with obs.span("a.x"):
                pass
            with obs.span("a.x"):
                pass
            with obs.span("b.y"):
                pass
        assert len(trace.by_name("a.x")) == 2
        assert trace.processes == [trace.meta["origin_pid"]]


# ---------------------------------------------------------------------- #
# Metrics registry
# ---------------------------------------------------------------------- #

class TestMetrics:
    def test_counter_gauge_histogram_shapes(self):
        with obs.observe() as trace:
            obs.counter_add("c", 2)
            obs.counter_add("c")
            obs.gauge_set("g", 1)
            obs.gauge_set("g", 7)
            obs.histogram_record("h", 3)
            obs.histogram_record("h", 100)
        m = trace.metrics
        assert m["counters"]["c"] == 3
        assert m["gauges"]["g"] == 7
        hist = m["histograms"]["h"]
        assert hist["count"] == 2 and hist["sum"] == 103
        assert hist["min"] == 3 and hist["max"] == 100
        assert hist["buckets"] == {"<=2^2": 1, "<=2^7": 1}

    def test_merge_semantics(self):
        a = {
            "counters": {"c": 2},
            "gauges": {"g": 1},
            "histograms": {"h": {"count": 1, "sum": 3, "min": 3, "max": 3,
                                 "buckets": {"<=2^2": 1}}},
        }
        obs_metrics.reset()
        try:
            obs_metrics.merge(a)
            obs_metrics.merge({
                "counters": {"c": 5, "d": 1},
                "gauges": {"g": 9},
                "histograms": {"h": {"count": 2, "sum": 20, "min": 4,
                                     "max": 16, "buckets": {"<=2^4": 2}}},
            })
            merged = obs_metrics.snapshot()
        finally:
            obs_metrics.reset()
        assert merged["counters"] == {"c": 7, "d": 1}
        assert merged["gauges"]["g"] == 9
        hist = merged["histograms"]["h"]
        assert hist["count"] == 3 and hist["sum"] == 23
        assert hist["min"] == 3 and hist["max"] == 16
        assert hist["buckets"] == {"<=2^2": 1, "<=2^4": 2}

    def test_bucket_labels_are_log2_ceilings(self):
        assert obs_metrics._bucket(0) == "<=2^0"
        assert obs_metrics._bucket(1) == "<=2^0"
        assert obs_metrics._bucket(2) == "<=2^1"
        assert obs_metrics._bucket(3) == "<=2^2"
        assert obs_metrics._bucket(1024) == "<=2^10"
        assert obs_metrics._bucket(1025) == "<=2^11"


# ---------------------------------------------------------------------- #
# Instrumented stack (single process)
# ---------------------------------------------------------------------- #

class TestInstrumentation:
    def test_plan_cache_counters_and_compile_span(self):
        graph = build_graph("fsm_zoo")
        engine.clear_cache()
        with obs.observe() as trace:
            plan = engine.compile(graph)
            engine.compile(graph)
        counters = trace.metrics["counters"]
        assert counters["engine.plan.cache.miss"] == 1
        assert counters["engine.plan.cache.hit"] == 1
        compile_spans = trace.by_name("engine.plan.compile")
        assert len(compile_spans) == 1
        assert compile_spans[0]["args"]["nodes"] > 0
        assert plan is engine.compile(graph)

    def test_streaming_tile_counters(self):
        plan = engine.compile(build_graph("fsm_zoo"))
        with obs.observe() as trace:
            plan.run_streaming(1 << 10, tile_words=2)
        counters = trace.metrics["counters"]
        assert counters["engine.stream.tiles"] == 8
        assert counters["engine.stream.words"] == 16
        walk = trace.by_name("engine.stream.walk")
        assert walk and walk[0]["args"]["tiles"] == 8
        stream = trace.by_name("engine.stream")
        assert stream and walk[0]["parent"] == trace.spans.index(stream[0])


# ---------------------------------------------------------------------- #
# Cross-process aggregation
# ---------------------------------------------------------------------- #

def _shard_like_worker(length):
    """Module-level worker: runs the parallel tile scheduler *from a
    forked child*, like a runner shard on a pool worker running a
    ``jobs>1`` streaming audit. Returns its pid and every node's words."""
    plan = engine.compile(build_graph("fsm_zoo"))
    result = plan.run_streaming(length, tile_words=2, jobs=2)
    return os.getpid(), {name: result.words(name) for name in plan.node_order}


def _fork_pool(workers):
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


class TestCrossProcess:
    def test_parallel_streaming_merges_worker_spans(self):
        plan = engine.compile(build_graph("fsm_zoo"))
        baseline = plan.run_streaming(1 << 12, tile_words=2)
        with obs.observe() as trace:
            traced = plan.run_streaming(1 << 12, tile_words=2, jobs=2)
        assert len(trace.processes) >= 2  # origin + span workers
        worker_pids = set(trace.processes[1:])
        evaluate = trace.by_name("engine.parallel.evaluate")
        assert {s["pid"] for s in evaluate} <= worker_pids
        assert {s["pid"] for s in evaluate} == worker_pids
        counters = trace.metrics["counters"]
        # Pool workers adopt the session instead of being forked into it.
        assert counters.get("engine.parallel.pooled", 0) >= 1
        for name in baseline.ones:
            assert baseline.ones[name] == traced.ones[name]

    def test_timestamps_align_on_one_timeline(self):
        plan = engine.compile(build_graph("fsm_zoo"))
        with obs.observe() as trace:
            plan.run_streaming(1 << 12, tile_words=2, jobs=2)
        session_end = trace.meta["duration_s"]
        for rec in trace.spans:
            assert 0.0 <= rec["t0"] <= session_end
            assert rec["t0"] + rec["dur"] <= session_end + 0.05

    def test_second_level_fork_merges_exactly_once(self):
        # A jobs=2 call inside a forked child cannot use the pool; it
        # runs its span tasks in-process: jobs=1 bits, no grandchild,
        # one counted decline, and its spans merge exactly once.
        length = 1 << 12
        plan = engine.compile(build_graph("fsm_zoo"))
        reference = plan.run_streaming(length, tile_words=2)
        with obs.observe() as trace:
            with _fork_pool(1) as pool:
                pid, words = pool.submit(_shard_like_worker, length).result()
            assert obs.collect_children() >= 1
            assert obs.collect_children() == 0  # nothing merges twice
        for name in plan.node_order:
            assert np.array_equal(words[name], reference.words(name)), name
        assert trace.processes == [pid]
        counters = trace.metrics["counters"]
        assert counters["process.forks"] == 1
        assert counters["engine.pool.fallback.child"] == 1
        assert counters.get("engine.parallel.pooled", 0) == 0
        evaluate = trace.by_name("engine.parallel.evaluate")
        assert sorted(rec["args"]["span"] for rec in evaluate) == [0, 1]
        # Every span appears once, offset-linked to its own parent.
        for rec in trace.spans:
            if rec["parent"] >= 0:
                parent = trace.spans[rec["parent"]]
                assert parent["pid"] == rec["pid"]
                assert parent["depth"] == rec["depth"] - 1

    def test_child_buffers_do_not_leak_between_sessions(self):
        plan = engine.compile(build_graph("fsm_zoo"))
        with obs.observe() as first:
            plan.run_streaming(1 << 12, tile_words=2, jobs=2)
        with obs.observe() as second:
            pass
        assert second.spans == []
        assert first.spans != []


# ---------------------------------------------------------------------- #
# Exporters
# ---------------------------------------------------------------------- #

def _fixed_trace():
    """A deterministic finished Trace for golden-file exports."""
    return obs.Trace(
        spans=[
            {"name": "runner.run_many", "cat": "runner", "t0": 0.0,
             "dur": 0.5, "cpu": 0.25, "pid": 1000, "tid": 1000,
             "parent": -1, "depth": 0, "args": {"specs": 1, "jobs": 2}},
            {"name": "runner.plan", "cat": "runner", "t0": 0.001,
             "dur": 0.002, "cpu": 0.002, "pid": 1000, "tid": 1000,
             "parent": 0, "depth": 1, "args": {"shards": 3}},
            {"name": "store.write", "cat": "store", "t0": 0.4,
             "dur": 0.0015, "cpu": 0.001, "pid": 1000, "tid": 1000,
             "parent": 0, "depth": 1, "args": {"key": "abcdef012345"}},
            {"name": "runner.shard", "cat": "runner", "t0": 0.01,
             "dur": 0.35, "cpu": 0.34, "pid": 1001, "tid": 1001,
             "parent": -1, "depth": 0,
             "args": {"spec": "table2", "shard": "synchronizer/lfsr+vdc"}},
        ],
        metrics={
            "counters": {"engine.plan.cache.hit": 2,
                         "engine.plan.cache.miss": 1,
                         "runner.cache.hit": 1, "runner.cache.miss": 2,
                         "store.write": 2, "process.forks": 1},
            "gauges": {},
            "histograms": {"shard.ms": {"count": 2, "sum": 700, "min": 300,
                                        "max": 400, "buckets": {"<=2^9": 2}}},
        },
        meta={"origin_pid": 1000, "started_unix": 1700000000.0,
              "duration_s": 0.5, "memory": False},
    )


class TestExporters:
    def test_chrome_trace_golden(self):
        doc = obs.to_chrome_trace(_fixed_trace())
        golden = json.loads((GOLDEN / "obs_trace.json").read_text())
        assert doc == golden

    def test_stats_doc_golden(self):
        doc = obs.stats_doc(_fixed_trace())
        golden = json.loads((GOLDEN / "obs_stats.json").read_text())
        assert doc == golden

    def test_chrome_trace_validates(self):
        doc = obs.to_chrome_trace(_fixed_trace())
        counts = obs.validate_chrome_trace(doc)
        assert counts == {"X": 4, "M": 2}

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({})
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({"traceEvents": []})
        doc = obs.to_chrome_trace(_fixed_trace())
        doc["traceEvents"][2]["ph"] = "Q"
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(doc)

    def test_write_chrome_trace_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(_fixed_trace(), path)
        assert obs.validate_chrome_trace(json.loads(path.read_text()))

    def test_derived_rates(self):
        doc = obs.stats_doc(_fixed_trace())
        assert doc["derived"]["plan_cache_hit_rate"] == pytest.approx(2 / 3)
        assert doc["derived"]["runner_cache_hit_rate"] == pytest.approx(1 / 3)
        assert doc["derived"]["seq_memo_hit_rate"] is None

    def test_render_stats_handles_missing_denominators(self):
        text = obs.render_stats(obs.stats_doc(_fixed_trace()))
        assert "n/a" in text  # seq memo rate has no observations
        assert "66.7%" in text
        assert "runner.shard" in text

    def test_profile_tree_groups_by_ancestry(self):
        text = obs.profile_tree(_fixed_trace())
        lines = text.splitlines()
        assert any(line.startswith("runner.run_many") for line in lines)
        assert any(line.startswith("  runner.plan") for line in lines)
        assert any(line.startswith("runner.shard") for line in lines)

    def test_profile_tree_empty(self):
        assert "no spans" in obs.profile_tree(obs.Trace())


# ---------------------------------------------------------------------- #
# Tracing never changes results
# ---------------------------------------------------------------------- #

class TestBitIdentityUnderTracing:
    @settings(max_examples=4, deadline=None)
    @given(
        name=st.sampled_from(sorted(GRAPH_LIBRARY)),
        length=st.sampled_from([96, 256, 321]),
    )
    def test_equivalence_matrix_holds_while_traced(self, name, length):
        assert_backends_equivalent(build_graph(name), length, traced=True)

    def test_traced_equals_untraced_bit_for_bit(self):
        plan = engine.compile(build_graph("mixed_pipeline"))
        base = plan.run_batch(512)
        with obs.observe():
            traced = plan.run_batch(512)
        assert base.names == traced.names
        for name in base.names:
            assert np.array_equal(base.words(name), traced.words(name))
