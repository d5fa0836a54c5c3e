"""The plan optimizer: structural CSE, DCE, arena allocation, fallbacks.

Covers the optimizer's bit-safety contract (optimized plans are bit-/
float-identical to the faithful schedule through every backend), the
value-numbering rules (commutative canonicalization, RNG identity,
transform regrouping), per-call dead-node elimination and its memo, the
override-divergence fallback to the raw twin, per-level plan-cache
stats, arena buffer recycling, and ``describe()``'s ellipsis rendering.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SCGraph, engine, obs
from repro.core import Synchronizer
from repro.engine import optimize as opt
from repro.engine.executor import run_batch
from repro.engine.library import (
    GRAPH_LIBRARY,
    build_graph,
    cse_sweep_graph,
    mux_chain_graph,
)
from repro.engine.optimize import (
    BufferArena,
    OptimizedPlan,
    clear_dce_cache,
    dce_cache_info,
    dce_plan,
    default_optimize,
    optimize_plan,
    set_default_optimize,
)
from repro.engine.plan import _ellipsize, compile_graph
from repro.graph.nodes import TransformNode
from repro.runner.spec import EXECUTION_PARAMS, content_params
from tests.helpers import assert_backends_equivalent


@pytest.fixture(autouse=True)
def _fresh_caches():
    engine.clear_cache()
    yield
    engine.clear_cache()


def _dup_source_graph():
    """Two identical sources, two structurally identical multiplies."""
    g = SCGraph()
    g.source("a", 0.7, "vdc")
    g.source("a2", 0.7, "vdc")
    g.source("b", 0.3, "halton3")
    g.op("m1", "mul", "a", "b")
    g.op("m2", "mul", "a2", "b")
    g.op("out", "sat_add", "m1", "m2")
    return g


# ---------------------------------------------------------------------- #
# 1. Value numbering (CSE) units
# ---------------------------------------------------------------------- #

class TestValueNumbering:
    def test_identical_sources_and_ops_merge(self):
        plan = compile_graph(_dup_source_graph(), optimize=True)
        assert isinstance(plan, OptimizedPlan)
        assert plan.resolve("a2") == "a"
        assert plan.resolve("m2") == "m1"
        assert plan.report.sources_merged == 1
        assert plan.report.ops_merged == 1
        # out survives: sat_add(m1, m1) has no prior twin.
        assert plan.resolve("out") == "out"
        assert len(plan.steps) == len(plan.raw.steps) - 2

    def test_rng_seed_distinguishes_sources(self):
        g = SCGraph()
        g.source("a", 0.5, "lfsr", seed=7)
        g.source("b", 0.5, "lfsr", seed=9)
        g.op("m", "mul", "a", "b")
        plan = compile_graph(g, optimize=True)
        assert plan.report.merged == 0
        assert plan.resolve("b") == "b"

    def test_rng_width_distinguishes_sources(self):
        g = SCGraph()
        g.source("a", 0.5, "vdc", width=8)
        g.source("b", 0.5, "vdc", width=10)
        g.op("m", "mul", "a", "b")
        plan = compile_graph(g, optimize=True)
        assert plan.report.merged == 0

    def test_value_distinguishes_sources(self):
        g = SCGraph()
        g.source("a", 0.5, "vdc")
        g.source("b", 0.25, "vdc")
        g.op("m", "mul", "a", "b")
        assert compile_graph(g, optimize=True).report.merged == 0

    def test_commutative_ops_merge_across_operand_order(self):
        g = SCGraph()
        g.source("a", 0.7, "vdc")
        g.source("b", 0.3, "halton3")
        g.op("m1", "mul", "a", "b")
        g.op("m2", "mul", "b", "a")  # AND is symmetric
        g.op("out", "max", "m1", "m2")
        plan = compile_graph(g, optimize=True)
        assert plan.resolve("m2") == "m1"
        assert_backends_equivalent(g, 200, optimize="both")

    def test_mux_is_direction_sensitive(self):
        g = SCGraph()
        g.source("a", 0.7, "vdc")
        g.source("b", 0.3, "halton3")
        g.op("s1", "scaled_add", "a", "b")
        g.op("s2", "scaled_add", "b", "a")  # MUX selects between operands
        g.op("out", "max", "s1", "s2")
        plan = compile_graph(g, optimize=True)
        assert plan.report.ops_merged == 0
        assert plan.resolve("s2") == "s2"

    def test_ops_merge_through_aliased_operands(self):
        # m2 reads the *duplicate* source; value numbering rewrites its
        # operands before keying, so it still merges with m1.
        plan = compile_graph(_dup_source_graph(), optimize=True)
        m_step = plan.step("m1")
        assert m_step.inputs == ("a", "b")

    def test_duplicate_transform_splices_merge(self):
        sync = Synchronizer(depth=1)
        g = SCGraph()
        g.source("a", 0.7, "vdc")
        g.source("b", 0.4, "halton3")
        for stem in ("p", "q"):
            shared: dict = {}
            g.add(TransformNode(f"{stem}_x", sync, ("a", "b"), 0, shared))
            g.add(TransformNode(f"{stem}_y", sync, ("a", "b"), 1, shared))
        g.op("d1", "sub", "p_x", "p_y")
        g.op("d2", "sub", "q_x", "q_y")
        g.op("out", "max", "d1", "d2")
        plan = compile_graph(g, optimize=True)
        assert plan.report.transforms_merged == 2
        assert plan.resolve("q_x") == "p_x"
        assert plan.resolve("q_y") == "p_y"
        assert plan.resolve("d2") == "d1"
        assert_backends_equivalent(g, 333, optimize="both")

    def test_cse_sweep_collapses_to_one_interior(self):
        copies = 8
        plan = compile_graph(cse_sweep_graph(copies), optimize=True)
        ops = [s for s in plan.steps if s.kind == "op"]
        sources = [s for s in plan.steps if s.kind == "source"]
        assert len(ops) == 4 + copies        # one shared tree + one min per copy
        assert len(sources) == 4 + copies    # one quadruple + per-copy weights
        assert plan.report.ops_merged == (copies - 1) * 4
        assert plan.report.sources_merged == (copies - 1) * 4
        # The merged quadruple forms four override-sensitive classes.
        assert len(plan.source_merges) == 4
        for _, dups in plan.source_merges:
            assert len(dups) == copies - 1

    def test_report_counts_consistent(self):
        plan = compile_graph(cse_sweep_graph(4), optimize=True)
        r = plan.report
        assert r.merged == r.sources_merged + r.ops_merged + r.transforms_merged
        assert len(r.merges) == r.merged
        assert len(plan.raw.steps) - len(plan.steps) == r.merged

    def test_optimize_plan_on_clean_graph_is_identity_rewrite(self):
        raw = compile_graph(build_graph("mixed_pipeline"), optimize=False)
        plan = optimize_plan(raw)
        assert plan.report.merged == 0
        assert [s.name for s in plan.steps] == [s.name for s in raw.steps]


# ---------------------------------------------------------------------- #
# 2. Dead-node elimination
# ---------------------------------------------------------------------- #

class TestDeadNodeElimination:
    def test_cone_restriction(self):
        plan = compile_graph(build_graph("mixed_pipeline"), optimize=True)
        pruned = dce_plan(plan, frozenset({"diff"}))
        assert {s.name for s in pruned.steps} == {"a", "b", "diff"}

    def test_full_keep_is_identity(self):
        plan = compile_graph(build_graph("mixed_pipeline"), optimize=True)
        names = frozenset(s.name for s in plan.steps)
        assert dce_plan(plan, names) is plan

    def test_lifetimes_recomputed(self):
        plan = compile_graph(build_graph("mixed_pipeline"), optimize=True)
        pruned = dce_plan(plan, frozenset({"diff"}))
        freed = [n for s in pruned.steps for n in s.free_after]
        assert set(freed) <= {s.name for s in pruned.steps}

    def test_keep_subset_results_identical_to_full_run(self):
        g = build_graph("depth8")
        plan = compile_graph(g, optimize=True)
        full = run_batch(plan, 256)
        subset = run_batch(plan, 256, keep=["n8"])
        assert np.array_equal(subset.words("n8"), full.words("n8"))
        with pytest.raises(KeyError):
            subset.words("n3")  # pruned and not kept

    def test_memo_hits_and_clear(self):
        clear_dce_cache()
        plan = compile_graph(build_graph("depth8"), optimize=True)
        run_batch(plan, 64, keep=["n8"])
        run_batch(plan, 64, keep=["n8"])
        info = dce_cache_info()
        assert info["misses"] == 1 and info["hits"] >= 1
        clear_dce_cache()
        info = dce_cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0,
                        "maxsize": info["maxsize"]}

    def test_clear_cache_drops_dce_memo_too(self):
        plan = compile_graph(build_graph("depth8"), optimize=True)
        run_batch(plan, 64, keep=["n8"])
        engine.clear_cache()
        assert dce_cache_info()["size"] == 0

    def test_audit_never_prunes(self):
        # An audit measures every operator, keep or no keep.
        plan = compile_graph(build_graph("depth8"), optimize=True)
        audited = plan.audit(256)
        assert {e.node for e in audited.entries} == {
            s.name for s in plan.semantic_steps if s.kind != "source"
        }

    def test_fork_hook_rebinds_lock_and_drops_memo(self):
        # PR 5 lock-hook pattern, simulated by invoking the hook.
        plan = compile_graph(build_graph("depth8"), optimize=True)
        run_batch(plan, 64, keep=["n8"])
        assert dce_cache_info()["size"] == 1
        old_lock = opt._DCE_LOCK
        opt._reinit_after_fork()
        assert opt._DCE_LOCK is not old_lock
        assert len(opt._DCE_CACHE) == 0
        assert opt._DCE_LOCK.acquire(blocking=False)
        opt._DCE_LOCK.release()


# ---------------------------------------------------------------------- #
# 3. Override-divergence fallback
# ---------------------------------------------------------------------- #

class TestOverrideFallback:
    def test_split_merge_falls_back_to_raw(self):
        g = _dup_source_graph()
        plan = compile_graph(g, optimize=True)
        raw = compile_graph(g, optimize=False)
        # Overriding only one member of the (a, a2) merge class makes
        # the merged schedule wrong; the call must execute the raw twin.
        with obs.observe() as trace:
            got = run_batch(plan, 256, values={"a2": 0.1})
        want = run_batch(raw, 256, values={"a2": 0.1})
        for name in ("a", "a2", "m1", "m2", "out"):
            assert np.array_equal(got.words(name), want.words(name)), name
        counters = obs.stats_doc(trace)["metrics"]["counters"]
        assert counters.get("engine.optimize.fallback", 0) >= 1

    def test_consistent_override_keeps_optimized_schedule(self):
        g = _dup_source_graph()
        plan = compile_graph(g, optimize=True)
        raw = compile_graph(g, optimize=False)
        sweep = np.linspace(0.1, 0.9, 32)
        with obs.observe() as trace:
            got = run_batch(plan, 256, values={"a": sweep, "a2": sweep})
        want = run_batch(raw, 256, values={"a": sweep, "a2": sweep})
        for name in ("m1", "m2", "out"):
            assert np.array_equal(got.words(name), want.words(name)), name
        counters = obs.stats_doc(trace)["metrics"]["counters"]
        assert counters.get("engine.optimize.fallback", 0) == 0

    def test_merged_away_name_still_retrievable(self):
        plan = compile_graph(_dup_source_graph(), optimize=True)
        result = run_batch(plan, 256, keep=["a2", "m2"])
        raw = run_batch(plan.raw, 256, keep=["a2", "m2"])
        assert np.array_equal(result.words("a2"), raw.words("a2"))
        assert np.array_equal(result.words("m2"), raw.words("m2"))


# ---------------------------------------------------------------------- #
# 4. Arena allocation
# ---------------------------------------------------------------------- #

class TestBufferArena:
    def test_take_release_recycles_exact_buffer(self):
        arena = BufferArena()
        buf = arena.take(4, 8)
        assert buf.shape == (4, 8) and buf.dtype == np.dtype("<u8")
        arena.release(buf)
        again = arena.take(4, 8)
        assert again is buf
        assert arena.hits == 1 and arena.misses == 1

    def test_shape_and_dtype_key_buckets(self):
        arena = BufferArena()
        words = arena.take(4, 8)
        arena.release(words)
        arena.release(np.empty((4, 8), dtype=np.uint8))
        arena.release(np.empty((8, 4), dtype="<u8"))
        assert arena.take(4, 8) is words
        assert arena.take(4, 8) is not words

    def test_flush_counters_resets(self):
        arena = BufferArena()
        arena.release(arena.take(2, 2))
        arena.take(2, 2)
        arena.flush_counters()
        assert arena.hits == 0 and arena.misses == 0

    def test_arena_reuse_counter_emitted(self):
        plan = compile_graph(mux_chain_graph(32), optimize=True)
        with obs.observe() as trace:
            run_batch(plan, 512, keep=["n32"])
        counters = obs.stats_doc(trace)["metrics"]["counters"]
        assert counters.get("engine.arena.reuse", 0) > 0

    def test_arena_batch_identical_to_raw_path(self):
        g = mux_chain_graph(48)
        plan = compile_graph(g, optimize=True)
        raw = compile_graph(g, optimize=False)
        sweep = {"src0": np.linspace(0.05, 0.95, 64)}
        a = run_batch(plan, 320, values=sweep)
        b = run_batch(raw, 320, values=sweep)
        for name in [s.name for s in raw.steps]:
            assert np.array_equal(a.words(name), b.words(name)), name


# ---------------------------------------------------------------------- #
# 5. Plan cache levels / defaults
# ---------------------------------------------------------------------- #

class TestCacheLevels:
    def test_levels_cache_independently(self):
        g = build_graph("mixed_pipeline")
        compile_graph(g, optimize=True)
        compile_graph(g, optimize=True)
        info = engine.cache_info()
        assert info["levels"]["optimized"] == {"hits": 1, "misses": 1, "size": 1}
        # The optimized compile seeded the raw twin silently: level 0
        # shows a hit on first explicit request, no miss.
        compile_graph(g, optimize=False)
        info = engine.cache_info()
        assert info["levels"]["raw"]["hits"] == 1
        assert info["levels"]["raw"]["misses"] == 0
        assert info["levels"]["raw"]["size"] == 1

    def test_clear_cache_resets_levels(self):
        compile_graph(build_graph("mixed_pipeline"), optimize=True)
        engine.clear_cache()
        info = engine.cache_info()
        assert info["hits"] == 0 and info["misses"] == 0 and info["size"] == 0

    def test_default_optimize_switch(self):
        assert default_optimize() is True
        previous = set_default_optimize(False)
        try:
            assert previous is True
            plan = compile_graph(build_graph("mixed_pipeline"))
            assert not isinstance(plan, OptimizedPlan)
        finally:
            set_default_optimize(previous)
        assert isinstance(
            compile_graph(build_graph("mixed_pipeline")), OptimizedPlan
        )

    def test_content_params_strip_execution_keys(self):
        # Runner content addresses must not see the optimization level.
        assert "optimize" in EXECUTION_PARAMS
        stripped = content_params({"n": 256, "optimize": False, "jobs": 4})
        assert stripped == {"n": 256}


# ---------------------------------------------------------------------- #
# 6. describe() rendering
# ---------------------------------------------------------------------- #

class TestDescribe:
    def test_ellipsize_midpoint(self):
        assert _ellipsize("short") == "short"
        long = "+".join(f"n{i}" for i in range(64))
        out = _ellipsize(long)
        assert len(out) == 64 and "…" in out
        assert out.startswith(long[:10]) and out.endswith(long[-10:])

    def test_deep_chain_label_truncated_in_describe(self):
        plan = compile_graph(mux_chain_graph(64), optimize=False)
        text = plan.describe()
        chain_lines = [ln for ln in text.splitlines() if "ops ->" in ln]
        assert chain_lines, "expected a fused-chain line"
        for line in chain_lines:
            label = line.strip().split(" (")[0]
            assert len(label) <= 64
            assert "…" in label  # depth 64 must truncate

    def test_optimized_section_renders(self):
        plan = compile_graph(cse_sweep_graph(16), optimize=True)
        text = plan.describe()
        assert "optimized: 120 merged (60 sources, 60 ops, 0 transforms)" in text
        assert f"{len(plan.raw.steps)} -> {len(plan.steps)} steps" in text
        assert "… 112 more" in text  # merge list capped at 8 lines

    def test_raw_plan_renders_zero_line_when_optimized_type(self):
        plan = compile_graph(build_graph("mixed_pipeline"), optimize=True)
        assert "optimized: 0 merged" in plan.describe()


# ---------------------------------------------------------------------- #
# 7. The equivalence matrix, optimize on/off (property-based)
# ---------------------------------------------------------------------- #

class TestOptimizeEquivalence:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_LIBRARY))
    def test_library_matrix_both_levels(self, graph_name):
        assert_backends_equivalent(
            build_graph(graph_name), 200, tile_words=(3,), audit=True,
            optimize="both",
        )

    @settings(max_examples=8, deadline=None)
    @given(
        copies=st.integers(min_value=1, max_value=6),
        length=st.integers(min_value=65, max_value=320),
    )
    def test_cse_sweep_property(self, copies, length):
        assert_backends_equivalent(
            cse_sweep_graph(copies), length, tile_words=(2,), optimize="both"
        )

    @settings(max_examples=8, deadline=None)
    @given(
        depth=st.integers(min_value=1, max_value=12),
        sources=st.integers(min_value=1, max_value=3),
        length=st.integers(min_value=64, max_value=256),
    )
    def test_mux_chain_property(self, depth, sources, length):
        assert_backends_equivalent(
            mux_chain_graph(depth, sources), length, tile_words=(2,),
            optimize="both",
        )

    @settings(max_examples=6, deadline=None)
    @given(
        value=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=1, max_value=200),
    )
    def test_duplicate_lfsr_sources_property(self, value, seed):
        g = SCGraph()
        g.source("a", value, "lfsr", seed=seed)
        g.source("a2", value, "lfsr", seed=seed)
        g.source("b", 0.4, "halton3")
        g.op("m1", "mul", "a", "b")
        g.op("m2", "mul", "a2", "b")
        g.op("out", "sat_add", "m1", "m2")
        assert_backends_equivalent(g, 128, tile_words=(2,), optimize="both")
