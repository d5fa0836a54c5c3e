"""Persistent execution runtime (repro.engine.pool).

The pool must be a pure *runtime* swap: warm long-lived workers with
shared-memory arenas produce exactly the bits the in-process lane and
the sequential walk produce. These tests pin that contract — the
hypothesis bit-identity property across every pair family, the warm
plan-cache behaviour on repeat calls, killed-worker respawn, the
fallback rules (no fork / busy / unpicklable / jobs=1), idempotent
shutdown, clean interpreter exit, and the :class:`SharedArena` segment
lifecycle (freelist reuse, zero-copy round trips, no ``/dev/shm``
residue).
"""

import glob
import os
import signal
import subprocess
import sys
import time
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import engine, obs
from repro.engine import pool as pool_mod
from repro.engine import run_streaming
from repro.engine.executor import run_batch
from repro.engine.library import build_graph
from repro.engine.pool import (
    SharedArena,
    SharedSink,
    attach_view,
    get_pool,
    pool_call,
    shutdown_pool,
    unwrap,
)
from repro.graph.graph import SCGraph
from repro.graph.nodes import TransformNode
from tests.helpers import assert_backends_equivalent, in_process_lane
from tests.test_parallel_streaming import PAIR_FAMILIES

compile_graph = engine.compile

pytestmark = pytest.mark.skipif(
    pool_mod._fork_context() is None,
    reason="persistent pool requires the fork start method",
)


def _test_arena() -> SharedArena:
    """A standalone arena with a unique segment prefix, so its names can
    never collide with the process-wide pool's arena (same pid, both
    counters start at zero) or linger in the worker attach cache."""
    arena = SharedArena()
    arena._prefix = f"{pool_mod._SHM_PREFIX}_{os.getpid()}_t{uuid.uuid4().hex[:8]}"
    return arena


def _raise_on_unpickle():
    raise RuntimeError("exploded while unpickling in the worker")


class _ExplodesInWorker:
    """Pickles fine in the parent; ``pickle.loads`` raises worker-side."""

    def __reduce__(self):
        return (_raise_on_unpickle, ())


def _pair_graph(factory):
    """Two sources through one correlation-manipulating pair, combined:
    the minimal stateful graph exercising the FSM hand-off for a family."""
    g = SCGraph()
    g.source("a", 0.7, "vdc")
    g.source("b", 0.4, "halton3")
    shared: dict = {}
    pair = factory()
    g.add(TransformNode("p_x", pair, ("a", "b"), 0, shared))
    g.add(TransformNode("p_y", pair, ("a", "b"), 1, shared))
    g.op("out", "sub", "p_x", "p_y")
    return g


# ---------------------------------------------------------------------- #
# 1. Bit identity: pool == in-process == sequential
# ---------------------------------------------------------------------- #

class TestPoolBitIdentity:
    @pytest.mark.parametrize(
        "factory", [f for _, f in PAIR_FAMILIES],
        ids=[name for name, _ in PAIR_FAMILIES],
    )
    @given(length=st.integers(130, 1200), tile_words=st.integers(1, 3))
    @settings(max_examples=4, deadline=None)
    def test_pool_fork_sequential_bit_identical(self, factory, length,
                                                tile_words):
        # The tentpole property: for every pair family, the warm pool,
        # the in-process span lane, and the sequential walk produce the
        # same words and the same popcounts.
        plan = compile_graph(_pair_graph(factory))
        sequential = run_streaming(plan, length, tile_words=tile_words, jobs=1)
        pooled = run_streaming(plan, length, tile_words=tile_words, jobs=3)
        with in_process_lane():
            inline = run_streaming(plan, length, tile_words=tile_words, jobs=3)
        for name in plan.node_order:
            assert np.array_equal(pooled.words(name), sequential.words(name)), (
                "pool vs sequential", name, length, tile_words,
            )
            assert np.array_equal(inline.words(name), sequential.words(name)), (
                "in-process vs sequential", name, length, tile_words,
            )
            assert np.array_equal(pooled.ones[name], sequential.ones[name]), (
                "pool vs sequential ones", name, length, tile_words,
            )

    def test_matrix_runs_on_both_runtimes(self):
        # The cross-backend matrix with the pool axis: the parallel leg
        # agrees bit for bit whichever lane serves it.
        assert_backends_equivalent(
            build_graph("fsm_zoo"), 2111, tile_words=(2,), jobs=3, pool="both"
        )

    def test_keep_subset_through_shared_sinks(self):
        # Kept nodes travel back through SharedSink segments; a keep
        # subset at many spans must still assemble full-stream words.
        plan = compile_graph(build_graph("depth8"))
        ref = run_batch(plan, 1 << 14)
        result = run_streaming(
            plan, 1 << 14, tile_words=1, jobs=4, keep=("n8", "n4")
        )
        for name in ("n4", "n8"):
            assert np.array_equal(result.words(name), ref.words(name)), name


# ---------------------------------------------------------------------- #
# 2. Warm caches
# ---------------------------------------------------------------------- #

class TestWarmCaches:
    def test_second_call_hits_worker_plan_cache(self):
        # The same live plan object keeps its cache token: the second
        # call primes workers without re-sending (or even pickling) the
        # context, and the warm pool forks nothing.
        from unittest import mock

        plan = compile_graph(build_graph("fsm_zoo"))
        run_streaming(plan, 4096, tile_words=2, jobs=2)  # install token
        with obs.observe() as trace, mock.patch.object(
            pool_mod.pickle, "dumps", wraps=pool_mod.pickle.dumps
        ) as dumps:
            run_streaming(plan, 4096, tile_words=2, jobs=2)
        assert all(call.args[0] is not plan for call in dumps.call_args_list)
        counters = trace.metrics["counters"]
        assert counters.get("engine.parallel.pooled", 0) >= 1
        assert counters.get("engine.pool.plan.hit", 0) >= 1
        assert counters.get("engine.pool.plan.miss", 0) == 0
        assert counters.get("process.forks", 0) == 0

    def test_token_cache_survives_lru_churn(self):
        # More live plans than the worker-side context LRU holds: the
        # parent must mirror the evictions and re-send an evicted
        # context instead of priming a token the worker dropped
        # (regression: this used to KeyError inside the worker).
        from repro.engine.library import depth_chain_graph

        plans = [
            compile_graph(depth_chain_graph(depth))
            for depth in range(2, 2 + pool_mod._WORKER_CACHE + 3)
        ]
        ref = run_batch(plans[0], 2048)
        for plan in plans:
            run_streaming(plan, 2048, tile_words=1, jobs=2)
        result = run_streaming(plans[0], 2048, tile_words=1, jobs=2)
        for name in plans[0].node_order:
            assert np.array_equal(result.words(name), ref.words(name)), name

    def test_arena_freelist_recycles_across_calls(self):
        # Call 2 reuses call 1's segments: reuse counter fires, and no
        # extra segments accumulate in /dev/shm between calls.
        plan = compile_graph(build_graph("depth8"))
        run_streaming(plan, 1 << 14, tile_words=1, jobs=2)
        pool = pool_mod._POOL
        if pool is None or not pool.arena.available():
            pytest.skip("shared-memory segments unavailable")
        with obs.observe() as trace:
            run_streaming(plan, 1 << 14, tile_words=1, jobs=2)
        counters = trace.metrics["counters"]
        assert counters.get("engine.pool.shm.reuse", 0) >= 1


# ---------------------------------------------------------------------- #
# 3. Worker death and respawn
# ---------------------------------------------------------------------- #

class TestRespawn:
    def test_killed_worker_respawns_and_results_match(self):
        plan = compile_graph(build_graph("depth8"))
        ref = run_batch(plan, 4096)
        run_streaming(plan, 4096, tile_words=1, jobs=2)  # warm the pool
        pool = pool_mod._POOL
        assert pool is not None and pool.size >= 2
        before = pool.respawns
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        time.sleep(0.2)  # let the SIGKILL land before the next prime
        result = run_streaming(plan, 4096, tile_words=1, jobs=2)
        for name in plan.node_order:
            assert np.array_equal(result.words(name), ref.words(name)), name
        assert pool.respawns >= before + 1


# ---------------------------------------------------------------------- #
# 4. Fallback rules and lifecycle
# ---------------------------------------------------------------------- #

class TestFallbacksAndLifecycle:
    def test_jobs_one_never_pools(self):
        # jobs <= 1 asks nothing of the pool, so it counts no fallback.
        with obs.observe() as trace:
            assert get_pool(1) is None
            with pool_call(1) as call:
                assert call is None
        counters = trace.metrics["counters"]
        assert not any(k.startswith("engine.pool.fallback") for k in counters)

    def test_pool_off_falls_back(self):
        # No fork start method: the pool declines (counted) and a
        # parallel call runs its span tasks in-process, same bits.
        plan = compile_graph(build_graph("fsm_zoo"))
        ref = run_batch(plan, 2048)
        with in_process_lane(), obs.observe() as trace:
            assert get_pool(4) is None
            with pool_call(4) as call:
                assert call is None
            result = run_streaming(plan, 2048, tile_words=1, jobs=2)
        counters = trace.metrics["counters"]
        assert counters.get("engine.pool.fallback.no_fork", 0) == 3
        assert counters.get("engine.parallel.pooled", 0) == 0
        assert counters.get("process.forks", 0) == 0
        for name in plan.node_order:
            assert np.array_equal(result.words(name), ref.words(name)), name

    def test_busy_pool_falls_back_with_counter(self):
        pool = get_pool(2)
        assert pool is not None
        assert pool._busy.acquire(blocking=False)
        try:
            with obs.observe() as trace:
                with pool_call(2) as call:
                    assert call is None
            counters = trace.metrics["counters"]
            assert counters.get("engine.pool.fallback.busy", 0) == 1
        finally:
            pool._busy.release()

    def test_unpicklable_context_falls_back_with_counter(self):
        with obs.observe() as trace:
            with pool_call(2, context=lambda: None) as call:
                assert call is None
        counters = trace.metrics["counters"]
        assert counters.get("engine.pool.fallback.unpicklable", 0) == 1

    def test_shutdown_pool_is_idempotent_and_restartable(self):
        plan = compile_graph(build_graph("depth8"))
        ref = run_batch(plan, 2048)
        run_streaming(plan, 2048, tile_words=1, jobs=2)
        shutdown_pool()
        shutdown_pool()  # double shutdown must not raise
        assert pool_mod._POOL is None
        # The next pooled call transparently starts a fresh pool.
        result = run_streaming(plan, 2048, tile_words=1, jobs=2)
        for name in plan.node_order:
            assert np.array_equal(result.words(name), ref.words(name)), name
        assert pool_mod._POOL is not None

    def test_task_error_reraises_original_exception(self):
        # A failing task surfaces its *original* exception type — the
        # same ValueError the in-process lane would raise — with the
        # worker traceback chained as a PoolTaskError cause.
        with pool_call(2) as call:
            if call is None:
                pytest.skip("pool unavailable")
            with pytest.raises(ValueError) as err:
                call.map("repro.engine.pool:_resolve_fn", [("os:system",)])
            cause = err.value.__cause__
            assert isinstance(cause, pool_mod.PoolTaskError)
            assert "Traceback" in str(cause)

    def test_pool_survives_task_error_midflight(self):
        # One task raising while other workers are still mid-task used
        # to leave their replies unread in the pipes; the next call's
        # prime then consumed a stale task reply as its ack and every
        # later reply shifted off by one — silently wrong results.
        # PoolCall.end now drains abandoned in-flight workers and every
        # recv validates seq, so later calls stay correct.
        plan = compile_graph(build_graph("depth8"))
        ref = run_batch(plan, 4096)
        run_streaming(plan, 4096, tile_words=1, jobs=2)  # warm the pool
        missing = ("__shm__", "repro_pool_no_such_segment", (4,), "<u8")
        for _ in range(3):  # several aborted calls, not just one
            with pool_call(2) as call:
                if call is None:
                    pytest.skip("pool unavailable")
                with pytest.raises(Exception):
                    call.map(
                        "repro.engine.pool:unwrap",
                        [(1,), (missing,), (2,), (3,), (4,)],
                    )
        with pool_call(2) as call:
            assert call is not None
            assert call.map(
                "repro.engine.pool:unwrap", [(i,) for i in range(8)]
            ) == list(range(8))
        result = run_streaming(plan, 4096, tile_words=1, jobs=2)
        for name in plan.node_order:
            assert np.array_equal(result.words(name), ref.words(name)), name

    def test_prime_failure_falls_back_with_counter(self):
        # Pickles in the parent, explodes in the worker's pickle.loads:
        # the call must fall back to the in-process lane (counted), not
        # hard-fail, and the pool must stay usable afterwards.
        with obs.observe() as trace:
            with pool_call(2, context=_ExplodesInWorker()) as call:
                assert call is None
        counters = trace.metrics["counters"]
        assert counters.get("engine.pool.fallback.prime", 0) == 1
        with pool_call(2) as call:
            if call is None:
                pytest.skip("pool unavailable")
            assert call.map(
                "repro.engine.pool:unwrap", [(i,) for i in range(4)]
            ) == list(range(4))

    def test_fn_refs_are_restricted_to_repro(self):
        # Only the repro package itself: a module whose name merely
        # starts with "repro" is outside it and must not be imported.
        for ref in ("os:system", "reproduction_helper:payload"):
            with pytest.raises(ValueError):
                pool_mod._resolve_fn(ref)

    @pytest.mark.parametrize("traced", [False, True])
    def test_process_exits_cleanly_after_pooled_call(self, traced):
        # The workers are non-daemonic, so multiprocessing's exit hook
        # joins them; the pool must stop them first, whatever the import
        # order. One pooled call, then a plain interpreter exit: it must
        # return promptly and leave no shared segment behind.
        code = "\n".join([
            "import os",
            "from repro import engine, obs",
            "from repro.engine.library import build_graph",
            "plan = engine.compile(build_graph('depth8'))",
            "with obs.observe():" if traced else "if True:",
            "    run = engine.run_streaming(plan, 1 << 16, tile_words=1,",
            "                               jobs=2, keep=('n8',))",
            "assert run.ones",
            "print(os.getpid())",
        ])
        out = subprocess.run(
            [sys.executable, "-c", code], env=_subprocess_env(),
            capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 0, out.stderr
        pid = int(out.stdout.split()[-1])
        pattern = f"/dev/shm/{pool_mod._SHM_PREFIX}_{pid}_*"
        assert glob.glob(pattern) == []
        assert "leaked shared_memory" not in out.stderr


# ---------------------------------------------------------------------- #
# 4b. One resource tracker for the parent and every worker
# ---------------------------------------------------------------------- #

# Kept-nodes fsm_zoo calls that grow the pool from two workers to three:
# the third worker is forked after the first calls attached segments.
_GROW_POOL = "\n".join([
    "import os",
    "from repro import engine",
    "from repro.engine.library import build_graph",
    "plan = engine.compile(build_graph('fsm_zoo'))",
    "for jobs in (2, 3):",
    "    assert engine.run_streaming(plan, 1 << 16, tile_words=64,",
    "                                jobs=jobs).packed",
    "print(os.getpid(), flush=True)",
])


def _subprocess_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
class TestResourceTracker:
    def test_growing_pool_prints_no_tracker_traceback(self):
        # A worker's attach used to unregister the parent's segment from
        # the tracker they share; the parent's unlink then made the
        # tracker print a KeyError traceback at exit.
        out = subprocess.run(
            [sys.executable, "-c", _GROW_POOL], env=_subprocess_env(),
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert "Traceback" not in out.stderr, out.stderr
        assert "KeyError" not in out.stderr, out.stderr
        pid = int(out.stdout.split()[-1])
        assert glob.glob(f"/dev/shm/{pool_mod._SHM_PREFIX}_{pid}_*") == []

    def test_killed_parent_leaves_no_segments(self):
        # SIGKILL mid-call: the parent never unlinks, so the segments
        # must go with the tracker once the parent and its workers exit.
        code = _GROW_POOL + "\n" + "\n".join([
            "while True:",
            "    engine.run_streaming(plan, 1 << 18, tile_words=64, jobs=3)",
        ])
        proc = subprocess.Popen(
            [sys.executable, "-c", code], env=_subprocess_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            pid = int(proc.stdout.readline())
            time.sleep(0.5)  # a long kept-nodes call is in flight
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
        pattern = f"/dev/shm/{pool_mod._SHM_PREFIX}_{pid}_*"
        deadline = time.monotonic() + 30.0
        while glob.glob(pattern) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = glob.glob(pattern)
        for path in left:
            os.unlink(path)
        assert left == []


# ---------------------------------------------------------------------- #
# 5. SharedArena segment lifecycle
# ---------------------------------------------------------------------- #

class TestSharedArena:
    def test_roundtrip_and_freelist_reuse(self):
        arena = _test_arena()
        if not arena.available():
            pytest.skip("shared-memory segments unavailable")
        try:
            view, desc = arena.empty((4, 2048), "<u8")
            assert desc is not None and desc[0] == "__shm__"
            view[...] = np.arange(4 * 2048, dtype="<u8").reshape(4, 2048)
            assert np.array_equal(attach_view(desc), view)
            assert np.array_equal(unwrap(desc), view)
            misses = arena.misses
            arena.release_all()
            view2, desc2 = arena.empty((4, 2048), "<u8")
            assert arena.hits >= 1 and arena.misses == misses  # recycled
            assert not view2.any()  # recycled segments come back zeroed
        finally:
            arena.shutdown()

    def test_unwrap_is_identity_for_plain_objects(self):
        assert unwrap(42) == 42
        arr = np.arange(3)
        assert unwrap(arr) is arr
        assert unwrap(("no", "descriptor")) == ("no", "descriptor")

    def test_shared_sink_writes_at_word_offsets(self):
        arena = _test_arena()
        if not arena.available():
            pytest.skip("shared-memory segments unavailable")
        try:
            view, desc = arena.empty((2, 4096), "<u8")
            sink = SharedSink(desc)
            tile = np.full((2, 3), 7, dtype="<u8")
            sink.write(128, tile)  # bit offset 128 -> word 2
            assert np.array_equal(view[:, 2:5], tile)
            assert not view[:, :2].any() and not view[:, 5:].any()
        finally:
            arena.shutdown()

    def test_no_leaked_segments_after_shutdown(self):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        plan = compile_graph(build_graph("fsm_zoo"))
        run_streaming(plan, 1 << 14, tile_words=1, jobs=2)
        shutdown_pool()
        pattern = f"/dev/shm/{pool_mod._SHM_PREFIX}_{os.getpid()}_*"
        assert glob.glob(pattern) == []
