"""Bench: the persistent execution runtime — warm pool vs fork-per-call.

The pool's whole premise is amortisation: fork once, keep plan/kernel
caches warm, and make *repeated* parallel calls cheap. Three tracked
properties for :mod:`repro.engine.pool`:

* **warm-call throughput floor** — 64 repeated ``run_streaming`` calls
  on the same compiled plan (N = 2^14, jobs=4) must run >= 3x faster
  through the warm pool than through fork-per-call dispatch. The
  program no longer has a fork-per-call lane, so the baseline is a
  stand-in for ``pool_call`` defined here (:func:`_fork_per_call`) and
  patched into :mod:`repro.engine.parallel`: it installs the span
  context in the parent and forks a fresh ``ProcessPoolExecutor`` per
  call whose workers inherit that context — the lane as it ran before
  the persistent pool. (A cold persistent pool would be a costlier
  baseline and so an easier floor.) Wall-clock
  floors only mean something with real cores underneath, so the floor
  skips below 4 CPUs (same stance as ``bench_parallel_streaming``); the
  timing rows are archived regardless, so the JSON snapshot records
  what the box did.
* **no regression at jobs=1** — the pool must never tax the sequential
  walk: ``jobs=1`` calls made while a warm pool is live are bounded
  against the same calls after :func:`shutdown_pool`, ruling out
  accidental pool engagement on single-job calls.
* **runner store byte-identity** — the same spec run on pooled shard
  workers (``jobs=2``) and inline (``jobs=1``) must leave byte-identical
  stores (the runner's content-addressed records are part of the
  reproducibility contract, so the dispatch lane must be invisible on
  disk).
"""

import contextlib
import multiprocessing
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

import _snapshot
from repro import engine, obs
from repro.engine import parallel
from repro.engine.library import long_stream_graph
from repro.engine.pool import _resolve_fn, shutdown_pool
from repro.engine.streaming import run_streaming
from repro.runner import ResultStore, run_spec

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

WIDTH = 14
N = 1 << WIDTH
TILE_WORDS = 16           # 256 words -> 16 tiles: real spans at jobs=4
JOBS = 4
CALLS = 64
MIN_WARM_SPEEDUP = 3.0    # warm pool vs fork-per-call, >= 4 CPUs only
MAX_JOBS1_RATIO = 1.25    # a live pool must not tax jobs=1


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity
        return os.cpu_count() or 1


class _ForkCall:
    def __init__(self, executor):
        self._executor = executor

    def map(self, fn_ref, arglists):
        fn = _resolve_fn(fn_ref)
        futures = [self._executor.submit(fn, *args) for args in arglists]
        return [future.result() for future in futures]


@contextlib.contextmanager
def _fork_per_call(jobs, *, context=None, installer=None, payload=None):
    """``pool_call`` as a fresh fork per call: the context is installed
    in the parent and reaches the forked workers by address space."""
    install = _resolve_fn(installer)
    install(context, payload)
    executor = ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("fork")
    )
    try:
        yield _ForkCall(executor)
    finally:
        executor.shutdown()
        install(None, None)
        obs.collect_children()


def _timed_calls(plan, *, jobs):
    """Wall-clock for CALLS repeated runs, plus the popcount totals of
    the last run (for the identity check)."""
    started = time.perf_counter()
    for _ in range(CALLS):
        result = run_streaming(
            plan, N, tile_words=TILE_WORDS, keep=(), jobs=jobs
        )
    return time.perf_counter() - started, result.ones


def _run_and_archive():
    plan = engine.compile_graph(long_stream_graph(WIDTH))

    sequential = run_streaming(plan, N, tile_words=TILE_WORDS, keep=())
    # Warm-up: fork the workers and install the plan token so the
    # measured calls see the steady state the pool exists for.
    run_streaming(plan, N, tile_words=TILE_WORDS, keep=(), jobs=JOBS)
    warm_s, warm_ones = _timed_calls(plan, jobs=JOBS)
    # jobs=1 never engages the pool: same walk with it live or down.
    one_on_s, _ = _timed_calls(plan, jobs=1)
    shutdown_pool()
    one_off_s, _ = _timed_calls(plan, jobs=1)
    with mock.patch.object(parallel, "pool_call", _fork_per_call):
        fork_s, fork_ones = _timed_calls(plan, jobs=JOBS)

    # Identity before timing is worth keeping: both lanes reproduce
    # the sequential popcounts exactly.
    for name in sequential.ones:
        assert np.array_equal(warm_ones[name], sequential.ones[name]), (
            f"warm pool changed popcounts on {name}"
        )
        assert np.array_equal(fork_ones[name], sequential.ones[name]), (
            f"fork-per-call changed popcounts on {name}"
        )

    speedup = fork_s / warm_s
    jobs1_ratio = one_on_s / one_off_s
    rows = [
        ("warm pool", warm_s, speedup),
        ("fork-per-call", fork_s, 1.0),
        ("jobs=1 pool live", one_on_s, one_off_s / one_on_s),
        ("jobs=1 pool down", one_off_s, 1.0),
    ]
    lines = [
        f"persistent pool ({CALLS} repeated run_streaming calls, "
        f"N=2^{WIDTH}, tile={TILE_WORDS} words, jobs={JOBS}, "
        f"{_cpus()} CPU(s))",
        f"{'runtime':>16} {'wall ms':>12} {'per call ms':>12} {'speedup':>9}",
    ]
    for label, wall, rel in rows:
        lines.append(
            f"{label:>16} {wall * 1e3:>12.1f} "
            f"{wall * 1e3 / CALLS:>12.2f} {rel:>8.2f}x"
        )
        _snapshot.add_entry(
            "pool",
            op=f"repeated run_streaming ({label})",
            wall_ms=wall * 1e3,
            config={
                "width": WIDTH, "n": N, "tile_words": TILE_WORDS,
                "jobs": JOBS if "jobs=1" not in label else 1,
                "calls": CALLS, "cpus": _cpus(),
            },
            speedup=rel,
        )
    _snapshot.write("pool")
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "pool.txt").write_text(text + "\n")
    print("\n" + text)
    return speedup, jobs1_ratio, text


@pytest.fixture(scope="module")
def measured():
    return _run_and_archive()


def test_identity_rows_recorded(measured):
    # _run_and_archive already asserted popcount identity across both
    # lanes; this test exists so the identity check runs on every
    # machine even when the speedup floor below is skipped.
    speedup, jobs1_ratio, _ = measured
    assert speedup > 0 and jobs1_ratio > 0


@pytest.mark.skipif(
    _cpus() < 4, reason="warm-pool speedup floor needs >= 4 CPUs"
)
def test_warm_pool_speedup_floor(measured):
    speedup, _, text = measured
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm pool only {speedup:.2f}x over fork-per-call "
        f"(floor is {MIN_WARM_SPEEDUP}x)\n{text}"
    )


@pytest.mark.skipif(
    _cpus() < 4, reason="jobs=1 timing bound is noise-prone when oversubscribed"
)
def test_no_regression_at_jobs_one(measured):
    _, jobs1_ratio, text = measured
    assert jobs1_ratio <= MAX_JOBS1_RATIO, (
        f"a live pool taxed jobs=1 by {jobs1_ratio:.2f}x "
        f"(bound is {MAX_JOBS1_RATIO}x)\n{text}"
    )


def _store_bytes(root: pathlib.Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_runner_store_byte_identical_pooled_vs_inline(tmp_path):
    with obs.observe() as trace:
        run_spec("table2", fidelity="smoke", jobs=2, log=None,
                 store=ResultStore(tmp_path / "pooled"))
    assert trace.metrics["counters"].get("runner.pooled", 0) == 1
    run_spec("table2", fidelity="smoke", jobs=1, log=None,
             store=ResultStore(tmp_path / "inline"))
    pooled = _store_bytes(tmp_path / "pooled")
    inline = _store_bytes(tmp_path / "inline")
    assert pooled.keys() == inline.keys()
    assert pooled == inline, "dispatch lane changed stored bytes"


if __name__ == "__main__":
    _run_and_archive()
