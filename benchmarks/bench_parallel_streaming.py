"""Bench: the parallel tile scheduler — span workers vs the sequential walk.

Two tracked properties for :mod:`repro.engine.parallel`:

* **identity at every worker count** — the paper's width-matched
  manipulation graph (``long_stream_graph``) at N = 2^20, evaluated
  sequentially and at jobs ∈ {2, 4}: the popcount totals of its three
  sinks and every audit entry must be *equal*, not approximately equal.
  The timed rows walk the same three sinks. These rows
  run on any machine — a single-core box still forks the span workers
  and must produce the same bits.
* **speedup floor** — ``jobs=4`` must beat the sequential walk by
  >= 2x on the same workload. Wall-clock floors only mean something with
  real cores underneath, so the floor test skips below 4 CPUs (same
  stance as ``bench_runner``'s shard-pool floor); the timing rows are
  archived regardless, so the JSON snapshot records what the box did.
"""

import os
import pathlib
import time

import numpy as np
import pytest

import _snapshot
from repro import engine
from repro.engine.library import long_stream_graph
from repro.engine.streaming import audit_streaming, run_streaming

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

WIDTH = 20
N = 1 << 20
TILE_WORDS = 512
JOBS_GRID = (1, 2, 4)
MIN_PARALLEL_SPEEDUP = 2.0  # jobs=4 vs jobs=1, >= 4 CPUs only
# The graph's three sinks. ``keep=()`` would let dead-node elimination
# prune every node, leaving an empty walk to time and compare.
KEEP = ("diff", "sat", "prod")


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity
        return os.cpu_count() or 1


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_and_archive():
    plan = engine.compile_graph(long_stream_graph(WIDTH))

    # Identity first: ones totals and audit entries at every jobs value
    # must equal the sequential walk before any timing is worth keeping.
    reference = run_streaming(plan, N, tile_words=TILE_WORDS, keep=KEEP)
    assert reference.ones, "the sequential walk kept no node"
    ref_audit = audit_streaming(plan, N, tile_words=TILE_WORDS)
    for jobs in JOBS_GRID[1:]:
        result = run_streaming(plan, N, tile_words=TILE_WORDS, keep=KEEP, jobs=jobs)
        assert set(result.ones) == set(reference.ones)
        for name in reference.ones:
            assert np.array_equal(result.ones[name], reference.ones[name]), (
                f"jobs={jobs} changed popcounts on {name}"
            )
        par_audit = audit_streaming(plan, N, tile_words=TILE_WORDS, jobs=jobs)
        assert par_audit.entries == ref_audit.entries, f"jobs={jobs} audit drifted"
        assert par_audit.values == ref_audit.values

    times = {
        jobs: _best_of(
            lambda jobs=jobs: run_streaming(
                plan, N, tile_words=TILE_WORDS, keep=KEEP, jobs=jobs
            )
        )
        for jobs in JOBS_GRID
    }
    speedups = {jobs: times[1] / times[jobs] for jobs in JOBS_GRID}

    lines = [
        f"parallel tile scheduler (long_stream width={WIDTH}, N=2^{WIDTH}, "
        f"tile={TILE_WORDS} words, {_cpus()} CPU(s))",
        f"{'jobs':>6} {'wall ms':>12} {'speedup':>10}",
    ]
    for jobs in JOBS_GRID:
        lines.append(
            f"{jobs:>6} {times[jobs] * 1e3:>12.1f} {speedups[jobs]:>9.2f}x"
        )
        _snapshot.add_entry(
            "parallel_streaming",
            op=f"long_stream run (jobs={jobs})",
            wall_ms=times[jobs] * 1e3,
            config={
                "width": WIDTH, "n": N, "tile_words": TILE_WORDS,
                "jobs": jobs, "cpus": _cpus(),
            },
            speedup=speedups[jobs],
        )
    _snapshot.write("parallel_streaming")
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "parallel_streaming.txt").write_text(text + "\n")
    print("\n" + text)
    return speedups, text


@pytest.fixture(scope="module")
def measured():
    return _run_and_archive()


def test_identity_rows_recorded(measured):
    # _run_and_archive already asserted bit-identity at every jobs value;
    # this test exists so the identity check runs on every machine even
    # when the speedup floor below is skipped.
    speedups, _ = measured
    assert set(speedups) == set(JOBS_GRID)


@pytest.mark.skipif(
    _cpus() < 4, reason="parallel speedup floor needs >= 4 CPUs"
)
def test_parallel_speedup_floor(measured):
    speedups, text = measured
    assert speedups[4] >= MIN_PARALLEL_SPEEDUP, (
        f"jobs=4 only {speedups[4]:.2f}x over the sequential walk "
        f"(floor is {MIN_PARALLEL_SPEEDUP}x)\n{text}"
    )


if __name__ == "__main__":
    _run_and_archive()
