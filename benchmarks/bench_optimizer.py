"""Bench: the plan optimizer — CSE sweep speedup and arena peak memory.

Two tracked numbers for :mod:`repro.engine.optimize`:

* **CSE sweep speedup** — the ``cse_sweep`` library graph (16
  structurally identical depth-4 operator trees, each re-declaring its
  own copies of one source quadruple — the shape every batched design
  sweep produces) evaluated over 1024 configurations with and without
  optimization. Structural CSE collapses the 64 batched comparator
  packs to 4 and the 80 scheduled ops to 20, and the arena recycles
  the survivors' buffers; the floor is ``>= 1.5x``.
* **arena peak-memory reduction** — the depth-64 MUX scaled-add chain,
  whole-stream ``run_batch`` over a 256-configuration sweep, measured
  with ``tracemalloc``: the faithful plan allocates one fresh
  full-length buffer per node and packs sources through a full
  ``(batch, N)`` bit transient, the optimized plan serves every op from
  the liveness-driven :class:`~repro.engine.optimize.BufferArena` and
  packs sources in chunks. Floor ``>= 2x`` reduction (measured ~2.4x).

Both floors gate in CI (the ``optimizer-smoke`` job); results are
archived to ``benchmarks/results/optimizer.txt`` and
``BENCH_optimizer.json``.
"""

import pathlib
import time
import tracemalloc

import numpy as np
import pytest

import _snapshot
from repro import engine
from repro.engine.executor import run_batch
from repro.engine.library import cse_sweep_graph, mux_chain_graph

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SWEEP_COPIES = 16
SWEEP_BATCH = 1024
SWEEP_N = 2048
MIN_CSE_SPEEDUP = 1.5

MEMORY_DEPTH = 64
MEMORY_BATCH = 256
MEMORY_N = 1 << 15
MIN_MEMORY_REDUCTION = 2.0


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sweep_values(copies, batch):
    """(batch,)-valued overrides for every tree's copy of the interior
    source quadruple — identical arrays per stem, which is what a real
    design sweep does (each replicated subtree re-declares the same
    inputs). Every merge class stays consistent, so the optimized
    schedule packs each quadruple member once instead of ``copies``
    times; the per-tree weight sources keep their graph values."""
    sweeps = {
        "a": np.linspace(0.55, 0.95, batch),
        "b": np.linspace(0.05, 0.45, batch),
        "c": np.linspace(0.35, 0.75, batch),
        "d": np.linspace(0.25, 0.65, batch),
    }
    return {
        f"t{t}_{stem}": sweep
        for stem, sweep in sweeps.items()
        for t in range(copies)
    }


def _measure_cse():
    graph = cse_sweep_graph(SWEEP_COPIES)
    optimized = engine.compile_graph(graph, optimize=True)
    raw = engine.compile_graph(graph, optimize=False)
    values = _sweep_values(SWEEP_COPIES, SWEEP_BATCH)
    keep = [f"t{t}_out" for t in range(SWEEP_COPIES)]

    opt_run = run_batch(optimized, SWEEP_N, values=values, keep=keep)
    raw_run = run_batch(raw, SWEEP_N, values=values, keep=keep)
    for name in keep:
        assert np.array_equal(opt_run.words(name), raw_run.words(name)), (
            "optimizer changed bits", name,
        )

    t_opt = _best_of(lambda: run_batch(optimized, SWEEP_N, values=values, keep=keep))
    t_raw = _best_of(lambda: run_batch(raw, SWEEP_N, values=values, keep=keep))
    return t_opt, t_raw, optimized.report.merged


def _measure_memory():
    graph = mux_chain_graph(MEMORY_DEPTH)
    optimized = engine.compile_graph(graph, optimize=True)
    raw = engine.compile_graph(graph, optimize=False)
    values = {"src0": np.linspace(0.05, 0.95, MEMORY_BATCH)}
    sink = f"n{MEMORY_DEPTH}"

    peaks = {}
    for label, plan in (("raw", raw), ("optimized", optimized)):
        engine.clear_sequence_cache()
        run_batch(plan, 256, values=values, keep=[sink])  # warm memos
        tracemalloc.start()
        run_batch(plan, MEMORY_N, values=values, keep=[sink])
        _, peaks[label] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peaks["raw"], peaks["optimized"]


def _run_and_archive():
    t_opt, t_raw, merged = _measure_cse()
    raw_peak, opt_peak = _measure_memory()
    speedup = t_raw / t_opt
    reduction = raw_peak / opt_peak
    lines = [
        f"plan optimizer (cse_sweep copies={SWEEP_COPIES}, "
        f"batch={SWEEP_BATCH}, N={SWEEP_N})",
        f"{'measurement':<46} {'value':>14}",
        f"{'CSE merges (cse_sweep)':<46} {merged:>14d}",
        f"{'raw sweep wall ms':<46} {t_raw * 1e3:>12.1f}",
        f"{'optimized sweep wall ms':<46} {t_opt * 1e3:>12.1f}",
        f"{'CSE sweep speedup':<46} {speedup:>13.2f}x",
        f"{'raw peak bytes (depth-64 mux, batch=256)':<46} {raw_peak:>14d}",
        f"{'arena peak bytes (depth-64 mux, batch=256)':<46} {opt_peak:>14d}",
        f"{'peak-memory reduction':<46} {reduction:>13.1f}x",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "optimizer.txt").write_text(text + "\n")
    _snapshot.add_entry(
        "optimizer", op="raw sweep (cse_sweep x 1024 configs)",
        wall_ms=t_raw * 1e3,
        config={"copies": SWEEP_COPIES, "batch": SWEEP_BATCH, "n": SWEEP_N},
    )
    _snapshot.add_entry(
        "optimizer", op="optimized sweep (cse_sweep x 1024 configs)",
        wall_ms=t_opt * 1e3,
        config={"copies": SWEEP_COPIES, "batch": SWEEP_BATCH, "n": SWEEP_N,
                "merged": merged},
        speedup=speedup,
    )
    _snapshot.add_entry(
        "optimizer", op="arena peak-memory reduction (depth-64 mux chain)",
        wall_ms=0.0,
        config={"depth": MEMORY_DEPTH, "batch": MEMORY_BATCH, "n": MEMORY_N,
                "raw_peak_bytes": raw_peak, "optimized_peak_bytes": opt_peak},
        speedup=reduction,
    )
    _snapshot.write("optimizer")
    print("\n" + text)
    return speedup, reduction, text


@pytest.fixture(scope="module")
def measured():
    return _run_and_archive()


def test_cse_speedup_floor(measured):
    speedup, _, text = measured
    assert speedup >= MIN_CSE_SPEEDUP, (
        f"structural CSE only {speedup:.2f}x over the faithful schedule "
        f"(floor is {MIN_CSE_SPEEDUP}x)\n{text}"
    )


def test_memory_reduction_floor(measured):
    _, reduction, text = measured
    assert reduction >= MIN_MEMORY_REDUCTION, (
        f"arena peak memory only {reduction:.1f}x below the faithful "
        f"schedule (floor is {MIN_MEMORY_REDUCTION}x)\n{text}"
    )


if __name__ == "__main__":
    _run_and_archive()
