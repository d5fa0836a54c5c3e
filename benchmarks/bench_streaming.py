"""Bench: streaming tile execution — fusion speedup and constant memory.

Four tracked numbers for the streaming executor
(:mod:`repro.engine.streaming`):

* **fused vs unfused** — a depth-64 MUX scaled-add chain (the SC
  weighted-sum construction, one long run of single-consumer packed ops)
  evaluated tile by tile with and without super-step fusion. Fusion
  collapses the 64 ops into one pass over each tile with in-place
  kernels and zero interior buffers; the floor is ``>= 1.3x`` (measured
  ~1.5x on a quiet box).
* **streaming vs materialised peak memory** — the width-matched
  manipulation graph at N = 2^20, measured with ``tracemalloc``: the
  materialised engine holds every node's full-length buffer plus the
  full comparator sequences; the streaming auditor holds O(tile).
  The streaming side is an audit because audits never prune — a
  ``keep=()`` run would be pruned to nothing by dead-node elimination
  and measure an empty walk — and the measurement asserts that tiles
  were walked. Floor ``>= 8x`` reduction (measured ~13x).
* **long-stream convergence** — the ``long_stream`` experiment at
  exhaustive fidelity (N up to 2^22), archived like every other
  experiment table.
* **fresh-graph memory** — after a warm round, 100 audits at N = 2^20
  that each build and compile a fresh ``long_stream_graph(20)`` (50 at
  ``jobs=1``, 50 at ``jobs=2``) must share one cached plan: the plan
  cache does not grow and the resident set grows by at most 1 MiB.

``python benchmarks/bench_streaming.py --rss-smoke`` is the CI
constant-memory proof: it caps the process address space via
``resource.setrlimit`` at its current peak plus a margin *smaller than
the materialised working set*, then runs N = 2^22 streaming audits to
completion, asserting from the ``engine.stream.tiles`` counter that every
tile was walked — and checks (in a subprocess under the same cap) that
the materialised engine dies of ``MemoryError`` where streaming survives.
"""

import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

import _snapshot
from repro import engine, obs
from repro.bitstream.streaming import tile_count
from repro.engine.library import depth_chain_graph, long_stream_graph, mux_chain_graph
from repro.engine.streaming import audit_streaming, run_streaming

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

FUSION_DEPTH = 64
FUSION_N = 1 << 22
FUSION_TILE_WORDS = 4096
MIN_FUSED_SPEEDUP = 1.3

MEMORY_N = 1 << 20
MEMORY_TILE_WORDS = 512
MIN_MEMORY_REDUCTION = 8.0

FRESH_N = 1 << 20
FRESH_CALLS = 100
MAX_FRESH_RSS_GROWTH_KIB = 1024

SMOKE_N = 1 << 22
# Address-space headroom for the --rss-smoke run. The materialised
# engine's working set at N = 2^22 starts at ~170 MB of comparator
# sequences alone, so this margin proves streaming never materialises
# them.
SMOKE_MARGIN_BYTES = 128 << 20


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_fusion():
    plan = engine.compile_graph(mux_chain_graph(FUSION_DEPTH))
    sink = f"n{FUSION_DEPTH}"
    kwargs = dict(tile_words=FUSION_TILE_WORDS, keep=(sink,))
    # Warm the select-tile memo and the FSM-free schedule once per mode.
    fused_run = run_streaming(plan, FUSION_N, fuse=True, **kwargs)
    unfused_run = run_streaming(plan, FUSION_N, fuse=False, **kwargs)
    import numpy as np

    assert np.array_equal(fused_run.words(sink), unfused_run.words(sink)), (
        "fusion changed bits"
    )
    t_fused = _best_of(lambda: run_streaming(plan, FUSION_N, fuse=True, **kwargs))
    t_unfused = _best_of(lambda: run_streaming(plan, FUSION_N, fuse=False, **kwargs))
    return t_fused, t_unfused, fused_run.fused_super_steps


def _measure_memory():
    plan = engine.compile_graph(long_stream_graph(20))
    engine.clear_sequence_cache()
    tracemalloc.start()
    engine.executor.run_batch(plan, MEMORY_N)
    _, materialized_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    engine.clear_sequence_cache()
    with obs.observe() as trace:
        tracemalloc.start()
        audit_streaming(plan, MEMORY_N, tile_words=MEMORY_TILE_WORDS)
        _, streaming_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    _assert_tiles_walked(trace, MEMORY_N, MEMORY_TILE_WORDS)
    return materialized_peak, streaming_peak


def _assert_tiles_walked(trace, length, tile_words):
    tiles = trace.metrics["counters"].get("engine.stream.tiles", 0)
    expected = tile_count(length, tile_words)
    assert tiles == expected, (
        f"streaming walk visited {tiles} tiles, expected {expected}"
    )


def _run_and_archive():
    t_fused, t_unfused, super_steps = _measure_fusion()
    mat_peak, stream_peak = _measure_memory()
    speedup = t_unfused / t_fused
    reduction = mat_peak / stream_peak
    lines = [
        f"streaming tile execution (tile={FUSION_TILE_WORDS} words)",
        f"{'measurement':<42} {'value':>14}",
        f"{'fused super-steps (depth-64 mux chain)':<42} {super_steps:>14d}",
        f"{'unfused wall ms (N=2^22)':<42} {t_unfused * 1e3:>12.1f}",
        f"{'fused wall ms (N=2^22)':<42} {t_fused * 1e3:>12.1f}",
        f"{'fusion speedup':<42} {speedup:>13.2f}x",
        f"{'materialised peak bytes (N=2^20)':<42} {mat_peak:>14d}",
        f"{'streaming peak bytes (N=2^20)':<42} {stream_peak:>14d}",
        f"{'peak-memory reduction':<42} {reduction:>13.1f}x",
    ]
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "streaming.txt").write_text(text + "\n")
    _snapshot.add_entry(
        "streaming", op="unfused run (depth-64 mux chain)",
        wall_ms=t_unfused * 1e3,
        config={"depth": FUSION_DEPTH, "n": FUSION_N, "tile_words": FUSION_TILE_WORDS},
    )
    _snapshot.add_entry(
        "streaming", op="fused run (depth-64 mux chain)",
        wall_ms=t_fused * 1e3,
        config={"depth": FUSION_DEPTH, "n": FUSION_N, "tile_words": FUSION_TILE_WORDS},
        speedup=speedup,
    )
    _snapshot.add_entry(
        "streaming", op="peak-memory reduction (N=2^20)",
        wall_ms=0.0,
        config={
            "n": MEMORY_N, "tile_words": MEMORY_TILE_WORDS,
            "materialized_peak_bytes": mat_peak,
            "streaming_peak_bytes": stream_peak,
        },
        speedup=reduction,
    )
    _snapshot.write("streaming")
    print("\n" + text)
    return speedup, reduction, text


@pytest.fixture(scope="module")
def measured():
    return _run_and_archive()


def test_fused_speedup_floor(measured):
    speedup, _, text = measured
    assert speedup >= MIN_FUSED_SPEEDUP, (
        f"fused super-steps only {speedup:.2f}x over unfused tile execution "
        f"(floor is {MIN_FUSED_SPEEDUP}x)\n{text}"
    )


def test_memory_reduction_floor(measured):
    _, reduction, text = measured
    assert reduction >= MIN_MEMORY_REDUCTION, (
        f"streaming peak memory only {reduction:.1f}x below materialised "
        f"(floor is {MIN_MEMORY_REDUCTION}x)\n{text}"
    )


def test_long_stream_experiment(record_result):
    from repro.analysis.experiments import (
        _LONG_STREAM_EXPONENTS_EXHAUSTIVE,
        long_stream,
    )

    record_result(long_stream(exponents=_LONG_STREAM_EXPONENTS_EXHAUSTIVE))


def _proc_status_kib(field: str) -> int:
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise RuntimeError(f"{field} not found (non-Linux host?)")


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/status").exists(),
    reason="reads VmRSS from /proc/self/status",
)
def test_fresh_graph_memory_flat():
    # What a long_stream shard, `repro engine --streaming` or a perfbench
    # stream call does: build the graph, compile it, audit it. A plan
    # keyed by instance identity would pin each fresh graph's composed
    # LUTs and RNG window memos until the plan cache evicts them.
    def fresh_audits(calls):
        for i in range(calls):
            plan = engine.compile_graph(long_stream_graph(20))
            audit_streaming(plan, FRESH_N, jobs=1 + i % 2)

    fresh_audits(2)
    size = engine.cache_info()["size"]
    before = _proc_status_kib("VmRSS")
    fresh_audits(FRESH_CALLS)
    growth = _proc_status_kib("VmRSS") - before
    assert growth <= MAX_FRESH_RSS_GROWTH_KIB, (
        f"{FRESH_CALLS} fresh-graph audits grew VmRSS by {growth} KiB "
        f"(bound {MAX_FRESH_RSS_GROWTH_KIB} KiB)"
    )
    assert engine.cache_info()["size"] == size, "fresh graphs missed the plan cache"


# ---------------------------------------------------------------------- #
# Constant-memory RSS smoke (CI): run N = 2^22 under a hard ceiling
# ---------------------------------------------------------------------- #

def _current_vm_peak_bytes() -> int:
    return _proc_status_kib("VmPeak") * 1024


def _materialized_probe() -> int:
    """Subprocess body: try the materialised engine under the cap.

    Exit 42 = MemoryError as expected; exit 1 = it survived (the ceiling
    proves nothing); other = unrelated crash.
    """
    import resource

    limit = _current_vm_peak_bytes() + SMOKE_MARGIN_BYTES
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    plan = engine.compile_graph(long_stream_graph(22))
    try:
        engine.executor.run_batch(plan, SMOKE_N)
    except MemoryError:
        return 42
    return 1


def _rss_smoke() -> int:
    import resource

    # The probe must inherit the same ceiling *policy* but compute its
    # own baseline, so spawn it before capping this process. Absolute
    # paths throughout: the parent may run from any working directory
    # with a relative PYTHONPATH.
    import os

    here = pathlib.Path(__file__).resolve()
    env = dict(os.environ)
    src = str(here.parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = subprocess.run(
        [sys.executable, str(here), "--materialized-probe"],
        cwd=str(here.parent),
        env=env,
    )
    assert probe.returncode == 42, (
        f"materialised engine survived the address-space ceiling "
        f"(exit {probe.returncode}); the smoke proves nothing"
    )

    limit = _current_vm_peak_bytes() + SMOKE_MARGIN_BYTES
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    start = time.perf_counter()
    # The ISSUE's depth-4 library graph (8-bit sources) plus the
    # width-matched manipulation graph — both at N = 2^22, both under
    # the ceiling the materialised engine just died of.
    for plan in (
        engine.compile_graph(depth_chain_graph(4)),
        engine.compile_graph(long_stream_graph(22)),
    ):
        with obs.observe() as trace:
            audit_streaming(plan, SMOKE_N, tile_words=4096)
        _assert_tiles_walked(trace, SMOKE_N, 4096)
    wall = time.perf_counter() - start
    _snapshot.add_entry(
        "streaming", op="rss smoke (N=2^22 under AS ceiling)",
        wall_ms=wall * 1e3,
        config={"n": SMOKE_N, "margin_bytes": SMOKE_MARGIN_BYTES},
    )
    _snapshot.write("streaming")
    print(
        f"rss smoke: 2 graphs x N=2^22 streamed in {wall:.1f}s under a "
        f"{SMOKE_MARGIN_BYTES >> 20} MiB address-space margin "
        f"(VmPeak {_current_vm_peak_bytes() >> 20} MiB of a {limit >> 20} MiB "
        f"ceiling; materialised probe correctly died)"
    )
    return 0


if __name__ == "__main__":
    if "--materialized-probe" in sys.argv:
        sys.exit(_materialized_probe())
    if "--rss-smoke" in sys.argv:
        sys.exit(_rss_smoke())
    _run_and_archive()
