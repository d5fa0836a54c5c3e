"""Workload ``stream``: long-stream correlation audits.

``audit_streaming`` at N = 2^20 on two graphs — ``long_stream_graph(20)``,
the paper's synchronizer/desynchronizer/decorrelator stages (single-wave
FSMs), and ``depth8``, a fused combinational chain — at ``jobs=1`` and
``jobs=2``, interleaved round-robin so a slow spell of the machine hits
every phase alike. Every call builds and compiles a fresh graph, as
``long_stream`` shards and ``repro engine --streaming`` do. It is the
only workload where the parallel tile scheduler and the persistent pool
do the work, and it bypasses the materialised executor, the runner and
the server.

Correctness: every ``jobs=2`` audit, and every repeated ``jobs=1``
audit, must be float-identical to the first ``jobs=1`` audit of the same
graph.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import common
import layers

LENGTH = 1 << 20
TINY_LENGTH = 1 << 14
# Small tiles at the tiny size, so it still spans several tiles and the
# parallel scheduler and pool do the work.
TINY_TILE_WORDS = 32
WARM_LENGTH = 1 << 12
JOBS = (1, 2)
GRAPHS = ("long_stream", "depth8")
EXTRA_SETUPS = 3
# Resident memory grows with every fresh-graph call, so peak_rss_mib is
# read after a fixed number of rounds, which every run completes; the
# peak at the end of the run is kept in the notes.
RSS_ROUNDS = 3


def _builders():
    from repro.engine.library import depth8_graph, long_stream_graph

    return {"long_stream": lambda: long_stream_graph(20), "depth8": depth8_graph}


def _fingerprint(audit) -> str:
    from repro.runner import jsonify

    return json.dumps(jsonify(dataclasses.asdict(audit)), sort_keys=True)


def _setup(seed: int) -> None:
    """Import, compile both graphs, start the pool and warm one call per
    graph and job count — the state the first timed call starts from."""
    from repro import engine
    from repro.rng.factory import default_seed

    with default_seed(seed):
        for build in _builders().values():
            plan = engine.compile_graph(build())
            for jobs in JOBS:
                engine.audit_streaming(plan, WARM_LENGTH, jobs=jobs)
    engine.get_pool(max(JOBS))


def child(role: str, args) -> int:
    """``stream-setup <seed>``: one timed cold start."""
    import repro.engine

    _setup(int(args[0]))
    print(json.dumps({"ready": True}), flush=True)
    repro.engine.shutdown_pool()
    return 0


def _call(graph: str, jobs: int, length: int, seed: int, tiling: dict):
    """One timed audit: build, compile, audit. Returns (seconds, audit).
    The harness spans cost one global check while tracing is off."""
    from repro import engine, obs
    from repro.rng.factory import default_seed

    build = _builders()[graph]
    with default_seed(seed):
        started = time.perf_counter()
        with obs.span("bench.compile_graph", graph=graph):
            plan = engine.compile_graph(build())
        with obs.span("bench.audit_streaming", graph=graph, jobs=jobs):
            audit = engine.audit_streaming(plan, length, jobs=jobs, **tiling)
        elapsed = time.perf_counter() - started
    return elapsed, audit


def _round(index: int):
    """The (graph, jobs) phases of round ``index``, rotated so each phase
    takes every position in turn."""
    phases = [(g, j) for g in GRAPHS for j in JOBS]
    shift = index % len(phases)
    return phases[shift:] + phases[:shift]


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from repro import engine, obs

    nproc = os.cpu_count() or 1
    length = TINY_LENGTH if tiny else LENGTH
    tiling = {"tile_words": TINY_TILE_WORDS} if tiny else {}
    common.cold_start("stream-setup", str(seed))  # untimed: warms caches
    setups = [common.cold_start("stream-setup", str(seed))
              for _ in range(EXTRA_SETUPS)]
    _setup(seed)

    times = {phase: [] for phase in _round(0)}
    reference = {}
    correct = True
    attempted = failed = 0

    def record(graph, jobs):
        nonlocal correct, attempted, failed
        attempted += 1
        try:
            elapsed, audit = _call(graph, jobs, length, seed, tiling)
        except Exception as exc:  # noqa: BLE001 — counted, run goes on
            failed += 1
            print(f"[stream] {graph} jobs={jobs} failed: {exc!r}", flush=True)
            return None
        fingerprint = _fingerprint(audit)
        if reference.setdefault(graph, fingerprint) != fingerprint:
            correct = False
            print(f"[stream] {graph} jobs={jobs}: audit differs from jobs=1",
                  flush=True)
        return elapsed

    try:
        if trace:
            walls = []
            for traced in (False, True):
                if traced:
                    obs.start()
                started = time.perf_counter()
                for graph, jobs in _round(0):
                    record(graph, jobs)
                walls.append(time.perf_counter() - started)
            trace_doc = layers.as_doc(obs.stop())
        else:
            started = time.perf_counter()
            index = 0
            while index < RSS_ROUNDS or time.perf_counter() - started < seconds:
                for graph, jobs in _round(index):
                    elapsed = record(graph, jobs)
                    if elapsed is not None:
                        times[(graph, jobs)].append(elapsed)
                index += 1
                if index == RSS_ROUNDS:
                    peak = common.family_peak_rss_mib(os.getpid())
        peak_end = common.family_peak_rss_mib(os.getpid())
    finally:
        engine.shutdown_pool()

    notes = {"rounds": {f"{g}/jobs={j}": len(v) for (g, j), v in times.items()},
             "length": length}
    figures = {}
    if trace:
        metrics = layers.per_layer(trace_doc, overhead=walls[1] / walls[0] - 1.0)
        notes["spans"] = layers.span_counts(trace_doc)
    else:
        medians = {phase: common.median(v) for phase, v in times.items()}

        def mbit_s(jobs):
            return len(GRAPHS) * length / sum(
                medians[(g, jobs)] for g in GRAPHS) / 1e6

        metrics = {
            "setup_s": common.median(setups),
            "peak_rss_mib": peak,
            "wall_s": sum(medians.values()),
        }
        figures["seq_mbit_s"] = mbit_s(1)
        if nproc >= max(JOBS):
            figures["par_mbit_s"] = mbit_s(max(JOBS))
        else:
            notes["par_mbit_s"] = (
                f"not measurable: nproc {nproc} < jobs {max(JOBS)}")
        notes["call_s"] = {f"{g}/jobs={j}": v for (g, j), v in times.items()}
        notes["peak_rss_mib_end"] = peak_end
        notes["setup_s"] = setups
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "figures": figures, "notes": notes,
            "jobs": list(JOBS)}
