"""Workload ``paper``: a researcher's cold ``repro run all``.

Each regeneration is a fresh interpreter that imports the program, opens
an empty result store and runs ``repro.runner.run_many`` over every
registered spec at ``default`` fidelity with ``jobs=1`` (the CLI
default). It is the only workload that drives the runner, the store,
the analysis sweeps, the image pipeline and the hardware model, and it
bypasses the pool and the server.

Correctness: a spec whose shape checks fail counts as a failed
operation (``fault_tolerance`` fails at most seeds today, and is counted,
not avoided); an immediate replay from the store must hit the cache for
every shard and return byte-identical merged results, or the run is
wrong.
"""

from __future__ import annotations

import json
import os
import time

import common
import layers

FIDELITY = "default"
# Extra set-up-only cold starts per run, on top of one per regeneration:
# one cold start takes about half a second, so a run times several.
EXTRA_SETUPS = 2
TINY_SPECS = ("table1", "fig2", "table4")


def _fingerprint(reports) -> str:
    from repro.runner import jsonify

    return json.dumps(
        [[r.spec, jsonify(r.result)] for r in reports], sort_keys=True
    )


def child(role: str, args) -> int:
    """``paper-setup <store>`` or ``paper <store> <seed> <tiny> <trace>``."""
    started = time.perf_counter()
    import repro  # noqa: F401 — the import is the set-up being timed
    from repro.runner import SPEC_REGISTRY, ResultStore, run_many

    store = ResultStore(args[0])
    print(json.dumps({"ready": time.perf_counter() - started}), flush=True)
    if role == "paper-setup":
        return 0

    seed, tiny, trace_path = int(args[1]), args[2] == "1", args[3]
    names = list(TINY_SPECS if tiny else SPEC_REGISTRY)
    fidelity = "smoke" if tiny else FIDELITY
    kwargs = dict(fidelity=fidelity, jobs=1, seed=seed, store=store, log=None)

    from repro import obs

    tracing = trace_path != "-"
    if tracing:
        obs.start()
    t0 = time.perf_counter()
    with obs.span("bench.run_many", specs=len(names)):
        reports = run_many(names, **kwargs)
    wall = time.perf_counter() - t0
    # Read before the replay and fingerprints below, so the harness's own
    # checks cannot set the peak.
    peak = common.peak_rss_mib(os.getpid())
    if tracing:
        layers.write_trace(obs.stop(), trace_path)

    failed = [r.spec for r in reports if not r.result.all_checks_pass]
    replay = run_many(names, **kwargs)
    replay_ok = (
        all(r.computed == 0 for r in replay)
        and _fingerprint(replay) == _fingerprint(reports)
    )
    print(json.dumps({
        "wall_s": wall,
        "specs": len(reports),
        "failed": failed,
        "replay_ok": replay_ok,
        "peak_rss_mib": peak,
        "peak_rss_mib_end": common.peak_rss_mib(os.getpid()),
    }), flush=True)
    return 0


def _regenerate(seed: int, tiny: bool, trace_path: str = "-") -> dict:
    store = common.fresh_dir("paper-store")
    child = common.python_child(
        "paper", str(store), str(seed), "1" if tiny else "0", trace_path
    )
    try:
        child.wait_ready()
        outcome = child.read()
    except BaseException:
        child.kill()
        raise
    if child.finish() != 0:
        raise common.BenchError("paper regeneration exited non-zero")
    outcome["setup_s"] = child.ready_s
    return outcome


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    # Untimed: brings bytecode and page caches to the same state on
    # every commit before anything is timed.
    common.cold_start("paper-setup", str(common.fresh_dir("paper-warm")))

    setups = [
        common.cold_start("paper-setup", str(common.fresh_dir(f"paper-setup-{i}")))
        for i in range(EXTRA_SETUPS)
    ]
    runs = []
    if trace:
        runs.append(_regenerate(seed, tiny))
        trace_path = str(common.WORK / "paper-trace.json")
        runs.append(_regenerate(seed, tiny, trace_path))
    else:
        started = time.perf_counter()
        while not runs or time.perf_counter() - started < seconds:
            runs.append(_regenerate(seed, tiny))
    setups += [r["setup_s"] for r in runs]

    attempted = sum(r["specs"] for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    correct = all(r["replay_ok"] for r in runs)
    notes = {
        "regenerations": len(runs),
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": setups,
        "failed_specs": sorted({s for r in runs for s in r["failed"]}),
        "replay_ok": correct,
        "peak_rss_mib_end": max(r["peak_rss_mib_end"] for r in runs),
    }
    if trace:
        untraced, traced = runs
        trace_doc = layers.read_trace(trace_path)
        metrics = layers.per_layer(
            trace_doc, overhead=traced["wall_s"] / untraced["wall_s"] - 1.0)
        notes["spans"] = layers.span_counts(trace_doc)
    else:
        metrics = {
            "setup_s": common.median(setups),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in runs),
            "wall_s": common.median([r["wall_s"] for r in runs]),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes, "jobs": [1]}
