"""Per-layer metrics from one traced pass.

A traced pass opens a ``repro.obs`` session, wraps every call into the
program's public functions in a harness span named ``bench.<function>``
and reads back the spans and counters the program already records at
its layer boundaries (forked pool workers merge at pool joins; the
server's session is exported by ``serve_launcher.py``).

Every traced run prints every metric of :data:`CATALOG`; a layer the
workload does not drive reads 0. ``*_s`` metrics are the busy time of a
layer's spans over the traced pass, summed over processes; ratios are
useful outcomes over attempts.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

import common

# (metric, unit) of every per-layer metric, in report order.
CATALOG = [(m["name"], m["unit"]) for m in common.BENCH["per_layer"]]
UNITS = dict(CATALOG)

# Which spans show that a traced pass reached each layer; every row must
# be reached by at least one workload. The pool records counters only,
# so its row is checked on ``engine.pool.calls`` and ``engine.pool.tasks``.
LAYER_SPANS = {
    "repro.runner": ("runner.shard", "runner.plan"),
    "repro.runner.store": ("store.write",),
    "repro.kernels": ("kernels.compile",),
    "repro.pipeline": ("pipeline.process",),
    "repro.engine.plan": ("engine.plan.compile", "engine.plan.optimize"),
    "repro.engine.executor": ("engine.execute",),
    "repro.engine.streaming": ("engine.stream.walk",),
    "repro.engine.parallel": ("engine.parallel.compose", "engine.parallel.scan",
                              "engine.parallel.evaluate"),
    "repro.serve": ("serve.execute",),
    "repro.obs": ("bench.*",),
}

# Spans that wrap code with no spans of its own (rng, bitstream, arith,
# core, analysis): their self time is the part of a trace no layer
# accounts for.
CONTAINER_SPANS = ("runner.run_many", "runner.shard", "serve.execute")


def as_doc(trace) -> dict:
    """A finished ``repro.obs`` trace as the plain dict this module reads."""
    return {"spans": trace.spans, "metrics": trace.metrics, "meta": trace.meta}


def write_trace(trace, path, *, anchor: Optional[float] = None) -> None:
    """Export a finished trace from another process (paper child, server);
    ``anchor`` is the session's ``perf_counter`` origin."""
    doc = as_doc(trace)
    doc["meta"]["anchor"] = anchor
    with open(path, "w") as fh:
        json.dump(doc, fh)


def read_trace(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def within(trace: dict, lo: float, hi: float) -> dict:
    """The trace restricted to spans that started between ``perf_counter``
    readings ``lo`` and ``hi``; a span whose parent is dropped becomes a
    root."""
    anchor = trace["meta"]["anchor"]
    keep = [i for i, rec in enumerate(trace["spans"])
            if lo <= anchor + rec["t0"] <= hi]
    renumber = {old: new for new, old in enumerate(keep)}
    spans = []
    for old in keep:
        rec = dict(trace["spans"][old])
        rec["parent"] = renumber.get(rec["parent"], -1)
        spans.append(rec)
    return {**trace, "spans": spans}


def span_counts(trace: dict) -> Dict[str, int]:
    """How many spans of each name a trace holds."""
    counts: Dict[str, int] = {}
    for rec in trace["spans"]:
        counts[rec["name"]] = counts.get(rec["name"], 0) + 1
    return counts


def _origin(trace: dict) -> Optional[int]:
    return trace.get("meta", {}).get("origin_pid")


def unattributed_share(trace: dict) -> float:
    """Self time of harness and container spans in the origin process,
    over the time its root spans cover. Worker spans (root spans of other
    processes) cover the parent's wait in a pooled call like children."""
    origin = _origin(trace)
    spans = trace["spans"]
    own = [i for i, rec in enumerate(spans) if rec["pid"] == origin]
    workers = [(rec["t0"], rec["t0"] + rec["dur"]) for rec in spans
               if rec["pid"] != origin and rec["parent"] < 0]
    children: Dict[int, List[tuple]] = {}
    for rec in spans:
        if rec["parent"] >= 0:
            children.setdefault(rec["parent"], []).append(
                (rec["t0"], rec["t0"] + rec["dur"]))
    roots = sum(spans[i]["dur"] for i in own if spans[i]["parent"] < 0)
    blind = 0.0
    for i in own:
        rec = spans[i]
        if not (rec["name"].startswith("bench.") or rec["name"] in CONTAINER_SPANS):
            continue
        lo, hi = rec["t0"], rec["t0"] + rec["dur"]
        cover = children.get(i, []) + [
            (max(a, lo), min(b, hi)) for a, b in workers if a < hi and b > lo]
        blind += max(0.0, rec["dur"] - common.union_length(cover))
    return common.ratio(blind, roots)


def pool_wait_seconds(trace: dict) -> float:
    """Parent time in pooled calls beyond the longest worker span of each
    phase and the parent's own recorded work."""
    origin = _origin(trace)
    spans = trace["spans"]
    total = 0.0
    for index, call in enumerate(spans):
        if not (call["pid"] == origin and call["name"] == "bench.audit_streaming"
                and call["args"].get("jobs", 1) > 1):
            continue
        lo, hi = call["t0"], call["t0"] + call["dur"]
        phases: Dict[tuple, float] = {}
        for rec in spans:
            if rec["pid"] != origin and rec["parent"] < 0 and lo <= rec["t0"] <= hi:
                key = (rec["name"], rec["args"].get("wave"))
                phases[key] = max(phases.get(key, 0.0), rec["dur"])
        own = common.union_length(
            (rec["t0"], rec["t0"] + rec["dur"])
            for rec in spans if rec["parent"] == index
        )
        total += max(0.0, call["dur"] - own - sum(phases.values()))
    return total


def _quantile_from_buckets(hist: Optional[dict], q: float) -> float:
    """Approximate quantile of a ``repro.obs`` log2 histogram: linear
    inside the bucket that holds the rank, clamped to the observed
    min/max."""
    if not hist or not hist.get("count"):
        return 0.0
    rank = q * hist["count"]
    seen = 0
    for label, count in sorted(hist["buckets"].items(),
                               key=lambda kv: int(kv[0].split("^")[1])):
        k = int(label.split("^")[1])
        lo, hi = (0.0 if k == 0 else 2.0 ** (k - 1)), 2.0 ** k
        if seen + count >= rank:
            value = lo + (hi - lo) * (rank - seen) / count
            return min(max(value, hist["min"]), hist["max"])
        seen += count
    return float(hist["max"])


def per_layer(trace: dict, *, overhead: float,
              extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Every :data:`CATALOG` metric from one traced pass.

    ``extra`` supplies the metrics only the harness can see (client-side
    serve latencies, server CPU time, load-generator figures).
    """
    spans: List[dict] = trace["spans"]
    counters = trace.get("metrics", {}).get("counters", {})
    histograms = trace.get("metrics", {}).get("histograms", {})

    def busy(*names):
        return common.busy_seconds(spans, names)

    def count(name):
        return float(counters.get(name, 0))

    def hit_ratio(prefix):
        return common.ratio(count(prefix + ".hit"),
                            count(prefix + ".hit") + count(prefix + ".miss"))

    out: Dict[str, float] = {name: 0.0 for name, _ in CATALOG}
    # runner.shard_s.<spec>, with every unnamed spec under "other".
    shard_prefix = "runner.shard_s."
    shard_s = {name[len(shard_prefix):]: 0.0
               for name in UNITS if name.startswith(shard_prefix)}
    for rec in spans:
        if rec["name"] == "runner.shard":
            spec = rec["args"].get("spec")
            shard_s[spec if spec in shard_s else "other"] += rec["dur"]
    for spec, seconds in shard_s.items():
        out[shard_prefix + spec] = seconds

    window = histograms.get("serve.window.latency_ms")
    out.update({
        "runner.plan_s": busy("runner.plan"),
        "store.write_s": busy("store.write"),
        "store.writes": count("store.write"),
        "kernels.compile_s": busy("kernels.compile"),
        "kernels.compiles": count("kernels.compile"),
        "pipeline.process_s": busy("pipeline.process"),
        "engine.plan.compile_s": busy("engine.plan.compile", "engine.plan.optimize"),
        "engine.plan.cache_hit_ratio": hit_ratio("engine.plan.cache"),
        "engine.optimize.fallbacks": count("engine.optimize.fallback"),
        "engine.execute_s": busy("engine.execute"),
        "engine.seq_memo_hit_ratio": hit_ratio("engine.seq_memo"),
        "engine.stream.walk_s": busy("engine.stream.walk"),
        "engine.stream.tiles": count("engine.stream.tiles"),
        "engine.stream.words": count("engine.stream.words"),
        "engine.parallel.fallbacks": count("engine.parallel.fallback"),
        "engine.pool.calls": count("engine.pool.calls"),
        "engine.pool.tasks": count("engine.pool.tasks"),
        "engine.pool.fallbacks": sum(
            v for k, v in counters.items() if k.startswith("engine.pool.fallback.")),
        "engine.pool.respawns": count("engine.pool.respawn"),
        "engine.pool.shm_reuse_ratio": common.ratio(
            count("engine.pool.shm.reuse"),
            count("engine.pool.shm.reuse") + count("engine.pool.shm.alloc")),
        "process.forks": count("process.forks"),
        "engine.pool.wait_s": pool_wait_seconds(trace),
        "serve.groups": count("serve.groups"),
        "serve.window_ms.p50": _quantile_from_buckets(window, 0.50),
        "serve.window_ms.p99": _quantile_from_buckets(window, 0.99),
        "obs.trace_overhead": overhead,
        "obs.unattributed_share": unattributed_share(trace),
    })
    for kind in ("pair", "op", "tfm", "shuffle"):
        out[f"kernels.dispatch.{kind}"] = count(f"kernels.dispatch.{kind}")
    for phase in ("compose", "scan", "evaluate"):
        out[f"engine.parallel.{phase}_s"] = busy(f"engine.parallel.{phase}")
    for kind in ("audit", "run"):
        out[f"serve.execute_s.{kind}"] = sum(
            (rec["dur"] for rec in spans
             if rec["name"] == "serve.execute" and rec["args"].get("kind") == kind),
            0.0)
    out.update(extra or {})
    unknown = set(out) - set(UNITS)
    if unknown:
        raise common.BenchError(f"metrics outside the catalog: {sorted(unknown)}")
    return out
