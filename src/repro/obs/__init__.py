"""repro.obs — zero-dependency observability for the execution stack.

Span-based tracing, typed counters/gauges/histograms, and opt-in
memory profiling, permanently wired through every execution layer
(engine, kernels, streaming, parallel scheduler, runner, store, image
pipeline). Disabled is the default and costs one global check per
instrumentation point (``benchmarks/bench_obs.py`` enforces ≤ 2%
overhead on real workloads); enabling never changes any result bit
(property-tested via the cross-backend equivalence harness).

Quickstart::

    from repro import engine, obs
    from repro.engine.library import build_graph

    with obs.observe() as trace:
        plan = engine.compile_graph(build_graph("fsm_zoo"))
        plan.run_streaming(1 << 16, keep=())

    obs.write_chrome_trace(trace, "trace.json")   # load in Perfetto
    print(obs.profile_tree(trace))                # human tree
    print(obs.render_stats(obs.stats_doc(trace))) # metrics + hit rates

Cross-process traces come for free: pool workers (runner shards,
parallel span workers) join the session, record against the same
``perf_counter`` anchor, flush when their root span closes, and merge at
the end of every pooled call — one coherent timeline, summed metrics.
See :mod:`repro.obs.tracer`.

Recording API (all no-ops while disabled):

* :func:`span` — ``with obs.span("engine.execute", length=n):``
* :func:`counter_add` / :func:`gauge_set` / :func:`histogram_record`
* :func:`start` / :func:`stop` / :func:`observe` — session lifecycle
* :func:`collect_children` — absorb forked workers' buffers (pooled
  calls do this; user code rarely needs to)
"""

from . import metrics as _metrics
from . import tracer as _tracer
from .export import (
    merge_stats_docs,
    profile_tree,
    read_spool_trace,
    render_stats,
    stats_doc,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .tracer import (
    Span,
    Trace,
    Tracer,
    collect_children,
    current_tracer,
    drain_spool,
    enabled,
    observe,
    span,
    start,
    stop,
)

__all__ = [
    "Span", "Trace", "Tracer",
    "span", "counter_add", "gauge_set", "histogram_record",
    "start", "stop", "observe", "enabled", "collect_children",
    "current_tracer", "metrics_snapshot", "drain_spool",
    "to_chrome_trace", "write_chrome_trace", "validate_chrome_trace",
    "stats_doc", "render_stats", "profile_tree",
    "read_spool_trace", "merge_stats_docs",
]


def counter_add(name: str, value=1) -> None:
    """Add to a counter (merged by sum across processes); no-op while
    tracing is disabled."""
    if _tracer._TRACER is None:
        return
    _metrics.counter_add(name, value)


def gauge_set(name: str, value) -> None:
    """Set a gauge (last write wins across merges); no-op while disabled."""
    if _tracer._TRACER is None:
        return
    _metrics.gauge_set(name, value)


def histogram_record(name: str, value) -> None:
    """Record one histogram observation (count/sum/min/max + log2
    buckets); no-op while disabled."""
    if _tracer._TRACER is None:
        return
    _metrics.histogram_record(name, value)


def metrics_snapshot() -> dict:
    """The live registry as a JSON-ready dict (mid-session peek)."""
    return _metrics.snapshot()
