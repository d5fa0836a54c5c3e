"""Span tracing with cross-process aggregation.

One process-global :class:`Tracer` (the *session*) buffers spans; the
nesting stack is a :mod:`contextvars` variable, so concurrent threads
(and async callers) each see their own ancestry while sharing one span
buffer. When no session is active, :func:`span` returns a shared no-op
handle — the disabled path is one module-global load and an identity
check, cheap enough to leave instrumentation permanently wired into the
execution stack (``benchmarks/bench_obs.py`` enforces the ceiling).

Cross-process story (the at-fork pattern of the engine's memo caches):

* forked workers inherit the parent's session by address-space
  inheritance — including the **anchor**, the ``time.perf_counter()``
  origin taken at session start. ``perf_counter`` is CLOCK_MONOTONIC on
  Linux (system-wide, not per-process), so child span timestamps
  recorded as deltas against the inherited anchor land on the same
  timeline as the parent's;
* the ``os.register_at_fork`` hook gives every child a fresh span
  buffer, a reset nesting stack, and a zeroed metrics registry, and
  counts the fork into ``process.forks``;
* a child flushes when its **root span** (depth 0 in the child) closes:
  buffered spans plus the metrics delta append as one JSON line to a
  per-pid spool file (single writer per file — no locking). Exit hooks
  are useless here (forked pool workers die by ``os._exit``), so the
  flush is deterministic span-close work instead;
* the parent absorbs spool files via :func:`collect_children` — called
  at the end of every pooled call (:func:`repro.engine.pool.pool_call`),
  at pool shutdown, and once more at :func:`stop`. Inside a forked child
  ``collect_children`` is a no-op, so records from processes it forked
  wait in the shared spool directory for the top-level parent and
  nothing merges twice. A ``jobs > 1`` call nested in a forked child
  (a runner shard on a pool worker) runs in-process and forks nothing:
  its spans buffer in the child and flush with the child's root span.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from . import metrics as _metrics

__all__ = ["Span", "Trace", "Tracer", "span", "start", "stop", "observe",
           "enabled", "collect_children", "current_tracer", "drain_spool",
           "adopt_session", "leave_session", "flush_in_child"]

_STACK: ContextVar[tuple] = ContextVar("repro_obs_stack", default=())

_TRACER: Optional["Tracer"] = None


@dataclass
class Trace:
    """A finished session: flat span records, merged metrics, metadata.

    ``spans`` is a list of plain dicts (JSON-ready) with keys ``name``,
    ``cat``, ``t0``/``dur`` (seconds relative to the session anchor),
    ``cpu`` (process CPU seconds), ``pid``, ``tid``, ``parent`` (index
    into this list, ``-1`` for roots), ``depth``, ``args`` and — when
    memory profiling was on — ``mem_net``/``mem_peak`` bytes.
    """

    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def processes(self) -> List[int]:
        """Distinct pids that contributed spans, origin first."""
        seen: List[int] = []
        for rec in self.spans:
            if rec["pid"] not in seen:
                seen.append(rec["pid"])
        return seen

    def by_name(self, name: str) -> List[Dict[str, Any]]:
        return [rec for rec in self.spans if rec["name"] == name]


class Tracer:
    """One tracing session's mutable state (module-global singleton)."""

    __slots__ = (
        "anchor", "epoch", "spool", "memory", "spans", "in_child",
        "origin_pid", "own_tracemalloc",
    )

    def __init__(self, *, memory: bool = False, spool: Optional[str] = None):
        self.anchor = time.perf_counter()
        self.epoch = time.time()
        self.spool = spool or tempfile.mkdtemp(prefix="repro-obs-")
        self.memory = memory
        self.spans: List[Dict[str, Any]] = []
        self.in_child = False
        self.origin_pid = os.getpid()
        self.own_tracemalloc = False

    def now(self) -> float:
        return time.perf_counter() - self.anchor


class _NullSpan:
    """Shared no-op handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """A live span handle (context manager). Records on close."""

    __slots__ = ("_rec", "_token", "_cpu0", "_mem0")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]):
        stack = _STACK.get()
        rec = {
            "name": name,
            "cat": name.split(".", 1)[0],
            "t0": tracer.now(),
            "dur": 0.0,
            "cpu": 0.0,
            "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "parent": stack[-1] if stack else -1,
            "depth": len(stack),
            "args": attrs,
        }
        tracer.spans.append(rec)
        self._rec = rec
        self._token = _STACK.set(stack + (len(tracer.spans) - 1,))
        self._cpu0 = time.process_time()
        self._mem0 = None
        if tracer.memory:
            import tracemalloc
            if tracemalloc.is_tracing():
                self._mem0 = tracemalloc.get_traced_memory()[0]

    def annotate(self, **attrs) -> None:
        """Attach key/value attributes to the span while it is open."""
        self._rec["args"].update(attrs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        tracer = _TRACER
        rec = self._rec
        _STACK.reset(self._token)
        rec["cpu"] = time.process_time() - self._cpu0
        if tracer is not None:
            rec["dur"] = tracer.now() - rec["t0"]
            if self._mem0 is not None:
                import tracemalloc
                current, peak = tracemalloc.get_traced_memory()
                rec["mem_net"] = current - self._mem0
                rec["mem_peak"] = peak
            if tracer.in_child and rec["depth"] == 0:
                _flush_child(tracer)
        return False


def span(name: str, **attrs):
    """Open a span named ``name``; no-op (and allocation-free apart from
    the kwargs dict) while tracing is disabled."""
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return Span(tracer, name, attrs)


def enabled() -> bool:
    """Is a tracing session active in this process?"""
    return _TRACER is not None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


# ---------------------------------------------------------------------- #
# Child flush / parent collect
# ---------------------------------------------------------------------- #

def _flush_child(tracer: Tracer) -> None:
    """Append this child's buffered spans + metrics delta to its spool
    file (one file per pid — a pool worker appends one line per task)."""
    record = {
        "pid": os.getpid(),
        "spans": tracer.spans,
        "metrics": _metrics.snapshot(),
    }
    tracer.spans = []
    _metrics.reset()
    path = os.path.join(tracer.spool, f"obs-{os.getpid()}.jsonl")
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")


def drain_spool(path) -> int:
    """Append the live session's buffered spans + metrics delta to the
    JSONL spool file at ``path``, then reset the buffers.

    The long-lived-server counterpart of a forked child's root-span
    flush: a process that never *ends* its session (``repro serve``)
    drains after every micro-batch flush instead, so its spans and
    counters are durably on disk — and visible to ``repro stats`` via
    :func:`repro.obs.read_spool_trace` — even if the server is later
    killed without a clean :func:`stop`. Records use the same JSONL
    shape as the fork spool (``{"pid", "spans", "metrics"}``); metrics
    reset on drain, so successive records carry disjoint deltas that sum
    back to session totals. Returns the number of spans drained; no-op
    (returns 0) while tracing is disabled or nothing is buffered.

    Spans still *open* in another thread at drain time are written with
    their creation-time snapshot (zero duration) and spans opened after
    the reset may mis-parent in the profile tree; counters, gauges, and
    histograms stay exact (they merge commutatively). Callers that care
    about span fidelity drain at quiet points — the server drains after
    each batch completes.
    """
    tracer = _TRACER
    if tracer is None:
        return 0
    record = {
        "pid": os.getpid(),
        "spans": tracer.spans,
        "metrics": _metrics.snapshot(),
    }
    if not record["spans"] and not any(record["metrics"].values()):
        return 0
    tracer.spans = []
    _metrics.reset()
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return len(record["spans"])


def collect_children() -> int:
    """Merge every spooled child record into the live session.

    Returns the number of records absorbed. No-op when tracing is
    disabled or when running *inside* a forked child (grandchild records
    then stay spooled for the top-level parent — second-level forks merge
    exactly once).
    """
    tracer = _TRACER
    if tracer is None or tracer.in_child:
        return 0
    absorbed = 0
    try:
        names = sorted(os.listdir(tracer.spool))
    except OSError:
        return 0
    for filename in names:
        if not filename.endswith(".jsonl"):
            continue
        path = os.path.join(tracer.spool, filename)
        try:
            with open(path) as fh:
                lines = fh.readlines()
            os.unlink(path)
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            offset = len(tracer.spans)
            for rec in record["spans"]:
                if rec["parent"] >= 0:
                    rec["parent"] += offset
            tracer.spans.extend(record["spans"])
            _metrics.merge(record["metrics"])
            absorbed += 1
    return absorbed


# ---------------------------------------------------------------------- #
# Persistent-worker adoption
# ---------------------------------------------------------------------- #
#
# A child forked inside a session joins it by address-space
# inheritance. The persistent pool's workers fork *once* — possibly
# before any session exists — so each pooled call primes them with the
# parent's (anchor, spool) and they adopt/leave the session explicitly.
# Adopted workers behave exactly like inherited ones: ``in_child`` is
# set, spans flush to the shared spool at root-span close, and
# ``collect_children`` in the parent merges each record exactly once.

def flush_in_child() -> None:
    """Spool whatever this child has buffered (root-span flush for spans
    closed since, plus the metrics delta). No-op outside a child session
    or with nothing buffered; a vanished spool directory (the parent's
    session already ended) just drops the buffers."""
    tracer = _TRACER
    if tracer is None or not tracer.in_child:
        return
    if not tracer.spans and not any(_metrics.snapshot().values()):
        return
    try:
        _flush_child(tracer)
    except OSError:
        tracer.spans = []
        _metrics.reset()


def adopt_session(anchor: float, spool: str) -> Tracer:
    """Join (as a child) the parent session identified by its anchor and
    spool directory. Re-adopting the same session is a cheap no-op;
    switching sessions flushes leftovers to the old spool first."""
    global _TRACER
    tracer = _TRACER
    if tracer is not None and tracer.in_child and tracer.spool == spool:
        tracer.anchor = anchor
        return tracer
    if tracer is not None:
        flush_in_child()
    _metrics.reset()
    tracer = Tracer(spool=spool)
    tracer.anchor = anchor
    tracer.in_child = True
    _STACK.set(())
    _TRACER = tracer
    return tracer


def leave_session() -> None:
    """Drop this child's session view (the parent traced last call but
    not this one); leftovers flush to the old spool first."""
    global _TRACER
    if _TRACER is None:
        return
    flush_in_child()
    _TRACER = None
    _metrics.reset()


# ---------------------------------------------------------------------- #
# Session lifecycle
# ---------------------------------------------------------------------- #

def start(*, memory: bool = False) -> Tracer:
    """Begin a tracing session in this process.

    ``memory=True`` additionally attributes :mod:`tracemalloc` net/peak
    bytes to every span (starts tracemalloc if it is not running).
    """
    global _TRACER
    if _TRACER is not None:
        raise RuntimeError("an observability session is already active")
    _metrics.reset()
    tracer = Tracer(memory=memory)
    if memory:
        import tracemalloc
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            tracer.own_tracemalloc = True
    _TRACER = tracer
    return tracer


def stop() -> Trace:
    """End the session: collect children, snapshot metrics, tear down."""
    global _TRACER
    tracer = _TRACER
    if tracer is None:
        raise RuntimeError("no observability session is active")
    collect_children()
    trace = Trace(
        spans=tracer.spans,
        metrics=_metrics.snapshot(),
        meta={
            "origin_pid": tracer.origin_pid,
            "started_unix": tracer.epoch,
            "duration_s": tracer.now(),
            "memory": tracer.memory,
        },
    )
    _metrics.reset()
    if tracer.own_tracemalloc:
        import tracemalloc
        tracemalloc.stop()
    _TRACER = None
    if not tracer.in_child:
        shutil.rmtree(tracer.spool, ignore_errors=True)
    return trace


class _Observation:
    """Context manager: start on enter, fill a Trace in place on exit
    (so ``with observe() as trace: ...`` reads results after the block)."""

    __slots__ = ("trace", "memory")

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.trace = Trace()

    def __enter__(self) -> Trace:
        start(memory=self.memory)
        return self.trace

    def __exit__(self, *exc):
        finished = stop()
        self.trace.spans = finished.spans
        self.trace.metrics = finished.metrics
        self.trace.meta = finished.meta
        return False


def observe(*, memory: bool = False) -> _Observation:
    """``with observe() as trace:`` — trace the block, then read
    ``trace.spans`` / ``trace.metrics`` after it exits."""
    return _Observation(memory=memory)


# ---------------------------------------------------------------------- #
# Fork hygiene
# ---------------------------------------------------------------------- #

def _after_fork_in_child() -> None:
    tracer = _TRACER
    if tracer is None:
        return
    # Fresh buffers; the anchor and spool directory are inherited on
    # purpose (shared timeline, shared flush destination).
    tracer.in_child = True
    tracer.spans = []
    _STACK.set(())
    _metrics.reset()
    _metrics.counter_add("process.forks", 1)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
