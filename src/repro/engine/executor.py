"""Batched packed-domain evaluation of compiled execution plans.

One :func:`run_batch` call evaluates a plan against a whole *batch of
input configurations* at once: every source becomes a ``(batch, words)``
uint64 matrix (comparator D/S conversion vectorised over the batch, then
``np.packbits``), every combinational operator is a word-parallel gate,
and only the sequential steps unpack — process — repack at the
boundaries the plan marked. Sequential steps in the ``kernel`` domain
stay batched *and* time-parallel: their ``_process_bits`` dispatches to
the compiled transition-table / gather kernels of :mod:`repro.kernels`,
so no per-bit python loop runs anywhere in the schedule; ``fsm``-domain
steps fall back to the per-cycle reference loop. A 1k-point design sweep
is therefore one engine call instead of 1k graph interpretations.

This module holds the batch entry points, their result types, override
resolution, and the memoised comparator sequences. It has no walk of its
own: the schedule runs through :func:`repro.engine.streaming._walk_tiles`
as **one tile spanning the whole stream** (see
:func:`repro.engine.streaming._execute`).

Bit-exactness contract: for any graph the engine accepts,

* ``run(plan, n)`` returns streams **bit-identical** to
  ``SCGraph.run(n, backend="interpreter")``;
* ``audit(plan, n)`` returns a :class:`~repro.graph.graph.GraphAudit`
  whose entries are **float-identical** to the interpreter's (the packed
  overlap kernels in :mod:`repro.bitstream.metrics` produce the same
  integer counts, hence the same SCC floats, and popcount values equal
  byte-sum means).

``tests/test_engine.py`` enforces both across odd lengths, both
encodings, and every FSM node type.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .._validation import check_jobs, check_stream_length, check_tile_words
from ..bitstream.encoding import Encoding, ones_to_value
from ..bitstream.metrics import popcount_words
from ..bitstream.packed import (
    PackedBitstreamBatch,
    pack_bits_unchecked,
    unpack_bits,
    words_per_stream,
)
from ..exceptions import GraphCompilationError
from ..graph.graph import AuditEntry, GraphAudit
from ..graph.nodes import OP_LIBRARY
from ..obs import counter_add
from ..rng import make_rng
from ..rng.factory import _builder_kwargs
from .plan import ExecutionPlan

__all__ = [
    "EngineRun",
    "BatchAuditEntry",
    "BatchAudit",
    "run",
    "run_batch",
    "audit",
    "audit_batch",
    "mux_words",
    "clear_sequence_cache",
]

# ---------------------------------------------------------------------- #
# Shared-sequence memo (deterministic, so caching is free speedup for
# the audit -> splice -> re-audit loop, which replays the same RNGs).
#
# The memo is module-level and therefore shared by every thread that
# evaluates plans in one process; all mutation happens under _SEQ_LOCK so
# a concurrent eviction can never leave a half-written dict behind. The
# cached arrays themselves are safe to share (treated as read-only by
# every consumer). Forked worker processes inherit a snapshot of the
# parent's cache *and lock*; the ``os.register_at_fork`` hook below
# rebinds a fresh lock and drops the memo in every child, so a fork
# taken while a parent thread held the lock can never deadlock a worker.
# It is bounded in bytes (an int64 sequence is 32 MiB at N = 2^22):
# least-recently-used entries go first, a sequence larger than the cap is
# never stored, and evictions are counted.
# ---------------------------------------------------------------------- #

_SEQ_CACHE_BYTES = 64 << 20
_SEQ_LOCK = threading.Lock()
_SEQ_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_seq_cache_nbytes = 0


def _reinit_after_fork() -> None:
    # A forked child inherits _SEQ_LOCK in whatever state some parent
    # thread left it — possibly held by a thread that does not exist in
    # the child, where acquiring it would deadlock forever. Rebind a
    # fresh lock and drop the memo (a pure cache; losing it costs one
    # regeneration).
    global _SEQ_LOCK, _seq_cache_nbytes
    _SEQ_LOCK = threading.Lock()
    _SEQ_CACHE.clear()
    _seq_cache_nbytes = 0


if hasattr(os, "register_at_fork"):  # not on Windows (spawn starts clean)
    os.register_at_fork(after_in_child=_reinit_after_fork)


def _rng_sequence(spec: str, kwargs: Tuple[Tuple[str, object], ...], length: int) -> np.ndarray:
    global _seq_cache_nbytes
    # Keyed on what the factory builds from, which folds in the ambient
    # seed: a long-lived process sees calls under different seeds.
    args = _builder_kwargs(spec, **dict(kwargs))
    key = (spec, tuple(args.items()), length)
    with _SEQ_LOCK:
        seq = _SEQ_CACHE.get(key)
        if seq is not None:
            _SEQ_CACHE.move_to_end(key)
    if seq is not None:
        counter_add("engine.seq_memo.hit")
        return seq
    counter_add("engine.seq_memo.miss")
    # Generation runs outside the lock (it can be slow); a racing thread
    # may generate the same sequence twice, but both results are
    # identical, so the first stored copy wins.
    seq = make_rng(spec, **args).sequence(length)
    evicted = 0
    with _SEQ_LOCK:
        if key not in _SEQ_CACHE and seq.nbytes <= _SEQ_CACHE_BYTES:
            while _seq_cache_nbytes + seq.nbytes > _SEQ_CACHE_BYTES:
                _seq_cache_nbytes -= _SEQ_CACHE.popitem(last=False)[1].nbytes
                evicted += 1
            _SEQ_CACHE[key] = seq
            _seq_cache_nbytes += seq.nbytes
    if evicted:
        counter_add("engine.seq_memo.evict", evicted)
    return seq


def clear_sequence_cache() -> None:
    """Drop the memoised RNG sequences and select tiles.

    Exposed as :func:`repro.engine.clear_sequence_cache` (test isolation
    hook; forked workers are reset automatically by the at-fork hook)."""
    global _seq_cache_nbytes
    with _SEQ_LOCK:
        _SEQ_CACHE.clear()
        _seq_cache_nbytes = 0
    from .streaming import clear_select_tile_cache
    clear_select_tile_cache()


# ---------------------------------------------------------------------- #
# Word-domain operator kernels (one entry per OP_LIBRARY op)
# ---------------------------------------------------------------------- #

def mux_words(select: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Word-domain 2:1 mux: emits ``y`` where select=1, else ``x``.

    Tail bits stay zero: the select's tail is zero, so the tail takes
    ``x``'s (zero) tail bits — same argument as
    :meth:`PackedBitstreamBatch.mux`. Public because the image pipeline's
    engine-routed detector reuses it on raw word matrices.
    """
    return (select & y) | (~select & x)


_OP_KERNELS = {
    "mul": lambda a, b, sel: a & b,
    "sat_add": lambda a, b, sel: a | b,
    "sub": lambda a, b, sel: a ^ b,
    "max": lambda a, b, sel: a | b,
    "min": lambda a, b, sel: a & b,
    "scaled_add": lambda a, b, sel: mux_words(sel, a, b),
}

# Source comparator packing works through (rows, chunk-bits) boolean
# transients of at most this many words per chunk — a full (rows, N)
# bit matrix is 8x the size of the packed result and dominates peak
# memory at large N. Chunks are word-aligned, so chunked packing is
# byte-identical to one-shot packing.
_SOURCE_CHUNK_WORDS = 128


def _pack_source_chunked(
    out: np.ndarray, lv: np.ndarray, seq: np.ndarray, length: int
) -> None:
    col = lv[:, None]
    chunk_bits = _SOURCE_CHUNK_WORDS * 64
    for start in range(0, length, chunk_bits):
        stop = min(start + chunk_bits, length)
        w0 = start // 64
        out[:, w0 : w0 + words_per_stream(stop - start)] = pack_bits_unchecked(
            col > seq[None, start:stop]
        )


def _batch_expected(op: str, inputs: List[np.ndarray]) -> np.ndarray:
    """Vectorised exact semantics (the scalar OP_LIBRARY ``expected``
    entries use python ``min``/``max``/``abs``, which reject arrays)."""
    fn = OP_LIBRARY[op].get("expected_batch")
    if fn is not None:
        return fn(inputs)
    return OP_LIBRARY[op]["expected"](inputs)


# ---------------------------------------------------------------------- #
# Batch override resolution
# ---------------------------------------------------------------------- #

def _resolve_levels(
    plan: ExecutionPlan,
    length: int,
    values: Optional[Dict[str, Union[float, np.ndarray]]],
    levels: Optional[Dict[str, Union[int, np.ndarray]]],
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], int]:
    """Per-source binary levels and nominal float values.

    Returns ``(levels, nominal_values, batch_size)`` where each entry is
    a 1-D int64/float64 array of size 1 (configuration-independent) or
    the common batch size.
    """
    values = dict(values or {})
    levels = dict(levels or {})
    sources = set(plan.source_names)
    for key in set(values) | set(levels):
        if key not in sources:
            raise GraphCompilationError(f"override for unknown source {key!r}")
        if key in values and key in levels:
            raise GraphCompilationError(
                f"source {key!r} given both a value and a level override"
            )

    resolved_levels: Dict[str, np.ndarray] = {}
    nominal: Dict[str, np.ndarray] = {}
    batch = 1
    # source_steps covers the *source graph* (on an optimized plan that
    # includes merged-away sources), so every name a caller can override
    # resolves — and for_execution can compare merged classes member by
    # member.
    for step in plan.source_steps:
        name = step.name
        if name in levels:
            lv = np.atleast_1d(np.asarray(levels[name]))
            if not np.issubdtype(lv.dtype, np.integer):
                raise GraphCompilationError(
                    f"level override for {name!r} must be integer, got {lv.dtype}"
                )
            lv = lv.astype(np.int64)
            if lv.size and (lv.min() < 0 or lv.max() > length):
                raise GraphCompilationError(
                    f"level override for {name!r} must lie in [0, {length}]"
                )
            val = lv / float(length)
        else:
            v = np.atleast_1d(np.asarray(values.get(name, step.value), dtype=np.float64))
            # Written so NaN fails too (NaN comparisons are all False).
            if not np.all((v >= 0.0) & (v <= 1.0)):
                raise GraphCompilationError(
                    f"value override for {name!r} must lie in [0, 1]"
                )
            # Same rounding as SourceNode.emit's int(round(value * length)):
            # np.rint and python round() are both IEEE round-half-even.
            lv = np.rint(v * length).astype(np.int64)
            val = v
        if lv.ndim != 1:
            raise GraphCompilationError(
                f"override for {name!r} must be a scalar or 1-D array"
            )
        if lv.size > 1:
            if batch > 1 and lv.size != batch:
                raise GraphCompilationError(
                    f"override batch sizes disagree ({batch} vs {lv.size})"
                )
            batch = int(lv.size)
        resolved_levels[name] = lv
        nominal[name] = np.asarray(val, dtype=np.float64)
    return resolved_levels, nominal, batch


# ---------------------------------------------------------------------- #
# Audit rendering (shared with the streaming auditor)
# ---------------------------------------------------------------------- #

def _graph_audit(
    plan: ExecutionPlan,
    length: int,
    ones: Dict[str, np.ndarray],
    op_scc: Dict[str, np.ndarray],
    tolerance: float,
) -> GraphAudit:
    """A default-configuration :class:`GraphAudit` from a walk's
    accumulated 1-counts and per-op SCC (row 0) — the one rendering
    behind :func:`audit` and
    :func:`~repro.engine.streaming.audit_streaming`."""
    expected = plan.expected_values()
    values = {
        name: float(ones[name][0]) / float(length) for name in plan.semantic_order
    }
    entries: List[AuditEntry] = []
    for step in plan.semantic_steps:
        if step.kind != "op":
            continue
        required = OP_LIBRARY[step.op]["required"]
        measured = float(op_scc[step.name][0])
        violated = required is not None and abs(measured - required) > tolerance
        entries.append(
            AuditEntry(
                node=step.name,
                op=step.op,
                required_scc=required,
                measured_scc=measured,
                expected_value=expected[step.name],
                measured_value=values[step.name],
                violated=violated,
            )
        )
    return GraphAudit(entries=entries, values=values, expected=expected)


# ---------------------------------------------------------------------- #
# Public entry points
# ---------------------------------------------------------------------- #

@dataclass
class EngineRun:
    """Result of one batched engine evaluation.

    ``packed`` maps node name → ``(rows, words)`` uint64 matrix, where
    ``rows`` is 1 for configuration-independent nodes and ``batch_size``
    for nodes downstream of an overridden source.
    """

    length: int
    batch_size: int
    encoding: Encoding
    packed: Dict[str, np.ndarray]

    @property
    def names(self) -> List[str]:
        return list(self.packed)

    def words(self, name: str) -> np.ndarray:
        return self.packed[name]

    def stream_batch(self, name: str) -> PackedBitstreamBatch:
        """One node's streams as a :class:`PackedBitstreamBatch`."""
        return PackedBitstreamBatch(self.packed[name], self.length, self.encoding)

    def bits(self, name: str) -> np.ndarray:
        """One node's streams unpacked to a ``(rows, length)`` uint8 matrix."""
        return unpack_bits(self.packed[name], self.length)

    def values(self, name: str) -> np.ndarray:
        """Per-configuration encoded values of one node."""
        return ones_to_value(
            popcount_words(self.packed[name]), self.length, self.encoding
        )


def run_batch(
    plan: ExecutionPlan,
    length: int = 256,
    *,
    values: Optional[Dict[str, Union[float, np.ndarray]]] = None,
    levels: Optional[Dict[str, Union[int, np.ndarray]]] = None,
    keep: Optional[Iterable[str]] = None,
    encoding: Union[Encoding, str] = Encoding.UNIPOLAR,
) -> EngineRun:
    """Evaluate one plan against a batch of input configurations.

    Args:
        plan: a compiled :class:`ExecutionPlan`.
        length: stream length N.
        values: per-source value overrides — scalar or ``(batch,)``
            float arrays in [0, 1]; sources not named keep their graph
            value. Row ``i`` of the result is bit-identical to
            interpreting the graph with configuration ``i``.
        levels: per-source *binary level* overrides (integers compared
            directly against the RNG sequence); mutually exclusive with
            ``values`` per source.
        keep: node names whose streams to retain (default: all).
            Intermediate buffers are freed at their last use.
        encoding: value interpretation of the returned streams.
    """
    from .streaming import _execute

    check_stream_length(length)
    resolved, _, batch = _resolve_levels(plan, length, values, levels)
    kept, _, _, _ = _execute(plan, length, levels=resolved, keep=keep)
    return EngineRun(
        length=length,
        batch_size=batch,
        encoding=Encoding.coerce(encoding),
        packed=kept,
    )


def run(plan: ExecutionPlan, length: int = 256) -> Dict[str, np.ndarray]:
    """Single-configuration evaluation, interpreter-shaped output:
    name → ``(length,)`` uint8 bit array, bit-identical to
    ``SCGraph.run(length, backend="interpreter")``."""
    result = run_batch(plan, length)
    return {name: result.bits(name)[0] for name in plan.semantic_order}


def audit(plan: ExecutionPlan, length: int = 256, *, tolerance: float = 0.35) -> GraphAudit:
    """Engine-backed audit, float-identical to the interpreter's.

    Per-op SCC comes from the packed overlap counts (the same integers
    as the unpacked kernel), values from popcounts.
    """
    from .streaming import _execute

    check_stream_length(length)
    resolved, _, _ = _resolve_levels(plan, length, None, None)
    _, ones, op_scc, _ = _execute(
        plan, length, levels=resolved, keep=(),
        want_values_all=True, want_op_scc=True,
    )
    return _graph_audit(plan, length, ones, op_scc, tolerance)


@dataclass(frozen=True)
class BatchAuditEntry:
    """Vectorised audit record for one operator across a config batch."""

    node: str
    op: str
    required_scc: Optional[float]
    measured_scc: np.ndarray      # (batch,)
    expected_value: np.ndarray    # (batch,)
    measured_value: np.ndarray    # (batch,)
    violated: np.ndarray          # (batch,) bool

    @property
    def value_error(self) -> np.ndarray:
        return np.abs(self.measured_value - self.expected_value)

    @property
    def violation_rate(self) -> float:
        return float(np.mean(self.violated))


@dataclass
class BatchAudit:
    """Full-graph audit across a batch of input configurations."""

    entries: List[BatchAuditEntry]
    values: Dict[str, np.ndarray]
    expected: Dict[str, np.ndarray]
    batch_size: int

    def entry(self, node: str) -> BatchAuditEntry:
        for e in self.entries:
            if e.node == node:
                return e
        raise KeyError(node)

    def mean_value_error(self, node: str) -> float:
        return float(np.mean(np.abs(self.values[node] - self.expected[node])))


def _expected_batch(plan: ExecutionPlan, nominal: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    expected: Dict[str, np.ndarray] = {}
    for step in plan.semantic_steps:
        if step.kind == "source":
            expected[step.name] = nominal[step.name]
        elif step.kind == "op":
            expected[step.name] = np.asarray(
                _batch_expected(step.op, [expected[d] for d in step.inputs]),
                dtype=np.float64,
            )
        else:
            expected[step.name] = expected[step.inputs[step.port]]
    return expected


def audit_batch(
    plan: ExecutionPlan,
    length: int = 256,
    *,
    values: Optional[Dict[str, Union[float, np.ndarray]]] = None,
    levels: Optional[Dict[str, Union[int, np.ndarray]]] = None,
    tolerance: float = 0.35,
    tile_words: Optional[int] = None,
    jobs: int = 1,
) -> BatchAudit:
    """Audit a whole configuration batch in one pass.

    Row ``i`` of every entry equals the interpreter's scalar audit of
    configuration ``i``; the SCC measurements run through the packed
    overlap kernels once per operator instead of once per (operator,
    configuration) pair.

    ``tile_words`` and ``jobs`` take the meaning they have in
    :func:`~repro.engine.streaming.audit_streaming`. The default
    (``None``) walks one tile spanning the whole stream; a tile size
    walks constant-memory tiles instead — float-identical, because the
    accumulated integer counts are the whole-stream counts — and
    ``jobs > 1`` spreads those tiles over the parallel scheduler. Plans
    with ``fsm``-domain transforms have no streaming carriers and run
    only as a whole-stream tile.
    """
    from .streaming import _execute

    check_stream_length(length)
    if tile_words is not None:
        check_tile_words(tile_words)
    check_jobs(jobs)
    resolved, nominal, batch = _resolve_levels(plan, length, values, levels)
    _, ones, op_scc, _ = _execute(
        plan, length, levels=resolved, keep=(),
        want_values_all=True, want_op_scc=True, tile_words=tile_words, jobs=jobs,
    )
    node_values = {name: ones[name] / float(length) for name in plan.semantic_order}
    expected = _expected_batch(plan, nominal)
    # .copy(): np.broadcast_to returns read-only views, and callers get
    # writable arrays from every other analysis API in the repo.
    broadcast = lambda a: np.broadcast_to(np.atleast_1d(a), (batch,)).copy()  # noqa: E731
    entries: List[BatchAuditEntry] = []
    for step in plan.semantic_steps:
        if step.kind != "op":
            continue
        required = OP_LIBRARY[step.op]["required"]
        measured = broadcast(op_scc[step.name])
        if required is None:
            violated = np.zeros(batch, dtype=bool)
        else:
            violated = np.abs(measured - required) > tolerance
        entries.append(
            BatchAuditEntry(
                node=step.name,
                op=step.op,
                required_scc=required,
                measured_scc=measured,
                expected_value=broadcast(expected[step.name]),
                measured_value=broadcast(node_values[step.name]),
                violated=violated,
            )
        )
    return BatchAudit(
        entries=entries,
        values={k: broadcast(v) for k, v in node_values.items()},
        expected={k: broadcast(v) for k, v in expected.items()},
        batch_size=batch,
    )
