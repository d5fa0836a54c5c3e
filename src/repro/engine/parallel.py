"""The span scheduler: every tiled walk runs here.

:mod:`repro.engine.streaming` hands every ``tile_words`` call here, at
any ``jobs``, and the tile sequence splits into at most ``jobs``
contiguous spans (:func:`spans_for`). FSM carriers thread state
tile-to-tile, so this module lifts the trick that erased the per-bit
loop in :mod:`repro.kernels.steppers` (compose transition functions
independently, prefix-scan to recover every entry state — Hillis &
Steele) from *bits* to *tiles*:

1. **Phase 1 — compose.** Each span but the last is walked once,
   evaluating only the sub-graph feeding the sequential transforms, and
   every transform's chunks fold into a **state map**
   (:mod:`repro.kernels.streaming` composers) — a summary of "entry
   state → exit state" for the whole span, computed *without knowing the
   entry state*. Purely combinational plans (no transform groups) skip
   this phase entirely.
2. **Phase 2 — scan.** A prefix scan over the span maps (cheap: one
   ``apply`` per span per transform group, in the parent) yields every
   span's entry state for every carrier.
3. **Phase 3 — evaluate.** Every span runs through the fused tile walk,
   seeded at its scanned entry states, writing kept words at absolute
   offsets into full-length buffers. Accumulator partials merge **in
   span order** — integer summation, so every derived float equals a
   one-span walk's.

Transforms whose inputs depend on other transforms' outputs (e.g.
``fsm_zoo``'s isolator downstream of the synchronizer) are handled by
**waves**: phase 1 repeats per dependency depth, with already-resolved
carriers evaluated at their scanned entry states while the next wave's
maps compose.

``jobs=1``, a single-tile stream and a plan with a transform that does
not compose (series compositions) are **one span**: walked in-process
from the carriers' initial states, traced as ``engine.stream`` with no
``engine.parallel.*`` span. At ``jobs > 1`` that counts
``engine.parallel.fallback.single_span`` or ``.series``.

Spans come from the **persistent pool** (:mod:`repro.engine.pool`):
long-lived forked processes that keep plan, kernel, and sequence caches
warm across calls, receive the walk plan by pickle at most once
(token-keyed worker cache), and write kept nodes' packed words straight
into parent-owned shared-memory blocks
(:class:`~repro.engine.pool.SharedSink`) instead of pickling span
buffers back. The ``os.register_at_fork`` hooks in
:mod:`repro.engine.executor` / :mod:`repro.engine.streaming` rebind
their locks in every worker, so the pool is safe to start under a
threaded parent. When the pool declines (a nested call inside a forked
worker, no ``fork`` start method, a concurrent pooled call, a plan whose
transform closures don't pickle), the same installer and span tasks run
in-process, one span after another — same code path, same bits, no
parallelism. Bit-identity of the two lanes is enforced by
``tests/helpers.assert_backends_equivalent``.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..arith._coerce import broadcast_pair
from ..bitstream.packed import unpack_bits, pack_bits_unchecked
from ..bitstream.streaming import (
    OverlapAccumulator,
    ValueAccumulator,
    tile_bounds,
    tile_count,
)
from ..kernels.streaming import make_pair_carrier, make_pair_composer
from ..obs import counter_add
from ..obs import span as obs_span
from .executor import _OP_KERNELS
from .plan import ExecutionPlan, FusedChain
from .pool import SharedSink, pool_call
from .streaming import (
    _CompiledChain,
    _expand_aliases,
    _keep_and_exposed,
    _make_carriers,
    _make_sources,
    _propagate_rows,
    _prune,
    _select_tile,
    _walk_tiles,
)

__all__ = ["plan_waves", "spans_for"]


# ---------------------------------------------------------------------- #
# Static analysis: waves and spans
# ---------------------------------------------------------------------- #

def plan_waves(plan: ExecutionPlan) -> Tuple[Dict[int, int], Dict[int, Tuple[str, ...]]]:
    """Group transform groups into dependency **waves**.

    A group's wave is the number of transform groups on its deepest
    input path: wave-0 groups read only sources/ops over sources and can
    compose their maps immediately; a wave-``w`` group's inputs need the
    scanned entry states of waves ``< w`` first. Returns
    ``(wave_of_group, group_inputs)``.
    """
    avail: Dict[str, int] = {}
    wave_of: Dict[int, int] = {}
    group_inputs: Dict[int, Tuple[str, ...]] = {}
    for s in plan.steps:
        if s.kind == "source":
            avail[s.name] = 0
        elif s.kind == "op":
            avail[s.name] = max(avail[d] for d in s.inputs)
        else:
            g = s.group
            if g not in wave_of:
                wave_of[g] = max(avail[d] for d in s.inputs)
                group_inputs[g] = s.inputs
            avail[s.name] = wave_of[g] + 1
    return wave_of, group_inputs


def _ancestors(plan: ExecutionPlan, targets: Iterable[str]) -> set:
    """Every node (targets included) on a path into ``targets``."""
    step_by_name = {s.name: s for s in plan.steps}
    needed: set = set()
    stack = list(targets)
    while stack:
        name = stack.pop()
        if name in needed:
            continue
        needed.add(name)
        stack.extend(step_by_name[name].inputs)
    return needed


def spans_for(length: int, tile_words: int, jobs: int) -> List[Tuple[int, int]]:
    """Split the tile sequence into ≤ ``jobs`` contiguous, balanced
    spans of whole tiles; returns absolute ``(start_bit, stop_bit)``
    per span (span starts are tile starts, hence word-aligned)."""
    tiles = tile_count(length, tile_words)
    k = max(1, min(jobs, tiles))
    base, extra = divmod(tiles, k)
    tile_bits = tile_words * 64
    spans: List[Tuple[int, int]] = []
    index = 0
    for i in range(k):
        count = base + (1 if i < extra else 0)
        spans.append((index * tile_bits, min((index + count) * tile_bits, length)))
        index += count
    return spans


# ---------------------------------------------------------------------- #
# Span-task context
# ---------------------------------------------------------------------- #

class _Context:
    """Everything span tasks need, built by :func:`_pool_install_ctx`."""

    __slots__ = (
        "plan", "length", "levels", "rows", "tile_words", "spans",
        "schedule", "needs_select", "keep_set", "value_nodes",
        "want_op_scc", "phase1", "carriers",
    )


# Set by the installer in a pool worker or, on the in-process lane, in
# the calling thread. Thread-local, so concurrent in-process calls (the
# serving layer's engine threads) never read each other's context.
_LOCAL = threading.local()


def _span_bounds(span: Tuple[int, int]) -> Iterator[Tuple[int, int]]:
    """The span's tiles, with absolute stream offsets."""
    start, stop = span
    return (
        (start + s, start + e)
        for s, e in tile_bounds(stop - start, _LOCAL.ctx.tile_words)
    )


def _seeded_carriers(
    groups: Iterable[int], span_start: int, entries: Dict[int, Any]
) -> Dict[int, Any]:
    ctx = _LOCAL.ctx
    carriers = {}
    group_batch = _group_batches(ctx.plan, ctx.rows)
    for g in groups:
        carrier = make_pair_carrier(
            _group_transform(ctx.plan, g), ctx.length, group_batch[g], span_start
        )
        carrier.set_state(entries[g])
        carriers[g] = carrier
    return carriers


def _group_transform(plan: ExecutionPlan, group: int):
    for s in plan.steps:
        if s.kind == "transform" and s.group == group:
            return s.transform
    raise KeyError(group)


def _group_batches(plan: ExecutionPlan, rows: Dict[str, int]) -> Dict[int, int]:
    batches: Dict[int, int] = {}
    for s in plan.steps:
        if s.kind == "transform" and s.group not in batches:
            batches[s.group] = max(rows[d] for d in s.inputs)
    return batches


def _phase1_task(
    span_index: int, wave: int, entries: Dict[int, Any]
) -> Dict[int, Any]:
    """Compose one span's state maps for every wave-``wave`` transform
    group; earlier waves' carriers run seeded at their scanned entry
    states. Returns ``{group: state_map}``."""
    # Root span in a pool worker: closing it flushes the worker's
    # buffered spans/metrics to the session spool. In-process it just
    # nests under the caller.
    with obs_span("engine.parallel.compose", span=span_index, wave=wave):
        return _phase1_compose(span_index, wave, entries)


def _phase1_compose(
    span_index: int, wave: int, entries: Dict[int, Any]
) -> Dict[int, Any]:
    ctx = _LOCAL.ctx
    info = ctx.phase1[wave]
    span = ctx.spans[span_index]
    bounds = _span_bounds(span)
    group_batch = _group_batches(ctx.plan, ctx.rows)

    sources = _make_sources(ctx.plan, ctx.levels)
    carriers = _seeded_carriers(info["carrier_groups"], span[0], entries)
    composers = {
        g: make_pair_composer(
            _group_transform(ctx.plan, g), ctx.length, group_batch[g], span[0]
        )
        for g in info["groups"]
    }
    needed = info["needed"]

    for start, stop in bounds:
        tile_len = stop - start
        select = _select_tile(start, stop) if info["needs_select"] else None
        env: Dict[str, np.ndarray] = {}
        group_out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for item in ctx.plan.steps:
            if item.kind == "source":
                if item.name in needed:
                    env[item.name] = sources[item.name].tile(start, stop)
            elif item.kind == "op":
                if item.name in needed:
                    a, b = (env[d] for d in item.inputs)
                    env[item.name] = _OP_KERNELS[item.op](a, b, select)
            else:
                g = item.group
                if g in composers:
                    if g not in group_out:
                        group_out[g] = ()
                        xw, yw = (env[d] for d in item.inputs)
                        xb = unpack_bits(xw, tile_len)
                        yb = unpack_bits(yw, tile_len)
                        xb, yb = broadcast_pair(xb, yb)
                        composers[g].step(xb, yb)
                elif g in carriers and item.name in needed:
                    if g not in group_out:
                        xw, yw = (env[d] for d in item.inputs)
                        xb = unpack_bits(xw, tile_len)
                        yb = unpack_bits(yw, tile_len)
                        xb, yb = broadcast_pair(xb, yb)
                        ox, oy = carriers[g].step(xb, yb)
                        group_out[g] = (
                            pack_bits_unchecked(ox), pack_bits_unchecked(oy)
                        )
                    env[item.name] = group_out[g][item.port]
    return {g: composers[g].state_map for g in composers}


class _SpanSink:
    """A kept node's words for one span, returned by pickle when the
    pool has no shared segments to write into."""

    __slots__ = ("words", "_w0")

    def __init__(self, rows: int, span: Tuple[int, int]) -> None:
        self._w0 = span[0] // 64
        span_words = (span[1] - span[0] + 63) // 64
        self.words = np.zeros((rows, span_words), dtype="<u8")

    def write(self, start: int, tile_words_matrix: np.ndarray) -> None:
        w = start // 64 - self._w0
        self.words[:, w : w + tile_words_matrix.shape[1]] = tile_words_matrix


def _phase3_task(
    span_index: int, entries: Dict[int, Any], sink_blocks=None
) -> Tuple[Dict[str, ValueAccumulator], Dict[str, OverlapAccumulator], Dict[str, np.ndarray]]:
    """Evaluate one of several spans, traced as
    ``engine.parallel.evaluate`` (see :func:`_phase3_evaluate`)."""
    with obs_span("engine.parallel.evaluate", span=span_index):
        return _phase3_evaluate(span_index, entries, sink_blocks)


def _phase3_evaluate(
    span_index: int, entries: Dict[int, Any], sink_blocks=None
) -> Tuple[Dict[str, ValueAccumulator], Dict[str, OverlapAccumulator], Dict[str, np.ndarray]]:
    """Walk one span from its scanned entry states (one span walks the
    caller's own carriers); return its accumulator partials. Kept words
    go to ``sink_blocks``' full-length buffers (segment descriptors when
    pooled, arrays in-process), or back as span buffers when ``None``
    (a pool without segments)."""
    ctx = _LOCAL.ctx
    span = ctx.spans[span_index]
    carriers = ctx.carriers
    if carriers is None:
        carriers = _seeded_carriers(
            set(s.group for s in ctx.plan.steps if s.kind == "transform"),
            span[0], entries,
        )
    vacc = {name: ValueAccumulator(ctx.length) for name in ctx.value_nodes}
    sccacc: Dict[str, OverlapAccumulator] = {}
    if ctx.want_op_scc:
        sccacc = {
            s.name: OverlapAccumulator(ctx.length)
            for s in ctx.plan.steps if s.kind == "op"
        }
    if sink_blocks is None:
        sinks: Dict[str, Any] = {
            name: _SpanSink(ctx.rows[name], span) for name in ctx.keep_set
        }
    else:
        # Spans partition the word range, so every span writes its
        # slice of the shared buffer race-free.
        sinks = {name: SharedSink(sink_blocks[name]) for name in ctx.keep_set}
    schedule = [
        _CompiledChain(item, ctx.rows) if isinstance(item, FusedChain) else item
        for item in ctx.schedule
    ]
    _walk_tiles(
        schedule, _make_sources(ctx.plan, ctx.levels), carriers,
        _span_bounds(span), needs_select=ctx.needs_select, vacc=vacc,
        sccacc=sccacc, writers=sinks,
    )
    if sink_blocks is None:
        return vacc, sccacc, {name: sink.words for name, sink in sinks.items()}
    return vacc, sccacc, {}


# ---------------------------------------------------------------------- #
# Pool plumbing
# ---------------------------------------------------------------------- #

def _pool_install_ctx(plan: Optional[ExecutionPlan], payload: Optional[dict],
                      schedule: Optional[list] = None, carriers=None) -> None:
    """Span-task installer: build the context from the walk plan (the
    token-cached pickle in a pool worker, the live object in-process)
    plus the per-call payload. ``(None, None)`` clears it at call end.
    A pool worker recomputes the (deterministic) fused schedule from
    ``exposed``; in-process the caller passes its own ``schedule`` and,
    for one span, its ``carriers``."""
    if plan is None:
        _LOCAL.ctx = None
        return
    ctx = _Context()
    ctx.plan = plan
    ctx.length = payload["length"]
    ctx.levels = payload["levels"]
    ctx.rows = payload["rows"]
    ctx.tile_words = payload["tile_words"]
    ctx.spans = payload["spans"]
    ctx.schedule = (
        plan.fused_schedule(payload["exposed"]) if schedule is None else schedule
    )
    ctx.needs_select = payload["needs_select"]
    ctx.keep_set = payload["keep_set"]
    ctx.value_nodes = payload["value_nodes"]
    ctx.want_op_scc = payload["want_op_scc"]
    ctx.phase1 = payload["phase1"]
    ctx.carriers = carriers
    _LOCAL.ctx = ctx


def _run_phases(run_tasks, compose, evaluate, spans, phase1, algebra,
                initial_state, *evaluate_args) -> List[Any]:
    """Drive phases 1–3 through ``run_tasks(task_fn, arglists)`` — the
    engine's and the image accelerator's lanes all share this loop, so
    the scan arithmetic (and therefore the bits) cannot diverge.

    ``phase1`` maps each wave to the ``"groups"`` that
    ``compose(span, wave, entries)`` folds into ``{group: state_map}``
    and the earlier ``"carrier_groups"`` it replays from ``entries``.
    Phase 1 composes every span but the last: the last span's map would
    only yield the stream's exit state, which nothing reads. Phase 3
    returns ``evaluate(span, entries, *evaluate_args)`` in span order."""
    span_entries: List[Dict[int, Any]] = [dict() for _ in spans]
    for w, info in phase1.items():
        tasks = [
            (i, w, {g: span_entries[i][g] for g in info["carrier_groups"]})
            for i in range(len(spans) - 1)
        ]
        span_maps = run_tasks(compose, tasks)
        with obs_span("engine.parallel.scan", wave=w, spans=len(spans)):
            for g in info["groups"]:
                state = initial_state[g]
                span_entries[0][g] = state
                for i, maps in enumerate(span_maps, start=1):
                    state = algebra[g].apply(maps[g], state)
                    span_entries[i][g] = state
    return run_tasks(
        evaluate,
        [(i, span_entries[i], *evaluate_args) for i in range(len(spans))],
    )


def _composers(plan: ExecutionPlan, length: int, rows: Dict[str, int]):
    """Every transform group's state-map composer (the scan's algebra),
    or ``None`` when one does not compose (series compositions)."""
    composers: Dict[int, Any] = {}
    for s in plan.steps:
        if s.kind != "transform" or s.group in composers:
            continue
        batch = max(rows[d] for d in s.inputs)
        composer = make_pair_composer(s.transform, length, batch)
        if composer is None:
            return None
        composers[s.group] = composer
    return composers


def _phase1_prescription(plan: ExecutionPlan) -> Dict[int, dict]:
    """Per wave, in order: which groups compose, which earlier carriers
    must run, and the sub-graph feeding them."""
    wave_of, group_inputs = plan_waves(plan)
    step_port_names = {
        (s.group, s.port): s.name for s in plan.steps if s.kind == "transform"
    }
    phase1: Dict[int, dict] = {}
    for w in sorted(set(wave_of.values())):
        wave_groups = [g for g, wv in wave_of.items() if wv == w]
        targets = set()
        for g in wave_groups:
            targets.update(group_inputs[g])
        needed = _ancestors(plan, targets)
        carrier_groups = [
            g for g, wv in wave_of.items()
            if wv < w and any(
                step_port_names[(g, p)] in needed for p in (0, 1)
            )
        ]
        phase1[w] = {
            "groups": wave_groups,
            "carrier_groups": carrier_groups,
            "needed": needed,
            "needs_select": any(
                s.kind == "op" and s.op == "scaled_add" and s.name in needed
                for s in plan.steps
            ),
        }
    return phase1


# ---------------------------------------------------------------------- #
# The span scheduler
# ---------------------------------------------------------------------- #

def _parallel_stream_execute(
    plan: ExecutionPlan,
    length: int,
    *,
    levels: Dict[str, np.ndarray],
    keep,
    tile_words: int,
    fuse: bool,
    want_values_all: bool,
    want_op_scc: bool,
    jobs: int,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], Dict[str, np.ndarray], int]:
    """Every tiled walk: :func:`repro.engine.streaming._execute` for
    ``tile_words`` calls, with its return tuple. One span walks
    in-process, traced as ``engine.stream``; several spans run the three
    phases on the pool, or in-process when the pool declines."""
    # Optimizer integration: pick the optimized schedule (or its raw
    # twin when overrides split a source merge), resolve keep names to
    # schedule representatives, prune to the keep cone for words-only
    # calls, and expand aliases back at the end. Span tasks only ever
    # see the walk plan.
    src_plan = plan
    exec_plan = plan.for_execution(levels)
    rows = _propagate_rows(exec_plan, levels)
    spans = spans_for(length, tile_words, jobs)
    algebra = _composers(exec_plan, length, rows) if len(spans) > 1 else None
    if jobs > 1 and algebra is None:
        # Silent by results, loud in `repro stats`.
        counter_add("engine.parallel.fallback")
        counter_add("engine.parallel.fallback."
                    + ("series" if len(spans) > 1 else "single_span"))
        spans = [(0, length)]
    one_span = algebra is None

    with (
        obs_span("engine.stream", length=length, tile_words=tile_words)
        if one_span else contextlib.nullcontext()
    ):
        # Carriers are built for the *unpruned* schedule, before any
        # dead-node elimination: a transform without a streaming carrier
        # must be rejected whether or not the caller's keep set reaches
        # it. One span walks them; several spans scan from their states.
        carriers = _make_carriers(exec_plan, length, rows)
        keep_sem, keep_set, value_sem, value_nodes, exposed = _keep_and_exposed(
            src_plan, exec_plan, keep, want_values_all, want_op_scc
        )
        plan = _prune(exec_plan, keep, keep_set, want_values_all, want_op_scc)
        schedule = plan.fused_schedule(exposed if fuse else None)
        phase1: Dict[int, dict] = {}
        initial_state: Dict[int, Any] = {}
        if not one_span:
            phase1 = _phase1_prescription(plan)
            initial_state = {g: c.get_state() for g, c in carriers.items()}
            counter_add("engine.parallel.spans", len(spans))
        payload = {
            "length": length, "levels": levels, "rows": rows,
            "tile_words": tile_words, "spans": spans,
            "exposed": exposed if fuse else None,
            "needs_select": any(
                s.op == "scaled_add" for s in plan.steps if s.kind == "op"
            ),
            "keep_set": keep_set, "value_nodes": value_nodes,
            "want_op_scc": want_op_scc, "phase1": phase1,
        }
        total_words = (length + 63) // 64

        # Persistent pool: the walk plan is the token-cached context
        # (pickled to each warm worker at most once); the payload carries
        # everything else, with the fused schedule recomputed worker-side
        # from `exposed`. Kept nodes get full-length shared blocks that
        # span workers fill in place — the zero-copy hand-off.
        results: Optional[List[tuple]] = None
        with pool_call(
            len(spans), context=plan,
            installer="repro.engine.parallel:_pool_install_ctx",
            payload=payload,
        ) as call:
            if call is not None:
                counter_add("engine.parallel.pooled")
                views: Dict[str, np.ndarray] = {}
                blocks: Optional[Dict[str, Any]] = {}
                for name in keep_set:
                    views[name], blocks[name] = call.arena.empty(
                        (rows[name], total_words), "<u8"
                    )
                if any(desc is None for desc in blocks.values()):
                    blocks = None  # no segments: span buffers by pickle
                results = _run_phases(
                    lambda fn, arglists: call.map(
                        "repro.engine.parallel:" + fn.__name__, arglists
                    ),
                    _phase1_task, _phase3_task, spans, phase1, algebra,
                    initial_state, blocks,
                )
                # Copy kept words out before the call ends and its
                # segments return to the free list for reuse.
                kept = {name: np.array(view) for name, view in views.items()}

        # In-process lane (one span, or the pool declined): the same
        # installer and span tasks, run here one span after another,
        # writing kept words straight into the result buffers.
        if results is None:
            kept = {
                name: np.zeros((rows[name], total_words), dtype="<u8")
                for name in keep_set
            }
            _pool_install_ctx(
                plan, payload, schedule, carriers if one_span else None
            )
            try:
                results = _run_phases(
                    lambda fn, arglists: [fn(*args) for args in arglists],
                    _phase1_task,
                    _phase3_evaluate if one_span else _phase3_task,
                    spans, phase1, algebra, initial_state, kept,
                )
            finally:
                _pool_install_ctx(None, None)

        # Ordered merge: accumulator partials sum span by span onto the
        # first span's (integer addition — the totals are one walk's
        # totals); span buffers land at their spans' word offsets.
        vacc, sccacc, _ = results[0]
        for span_vacc, span_sccacc, _ in results[1:]:
            for name, acc in span_vacc.items():
                vacc[name].merge(acc)
            for name, acc in span_sccacc.items():
                sccacc[name].merge(acc)
        for span, (_, _, span_words) in zip(spans, results):
            w0 = span[0] // 64
            for name, words in span_words.items():
                kept[name][:, w0 : w0 + words.shape[1]] = words

        kept = {name: kept[name] for name in plan.node_order if name in kept}
        ones = {name: acc.ones for name, acc in vacc.items()}
        op_scc = {name: acc.scc() for name, acc in sccacc.items()}
        kept, ones, op_scc = _expand_aliases(
            src_plan, exec_plan, kept, ones, op_scc, keep_sem, value_sem
        )
        fused_chains = sum(1 for item in schedule if isinstance(item, FusedChain))
        return kept, ones, op_scc, fused_chains
