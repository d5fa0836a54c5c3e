"""Group execution: one engine pass serving many requests.

:func:`execute_group` is the **single code path** for every engine-bound
request the server answers — a solo request is simply a group of one.
That, plus the engine's row contract (*row i of a batched pass is
bit-identical to evaluating configuration i alone*), is the whole
byte-identity argument: there is no separate fast path whose output
could drift from the slow one.

Pipeline of one group (all requests share a
:func:`~repro.serve.protocol.group_key`):

1. **Store short-circuit** — each request's canonical identity is a
   content address in the shared
   :class:`~repro.runner.store.ResultStore`; hits skip the engine
   entirely (and skip counting toward the batch).
2. **Value merge** — the missing requests' source overrides merge into
   per-source ``(batch,)`` arrays; sources a request leaves unnamed get
   their graph-default value, so row *i* is exactly request *i*'s solo
   configuration. A group with no overrides anywhere collapses to a
   single shared row.
3. **Route** — :func:`whole_stream_bytes` prices a whole-stream pass;
   over budget, the group sheds into constant-memory tiles, one call per
   request kind: runs to :func:`~repro.engine.streaming.run_streaming`
   instead of :func:`~repro.engine.executor.run_batch`, audits (with or
   without overrides) to :func:`~repro.engine.executor.audit_batch` with
   ``tile_words``/``jobs``. Both routes are bit-identical. Only plans
   with ``fsm``-domain transforms (no streaming carriers) cannot shed.
4. **Split** — per-request results are rendered from their row
   (config-independent nodes, and every entry of an override-free
   group, have one shared row) and written back to the store.

This module is synchronous and socket-free on purpose: the asyncio
server calls it on a worker thread, tests and docs call it directly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..engine.executor import audit_batch, run_batch
from ..engine.plan import ExecutionPlan
from ..engine.streaming import run_streaming
from ..exceptions import GraphCompilationError
from ..bitstream.streaming import DEFAULT_TILE_WORDS, materialized_batch_bytes
from ..obs import counter_add
from ..obs import span as obs_span
from ..runner.store import ResultStore
from .protocol import ServeRequest, words_to_b64

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "execute_group",
    "merged_values",
    "store_key",
    "whole_stream_bytes",
]

# 256 MiB for one whole-stream pass before a group sheds into tiles.
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024


def store_key(store: ResultStore, req: ServeRequest) -> str:
    """The content address of one request's deterministic result.

    Reuses the runner's shard-key scheme, so the code-relevant version
    is folded in: editing any engine source invalidates every cached
    serve response, exactly like runner shards.
    """
    return store.shard_key(
        spec="serve",
        label=req.kind,
        fn_ref=f"serve.{req.kind}",
        kwargs={
            "graph": req.graph,
            "length": req.length,
            "values": dict(req.values),
            "keep": list(req.keep) if req.keep is not None else None,
            "bits": req.bits,
            "encoding": req.encoding,
            "tolerance": req.tolerance if req.kind == "audit" else None,
        },
        seed=None,
    )


def merged_values(
    requests: List[ServeRequest], plan: ExecutionPlan
) -> Optional[Dict[str, np.ndarray]]:
    """Merge per-request source overrides into batched override arrays.

    Returns None when no request overrides anything (the whole group
    shares the graph-default single row). Otherwise every source any
    request names gets a ``(batch,)`` array whose row *i* is request
    *i*'s value — or the graph default where request *i* stayed silent —
    so each row reproduces that request's solo configuration exactly.
    """
    overridden = sorted({name for r in requests for name, _ in r.values})
    if not overridden:
        return None
    defaults = {s.name: s.value for s in plan.source_steps}
    merged: Dict[str, np.ndarray] = {}
    for name in overridden:
        merged[name] = np.array(
            [r.values_dict.get(name, defaults[name]) for r in requests],
            dtype=np.float64,
        )
    return merged


def _row(array: np.ndarray, i: int) -> int:
    """Row index of configuration ``i`` in a possibly-shared matrix
    (config-independent nodes carry one row for the whole batch)."""
    return min(i, array.shape[0] - 1)


def _render_run(run, i: int, req: ServeRequest) -> Dict[str, Any]:
    """Request ``i``'s deterministic payload from a (batched) run."""
    result: Dict[str, Any] = {
        "graph": req.graph,
        "length": req.length,
        "encoding": req.encoding,
        "values": {
            name: float(run.values(name)[_row(run.packed[name], i)])
            for name in run.names
        },
    }
    if req.bits:
        result["words"] = {
            name: words_to_b64(run.packed[name][_row(run.packed[name], i)])
            for name in run.names
        }
    return result


def _render_audit_batch(audit, i: int, req: ServeRequest) -> Dict[str, Any]:
    """Request ``i``'s deterministic payload from a (batched) audit — an
    override-free group shares its one row."""
    i = min(i, audit.batch_size - 1)
    entries = [
        {
            "node": e.node,
            "op": e.op,
            "required_scc": e.required_scc,
            "measured_scc": float(e.measured_scc[i]),
            "expected_value": float(e.expected_value[i]),
            "measured_value": float(e.measured_value[i]),
            "violated": bool(e.violated[i]),
        }
        for e in audit.entries
    ]
    return {
        "graph": req.graph,
        "length": req.length,
        "tolerance": req.tolerance,
        "entries": entries,
        "violations": sum(e["violated"] for e in entries),
    }


def whole_stream_bytes(plan: ExecutionPlan, batch: int, length: int) -> int:
    """What one whole-stream pass of ``plan`` allocates, for the shed
    decision (see :func:`~repro.bitstream.streaming.materialized_batch_bytes`)."""
    return materialized_batch_bytes(
        len(plan.steps), batch, length,
        sequences=len({(s.rng_spec, s.rng_kwargs) for s in plan.source_steps}),
        transform_groups=len({s.group for s in plan.steps if s.kind == "transform"}),
    )


def _engine_pass(
    req0: ServeRequest,
    plan: ExecutionPlan,
    values: Optional[Dict[str, np.ndarray]],
    keep: Optional[List[str]],
    tiles: Dict[str, int],
) -> Callable[[int, ServeRequest], Dict[str, Any]]:
    """The group's one engine call — whole-stream when ``tiles`` is
    empty, else constant-memory tiles of ``tiles["tile_words"]`` over
    ``tiles["jobs"]`` workers — returned as a per-row renderer."""
    if req0.kind == "run":
        runner = run_streaming if tiles else run_batch
        run = runner(
            plan, req0.length, values=values, keep=keep,
            encoding=req0.encoding, **tiles,
        )
        return lambda j, req: _render_run(run, j, req)
    audit = audit_batch(
        plan, req0.length, values=values, tolerance=req0.tolerance, **tiles
    )
    return lambda j, req: _render_audit_batch(audit, j, req)


def execute_group(
    requests: List[ServeRequest],
    plan: ExecutionPlan,
    *,
    store: Optional[ResultStore] = None,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
    stream_jobs: int = 1,
    tile_words: int = DEFAULT_TILE_WORDS,
) -> List[Dict[str, Any]]:
    """Serve one coalesced group in a single engine pass.

    Args:
        requests: requests sharing one :func:`~repro.serve.protocol.group_key`.
        plan: the compiled plan all of them target.
        store: optional shared result store — hits short-circuit the
            engine; misses are written back (atomic, last-writer-wins).
        budget_bytes: budget for one whole-stream pass
            (:func:`whole_stream_bytes`) above which the group sheds
            into constant-memory tiles.
        stream_jobs / tile_words: parameters of the shed path.

    Returns one response dict per request, in request order:
    ``{"id", "ok": True, "result", "meta": {"route", "coalesced",
    "cached"}}``. The ``result`` payloads are byte-identical (canonical
    JSON) to serving each request alone.
    """
    if not requests:
        return []
    req0 = requests[0]
    results: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    cached = [False] * len(requests)
    keys: List[Optional[str]] = [None] * len(requests)

    if store is not None:
        for i, req in enumerate(requests):
            keys[i] = store_key(store, req)
            hit = store.get(keys[i])
            if hit is not None:
                results[i] = hit
                cached[i] = True

    misses = [i for i in range(len(requests)) if results[i] is None]
    route = "store"
    if misses:
        miss_reqs = [requests[i] for i in misses]
        values = merged_values(miss_reqs, plan)
        batch = len(miss_reqs) if values is not None else 1
        shed = whole_stream_bytes(plan, batch, req0.length) > budget_bytes
        keep = list(req0.keep) if req0.keep is not None else None
        route = "streamed" if shed else "batched"
        tiles = {"tile_words": tile_words, "jobs": stream_jobs} if shed else {}
        with obs_span(
            "serve.execute",
            kind=req0.kind, graph=req0.graph, length=req0.length,
            batch=len(miss_reqs), shed=shed,
        ):
            try:
                render = _engine_pass(req0, plan, values, keep, tiles)
            except GraphCompilationError:
                if not shed:
                    raise
                # Plans with fsm-domain transforms have no streaming
                # carriers; the budget cannot reroute them, so they take
                # the whole-stream pass.
                route = "batched"
                render = _engine_pass(req0, plan, values, keep, {})
            for j, i in enumerate(misses):
                results[i] = render(j, requests[i])

        if store is not None:
            # Intra-group duplicates may write the same key twice; the
            # store's unique-temp atomic rename makes that a benign
            # last-writer-wins (both writers hold identical content).
            for i in misses:
                store.put(
                    keys[i],
                    results[i],
                    meta={"kind": requests[i].kind, "graph": requests[i].graph},
                )

    counter_add("serve.store.hit", sum(cached))
    return [
        {
            "id": req.id,
            "ok": True,
            "result": results[i],
            "meta": {
                "route": "store" if cached[i] else route,
                "coalesced": len(requests),
                "cached": cached[i],
            },
        }
        for i, req in enumerate(requests)
    ]
