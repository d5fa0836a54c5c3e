"""The asyncio micro-batching server.

One event loop owns all connections and the micro-batch state; engine
passes run on a small thread pool (the engine releases the GIL inside
numpy kernels, and the plan cache / executor memos are lock-protected,
so concurrent groups are safe). Per group-key the lifecycle is:

* first request **opens a window** (``loop.call_later(window_ms)``),
* subsequent requests with the same key pile into the group,
* the group **flushes** when the window timer fires or the group hits
  ``max_batch`` — whichever comes first — into one
  :func:`~repro.serve.batcher.execute_group` call,
* each caller's future resolves with its own split-out response.

Requests are fully validated *before* joining a group (unknown graph,
unknown source, out-of-range value, unknown keep name → an immediate
error response), so a malformed request can never fail the batched pass
its neighbours are riding in.

Observability: the server opens an obs session if none is active and
spools deltas to ``<store>/obs/serve-<pid>.jsonl`` after every group
(:func:`repro.obs.drain_spool`), so ``repro stats --store <root>``
aggregates serving counters across connections and server restarts.
Counters mirror into a plain dict served by the ``stats`` request —
drains never zero the client-visible numbers.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from .. import obs
from ..engine.library import GRAPH_LIBRARY, build_graph
from ..engine.plan import ExecutionPlan, compile_graph
from ..engine.pool import shutdown_pool
from ..bitstream.streaming import DEFAULT_TILE_WORDS
from ..runner.scheduler import run_spec
from ..runner.store import ResultStore
from .batcher import DEFAULT_BUDGET_BYTES, execute_group
from .protocol import (
    _MAX_LINE,
    ENGINE_KINDS,
    ProtocolError,
    ServeRequest,
    decode_line,
    encode_line,
    group_key,
    parse_request,
)

__all__ = ["ServeConfig", "SCServer", "ServerThread", "serve_forever"]


@dataclass
class ServeConfig:
    """Tunables of one server instance.

    ``window_ms`` in the 2–10 ms band trades a small first-request
    latency bump for large coalescing wins under concurrency;
    ``window_ms=0`` with ``max_batch=1`` disables coalescing entirely
    (the benchmark's control arm). ``store_root`` enables both the
    content-addressed response cache and the obs spool directory.
    """

    host: str = "127.0.0.1"
    port: int = 0
    window_ms: float = 3.0
    max_batch: int = 32
    budget_bytes: int = DEFAULT_BUDGET_BYTES
    stream_jobs: int = 1
    tile_words: int = DEFAULT_TILE_WORDS
    store_root: Optional[str] = None
    workers: int = 1


class SCServer:
    """Micro-batching TCP front-end over the engine (see module doc)."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.port: Optional[int] = None
        self.counters: Dict[str, int] = {
            "serve.requests": 0,
            "serve.responses": 0,
            "serve.errors": 0,
            "serve.groups": 0,
            "serve.coalesce.batched": 0,
            "serve.coalesce.solo": 0,
        }
        self._store = (
            ResultStore(self.config.store_root)
            if self.config.store_root is not None else None
        )
        self._spool = (
            str(self._store.root / "obs" / f"serve-{os.getpid()}.jsonl")
            if self._store is not None else None
        )
        self._plans: Dict[str, ExecutionPlan] = {}
        # group key -> [(request, future, enqueue_perf_counter)]
        self._groups: Dict[tuple, List[Tuple[ServeRequest, asyncio.Future, float]]] = {}
        self._timers: Dict[tuple, asyncio.TimerHandle] = {}
        self._tasks: set = set()
        self._pending = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._stopped = asyncio.Event()
        self._owns_obs = False
        self._started_at = time.perf_counter()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        if not obs.enabled():
            obs.start()
            self._owns_obs = True
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="serve-engine",
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=_MAX_LINE,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.perf_counter()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    def request_shutdown(self) -> None:
        self._stopped.set()

    async def close(self) -> None:
        """Flush every open window, finish in-flight groups, tear down.

        Idempotent: a second ``close`` (double-``shutdown`` request, or a
        signal racing a client shutdown) finds every handle already
        ``None`` and returns quietly. Drains both execution runtimes —
        the engine thread pool and the persistent process pool
        (:func:`repro.engine.pool.shutdown_pool`, itself idempotent; the
        shed path's ``run_streaming(jobs=...)`` starts a fresh one lazily
        if the server keeps running)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for key in list(self._groups):
            self._flush(key)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        shutdown_pool()
        self._drain_obs()
        if self._owns_obs:
            obs.stop()
            self._owns_obs = False

    # ------------------------------------------------------------------ #
    # request validation and plan resolution
    # ------------------------------------------------------------------ #

    def _plan_for(self, graph: str) -> ExecutionPlan:
        """The compiled plan for a library graph.

        Plans are kept per name so that a request costs one dict lookup:
        resolving it through the shared plan cache would build the graph
        and hash its structural signature on every request.
        """
        plan = self._plans.get(graph)
        if plan is None:
            plan = compile_graph(build_graph(graph))
            self._plans[graph] = plan
        return plan

    def _validate(self, req: ServeRequest) -> ExecutionPlan:
        if req.graph not in GRAPH_LIBRARY:
            raise ProtocolError(
                f"unknown graph {req.graph!r}; "
                f"available: {', '.join(sorted(GRAPH_LIBRARY))}"
            )
        plan = self._plan_for(req.graph)
        sources = set(plan.source_names)
        for name, value in req.values:
            if name not in sources:
                raise ProtocolError(
                    f"unknown source {name!r} for graph {req.graph!r}"
                )
            if not 0.0 <= value <= 1.0:
                raise ProtocolError(
                    f"value for {name!r} must lie in [0, 1], got {value}"
                )
        if req.keep is not None:
            nodes = set(plan.semantic_order)
            unknown = [k for k in req.keep if k not in nodes]
            if unknown:
                raise ProtocolError(
                    f"unknown keep nodes for {req.graph!r}: {unknown}"
                )
        return plan

    # ------------------------------------------------------------------ #
    # micro-batch machinery
    # ------------------------------------------------------------------ #

    def _enqueue(self, req: ServeRequest) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        key = group_key(req)
        group = self._groups.setdefault(key, [])
        group.append((req, future, time.perf_counter()))
        self._pending += 1
        obs.gauge_set("serve.queue.depth", self._pending)
        if len(group) >= self.config.max_batch:
            self._flush(key)
        elif len(group) == 1:
            delay = max(0.0, self.config.window_ms) / 1000.0
            self._timers[key] = loop.call_later(delay, self._flush, key)
        return future

    def _flush(self, key: tuple) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        group = self._groups.pop(key, None)
        if not group:
            return
        task = asyncio.ensure_future(self._run_group(group))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_group(
        self, group: List[Tuple[ServeRequest, asyncio.Future, float]]
    ) -> None:
        loop = asyncio.get_running_loop()
        flushed_at = time.perf_counter()
        requests = [req for req, _, _ in group]
        for _, _, enqueued_at in group:
            obs.histogram_record(
                "serve.window.latency_ms", (flushed_at - enqueued_at) * 1000.0
            )
        plan = self._plans[requests[0].graph]
        try:
            responses = await loop.run_in_executor(
                self._pool,
                partial(
                    execute_group,
                    requests,
                    plan,
                    store=self._store,
                    budget_bytes=self.config.budget_bytes,
                    stream_jobs=self.config.stream_jobs,
                    tile_words=self.config.tile_words,
                ),
            )
        except Exception as exc:  # noqa: BLE001 — becomes the error payload
            responses = [
                {"id": req.id, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
                for req in requests
            ]
            self._count("serve.errors", len(requests))
        self._count("serve.groups", 1)
        if len(group) > 1:
            self._count("serve.coalesce.batched", len(group))
        else:
            self._count("serve.coalesce.solo", 1)
        self._pending -= len(group)
        obs.gauge_set("serve.queue.depth", self._pending)
        for (_, future, _), response in zip(group, responses):
            if not future.done():
                future.set_result(response)
        self._drain_obs()

    def _count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        obs.counter_add(name, value)

    def _drain_obs(self) -> None:
        """Spool the obs delta so ``repro stats`` can aggregate serving
        metrics across connections/restarts. Only when this server owns
        the session — inside a caller's ``obs.observe()`` (tests), the
        caller keeps its in-memory trace intact."""
        if self._owns_obs and self._spool is not None:
            obs.drain_spool(self._spool)

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    def _stats_payload(self) -> dict:
        return {
            "pid": os.getpid(),
            "uptime_s": time.perf_counter() - self._started_at,
            "queue_depth": self._pending,
            "window_ms": self.config.window_ms,
            "max_batch": self.config.max_batch,
            "counters": dict(self.counters),
        }

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()

        async def respond(obj: dict) -> None:
            async with write_lock:
                writer.write(encode_line(obj))
                await writer.drain()
            self._count("serve.responses", 1)

        async def respond_when_done(future: asyncio.Future) -> None:
            await respond(await future)

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await respond(
                        {"id": None, "ok": False, "error": "request line too long"}
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                rid = None
                try:
                    obj = decode_line(line)
                    if isinstance(obj, dict):
                        rid = obj.get("id")
                    req = parse_request(obj)
                    self._count("serve.requests", 1)
                    if req.kind == "ping":
                        await respond({"id": req.id, "ok": True, "result": "pong"})
                    elif req.kind == "stats":
                        await respond(
                            {"id": req.id, "ok": True, "result": self._stats_payload()}
                        )
                    elif req.kind == "shutdown":
                        await respond({"id": req.id, "ok": True, "result": "stopping"})
                        self.request_shutdown()
                    elif req.kind == "spec":
                        task = asyncio.ensure_future(self._serve_spec(req, respond))
                        self._tasks.add(task)
                        task.add_done_callback(self._tasks.discard)
                    else:  # run / audit — micro-batched
                        self._validate(req)
                        future = self._enqueue(req)
                        task = asyncio.ensure_future(respond_when_done(future))
                        self._tasks.add(task)
                        task.add_done_callback(self._tasks.discard)
                except ProtocolError as exc:
                    self._count("serve.errors", 1)
                    await respond({"id": rid, "ok": False, "error": str(exc)})
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels idle connection handlers; finishing
            # normally keeps the shutdown path quiet.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _serve_spec(self, req: ServeRequest, respond) -> None:
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                self._pool,
                partial(
                    run_spec,
                    req.spec,
                    fidelity=req.fidelity,
                    seed=req.seed,
                    store=self._store,
                    log=None,
                ),
            )
        except Exception as exc:  # noqa: BLE001 — becomes the error payload
            self._count("serve.errors", 1)
            await respond(
                {"id": req.id, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
            )
            return
        await respond(
            {
                "id": req.id,
                "ok": True,
                "result": {
                    "spec": report.spec,
                    "fidelity": report.fidelity,
                    "seed": report.seed,
                    "shard_count": report.shard_count,
                    "cache_hits": report.cache_hits,
                    "computed": report.computed,
                },
                "meta": {"route": "spec", "coalesced": 1, "cached": report.all_from_cache},
            }
        )
        self._drain_obs()


async def _amain(config: ServeConfig, *, announce=print) -> None:
    server = SCServer(config)
    await server.start()
    announce(f"[serve] listening on {config.host}:{server.port}")
    try:
        await server.wait_stopped()
    finally:
        await server.close()


def serve_forever(config: Optional[ServeConfig] = None, *, announce=print) -> None:
    """Blocking entry point (the ``repro serve`` command)."""
    asyncio.run(_amain(config or ServeConfig(), announce=announce))


class ServerThread:
    """A server on a background thread — the harness tests, benchmarks,
    and the equivalence helpers use this to serve and call from one
    process.

    ::

        with ServerThread(ServeConfig(window_ms=5.0)) as srv:
            client = ServeClient(port=srv.port)
            ...
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.server: Optional[SCServer] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if self.port is None:
            raise RuntimeError("server did not start within 30s")
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001 — surfaced by __enter__
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        server = SCServer(self.config)
        try:
            await server.start()
        except BaseException as exc:  # noqa: BLE001 — surfaced by __enter__
            self._error = exc
            self._ready.set()
            return
        self.server = server
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        try:
            await server.wait_stopped()
        finally:
            await server.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(self.server.request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)
