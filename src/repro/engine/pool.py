"""Persistent execution runtime: warm forked workers + shared-memory arenas.

Every parallel entry point in the repo — the engine's span scheduler
(:mod:`repro.engine.parallel`), the runner's shard pool
(:mod:`repro.runner.scheduler`), the accelerator's streaming backend
(:mod:`repro.pipeline.accelerator`), and the serving layer's over-budget
shed path (which sheds into ``run_streaming(jobs=stream_jobs)``) —
dispatches through **one process-wide pool of long-lived forked
workers**. Forking per call would hand every call cold kernel and
sequence caches (the at-fork hooks drop every memo on purpose, to rebind
locks) and pickle every result back; for sweeps of many small-to-medium
calls that setup would dominate the compute.

* :func:`get_pool` lazily forks up to ``jobs`` workers the first time a
  parallel call wants them and reuses them for every later call. Workers
  keep their caches warm across calls: compiled plans arrive at most once
  per worker (a token-keyed LRU — ``engine.pool.plan.hit`` counts the
  repeats), and kernel tables, RNG sequence windows, and select-tile
  memos accumulate per worker exactly as they would in a serial process.
* :func:`pool_call` is the dispatch protocol. The caller names a heavy
  *context object* (an execution plan, an accelerator) that is pickled to
  each worker at most once, plus a per-call payload; each worker installs
  both through a module-level *installer* function and then executes
  tasks sent as ``("module:function", args)`` messages — one in flight
  per worker, dynamically balanced, with results streamed back in
  completion order. A worker that dies (OOM-killed, segfaulted) is
  respawned, re-primed, and its task retried once.
* :class:`SharedArena` hands large arrays between parent and workers
  zero-copy: named ``multiprocessing.shared_memory`` segments, recycled
  through a size-class free list exactly like the optimizer's
  :class:`~repro.engine.optimize.BufferArena` recycles word buffers.
  Packed uint64 ``keep=`` materialisations are written by span workers
  *directly into the parent's result segment* (:class:`SharedSink`), and
  big parent→worker operands (image patch stacks, regeneration counts)
  travel as segment descriptors (:meth:`SharedArena.wrap` /
  :func:`unwrap`). When segments are unavailable (no ``/dev/shm``,
  platform quirks) everything silently degrades to pickle — same bits,
  one more copy.

Fallback rules — ``pool_call`` yields ``None`` and the caller runs the
same installer and tasks in-process (same bits, no parallelism) when:

* ``jobs <= 1`` (not counted: nothing was asked of the pool);
* this process is itself a forked child, e.g. a pool worker running a
  runner shard — nested persistent pools would leak processes
  (``engine.pool.fallback.child``);
* the platform has no ``fork`` start method
  (``engine.pool.fallback.no_fork``);
* another thread is mid-call on the pool (``engine.pool.fallback.busy``)
  — the serving layer can shed two streams concurrently, and the second
  must not queue behind the first;
* the context or payload does not pickle
  (``engine.pool.fallback.unpicklable``);
* priming fails worker-side — the context pickled in the parent but did
  not unpickle or install in the worker
  (``engine.pool.fallback.prime``).

Error semantics match the in-process lane: a task that raises re-raises
the *original* exception from ``imap``/``map`` (chained to a
:class:`PoolTaskError` carrying the worker traceback), so callers
catching specific types behave the same on either lane. Every reply
carries the request's ``seq`` and is validated against it; when a call
is abandoned mid-flight, ``end`` waits out (or revives) still-running
workers before their replies could desync the protocol or their shared
segments are recycled.

Observability: workers adopt the parent's tracing session *per call*
(anchor + spool travel in the prime message, so a session started after
the pool forked still reaches every worker), flush their buffered spans
at root-span close, take a final flush on shutdown, and the parent
absorbs spools via ``collect_children()`` after every call — records
merge exactly once. Bit-identity to the in-process lane is enforced by
``tests/helpers.assert_backends_equivalent(pool="both")`` and the
hypothesis property in ``tests/test_pool.py``.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import pickle
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import collect_children, counter_add

__all__ = [
    "SharedArena",
    "SharedSink",
    "WorkerPool",
    "PoolTaskError",
    "get_pool",
    "shutdown_pool",
    "pool_call",
    "unwrap",
]


# Arrays below this size travel by pickle even when segments are
# available — a segment attach round-trip costs more than copying a few
# KB through a pipe.
_SHARE_THRESHOLD = 1 << 16

# Per-worker context cache: how many distinct heavy context objects
# (plans, accelerators) each worker retains between calls.
_WORKER_CACHE = 16

# A task whose worker dies is retried on a fresh worker this many times
# before the call fails — one respawn covers a stray OOM kill without
# looping forever on a task that reliably kills its host.
_TASK_RETRIES = 1

# How long an aborted call waits for each still-running worker to finish
# before killing it. An abandoned dispatch (``imap`` raised on one
# worker's error while others were mid-task) cannot recycle its shared
# segments while a stale worker might still write into them, so
# ``PoolCall.end`` waits out — or revives — every in-flight worker.
_DRAIN_TIMEOUT = 5.0

_SHM_PREFIX = "repro_pool"


# ---------------------------------------------------------------------- #
# SharedArena: freelist-recycled named shared-memory segments
# ---------------------------------------------------------------------- #

def _shm_module():
    try:
        from multiprocessing import shared_memory
        return shared_memory
    except ImportError:  # stripped-down builds
        return None


class SharedArena:
    """A size-class free list of named shared-memory segments.

    The cross-process twin of the optimizer's
    :class:`~repro.engine.optimize.BufferArena`: :meth:`take` pops a
    recycled segment of the right size class (next power of two) or
    creates a fresh one; :meth:`release_all` returns every segment handed
    out for the current call to the free list once the call's results
    have been copied out. Segments are created and unlinked **only by the
    parent**; workers attach read/write views by name
    (:func:`attach_view`) and never own anything. :meth:`shutdown`
    unlinks everything — the CI pool-smoke job asserts ``/dev/shm`` holds
    no ``repro_pool_*`` residue after the suite. Workers share the
    parent's resource tracker (started before the first fork), so a
    parent killed mid-call leaves nothing behind either: the tracker
    unlinks every segment still registered once the parent and its
    workers have exited.
    """

    __slots__ = ("_free", "_live", "_counter", "_prefix", "_ok",
                 "hits", "misses")

    def __init__(self) -> None:
        self._free: Dict[int, List[Any]] = {}
        self._live: Dict[str, Any] = {}
        self._counter = 0
        self._prefix = f"{_SHM_PREFIX}_{os.getpid()}"
        self._ok: Optional[bool] = None
        self.hits = 0
        self.misses = 0

    def available(self) -> bool:
        """Can this platform serve named segments? Probed once."""
        if self._ok is None:
            shm_mod = _shm_module()
            if shm_mod is None:
                self._ok = False
            else:
                try:
                    probe = shm_mod.SharedMemory(
                        name=f"{self._prefix}_probe", create=True, size=64
                    )
                    probe.close()
                    probe.unlink()
                    self._ok = True
                except Exception:  # noqa: BLE001 — any failure means "pickle"
                    self._ok = False
        return self._ok

    def take(self, nbytes: int):
        """A live segment with capacity ≥ ``nbytes``, or ``None`` when
        segments are unavailable (callers then fall back to pickle)."""
        if not self.available():
            return None
        size = 1 << max(12, int(nbytes - 1).bit_length())
        bucket = self._free.get(size)
        if bucket:
            shm = bucket.pop()
            self.hits += 1
        else:
            shm_mod = _shm_module()
            try:
                shm = shm_mod.SharedMemory(
                    name=f"{self._prefix}_{self._counter}", create=True,
                    size=size,
                )
            except Exception:  # noqa: BLE001 — e.g. /dev/shm full
                return None
            self._counter += 1
            self.misses += 1
        self._live[shm.name] = shm
        return shm

    def empty(self, shape: Tuple[int, ...], dtype) -> Tuple[np.ndarray, Optional[tuple]]:
        """A zero-filled parent-side array over a shared segment plus its
        descriptor, or ``(plain array, None)`` when segments are
        unavailable. Workers attach the descriptor and write slices
        in-place — the zero-copy ``keep=`` hand-off."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        shm = self.take(max(1, nbytes))
        if shm is None:
            return np.zeros(shape, dtype=dtype), None
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        view[...] = 0
        return view, ("__shm__", shm.name, tuple(shape), dtype.str)

    def wrap(self, obj):
        """``obj``, or a segment descriptor when it is a large array —
        the parent→worker zero-copy path for operands. Non-arrays and
        small arrays pass through untouched (pickle is cheaper)."""
        if not isinstance(obj, np.ndarray) or obj.nbytes < _SHARE_THRESHOLD:
            return obj
        shm = self.take(obj.nbytes)
        if shm is None:
            return obj
        view = np.ndarray(obj.shape, dtype=obj.dtype, buffer=shm.buf)
        view[...] = obj
        return ("__shm__", shm.name, tuple(obj.shape), obj.dtype.str)

    def release_all(self) -> None:
        """Return every live segment to the free list (call end: results
        have been copied out, operands are no longer read)."""
        for shm in self._live.values():
            size = 1 << max(12, int(shm.size - 1).bit_length()) \
                if shm.size & (shm.size - 1) else shm.size
            self._free.setdefault(max(4096, size), []).append(shm)
        self._live.clear()

    def flush_counters(self) -> None:
        if self.hits:
            counter_add("engine.pool.shm.reuse", self.hits)
        if self.misses:
            counter_add("engine.pool.shm.alloc", self.misses)
        self.hits = 0
        self.misses = 0

    def shutdown(self) -> None:
        """Close and unlink every segment this arena ever created."""
        for bucket in (list(self._live.values()),
                       [s for b in self._free.values() for s in b]):
            for shm in bucket:
                with contextlib.suppress(Exception):
                    shm.close()
                with contextlib.suppress(Exception):
                    shm.unlink()
        self._live.clear()
        self._free.clear()


# Worker-side attachment cache: one SharedMemory handle per segment name,
# kept for the worker's lifetime (the parent recycles names through its
# free list, so a cached mapping stays valid across calls).
_ATTACHED: Dict[str, Any] = {}


def attach_view(desc: tuple) -> np.ndarray:
    """The array view a ``("__shm__", name, shape, dtype)`` descriptor
    names, attached (and cached) in this process."""
    _, name, shape, dtype = desc
    shm = _ATTACHED.get(name)
    if shm is None:
        shm_mod = _shm_module()
        shm = shm_mod.SharedMemory(name=name)
        _ATTACHED[name] = shm
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


def unwrap(obj):
    """Resolve a :meth:`SharedArena.wrap` result back to its array; pass
    anything else through unchanged (the task functions call this
    unconditionally, so the same code serves the pooled and in-process
    lanes)."""
    if isinstance(obj, tuple) and len(obj) == 4 and obj[0] == "__shm__":
        return attach_view(obj)
    return obj


class SharedSink:
    """A kept node's assembler writing straight into a full-length result
    buffer — the parent's shared segment, named by its descriptor, on the
    pooled lane; the array itself (passed as ``desc``) in-process. Tile
    writes land at absolute word offsets, and since spans partition the
    word range no two spans touch the same bytes."""

    __slots__ = ("_view",)

    def __init__(self, desc) -> None:
        self._view = unwrap(desc)

    def write(self, start: int, tile_words_matrix: np.ndarray) -> None:
        w = start // 64
        self._view[:, w : w + tile_words_matrix.shape[1]] = tile_words_matrix


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #

def _resolve_fn(ref: str):
    """The module-level function a ``"module:function"`` reference names
    (restricted to this package — task references are code, not data)."""
    module_name, _, func_name = ref.partition(":")
    if module_name != "repro" and not module_name.startswith("repro."):
        raise ValueError(f"task reference outside repro: {ref!r}")
    return getattr(importlib.import_module(module_name), func_name)


def _sync_session(obs_state, seed) -> None:
    """Match this worker's ambient state to the parent's at call time:
    tracing session (anchor + spool — the pool may predate the session)
    and ambient RNG seed. Workers forked once, possibly before the
    session or seed existed, so the prime message carries both."""
    from ..obs import tracer as _tracer
    from ..rng import factory as _factory

    if obs_state is None:
        _tracer.leave_session()
    else:
        _tracer.adopt_session(*obs_state)
    _factory.set_default_seed(seed)


def _worker_main(conn, parent_conn, ppid: int) -> None:
    contexts: "OrderedDict[int, Any]" = OrderedDict()
    with contextlib.suppress(Exception):
        parent_conn.close()  # our copy of the parent's pipe end
    with contextlib.suppress(Exception):
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)

    def _final_flush() -> None:
        with contextlib.suppress(Exception):
            from ..obs import tracer as _tracer

            _tracer.flush_in_child()

    while True:
        try:
            # Poll with a timeout so an orphaned worker (parent
            # SIGKILLed — no EOF, other workers hold inherited pipe
            # ends open) notices the re-parenting and exits.
            while not conn.poll(30.0):
                if os.getppid() != ppid:
                    os._exit(0)
            msg = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        kind = msg[0]
        if kind == "stop":
            _final_flush()
            with contextlib.suppress(Exception):
                conn.close()
            os._exit(0)
        if kind == "end":
            installer_ref = msg[1]
            with contextlib.suppress(Exception):
                if installer_ref is not None:
                    _resolve_fn(installer_ref)(None, None)
            continue
        seq = msg[1]
        try:
            if kind == "call":
                _, _, obs_state, seed, installer_ref, token, ctx_blob, payload_blob = msg
                _sync_session(obs_state, seed)
                context = None
                if token is not None:
                    context = (
                        pickle.loads(ctx_blob) if ctx_blob is not None
                        else contexts[token]
                    )
                elif ctx_blob is not None:  # tokenless: re-sent each call
                    context = pickle.loads(ctx_blob)
                if installer_ref is not None:
                    payload = (
                        pickle.loads(payload_blob)
                        if payload_blob is not None else None
                    )
                    _resolve_fn(installer_ref)(context, payload)
                # Commit the cache mutation only on success — the parent
                # mirrors this LRU on "ok", so both sides must mutate at
                # exactly the same points or they drift apart.
                if token is not None:
                    contexts[token] = context
                    contexts.move_to_end(token)
                    while len(contexts) > _WORKER_CACHE:
                        contexts.popitem(last=False)
                conn.send(("ok", seq, None))
            elif kind == "task":
                _, _, fn_ref, args = msg
                conn.send(("ok", seq, _resolve_fn(fn_ref)(*args)))
            elif kind == "ping":
                conn.send(("ok", seq, os.getpid()))
            else:
                conn.send(("err", seq, f"unknown message {kind!r}", ""))
        except BaseException as exc:  # noqa: BLE001 — travels to the parent
            blob = None
            with contextlib.suppress(Exception):  # unpicklable exceptions
                blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                conn.send((
                    "err", seq, f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(), blob,
                ))
            except Exception:  # noqa: BLE001 — parent gone
                os._exit(1)


# ---------------------------------------------------------------------- #
# Parent-side pool
# ---------------------------------------------------------------------- #

class PoolTaskError(RuntimeError):
    """A task raised inside a pool worker (the worker's traceback is in
    the message) or repeatedly killed its worker."""


def _remote_error(rest: Sequence[Any]) -> BaseException:
    """The exception a worker's ``err`` reply should surface: the
    original exception when it pickles — so the pooled lane raises the
    same types the in-process lane raises — chained to a
    :class:`PoolTaskError` that carries the worker-side traceback; a
    bare :class:`PoolTaskError` when the original cannot travel."""
    cause = PoolTaskError(f"{rest[0]}\n{rest[1]}")
    blob = rest[2] if len(rest) > 2 else None
    if blob is not None:
        with contextlib.suppress(Exception):
            exc = pickle.loads(blob)
            if isinstance(exc, BaseException):
                exc.__cause__ = cause
                return exc
    return cause


class _Worker:
    __slots__ = ("proc", "conn", "tokens", "pending")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        # seq of the request awaiting a reply; None when idle. Every
        # recv validates against it: an aborted dispatch leaves a
        # completed task's reply sitting in the pipe, and consuming that
        # as the next call's prime ack would shift every later reply off
        # by one — silently wrong results for the rest of the process.
        self.pending: Optional[int] = None
        # Mirror of the worker's context LRU, in the worker's order:
        # primes are the only mutations and the parent drives them all,
        # so replaying the same insert/move/evict sequence here tells
        # the parent exactly which tokens the worker still holds.
        self.tokens: "OrderedDict[int, None]" = OrderedDict()

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def request(self, msg: tuple) -> None:
        """Send a seq-carrying message and record its seq as pending."""
        self.conn.send(msg)
        self.pending = msg[1]

    def reply(self) -> tuple:
        """The reply matching the pending request; replies to requests a
        previous, aborted call stopped waiting on are discarded."""
        while True:
            msg = self.conn.recv()
            if self.pending is not None and msg[1] == self.pending:
                self.pending = None
                return msg
            counter_add("engine.pool.stale.drop")

    def drain(self, timeout: float) -> bool:
        """Wait out the pending request, discarding its (and any stale)
        reply; ``True`` when the worker went idle within ``timeout``."""
        deadline = time.monotonic() + timeout
        while self.pending is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.conn.poll(remaining):
                return False
            msg = self.conn.recv()
            if msg[1] == self.pending:
                self.pending = None
            else:
                counter_add("engine.pool.stale.drop")
        return True


class WorkerPool:
    """The process-wide persistent worker pool (one per origin process;
    use the module-level :func:`get_pool` / :func:`pool_call` /
    :func:`shutdown_pool` rather than instantiating directly)."""

    def __init__(self, mp_context) -> None:
        self._mp = mp_context
        self._workers: List[_Worker] = []
        self._lock = threading.Lock()     # spawn / shutdown
        self._busy = threading.Lock()     # one pooled call at a time
        self._seq = 0
        self._closed = False
        self.origin_pid = os.getpid()
        self.arena = SharedArena()
        self.respawns = 0
        # id(context) -> (token, weakref). Identity-keyed because plans
        # are unhashable (eq dataclasses); the weakref both guards
        # against id reuse (entry valid only while the exact object
        # lives) and evicts the entry on collection. Tokens are never
        # reused, so a worker cache entry can only ever be hit by the
        # same live object — and the engine's plan/DCE caches return
        # the same object for the same content, which is what makes
        # repeat calls warm.
        self._tokens: Dict[int, Tuple[int, Any]] = {}
        self._next_token = 0

    # -- lifecycle ----------------------------------------------------- #

    def _spawn(self) -> _Worker:
        # Workers must share the parent's resource tracker: one forked
        # before it started would start its own on its first attach, which
        # unlinks the parent's segments when the worker exits.
        with contextlib.suppress(Exception):  # no tracker: no segments
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        proc = self._mp.Process(
            target=_worker_main,
            args=(child_conn, parent_conn, os.getpid()),
            name=f"repro-pool-{len(self._workers)}",
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def ensure(self, workers: int) -> None:
        """Grow the pool to at least ``workers`` live processes."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is shut down")
            while len(self._workers) < workers:
                self._workers.append(self._spawn())

    def worker_pids(self) -> List[int]:
        return [w.pid for w in self._workers]

    @property
    def size(self) -> int:
        return len(self._workers)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _revive(self, worker: _Worker) -> _Worker:
        """Replace a dead worker in place with a fresh fork."""
        with contextlib.suppress(Exception):
            worker.conn.close()
        with contextlib.suppress(Exception):
            worker.proc.terminate()
        with contextlib.suppress(Exception):
            worker.proc.join(timeout=1.0)
        fresh = self._spawn()
        with self._lock:
            index = self._workers.index(worker)
            self._workers[index] = fresh
        self.respawns += 1
        counter_add("engine.pool.respawn")
        return fresh

    def shutdown(self) -> None:
        """Stop every worker and unlink every shared segment. Idempotent
        — safe to call twice, at interpreter exit, or on a pool that
        never started a worker."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._workers = self._workers, []
        for worker in workers:
            with contextlib.suppress(Exception):
                worker.conn.send(("stop",))
        for worker in workers:
            with contextlib.suppress(Exception):
                worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():
                with contextlib.suppress(Exception):
                    worker.proc.terminate()
                    worker.proc.join(timeout=1.0)
            with contextlib.suppress(Exception):
                worker.conn.close()
        self.arena.shutdown()
        # Workers flushed their obs leftovers on "stop"; absorb them.
        collect_children()

    # -- the call protocol --------------------------------------------- #

    def _token_for(self, context) -> Optional[int]:
        """The context's cache token (stable across calls for the same
        live object); ``None`` for non-weakrefable contexts, which are
        then re-sent every call."""
        key = id(context)
        entry = self._tokens.get(key)
        if entry is not None and entry[1]() is context:
            return entry[0]
        try:
            ref = weakref.ref(
                context, lambda _ref, k=key: self._tokens.pop(k, None)
            )
        except TypeError:
            return None
        token = self._next_token
        self._next_token += 1
        self._tokens[key] = (token, ref)
        return token

    def begin_call(self, workers: int, context, installer: Optional[str],
                   payload) -> "PoolCall":
        """Prime ``workers`` workers with (context, payload) and return
        the call handle. Raises ``pickle.PicklingError`` (and kin) when
        the context or payload cannot travel — callers fall back."""
        token = None
        if context is not None:
            token = self._token_for(context)
        payload_blob = (
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            if payload is not None else None
        )
        from ..obs import tracer as _tracer
        from ..rng.factory import get_default_seed

        active = _tracer.current_tracer()
        obs_state = None
        if active is not None:
            obs_state = (active.anchor, active.spool)
        call = PoolCall(
            self, self._workers[:workers], installer,
            token, context, payload_blob, obs_state, get_default_seed(),
        )
        call._prime_all()
        counter_add("engine.pool.calls")
        return call


class PoolCall:
    """One primed batch of workers: ``map``/``imap`` dispatch tasks,
    ``end`` (driven by :func:`pool_call`) clears the installed context."""

    def __init__(self, pool: WorkerPool, workers: List[_Worker],
                 installer: Optional[str], token: Optional[int],
                 context, payload_blob: Optional[bytes],
                 obs_state, seed) -> None:
        self._pool = pool
        self._workers = list(workers)
        self._installer = installer
        self._token = token
        self._context = context
        self._ctx_blob: Optional[bytes] = None
        self._payload_blob = payload_blob
        self._obs_state = obs_state
        self._seed = seed

    @property
    def arena(self) -> SharedArena:
        return self._pool.arena

    @property
    def workers(self) -> int:
        return len(self._workers)

    # -- priming ------------------------------------------------------- #

    def _context_blob(self, worker: _Worker) -> Optional[bytes]:
        """The pickled context when ``worker`` holds no warm copy, else
        ``None``; pickled once, at the call's first such worker."""
        if self._context is None or self._token in worker.tokens:
            return None
        if self._ctx_blob is None:
            self._ctx_blob = pickle.dumps(
                self._context, protocol=pickle.HIGHEST_PROTOCOL
            )
        return self._ctx_blob

    def _prime(self, worker: _Worker) -> None:
        blob = self._context_blob(worker)
        if self._token is not None:
            counter_add(
                "engine.pool.plan.hit" if blob is None else "engine.pool.plan.miss"
            )
        worker.request((
            "call", self._pool._next_seq(), self._obs_state, self._seed,
            self._installer, self._token, blob, self._payload_blob,
        ))
        kind, _, *rest = worker.reply()
        if kind == "err":
            raise PoolTaskError(f"pool prime failed: {rest[0]}\n{rest[1]}")
        if self._token is not None:
            worker.tokens[self._token] = None
            worker.tokens.move_to_end(self._token)
            while len(worker.tokens) > _WORKER_CACHE:
                worker.tokens.popitem(last=False)

    def _prime_all(self) -> None:
        for worker in self._workers:
            # Pickle before the first prime goes out: a context that
            # cannot travel fails the call while no worker holds it.
            self._context_blob(worker)
        for index, worker in enumerate(list(self._workers)):
            for attempt in (0, 1):
                try:
                    self._prime(worker)
                    break
                except (BrokenPipeError, EOFError, OSError):
                    if attempt:
                        raise
                    worker = self._pool._revive(worker)
                    self._workers[index] = worker

    # -- dispatch ------------------------------------------------------ #

    def imap(self, fn_ref: str, arglists: Sequence[tuple]) -> Iterator[Tuple[int, Any]]:
        """Run ``fn_ref(*args)`` for every entry, yielding
        ``(index, result)`` in completion order — one task in flight per
        worker, next task to whichever worker frees up first. A task
        that raises re-raises its original exception here (chained to a
        :class:`PoolTaskError` with the worker traceback); a task that
        repeatedly kills its worker raises :class:`PoolTaskError`."""
        from multiprocessing.connection import wait as _wait

        total = len(arglists)
        if total == 0:
            return
        counter_add("engine.pool.tasks", total)
        pending: List[int] = list(range(total - 1, -1, -1))
        retries: Dict[int, int] = {}
        inflight: Dict[Any, Tuple[_Worker, int]] = {}  # conn -> (worker, index)
        idle: List[_Worker] = list(self._workers)

        def _submit(worker: _Worker, index: int) -> bool:
            try:
                worker.request((
                    "task", self._pool._next_seq(), fn_ref,
                    tuple(arglists[index]),
                ))
            except (BrokenPipeError, OSError):
                return False
            inflight[worker.conn] = (worker, index)
            return True

        def _replace(worker: _Worker, index: int) -> _Worker:
            retries[index] = retries.get(index, 0) + 1
            if retries[index] > _TASK_RETRIES:
                raise PoolTaskError(
                    f"pool task {fn_ref} (item {index}) killed its worker "
                    f"{retries[index]} times"
                )
            fresh = self._pool._revive(worker)
            self._prime(fresh)
            for i, w in enumerate(self._workers):
                if w is worker:
                    self._workers[i] = fresh
            pending.append(index)
            return fresh

        while pending or inflight:
            while pending and idle:
                worker = idle.pop()
                index = pending.pop()
                if not _submit(worker, index):
                    idle.append(_replace(worker, index))
            for conn in _wait(list(inflight)):
                worker, index = inflight[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    del inflight[conn]
                    idle.append(_replace(worker, index))
                    continue
                if worker.pending is None or msg[1] != worker.pending:
                    # Stale reply to a request an aborted call stopped
                    # waiting on — not this task's answer.
                    counter_add("engine.pool.stale.drop")
                    continue
                worker.pending = None
                del inflight[conn]
                kind, _, *rest = msg
                if kind == "err":
                    raise _remote_error(rest)
                idle.append(worker)
                yield index, rest[0]

    def map(self, fn_ref: str, arglists: Sequence[tuple]) -> List[Any]:
        """Run every task and return results in argument order."""
        results: List[Any] = [None] * len(arglists)
        for index, result in self.imap(fn_ref, arglists):
            results[index] = result
        return results

    # -- teardown ------------------------------------------------------ #

    def end(self) -> None:
        """Clear the installed per-call context on every worker and
        recycle the call's shared segments (results must already be
        copied out of them).

        An abandoned dispatch (``imap`` raised on one worker's error, or
        its consumer stopped early) leaves other workers mid-task: each
        may still be writing into this call's segments, and its unread
        reply would desync the next call's protocol. Wait every
        in-flight worker out — discarding the now-unwanted reply —
        before the segments return to the free list, and kill-and-
        respawn any that stays busy past :data:`_DRAIN_TIMEOUT` (a dead
        worker cannot write either)."""
        for index, worker in enumerate(self._workers):
            if worker.pending is None:
                continue
            counter_add("engine.pool.drain")
            done = False
            with contextlib.suppress(EOFError, OSError):
                done = worker.drain(_DRAIN_TIMEOUT)
            if not done:
                self._workers[index] = self._pool._revive(worker)
        for worker in self._workers:
            with contextlib.suppress(Exception):
                worker.conn.send(("end", self._installer))
        self._pool.arena.release_all()
        self._pool.arena.flush_counters()


# ---------------------------------------------------------------------- #
# Process-wide runtime
# ---------------------------------------------------------------------- #

_POOL: Optional[WorkerPool] = None
_POOL_LOCK = threading.Lock()
_IN_FORK_CHILD = False
_TEARDOWN_REGISTERED = False

# Pool teardown runs inside multiprocessing's own exit hook, ahead of
# its join of non-daemonic children: the workers are non-daemonic, and
# joining them before they get "stop" would hang interpreter exit. A
# plain ``atexit`` registration only runs first when
# ``multiprocessing.util`` happens to be imported earlier, because exit
# hooks run in reverse registration order.
_TEARDOWN_PRIORITY = 10


def _after_fork_in_child() -> None:
    # Any forked child — a pool worker, a runner shard — must neither
    # use the inherited pool handles (the pipes belong to the parent)
    # nor lazily start a nested persistent pool that would outlive its
    # transient host. Children run their parallel calls in-process.
    global _POOL, _IN_FORK_CHILD
    _IN_FORK_CHILD = True
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` where the
    platform has none (tests patch this hook to force the in-process
    lane)."""
    try:
        import multiprocessing

        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def get_pool(jobs: int) -> Optional[WorkerPool]:
    """The process-wide pool grown to ``jobs`` workers, or ``None`` when
    the persistent runtime cannot serve this caller (``jobs <= 1``, child
    process, no fork) — see the module docstring's fallback rules."""
    global _POOL, _TEARDOWN_REGISTERED
    if jobs <= 1:
        return None
    if _IN_FORK_CHILD:
        counter_add("engine.pool.fallback.child")
        return None
    mp_context = _fork_context()
    if mp_context is None:
        counter_add("engine.pool.fallback.no_fork")
        return None
    with _POOL_LOCK:
        if _POOL is None or _POOL._closed or _POOL.origin_pid != os.getpid():
            _POOL = WorkerPool(mp_context)
            if not _TEARDOWN_REGISTERED:
                from multiprocessing import util

                util.Finalize(None, shutdown_pool,
                              exitpriority=_TEARDOWN_PRIORITY)
                _TEARDOWN_REGISTERED = True
        pool = _POOL
    pool.ensure(jobs)
    return pool


def shutdown_pool() -> None:
    """Stop the process-wide pool (idempotent; the next :func:`get_pool`
    starts a fresh one). Runs at interpreter exit, is called by the
    serving layer's teardown, and is safe to call when no pool exists."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


@contextlib.contextmanager
def pool_call(jobs: int, *, context=None, installer: Optional[str] = None,
              payload=None):
    """``with pool_call(jobs, ...) as call:`` — a primed
    :class:`PoolCall`, or ``None`` when the caller must run its
    installer and tasks in-process (see the module docstring's fallback
    rules; every reason but ``jobs <= 1`` is counted under
    ``engine.pool.fallback.*``).

    A *callable* ``payload`` is invoked with the call's
    :class:`SharedArena` once the call slot is held — the hook for
    shipping large operands as segment descriptors
    (``lambda arena: (arena.wrap(big_array), ...)``) instead of pickle
    bytes; workers resolve them with :func:`unwrap`."""
    pool = get_pool(jobs)
    if pool is None:
        yield None
        return
    if not pool._busy.acquire(blocking=False):
        counter_add("engine.pool.fallback.busy")
        yield None
        return
    call: Optional[PoolCall] = None
    try:
        if callable(payload):
            payload = payload(pool.arena)
        try:
            call = pool.begin_call(min(jobs, pool.size), context, installer,
                                   payload)
        except (pickle.PicklingError, AttributeError, TypeError):
            counter_add("engine.pool.fallback.unpicklable")
            yield None
            return
        except PoolTaskError:
            # The context/payload pickled here but failed to unpickle or
            # install worker-side; the in-process lane is known-good,
            # so fall back rather than hard-fail the call.
            counter_add("engine.pool.fallback.prime")
            yield None
            return
        yield call
    finally:
        if call is not None:
            with contextlib.suppress(Exception):
                call.end()
            # Workers flushed span buffers at root-span close; absorb
            # them now.
            collect_children()
        else:
            # A callable payload may have wrapped operands into segments
            # before priming failed; recycle them.
            pool.arena.release_all()
        pool._busy.release()
