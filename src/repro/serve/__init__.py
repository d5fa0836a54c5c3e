"""repro.serve — async micro-batching front-end over the engine.

A long-lived asyncio TCP server (stdlib-only) that accepts graph-audit,
graph-run, and spec-shard requests as JSON lines and **coalesces**
concurrent requests that share a structural plan into a single batched
engine pass:

* Requests are grouped by :func:`~repro.serve.protocol.group_key` —
  (kind, graph, length, keep, encoding[, tolerance]) — which is exactly
  the set of parameters that must match for their configurations to be
  rows of one :func:`~repro.engine.executor.run_batch` /
  :func:`~repro.engine.executor.audit_batch` call.
* The first request of a group opens a micro-batch **window**
  (:attr:`~repro.serve.server.ServeConfig.window_ms`, 2–10 ms); the
  group flushes when the window closes or when it reaches
  :attr:`~repro.serve.server.ServeConfig.max_batch`, whichever first.
* The engine's row contract — *row i of a batched pass is bit-identical
  to evaluating configuration i alone* — makes coalescing invisible:
  a request served in a batch of 40 returns byte-identical payload to
  the same request served solo. :func:`~repro.serve.batcher.execute_group`
  is the single code path for both (solo is a group of one).
* Groups whose whole-stream pass would exceed the memory budget —
  packed words, comparator sequences, and transform operands, priced by
  :func:`~repro.serve.batcher.whole_stream_bytes` — shed load into
  constant-memory tiles (:func:`~repro.engine.streaming.run_streaming`
  for runs, ``audit_batch(tile_words=...)`` for audits, overrides
  included), still bit-identical. Only plans with ``fsm``-domain
  transforms, which have no streaming carriers, cannot shed.
* The LRU plan cache and the content-addressed result store are shared
  across all connections: a store hit short-circuits the engine
  entirely.

See ``docs/architecture.md`` ("Serving") for the request lifecycle and
``benchmarks/bench_serve.py`` for the enforced ≥3× coalescing
throughput floor.
"""

from .batcher import execute_group
from .client import ServeClient
from .loadgen import LoadReport, run_load
from .protocol import (
    DEFAULT_PORT,
    ServeRequest,
    decode_line,
    encode_line,
    group_key,
    parse_request,
)
from .server import SCServer, ServeConfig, ServerThread, serve_forever

__all__ = [
    "DEFAULT_PORT",
    "ServeRequest",
    "parse_request",
    "encode_line",
    "decode_line",
    "group_key",
    "execute_group",
    "ServeConfig",
    "SCServer",
    "ServerThread",
    "serve_forever",
    "ServeClient",
    "LoadReport",
    "run_load",
]
