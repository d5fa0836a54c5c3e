"""Wire protocol of the serving front-end: JSON lines over TCP.

Each request is one JSON object on one line; each response is one JSON
object on one line, matched to its request by ``id``. Responses may
arrive out of request order on a pipelined connection (different
micro-batch groups complete at different times) — clients match by id.

Request kinds:

``run``
    Evaluate a library graph: ``{"id", "kind": "run", "graph",
    "length", "values": {source: float}, "keep": [node, ...],
    "bits": false, "encoding": "unipolar"}``. ``values`` overrides
    source values (unnamed sources keep their graph defaults);
    ``keep`` selects which nodes to return (default: all); ``bits``
    additionally returns the packed streams base64-encoded.
``audit``
    Correlation audit: ``{"id", "kind": "audit", "graph", "length",
    "values", "tolerance"}`` — per-operator SCC / value-error entries.
``spec``
    Run one registered experiment spec through the shared result store:
    ``{"id", "kind": "spec", "spec", "fidelity", "seed"}``.
``ping`` / ``stats`` / ``shutdown``
    Liveness, server counters, graceful stop.

Responses: ``{"id", "ok": true, "result": {...}, "meta": {"route",
"coalesced", "cached"}}`` or ``{"id", "ok": false, "error": "..."}``.
The ``result`` object is the *deterministic payload* — byte-identical
(as canonical JSON) whether the request was served solo, coalesced into
any batch, load-shed into the streaming backend, or answered from the
result store. ``meta`` carries the routing facts that legitimately vary.

Graph requests deliberately carry **no seed**: the engine's source RNGs
are deterministic sequence generators (VDC/Halton/LFSR), so every
response is reproducible by construction under the server process's
ambient :func:`~repro.rng.factory.default_seed`. A ``spec`` request's
``seed`` installs that ambient seed only around its own shards. The
engine's sequence memo keys on the arguments the RNG factory builds
from, ambient seed folded in, so a sequence generated under one seed is
never served under another.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "DEFAULT_PORT",
    "KINDS",
    "ENGINE_KINDS",
    "ProtocolError",
    "ServeRequest",
    "parse_request",
    "request_to_wire",
    "encode_line",
    "decode_line",
    "group_key",
    "canonical_result",
    "words_to_b64",
    "b64_to_words",
]

DEFAULT_PORT = 7453

KINDS = frozenset({"run", "audit", "spec", "ping", "stats", "shutdown"})
# Kinds that go through the engine and are eligible for coalescing.
ENGINE_KINDS = frozenset({"run", "audit"})

_MAX_LINE = 1 << 24  # 16 MiB — bounds bits=True responses for huge N.


class ProtocolError(ValueError):
    """A malformed or out-of-contract request line."""


@dataclass(frozen=True)
class ServeRequest:
    """One parsed, validated request.

    ``values`` is stored as a sorted tuple of ``(source, value)`` pairs
    so requests are hashable and canonical — two requests spelling the
    same overrides in different key order are the same request.
    """

    id: str
    kind: str
    graph: Optional[str] = None
    length: int = 256
    values: Tuple[Tuple[str, float], ...] = ()
    keep: Optional[Tuple[str, ...]] = None
    bits: bool = False
    encoding: str = "unipolar"
    tolerance: float = 0.35
    spec: Optional[str] = None
    fidelity: str = "smoke"
    seed: Optional[int] = None

    @property
    def values_dict(self) -> Dict[str, float]:
        return dict(self.values)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def parse_request(obj: Any) -> ServeRequest:
    """Validate one decoded request object into a :class:`ServeRequest`.

    Raises :class:`ProtocolError` with a client-facing message on any
    malformed field; validation happens *before* the request joins a
    micro-batch group, so one bad request can never poison the batched
    engine pass its neighbours ride in.
    """
    _require(isinstance(obj, dict), "request must be a JSON object")
    kind = obj.get("kind")
    _require(kind in KINDS, f"unknown kind {kind!r}; expected one of {sorted(KINDS)}")
    rid = obj.get("id")
    _require(
        isinstance(rid, str) and 0 < len(rid) <= 128,
        "id must be a non-empty string (max 128 chars)",
    )

    if kind in ("ping", "stats", "shutdown"):
        return ServeRequest(id=rid, kind=kind)

    if kind == "spec":
        spec = obj.get("spec")
        _require(isinstance(spec, str) and spec, "spec requests need a spec name")
        fidelity = obj.get("fidelity", "smoke")
        _require(isinstance(fidelity, str), "fidelity must be a string")
        seed = obj.get("seed")
        _require(seed is None or isinstance(seed, int), "seed must be an integer")
        return ServeRequest(id=rid, kind=kind, spec=spec, fidelity=fidelity, seed=seed)

    graph = obj.get("graph")
    _require(isinstance(graph, str) and graph, f"{kind} requests need a graph name")
    length = obj.get("length", 256)
    _require(
        isinstance(length, int) and not isinstance(length, bool) and length > 0,
        "length must be a positive integer",
    )
    raw_values = obj.get("values") or {}
    _require(isinstance(raw_values, dict), "values must be an object")
    values = []
    for name, value in raw_values.items():
        _require(isinstance(name, str), "source names must be strings")
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"value for {name!r} must be a number",
        )
        values.append((name, float(value)))
    keep = obj.get("keep")
    if keep is not None:
        _require(
            isinstance(keep, list) and all(isinstance(k, str) for k in keep),
            "keep must be a list of node names",
        )
        keep = tuple(keep)
    bits = obj.get("bits", False)
    _require(isinstance(bits, bool), "bits must be a boolean")
    encoding = obj.get("encoding", "unipolar")
    _require(
        encoding in ("unipolar", "bipolar"),
        "encoding must be 'unipolar' or 'bipolar'",
    )
    tolerance = obj.get("tolerance", 0.35)
    _require(
        isinstance(tolerance, (int, float)) and not isinstance(tolerance, bool)
        and tolerance >= 0,
        "tolerance must be a non-negative number",
    )
    return ServeRequest(
        id=rid,
        kind=kind,
        graph=graph,
        length=length,
        values=tuple(sorted(values)),
        keep=keep,
        bits=bits,
        encoding=encoding,
        tolerance=float(tolerance),
    )


def request_to_wire(req: ServeRequest) -> Dict[str, Any]:
    """The wire object a :class:`ServeRequest` round-trips through."""
    obj: Dict[str, Any] = {"id": req.id, "kind": req.kind}
    if req.kind == "spec":
        obj["spec"] = req.spec
        obj["fidelity"] = req.fidelity
        if req.seed is not None:
            obj["seed"] = req.seed
    elif req.kind in ENGINE_KINDS:
        obj["graph"] = req.graph
        obj["length"] = req.length
        if req.values:
            obj["values"] = dict(req.values)
        if req.keep is not None:
            obj["keep"] = list(req.keep)
        if req.bits:
            obj["bits"] = True
        if req.encoding != "unipolar":
            obj["encoding"] = req.encoding
        if req.kind == "audit":
            obj["tolerance"] = req.tolerance
    return obj


def encode_line(obj: Any) -> bytes:
    """One protocol line: canonical JSON (sorted keys, no spaces) + LF."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> Any:
    """Decode one protocol line; raises :class:`ProtocolError`."""
    if len(line) > _MAX_LINE:
        raise ProtocolError(f"line exceeds {_MAX_LINE} bytes")
    try:
        return json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON line: {exc}") from exc


def group_key(req: ServeRequest) -> tuple:
    """The coalescing key — everything that must match for two requests
    to be rows of the same batched engine pass.

    ``values`` is deliberately absent (per-row configurations are the
    batch axis); ``bits`` too (it only changes per-request rendering).
    ``keep`` and ``encoding`` shape the pass itself; ``tolerance``
    parameterises audit broadcasting.
    """
    key = (req.kind, req.graph, req.length, req.keep, req.encoding)
    if req.kind == "audit":
        key += (req.tolerance,)
    return key


def canonical_result(result: Any) -> str:
    """The canonical JSON text of a response ``result`` payload.

    This is the string the byte-identity guarantee is stated over:
    coalesced, solo, streamed, and store-served responses to the same
    request produce the *same canonical text*.
    """
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def words_to_b64(words: np.ndarray) -> str:
    """One stream's packed ``(words,)`` uint64 row as base64 text."""
    return base64.b64encode(
        np.ascontiguousarray(words, dtype="<u8").tobytes()
    ).decode("ascii")


def b64_to_words(text: str) -> np.ndarray:
    """Inverse of :func:`words_to_b64`."""
    return np.frombuffer(base64.b64decode(text.encode("ascii")), dtype="<u8")
