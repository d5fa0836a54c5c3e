"""Workload ``serve``: mixed-traffic correlation audits over the server.

``repro serve --no-store`` runs in its own process with the CLI defaults
(3 ms window, max batch 32, one engine thread). A run loads ``SERVERS``
fresh servers in turn, for an equal share of ``--seconds`` each, because
one server process settles into a batching pattern of its own: single
servers under the same load served 141-178 req/s on a 2-vCPU VM. One
seeded request stream runs through all of them. Load is a closed loop:
one client thread drives 2 connections and keeps 16 requests in flight
on each, sending the next request only when a reply arrives. 7 of 8
requests are ``depth8`` audits at N = 2^16 and 1 of 8 is an ``fsm_zoo``
run at N = 2^12 keeping ``out``; each request carries its own source
value, drawn from the seed. The slow class shares the engine thread with
the fast one, which is what the mix shows. It is the only workload for
the protocol, the server, the batcher and the materialised executor at
batch > 1.

Correctness: a non-``ok`` response or a request lost on a dropped
connection counts as failed; a fixed sample per class must be
byte-identical (canonical JSON) to a solo in-process ``execute_group``
of the same request, or the run is wrong.
"""

from __future__ import annotations

import os
import random
import selectors
import socket
import sys
import time
from typing import Dict, List, Optional

import common
import layers

# Never more connections than cores, so the generator cannot outrun them.
CONNECTIONS = min(2, os.cpu_count() or 1)
IN_FLIGHT = 16
AUDIT = {"graph": "depth8", "length": 1 << 16, "sources": [f"src{i}" for i in range(9)]}
RUN = {"graph": "fsm_zoo", "length": 1 << 12, "sources": ["a", "b", "c", "d"]}
TINY_LENGTHS = {"audit": 1 << 10, "run": 1 << 8}
RUN_EVERY = 8            # one run per block of 8 requests
SAMPLE_PER_CLASS = 4     # responses checked against solo execution
SERVERS = 6              # fresh servers per run; setup_s is their median
WINDOWS = 10             # per server; req_per_s is the median of all windows
WALL_REQUESTS = 1000     # wall_s: time to serve this many requests of the mix
TRACE_REQUESTS = 1200
MIN_REQUESTS = 1000      # so that ten requests lie beyond p99
TINY_TRACE_REQUESTS = 64
# The server's session and caches grow with every group it serves, so
# peak_rss_mib is read once this many replies have come back from a
# server, which every server of a run reaches; the peak at the end of
# its load is kept in the notes.
RSS_REPLIES = 250
TINY_RSS_REPLIES = 16
DRAIN_TIMEOUT_S = 60.0


class Requests:
    """The seeded request stream: class order and source values."""

    def __init__(self, seed: int, tiny: bool) -> None:
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.block: List[str] = []
        self.sent = 0
        # The first few requests of each class, checked against solo runs.
        self.sample: Dict[str, dict] = {}
        self.per_class: Dict[str, int] = {}

    def next(self) -> dict:
        if not self.block:
            self.block = ["audit"] * RUN_EVERY
            self.block[self.rng.randrange(RUN_EVERY)] = "run"
        kind = self.block.pop()
        shape = AUDIT if kind == "audit" else RUN
        length = TINY_LENGTHS[kind] if self.tiny else shape["length"]
        payload = {
            "id": f"r{self.sent}",
            "kind": kind,
            "graph": shape["graph"],
            "length": length,
            "values": {self.rng.choice(shape["sources"]): round(self.rng.random(), 6)},
        }
        if kind == "audit":
            payload["tolerance"] = 0.35
        else:
            payload["keep"] = ["out"]
            payload["bits"] = True
        self.sent += 1
        if self.per_class.get(kind, 0) < SAMPLE_PER_CLASS:
            self.per_class[kind] = self.per_class.get(kind, 0) + 1
            self.sample[payload["id"]] = payload
        return payload


class Server:
    """A ``repro serve`` process; ``ready_s`` covers spawn to the first
    reply of each request class."""

    def __init__(self, argv: List[str], warm: List[dict]) -> None:
        self.child = common.Child(argv)
        try:
            line = self.child.read_until("listening on")
            self.port = int(line.rsplit(":", 1)[1])
            from repro.serve import ServeClient

            with ServeClient(port=self.port) as client:
                for payload in warm:
                    response = client.request(payload)
                    if not response.get("ok"):
                        raise common.BenchError(f"warm-up failed: {response}")
        except BaseException:
            self.child.kill()
            raise
        self.ready_s = time.perf_counter() - self.child.started

    @property
    def pid(self) -> int:
        return self.child.pid

    def stats(self) -> dict:
        from repro.serve import ServeClient

        with ServeClient(port=self.port) as client:
            return client.stats()

    def stop(self) -> None:
        from repro.serve import ServeClient
        from repro.serve.client import ServeError

        try:
            with ServeClient(port=self.port, timeout=30) as client:
                client.shutdown()
        except (OSError, ServeError):
            self.child.kill()
            return
        if self.child.finish(timeout=60) != 0:
            raise common.BenchError("server exited non-zero")


def _server_argv(trace_path: Optional[str]) -> List[str]:
    args = ["serve", "--no-store", "--port", "0"]
    if trace_path is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(common.BENCH_DIR / "serve_launcher.py"),
            trace_path, *args]


def _warm(tiny: bool) -> List[dict]:
    stream = Requests(0, tiny)
    seen: Dict[str, dict] = {}
    while len(seen) < 2:
        payload = stream.next()
        seen.setdefault(payload["kind"], payload)
    return list(seen.values())


class Load:
    """Outcome of one closed-loop load phase: measured at the client, plus
    the server's CPU time and peak memory (see :func:`_measured_load`)."""

    def __init__(self) -> None:
        self.sent_at: Dict[str, float] = {}
        self.kind: Dict[str, str] = {}
        self.latency_ms: Dict[str, float] = {}
        self.coalesced: Dict[str, int] = {}
        self.done_at: List[float] = []
        # id -> (request, response) for the requests in the solo sample
        self.sampled: Dict[str, tuple] = {}
        self.started_at = 0.0
        self.sending_s = 0.0
        self.failed = 0
        self.attempted = 0
        self.wall_s = 0.0
        self.client_cpu_s = 0.0
        self.in_flight_area = 0.0
        self.server_cpu_s = 0.0
        self.peak_rss_mib: Optional[float] = None
        self.peak_rss_mib_end = 0.0


def closed_loop(port: int, requests: Requests, *, seconds: float = 0.0,
                count: int = 0, at_reply=None) -> Load:
    """Drive ``CONNECTIONS`` sockets with ``IN_FLIGHT`` requests each from
    this thread until ``seconds`` pass or ``count`` more requests were
    sent, then wait for every outstanding reply. Full responses are kept
    for the requests in ``requests.sample``. ``at_reply`` is an optional
    ``(n, callback)``: the callback runs once, when the n-th reply is in."""
    from repro.serve import decode_line, encode_line

    load = Load()
    selector = selectors.DefaultSelector()
    buffers: Dict[socket.socket, bytes] = {}
    pending: Dict[socket.socket, set] = {}
    in_flight = 0
    cpu0 = time.process_time()
    started = last = load.started_at = time.perf_counter()
    deadline = started + seconds if seconds else None
    stop_at = requests.sent + count

    def sending() -> bool:
        if count:
            return requests.sent < stop_at
        return time.perf_counter() < deadline

    def account(now: float) -> None:
        nonlocal last
        load.in_flight_area += in_flight * (now - last)
        last = now

    def send(sock: socket.socket) -> None:
        nonlocal in_flight
        payload = requests.next()
        rid = payload["id"]
        load.kind[rid] = payload["kind"]
        load.attempted += 1
        now = time.perf_counter()
        account(now)
        load.sent_at[rid] = now
        pending[sock].add(rid)
        in_flight += 1
        sock.sendall(encode_line(payload))

    for _ in range(CONNECTIONS):
        sock = socket.create_connection(("127.0.0.1", port))
        sock.setblocking(True)
        buffers[sock] = b""
        pending[sock] = set()
        selector.register(sock, selectors.EVENT_READ)
        for _ in range(IN_FLIGHT):
            if sending():
                send(sock)
    try:
        drain_by = None
        while in_flight:
            if drain_by is None and not sending():
                load.sending_s = time.perf_counter() - started
                drain_by = time.perf_counter() + DRAIN_TIMEOUT_S
            if drain_by is not None and time.perf_counter() > drain_by:
                break
            for key, _ in selector.select(timeout=1.0):
                sock = key.fileobj
                data = sock.recv(1 << 20)
                now = time.perf_counter()
                if not data:  # dropped connection: its requests are lost
                    account(now)
                    in_flight -= len(pending[sock])
                    load.failed += len(pending[sock])
                    pending[sock].clear()
                    selector.unregister(sock)
                    continue
                buffers[sock] += data
                *lines, buffers[sock] = buffers[sock].split(b"\n")
                for line in lines:
                    response = decode_line(line)
                    rid = response.get("id")
                    if rid not in pending[sock]:
                        continue
                    account(now)
                    pending[sock].discard(rid)
                    in_flight -= 1
                    load.latency_ms[rid] = (now - load.sent_at[rid]) * 1e3
                    load.done_at.append(now - started)
                    if at_reply and len(load.done_at) == at_reply[0]:
                        at_reply[1]()
                    if not response.get("ok"):
                        load.failed += 1
                    else:
                        load.coalesced[rid] = response["meta"]["coalesced"]
                        if rid in requests.sample:
                            load.sampled[rid] = (requests.sample[rid], response)
                    if sending():
                        send(sock)
        account(time.perf_counter())
        load.failed += in_flight  # never answered within the drain timeout
    finally:
        for sock in list(buffers):
            sock.close()
        selector.close()
    load.wall_s = time.perf_counter() - started
    load.client_cpu_s = time.process_time() - cpu0
    return load


def _solo_mismatches(load: Load) -> List[str]:
    """Ids in the kept sample whose reply differs from solo execution."""
    from repro.engine import compile_graph
    from repro.engine.library import build_graph
    from repro.serve import execute_group, parse_request
    from repro.serve.protocol import canonical_result

    plans = {}
    bad = []
    for rid, (payload, response) in load.sampled.items():
        graph = payload["graph"]
        if graph not in plans:
            plans[graph] = compile_graph(build_graph(graph))
        solo = execute_group([parse_request(payload)], plans[graph])[0]
        if canonical_result(solo["result"]) != canonical_result(response["result"]):
            bad.append(rid)
    return bad


def _class_latencies(load: Load, kind: str) -> List[float]:
    return [ms for rid, ms in load.latency_ms.items() if load.kind[rid] == kind]


def _peak_rss_mib(server: Server) -> float:
    """The larger peak resident set of the server and the harness."""
    return max(common.peak_rss_mib(server.pid), common.peak_rss_mib(os.getpid()))


def _measured_load(server: Server, requests: Requests, rss_replies: int,
                   **limits) -> Load:
    """One load phase; the peak memory is read once ``rss_replies``
    replies are in (it stays ``None`` when fewer arrive) and again at the
    end. The solo check runs after every load of a run, so that it cannot
    set the harness's peak."""
    load_peak: List[float] = []
    cpu0 = common.cpu_seconds(server.pid)
    load = closed_loop(
        server.port, requests,
        at_reply=(rss_replies, lambda: load_peak.append(_peak_rss_mib(server))),
        **limits)
    load.server_cpu_s = common.cpu_seconds(server.pid) - cpu0
    load.peak_rss_mib = load_peak[0] if load_peak else None
    load.peak_rss_mib_end = _peak_rss_mib(server)
    return load


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    warm = _warm(tiny)
    Server(_server_argv(None), warm).stop()  # untimed: bytecode, page caches
    rss_replies = TINY_RSS_REPLIES if tiny else RSS_REPLIES
    notes: Dict[str, object] = {}
    figures: Dict[str, float] = {}

    if trace:
        count = TINY_TRACE_REQUESTS if tiny else TRACE_REQUESTS
        trace_path = str(common.WORK / "serve-trace.json")
        loads = []
        for path in (None, trace_path):
            server = Server(_server_argv(path), warm)
            try:
                loads.append(_measured_load(
                    server, Requests(seed, tiny), rss_replies, count=count))
            finally:
                server.stop()
        untraced, load = loads
        trace_doc = layers.within(layers.read_trace(trace_path), load.started_at,
                                  load.started_at + load.wall_s)
        extra = {
            "serve.groups": float(layers.span_counts(trace_doc).get("serve.execute", 0)),
            "serve.server_cpu_share": load.server_cpu_s / load.wall_s,
            "serve.engine_busy_share": common.busy_seconds(
                trace_doc["spans"], ["serve.execute"]) / load.wall_s,
            "loadgen.client_cpu_share": load.client_cpu_s / load.wall_s,
            "loadgen.in_flight": load.in_flight_area / load.wall_s,
        }
        for kind in ("audit", "run"):
            latencies = _class_latencies(load, kind)
            extra[f"serve.latency_ms.{kind}.p50"] = common.percentile(latencies, 50)
            extra[f"serve.latency_ms.{kind}.p99"] = common.percentile(latencies, 99)
            sizes = [n for rid, n in load.coalesced.items() if load.kind[rid] == kind]
            extra[f"serve.batch.{kind}"] = (
                sum(sizes) / len(sizes) if sizes else 0.0)
            extra[f"serve.solo_share.{kind}"] = common.ratio(
                sum(1 for s in sizes if s == 1), len(sizes))
        metrics = layers.per_layer(
            trace_doc, overhead=load.wall_s / untraced.wall_s - 1.0, extra=extra)
        notes["spans"] = layers.span_counts(trace_doc)
    else:
        requests = Requests(seed, tiny)
        setups: List[float] = []
        loads = []
        counters: Dict[str, int] = {}
        for _ in range(SERVERS):
            server = Server(_server_argv(None), warm)
            setups.append(server.ready_s)
            try:
                loads.append(_measured_load(
                    server, requests, rss_replies, seconds=seconds / SERVERS))
                for name, value in server.stats()["counters"].items():
                    counters[name] = counters.get(name, 0) + value
            finally:
                server.stop()
        latencies = [ms for ld in loads for ms in ld.latency_ms.values()]
        if len(latencies) < MIN_REQUESTS and not tiny:
            raise common.BenchError(
                f"only {len(latencies)} requests completed; p99 needs "
                f"{MIN_REQUESTS}")
        if any(ld.peak_rss_mib is None for ld in loads):
            raise common.BenchError(
                f"a server answered fewer than {rss_replies} requests")
        rates = [r for ld in loads for r in _window_rates(ld.done_at, ld.sending_s)]
        req_per_s = common.median(rates)
        figures = {
            "req_per_s": req_per_s,
            "p50_ms": common.percentile(latencies, 50),
            "p99_ms": common.percentile(latencies, 99),
        }
        metrics = {
            "setup_s": common.median(setups),
            "peak_rss_mib": max(ld.peak_rss_mib for ld in loads),
            "wall_s": WALL_REQUESTS / req_per_s,
        }
        wall = sum(ld.wall_s for ld in loads)
        notes.update({
            "requests": len(latencies),
            "setup_s": setups,
            "window_req_per_s": rates,
            "sending_s": [ld.sending_s for ld in loads],
            "client_cpu_share": sum(ld.client_cpu_s for ld in loads) / wall,
            "in_flight": sum(ld.in_flight_area for ld in loads) / wall,
            "server_cpu_share": sum(ld.server_cpu_s for ld in loads) / wall,
            "peak_rss_mib_end": max(ld.peak_rss_mib_end for ld in loads),
            "groups": counters.get("serve.groups"),
            "coalesced_batched": counters.get("serve.coalesce.batched"),
            "coalesced_solo": counters.get("serve.coalesce.solo"),
        })
    mismatches = [rid for ld in loads for rid in _solo_mismatches(ld)]
    notes["solo_mismatches"] = mismatches
    return {
        "correct": not mismatches,
        "attempted": sum(ld.attempted for ld in loads),
        "failed": sum(ld.failed for ld in loads),
        "metrics": metrics,
        "figures": figures,
        "notes": notes,
        "jobs": [1],
    }


def _window_rates(done_at: List[float], span_s: float) -> List[float]:
    """Completions per second in ``WINDOWS`` equal windows of the sending
    period (the drain after it is left out)."""
    width = span_s / WINDOWS
    counts = [0] * WINDOWS
    for t in done_at:
        if t < span_s:
            counts[int(t / width)] += 1
    return [c / width for c in counts]
