"""The serving front-end: protocol, coalescing identity, server e2e.

The load-bearing contract is **coalescing invisibility**: a request
served inside a micro-batch of any size returns a byte-identical
``result`` payload (canonical JSON) to the same request served solo —
whether the group ran materialised, load-shed into streaming, or came
back from the content-addressed store. Plus the two concurrency
satellites this PR hardens: the engine plan cache under thread hammer
and the result store under same-key multi-process write races.
"""

import json
import multiprocessing
import pathlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstream.streaming import materialized_batch_bytes
from repro.engine.library import build_graph, depth_chain_graph
from repro.engine.plan import cache_info, clear_cache, compile_graph
from repro.runner.store import ResultStore
from repro.serve import ServeClient, ServeConfig, ServerThread, execute_group
from repro.serve.batcher import (
    DEFAULT_BUDGET_BYTES,
    merged_values,
    store_key,
    whole_stream_bytes,
)
from repro.serve.loadgen import audit_request, run_load
from repro.serve.protocol import (
    ProtocolError,
    ServeRequest,
    b64_to_words,
    canonical_result,
    decode_line,
    encode_line,
    group_key,
    parse_request,
    request_to_wire,
    words_to_b64,
)

from tests.helpers import assert_backends_equivalent, fsm_domain_graph


def _plan(name):
    return compile_graph(build_graph(name))


def _req(i=0, **over):
    base = dict(id=f"r{i}", kind="audit", graph="depth8", length=512)
    base.update(over)
    return parse_request(base)


# ---------------------------------------------------------------------- #
# protocol
# ---------------------------------------------------------------------- #


class TestProtocol:
    def test_parse_round_trip(self):
        req = parse_request(
            {
                "id": "a", "kind": "run", "graph": "depth8", "length": 1024,
                "values": {"src1": 0.25, "src0": 0.5}, "keep": ["n8"],
                "bits": True, "encoding": "bipolar",
            }
        )
        assert req.values == (("src0", 0.5), ("src1", 0.25))  # canonical order
        again = parse_request(request_to_wire(req))
        assert again == req

    def test_line_codec_round_trip(self):
        obj = {"id": "x", "kind": "ping"}
        assert decode_line(encode_line(obj)) == obj

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "run", "graph": "g", "id": ""},           # empty id
            {"kind": "teleport", "id": "a"},                   # unknown kind
            {"kind": "run", "id": "a"},                        # missing graph
            {"kind": "run", "id": "a", "graph": "g", "length": 0},
            {"kind": "run", "id": "a", "graph": "g", "length": True},
            {"kind": "run", "id": "a", "graph": "g", "values": {"s": "x"}},
            {"kind": "run", "id": "a", "graph": "g", "keep": "n8"},
            {"kind": "run", "id": "a", "graph": "g", "encoding": "ternary"},
            {"kind": "audit", "id": "a", "graph": "g", "tolerance": -1},
            {"kind": "spec", "id": "a"},                       # missing spec
            ["not", "an", "object"],
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_request(bad)

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError):
            decode_line(b"{nope\n")

    def test_group_key_batches_values_not_shape(self):
        a = _req(0, values={"src0": 0.1})
        b = _req(1, values={"src0": 0.9, "src3": 0.4})
        assert group_key(a) == group_key(b)       # values are the batch axis
        assert group_key(a) != group_key(_req(2, length=1024))
        assert group_key(a) != group_key(_req(3, tolerance=0.5))
        run_a = _req(4, kind="run", values={"src0": 0.1})
        assert group_key(run_a) != group_key(a)   # kind splits groups
        bits = _req(5, kind="run", bits=True)
        plain = _req(6, kind="run")
        assert group_key(bits) == group_key(plain)  # bits is rendering only

    def test_words_b64_round_trip(self):
        words = np.arange(7, dtype="<u8") * 0x0123456789ABCDEF
        assert np.array_equal(b64_to_words(words_to_b64(words)), words)


# ---------------------------------------------------------------------- #
# group execution: value merge + byte identity
# ---------------------------------------------------------------------- #


class TestExecuteGroup:
    def test_merged_values_fills_graph_defaults(self):
        plan = _plan("depth8")
        reqs = [
            _req(0, values={"src0": 0.1}),
            _req(1),
            _req(2, values={"src2": 0.9}),
        ]
        merged = merged_values(reqs, plan)
        assert sorted(merged) == ["src0", "src2"]
        # row 1 overrode nothing: both merged sources carry its defaults
        assert merged["src0"].tolist() == [0.1, 0.5, 0.5]
        assert merged["src2"].tolist() == [0.5, 0.5, 0.9]

    def test_merged_values_none_without_overrides(self):
        assert merged_values([_req(0), _req(1)], _plan("depth8")) is None

    def test_solo_equals_coalesced_run(self):
        plan = _plan("correlated_multiply")
        reqs = [
            parse_request(
                {
                    "id": f"r{i}", "kind": "run",
                    "graph": "correlated_multiply", "length": 777,
                    "values": {"a": 0.2 + 0.2 * i}, "bits": True,
                }
            )
            for i in range(4)
        ]
        grouped = execute_group(reqs, plan)
        for req, got in zip(reqs, grouped):
            solo = execute_group([req], plan)[0]
            assert canonical_result(got["result"]) == canonical_result(
                solo["result"]
            )
            assert got["meta"]["coalesced"] == 4
            assert solo["meta"]["coalesced"] == 1

    def test_shed_routes_to_streaming_and_stays_identical(self):
        plan = _plan("correlated_multiply")
        reqs = [
            parse_request(
                {
                    "id": f"r{i}", "kind": "run",
                    "graph": "correlated_multiply", "length": 513,
                    "values": {"b": 0.125 * (i + 1)}, "bits": True,
                }
            )
            for i in range(3)
        ]
        normal = execute_group(reqs, plan)
        shed = execute_group(reqs, plan, budget_bytes=1)
        assert {r["meta"]["route"] for r in normal} == {"batched"}
        assert {r["meta"]["route"] for r in shed} == {"streamed"}
        for a, b in zip(normal, shed):
            assert canonical_result(a["result"]) == canonical_result(b["result"])

    def test_shed_audit_without_overrides_streams(self):
        plan = _plan("depth8")
        req = _req(0, length=4096)
        batched = execute_group([req], plan)[0]
        shed = execute_group([req], plan, budget_bytes=1)[0]
        assert shed["meta"]["route"] == "streamed"
        assert canonical_result(shed["result"]) == canonical_result(
            batched["result"]
        )

    def test_shed_audit_with_overrides_streams(self):
        # An over-budget audit with per-source overrides sheds into
        # constant-memory tiles like every other group, and its payload
        # is byte-identical to the unshed group's.
        plan = _plan("depth8")
        req = _req(0, values={"src0": 0.3})
        batched = execute_group([req], plan)[0]
        shed = execute_group([req], plan, budget_bytes=1)[0]
        assert batched["meta"]["route"] == "batched"
        assert shed["meta"]["route"] == "streamed"
        assert canonical_result(shed["result"]) == canonical_result(
            batched["result"]
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shed_coalesced_audits_with_overrides_stream_at_any_jobs(self, jobs):
        plan = _plan("depth8")
        reqs = [
            _req(i, length=4099, values={"src0": 0.1 * (i + 1), "src3": 0.6})
            for i in range(3)
        ]
        batched = execute_group(reqs, plan)
        shed = execute_group(
            reqs, plan, budget_bytes=1, stream_jobs=jobs, tile_words=8
        )
        assert {r["meta"]["route"] for r in batched} == {"batched"}
        assert {r["meta"]["route"] for r in shed} == {"streamed"}
        for a, b in zip(batched, shed):
            assert canonical_result(a["result"]) == canonical_result(b["result"])

    @pytest.mark.parametrize("budget", [DEFAULT_BUDGET_BYTES, 1])
    def test_override_free_audits_share_one_row(self, budget):
        # No request overrides anything: the group runs one shared
        # default-configuration row, and every request renders it.
        plan = _plan("depth8")
        reqs = [_req(i) for i in range(3)]
        solo = execute_group([reqs[0]], plan)[0]
        for got in execute_group(reqs, plan, budget_bytes=budget):
            assert got["meta"]["coalesced"] == 3
            assert canonical_result(got["result"]) == canonical_result(
                solo["result"]
            )

    @pytest.mark.parametrize("kind", ["run", "audit"])
    def test_carrierless_plan_sheds_back_to_batched(self, kind):
        # fsm-domain transforms have no streaming carrier: an
        # over-budget group falls back to the whole-stream pass, with
        # the unshed group's bytes.
        plan = compile_graph(fsm_domain_graph())
        reqs = [
            parse_request(
                {
                    "id": f"r{i}", "kind": kind, "graph": "fsm_domain",
                    "length": 333, "values": {"a": 0.25 * (i + 1)},
                    "bits": True,
                }
            )
            for i in range(3)
        ]
        normal = execute_group(reqs, plan)
        shed = execute_group(reqs, plan, budget_bytes=1)
        assert {r["meta"]["route"] for r in normal} == {"batched"}
        assert {r["meta"]["route"] for r in shed} == {"batched"}
        for a, b in zip(normal, shed):
            assert canonical_result(a["result"]) == canonical_result(b["result"])

    def test_sequences_count_toward_the_budget(self):
        # At N = 2^18 a depth-8 audit's packed words (~0.5 MiB) fit a
        # 4 MiB budget, but its five comparator sequences (2 MiB each)
        # do not: the group must shed.
        plan = _plan("depth8")
        n = 1 << 18
        words_only = materialized_batch_bytes(len(plan.steps), 1, n)
        assert words_only < 4 << 20 < whole_stream_bytes(plan, 1, n)
        req = _req(0, length=n, values={"src1": 0.4})
        shed = execute_group([req], plan, budget_bytes=4 << 20)[0]
        assert shed["meta"]["route"] == "streamed"
        batched = execute_group([req], plan)[0]
        assert canonical_result(shed["result"]) == canonical_result(
            batched["result"]
        )

    @pytest.mark.parametrize("name, kind", [("depth8", "audit"), ("fsm_zoo", "run")])
    def test_estimate_covers_the_traced_pass(self, name, kind):
        """The shed estimate is at least half of what a whole-stream pass
        allocates. Kernel caches are warmed first (they outlive the call)
        and the sequence memo is cold; both sides are then linear in N —
        the ratio measured at N = 2^20 (0.64 depth8, 0.76 fsm_zoo) holds
        at the N tested here."""
        import tracemalloc

        from repro.engine import clear_sequence_cache
        from repro.engine.executor import audit_batch, run_batch

        plan = _plan(name)
        call = audit_batch if kind == "audit" else run_batch
        n = 1 << 16
        call(plan, 256)
        clear_sequence_cache()
        tracemalloc.start()
        try:
            call(plan, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            clear_sequence_cache()
        estimate = whole_stream_bytes(plan, 1, n)
        assert estimate >= peak / 2, (estimate, peak)
        # Packed words alone miss most of the pass.
        assert materialized_batch_bytes(len(plan.steps), 1, n) < peak / 10

    @settings(max_examples=25, deadline=None)
    @given(
        batch=st.lists(
            st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                          width=32),
            ),
            min_size=1, max_size=7,
        ),
        probe_at=st.integers(min_value=0, max_value=6),
        length=st.sampled_from([63, 256, 511]),
    )
    def test_any_batch_size_is_byte_identical_to_solo(
        self, batch, probe_at, length
    ):
        """Property: a request returns the same bytes from *any* group.

        The probe request lands at an arbitrary position inside an
        arbitrary-size group of arbitrary-value neighbours; its rendered
        payload must equal its solo service exactly.
        """
        plan = _plan("uncorrelated_subtract")
        probe_at = min(probe_at, len(batch))
        probe = parse_request(
            {
                "id": "probe", "kind": "run",
                "graph": "uncorrelated_subtract", "length": length,
                "values": {"a": 0.375}, "bits": True,
            }
        )
        neighbours = [
            parse_request(
                {
                    "id": f"n{i}", "kind": "run",
                    "graph": "uncorrelated_subtract", "length": length,
                    **({"values": {"b": float(v)}} if v is not None else {}),
                }
            )
            for i, v in enumerate(batch)
        ]
        group = neighbours[:probe_at] + [probe] + neighbours[probe_at:]
        grouped = execute_group(group, plan)[probe_at]
        solo = execute_group([probe], plan)[0]
        assert canonical_result(grouped["result"]) == canonical_result(
            solo["result"]
        )

    def test_store_short_circuits_and_preserves_bytes(self, tmp_path):
        plan = _plan("depth8")
        store = ResultStore(tmp_path)
        reqs = [_req(i, values={"src0": 0.25 * (i + 1)}) for i in range(3)]
        first = execute_group(reqs, plan, store=store)
        assert all(not r["meta"]["cached"] for r in first)
        second = execute_group(reqs, plan, store=store)
        assert all(r["meta"]["cached"] for r in second)
        assert all(r["meta"]["route"] == "store" for r in second)
        for a, b in zip(first, second):
            assert canonical_result(a["result"]) == canonical_result(
                b["result"]
            )

    def test_intra_group_duplicates_share_one_key(self, tmp_path):
        plan = _plan("depth8")
        store = ResultStore(tmp_path)
        twin_a, twin_b = _req(0, values={"src0": 0.5}), _req(1, values={"src0": 0.5})
        assert store_key(store, twin_a) == store_key(store, twin_b)
        responses = execute_group([twin_a, twin_b], plan, store=store)
        assert canonical_result(responses[0]["result"]) == canonical_result(
            responses[1]["result"]
        )
        # both wrote the same key; the stored record is whole and valid
        cached = store.get(store_key(store, twin_a))
        assert cached == responses[0]["result"]


# ---------------------------------------------------------------------- #
# cross-backend equivalence: the serve axis
# ---------------------------------------------------------------------- #


class TestServeEquivalence:
    @pytest.mark.parametrize("name", ["correlated_multiply", "mixed_pipeline"])
    @pytest.mark.parametrize("length", [256, 257])
    def test_serve_axis_joins_the_matrix(self, name, length):
        assert_backends_equivalent(
            build_graph(name), length, audit=True, serve=True
        )

    def test_serve_axis_fsm_graph(self):
        assert_backends_equivalent(build_graph("fsm_zoo"), 256, serve=True)

    def test_serve_axis_deep_chain_odd_length(self):
        assert_backends_equivalent(depth_chain_graph(4), 333, serve=True)


# ---------------------------------------------------------------------- #
# satellite: plan cache under thread hammer
# ---------------------------------------------------------------------- #


class TestPlanCacheThreadSafety:
    def test_compile_graph_hammered_from_threads(self):
        """16 threads compiling the same graphs concurrently must agree
        on one cached plan per (signature, level) and keep the cache's
        hit/miss accounting consistent — the serving executor calls
        ``compile_graph`` from worker threads."""
        clear_cache()
        graphs = {name: build_graph(name) for name in
                  ("depth8", "correlated_multiply", "fsm_zoo")}
        results = {name: [] for name in graphs}
        errors = []

        def hammer():
            try:
                for _ in range(25):
                    for name, graph in graphs.items():
                        results[name].append(compile_graph(graph))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for name, plans in results.items():
            assert len({id(p) for p in plans}) == 1, name  # one shared plan
        info = cache_info()
        assert info["hits"] + info["misses"] == 16 * 25 * len(graphs)

    def test_clear_cache_racing_compile(self):
        """clear_cache interleaved with compile_graph never corrupts the
        cache (worst case is extra misses)."""
        graph = build_graph("correlated_multiply")
        stop = threading.Event()
        errors = []

        def compiler():
            try:
                while not stop.is_set():
                    compile_graph(graph)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=compiler) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(50):
            clear_cache()
        stop.set()
        for t in threads:
            t.join()
        assert not errors


# ---------------------------------------------------------------------- #
# satellite: store same-key write race across processes
# ---------------------------------------------------------------------- #


def _store_writer(root, key, tag, rounds):
    store = ResultStore(root)
    for i in range(rounds):
        store.put(key, {"tag": tag, "round": i})


class TestStoreWriteRace:
    def test_concurrent_same_key_writes_never_tear(self, tmp_path):
        """Two processes hammering one content key: every concurrent
        read parses as complete JSON and equals one writer's payload
        (last-writer-wins, never a torn/partial record)."""
        store = ResultStore(tmp_path)
        key = store.shard_key("race", "shard", "fn", {}, None)
        store.put(key, {"tag": "seed", "round": -1})
        ctx = multiprocessing.get_context("fork")
        rounds = 200
        workers = [
            ctx.Process(target=_store_writer,
                        args=(str(tmp_path), key, tag, rounds))
            for tag in ("a", "b")
        ]
        for w in workers:
            w.start()
        reads = 0
        while any(w.is_alive() for w in workers):
            payload = store.get(key)   # raises on a torn record
            assert payload["tag"] in ("seed", "a", "b")
            reads += 1
        for w in workers:
            w.join()
            assert w.exitcode == 0
        assert reads > 0
        assert store.get(key)["round"] == rounds - 1
        # no orphaned temp files survive the race
        leftovers = list(pathlib.Path(tmp_path).rglob("*.tmp"))
        assert leftovers == []


# ---------------------------------------------------------------------- #
# server end-to-end over TCP
# ---------------------------------------------------------------------- #


@pytest.fixture()
def server(tmp_path):
    config = ServeConfig(window_ms=5.0, max_batch=16,
                         store_root=str(tmp_path / "store"))
    with ServerThread(config) as srv:
        yield srv


class TestServer:
    def test_ping_stats_and_errors(self, server):
        with ServeClient(port=server.port) as client:
            assert client.ping() == "pong"
            response = client.request(
                {"kind": "audit", "graph": "not_a_graph", "length": 64}
            )
            assert response["ok"] is False
            assert "unknown graph" in response["error"]
            response = client.request(
                {"kind": "run", "graph": "depth8", "values": {"nope": 0.5}}
            )
            assert "unknown source" in response["error"]
            response = client.request({"kind": "nope"})
            assert "unknown kind" in response["error"]
            stats = client.stats()
            assert stats["counters"]["serve.errors"] == 3
            assert stats["queue_depth"] == 0

    def test_pipelined_requests_coalesce_and_match_solo(self, server):
        with ServeClient(port=server.port) as client:
            payloads = [
                {"kind": "audit", "graph": "depth8", "length": 1024,
                 "values": {"src0": 0.1 + 0.08 * i}}
                for i in range(8)
            ]
            grouped = client.request_many(payloads)
            assert all(r["ok"] for r in grouped)
            assert max(r["meta"]["coalesced"] for r in grouped) > 1
            # responses re-match by id in request order
            for payload, response in zip(payloads, grouped):
                solo = execute_group(
                    [parse_request({**payload, "id": "solo"})], _plan("depth8")
                )[0]
                assert canonical_result(response["result"]) == canonical_result(
                    solo["result"]
                )
            counters = client.stats()["counters"]
            assert counters["serve.coalesce.batched"] > 0

    def test_store_hits_short_circuit_across_connections(self, server):
        payload = {"kind": "run", "graph": "mixed_pipeline", "length": 512,
                   "values": {"a": 0.7}}
        with ServeClient(port=server.port) as first:
            miss = first.request(payload)
        with ServeClient(port=server.port) as second:
            hit = second.request(payload)
        assert miss["meta"]["cached"] is False
        assert hit["meta"]["cached"] is True
        assert canonical_result(miss["result"]) == canonical_result(
            hit["result"]
        )

    def test_spec_requests_run_through_shared_store(self, server):
        with ServeClient(port=server.port) as client:
            cold = client.spec("table1", fidelity="smoke")
            warm = client.spec("table1", fidelity="smoke")
        assert cold["computed"] == cold["shard_count"]
        assert warm["cache_hits"] == warm["shard_count"]

    def test_loadgen_under_concurrency(self, server):
        report = run_load(
            "127.0.0.1", server.port, concurrency=8, per_worker=3,
            make_request=lambda i: audit_request("depth8", 1024, i),
        )
        assert report.errors == 0
        assert report.requests == 24
        assert report.coalesced_max > 1

    def test_shutdown_request_stops_server(self, tmp_path):
        config = ServeConfig(window_ms=2.0)
        with ServerThread(config) as srv:
            with ServeClient(port=srv.port) as client:
                assert client.shutdown() == "stopping"
            srv._thread.join(timeout=10)
            assert not srv._thread.is_alive()


# ---------------------------------------------------------------------- #
# satellite: serve spools aggregate through `repro stats`
# ---------------------------------------------------------------------- #


class TestServeObservability:
    def test_spool_written_and_stats_aggregates(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "store"
        config = ServeConfig(window_ms=2.0, store_root=str(root))
        with ServerThread(config) as srv:
            with ServeClient(port=srv.port) as client:
                client.request_many(
                    [
                        {"kind": "audit", "graph": "depth8", "length": 512,
                         "values": {"src0": 0.2 + 0.1 * i}}
                        for i in range(4)
                    ]
                )
            srv.stop()
        spools = list((root / "obs").glob("serve-*.jsonl"))
        assert spools, "server wrote no obs spool"
        assert main(["stats", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "serve.coalesce" in out
        assert "serve_coalesce_rate" in out

    def test_stats_merges_spools_with_stats_docs(self, tmp_path, capsys):
        """A traced runner doc and serve spools merge into one view."""
        from repro import obs
        from repro.cli import main

        root = tmp_path / "store"
        obs_dir = root / "obs"
        obs_dir.mkdir(parents=True)
        with obs.observe() as trace:
            with obs.span("runner.fake"):
                obs.counter_add("store.write", 3)
        (obs_dir / "stats-19700101-000000-1.json").write_text(
            json.dumps(obs.stats_doc(trace)) + "\n"
        )
        config = ServeConfig(window_ms=2.0, store_root=str(root))
        with ServerThread(config) as srv:
            with ServeClient(port=srv.port) as client:
                client.audit("depth8", 256)
            srv.stop()
        assert main(["stats", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "runner.fake" in out or "store.write" in out
        assert "serve.requests" in out

    def test_drain_spool_deltas_sum_to_totals(self, tmp_path):
        from repro import obs

        spool = tmp_path / "spool.jsonl"
        with obs.observe():
            obs.counter_add("serve.test.counter", 2)
            assert obs.drain_spool(spool) >= 0
            obs.counter_add("serve.test.counter", 5)
            obs.drain_spool(spool)
        trace = obs.read_spool_trace([spool])
        assert trace.metrics["counters"]["serve.test.counter"] == 7


# ---------------------------------------------------------------------- #
# satellite: shutdown drains both execution runtimes, idempotently
# ---------------------------------------------------------------------- #


class TestShutdownDrainsRuntimes:
    def test_double_close_is_idempotent(self, tmp_path):
        # A double-`shutdown` request (or a signal racing a client
        # shutdown) must find every handle already torn down and return
        # quietly — and the teardown must drain the engine thread pool
        # AND the persistent process pool.
        import asyncio

        from repro.engine import pool as pool_mod
        from repro.serve.server import SCServer

        config = ServeConfig(window_ms=2.0, store_root=str(tmp_path / "store"))

        async def _scenario():
            server = SCServer(config)
            await server.start()
            await server.close()
            assert server._server is None and server._pool is None
            await server.close()  # second close must not raise
            assert server._server is None and server._pool is None

        asyncio.run(_scenario())
        assert pool_mod._POOL is None  # persistent process pool drained

    def test_server_thread_stop_twice(self, tmp_path):
        config = ServeConfig(window_ms=2.0, store_root=str(tmp_path / "store"))
        with ServerThread(config) as srv:
            with ServeClient(port=srv.port) as client:
                assert client.ping() == "pong"
            srv.stop()
            srv.stop()  # second stop is a no-op
        assert not srv._thread.is_alive()
