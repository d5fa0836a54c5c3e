"""Shared non-fixture helpers for the test suite."""

import numpy as np


def assert_backends_equivalent(
    graph,
    length,
    *,
    tile_words=(7,),
    jobs=2,
    audit=False,
    traced=False,
    optimize="optimized",
    serve=False,
    pool="default",
):
    """The cross-backend equivalence matrix, as one assertion.

    Pins the repo's core contract for a single ``(graph, length)``:

        interpreter == engine == streaming == parallel streaming

    Every node's bit stream must be *identical* (not approximately
    equal) across all four execution routes, at every requested tile
    size, with the parallel tile scheduler running ``jobs`` span
    workers. With ``audit=True`` the four audit routes are compared
    too — float-exact, because streaming and parallel totals are the
    same integers the materialised engine counts. With ``traced=True``
    the whole matrix runs inside an active :mod:`repro.obs` session —
    tracing must never change a result bit. ``optimize`` selects which
    compiled plan drives the engine/streaming/parallel legs:
    ``"optimized"`` (the default plan), ``"raw"``
    (``optimize=False``), or ``"both"`` — the optimizer's bit-safety
    contract, running the whole matrix once per plan. With
    ``serve=True`` the serving axis joins the matrix: the micro-batch
    group executor (:func:`repro.serve.batcher.execute_group`) must
    return bit-identical streams and byte-identical payloads whether a
    request is served solo or coalesced between other requests.
    ``pool`` selects the dispatch lanes for the parallel leg:
    ``"default"`` runs whichever lane serves the call (the warm pool
    where it can); ``"both"`` also runs the leg with the pool declined
    (no ``fork`` start method, patched), so the span tasks run
    in-process, and requires the two lanes to agree bit for bit.
    """
    import contextlib

    from repro import obs

    with obs.observe() if traced else contextlib.nullcontext():
        _assert_backends_equivalent(
            graph,
            length,
            tile_words=tile_words,
            jobs=jobs,
            audit=audit,
            optimize=optimize,
            serve=serve,
            pool=pool,
        )


def fsm_domain_graph(a=0.5, b=0.5):
    """A graph whose only transform has no kernel and no streaming
    carrier: a subclass of a kernelized circuit classifies as ``fsm``
    domain (per-cycle reference loop), so only a whole-stream tile can
    evaluate it."""
    from repro import SCGraph
    from repro.core import Synchronizer
    from repro.graph.nodes import TransformNode

    class Tweaked(Synchronizer):
        pass

    g = SCGraph()
    g.source("a", a, "vdc")
    g.source("b", b, "halton3")
    shared = {}
    transform = Tweaked(1)
    g.add(TransformNode("t_x", transform, ("a", "b"), 0, shared))
    g.add(TransformNode("t_y", transform, ("a", "b"), 1, shared))
    g.op("prod", "mul", "t_x", "t_y")
    return g


def in_process_lane():
    """Decline the persistent pool as on a platform without ``fork``:
    ``jobs > 1`` calls then run their span tasks in-process."""
    from unittest import mock

    from repro.engine import pool as pool_mod

    return mock.patch.object(pool_mod, "_fork_context", return_value=None)


_OPTIMIZE_FLAGS = {"optimized": (True,), "raw": (False,), "both": (True, False)}


def _assert_backends_equivalent(
    graph, length, *, tile_words, jobs, audit, optimize, serve=False,
    pool="default",
):
    from repro import engine

    if isinstance(tile_words, int):
        tile_words = (tile_words,)

    interp = graph.run(length, backend="interpreter")
    a_interp = graph.audit(length, backend="interpreter") if audit else None
    for flag in _OPTIMIZE_FLAGS[optimize]:
        plan = engine.compile(graph, optimize=flag)
        eng = plan.run(length)
        assert list(interp) == list(eng)
        for name in interp:
            assert np.array_equal(interp[name], eng[name]), (
                "interpreter vs engine", name, length, flag,
            )

        for tw in tile_words:
            stream = engine.run_streaming(plan, length, tile_words=tw)
            par = engine.run_streaming(plan, length, tile_words=tw, jobs=jobs)
            if pool == "both":
                with in_process_lane():
                    other = engine.run_streaming(
                        plan, length, tile_words=tw, jobs=jobs
                    )
                for name in interp:
                    assert np.array_equal(other.words(name), par.words(name)), (
                        "pool vs in-process", name, length, tw, jobs, flag,
                    )
                    assert np.array_equal(other.ones[name], par.ones[name]), (
                        "pool vs in-process ones", name, length, tw, jobs, flag,
                    )
            for name in interp:
                assert np.array_equal(stream.bits(name)[0], eng[name]), (
                    "engine vs streaming", name, length, tw, flag,
                )
                assert np.array_equal(par.words(name), stream.words(name)), (
                    "streaming vs parallel", name, length, tw, jobs, flag,
                )
                assert np.array_equal(par.ones[name], stream.ones[name]), (
                    "streaming vs parallel ones", name, length, tw, jobs, flag,
                )

        if audit:
            a_eng = plan.audit(length)
            assert a_interp.entries == a_eng.entries  # every field, float-exact
            assert a_interp.values == a_eng.values
            assert a_interp.expected == a_eng.expected
            for tw in tile_words:
                a_stream = engine.audit_streaming(plan, length, tile_words=tw)
                a_par = engine.audit_streaming(
                    plan, length, tile_words=tw, jobs=jobs
                )
                assert a_stream.values == a_eng.values
                for eng_entry, got in zip(a_eng.entries, a_stream.entries):
                    assert eng_entry.node == got.node
                    assert eng_entry.measured_scc == got.measured_scc
                    assert eng_entry.measured_value == got.measured_value
                    assert eng_entry.violated == got.violated
                assert a_par.entries == a_stream.entries
                assert a_par.values == a_stream.values
                assert a_par.expected == a_stream.expected

        if serve:
            _assert_serve_equivalent(plan, length, interp, audit=audit)


def _assert_serve_equivalent(plan, length, interp, *, audit):
    """The serving axis: solo == coalesced == engine, bit for bit.

    Goes through :func:`repro.serve.batcher.execute_group` directly
    (the exact code path the asyncio server dispatches to), with the
    middle request of a coalesced group compared byte-for-byte against
    its solo service and its streams against the interpreter's.
    """
    from repro.bitstream.packed import unpack_bits
    from repro.serve.batcher import execute_group
    from repro.serve.protocol import ServeRequest, b64_to_words, canonical_result

    probe = ServeRequest(id="solo", kind="run", graph="g", length=length, bits=True)
    solo = execute_group([probe], plan)[0]
    assert solo["ok"], solo
    for name in interp:
        words = b64_to_words(solo["result"]["words"][name]).reshape(1, -1)
        assert np.array_equal(unpack_bits(words, length)[0], interp[name]), (
            "interpreter vs serve", name, length,
        )

    src = plan.source_names[0]
    flank_a = ServeRequest(
        id="a", kind="run", graph="g", length=length,
        values=((src, 0.25),), bits=True,
    )
    flank_b = ServeRequest(
        id="b", kind="run", graph="g", length=length,
        values=((src, 0.875),), bits=True,
    )
    grouped = execute_group([flank_a, probe, flank_b], plan)
    assert canonical_result(grouped[1]["result"]) == canonical_result(
        solo["result"]
    ), ("serve solo vs coalesced", length)

    if audit:
        a_probe = ServeRequest(id="solo", kind="audit", graph="g", length=length)
        a_solo = execute_group([a_probe], plan)[0]
        a_flank = ServeRequest(
            id="a", kind="audit", graph="g", length=length, values=((src, 0.25),)
        )
        a_grouped = execute_group([a_flank, a_probe], plan)
        assert canonical_result(a_grouped[1]["result"]) == canonical_result(
            a_solo["result"]
        ), ("serve audit solo vs coalesced", length)


def make_pair_batch(rng_x, rng_y, n=256, step=16):
    """Small exhaustive pair batch: comparator D/S through two RNGs.

    Returns ``(x_bits, y_bits, x_levels, y_levels)``.
    """
    levels = np.arange(0, n, step, dtype=np.int64)
    xs = np.repeat(levels, levels.size)
    ys = np.tile(levels, levels.size)
    sx = rng_x.sequence(n)
    sy = rng_y.sequence(n)
    x = (xs[:, None] > sx[None, :]).astype(np.uint8)
    y = (ys[:, None] > sy[None, :]).astype(np.uint8)
    return x, y, xs, ys


def unpacked_pair_sweep(transform, rng_x_spec, rng_y_spec, *, n, step):
    """The byte-per-bit reduction of ``measure_pair_transform``'s pair
    sweep — ``scc_batch`` and per-stream byte means over the same
    ``generate_pair_batch`` output — the oracle of its packed popcount
    path. Returns ``(input_scc, output_scc, bias_x, bias_y)``."""
    from repro.analysis import generate_pair_batch
    from repro.bitstream.metrics import scc_batch
    from repro.rng import make_rng

    x, y, _, _ = generate_pair_batch(
        make_rng(rng_x_spec), make_rng(rng_y_spec), n=n, step=step
    )
    out_x, out_y = transform._process_bits(x, y)
    return (
        float(scc_batch(x, y).mean()),
        float(scc_batch(out_x, out_y).mean()),
        float((out_x.mean(axis=1) - x.mean(axis=1)).mean()),
        float((out_y.mean(axis=1) - y.mean(axis=1)).mean()),
    )
