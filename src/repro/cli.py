"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — enumerate the registered experiments;
* ``run <spec|all> [--fidelity F] [--jobs N] [--seed S] [--force]`` —
  run experiments through :mod:`repro.runner`: declarative specs expand
  into shards, shards run on a process pool, and payloads land in the
  content-addressed result store so repeated runs are cache hits.
  ``run --list`` enumerates the specs with grid sizes and shard counts;
  the legacy ``--step N`` / ``--out FILE`` flags keep working;
* ``all [--step N] [--out-dir DIR]`` — legacy alias for ``run all``;
* ``stats [--store DIR]`` — render the newest recorded observability
  stats document (written by traced/profiled runs) from the store;
* ``report [--fidelity F] [--out-dir DIR] [--md FILE] [--check]`` —
  regenerate the published artifacts (``benchmarks/results``-style
  tables, EXPERIMENTS.md) from the store without re-running anything;
* ``costs`` — print the hardware component cost landscape;
* ``engine <graph>`` — compile a named graph through
  :mod:`repro.engine` and print its execution plan (levels, packed vs
  FSM nodes, plan-cache hits/misses) next to the audit table;
* ``audit <graph> [--fix]`` — engine-backed correlation audit of a
  named graph, optionally with the autofix pass applied;
* ``serve [--port P] [--window-ms W] [--max-batch B]`` — long-lived
  micro-batching front-end (:mod:`repro.serve`): concurrent run/audit
  requests sharing a plan coalesce into single batched engine passes,
  byte-identical to solo service;
* ``client <kind> [target]`` — one-shot request against a running
  server (``ping`` / ``stats`` / ``run`` / ``audit`` / ``spec`` /
  ``shutdown``), response printed as JSON;
* ``bench-serve [--concurrency C]`` — closed-loop load against a
  running server, printing throughput and latency percentiles.

Fidelity presets trade sweep resolution for runtime (``exhaustive`` is
the paper's setting and what the benchmark suite archives; ``smoke`` is
CI-sized). ``--store DIR`` (or ``$REPRO_STORE``) relocates the result
store, ``--seed S`` makes every factory-made seedable RNG derive from S
and is recorded in each stored result's content address. Named graphs
come from :data:`repro.engine.library.GRAPH_LIBRARY`.

Observability (:mod:`repro.obs`): ``run``/``all``/``engine`` accept
``--trace out.json`` (Chrome trace-event JSON, Perfetto-loadable) and
``--profile`` (human span tree on stdout). Traced runs also persist the
trace and a stats document under ``<store>/obs/`` — artifacts keyed by
wall-clock stamp, deliberately *outside* the content-addressed object
space (like ``--jobs``, tracing never changes a result bit, so it must
not change a content address either). ``run``/``all`` print one summary
line per spec by default; ``-v`` restores the per-shard cache hit/miss
lines (now routed through the ``repro.runner`` logger).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from ._validation import check_jobs, check_stream_length, check_tile_words
from .analysis import ALL_EXPERIMENTS, render_table
from .engine import GRAPH_LIBRARY
from .exceptions import CircuitConfigurationError, EncodingError
from .hardware import components, report

__all__ = ["main", "build_parser"]


def _length_arg(text: str) -> int:
    """Argparse type for stream lengths — the library's central
    validator (:func:`repro._validation.check_stream_length`) instead of
    an ad-hoc bound, so the CLI and the APIs reject exactly the same
    values with the same rules (odd lengths allowed)."""
    try:
        return check_stream_length(int(text))
    except (ValueError, EncodingError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _tile_words_arg(text: str) -> int:
    """Argparse type for tile sizes via the central validator."""
    try:
        return check_tile_words(int(text))
    except (ValueError, CircuitConfigurationError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _jobs_arg(text: str) -> int:
    """Argparse type for worker counts via the central validator."""
    try:
        return check_jobs(int(text))
    except (ValueError, CircuitConfigurationError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_obs_args(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("-v", "--verbose", action="store_true",
                            help="per-shard cache hit/miss lines (default "
                                 "prints only run summaries)")
    sub_parser.add_argument("--trace", type=pathlib.Path, default=None,
                            help="record the run and write a Chrome "
                                 "trace-event JSON (Perfetto-loadable)")
    sub_parser.add_argument("--profile", action="store_true",
                            help="record the run and print the span "
                                 "profile tree")


def build_parser() -> argparse.ArgumentParser:
    from .runner import FIDELITIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Correlation Manipulating Circuits for "
        "Stochastic Computing' (DATE 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run experiments through the runner")
    run_p.add_argument("experiment", nargs="?", default=None,
                       choices=sorted(ALL_EXPERIMENTS) + ["all"],
                       help="spec name, or 'all' for every registered spec")
    run_p.add_argument("fidelity_pos", nargs="?", default=None,
                       choices=FIDELITIES, metavar="fidelity",
                       help="fidelity preset as a positional shorthand "
                            "('repro run table2 smoke')")
    run_p.add_argument("--list", action="store_true", dest="list_specs",
                       help="enumerate registered specs with grid sizes and "
                            "shard counts, then exit")
    # --step predates the fidelity presets; the two would silently fight
    # over the sweep resolution, so they are mutually exclusive.
    fidelity_group = run_p.add_mutually_exclusive_group()
    fidelity_group.add_argument("--fidelity", choices=FIDELITIES, default=None,
                                help="parameter preset (default: 'default', "
                                     "the historical CLI settings)")
    fidelity_group.add_argument("--step", type=int, default=4,
                                help="legacy level-sweep step override "
                                     "(1 = paper-exhaustive)")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for shard execution")
    run_p.add_argument("--seed", type=int, default=None,
                       help="run-level RNG seed, recorded in stored results")
    run_p.add_argument("--force", action="store_true",
                       help="recompute shards even when cached")
    run_p.add_argument("--store", type=pathlib.Path, default=None,
                       help="result store directory (default: $REPRO_STORE "
                            "or ./.repro-store)")
    run_p.add_argument("--out", type=pathlib.Path, default=None,
                       help="also write the table(s) to this file")
    _add_obs_args(run_p)

    all_p = sub.add_parser("all", help="run every experiment (alias of 'run all')")
    all_p.add_argument("--out-dir", type=pathlib.Path, default=None)
    all_fidelity_group = all_p.add_mutually_exclusive_group()
    all_fidelity_group.add_argument("--step", type=int, default=4)
    all_fidelity_group.add_argument("--fidelity", choices=FIDELITIES, default=None)
    all_p.add_argument("--jobs", type=int, default=1)
    all_p.add_argument("--seed", type=int, default=None)
    all_p.add_argument("--force", action="store_true")
    all_p.add_argument("--store", type=pathlib.Path, default=None)
    _add_obs_args(all_p)

    stats_p = sub.add_parser(
        "stats", help="render the newest observability stats from the store"
    )
    stats_p.add_argument("--store", type=pathlib.Path, default=None,
                         help="result store directory (default: $REPRO_STORE "
                              "or ./.repro-store)")

    report_p = sub.add_parser(
        "report", help="regenerate published artifacts from the result store"
    )
    report_p.add_argument("--fidelity", choices=FIDELITIES, default="exhaustive")
    report_p.add_argument("--seed", type=int, default=None)
    report_p.add_argument("--store", type=pathlib.Path, default=None)
    report_p.add_argument("--out-dir", type=pathlib.Path,
                          default=pathlib.Path("benchmarks/results"),
                          help="where the <experiment>.txt archives go")
    report_p.add_argument("--md", type=pathlib.Path, default=None,
                          help="also roll everything into this EXPERIMENTS.md")
    report_p.add_argument("--check", action="store_true",
                          help="compare against existing archives instead of "
                               "writing; non-zero exit on drift")

    sub.add_parser("costs", help="print the hardware cost landscape")

    engine_p = sub.add_parser(
        "engine", help="compile a named graph and show its execution plan"
    )
    engine_p.add_argument("graph", choices=sorted(GRAPH_LIBRARY))
    engine_p.add_argument("--length", type=_length_arg, default=256,
                          help="stream length N for the audit")
    engine_p.add_argument("--tolerance", type=float, default=0.35)
    engine_p.add_argument("--streaming", action="store_true",
                          help="audit through the constant-memory tile "
                               "scheduler (long N stay feasible)")
    engine_p.add_argument("--tile-words", type=_tile_words_arg, default=4096,
                          help="streaming tile size in 64-bit words")
    engine_p.add_argument("--jobs", type=_jobs_arg, default=1,
                          help="span workers for the parallel tile "
                               "scheduler (streaming only; results are "
                               "bit-identical at any count)")
    engine_p.add_argument("--no-optimize", action="store_true",
                          help="compile the faithful one-step-per-node plan "
                               "(skip structural CSE / arena allocation; the "
                               "audit is float-identical either way)")
    engine_p.add_argument("--profile", action="store_true",
                          help="trace the compile + audit and print the "
                               "span profile tree")
    engine_p.add_argument("--trace", type=pathlib.Path, default=None,
                          help="write a Chrome trace-event JSON of the "
                               "compile + audit (Perfetto-loadable)")

    audit_p = sub.add_parser(
        "audit", help="engine-backed correlation audit of a named graph"
    )
    audit_p.add_argument("graph", choices=sorted(GRAPH_LIBRARY))
    audit_p.add_argument("--length", type=_length_arg, default=256)
    audit_p.add_argument("--tolerance", type=float, default=0.35)
    audit_p.add_argument("--fix", action="store_true",
                         help="also run autofix and re-audit the fixed graph")

    from .serve.protocol import DEFAULT_PORT

    serve_p = sub.add_parser(
        "serve", help="long-lived micro-batching engine server"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help="TCP port (0 picks a free one)")
    serve_p.add_argument("--window-ms", type=float, default=3.0,
                         help="micro-batch window; concurrent requests "
                              "sharing a plan coalesce within it")
    serve_p.add_argument("--max-batch", type=int, default=32,
                         help="flush a group early at this size")
    serve_p.add_argument("--budget-mb", type=int, default=256,
                         help="materialised-footprint budget before a "
                              "group sheds into streaming execution")
    serve_p.add_argument("--jobs", type=_jobs_arg, default=1,
                         help="span workers for shed streaming passes")
    serve_p.add_argument("--workers", type=int, default=1,
                         help="engine worker threads")
    serve_p.add_argument("--tile-words", type=_tile_words_arg, default=4096)
    serve_p.add_argument("--store", type=pathlib.Path, default=None,
                         help="result store for the response cache and obs "
                              "spool (default: $REPRO_STORE or "
                              "./.repro-store)")
    serve_p.add_argument("--no-store", action="store_true",
                         help="disable the response cache and obs spool")

    client_p = sub.add_parser(
        "client", help="send one request to a running server"
    )
    client_p.add_argument("kind",
                          choices=["ping", "stats", "run", "audit", "spec",
                                   "shutdown"])
    client_p.add_argument("target", nargs="?", default=None,
                          help="graph name (run/audit) or spec name (spec)")
    client_p.add_argument("--host", default="127.0.0.1")
    client_p.add_argument("--port", type=int, default=DEFAULT_PORT)
    client_p.add_argument("--length", type=_length_arg, default=256)
    client_p.add_argument("--tolerance", type=float, default=0.35)
    client_p.add_argument("--value", action="append", default=[],
                          metavar="SOURCE=V",
                          help="source value override (repeatable)")
    client_p.add_argument("--fidelity", default="smoke")
    client_p.add_argument("--seed", type=int, default=None)

    bench_serve_p = sub.add_parser(
        "bench-serve", help="closed-loop load against a running server"
    )
    bench_serve_p.add_argument("--host", default="127.0.0.1")
    bench_serve_p.add_argument("--port", type=int, default=DEFAULT_PORT)
    bench_serve_p.add_argument("--concurrency", type=int, default=16)
    bench_serve_p.add_argument("--requests", type=int, default=8,
                               help="requests per worker")
    bench_serve_p.add_argument("--graph", choices=sorted(GRAPH_LIBRARY),
                               default="depth8")
    bench_serve_p.add_argument("--length", type=_length_arg, default=16384)
    bench_serve_p.add_argument("--kind", choices=["audit", "run"],
                               default="audit")
    return parser


def _cmd_list() -> int:
    for name in ALL_EXPERIMENTS:
        doc = (ALL_EXPERIMENTS[name].__doc__ or "").strip().splitlines()
        print(f"  {name:24s} {doc[0] if doc else ''}")
    return 0


def _make_store(path: Optional[pathlib.Path]):
    from .runner import ResultStore, default_store

    return default_store() if path is None else ResultStore(path)


def _cmd_run_list(fidelity: str) -> int:
    from .runner import SPEC_REGISTRY

    rows = []
    for name, spec in SPEC_REGISTRY.items():
        params = spec.params(fidelity)
        rows.append([name, spec.shard_count(params), spec.grid_summary(params)])
    print(render_table(
        ["spec", "shards", "grid"],
        rows,
        title=f"Registered experiment specs (fidelity={fidelity})",
    ))
    total = sum(r[1] for r in rows)
    print(f"{len(rows)} specs, {total} shards total")
    return 0


def _install_runner_logging(verbose: bool) -> None:
    """Route the ``repro.runner`` logger to the *current* ``sys.stdout``.

    Per-shard cache hit/miss lines are logged at DEBUG and shown only
    with ``-v``; run summaries (INFO) always print. The handler is
    re-bound on every CLI invocation because test harnesses replace
    ``sys.stdout`` per test — the previous invocation's handler (tagged
    ``_repro_cli``) is dropped to avoid duplicate lines."""
    import logging

    logger = logging.getLogger("repro.runner")
    logger.setLevel(logging.DEBUG)
    logger.propagate = False
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_cli", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stdout)
    handler.setLevel(logging.DEBUG if verbose else logging.INFO)
    handler._repro_cli = True
    logger.addHandler(handler)


def _obs_dir(store) -> pathlib.Path:
    """Trace artifacts live beside the object store, not inside it:
    tracing never changes a result bit, so it must never change a
    content address (same carve-out as ``--jobs``)."""
    return store.root / "obs"


def _persist_observation(trace, store, trace_path: Optional[pathlib.Path],
                         profile: bool) -> None:
    import json
    import os
    import time as _time

    from . import obs

    if trace_path is not None:
        obs.write_chrome_trace(trace, trace_path)
        print(f"[obs] chrome trace written to {trace_path}")
    directory = _obs_dir(store)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = _time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"
    obs.write_chrome_trace(trace, directory / f"trace-{stamp}.json")
    (directory / f"stats-{stamp}.json").write_text(
        json.dumps(obs.stats_doc(trace), indent=1, sort_keys=True) + "\n"
    )
    if profile:
        print(obs.profile_tree(trace))


def _schedule(names: List[str], args):
    """The one scheduling path both ``run`` and ``all`` share: resolve
    fidelity (legacy ``--step`` is an override on the default preset —
    argparse keeps it mutually exclusive with ``--fidelity``), run, and
    print each table."""
    from . import obs
    from .runner import run_many

    _install_runner_logging(args.verbose)
    fidelity_pos = getattr(args, "fidelity_pos", None)
    fidelity = fidelity_pos or args.fidelity or "default"
    overrides = (
        {"step": args.step}
        if args.fidelity is None and fidelity_pos is None else None
    )
    store = _make_store(args.store)
    observed = args.trace is not None or args.profile

    def _run():
        return run_many(
            names,
            fidelity=fidelity,
            jobs=args.jobs,
            seed=args.seed,
            force=args.force,
            store=store,
            overrides=overrides,
        )

    if observed:
        with obs.observe() as trace:
            reports = _run()
        _persist_observation(trace, store, args.trace, args.profile)
    else:
        reports = _run()
    status = 0
    for rep in reports:
        print(rep.result.to_text())
        print()
        if not rep.result.all_checks_pass:
            status = 1
    return reports, status


def _cmd_stats(args) -> int:
    import json

    from . import obs

    store = _make_store(args.store)
    directory = _obs_dir(store)
    docs = sorted(directory.glob("stats-*.json")) if directory.exists() else []
    spools = sorted(directory.glob("serve-*.jsonl")) if directory.exists() else []
    if not docs and not spools:
        print(f"error: no stats documents under {directory} "
              "(run with --trace or --profile first)", file=sys.stderr)
        return 1
    merged = []
    if docs:
        newest = docs[-1]
        print(f"[obs] {newest}")
        merged.append(json.loads(newest.read_text()))
    if spools:
        # Serve spools are per-process delta streams; one read aggregates
        # every connection's counters across server restarts.
        print(f"[obs] {len(spools)} serve spool(s) under {directory}")
        merged.append(obs.stats_doc(obs.read_spool_trace(spools)))
    doc = merged[0] if len(merged) == 1 else obs.merge_stats_docs(merged)
    print(obs.render_stats(doc))
    return 0


def _cmd_run(args) -> int:
    if args.list_specs:
        return _cmd_run_list(args.fidelity or "default")
    if args.experiment is None:
        print("error: provide a spec name, 'all', or --list", file=sys.stderr)
        return 2
    names = (list(ALL_EXPERIMENTS) if args.experiment == "all"
             else [args.experiment])
    reports, status = _schedule(names, args)
    if args.out is not None:
        args.out.write_text(
            "\n\n".join(rep.result.to_text() for rep in reports) + "\n"
        )
    return status


def _cmd_all(args) -> int:
    reports, status = _schedule(list(ALL_EXPERIMENTS), args)
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for rep in reports:
            (args.out_dir / f"{rep.result.experiment_id}.txt").write_text(
                rep.result.to_text() + "\n"
            )
    return status


def _cmd_report(args) -> int:
    from .runner import load_results, write_archives, write_experiments_md

    store = _make_store(args.store)
    results = load_results(store, fidelity=args.fidelity, seed=args.seed)
    problems = write_archives(results, args.out_dir, check=args.check)
    if args.md is not None:
        if args.check:
            # --check is a read-only drift check: never mutate the tree.
            print(f"[report] --check: skipping write of {args.md}")
        else:
            write_experiments_md(results, args.md)
    return 0 if problems == 0 else 1


def _audit_table(audit, title: str) -> str:
    rows = [
        [e.node, e.op,
         "-" if e.required_scc is None else e.required_scc,
         round(e.measured_scc, 3), round(e.expected_value, 3),
         round(e.measured_value, 3), "VIOLATED" if e.violated else "ok"]
        for e in audit.entries
    ]
    return render_table(
        ["node", "op", "req SCC", "meas SCC", "expected", "measured", "status"],
        rows, title=title,
    )


def _cmd_engine(
    graph_name: str, length: int, tolerance: float,
    streaming: bool = False, tile_words: int = 4096, jobs: int = 1,
    profile: bool = False, trace_path: Optional[pathlib.Path] = None,
    no_optimize: bool = False,
) -> int:
    import contextlib

    from . import obs
    from .engine import build_graph, cache_info, compile_graph

    observed = profile or trace_path is not None
    context = obs.observe() if observed else contextlib.nullcontext()
    with context as trace:
        graph = build_graph(graph_name)
        before = cache_info()
        plan = compile_graph(graph, optimize=not no_optimize)
        after = cache_info()
        outcome = "hit" if after["hits"] > before["hits"] else "miss"
        print(plan.describe())
        print(f"plan cache: {outcome} (total {after['hits']} hits / "
              f"{after['misses']} misses, {after['size']} plans cached)")
        print()
        if streaming:
            from .bitstream.streaming import tile_count

            audit = plan.audit_streaming(
                length, tile_words=tile_words, tolerance=tolerance, jobs=jobs
            )
            tiles = tile_count(length, tile_words)
            suffix = f", jobs={jobs}" if jobs > 1 else ""
            title = (f"Streaming audit — {graph_name} "
                     f"(N={length}, {tiles} tiles x {tile_words} words{suffix})")
        else:
            audit = plan.audit(length, tolerance=tolerance)
            title = f"Engine audit — {graph_name} (N={length})"
        print(_audit_table(audit, title))
        print(f"violations: {len(audit.violations)}/{len(audit.entries)}")
    if observed:
        if trace_path is not None:
            obs.write_chrome_trace(trace, trace_path)
            print(f"[obs] chrome trace written to {trace_path}")
        if profile:
            print(obs.profile_tree(trace))
    return 0


def _cmd_audit(graph_name: str, length: int, tolerance: float, fix: bool) -> int:
    from .engine import build_graph
    from .graph import autofix

    graph = build_graph(graph_name)
    audit = graph.audit(length, tolerance=tolerance)
    print(_audit_table(audit, f"Correlation audit — {graph_name} (N={length})"))
    print(f"violations: {len(audit.violations)}/{len(audit.entries)}")
    if fix:
        report_ = autofix(graph, length=length, tolerance=tolerance, iterations=4)
        print()
        if report_.insertions:
            for insertion in report_.insertions:
                print(f"  inserted {insertion}")
        else:
            print("  nothing to fix")
        print(f"added hardware: {report_.added_area_um2:.1f} um2, "
              f"{report_.added_power_uw:.2f} uW")
        fixed_audit = report_.fixed_graph.audit(length, tolerance=tolerance)
        print(_audit_table(fixed_audit, "After autofix"))
        return 0 if not fixed_audit.violations else 1
    return 0 if not audit.violations else 1


def _cmd_costs() -> int:
    rows = []
    for name in ("and_gate", "or_gate", "xor_gate", "mux_adder", "ca_adder",
                 "ca_max", "isolator", "synchronizer", "desynchronizer",
                 "sync_max", "sync_min", "desync_saturating_adder",
                 "shuffle_buffer", "decorrelator", "tfm", "lfsr_rng",
                 "d2s_converter", "s2d_converter", "regenerator"):
        r = report(getattr(components, name)())
        rows.append([name, r.area_um2, r.power_uw, r.energy_pj(256)])
    print(render_table(
        ["component", "area um2", "power uW", "energy pJ (N=256)"], rows,
        title="Hardware component costs (65nm-calibrated model)",
    ))
    return 0


def _cmd_serve(args) -> int:
    from .serve import ServeConfig, serve_forever

    store_root = None
    if not args.no_store:
        store_root = str(_make_store(args.store).root)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        budget_bytes=args.budget_mb * 1024 * 1024,
        stream_jobs=args.jobs,
        tile_words=args.tile_words,
        store_root=store_root,
        workers=args.workers,
    )
    try:
        serve_forever(config)
    except KeyboardInterrupt:
        print("[serve] interrupted")
    return 0


def _parse_value_overrides(pairs: List[str]) -> dict:
    values = {}
    for pair in pairs:
        name, _, text = pair.partition("=")
        if not name or not text:
            raise SystemExit(f"error: --value expects SOURCE=V, got {pair!r}")
        try:
            values[name] = float(text)
        except ValueError:
            raise SystemExit(f"error: --value {pair!r}: not a number")
    return values


def _cmd_client(args) -> int:
    import json

    from .serve import ServeClient

    payload = {"kind": args.kind}
    if args.kind in ("run", "audit"):
        if args.target is None:
            print("error: run/audit need a graph name", file=sys.stderr)
            return 2
        payload.update(graph=args.target, length=args.length)
        values = _parse_value_overrides(args.value)
        if values:
            payload["values"] = values
        if args.kind == "audit":
            payload["tolerance"] = args.tolerance
    elif args.kind == "spec":
        if args.target is None:
            print("error: spec requests need a spec name", file=sys.stderr)
            return 2
        payload.update(spec=args.target, fidelity=args.fidelity)
        if args.seed is not None:
            payload["seed"] = args.seed
    with ServeClient(args.host, args.port) as client:
        response = client.request(payload)
    print(json.dumps(response, indent=1, sort_keys=True))
    return 0 if response.get("ok") else 1


def _cmd_bench_serve(args) -> int:
    from .serve import ServeClient
    from .serve.loadgen import audit_request, run_load, run_request

    make = audit_request if args.kind == "audit" else run_request
    report_ = run_load(
        args.host, args.port,
        concurrency=args.concurrency,
        per_worker=args.requests,
        make_request=lambda i: make(args.graph, args.length, i),
    )
    print(render_table(
        ["requests", "errors", "rps", "p50 ms", "p99 ms", "max batch"],
        [[report_.requests, report_.errors,
          round(report_.throughput_rps, 1), round(report_.p50_ms, 2),
          round(report_.p99_ms, 2), report_.coalesced_max]],
        title=(f"bench-serve — {args.kind} {args.graph} N={args.length}, "
               f"concurrency {args.concurrency}"),
    ))
    with ServeClient(args.host, args.port) as client:
        counters = client.stats()["counters"]
    batched = counters.get("serve.coalesce.batched", 0)
    solo = counters.get("serve.coalesce.solo", 0)
    print(f"server counters: batched={batched} solo={solo}")
    return 0 if report_.errors == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "engine":
        return _cmd_engine(args.graph, args.length, args.tolerance,
                           args.streaming, args.tile_words, args.jobs,
                           args.profile, args.trace, args.no_optimize)
    if args.command == "audit":
        return _cmd_audit(args.graph, args.length, args.tolerance, args.fix)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "client":
        return _cmd_client(args)
    if args.command == "bench-serve":
        return _cmd_bench_serve(args)
    return _cmd_costs()


if __name__ == "__main__":
    sys.exit(main())
