"""Sharded, cached experiment scheduling.

:func:`run_many` is the one path from "experiment definition" to
"result": expand each requested spec into shards (:mod:`.spec`), look
every shard up in the content-addressed store (:mod:`.store`), execute
only the misses — on the persistent worker pool
(:mod:`repro.engine.pool`, warm caches across shards *and* runs) for
``jobs > 1``, inline for ``jobs=1`` or when the pool declines — and merge
payloads (cached and fresh are byte-for-byte the same representation)
into :class:`ExperimentResult` objects, recording a manifest per run so
:mod:`.report` can regenerate artifacts later.

Shards from *all* requested specs are scheduled onto one shared pool, so
``run all`` load-balances the 15 Table II kernel passes alongside the
small single-shard experiments instead of draining one spec at a time.
Workers are forked once (no re-import cost) and re-used across shards,
so per-process caches — engine plans, compiled FSM kernels — amortize
exactly as in a serial run. ``jobs`` is an execution-only parameter:
store payloads are bit-identical at any worker count and on either
lane.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..analysis.experiments import ExperimentResult
from ..engine.pool import pool_call
from ..obs import counter_add
from ..obs import span as obs_span
from .spec import SPEC_REGISTRY, ExperimentSpec, Shard, content_params, get_spec
from .store import DEFAULT_STORE_ENV, ResultStore
from .workers import ShardTask, execute_shard

__all__ = ["RunReport", "run_spec", "run_many", "run_all", "default_store"]

logger = logging.getLogger("repro.runner")

# Default ``log=`` sentinel: route through the ``repro.runner`` logger —
# per-shard cache hit/miss lines at DEBUG (quiet unless ``-v`` installs a
# DEBUG handler), run summaries at INFO. Passing an explicit callable
# restores the old behaviour (every line through the callable); ``None``
# silences everything.
_LOG_DEFAULT = object()


def default_store() -> ResultStore:
    """The store named by ``$REPRO_STORE``, else ``./.repro-store``."""
    return ResultStore(os.environ.get(DEFAULT_STORE_ENV, ".repro-store"))


@dataclass
class RunReport:
    """Outcome of scheduling one spec."""

    spec: str
    fidelity: str
    seed: Optional[int]
    params: Dict[str, Any]
    result: ExperimentResult
    shard_count: int
    cache_hits: int
    computed: int
    elapsed_s: float

    @property
    def all_from_cache(self) -> bool:
        return self.computed == 0


def run_many(
    names: Sequence[str],
    *,
    fidelity: str = "default",
    jobs: int = 1,
    seed: Optional[int] = None,
    force: bool = False,
    store: Optional[ResultStore] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    log: Any = _LOG_DEFAULT,
) -> List[RunReport]:
    """Run several specs, pooling their shards.

    Args:
        names: spec names (see :data:`~repro.runner.spec.SPEC_REGISTRY`).
        fidelity: ``smoke`` / ``default`` / ``exhaustive`` preset.
        jobs: worker processes; 1 executes inline (no pool).
        seed: run-level seed — threaded to every shard (ambient
            :func:`~repro.rng.factory.default_seed` + explicit ``seed=``
            kwarg where accepted) and folded into every content address.
        force: recompute even when cached.
        store: result store; defaults to :func:`default_store`.
        overrides: per-call param overrides (the CLI's legacy ``--step``).
        log: sink for progress lines. Default routes through the
            ``repro.runner`` logger — per-shard lines at DEBUG, summaries
            at INFO. An explicit callable receives every line (the old
            behaviour); ``None`` silences.

    Returns one :class:`RunReport` per requested spec, in request order.
    """
    if log is _LOG_DEFAULT:
        detail, info = logger.debug, logger.info
    elif log is None:
        detail = info = lambda message: None
    else:
        detail = info = log
    store = store if store is not None else default_store()
    started = time.perf_counter()

    with obs_span("runner.run_many", specs=len(names), jobs=jobs):
        plans: List[Dict[str, Any]] = []
        pending: Dict[str, ShardTask] = {}  # key -> task, deduplicated
        with obs_span("runner.plan") as plan_span:
            for name in names:
                spec = get_spec(name)
                params = spec.params(fidelity, overrides)
                shards = spec.shards(params)
                plan = {"spec": spec, "params": params, "shards": shards,
                        "keys": [], "hits": 0}
                for shard in shards:
                    # Execution-only kwargs (jobs) are stripped from the
                    # address: a shard's payload is bit-identical at any
                    # worker count, so runs at different ``jobs`` share
                    # cache entries.
                    key = store.shard_key(
                        shard.spec, shard.label, shard.fn_ref,
                        shard.content_kwargs, seed,
                    )
                    plan["keys"].append(key)
                    if not force and key in store:
                        plan["hits"] += 1
                        counter_add("runner.cache.hit")
                        detail(f"[runner] cache hit {shard.spec}[{shard.label}] ({key[:12]})")
                    elif key not in pending:
                        counter_add("runner.cache.miss")
                        detail(f"[runner] cache miss {shard.spec}[{shard.label}] -> scheduled")
                        pending[key] = ShardTask(
                            shard.spec, shard.index, shard.label, shard.fn,
                            shard.kwargs, seed,
                        )
                plans.append(plan)

            total = sum(len(p["shards"]) for p in plans)
            plan_span.annotate(shards=total, cached=total - len(pending),
                               scheduled=len(pending))
        info(
            f"[runner] {len(plans)} spec(s), {total} shard(s): "
            f"{total - len(pending)} cached, {len(pending)} to compute "
            f"(fidelity={fidelity}, jobs={jobs}, seed={'default' if seed is None else seed})"
        )

        computed: Dict[str, dict] = {}
        if pending:
            # Persist each payload the moment it lands: an interrupt or a
            # failing shard then loses only the shards still in flight —
            # the store's resume-after-interrupt contract.
            def _finish(key: str, payload: dict) -> None:
                task = pending[key]
                computed[key] = payload
                store.put(
                    key,
                    payload,
                    meta={
                        "spec": task.spec,
                        "shard": task.label,
                        "kwargs": content_params(task.kwargs),
                        "seed": seed,
                        "fidelity": fidelity,
                    },
                )

            # Prefer the persistent pool (warm plan/kernel caches across
            # shards *and* across runs); shards stream back in completion
            # order, so each payload still persists the moment it lands.
            # ``jobs <= 1`` or a declining pool (nested fork, busy) runs
            # the shards inline — payloads are bit-identical either way,
            # and a failing shard re-raises its original exception type
            # on both lanes.
            items = list(pending.items())
            with pool_call(min(jobs, len(items))) as call:
                if call is not None:
                    counter_add("runner.pooled")
                    keys = [key for key, _ in items]
                    for index, payload in call.imap(
                        "repro.runner.workers:execute_shard",
                        [(task,) for _, task in items],
                    ):
                        _finish(keys[index], payload)
                else:
                    for key, task in items:
                        _finish(key, execute_shard(task))

        reports: List[RunReport] = []
        for plan in plans:
            spec: ExperimentSpec = plan["spec"]
            payloads = []
            for key in plan["keys"]:
                payload = computed.get(key)
                if payload is None:
                    payload = store.get(key)
                payloads.append(payload)
            result = spec.merge_fn(plan["params"], payloads)
            store.write_manifest(
                spec.name, fidelity, seed, content_params(plan["params"]),
                [{"label": shard.label, "key": key}
                 for shard, key in zip(plan["shards"], plan["keys"])],
            )
            reports.append(
                RunReport(
                    spec=spec.name,
                    fidelity=fidelity,
                    seed=seed,
                    params=plan["params"],
                    result=result,
                    shard_count=len(plan["shards"]),
                    cache_hits=plan["hits"],
                    computed=len(plan["shards"]) - plan["hits"],
                    elapsed_s=0.0,
                )
            )

    elapsed = time.perf_counter() - started
    for report in reports:
        report.elapsed_s = elapsed
        info(
            f"[runner] {report.spec}: {report.shard_count} shard(s), "
            f"{report.cache_hits} cache hit(s), {report.computed} computed"
        )
    info(f"[runner] done in {elapsed:.2f}s")
    return reports


def run_spec(
    name: str,
    *,
    fidelity: str = "default",
    jobs: int = 1,
    seed: Optional[int] = None,
    force: bool = False,
    store: Optional[ResultStore] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    log: Any = _LOG_DEFAULT,
) -> RunReport:
    """Run one spec (see :func:`run_many`)."""
    return run_many(
        [name], fidelity=fidelity, jobs=jobs, seed=seed, force=force,
        store=store, overrides=overrides, log=log,
    )[0]


def run_all(
    *,
    fidelity: str = "default",
    jobs: int = 1,
    seed: Optional[int] = None,
    force: bool = False,
    store: Optional[ResultStore] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    log: Any = _LOG_DEFAULT,
) -> List[RunReport]:
    """Run every registered spec on one shared worker pool."""
    return run_many(
        list(SPEC_REGISTRY), fidelity=fidelity, jobs=jobs, seed=seed,
        force=force, store=store, overrides=overrides, log=log,
    )
