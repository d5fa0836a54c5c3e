"""Shard execution — the code that runs inside worker processes.

:func:`execute_shard` is the single entry point the scheduler dispatches
to persistent pool workers (and calls inline for ``--jobs 1`` or when the
pool declines). It is
deliberately thin: install the ambient seed, call the shard function,
serialize the payload. Everything heavyweight the shards rely on — the
engine plan cache, the compiled FSM kernel cache, the Sobol
direction-number cache — is process-global state that workers accumulate
naturally, so consecutive shards scheduled onto the same worker re-use
each other's compilations exactly like the serial path does.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Optional

from ..analysis.experiments import ExperimentResult
from ..obs import span as obs_span
from ..rng.factory import default_seed
from .store import jsonify

__all__ = ["ShardTask", "execute_shard"]

# Worker cache hygiene: forked workers inherit the engine's module-level
# sequence/select memos (and their locks) *as of the fork instant* —
# including, in a threaded parent, a lock held by a thread that does not
# exist in the child. The ``os.register_at_fork`` hooks in
# ``repro.engine.executor`` / ``repro.engine.streaming`` rebind fresh
# locks and drop those memos in every forked child, so shards always
# start with clean, unlocked caches — no per-shard reset is needed here.
#
# A shard may itself ask for parallelism: one running with ``jobs > 1``
# (the ``long_stream`` audits) calls the parallel tile scheduler
# (``repro.engine.parallel``) from *this* worker process. A pool worker
# is a forked child, so the pool declines (``engine.pool.fallback.child``)
# and the span tasks run in-process here — no grandchild processes.


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to run one shard (picklable)."""

    spec: str
    index: int
    label: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None


@lru_cache(maxsize=None)
def _accepts_seed(fn: Callable[..., Any]) -> bool:
    try:
        return "seed" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def execute_shard(task: ShardTask) -> dict:
    """Run one shard and return its JSON-ready payload.

    The run-level seed reaches the shard two ways: as an explicit
    ``seed=`` kwarg when the shard function declares one, and as the
    ambient :func:`repro.rng.factory.default_seed` every factory-made
    seedable RNG picks up. Payloads returning an
    :class:`~repro.analysis.experiments.ExperimentResult` (the
    single-shard specs) are dataclass-serialized; everything goes through
    :func:`~repro.runner.store.jsonify` so the scheduler merges the same
    value-exact representation it would read back from the store.
    """
    kwargs = dict(task.kwargs)
    if task.seed is not None and _accepts_seed(task.fn) and "seed" not in kwargs:
        kwargs["seed"] = task.seed
    # In a forked pool worker this is the root span: closing it flushes
    # the worker's span/metric buffers for the scheduler to collect.
    with obs_span("runner.shard", spec=task.spec, shard=task.label):
        with default_seed(task.seed):
            payload = task.fn(**kwargs)
        if isinstance(payload, ExperimentResult):
            payload = jsonify(payload)
        return jsonify(payload)
