"""Plan optimizer: structural CSE, dead-node elimination, arena buffers.

:func:`repro.engine.plan.compile_graph` compiles graphs *faithfully* —
every node in the source graph becomes a scheduled step, and every step
gets its own full-length buffer. The paper's manipulation circuits are
structurally redundant by construction (synchronizer / desynchronizer /
decorrelator stages replicated across operand pairs that share the same
RNG sources, sweep builders that duplicate whole subtrees per
configuration), so a faithful schedule recomputes identical subtrees and
allocates identical buffers many times over. This module rewrites the
compiled plan into an :class:`OptimizedPlan` that computes each distinct
value once, schedules only what the caller can observe, and recycles
buffers the moment they die — under the repo's standing contract that a
fast path must be **bit-/float-identical** to the reference it replaces.

Three passes, all strictly bit-safe:

1. **Structural CSE (hash-consing).** Value numbering over the
   topological schedule: a source is keyed by
   ``(value, rng_spec, rng_kwargs)`` — the full generator identity,
   seed and rotation included — an operator by
   ``(op, value-numbers of its operands)`` (operands of the symmetric
   word kernels AND/OR/XOR are canonically ordered; the MUX scaled adder
   is direction-sensitive and is not reordered), and a transform port by
   ``(id(transform), operand value-numbers, port)``. Steps whose key has
   been seen before are dropped from the schedule and recorded in an
   *alias map*; consumers re-point at the representative. Equal keys
   emit equal bits by induction, so merging never changes any stream.

2. **Dead-node elimination** (per call, :func:`dce_plan`). When a caller
   asks for a subset of outputs (``keep=``, runner shards that only read
   sink values), steps outside the ancestor cone of the requested nodes
   are pruned and buffer lifetimes recomputed for the smaller schedule.
   Audits keep everything *by design* — an audit's entire point is to
   measure every operator — so the audit entry points never prune.

3. **Arena allocation** (:class:`BufferArena`). The plan's existing
   buffer-lifetime analysis (``free_after``) already knows when each
   buffer dies; the optimized executor returns dead buffers to a
   shape-keyed free list and serves new ones from it, evaluating
   operators with in-place ufunc kernels. Peak memory drops toward the
   live-set bound and the per-node ``np.empty`` churn disappears. The
   streaming walk shares one arena across all fused super-steps of a
   run, so widened chains (see
   :meth:`~repro.engine.plan.ExecutionPlan.fused_schedule`) ping-pong
   through a common scratch pool instead of two private slots per chain.

Source merges and batch overrides
---------------------------------

CSE merges two sources only when their *graph* values and generators are
identical — but :func:`~repro.engine.executor.run_batch` can override
values per source *name*, and an override can make two structurally
identical sources diverge at run time. The plan therefore keeps its
unoptimized twin (:attr:`OptimizedPlan.raw`), and every entry point asks
:meth:`OptimizedPlan.for_execution` whether the resolved per-source
levels are consistent with the recorded merges; if any merged pair
diverges, the call transparently executes the raw plan instead. The
check is a handful of small integer-array comparisons; the fallback is
counted on ``engine.optimize.fallback``.

The DCE memo follows the PR 5 lock-hook pattern: a module lock guards
the LRU, and an ``os.register_at_fork`` hook rebinds the lock and drops
the memo in every forked child (pruned plans are pure caches; losing
them costs one re-prune).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..obs import counter_add
from .plan import ExecutionPlan, PlanStep, _ellipsize

__all__ = [
    "OptimizeReport",
    "OptimizedPlan",
    "BufferArena",
    "optimize_plan",
    "dce_plan",
    "default_optimize",
    "set_default_optimize",
    "dce_cache_info",
    "clear_dce_cache",
]

# Word kernels that are bitwise-symmetric in their two operands (AND, OR,
# XOR): swapping operands changes no output bit, and SCC/expected-value
# are symmetric too, so their operands can be canonically ordered for
# value numbering. The MUX scaled adder selects *between* its operands
# and must keep their order.
_COMMUTATIVE_OPS = frozenset({"mul", "sat_add", "sub", "max", "min"})

# ---------------------------------------------------------------------- #
# Module default (the `repro engine --no-optimize` escape hatch flips it
# per call; REPRO_NO_OPTIMIZE=1 flips it process-wide, which is how the
# CI optimizer-smoke job proves store bytes are independent of the
# optimization level).
# ---------------------------------------------------------------------- #

_DEFAULT_OPTIMIZE = os.environ.get("REPRO_NO_OPTIMIZE", "") not in ("1", "true", "yes")


def default_optimize() -> bool:
    """The process-wide default optimization switch."""
    return _DEFAULT_OPTIMIZE


def set_default_optimize(flag: bool) -> bool:
    """Set the process-wide default; returns the previous value."""
    global _DEFAULT_OPTIMIZE
    previous = _DEFAULT_OPTIMIZE
    _DEFAULT_OPTIMIZE = bool(flag)
    return previous


# ---------------------------------------------------------------------- #
# Rewrite report
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class OptimizeReport:
    """What the optimizer did to one plan (``plan.describe()`` renders
    it; the counters mirror it into :mod:`repro.obs`)."""

    sources_merged: int = 0
    ops_merged: int = 0
    transforms_merged: int = 0
    merges: Tuple[Tuple[str, str], ...] = ()   # (duplicate, representative)

    @property
    def merged(self) -> int:
        return self.sources_merged + self.ops_merged + self.transforms_merged


# ---------------------------------------------------------------------- #
# Shared plan-rebuild helpers (used by CSE and DCE alike)
# ---------------------------------------------------------------------- #

def _relink(raw_steps: List[PlanStep]) -> Tuple[PlanStep, ...]:
    """Recompute levels and buffer lifetimes for a rewritten schedule.

    ``free_after`` must be re-derived whenever steps are merged or
    pruned: a buffer's last consumer may have moved (CSE fans consumers
    into the representative) or vanished (DCE), and a stale lifetime
    would either leak a buffer for the whole run or — worse, with the
    arena recycling freed buffers — release one that a surviving
    consumer still needs.
    """
    level_of: Dict[str, int] = {}
    steps: List[PlanStep] = []
    for s in raw_steps:
        level = 0 if not s.inputs else 1 + max(level_of[d] for d in s.inputs)
        level_of[s.name] = level
        steps.append(replace(s, level=level, free_after=()))

    last_use = {s.name: i for i, s in enumerate(steps)}
    for i, s in enumerate(steps):
        for dep in s.inputs:
            last_use[dep] = max(last_use[dep], i)
    free_at: Dict[int, List[str]] = {}
    for name, i in last_use.items():
        free_at.setdefault(i, []).append(name)
    return tuple(
        replace(s, free_after=tuple(free_at.get(i, ())))
        for i, s in enumerate(steps)
    )


def _levels_of(steps: Tuple[PlanStep, ...]) -> List[List[str]]:
    depth = 1 + max((s.level for s in steps), default=-1)
    levels: List[List[str]] = [[] for _ in range(depth)]
    for s in steps:
        levels[s.level].append(s.name)
    return levels


# ---------------------------------------------------------------------- #
# The optimized plan
# ---------------------------------------------------------------------- #

@dataclass
class OptimizedPlan(ExecutionPlan):
    """An :class:`ExecutionPlan` whose schedule has been rewritten by
    structural CSE.

    ``steps`` contains only *representative* computations; ``alias``
    maps every merged-away node name to its representative. The plan
    still answers for the full source graph: keep/override/audit names
    resolve through the alias map, and the raw twin stays attached for
    the override-divergence fallback.
    """

    raw: ExecutionPlan = None
    alias: Dict[str, str] = field(default_factory=dict)
    report: OptimizeReport = field(default_factory=OptimizeReport)
    # Source merge classes: (representative, (duplicates...)) — the
    # subset of the alias map whose validity depends on run-time
    # overrides (op/transform merges can never be invalidated: their
    # operands are value-numbered, so equal keys stay equal).
    source_merges: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    # -- identity / level ------------------------------------------------

    @property
    def optimize_level(self) -> int:
        return 1

    @property
    def alias_map(self) -> Dict[str, str]:
        return self.alias

    def resolve(self, name: str) -> str:
        return self.alias.get(name, name)

    # -- semantic (pre-rewrite) views ------------------------------------

    @property
    def semantic_steps(self) -> Tuple[PlanStep, ...]:
        return self.raw.steps

    @property
    def semantic_order(self) -> List[str]:
        return [s.name for s in self.raw.steps]

    @property
    def source_steps(self) -> List[PlanStep]:
        """All *source-graph* source steps (merged names included), so
        override resolution covers every name a caller can spell."""
        return [s for s in self.raw.steps if s.kind == "source"]

    @property
    def source_names(self) -> List[str]:
        return [s.name for s in self.source_steps]

    def expected_values(self) -> Dict[str, float]:
        # Semantic floats for every source-graph node — the same loop,
        # and therefore the same floats, as the interpreter's.
        return self.raw.expected_values()

    # -- execution-time selection ----------------------------------------

    def for_execution(self, resolved_levels: Dict[str, np.ndarray]) -> ExecutionPlan:
        """This plan when the resolved overrides are consistent with
        every recorded source merge, else the raw twin.

        ``resolved_levels`` maps every source-graph source name to its
        per-configuration binary levels; a merge survives only if all
        members resolved to identical arrays (they always do unless the
        caller overrode a merged name explicitly and differently).
        """
        for rep, dups in self.source_merges:
            rep_levels = resolved_levels[rep]
            for dup in dups:
                if not np.array_equal(resolved_levels[dup], rep_levels):
                    counter_add("engine.optimize.fallback")
                    return self.raw
        return self

    # -- reporting --------------------------------------------------------

    def _describe_optimized(self) -> List[str]:
        r = self.report
        lines = [
            "optimized: "
            f"{r.merged} merged ({r.sources_merged} sources, "
            f"{r.ops_merged} ops, {r.transforms_merged} transforms), "
            f"{len(self.raw.steps)} -> {len(self.steps)} steps"
        ]
        for dup, rep in r.merges[:8]:
            lines.append(f"  {_ellipsize(dup)} == {_ellipsize(rep)}")
        if len(r.merges) > 8:
            lines.append(f"  … {len(r.merges) - 8} more")
        return lines


def optimize_plan(raw: ExecutionPlan) -> OptimizedPlan:
    """Rewrite a compiled plan with structural CSE / hash-consing.

    Returns an :class:`OptimizedPlan` (even when nothing merged — the
    uniform type carries the report, the alias map, and the execution
    fast paths). Bit-safety: two steps merge only when their value
    numbers prove they compute identical words for every configuration
    consistent with the merge (see :meth:`OptimizedPlan.for_execution`
    for the one run-time caveat, per-source overrides).
    """
    vn: Dict[tuple, str] = {}
    alias: Dict[str, str] = {}
    kept_steps: List[PlanStep] = []
    merges: List[Tuple[str, str]] = []
    merged_kinds = {"source": 0, "op": 0, "transform": 0}
    group_of: Dict[tuple, int] = {}

    for s in raw.steps:
        inputs = tuple(alias.get(d, d) for d in s.inputs)
        if s.kind == "source":
            key = ("src", s.value, s.rng_spec, s.rng_kwargs)
        elif s.kind == "op":
            operands = tuple(sorted(inputs)) if s.op in _COMMUTATIVE_OPS else inputs
            key = ("op", s.op, operands)
        else:
            key = ("fsm", id(s.transform), inputs, s.port)
        rep = vn.get(key)
        if rep is not None:
            alias[s.name] = rep
            merges.append((s.name, rep))
            merged_kinds[s.kind] += 1
            continue
        vn[key] = s.name
        if s.kind == "transform":
            # Transform groups can coalesce when value numbering proves
            # two insertions read identical operand streams; regroup on
            # the rewritten inputs so each distinct (circuit, operands)
            # pair steps its FSM exactly once.
            group_key = (id(s.transform), inputs)
            group = group_of.setdefault(group_key, len(group_of))
            kept_steps.append(replace(s, inputs=inputs, group=group))
        else:
            kept_steps.append(replace(s, inputs=inputs))

    steps = _relink(kept_steps)

    source_classes: Dict[str, List[str]] = {}
    for dup, rep in merges:
        # Walk to the final representative (aliases never chain here —
        # reps are always kept steps — but be defensive).
        while rep in alias:
            rep = alias[rep]
        if any(t.name == rep and t.kind == "source" for t in steps):
            source_classes.setdefault(rep, []).append(dup)

    if merges:
        counter_add("engine.optimize.cse_merged", len(merges))

    return OptimizedPlan(
        steps=steps,
        levels=_levels_of(steps),
        signature=raw.signature,
        raw=raw,
        alias=alias,
        report=OptimizeReport(
            sources_merged=merged_kinds["source"],
            ops_merged=merged_kinds["op"],
            transforms_merged=merged_kinds["transform"],
            merges=tuple(merges),
        ),
        source_merges=tuple(
            (rep, tuple(dups)) for rep, dups in source_classes.items()
        ),
    )


# ---------------------------------------------------------------------- #
# Dead-node elimination (per call — the keep set is a call argument)
# ---------------------------------------------------------------------- #

_DCE_CACHE_MAX = 64
_DCE_LOCK = threading.Lock()
# Keyed by (plan signature, optimize level, needed frozenset): plans with
# equal signatures are interchangeable by the plan-cache contract, so the
# derived pruned plan is too.
_DCE_CACHE: "OrderedDict[tuple, ExecutionPlan]" = OrderedDict()
_DCE_STATS = {"hits": 0, "misses": 0}


def _reinit_after_fork() -> None:
    # PR 5 lock-hook pattern: a forked child inherits the lock in
    # whatever state a parent thread left it; rebind a fresh one and
    # drop the memo (pure cache; losing it costs one re-prune).
    global _DCE_LOCK
    _DCE_LOCK = threading.Lock()
    _DCE_CACHE.clear()


if hasattr(os, "register_at_fork"):  # not on Windows (spawn starts clean)
    os.register_at_fork(after_in_child=_reinit_after_fork)


def dce_cache_info() -> Dict[str, int]:
    """Pruned-plan memo statistics."""
    with _DCE_LOCK:
        return {
            "hits": _DCE_STATS["hits"],
            "misses": _DCE_STATS["misses"],
            "size": len(_DCE_CACHE),
            "maxsize": _DCE_CACHE_MAX,
        }


def clear_dce_cache() -> None:
    """Drop every memoised pruned plan and reset the counters."""
    with _DCE_LOCK:
        _DCE_CACHE.clear()
        _DCE_STATS["hits"] = 0
        _DCE_STATS["misses"] = 0


def dce_plan(plan: ExecutionPlan, needed: FrozenSet[str]) -> ExecutionPlan:
    """The plan restricted to the ancestor cone of ``needed``.

    ``needed`` must name steps of ``plan``'s own schedule (callers
    resolve aliases first). Steps outside the cone are pruned and buffer
    lifetimes recomputed; a transform whose partner port falls outside
    the cone still runs its FSM once — the surviving port's step computes
    the pair, exactly as when both ports are scheduled. Pruning a node
    nobody requested can change no requested bit: the cone contains, by
    construction, every step whose output can reach a requested one.
    """
    names = {s.name for s in plan.steps}
    if needed >= names:
        return plan
    key = (plan.signature, getattr(plan, "optimize_level", 0), needed)
    with _DCE_LOCK:
        cached = _DCE_CACHE.get(key)
        if cached is not None:
            _DCE_STATS["hits"] += 1
            _DCE_CACHE.move_to_end(key)
            return cached
        _DCE_STATS["misses"] += 1

    step_by_name = {s.name: s for s in plan.steps}
    cone: set = set()
    stack = list(needed)
    while stack:
        name = stack.pop()
        if name in cone:
            continue
        cone.add(name)
        stack.extend(step_by_name[name].inputs)

    kept = [s for s in plan.steps if s.name in cone]
    pruned_count = len(plan.steps) - len(kept)
    if pruned_count == 0:
        pruned: ExecutionPlan = plan
    else:
        steps = _relink(kept)
        pruned = ExecutionPlan(
            steps=steps, levels=_levels_of(steps), signature=plan.signature
        )
        counter_add("engine.optimize.dce_pruned", pruned_count)

    with _DCE_LOCK:
        _DCE_CACHE[key] = pruned
        while len(_DCE_CACHE) > _DCE_CACHE_MAX:
            _DCE_CACHE.popitem(last=False)
    return pruned


# ---------------------------------------------------------------------- #
# Arena allocation
# ---------------------------------------------------------------------- #

class BufferArena:
    """A shape-keyed free list of uint64 word buffers.

    One arena serves one evaluation walk (it is not thread-safe and is
    never shared across runs): :meth:`take` pops a dead buffer of the
    right shape or allocates a fresh one, :meth:`release` returns a
    buffer whose last consumer has run. The executor drives it from the
    plan's ``free_after`` lifetime analysis; the streaming walk shares
    one arena across every fused super-step of a run, so chain interiors
    from different chains recycle the same scratch words.
    """

    __slots__ = ("_free", "hits", "misses")

    def __init__(self) -> None:
        self._free: Dict[tuple, List[np.ndarray]] = {}
        self.hits = 0
        self.misses = 0

    def take(self, rows: int, words: int) -> np.ndarray:
        """A writable ``(rows, words)`` uint64 buffer (contents
        unspecified — every kernel writes the full buffer)."""
        bucket = self._free.get(((rows, words), "<u8"))
        if bucket:
            self.hits += 1
            return bucket.pop()
        self.misses += 1
        return np.empty((rows, words), dtype="<u8")

    def release(self, buffer: np.ndarray) -> None:
        """Return a dead buffer to the pool (caller guarantees no live
        reader remains)."""
        key = (buffer.shape, buffer.dtype.str)
        self._free.setdefault(key, []).append(buffer)

    def flush_counters(self) -> None:
        """Post the reuse tallies to :mod:`repro.obs` (once per walk —
        no per-buffer instrumentation cost)."""
        if self.hits:
            counter_add("engine.arena.reuse", self.hits)
        if self.misses:
            counter_add("engine.arena.alloc", self.misses)
        self.hits = 0
        self.misses = 0
