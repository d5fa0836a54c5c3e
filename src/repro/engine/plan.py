"""Compilation of :class:`~repro.graph.graph.SCGraph` into execution plans.

The interpreter in :meth:`SCGraph.run` walks the DAG node by node on
unpacked uint8 streams — correct, but it re-derives everything on every
call and never touches the packed backend. :func:`compile_graph` instead
runs a one-time *compile* pass per graph structure:

1. **Levelize** — nodes are grouped into topological levels (sources are
   level 0, every other node sits one past its deepest input), so the
   schedule and the pack/unpack boundaries are explicit.
2. **Classify** — every node is assigned a *domain*: ``packed`` for
   sources and combinational operators (evaluated word-parallel on
   uint64 words); ``kernel`` for sequential transform nodes that
   :mod:`repro.kernels` executes time-parallel (table-compiled FSMs,
   gather-kernel shuffle buffers / TFMs / isolators — the batch axis
   stays intact and no per-bit python loop runs); ``fsm`` for the
   remaining sequential nodes, which step the per-cycle reference loop.
   Unpack→step→repack boundaries exist *only* around kernel/fsm steps;
   everything else stays in the word domain end to end.
3. **Pair** — the two :class:`~repro.graph.nodes.TransformNode` ports of
   one circuit insertion are grouped so the FSM runs once per evaluation
   (exactly like the interpreter's shared-cache contract).
4. **Assign buffers** — each step records which operand buffers die with
   it (``free_after``), so a batched sweep that keeps only selected
   outputs releases intermediate words as soon as their last consumer
   has run.

Plans are cached in a module-level LRU keyed by the *structural
signature* of the graph (node kinds, names, wiring, source specs, and
transform fingerprints), so audit → splice → re-audit loops — the
:func:`repro.graph.autofix.autofix` hot path — and fresh builds of the
same graph recompile nothing they have already seen. :func:`cache_info`
exposes hit/miss counters; the CLI prints them next to the plan.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core import (
    Decorrelator, Desynchronizer, Isolator, IsolatorPair, PairTransform,
    SeriesPair, SeriesStream, ShuffleBuffer, StreamTransform, Synchronizer,
    TFMPair, TrackingForecastMemory,
)
from ..exceptions import GraphCompilationError
from ..graph.graph import SCGraph
from ..graph.nodes import OP_LIBRARY, OpNode, SourceNode, TransformNode
from ..kernels import is_kernelized
from ..obs import counter_add
from ..obs import span as obs_span
from ..rng import (
    LFSR, CounterRNG, Halton, RotatedView, Sobol, StreamRNG, SystemRNG, VanDerCorput,
)

__all__ = [
    "PlanStep",
    "FusedChain",
    "ExecutionPlan",
    "graph_signature",
    "compile_graph",
    "cache_info",
    "clear_cache",
    "PLAN_CACHE_MAXSIZE",
]

PLAN_CACHE_MAXSIZE = 256

# Keyed by (structural signature, optimization level) so optimized and
# raw plans of the same graph coexist — `repro engine --no-optimize`
# after a default compile hits its own entry instead of evicting or
# shadowing the optimized one.
#
# All cache mutation happens under _PLAN_LOCK: the serving layer compiles
# plans from asyncio worker-executor threads, and an unguarded
# OrderedDict move_to_end/popitem pair racing across threads can corrupt
# the dict's internal links. Compilation itself runs outside the lock —
# two threads may build the same plan concurrently and last-write-wins,
# which is harmless because equal signatures produce equivalent plans.
# The at-fork hook rebinds a fresh lock in children (same hygiene as the
# executor's sequence memos): a fork taken while another thread held the
# lock must not deadlock the child.
_PLAN_LOCK = threading.Lock()
_PLAN_CACHE: "OrderedDict[tuple, ExecutionPlan]" = OrderedDict()
_CACHE_STATS = {
    0: {"hits": 0, "misses": 0},
    1: {"hits": 0, "misses": 0},
}


def _reinit_plan_lock_after_fork() -> None:
    global _PLAN_LOCK
    _PLAN_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows (spawn starts clean)
    os.register_at_fork(after_in_child=_reinit_plan_lock_after_fork)


@dataclass(frozen=True)
class PlanStep:
    """One scheduled node evaluation.

    ``domain`` is ``"packed"`` (word-parallel), ``"kernel"`` (sequential
    but time-parallel via :mod:`repro.kernels`, unpack → kernel →
    repack), or ``"fsm"`` (sequential, unpack → per-cycle reference loop
    → repack). ``group`` pairs the two ports of one transform insertion;
    ``free_after`` lists buffers whose last consumer is this step.
    """

    name: str
    kind: str                      # "source" | "op" | "transform"
    domain: str                    # "packed" | "kernel" | "fsm"
    level: int
    inputs: Tuple[str, ...] = ()
    # source fields
    value: Optional[float] = None
    rng_spec: Optional[str] = None
    rng_kwargs: Tuple[Tuple[str, object], ...] = ()
    # op fields
    op: Optional[str] = None
    # transform fields
    transform: object = None
    port: Optional[int] = None
    group: Optional[int] = None
    # buffer liveness
    free_after: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FusedChain:
    """A run of adjacent packed combinational steps fused into one
    super-step.

    The streaming executor evaluates the whole chain in a single pass
    over the current tile: interior results live in liveness-assigned
    scratch slots (in-place ufunc kernels, no per-node allocation) and
    are never entered into the tile environment — only the chain head's
    output is. Fusion is legal when every interior output is consumed
    *inside* the chain and is not *exposed* (kept, audited, or
    value-accumulated) — multi-consumer interiors whose readers all sit
    in the same chain fuse fine; :meth:`ExecutionPlan.fused_schedule`
    enforces both conditions.
    """

    steps: Tuple[PlanStep, ...]

    @property
    def name(self) -> str:
        """The chain head's node name (its only visible output)."""
        return self.steps[-1].name

    @property
    def label(self) -> str:
        """Every member name joined with ``+`` — human-readable, and
        unbounded; render through :func:`_ellipsize`."""
        return "+".join(s.name for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


#: Widest cell :meth:`ExecutionPlan.describe` will render before
#: truncating — a depth-64 chain label would otherwise blow the column
#: out to ~700 characters.
_DESCRIBE_CELL_WIDTH = 64


def _ellipsize(text: str, width: int = _DESCRIBE_CELL_WIDTH) -> str:
    """``text`` capped at ``width`` characters, middle replaced with an
    ellipsis so both the chain's tail (its visible output) and head stay
    readable."""
    if len(text) <= width:
        return text
    head = (width - 1) // 2
    tail = width - 1 - head
    return text[:head] + "…" + text[-tail:]


def _segment_run(
    run: List[PlanStep],
    consumers: Dict[str, List[str]],
    exposed: Set[str],
) -> List[Union[PlanStep, "FusedChain"]]:
    """Split one run of consecutive op steps into fused chains.

    A member ends a chain when its output must enter the tile
    environment: it is exposed, consumed outside the run, or consumed by
    a member of a later segment. The last condition is solved to a fixed
    point — promoting a member to a boundary shortens the segment of
    everyone before it, which can force further promotions — so every
    surviving interior provably has all consumers inside its own
    segment.
    """
    position = {s.name: j for j, s in enumerate(run)}
    ends = {len(run) - 1}
    consumer_positions: List[List[int]] = []
    for j, s in enumerate(run):
        inside: List[int] = []
        outside = s.name in exposed
        for c in consumers[s.name]:
            p = position.get(c)
            if p is None:
                outside = True
            else:
                inside.append(p)
        if outside:
            ends.add(j)
        consumer_positions.append(inside)

    changed = True
    while changed:
        changed = False
        boundary = sorted(ends)
        for j, inside in enumerate(consumer_positions):
            if j in ends or not inside:
                continue
            segment_end = next(b for b in boundary if b >= j)
            if max(inside) > segment_end:
                ends.add(j)
                changed = True

    segments: List[Union[PlanStep, FusedChain]] = []
    start = 0
    for end in sorted(ends):
        members = run[start : end + 1]
        if len(members) == 1:
            segments.append(members[0])
        else:
            segments.append(FusedChain(steps=tuple(members)))
        start = end + 1
    return segments


def _freeze(value):
    """Hashable twin of an RNG constructor argument (lists of taps and
    the like become tuples; sequence semantics are unchanged for the
    generators, which only iterate them)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


#: Exact type -> the attributes that hold its constructor arguments. A
#: built-in transform or RNG is fingerprinted as its exact type plus
#: these values, with nested transforms and RNGs (aux generators,
#: shuffle buffers, series stages, a view's parent) fingerprinted in
#: turn. Exact type only: a subclass may override ``_process_bits`` and
#: must not share its parent's plan. No cache attribute is listed
#: (compiled kernels, composed LUTs, period and window memos, the
#: streaming cursor), so a used instance keys like a fresh one.
_FINGERPRINT_FIELDS: Dict[type, Tuple[str, ...]] = {
    Synchronizer: ("_depth", "_flush", "_initial_state"),
    Desynchronizer: ("_depth", "_flush", "_first_tag"),
    ShuffleBuffer: ("_rng", "_depth", "_init"),
    Decorrelator: ("_buffer_x", "_buffer_y"),
    Isolator: ("_delay", "_fill"),
    IsolatorPair: ("_isolator",),
    TrackingForecastMemory: ("_rng", "_bits", "_shift", "_initial"),
    TFMPair: ("_tfm_x", "_tfm_y"),
    SeriesPair: ("_stages",),
    SeriesStream: ("_stages",),
    LFSR: ("_width", "_seed", "_taps", "_phase"),
    VanDerCorput: ("_width", "_phase"),
    Halton: ("_base", "_width", "_phase"),
    Sobol: ("_dimension", "_width", "_phase"),
    CounterRNG: ("_width", "_offset"),
    SystemRNG: ("_width", "_seed"),
    RotatedView: ("_parent", "_phase", "_period"),
}


class _Unlisted(Exception):
    """A nested transform or RNG whose exact type has no fingerprint."""


def _fingerprint_part(value):
    if isinstance(value, tuple):
        return tuple(_fingerprint_part(v) for v in value)
    if isinstance(value, (PairTransform, StreamTransform, StreamRNG)):
        fields = _FINGERPRINT_FIELDS.get(type(value))
        if fields is None:
            raise _Unlisted
        return (type(value),) + tuple(
            _fingerprint_part(getattr(value, f)) for f in fields
        )
    return value


def _fingerprint(obj) -> Optional[tuple]:
    """Structural fingerprint of a built-in transform or RNG — equal
    fingerprints give equal bits — or ``None`` when ``obj`` or any part
    of it (an aux RNG, a series stage) is a type the fingerprint table
    does not list, such as a user subclass."""
    if type(obj) not in _FINGERPRINT_FIELDS:
        return None
    try:
        return _fingerprint_part(obj)
    except _Unlisted:
        return None


def graph_signature(graph: SCGraph) -> tuple:
    """Structural signature of a graph: equal signatures mean the same
    plan produces the same bits.

    Transform nodes are keyed by their circuit's structural fingerprint:
    its exact type and every constructor argument, aux RNGs and series
    stages included (``_FINGERPRINT_FIELDS``). Structurally equal graphs
    built apart therefore share one plan, and through it one set of
    compiled kernels, composed LUTs and RNG window memos; a cache hit
    may hand back a plan holding the first graph's instances, which give
    the same bits. A transform with any part whose exact type the table
    does not list (a user subclass, a custom RNG) is keyed by the
    *identity* of its instance instead (the plan holds a reference, so
    the id cannot be recycled while the plan is cached). Everything else
    is keyed by value.

    Raises:
        GraphCompilationError: the graph contains a node kind the engine
            does not know how to schedule, or source RNG kwargs it cannot
            hash into a cache key (``backend="auto"`` falls back to the
            interpreter in both cases).
    """
    sig = []
    for name in graph.node_names:
        node = graph.node(name)
        if isinstance(node, SourceNode):
            sig.append(
                ("src", node.name, node.value, node.rng_spec,
                 _freeze(node.rng_kwargs))
            )
        elif isinstance(node, OpNode):
            sig.append(("op", node.name, node.op, node.inputs))
        elif isinstance(node, TransformNode):
            key = _fingerprint(node.transform)
            sig.append(("fsm", node.name, node.inputs, node.port,
                        id(node.transform) if key is None else key))
        else:
            raise GraphCompilationError(
                f"engine cannot compile node {name!r} of kind "
                f"{type(node).__name__}; use backend='interpreter'"
            )
    signature = tuple(sig)
    try:
        hash(signature)
    except TypeError as exc:
        raise GraphCompilationError(
            f"engine cannot hash the graph structure into a plan-cache key "
            f"({exc}); use backend='interpreter'"
        ) from None
    return signature


@dataclass
class ExecutionPlan:
    """A levelized, batched execution schedule for one graph structure.

    Self-contained: holds every parameter (source specs, op names,
    transform references) needed to evaluate, so a cached plan outlives
    the :class:`SCGraph` it was compiled from. The run/audit entry
    points live in :mod:`repro.engine.executor`; the methods here
    delegate to them.
    """

    steps: Tuple[PlanStep, ...]
    levels: List[List[str]]
    signature: tuple = field(repr=False)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def node_order(self) -> List[str]:
        return [s.name for s in self.steps]

    @property
    def packed_nodes(self) -> List[str]:
        return [s.name for s in self.steps if s.domain == "packed"]

    @property
    def kernel_nodes(self) -> List[str]:
        """Sequential nodes executed time-parallel by :mod:`repro.kernels`."""
        return [s.name for s in self.steps if s.domain == "kernel"]

    @property
    def fsm_nodes(self) -> List[str]:
        """Sequential nodes stepped by their per-cycle reference loop."""
        return [s.name for s in self.steps if s.domain == "fsm"]

    @property
    def sequential_nodes(self) -> List[str]:
        """All transform nodes (kernel + fsm domains)."""
        return [s.name for s in self.steps if s.domain in ("kernel", "fsm")]

    @property
    def boundary_count(self) -> int:
        """Pack/unpack boundary crossings per evaluation: each transform
        group unpacks its two operands and repacks its two outputs."""
        groups = {s.group for s in self.steps if s.group is not None}
        return 4 * len(groups)

    @property
    def source_names(self) -> List[str]:
        return [s.name for s in self.source_steps]

    @property
    def source_steps(self) -> List[PlanStep]:
        """Source steps of the *source graph* — on an optimized plan this
        includes merged-away sources, so override resolution accepts
        every name a caller can spell."""
        return [s for s in self.steps if s.kind == "source"]

    # -- optimizer hooks (overridden by OptimizedPlan) ----------------- #

    @property
    def optimize_level(self) -> int:
        """0 for a faithful plan, 1 when structural CSE has rewritten the
        schedule (:mod:`repro.engine.optimize`)."""
        return 0

    @property
    def alias_map(self) -> Dict[str, str]:
        """Merged-away node name → representative name (empty here)."""
        return {}

    def resolve(self, name: str) -> str:
        """The scheduled step computing ``name``'s words (itself here)."""
        return name

    @property
    def semantic_steps(self) -> Tuple[PlanStep, ...]:
        """The pre-optimization schedule — one step per source-graph
        node, the view audits and ``expected_values`` reason over."""
        return self.steps

    @property
    def semantic_order(self) -> List[str]:
        return [s.name for s in self.semantic_steps]

    def for_execution(self, resolved_levels) -> "ExecutionPlan":
        """The plan to actually walk given resolved per-source levels
        (an optimized plan falls back to its raw twin when an override
        splits a source merge; a faithful plan is always itself)."""
        return self

    def step(self, name: str) -> PlanStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def consumer_counts(self) -> Dict[str, int]:
        """How many scheduled steps read each node's output.

        Both ports of a transform insertion count separately (each is its
        own step), which naturally blocks fusion *through* a transform's
        operands.
        """
        counts: Dict[str, int] = {s.name: 0 for s in self.steps}
        for s in self.steps:
            for dep in s.inputs:
                counts[dep] += 1
        return counts

    def fused_schedule(
        self, exposed: Optional[Iterable[str]] = None
    ) -> List[Union[PlanStep, "FusedChain"]]:
        """The schedule with runs of adjacent packed ops collapsed into
        :class:`FusedChain` super-steps.

        Consecutive op steps form a *run*; within a run, a member is
        *interior* — its buffer lives only in chain scratch — when it is
        not in ``exposed`` and every one of its consumers sits inside the
        same chain segment. A member survives as a chain boundary (its
        output enters the tile environment) when it is exposed, feeds a
        step outside the run (a transform, or a later run), or feeds a
        member of a *different* segment of the same run. Multi-consumer
        interiors are legal as long as every consumer is in-chain: a
        diamond whose branches and join are all op steps fuses into one
        super-step. ``exposed`` names the nodes someone outside the
        chain needs — kept streams, audited values, SCC operands;
        ``exposed=None`` means every node is exposed, which degenerates
        to the unfused schedule.

        Steps that touch no chain member (a source feeding a later level,
        an independent transform) do not break the chain — the chain is
        emitted at its flush point, which is legal because deferring a
        step never runs it before its inputs (every dependency precedes
        it in the original order and is flushed first if it is a chain
        member). Relative evaluation order of *dependent* steps is
        preserved exactly; only which intermediate buffers exist changes.
        """
        if exposed is None:
            return list(self.steps)
        exposed_set: Set[str] = set(exposed)
        consumers: Dict[str, List[str]] = {s.name: [] for s in self.steps}
        for s in self.steps:
            for dep in set(s.inputs):
                consumers[dep].append(s.name)
        schedule: List[Union[PlanStep, FusedChain]] = []
        run: List[PlanStep] = []
        run_names: Set[str] = set()

        def flush_run() -> None:
            if not run:
                return
            schedule.extend(_segment_run(run, consumers, exposed_set))
            run.clear()
            run_names.clear()

        for s in self.steps:
            if s.kind == "op":
                run.append(s)
                run_names.add(s.name)
            else:
                if run_names.intersection(s.inputs):
                    flush_run()
                schedule.append(s)
        flush_run()
        return schedule

    def describe(self) -> str:
        """Human-readable schedule: one line per level, nodes annotated
        with their domain (the CLI's ``engine`` subcommand prints this)."""
        lines = [
            f"execution plan: {len(self.steps)} nodes, {len(self.levels)} levels, "
            f"{len(self.kernel_nodes)} kernel, {len(self.fsm_nodes)} fsm, "
            f"{self.boundary_count} pack/unpack boundaries"
        ]
        for depth, names in enumerate(self.levels):
            rendered = []
            for name in names:
                s = self.step(name)
                if s.kind == "source":
                    rendered.append(f"{name} [source:{s.rng_spec} -> packed]")
                elif s.kind == "op":
                    rendered.append(f"{name} [op:{s.op} packed]")
                else:
                    rendered.append(f"{name} [{s.domain}:{s.transform.name} port {s.port}]")
            lines.append(f"  level {depth}: " + ", ".join(rendered))
        sinks = [n for n, c in self.consumer_counts().items() if c == 0]
        chains = [
            item for item in self.fused_schedule(exposed=sinks)
            if isinstance(item, FusedChain)
        ]
        if chains:
            lines.append(f"fused chains ({len(chains)}):")
            for chain in chains:
                lines.append(
                    f"  {_ellipsize(chain.label)} ({len(chain)} ops -> {chain.name})"
                )
        lines.extend(self._describe_optimized())
        return "\n".join(lines)

    def _describe_optimized(self) -> List[str]:
        """Extra ``describe()`` lines for the optimizer's rewrite report
        (none on a faithful plan; :class:`~repro.engine.optimize.OptimizedPlan`
        overrides)."""
        return []

    # ------------------------------------------------------------------ #
    # Evaluation entry points (delegate to the executor)
    # ------------------------------------------------------------------ #

    def run(self, length: int = 256) -> Dict[str, "np.ndarray"]:  # noqa: F821
        from .executor import run as _run
        return _run(self, length)

    def run_batch(self, length: int = 256, **kwargs):
        from .executor import run_batch as _run_batch
        return _run_batch(self, length, **kwargs)

    def audit(self, length: int = 256, *, tolerance: float = 0.35):
        from .executor import audit as _audit
        return _audit(self, length, tolerance=tolerance)

    def audit_batch(self, length: int = 256, **kwargs):
        from .executor import audit_batch as _audit_batch
        return _audit_batch(self, length, **kwargs)

    def run_streaming(self, length: int = 256, **kwargs):
        from .streaming import run_streaming as _run_streaming
        return _run_streaming(self, length, **kwargs)

    def audit_streaming(self, length: int = 256, **kwargs):
        from .streaming import audit_streaming as _audit_streaming
        return _audit_streaming(self, length, **kwargs)

    def expected_values(self) -> Dict[str, float]:
        """Exact float semantics per node — same loop, and therefore the
        same floats, as :meth:`SCGraph.expected_values`."""
        values: Dict[str, float] = {}
        for s in self.steps:
            if s.kind == "source":
                values[s.name] = s.value
            elif s.kind == "op":
                values[s.name] = OP_LIBRARY[s.op]["expected"](
                    [values[d] for d in s.inputs]
                )
            else:
                values[s.name] = values[s.inputs[s.port]]
        return values


def _build_plan(graph: SCGraph, signature: tuple) -> ExecutionPlan:
    """The compile pass: levelize, classify, pair transforms, assign
    buffer lifetimes."""
    order = graph.node_names
    level_of: Dict[str, int] = {}
    group_of: Dict[tuple, int] = {}
    raw_steps: List[dict] = []
    for name in order:
        node = graph.node(name)
        level = (
            0 if not node.inputs
            else 1 + max(level_of[d] for d in node.inputs)
        )
        level_of[name] = level
        if isinstance(node, SourceNode):
            raw_steps.append(dict(
                name=name, kind="source", domain="packed", level=level,
                value=node.value, rng_spec=node.rng_spec,
                rng_kwargs=_freeze(node.rng_kwargs),
            ))
        elif isinstance(node, OpNode):
            raw_steps.append(dict(
                name=name, kind="op", domain="packed", level=level,
                inputs=node.inputs, op=node.op,
            ))
        else:  # TransformNode (graph_signature already rejected others)
            key = (id(node.transform), node.inputs)
            group = group_of.setdefault(key, len(group_of))
            domain = "kernel" if is_kernelized(node.transform) else "fsm"
            raw_steps.append(dict(
                name=name, kind="transform", domain=domain, level=level,
                inputs=node.inputs, transform=node.transform,
                port=node.port, group=group,
            ))

    # Buffer liveness: a node's words can be released after its last
    # consumer runs (or immediately, for sinks nobody reads).
    last_use = {name: i for i, name in enumerate(order)}
    for i, raw in enumerate(raw_steps):
        for dep in raw.get("inputs", ()):
            last_use[dep] = max(last_use[dep], i)
    free_at: Dict[int, List[str]] = {}
    for name, i in last_use.items():
        free_at.setdefault(i, []).append(name)
    for i, raw in enumerate(raw_steps):
        raw["free_after"] = tuple(free_at.get(i, ()))

    depth = 1 + max(level_of.values()) if level_of else 0
    levels: List[List[str]] = [[] for _ in range(depth)]
    for name in order:
        levels[level_of[name]].append(name)

    return ExecutionPlan(
        steps=tuple(PlanStep(**raw) for raw in raw_steps),
        levels=levels,
        signature=signature,
    )


def compile_graph(
    graph: SCGraph, *, use_cache: bool = True, optimize: Optional[bool] = None
) -> ExecutionPlan:
    """Compile ``graph`` into an :class:`ExecutionPlan` (cached).

    Two graphs with equal :func:`graph_signature` share one plan — the
    autofix loop's repeated audits of the same fixed graph, and every
    fresh build of a graph whose transforms are built-in types with
    equal constructor arguments, hit the cache and recompile nothing.
    A hit returns the plan compiled from the first such graph, with its
    transform instances; a transform the fingerprint table does not
    list (a user subclass) matches only its own instance.

    ``optimize`` selects the optimization level: ``True`` (the module
    default, see :func:`repro.engine.optimize.set_default_optimize`)
    rewrites the schedule with structural CSE and returns an
    :class:`~repro.engine.optimize.OptimizedPlan`; ``False`` is the
    faithful one-step-per-node plan (`repro engine --no-optimize`).
    Both levels cache independently under the same structural signature,
    and an optimized compile seeds the raw entry too (its raw twin is
    built anyway for the override-divergence fallback).
    """
    if len(graph) == 0:
        raise GraphCompilationError("cannot compile an empty graph")
    if optimize is None:
        from .optimize import default_optimize

        optimize = default_optimize()
    level = 1 if optimize else 0
    signature = graph_signature(graph)
    if use_cache:
        with _PLAN_LOCK:
            cached = _PLAN_CACHE.get((signature, level))
            if cached is not None:
                _CACHE_STATS[level]["hits"] += 1
                _PLAN_CACHE.move_to_end((signature, level))
            else:
                _CACHE_STATS[level]["misses"] += 1
        if cached is not None:
            counter_add("engine.plan.cache.hit")
            return cached
        counter_add("engine.plan.cache.miss")
    # The raw plan is needed at both levels (it IS level 0, and level 1
    # keeps it as the fallback twin); reuse a cached one silently — only
    # the *requested* level counts toward the public hit/miss stats.
    if use_cache:
        with _PLAN_LOCK:
            raw = _PLAN_CACHE.get((signature, 0))
    else:
        raw = None
    if raw is None:
        with obs_span("engine.plan.compile", nodes=len(graph)) as sp:
            raw = _build_plan(graph, signature)
            sp.annotate(levels=len(raw.levels), kernel=len(raw.kernel_nodes),
                        fsm=len(raw.fsm_nodes))
    if optimize:
        from .optimize import optimize_plan

        with obs_span("engine.plan.optimize", nodes=len(raw.steps)) as sp:
            plan = optimize_plan(raw)
            sp.annotate(merged=plan.report.merged, steps=len(plan.steps))
    else:
        plan = raw
    if use_cache:
        with _PLAN_LOCK:
            # Threads that missed together each built a plan; the first
            # stored wins, so every caller shares one plan object.
            _PLAN_CACHE.setdefault((signature, 0), raw)
            _PLAN_CACHE.move_to_end((signature, 0))
            plan = _PLAN_CACHE.setdefault((signature, level), plan)
            _PLAN_CACHE.move_to_end((signature, level))
            while len(_PLAN_CACHE) > PLAN_CACHE_MAXSIZE:
                _PLAN_CACHE.popitem(last=False)
    return plan


_LEVEL_LABELS = {0: "raw", 1: "optimized"}


def cache_info() -> Dict[str, object]:
    """Plan-cache statistics: ``hits``, ``misses``, ``size``, ``maxsize``
    totals, plus a ``levels`` breakdown per optimization level (the
    cache keys entries per level, so the stats report per level too)."""
    sizes = {0: 0, 1: 0}
    with _PLAN_LOCK:
        for _, level in _PLAN_CACHE:
            sizes[level] += 1
        return {
            "hits": sum(s["hits"] for s in _CACHE_STATS.values()),
            "misses": sum(s["misses"] for s in _CACHE_STATS.values()),
            "size": len(_PLAN_CACHE),
            "maxsize": PLAN_CACHE_MAXSIZE,
            "levels": {
                _LEVEL_LABELS[level]: {
                    "hits": stats["hits"],
                    "misses": stats["misses"],
                    "size": sizes[level],
                }
                for level, stats in _CACHE_STATS.items()
            },
        }


def clear_cache() -> None:
    """Drop every cached plan — both optimization levels — and reset the
    per-level hit/miss counters, plus the optimizer's pruned-plan memo
    (derived from cached plans, so it must not outlive them)."""
    with _PLAN_LOCK:
        _PLAN_CACHE.clear()
        for stats in _CACHE_STATS.values():
            stats["hits"] = 0
            stats["misses"] = 0
    from .optimize import clear_dce_cache

    clear_dce_cache()
