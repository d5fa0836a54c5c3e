"""The schedule walker: a compiled plan evaluated tile by tile.

Every evaluation of an :class:`~repro.engine.plan.ExecutionPlan` goes
through one loop, :func:`_walk_tiles`; entry points differ only in the
tiles they hand it. The batch entry points
(:func:`repro.engine.executor.run_batch` / ``audit`` / ``audit_batch``)
walk **one tile spanning the whole stream** — today's per-call work,
O(nodes × N × batch) memory at worst (see :func:`_execute`).
:func:`run_streaming`, :func:`audit_streaming` and
``audit_batch(tile_words=...)`` instead pump fixed-size **word tiles**,
in constant memory — which is what opens the long-stream regime
(N ≥ 2^20) where the paper's SCC and value estimates converge:

1. the stream is split into tiles of ``tile_words`` uint64 words
   (:func:`repro.bitstream.streaming.tile_bounds`);
2. per tile, sources emit packed words on demand from *windowed* RNG
   sequences (:class:`~repro.bitstream.streaming.PackedTileSource` — no
   full-length comparator sequence ever exists), combinational ops run
   word-parallel on the tile, and sequential transforms advance
   *carriers* (:mod:`repro.kernels.streaming`) that hold FSM state across
   tile boundaries;
3. whole-stream quantities come from streaming accumulators — popcount
   partial sums for values, overlap partial sums for pairwise SCC — so
   nothing about a node needs retaining beyond a handful of integers.
   Full streams are assembled only for nodes the caller explicitly keeps.

Tiled calls, at any ``jobs``, are driven by the span scheduler
(:mod:`repro.engine.parallel`): ``jobs=1`` walks the stream as one span,
in-process and traced as ``engine.stream``; ``jobs > 1`` splits it into
spans whose carrier entry states come from a prefix scan.

On top of the tile walk sits a **fusion pass**
(:meth:`~repro.engine.plan.ExecutionPlan.fused_schedule`): runs of
adjacent packed ops whose intermediates nobody else reads collapse into
one super-step evaluated in a single pass over the tile, with interior
results ping-ponging between two reusable scratch buffers (in-place
ufunc kernels — zero interior allocation, zero interior accumulation).

Bit-exactness contract (enforced by ``tests/test_streaming.py`` for
every :mod:`repro.engine.library` graph, both encodings, odd lengths,
batches ≥ 1, across tile sizes):

* :func:`run_streaming` with ``keep`` covering a node reproduces
  :func:`repro.engine.executor.run_batch`'s words for it **bit for
  bit**, at every tile size;
* :func:`audit_streaming` returns a
  :class:`~repro.graph.graph.GraphAudit` **float-identical** to
  :func:`repro.engine.executor.audit` (the accumulated integer counts
  equal the whole-stream counts, so the derived floats are equal too).

Memory model of tiled walks: O(batch × tile_words) per live node within
a tile, plus O(batch) integers per accumulated node, plus O(batch × N/64)
*only* for explicitly kept nodes. Audits are the constant-memory
configuration the N=2^22 CI smoke runs (they never prune; an optimized
``keep=()`` run is pruned to an empty walk). The whole-stream tile is
chosen by the entry point, never inferred from ``tile_words * 64 >= N``,
and is traced as ``engine.execute``, not as a stream walk.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from .._validation import check_jobs, check_stream_length, check_tile_words
from ..arith._coerce import broadcast_pair
from ..bitstream.encoding import Encoding, ones_to_value
from ..bitstream.packed import pack_bits_unchecked, unpack_bits, words_per_stream
from ..bitstream.streaming import (
    DEFAULT_TILE_WORDS,
    OverlapAccumulator,
    PackedTileSource,
    ValueAccumulator,
    tile_count,
)
from ..exceptions import GraphCompilationError
from ..graph.graph import GraphAudit
from ..graph.nodes import mux_select_window
from ..kernels.streaming import PairCarrier, make_pair_carrier
from ..obs import counter_add
from ..obs import span as obs_span
from ..rng import make_rng
from .executor import (
    _OP_KERNELS,
    _graph_audit,
    _pack_source_chunked,
    _resolve_levels,
    _rng_sequence,
)
from .optimize import BufferArena, dce_plan
from .plan import ExecutionPlan, FusedChain

__all__ = ["StreamingRun", "run_streaming", "audit_streaming"]

_WORD_DTYPE = np.dtype("<u8")

# ---------------------------------------------------------------------- #
# Select-tile memo. The MUX scaled adder's 0.5 select stream is one
# deterministic sequence, and a tile of it is keyed by (start, stop)
# alone — independent of stream length — so tiles computed for one run
# serve every later run (the long_stream sweep's shards share all their
# early tiles). The halton7 radical inverse is the single most expensive
# per-tile computation, so this memo matters; the cap bounds it to a few
# MB at the default tile size (eviction degrades to recomputation, never
# to wrong bits). A whole-stream tile's select is the entry (0, N) — at
# most N/8 bytes. Guarded by a lock like the executor's sequence memo;
# cleared by repro.engine.clear_sequence_cache.
# ---------------------------------------------------------------------- #

_SELECT_TILE_MAX = 64
_SELECT_TILE_LOCK = threading.Lock()
_SELECT_TILE_CACHE: "OrderedDict[Tuple[int, int], np.ndarray]" = OrderedDict()


def _reinit_after_fork() -> None:
    # Same rationale as the executor's fork hook: the inherited lock may
    # be held by a thread that does not exist in the child.
    global _SELECT_TILE_LOCK
    _SELECT_TILE_LOCK = threading.Lock()
    _SELECT_TILE_CACHE.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_after_fork)


def _select_tile(start: int, stop: int) -> np.ndarray:
    key = (start, stop)
    with _SELECT_TILE_LOCK:
        words = _SELECT_TILE_CACHE.get(key)
        if words is not None:
            _SELECT_TILE_CACHE.move_to_end(key)
            return words
    words = pack_bits_unchecked(mux_select_window(start, stop).reshape(1, -1))
    with _SELECT_TILE_LOCK:
        _SELECT_TILE_CACHE[key] = words
        while len(_SELECT_TILE_CACHE) > _SELECT_TILE_MAX:
            _SELECT_TILE_CACHE.popitem(last=False)
    return words


def clear_select_tile_cache() -> None:
    """Drop the memoised select tiles (invoked by
    :func:`repro.engine.clear_sequence_cache`)."""
    with _SELECT_TILE_LOCK:
        _SELECT_TILE_CACHE.clear()


# ---------------------------------------------------------------------- #
# In-place word kernels: fused super-steps of tiled walks, and every op of
# an optimized whole-stream walk. Same boolean functions as the
# executor's _OP_KERNELS, written through ``out=`` into a recycled
# buffer. ``out`` never aliases an operand — operands are live (their
# release point is after this step), so the arena cannot have handed
# their buffer out.
# ---------------------------------------------------------------------- #

def _mux_into(a, b, select, out):
    # The mux identity ``((x ^ y) & s) ^ x == (s & y) | (~s & x)`` runs
    # the scaled adder in-place with no scratch operand (tail bits take
    # ``a``'s zero tail, as in the expression form).
    np.bitwise_xor(a, b, out=out)
    np.bitwise_and(out, select, out=out)
    np.bitwise_xor(out, a, out=out)


_INPLACE_KERNELS = {
    "mul": lambda a, b, sel, out: np.bitwise_and(a, b, out=out),
    "min": lambda a, b, sel, out: np.bitwise_and(a, b, out=out),
    "sat_add": lambda a, b, sel, out: np.bitwise_or(a, b, out=out),
    "max": lambda a, b, sel, out: np.bitwise_or(a, b, out=out),
    "sub": lambda a, b, sel, out: np.bitwise_xor(a, b, out=out),
    "scaled_add": _mux_into,
}


class _CompiledChain:
    """One fused super-step, prepared once per run.

    Each member is resolved to ``(kernel, a_ref, b_ref, rows, dead)``
    where a ref is an env name (``str``, read from the tile environment)
    or an earlier member index (``int``, read from chain scratch) — so
    the per-tile inner loop does no string matching and no shape
    broadcasting. Interior scratch comes from the walk's *shared*
    :class:`~repro.engine.optimize.BufferArena`: each member's output is
    released the moment its last in-chain consumer has run (``dead``
    lists the member indices dying after this member), so widened chains
    with multi-consumer interiors hold exactly their live set, and every
    chain in the walk recycles one common pool instead of two private
    ping-pong slots per chain. Only the head's buffer is chain-private:
    it outlives the evaluation (the tile environment, accumulators, and
    assemblers read it after the chain returns) and is reallocated only
    when the tile shape changes (the final partial tile)."""

    __slots__ = ("name", "members", "_head_buf")

    def __init__(self, chain: FusedChain, rows: Dict[str, int]) -> None:
        self.name = chain.name
        position = {s.name: i for i, s in enumerate(chain.steps)}
        head = len(chain.steps) - 1
        last_use: Dict[int, int] = {}
        for i, step in enumerate(chain.steps):
            for dep in step.inputs:
                j = position.get(dep)
                if j is not None:
                    last_use[j] = i
        dying: Dict[int, List[int]] = {}
        for j, i in last_use.items():
            if j != head:
                dying.setdefault(i, []).append(j)
        members = []
        for i, step in enumerate(chain.steps):
            a_name, b_name = step.inputs
            members.append((
                _INPLACE_KERNELS[step.op],
                position.get(a_name, a_name),
                position.get(b_name, b_name),
                rows[step.name],
                tuple(dying.get(i, ())),
            ))
        self.members = members
        self._head_buf: Optional[np.ndarray] = None

    def evaluate(
        self,
        env: Dict[str, np.ndarray],
        select: Optional[np.ndarray],
        tile_word_count: int,
        arena,
    ) -> np.ndarray:
        members = self.members
        outs: List[Optional[np.ndarray]] = [None] * len(members)
        head = len(members) - 1
        for i, (kernel, a_ref, b_ref, r, dead) in enumerate(members):
            a = outs[a_ref] if type(a_ref) is int else env[a_ref]
            b = outs[b_ref] if type(b_ref) is int else env[b_ref]
            if i == head:
                out = self._head_buf
                if out is None or out.shape[0] != r or out.shape[1] != tile_word_count:
                    out = np.empty((r, tile_word_count), dtype=_WORD_DTYPE)
                    self._head_buf = out
            else:
                # Never aliases a/b: the arena holds only dead buffers,
                # and a live operand's release point is after this call.
                out = arena.take(r, tile_word_count)
            kernel(a, b, select, out)
            outs[i] = out
            for j in dead:
                arena.release(outs[j])
        return outs[head]


# ---------------------------------------------------------------------- #
# Rows (batch-dimension) propagation
# ---------------------------------------------------------------------- #

def _propagate_rows(plan: ExecutionPlan, levels: Dict[str, np.ndarray]) -> Dict[str, int]:
    """Per-node row counts — 1 for configuration-independent nodes,
    ``batch`` downstream of an overridden source (matches the executor's
    numpy broadcasting exactly)."""
    rows: Dict[str, int] = {}
    for step in plan.steps:
        if step.kind == "source":
            rows[step.name] = int(levels[step.name].size)
        else:
            rows[step.name] = max(rows[d] for d in step.inputs)
    return rows


# ---------------------------------------------------------------------- #
# Core tile walk
# ---------------------------------------------------------------------- #

def _keep_and_exposed(
    plan: ExecutionPlan,
    exec_plan: ExecutionPlan,
    keep: Optional[Iterable[str]],
    want_values_all: bool,
    want_op_scc: bool,
) -> Tuple[set, set, set, set, set]:
    """Resolve ``keep`` and derive the value-accumulated and fusion-
    exposed node sets (shared by the whole-stream tile and the span
    scheduler).

    ``keep`` is validated against the *semantic* (source-graph) names of
    ``plan``; the returned ``keep_set``/``value_nodes``/``exposed`` are
    resolved to ``exec_plan``'s schedule representatives, while
    ``keep_sem``/``value_sem`` retain the caller's spelling for the
    alias expansion at the end of the walk."""
    semantic = set(plan.semantic_order)
    if keep is None:
        keep_sem = semantic
    else:
        keep_sem = set(keep)
        unknown = keep_sem - semantic
        if unknown:
            raise GraphCompilationError(f"keep names not in graph: {sorted(unknown)}")
    resolve = exec_plan.resolve
    keep_set = {resolve(n) for n in keep_sem}
    value_sem = semantic if want_values_all else set(keep_sem)
    value_nodes = {resolve(n) for n in value_sem}
    exposed = set(keep_set) | value_nodes
    if want_op_scc:
        for step in exec_plan.steps:
            if step.kind == "op":
                exposed.update(step.inputs)
    return keep_sem, keep_set, value_sem, value_nodes, exposed


def _expand_aliases(
    plan: ExecutionPlan,
    exec_plan: ExecutionPlan,
    kept: Dict[str, np.ndarray],
    ones: Dict[str, np.ndarray],
    op_scc: Dict[str, np.ndarray],
    keep_sem: set,
    value_sem: set,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Re-key walk results (schedule representatives) back to every
    requested source-graph name — merged duplicates share their
    representative's arrays, which is the whole point of the merge."""
    if not exec_plan.alias_map:
        return kept, ones, op_scc
    order = plan.semantic_order
    rep = {n: exec_plan.resolve(n) for n in order}
    kept = {n: kept[rep[n]] for n in order if n in keep_sem and rep[n] in kept}
    ones = {n: ones[rep[n]] for n in order if n in value_sem and rep[n] in ones}
    op_scc = {
        s.name: op_scc[rep[s.name]]
        for s in plan.semantic_steps
        if s.kind == "op" and rep[s.name] in op_scc
    }
    return kept, ones, op_scc


def _make_sources(
    plan: ExecutionPlan, levels: Dict[str, np.ndarray]
) -> Dict[str, PackedTileSource]:
    return {
        step.name: PackedTileSource(
            levels[step.name], make_rng(step.rng_spec, **dict(step.rng_kwargs))
        )
        for step in plan.steps
        if step.kind == "source"
    }


def _make_carriers(
    plan: ExecutionPlan, length: int, rows: Dict[str, int]
) -> Dict[int, PairCarrier]:
    """One carrier per transform group, at the stream's first bit."""
    carriers: Dict[int, PairCarrier] = {}
    for step in plan.steps:
        if step.kind == "transform" and step.group not in carriers:
            batch = max(rows[d] for d in step.inputs)
            carrier = make_pair_carrier(step.transform, length, batch)
            if carrier is None:
                raise GraphCompilationError(
                    f"transform {step.name!r} ({step.transform.name}) has no "
                    f"chunk-resumable streaming carrier; evaluate this plan "
                    f"with run()/audit() instead"
                )
            carriers[step.group] = carrier
    return carriers


class _SequenceSource:
    """A whole-stream tile's source: packs the memoised full-length
    sequence (shared ``engine.seq_memo.*`` keys and counters) — chunked
    into an arena buffer on an optimized plan, one-shot otherwise."""

    def __init__(self, levels: np.ndarray, step, arena) -> None:
        self._levels, self._step, self._arena = levels, step, arena

    def tile(self, start: int, stop: int) -> np.ndarray:
        seq = _rng_sequence(self._step.rng_spec, self._step.rng_kwargs, stop)
        lv = self._levels
        if self._arena is None:
            return pack_bits_unchecked(lv[:, None] > seq[None, :])
        out = self._arena.take(lv.size, words_per_stream(stop))
        _pack_source_chunked(out, lv, seq, stop)
        return out


class _OneShotTransform:
    """A whole-stream tile's transform group: the circuit's one-shot
    ``_process_bits`` (so carrier-less ``fsm``-domain circuits run too)."""

    def __init__(self, transform) -> None:
        self.step = transform._process_bits


def _walk_tiles(
    schedule: List,
    sources: Dict[str, PackedTileSource],
    carriers: Dict[int, PairCarrier],
    bounds: Iterable[Tuple[int, int]],
    *,
    needs_select: bool,
    vacc: Dict[str, ValueAccumulator],
    sccacc: Dict[str, OverlapAccumulator],
    writers: Dict[str, Any],
    arena: Optional[BufferArena] = None,
    retain: Optional[set] = None,
) -> Dict[str, np.ndarray]:
    """Pump the given tiles through a compiled schedule — the one inner
    loop shared by every entry point: each span of a tiled walk
    (:mod:`repro.engine.parallel`) and the batch entry points'
    whole-stream tile. Tile ``bounds`` carry
    *absolute* stream offsets, so sources window their RNGs and
    flush-tail carriers count remaining cycles identically in every
    caller.

    ``retain`` marks a whole-stream walk: after each step, its
    ``free_after`` buffers not in ``retain`` leave the environment; with
    an ``arena``, they go back to it and ops write in place. Such a walk
    opens no ``engine.stream.walk`` span and counts no tiles. Returns the
    last tile's environment."""
    whole = retain is not None
    inplace = whole and arena is not None
    if arena is None:
        # One arena for the whole walk: every fused chain's interior
        # scratch comes from (and returns to) this pool, so chains
        # recycle each other's buffers tile after tile.
        arena = BufferArena()
    env: Dict[str, np.ndarray] = {}
    # Tile/word totals accumulate in local ints and post once after the
    # walk — no per-tile instrumentation cost.
    tiles_done = 0
    words_done = 0
    with contextlib.nullcontext() if whole else obs_span("engine.stream.walk") as walk:
        for start, stop in bounds:
            tile_len = stop - start
            tile_word_count = (tile_len + 63) // 64
            tiles_done += 1
            words_done += tile_word_count
            select = _select_tile(start, stop) if needs_select else None
            env = {}
            group_out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

            for item in schedule:
                if isinstance(item, _CompiledChain):
                    env[item.name] = item.evaluate(env, select, tile_word_count, arena)
                    name = item.name
                elif item.kind == "source":
                    env[item.name] = sources[item.name].tile(start, stop)
                    name = item.name
                elif item.kind == "op":
                    a, b = (env[d] for d in item.inputs)
                    if sccacc and item.name in sccacc:
                        sccacc[item.name].update(a, b)
                    if inplace:
                        out = arena.take(max(a.shape[0], b.shape[0]), tile_word_count)
                        _INPLACE_KERNELS[item.op](a, b, select, out)
                        env[item.name] = out
                    else:
                        env[item.name] = _OP_KERNELS[item.op](a, b, select)
                    name = item.name
                else:  # transform
                    if item.group not in group_out:
                        xw, yw = (env[d] for d in item.inputs)
                        xb = unpack_bits(xw, tile_len)
                        yb = unpack_bits(yw, tile_len)
                        xb, yb = broadcast_pair(xb, yb)
                        ox, oy = carriers[item.group].step(xb, yb)
                        group_out[item.group] = (pack_bits_unchecked(ox), pack_bits_unchecked(oy))
                    env[item.name] = group_out[item.group][item.port]
                    name = item.name

                if name in vacc:
                    vacc[name].update(env[name])
                if name in writers:
                    writers[name].write(start, env[name])
                if whole:
                    for dead in item.free_after:
                        if dead not in retain:
                            buf = env.pop(dead)
                            if inplace:
                                arena.release(buf)
        if not whole:
            walk.annotate(tiles=tiles_done, words=words_done)
            counter_add("engine.stream.tiles", tiles_done)
            counter_add("engine.stream.words", words_done)
    arena.flush_counters()
    return env


def _prune(
    exec_plan: ExecutionPlan,
    keep: Optional[Iterable[str]],
    keep_set: set,
    want_values_all: bool,
    want_op_scc: bool,
) -> ExecutionPlan:
    """The schedule a call walks: audits never prune (their entire point
    is to measure every operator); a words-only call on an optimized plan
    walks just the ancestor cone of what the caller will read."""
    if keep is None or want_values_all or want_op_scc or exec_plan.optimize_level < 1:
        return exec_plan
    return dce_plan(exec_plan, frozenset(keep_set))


def _execute(
    plan: ExecutionPlan,
    length: int,
    *,
    levels: Dict[str, np.ndarray],
    keep: Optional[Iterable[str]],
    tile_words: Optional[int] = None,
    fuse: bool = True,
    want_values_all: bool = False,
    want_op_scc: bool = False,
    jobs: int = 1,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray], Dict[str, np.ndarray], int]:
    """Every entry point's walk. Returns ``(kept_words, ones, op_scc,
    fused_chains)``: ``ones`` maps accumulated node names to integer
    1-counts, ``op_scc`` maps op names to per-row SCC arrays.

    ``tile_words=None`` is the batch entry points' whole-stream tile:
    sources pack the memoised full-length sequences, transform groups run
    one-shot, ops run unfused (in place into an arena on an optimized
    plan), and each step's ``free_after`` buffers not kept leave the walk
    (back into the arena). Kept nodes are the walk's own buffers.
    Every tiled call, at any ``jobs``, goes to the span scheduler
    (:func:`repro.engine.parallel._parallel_stream_execute`), which walks
    ``jobs=1`` as one span.

    Optimizer integration happens once for either walk:
    :meth:`~repro.engine.plan.ExecutionPlan.for_execution` picks the
    optimized schedule or its raw twin (overrides can split a source
    merge), :func:`_prune` applies dead-node elimination, and merged-away
    names are expanded back so callers see every name they asked for.
    """
    if tile_words is not None:
        from .parallel import _parallel_stream_execute

        return _parallel_stream_execute(
            plan, length, levels=levels, keep=keep, tile_words=tile_words,
            fuse=fuse, want_values_all=want_values_all,
            want_op_scc=want_op_scc, jobs=jobs,
        )
    exec_plan = plan.for_execution(levels)
    keep_sem, keep_set, value_sem, value_nodes, _ = _keep_and_exposed(
        plan, exec_plan, keep, want_values_all, want_op_scc
    )
    if not want_values_all:
        # A batch run's values come from its kept words themselves.
        value_sem, value_nodes = set(), set()
    walk_plan = _prune(exec_plan, keep, keep_set, want_values_all, want_op_scc)
    steps = walk_plan.steps
    vacc = {name: ValueAccumulator(length) for name in value_nodes}
    sccacc: Dict[str, OverlapAccumulator] = {}
    if want_op_scc:
        sccacc = {s.name: OverlapAccumulator(length) for s in steps if s.kind == "op"}
    arena = BufferArena() if exec_plan.optimize_level >= 1 else None
    with obs_span("engine.execute", steps=len(steps), length=length):
        env = _walk_tiles(
            list(steps),
            {s.name: _SequenceSource(levels[s.name], s, arena)
             for s in steps if s.kind == "source"},
            {s.group: _OneShotTransform(s.transform)
             for s in steps if s.kind == "transform"},
            [(0, length)],
            needs_select=any(s.op == "scaled_add" for s in steps if s.kind == "op"),
            vacc=vacc, sccacc=sccacc, writers={}, arena=arena, retain=keep_set,
        )
    kept = {name: env[name] for name in walk_plan.node_order if name in keep_set}
    ones = {name: acc.ones for name, acc in vacc.items()}
    op_scc = {name: acc.scc() for name, acc in sccacc.items()}
    kept, ones, op_scc = _expand_aliases(
        plan, exec_plan, kept, ones, op_scc, keep_sem, value_sem
    )
    return kept, ones, op_scc, 0


# ---------------------------------------------------------------------- #
# Public entry points
# ---------------------------------------------------------------------- #

@dataclass
class StreamingRun:
    """Result of one tile-streamed evaluation.

    ``packed`` holds full word matrices only for the nodes the caller
    kept; ``ones`` holds accumulated 1-counts for kept nodes (plus any
    value-accumulated ones), from which :meth:`values` derives the same
    floats a materialised run would.
    """

    length: int
    batch_size: int
    encoding: Encoding
    tile_words: int
    tiles: int
    fused_super_steps: int
    packed: Dict[str, np.ndarray]
    ones: Dict[str, np.ndarray]

    @property
    def names(self) -> List[str]:
        return list(self.packed)

    def words(self, name: str) -> np.ndarray:
        """A kept node's full ``(rows, words)`` uint64 matrix."""
        return self.packed[name]

    def bits(self, name: str) -> np.ndarray:
        """A kept node's streams unpacked to ``(rows, length)`` uint8."""
        return unpack_bits(self.packed[name], self.length)

    def values(self, name: str) -> np.ndarray:
        """Per-configuration encoded values from the streaming popcount
        accumulator (no bits were retained to compute these)."""
        return ones_to_value(self.ones[name], self.length, self.encoding)


def run_streaming(
    plan: ExecutionPlan,
    length: int = 256,
    *,
    tile_words: int = DEFAULT_TILE_WORDS,
    values: Optional[Dict[str, Union[float, np.ndarray]]] = None,
    levels: Optional[Dict[str, Union[int, np.ndarray]]] = None,
    keep: Optional[Iterable[str]] = None,
    encoding: Union[Encoding, str] = Encoding.UNIPOLAR,
    fuse: bool = True,
    jobs: int = 1,
) -> StreamingRun:
    """Evaluate a plan by pumping word tiles through the whole schedule.

    Bit-identical to :func:`repro.engine.executor.run_batch` on every
    node it keeps, at every tile size — but memory scales with
    ``tile_words``, not ``length``, for everything *not* kept.

    Args:
        plan: a compiled :class:`~repro.engine.plan.ExecutionPlan` whose
            transforms all have streaming carriers (every kernel-domain
            circuit does; plans with ``fsm``-domain nodes are rejected).
        length: stream length N (odd lengths fine; the last tile is
            partial).
        tile_words: tile size in 64-bit words (``tile_words * 64`` bits
            per tile).
        values / levels: per-source overrides, as in ``run_batch``.
        keep: node names to materialise at full length. **Default keeps
            every node** (matching ``run_batch``); pass ``()`` or a small
            subset for constant-memory execution. Kept nodes also get
            streaming value accumulators.
        encoding: value interpretation of results.
        fuse: collapse runs of adjacent packed ops into fused super-steps
            (single pass over the tile, no interior buffers). Never
            changes any bit — only which intermediates exist.
        jobs: worker processes for the span scheduler
            (:mod:`repro.engine.parallel`): tiles are split into up to
            ``jobs`` contiguous spans whose carrier entry states come
            from a prefix scan over composed state maps, so results stay
            bit-identical to ``jobs=1`` at every tile size. ``1`` (the
            default) walks the stream as one span in-process; so do
            single-tile streams and plans whose carriers do not compose
            (series compositions), silently.
    """
    check_stream_length(length)
    check_tile_words(tile_words)
    check_jobs(jobs)
    resolved, _, batch = _resolve_levels(plan, length, values, levels)
    kept, ones, _, fused = _execute(
        plan, length, levels=resolved, keep=keep, tile_words=tile_words,
        fuse=fuse, jobs=jobs,
    )
    return StreamingRun(
        length=length,
        batch_size=batch,
        encoding=Encoding.coerce(encoding),
        tile_words=tile_words,
        tiles=tile_count(length, tile_words),
        fused_super_steps=fused,
        packed=kept,
        ones=ones,
    )


def audit_streaming(
    plan: ExecutionPlan,
    length: int = 256,
    *,
    tile_words: int = DEFAULT_TILE_WORDS,
    tolerance: float = 0.35,
    jobs: int = 1,
) -> GraphAudit:
    """Streaming graph audit — float-identical to
    :func:`repro.engine.executor.audit` at any tile size, with O(tile)
    memory.

    Node values accumulate as popcount partial sums and per-op SCC as
    overlap partial sums; the summed integers equal the whole-stream
    counts, so every derived float matches the materialised audit
    exactly. This is what makes N = 2^22 correlation audits (the
    ``long_stream`` experiment) possible at all. ``jobs > 1`` splits the
    stream into prefix-scanned spans; the merged integer partial sums
    equal one span's sums, so every derived float is identical.
    """
    check_stream_length(length)
    check_tile_words(tile_words)
    check_jobs(jobs)
    resolved, _, _ = _resolve_levels(plan, length, None, None)
    _, ones, op_scc, _ = _execute(
        plan, length, levels=resolved, keep=(), tile_words=tile_words,
        want_values_all=True, want_op_scc=True, jobs=jobs,
    )
    return _graph_audit(plan, length, ones, op_scc, tolerance)
