"""repro.engine — compiled, packed-domain execution of SC dataflow graphs.

The graph interpreter (:meth:`SCGraph.run <repro.graph.graph.SCGraph.run>`)
evaluates node by node on unpacked uint8 streams. This subsystem instead
**compiles** a graph once into a levelized execution plan and evaluates it
end-to-end in the packed uint64-word domain, against a whole *batch of
input configurations* at once:

* :mod:`repro.engine.plan` — the compile pass: topological levelization,
  packed-vs-FSM domain classification, transform-port pairing, buffer
  lifetime assignment, and a structural-signature plan cache keyed by
  transform fingerprints (the autofix audit → splice → re-audit loop and
  fresh builds of the same graph recompile nothing they have seen);
* :mod:`repro.engine.executor` — batched evaluation: word-parallel gate
  kernels, pack/unpack boundaries only around sequential FSM steps, and
  audit paths whose SCC measurements run through the packed overlap
  kernels of :mod:`repro.bitstream.metrics`;
* :mod:`repro.engine.optimize` — the plan optimizer: structural CSE /
  hash-consing over the compiled schedule, per-call dead-node
  elimination for subset ``keep`` requests, and liveness-driven arena
  buffer recycling — every pass bit-/float-identical to the faithful
  plan (``compile_graph(..., optimize=False)`` or
  ``repro engine --no-optimize`` gets the unrewritten schedule);
* :mod:`repro.engine.library` — named example graphs for the CLI and
  benchmarks.

Single-configuration results are bit-identical to the interpreter — the
engine is a faster schedule for the same circuit, not a different
circuit. Typical use::

    from repro import SCGraph, engine

    g = SCGraph()
    g.source("a", 0.8, "vdc")
    g.source("b", 0.3, "halton3")
    g.op("diff", "sub", "a", "b")

    plan = engine.compile(g)               # cached by graph structure
    sweep = plan.run_batch(256, values={"a": my_1024_values})
    sweep.values("diff")                   # (1024,) popcount-based values
"""

from .executor import (
    BatchAudit,
    BatchAuditEntry,
    EngineRun,
    clear_sequence_cache,
)
from .library import GRAPH_LIBRARY, build_graph, cse_sweep_graph, depth_chain_graph
from .optimize import (
    BufferArena,
    OptimizedPlan,
    OptimizeReport,
    dce_cache_info,
    default_optimize,
    optimize_plan,
    set_default_optimize,
)
from .plan import (
    ExecutionPlan,
    FusedChain,
    PlanStep,
    cache_info,
    clear_cache,
    compile_graph,
    graph_signature,
)
from .parallel import plan_waves, spans_for
from .pool import get_pool, shutdown_pool
from .streaming import StreamingRun, audit_streaming, run_streaming

# ``engine.compile(graph)`` is the documented spelling; ``compile_graph``
# is the import-safe alias (no builtin shadowing at definition site).
compile = compile_graph

__all__ = [
    "compile",
    "compile_graph",
    "graph_signature",
    "ExecutionPlan",
    "PlanStep",
    "FusedChain",
    "OptimizedPlan",
    "OptimizeReport",
    "BufferArena",
    "optimize_plan",
    "default_optimize",
    "set_default_optimize",
    "dce_cache_info",
    "EngineRun",
    "StreamingRun",
    "run_streaming",
    "audit_streaming",
    "plan_waves",
    "spans_for",
    "get_pool",
    "shutdown_pool",
    "BatchAudit",
    "BatchAuditEntry",
    "cache_info",
    "clear_cache",
    "clear_sequence_cache",
    "GRAPH_LIBRARY",
    "build_graph",
    "depth_chain_graph",
    "cse_sweep_graph",
]
