"""Exhaustive input sweeps for the paper's averaged metrics.

Tables II and III average over "all possible input values" at N = 256:
every binary input level pair ``(x, y)`` with ``x, y in [0, N-1]``
(65,536 pairs). The sweep helpers here build those pair batches through
arbitrary RNG assignments and measure SCC / bias / error before and after
a circuit, fully vectorised over the pair dimension.

(The level range stops at ``N - 1``, not ``N``: the D/S converter's input
register is ``log2(N)`` bits wide, so the all-ones stream is not among the
generated inputs. The paper's own Table II averages confirm this
convention — e.g. its 0.992 input SCC for two same-seed LFSRs is exactly
``(255/256)^2``, the fraction of pairs where neither stream is constant.)

Measurement runs on the packed backend: the FSM transform under test is
sequential and keeps the unpacked ``(pairs, N)`` matrices, but the
before/after SCC and bias reductions pack them and use the word-parallel
popcount kernels, which produce bit-identical statistics
(:mod:`repro.bitstream.metrics`; the tests keep the byte-per-bit
reduction as their oracle).

Whole-graph sweeps (:func:`sweep_graph`) route through
:mod:`repro.engine`: the graph is compiled once and evaluated against the
entire configuration batch in a single packed-domain pass, instead of
re-interpreting the graph per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .._validation import check_positive_int
from ..bitstream.metrics import popcount_words, scc_batch_packed
from ..bitstream.packed import pack_bits
from ..core.fsm import PairTransform
from ..rng import StreamRNG, make_rng

__all__ = [
    "exhaustive_levels",
    "pair_levels",
    "pair_count",
    "generate_level_batch",
    "generate_pair_batch",
    "PairSweepResult",
    "measure_pair_transform",
    "GraphSweepResult",
    "sweep_graph",
]


def exhaustive_levels(n: int, step: int = 1) -> np.ndarray:
    """Binary input levels ``0, step, ..., < n`` for an N-cycle sweep."""
    n = check_positive_int(n, name="n")
    step = check_positive_int(step, name="step")
    return np.arange(0, n, step, dtype=np.int64)


def pair_levels(n: int, step: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """All (x, y) level pairs from :func:`exhaustive_levels`."""
    levels = exhaustive_levels(n, step)
    xs = np.repeat(levels, levels.size)
    ys = np.tile(levels, levels.size)
    return xs, ys


def pair_count(n: int, step: int = 1) -> int:
    """Number of (x, y) pairs in the exhaustive sweep — the per-shard
    batch size the runner reports in ``python -m repro run --list``."""
    return int(exhaustive_levels(n, step).size) ** 2


def generate_level_batch(levels: np.ndarray, rng: StreamRNG, n: int) -> np.ndarray:
    """Comparator D/S conversion of many levels through one RNG sequence."""
    seq = rng.sequence(n)
    return (np.asarray(levels, dtype=np.int64)[:, None] > seq[None, :]).astype(np.uint8)


def generate_pair_batch(
    rng_x: StreamRNG,
    rng_y: StreamRNG,
    n: int = 256,
    step: int = 1,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exhaustive pair batch: returns ``(X, Y, xs, ys)``.

    ``X``/``Y`` are ``(pairs, n)`` bit matrices generated through the two
    RNGs; ``xs``/``ys`` the corresponding binary levels. Passing the same
    RNG *specification* twice (two instances with identical parameters)
    reproduces the paper's maximally correlated configurations.
    """
    xs, ys = pair_levels(n, step)
    return (
        generate_level_batch(xs, rng_x, n),
        generate_level_batch(ys, rng_y, n),
        xs,
        ys,
    )


@dataclass(frozen=True)
class PairSweepResult:
    """Averaged before/after metrics for a pair transform sweep."""

    design: str
    rng_x: str
    rng_y: str
    input_scc: float
    output_scc: float
    bias_x: float
    bias_y: float
    pairs: int

    def as_row(self) -> list:
        return [
            self.design,
            self.rng_x,
            self.rng_y,
            round(self.input_scc, 3),
            round(self.output_scc, 3),
            round(self.bias_x, 3),
            round(self.bias_y, 3),
        ]


def measure_pair_transform(
    transform: PairTransform,
    rng_x_spec: str,
    rng_y_spec: str,
    *,
    n: int = 256,
    step: int = 1,
    design_name: Optional[str] = None,
) -> PairSweepResult:
    """Run the Table II measurement for one design / RNG configuration.

    Averages SCC before and after the transform and the per-stream value
    bias over the exhaustive level-pair sweep. The transform itself runs
    on unpacked bits (it is sequential); the metric reductions run packed.
    """
    rng_x = make_rng(rng_x_spec)
    rng_y = make_rng(rng_y_spec)
    x, y, _, _ = generate_pair_batch(rng_x, rng_y, n=n, step=step)
    out_x, out_y = transform._process_bits(x, y)
    xw, yw = pack_bits(x), pack_bits(y)
    oxw, oyw = pack_bits(out_x), pack_bits(out_y)
    input_scc = float(scc_batch_packed(xw, yw, n).mean())
    output_scc = float(scc_batch_packed(oxw, oyw, n).mean())
    bias_x = float((popcount_words(oxw) - popcount_words(xw)).mean()) / n
    bias_y = float((popcount_words(oyw) - popcount_words(yw)).mean()) / n
    return PairSweepResult(
        design=design_name or transform.name,
        rng_x=rng_x_spec,
        rng_y=rng_y_spec,
        input_scc=input_scc,
        output_scc=output_scc,
        bias_x=bias_x,
        bias_y=bias_y,
        pairs=int(x.shape[0]),
    )


@dataclass(frozen=True)
class GraphSweepResult:
    """Engine-batched evaluation of one graph over many configurations."""

    values: Dict[str, np.ndarray]      # node -> (configs,) measured values
    expected: Dict[str, np.ndarray]    # node -> (configs,) exact semantics
    mae: Dict[str, float]              # node -> mean absolute value error
    violation_rate: Dict[str, float]   # op node -> fraction of violated configs
    configs: int

    def worst_node(self) -> str:
        """The node with the largest mean value error."""
        return max(self.mae, key=self.mae.get)


def sweep_graph(
    graph,
    *,
    n: int = 256,
    values: Optional[Dict[str, Union[float, np.ndarray]]] = None,
    levels: Optional[Dict[str, Union[int, np.ndarray]]] = None,
    tolerance: float = 0.35,
) -> GraphSweepResult:
    """Sweep an :class:`~repro.graph.graph.SCGraph` over a configuration
    batch in one compiled engine pass.

    ``values``/``levels`` override sources exactly as in
    :meth:`ExecutionPlan.run_batch <repro.engine.plan.ExecutionPlan.run_batch>`;
    row ``i`` of every reported array is bit-identical to interpreting
    the graph with configuration ``i``. Per-op violation rates come from
    the engine's batched audit (packed SCC kernels).
    """
    from ..engine import compile_graph

    plan = compile_graph(graph)
    batch_audit = plan.audit_batch(n, values=values, levels=levels, tolerance=tolerance)
    mae = {name: batch_audit.mean_value_error(name) for name in batch_audit.values}
    return GraphSweepResult(
        values=batch_audit.values,
        expected=batch_audit.expected,
        mae=mae,
        violation_rate={e.node: e.violation_rate for e in batch_audit.entries},
        configs=batch_audit.batch_size,
    )
