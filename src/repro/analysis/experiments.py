"""Experiment registry: one function per table/figure in the paper.

Every function returns an :class:`ExperimentResult` whose rows interleave
*measured* values with the *paper's published* values, so the benchmark
harness and EXPERIMENTS.md can show them side by side. Keyword arguments
(`step`, `image_size`) trade sweep resolution for runtime; the defaults
reproduce the paper's exhaustive settings, tests use coarser grids.

Index (see DESIGN.md section 4):

=============  ========================================================
``table1``     AND-gate functions vs. input correlation
``fig1``       worked multiply / scaled-add examples
``fig2``       per-operator accuracy under required vs. wrong correlation
``table2``     SCC before/after the correlation manipulating circuits
``table3``     max/min designs: error, bias, area, power, energy
``table4``     image pipeline: error, area, energy per variant
``claims``     the prose claims (5.6x/10.7x, 5.2x/11.6x, 3.0x, 24%, 2x)
``ablation_*`` save depth / composition / buffer depth studies
=============  ========================================================

Sharding: the sweep-shaped experiments are factored into top-level
``_<name>_shard`` functions (one *configuration* of the sweep — one
batched packed/kernel pass — per call, picklable for worker processes)
and ``_<name>_merge`` functions that assemble shard payloads into the
final :class:`ExperimentResult` (rows in registry order, cross-shard
shape checks). The public functions are thin serial wrappers over
shard+merge, so ``table2()`` et al. behave exactly as before;
:mod:`repro.runner` schedules the same shards across processes and
caches their payloads in the content-addressed result store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..arith import AndMin, CAMax, CorDiv, Multiplier, OrMax, ScaledAdder
from ..bitstream import Bitstream, PackedBitstreamBatch, batch_mux, scc
from ..core import (
    Decorrelator,
    Desynchronizer,
    IsolatorPair,
    SeriesPair,
    Synchronizer,
    SyncMax,
    SyncMin,
    TFMPair,
)
from ..hardware import components, report
from ..pipeline import AcceleratorConfig, SCAccelerator, standard_test_images
from ..rng import LFSR, make_rng
from .sweeps import generate_level_batch, measure_pair_transform, pair_levels
from .tables import render_table

__all__ = [
    "ExperimentResult",
    "table1",
    "fig1",
    "fig2",
    "table2",
    "table3",
    "table4",
    "claims",
    "ablation_save_depth",
    "ablation_composition",
    "ablation_buffer_depth",
    "fault_tolerance",
    "propagation",
    "power_breakdown",
    "long_stream",
    "ALL_EXPERIMENTS",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """A reproduced table/figure with measured and published values."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[list]
    notes: str = ""
    checks: Dict[str, bool] = field(default_factory=dict)

    def to_text(self) -> str:
        text = render_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + self.notes
        if self.checks:
            status = ", ".join(f"{k}={'PASS' if v else 'FAIL'}" for k, v in self.checks.items())
            text += f"\nshape checks: {status}"
        return text

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())


# ---------------------------------------------------------------------- #
# Table I — AND-gate functions vs. correlation
# ---------------------------------------------------------------------- #

def table1() -> ExperimentResult:
    """The paper's literal Table I plus an exhaustive verification sweep."""
    x = Bitstream("10101010")
    cases = [
        ("positive", Bitstream("10111011"), "min(px,py)", 0.5),
        ("negative", Bitstream("11011101"), "max(0,px+py-1)", 0.25),
        ("uncorrelated", Bitstream("11111100"), "px*py", 0.375),
    ]
    rows = []
    ok = True
    for label, y, function, expected in cases:
        z = x & y
        rows.append(
            [label, x.to01(), y.to01(), z.to01(), function, expected, z.value,
             round(scc(x.bits, y.bits), 3)]
        )
        ok = ok and z.value == expected
    notes = (
        "AND output realises three different functions depending only on the\n"
        "input correlation (values identical in all rows: px=0.5, py=0.75)."
    )
    return ExperimentResult(
        experiment_id="table1",
        title="Table I — functions implemented by a two-input AND gate",
        headers=["correlation", "X", "Y", "X&Y", "function", "paper", "measured", "SCC"],
        rows=rows,
        notes=notes,
        checks={"literal_examples_exact": ok},
    )


# ---------------------------------------------------------------------- #
# Fig. 1 — worked multiply / scaled-add examples
# ---------------------------------------------------------------------- #

def fig1() -> ExperimentResult:
    """The paper's Fig. 1 worked examples, reproduced bit for bit."""
    mul_x = Bitstream("01010101")
    mul_y = Bitstream("00111111")
    product = Multiplier().compute(mul_x, mul_y)

    add_x = Bitstream("01110111")
    add_y = Bitstream("11000000")
    add_r = Bitstream("10100110")
    total = ScaledAdder().compute(add_x, add_y, select=add_r)

    rows = [
        ["multiply (a)", mul_x.value, mul_y.value, product.value, 0.375],
        ["scaled add (b)", add_x.value, add_y.value, total.value, 0.5],
    ]
    checks = {
        "multiply_exact": product.value == 0.375,
        "add_exact": total.value == 0.5,
    }
    return ExperimentResult(
        experiment_id="fig1",
        title="Fig. 1 — example SC multiplication and addition",
        headers=["operation", "px", "py", "measured pz", "paper pz"],
        rows=rows,
        checks=checks,
    )


# ---------------------------------------------------------------------- #
# Fig. 2 — operator accuracy under required vs. wrong correlation
# ---------------------------------------------------------------------- #

_FIG2_ROWS = ("a", "b", "c", "d", "e")


@lru_cache(maxsize=2)
def _fig2_operands(n: int, step: int):
    """The operand batches the Fig. 2 rows share, built once per process
    (exactly the set the serial implementation used to build up front):
    uncorrelated, shared-sequence (SCC=+1) and complemented (SCC=-1)
    pairings of the exhaustive level grid."""
    xs, ys = pair_levels(n, step)
    vdc = lambda: make_rng("vdc")  # noqa: E731

    x_u = generate_level_batch(xs, vdc(), n)
    y_u = generate_level_batch(ys, make_rng("halton3"), n)   # uncorrelated with x_u
    y_p = generate_level_batch(ys, vdc(), n)                 # shared sequence: SCC=+1
    seq = vdc().sequence(n)
    y_n = (ys[:, None] > (n - 1 - seq[None, :])).astype(np.uint8)  # complemented: SCC=-1
    return {
        "xs": xs, "ys": ys,
        "x_u": x_u, "y_u": y_u, "y_p": y_p,
        "xq": PackedBitstreamBatch.pack(x_u),
        "yq_u": PackedBitstreamBatch.pack(y_u),
        "yq_p": PackedBitstreamBatch.pack(y_p),
        "yq_n": PackedBitstreamBatch.pack(y_n),
    }


def _fig2_shard(row: str, *, n: int = 256, step: int = 4) -> dict:
    """One Fig. 2 operator row — one batched pass over the operand set."""
    ops = _fig2_operands(n, step)
    xs, ys = ops["xs"], ops["ys"]
    px, py = xs / n, ys / n
    xq, yq_u, yq_p, yq_n = ops["xq"], ops["yq_u"], ops["yq_p"], ops["yq_n"]

    def mae(packed, expected):
        return float(np.abs(packed.values - expected).mean())

    if row == "a":
        # (a) scaled add: select must be uncorrelated with data.
        sel_good = PackedBitstreamBatch.pack(
            generate_level_batch(np.full(1, n // 2), make_rng("halton5"), n)
        )
        sel_bad = PackedBitstreamBatch.pack(
            generate_level_batch(np.full(1, n // 2), make_rng("vdc"), n)  # = X's RNG
        )
        expected = 0.5 * (px + py)
        cells = ["(a) add (MUX)", "select uncorr",
                 mae(batch_mux(sel_good, xq, yq_u), expected),
                 mae(batch_mux(sel_bad, xq, yq_u), expected)]
    elif row == "b":
        # (b) saturating add: needs SCC=-1.
        expected = np.minimum(1.0, px + py)
        cells = ["(b) saturating add (OR)", "SCC=-1",
                 mae(xq | yq_n, expected), mae(xq | yq_p, expected)]
    elif row == "c":
        # (c) subtract: needs SCC=+1.
        expected = np.abs(px - py)
        cells = ["(c) subtract (XOR)", "SCC=+1",
                 mae(xq ^ yq_p, expected), mae(xq ^ yq_u, expected)]
    elif row == "d":
        # (d) multiply: needs SCC=0.
        expected = px * py
        cells = ["(d) multiply (AND)", "SCC=0",
                 mae(xq & yq_u, expected), mae(xq & yq_p, expected)]
    elif row == "e":
        # (e) divide: needs SCC=+1 (evaluated where px <= py, py > 0).
        div = CorDiv()
        mask = (xs <= ys) & (ys > 0)
        expected = np.where(ys > 0, xs / np.maximum(ys, 1), 0.0)[mask]
        good = div.compute(ops["x_u"][mask], ops["y_p"][mask]).mean(axis=1)
        bad = div.compute(ops["x_u"][mask], ops["y_u"][mask]).mean(axis=1)
        cells = ["(e) divide (CORDIV)", "SCC=+1",
                 float(np.abs(good - expected).mean()),
                 float(np.abs(bad - expected).mean())]
    else:
        raise ValueError(f"unknown fig2 row {row!r}")
    return {"row": row, "cells": cells}


def _fig2_merge(params: dict, payloads: List[dict]) -> ExperimentResult:
    rows = [p["cells"] for p in payloads]
    checks = {f"row{i}_right_better": row[2] < row[3] for i, row in enumerate(rows)}
    notes = (
        "Each operator is accurate under its required operand correlation and\n"
        "degrades under the wrong one — the premise of the paper (Fig. 2 row\n"
        "'Operand Correlation')."
    )
    return ExperimentResult(
        experiment_id="fig2",
        title="Fig. 2 — correlation-sensitive SC operators (mean absolute error)",
        headers=["operator", "requirement", "MAE (required corr.)", "MAE (wrong corr.)"],
        rows=rows,
        notes=notes,
        checks=checks,
    )


def fig2(n: int = 256, step: int = 4) -> ExperimentResult:
    """Every Fig. 2 operator, right-correlation MAE vs. wrong-correlation.

    "Right" and "wrong" operand correlations are produced the hardware way:
    shared RNG sequence (SCC=+1), complemented comparator (SCC=-1), or
    independent low-discrepancy RNGs (SCC~0). Gate sweeps run on the
    packed backend; only CORDIV (sequential) stays on unpacked bits.
    """
    payloads = [_fig2_shard(row, n=n, step=step) for row in _FIG2_ROWS]
    return _fig2_merge({"n": n, "step": step}, payloads)


# ---------------------------------------------------------------------- #
# Table II — SCC before/after the correlation manipulating circuits
# ---------------------------------------------------------------------- #

_TABLE2_PAPER = {
    ("synchronizer", "vdc", "halton3"): (-0.048, 0.996, -0.001, -0.002),
    ("synchronizer", "lfsr", "vdc"): (-0.062, 0.903, -0.002, -0.001),
    ("synchronizer", "halton3", "halton3"): (0.984, 0.992, -0.002, -0.002),
    ("desynchronizer", "vdc", "halton3"): (-0.048, -0.981, -0.002, 0.0),
    ("desynchronizer", "lfsr", "vdc"): (-0.062, -0.788, -0.002, 0.0),
    ("desynchronizer", "halton3", "halton3"): (0.984, -0.930, -0.003, 0.0),
    ("decorrelator", "lfsr", "lfsr"): (0.992, 0.249, 0.000, -0.004),
    ("decorrelator", "vdc", "vdc"): (0.992, 0.168, 0.001, 0.003),
    ("decorrelator", "halton3", "halton3"): (0.984, 0.067, 0.001, 0.002),
    ("isolator", "lfsr", "lfsr"): (0.992, 0.600, -0.002, 0.000),
    ("isolator", "vdc", "vdc"): (0.992, -0.637, -0.004, 0.000),
    ("isolator", "halton3", "halton3"): (0.984, -0.353, 0.002, 0.000),
    ("tfm", "lfsr", "lfsr"): (0.992, 0.654, -0.014, -0.051),
    ("tfm", "vdc", "vdc"): (0.992, 0.779, 0.246, 0.363),
    ("tfm", "halton3", "halton3"): (0.984, 0.353, -0.005, -0.007),
}


def _table2_transform(design: str):
    """Fresh transform instance per measurement (FSMs hold no state across
    calls, but aux-RNG-bearing designs must be rebuilt to replay)."""
    if design == "synchronizer":
        return Synchronizer(depth=1)
    if design == "desynchronizer":
        return Desynchronizer(depth=1)
    if design == "decorrelator":
        return Decorrelator(LFSR(8, seed=45), LFSR(8, seed=142), depth=4)
    if design == "isolator":
        return IsolatorPair(delay=1)
    if design == "tfm":
        return TFMPair(LFSR(8, seed=77))  # shared aux RNG (see TFMPair docs)
    raise ValueError(f"unknown Table II design {design!r}")


def _table2_shard(config: Sequence[str], *, n: int = 256, step: int = 1) -> dict:
    """One Table II configuration — one batched kernel pass over the
    exhaustive level-pair sweep for ``(design, rng_x, rng_y)``."""
    design, rng_x, rng_y = config
    result = measure_pair_transform(
        _table2_transform(design), rng_x, rng_y, n=n, step=step, design_name=design
    )
    return {
        "design": design,
        "rng_x": rng_x,
        "rng_y": rng_y,
        "input_scc": result.input_scc,
        "output_scc": result.output_scc,
        "bias_x": result.bias_x,
        "bias_y": result.bias_y,
    }


def _table2_merge(params: dict, payloads: List[dict]) -> ExperimentResult:
    n = params.get("n", 256)
    step = params.get("step", 1)
    rows = []
    checks: Dict[str, bool] = {}
    decorrelator_scc: Dict[str, float] = {}
    for payload in payloads:
        design, rng_x, rng_y = payload["design"], payload["rng_x"], payload["rng_y"]
        paper = _TABLE2_PAPER[(design, rng_x, rng_y)]
        rows.append(
            [design, rng_x, rng_y,
             round(payload["input_scc"], 3), round(payload["output_scc"], 3),
             round(payload["bias_x"], 3), round(payload["bias_y"], 3),
             paper[0], paper[1]]
        )
        key = f"{design}/{rng_x}+{rng_y}"
        if design == "synchronizer":
            # Config-aware threshold: within 0.12 of the published value
            # (the LFSR configuration is genuinely weaker, as in the paper).
            checks[key] = payload["output_scc"] > paper[1] - 0.12
        elif design == "desynchronizer":
            checks[key] = payload["output_scc"] < paper[1] + 0.12
        elif design == "decorrelator":
            decorrelator_scc[rng_x] = payload["output_scc"]
            checks[key] = abs(payload["output_scc"]) < 0.45 and abs(payload["bias_x"]) < 0.01
        elif design == "isolator":
            checks[key] = abs(payload["output_scc"]) < abs(payload["input_scc"])
        else:
            # The paper's comparative claim: the TFM is a *worse*
            # decorrelator than the shuffle-buffer design — it leaves the
            # pair substantially more correlated.
            checks[key] = payload["output_scc"] > decorrelator_scc.get(rng_x, 0.0) + 0.1
    notes = (
        "Shape targets: synchronizer -> SCC ~ +1, desynchronizer -> SCC ~ -1,\n"
        "decorrelator -> SCC ~ 0 with tiny bias; isolator erratic; TFM weaker\n"
        "than the decorrelator. Paper columns are the published values."
    )
    return ExperimentResult(
        experiment_id="table2",
        title=f"Table II — average SCC before/after (N={n}, level step={step})",
        headers=["design", "X RNG", "Y RNG", "in SCC", "out SCC",
                 "X' bias", "Y' bias", "paper in", "paper out"],
        rows=rows,
        notes=notes,
        checks=checks,
    )


def table2(n: int = 256, step: int = 1) -> ExperimentResult:
    """SCC before/after each circuit for the paper's RNG configurations."""
    payloads = [_table2_shard(config, n=n, step=step) for config in _TABLE2_PAPER]
    return _table2_merge({"n": n, "step": step}, payloads)


# ---------------------------------------------------------------------- #
# Table III — max/min designs
# ---------------------------------------------------------------------- #

_TABLE3_PAPER = {
    "OR max": (0.087, 0.087, 2.16, 0.26, 165),
    "CA max": (0.006, 0.001, 252.36, 56.7, 36288),
    "Sync max": (0.003, 0.003, 48.6, 4.89, 3130),
    "AND min": (0.082, -0.082, 2.16, 0.25, 158),
    "Sync min": (0.005, 0.005, 45.0, 8.38, 5363),
}


_TABLE3_DESIGNS = ("OR max", "CA max", "Sync max", "AND min", "Sync min")


def _table3_design(name: str):
    """(operator, wants_max, netlist) for one Table III design."""
    if name == "OR max":
        return OrMax(), True, components.or_gate()
    if name == "CA max":
        return CAMax(counter_bits=6), True, components.ca_max()
    if name == "Sync max":
        return SyncMax(depth=1), True, components.sync_max()
    if name == "AND min":
        return AndMin(), False, components.and_gate()
    if name == "Sync min":
        return SyncMin(depth=1), False, components.sync_min()
    raise ValueError(f"unknown Table III design {name!r}")


@lru_cache(maxsize=2)
def _table3_operands(n: int, step: int):
    """The exhaustive operand batch every Table III design consumes.

    Memoized per process so consecutive shards — serial wrapper or
    pool-worker alike — pay the (pairs, N) generation and packing once.
    The batches are treated as immutable by every design (the sequential
    ones unpack copies at their input boundary)."""
    xs, ys = pair_levels(n, step)
    x = PackedBitstreamBatch.pack(generate_level_batch(xs, make_rng("vdc"), n))
    y = PackedBitstreamBatch.pack(generate_level_batch(ys, make_rng("halton3"), n))
    return xs, ys, x, y


def _table3_shard(design: str, *, n: int = 256, step: int = 1) -> dict:
    """One Table III design — one batched packed pass over the exhaustive
    VDC x Halton-3 operand sweep plus the hardware cost model."""
    xs, ys, x, y = _table3_operands(n, step)
    op, wants_max, netlist = _table3_design(design)
    expected = (np.maximum(xs, ys) if wants_max else np.minimum(xs, ys)) / n

    values = op.compute(x, y).values
    abs_err = float(np.abs(values - expected).mean())
    avg_bias = float((values - expected).mean())
    cost = report(netlist)
    energy = cost.energy_pj(n)
    return {
        "design": design,
        "abs_err": abs_err,
        "avg_bias": avg_bias,
        "area_um2": cost.area_um2,
        "power_uw": cost.power_uw,
        "energy_pj": energy,
    }


def _table3_merge(params: dict, payloads: List[dict]) -> ExperimentResult:
    n = params.get("n", 256)
    step = params.get("step", 1)
    rows = []
    measured: Dict[str, tuple] = {}
    for p in payloads:
        paper = _TABLE3_PAPER[p["design"]]
        rows.append([p["design"], p["abs_err"], p["avg_bias"], p["area_um2"],
                     p["power_uw"], p["energy_pj"], paper[0], paper[2], paper[4]])
        measured[p["design"]] = (p["abs_err"], p["area_um2"], p["energy_pj"])

    checks = {
        "sync_max_beats_or": measured["Sync max"][0] < measured["OR max"][0] / 5,
        "sync_min_beats_and": measured["Sync min"][0] < measured["AND min"][0] / 5,
        "sync_max_smaller_than_ca": measured["Sync max"][1] * 3 < measured["CA max"][1],
        "sync_max_lower_energy_than_ca": measured["Sync max"][2] * 5 < measured["CA max"][2],
    }
    notes = (
        "Headline shape: the synchronizer-based designs are ~an order of\n"
        "magnitude more accurate than bare gates, and several times smaller\n"
        "and more energy efficient than the correlation-agnostic max."
    )
    return ExperimentResult(
        experiment_id="table3",
        title=f"Table III — SC maximum/minimum designs (N={n}, level step={step})",
        headers=["design", "abs err", "avg bias", "area um2", "power uW",
                 "energy pJ", "paper err", "paper area", "paper E"],
        rows=rows,
        notes=notes,
        checks=checks,
    )


def table3(n: int = 256, step: int = 1) -> ExperimentResult:
    """Accuracy + hardware cost of the max/min designs (VDC x Halton-3
    exhaustive inputs, the paper's Table III protocol).

    Operands are handed to every design packed: the single-gate designs
    (OR max / AND min) compute word-parallel, while the sequential CA and
    synchronizer designs unpack at their input boundary and repack on the
    way out (:mod:`repro.arith._coerce`). Values come from popcounts.
    """
    payloads = [_table3_shard(design, n=n, step=step) for design in _TABLE3_DESIGNS]
    return _table3_merge({"n": n, "step": step}, payloads)


# ---------------------------------------------------------------------- #
# Table IV — image pipeline
# ---------------------------------------------------------------------- #

_TABLE4_PAPER = {
    "none": (0.076, 24313, 1383),
    "regeneration": (0.019, 34802, 1971),
    "synchronizer": (0.020, 36202, 1505),
}


_TABLE4_VARIANTS = ("none", "regeneration", "synchronizer")


def _table4_shard(variant: str, *, image_size: int = 32, stream_length: int = 256) -> dict:
    """One accelerator variant over the standard synthetic image set."""
    images = standard_test_images(image_size)
    acc = SCAccelerator(
        AcceleratorConfig(variant=variant, stream_length=stream_length)
    )
    maes = []
    last = None
    for image in images.values():
        last = acc.process(image)
        maes.append(last.mean_abs_error)
    return {
        "variant": variant,
        "mean_mae": float(np.mean(maes)),
        "area_um2": last.area_um2,
        "energy_per_frame_nj": last.energy_per_frame_nj,
    }


def _table4_merge(params: dict, payloads: List[dict]) -> ExperimentResult:
    image_size = params.get("image_size", 32)
    stream_length = params.get("stream_length", 256)
    rows = [["floating point", 0.0, None, None, 0.0, None, None]]
    results = {}
    for p in payloads:
        variant = p["variant"]
        results[variant] = (p["mean_mae"], p["area_um2"], p["energy_per_frame_nj"])
        paper = _TABLE4_PAPER[variant]
        rows.append([f"SC {variant}", p["mean_mae"], p["area_um2"],
                     p["energy_per_frame_nj"], paper[0], paper[1], paper[2]])

    checks = {
        "manipulation_improves_quality": results["synchronizer"][0] < results["none"][0] / 2
        and results["regeneration"][0] < results["none"][0] / 2,
        "sync_cheaper_energy_than_regen": results["synchronizer"][2] < results["regeneration"][2],
        "regen_and_sync_comparable_quality": results["synchronizer"][0] < 3 * results["regeneration"][0],
    }
    saving = 1 - results["synchronizer"][2] / results["regeneration"][2]
    notes = (
        f"Energy saving of the synchronizer design vs regeneration: "
        f"{saving:.1%} (paper: 24%).\n"
        "'Frame' = one tile-engine pass of N cycles (the granularity at which\n"
        "the paper's nJ/frame values are self-consistent); image energy scales\n"
        "with the tile count. MAE averaged over 4 synthetic test images."
    )
    return ExperimentResult(
        experiment_id="table4",
        title=f"Table IV — GB->ED accelerator ({image_size}x{image_size} images, N={stream_length})",
        headers=["design", "abs err", "area um2", "E/frame nJ",
                 "paper err", "paper area", "paper E"],
        rows=rows,
        notes=notes,
        checks=checks,
    )


def table4(image_size: int = 32, stream_length: int = 256) -> ExperimentResult:
    """The GB -> ED accelerator: quality, area, energy per variant,
    averaged over the standard synthetic image set."""
    payloads = [
        _table4_shard(variant, image_size=image_size, stream_length=stream_length)
        for variant in _TABLE4_VARIANTS
    ]
    return _table4_merge(
        {"image_size": image_size, "stream_length": stream_length}, payloads
    )


# ---------------------------------------------------------------------- #
# Prose claims
# ---------------------------------------------------------------------- #

def claims() -> ExperimentResult:
    """The paper's headline prose claims, recomputed from our models."""
    ca_add = report(components.ca_adder())
    mux_add = report(components.mux_adder())
    ca_max_cost = report(components.ca_max())
    sync_max_cost = report(components.sync_max())

    regen_acc = SCAccelerator(AcceleratorConfig(variant="regeneration"))
    sync_acc = SCAccelerator(AcceleratorConfig(variant="synchronizer"))
    manip_ratio = regen_acc.manipulation_power_uw() / sync_acc.manipulation_power_uw()
    regen_power = sum(v[1] for v in regen_acc.cost_breakdown().values())
    sync_power = sum(v[1] for v in sync_acc.cost_breakdown().values())
    saving = 1 - sync_power / regen_power
    n_sync = 2 * regen_acc.config.output_tile**2
    n_regen_converters = 2 * regen_acc.config.blur_tile**2  # S/D + D/S each

    rows = [
        ["CA adder area vs MUX adder", ca_add.area_um2 / mux_add.area_um2, 5.6],
        ["CA adder power vs MUX adder", ca_add.power_uw / mux_add.power_uw, 10.7],
        ["CA max area vs Sync max", ca_max_cost.area_um2 / sync_max_cost.area_um2, 5.2],
        ["CA max energy vs Sync max", ca_max_cost.energy_pj(256) / sync_max_cost.energy_pj(256), 11.6],
        ["manipulation energy: regen vs sync", manip_ratio, 3.0],
        ["total accelerator energy saving (sync vs regen)", saving, 0.24],
        ["sync instances / regen converter instances", n_sync / n_regen_converters, 2.0],
    ]
    checks = {
        "ca_adder_much_larger": rows[0][1] > 3,
        "ca_adder_much_hungrier": rows[1][1] > 5,
        "ca_max_larger_than_sync": rows[2][1] > 3,
        "ca_max_energy_vs_sync": rows[3][1] > 5,
        "manip_ratio_near_3x": 2.0 < rows[4][1] < 4.5,
        "saving_near_24pct": 0.15 < rows[5][1] < 0.35,
    }
    return ExperimentResult(
        experiment_id="claims",
        title="Prose claims — measured vs paper",
        headers=["claim", "measured", "paper"],
        rows=rows,
        checks=checks,
    )


# ---------------------------------------------------------------------- #
# Ablations (paper Sections III-B / III-C)
# ---------------------------------------------------------------------- #

def _ablation_save_depth_shard(depth: int, *, n: int = 256, step: int = 4) -> dict:
    """One FSM save depth: sync + desync sweeps plus the cost model."""
    sync = measure_pair_transform(Synchronizer(depth=depth), "lfsr", "vdc", n=n, step=step)
    desync = measure_pair_transform(Desynchronizer(depth=depth), "lfsr", "vdc", n=n, step=step)
    sync_cost = report(components.synchronizer(depth))
    return {
        "depth": depth,
        "row": [depth, round(sync.output_scc, 3), round(sync.bias_x, 4),
                round(desync.output_scc, 3), round(desync.bias_x, 4),
                sync_cost.area_um2, sync_cost.power_uw],
    }


def _ablation_save_depth_merge(params: dict, payloads: List[dict]) -> ExperimentResult:
    n = params.get("n", 256)
    rows = [p["row"] for p in payloads]
    sccs = [row[1] for row in rows]
    areas = [row[5] for row in rows]
    checks = {
        "deeper_is_more_correlated": all(b >= a - 0.005 for a, b in zip(sccs, sccs[1:])),
        "deeper_is_bigger": all(b > a for a, b in zip(areas, areas[1:])),
    }
    return ExperimentResult(
        experiment_id="ablation_save_depth",
        title=f"Ablation — FSM save depth D (LFSR+VDC inputs, N={n})",
        headers=["D", "sync out SCC", "sync bias", "desync out SCC",
                 "desync bias", "sync area um2", "sync power uW"],
        rows=rows,
        checks=checks,
    )


def ablation_save_depth(n: int = 256, step: int = 4, depths=(1, 2, 4, 8)) -> ExperimentResult:
    """Deeper FSMs: stronger correlation but more hardware (III-B)."""
    payloads = [_ablation_save_depth_shard(d, n=n, step=step) for d in depths]
    return _ablation_save_depth_merge({"n": n, "step": step, "depths": depths}, payloads)


def _ablation_composition_shard(stages: int, *, n: int = 256, step: int = 4) -> dict:
    """One series-composition length k."""
    sync = SeriesPair([Synchronizer(depth=1) for _ in range(stages)])
    result = measure_pair_transform(sync, "lfsr", "vdc", n=n, step=step,
                                    design_name=f"sync x{stages}")
    return {
        "stages": stages,
        "row": [stages, round(result.input_scc, 3), round(result.output_scc, 3),
                round(result.bias_x, 4), round(result.bias_y, 4)],
    }


def _ablation_composition_merge(params: dict, payloads: List[dict]) -> ExperimentResult:
    n = params.get("n", 256)
    rows = [p["row"] for p in payloads]
    sccs = [row[2] for row in rows]
    checks = {
        "composition_improves_scc": sccs[-1] > sccs[0],
        "monotone_within_tolerance": all(b >= a - 0.01 for a, b in zip(sccs, sccs[1:])),
    }
    return ExperimentResult(
        experiment_id="ablation_composition",
        title=f"Ablation — series composition of D=1 synchronizers (N={n})",
        headers=["stages", "in SCC", "out SCC", "bias X", "bias Y"],
        rows=rows,
        checks=checks,
    )


def ablation_composition(n: int = 256, step: int = 4, stages=(1, 2, 3, 4)) -> ExperimentResult:
    """Series composition of D=1 FSMs (III-B): diminishing returns toward
    maximal correlation, with compounding bias."""
    payloads = [_ablation_composition_shard(k, n=n, step=step) for k in stages]
    return _ablation_composition_merge({"n": n, "step": step, "stages": stages}, payloads)


def _ablation_buffer_depth_shard(depth: int, *, n: int = 256, step: int = 4) -> dict:
    """One shuffle-buffer depth, both init policies."""
    rows = []
    for init in ("half_ones", "zeros"):
        deco = Decorrelator(LFSR(8, seed=45), LFSR(8, seed=142), depth=depth, init=init)
        result = measure_pair_transform(deco, "lfsr", "lfsr", n=n, step=step,
                                        design_name=f"decorr D={depth} {init}")
        rows.append([depth, init, round(result.input_scc, 3),
                     round(result.output_scc, 3), round(result.bias_x, 4),
                     round(result.bias_y, 4)])
    return {"depth": depth, "rows": rows}


def _ablation_buffer_depth_merge(params: dict, payloads: List[dict]) -> ExperimentResult:
    n = params.get("n", 256)
    rows = [row for p in payloads for row in p["rows"]]
    half_rows = [r for r in rows if r[1] == "half_ones"]
    zero_rows = [r for r in rows if r[1] == "zeros"]
    checks = {
        "deeper_decorrelates_more": abs(half_rows[-1][3]) < abs(half_rows[0][3]),
        "half_ones_less_biased": np.mean([abs(r[4]) + abs(r[5]) for r in half_rows])
        <= np.mean([abs(r[4]) + abs(r[5]) for r in zero_rows]) + 1e-9,
    }
    return ExperimentResult(
        experiment_id="ablation_buffer_depth",
        title=f"Ablation — shuffle buffer depth / init (LFSR+LFSR inputs, N={n})",
        headers=["D", "init", "in SCC", "out SCC", "bias X", "bias Y"],
        rows=rows,
        checks=checks,
    )


def ablation_buffer_depth(n: int = 256, step: int = 4, depths=(2, 4, 8, 16)) -> ExperimentResult:
    """Decorrelator shuffle-buffer depth and init policy (III-C)."""
    payloads = [_ablation_buffer_depth_shard(d, n=n, step=step) for d in depths]
    return _ablation_buffer_depth_merge({"n": n, "step": step, "depths": depths}, payloads)


# How many standard deviations a measured fault-sweep error may sit from
# its exact expectation. One run makes 10-14 such tests (SC and BE at
# each nonzero rate), and the word errors at low rates are heavy-tailed
# (a mean over a few hundred words hinges on a handful of high-bit
# flips), so a 3-sigma band would fail some seeds by chance; flipping at
# twice the rate still lands far outside 5.
_FAULT_Z_BOUND = 5.0


def fault_tolerance(
    rates=(0.0, 0.001, 0.005, 0.01, 0.05, 0.1), trials: int = 256,
    seed: Optional[int] = None,
) -> ExperimentResult:
    """SC vs binary error tolerance under bit flips (the paper's intro
    claim: "improved error tolerance")."""
    from ..faults import fault_sweep

    points = fault_sweep(rates=rates, trials=trials, seed=7 if seed is None else seed)
    rows = [p.as_row() for p in points]
    nonzero = [p for p in points if p.rate > 0]
    checks = {
        # The claim is about expectations: the measured errors of one
        # seed's draw are noisy, and at low rates the two lie within a
        # standard deviation of each other.
        "sc_beats_binary_in_expectation": all(
            p.sc_expected_error < p.be_expected_error for p in nonzero
        ),
        "errors_match_expectation": all(
            abs(measured - expected) <= _FAULT_Z_BOUND * sd
            for p in nonzero
            for measured, expected, sd in (
                (p.sc_value_error, p.sc_expected_error, p.sc_error_sd),
                (p.be_value_error, p.be_expected_error, p.be_error_sd),
            )
        ),
        "graceful_degradation": all(
            b.sc_value_error >= a.sc_value_error - 1e-9
            for a, b in zip(points, points[1:])
        ),
    }
    notes = (
        "Equal per-bit fault rates hit both representations; SC loses at most\n"
        "1/N of value per flip while a binary MSB flip is worth half scale."
    )
    return ExperimentResult(
        experiment_id="fault_tolerance",
        title="Error tolerance — SC stream vs binary word under bit flips",
        headers=["fault rate", "SC value err", "BE value err", "SC multiply err"],
        rows=rows,
        notes=notes,
        checks=checks,
    )


def propagation(n: int = 256, step: int = 4) -> ExperimentResult:
    """Correlation propagation through each gate — the open question the
    paper raises in Section II-B, measured."""
    from .propagation_study import correlation_propagation

    entries = correlation_propagation(n=n, step=step)
    rows = [e.as_row() for e in entries]
    by_gate = {e.gate.split()[0]: e for e in entries}
    checks = {
        # XOR against a correlated operand decorrelates the output most;
        # AND/OR retain a substantial share; MUX retains about half (it
        # passes A's bits half the time).
        "xor_decorrelates_most": abs(by_gate["XOR"].retention)
        < min(abs(by_gate["AND"].retention), abs(by_gate["OR"].retention)),
        "and_or_retain_correlation": by_gate["AND"].retention > 0.3
        and by_gate["OR"].retention > 0.3,
        "mux_retains_about_half": 0.25 < by_gate["MUX"].retention < 0.8,
    }
    notes = (
        "Setup: SCC(A, C) ~ +1 (shared RNG), B independent; rows report how\n"
        "much of A's correlation with the rest of the computation survives\n"
        "out = gate(A, B) — the data needed to place manipulation circuits."
    )
    return ExperimentResult(
        experiment_id="propagation",
        title=f"Correlation propagation through SC operators (N={n})",
        headers=["gate", "SCC(A,C)", "SCC(B,C)", "SCC(out,C)", "retention"],
        rows=rows,
        notes=notes,
        checks=checks,
    )


def power_breakdown() -> ExperimentResult:
    """Section IV-B's per-block power break down for the accelerator
    variants (converters / kernels / RNGs / manipulation)."""
    rows = []
    variants = {}
    for variant in ("none", "regeneration", "synchronizer"):
        acc = SCAccelerator(AcceleratorConfig(variant=variant))
        blocks = acc.cost_breakdown()
        total = sum(v[1] for v in blocks.values())
        manip = acc.manipulation_power_uw()
        variants[variant] = (total, manip)
        for block, (area, power) in blocks.items():
            rows.append([variant, block, round(area, 1), round(power, 1),
                         f"{power / total:.1%}"])
        rows.append([variant, "TOTAL", round(acc.netlist().area_um2, 1),
                     round(total, 1), "100%"])
    checks = {
        "regen_manipulation_dominates": variants["regeneration"][1]
        > 0.25 * variants["regeneration"][0],
        "sync_manipulation_is_light": variants["synchronizer"][1]
        < 0.25 * variants["synchronizer"][0],
        "manip_ratio_about_3x": 2.0
        < variants["regeneration"][1] / variants["synchronizer"][1] < 4.5,
    }
    notes = (
        "The paper aggregates 'the costs associated only with correlation\n"
        "manipulation' from this breakdown; regeneration's share is ~3x the\n"
        "synchronizers' (Section IV-B)."
    )
    return ExperimentResult(
        experiment_id="power_breakdown",
        title="Accelerator power breakdown by block (Section IV-B)",
        headers=["variant", "block", "area um2", "power uW", "share"],
        rows=rows,
        notes=notes,
        checks=checks,
    )


# ---------------------------------------------------------------------- #
# Long-stream convergence — streaming tile execution
# ---------------------------------------------------------------------- #

_LONG_STREAM_EXPONENTS_SMOKE = (14, 16)
_LONG_STREAM_EXPONENTS_DEFAULT = (14, 16, 18, 20)
_LONG_STREAM_EXPONENTS_EXHAUSTIVE = (14, 16, 18, 20, 22)


def _long_stream_shard(exponent: int, *, tile_words: int = 4096, jobs: int = 1) -> dict:
    """One stream length N = 2**exponent of the convergence sweep.

    Builds the width-matched manipulation graph
    (:func:`repro.engine.library.long_stream_graph` — the comparator
    register width must equal log2(N) for the D/S conversion to stay
    exact) and audits it through the constant-memory streaming executor.
    Peak memory is O(tile), which is what makes the N = 2**22 shard
    runnable at all: the materialised engine would hold every node's
    full-length buffer plus 32 MB of comparator sequence per source.

    ``jobs > 1`` runs the prefix-scanned parallel tile scheduler
    (:mod:`repro.engine.parallel`); the payload is identical at any job
    count — only wall-clock changes — so ``jobs`` is an execution
    parameter, not part of the result's content address.
    """
    from ..engine import compile_graph
    from ..engine.library import long_stream_graph
    from ..engine.streaming import audit_streaming

    n = 1 << exponent
    plan = compile_graph(long_stream_graph(exponent))
    audit = audit_streaming(plan, n, tile_words=tile_words, jobs=jobs)
    stages = {}
    for node, label in (("diff", "sync"), ("sat", "desync"), ("prod", "deco")):
        entry = next(e for e in audit.entries if e.node == node)
        stages[label] = {
            "scc": entry.measured_scc,
            "error": abs(entry.measured_value - entry.expected_value),
        }
    return {
        "exponent": exponent,
        "n": n,
        "tiles": (n + tile_words * 64 - 1) // (tile_words * 64),
        "stages": stages,
    }


def _long_stream_merge(params: dict, payloads: List[dict]) -> ExperimentResult:
    payloads = sorted(payloads, key=lambda p: p["exponent"])
    rows = []
    for p in payloads:
        s = p["stages"]
        rows.append([
            f"2^{p['exponent']}", p["tiles"],
            round(s["sync"]["scc"], 5), f"{s['sync']['error']:.2e}",
            round(s["desync"]["scc"], 5), f"{s['desync']['error']:.2e}",
            round(s["deco"]["scc"], 5), f"{s['deco']['error']:.2e}",
        ])
    first, last = payloads[0]["stages"], payloads[-1]["stages"]
    checks = {
        "sync_reaches_plus_one": all(
            p["stages"]["sync"]["scc"] >= 0.999 for p in payloads
        ),
        "desync_reaches_minus_one": all(
            p["stages"]["desync"]["scc"] <= -0.999 for p in payloads
        ),
        "deco_stays_uncorrelated": all(
            abs(p["stages"]["deco"]["scc"]) <= 0.05 for p in payloads
        ),
        "sync_error_shrinks_with_n": last["sync"]["error"] < first["sync"]["error"],
        "desync_error_shrinks_with_n": last["desync"]["error"] <= first["desync"]["error"],
    }
    notes = (
        "Streaming tile execution (constant memory in N) sweeping the\n"
        "paper's three manipulation stages: synchronizer -> XOR subtract\n"
        "(SCC +1), desynchronizer -> OR saturating add (SCC -1),\n"
        "decorrelator -> AND multiply (SCC ~0). Value error shrinks ~1/N;\n"
        "the SCC estimates hold at every length — the long-stream regime\n"
        "the paper's correlation analysis converges in."
    )
    return ExperimentResult(
        experiment_id="long_stream",
        title="Long-stream convergence — SCC/value vs N (streaming execution)",
        headers=["N", "tiles", "sync SCC", "sync err", "desync SCC",
                 "desync err", "deco SCC", "deco err"],
        rows=rows,
        notes=notes,
        checks=checks,
    )


def long_stream(
    exponents: Sequence[int] = _LONG_STREAM_EXPONENTS_DEFAULT,
    tile_words: int = 4096,
    jobs: int = 1,
) -> ExperimentResult:
    """SCC/value convergence of the manipulation circuits over N = 2^14..2^22.

    Impossible on the materialised engine at the top lengths; the
    streaming executor's tile scheduler (O(tile) memory) makes the sweep
    routine. See :func:`repro.engine.streaming.run_streaming`. ``jobs``
    fans each audit out across the parallel tile scheduler — results are
    bit-identical at any job count.
    """
    payloads = [
        _long_stream_shard(exponent, tile_words=tile_words, jobs=jobs)
        for exponent in exponents
    ]
    return _long_stream_merge(
        {"exponents": tuple(exponents), "tile_words": tile_words}, payloads
    )


ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1,
    "fig1": fig1,
    "fig2": fig2,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "claims": claims,
    "ablation_save_depth": ablation_save_depth,
    "ablation_composition": ablation_composition,
    "ablation_buffer_depth": ablation_buffer_depth,
    "fault_tolerance": fault_tolerance,
    "propagation": propagation,
    "power_breakdown": power_breakdown,
    "long_stream": long_stream,
}


def run_experiment(experiment_id: str, **kwargs) -> ExperimentResult:
    """Run one registered experiment by id."""
    if experiment_id not in ALL_EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {', '.join(ALL_EXPERIMENTS)}"
        )
    return ALL_EXPERIMENTS[experiment_id](**kwargs)
