"""Declarative experiment specifications.

Every entry of :data:`repro.analysis.experiments.ALL_EXPERIMENTS` (plus
the ablations and the propagation study, which were already registered
there) is described here as an :class:`ExperimentSpec`: a parameter grid
per fidelity preset (``smoke`` / ``default`` / ``exhaustive``), a
top-level *shard function* (one independent work unit — for the
pair-sweep experiments one configuration of the sweep, i.e. one batched
packed/kernel pass), and a *merge function* assembling shard payloads
into the final :class:`~repro.analysis.experiments.ExperimentResult`.

The spec layer is pure bookkeeping: expanding a spec yields
:class:`Shard` objects whose ``fn``/``kwargs`` the scheduler can run in
any order, in any process (the shard functions are top-level and
picklable), and whose payloads the content-addressed store
(:mod:`repro.runner.store`) can cache individually. ``exhaustive``
fidelity reproduces the benchmark-suite settings exactly, so archives
regenerated from the store are byte-identical to
``benchmarks/results/``; ``default`` matches the historical CLI
defaults; ``smoke`` is the CI-sized preset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..analysis import experiments as _exp
from ..analysis.experiments import ExperimentResult
from ..analysis.sweeps import pair_count

__all__ = [
    "FIDELITIES",
    "EXECUTION_PARAMS",
    "Shard",
    "ExperimentSpec",
    "SPEC_REGISTRY",
    "get_spec",
    "merge_single",
    "content_params",
]

FIDELITIES = ("smoke", "default", "exhaustive")

# Parameters that control *how* a shard executes, never *what* it
# computes — its payload is bit-identical at any value (the parallel tile
# scheduler's contract, tests/test_parallel_streaming.py, and the plan
# optimizer's, tests/test_optimizer.py). They are excluded from content
# addresses, stored metadata, and manifests, so a run at ``jobs=4`` or
# ``optimize=False`` hits the cache of — and archives byte-identically
# to — a run at the defaults.
EXECUTION_PARAMS = frozenset({"jobs", "optimize"})


def content_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """``params`` with execution-only keys stripped — the portion that
    participates in content addressing and manifests."""
    return {k: v for k, v in params.items() if k not in EXECUTION_PARAMS}


def merge_single(params: Mapping[str, Any], payloads: List[dict]) -> ExperimentResult:
    """Merge for single-shard specs: the payload *is* the serialized
    :class:`ExperimentResult` (the worker dataclass-dicts it)."""
    return ExperimentResult(**payloads[0])


@dataclass(frozen=True)
class Shard:
    """One independent work unit of an expanded spec."""

    spec: str
    index: int
    label: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any]

    @property
    def fn_ref(self) -> str:
        """Stable textual reference to the shard function (part of the
        content-address, so moving/renaming a shard function invalidates
        its cached payloads)."""
        return f"{self.fn.__module__}:{self.fn.__qualname__}"

    @property
    def content_kwargs(self) -> Dict[str, Any]:
        """The kwargs that determine the payload — execution-only keys
        (:data:`EXECUTION_PARAMS`) stripped, so e.g. ``jobs`` never
        perturbs a shard's content address."""
        return content_params(self.kwargs)


def _default_label(value: Any) -> str:
    if isinstance(value, (tuple, list)):
        return "/".join(str(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment: fidelity-preset parameter grids that
    expand into independent shards plus a merge recipe."""

    name: str
    title: str
    shard_fn: Callable[..., Any]
    merge_fn: Callable[[Mapping[str, Any], List[dict]], ExperimentResult]
    fidelities: Mapping[str, Mapping[str, Any]]
    axis: Optional[str] = None        # params key holding the shard-axis values
    axis_arg: Optional[str] = None    # shard_fn kwarg receiving one axis value
    label_fn: Callable[[Any], str] = _default_label

    def params(
        self,
        fidelity: str = "default",
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The resolved parameter dict for a fidelity preset, with
        explicit per-call overrides (e.g. the CLI's legacy ``--step``)
        applied on top."""
        if fidelity not in self.fidelities:
            raise KeyError(
                f"spec {self.name!r} has no fidelity {fidelity!r}; "
                f"available: {', '.join(self.fidelities)}"
            )
        params = dict(self.fidelities[fidelity])
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            if key in params:
                params[key] = value
        return params

    def shards(self, params: Mapping[str, Any]) -> List[Shard]:
        """Expand resolved params into independent shards."""
        if self.axis is None:
            return [Shard(self.name, 0, self.name, self.shard_fn, dict(params))]
        values = params[self.axis]
        base = {k: v for k, v in params.items() if k != self.axis}
        return [
            Shard(
                self.name,
                i,
                self.label_fn(value),
                self.shard_fn,
                {**base, self.axis_arg: value},
            )
            for i, value in enumerate(values)
        ]

    def shard_count(self, params: Mapping[str, Any]) -> int:
        return 1 if self.axis is None else len(params[self.axis])

    def grid_summary(self, params: Mapping[str, Any]) -> str:
        """Human-readable grid description for ``run --list``."""
        parts = []
        if "n" in params and "step" in params:
            parts.append(f"{pair_count(params['n'], params['step'])} pairs/shard")
        for key, value in params.items():
            if key in ("n", "step") or key == self.axis or key in EXECUTION_PARAMS:
                continue
            parts.append(f"{key}={value}")
        if self.axis is not None:
            parts.append(f"{self.axis}={len(params[self.axis])}")
        if "step" in params:
            parts.append(f"step={params['step']}")
        return ", ".join(parts) if parts else "-"


def _stepped(smoke_step: int, default_step: int, exhaustive_step: int, **extra):
    """Fidelity presets for the N=256 pair-sweep experiments."""
    return {
        "smoke": {"n": 256, "step": smoke_step, **extra},
        "default": {"n": 256, "step": default_step, **extra},
        "exhaustive": {"n": 256, "step": exhaustive_step, **extra},
    }


_FAULT_RATES_DEFAULT = (0.0, 0.001, 0.005, 0.01, 0.05, 0.1)
_FAULT_RATES_EXHAUSTIVE = (0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)


def _build_registry() -> Dict[str, ExperimentSpec]:
    trivial = {"smoke": {}, "default": {}, "exhaustive": {}}
    specs = [
        ExperimentSpec(
            name="table1",
            title="Table I — AND-gate functions vs. correlation",
            shard_fn=_exp.table1,
            merge_fn=merge_single,
            fidelities=trivial,
        ),
        ExperimentSpec(
            name="fig1",
            title="Fig. 1 — worked multiply / scaled-add examples",
            shard_fn=_exp.fig1,
            merge_fn=merge_single,
            fidelities=trivial,
        ),
        ExperimentSpec(
            name="fig2",
            title="Fig. 2 — operator accuracy under required vs. wrong correlation",
            shard_fn=_exp._fig2_shard,
            merge_fn=_exp._fig2_merge,
            axis="rows",
            axis_arg="row",
            fidelities=_stepped(4, 4, 1, rows=_exp._FIG2_ROWS),
        ),
        ExperimentSpec(
            name="table2",
            title="Table II — SCC before/after the correlation manipulating circuits",
            shard_fn=_exp._table2_shard,
            merge_fn=_exp._table2_merge,
            axis="configs",
            axis_arg="config",
            fidelities=_stepped(4, 4, 1, configs=tuple(_exp._TABLE2_PAPER)),
            label_fn=lambda c: f"{c[0]}/{c[1]}+{c[2]}",
        ),
        ExperimentSpec(
            name="table3",
            title="Table III — max/min designs: error, bias, area, power, energy",
            shard_fn=_exp._table3_shard,
            merge_fn=_exp._table3_merge,
            axis="designs",
            axis_arg="design",
            fidelities=_stepped(4, 4, 1, designs=_exp._TABLE3_DESIGNS),
        ),
        ExperimentSpec(
            name="table4",
            title="Table IV — image pipeline: error, area, energy per variant",
            shard_fn=_exp._table4_shard,
            merge_fn=_exp._table4_merge,
            axis="variants",
            axis_arg="variant",
            fidelities={
                # Smaller images only: short streams break the
                # manipulation_improves_quality shape check.
                "smoke": {"image_size": 20, "stream_length": 256,
                          "variants": _exp._TABLE4_VARIANTS},
                "default": {"image_size": 32, "stream_length": 256,
                            "variants": _exp._TABLE4_VARIANTS},
                "exhaustive": {"image_size": 32, "stream_length": 256,
                               "variants": _exp._TABLE4_VARIANTS},
            },
        ),
        ExperimentSpec(
            name="claims",
            title="Prose claims — measured vs paper",
            shard_fn=_exp.claims,
            merge_fn=merge_single,
            fidelities=trivial,
        ),
        ExperimentSpec(
            name="ablation_save_depth",
            title="Ablation — FSM save depth",
            shard_fn=_exp._ablation_save_depth_shard,
            merge_fn=_exp._ablation_save_depth_merge,
            axis="depths",
            axis_arg="depth",
            fidelities={
                "smoke": {"n": 256, "step": 4, "depths": (1, 2, 4, 8)},
                "default": {"n": 256, "step": 4, "depths": (1, 2, 4, 8)},
                "exhaustive": {"n": 256, "step": 2, "depths": (1, 2, 4, 8, 16)},
            },
            label_fn=lambda d: f"D={d}",
        ),
        ExperimentSpec(
            name="ablation_composition",
            title="Ablation — series composition of D=1 synchronizers",
            shard_fn=_exp._ablation_composition_shard,
            merge_fn=_exp._ablation_composition_merge,
            axis="stages",
            axis_arg="stages",
            fidelities={
                "smoke": {"n": 256, "step": 4, "stages": (1, 2, 3, 4)},
                "default": {"n": 256, "step": 4, "stages": (1, 2, 3, 4)},
                "exhaustive": {"n": 256, "step": 2, "stages": (1, 2, 3, 4, 6, 8)},
            },
            label_fn=lambda k: f"x{k}",
        ),
        ExperimentSpec(
            name="ablation_buffer_depth",
            title="Ablation — shuffle buffer depth / init policy",
            shard_fn=_exp._ablation_buffer_depth_shard,
            merge_fn=_exp._ablation_buffer_depth_merge,
            axis="depths",
            axis_arg="depth",
            fidelities={
                "smoke": {"n": 256, "step": 8, "depths": (2, 4, 8, 16)},
                "default": {"n": 256, "step": 4, "depths": (2, 4, 8, 16)},
                "exhaustive": {"n": 256, "step": 2, "depths": (2, 4, 8, 16, 32)},
            },
            label_fn=lambda d: f"D={d}",
        ),
        ExperimentSpec(
            name="fault_tolerance",
            title="Error tolerance — SC stream vs binary word under bit flips",
            shard_fn=_exp.fault_tolerance,
            merge_fn=merge_single,
            fidelities={
                "smoke": {"rates": _FAULT_RATES_DEFAULT, "trials": 256},
                "default": {"rates": _FAULT_RATES_DEFAULT, "trials": 256},
                "exhaustive": {"rates": _FAULT_RATES_EXHAUSTIVE, "trials": 512},
            },
        ),
        ExperimentSpec(
            name="propagation",
            title="Correlation propagation through SC operators",
            shard_fn=_exp.propagation,
            merge_fn=merge_single,
            fidelities=_stepped(4, 4, 1),
        ),
        ExperimentSpec(
            name="power_breakdown",
            title="Accelerator power breakdown by block",
            shard_fn=_exp.power_breakdown,
            merge_fn=merge_single,
            fidelities=trivial,
        ),
        ExperimentSpec(
            name="long_stream",
            title="Long-stream convergence — SCC/value vs N (streaming execution)",
            shard_fn=_exp._long_stream_shard,
            merge_fn=_exp._long_stream_merge,
            axis="exponents",
            axis_arg="exponent",
            fidelities={
                # One shard per stream length 2^e; each runs through the
                # constant-memory streaming executor, so even the 2^22
                # shard fits in a CI worker. ``jobs`` (an execution
                # param — see EXECUTION_PARAMS) fans each shard's audit
                # across the parallel tile scheduler.
                "smoke": {"tile_words": 2048, "jobs": 1,
                          "exponents": _exp._LONG_STREAM_EXPONENTS_SMOKE},
                "default": {"tile_words": 4096, "jobs": 1,
                            "exponents": _exp._LONG_STREAM_EXPONENTS_DEFAULT},
                "exhaustive": {"tile_words": 4096, "jobs": 1,
                               "exponents": _exp._LONG_STREAM_EXPONENTS_EXHAUSTIVE},
            },
            label_fn=lambda e: f"N=2^{e}",
        ),
    ]
    registry = {spec.name: spec for spec in specs}
    missing = set(_exp.ALL_EXPERIMENTS) - set(registry)
    if missing:  # keep the two registries in lock-step
        raise RuntimeError(f"experiments without a runner spec: {sorted(missing)}")
    return registry


SPEC_REGISTRY: Dict[str, ExperimentSpec] = _build_registry()


def get_spec(name: str) -> ExperimentSpec:
    """Look up a spec; raises ``KeyError`` with the available names."""
    if name not in SPEC_REGISTRY:
        raise KeyError(
            f"unknown experiment spec {name!r}; "
            f"available: {', '.join(SPEC_REGISTRY)}"
        )
    return SPEC_REGISTRY[name]
