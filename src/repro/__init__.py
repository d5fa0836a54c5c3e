"""repro — a reproduction of *Correlation Manipulating Circuits for
Stochastic Computing* (V. T. Lee, A. Alaghi, L. Ceze — DATE 2018).

The library implements the full stochastic-computing (SC) stack the paper
builds on and contributes to:

* :mod:`repro.bitstream` — stochastic numbers, batches (unpacked uint8 and
  packed uint64-word fast path), encodings, and the SCC correlation metric;
* :mod:`repro.rng` — LFSR / Van der Corput / Halton / Sobol / counter
  sequence generators;
* :mod:`repro.convert` — D/S and S/D converters, APC, regeneration;
* :mod:`repro.arith` — the Fig. 2 arithmetic circuits and the
  correlation-agnostic baselines;
* :mod:`repro.core` — **the paper's contribution**: synchronizer,
  desynchronizer, decorrelator (+ isolator/TFM baselines) and the improved
  max / min / saturating-add operators;
* :mod:`repro.hardware` — a 65nm-calibrated gate-level area/power/energy
  model standing in for the paper's Synopsys flow;
* :mod:`repro.pipeline` — the Gaussian-blur -> Roberts-cross image
  processing case study (Table IV);
* :mod:`repro.analysis` — experiment harness regenerating every table and
  figure;
* :mod:`repro.rtl` — cycle-accurate scalar reference models, trace-
  equivalence-tested against the vectorised circuits;
* :mod:`repro.graph` — dataflow graphs with correlation audit and
  automatic manipulation-circuit insertion;
* :mod:`repro.engine` — compiled, packed-domain execution of SC dataflow
  graphs: levelized plans, a structure-keyed plan cache, and batched
  multi-configuration sweeps (``engine.compile(g).run_batch(...)``);
* :mod:`repro.apps` — rank-order networks (median filters, bitonic
  sorters) built from the improved operators;
* :mod:`repro.faults` — bit-flip injection (SC vs binary error
  tolerance);
* :mod:`repro.runner` — declarative experiment orchestration: specs ->
  shards -> process pool -> content-addressed result store -> reports;
* :mod:`repro.obs` — zero-dependency observability: fork-coherent span
  tracing, typed metrics with cross-process aggregation, Chrome-trace /
  stats / profile-tree exporters (free when disabled);
* :mod:`repro.cli` — ``python -m repro {list,run,all,report,costs,stats}``.

Quickstart::

    from repro import Bitstream, Synchronizer, scc

    x = Bitstream("10101010")          # 0.5
    y = Bitstream("11110000")          # 0.5, poorly aligned
    sx, sy = Synchronizer().process_pair(x, y)
    print(scc(x.bits, y.bits), "->", scc(sx.bits, sy.bits))
"""

from .arith import (
    AbsSubtractor,
    AndMin,
    CAAdder,
    CAMax,
    CorDiv,
    Multiplier,
    OrMax,
    SaturatingAdder,
    ScaledAdder,
)
from .bitstream import (
    Bitstream,
    BitstreamBatch,
    Encoding,
    PackedBitstreamBatch,
    bernoulli_stream,
    bias,
    correlated_pair,
    exact_stream,
    mean_absolute_error,
    scc,
    scc_batch,
    scc_batch_packed,
)
from .convert import (
    AccumulativeParallelCounter,
    DigitalToStochastic,
    Regenerator,
    StochasticToDigital,
)
from .core import (
    Decorrelator,
    Desynchronizer,
    DesyncSaturatingAdder,
    Isolator,
    IsolatorPair,
    PairTransform,
    SeriesPair,
    SeriesStream,
    ShuffleBuffer,
    StreamTransform,
    Synchronizer,
    SyncMax,
    SyncMin,
    TFMPair,
    TrackingForecastMemory,
)
from .exceptions import ReproError
from .faults import fault_sweep, flip_binary_words, flip_bits
from .graph import AutofixReport, SCGraph, autofix
from .rng import LFSR, CounterRNG, Halton, Sobol, StreamRNG, SystemRNG, VanDerCorput, make_rng

# Imported last: the engine consumes the graph layer above; the kernel
# layer compiles the core/arith circuits it is imported after; the runner
# orchestrates the analysis layer on top of everything; obs is observed
# by all of them but depends on none.
from . import engine, kernels, obs, runner

__version__ = "1.17.0"

__all__ = [
    "__version__",
    # bitstream
    "Bitstream",
    "BitstreamBatch",
    "PackedBitstreamBatch",
    "Encoding",
    "scc",
    "scc_batch",
    "scc_batch_packed",
    "bias",
    "mean_absolute_error",
    "exact_stream",
    "bernoulli_stream",
    "correlated_pair",
    # rng
    "StreamRNG",
    "LFSR",
    "VanDerCorput",
    "Halton",
    "Sobol",
    "CounterRNG",
    "SystemRNG",
    "make_rng",
    # convert
    "DigitalToStochastic",
    "StochasticToDigital",
    "AccumulativeParallelCounter",
    "Regenerator",
    # arith
    "Multiplier",
    "ScaledAdder",
    "SaturatingAdder",
    "AbsSubtractor",
    "CorDiv",
    "OrMax",
    "AndMin",
    "CAAdder",
    "CAMax",
    # core (the paper's contribution)
    "PairTransform",
    "StreamTransform",
    "Synchronizer",
    "Desynchronizer",
    "ShuffleBuffer",
    "Decorrelator",
    "Isolator",
    "IsolatorPair",
    "TrackingForecastMemory",
    "TFMPair",
    "SeriesPair",
    "SeriesStream",
    "SyncMax",
    "SyncMin",
    "DesyncSaturatingAdder",
    # graph layer
    "SCGraph",
    "autofix",
    "AutofixReport",
    # execution engine + time-parallel sequential kernels + observability
    "engine",
    "kernels",
    "obs",
    # fault injection
    "flip_bits",
    "flip_binary_words",
    "fault_sweep",
    # errors
    "ReproError",
]
