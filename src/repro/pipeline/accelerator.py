"""The tiled Gaussian-blur -> Roberts-cross SC accelerator (Section IV).

Three variants, mirroring the paper's Table IV:

* ``"none"`` — GB outputs feed the edge detector directly. The detector's
  XOR subtractors see whatever correlation the blur left behind, which is
  weak (each pixel stream is generated from a differently phased LFSR), so
  edge magnitudes are badly overestimated.
* ``"regeneration"`` — every GB output is S/D + D/S re-encoded through one
  shared RNG before the detector; all detector inputs arrive with
  SCC = +1. Accurate but expensive: one regeneration unit per blurred
  pixel.
* ``"synchronizer"`` — a synchronizer per XOR operand pair (the paper's
  proposal). Accuracy matches regeneration at a fraction of the
  manipulation energy.

The functional simulation is cycle-accurate at stream level; the hardware
cost is assembled from :mod:`repro.hardware.components` exactly as the
paper tabulates it (converters + kernels + RNGs + manipulation circuits).
A "frame" in the energy report is one tile-engine pass of ``N`` cycles —
the granularity at which the paper's nJ/frame numbers are mutually
consistent; whole-image energy scales by the tile count.

Evaluation is backend-routed like the graph layer: the default engine
path batches **every tile of the image into one vectorised pass**
(convert → blur → detect across all tiles at once) and reduces edge
values through the packed popcount kernels, following the engine's
boundary rule — combinational stages word-parallel, FSM stages (the
synchronizer variant's pair transforms) on unpacked bits only. Pass
``backend="interpreter"`` for the per-tile reference loop; the two
produce identical outputs (``tests/test_engine.py`` asserts exact float
equality).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .._validation import check_jobs, check_tile_words
from ..core.synchronizer import Synchronizer
from ..engine.pool import pool_call, unwrap
from ..obs import counter_add
from ..obs import span as obs_span
from ..exceptions import PipelineError
from ..hardware import EFFECTIVE_CYCLE_US, Netlist, components, report
from ..rng import LFSR, Halton, VanDerCorput
from .gaussian_sc import SCGaussianBlur
from .images import tile_origins
from .kernels import pipeline_reference
from .quality import image_mae
from .roberts_sc import SCRobertsCross

__all__ = ["VARIANTS", "AcceleratorConfig", "AcceleratorResult", "SCAccelerator"]

VARIANTS = ("none", "regeneration", "synchronizer")

# Transient-allocation budget for one batched engine pass: the blur's
# (chunk, bt, bt, 9, N) neighbourhood gather is the peak consumer, so the
# engine path processes tiles in chunks sized to stay under this many
# bytes — large images keep the vectorisation win at bounded memory.
_ENGINE_CHUNK_BYTES = 64 << 20

# Span-task context for the streaming backend, built by
# :func:`_pool_install_stream_ctx` — in a pool worker (the accelerator
# travels by pickle at most once, the patch stack as a shared-memory
# descriptor) or, on the in-process lane, in the calling thread.
# Thread-local for the reason ``repro.engine.parallel._LOCAL`` is.
_LOCAL = threading.local()


class _SynchronizerFactory:
    """Picklable synchronizer factory (a lambda here would make the whole
    accelerator unpicklable and force the pooled lane's fallback)."""

    __slots__ = ("depth",)

    def __init__(self, depth: int) -> None:
        self.depth = depth

    def __call__(self) -> Synchronizer:
        return Synchronizer(depth=self.depth)


def _pool_install_stream_ctx(acc, payload) -> None:
    """Installer for the streaming span tasks (pool worker or
    in-process); ``(None, None)`` clears the context at call end."""
    if acc is None:
        _LOCAL.ctx = None
        return
    patches, tile_words, spans = payload
    _LOCAL.ctx = (acc, unwrap(patches), tile_words, spans)


def _stream_windows(span, tile_words):
    """A span's time windows, with absolute cycle offsets."""
    from ..bitstream.streaming import tile_bounds

    start, stop = span
    return [
        (start + s, start + e)
        for s, e in tile_bounds(stop - start, tile_words)
    ]


def _stream_counts_task(span_index: int) -> np.ndarray:
    """Regeneration pass 1 over one span: blurred 1-count partials
    (integer sums — span partials merge to one walk's totals)."""
    # Root span in a pool worker: closing it flushes the worker's obs
    # buffers for the parent to collect when the call ends.
    with obs_span("pipeline.stream.counts", span=span_index):
        acc, patches, tile_words, spans = _LOCAL.ctx
        tiles = patches.shape[0]
        bt = acc._config.blur_tile
        counts = np.zeros((tiles * bt * bt,), dtype=np.int64)
        for start, stop in _stream_windows(spans[span_index], tile_words):
            blurred = acc._blurred_window(patches, start, stop)
            counts += blurred.reshape(tiles * bt * bt, -1).sum(axis=1, dtype=np.int64)
        return counts


def _stream_compose_task(span_index: int, wave: int, entries) -> tuple:
    """Synchronizer phase 1 over one span: walk the span's windows once
    (convert + blur + corners) folding both pair FSMs' transitions into
    state maps, without knowing the span's entry states. The two FSMs
    are one wave that reads no other carrier, so ``wave`` and
    ``entries`` carry nothing here."""
    from ..kernels.streaming import make_pair_composer

    with obs_span("pipeline.stream.compose", span=span_index):
        acc, patches, tile_words, spans = _LOCAL.ctx
        span = spans[span_index]
        tiles = patches.shape[0]
        bt = acc._config.blur_tile
        pairs = tiles * (bt - 1) * (bt - 1)
        factory = acc._detector._factory
        composers = tuple(
            make_pair_composer(factory(), acc._n, pairs, span[0]) for _ in range(2)
        )
        for start, stop in _stream_windows(span, tile_words):
            blurred = acc._blurred_window(patches, start, stop)
            g00, g11, g01, g10 = SCRobertsCross._corners(blurred)
            composers[0].step(g00, g11)
            composers[1].step(g01, g10)
        return composers[0].state_map, composers[1].state_map


def _detect_window_ones(g00, g11, g01, g10, select, arena) -> np.ndarray:
    """Edge popcounts for one detect window through arena scratch.

    Computes ``z = select ? (g01 ^ g10) : (g00 ^ g11)`` with the
    branchless MUX identity ``d1 ^ ((d1 ^ d2) & select)`` — identical on
    0/1 bits to the ``np.where`` formulation — writing both XOR
    differences and the mux into two recycled
    :class:`~repro.engine.optimize.BufferArena` buffers instead of three
    fresh ``(pairs, window)`` arrays per window.
    """
    d1 = arena.take_shape(g00.shape, np.uint8)
    d2 = arena.take_shape(g00.shape, np.uint8)
    np.bitwise_xor(g00, g11, out=d1)
    np.bitwise_xor(g01, g10, out=d2)
    np.bitwise_xor(d2, d1, out=d2)
    np.bitwise_and(d2, select[None, :], out=d2)
    np.bitwise_xor(d2, d1, out=d2)
    ones = d2.sum(axis=1, dtype=np.int64)
    arena.release(d1)
    arena.release(d2)
    return ones


def _stream_detect_task(span_index: int, entries, regen_counts) -> np.ndarray:
    """Phase 3 over one span: detect with the pair FSMs' carriers (the
    synchronizer variant's) seeded at the scanned ``entries`` — empty at
    the stream's first span, which starts from the initial states — and
    return the span's edge popcount partials."""
    from ..kernels.streaming import make_pair_carrier

    from ..engine.optimize import BufferArena

    regen_counts = unwrap(regen_counts)  # shm descriptor on the pooled lane
    with obs_span("pipeline.stream.detect", span=span_index):
        acc, patches, tile_words, spans = _LOCAL.ctx
        span = spans[span_index]
        cfg = acc._config
        n = acc._n
        tiles = patches.shape[0]
        bt = cfg.blur_tile
        pairs = tiles * (bt - 1) * (bt - 1)

        carriers = ()
        if acc._detector.uses_pair_transform:
            factory = acc._detector._factory
            carriers = tuple(
                make_pair_carrier(factory(), n, pairs, span[0]) for _ in range(2)
            )
            if any(c is None for c in carriers):
                raise PipelineError(
                    "pair transform has no streaming carrier; use backend='auto'"
                )
            for c, state in entries.items():
                carriers[c].set_state(state)

        arena = BufferArena()
        edge_ones = np.zeros((pairs,), dtype=np.int64)
        for start, stop in _stream_windows(span, tile_words):
            if regen_counts is not None:
                window = acc._regen_rng.sequence_window(start, stop)
                flat = regen_counts[:, None] > window[None, :]
                blurred = flat.astype(np.uint8).reshape(tiles, bt, bt, stop - start)
            else:
                blurred = acc._blurred_window(patches, start, stop)
            g00, g11, g01, g10 = SCRobertsCross._corners(blurred)
            if carriers:
                g00, g11 = carriers[0].step(g00, g11)
                g01, g10 = carriers[1].step(g01, g10)
            select = acc._detector._select_bits_window(start, stop)
            edge_ones += _detect_window_ones(g00, g11, g01, g10, select, arena)
        arena.flush_counters()
        return edge_ones


@dataclass(frozen=True)
class AcceleratorConfig:
    """Configuration of one accelerator build.

    Attributes:
        variant: one of :data:`VARIANTS`.
        stream_length: SN length ``N`` (the paper uses 256).
        tile: input tile edge in pixels (the paper uses 10).
        sync_depth: synchronizer save depth for the synchronizer variant.
        input_phase_step: LFSR rotation between adjacent input-converter
            *phase domains*. The tile's 100 D/S converters share one LFSR
            (the RNG amortisation of Section II-B), tapped at a rotated
            position every ``input_row_group`` rows — a zero-cost wiring
            choice that keeps the generator count at one while preventing
            the whole tile from being perfectly mutually correlated.
        input_row_group: rows per input phase domain. Together with the
            select rotation this leaves adjacent blurred streams only
            *partially* correlated — the computation-induced-correlation
            regime that Table IV studies (set it >= tile to share one
            phase everywhere, making even the "none" variant accurate).
        select_phase_step: rotation of the blur's shared select sequence
            between adjacent kernels (see
            :class:`~repro.pipeline.gaussian_sc.SCGaussianBlur`).
    """

    variant: str = "synchronizer"
    stream_length: int = 256
    tile: int = 10
    sync_depth: int = 1
    input_phase_step: int = 85
    input_row_group: int = 5
    select_phase_step: int = 17

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise PipelineError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.stream_length < 16:
            raise PipelineError("stream_length must be >= 16")
        if self.tile < 4:
            raise PipelineError("tile must be >= 4 (3x3 blur + 2x2 detector)")
        if self.input_row_group < 1:
            raise PipelineError("input_row_group must be >= 1")

    @property
    def blur_tile(self) -> int:
        """Edge of the blurred region produced per tile."""
        return self.tile - 2

    @property
    def output_tile(self) -> int:
        """Edge of the edge-detector output region per tile."""
        return self.tile - 3


@dataclass
class AcceleratorResult:
    """Output of one accelerator run over one image."""

    variant: str
    output: np.ndarray
    reference: np.ndarray
    mean_abs_error: float
    tiles: int
    area_um2: float
    power_uw: float
    energy_per_frame_nj: float
    energy_per_image_nj: float
    breakdown: Dict[str, float] = field(default_factory=dict)


class SCAccelerator:
    """Tiled SC image-processing accelerator (GB -> ED)."""

    def __init__(self, config: Optional[AcceleratorConfig] = None) -> None:
        self._config = config or AcceleratorConfig()
        n = self._config.stream_length
        self._input_rng = LFSR(width=8)
        self._blur = SCGaussianBlur(
            VanDerCorput(width=8),
            select_phase_step=self._config.select_phase_step,
        )
        self._regen_rng = Halton(base=3, width=8)
        factory = None
        if self._config.variant == "synchronizer":
            factory = _SynchronizerFactory(self._config.sync_depth)
        self._detector = SCRobertsCross(Halton(base=5, width=8), factory)
        # Precompute the base LFSR period for phase-rotated input streams.
        self._lfsr_period_seq = self._input_rng.sequence(self._input_rng.period)
        self._n = n

    @property
    def config(self) -> AcceleratorConfig:
        return self._config

    # ------------------------------------------------------------------ #
    # Functional simulation
    # ------------------------------------------------------------------ #

    def _convert_tile(self, tile_values: np.ndarray) -> np.ndarray:
        """D/S conversion of one tile (see :meth:`_convert_tiles`)."""
        return self._convert_tiles(tile_values[None])[0]

    def _convert_tiles(self, tiles_values: np.ndarray) -> np.ndarray:
        """D/S conversion through one LFSR with row-group rotated taps,
        vectorised over a ``(T, H, W)`` tile batch.

        All converters in an ``input_row_group``-row band compare against
        the same LFSR phase (those streams are mutually SCC = +1); bands
        use rotated phases (streams across bands are decorrelated). This
        is the paper's RNG amortisation with rotated outputs
        (Section II-B) and the source of the *partial* correlation the
        no-manipulation variant suffers from. The phase schedule depends
        only on the in-tile row, so every tile shares one comparator
        matrix and the batch is bit-identical to per-tile conversion.
        """
        return self._convert_tiles_window(tiles_values, 0, self._n)

    def _convert_tiles_window(
        self, tiles_values: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """One time window of :meth:`_convert_tiles` — the LFSR phase
        schedule indexes the cached period at absolute cycle positions,
        so windows concatenate bit-identically to the one-shot
        conversion."""
        n = self._n
        tiles, h, w = tiles_values.shape
        levels = np.rint(tiles_values.reshape(tiles, -1) * n).astype(np.int64)
        period = self._lfsr_period_seq.size
        rows = np.repeat(np.arange(h, dtype=np.int64), w)
        phases = ((rows // self._config.input_row_group) * self._config.input_phase_step) % period
        idx = (phases[:, None] + np.arange(start, stop)[None, :]) % period
        r = self._lfsr_period_seq[idx]                       # (pixels, window)
        bits = (levels[:, :, None] > r[None, :, :]).astype(np.uint8)
        return bits.reshape(tiles, h, w, stop - start)

    def _regenerate(self, blurred: np.ndarray) -> np.ndarray:
        """Shared-RNG regeneration of one tile (see :meth:`_regenerate_tiles`)."""
        return self._regenerate_tiles(blurred[None])[0]

    def _regenerate_tiles(self, blurred: np.ndarray) -> np.ndarray:
        """Shared-RNG regeneration of every blurred-pixel stream in a
        ``(T, H, W, N)`` batch (one regeneration RNG in hardware, so all
        tiles compare against the same sequence)."""
        tiles, h, w, n = blurred.shape
        flat = blurred.reshape(-1, n)
        counts = flat.sum(axis=1, dtype=np.int64)
        seq = self._regen_rng.sequence(n)
        out = (counts[:, None] > seq[None, :]).astype(np.uint8)
        return out.reshape(tiles, h, w, n)

    def process_tile(self, tile_values: np.ndarray) -> np.ndarray:
        """Process one ``tile x tile`` value patch; returns the
        ``output_tile x output_tile`` edge-magnitude values."""
        cfg = self._config
        if tile_values.shape != (cfg.tile, cfg.tile):
            raise PipelineError(
                f"expected a {cfg.tile}x{cfg.tile} tile, got {tile_values.shape}"
            )
        input_bits = self._convert_tile(tile_values)
        blurred = self._blur.blur_tile(input_bits)
        if cfg.variant == "regeneration":
            blurred = self._regenerate(blurred)
        edges = self._detector.detect_tile(blurred)
        return edges.mean(axis=2)

    def _process_tiles(self, patches: np.ndarray) -> np.ndarray:
        """Engine-routed batched tile processing.

        One vectorised convert → blur → (regenerate) → detect pass over a
        ``(T, tile, tile)`` patch stack, with the detector's value
        reduction running in the packed word domain
        (:meth:`SCRobertsCross.detect_tiles_values`). Returns
        ``(T, output_tile, output_tile)`` edge values, float-identical to
        mapping :meth:`process_tile` over the stack.
        """
        input_bits = self._convert_tiles(patches)
        blurred = self._blur.blur_tiles(input_bits)
        if self._config.variant == "regeneration":
            blurred = self._regenerate_tiles(blurred)
        return self._detector.detect_tiles_values(blurred)

    def _blurred_window(
        self, patches: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Convert + blur one time window of a patch stack."""
        input_bits = self._convert_tiles_window(patches, start, stop)
        return self._blur.blur_tiles_window(input_bits, start, stop, self._n)

    def _process_tiles_streaming(
        self, patches: np.ndarray, tile_words: int, jobs: int = 1
    ) -> np.ndarray:
        """Streaming tile processing: pump the *time axis* in windows of
        ``tile_words * 64`` cycles through convert → blur →
        (regenerate) → detect, accumulating edge popcounts — float-
        identical to :meth:`_process_tiles` with memory O(window) in the
        stream length, at any ``jobs``.

        The windows form ``spans_for(N, tile_words, jobs)`` spans driven
        by the engine's span scheduler (:func:`repro.engine.parallel.
        _run_phases`): the regeneration variant's pre-pass sums each
        blurred stream's 1-count (it must re-encode from the totals),
        the synchronizer variant's two pair FSMs compose state maps over
        every span but the last, and detection sums integer edge
        popcounts in span order. Several spans run on the worker pool
        (in-process when it declines); one span runs in-process with no
        compose phase. Detection recomputes the blur, so the synchronizer
        variant scales ~jobs/2 and the carrier-free variants ~jobs.
        """
        from ..engine.parallel import _run_phases, spans_for
        from ..kernels.streaming import make_pair_carrier, make_pair_composer

        n = self._n
        tiles = patches.shape[0]
        bt = self._config.blur_tile
        pairs = tiles * (bt - 1) * (bt - 1)
        spans = spans_for(n, tile_words, jobs)
        phase1 = {}
        algebra = initial = None
        if len(spans) > 1 and self._detector.uses_pair_transform:
            factory = self._detector._factory
            algebra = tuple(make_pair_composer(factory(), n, pairs) for _ in range(2))
            if any(a is None for a in algebra):
                spans = [(0, n)]
                counter_add("pipeline.stream.fallback")
                counter_add("pipeline.stream.fallback.series")
            else:
                initial = tuple(
                    make_pair_carrier(factory(), n, pairs).get_state()
                    for _ in range(2)
                )
                phase1 = {0: {"groups": (0, 1), "carrier_groups": ()}}
        elif len(spans) == 1 and jobs > 1:
            counter_add("pipeline.stream.fallback")
            counter_add("pipeline.stream.fallback.single_span")

        def _phases(run_tasks, wrap):
            # Lane-agnostic: ``run_tasks`` runs a task function over its
            # arglists on the pool or in-process, ``wrap`` ships the
            # regeneration counts (a shared segment descriptor on the
            # pooled lane, identity in-process).
            shipped = None
            if self._config.variant == "regeneration":
                shipped = wrap(sum(run_tasks(
                    _stream_counts_task, [(i,) for i in range(len(spans))]
                )))
            return _run_phases(
                run_tasks, _stream_compose_task, _stream_detect_task, spans,
                phase1, algebra, initial, shipped,
            )

        # Persistent pool: the accelerator is the token-cached context,
        # the patch stack travels as a shared segment (zero-copy), and
        # workers keep kernel/sequence caches warm across frames.
        partials = None
        with pool_call(
            len(spans), context=self,
            installer="repro.pipeline.accelerator:_pool_install_stream_ctx",
            payload=lambda arena: (arena.wrap(patches), tile_words, spans),
        ) as call:
            if call is not None:
                counter_add("pipeline.stream.pooled")
                partials = _phases(
                    lambda fn, tasks: call.map(
                        "repro.pipeline.accelerator:" + fn.__name__, tasks
                    ),
                    call.arena.wrap,
                )

        if partials is None:
            # In-process lane: the same installer and span tasks, here.
            _pool_install_stream_ctx(self, (patches, tile_words, spans))
            try:
                partials = _phases(
                    lambda fn, tasks: [fn(*args) for args in tasks],
                    lambda obj: obj,
                )
            finally:
                _pool_install_stream_ctx(None, None)

        values = sum(partials) / float(n)
        return values.reshape(tiles, bt - 1, bt - 1)

    def process(
        self,
        image: np.ndarray,
        *,
        backend: str = "auto",
        tile_words: int = 1024,
        jobs: int = 1,
    ) -> AcceleratorResult:
        """Run the full tiled pipeline over an image and score it.

        ``backend="auto"`` (default) batches all tiles into one
        engine-routed pass; ``"interpreter"`` runs the per-tile reference
        loop; ``"streaming"`` pumps the stream-length axis in windows of
        ``tile_words * 64`` cycles with FSM state carried across windows
        — memory O(window) instead of O(N) per pixel, for long-stream
        configurations. Outputs are identical across all three.

        ``jobs`` applies to the streaming backend only: time-window spans
        are evaluated across the persistent worker pool with synchronizer
        state handed off via prefix-scanned state maps
        (:meth:`_process_tiles_streaming`), float-identical to
        ``jobs=1``. The other backends are already one vectorised pass
        and ignore it.
        """
        if backend not in ("auto", "engine", "interpreter", "streaming"):
            raise PipelineError(f"unknown backend {backend!r}")
        check_tile_words(tile_words)
        check_jobs(jobs)
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2:
            raise PipelineError(f"expected a 2-D image, got ndim={image.ndim}")
        if image.min() < 0.0 or image.max() > 1.0:
            raise PipelineError("image values must lie in [0, 1]")
        cfg = self._config
        h, w = image.shape
        out = np.zeros((h - 3, w - 3), dtype=np.float64)
        stride = cfg.output_tile
        origins_r = tile_origins(h, cfg.tile, stride)
        origins_c = tile_origins(w, cfg.tile, stride)
        origins = [(r, c) for r in origins_r for c in origins_c]
        tiles = len(origins)
        with obs_span(
            "pipeline.process",
            variant=cfg.variant, backend=backend, tiles=tiles,
        ):
            if backend == "interpreter":
                for r, c in origins:
                    patch = image[r : r + cfg.tile, c : c + cfg.tile]
                    out[r : r + stride, c : c + stride] = self.process_tile(patch)
            else:
                window = (
                    min(cfg.stream_length, tile_words * 64)
                    if backend == "streaming" else cfg.stream_length
                )
                per_tile_bytes = cfg.blur_tile**2 * 9 * window
                chunk = max(1, _ENGINE_CHUNK_BYTES // per_tile_bytes)
                for start in range(0, tiles, chunk):
                    batch = origins[start : start + chunk]
                    patches = np.stack(
                        [image[r : r + cfg.tile, c : c + cfg.tile] for r, c in batch]
                    )
                    if backend == "streaming":
                        tile_values = self._process_tiles_streaming(
                            patches, tile_words, jobs
                        )
                    else:
                        tile_values = self._process_tiles(patches)
                    # Same write order as the reference loop, so overlapping
                    # clamped-edge tiles resolve identically.
                    for (r, c), values in zip(batch, tile_values):
                        out[r : r + stride, c : c + stride] = values
        reference = pipeline_reference(image)
        mae = image_mae(out, reference)
        cost = self.cost_breakdown()
        area = sum(v[0] for v in cost.values())
        power = sum(v[1] for v in cost.values())
        frame_nj = power * cfg.stream_length * EFFECTIVE_CYCLE_US / 1000.0
        return AcceleratorResult(
            variant=cfg.variant,
            output=out,
            reference=reference,
            mean_abs_error=mae,
            tiles=tiles,
            area_um2=area,
            power_uw=power,
            energy_per_frame_nj=frame_nj,
            energy_per_image_nj=frame_nj * tiles,
            breakdown={k: v[1] for k, v in cost.items()},
        )

    # ------------------------------------------------------------------ #
    # Hardware model
    # ------------------------------------------------------------------ #

    def netlist(self) -> Netlist:
        """Structural netlist of the whole tile engine."""
        total = Netlist("accelerator")
        for name, block in self._blocks().items():
            total = total + block.renamed(name)
        return total.renamed(f"accelerator[{self._config.variant}]")

    def _blocks(self) -> Dict[str, Netlist]:
        cfg = self._config
        n_inputs = cfg.tile * cfg.tile
        n_blur = cfg.blur_tile**2
        n_out = cfg.output_tile**2
        blocks: Dict[str, Netlist] = {
            "input_d2s": components.d2s_converter() * n_inputs,
            "blur_kernels": components.gaussian_blur_kernel() * n_blur,
            "edge_kernels": components.roberts_cross_kernel() * n_out,
            "output_s2d": components.s2d_converter() * n_out,
            "rngs": components.lfsr_rng() * 3,  # input + blur select + ED select
        }
        if cfg.variant == "regeneration":
            blocks["regenerators"] = components.regenerator() * n_blur
            blocks["rngs"] = components.lfsr_rng() * 4  # + regeneration RNG
        elif cfg.variant == "synchronizer":
            blocks["synchronizers"] = components.synchronizer(cfg.sync_depth) * (2 * n_out)
        return blocks

    def cost_breakdown(self) -> Dict[str, tuple]:
        """Per-block ``(area_um2, power_uw)`` (the paper's Section IV-B
        power break down: converters, kernels, RNGs, manipulation)."""
        return {
            name: (block.area_um2, block.power_uw)
            for name, block in self._blocks().items()
        }

    def manipulation_power_uw(self) -> float:
        """Power of the correlation-manipulation blocks alone (the paper's
        3.0x energy-overhead comparison is on exactly this subset)."""
        blocks = self._blocks()
        power = 0.0
        if "regenerators" in blocks:
            power += blocks["regenerators"].power_uw
            power += components.lfsr_rng().power_uw  # the regeneration RNG
        if "synchronizers" in blocks:
            power += blocks["synchronizers"].power_uw
        return power
