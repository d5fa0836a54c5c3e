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

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional

import numpy as np

from ..core.synchronizer import Synchronizer
from ..obs import span as obs_span
from ..exceptions import PipelineError
from ..hardware import EFFECTIVE_CYCLE_US, Netlist, components
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


def _check_values(values: np.ndarray) -> None:
    """Reject an empty array or a value outside ``[0, 1]`` — written so
    that NaN fails too (NaN comparisons are all False)."""
    if values.size == 0:
        raise PipelineError(f"expected a non-empty image, got shape {values.shape}")
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise PipelineError("image values must lie in [0, 1]")


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
            factory = partial(Synchronizer, depth=self._config.sync_depth)
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
        n = self._n
        tiles, h, w = tiles_values.shape
        levels = np.rint(tiles_values.reshape(tiles, -1) * n).astype(np.int64)
        period = self._lfsr_period_seq.size
        rows = np.repeat(np.arange(h, dtype=np.int64), w)
        phases = ((rows // self._config.input_row_group) * self._config.input_phase_step) % period
        idx = (phases[:, None] + np.arange(n)[None, :]) % period
        r = self._lfsr_period_seq[idx]                       # (pixels, N)
        bits = (levels[:, :, None] > r[None, :, :]).astype(np.uint8)
        return bits.reshape(tiles, h, w, n)

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
        tile_values = np.asarray(tile_values, dtype=np.float64)
        if tile_values.shape != (cfg.tile, cfg.tile):
            raise PipelineError(
                f"expected a {cfg.tile}x{cfg.tile} tile, got {tile_values.shape}"
            )
        _check_values(tile_values)
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

    def process(self, image: np.ndarray, *, backend: str = "auto") -> AcceleratorResult:
        """Run the full tiled pipeline over an image and score it.

        ``backend="auto"`` (default) batches all tiles into one
        engine-routed pass; ``"interpreter"`` runs the per-tile reference
        loop. The two produce identical outputs.
        """
        if backend not in ("auto", "interpreter"):
            raise PipelineError(f"unknown backend {backend!r}")
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2:
            raise PipelineError(f"expected a 2-D image, got ndim={image.ndim}")
        _check_values(image)
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
                per_tile_bytes = cfg.blur_tile**2 * 9 * cfg.stream_length
                chunk = max(1, _ENGINE_CHUNK_BYTES // per_tile_bytes)
                for start in range(0, tiles, chunk):
                    batch = origins[start : start + chunk]
                    patches = np.stack(
                        [image[r : r + cfg.tile, c : c + cfg.tile] for r, c in batch]
                    )
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
