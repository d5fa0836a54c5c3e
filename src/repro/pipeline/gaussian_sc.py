"""Stochastic-computing Gaussian blur kernel.

The 3x3 binomial kernel's weights are all multiples of 1/16, so the blur
is realised as a **16-slot weighted mux tree** (the standard SC
weighted-sum construction, paper reference [13]): each cycle a 4-bit value
from the *select* RNG picks one of 16 slots; slot -> neighbour assignment
repeats neighbours proportionally to their weights (the centre pixel owns
4 slots, edge pixels 2, corner pixels 1). The output bit is the chosen
neighbour's stream bit, so the output value is the exact weighted average
of the neighbour values — *provided the select sequence is uncorrelated
with the pixel streams* (the MUX adder's correlation requirement,
paper Fig. 2a).

Unlike the float reference there is sampling noise: each slot is visited
``N/16`` times per period for a low-discrepancy select source, which is
why a VDC/Halton select RNG measurably beats an LFSR here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._validation import check_stream_length
from ..exceptions import PipelineError
from ..rng import StreamRNG
from .kernels import GAUSSIAN_3X3

__all__ = ["WEIGHT_SLOTS", "SCGaussianBlur"]

# Slot -> neighbour index (row-major 0..8) with multiplicity equal to the
# kernel weight numerator: [1,2,1,2,4,2,1,2,1] sixteenths.
WEIGHT_SLOTS = np.array(
    [0, 1, 1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 6, 7, 7, 8], dtype=np.int64
)


class SCGaussianBlur:
    """Mux-tree SC Gaussian blur over a tile of pixel streams.

    Args:
        select_rng: RNG driving the 4-bit slot select; must be uncorrelated
            with the pixel streams.
        select_phase_step: rotation of the shared select sequence between
            adjacent kernels. One physical select RNG feeds every kernel in
            the tile; rotating its output per kernel (a zero-cost wiring
            choice, like rotated LFSR outputs in Section II-B) prevents all
            kernels from sampling the same neighbour offset in the same
            cycle, i.e. it avoids spatially coherent sampling artifacts.
            The side effect — central to the paper's case study — is that
            adjacent blurred streams come out only *partially* correlated,
            which is what the edge detector then trips over.
    """

    def __init__(self, select_rng: StreamRNG, *, select_phase_step: int = 0) -> None:
        self._select_rng = select_rng
        self._select_phase_step = int(select_phase_step)
        if self._select_phase_step < 0:
            raise PipelineError("select_phase_step must be >= 0")
        if int(WEIGHT_SLOTS.size) != 16:
            raise PipelineError("weight slot table must have 16 entries")
        # Consistency guard: slot multiplicities must reproduce the kernel.
        counts = np.bincount(WEIGHT_SLOTS, minlength=9) / 16.0
        if not np.allclose(counts.reshape(3, 3), GAUSSIAN_3X3):
            raise PipelineError("slot table does not realise the 3x3 Gaussian")

    @property
    def select_rng(self) -> StreamRNG:
        return self._select_rng

    @property
    def select_phase_step(self) -> int:
        return self._select_phase_step

    def blur_tile(self, tile_bits: np.ndarray) -> np.ndarray:
        """Blur a tile of pixel streams.

        Args:
            tile_bits: ``(H, W, N)`` uint8 array of pixel SNs.

        Returns:
            ``(H-2, W-2, N)`` uint8 array of blurred-pixel SNs (the valid
            convolution region).
        """
        tile_bits = np.asarray(tile_bits, dtype=np.uint8)
        if tile_bits.ndim != 3:
            raise PipelineError(f"expected (H, W, N) streams, got ndim={tile_bits.ndim}")
        return self.blur_tiles(tile_bits[None])[0]

    def blur_tiles(self, tiles_bits: np.ndarray) -> np.ndarray:
        """Blur a whole batch of tiles in one vectorised pass.

        The select sequence (and its per-kernel phase rotation) is shared
        by every tile — there is one physical select RNG — so the batched
        result is bit-identical to mapping :meth:`blur_tile` over the
        batch. This is the blur stage of the engine-routed accelerator
        path.

        Args:
            tiles_bits: ``(T, H, W, N)`` uint8 array of pixel SNs.

        Returns:
            ``(T, H-2, W-2, N)`` uint8 array of blurred-pixel SNs.
        """
        tiles_bits = np.asarray(tiles_bits, dtype=np.uint8)
        if tiles_bits.ndim != 4:
            raise PipelineError(
                f"expected (T, H, W, N) streams, got ndim={tiles_bits.ndim}"
            )
        tiles, h, w, n = tiles_bits.shape
        if h < 3 or w < 3:
            raise PipelineError(f"tile too small for a 3x3 blur: {(h, w)}")
        check_stream_length(n, name="stream length")

        # Gather 3x3 neighbourhoods: (T, H-2, W-2, 9, N).
        neigh = np.empty((tiles, h - 2, w - 2, 9, n), dtype=np.uint8)
        k = 0
        for dy in range(3):
            for dx in range(3):
                neigh[:, :, :, k, :] = tiles_bits[:, dy : dy + h - 2, dx : dx + w - 2, :]
                k += 1

        # One shared select sequence per tile (one select RNG in hardware),
        # rotated per kernel by select_phase_step positions.
        cycles = np.arange(n)
        if self._select_phase_step == 0:
            slots = self._select_rng.integers_window(0, n, 16)
            chosen = WEIGHT_SLOTS[slots]  # (N,) neighbour index per cycle
            return neigh[:, :, :, chosen, cycles]
        # The rotation wraps per-kernel select positions modulo the stream
        # length; the RNG's index-addressed API serves them from its
        # cached period.
        kernels = (h - 2) * (w - 2)
        phases = (np.arange(kernels, dtype=np.int64) * self._select_phase_step) % n
        idx = (phases[:, None] + cycles[None, :]) % n
        seq = self._select_rng.sequence_at(idx)
        chosen = WEIGHT_SLOTS[(seq * 16) // self._select_rng.modulus]
        flat = neigh.reshape(tiles, kernels, 9, n)
        out = flat[:, np.arange(kernels)[:, None], chosen, cycles[None, :]]
        return out.reshape(tiles, h - 2, w - 2, n)
