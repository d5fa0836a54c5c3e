"""Stochastic-computing Roberts cross edge detector.

Per output pixel the detector computes
``z = 0.5 (|g00 - g11| + |g01 - g10|)`` from the 2x2 blurred
neighbourhood: two XOR absolute-difference gates feeding a MUX scaled
adder (paper reference [13]).

The XOR subtractor requires its operand pair to be **positively
correlated** (paper Fig. 2c) — this is exactly the correlation demand the
paper's case study revolves around. The detector therefore accepts an
optional *pair transform factory*; the accelerator passes

* nothing (the "SC No Manipulation" variant — XOR operands arrive with
  whatever correlation the blur left them),
* nothing but regenerated inputs (the "SC Regeneration" variant — inputs
  arrive already re-encoded with a shared RNG, SCC = +1),
* a synchronizer per XOR pair (the "SC Synchronizer" variant, Fig. 5).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.fsm import PairTransform
from ..exceptions import PipelineError
from ..rng import StreamRNG

__all__ = ["SCRobertsCross"]


class SCRobertsCross:
    """SC Roberts cross over a tile of blurred-pixel streams.

    Args:
        select_rng: RNG for the scaled adder's 0.5 select stream; must be
            uncorrelated with the detector inputs.
        pair_transform_factory: optional zero-argument callable returning a
            fresh :class:`~repro.core.fsm.PairTransform` applied to each
            XOR operand pair (two instances per output pixel, matching the
            hardware where each pair owns a synchronizer).
    """

    def __init__(
        self,
        select_rng: StreamRNG,
        pair_transform_factory: Optional[Callable[[], PairTransform]] = None,
    ) -> None:
        self._select_rng = select_rng
        self._factory = pair_transform_factory

    @property
    def select_rng(self) -> StreamRNG:
        return self._select_rng

    @property
    def uses_pair_transform(self) -> bool:
        return self._factory is not None

    def _abs_diff(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """XOR subtract with the optional correlation fix-up.

        ``a``/``b`` are ``(B, N)`` stacks of operand streams.
        """
        if self._factory is not None:
            transform = self._factory()
            a, b = transform._process_bits(a, b)
        return np.bitwise_xor(a, b)

    def _select_bits(self, n: int) -> np.ndarray:
        """The shared 0.5 select stream for the MUX scaled adder."""
        seq = self._select_rng.sequence_window(0, n)
        return (seq < self._select_rng.modulus // 2).astype(np.uint8)

    @staticmethod
    def _corners(blurred_bits: np.ndarray):
        """The four 2x2-neighbourhood corner stacks, flattened to
        ``(T * (H-1) * (W-1), N)`` in tile-major order."""
        n = blurred_bits.shape[-1]
        g00 = blurred_bits[:, :-1, :-1, :].reshape(-1, n)
        g11 = blurred_bits[:, 1:, 1:, :].reshape(-1, n)
        g01 = blurred_bits[:, :-1, 1:, :].reshape(-1, n)
        g10 = blurred_bits[:, 1:, :-1, :].reshape(-1, n)
        return g00, g11, g01, g10

    def detect_tile(self, blurred_bits: np.ndarray) -> np.ndarray:
        """Run the detector over a tile.

        Args:
            blurred_bits: ``(H, W, N)`` uint8 blurred-pixel streams.

        Returns:
            ``(H-1, W-1, N)`` uint8 edge-magnitude streams.
        """
        blurred_bits = np.asarray(blurred_bits, dtype=np.uint8)
        if blurred_bits.ndim != 3:
            raise PipelineError(
                f"expected (H, W, N) streams, got ndim={blurred_bits.ndim}"
            )
        return self.detect_tiles(blurred_bits[None])[0]

    def detect_tiles(self, blurred_bits: np.ndarray) -> np.ndarray:
        """Run the detector over a batch of tiles in one pass.

        Every XOR operand pair across the whole batch goes through one
        vectorised transform application (FSM rows are independent, so
        this is bit-identical to mapping :meth:`detect_tile`).

        Args:
            blurred_bits: ``(T, H, W, N)`` uint8 blurred-pixel streams.

        Returns:
            ``(T, H-1, W-1, N)`` uint8 edge-magnitude streams.
        """
        blurred_bits = np.asarray(blurred_bits, dtype=np.uint8)
        if blurred_bits.ndim != 4:
            raise PipelineError(
                f"expected (T, H, W, N) streams, got ndim={blurred_bits.ndim}"
            )
        tiles, h, w, n = blurred_bits.shape
        if h < 2 or w < 2:
            raise PipelineError(f"tile too small for Roberts cross: {(h, w)}")

        g00, g11, g01, g10 = self._corners(blurred_bits)
        d1 = self._abs_diff(g00, g11)
        d2 = self._abs_diff(g01, g10)

        # MUX scaled add: 0.5 (d1 + d2) with a shared 0.5 select stream.
        select = self._select_bits(n)
        z = np.where(select[None, :] == 1, d2, d1).astype(np.uint8)
        return z.reshape(tiles, h - 1, w - 1, n)

    def detect_tiles_values(self, blurred_bits: np.ndarray) -> np.ndarray:
        """Edge-magnitude *values* for a batch of tiles — the
        engine-routed reduction.

        With no pair transform the whole detector is combinational, so it
        runs in the packed word domain end to end (XOR and MUX on uint64
        words via the engine's kernels, values from popcounts). With a
        transform the FSM stage runs on bits and only the reduction is
        packed. Either way the floats equal
        ``detect_tiles(...).mean(axis=-1)`` exactly.

        Args:
            blurred_bits: ``(T, H, W, N)`` uint8 blurred-pixel streams.

        Returns:
            ``(T, H-1, W-1)`` float64 edge-magnitude values.
        """
        from ..bitstream.metrics import popcount_words
        from ..bitstream.packed import pack_bits
        from ..engine.executor import mux_words

        blurred_bits = np.asarray(blurred_bits, dtype=np.uint8)
        if blurred_bits.ndim != 4:
            raise PipelineError(
                f"expected (T, H, W, N) streams, got ndim={blurred_bits.ndim}"
            )
        tiles, h, w, n = blurred_bits.shape
        if h < 2 or w < 2:
            raise PipelineError(f"tile too small for Roberts cross: {(h, w)}")
        select_words = pack_bits(self._select_bits(n).reshape(1, -1))
        g00, g11, g01, g10 = self._corners(blurred_bits)
        if self._factory is None:
            d1 = pack_bits(g00) ^ pack_bits(g11)
            d2 = pack_bits(g01) ^ pack_bits(g10)
        else:
            d1 = pack_bits(self._abs_diff(g00, g11))
            d2 = pack_bits(self._abs_diff(g01, g10))
        z_words = mux_words(select_words, d1, d2)
        values = popcount_words(z_words) / float(n)
        return values.reshape(tiles, h - 1, w - 1)
