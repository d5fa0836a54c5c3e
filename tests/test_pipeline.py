"""Unit tests for the image pipeline (repro.pipeline)."""

import numpy as np
import pytest

from repro.exceptions import PipelineError
from repro.pipeline import (
    GAUSSIAN_3X3,
    AcceleratorConfig,
    SCAccelerator,
    SCGaussianBlur,
    SCRobertsCross,
    WEIGHT_SLOTS,
    blob_image,
    checkerboard_image,
    gaussian_blur_reference,
    gradient_image,
    image_mae,
    image_psnr,
    noise_image,
    pipeline_reference,
    roberts_cross_reference,
    standard_test_images,
    tile_origins,
)
from repro.core import Synchronizer
from repro.rng import Halton, VanDerCorput


class TestImages:
    def test_all_generators_in_range(self):
        for img in (gradient_image(16), blob_image(16), checkerboard_image(16),
                    noise_image(16)):
            assert img.shape == (16, 16)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_gradient_monotone_along_axis(self):
        img = gradient_image(16, angle=0.0)
        assert (np.diff(img, axis=1) >= 0).all()

    def test_checkerboard_binary(self):
        img = checkerboard_image(16, cell=4)
        assert set(np.unique(img)) == {0.0, 1.0}

    def test_deterministic(self):
        assert np.array_equal(blob_image(16, seed=3), blob_image(16, seed=3))
        assert not np.array_equal(blob_image(16, seed=3), blob_image(16, seed=4))

    def test_standard_set(self):
        images = standard_test_images(16)
        assert set(images) == {"gradient", "blobs", "checker", "noise"}

    def test_size_validation(self):
        with pytest.raises(PipelineError):
            gradient_image(2)


class TestTiling:
    def test_exact_cover(self):
        assert tile_origins(64, 10, 7)[-1] == 54

    def test_clamped_final_tile(self):
        origins = tile_origins(32, 10, 7)
        assert origins[-1] == 22
        assert all(o + 10 <= 32 for o in origins)

    def test_full_coverage(self):
        origins = tile_origins(50, 10, 7)
        covered = set()
        for o in origins:
            covered.update(range(o, o + 10))
        assert covered == set(range(50))

    def test_tile_too_large(self):
        with pytest.raises(PipelineError):
            tile_origins(8, 10, 7)

    def test_bad_stride(self):
        with pytest.raises(PipelineError):
            tile_origins(20, 10, 0)


class TestReferenceKernels:
    def test_gaussian_kernel_normalised(self):
        assert GAUSSIAN_3X3.sum() == pytest.approx(1.0)

    def test_blur_of_constant_is_constant(self):
        img = np.full((8, 8), 0.5)
        out = gaussian_blur_reference(img)
        assert np.allclose(out, 0.5)

    def test_blur_shape(self):
        assert gaussian_blur_reference(np.zeros((10, 12))).shape == (8, 10)

    def test_blur_smooths_checkerboard(self):
        img = checkerboard_image(16, cell=1)
        out = gaussian_blur_reference(img)
        assert out.std() < img.std()

    def test_roberts_of_constant_is_zero(self):
        assert roberts_cross_reference(np.full((6, 6), 0.7)).max() == 0.0

    def test_roberts_shape(self):
        assert roberts_cross_reference(np.zeros((6, 8))).shape == (5, 7)

    def test_roberts_detects_step_edge(self):
        img = np.zeros((6, 6))
        img[:, 3:] = 1.0
        out = roberts_cross_reference(img)
        assert out[:, 2].max() > 0.4

    def test_pipeline_reference_shape(self):
        assert pipeline_reference(np.zeros((10, 10))).shape == (7, 7)

    def test_image_validation(self):
        with pytest.raises(PipelineError):
            gaussian_blur_reference(np.full((8, 8), 2.0))
        with pytest.raises(PipelineError):
            gaussian_blur_reference(np.zeros((2, 2)))
        with pytest.raises(PipelineError):
            gaussian_blur_reference(np.zeros((4, 4, 3)))


class TestSCGaussianBlur:
    def test_slot_table_realises_kernel(self):
        counts = np.bincount(WEIGHT_SLOTS, minlength=9) / 16.0
        assert np.allclose(counts.reshape(3, 3), GAUSSIAN_3X3)

    def test_constant_tile_blurs_to_constant(self):
        blur = SCGaussianBlur(VanDerCorput(8))
        bits = np.ones((5, 5, 64), dtype=np.uint8)
        out = blur.blur_tile(bits)
        assert out.shape == (3, 3, 64)
        assert out.min() == 1

    def test_matches_reference_on_random_tile(self):
        rng = np.random.default_rng(0)
        tile = rng.random((6, 6))
        levels = np.rint(tile * 256).astype(np.int64)
        seq = Halton(7, 8).sequence(256)
        bits = (levels[..., None] > seq).astype(np.uint8)
        blur = SCGaussianBlur(VanDerCorput(8))
        out = blur.blur_tile(bits).mean(axis=2)
        ref = gaussian_blur_reference(tile)
        assert np.abs(out - ref).mean() < 0.03

    def test_select_rotation_keeps_accuracy(self):
        rng = np.random.default_rng(1)
        tile = rng.random((6, 6))
        levels = np.rint(tile * 256).astype(np.int64)
        seq = Halton(7, 8).sequence(256)
        bits = (levels[..., None] > seq).astype(np.uint8)
        blur = SCGaussianBlur(VanDerCorput(8), select_phase_step=17)
        out = blur.blur_tile(bits).mean(axis=2)
        assert np.abs(out - gaussian_blur_reference(tile)).mean() < 0.03

    def test_tile_too_small(self):
        blur = SCGaussianBlur(VanDerCorput(8))
        with pytest.raises(PipelineError):
            blur.blur_tile(np.ones((2, 5, 16), dtype=np.uint8))

    def test_requires_3d(self):
        blur = SCGaussianBlur(VanDerCorput(8))
        with pytest.raises(PipelineError):
            blur.blur_tile(np.ones((5, 16), dtype=np.uint8))


class TestSCRobertsCross:
    def test_constant_input_zero_edges(self):
        det = SCRobertsCross(Halton(5, 8))
        bits = np.ones((4, 4, 64), dtype=np.uint8)
        out = det.detect_tile(bits)
        assert out.shape == (3, 3, 64)
        assert out.sum() == 0

    def test_synchronized_detector_accurate_on_step_edge(self):
        # Build a tile of streams from one shared sequence, step edge at 2.
        values = np.zeros((4, 4))
        values[:, 2:] = 0.8
        levels = np.rint(values * 256).astype(np.int64)
        # Use per-pixel independent RNG phases so inputs are uncorrelated
        # and only the synchronizer can fix them.
        seq = VanDerCorput(8).sequence(256 + 16)
        bits = np.empty((4, 4, 256), dtype=np.uint8)
        k = 0
        for i in range(4):
            for j in range(4):
                bits[i, j] = (levels[i, j] > np.roll(seq[:256], 13 * k)).astype(np.uint8)
                k += 1
        plain = SCRobertsCross(Halton(5, 8))
        synced = SCRobertsCross(Halton(5, 8), lambda: Synchronizer(1))
        ref = roberts_cross_reference(values)
        err_plain = np.abs(plain.detect_tile(bits).mean(axis=2) - ref).mean()
        err_sync = np.abs(synced.detect_tile(bits).mean(axis=2) - ref).mean()
        assert err_sync < err_plain

    def test_uses_pair_transform_flag(self):
        assert not SCRobertsCross(Halton(5, 8)).uses_pair_transform
        assert SCRobertsCross(Halton(5, 8), lambda: Synchronizer(1)).uses_pair_transform

    def test_tile_too_small(self):
        det = SCRobertsCross(Halton(5, 8))
        with pytest.raises(PipelineError):
            det.detect_tile(np.ones((1, 4, 16), dtype=np.uint8))


class TestQualityMetrics:
    def test_mae_zero_for_identical(self):
        img = gradient_image(8)
        assert image_mae(img, img) == 0.0

    def test_mae_value(self):
        assert image_mae(np.zeros((2, 2)), np.full((2, 2), 0.5)) == 0.5

    def test_psnr_infinite_for_identical(self):
        img = gradient_image(8)
        assert image_psnr(img, img) == float("inf")

    def test_psnr_finite_and_positive(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.1)
        assert 0 < image_psnr(a, b) < 100

    def test_shape_mismatch(self):
        with pytest.raises(PipelineError):
            image_mae(np.zeros((2, 2)), np.zeros((3, 3)))


class TestAccelerator:
    def test_config_validation(self):
        with pytest.raises(PipelineError):
            AcceleratorConfig(variant="quantum")
        with pytest.raises(PipelineError):
            AcceleratorConfig(stream_length=4)
        with pytest.raises(PipelineError):
            AcceleratorConfig(tile=3)

    def test_geometry_properties(self):
        cfg = AcceleratorConfig(tile=10)
        assert cfg.blur_tile == 8
        assert cfg.output_tile == 7

    def test_process_tile_shape(self):
        acc = SCAccelerator(AcceleratorConfig(variant="none", stream_length=64))
        out = acc.process_tile(np.full((10, 10), 0.5))
        assert out.shape == (7, 7)

    def test_process_tile_validates_shape(self):
        acc = SCAccelerator(AcceleratorConfig(variant="none"))
        with pytest.raises(PipelineError):
            acc.process_tile(np.zeros((5, 5)))

    def test_constant_image_yields_near_zero_edges(self):
        acc = SCAccelerator(AcceleratorConfig(variant="synchronizer", stream_length=128))
        result = acc.process(np.full((14, 14), 0.5))
        assert result.output.mean() < 0.1

    def test_image_validation(self):
        acc = SCAccelerator(AcceleratorConfig(variant="none"))
        with pytest.raises(PipelineError):
            acc.process(np.full((14, 14), 1.5))
        with pytest.raises(PipelineError):
            acc.process(np.zeros((14, 14, 3)))

    @pytest.mark.parametrize("backend", ("auto", "interpreter"))
    def test_image_validation_rejects_nan(self, backend):
        # NaN compares False both ways, so a min/max range check lets it
        # through to the integer cast and a NaN-free edge image.
        acc = SCAccelerator(AcceleratorConfig(variant="none", stream_length=64))
        image = np.full((14, 14), 0.5)
        image[6, 7] = np.nan
        with pytest.raises(PipelineError, match=r"\[0, 1\]"):
            acc.process(image, backend=backend)

    @pytest.mark.parametrize("shape", ((0, 0), (0, 14)))
    def test_image_validation_rejects_empty(self, shape):
        acc = SCAccelerator(AcceleratorConfig(variant="none"))
        with pytest.raises(PipelineError, match="non-empty"):
            acc.process(np.zeros(shape))

    def test_process_tile_validates_values(self):
        acc = SCAccelerator(AcceleratorConfig(variant="none", stream_length=64))
        with pytest.raises(PipelineError):
            acc.process_tile(np.full((10, 10), 1.5))
        tile = np.full((10, 10), 0.5)
        tile[0, 0] = np.nan
        with pytest.raises(PipelineError):
            acc.process_tile(tile)

    @pytest.mark.parametrize("backend", ("streaming", "engine"))
    def test_unknown_backend(self, backend):
        acc = SCAccelerator(AcceleratorConfig(variant="none", stream_length=64))
        with pytest.raises(PipelineError, match="unknown backend"):
            acc.process(blob_image(14), backend=backend)

    @pytest.mark.parametrize("variant", ("none", "regeneration", "synchronizer"))
    def test_all_variants_run(self, variant):
        acc = SCAccelerator(AcceleratorConfig(variant=variant, stream_length=64))
        result = acc.process(blob_image(14))
        assert result.variant == variant
        assert result.output.shape == (11, 11)
        assert result.mean_abs_error >= 0.0
        assert result.area_um2 > 0 and result.power_uw > 0

    def test_quality_ordering(self):
        image = blob_image(24)
        maes = {}
        for variant in ("none", "regeneration", "synchronizer"):
            acc = SCAccelerator(AcceleratorConfig(variant=variant))
            maes[variant] = acc.process(image).mean_abs_error
        assert maes["regeneration"] < maes["none"]
        assert maes["synchronizer"] < maes["none"]

    def test_cost_breakdown_blocks(self):
        acc = SCAccelerator(AcceleratorConfig(variant="regeneration"))
        blocks = acc.cost_breakdown()
        assert "regenerators" in blocks
        assert "input_d2s" in blocks
        acc2 = SCAccelerator(AcceleratorConfig(variant="synchronizer"))
        assert "synchronizers" in acc2.cost_breakdown()

    def test_netlist_total_consistent_with_breakdown(self):
        acc = SCAccelerator(AcceleratorConfig(variant="synchronizer"))
        total = acc.netlist()
        blocks = acc.cost_breakdown()
        assert total.area_um2 == pytest.approx(sum(v[0] for v in blocks.values()))

    def test_manipulation_power(self):
        regen = SCAccelerator(AcceleratorConfig(variant="regeneration"))
        sync = SCAccelerator(AcceleratorConfig(variant="synchronizer"))
        none = SCAccelerator(AcceleratorConfig(variant="none"))
        assert none.manipulation_power_uw() == 0.0
        assert regen.manipulation_power_uw() > sync.manipulation_power_uw()

    def test_energy_scales_with_tiles(self):
        acc = SCAccelerator(AcceleratorConfig(variant="none", stream_length=64))
        result = acc.process(blob_image(20))
        assert result.energy_per_image_nj == pytest.approx(
            result.energy_per_frame_nj * result.tiles
        )
