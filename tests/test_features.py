import math
import tracemalloc

import numpy as np
import pytest

from enexmatch import (
    BuildFeature,
    ClothingHistogram,
    ComplexionFeature,
    FeatureBundle,
    Image,
    SilhouetteMask,
    SubjectSample,
    band_boundaries,
    build_ratio,
    clothing_histogram,
    complexion,
    extract_bundle,
    extract_height,
    fuse_bundles,
    normalize_size,
    rgb_to_ycbcr,
    skin_mask,
    vertical_projection,
)
from enexmatch.features import BUILD_THRESHOLD
from enexmatch.imaging import FRAME
from helpers import bands, held_traits, random_bundle, random_chroma, random_image, random_mask


def histogram_reference(torso: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """Count pixels one at a time, the way the histogram is defined."""
    out = []
    for region in (torso, legs):
        for plane in region:
            counts = [0] * 24
            total = 0
            for row in plane:
                for value in row:
                    counts[int(value) * 24 // 256] += 1
                    total += 1
            if total:
                out.extend(c / total for c in counts)
            else:
                out.extend(0.0 for _ in counts)
    return np.array(out)


def per_block_histogram(torso: np.ndarray, legs: np.ndarray) -> np.ndarray:
    """Frozen copy of the histogram as one bincount per block, each divided
    by its band's pixel count."""

    def block(values):
        values = values.ravel()
        if values.size == 0:
            return np.zeros(24, dtype=np.float64)
        idx = values.astype(np.int64) * 24 // 256
        counts = np.bincount(idx, minlength=24).astype(np.float64)
        return counts / values.size

    return np.concatenate([block(torso[0]), block(torso[1]), block(legs[0]), block(legs[1])])


class TestClothingHistogram:
    def test_matches_counting_reference(self):
        rng = np.random.default_rng(50)
        _, torso, legs = bands(random_chroma(rng))
        hist = clothing_histogram(torso, legs)
        assert np.array_equal(hist.values, histogram_reference(torso, legs))

    def test_shape_and_block_sums(self):
        rng = np.random.default_rng(51)
        hist = clothing_histogram(*bands(random_chroma(rng))[1:])
        assert hist.values.shape == (96,)
        sums = hist.values.reshape(4, 24).sum(axis=1)
        assert sums == pytest.approx([1.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("value,bin_index", [(0, 0), (128, 12), (200, 18), (255, 23)])
    def test_bin_placement(self, value, bin_index):
        planes = np.full((2, 128, 64), value, dtype=np.uint8)
        hist = clothing_histogram(*bands(planes)[1:])
        for block in hist.values.reshape(4, 24):
            assert block[bin_index] == 1.0
            assert block.sum() == 1.0

    def test_mirror_invariance(self):
        rng = np.random.default_rng(52)
        image = random_chroma(rng)
        mirrored = image[:, :, ::-1].copy()
        a = clothing_histogram(*bands(image)[1:])
        b = clothing_histogram(*bands(mirrored)[1:])
        assert np.array_equal(a.values, b.values)

    def test_empty_band_gives_zero_block(self):
        rng = np.random.default_rng(53)
        image = random_chroma(rng, 12, 8)
        empty = image[:, :0]
        hist = clothing_histogram(empty, image)
        assert np.all(hist.values[:48] == 0.0)
        assert hist.values[48:].reshape(2, 24).sum(axis=1) == pytest.approx([1.0, 1.0])
        assert np.array_equal(hist.values, per_block_histogram(empty, image))

    def test_one_bincount_matches_the_per_block_histogram(self):
        # Seeded frames of every band layout from 3 to 130 rows, some with
        # only a few distinct values, so bins both fill and stay empty.
        rng = np.random.default_rng(54)
        for trial in range(200):
            height = 3 + trial % 128
            image = random_chroma(rng, height, int(rng.integers(1, 80)))
            if trial % 3 == 0:
                image = image // 64 * 64
            _, torso, legs = bands(image)
            hist = clothing_histogram(torso, legs)
            assert np.array_equal(hist.values, per_block_histogram(torso, legs))

    def test_rejects_denormalized_values(self):
        with pytest.raises(ValueError):
            ClothingHistogram(np.full(96, 0.5))


class TestHeight:
    def test_ratio(self):
        sample = SubjectSample(
            image=Image(np.zeros((8, 8, 3), dtype=np.uint8)),
            bbox_height=100,
            entrance_ref_height=200,
        )
        assert extract_height(sample).value == 0.5

    def test_full_height(self):
        sample = SubjectSample(
            image=Image(np.zeros((8, 8, 3), dtype=np.uint8)),
            bbox_height=200,
            entrance_ref_height=200,
        )
        assert extract_height(sample).value == 1.0

    def test_missing_metrics(self):
        sample = SubjectSample(image=Image(np.zeros((8, 8, 3), dtype=np.uint8)))
        assert extract_height(sample) is None

    def test_box_taller_than_entrance_rejected(self):
        with pytest.raises(ValueError):
            SubjectSample(
                image=Image(np.zeros((8, 8, 3), dtype=np.uint8)),
                bbox_height=300,
                entrance_ref_height=200,
            )

    def test_zero_box_rejected(self):
        with pytest.raises(ValueError):
            SubjectSample(
                image=Image(np.zeros((8, 8, 3), dtype=np.uint8)),
                bbox_height=0,
                entrance_ref_height=200,
            )


class TestProjectionAndBuild:
    def test_projection_matches_reference(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            mask = random_mask(rng)
            counts = vertical_projection(mask)
            expected = [
                sum(1 for i in range(mask.height) if mask.bits[i, j])
                for j in range(mask.width)
            ]
            assert counts.tolist() == expected

    def test_projection_of_empty_mask_is_zero(self):
        mask = SilhouetteMask(np.zeros((6, 4), dtype=np.bool_))
        assert vertical_projection(mask).tolist() == [0, 0, 0, 0]

    def test_documented_profile(self):
        assert build_ratio(np.array([10, 10, 2, 2])).value == 5.0

    def test_column_at_half_the_peak_counts(self):
        assert BUILD_THRESHOLD == 0.5
        assert build_ratio(np.array([10, 5, 4])).value == 5.0

    def test_all_zero_profile(self):
        for width in (5, 0):
            assert build_ratio(np.zeros(width, dtype=np.int64)) is None

    def test_profile_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            build_ratio(np.ones((2, 3), dtype=np.int64))

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_build_feature_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="build ratio"):
            BuildFeature(value)


class TestComplexion:
    def test_detects_inside_box(self):
        planes = np.zeros((2, 2, 2), dtype=np.uint8)
        planes[0] = 100
        planes[1] = 150
        mask = skin_mask(planes)
        assert mask.all()

    @pytest.mark.parametrize(
        "cb,cr,inside",
        [
            (77, 133, True),
            (127, 173, True),
            (76, 150, False),
            (128, 150, False),
            (100, 132, False),
            (100, 174, False),
        ],
    )
    def test_box_bounds_inclusive(self, cb, cr, inside):
        planes = np.array([cb, cr], dtype=np.uint8).reshape(2, 1, 1)
        assert skin_mask(planes)[0, 0] == inside

    def test_means_inside_box_when_valid(self):
        rng = np.random.default_rng(70)
        found_valid = 0
        for _ in range(50):
            region = random_chroma(rng, 8, 8)
            feature = complexion(region)
            if feature.valid:
                found_valid += 1
                assert 77 <= feature.means[0] <= 127
                assert 133 <= feature.means[1] <= 173
        assert found_valid > 0

    def test_no_skin_is_invalid(self):
        planes = np.zeros((2, 4, 4), dtype=np.uint8)
        planes[0] = 110
        planes[1] = 100
        feature = complexion(planes)
        assert not feature.valid
        assert math.isnan(feature.means[0])

    def test_mean_over_skin_pixels_only(self):
        planes = np.zeros((2, 1, 2), dtype=np.uint8)
        planes[:, 0, 0] = (100, 150)
        feature = complexion(planes)
        assert feature.valid
        assert (feature.means[0], feature.means[1]) == (100.0, 150.0)


def full_sample(rng):
    image = random_image(rng, 128, 64)
    mask = np.zeros((128, 64), dtype=np.bool_)
    mask[:, 20:44] = True
    return SubjectSample(
        image=image,
        mask=SilhouetteMask(mask),
        bbox_height=150,
        entrance_ref_height=200,
    )


class TestExtractBundle:
    def test_full_observation(self):
        rng = np.random.default_rng(80)
        bundle = extract_bundle(full_sample(rng))
        assert bundle.label is None
        assert bundle.clothing is not None
        assert bundle.height is not None and bundle.height.value == 0.75
        assert bundle.build is not None and bundle.build.value == pytest.approx(128 / 24)
        assert bundle.complexion is not None

    def test_missing_mask_drops_build(self):
        rng = np.random.default_rng(81)
        sample = SubjectSample(image=random_image(rng), bbox_height=150, entrance_ref_height=200)
        bundle = extract_bundle(sample)
        assert bundle.build is None
        assert bundle.height is not None

    def test_missing_metrics_drop_height(self):
        rng = np.random.default_rng(82)
        bundle = extract_bundle(SubjectSample(image=random_image(rng)))
        assert bundle.height is None

    def test_empty_mask_drops_build(self):
        rng = np.random.default_rng(83)
        image = random_image(rng, 16, 16)
        sample = SubjectSample(
            image=image, mask=SilhouetteMask(np.zeros((16, 16), dtype=np.bool_))
        )
        assert extract_bundle(sample).build is None

    def test_mask_shape_mismatch(self):
        rng = np.random.default_rng(84)
        with pytest.raises(ValueError):
            SubjectSample(
                image=random_image(rng, 16, 16),
                mask=SilhouetteMask(np.ones((8, 8), dtype=np.bool_)),
            )

    def test_a_resized_frame_makes_no_full_size_float_temporaries(self):
        # Full-size temporaries made enroll jobs page-fault; the float64
        # chain that resized through per-pixel float weights and converted
        # all three YCbCr planes peaked at 651 KiB on this frame.
        sample = SubjectSample(image=random_image(np.random.default_rng(87), 256, 128))
        extract_bundle(sample)
        tracemalloc.start()
        try:
            extract_bundle(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.7 * 651 * 1024

    @pytest.mark.parametrize("height, width", [FRAME, (17, 9), (256, 128), (300, 40)])
    def test_is_its_steps_composed(self, height, width):
        # Every frame is cut at the bands of the normalized height.
        head_end, torso_end = band_boundaries(FRAME[0])
        rng = np.random.default_rng(height * 1000 + width)
        for _ in range(5):
            image = random_image(rng, height, width)
            chroma = rgb_to_ycbcr(normalize_size(image))
            clothing = clothing_histogram(chroma[:, head_end:torso_end], chroma[:, torso_end:])
            skin = complexion(chroma[:, :head_end])
            bundle = extract_bundle(SubjectSample(image=image))
            assert bundle.clothing.values.tobytes() == clothing.values.tobytes()
            assert bundle.complexion.valid == skin.valid
            assert np.array(bundle.complexion.means).tobytes() == np.array(skin.means).tobytes()

    def test_normalization_makes_input_size_irrelevant(self):
        pixels = np.full((128, 64, 3), 90, dtype=np.uint8)
        small = extract_bundle(SubjectSample(image=Image(pixels[::2, ::2].copy())))
        large = extract_bundle(SubjectSample(image=Image(pixels)))
        assert np.array_equal(small.clothing.values, large.clothing.values)

    def test_available_features_and_vectors(self):
        rng = np.random.default_rng(85)
        bundle = extract_bundle(full_sample(rng))
        assert held_traits(bundle) == ("clothing", "height", "build", "complexion")
        assert bundle.feature_vector("clothing").shape == (96,)
        assert bundle.feature_vector("height").shape == (1,)
        assert bundle.feature_vector("build").shape == (1,)
        assert bundle.feature_vector("complexion").shape == (2,)
        with pytest.raises(KeyError):
            bundle.feature_vector("gait")

    def test_invalid_complexion_not_available(self):
        bundle = FeatureBundle(
            complexion=ComplexionFeature((math.nan, math.nan), valid=False)
        )
        assert bundle.feature_vector("complexion") is None
        assert held_traits(bundle) == ()

    @pytest.mark.parametrize("label", ["", "-", "x y", "x,y", "x\ny"])
    def test_label_a_report_cannot_carry(self, label):
        # A report writes "-" for a probe without an id and separates its
        # header fields by whitespace.
        with pytest.raises(ValueError, match="label"):
            FeatureBundle(label=label)

    def test_restrict(self):
        rng = np.random.default_rng(86)
        bundle = random_bundle(rng, label="x")
        reduced = bundle.restrict(("clothing",))
        assert held_traits(reduced) == ("clothing",)
        assert reduced.label == "x"
        with pytest.raises(KeyError):
            bundle.restrict(("clothing", "gait"))


class TestFusion:
    def test_two_camera_concatenation(self):
        rng = np.random.default_rng(90)
        first = random_bundle(rng)
        second = random_bundle(rng, features=("clothing", "complexion"))
        fused = fuse_bundles({"c1": first, "c2": second}, label="s9")
        assert fused.label == "s9"
        assert fused.clothing.values.shape == (192,)
        assert np.array_equal(fused.clothing.values[:96], first.clothing.values)
        assert np.array_equal(fused.clothing.values[96:], second.clothing.values)
        assert fused.complexion.means == first.complexion.means + second.complexion.means
        assert fused.height == first.height
        assert fused.build == first.build

    def test_camera_order_is_sorted(self):
        rng = np.random.default_rng(91)
        first = random_bundle(rng)
        second = random_bundle(rng)
        fused = fuse_bundles({"c2": second, "c1": first})
        assert np.array_equal(fused.clothing.values[:96], first.clothing.values)

    def test_metrics_come_from_first_camera_that_has_them(self):
        rng = np.random.default_rng(92)
        no_metrics = random_bundle(rng, features=("clothing", "complexion"))
        with_metrics = random_bundle(rng)
        fused = fuse_bundles({"c1": no_metrics, "c2": with_metrics})
        assert fused.height == with_metrics.height
        assert fused.build == with_metrics.build

    def test_any_invalid_complexion_invalidates_fusion(self):
        rng = np.random.default_rng(93)
        seeing = random_bundle(rng)
        blind = FeatureBundle(
            clothing=seeing.clothing,
            complexion=ComplexionFeature((math.nan, math.nan), valid=False),
        )
        fused = fuse_bundles({"c1": seeing, "c2": blind})
        assert not fused.complexion.valid
        assert fused.feature_vector("complexion") is None

    def test_single_camera_passthrough(self):
        rng = np.random.default_rng(94)
        bundle = random_bundle(rng, label="x")
        assert fuse_bundles({"c1": bundle}, label="x") is bundle
        for label in ("s2", None):
            fused = fuse_bundles({"c1": bundle}, label=label)
            assert fused.label == label
            for trait in ("clothing", "height", "build", "complexion"):
                assert getattr(fused, trait) is getattr(bundle, trait)

    def test_empty_mapping(self):
        with pytest.raises(ValueError):
            fuse_bundles({})
