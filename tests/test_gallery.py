import dataclasses
import errno
import struct
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from enexmatch import (
    FEATURE_IDS,
    DegenerateProblemError,
    DimensionMismatchError,
    DuplicateLabelError,
    EnexError,
    FeatureBundle,
    Gallery,
    HeightFeature,
    SnapshotChecksumError,
    SnapshotFormatError,
    SnapshotTruncatedError,
    UnknownLabelError,
    match_probe,
)
from enexmatch import discriminant as discriminant_module
from enexmatch import gallery as gallery_module
from enexmatch.discriminant import project
from helpers import (
    enexgal2_snapshot,
    enrolled_gallery,
    forged_body,
    random_bundle,
    trait_record,
    with_body,
)


class TestLifecycle:
    def test_empty(self):
        gallery = Gallery()
        assert gallery.n == 0
        assert gallery.labels == ()
        assert not gallery.fitted
        assert gallery.covered_features() == ()

    def test_enroll_returns_new_instance(self):
        rng = np.random.default_rng(300)
        before = Gallery()
        after = before.enroll("s1", [random_bundle(rng)])
        assert before.n == 0
        assert after.n == 1
        assert after.labels == ("s1",)

    def test_labels_keep_enrollment_order(self):
        rng = np.random.default_rng(301)
        gallery = Gallery()
        for label in ("zeta", "alpha", "mid"):
            gallery = gallery.enroll(label, [random_bundle(rng)])
        assert gallery.labels == ("zeta", "alpha", "mid")

    def test_duplicate_label(self):
        rng = np.random.default_rng(302)
        gallery = Gallery().enroll("s1", [random_bundle(rng)])
        with pytest.raises(DuplicateLabelError):
            gallery.enroll("s1", [random_bundle(rng)])

    @pytest.mark.parametrize("label", ["", "-", "a b", "a,b", "a\tb", "a\nb"])
    def test_bad_labels(self, label):
        rng = np.random.default_rng(303)
        with pytest.raises(ValueError):
            Gallery().enroll(label, [random_bundle(rng)])

    def test_enroll_requires_bundles(self):
        with pytest.raises(ValueError):
            Gallery().enroll("s1", [])

    def test_retire(self):
        rng = np.random.default_rng(304)
        gallery = enrolled_gallery(rng, n=3)
        after = gallery.retire("p02")
        assert gallery.labels == ("p01", "p02", "p03")
        assert after.labels == ("p01", "p03")

    def test_retire_unknown(self):
        rng = np.random.default_rng(305)
        with pytest.raises(UnknownLabelError):
            enrolled_gallery(rng, n=2).retire("ghost")

    def test_no_public_layout_constructor(self):
        # enroll, retire, fit and load make every gallery but the empty one.
        with pytest.raises(TypeError):
            Gallery(labels={}, traits={})

    def test_partial_bundles_recorded_sparsely(self):
        rng = np.random.default_rng(307)
        bundles = [
            random_bundle(rng),
            random_bundle(rng, features=("clothing", "height")),
        ]
        gallery = Gallery().enroll("s1", bundles)
        assert gallery.feature_samples("s1", "clothing").shape == (2, 96)
        assert gallery.feature_samples("s1", "build").shape == (1, 1)

    def test_feature_samples_missing(self):
        rng = np.random.default_rng(308)
        gallery = Gallery().enroll("s1", [random_bundle(rng, features=("height",))])
        assert gallery.feature_samples("s1", "clothing") is None
        with pytest.raises(UnknownLabelError):
            gallery.feature_samples("nope", "clothing")

    def test_inconsistent_dims_within_class(self):
        rng = np.random.default_rng(309)
        one = random_bundle(rng, features=("clothing",))
        two_cameras = type(one)(
            clothing=type(one.clothing)(np.tile(one.clothing.values, 2))
        )
        with pytest.raises(DimensionMismatchError):
            Gallery().enroll("s1", [one, two_cameras])

    def test_non_finite_values_never_reach_enrollment(self):
        # Every feature type already refuses non-finite values, so no
        # NaN can arrive through the public constructors.
        from enexmatch import ClothingHistogram, ComplexionFeature, HeightFeature

        with pytest.raises(ValueError):
            HeightFeature(float("nan"))
        with pytest.raises(ValueError):
            ComplexionFeature((float("nan"), 150.0), valid=True)
        bad = np.full(96, np.nan)
        with pytest.raises(ValueError):
            ClothingHistogram(bad)


class TestFit:
    def test_fit_marks_and_projects(self):
        rng = np.random.default_rng(320)
        gallery = enrolled_gallery(rng, n=3, samples=2)
        fitted = gallery.fit()
        assert not gallery.fitted
        assert fitted.fitted
        assert set(fitted.covered_features()) == {
            "clothing",
            "height",
            "build",
            "complexion",
        }
        for fid in fitted.covered_features():
            block = fitted.projected_block(fid)
            assert block.labels == fitted.labels
            assert np.diff([*block.starts, len(block.rows)]).tolist() == [2, 2, 2]
            assert block.rows.shape[1] == fitted.transforms[fid].rank

    def test_projections_packed_per_trait_in_enrollment_order(self):
        rng = np.random.default_rng(327)
        gallery = Gallery()
        for label, count, features in (
            ("z", 2, ("clothing", "height")),
            ("a", 1, ("height",)),
            ("m", 3, ("clothing", "height")),
        ):
            gallery = gallery.enroll(
                label, [random_bundle(rng, features=features) for _ in range(count)]
            )
        fitted = gallery.fit()
        block = fitted.projected_block("clothing")
        assert block.labels == ("z", "m")
        assert block.starts.tolist() == [0, 2]
        assert block.rows.shape == (5, fitted.transforms["clothing"].rank)
        assert block.rows.flags.c_contiguous
        transform = fitted.transforms["clothing"]
        expected = np.stack(
            [
                project(transform, row)
                for label in ("z", "m")
                for row in fitted.feature_samples(label, "clothing")
            ]
        )
        assert np.array_equal(block.rows, expected)
        assert fitted.projected_block("height").labels == ("z", "a", "m")

    def test_projections_are_read_only(self):
        rng = np.random.default_rng(328)
        fitted = enrolled_gallery(rng, n=3, samples=2).fit()
        block = fitted.projected_block("height")
        first_class = block.rows[block.starts[0] : block.starts[1]]
        for array in (block.rows, block.starts, first_class):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_transforms_keep_trait_order_when_the_first_class_lacks_clothing(self, tmp_path):
        rng = np.random.default_rng(329)
        gallery = Gallery().enroll(
            "a", [random_bundle(rng, features=("height", "build", "complexion"))]
        )
        for label in ("b", "c"):
            gallery = gallery.enroll(label, [random_bundle(rng)])
        fitted = gallery.fit()
        assert list(fitted.transforms) == list(FEATURE_IDS)
        path, _ = snapshot_bytes(tmp_path, fitted)
        assert list(Gallery.load(path).transforms) == list(FEATURE_IDS)

    def test_fit_needs_two_classes(self):
        rng = np.random.default_rng(321)
        gallery = Gallery().enroll("only", [random_bundle(rng)])
        with pytest.raises(DegenerateProblemError):
            gallery.fit()

    def test_cross_class_dimension_mismatch(self):
        rng = np.random.default_rng(322)
        narrow = random_bundle(rng, features=("clothing",))
        wide = type(narrow)(
            clothing=type(narrow.clothing)(np.tile(narrow.clothing.values, 2))
        )
        gallery = Gallery().enroll("a", [narrow])
        with pytest.raises(DimensionMismatchError, match="dimension 192, enrolled classes 96"):
            gallery.enroll("b", [wide])
        assert gallery.retire("a").enroll("b", [wide]).labels == ("b",)

    def test_feature_missing_everywhere_is_skipped(self):
        rng = np.random.default_rng(323)
        gallery = enrolled_gallery(rng, n=3, features=("height", "build"))
        fitted = gallery.fit()
        assert set(fitted.covered_features()) == {"height", "build"}
        assert "clothing" not in fitted.transforms

    def test_single_class_feature_skipped(self):
        rng = np.random.default_rng(324)
        gallery = Gallery()
        gallery = gallery.enroll("a", [random_bundle(rng)])
        gallery = gallery.enroll("b", [random_bundle(rng, features=("height",))])
        fitted = gallery.fit()
        # Only height exists in both classes, so only height is fitted.
        assert fitted.covered_features() == ("height",)

    def test_mutation_clears_fit(self):
        rng = np.random.default_rng(325)
        fitted = enrolled_gallery(rng, n=3).fit()
        assert not fitted.enroll("new", [random_bundle(rng)]).fitted
        assert not fitted.retire("p01").fitted

    def test_explicit_epsilon_recorded(self, tmp_path):
        # A loaded transform records the ridge its snapshot stores, not the
        # one a fit of its samples would choose.
        rng = np.random.default_rng(326)
        fitted = enrolled_gallery(rng, n=3).fit()
        ridges = {fid: (i + 1) * 1e-4 for i, fid in enumerate(fitted.transforms)}
        loaded = ridge_rewritten(tmp_path, fitted, ridges)
        assert {fid: t.regularization for fid, t in loaded.transforms.items()} == ridges

    def test_fit_calls_the_discriminant_through_its_module_globals(self, monkeypatch):
        # Tracing tools wrap these functions at every module binding the
        # library holds, as perfbench/spans.py does; a fit that went round
        # them would leave their spans empty.
        calls = dict.fromkeys(("fit_transform", "scatter_statistics"), 0)
        for name in calls:
            original = getattr(discriminant_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for key, module in list(sys.modules.items()):
                if key.startswith("enexmatch") and vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(329)
        gallery = enrolled_gallery(rng, n=4, features=("clothing", "height", "build"))
        # Only the last class holds complexion, so three traits are fitted.
        fitted = gallery.enroll("x", [random_bundle(rng)]).fit()
        assert sorted(fitted.transforms) == ["build", "clothing", "height"]
        assert calls == {"fit_transform": 3, "scatter_statistics": 3}

    def test_fit_peak_memory_stays_small(self):
        # 600 classes of 5 samples, all four traits: the clothing block is
        # 2.2 MiB. A fit that regroups the samples per class before the
        # scatter peaks at 7.6 MiB, and one that centres a full-size copy of
        # the block at 6.5 MiB.
        rng = np.random.default_rng(334)
        gallery = enrolled_gallery(rng, n=600, samples=5)
        tracemalloc.start()
        try:
            gallery.fit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20, peak

    def test_fitted_gallery_keeps_little_memory(self):
        # 600 classes of 5 samples, all four traits: the fitted gallery keeps
        # its packed raw blocks, about 2.4 MiB. One that also keeps every
        # trait projected holds 4.6 MiB.
        rng = np.random.default_rng(334)
        gallery = enrolled_gallery(rng, n=600, samples=5)
        tracemalloc.start()
        try:
            fitted = gallery.fit()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fitted.fitted
        assert kept < 3 * 2**20, kept


class TestProjectionOnRead:
    """A gallery projects a trait where it is read: ``load`` projects every
    fitted trait, and ``fit`` none."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # Wrapped at the module binding the gallery calls, as tracing tools
        # such as perfbench/spans.py wrap it.
        calls = []

        def counted(transform, vectors):
            calls.append(transform.feature_id)
            return project(transform, vectors)

        monkeypatch.setattr(gallery_module, "project", counted)
        return calls

    @staticmethod
    def _three_fitted(rng):
        # Only the last class holds complexion, so three traits are fitted.
        gallery = enrolled_gallery(rng, n=4, features=("clothing", "height", "build"))
        return gallery.enroll("x", [random_bundle(rng)])

    def test_fit_projects_nothing(self, calls):
        fitted = self._three_fitted(np.random.default_rng(335)).fit()
        assert sorted(fitted.transforms) == ["build", "clothing", "height"]
        assert calls == []

    def test_first_read_projects_once(self, calls):
        fitted = self._three_fitted(np.random.default_rng(336)).fit()
        block = fitted.projected_block("height")
        assert calls == ["height"]
        assert fitted.projected_block("height") is block
        assert calls == ["height"]

    def test_load_projects_each_fitted_trait_once(self, calls, tmp_path):
        fitted = self._three_fitted(np.random.default_rng(337)).fit()
        fitted.save(tmp_path / "g.bin")
        calls.clear()
        loaded = Gallery.load(tmp_path / "g.bin")
        assert calls == ["clothing", "height", "build"]
        for fid in loaded.transforms:
            loaded.projected_block(fid)
        assert len(calls) == 3

    def test_unfitted_trait_is_a_key_error(self, calls):
        gallery = self._three_fitted(np.random.default_rng(338))
        with pytest.raises(KeyError):
            gallery.projected_block("height")
        with pytest.raises(KeyError):
            gallery.fit().projected_block("complexion")
        assert calls == []


class TestEquality:
    def test_equal_when_built_the_same(self):
        a = enrolled_gallery(np.random.default_rng(330), n=3)
        b = enrolled_gallery(np.random.default_rng(330), n=3)
        assert a == b
        assert a.fit() == b.fit()

    def test_order_matters(self):
        rng = np.random.default_rng(331)
        bundles = {label: [random_bundle(rng)] for label in ("x", "y")}
        ab = Gallery().enroll("x", bundles["x"]).enroll("y", bundles["y"])
        ba = Gallery().enroll("y", bundles["y"]).enroll("x", bundles["x"])
        assert ab != ba

    def test_fit_state_matters(self):
        rng = np.random.default_rng(332)
        gallery = enrolled_gallery(rng, n=3)
        assert gallery != gallery.fit()

    def test_not_equal_to_other_types(self):
        assert Gallery() != "gallery"

    @staticmethod
    def _pair(change, tmp_path):
        """Two galleries that differ only in what ``change`` names."""
        rng = np.random.default_rng(333)
        bundles = [random_bundle(rng) for _ in range(2)]
        others = [[random_bundle(rng)] for _ in range(2)]
        altered = list(bundles)
        if change == "sample value":
            height = HeightFeature(float(np.nextafter(bundles[1].height.value, 0.0)))
            altered[1] = dataclasses.replace(bundles[1], height=height)
        pair = []
        for first in (bundles, altered):
            gallery = Gallery().enroll("a", first)
            for i, rest in enumerate(others):
                gallery = gallery.enroll(f"b{i}", rest)
            pair.append(gallery)
        if change == "regularization":
            fitted = pair[0].fit()
            ridge = fitted.transforms["height"].regularization
            return fitted, ridge_rewritten(tmp_path, fitted, {"height": 2 * ridge})
        return pair[0].fit(), pair[1].fit()

    @pytest.mark.parametrize("change", ["sample value", "regularization"])
    def test_single_field_difference_is_unequal(self, tmp_path, change):
        g, h = self._pair(change, tmp_path)
        assert g != h and h != g
        for gallery in (g, h):
            path, _ = snapshot_bytes(tmp_path, gallery)
            assert Gallery.load(path) == gallery

    def test_regularization_alone_matters(self, tmp_path):
        gallery = enrolled_gallery(np.random.default_rng(334), n=3, features=("height",))
        gallery = gallery.fit()
        ridge = gallery.transforms["height"].regularization
        other = ridge_rewritten(tmp_path, gallery, {"height": 2 * ridge})
        assert other.transforms["height"].regularization == 2 * ridge
        assert other != gallery


def snapshot_bytes(tmp_path, gallery, name="g.bin"):
    path = tmp_path / name
    gallery.save(path)
    return path, path.read_bytes()


def ridge_rewritten(tmp_path, gallery, ridges):
    """``gallery`` loaded from its snapshot with the stored ridge of each
    trait that ``ridges`` names replaced by the value it maps to."""
    _, blob = snapshot_bytes(tmp_path, gallery)
    body = blob[16:-4]
    for fid, ridge in ridges.items():
        stored = struct.pack("<d", gallery.transforms[fid].regularization)
        assert body.count(stored) == 1
        body = body.replace(stored, struct.pack("<d", ridge))
    path = tmp_path / "ridge.bin"
    path.write_bytes(with_body(body))
    return Gallery.load(path)


HEIGHTS = [("height", [[0.5]])]
TWO = [("a", HEIGHTS), ("b", HEIGHTS)]
UNIT = ("height", [[1.0]])


class TestSnapshot:
    def test_round_trip_unfitted(self, tmp_path):
        rng = np.random.default_rng(340)
        gallery = enrolled_gallery(rng, n=4, samples=3)
        path, _ = snapshot_bytes(tmp_path, gallery)
        assert Gallery.load(path) == gallery

    def test_round_trip_fitted(self, tmp_path):
        rng = np.random.default_rng(341)
        gallery = enrolled_gallery(rng, n=4, samples=3).fit()
        path, _ = snapshot_bytes(tmp_path, gallery)
        loaded = Gallery.load(path)
        assert loaded == gallery
        assert loaded.fitted
        assert loaded.covered_features() == gallery.covered_features()

    def test_round_trip_partial_features(self, tmp_path):
        rng = np.random.default_rng(342)
        gallery = Gallery()
        gallery = gallery.enroll("a", [random_bundle(rng)])
        gallery = gallery.enroll("b", [random_bundle(rng, features=("height",))])
        path, _ = snapshot_bytes(tmp_path, gallery.fit())
        assert Gallery.load(path) == gallery.fit()

    def test_round_trip_empty(self, tmp_path):
        path, _ = snapshot_bytes(tmp_path, Gallery())
        assert Gallery.load(path) == Gallery()

    def test_retiring_the_only_holder_saves_width_zero(self, tmp_path):
        rng = np.random.default_rng(352)
        bundles = {label: [random_bundle(rng, features=("height",))] for label in "ab"}
        plain = Gallery().enroll("a", bundles["a"]).enroll("b", bundles["b"])
        retired = plain.enroll("x", [random_bundle(rng)]).retire("x")
        # The trait no class holds any longer leaves no holder map behind.
        assert sorted(retired._traits) == ["height"]
        assert retired == plain
        path, blob = snapshot_bytes(tmp_path, retired)
        # Clothing's record comes first, after the flag and the label table.
        assert struct.unpack_from("<I", blob, 16 + 1 + 4 + len("a\nb")) == (0,)
        assert blob == snapshot_bytes(tmp_path, plain, "plain.bin")[1]
        assert Gallery.load(path) == retired

    def test_class_without_traits_round_trips(self, tmp_path):
        rng = np.random.default_rng(353)
        gallery = Gallery().enroll("a", [random_bundle(rng)])
        gallery = gallery.enroll("bare", [FeatureBundle()]).enroll("b", [random_bundle(rng)])
        for original in (gallery, gallery.fit()):
            path, _ = snapshot_bytes(tmp_path, original)
            loaded = Gallery.load(path)
            assert loaded == original
            assert loaded.labels == ("a", "bare", "b")
            assert [loaded.feature_samples("bare", fid) for fid in FEATURE_IDS] == [None] * 4
        assert gallery.fit().covered_features() == ()

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(343)
        gallery = enrolled_gallery(rng, n=3).fit()
        _, first = snapshot_bytes(tmp_path, gallery, "a.bin")
        _, second = snapshot_bytes(tmp_path, gallery, "b.bin")
        assert first == second

    def test_layout(self, tmp_path):
        rng = np.random.default_rng(344)
        gallery = Gallery()
        for label, count, traits in (("a", 2, FEATURE_IDS), ("bb", 1, ("height", "build"))):
            bundles = [random_bundle(rng, features=traits) for _ in range(count)]
            gallery = gallery.enroll(label, bundles + [FeatureBundle()])
        _, blob = snapshot_bytes(tmp_path, gallery)
        assert blob[:8] == b"ENEXGAL5"
        (body_len,) = struct.unpack("<Q", blob[8:16])
        body = blob[16 : 16 + body_len]
        (checksum,) = struct.unpack("<I", blob[16 + body_len :])
        assert len(blob) == 16 + body_len + 4
        assert zlib.crc32(body) == checksum
        # The test helper's independent encoder writes the same body; the
        # trait-less bundle each class got leaves no trace in it.
        classes = [
            (label, [(fid, samples) for fid in FEATURE_IDS
                     if (samples := gallery.feature_samples(label, fid)) is not None])
            for label in gallery.labels
        ]
        assert body == forged_body(classes)

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(345)
        path, blob = snapshot_bytes(tmp_path, enrolled_gallery(rng, n=2))
        path.write_bytes(b"NOTMYFMT" + blob[8:])
        with pytest.raises(SnapshotFormatError):
            Gallery.load(path)

    def test_corrupt_body(self, tmp_path):
        rng = np.random.default_rng(346)
        path, blob = snapshot_bytes(tmp_path, enrolled_gallery(rng, n=2))
        broken = bytearray(blob)
        broken[20] ^= 0xFF
        path.write_bytes(bytes(broken))
        with pytest.raises(SnapshotChecksumError):
            Gallery.load(path)

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(347)
        path, blob = snapshot_bytes(tmp_path, enrolled_gallery(rng, n=2))
        for cut in (0, 4, 15, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(SnapshotTruncatedError):
                Gallery.load(path)

    def test_trailing_garbage(self, tmp_path):
        rng = np.random.default_rng(348)
        path, blob = snapshot_bytes(tmp_path, enrolled_gallery(rng, n=2))
        path.write_bytes(blob + b"extra")
        with pytest.raises(SnapshotFormatError):
            Gallery.load(path)

    def test_checksum_matching_tamper_still_fails(self, tmp_path):
        # Rewrite the declared body length and recompute the checksum; the
        # decoder must still notice the stream is short.
        rng = np.random.default_rng(349)
        path, blob = snapshot_bytes(tmp_path, enrolled_gallery(rng, n=2))
        (body_len,) = struct.unpack("<Q", blob[8:16])
        body = blob[16 : 16 + body_len][:-8]
        rebuilt = (
            blob[:8]
            + struct.pack("<Q", len(body))
            + body
            + struct.pack("<I", zlib.crc32(body))
        )
        path.write_bytes(rebuilt)
        with pytest.raises(SnapshotFormatError):
            Gallery.load(path)

    def test_previous_layout_rejected(self, tmp_path):
        # ENEXGAL2 stored one sample record per class and trait.
        rng = np.random.default_rng(349)
        path = tmp_path / "old.bin"
        path.write_bytes(enexgal2_snapshot(enrolled_gallery(rng, n=2)))
        with pytest.raises(SnapshotFormatError, match="unknown snapshot magic"):
            Gallery.load(path)

    def test_third_layout_rejected(self, tmp_path):
        # ENEXGAL3 stored the class count beside the label table, and per
        # trait record its id, holder count and holder indices: here two
        # classes holding one height sample each, unfitted.
        body = struct.pack("<BI", 0, 2) + struct.pack("<I", 3) + b"a\nb"
        body += struct.pack("<II", 1, 1) + struct.pack("<I", 1)
        body += struct.pack("<I", 6) + b"height" + struct.pack("<6I", 2, 1, 0, 1, 1, 1)
        body += struct.pack("<ddI", 0.5, 0.5, 0)
        path = tmp_path / "old.bin"
        path.write_bytes(with_body(body, b"ENEXGAL3"))
        with pytest.raises(SnapshotFormatError, match="unknown snapshot magic"):
            Gallery.load(path)

    def test_fourth_layout_rejected(self, tmp_path):
        # ENEXGAL4 also stored a u32 size per class after the label table;
        # the table "a\nb" ends 8 bytes in, so no padding moves.
        body = forged_body(TWO)
        body = body[:8] + struct.pack("<2I", 1, 1) + body[8:]
        path = tmp_path / "old.bin"
        path.write_bytes(with_body(body, b"ENEXGAL4"))
        with pytest.raises(SnapshotFormatError, match="unknown snapshot magic"):
            Gallery.load(path)

    def test_first_layout_rejected(self, tmp_path):
        # ENEXGAL1 appended per-class projections to the ENEXGAL2 body; an
        # unfitted gallery wrote an empty projection section.
        rng = np.random.default_rng(349)
        blob = enexgal2_snapshot(enrolled_gallery(rng, n=2))
        path = tmp_path / "old.bin"
        path.write_bytes(with_body(blob[16:-4] + struct.pack("<I", 0), b"ENEXGAL1"))
        with pytest.raises(SnapshotFormatError, match="unknown snapshot magic"):
            Gallery.load(path)

    def test_body_omits_projections(self, tmp_path):
        rng = np.random.default_rng(351)
        unfitted = enrolled_gallery(rng, n=3, samples=2)
        _, plain = snapshot_bytes(tmp_path, unfitted, "plain.bin")
        _, fitted = snapshot_bytes(tmp_path, unfitted.fit(), "fitted.bin")
        # Magic, body length, checksum; flag, the label table; per trait
        # its width, row counts, padding to a multiple of 8 and sample
        # block; per trait a transform slot.
        labels = unfitted.labels
        traits = {"clothing": 96, "height": 1, "build": 1, "complexion": 2}
        body = 1 + 4 + len("\n".join(labels))
        for width in traits.values():
            body += 4 + 4 * len(labels)
            body += -body % 8 + 2 * len(labels) * width * 8
        assert len(plain) == 8 + 8 + body + 4 * len(traits) + 4
        # A fitted slot adds, after its column count, padding, the matrix,
        # the eigenvalues, the ridge and the flag.
        for t in unfitted.fit().transforms.values():
            body += 4
            body += -body % 8 + t.matrix.size * 8 + t.rank * 8 + 8 + 1
        assert len(fitted) == 8 + 8 + body + 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            Gallery.load(tmp_path / "missing.bin")



HOLDERS = (("clothing", 9), ("height", 9), ("build", 9), ("complexion", 1))


def shared_blocks_gallery(rng):
    """1 to 6 samples per class, complexion held by class c4 only, and one
    class that holds no trait at all."""
    gallery = Gallery()
    for i in range(9):
        traits = ("clothing", "height", "build") + (("complexion",) if i == 4 else ())
        bundles = [random_bundle(rng, features=traits) for _ in range(i % 6 + 1)]
        gallery = gallery.enroll(f"c{i}", bundles)
    return gallery.enroll("bare", [FeatureBundle(), FeatureBundle()])


def assert_views_into_blocks(gallery):
    """Every class's samples of a trait are read-only rows of one block per
    trait: the holders' rows lie back to back in enrollment order."""
    for fid, holders in HOLDERS:
        held = gallery._traits[fid]
        assert list(held) == [label for label in gallery.labels if label in held]
        assert len(held) == holders and "bare" not in held
        address = next(iter(held.values())).__array_interface__["data"][0]
        for label, samples in held.items():
            assert len(samples) == int(label[1:]) % 6 + 1
            assert not samples.flags.writeable and samples.flags.c_contiguous
            assert samples.__array_interface__["data"][0] == address
            address += samples.nbytes
    copy = gallery.feature_samples("c4", "complexion")
    assert copy.flags.writeable and not np.shares_memory(copy, held["c4"])
    copy[0, 0] = -1.0
    assert gallery.feature_samples("c4", "complexion")[0, 0] != -1.0
    assert gallery.feature_samples("bare", "height") is None


def assert_shares_rows(fitted, parent):
    """The fitted gallery's trait maps, and so its row arrays, are its
    parent's own, not copies."""
    assert fitted.labels == parent.labels
    assert list(fitted._traits) == list(parent._traits)
    for fid, holders in parent._traits.items():
        assert fitted._traits[fid] is holders


class TestSharedBlocks:
    def test_loaded_samples_are_views_into_one_block_per_trait(self, tmp_path):
        gallery = shared_blocks_gallery(np.random.default_rng(380))
        for original in (gallery, gallery.fit()):
            path, _ = snapshot_bytes(tmp_path, original)
            loaded = Gallery.load(path)
            assert loaded == original
            assert "complexion" not in loaded.transforms
            assert_views_into_blocks(loaded)

    def test_fitted_samples_are_the_enrolled_arrays(self, tmp_path):
        rng = np.random.default_rng(381)
        gallery = shared_blocks_gallery(rng)
        assert_shares_rows(gallery.fit(), gallery)

        path, _ = snapshot_bytes(tmp_path, gallery)
        loaded = Gallery.load(path)
        bundles = [random_bundle(rng, features=("clothing", "height", "build"))] * 3
        changed = loaded.retire("c3").enroll("c9", bundles)
        refitted = changed.fit()
        assert_shares_rows(refitted, changed)
        assert refitted.labels[-1] == "c9" and "c3" not in refitted.labels
        # The kept classes still view the loaded blocks.
        assert_views_into_blocks(loaded)
        for fid, holders in loaded._traits.items():
            for label, samples in holders.items():
                if label != "c3":
                    assert refitted._traits[fid][label] is samples

    def test_fit_then_save_packs_each_trait_once(self, tmp_path, monkeypatch):
        # The fitted gallery's snapshot writes the blocks its fit packed, a
        # loaded gallery's the blocks it decoded; only an unfitted gallery
        # built by enroll packs when it saves. Complexion, held by one
        # class, is packed but not fitted.
        packed = []
        pack = gallery_module._pack

        def counted(holders):
            packed.append(tuple(holders))
            return pack(holders)

        monkeypatch.setattr(gallery_module, "_pack", counted)
        gallery = shared_blocks_gallery(np.random.default_rng(384))
        fitted = gallery.fit()
        held = [tuple(holders) for holders in gallery._traits.values()]
        assert sorted(packed) == sorted(held) and len(held) == 4
        path, _ = snapshot_bytes(tmp_path, fitted)
        loaded = Gallery.load(path)
        snapshot_bytes(tmp_path, loaded, name="again.bin")
        assert loaded == fitted
        assert len(packed) == 4
        snapshot_bytes(tmp_path, gallery, name="unfitted.bin")
        assert len(packed) == 8

    def test_loaded_blocks_project_and_fit_as_saved(self, tmp_path):
        # The loaded blocks view the file's bytes wherever they fall in it.
        rng = np.random.default_rng(382)
        gallery = shared_blocks_gallery(rng)
        fitted = gallery.fit()
        path, _ = snapshot_bytes(tmp_path, fitted)
        loaded = Gallery.load(path)
        for got, want in ((loaded, fitted), (loaded.fit(), fitted)):
            for fid, transform in want.transforms.items():
                assert got.transforms[fid].matrix.tobytes() == transform.matrix.tobytes()
                assert (
                    got.projected_block(fid).rows.tobytes()
                    == want.projected_block(fid).rows.tobytes()
                )


    def test_loaded_arrays_are_aligned_views_of_the_file(self, tmp_path):
        fitted = shared_blocks_gallery(np.random.default_rng(383)).fit()
        path, blob = snapshot_bytes(tmp_path, fitted)
        loaded = Gallery.load(path)
        arrays = [samples for held in loaded._traits.values() for samples in held.values()]
        for t in loaded.transforms.values():
            arrays += [t.matrix, t.eigenvalues]
        for array in arrays:
            owner = array
            while isinstance(owner, np.ndarray):
                owner = owner.base
            # The bytes the load read from the file, not a copy of them.
            assert isinstance(owner, memoryview) and owner.obj == blob
            assert np.shares_memory(array, np.frombuffer(owner.obj, dtype=np.uint8))
            assert array.flags.aligned and not array.flags.writeable


class TestForgedSnapshots:
    """Bodies with a valid checksum that no save could have written."""

    def test_forged_body_loads(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(with_body(forged_body(TWO, [UNIT])))
        gallery = Gallery.load(path)
        assert gallery.labels == ("a", "b")
        assert gallery.projected_block("height").rows.tolist() == [[0.5], [0.5]]

    @pytest.mark.parametrize(
        "classes, transforms, message",
        [
            pytest.param([(b"p\xff", HEIGHTS)], [], "UTF-8", id="label-not-utf8"),
            pytest.param([("p ", HEIGHTS)], [], "spaces", id="label-with-space"),
            pytest.param([("a,b", HEIGHTS)], [], "commas", id="label-with-comma"),
            pytest.param([("a", HEIGHTS), ("", HEIGHTS)], [], "non-empty", id="empty-label"),
            pytest.param([("a", HEIGHTS), ("-", HEIGHTS)], [], "not '-'", id="label-dash"),
            pytest.param(
                [("p", HEIGHTS), ("p", HEIGHTS)], [], "enrolled twice", id="duplicate-label"
            ),
            pytest.param([("a", [("height", [[np.nan]])])], [], "non-finite", id="nan"),
            pytest.param(
                [("a", [("height", np.zeros((0, 1)))])],
                [],
                "height record of width 1 has 0 holder classes",
                id="rowless",
            ),
            pytest.param(TWO, [("height", [[np.inf]])], "non-finite", id="inf-transform"),
            # A repeated slot reads as the next trait's, which no class holds.
            pytest.param(
                TWO, [UNIT, UNIT], "build transform fits a trait no class holds",
                id="duplicate-transform",
            ),
            pytest.param(
                TWO, [("build", [[1.0]])], "build transform fits a trait no class holds",
                id="unheld",
            ),
            # A matrix row past the trait's width shifts the eigenvalues,
            # ridge and flag; the flag then reads the ridge's first byte.
            pytest.param(TWO, [("height", [[1.0], [1.0]])], "flag byte 141", id="width"),
            pytest.param(
                [("a", [("height", [[1e200]])]), ("b", HEIGHTS)],
                [("height", [[1e200]])],
                "overflows",
                id="projection-overflow",
            ),
        ],
    )
    def test_rejected(self, tmp_path, classes, transforms, message):
        path = tmp_path / "g.bin"
        path.write_bytes(with_body(forged_body(classes, transforms)))
        with pytest.raises(SnapshotFormatError, match=message):
            Gallery.load(path)

    @pytest.mark.parametrize(
        "forged, message",
        [
            # A row-count array holds one entry per label: a table naming
            # more or fewer labels than the records count, or a row count
            # past the table, reads on out of step with the records. With a
            # third label, clothing's third count is height's width, 1.
            ({"table": b"a\nb\nc"}, "clothing record of width 0 has 1 holder classes"),
            ({"table": b"a"}, "complexion record of width 0 has 1 holder classes"),
            ({"records": {"height": trait_record([1, 1, 1], [[0.5]] * 3)}},
             "padding byte is not zero"),
            ({"records": {"height": trait_record([1, 1], np.zeros((2, 0)))}},
             "height record of width 0 has 2 holder classes"),
            ({"records": {"height": trait_record([0, 0], np.zeros((0, 1)))}},
             "height record of width 1 has 0 holder classes"),
            ({"records": {"height": trait_record([1, 600], [[0.5], [0.5]])}}, "ends early"),
            # The extra row's zeros read as four empty transform slots.
            ({"records": {"complexion": trait_record([1, 1], [[0.5, 0.5]] * 2 + [[0, 0]])}},
             "unread bytes"),
            # The second height record reads as build's, and the rest of the
            # body one record late.
            ({"records": {"height": trait_record([1, 1], [[0.5], [0.5]]) * 2}},
             "unread bytes"),
            ({"padding": 0xA5}, "padding byte is not zero"),
        ],
        ids=["more-labels-declared", "fewer-labels-declared", "holder-out-of-range",
             "zero-width", "no-holders", "block-too-short", "block-too-long", "repeated-trait",
             "non-zero-padding"],
    )
    def test_columnar_records_rejected(self, tmp_path, forged, message):
        path = tmp_path / "g.bin"
        path.write_bytes(with_body(forged_body(TWO, **forged)))
        with pytest.raises(SnapshotFormatError, match=message):
            Gallery.load(path)

    def test_label_holding_a_newline_splits_the_table(self, tmp_path):
        # The table reads as the labels "a" and "b" with one row count per
        # record, so the clothing record's second count is the height
        # record's width, 1.
        path = tmp_path / "g.bin"
        path.write_bytes(with_body(forged_body([("a\nb", HEIGHTS)])))
        with pytest.raises(
            SnapshotFormatError, match="clothing record of width 0 has 1 holder classes"
        ):
            Gallery.load(path)

    @pytest.mark.parametrize(
        "flags, message",
        [
            ({"fitted": 2}, "flag byte 2"),
            ({"discriminative": 7}, "flag byte 7"),
            ({"fitted": 0}, "unfitted snapshot holds transforms"),
        ],
    )
    def test_flag_bytes(self, tmp_path, flags, message):
        path = tmp_path / "g.bin"
        path.write_bytes(with_body(forged_body(TWO, [UNIT], **flags)))
        with pytest.raises(SnapshotFormatError, match=message):
            Gallery.load(path)

    @pytest.mark.parametrize(
        "forged, message",
        [
            ({"ridge": np.nan}, "ridge nan"),
            ({"ridge": -np.inf}, "ridge -inf"),
            ({"ridge": 0.0}, "ridge 0.0"),
            ({"ridge": -1e-6}, "ridge -1e-06"),
            # The column count fixes the eigenvalue count, so a second
            # eigenvalue reads as the ridge and the ridge's first byte as the flag.
            ({"eigenvalues": [1.0, 0.5]}, "flag byte 141"),
            ({"eigenvalues": [-0.5]}, "negative eigenvalue"),
        ],
        ids=["nan-ridge", "minus-inf-ridge", "zero-ridge", "negative-ridge",
             "eigenvalue-count", "negative-eigenvalue"],
    )
    def test_transform_metadata_rejected(self, tmp_path, forged, message):
        path = tmp_path / "g.bin"
        path.write_bytes(with_body(forged_body(TWO, [UNIT], **forged)))
        with pytest.raises(SnapshotFormatError, match=message):
            Gallery.load(path)

    def test_zero_eigenvalue_of_a_flat_trait_loads(self, tmp_path):
        # A non-discriminative fit stores the single eigenvalue 0.0.
        path = tmp_path / "g.bin"
        path.write_bytes(
            with_body(forged_body(TWO, [UNIT], eigenvalues=[0.0], discriminative=0))
        )
        assert Gallery.load(path).transforms["height"].eigenvalues.tolist() == [0.0]

    def test_seeded_mutations_raise_only_library_errors(self, tmp_path):
        # Flip and truncate bytes of a real body, then re-seal it with a
        # valid length and checksum, so the decoder itself meets the damage.
        # Every mutant that loads fitted is matched too: a loadable sample
        # can still overflow the distances.
        probe = random_bundle(np.random.default_rng(361))
        rng = np.random.default_rng(360)
        gallery = Gallery()
        for label in ("alpha", "b", "gamma-7"):
            gallery = gallery.enroll(
                label, [random_bundle(rng, features=("height", "build", "complexion"))]
            )
        gallery = gallery.enroll("d", [random_bundle(rng) for _ in range(2)]).fit()
        _, blob = snapshot_bytes(tmp_path, gallery)
        body = blob[16:-4]
        path = tmp_path / "mutant.bin"
        outcomes = {"loaded": 0, "rejected": 0}
        matches = {"ranked": 0, "refused": 0}
        for trial in range(4000):
            mutant = bytearray(body)
            for pos in rng.integers(0, len(body), size=int(rng.integers(1, 4))):
                mutant[pos] ^= int(rng.integers(1, 256))
            if trial % 4 == 0:
                del mutant[int(rng.integers(0, len(body))) :]
            path.write_bytes(with_body(bytes(mutant)))
            try:
                loaded = Gallery.load(path)
                outcomes["loaded"] += 1
            except EnexError:
                outcomes["rejected"] += 1
                continue
            if not loaded.fitted:
                continue
            try:
                match_probe(probe, loaded).to_text()
                matches["ranked"] += 1
            except EnexError:
                matches["refused"] += 1
        assert min(outcomes.values()) > 100, outcomes
        assert matches["ranked"] > 100 and matches["refused"] > 0, matches


class TestAtomicSave:
    def test_failed_write_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(370)
        path, before = snapshot_bytes(tmp_path, enrolled_gallery(rng, n=2))
        real_open = open

        class ShortWrite:
            """A file that takes half of a write, then reports a full disk."""

            def __init__(self, *args):
                self.file = real_open(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.file.write(data[: len(data) // 2])
                self.file.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(gallery_module, "open", ShortWrite, raising=False)
        with pytest.raises(OSError):
            enrolled_gallery(rng, n=3).fit().save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        rng = np.random.default_rng(371)
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            enrolled_gallery(rng, n=2).save(target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert not any(target.iterdir())

    def test_save_replaces_previous_snapshot(self, tmp_path):
        rng = np.random.default_rng(372)
        path, _ = snapshot_bytes(tmp_path, enrolled_gallery(rng, n=2))
        gallery = enrolled_gallery(rng, n=3).fit()
        gallery.save(path)
        assert Gallery.load(path) == gallery
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


class TestRandomizedOperations:
    def test_many_random_steps_preserve_invariants(self, tmp_path):
        rng = np.random.default_rng(350)
        gallery = Gallery()
        shadow: list[str] = []
        counter = 0
        path = tmp_path / "state.bin"
        for _ in range(120):
            roll = rng.random()
            if roll < 0.45 or gallery.n == 0:
                counter += 1
                label = f"s{counter:03d}"
                bundles = [
                    random_bundle(rng, label=label)
                    for _ in range(int(rng.integers(1, 4)))
                ]
                gallery = gallery.enroll(label, bundles)
                shadow.append(label)
            elif roll < 0.70:
                victim = shadow[int(rng.integers(0, len(shadow)))]
                gallery = gallery.retire(victim)
                shadow.remove(victim)
            elif roll < 0.85 and gallery.n >= 2:
                gallery = gallery.fit()
            else:
                gallery.save(path)
                gallery = Gallery.load(path)
            assert gallery.labels == tuple(shadow)
            assert gallery.n == len(shadow)
            if gallery.fitted:
                for fid in gallery.covered_features():
                    assert set(gallery.projected_block(fid).labels) == set(shadow)
