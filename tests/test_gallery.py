import errno
import struct
import zlib

import numpy as np
import pytest

from enexmatch import (
    DegenerateProblemError,
    DimensionMismatchError,
    DuplicateLabelError,
    EnexError,
    Gallery,
    SnapshotChecksumError,
    SnapshotFormatError,
    SnapshotTruncatedError,
    UnknownLabelError,
)
from enexmatch import gallery as gallery_module
from enexmatch.discriminant import project
from helpers import enrolled_gallery, random_bundle


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

    @pytest.mark.parametrize("label", ["", "a b", "a,b", "a\tb", "a\nb"])
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

    def test_class_size_counts_feature_samples(self):
        rng = np.random.default_rng(306)
        gallery = Gallery().enroll("s1", [random_bundle(rng) for _ in range(4)])
        assert gallery.class_size("s1") == 4
        assert gallery.feature_samples("s1", "clothing").shape == (4, 96)
        assert gallery.feature_samples("s1", "height").shape == (4, 1)

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
        projected = fitted.projected
        for fid in fitted.covered_features():
            for label in fitted.labels:
                rows = projected[fid][label]
                assert rows.shape == (2, fitted.transforms[fid].rank)

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
        for array in (block.rows, block.starts, fitted.projected["height"]["p01"]):
            with pytest.raises(ValueError):
                array[0] = 0

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
        gallery = Gallery().enroll("a", [narrow]).enroll("b", [wide])
        with pytest.raises(DimensionMismatchError):
            gallery.fit()

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

    def test_explicit_epsilon_recorded(self):
        rng = np.random.default_rng(326)
        fitted = enrolled_gallery(rng, n=3).fit(epsilon=1e-4)
        for transform in fitted.transforms.values():
            assert transform.regularization == 1e-4


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


def snapshot_bytes(tmp_path, gallery, name="g.bin"):
    path = tmp_path / name
    gallery.save(path)
    return path, path.read_bytes()


def with_body(body, magic=b"ENEXGAL2"):
    """A snapshot around ``body`` whose header and checksum are valid."""
    return magic + struct.pack("<Q", len(body)) + body + struct.pack("<I", zlib.crc32(body))


def text(value):
    raw = value if isinstance(value, bytes) else value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def array(values):
    values = np.asarray(values, dtype="<f8")
    return struct.pack("<II", *values.shape) + values.tobytes()


def forged_body(classes, transforms=(), fitted=None, discriminative=1):
    """Encode (label, [(fid, samples)]) classes and (fid, matrix) transforms."""
    fitted = (1 if transforms else 0) if fitted is None else fitted
    out = struct.pack("<BI", fitted, len(classes))
    for label, features in classes:
        out += text(label) + struct.pack("<II", 1, len(features))
        out += b"".join(text(fid) + array(v) for fid, v in features)
    out += struct.pack("<I", len(transforms))
    for fid, matrix in transforms:
        eigenvalues = np.ones(np.shape(matrix)[1])
        out += text(fid) + array(matrix) + struct.pack("<I", len(eigenvalues))
        out += eigenvalues.astype("<f8").tobytes() + struct.pack("<dB", 1e-6, discriminative)
    return out


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

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(343)
        gallery = enrolled_gallery(rng, n=3).fit()
        _, first = snapshot_bytes(tmp_path, gallery, "a.bin")
        _, second = snapshot_bytes(tmp_path, gallery, "b.bin")
        assert first == second

    def test_layout(self, tmp_path):
        rng = np.random.default_rng(344)
        _, blob = snapshot_bytes(tmp_path, enrolled_gallery(rng, n=2))
        assert blob[:8] == b"ENEXGAL2"
        (body_len,) = struct.unpack("<Q", blob[8:16])
        body = blob[16 : 16 + body_len]
        (checksum,) = struct.unpack("<I", blob[16 + body_len :])
        assert len(blob) == 16 + body_len + 4
        assert zlib.crc32(body) == checksum

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
        # The previous layout appended per-class projections to the same
        # body; an unfitted gallery wrote an empty projection section.
        rng = np.random.default_rng(349)
        path, blob = snapshot_bytes(tmp_path, enrolled_gallery(rng, n=2))
        path.write_bytes(with_body(blob[16:-4] + struct.pack("<I", 0), b"ENEXGAL1"))
        with pytest.raises(SnapshotFormatError, match="unknown snapshot magic"):
            Gallery.load(path)

    def test_body_omits_projections(self, tmp_path):
        rng = np.random.default_rng(351)
        unfitted = enrolled_gallery(rng, n=3, samples=2)
        _, plain = snapshot_bytes(tmp_path, unfitted, "plain.bin")
        _, fitted = snapshot_bytes(tmp_path, unfitted.fit(), "fitted.bin")
        # The fitted body adds only the transforms: per transform its id,
        # matrix shape and values, eigenvalue count and values, ridge, flag.
        extra = sum(
            4 + len(fid) + 8 + t.matrix.size * 8 + 4 + t.rank * 8 + 8 + 1
            for fid, t in unfitted.fit().transforms.items()
        )
        assert len(fitted) == len(plain) + extra

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            Gallery.load(tmp_path / "missing.bin")


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
            pytest.param([("", HEIGHTS)], [], "non-empty", id="empty-label"),
            pytest.param(
                [("p", HEIGHTS), ("p", HEIGHTS)], [], "enrolled twice", id="duplicate-label"
            ),
            pytest.param(
                [("a", [("shoe", [[1.0]])])], [], "unknown feature", id="unknown-feature"
            ),
            pytest.param(
                [("a", HEIGHTS + HEIGHTS)], [], "feature twice", id="duplicate-feature"
            ),
            pytest.param([("a", [("height", [[np.nan]])])], [], "non-finite", id="nan"),
            pytest.param(
                [("a", [("height", np.zeros((0, 1)))])], [], "empty 0x1", id="rowless"
            ),
            pytest.param(TWO, [("height", [[np.inf]])], "non-finite", id="inf-transform"),
            pytest.param(TWO, [UNIT, UNIT], "repeats", id="duplicate-transform"),
            pytest.param(TWO, [("build", [[1.0]])], r"widths \[\]", id="unheld"),
            pytest.param(TWO, [("height", [[1.0], [1.0]])], r"widths \[1\]", id="width"),
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

    def test_seeded_mutations_raise_only_library_errors(self, tmp_path):
        # Flip and truncate bytes of a real body, then re-seal it with a
        # valid length and checksum, so the decoder itself meets the damage.
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
        for trial in range(4000):
            mutant = bytearray(body)
            for pos in rng.integers(0, len(body), size=int(rng.integers(1, 4))):
                mutant[pos] ^= int(rng.integers(1, 256))
            if trial % 4 == 0:
                del mutant[int(rng.integers(0, len(body))) :]
            path.write_bytes(with_body(bytes(mutant)))
            try:
                Gallery.load(path)
                outcomes["loaded"] += 1
            except EnexError:
                outcomes["rejected"] += 1
        assert min(outcomes.values()) > 100, outcomes


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
                covered = gallery.covered_features()
                projected = gallery.projected
                for fid in covered:
                    assert set(projected[fid]) == set(shadow)
