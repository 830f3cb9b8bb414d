import dataclasses
import multiprocessing
import os
import re
import shutil
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from enexmatch import cli, evaluation
from enexmatch import (
    FEATURE_IDS,
    CMCCurve,
    DatasetManifest,
    ExtractionWorkerError,
    Gallery,
    Image,
    ImageFormatError,
    ManifestEntry,
    ManifestError,
    SilhouetteMask,
    SyntheticConfig,
    UnknownLabelError,
    cmc_csv,
    emit_report,
    evaluate,
    generate_synthetic,
    ingest,
    load_image,
    load_sample,
    parse_report,
    probe_bundles,
    read_manifest,
    save_image,
    save_mask,
    write_manifest,
)
from helpers import held_traits

SMALL = SyntheticConfig(
    subjects=4,
    samples_per_subject=4,
    metric_samples=2,
    probes_per_subject=1,
    seed=11,
)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    return generate_synthetic(SMALL, out)


@pytest.fixture(scope="module")
def two_camera_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("twocam")
    config = SyntheticConfig(
        subjects=3,
        samples_per_subject=3,
        metric_samples=2,
        probes_per_subject=1,
        cameras=2,
        seed=12,
    )
    return generate_synthetic(config, out)


class TestManifestIO:
    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(
            root=tmp_path,
            entries=(
                ManifestEntry(
                    label="s001",
                    role="gallery",
                    image="images/a.ppm",
                    mask="masks/a.pgm",
                    bbox_height=150,
                    bbox_width=30,
                    entrance_ref_height=200,
                    camera_id="c1",
                    view="front",
                ),
                ManifestEntry(label="s001", role="probe", image="images/b.ppm"),
            ),
        )
        path = tmp_path / "manifest.csv"
        write_manifest(manifest, path)
        back = read_manifest(path)
        assert back.entries == manifest.entries
        assert back.root == tmp_path

    def test_any_path_but_nul_survives_a_round_trip(self, tmp_path):
        # write_manifest quotes the comma, quote and line breaks; the other
        # characters split lines for str.splitlines but not for csv.
        paths = ["a,b", 'a"b', "a\nb", "a\r\nb", "a\rb", "a\x0cb", "a\x85b", "a\u2028b", "a b"]
        manifest = DatasetManifest(
            root=tmp_path,
            entries=tuple(
                ManifestEntry(label=f"s{i:03d}", role="gallery", image=f"{p}.ppm", mask=f"{p}.pgm")
                for i, p in enumerate(paths)
            ),
        )
        path = tmp_path / "manifest.csv"
        write_manifest(manifest, path)
        assert read_manifest(path).entries == manifest.entries

    def test_generated_two_camera_manifest_round_trips(self, two_camera_dataset, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(two_camera_dataset, path)
        assert read_manifest(path).entries == two_camera_dataset.entries

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"label": "a b"}, "label 'a b' must be non-empty"),
            ({"role": "galery"}, "bad role 'galery'"),
            ({"view": "side"}, "bad view 'side'"),
            ({"image": ""}, "empty image path"),
            ({"mask": ""}, "empty mask path"),
            ({"camera_id": ""}, "empty camera id"),
            ({"image": "a\0.ppm"}, "a path holds a NUL byte"),
            ({"mask": "m\0.pgm"}, "a path holds a NUL byte"),
            ({"bbox_height": 0}, "bbox_height must be at least 1, got 0"),
            ({"bbox_width": 0}, "bbox_width must be at least 1, got 0"),
            ({"entrance_ref_height": 0}, "entrance_ref_height must be at least 1, got 0"),
            (
                {"bbox_height": 201, "entrance_ref_height": 200},
                "bbox_height 201 exceeds entrance_ref_height 200",
            ),
        ],
        ids=[
            "label",
            "role",
            "view",
            "image",
            "mask",
            "camera_id",
            "image_nul",
            "mask_nul",
            "bbox_height_zero",
            "bbox_width_zero",
            "entrance_ref_height_zero",
            "box_over_entrance",
        ],
    )
    def test_entry_built_in_code_follows_the_row_rules(self, fields, message):
        # Unchecked, a role typo left the row out of both gallery_bundles
        # and probe_bundles, an empty camera id read back as "c1", and a
        # metric below 1 or a box taller than its entrance was written
        # to a manifest that read_manifest then refused.
        row = {"label": "s001", "role": "gallery", "image": "a.ppm", **fields}
        with pytest.raises(ManifestError, match=re.escape(message)):
            ManifestEntry(**row)

    def test_error_names_the_line_its_record_starts_on(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            's000,gallery,"a\nb.ppm",,,,,c1,front\n'
            's001,witness,"c\nd.ppm",,,,,c1,front\n'
        )
        with pytest.raises(ManifestError, match=f"{path} line 4: bad role"):
            read_manifest(path)

    def test_blank_optionals_read_as_none(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            "s001,gallery,images/a.ppm,,,,,c1,front\n"
        )
        entry = read_manifest(path).entries[0]
        assert entry.mask is None
        assert entry.bbox_height is None
        assert entry.entrance_ref_height is None

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("who,what\n")
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_bad_role(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            "s001,witness,images/a.ppm,,,,,c1,front\n"
        )
        with pytest.raises(ManifestError, match="line 2"):
            read_manifest(path)

    def test_bad_view(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            "s001,gallery,images/a.ppm,,,,,c1,sideways\n"
        )
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_bad_integer(self, tmp_path):
        # Only what write_manifest writes: ASCII digits, no sign, space,
        # underscore or other script's digits, all of which int() takes.
        path = tmp_path / "manifest.csv"
        for raw in ("tall", "1_000", " 7 ", "+5", "-5", "\u0663"):
            path.write_text(
                "label,role,image,mask,bbox_height,bbox_width,"
                "entrance_ref_height,camera_id,view\n"
                f"s001,gallery,images/a.ppm,,{raw},,,c1,front\n",
                encoding="utf-8",
            )
            with pytest.raises(ManifestError, match=re.escape(f"{path} line 2: bbox_height")):
                read_manifest(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            "s001,gallery\n"
        )
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError):
            read_manifest(tmp_path / "nope.csv")

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_bytes(
            b"label,role,image,mask,bbox_height,bbox_width,"
            b"entrance_ref_height,camera_id,view\n"
            b"s001,gallery,images/\xe9.ppm,,,,,c1,front\n"
        )
        with pytest.raises(ManifestError, match=f"{path}: not UTF-8"):
            read_manifest(path)

    @pytest.mark.parametrize("image, mask", [("a\0.ppm", ""), ("a.ppm", "m\0.pgm")])
    def test_path_with_a_nul_byte(self, tmp_path, image, mask):
        # The operating system cannot open such a path, so the row is refused.
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            "s000,gallery,b.ppm,,,,,c1,front\n"
            f"s001,gallery,{image},{mask},,,,c1,front\n"
        )
        with pytest.raises(ManifestError, match=f"{path} line 3: a path holds a NUL byte"):
            read_manifest(path)

    def test_field_past_the_csv_limit(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            f"s001,gallery,{'a' * 200_000}.ppm,,,,,c1,front\n"
        )
        with pytest.raises(ManifestError, match=f"{path}: field larger than field limit"):
            read_manifest(path)

    @pytest.mark.parametrize("role", ["gallery", "probe"])
    @pytest.mark.parametrize("label", ["s 001", "s,001", "", "-"])
    def test_label_the_gallery_cannot_hold(self, tmp_path, role, label):
        # The label is quoted, so the CSV reader keeps its space or comma.
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            "s000,gallery,images/a.ppm,,,,,c1,front\n"
            f'"{label}",{role},images/b.ppm,,,,,c1,front\n'
        )
        with pytest.raises(ManifestError, match=f"{path} line 3: label"):
            read_manifest(path)

    @pytest.mark.parametrize("column", ["bbox_height", "bbox_width", "entrance_ref_height"])
    def test_metric_below_one(self, tmp_path, column):
        metrics = {"bbox_height": "40", "bbox_width": "20", "entrance_ref_height": "200"}
        metrics[column] = "0"
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            f"s001,gallery,images/a.ppm,,{','.join(metrics.values())},c1,front\n"
        )
        with pytest.raises(ManifestError, match=f"line 2: {column} must be at least 1"):
            read_manifest(path)

    def test_box_taller_than_its_entrance(self, tmp_path):
        # Refused by line as the manifest is read, before any image of an
        # earlier row is decoded; a box as tall as its entrance is kept.
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            "s000,gallery,images/a.ppm,,200,,200,c1,front\n"
            "s001,gallery,images/b.ppm,,201,,200,c1,front\n"
        )
        message = f"{path} line 3: bbox_height 201 exceeds entrance_ref_height 200"
        with pytest.raises(ManifestError, match=re.escape(message)):
            read_manifest(path)

    def test_cameras_disagree_on_observation_count(self, tmp_path):
        # No image exists: the rule is checked on the manifest as a whole,
        # before any row is decoded. Another role's rows do not count.
        path = tmp_path / "manifest.csv"
        path.write_text(
            "label,role,image,mask,bbox_height,bbox_width,"
            "entrance_ref_height,camera_id,view\n"
            "s000,gallery,a.ppm,,,,,c1,front\n"
            "s000,gallery,b.ppm,,,,,c2,front\n"
            "s000,probe,c.ppm,,,,,c2,front\n"
            "s001,probe,d.ppm,,,,,c1,front\n"
            "s001,probe,e.ppm,,,,,c1,front\n"
            "s001,probe,f.ppm,,,,,c2,front\n"
        )
        message = "label 's001' (probe): cameras disagree on observation count (c1 2, c2 1)"
        with pytest.raises(ManifestError, match=re.escape(message)):
            read_manifest(path)

    def test_missing_image_fails_at_load(self, tmp_path):
        entry = ManifestEntry(label="s001", role="probe", image="images/gone.ppm")
        with pytest.raises(ManifestError):
            load_sample(entry, tmp_path)

    @pytest.mark.parametrize(
        "fields",
        [
            # The metric cases fields1 to fields3 moved to
            # test_entry_built_in_code_follows_the_row_rules; the ids keep
            # the names the mask cases had beside them.
            pytest.param({"mask": "small.pgm"}, id="fields0"),
            pytest.param({"mask": "gone.pgm"}, id="fields4"),
        ],
    )
    def test_inconsistent_row_fails_at_load(self, tmp_path, fields):
        image = Image(np.zeros((6, 4, 3), dtype=np.uint8))
        save_image(image, tmp_path / "a.ppm")
        save_mask(SilhouetteMask(np.ones((5, 4), dtype=bool)), tmp_path / "small.pgm")
        entry = ManifestEntry(label="s001", role="probe", image="a.ppm", **fields)
        with pytest.raises(ManifestError, match="'a.ppm'"):
            load_sample(entry, tmp_path)


class TestGenerator:
    def test_row_counts(self, small_dataset):
        per_subject = SMALL.samples_per_subject + SMALL.probes_per_subject
        assert len(small_dataset.entries) == SMALL.subjects * per_subject
        roles = [e.role for e in small_dataset.entries]
        assert roles.count("gallery") == SMALL.subjects * SMALL.samples_per_subject
        assert roles.count("probe") == SMALL.subjects * SMALL.probes_per_subject

    def test_files_exist_and_parse(self, small_dataset):
        for entry in small_dataset.entries:
            image = load_image(small_dataset.root / entry.image)
            assert image.height == SMALL.image_height
            assert image.width == SMALL.image_width

    def test_metric_rows(self, small_dataset):
        for label in sorted({e.label for e in small_dataset.entries}):
            rows = [
                e
                for e in small_dataset.entries
                if e.label == label and e.role == "gallery"
            ]
            with_metrics = [e for e in rows if e.mask is not None]
            assert len(with_metrics) == SMALL.metric_samples
            for e in with_metrics:
                assert e.bbox_height is not None
                assert e.bbox_width is not None
                assert e.entrance_ref_height == 200
        probes = [e for e in small_dataset.entries if e.role == "probe"]
        assert all(e.mask is not None for e in probes)

    def test_determinism(self, tmp_path):
        config = SyntheticConfig(
            subjects=2,
            samples_per_subject=2,
            metric_samples=1,
            pixel_noise=4.0,
            chroma_noise=2.0,
            height_noise=1.0,
            seed=77,
        )
        first = generate_synthetic(config, tmp_path / "a")
        second = generate_synthetic(config, tmp_path / "b")
        assert [e.image for e in first.entries] == [e.image for e in second.entries]
        assert (tmp_path / "a" / "manifest.csv").read_bytes() == (
            tmp_path / "b" / "manifest.csv"
        ).read_bytes()
        for entry in first.entries:
            a = (tmp_path / "a" / entry.image).read_bytes()
            b = (tmp_path / "b" / entry.image).read_bytes()
            assert a == b

    def test_seed_changes_output(self, tmp_path):
        base = SyntheticConfig(subjects=2, samples_per_subject=1, metric_samples=1, seed=1)
        other = SyntheticConfig(subjects=2, samples_per_subject=1, metric_samples=1, seed=2)
        a = generate_synthetic(base, tmp_path / "a")
        b = generate_synthetic(other, tmp_path / "b")
        image = a.entries[0].image
        assert (tmp_path / "a" / image).read_bytes() != (
            tmp_path / "b" / image
        ).read_bytes()

    def test_zero_noise_repeats_frames_exactly(self, small_dataset):
        # Without noise every front-view frame of a subject is identical.
        rows = [
            e
            for e in small_dataset.entries
            if e.label == "s001" and e.role == "gallery"
        ]
        blobs = {(small_dataset.root / e.image).read_bytes() for e in rows}
        assert len(blobs) == 1

    def test_subjects_are_distinct(self, small_dataset):
        firsts = {}
        for entry in small_dataset.entries:
            if entry.role == "gallery" and entry.label not in firsts:
                firsts[entry.label] = (small_dataset.root / entry.image).read_bytes()
        blobs = list(firsts.values())
        assert len(set(blobs)) == len(blobs)

    def test_two_cameras_pair_rows(self, two_camera_dataset):
        cameras = {e.camera_id for e in two_camera_dataset.entries}
        assert cameras == {"c1", "c2"}
        c2_rows = [e for e in two_camera_dataset.entries if e.camera_id == "c2"]
        assert all(e.mask is None and e.bbox_height is None for e in c2_rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(subjects=1)
        with pytest.raises(ValueError):
            SyntheticConfig(subjects=2, metric_samples=9, samples_per_subject=3)
        with pytest.raises(ValueError):
            SyntheticConfig(subjects=2, clothing_change_prob=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(subjects=2, pixel_noise=-1.0)
        with pytest.raises(ValueError):
            SyntheticConfig(subjects=2, cameras=3)
        with pytest.raises(ValueError):
            SyntheticConfig(subjects=2, image_height=4)
        # No reader loads a frame above imaging.MAX_PIXELS (2**26 pixels).
        with pytest.raises(ValueError, match="pixel budget"):
            SyntheticConfig(subjects=2, image_height=8193, image_width=8192)
        SyntheticConfig(subjects=2, image_height=8192, image_width=8192)


class TestIngest:
    def test_gallery_and_probe_split(self, small_dataset):
        gallery_map, probes = ingest(small_dataset)
        assert sorted(gallery_map) == ["s001", "s002", "s003", "s004"]
        assert all(
            len(bundles) == SMALL.samples_per_subject
            for bundles in gallery_map.values()
        )
        assert len(probes) == SMALL.subjects
        assert sorted(p.label for p in probes) == sorted(gallery_map)

    def test_bundle_feature_shapes(self, small_dataset):
        gallery_map, probes = ingest(small_dataset)
        bundle = gallery_map["s001"][0]
        assert bundle.feature_vector("clothing").shape == (96,)
        assert bundle.feature_vector("complexion").shape == (2,)
        metric_count = sum(
            1 for b in gallery_map["s001"] if b.feature_vector("height") is not None
        )
        assert metric_count == SMALL.metric_samples
        assert all(p.feature_vector("height") is not None for p in probes)
        assert all(p.feature_vector("build") is not None for p in probes)

    def test_probe_bundles_shortcut(self, small_dataset):
        probes = probe_bundles(small_dataset)
        assert len(probes) == SMALL.subjects
        assert all(p.label for p in probes)

    def test_manifest_path_accepted(self, small_dataset):
        gallery_map, probes = ingest(small_dataset.root / "manifest.csv")
        assert len(probes) == SMALL.subjects
        assert len(gallery_map) == SMALL.subjects

    def test_two_camera_fusion_widens_features(self, two_camera_dataset):
        gallery_map, probes = ingest(two_camera_dataset)
        bundle = probes[0]
        assert bundle.feature_vector("clothing").shape == (192,)
        assert bundle.feature_vector("complexion").shape == (4,)
        # Metrics exist once per observation, from the entrance camera.
        assert bundle.feature_vector("height").shape == (1,)

    def test_camera_count_mismatch(self, two_camera_dataset, tmp_path):
        kept = [
            e
            for i, e in enumerate(two_camera_dataset.entries)
            if not (e.camera_id == "c2" and e.role == "gallery" and i < 4)
        ]
        with pytest.raises(ManifestError, match=r"label 's001' \(gallery\): cameras disagree"):
            DatasetManifest(root=two_camera_dataset.root, entries=tuple(kept))

    def test_open_set_probe_rejected(self, small_dataset):
        extra = ManifestEntry(
            label="intruder",
            role="probe",
            image=small_dataset.entries[0].image,
        )
        open_set = DatasetManifest(
            root=small_dataset.root,
            entries=small_dataset.entries + (extra,),
        )
        with pytest.raises(ManifestError, match="intruder"):
            ingest(open_set)

    def test_open_set_fails_before_any_image_is_read(self, small_dataset, tmp_path):
        # s003's probe is relabelled and one of its gallery frames is gone:
        # the closed-set rule, not the missing frame, is the error.
        data = tmp_path / "data"
        shutil.copytree(small_dataset.root, data)
        (data / "images" / "s003_g000_c1.ppm").unlink()
        entries = tuple(
            dataclasses.replace(e, label="zz") if (e.label, e.role) == ("s003", "probe") else e
            for e in small_dataset.entries
        )
        message = "probe labels missing from the gallery: ['zz']"
        with pytest.raises(ManifestError, match=re.escape(message)):
            ingest(DatasetManifest(root=data, entries=entries))

    def test_back_view_probe_has_no_complexion(self, tmp_path):
        config = SyntheticConfig(
            subjects=2,
            samples_per_subject=2,
            metric_samples=1,
            back_view_prob=1.0,
            seed=5,
        )
        manifest = generate_synthetic(config, tmp_path)
        _, probes = ingest(manifest)
        assert all(p.feature_vector("complexion") is None for p in probes)
        assert all(p.feature_vector("clothing") is not None for p in probes)


# Observations per chunk in TestParallelIngest: the two-camera set below
# then spans eight gallery chunks and three probe chunks.
SMALL_CHUNK = 5


@pytest.fixture(scope="module")
def chunked_dataset(tmp_path_factory):
    # Two of each subject's six gallery observations carry a mask and box
    # metrics on camera c1; every other row has neither.
    config = SyntheticConfig(
        subjects=6,
        samples_per_subject=6,
        metric_samples=2,
        probes_per_subject=2,
        cameras=2,
        pixel_noise=4.0,
        chroma_noise=3.0,
        seed=13,
    )
    return generate_synthetic(config, tmp_path_factory.mktemp("chunked"))


# The process the tests run in, which no stand-in for a worker may end.
TEST_PID = os.getpid()


def die_in_worker(root, observations):
    """Stands in for ``evaluation._extract``: the forked worker ends at once."""
    assert os.getpid() != TEST_PID, "ran in the test process"
    os._exit(1)


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def counted_pools(monkeypatch):
    """Record each pool ``_observations`` makes, as its worker count."""
    made = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            made.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", Pool)
    return made


def ingest_both_ways(monkeypatch, manifest):
    """(in-process result or error, pool result or error) of one ingest."""
    monkeypatch.setattr(evaluation, "_CHUNK", SMALL_CHUNK)
    outcomes = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        made = counted_pools(monkeypatch)
        try:
            outcomes.append(ingest(manifest))
        except Exception as exc:
            outcomes.append(exc)
        assert multiprocessing.active_children() == []
        assert bool(made) == (cpus == 2)
    return outcomes


def damaged_copy(dataset, tmp_path, deleted=(), garbled=()):
    copy = tmp_path / "data"
    shutil.copytree(dataset.root, copy)
    for name in deleted:
        (copy / "images" / name).unlink()
    for name in garbled:
        (copy / "images" / name).write_bytes(b"not an image")
    return read_manifest(copy / "manifest.csv")


class TestParallelIngest:
    def test_pool_bundles_equal_in_process_bundles(self, chunked_dataset, monkeypatch):
        (serial, serial_probes), (pooled, pooled_probes) = ingest_both_ways(
            monkeypatch, chunked_dataset
        )
        assert list(pooled) == list(serial)
        pairs = [
            *zip(serial_probes, pooled_probes, strict=True),
            *(
                pair
                for label in serial
                for pair in zip(serial[label], pooled[label], strict=True)
            ),
        ]
        assert len(pairs) == 6 * 6 + 6 * 2
        for a, b in pairs:
            assert a.label == b.label
            for fid in FEATURE_IDS:
                va, vb = a.feature_vector(fid), b.feature_vector(fid)
                assert (va is None) == (vb is None)
                if va is not None:
                    assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes()
        # Both kinds of row were extracted: with and without a mask.
        assert {held_traits(b) for b in serial["s001"]} == {
            FEATURE_IDS,
            ("clothing", "complexion"),
        }

    def test_error_in_a_later_chunk(self, chunked_dataset, tmp_path, monkeypatch):
        # Gallery observation 27 (s005, sample 3) sits in the sixth chunk.
        manifest = damaged_copy(chunked_dataset, tmp_path, garbled=["s005_g003_c2.ppm"])
        serial, pooled = ingest_both_ways(monkeypatch, manifest)
        assert isinstance(serial, ImageFormatError)
        assert type(pooled) is type(serial)
        assert str(pooled) == str(serial)
        assert "s005_g003_c2.ppm" in str(serial)

    def test_the_earlier_chunks_error_wins(self, chunked_dataset, tmp_path, monkeypatch):
        # Observation 12 (s003, sample 0) is in the third chunk.
        manifest = damaged_copy(
            chunked_dataset,
            tmp_path,
            deleted=["s003_g000_c1.ppm"],
            garbled=["s005_g003_c2.ppm"],
        )
        serial, pooled = ingest_both_ways(monkeypatch, manifest)
        assert isinstance(serial, ManifestError)
        assert type(pooled) is type(serial)
        assert str(pooled) == str(serial)
        assert "s003_g000_c1.ppm" in str(serial)

    @pytest.mark.parametrize(
        "chunk,cpus,pools",
        [
            (SMALL_CHUNK, 4, [4, 3]),  # eight gallery chunks, then three probe chunks
            (SMALL_CHUNK, 1, []),  # one usable CPU
            (64, 4, []),  # one chunk per role
        ],
    )
    def test_one_worker_per_usable_cpu_and_chunk(
        self, chunked_dataset, monkeypatch, chunk, cpus, pools
    ):
        monkeypatch.setattr(evaluation, "_CHUNK", chunk)
        usable_cpus(monkeypatch, cpus)
        made = counted_pools(monkeypatch)
        gallery_map, probes = ingest(chunked_dataset)
        assert made == pools
        assert sum(map(len, gallery_map.values())) == 36 and len(probes) == 12

    def test_a_dead_worker_is_an_error_line(self, chunked_dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(evaluation, "_CHUNK", SMALL_CHUNK)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(evaluation, "_extract", die_in_worker)
        with pytest.raises(ExtractionWorkerError, match="^a worker extracting gallery "):
            ingest(chunked_dataset)
        assert multiprocessing.active_children() == []
        snapshot = tmp_path / "g.bin"
        manifest = chunked_dataset.root / "manifest.csv"
        code = cli.main(["enroll", "--manifest", str(manifest), "--snapshot", str(snapshot)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: a worker extracting gallery observations ended without a result\n"
        )
        assert not snapshot.exists()

    def test_no_pool_without_fork(self, chunked_dataset, monkeypatch):
        monkeypatch.setattr(evaluation, "_CHUNK", SMALL_CHUNK)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(evaluation, "get_all_start_methods", lambda: ["spawn"])
        made = counted_pools(monkeypatch)
        ingest(chunked_dataset)
        assert made == []


class TestCMC:
    def test_accuracy_lookup(self):
        curve = CMCCurve((0.25, 0.5, 0.75, 1.0))
        assert curve.accuracy(1) == 0.25
        assert curve.accuracy(3) == 0.75
        assert curve.accuracy(4) == 1.0
        assert curve.accuracy(99) == 1.0

    def test_rank_below_one(self):
        with pytest.raises(ValueError):
            CMCCurve((1.0,)).accuracy(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CMCCurve(())
        with pytest.raises(ValueError):
            CMCCurve((0.5, 0.4, 1.0))
        with pytest.raises(ValueError):
            CMCCurve((0.5, 1.2))
        with pytest.raises(ValueError):
            CMCCurve((0.2, 0.9))

    def test_perfect_curve(self):
        curve = CMCCurve((1.0, 1.0))
        assert curve.accuracy(1) == 1.0


class TestEvaluate:
    def test_clean_dataset_is_solved(self, small_dataset):
        gallery_map, probes = ingest(small_dataset)
        curve = evaluate(gallery_map, probes)
        assert len(curve.accuracies) == SMALL.subjects
        assert len(probes) == SMALL.subjects
        assert curve.accuracy(1) == 1.0
        assert curve.accuracies[-1] == 1.0

    def test_feature_subset(self, small_dataset):
        gallery_map, probes = ingest(small_dataset)
        curve = evaluate(gallery_map, probes, features=("clothing",))
        assert len(curve.accuracies) == SMALL.subjects
        assert curve.accuracy(1) == 1.0

    def test_unknown_probe_label(self, small_dataset, monkeypatch):
        # The labels are checked before any class is enrolled or fitted.
        def no_fit(self):
            raise AssertionError("evaluate fitted a gallery before checking probe labels")

        monkeypatch.setattr(Gallery, "fit", no_fit)
        gallery_map, probes = ingest(small_dataset)
        renamed = [p.restrict(held_traits(p)) for p in probes]
        stranger = type(probes[0])(
            clothing=probes[0].clothing,
            height=probes[0].height,
            build=probes[0].build,
            complexion=probes[0].complexion,
            label="stranger",
        )
        with pytest.raises(UnknownLabelError):
            evaluate(gallery_map, list(renamed[:1]) + [stranger])

    def test_no_probes(self, small_dataset):
        gallery_map, _ = ingest(small_dataset)
        with pytest.raises(ValueError):
            evaluate(gallery_map, [])

    def test_clothing_change_hurts_clothing_more_than_ensemble(self, tmp_path):
        config = SyntheticConfig(
            subjects=8,
            samples_per_subject=6,
            metric_samples=3,
            probes_per_subject=2,
            clothing_change_prob=1.0,
            pixel_noise=4.0,
            chroma_noise=1.0,
            height_noise=1.0,
            build_noise=0.5,
            seed=31,
        )
        gallery_map, probes = ingest(generate_synthetic(config, tmp_path))
        alone = evaluate(gallery_map, probes, features=("clothing",))
        ensemble = evaluate(gallery_map, probes)
        assert ensemble.accuracy(1) >= alone.accuracy(1)
        assert ensemble.accuracy(5) >= alone.accuracy(5)


class TestReports:
    def test_emit_layout(self):
        text = emit_report(
            [("all-features", {1: 0.5, 5: 0.75, 10: 1.0})], ks=(1, 5, 10)
        )
        lines = text.splitlines()
        assert lines[0] == "Rank                    1      5     10"
        assert lines[1] == "all-features        0.500  0.750  1.000"
        assert text.endswith("\n")

    def test_three_decimal_cells(self):
        text = emit_report([("proposed", {1: 0.231, 5: 0.489, 10: 0.867})])
        assert "0.231  0.489  0.867" in text
        assert text.splitlines()[1] == "proposed            0.231  0.489  0.867"

    def test_long_names_widen_column(self):
        name = "clothing+height+build+complexion"
        text = emit_report([(name, {1: 1.0})], ks=(1,))
        lines = text.splitlines()
        assert lines[1].startswith(name + "  ")
        assert len(lines[0].split()) == 2

    def test_round_trip(self):
        rows = [
            ("clothing", {1: 0.231, 5: 0.489, 10: 0.867}),
            ("all-features", {1: 0.412, 5: 0.77, 10: 0.95}),
        ]
        parsed = parse_report(emit_report(rows))
        assert parsed[0][0] == "clothing"
        assert parsed[0][1] == {1: 0.231, 5: 0.489, 10: 0.867}
        assert parsed[1][1][5] == pytest.approx(0.77)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_report("")
        with pytest.raises(ValueError):
            parse_report("not a report\n")
        with pytest.raises(ValueError):
            parse_report("Rank\nall 1.0\n")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_report([])

    def test_cmc_csv(self):
        assert cmc_csv(CMCCurve((0.5, 1.0))) == "k,accuracy\n1,0.500000\n2,1.000000\n"
