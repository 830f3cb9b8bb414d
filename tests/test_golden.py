"""Byte-level pins on the match report text and the snapshot format.

The report digest was taken from the per-class matching loops that
preceded the packed, vectorized matcher, on the seeded dataset below. A
change that alters any rank, confidence, order, or snapshot byte fails
here.

The snapshot digest is of the columnar ``ENEXGAL5`` layout, which holds
the label table, one raw-sample block per trait and one transform slot
per trait, each float array 8-byte aligned (521,549 bytes with header
and checksum).
The loaded gallery, written again in the older per-class ``ENEXGAL2``
layout by a frozen copy of its encoder (a class's size taken as its
largest trait row count), still hashes to that layout's pin (535,990
bytes), so the current layout stores every sample and transform byte
the older one stored. Both snapshot pins were last taken when wide
traits moved to a two-product fit that keeps no direction of rounding
noise: the clothing transform went from 55 columns to 52.

The resize digests pin frames that go through ``normalize_size``'s
resampling (256x128 down to 128x64, two cameras); they were taken from
the per-frame index-and-weight resampler that preceded the planned one,
and now also pin the exact integer resampler that replaced the float64
one, and the chroma-only conversion.

The generator and evaluation pins hash every file ``generate_synthetic``
writes for a small two-camera set with every noise and probability
field non-zero, and the bytes ``enexmatch evaluate`` writes for it.
"""

import hashlib

import numpy as np

from enexmatch import Gallery, SyntheticConfig, generate_synthetic, ingest, match_probe
from enexmatch.cli import main
from helpers import enexgal2_snapshot

REPORTS_SHA256 = "ae8ee35ba09933d284194565d5cd3d6ca67717fb45f04715810274c149bb24ea"
SNAPSHOT_SHA256 = "7dcfcda4d6d4e388a298fa22090a95298963aec40f196e87aed75c4e31ef177f"
ENEXGAL2_SNAPSHOT_SHA256 = "7e37b7840546da3de0e5cfb93056b2796c895d2be5153dcc93ee0201c6a444a2"

RESIZED_CLOTHING_SHA256 = "f5cb70c850b346f5401dbd7a5b98ae918f5e469e69117ff89f4409645b964a9e"
RESIZED_COMPLEXION_SHA256 = "9e25fcfcbde86cbf8fc05d869e273af5cd44d1e3fad5031233a9f0b9d8b79c1e"
RESIZED_REPORTS_SHA256 = "8ddbe3201550c1462de110153946d0f410bc7b1f23d3a48bf2a0ca9eab173449"

GENERATED_FILES_SHA256 = "b6a799d1298054360a231b036f0f2c25d878acdb005e70cd7c41de37b2cc769f"
EVALUATE_CMC_CSV_SHA256 = "1de4a6675111cbcb65b07d8122a613010c51720dbefebda069f081de9da4d7ad"
NOISY_TWO_CAMERAS = SyntheticConfig(
    subjects=12,
    samples_per_subject=3,
    metric_samples=2,
    probes_per_subject=2,
    clothing_change_prob=0.5,
    back_view_prob=0.5,
    pixel_noise=12.0,
    height_noise=8.0,
    build_noise=4.0,
    chroma_noise=10.0,
    cameras=2,
    seed=77,
)


def test_reports_and_snapshot_bytes_are_pinned(tmp_path):
    config = SyntheticConfig(
        subjects=200,
        samples_per_subject=3,
        metric_samples=2,
        probes_per_subject=1,
        clothing_change_prob=0.2,
        back_view_prob=0.2,
        pixel_noise=4.0,
        height_noise=2.0,
        build_noise=1.0,
        chroma_noise=3.0,
        seed=20261018,
    )
    gallery_map, probes = ingest(generate_synthetic(config, tmp_path / "data"))
    gallery = Gallery()
    for label, bundles in gallery_map.items():
        gallery = gallery.enroll(label, bundles)
    gallery = gallery.fit()
    # Back views hide all skin, so some probes rank without complexion.
    assert any(probe.feature_vector("complexion") is None for probe in probes)

    text = "".join(match_probe(probe, gallery).to_text() for probe in probes)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORTS_SHA256

    path = tmp_path / "gallery.bin"
    gallery.save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SNAPSHOT_SHA256
    loaded = Gallery.load(path)
    assert loaded == gallery
    previous = enexgal2_snapshot(loaded)
    assert hashlib.sha256(previous).hexdigest() == ENEXGAL2_SNAPSHOT_SHA256


def test_resized_frames_are_pinned(tmp_path):
    config = SyntheticConfig(
        subjects=30,
        samples_per_subject=2,
        metric_samples=2,
        probes_per_subject=1,
        clothing_change_prob=0.2,
        back_view_prob=0.2,
        pixel_noise=4.0,
        height_noise=2.0,
        build_noise=1.0,
        chroma_noise=3.0,
        cameras=2,
        image_height=256,
        image_width=128,
        seed=20261019,
    )
    gallery_map, probes = ingest(generate_synthetic(config, tmp_path / "data"))
    bundles = [b for group in gallery_map.values() for b in group] + probes
    clothing = hashlib.sha256()
    complexion = hashlib.sha256()
    for bundle in bundles:
        clothing.update(bundle.clothing.values.tobytes())
        complexion.update(np.asarray(bundle.complexion.means, dtype=np.float64).tobytes())
        complexion.update(b"\x01" if bundle.complexion.valid else b"\x00")
    assert clothing.hexdigest() == RESIZED_CLOTHING_SHA256
    assert complexion.hexdigest() == RESIZED_COMPLEXION_SHA256

    gallery = Gallery()
    for label, group in gallery_map.items():
        gallery = gallery.enroll(label, group)
    gallery = gallery.fit()
    text = "".join(match_probe(probe, gallery).to_text() for probe in probes)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RESIZED_REPORTS_SHA256


def test_generated_files_are_pinned(tmp_path):
    out = tmp_path / "data"
    generate_synthetic(NOISY_TWO_CAMERAS, out)
    files = sorted(path for path in out.rglob("*") if path.is_file())
    # 120 frames, 48 masks and the manifest.
    assert len(files) == 169
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == GENERATED_FILES_SHA256


def test_evaluate_output_is_pinned(tmp_path, capsys):
    generate_synthetic(NOISY_TWO_CAMERAS, tmp_path / "data")
    curve = tmp_path / "cmc.csv"
    argv = ["evaluate", "--manifest", str(tmp_path / "data" / "manifest.csv")]
    # Rank 30 lies beyond the 12 classes and reads the curve's end.
    assert main(argv + ["--ranks", "1,2,5,30", "--cmc-csv", str(curve)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "Rank                    1      2      5     30\n"
        "all-features        0.708  0.792  1.000  1.000\n"
    )
    assert captured.err == "evaluated 24 probes against 12 classes\n"
    assert hashlib.sha256(curve.read_bytes()).hexdigest() == EVALUATE_CMC_CSV_SHA256
