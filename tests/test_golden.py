"""Byte-level pins on the match report text and the snapshot format.

The report digest was taken from the per-class matching loops that
preceded the packed, vectorized matcher, on the seeded dataset below. A
change that alters any rank, confidence, order, or snapshot byte fails
here.

The snapshot digest is of the ``ENEXGAL2`` layout. Its body is the
previous ``ENEXGAL1`` body (sha256 aed29f76...abd519, 831,183 bytes
with header and checksum) cut just before the per-class projection
section, which is now derived on load (538,318 bytes); samples and
fitted transforms are byte for byte the same.
"""

import hashlib

from enexmatch import Gallery, SyntheticConfig, generate_synthetic, ingest, match_probe

REPORTS_SHA256 = "ae8ee35ba09933d284194565d5cd3d6ca67717fb45f04715810274c149bb24ea"
SNAPSHOT_SHA256 = "f5861526f8de167f1e87b4c9e0a03069e1e88fa0b7fdc1b9a9e3db087578ce49"


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
    assert Gallery.load(path) == gallery
