"""Byte-level pins on the match report text and the snapshot format.

The digests were taken from the per-class matching loops that preceded
the packed, vectorized matcher, on the seeded dataset below. A change
that alters any rank, confidence, order, or snapshot byte fails here.
"""

import hashlib

from enexmatch import Gallery, SyntheticConfig, generate_synthetic, ingest, match_probe

REPORTS_SHA256 = "ae8ee35ba09933d284194565d5cd3d6ca67717fb45f04715810274c149bb24ea"
SNAPSHOT_SHA256 = "aed29f76bf5a5eab28a10ee45b74534f49b833c9118d6f862933b2c142abd519"


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
