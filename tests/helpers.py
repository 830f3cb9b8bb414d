"""Builders shared across test modules."""

from __future__ import annotations

import struct
import zlib

import numpy as np

from enexmatch import (
    BuildFeature,
    ClothingHistogram,
    ComplexionFeature,
    FeatureBundle,
    Gallery,
    HeightFeature,
    Image,
    SilhouetteMask,
    YCbCrImage,
)


def random_image(rng: np.random.Generator, height: int = 128, width: int = 64) -> Image:
    return Image(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


def random_ycbcr(rng: np.random.Generator, height: int = 128, width: int = 64) -> YCbCrImage:
    return YCbCrImage(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


def random_mask(
    rng: np.random.Generator, height: int = 64, width: int = 32, density: float = 0.4
) -> SilhouetteMask:
    return SilhouetteMask(rng.random((height, width)) < density)


def random_clothing(rng: np.random.Generator, cameras: int = 1) -> ClothingHistogram:
    blocks = []
    for _ in range(4 * cameras):
        raw = rng.random(24) + 1e-6
        blocks.append(raw / raw.sum())
    return ClothingHistogram(np.concatenate(blocks))


def random_bundle(
    rng: np.random.Generator,
    label: str | None = None,
    features: tuple[str, ...] = ("clothing", "height", "build", "complexion"),
) -> FeatureBundle:
    return FeatureBundle(
        clothing=random_clothing(rng) if "clothing" in features else None,
        height=HeightFeature(float(rng.uniform(0.3, 1.0))) if "height" in features else None,
        build=BuildFeature(float(rng.uniform(1.5, 6.0))) if "build" in features else None,
        complexion=(
            ComplexionFeature(
                (float(rng.uniform(80, 124)), float(rng.uniform(136, 170))), valid=True
            )
            if "complexion" in features
            else None
        ),
        label=label,
    )


def enrolled_gallery(
    rng: np.random.Generator,
    n: int = 4,
    samples: int = 3,
    features: tuple[str, ...] = ("clothing", "height", "build", "complexion"),
) -> Gallery:
    gallery = Gallery()
    for i in range(n):
        label = f"p{i + 1:02d}"
        bundles = [random_bundle(rng, label=label, features=features) for _ in range(samples)]
        gallery = gallery.enroll(label, bundles)
    return gallery


def with_body(body, magic=b"ENEXGAL2"):
    """A snapshot around ``body`` whose header and checksum are valid."""
    return magic + struct.pack("<Q", len(body)) + body + struct.pack("<I", zlib.crc32(body))


def _text(value):
    raw = value if isinstance(value, bytes) else value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _array(values):
    values = np.asarray(values, dtype="<f8")
    return struct.pack("<II", *values.shape) + values.tobytes()


def forged_body(
    classes, transforms=(), fitted=None, discriminative=1, eigenvalues=None, ridge=1e-6
):
    """Encode (label, [(fid, samples)]) classes and (fid, matrix) transforms.

    Each transform gets ``eigenvalues`` (default: a 1 per matrix column)
    and the ridge ``ridge``.
    """
    fitted = (1 if transforms else 0) if fitted is None else fitted
    out = struct.pack("<BI", fitted, len(classes))
    for label, features in classes:
        out += _text(label) + struct.pack("<II", 1, len(features))
        out += b"".join(_text(fid) + _array(v) for fid, v in features)
    out += struct.pack("<I", len(transforms))
    for fid, matrix in transforms:
        values = np.ones(np.shape(matrix)[1]) if eigenvalues is None else eigenvalues
        values = np.asarray(values, dtype="<f8")
        out += _text(fid) + _array(matrix) + struct.pack("<I", len(values))
        out += values.tobytes() + struct.pack("<dB", ridge, discriminative)
    return out
