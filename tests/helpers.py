"""Builders shared across test modules."""

from __future__ import annotations

import struct
import zlib

import numpy as np

from enexmatch import (
    BuildFeature,
    ClassBlock,
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


def class_block(pairs):
    """A ``ClassBlock`` of (label, samples) pairs in the given order, as float64."""
    return ClassBlock(
        tuple(label for label, _ in pairs),
        [len(samples) for _, samples in pairs],
        np.concatenate([samples for _, samples in pairs], dtype=np.float64),
    )


def with_body(body, magic=b"ENEXGAL3"):
    """A snapshot around ``body`` whose header and checksum are valid."""
    return magic + struct.pack("<Q", len(body)) + body + struct.pack("<I", zlib.crc32(body))


def _text(value):
    raw = value if isinstance(value, bytes) else value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _array(values):
    values = np.asarray(values, dtype="<f8")
    return struct.pack("<II", *values.shape) + values.tobytes()


def _transform_section(transforms, discriminative, eigenvalues, ridge):
    out = struct.pack("<I", len(transforms))
    for fid, matrix in transforms:
        values = np.ones(np.shape(matrix)[1]) if eigenvalues is None else eigenvalues
        values = np.asarray(values, dtype="<f8")
        out += _text(fid) + _array(matrix) + struct.pack("<I", len(values))
        out += values.tobytes() + struct.pack("<dB", ridge, discriminative)
    return out


def trait_record(fid, holders, counts, block, width=None):
    """One ENEXGAL3 trait record; ``width`` defaults to the block's."""
    block = np.asarray(block, dtype="<f8")
    width = block.shape[1] if width is None else width
    return (
        _text(fid)
        + struct.pack("<II", len(holders), width)
        + np.asarray(holders, dtype="<u4").tobytes()
        + np.asarray(counts, dtype="<u4").tobytes()
        + block.tobytes()
    )


def forged_body(
    classes,
    transforms=(),
    fitted=None,
    discriminative=1,
    eigenvalues=None,
    ridge=1e-6,
    records=None,
    label_count=None,
    sizes=None,
):
    """Encode (label, [(fid, samples)]) classes and (fid, matrix) transforms.

    Every class has size 1, or the size ``sizes`` lists for it. A trait's
    record lists its holders in class order, in the order traits first
    appear; ``records`` (raw ``trait_record`` bytes) replaces those
    records and ``label_count`` the declared class count. Each transform
    gets ``eigenvalues`` (default: a 1 per matrix column) and the ridge
    ``ridge``.
    """
    fitted = (1 if transforms else 0) if fitted is None else fitted
    labels = [label if isinstance(label, bytes) else label.encode() for label, _ in classes]
    count = len(classes) if label_count is None else label_count
    out = struct.pack("<BI", fitted, count) + _text(b"\n".join(labels))
    out += np.array(sizes or [1] * len(classes), dtype="<u4").tobytes()
    if records is None:
        holders = {}
        for index, (_, features) in enumerate(classes):
            for fid, samples in features:
                holders.setdefault(fid, []).append((index, np.asarray(samples)))
        records = [
            trait_record(
                fid,
                [index for index, _ in held],
                [len(samples) for _, samples in held],
                np.concatenate([samples for _, samples in held]),
            )
            for fid, held in holders.items()
        ]
    out += struct.pack("<I", len(records)) + b"".join(records)
    return out + _transform_section(transforms, discriminative, eigenvalues, ridge)


def enexgal2_snapshot(gallery):
    """The whole ``ENEXGAL2`` snapshot file of ``gallery``, the layout before ENEXGAL3.

    A frozen copy of that layout's encoder: per class its label, size,
    and one (fid, rows, cols, values) record per trait it holds, in
    sorted trait order; then the transforms as ENEXGAL3 still writes them.
    """
    fitted = gallery.fitted
    out = struct.pack("<BI", 1 if fitted else 0, gallery.n)
    for label in gallery.labels:
        features = {
            fid: samples
            for fid in sorted(("clothing", "height", "build", "complexion"))
            if (samples := gallery.feature_samples(label, fid)) is not None
        }
        out += _text(label) + struct.pack("<II", gallery.class_size(label), len(features))
        out += b"".join(_text(fid) + _array(v) for fid, v in features.items())
    transforms = gallery.transforms
    out += struct.pack("<I", len(transforms))
    for fid in sorted(transforms):
        t = transforms[fid]
        out += _text(fid) + _array(t.matrix) + struct.pack("<I", t.eigenvalues.shape[0])
        out += np.asarray(t.eigenvalues, dtype="<f8").tobytes()
        out += struct.pack("<dB", t.regularization, 1 if t.discriminative else 0)
    return with_body(out, b"ENEXGAL2")
