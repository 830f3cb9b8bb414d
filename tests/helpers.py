"""Builders shared across test modules."""

from __future__ import annotations

import struct
import zlib

import numpy as np

from enexmatch import (
    FEATURE_IDS,
    BuildFeature,
    ChromaImage,
    ClassBlock,
    ClothingHistogram,
    ComplexionFeature,
    FeatureBundle,
    Gallery,
    HeightFeature,
    Image,
    SilhouetteMask,
)
from enexmatch.gallery import MAGIC


def random_image(rng: np.random.Generator, height: int = 128, width: int = 64) -> Image:
    return Image(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


def random_chroma(rng: np.random.Generator, height: int = 128, width: int = 64) -> ChromaImage:
    return ChromaImage(rng.integers(0, 256, size=(2, height, width), dtype=np.uint8))


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


def held_traits(bundle: FeatureBundle) -> tuple[str, ...]:
    """The traits a bundle holds a vector for, in ``FEATURE_IDS`` order."""
    return tuple(fid for fid in FEATURE_IDS if bundle.feature_vector(fid) is not None)


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


def with_body(body, magic=MAGIC):
    """A snapshot around ``body`` whose header and checksum are valid."""
    return magic + struct.pack("<Q", len(body)) + body + struct.pack("<I", zlib.crc32(body))


def _text(value):
    raw = value if isinstance(value, bytes) else value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _array(values):
    values = np.asarray(values, dtype="<f8")
    return struct.pack("<II", *values.shape) + values.tobytes()


def _assemble(parts, padding):
    """Join byte strings and float arrays; each array starts at a multiple
    of 8, after bytes of the value ``padding``."""
    out = b""
    for part in parts:
        if isinstance(part, np.ndarray):
            out += bytes([padding]) * (-len(out) % 8) + part.astype("<f8").tobytes()
        else:
            out += part
    return out


def trait_record(counts, block, width=None):
    """One ENEXGAL5 trait record, as ``forged_body`` parts: every class's row
    count and the sample block; ``width`` defaults to the block's."""
    block = np.asarray(block, dtype="<f8")
    width = block.shape[1] if width is None else width
    return [struct.pack("<I", width), np.asarray(counts, dtype="<u4").tobytes(), block]


def forged_body(
    classes,
    transforms=(),
    fitted=None,
    discriminative=1,
    eigenvalues=None,
    ridge=1e-6,
    records=None,
    table=None,
    padding=0,
):
    """Encode (label, [(fid, samples)]) classes and (fid, matrix) transforms.

    ``records`` maps a trait id to ``trait_record`` parts that replace its
    record, and ``table`` replaces the label table's bytes.
    A trait's transform slot is written once per matrix given for it, so
    a trait named twice gets two slots. Each transform gets
    ``eigenvalues`` (default: a 1 per matrix column) and the ridge
    ``ridge``; every padding byte holds ``padding``.
    """
    fitted = (1 if transforms else 0) if fitted is None else fitted
    labels = [label if isinstance(label, bytes) else label.encode() for label, _ in classes]
    table = b"\n".join(labels) if table is None else table
    parts = [struct.pack("<B", fitted), _text(table)]
    for fid in FEATURE_IDS:
        held = [dict(features).get(fid) for _, features in classes]
        rows = [np.asarray(samples) for samples in held if samples is not None]
        parts += (records or {}).get(fid) or trait_record(
            [0 if samples is None else len(samples) for samples in held],
            np.concatenate(rows) if rows else np.empty((0, 0)),
        )
    for fid in FEATURE_IDS:
        matrices = [np.asarray(m, dtype="<f8") for f, m in transforms if f == fid]
        if not matrices:
            parts.append(struct.pack("<I", 0))
        for matrix in matrices:
            values = np.ones(matrix.shape[1]) if eigenvalues is None else eigenvalues
            parts += [struct.pack("<I", matrix.shape[1]), matrix, np.asarray(values)]
            parts.append(struct.pack("<dB", ridge, discriminative))
    return _assemble(parts, padding)


def enexgal2_snapshot(gallery):
    """The whole ``ENEXGAL2`` snapshot file of ``gallery``, three layouts before ENEXGAL5.

    A frozen copy of that layout's encoder: per class its label, size,
    and one (fid, rows, cols, values) record per trait it holds, in
    sorted trait order; then the transform count and per transform, in
    sorted order, its id, shaped matrix, eigenvalue count and values,
    ridge and flag. A gallery stores no class sizes, so a class's
    size is taken as its largest trait row count.
    """
    fitted = gallery.fitted
    out = struct.pack("<BI", 1 if fitted else 0, gallery.n)
    for label in gallery.labels:
        features = {
            fid: samples
            for fid in sorted(("clothing", "height", "build", "complexion"))
            if (samples := gallery.feature_samples(label, fid)) is not None
        }
        size = max(map(len, features.values()), default=0)
        out += _text(label) + struct.pack("<II", size, len(features))
        out += b"".join(_text(fid) + _array(v) for fid, v in features.items())
    transforms = gallery.transforms
    out += struct.pack("<I", len(transforms))
    for fid in sorted(transforms):
        t = transforms[fid]
        out += _text(fid) + _array(t.matrix) + struct.pack("<I", t.eigenvalues.shape[0])
        out += np.asarray(t.eigenvalues, dtype="<f8").tobytes()
        out += struct.pack("<dB", t.regularization, 1 if t.discriminative else 0)
    return with_body(out, b"ENEXGAL2")
