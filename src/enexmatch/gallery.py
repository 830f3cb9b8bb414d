"""Enrolled-subject store: lifecycle, fitting, and binary snapshots.

A Gallery value is immutable; enroll, retire, and fit return new
instances, so a reader can keep using the snapshot it already holds
while a single writer produces the next one. Snapshots persist the
enrolled samples, one contiguous block per trait, and the fitted
transforms, guarded by a trailing CRC-32; the projected samples are
derived from them again on load.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
import zlib
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .discriminant import ClassBlock, FeatureTransform, fit_transform, project
from .errors import (
    DegenerateProblemError,
    DimensionMismatchError,
    DuplicateLabelError,
    NonFiniteInputError,
    SnapshotChecksumError,
    SnapshotFormatError,
    SnapshotTruncatedError,
    UnknownLabelError,
)
from .features import FEATURE_IDS, FeatureBundle, check_label

MAGIC = b"ENEXGAL3"


def _pack(classes: Mapping[str, Mapping[str, np.ndarray]], fid: str) -> ClassBlock | None:
    """Stack one trait's samples over its holder classes into one read-only
    float64 block; None when no class holds the trait."""
    labels, parts = [], []
    for label, features in classes.items():
        samples = features.get(fid)
        if samples is not None:
            labels.append(label)
            parts.append(samples)
    if not parts:
        return None
    block = np.concatenate(parts, dtype=np.float64)
    block.flags.writeable = False
    return ClassBlock(tuple(labels), [len(samples) for samples in parts], block)


def _class_views(
    labels: Sequence[str], traits: Mapping[str, ClassBlock]
) -> dict[str, dict[str, np.ndarray]]:
    """Per class, in ``labels`` order, read-only row views into each trait's block."""
    classes: dict[str, dict[str, np.ndarray]] = {label: {} for label in labels}
    for fid, trait in traits.items():
        for label, start, count in zip(trait.labels, trait.starts.tolist(), trait.counts):
            classes[label][fid] = trait.rows[start : start + count]
    return classes


class Gallery:
    """Immutable set of enrolled classes plus optional fitted transforms.

    ``Gallery()`` is the empty gallery; ``enroll``, ``retire``, ``fit`` and
    ``load`` make every other one.
    """

    __slots__ = ("_classes", "_sizes", "_transforms", "_projected")

    def __init__(self) -> None:
        self._classes: dict[str, Mapping[str, np.ndarray]] = {}
        self._sizes: dict[str, int] = {}
        self._transforms: dict[str, FeatureTransform] | None = None
        self._projected: dict[str, ClassBlock] = {}

    @classmethod
    def _build(
        cls,
        classes: dict[str, Mapping[str, np.ndarray]],
        sizes: dict[str, int],
        transforms: dict[str, FeatureTransform] | None = None,
        packed: Mapping[str, ClassBlock] | None = None,
    ) -> "Gallery":
        """A gallery of parts its caller has checked; fitted when ``transforms``
        is a dict. ``packed`` holds each transform's trait as one block, which
        is projected here in one stacked call over its holders.

        Class feature dicts are never mutated, so galleries share them;
        their key order is the enrollment order.
        """
        gallery = cls()
        gallery._classes = classes
        gallery._sizes = sizes
        gallery._transforms = transforms
        for fid, transform in (transforms or {}).items():
            trait = packed[fid]
            rows = np.ascontiguousarray(project(transform, trait.rows))
            rows.flags.writeable = False
            gallery._projected[fid] = ClassBlock(trait.labels, trait.counts, rows)
        return gallery

    @property
    def n(self) -> int:
        return len(self._classes)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._classes)

    @property
    def fitted(self) -> bool:
        return self._transforms is not None

    @property
    def transforms(self) -> Mapping[str, FeatureTransform]:
        return dict(self._transforms or {})

    def projected_block(self, feature_id: str) -> ClassBlock:
        """The packed projected rows of one fitted trait, read-only and C-contiguous."""
        return self._projected[feature_id]

    def class_size(self, label: str) -> int:
        if label not in self._sizes:
            raise UnknownLabelError(f"label {label!r} is not enrolled")
        return self._sizes[label]

    def feature_samples(self, label: str, feature_id: str) -> np.ndarray | None:
        """Raw enrolled vectors of one feature for one class, or None."""
        if label not in self._classes:
            raise UnknownLabelError(f"label {label!r} is not enrolled")
        samples = self._classes[label].get(feature_id)
        return None if samples is None else samples.copy()

    def covered_features(self) -> tuple[str, ...]:
        """Fitted features for which every enrolled class has samples."""
        # A block holds each class at most once, in enrollment order.
        return tuple(
            fid
            for fid in FEATURE_IDS
            if fid in self._projected and len(self._projected[fid]) == self.n
        )

    def enroll(self, label: str, bundles: Sequence[FeatureBundle]) -> "Gallery":
        """Add a class; clears any previous fit.

        Every class holding a trait holds it at one width, the width a
        snapshot stores for that trait.
        """
        check_label(label)
        if label in self._classes:
            raise DuplicateLabelError(f"label {label!r} is already enrolled")
        if len(bundles) == 0:
            raise ValueError("enroll needs at least one bundle")
        by_feature: dict[str, list[np.ndarray]] = {}
        for bundle in bundles:
            for fid in FEATURE_IDS:
                vector = bundle.feature_vector(fid)
                if vector is None:
                    continue
                if not np.all(np.isfinite(vector)):
                    raise NonFiniteInputError(f"{fid} vector is not finite")
                by_feature.setdefault(fid, []).append(
                    np.asarray(vector, dtype=np.float64)
                )
        stacked: dict[str, np.ndarray] = {}
        for fid, vectors in by_feature.items():
            dims = {v.shape[0] for v in vectors}
            if len(dims) != 1:
                raise DimensionMismatchError(
                    f"{fid} vectors of class {label!r} have mixed dimensions {sorted(dims)}"
                )
            stacked[fid] = np.stack(vectors)
            held = next((f[fid] for f in self._classes.values() if fid in f), None)
            if held is not None and held.shape[1] != stacked[fid].shape[1]:
                raise DimensionMismatchError(
                    f"{fid} vectors of class {label!r} have dimension "
                    f"{stacked[fid].shape[1]}, enrolled classes {held.shape[1]}"
                )
        classes = dict(self._classes)
        classes[label] = stacked
        sizes = dict(self._sizes)
        sizes[label] = len(bundles)
        return Gallery._build(classes, sizes)

    def retire(self, label: str) -> "Gallery":
        """Remove a class; clears any previous fit."""
        if label not in self._classes:
            raise UnknownLabelError(f"label {label!r} is not enrolled")
        classes = {k: v for k, v in self._classes.items() if k != label}
        sizes = {k: v for k, v in self._sizes.items() if k != label}
        return Gallery._build(classes, sizes)

    def fit(self, epsilon: float | None = None) -> "Gallery":
        """Learn per-feature transforms; the result projects the enrolled samples.

        A feature is fitted when at least two classes hold samples of it;
        classes missing a feature are simply left out of that fit.
        """
        if self.n < 2:
            raise DegenerateProblemError("fitting needs at least two enrolled classes")
        transforms: dict[str, FeatureTransform] = {}
        packed: dict[str, ClassBlock] = {}
        for fid in FEATURE_IDS:
            trait = _pack(self._classes, fid)
            if trait is not None and len(trait) >= 2:
                transforms[fid] = fit_transform(trait, epsilon, feature_id=fid)
                packed[fid] = trait
        # The fitted gallery shares this gallery's class arrays; the packed
        # blocks live only until they are projected.
        return Gallery._build(self._classes, self._sizes, transforms, packed)

    def __eq__(self, other: object) -> bool:
        """Equal when both encode to the same snapshot body.

        That is stricter than ``np.array_equal`` on the samples and the
        transforms only in telling 0.0 from -0.0.
        """
        if not isinstance(other, Gallery):
            return NotImplemented
        return b"".join(_encode_body(self)) == b"".join(_encode_body(other))

    def __repr__(self) -> str:
        state = "fitted" if self.fitted else "unfitted"
        return f"Gallery(n={self.n}, {state})"

    def save(self, path: str | Path) -> None:
        """Write a snapshot; load(save(g)) reproduces g exactly.

        The bytes go to a new file beside ``path``, are synced to disk,
        and then renamed over ``path``, so a save that fails part way
        leaves any previous snapshot as it was.
        """
        chunks = _encode_body(self)
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
        try:
            with open(tmp, "xb") as f:
                f.write(MAGIC + struct.pack("<Q", sum(len(c) for c in chunks)))
                crc = 0
                for chunk in chunks:
                    f.write(chunk)
                    crc = zlib.crc32(chunk, crc)
                f.write(struct.pack("<I", crc & 0xFFFFFFFF))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "Gallery":
        data = Path(path).read_bytes()
        if len(data) < len(MAGIC) + 8:
            raise SnapshotTruncatedError(f"{path}: shorter than the fixed header")
        if data[: len(MAGIC)] != MAGIC:
            raise SnapshotFormatError(f"{path}: unknown snapshot magic")
        (body_len,) = struct.unpack_from("<Q", data, len(MAGIC))
        expected = len(MAGIC) + 8 + body_len + 4
        if len(data) < expected:
            raise SnapshotTruncatedError(
                f"{path}: {len(data)} bytes, header declares {expected}"
            )
        if len(data) > expected:
            raise SnapshotFormatError(f"{path}: trailing bytes after the checksum")
        body = memoryview(data)[len(MAGIC) + 8 : len(MAGIC) + 8 + body_len]
        (stored_crc,) = struct.unpack_from("<I", data, expected - 4)
        if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
            raise SnapshotChecksumError(f"{path}: checksum mismatch")
        return _decode_body(body, str(path))


def _raw(array: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous array, without a copy."""
    return memoryview(array.reshape(-1).view(np.uint8))


class _BodyWriter:
    def __init__(self) -> None:
        self.chunks: list[bytes | memoryview] = []

    def u8(self, value: int) -> None:
        self.chunks.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self.chunks.append(struct.pack("<I", value))

    def u32s(self, values: Sequence[int]) -> None:
        self.chunks.append(_raw(np.array(values, dtype="<u4")))

    def f64(self, value: float) -> None:
        self.chunks.append(struct.pack("<d", value))

    def text(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.u32(len(raw))
        self.chunks.append(raw)

    def array(self, value: np.ndarray) -> None:
        self.chunks.append(_raw(np.ascontiguousarray(value, dtype="<f8")))


class _BodyReader:
    def __init__(self, data: memoryview, origin: str) -> None:
        self.data = data
        self.pos = 0
        self.origin = origin

    def error(self, message: str) -> SnapshotFormatError:
        return SnapshotFormatError(f"{self.origin}: {message}")

    def _take(self, count: int) -> memoryview:
        if self.pos + count > len(self.data):
            raise self.error("record stream ends early")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u32s(self, count: int) -> np.ndarray:
        return np.frombuffer(self._take(count * 4), dtype="<u4").astype(np.int64)

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def flag(self) -> bool:
        value = self.u8()
        if value > 1:
            raise self.error(f"flag byte {value} is neither 0 nor 1")
        return value == 1

    def text(self) -> str:
        try:
            return str(self._take(self.u32()), "utf-8")
        except UnicodeDecodeError:
            raise self.error("text is not valid UTF-8") from None

    def feature_id(self) -> str:
        fid = self.text()
        if fid not in FEATURE_IDS:
            raise self.error(f"unknown feature id {fid!r}")
        return fid

    def array(self, rows: int, cols: int) -> np.ndarray:
        if rows == 0 or cols == 0:
            raise self.error(f"empty {rows}x{cols} array")
        raw = self._take(rows * cols * 8)
        # On a little-endian machine this views the snapshot's own bytes.
        out = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False)
        out = out.reshape(rows, cols)
        if not np.all(np.isfinite(out)):
            raise self.error("non-finite array values")
        return out

    def done(self) -> bool:
        return self.pos == len(self.data)


def _encode_body(gallery: Gallery) -> list[bytes | memoryview]:
    """Flag, n, the label table, class sizes, one record per held trait, transforms,
    as byte chunks in file order.

    A trait record holds the trait's id, its holder count k and width d,
    k strictly increasing holder indices into the label table, k row
    counts, and one (sum of counts x d) block of samples.
    """
    w = _BodyWriter()
    w.u8(1 if gallery.fitted else 0)
    labels = gallery.labels
    w.u32(len(labels))
    # Labels hold no whitespace, so a newline separates them unambiguously.
    w.text("\n".join(labels))
    w.u32s([gallery._sizes[label] for label in labels])
    traits = [(fid, _pack(gallery._classes, fid)) for fid in FEATURE_IDS]
    traits = [(fid, trait) for fid, trait in traits if trait is not None]
    index = {label: i for i, label in enumerate(labels)}
    w.u32(len(traits))
    for fid, trait in traits:
        w.text(fid)
        w.u32(len(trait.labels))
        w.u32(trait.rows.shape[1])
        w.u32s([index[label] for label in trait.labels])
        w.u32s(trait.counts)
        w.array(trait.rows)
    transforms = gallery._transforms or {}
    w.u32(len(transforms))
    for fid in sorted(transforms):
        t = transforms[fid]
        w.text(fid)
        w.u32(t.matrix.shape[0])
        w.u32(t.matrix.shape[1])
        w.array(t.matrix)
        w.u32(t.eigenvalues.shape[0])
        w.array(t.eigenvalues.reshape(1, -1))
        w.f64(t.regularization)
        w.u8(1 if t.discriminative else 0)
    return w.chunks


def _decode_trait(r: _BodyReader, fid: str, labels: Sequence[str]) -> ClassBlock:
    """Read one trait record after its id and check it against the label table."""
    holders, width = r.u32(), r.u32()
    if holders == 0 or width == 0:
        raise r.error(f"{fid} record of {holders} holder classes has width {width}")
    indices, counts = r.u32s(holders), r.u32s(holders)
    if (np.diff(indices) <= 0).any():
        raise r.error(f"{fid} holder indices are not strictly increasing")
    if indices[-1] >= len(labels):
        raise r.error(
            f"{fid} holder index {int(indices[-1])} is out of range for "
            f"{len(labels)} labels"
        )
    if (counts == 0).any():
        raise r.error(f"{fid} record gives a holder class zero rows")
    counts = counts.tolist()
    block = r.array(sum(counts), width)
    block.flags.writeable = False
    return ClassBlock(tuple([labels[i] for i in indices.tolist()]), counts, block)


def _decode_body(body: memoryview, origin: str) -> Gallery:
    r = _BodyReader(body, origin)
    fitted = r.flag()
    n = r.u32()
    table = r.text()
    labels = table.split("\n") if table else []
    if len(labels) != n:
        raise r.error(f"label table holds {len(labels)} labels for {n} classes")
    # Splitting on whitespace gives the labels back exactly when none is
    # empty or holds whitespace; otherwise each label is checked alone,
    # so the error names the first bad one.
    if "," in table or table.split() != labels or "-" in labels:
        for label in labels:
            try:
                check_label(label)
            except ValueError as exc:
                raise r.error(str(exc)) from None
    if len(set(labels)) != n:
        raise r.error("a label is enrolled twice")
    sizes = r.u32s(n)
    if (sizes == 0).any():
        raise r.error(f"class {labels[int(np.argmin(sizes))]!r} has size 0")
    traits: dict[str, ClassBlock] = {}
    for _ in range(r.u32()):
        fid = r.feature_id()
        if fid in traits:
            raise r.error(f"{fid} trait record repeats")
        traits[fid] = _decode_trait(r, fid, labels)
    transforms: dict[str, FeatureTransform] = {}
    for _ in range(r.u32()):
        fid = r.feature_id()
        # Copied, unlike the sample blocks: numpy multiplies by the transpose
        # of an unaligned matrix through a reordered copy, and the products
        # then round differently.
        matrix = r.array(r.u32(), r.u32()).copy()
        widths = [traits[fid].rows.shape[1]] if fid in traits else []
        if fid in transforms or widths != [matrix.shape[0]]:
            raise r.error(
                f"{fid} transform of width {matrix.shape[0]} repeats or does not "
                f"fit its holder classes' widths {widths}"
            )
        eigenvalues = r.array(1, r.u32()).reshape(-1)
        if eigenvalues.shape[0] != matrix.shape[1]:
            raise r.error(
                f"{fid} transform has {eigenvalues.shape[0]} eigenvalues "
                f"for {matrix.shape[1]} columns"
            )
        if (eigenvalues < 0.0).any():
            raise r.error(f"{fid} transform has a negative eigenvalue")
        ridge = r.f64()
        if not (math.isfinite(ridge) and ridge > 0.0):
            raise r.error(f"{fid} transform ridge {ridge!r} is not finite and positive")
        transforms[fid] = FeatureTransform(
            feature_id=fid,
            matrix=matrix,
            eigenvalues=eigenvalues,
            regularization=ridge,
            discriminative=r.flag(),
        )
    if not r.done():
        raise r.error("unread bytes inside the record stream")
    if transforms and not fitted:
        raise r.error("an unfitted snapshot holds transforms")
    try:
        return Gallery._build(
            _class_views(labels, traits),
            dict(zip(labels, sizes.tolist())),
            transforms if fitted else None,
            traits,
        )
    except NonFiniteInputError as exc:
        raise r.error(str(exc)) from None
