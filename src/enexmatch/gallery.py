"""Enrolled-subject store: lifecycle, fitting, and binary snapshots.

A Gallery value is immutable; enroll, retire, and fit return new
instances, so a reader can keep using the snapshot it already holds
while a single writer produces the next one. Snapshots persist the
enrolled samples and fitted transforms as a length-prefixed binary
record stream guarded by a trailing CRC-32; the projected samples are
derived from them again on load.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .discriminant import ClassSamples, FeatureTransform, fit_transform, project
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
from .features import FEATURE_IDS, FeatureBundle

MAGIC = b"ENEXGAL2"


def _check_label(label: str) -> None:
    if not label or any(c.isspace() or c == "," for c in label):
        raise ValueError(f"label {label!r} must be non-empty without spaces or commas")


def _holders(
    classes: Mapping[str, Mapping[str, np.ndarray]], fid: str
) -> dict[str, np.ndarray]:
    """Samples of one trait for each class holding it, in enrollment order."""
    return {label: features[fid] for label, features in classes.items() if fid in features}


@dataclass(frozen=True, eq=False)
class ProjectedBlock:
    """One trait's projected gallery samples, packed in enrollment order.

    ``rows`` is a read-only C-contiguous (N_f x k) float64 array holding
    every sample of every class that has the trait; class ``labels[i]``
    owns the rows from ``starts[i]`` up to the next start, and every
    class owns at least one row.
    """

    labels: tuple[str, ...]
    starts: np.ndarray
    rows: np.ndarray

    @classmethod
    def pack(
        cls, labels: Sequence[str], rows: np.ndarray, counts: Sequence[int]
    ) -> "ProjectedBlock":
        """Wrap stacked rows whose classes own ``counts`` rows each."""
        starts = np.zeros(len(counts), dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        starts.flags.writeable = False
        rows.flags.writeable = False
        return cls(labels=tuple(labels), starts=starts, rows=rows)

    def __len__(self) -> int:
        return len(self.labels)

    def class_rows(self) -> dict[str, np.ndarray]:
        """Read-only view of each class's rows."""
        ends = (*self.starts[1:].tolist(), self.rows.shape[0])
        return {
            label: self.rows[start:end]
            for label, start, end in zip(self.labels, self.starts.tolist(), ends)
        }


class Gallery:
    """Immutable set of enrolled classes plus optional fitted transforms."""

    __slots__ = ("_labels", "_classes", "_sizes", "_transforms", "_projected", "_fitted")

    def __init__(
        self,
        classes: Mapping[str, Mapping[str, np.ndarray]] | None = None,
        sizes: Mapping[str, int] | None = None,
        transforms: Mapping[str, FeatureTransform] | None = None,
        fitted: bool = False,
    ) -> None:
        # Class feature dicts are never mutated, so galleries share them;
        # their key order is the enrollment order.
        self._classes = dict(classes or {})
        self._labels = tuple(self._classes)
        self._sizes = dict(sizes or {})
        self._transforms = dict(transforms or {})
        self._projected = self._project()
        self._fitted = bool(fitted)

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def fitted(self) -> bool:
        return self._fitted

    @property
    def transforms(self) -> Mapping[str, FeatureTransform]:
        return dict(self._transforms)

    @property
    def projected(self) -> Mapping[str, Mapping[str, np.ndarray]]:
        """Per trait, a read-only view of each holder class's projected rows."""
        return {fid: block.class_rows() for fid, block in self._projected.items()}

    def projected_block(self, feature_id: str) -> ProjectedBlock:
        """The packed projected rows of one fitted trait."""
        return self._projected[feature_id]

    def _project(self) -> dict[str, ProjectedBlock]:
        """Each transform's trait, projected in one stacked call over its holders."""
        blocks = {}
        for fid, transform in self._transforms.items():
            holders = _holders(self._classes, fid)
            parts = list(holders.values())
            rows = project(transform, np.concatenate(parts))
            blocks[fid] = ProjectedBlock.pack(holders, rows, [len(p) for p in parts])
        return blocks

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
        if not self._fitted:
            return ()
        # A block holds each class at most once, in enrollment order.
        return tuple(
            fid
            for fid in FEATURE_IDS
            if fid in self._transforms
            and len(self._projected.get(fid, ())) == self.n
        )

    def enroll(self, label: str, bundles: Sequence[FeatureBundle]) -> "Gallery":
        """Add a class; clears any previous fit."""
        _check_label(label)
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
        classes = dict(self._classes)
        classes[label] = stacked
        sizes = dict(self._sizes)
        sizes[label] = len(bundles)
        return Gallery(classes=classes, sizes=sizes)

    def retire(self, label: str) -> "Gallery":
        """Remove a class; clears any previous fit."""
        if label not in self._classes:
            raise UnknownLabelError(f"label {label!r} is not enrolled")
        classes = {k: v for k, v in self._classes.items() if k != label}
        sizes = {k: v for k, v in self._sizes.items() if k != label}
        return Gallery(classes=classes, sizes=sizes)

    def fit(self, epsilon: float | None = None) -> "Gallery":
        """Learn per-feature transforms; the result projects the enrolled samples.

        A feature is fitted when at least two classes hold samples of it;
        classes missing a feature are simply left out of that fit.
        """
        if self.n < 2:
            raise DegenerateProblemError("fitting needs at least two enrolled classes")
        transforms: dict[str, FeatureTransform] = {}
        for fid in FEATURE_IDS:
            holders = _holders(self._classes, fid)
            if len(holders) < 2:
                continue
            dims = {samples.shape[1] for samples in holders.values()}
            if len(dims) != 1:
                raise DimensionMismatchError(
                    f"{fid} dimensions differ across classes: {sorted(dims)}"
                )
            class_samples = [
                ClassSamples(label=label, samples=samples)
                for label, samples in holders.items()
            ]
            transforms[fid] = fit_transform(class_samples, epsilon, feature_id=fid)
        return Gallery(
            classes=self._classes,
            sizes=self._sizes,
            transforms=transforms,
            fitted=True,
        )

    def __eq__(self, other: object) -> bool:
        """Equal when both encode to the same snapshot body.

        That is stricter than ``np.array_equal`` on the samples and the
        transforms only in telling 0.0 from -0.0.
        """
        if not isinstance(other, Gallery):
            return NotImplemented
        return _encode_body(self) == _encode_body(other)

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"Gallery(n={self.n}, {state})"

    def save(self, path: str | Path) -> None:
        """Write a snapshot; load(save(g)) reproduces g exactly.

        The bytes go to a new file beside ``path``, are synced to disk,
        and then renamed over ``path``, so a save that fails part way
        leaves any previous snapshot as it was.
        """
        body = _encode_body(self)
        blob = MAGIC + struct.pack("<Q", len(body)) + body
        blob += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
        try:
            with open(tmp, "xb") as f:
                f.write(blob)
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
        body = data[len(MAGIC) + 8 : len(MAGIC) + 8 + body_len]
        (stored_crc,) = struct.unpack_from("<I", data, expected - 4)
        if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
            raise SnapshotChecksumError(f"{path}: checksum mismatch")
        return _decode_body(body, str(path))


class _BodyWriter:
    def __init__(self) -> None:
        self.chunks: list[bytes] = []

    def u8(self, value: int) -> None:
        self.chunks.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self.chunks.append(struct.pack("<I", value))

    def f64(self, value: float) -> None:
        self.chunks.append(struct.pack("<d", value))

    def text(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.u32(len(raw))
        self.chunks.append(raw)

    def array(self, value: np.ndarray) -> None:
        self.chunks.append(np.ascontiguousarray(value, dtype="<f8").tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self.chunks)


class _BodyReader:
    def __init__(self, data: bytes, origin: str) -> None:
        self.data = data
        self.pos = 0
        self.origin = origin

    def error(self, message: str) -> SnapshotFormatError:
        return SnapshotFormatError(f"{self.origin}: {message}")

    def _take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise self.error("record stream ends early")
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def flag(self) -> bool:
        value = self.u8()
        if value > 1:
            raise self.error(f"flag byte {value} is neither 0 nor 1")
        return value == 1

    def text(self) -> str:
        try:
            return self._take(self.u32()).decode("utf-8")
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
        out = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(rows, cols)
        if not np.all(np.isfinite(out)):
            raise self.error("non-finite array values")
        return out

    def done(self) -> bool:
        return self.pos == len(self.data)


def _encode_body(gallery: Gallery) -> bytes:
    w = _BodyWriter()
    w.u8(1 if gallery.fitted else 0)
    w.u32(gallery.n)
    for label in gallery.labels:
        w.text(label)
        w.u32(gallery.class_size(label))
        features = gallery._classes[label]
        w.u32(len(features))
        for fid in sorted(features):
            samples = features[fid]
            w.text(fid)
            w.u32(samples.shape[0])
            w.u32(samples.shape[1])
            w.array(samples)
    transforms = gallery._transforms
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
    return w.getvalue()


def _decode_body(body: bytes, origin: str) -> Gallery:
    r = _BodyReader(body, origin)
    fitted = r.flag()
    n = r.u32()
    classes: dict[str, dict[str, np.ndarray]] = {}
    sizes: dict[str, int] = {}
    for _ in range(n):
        label = r.text()
        try:
            _check_label(label)
        except ValueError as exc:
            raise r.error(str(exc)) from None
        sizes[label] = r.u32()
        count = r.u32()
        classes[label] = {r.feature_id(): r.array(r.u32(), r.u32()) for _ in range(count)}
        if len(classes[label]) != count:
            raise r.error(f"class {label!r} holds a feature twice")
    if len(classes) != n:
        raise r.error("a label is enrolled twice")
    transforms: dict[str, FeatureTransform] = {}
    for _ in range(r.u32()):
        fid = r.feature_id()
        matrix = r.array(r.u32(), r.u32())
        widths = {samples.shape[1] for samples in _holders(classes, fid).values()}
        if fid in transforms or widths != {matrix.shape[0]}:
            raise r.error(
                f"{fid} transform of width {matrix.shape[0]} repeats or does not "
                f"fit its holder classes' widths {sorted(widths)}"
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
        return Gallery(
            classes=classes, sizes=sizes, transforms=transforms, fitted=fitted
        )
    except NonFiniteInputError as exc:
        raise r.error(str(exc)) from None
