"""Enrolled-subject store: lifecycle, fitting, and binary snapshots.

A Gallery value is immutable; enroll, retire, and fit return new
instances, so a reader can keep using the snapshot it already holds
while a single writer produces the next one. Snapshots persist the
enrolled samples, one contiguous block per trait, and the fitted
transforms, guarded by a trailing CRC-32. The projected samples are
derived from them: ``load`` projects every fitted trait, and a gallery
made by ``fit`` projects a trait on its first ``projected_block`` read.
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

MAGIC = b"ENEXGAL5"


def _pack(holders: Mapping[str, np.ndarray]) -> ClassBlock:
    """Stack one trait's holder rows, in enrollment order, into one read-only
    float64 block."""
    block = np.concatenate(list(holders.values()), dtype=np.float64)
    block.flags.writeable = False
    return ClassBlock(tuple(holders), [len(rows) for rows in holders.values()], block)


class Gallery:
    """Immutable set of enrolled classes plus optional fitted transforms.

    ``Gallery()`` is the empty gallery; ``enroll``, ``retire``, ``fit`` and
    ``load`` make every other one.
    """

    __slots__ = ("_labels", "_traits", "_transforms", "_packed", "_projected")

    def __init__(self) -> None:
        self._labels: dict[str, None] = {}
        self._traits: dict[str, dict[str, np.ndarray]] = {}
        self._transforms: dict[str, FeatureTransform] | None = None
        self._packed: Mapping[str, ClassBlock] = {}
        self._projected: dict[str, ClassBlock] = {}

    @classmethod
    def _build(
        cls,
        labels: dict[str, None],
        traits: dict[str, dict[str, np.ndarray]],
        transforms: dict[str, FeatureTransform] | None = None,
        packed: Mapping[str, ClassBlock] | None = None,
    ) -> "Gallery":
        """A gallery of parts its caller has checked; fitted when ``transforms``
        is a dict. ``packed`` holds traits of ``traits`` as one block each,
        which the snapshot writes as they are and ``projected_block``
        projects; each transform's trait is among them.

        ``labels`` and each trait's holder map keep enrollment order and
        are never mutated, so galleries share them and their row arrays.
        """
        gallery = cls()
        gallery._labels = labels
        gallery._traits = traits
        gallery._transforms = transforms
        gallery._packed = packed or {}
        return gallery

    @property
    def n(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    @property
    def fitted(self) -> bool:
        return self._transforms is not None

    @property
    def transforms(self) -> Mapping[str, FeatureTransform]:
        return dict(self._transforms or {})

    def projected_block(self, feature_id: str) -> ClassBlock:
        """The packed projected rows of one fitted trait, read-only and C-contiguous.

        The trait's packed block is projected in one stacked call on the
        first read and kept, so later reads return the same block. ``load``
        reads every fitted trait this way; after ``fit`` the first match
        does. An unfitted trait is a ``KeyError``.

        Galleries are shared by readers. Two threads may project the same
        trait at once: both get bit-identical blocks, and one dict store wins.
        """
        block = self._projected.get(feature_id)
        if block is None:
            transform = (self._transforms or {})[feature_id]
            trait = self._packed[feature_id]
            rows = np.ascontiguousarray(project(transform, trait.rows))
            rows.flags.writeable = False
            block = self._projected[feature_id] = ClassBlock(trait.labels, trait.counts, rows)
        return block

    def feature_samples(self, label: str, feature_id: str) -> np.ndarray | None:
        """Raw enrolled vectors of one feature for one class, or None."""
        if label not in self._labels:
            raise UnknownLabelError(f"label {label!r} is not enrolled")
        samples = self._traits.get(feature_id, {}).get(label)
        return None if samples is None else samples.copy()

    def covered_features(self) -> tuple[str, ...]:
        """Fitted features for which every enrolled class has samples."""
        # A block holds each class at most once, in enrollment order.
        transforms = self._transforms or {}
        return tuple(
            fid
            for fid in FEATURE_IDS
            if fid in transforms and len(self._packed[fid]) == self.n
        )

    def enroll(self, label: str, bundles: Sequence[FeatureBundle]) -> "Gallery":
        """Add a class; clears any previous fit.

        Every class holding a trait holds it at one width, the width a
        snapshot stores for that trait.
        """
        check_label(label)
        if label in self._labels:
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
        traits = dict(self._traits)
        for fid, vectors in by_feature.items():
            dims = {v.shape[0] for v in vectors}
            if len(dims) != 1:
                raise DimensionMismatchError(
                    f"{fid} vectors of class {label!r} have mixed dimensions {sorted(dims)}"
                )
            rows = np.stack(vectors)
            holders = self._traits.get(fid, {})
            held = next(iter(holders.values()), None)
            if held is not None and held.shape[1] != rows.shape[1]:
                raise DimensionMismatchError(
                    f"{fid} vectors of class {label!r} have dimension "
                    f"{rows.shape[1]}, enrolled classes {held.shape[1]}"
                )
            traits[fid] = {**holders, label: rows}
        return Gallery._build({**self._labels, label: None}, traits)

    def retire(self, label: str) -> "Gallery":
        """Remove a class; clears any previous fit. A trait it alone held goes too."""
        if label not in self._labels:
            raise UnknownLabelError(f"label {label!r} is not enrolled")
        labels = dict(self._labels)
        del labels[label]
        traits = {}
        for fid, holders in self._traits.items():
            if label in holders:
                holders = dict(holders)
                del holders[label]
            if holders:
                traits[fid] = holders
        return Gallery._build(labels, traits)

    def fit(self) -> "Gallery":
        """Learn per-feature transforms; the result projects a trait's
        enrolled samples on its first ``projected_block`` read, not here.

        A feature is fitted when at least two classes hold samples of it;
        classes missing a feature are simply left out of that fit.
        """
        if self.n < 2:
            raise DegenerateProblemError("fitting needs at least two enrolled classes")
        packed = {fid: _pack(self._traits[fid]) for fid in FEATURE_IDS if fid in self._traits}
        transforms = {
            fid: fit_transform(trait, feature_id=fid)
            for fid, trait in packed.items()
            if len(trait) >= 2
        }
        # The fitted gallery shares this gallery's label and trait maps, and
        # keeps the packed blocks for its snapshot and its projections.
        return Gallery._build(self._labels, self._traits, transforms, packed)

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
        self.size = 0

    def _put(self, chunk: bytes | memoryview) -> None:
        self.chunks.append(chunk)
        self.size += len(chunk)

    def u8(self, value: int) -> None:
        self._put(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._put(struct.pack("<I", value))

    def u32s(self, values: Sequence[int]) -> None:
        self._put(_raw(np.array(values, dtype="<u4")))

    def f64(self, value: float) -> None:
        self._put(struct.pack("<d", value))

    def text(self, value: str) -> None:
        raw = value.encode("utf-8")
        self.u32(len(raw))
        self._put(raw)

    def array(self, value: np.ndarray) -> None:
        """Zero bytes up to a multiple of 8, then the values as ``<f8``."""
        self._put(bytes(-self.size % 8))
        self._put(_raw(np.ascontiguousarray(value, dtype="<f8")))


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

    def array(self, rows: int, cols: int) -> np.ndarray:
        """A read-only (rows x cols) float64 array after the zero padding."""
        if any(self._take(-self.pos % 8)):
            raise self.error("padding byte is not zero")
        raw = self._take(rows * cols * 8)
        # On a little-endian machine this views the snapshot's own bytes; the
        # body starts 16 bytes into the file, so the view is as aligned as they are.
        out = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False)
        out = out.reshape(rows, cols)
        out.flags.writeable = False
        if not np.all(np.isfinite(out)):
            raise self.error("non-finite array values")
        return out

    def done(self) -> bool:
        return self.pos == len(self.data)


def _encode_body(gallery: Gallery) -> list[bytes | memoryview]:
    """Flag, the label table, one record and then one transform slot per
    trait in ``FEATURE_IDS`` order, as byte chunks in file order.

    A trait record holds the width d (0 when no class holds the trait),
    every class's row count (0 for a class without it) and one
    (sum of counts x d) block of samples. A transform slot holds the
    column count k (0 when the trait is not fitted), then the d x k
    matrix, the k eigenvalues, the ridge and the discriminative flag.
    """
    w = _BodyWriter()
    w.u8(1 if gallery.fitted else 0)
    labels = gallery._labels
    # Labels hold no whitespace, so a newline separates them unambiguously.
    w.text("\n".join(labels))
    for fid in FEATURE_IDS:
        trait = gallery._packed.get(fid)
        if trait is None and fid in gallery._traits:
            trait = _pack(gallery._traits[fid])
        counts = dict.fromkeys(labels, 0)
        rows = np.empty((0, 0))
        if trait is not None:
            counts.update(zip(trait.labels, trait.counts))
            rows = trait.rows
        w.u32(rows.shape[1])
        w.u32s(list(counts.values()))
        w.array(rows)
    transforms = gallery._transforms or {}
    for fid in FEATURE_IDS:
        t = transforms.get(fid)
        w.u32(0 if t is None else t.rank)
        if t is not None:
            w.array(t.matrix)
            w.array(t.eigenvalues)
            w.f64(t.regularization)
            w.u8(1 if t.discriminative else 0)
    return w.chunks


def _decode_body(body: memoryview, origin: str) -> Gallery:
    r = _BodyReader(body, origin)
    fitted = r.flag()
    table = r.text()
    labels = table.split("\n") if table else []
    for label in labels:
        try:
            check_label(label)
        except ValueError as exc:
            raise r.error(str(exc)) from None
    n = len(labels)
    if len(set(labels)) != n:
        raise r.error("a label is enrolled twice")
    traits: dict[str, ClassBlock] = {}
    holder_rows: dict[str, dict[str, np.ndarray]] = {}
    for fid in FEATURE_IDS:
        width, counts = r.u32(), r.u32s(n)
        holders = np.flatnonzero(counts)
        if (width == 0) != (len(holders) == 0):
            raise r.error(
                f"{fid} record of width {width} has {len(holders)} holder classes"
            )
        block = r.array(int(counts.sum()), width)
        if width:
            held = tuple([labels[i] for i in holders.tolist()])
            trait = traits[fid] = ClassBlock(held, counts[holders].tolist(), block)
            # Each holder's rows are a read-only view into the block.
            holder_rows[fid] = {
                label: block[start : start + count]
                for label, start, count in zip(held, trait.starts.tolist(), trait.counts)
            }
    transforms: dict[str, FeatureTransform] = {}
    for fid in FEATURE_IDS:
        rank = r.u32()
        if rank == 0:
            continue
        if fid not in traits:
            raise r.error(f"{fid} transform fits a trait no class holds")
        matrix = r.array(traits[fid].rows.shape[1], rank)
        eigenvalues = r.array(1, rank).reshape(-1)
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
    gallery = Gallery._build(
        dict.fromkeys(labels), holder_rows, transforms if fitted else None, traits
    )
    try:
        for fid in transforms:
            gallery.projected_block(fid)
    except NonFiniteInputError as exc:
        raise r.error(str(exc)) from None
    return gallery
