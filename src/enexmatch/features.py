"""Soft-biometric feature extraction from single observations.

Four traits are computed per observation: clothing chroma histograms,
relative height, body-build ratio, and skin complexion. Each trait can be
independently unavailable (no silhouette, no box metrics, no skin pixels),
and downstream fitting and matching treat that as a first-class state.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .imaging import (
    FRAME,
    Image,
    SilhouetteMask,
    band_boundaries,
    normalize_size,
    rgb_to_ycbcr,
)

# Canonical trait order, used for report fields and fusion layout.
FEATURE_IDS = ("clothing", "height", "build", "complexion")

# Chroma box for skin detection, inclusive bounds on Cb and Cr.
SKIN_CB_RANGE = (77, 127)
SKIN_CR_RANGE = (133, 173)

HISTOGRAM_BINS = 24

# The rows where the head band and the torso band of a normalized frame end.
_HEAD_END, _TORSO_END = band_boundaries(FRAME[0])

# The histogram key of each chroma value in each of the four blocks one
# frame gives, torso-Cb, torso-Cr, legs-Cb and legs-Cr: block * bins + bin.
_BLOCK_KEYS = np.arange(4)[:, None] * HISTOGRAM_BINS + np.arange(256) * HISTOGRAM_BINS // 256
_BLOCK_KEYS.flags.writeable = False

# A column counts toward body width when it reaches this fraction of the
# projection profile's peak.
BUILD_THRESHOLD = 0.5


# In a str pattern \s matches exactly the characters str.isspace accepts.
_LABEL = re.compile(r"(?!-\Z)[^\s,]+")


def check_label(label: str) -> None:
    """Refuse a subject label that reports, manifests or snapshots cannot carry.

    A label is non-empty and holds no whitespace or comma; ``-`` is the
    report's marker for a probe without an id.
    """
    if not _LABEL.fullmatch(label):
        raise ValueError(
            f"label {label!r} must be non-empty, not '-', without spaces or commas"
        )


@dataclass(frozen=True)
class SubjectSample:
    """One observation of a subject from one camera.

    The mask and the box metrics come from the entrance crossing and may
    be absent; the color image is always present. ``entrance_ref_height``
    is the pixel height of the doorway used to normalize subject height.
    """

    image: Image
    mask: SilhouetteMask | None = None
    bbox_height: int | None = None
    entrance_ref_height: int | None = None

    def __post_init__(self) -> None:
        if self.mask is not None:
            if (self.mask.height, self.mask.width) != (
                self.image.height,
                self.image.width,
            ):
                raise ValueError("mask dimensions must match the image")
        for name in ("bbox_height", "entrance_ref_height"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1")
        if (
            self.bbox_height is not None
            and self.entrance_ref_height is not None
            and self.bbox_height > self.entrance_ref_height
        ):
            raise ValueError("bbox_height cannot exceed entrance_ref_height")


# Traits and bundles have slots, not an instance dict: a bundle that an
# extraction worker sends back unpickles no larger than one built here.
@dataclass(frozen=True, slots=True)
class ClothingHistogram:
    """Concatenated Cb/Cr histograms of the torso and leg bands.

    One camera contributes four blocks of ``HISTOGRAM_BINS`` values
    each, ordered torso-Cb, torso-Cr, legs-Cb, legs-Cr; paired cameras
    concatenate their blocks in camera order. Every block is
    L1-normalized, or all zero when its band held no pixels.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if not isinstance(v, np.ndarray) or v.ndim != 1:
            raise ValueError("values must be a 1-D array")
        block = 4 * HISTOGRAM_BINS
        if v.size == 0 or v.size % block != 0:
            raise ValueError(f"length must be a positive multiple of {block}")
        if np.any(v < 0):
            raise ValueError("histogram values cannot be negative")
        sums = v.reshape(-1, HISTOGRAM_BINS).sum(axis=1)
        if not np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0)):
            raise ValueError("each block must sum to 1 or be all zero")


@dataclass(frozen=True, slots=True)
class HeightFeature:
    """Subject height relative to the entrance frame, in (0, 1]."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 < self.value <= 1.0:
            raise ValueError("relative height must lie in (0, 1]")


@dataclass(frozen=True, slots=True)
class BuildFeature:
    """Peak height-to-effective-width ratio of the silhouette."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 < self.value < math.inf:
            raise ValueError("build ratio must be finite and positive")


@dataclass(frozen=True, slots=True)
class ComplexionFeature:
    """Mean skin chroma of the head band.

    ``means`` holds (Cb, Cr) per camera, concatenated in camera order.
    When no skin pixels were found, ``valid`` is false and the means are
    NaN placeholders that must not be read.
    """

    means: tuple[float, ...]
    valid: bool

    def __post_init__(self) -> None:
        if len(self.means) < 2 or len(self.means) % 2 != 0:
            raise ValueError("means must hold (Cb, Cr) pairs")
        if self.valid and not all(0.0 <= m <= 255.0 for m in self.means):
            raise ValueError("valid chroma means must lie in [0, 255]")


@dataclass(frozen=True, slots=True)
class FeatureBundle:
    """All traits extracted from one observation, any of which may be absent."""

    clothing: ClothingHistogram | None = None
    height: HeightFeature | None = None
    build: BuildFeature | None = None
    complexion: ComplexionFeature | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.label is not None:
            check_label(self.label)

    def feature_vector(self, feature_id: str) -> np.ndarray | None:
        """Numeric vector for one trait, or None when unavailable."""
        if feature_id == "clothing":
            return None if self.clothing is None else self.clothing.values
        if feature_id == "height":
            if self.height is None:
                return None
            return np.array([self.height.value], dtype=np.float64)
        if feature_id == "build":
            if self.build is None:
                return None
            return np.array([self.build.value], dtype=np.float64)
        if feature_id == "complexion":
            if self.complexion is None or not self.complexion.valid:
                return None
            return np.asarray(self.complexion.means, dtype=np.float64)
        raise KeyError(feature_id)

    def restrict(self, features: Sequence[str]) -> "FeatureBundle":
        """Copy with every trait outside ``features`` dropped."""
        keep = set(features)
        unknown = keep - set(FEATURE_IDS)
        if unknown:
            raise KeyError(f"unknown features: {sorted(unknown)}")
        return FeatureBundle(
            clothing=self.clothing if "clothing" in keep else None,
            height=self.height if "height" in keep else None,
            build=self.build if "build" in keep else None,
            complexion=self.complexion if "complexion" in keep else None,
            label=self.label,
        )


def clothing_histogram(torso: np.ndarray, legs: np.ndarray) -> ClothingHistogram:
    """Chroma histograms over the torso and leg bands of one frame, each
    a (2, rows, columns) uint8 array of Cb and Cr."""
    # Every byte indexes the 256-entry table, so "wrap" wraps nothing; it
    # only spares the bounds check that "raise" makes.
    blocks = enumerate((*torso, *legs))
    keys = np.concatenate([np.take(_BLOCK_KEYS[k], p.ravel(), mode="wrap") for k, p in blocks])
    counts = np.bincount(keys, minlength=4 * HISTOGRAM_BINS)
    # A band without pixels counts nothing, and its block stays all zero.
    sizes = np.repeat([torso[0].size, legs[0].size], 2 * HISTOGRAM_BINS)
    return ClothingHistogram(counts / np.maximum(sizes, 1))


def extract_height(sample: SubjectSample) -> HeightFeature | None:
    """Subject height as a fraction of the entrance reference height, or
    None when the sample lacks either box metric."""
    if sample.bbox_height is None or sample.entrance_ref_height is None:
        return None
    return HeightFeature(sample.bbox_height / sample.entrance_ref_height)


def vertical_projection(mask: SilhouetteMask) -> np.ndarray:
    """Foreground pixel count per column."""
    return mask.bits.sum(axis=0, dtype=np.int64)


def build_ratio(profile: np.ndarray) -> BuildFeature | None:
    """Peak height-to-effective-width ratio of one column profile, or None
    when the profile is empty or all zero.

    The effective width counts only columns reaching at least
    ``BUILD_THRESHOLD`` times the profile peak, which suppresses swinging
    arms and other thin protrusions.
    """
    counts = np.asarray(profile, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError("profile must be a 1-D count array")
    peak = int(counts.max()) if counts.size else 0
    if peak <= 0:
        return None
    return BuildFeature(peak / int(np.count_nonzero(counts >= BUILD_THRESHOLD * peak)))


def skin_mask(region: np.ndarray) -> np.ndarray:
    """Boolean map of the pixels of a (2, rows, columns) uint8 Cb/Cr band
    whose chroma falls in the skin box (bounds inclusive)."""
    cb, cr = region
    return (
        (cb >= SKIN_CB_RANGE[0])
        & (cb <= SKIN_CB_RANGE[1])
        & (cr >= SKIN_CR_RANGE[0])
        & (cr <= SKIN_CR_RANGE[1])
    )


def complexion(region: np.ndarray) -> ComplexionFeature:
    """Mean chroma over skin pixels of the head band, a (2, rows, columns)
    uint8 Cb/Cr array.

    Returns an invalid feature when the band shows no skin at all, which
    is the normal outcome for a subject walking away from the camera.
    """
    skin = skin_mask(region)
    if not skin.any():
        return ComplexionFeature((math.nan, math.nan), valid=False)
    cb, cr = (float(plane[skin].mean()) for plane in region)
    return ComplexionFeature((cb, cr), valid=True)


def extract_bundle(sample: SubjectSample) -> FeatureBundle:
    """Run the full extraction chain on one observation.

    Clothing and complexion come from the size-normalized frame; height
    and build come from the entrance box metrics and silhouette, and are
    left out when those are missing.
    """
    chroma = rgb_to_ycbcr(normalize_size(sample.image))
    return FeatureBundle(
        clothing=clothing_histogram(chroma[:, _HEAD_END:_TORSO_END], chroma[:, _TORSO_END:]),
        height=extract_height(sample),
        build=None if sample.mask is None else build_ratio(vertical_projection(sample.mask)),
        complexion=complexion(chroma[:, :_HEAD_END]),
    )


def fuse_bundles(
    per_camera: Mapping[str, FeatureBundle], label: str | None = None
) -> FeatureBundle:
    """Merge one observation seen by paired cameras into a single bundle.

    Clothing histograms and complexion chroma are concatenated in sorted
    camera order; the fused complexion is valid only when every camera
    saw skin. Height and build are taken from the first camera (in that
    same order) that measured them, which is the entrance-facing one in
    datasets produced here. The result carries ``label`` whatever the
    camera bundles carry.
    """
    if not per_camera:
        raise ValueError("need at least one camera")
    order = sorted(per_camera)
    bundles = [per_camera[cid] for cid in order]
    if len(bundles) == 1:
        only = bundles[0]
        return only if only.label == label else replace(only, label=label)

    if any(b.clothing is None for b in bundles):
        clothing = None
    else:
        clothing = ClothingHistogram(
            np.concatenate([b.clothing.values for b in bundles])
        )

    if any(b.complexion is None or not b.complexion.valid for b in bundles):
        skin = ComplexionFeature((math.nan, math.nan), valid=False)
    else:
        means: tuple[float, ...] = ()
        for b in bundles:
            means = means + b.complexion.means
        skin = ComplexionFeature(means, valid=True)

    height = next((b.height for b in bundles if b.height is not None), None)
    build = next((b.build for b in bundles if b.build is not None), None)
    return FeatureBundle(
        clothing=clothing,
        height=height,
        build=build,
        complexion=skin,
        label=label,
    )
