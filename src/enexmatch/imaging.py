"""Raster input, resampling, chroma conversion, and body-band splitting.

Only binary netpbm rasters are handled: P6 color images and P5 grayscale
silhouette masks, both with maxval 255. Headers may carry ``#`` comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateImageError,
    DimensionOverflowError,
    ImageFormatError,
    ImagePayloadError,
)

# Refuse headers that would allocate unreasonable buffers.
MAX_PIXELS = 1 << 26

# The (height, width) every observation is resampled to before its
# clothing and complexion are read.
FRAME = (128, 64)

# Grayscale value above which a mask pixel counts as foreground.
FOREGROUND_THRESHOLD = 127

_WHITESPACE = b" \t\r\n\v\f"
# One netpbm header field: whitespace and "#" comments, each running to
# the next line break or the end of the data, then a run of digits.
_FIELD = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*\n?)*([0-9]*)")


@dataclass(frozen=True)
class Image:
    """RGB raster stored as a (height, width, 3) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        p = self.pixels
        if not isinstance(p, np.ndarray) or p.ndim != 3 or p.shape[2] != 3:
            raise ValueError("pixels must be a (height, width, 3) array")
        if p.dtype != np.uint8:
            raise ValueError("pixels must be uint8")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("image must have at least one pixel")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class ChromaImage:
    """Cb and Cr planes of a raster, as one (2, height, width) uint8 array."""

    planes: np.ndarray

    def __post_init__(self) -> None:
        p = self.planes
        if not isinstance(p, np.ndarray) or p.ndim != 3 or p.shape[0] != 2:
            raise ValueError("planes must be a (2, height, width) array")
        if p.dtype != np.uint8:
            raise ValueError("planes must be uint8")


@dataclass(frozen=True)
class SilhouetteMask:
    """Boolean foreground map paired with an image of equal size."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        b = self.bits
        if not isinstance(b, np.ndarray) or b.ndim != 2 or b.dtype != np.bool_:
            raise ValueError("bits must be a 2-D boolean array")
        if b.shape[0] < 1 or b.shape[1] < 1:
            raise ValueError("mask must have at least one pixel")

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]


@dataclass(frozen=True)
class BodyRegions:
    """Head, torso, and leg bands cut from one normalized frame at the
    rows ``band_boundaries`` gives for its height."""

    head: ChromaImage
    torso: ChromaImage
    legs: ChromaImage


def _read(path: str | Path, magic: bytes, depth: int) -> np.ndarray:
    """The read-only (height, width, depth) payload of a binary netpbm
    file with maxval 255 whose header starts with ``magic``."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 3 or data[:2] != magic:
        raise ImageFormatError(f"{path}: expected {magic.decode()} magic")
    if data[2] not in _WHITESPACE and data[2] != ord("#"):
        raise ImageFormatError(f"{path}: malformed magic")
    pos = 2
    fields: list[int] = []
    for _ in range(3):
        field = _FIELD.match(data, pos)
        pos = field.end()
        if not field[1]:
            raise ImageFormatError(f"{path}: malformed header")
        # Bound the digit run before int(), which refuses very long ones.
        digits = field[1].lstrip(b"0")
        if len(digits) > len(str(MAX_PIXELS)):
            raise DimensionOverflowError(
                f"{path}: a {len(digits)}-digit header field exceeds the "
                f"{MAX_PIXELS} pixel budget"
            )
        fields.append(int(digits or b"0"))
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ImageFormatError(f"{path}: header not terminated by whitespace")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: bad dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise DimensionOverflowError(
            f"{path}: {width}x{height} exceeds the {MAX_PIXELS} pixel budget"
        )
    expected = width * height * depth
    if len(data) - pos != expected:
        raise ImagePayloadError(
            f"{path}: expected {expected} payload bytes, found {len(data) - pos}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(height, width, depth)


def _write(path: str | Path, magic: bytes, pixels: np.ndarray) -> None:
    height, width = pixels.shape[:2]
    header = b"%s\n%d %d\n255\n" % (magic, width, height)
    Path(path).write_bytes(header + pixels.tobytes())


def load_image(path: str | Path) -> Image:
    """Decode a binary P6 color image with maxval 255."""
    return Image(_read(path, b"P6", 3).copy())


def save_image(image: Image, path: str | Path) -> None:
    """Write a binary P6 file; load_image(save_image(x)) is byte-stable."""
    _write(path, b"P6", image.pixels)


def load_mask(path: str | Path) -> SilhouetteMask:
    """Decode a binary P5 silhouette; values above 127 are foreground."""
    return SilhouetteMask(_read(path, b"P5", 1)[:, :, 0] > FOREGROUND_THRESHOLD)


def save_mask(mask: SilhouetteMask, path: str | Path) -> None:
    """Write a binary P5 file using 255 for foreground and 0 elsewhere."""
    _write(path, b"P5", np.where(mask.bits, 255, 0).astype(np.uint8))


@lru_cache(maxsize=64)
def _taps(source: int, target: int) -> tuple[np.ndarray, ...]:
    """Both source neighbours of each of ``target`` samples along one axis,
    and their weights in 1 / (2 * target) units: sample i sits at
    ((2i + 1) * source - target) / (2 * target), clamped to the source.
    The arrays are shared by every frame of that size, so read-only."""
    scale = 2 * target
    n = np.arange(1, scale, 2) * source - target
    first, weight = np.divmod(np.clip(n, 0, scale * (source - 1)), scale)
    taps = first, np.minimum(first + 1, source - 1), scale - weight, weight
    for array in taps:
        array.flags.writeable = False
    return taps


def _resample(values: np.ndarray, axis: int) -> np.ndarray:
    """Resample a (rows, columns, 3) array along ``axis`` to that side of
    ``FRAME``, unrounded: each value is a whole number of 1 / (2 * side)
    units of the input, uint8 into uint16 or uint16 into uint32."""
    first, second, w0, w1 = _taps(values.shape[axis], FRAME[axis])
    weights = np.stack([w0, w1]).astype(np.uint16 if values.dtype == np.uint8 else np.uint32)
    # Weights span every later axis, so each product runs in long strides.
    weights = weights[:, :, None, None] if axis == 0 else np.repeat(weights[:, :, None], 3, axis=2)
    out = values.take(first, axis) * weights[0]
    out += values.take(second, axis) * weights[1]
    return out


def normalize_size(image: Image) -> Image:
    """Resample to the fixed ``FRAME`` with bilinear interpolation.

    Sample positions align source and target pixel centers; coordinates
    are clamped at the borders, so corners map to corner pixels. Both
    frame sides are powers of two, so every weight is a whole number of
    256ths (rows) or 128ths (columns), and the resample is exact in
    integers: a first pass into uint16 (at most 256 * 255), a second into
    uint32 (at most 2**15 * 255) and one rounding, half up. A float64
    resampler's weights and sums are all exact too, so it gives the same
    bytes. The axis whose pass shrinks the data more goes first, so no
    temporary outgrows both the source and a few frames.
    """
    pixels = image.pixels
    height, width = pixels.shape[:2]
    if (height, width) == FRAME:
        return Image(pixels.copy())
    out = pixels
    for axis in (0, 1) if FRAME[0] * width <= height * FRAME[1] else (1, 0):
        out = _resample(out, axis)
    out += 1 << 14
    out >>= 15
    return Image(out.astype(np.uint8))


def rgb_to_ycbcr(image: Image) -> ChromaImage:
    """Cb and Cr of the full-range BT.601 conversion, rounded half-up and
    clamped to [0, 255], as one read-only planar array; no trait reads luma."""
    rgb = np.ascontiguousarray(image.pixels.transpose(2, 0, 1), dtype=np.float64)
    r, g, b = rgb
    planes = np.empty((2, *r.shape))
    cb, cr = planes
    # Evaluated in place, term by term and left to right, so every value
    # rounds as the formula 128 - 0.168736 * r - 0.331264 * g + 0.5 * b
    # and so on does; a fresh array per operation made enroll jobs
    # page-fault heavily. Once both planes have read r, its plane holds
    # each later term.
    np.subtract(128.0, np.multiply(r, 0.168736, out=cb), out=cb)
    np.add(128.0, np.multiply(r, 0.5, out=cr), out=cr)
    term = r
    cb -= np.multiply(g, 0.331264, out=term)
    cb += np.multiply(b, 0.5, out=term)
    cr -= np.multiply(g, 0.418688, out=term)
    cr -= np.multiply(b, 0.081312, out=term)
    planes += 0.5
    # Before the half is added each value is 0.5 or more, to within
    # rounding, so the cast's truncation floors it; only 255 needs a clamp.
    np.minimum(planes, 255.0, out=planes)
    chroma = planes.astype(np.uint8)
    chroma.flags.writeable = False
    return ChromaImage(chroma)


def band_boundaries(height: int) -> tuple[int, int]:
    """Row indices splitting a frame into head, torso, and leg bands.

    The head takes the top sixth (rounded up) and the torso runs to 55%
    of the height (rounded down). Cuts are nudged inward when a band
    would otherwise be empty, which only happens at very small heights.
    """
    if height < 3:
        raise DegenerateImageError(f"cannot split {height} rows into three bands")
    head_end = max(1, min(-(-height // 6), height - 2))
    torso_end = max(head_end + 1, min(55 * height // 100, height - 1))
    return head_end, torso_end


def decompose_regions(image: ChromaImage) -> BodyRegions:
    """Split a normalized frame into head, torso, and leg bands."""
    planes = image.planes
    head_end, torso_end = band_boundaries(planes.shape[1])
    return BodyRegions(
        head=ChromaImage(planes[:, :head_end]),
        torso=ChromaImage(planes[:, head_end:torso_end]),
        legs=ChromaImage(planes[:, torso_end:]),
    )
