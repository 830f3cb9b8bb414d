"""Raster input, resampling, color conversion, and body-band splitting.

Only binary netpbm rasters are handled: P6 color images and P5 grayscale
silhouette masks, both with maxval 255. Headers may carry ``#`` comments.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# Grayscale value above which a mask pixel counts as foreground.
FOREGROUND_THRESHOLD = 127

_WHITESPACE = b" \t\r\n\v\f"


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
class YCbCrImage:
    """Luma/chroma raster, same layout as Image, planes ordered Y, Cb, Cr."""

    planes: np.ndarray

    def __post_init__(self) -> None:
        p = self.planes
        if not isinstance(p, np.ndarray) or p.ndim != 3 or p.shape[2] != 3:
            raise ValueError("planes must be a (height, width, 3) array")
        if p.dtype != np.uint8:
            raise ValueError("planes must be uint8")

    @property
    def height(self) -> int:
        return self.planes.shape[0]

    @property
    def width(self) -> int:
        return self.planes.shape[1]


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

    head: YCbCrImage
    torso: YCbCrImage
    legs: YCbCrImage


def _parse_header(data: bytes, magic: bytes, path: Path) -> tuple[int, int, int]:
    """Return (width, height, payload offset) for a P5/P6 header."""
    if len(data) < 3 or data[:2] != magic:
        raise ImageFormatError(f"{path}: expected {magic.decode()} magic")
    if data[2] not in _WHITESPACE and data[2] != ord("#"):
        raise ImageFormatError(f"{path}: malformed magic")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(data):
            c = data[pos]
            if c in _WHITESPACE:
                pos += 1
            elif c == ord("#"):
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            else:
                break
        start = pos
        while pos < len(data) and 0x30 <= data[pos] <= 0x39:
            pos += 1
        if pos == start:
            raise ImageFormatError(f"{path}: malformed header")
        # Bound the digit run before int(), which refuses very long ones.
        digits = data[start:pos].lstrip(b"0")
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
    return width, height, pos


def _payload(data: bytes, offset: int, expected: int, path: Path) -> bytes:
    body = data[offset:]
    if len(body) != expected:
        raise ImagePayloadError(
            f"{path}: expected {expected} payload bytes, found {len(body)}"
        )
    return body


def load_image(path: str | Path) -> Image:
    """Decode a binary P6 color image with maxval 255."""
    path = Path(path)
    data = path.read_bytes()
    width, height, offset = _parse_header(data, b"P6", path)
    body = _payload(data, offset, width * height * 3, path)
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3)
    return Image(pixels.copy())


def save_image(image: Image, path: str | Path) -> None:
    """Write a binary P6 file; load_image(save_image(x)) is byte-stable."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels.tobytes())


def load_mask(path: str | Path) -> SilhouetteMask:
    """Decode a binary P5 silhouette; values above 127 are foreground."""
    path = Path(path)
    data = path.read_bytes()
    width, height, offset = _parse_header(data, b"P5", path)
    body = _payload(data, offset, width * height, path)
    gray = np.frombuffer(body, dtype=np.uint8).reshape(height, width)
    return SilhouetteMask(gray > FOREGROUND_THRESHOLD)


def save_mask(mask: SilhouetteMask, path: str | Path) -> None:
    """Write a binary P5 file using 255 for foreground and 0 elsewhere."""
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    gray = np.where(mask.bits, 255, 0).astype(np.uint8)
    Path(path).write_bytes(header + gray.tobytes())


def normalize_size(image: Image, height: int = 128, width: int = 64) -> Image:
    """Resample to a fixed frame with bilinear interpolation.

    Sample positions align source and target pixel centers; coordinates
    are clamped at the borders, so corners map to corner pixels.
    """
    if height < 1 or width < 1:
        raise ValueError("target dimensions must be positive")
    if image.height == height and image.width == width:
        return Image(image.pixels.copy())
    src_h, src_w = image.height, image.width
    ys = (np.arange(height, dtype=np.float64) + 0.5) * (src_h / height) - 0.5
    xs = (np.arange(width, dtype=np.float64) + 0.5) * (src_w / width) - 0.5
    ys = np.clip(ys, 0.0, src_h - 1.0)
    xs = np.clip(xs, 0.0, src_w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    r0 = (y0 * src_w)[:, None]
    r1 = (y1 * src_w)[:, None]
    flat = image.pixels.reshape(-1, 3)
    # The neighbours are gathered from the uint8 pixels, and the terms are
    # summed in place and left to right, as w00*p00 + w01*p01 + w10*p10 +
    # w11*p11 reads: another order can round a sum near .5 to a different
    # byte, and a fresh full-size array per operation made enroll jobs
    # page-fault heavily.
    out = (1.0 - wy) * (1.0 - wx) * np.take(flat, r0 + x0, axis=0)
    term = np.empty_like(out)
    out += np.multiply((1.0 - wy) * wx, np.take(flat, r0 + x1, axis=0), out=term)
    out += np.multiply(wy * (1.0 - wx), np.take(flat, r1 + x0, axis=0), out=term)
    out += np.multiply(wy * wx, np.take(flat, r1 + x1, axis=0), out=term)
    out += 0.5
    np.floor(out, out=out)
    np.clip(out, 0, 255, out=out)
    return Image(out.astype(np.uint8))


def rgb_to_ycbcr(image: Image) -> YCbCrImage:
    """Full-range BT.601 conversion, rounded half-up and clamped to [0, 255]."""
    rgb = np.ascontiguousarray(image.pixels.transpose(2, 0, 1), dtype=np.float64)
    r, g, b = rgb
    planes = np.empty_like(rgb)
    y, cb, cr = planes
    term = np.empty_like(r)
    # Evaluated in place, term by term and left to right, so every value
    # rounds as the formula 0.299 * r + 0.587 * g + 0.114 * b and so on
    # does; a fresh array per operation made enroll jobs page-fault heavily.
    np.multiply(r, 0.299, out=y)
    y += np.multiply(g, 0.587, out=term)
    y += np.multiply(b, 0.114, out=term)
    np.subtract(128.0, np.multiply(r, 0.168736, out=cb), out=cb)
    cb -= np.multiply(g, 0.331264, out=term)
    cb += np.multiply(b, 0.5, out=term)
    np.add(128.0, np.multiply(r, 0.5, out=cr), out=cr)
    cr -= np.multiply(g, 0.418688, out=term)
    cr -= np.multiply(b, 0.081312, out=term)
    planes += 0.5
    np.floor(planes, out=planes)
    np.clip(planes, 0, 255, out=planes)
    return YCbCrImage(np.ascontiguousarray(planes.astype(np.uint8).transpose(1, 2, 0)))


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


def decompose_regions(image: YCbCrImage) -> BodyRegions:
    """Split a normalized frame into head, torso, and leg bands."""
    head_end, torso_end = band_boundaries(image.height)
    return BodyRegions(
        head=YCbCrImage(image.planes[:head_end]),
        torso=YCbCrImage(image.planes[head_end:torso_end]),
        legs=YCbCrImage(image.planes[torso_end:]),
    )
