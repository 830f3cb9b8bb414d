import tracemalloc

import numpy as np
import pytest

from enexmatch import (
    ChromaImage,
    DegenerateImageError,
    DimensionOverflowError,
    EnexError,
    Image,
    ImageFormatError,
    ImagePayloadError,
    SilhouetteMask,
    band_boundaries,
    decompose_regions,
    load_image,
    load_mask,
    normalize_size,
    rgb_to_ycbcr,
    save_image,
    save_mask,
)
from enexmatch.imaging import FOREGROUND_THRESHOLD, FRAME, _taps
from helpers import random_image

# Each netpbm loader with its magic and bytes per pixel.
NETPBM = [(load_image, b"P6", 3), (load_mask, b"P5", 1)]


def bilinear_reference(pixels, out_h, out_w):
    """Independent per-pixel resampler used as the oracle."""
    src_h, src_w = pixels.shape[:2]
    out = np.zeros((out_h, out_w, 3), dtype=np.uint8)
    for i in range(out_h):
        y = (i + 0.5) * (src_h / out_h) - 0.5
        y = min(max(y, 0.0), src_h - 1.0)
        y0 = int(np.floor(y))
        y1 = min(y0 + 1, src_h - 1)
        fy = y - y0
        for j in range(out_w):
            x = (j + 0.5) * (src_w / out_w) - 0.5
            x = min(max(x, 0.0), src_w - 1.0)
            x0 = int(np.floor(x))
            x1 = min(x0 + 1, src_w - 1)
            fx = x - x0
            for c in range(3):
                value = (
                    (1 - fy) * (1 - fx) * float(pixels[y0, x0, c])
                    + (1 - fy) * fx * float(pixels[y0, x1, c])
                    + fy * (1 - fx) * float(pixels[y1, x0, c])
                    + fy * fx * float(pixels[y1, x1, c])
                )
                out[i, j, c] = min(max(int(np.floor(value + 0.5)), 0), 255)
    return out


def vectorized_reference(pixels, height, width):
    """Frozen copy of the per-call index-and-weight resampler.

    This is the vectorized body ``normalize_size`` had before it gathered
    from the uint8 pixels with flat indices; outputs must stay equal to
    it byte for byte.
    """
    src = pixels.astype(np.float64)
    src_h, src_w = pixels.shape[:2]
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
    p00 = src[y0][:, x0]
    p01 = src[y0][:, x1]
    p10 = src[y1][:, x0]
    p11 = src[y1][:, x1]
    out = (
        (1.0 - wy) * (1.0 - wx) * p00
        + (1.0 - wy) * wx * p01
        + wy * (1.0 - wx) * p10
        + wy * wx * p11
    )
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


class TestNetpbm:
    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        image = random_image(rng, 31, 17)
        path = tmp_path / "a.ppm"
        save_image(image, path)
        back = load_image(path)
        assert np.array_equal(back.pixels, image.pixels)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        first = tmp_path / "a.ppm"
        second = tmp_path / "b.ppm"
        save_image(random_image(rng, 9, 5), first)
        save_image(load_image(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pnm"
        for loader, magic, depth in NETPBM:
            payload = bytes(range(100, 100 + 2 * 2 * depth * 10, 10))
            head = magic + b" # trailing comment\n# full line\n  2\t2 # dims\n255\n"
            path.write_bytes(head + payload)
            loaded = loader(path)
            assert loaded.width == 2 and loaded.height == 2
            if depth == 3:
                assert loaded.pixels.ravel().tolist() == list(payload)
            else:
                assert loaded.bits.ravel().tolist() == [v > FOREGROUND_THRESHOLD for v in payload]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pnm"
        for loader, _, depth in NETPBM:
            path.write_bytes(b"P3\n1 1\n255\n" + b"\x00" * depth)
            with pytest.raises(ImageFormatError):
                loader(path)

    def test_magic_must_be_delimited(self, tmp_path):
        path = tmp_path / "bad.pnm"
        for loader, magic, depth in NETPBM:
            path.write_bytes(magic + b"1 1\n255\n" + b"\x00" * depth)
            with pytest.raises(ImageFormatError):
                loader(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "bad.pnm"
        for loader, magic, depth in NETPBM:
            path.write_bytes(magic + b"\n1 1\n65535\n" + b"\x00" * 2 * depth)
            with pytest.raises(ImageFormatError):
                loader(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "bad.pnm"
        for loader, magic, _ in NETPBM:
            path.write_bytes(magic + b"\n0 4\n255\n")
            with pytest.raises(ImageFormatError):
                loader(path)

    def test_short_payload(self, tmp_path):
        path = tmp_path / "bad.pnm"
        for loader, magic, depth in NETPBM:
            path.write_bytes(magic + b"\n3 1\n255\n" + b"\x00" * 2 * depth)
            with pytest.raises(ImagePayloadError):
                loader(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "bad.pnm"
        for loader, magic, depth in NETPBM:
            path.write_bytes(magic + b"\n1 1\n255\n" + b"\x00" * (depth + 1))
            with pytest.raises(ImagePayloadError):
                loader(path)

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.pnm"
        for loader, magic, _ in NETPBM:
            path.write_bytes(magic + b"\n100000 100000\n255\n")
            with pytest.raises(DimensionOverflowError):
                loader(path)

    @pytest.mark.parametrize("loader, magic", [(load_image, b"P6"), (load_mask, b"P5")])
    @pytest.mark.parametrize("field", range(3))
    def test_oversized_header_field(self, tmp_path, loader, magic, field):
        # int() refuses runs of more than 4300 digits with a ValueError.
        fields = [b"1", b"1", b"255"]
        fields[field] = b"9" * 5000
        path = tmp_path / "long.pnm"
        path.write_bytes(magic + b"\n" + b" ".join(fields) + b"\n" + b"\x00" * 3)
        with pytest.raises(DimensionOverflowError):
            loader(path)

    def test_leading_zeros_do_not_count_toward_the_digit_bound(self, tmp_path):
        path = tmp_path / "zeros.ppm"
        path.write_bytes(b"P6\n" + b"0" * 5000 + b"1 1\n0255\n" + b"\x00" * 3)
        assert load_image(path).pixels.shape == (1, 1, 3)

    @pytest.mark.parametrize("loader, saver", [(load_image, save_image), (load_mask, save_mask)])
    def test_seeded_header_mutations_raise_only_library_errors(self, tmp_path, loader, saver):
        rng = np.random.default_rng(41)
        source = tmp_path / "source.pnm"
        if saver is save_image:
            saver(random_image(rng, 7, 5), source)
        else:
            saver(SilhouetteMask(rng.random((7, 5)) < 0.5), source)
        raw = source.read_bytes()
        header = raw.index(b"255\n") + 4
        path = tmp_path / "mutant.pnm"
        outcomes = {"loaded": 0, "refused": 0}
        for _ in range(1500):
            blob = bytearray(raw)
            kind = rng.integers(3)
            if kind == 0:
                blob[rng.integers(header)] = rng.integers(256)
            elif kind == 1:
                del blob[rng.integers(header) :]
            else:
                at = int(rng.integers(2, header))
                run = rng.integers(ord("0"), ord("9") + 1, int(rng.integers(1, 6000)))
                blob[at:at] = run.astype(np.uint8).tobytes()
            path.write_bytes(bytes(blob))
            try:
                loader(path)
            except EnexError:
                outcomes["refused"] += 1
            else:
                outcomes["loaded"] += 1
        assert outcomes["refused"] > 1000 and outcomes["loaded"] > 0

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "nope.ppm")

    def test_mask_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        mask = SilhouetteMask(rng.random((20, 10)) < 0.5)
        path = tmp_path / "m.pgm"
        save_mask(mask, path)
        assert np.array_equal(load_mask(path).bits, mask.bits)

    def test_mask_threshold_boundary(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([127, 128]))
        mask = load_mask(path)
        assert mask.bits.tolist() == [[False, True]]


class TestNormalizeSize:
    def test_identity_is_pixel_exact(self):
        rng = np.random.default_rng(21)
        image = random_image(rng, 128, 64)
        out = normalize_size(image)
        assert np.array_equal(out.pixels, image.pixels)

    def test_constant_stays_constant(self):
        image = Image(np.full((17, 13, 3), 200, dtype=np.uint8))
        out = normalize_size(image)
        assert np.all(out.pixels == 200)

    def test_checkerboard_corners(self):
        board = np.zeros((2, 2, 3), dtype=np.uint8)
        board[0, 1] = board[1, 0] = 255
        out = normalize_size(Image(board))
        assert out.pixels[0, 0].tolist() == [0, 0, 0]
        assert out.pixels[0, -1].tolist() == [255, 255, 255]
        assert out.pixels[-1, 0].tolist() == [255, 255, 255]
        assert out.pixels[-1, -1].tolist() == [0, 0, 0]

    @pytest.mark.parametrize("shape", [(17, 9), (200, 80), (3, 200), (64, 64)])
    def test_matches_reference_resampler(self, shape):
        rng = np.random.default_rng(sum(shape))
        image = random_image(rng, *shape)
        out = normalize_size(image)
        expected = bilinear_reference(image.pixels, 128, 64)
        assert np.array_equal(out.pixels, expected)

    def test_upscale_matches_reference(self):
        rng = np.random.default_rng(77)
        image = random_image(rng, 5, 4)
        out = normalize_size(image)
        expected = bilinear_reference(image.pixels, 128, 64)
        assert np.array_equal(out.pixels, expected)

    @pytest.mark.parametrize(
        "source",
        [(256, 128), (1, 1), (1, 57), (90, 1), (5, 4), (97, 300), (200, 90)],
        ids=[f"source{i}-target{i}" for i in (0, 1, 2, 3, 7, 8, 9)],
    )
    def test_matches_frozen_vectorized_body(self, source):
        rng = np.random.default_rng(source[0] * 1000 + source[1] + 128)
        for _ in range(3):
            image = random_image(rng, *source)
            out = normalize_size(image)
            assert np.array_equal(out.pixels, vectorized_reference(image.pixels, 128, 64))

    def test_matches_frozen_vectorized_body_on_random_shapes(self):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            source = rng.integers(1, 400, size=2)
            image = random_image(rng, *source)
            out = normalize_size(image)
            assert np.array_equal(out.pixels, vectorized_reference(image.pixels, 128, 64))

    @pytest.mark.parametrize(
        "axis, sources", [(0, range(1, 1025)), (1, range(1, 513))], ids=["rows", "columns"]
    )
    def test_plan_is_the_float_plan_in_whole_units(self, axis, sources):
        # Every float position, neighbour and weight the float64 resampler
        # uses, for every source side up to 1024 rows or 512 columns, scaled
        # by 2 * the frame side: the integer plan reproduces each exactly.
        target = FRAME[axis]
        scale = 2 * target
        for source in sources:
            pos = (np.arange(target, dtype=np.float64) + 0.5) * (source / target) - 0.5
            pos = np.clip(pos, 0.0, source - 1.0)
            first = np.floor(pos).astype(np.int64)
            weight = pos - first
            got_first, got_second, got_w0, got_w1 = _taps(source, target)
            assert np.array_equal(got_first, first)
            assert np.array_equal(got_second, np.minimum(first + 1, source - 1))
            assert np.array_equal(got_w1, weight * scale)
            assert np.array_equal(got_w0, (1.0 - weight) * scale)

    @pytest.mark.parametrize("source", [(1, 200_000), (200_000, 1), (3, 100_000)])
    def test_a_long_source_needs_only_frame_sized_temporaries(self, source):
        # Resampling rows first would hold 128 whole source rows: 150 MB
        # for the 1 x 200,000 source.
        image = random_image(np.random.default_rng(sum(source)), *source)
        tracemalloc.start()
        try:
            out = normalize_size(image)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * out.pixels.size * 4, peak
        assert np.array_equal(out.pixels, vectorized_reference(image.pixels, 128, 64))


class TestColorConversion:
    @pytest.mark.parametrize(
        "rgb,expected",
        [
            ((0, 0, 0), (128, 128)),
            ((255, 255, 255), (128, 128)),
            ((255, 0, 0), (85, 255)),
            ((0, 255, 0), (44, 21)),
            ((0, 0, 255), (255, 107)),
        ],
    )
    def test_known_triples(self, rgb, expected):
        image = Image(np.full((1, 1, 3), rgb, dtype=np.uint8))
        assert tuple(rgb_to_ycbcr(image).planes[:, 0, 0]) == expected

    def test_gray_axis_maps_to_neutral_chroma(self):
        values = np.arange(256, dtype=np.uint8)
        image = Image(np.repeat(values, 3).reshape(1, 256, 3))
        planes = rgb_to_ycbcr(image).planes
        assert np.all(planes == 128)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(31)
        image = random_image(rng, 6, 7)
        planes = rgb_to_ycbcr(image).planes
        for i in range(6):
            for j in range(7):
                r, g, b = (float(v) for v in image.pixels[i, j])
                cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
                cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
                for plane, value in enumerate((cb, cr)):
                    rounded = min(max(int(np.floor(value + 0.5)), 0), 255)
                    assert planes[plane, i, j] == rounded

    def test_every_color_matches_the_formula(self):
        side = 1024
        for chunk in range(16):
            index = np.arange(chunk * side * side, (chunk + 1) * side * side)
            rgb = np.stack([index >> 16, (index >> 8) & 255, index & 255], axis=-1)
            image = Image(rgb.astype(np.uint8).reshape(side, side, 3))
            r, g, b = (rgb[:, channel].astype(np.float64) for channel in range(3))
            cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
            cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
            expected = np.clip(np.floor(np.stack([cb, cr]) + 0.5), 0, 255)
            planes = rgb_to_ycbcr(image).planes
            assert np.array_equal(planes.reshape(2, -1), expected.astype(np.uint8))

    def test_preserves_shape(self):
        rng = np.random.default_rng(32)
        image = random_image(rng, 10, 20)
        out = rgb_to_ycbcr(image)
        assert out.planes.shape == (2, 10, 20)
        assert not out.planes.flags.writeable


class TestBodyBands:
    def test_standard_frame(self):
        assert band_boundaries(128) == (22, 70)

    def test_small_frame(self):
        assert band_boundaries(6) == (1, 3)

    def test_too_small(self):
        with pytest.raises(DegenerateImageError):
            band_boundaries(2)

    def test_bands_partition_all_heights(self):
        for height in range(3, 400):
            head_end, torso_end = band_boundaries(height)
            assert 0 < head_end < torso_end < height

    def test_decompose_slices(self):
        rng = np.random.default_rng(41)
        image = ChromaImage(rng.integers(0, 256, (2, 128, 64), dtype=np.uint8))
        regions = decompose_regions(image)
        assert band_boundaries(128) == (22, 70)
        assert np.array_equal(regions.head.planes, image.planes[:, :22])
        assert np.array_equal(regions.torso.planes, image.planes[:, 22:70])
        assert np.array_equal(regions.legs.planes, image.planes[:, 70:])
        for region in (regions.head, regions.torso, regions.legs):
            assert np.shares_memory(region.planes, image.planes)
