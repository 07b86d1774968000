"""BMP container tests; expected headers are hand-packed with struct."""

import struct

import pytest
from hypothesis import given, strategies as st

from netsteglab.bmp import (
    BmpError,
    BmpInfo,
    NotBmp,
    UnsupportedBpp,
    bmp_file_size,
    make_bmp,
    parse_bmp_info,
)


def hand_header(width, height, bpp, pixel_offset, file_size):
    """Independently packed 54-byte header."""
    return struct.pack(
        "<2sIHHIIiiHHIIiiII",
        b"BM", file_size, 0, 0, pixel_offset,
        40, width, height, 1, bpp, 0, file_size - pixel_offset,
        2835, 2835, 0, 0,
    )


def test_parse_hand_built_header():
    header = hand_header(640, 480, 24, 54, 54 + ((640 * 3 + 3) // 4 * 4) * 480)
    info = parse_bmp_info(header)
    assert info == BmpInfo(pixel_offset=54, width=640, height=480, bits_per_pixel=24)
    assert info.bytes_per_pixel == 3
    assert info.row_stride == 1920  # 640*3 is already 4-aligned
    assert info.capacity_bits == 640 * 480


def test_stride_rounds_up_to_four_bytes():
    info = parse_bmp_info(make_bmp(510, 2, 24))
    assert info.row_stride == 1532  # 510*3 = 1530 -> padded
    info = parse_bmp_info(make_bmp(2, 1, 24))
    assert info.row_stride == 8  # 6 data + 2 pad


def test_negative_height_is_top_down_layout():
    header = bytearray(hand_header(4, 4, 24, 54, 54 + 16 * 4))
    header[22:26] = struct.pack("<i", -4)
    info = parse_bmp_info(bytes(header))
    assert info.height == 4


def test_file_sizes():
    assert bmp_file_size(2, 1, 24) == 62
    assert bmp_file_size(512, 512, 24) == 786_486
    assert bmp_file_size(510, 510, 24) == 54 + 1532 * 510
    assert bmp_file_size(256, 256, 8) == 54 + 1024 + 256 * 256
    assert len(make_bmp(512, 512, 24)) == 786_486


def test_eight_bpp_layout():
    data = make_bmp(3, 2, 8)
    info = parse_bmp_info(data)
    assert info.pixel_offset == 54 + 1024  # palette between header and pixels
    assert info.bytes_per_pixel == 1
    assert info.row_stride == 4
    assert len(data) == 54 + 1024 + 4 * 2
    assert info.pixel_data_end == len(data)


def test_make_bmp_round_trips_geometry():
    for width, height, bpp in [(1, 1, 24), (7, 3, 24), (5, 4, 8), (96, 64, 24)]:
        data = make_bmp(width, height, bpp)
        info = parse_bmp_info(data)
        assert (info.width, info.height, info.bits_per_pixel) == (width, height, bpp)
        assert len(data) == bmp_file_size(width, height, bpp)
        assert info.pixel_data_end == len(data)


def test_not_bmp_cases():
    with pytest.raises(NotBmp):
        parse_bmp_info(b"PNG" + bytes(60))
    with pytest.raises(NotBmp):
        parse_bmp_info(bytes(10))  # too short to hold a header
    zero_width = bytearray(make_bmp(2, 2, 24))
    zero_width[18:22] = struct.pack("<i", 0)
    with pytest.raises(NotBmp):
        parse_bmp_info(bytes(zero_width))
    bad_offset = bytearray(make_bmp(2, 2, 24))
    bad_offset[10:14] = struct.pack("<I", 10)
    with pytest.raises(NotBmp):
        parse_bmp_info(bytes(bad_offset))


def test_unsupported_depth():
    header = bytearray(make_bmp(2, 2, 24))
    header[28:30] = struct.pack("<H", 16)
    with pytest.raises(UnsupportedBpp):
        parse_bmp_info(bytes(header))


def test_make_bmp_validation():
    with pytest.raises(ValueError):
        make_bmp(0, 5, 24)
    with pytest.raises(UnsupportedBpp):
        make_bmp(5, 5, 16)


def test_compressed_pixel_data_is_not_a_carrier():
    rle8 = bytearray(make_bmp(4, 4, 8))
    rle8[30:34] = struct.pack("<I", 1)  # BI_RLE8
    with pytest.raises(NotBmp):
        parse_bmp_info(bytes(rle8))
    bitfields = bytearray(make_bmp(4, 4, 24))
    bitfields[30:34] = struct.pack("<I", 3)  # BI_BITFIELDS
    with pytest.raises(NotBmp):
        parse_bmp_info(bytes(bitfields))


def test_pixel_data_past_32_bit_file_size_is_rejected():
    huge = hand_header(1 << 30, 1 << 30, 24, 54, 54)
    with pytest.raises(NotBmp):
        parse_bmp_info(huge)
    # 1024 pixels at 24 bpp: 3072-byte rows.  The tallest such image whose
    # pixel data still ends inside 2**32 bytes is accepted, one row more is not,
    # even when bfSize claims the largest size its 32 bits can hold.
    tallest = (0xFFFFFFFF - 54) // 3072
    assert parse_bmp_info(hand_header(1024, tallest, 24, 54, 54 + tallest * 3072)) \
        .pixel_data_end == 54 + tallest * 3072
    with pytest.raises(NotBmp):
        parse_bmp_info(hand_header(1024, tallest + 1, 24, 54, 0xFFFFFFFF))


def test_pixel_data_past_declared_file_size_is_rejected():
    # An 8x8x24 image needs 54 + 8 * 24 bytes; a header claiming 78 would let
    # a tap rewrite whatever follows the file in the stream.
    with pytest.raises(NotBmp):
        parse_bmp_info(hand_header(8, 8, 24, 54, 78))
    with pytest.raises(NotBmp):
        parse_bmp_info(hand_header(8, 8, 24, 54, 54 + 8 * 24 - 1))
    assert parse_bmp_info(hand_header(8, 8, 24, 54, 54 + 8 * 24)).height == 8
    # a larger bfSize (trailing bytes after the pixels) is still a carrier
    assert parse_bmp_info(hand_header(8, 8, 24, 54, 1000)).height == 8


def test_short_image_size_is_rejected_and_zero_means_unstated():
    header = bytearray(make_bmp(8, 8, 24))
    header[34:38] = struct.pack("<I", 8 * 24 - 1)  # biSizeImage one byte short
    with pytest.raises(NotBmp):
        parse_bmp_info(bytes(header))
    header[34:38] = struct.pack("<I", 0)  # allowed for uncompressed pixel data
    assert parse_bmp_info(bytes(header)).pixel_data_end == 54 + 8 * 24


# ---------------------------------------------------------------------------
# fuzzing: arbitrary bytes raise only BmpError


@st.composite
def mangled_headers(draw):
    """A valid file with a few bytes overwritten, cut anywhere."""
    data = bytearray(make_bmp(3, 2, draw(st.sampled_from([8, 24]))))
    for pos, value in draw(st.lists(st.tuples(st.integers(0, 53), st.integers(0, 255)),
                                    max_size=6)):
        data[pos] = value
    return bytes(data[:draw(st.integers(0, len(data)))])


@given(data=st.one_of(st.binary(max_size=80), mangled_headers()))
def test_parse_bmp_info_on_arbitrary_bytes_raises_only_bmp_error(data):
    try:
        info = parse_bmp_info(data)
    except BmpError:
        return
    assert info.width > 0 and info.height > 0 and info.pixel_offset >= 54


# ---------------------------------------------------------------------------
# make_bmp against a per-pixel reference


def make_bmp_oracle(width, height, bpp):
    """Per-pixel reference for make_bmp, packed field by field with struct."""
    stride = (width * (bpp // 8) + 3) // 4 * 4
    pixel_offset = 54 + (1024 if bpp == 8 else 0)
    out = bytearray(hand_header(width, height, bpp, pixel_offset,
                                pixel_offset + height * stride))
    if bpp == 8:
        for i in range(256):
            out += struct.pack("<BBBB", i, i, i, 0)
    for y in range(height):
        row = bytearray()
        for x in range(width):
            pixel = (x & 0xFF, y & 0xFF, (x * 7 + y * 13) & 0xFF)
            row += bytes(pixel) if bpp == 24 else bytes(pixel[2:])
        out += row + bytes(stride - len(row))
    return bytes(out)


@pytest.mark.parametrize("bpp", [8, 24], ids=["8-gradient", "24-gradient"])
def test_make_bmp_matches_per_pixel_reference(bpp):
    for width in list(range(1, 10)) + [255, 256, 257, 300]:
        for height in (1, 2, 3, 20, 300):
            assert make_bmp(width, height, bpp) == make_bmp_oracle(width, height, bpp), \
                (width, height)
