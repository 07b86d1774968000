"""Minimal BMP support: synthesize test carriers, inspect real ones.

Only the classic ``BITMAPINFOHEADER`` layout is handled, uncompressed, at
8 or 24 bits per pixel — the carrier formats the embedding engine knows how
to address.  Rows are stored bottom-up and padded to four-byte multiples;
8-bpp files carry a 256-entry grayscale palette.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

HEADER_LEN = 54          # 14-byte file header + 40-byte info header
PALETTE_LEN = 256 * 4
BI_RGB = 0               # biCompression value of uncompressed pixel data
_FILE_HEADER = struct.Struct("<2sIHHI")
_INFO_HEADER = struct.Struct("<IiiHHIIiiII")


class BmpError(Exception):
    """Base class for BMP carrier problems."""


class NotBmp(BmpError):
    """The bytes do not look like a BMP this engine can address."""


class UnsupportedBpp(BmpError):
    """A real BMP, but at a depth other than 8 or 24 bits per pixel."""


@dataclass(frozen=True)
class BmpInfo:
    """Geometry distilled from a BMP header, enough to address carriers."""

    pixel_offset: int
    width: int
    height: int
    bits_per_pixel: int

    @property
    def bytes_per_pixel(self) -> int:
        return self.bits_per_pixel // 8

    @property
    def row_stride(self) -> int:
        """Stored row length: pixel bytes rounded up to a 4-byte multiple."""
        return (self.width * self.bytes_per_pixel + 3) // 4 * 4

    @property
    def pixel_data_end(self) -> int:
        return self.pixel_offset + self.height * self.row_stride

    @property
    def capacity_bits(self) -> int:
        """One carrier byte per pixel: every byte at 8 bpp, red at 24 bpp."""
        return self.width * self.height


def parse_bmp_info(data: bytes) -> BmpInfo:
    """Distill :class:`BmpInfo` from the first 54 bytes of a file or stream.

    Raises :class:`NotBmp` for anything that is not a plausible uncompressed
    carrier and :class:`UnsupportedBpp` for BMPs at other pixel depths.
    The pixel data must fit inside the declared file size (``bfSize``) and,
    when ``biSizeImage`` is given, inside it too, so nothing past the file
    is ever taken for pixels.  A negative height (top-down row order) is
    folded to its magnitude: the byte layout is identical either way.
    """
    if len(data) < HEADER_LEN:
        raise NotBmp("need at least 54 header bytes")
    if data[:2] != b"BM":
        raise NotBmp("missing BM magic")
    file_size = struct.unpack_from("<I", data, 2)[0]
    pixel_offset = struct.unpack_from("<I", data, 10)[0]
    width = struct.unpack_from("<i", data, 18)[0]
    height = struct.unpack_from("<i", data, 22)[0]
    bpp = struct.unpack_from("<H", data, 28)[0]
    compression = struct.unpack_from("<I", data, 30)[0]
    image_size = struct.unpack_from("<I", data, 34)[0]
    if bpp not in (8, 24):
        raise UnsupportedBpp(f"{bpp} bits per pixel")
    if compression != BI_RGB:
        raise NotBmp(f"compressed pixel data (biCompression={compression})")
    if width <= 0 or height == 0:
        raise NotBmp(f"degenerate dimensions {width}x{height}")
    if pixel_offset < HEADER_LEN:
        raise NotBmp("pixel data would overlap the header")
    info = BmpInfo(
        pixel_offset=pixel_offset,
        width=width,
        height=abs(height),
        bits_per_pixel=bpp,
    )
    if file_size < info.pixel_data_end:
        raise NotBmp(
            f"{width}x{abs(height)} pixel data ends at byte {info.pixel_data_end}, "
            f"past the declared file size {file_size}"
        )
    if 0 < image_size < info.height * info.row_stride:
        raise NotBmp(f"biSizeImage {image_size} is shorter than the pixel data")
    return info


def bmp_file_size(width: int, height: int, bpp: int = 24) -> int:
    """Size in bytes of a file :func:`make_bmp` would generate."""
    stride = (width * (bpp // 8) + 3) // 4 * 4
    palette = PALETTE_LEN if bpp == 8 else 0
    return HEADER_LEN + palette + height * stride


_BYTE_VALUES = bytes(range(256))
_TIMES_7 = bytes(7 * v & 0xFF for v in range(256))
_GRAY_PALETTE = bytes(v for i in range(256) for v in (i, i, i, 0))


def _plus(k: int) -> bytes:
    """Translate table adding ``k`` modulo 256 to every byte."""
    k &= 0xFF
    return _BYTE_VALUES[k:] + _BYTE_VALUES[:k]


def make_bmp(width: int, height: int, bpp: int = 24) -> bytes:
    """Deterministic synthetic BMP so tests and demos need no binary fixtures.

    The pixel fill is a gradient with varied low bits: the pixel at column
    x, row y is ``(blue, green, red) = (x, y, 7x + 13y)`` modulo 256, and
    8-bpp files store the red value.  Rows are built whole, a channel at a
    time, with slices and translate tables.
    """
    if width < 1 or height < 1:
        raise ValueError("width and height must be positive")
    if bpp not in (8, 24):
        raise UnsupportedBpp(f"{bpp} bits per pixel")
    pixel_bytes = width * (bpp // 8)
    stride = (pixel_bytes + 3) // 4 * 4
    padding = bytes(stride - pixel_bytes)
    pixel_offset = HEADER_LEN + (PALETTE_LEN if bpp == 8 else 0)
    image_size = height * stride

    out = bytearray()
    out += _FILE_HEADER.pack(b"BM", pixel_offset + image_size, 0, 0, pixel_offset)
    out += _INFO_HEADER.pack(40, width, height, 1, bpp, 0, image_size, 2835, 2835, 0, 0)
    if bpp == 8:
        out += _GRAY_PALETTE
    ramp = (_BYTE_VALUES * (width // 256 + 1))[:width]  # x mod 256, per column
    red0 = ramp.translate(_TIMES_7)                      # the red of row 0
    row = bytearray(pixel_bytes)
    if bpp == 24:
        row[0::3] = ramp
    for y in range(height):
        red = red0.translate(_plus(13 * y))
        if bpp == 24:
            row[1::3] = bytes((y & 0xFF,)) * width
            row[2::3] = red
            out += row
        else:
            out += red
        out += padding
    return bytes(out)
