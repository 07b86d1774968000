"""Brute-force references the tap's carrier engine is judged against.

They decide one carrier at a time, from the BMP structure and the policy's
definition, where the engine works a row slice and a strided run at a
time.  Shared by the interceptor tests and the acceptance criteria.
"""

from math import floor

from netsteglab.bmp import BmpInfo, parse_bmp_info
from netsteglab.interceptor import StegoPolicy, _keystream_plane


def selected(policy: StegoPolicy, index: int) -> bool:
    """Whether carrier ``index`` is touched: ``floor((i+1)c) > floor(ic)``."""
    c = policy.coverage
    return floor((index + 1) * c) > floor(index * c)


def source_bit(policy: StegoPolicy, j: int) -> int:
    """The ``j``-th bit of the policy's embedding source."""
    if policy.message is not None:
        return policy.message[j % len(policy.message)]
    return _keystream_plane(policy.keystream_seed, j >> 12)[j & 0xFFF]


def bit_at(policy: StegoPolicy, index: int) -> int:
    """The bit written at carrier index ``index`` (pure in ``index``)."""
    return source_bit(policy, policy.rank(index))


def carrier_map_oracle(info: BmpInfo) -> dict:
    """stream position -> carrier index, by direct structural walk."""
    mapping = {}
    for row in range(info.height):
        row_base = info.pixel_offset + row * info.row_stride
        for p in range(info.width):
            if info.bits_per_pixel == 24:
                pos = row_base + 3 * p + 2  # red byte of the BGR triple
            else:
                pos = row_base + p
            mapping[pos] = row * info.width + p
    return mapping


def embed_oracle(file_bytes: bytes, policy: StegoPolicy) -> bytes:
    """Embed into the whole file at once, via the structural map."""
    info = parse_bmp_info(file_bytes)
    out = bytearray(file_bytes)
    for pos, index in sorted(carrier_map_oracle(info).items()):
        if selected(policy, index):
            out[pos] = (out[pos] & 0xFE) | bit_at(policy, index)
    return bytes(out)
