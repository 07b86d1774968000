"""Wire codec tests.

Every numeric expectation here is produced by an independent oracle written
in this file (naive big-endian checksum loop, bit-serial CRC-32, direct
struct packing) or is a published constant of the algorithm itself
(0xB861 verification vector, 0xCBF43926 CRC check value, 0x2144DF1C CRC
residue).  The implementation under test never computes its own expected
values.
"""

import builtins
import errno
import io
import os
import random
import stat
import struct
import tempfile
import threading
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from netsteglab import wirecodec
from netsteglab.wirecodec import (
    BadMagic,
    BadTimestamp,
    BadVersion,
    EthernetFrame,
    IP_FLAG_DF,
    IP_FLAG_MF,
    PcapFile,
    PcapReader,
    PcapRecord,
    PcapWriter,
    TCP_NS,
    TruncatedFrame,
    TruncatedRecord,
    UnsupportedLinktype,
    WireError,
    build_tcp_frame,
    fcs32,
    fcs_ok,
    internet_checksum,
    ipv4,
    ipv4_checksum_ok,
    ipv4_str,
    ns_to_pcap_ts,
    parse_frame,
    peek_frame,
    read_pcap,
    rewrite_records,
    strip_fcs,
    tcp_checksum_ok,
    with_ip_fields,
    with_tcp_payload,
    write_pcap,
)


# ---------------------------------------------------------------------------
# oracles


def checksum_oracle(data: bytes) -> int:
    """One's-complement sum of big-endian 16-bit words, complemented."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def crc32_oracle(data: bytes) -> int:
    """Bit-serial reflected CRC-32, polynomial 0xEDB88320."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def tcp_checksum_oracle(frame: EthernetFrame) -> int:
    """Recompute the TCP checksum from raw bytes via the naive word loop."""
    ip = frame.ip
    segment = bytearray(frame.payload[ip.header_len:ip.total_length])
    segment[16:18] = b"\x00\x00"  # zero the checksum field
    pseudo = struct.pack(
        "!IIBBH", ip.src_ip, ip.dst_ip, 0, ip.protocol, len(segment)
    )
    return checksum_oracle(pseudo + bytes(segment))


# ---------------------------------------------------------------------------
# internet checksum


def test_checksum_of_zeros_is_all_ones():
    assert internet_checksum(bytes(20)) == 0xFFFF


def test_checksum_classic_header_vector():
    # The widely used worked example of the header checksum algorithm.
    header = bytes.fromhex("450000730000400040110000c0a80001c0a800c7")
    assert checksum_oracle(header) == 0xB861  # oracle agrees with the classic
    assert internet_checksum(header) == 0xB861


def test_checksum_verifies_to_zero_over_checksummed_header():
    header = bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")
    assert internet_checksum(header) == 0


@given(st.binary(max_size=200))
@example(b"")
@example(b"\x00" * 6)
@example(b"\xff")
@example(b"\xff\xff")
@example(b"\xff\xff" * 7)
@example(b"\x80\x00\x80\x00\xff\xfe")  # 0x8000 + 0x8000 carries to 1, + 0xFFFE is 0xFFFF
def test_checksum_matches_oracle(data):
    assert internet_checksum(data) == checksum_oracle(data)


@given(st.binary(min_size=2, max_size=120).filter(lambda b: len(b) % 2 == 0))
def test_checksum_appended_verifies_to_zero(data):
    c = internet_checksum(data)
    assert internet_checksum(data + struct.pack("!H", c)) in (0, 0xFFFF)


def test_checksum_odd_length_matches_oracle():
    data = b"\x01\x02\x03"
    assert internet_checksum(data) == checksum_oracle(data)


# ---------------------------------------------------------------------------
# CRC-32 / FCS


def test_crc_check_value():
    assert fcs32(b"123456789") == 0xCBF43926
    assert crc32_oracle(b"123456789") == 0xCBF43926


def test_crc_empty():
    assert fcs32(b"") == 0


def test_crc_matches_bit_serial_oracle_on_random_inputs():
    rng = random.Random(1234)
    for _ in range(1000):
        data = rng.randbytes(rng.randrange(0, 64))
        assert fcs32(data) == crc32_oracle(data)


@given(st.binary(max_size=100))
def test_crc_residue(data):
    # Appending the little-endian CRC always leaves the fixed residue.
    assert fcs32(data + struct.pack("<I", fcs32(data))) == 0x2144DF1C


# ---------------------------------------------------------------------------
# header views parsed from golden bytes (independent struct packing)

ETH_IPV4 = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + struct.pack("!H", 0x0800)


def _ipv4_bytes(total_length: int) -> bytes:
    """A 20-byte DF IPv4 header from 1.2.3.4 to 5.6.7.8 carrying TCP."""
    return struct.pack(
        "!BBHHHBBHII", 0x45, 0, total_length, 1, 0b010 << 13, 64, 6, 0,
        0x01020304, 0x05060708,
    )


def _tcp_bytes(word: int = (5 << 12) | 0x010) -> bytes:
    """A 20-byte TCP header whose offset/reserved/flags word is ``word``."""
    return struct.pack("!HHIIHHHH", 1, 2, 3, 4, word, 10, 0, 0)


def test_ipv4_header_golden_bytes():
    wire = ETH_IPV4 + struct.pack(
        "!BBHHHBBHII",
        0x45, 0x10, 0x0234, 0xBEEF, (0b010 << 13) | 0, 63, 6, 0x1234,
        0xC0A80001, 0x0A010203,
    ) + _tcp_bytes() + bytes(0x0234 - 40)
    frame = parse_frame(wire)
    assert frame.ip._asdict() == dict(
        version=4, ihl=5, tos=0x10, total_length=0x0234, identification=0xBEEF,
        flags=0b010, frag_offset=0, ttl=63, protocol=6, header_checksum=0x1234,
        src_ip=ipv4("192.168.0.1"), dst_ip=ipv4("10.1.2.3"), options=b"",
    )
    assert frame.ip.header_len == 20
    assert frame.emit() == wire


def test_ipv4_flags_and_offset_packing():
    wire = ETH_IPV4 + struct.pack("!BBHHHBBHII", 0x45, 0, 20, 0, 0xBEEF, 64, 6, 0, 0, 0)
    frame = parse_frame(wire)
    assert (frame.ip.flags, frame.ip.frag_offset) == (0b101, 0x1EEF)
    assert (frame.ip.flags << 13) | frame.ip.frag_offset == 0xBEEF
    assert frame.tcp is None  # MF set and a nonzero offset: a fragment


def test_tcp_header_golden_bytes_with_ns_bit():
    tcp = struct.pack(
        "!HHIIHHHH",
        0x1F90, 0x0050, 0x11223344, 0x55667788,
        (5 << 12) | 0x1FF, 0xFFFF, 0xABCD, 7,
    )
    wire = ETH_IPV4 + _ipv4_bytes(40) + tcp
    frame = parse_frame(wire)
    assert frame.tcp._asdict() == dict(
        src_port=0x1F90, dst_port=0x0050, seq=0x11223344, ack=0x55667788,
        data_offset=5, flags=0x1FF, window=0xFFFF, checksum=0xABCD,
        urgent_ptr=7, options=b"", reserved=0,
    )
    assert frame.tcp.flags & TCP_NS
    assert frame.tcp.header_len == 20
    assert frame.emit() == wire


def test_tcp_reserved_bits_round_trip():
    wire = ETH_IPV4 + _ipv4_bytes(40) + _tcp_bytes((5 << 12) | (0b101 << 9) | 0x010)
    frame = parse_frame(wire)
    assert (frame.tcp.data_offset, frame.tcp.reserved, frame.tcp.flags) == (5, 0b101, 0x010)
    assert frame.emit() == wire


def test_header_views_are_read_only():
    frame = parse_frame(ETH_IPV4 + _ipv4_bytes(40) + _tcp_bytes())
    with pytest.raises(AttributeError):
        frame.ip.ttl = 1
    with pytest.raises(AttributeError):
        frame.tcp.seq = 1
    assert frame.ip.ttl == 64 and frame.tcp.seq == 3


def test_frame_rejects_truncated_bytes():
    with pytest.raises(TruncatedFrame):
        EthernetFrame(b"\x00" * 13)  # shorter than the Ethernet header
    with pytest.raises(TruncatedFrame):
        EthernetFrame(b"\x00" * 17, has_fcs=True)  # header plus FCS needs 18 bytes


_OUT_OF_RANGE = [
    ({"src_port": 65536}, "src_port"),
    ({"dst_port": -1}, "dst_port"),
    ({"ttl": 256}, "ttl"),
    ({"window": -1}, "window"),
    ({"flags": 1 << 9}, "flags"),
    ({"ip_id": 1 << 16}, "ip_id"),
    ({"src_ip": "256.0.0.1"}, "octet"),
    ({"dst_ip": 1 << 32}, "address"),
    ({"src_mac": b"\x02\x00\x00\x00\x01"}, "MAC"),
    ({"dst_mac": b"\x02\x00\x00\x00\x00\x00\x02", "with_fcs": True}, "MAC"),
    ({"payload": bytes(65536 - 40)}, "total_length"),  # total length past 16 bits
    ({"src_ip": -1}, "address"),
    ({"src_ip": 1 << 32}, "address"),
    ({"dst_ip": -1}, "address"),
    # the other end of each range
    ({"src_port": -1}, "src_port"),
    ({"ttl": -1}, "ttl"),
    ({"window": 1 << 16}, "window"),
    ({"flags": -1}, "flags"),
]


@pytest.mark.parametrize(
    "bad, match", _OUT_OF_RANGE, ids=[f"bad{i}" for i in range(len(_OUT_OF_RANGE))]
)
def test_build_tcp_frame_rejects_out_of_range_arguments(bad, match):
    args = dict(src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0)
    args.update(bad)
    with pytest.raises(ValueError, match=rf"^{match}\b"):
        build_tcp_frame(**args)


def test_built_frame_has_tos_0_df_no_offset_and_no_urgent_pointer():
    frame = build_tcp_frame(
        src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0, payload=b"abc",
    )
    # The builder's views, then the views the parser reads from its bytes.
    for made in (frame, parse_frame(frame.emit())):
        ip, tcp = made.ip, made.tcp
        assert (ip.tos, ip.flags, ip.frag_offset, tcp.urgent_ptr) == (0, IP_FLAG_DF, 0, 0)


def test_build_tcp_frame_names_the_first_bad_argument():
    with pytest.raises(ValueError, match="^MAC "):
        build_tcp_frame(src_ip=1, dst_ip=2, src_port=-1, dst_port=2, seq=0, src_mac=b"")
    with pytest.raises(ValueError, match="^src_port "):
        build_tcp_frame(src_ip=1, dst_ip=2, src_port=-1, dst_port=2, seq=0, ttl=256)
    with pytest.raises(ValueError, match="^ttl "):
        build_tcp_frame(src_ip=-1, dst_ip=2, src_port=1, dst_port=2, seq=0, ttl=256)


# ---------------------------------------------------------------------------
# frame round-trips


def _outside_frame(rng: random.Random, with_fcs: bool, payload: bytes) -> EthernetFrame:
    """A frame parsed from bytes no builder makes: 4 to 40 bytes of IPv4
    options and of TCP options, random reserved TCP bits, a 1- to 24-byte
    trailer, and checksums and FCS made right by the oracles."""
    ip_options = rng.randbytes(4 * rng.randrange(1, 11))
    tcp_options = rng.randbytes(4 * rng.randrange(1, 11))
    ihl, offset = 5 + len(ip_options) // 4, 5 + len(tcp_options) // 4
    ip = struct.pack(
        "!BBHHHBBHII", 0x40 | ihl, rng.randrange(256), 4 * (ihl + offset) + len(payload),
        rng.randrange(1 << 16), rng.choice((0, IP_FLAG_DF)) << 13, rng.randrange(256), 6, 0,
        rng.randrange(1 << 32), rng.randrange(1 << 32),
    ) + ip_options
    tcp = struct.pack(
        "!HHIIHHHH", rng.randrange(1 << 16), rng.randrange(1 << 16), rng.randrange(1 << 32),
        rng.randrange(1 << 32), offset << 12 | rng.randrange(1 << 12), rng.randrange(1 << 16),
        0, rng.randrange(1 << 16),
    ) + tcp_options
    wire = bytearray(rng.randbytes(12) + b"\x08\x00" + ip + tcp + payload
                     + rng.randbytes(rng.randrange(1, 25)))
    probe = parse_frame(bytes(wire))
    struct.pack_into("!H", wire, 14 + 10, ipv4_checksum_oracle(probe))
    struct.pack_into("!H", wire, 14 + 4 * ihl + 16, tcp_checksum_oracle(probe))
    if with_fcs:
        wire += struct.pack("<I", crc32_oracle(wire))
    return parse_frame(bytes(wire), with_fcs)


def _random_frame(
    rng: random.Random, *, with_fcs: bool, payload: bytes = None, outside: bool = False
) -> EthernetFrame:
    """A random frame with a TCP view.  Built frames carry no options and no
    trailer; with ``outside``, half the frames are parsed from outside bytes
    with options and a trailer instead (see :func:`_outside_frame`)."""
    if payload is None:
        payload = rng.randbytes(rng.randrange(0, 80))
    if outside and rng.random() < 0.5:
        frame = _outside_frame(rng, with_fcs, payload)
    else:
        frame = build_tcp_frame(
            src_ip=rng.randrange(1 << 32), dst_ip=rng.randrange(1 << 32),
            src_port=rng.randrange(1 << 16), dst_port=rng.randrange(1 << 16),
            seq=rng.randrange(1 << 32), ack=rng.randrange(1 << 32),
            flags=rng.randrange(1, 1 << 9), payload=payload,
            window=rng.randrange(1, 1 << 16), ttl=rng.randrange(1, 256),
            ip_id=rng.randrange(1 << 16), with_fcs=with_fcs,
        )
    # Half the frames keep the builder's own views; the rest get a TOS, and
    # with it the views with_ip_fields makes.
    tos = rng.choice((0, rng.randrange(1, 256)))
    return with_ip_fields(frame, tos=tos) if tos else frame


@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_frame_emit_parse_round_trip(seed, with_fcs):
    rng = random.Random(seed)
    frame = _random_frame(rng, with_fcs=with_fcs, outside=True)
    wire = frame.emit()
    back = parse_frame(wire, has_fcs=with_fcs)
    assert back == frame
    assert back.emit() == wire


def test_parse_emit_is_byte_identity_on_foreign_bytes():
    # Frame bytes not produced by our builder: options and a trailer.
    ip_options = b"\x01\x01\x01\x00"  # NOP NOP NOP EOL
    ip = struct.pack(
        "!BBHHHBBHII", 0x46, 0, 24 + 20 + 5, 9, 0b010 << 13, 64, 6, 0,
        ipv4("1.2.3.4"), ipv4("5.6.7.8"),
    ) + ip_options
    tcp = struct.pack("!HHIIHHHH", 80, 1024, 1, 2, (5 << 12) | 0x18, 100, 0, 0)
    payload = b"hello"
    trailer = b"\x00\x00\x00\x00\x00\x00\x00"  # pad below 64-byte minimum
    wire = (
        b"\xaa\xbb\xcc\xdd\xee\xff" + b"\x11\x22\x33\x44\x55\x66"
        + struct.pack("!H", 0x0800)
        + ip + tcp + payload + trailer
    )
    frame = parse_frame(wire)
    assert frame.emit() == wire
    assert frame.ip.options == ip_options
    assert frame.tcp_payload == payload
    assert frame.trailer == trailer


def test_tcp_view_absent_for_fragments_and_non_tcp():
    frame = build_tcp_frame(
        src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0,
        payload=b"xy",
    )
    wire = bytearray(frame.emit())
    # Not TCP protocol.
    not_tcp = wire.copy()
    not_tcp[14 + 9] = 17  # UDP
    not_tcp[14 + 10:14 + 12] = b"\x00\x00"
    parsed = parse_frame(bytes(not_tcp))
    assert parsed.ip is not None and parsed.tcp is None
    # Nonzero fragment offset.
    fragged = wire.copy()
    fragged[14 + 6:14 + 8] = struct.pack("!H", (0b010 << 13) | 5)
    assert parse_frame(bytes(fragged)).tcp is None
    # More-fragments flag set.
    mf = wire.copy()
    mf[14 + 6:14 + 8] = struct.pack("!H", (0b001 << 13) | 0)
    assert parse_frame(bytes(mf)).tcp is None
    # Not IPv4 at all: no views, and nothing is payload or trailer by IP rules.
    arp = parse_frame(bytes(wire[:12]) + b"\x08\x06" + bytes(wire[14:]))
    assert arp.ip is None and arp.tcp is None
    assert arp.tcp_payload == b"" and arp.trailer == b""


def test_parse_errors():
    frame = build_tcp_frame(
        src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0,
    )
    wire = frame.emit()
    with pytest.raises(TruncatedFrame):
        parse_frame(wire[:10])
    with pytest.raises(TruncatedFrame):
        parse_frame(wire[:20])  # ethernet ok, IP header cut
    bad_version = bytearray(wire)
    bad_version[14] = 0x65
    with pytest.raises(BadVersion):
        parse_frame(bytes(bad_version))
    short_total = bytearray(wire)
    short_total[14 + 2:14 + 4] = struct.pack("!H", 19)  # below header length
    with pytest.raises(TruncatedFrame):
        parse_frame(bytes(short_total))


@pytest.mark.parametrize(
    "at, value, message",
    [
        (14, b"\x44", "IHL below minimum header size: 4"),
        (14, b"\x4f", "IPv4 header length beyond captured bytes"),
        (16, struct.pack("!H", 20 + 19), "TCP header shorter than 20 bytes"),  # total length
        (46, b"\x40", "TCP data offset below minimum: 4"),
        (46, b"\x60", "TCP data offset beyond segment end"),
    ],
    ids=["ihl-below-5", "ihl-past-capture", "tcp-header-short", "data-offset-below-5",
         "data-offset-past-segment"],
)
def test_parse_length_branches_name_their_cause(at, value, message):
    """Each length check of the IPv4/TCP parser raises its own TruncatedFrame."""
    wire = bytearray(build_tcp_frame(
        src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0,
    ).emit())
    assert len(wire) == 14 + 20 + 20  # no options, no payload
    wire[at:at + len(value)] = value
    with pytest.raises(TruncatedFrame, match=f"^{message}$"):
        parse_frame(bytes(wire))


def test_non_ip_ethertype_passes_through():
    wire = b"\x01" * 6 + b"\x02" * 6 + struct.pack("!H", 0x0806) + b"arp-body"
    for data in (wire, wire[:14]):  # a bare Ethernet header is a whole frame
        assert peek_frame(data) is None
        frame = parse_frame(data)
        assert frame.ip is None and frame.tcp is None
        assert frame.emit() == data


# ---------------------------------------------------------------------------
# checksum construction and verification


@given(st.integers(min_value=0, max_value=10_000))
def test_built_frames_have_valid_checksums(seed):
    rng = random.Random(seed)
    frame = _random_frame(rng, with_fcs=True)
    assert ipv4_checksum_ok(frame)
    assert tcp_checksum_ok(frame)
    assert fcs_ok(frame)
    # Independent recomputation from raw bytes.
    raw_ip_header = frame.payload[: frame.ip.header_len]
    assert checksum_oracle(raw_ip_header) == 0
    assert tcp_checksum_oracle(frame) == frame.tcp.checksum


def test_fcs_matches_bit_serial_oracle():
    frame = build_tcp_frame(
        src_ip="1.2.3.4", dst_ip="5.6.7.8", src_port=1, dst_port=2, seq=0,
        payload=b"payload", with_fcs=True,
    )
    wire = frame.emit()
    assert struct.unpack("<I", wire[-4:])[0] == crc32_oracle(wire[:-4])
    # The receiver check: CRC over frame + FCS leaves the residue.
    assert crc32_oracle(wire) == 0x2144DF1C


def test_corrupted_frame_fails_verification():
    frame = build_tcp_frame(
        src_ip="1.2.3.4", dst_ip="5.6.7.8", src_port=9, dst_port=10, seq=11,
        payload=b"abcdef", with_fcs=True,
    )
    wire = bytearray(frame.emit())
    wire[-6] ^= 0x01  # flip a payload bit
    corrupted = parse_frame(bytes(wire), has_fcs=True)
    assert not tcp_checksum_ok(corrupted)
    assert not fcs_ok(corrupted)


def ipv4_checksum_oracle(frame: EthernetFrame) -> int:
    """Recompute the header checksum from raw bytes with the field zeroed."""
    header = bytearray(frame.payload[: frame.ip.header_len])
    header[10:12] = b"\x00\x00"
    return checksum_oracle(bytes(header))


def _foreign_wire(
    payload: bytes, has_fcs: bool, ip_checksum: int = 0, tcp_checksum: int = 7
) -> bytes:
    """Frame bytes no builder makes: IPv4 and TCP options, reserved TCP bits,
    a 5-byte trailer, and an FCS when ``has_fcs``.  The checksums are the
    given values, wrong unless the caller computed them."""
    ip = struct.pack(
        "!BBHHHBBHII", 0x46, 0, 24 + 24 + len(payload), 9, 0, 64, 6, ip_checksum,
        ipv4("1.2.3.4"), ipv4("5.6.7.8"),
    ) + b"\x01\x01\x01\x00"
    tcp = struct.pack(
        "!HHIIHHHH", 80, 1024, 1, 2, (6 << 12) | (0b101 << 9) | 0x118, 100, tcp_checksum, 3
    )
    wire = bytes(6) + bytes(6) + b"\x08\x00" + ip + tcp + b"\x02\x04\x05\xb4" + payload + bytes(5)
    if has_fcs:
        wire += struct.pack("<I", crc32_oracle(wire))
    return wire


def _zero_sum_frame(rng: random.Random, payload: bytes) -> EthernetFrame:
    """A frame whose correct IPv4 and TCP checksums are both 0x0000.

    Setting a field word to the checksum computed with that word at zero
    makes the one's-complement sum 0xFFFF (negative zero), so the new
    checksum is 0x0000 and a stored 0xFFFF is the other zero.
    """
    fields = dict(
        src_ip=rng.randrange(1 << 32), dst_ip=rng.randrange(1 << 32),
        src_port=rng.randrange(1 << 16), dst_port=rng.randrange(1 << 16),
        seq=rng.randrange(1 << 32), payload=payload,
    )
    probe = build_tcp_frame(ip_id=0, window=0, **fields)
    return build_tcp_frame(
        ip_id=ipv4_checksum_oracle(probe), window=tcp_checksum_oracle(probe), **fields
    )


@given(
    seed=st.integers(0, 10_000),
    payload_len=st.integers(0, 41),
    source=st.sampled_from(["built", "zero_sum", "foreign", "foreign_fcs"]),
    stored=st.one_of(st.sampled_from([None, 0x0000, 0xFFFF]), st.integers(0, 0xFFFF)),
    layer=st.sampled_from(["ip", "tcp"]),
)
def test_checksum_verifiers_match_recompute_and_compare_oracle(
    seed, payload_len, source, stored, layer
):
    rng = random.Random(seed)
    payload = rng.randbytes(payload_len)  # odd lengths give odd TCP segments
    has_fcs = source == "foreign_fcs"
    if source == "zero_sum":
        frame = _zero_sum_frame(rng, payload)
        assert frame.ip.header_checksum == 0 and frame.tcp.checksum == 0
    elif source == "built":
        frame = _random_frame(rng, with_fcs=False, payload=payload)
    else:  # outside bytes, with their checksums made right by the oracles
        probe = parse_frame(_foreign_wire(payload, has_fcs), has_fcs)
        frame = parse_frame(_foreign_wire(
            payload, has_fcs, ipv4_checksum_oracle(probe), tcp_checksum_oracle(probe)
        ), has_fcs)
    wire = bytearray(frame.emit())
    if stored is not None:  # None keeps the correct checksum
        at = 14 + 10 if layer == "ip" else 14 + frame.ip.header_len + 16
        wire[at:at + 2] = struct.pack("!H", stored)
    parsed = parse_frame(bytes(wire), has_fcs)
    # The old verifiers: recompute and compare exactly, so a stored 0xFFFF
    # fails where 0x0000 is computed even though both are one's-complement zero.
    assert ipv4_checksum_ok(parsed) == (ipv4_checksum_oracle(parsed) == parsed.ip.header_checksum)
    assert tcp_checksum_ok(parsed) == (tcp_checksum_oracle(parsed) == parsed.tcp.checksum)
    if stored is None:
        assert ipv4_checksum_ok(parsed) and tcp_checksum_ok(parsed)


# ---------------------------------------------------------------------------
# surgical mutators


def _changed_offsets(a: bytes, b: bytes):
    assert len(a) == len(b)
    return {i for i, (x, y) in enumerate(zip(a, b)) if x != y}


def test_with_ip_fields_changes_only_named_fields_and_checksums():
    frame = build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
        seq=100, payload=b"0123456789", with_fcs=True,
    )
    out = with_ip_fields(frame, ttl=7, identification=0xABCD)
    assert out.ip.ttl == 7 and out.ip.identification == 0xABCD
    assert ipv4_checksum_ok(out) and tcp_checksum_ok(out) and fcs_ok(out)
    changed = _changed_offsets(frame.emit(), out.emit())
    ip0 = 14
    allowed = {ip0 + 4, ip0 + 5, ip0 + 8}  # identification, ttl
    allowed |= {ip0 + 10, ip0 + 11}  # IP header checksum
    wire_len = len(frame.emit())
    allowed |= set(range(wire_len - 4, wire_len))  # FCS
    assert changed <= allowed
    assert out.tcp_payload == frame.tcp_payload


def test_with_ip_fields_ttl_does_not_touch_tcp_checksum():
    frame = build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1, dst_port=2,
        seq=5, payload=b"zz",
    )
    out = with_ip_fields(frame, ttl=1)
    assert out.tcp.checksum == frame.tcp.checksum


@pytest.mark.parametrize(
    "steps",
    [
        [{"src_ip": 0x0A000063}],
        [{"dst_ip": 0xC0A80001}],
        [{"src_ip": 0x01020304, "dst_ip": 0x05060708, "ttl": 9}],
        [{"total_length": 20 + 20 + 3}],  # a shorter segment: payload bytes become trailer
        # Without a TCP view there is no TCP checksum to repair; it comes back with protocol 6.
        [{"protocol": 17}, {"dst_ip": 0x0A0000FE}, {"protocol": 6}],
    ],
)
def test_with_ip_fields_repairs_tcp_checksum_on_pseudo_header_change(steps):
    out = build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
        seq=100, payload=b"0123456789", with_fcs=True,
    )
    for changes in steps:
        out = with_ip_fields(out, **changes)
    assert ipv4_checksum_ok(out) and fcs_ok(out)
    assert tcp_checksum_ok(out)
    assert tcp_checksum_oracle(out) == out.tcp.checksum


@pytest.mark.parametrize(
    "changes, parses",
    [
        ({"tos": 0x10}, 0),
        ({"identification": 0xABCD}, 0),
        ({"ttl": 1}, 0),
        ({"src_ip": 0x0A000063}, 0),
        ({"dst_ip": 0xC0A80001}, 0),
        ({"ttl": 64, "identification": 0x1234}, 0),  # what the active warden sets
        ({"flags": IP_FLAG_MF}, 1),
        ({"frag_offset": 5}, 1),
        ({"protocol": 17}, 1),
        ({"total_length": 20 + 20 + 3}, 1),
    ],
)
def test_with_ip_fields_parses_only_when_the_parse_can_change(monkeypatch, changes, parses):
    """Only flags, fragment offset, protocol and total length decide whether
    and how the rewritten bytes parse; a rewrite of any other field makes
    its views from the values it packed."""
    frame = build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
        seq=100, payload=b"0123456789", with_fcs=True,
    )
    calls = []

    def counted(data, has_fcs=False):
        calls.append(data)
        return peek(data, has_fcs)

    peek = wirecodec.peek_frame
    monkeypatch.setattr(wirecodec, "peek_frame", counted)
    out = with_ip_fields(frame, **changes)
    assert len(calls) == parses
    monkeypatch.undo()
    _assert_views_match_parser(out)
    assert ipv4_checksum_ok(out) and fcs_ok(out)


def test_with_ip_fields_rejects_structural_changes():
    frame = build_tcp_frame(
        src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0,
    )
    with pytest.raises(ValueError):
        with_ip_fields(frame, ihl=6)
    with pytest.raises(ValueError):
        with_ip_fields(frame, options=b"\x01\x01\x01\x00")
    # Fields it cannot honour: the checksum is recomputed, and an IPv4
    # header stays version 4.
    for name, value in (("header_checksum", 0x1234), ("version", 4), ("version", 6)):
        with pytest.raises(ValueError):
            with_ip_fields(frame, **{name: value})


def test_with_tcp_payload_repairs_checksum_and_fcs():
    frame = build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
        seq=1000, payload=b"AAAABBBB", with_fcs=True,
    )
    out = with_tcp_payload(frame, b"AAAACBBB")
    assert out.tcp_payload == b"AAAACBBB"
    assert tcp_checksum_ok(out) and fcs_ok(out)
    assert tcp_checksum_oracle(out) == out.tcp.checksum
    changed = _changed_offsets(frame.emit(), out.emit())
    payload_start = 14 + 20 + 20
    wire_len = len(frame.emit())
    allowed = {payload_start + 4}  # the changed byte
    allowed |= {14 + 20 + 16, 14 + 20 + 17}  # TCP checksum
    allowed |= set(range(wire_len - 4, wire_len))  # FCS
    assert changed <= allowed


@pytest.mark.parametrize("has_fcs", [False, True])
@pytest.mark.parametrize("payload", [b"hello", b"hello!"])
def test_with_tcp_payload_on_foreign_bytes_with_options_and_trailer(has_fcs, payload):
    wire = _foreign_wire(payload, has_fcs)
    spliced = with_tcp_payload(parse_frame(wire, has_fcs), payload[::-1])
    again = parse_frame(spliced.data, has_fcs)
    assert spliced == again and spliced.ip == again.ip and spliced.tcp == again.tcp
    assert spliced.tcp.options == b"\x02\x04\x05\xb4" and spliced.tcp.reserved == 0b101
    assert spliced.tcp_payload == payload[::-1] and spliced.trailer == bytes(5)
    assert tcp_checksum_oracle(again) == spliced.tcp.checksum
    assert not has_fcs or crc32_oracle(spliced.data[:-4]) == spliced.fcs


def test_with_tcp_payload_requires_equal_length():
    frame = build_tcp_frame(
        src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0,
        payload=b"abc",
    )
    with pytest.raises(ValueError):
        with_tcp_payload(frame, b"abcd")


def test_with_helpers_reject_a_frame_without_their_layer():
    arp = parse_frame(b"\x01" * 6 + b"\x02" * 6 + struct.pack("!H", 0x0806) + bytes(28))
    fragment = with_ip_fields(build_tcp_frame(
        src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0,
        payload=b"abc",
    ), flags=IP_FLAG_MF)
    assert arp.ip is None and fragment.ip is not None and fragment.tcp is None
    with pytest.raises(ValueError, match="^frame has no IPv4 layer$"):
        with_ip_fields(arp, ttl=1)
    for frame in (arp, fragment):
        with pytest.raises(ValueError, match="^frame has no TCP layer$"):
            with_tcp_payload(frame, b"")


# Every scalar IPv4 field with_ip_fields may set, with its width in bits.
IPV4_SCALAR_BITS = {
    "tos": 8, "total_length": 16, "identification": 16, "flags": 3,
    "frag_offset": 13, "ttl": 8, "protocol": 8, "src_ip": 32, "dst_ip": 32,
}


@st.composite
def ip_field_changes(draw):
    name = draw(st.sampled_from(sorted(IPV4_SCALAR_BITS)))
    return name, draw(st.integers(0, (1 << IPV4_SCALAR_BITS[name]) - 1))


def _assert_views_match_parser(frame: EthernetFrame) -> None:
    again = parse_frame(frame.emit(), has_fcs=frame.fcs is not None)
    assert frame == again and frame.ip == again.ip and frame.tcp == again.tcp


@given(
    seed=st.integers(0, 10_000),
    with_fcs=st.booleans(),
    changes=st.lists(ip_field_changes(), min_size=1, max_size=3),
)
@example(seed=1, with_fcs=True, changes=[("flags", IP_FLAG_MF), ("flags", IP_FLAG_DF)])
@example(seed=2, with_fcs=False, changes=[("frag_offset", 5), ("frag_offset", 0)])
@example(seed=3, with_fcs=True, changes=[("protocol", 17), ("protocol", 6)])
@example(seed=4, with_fcs=True, changes=[("total_length", 40)])
# A pseudo-header field changed while the frame is a fragment, then it is whole again.
@example(
    seed=0, with_fcs=False, changes=[("flags", IP_FLAG_MF), ("dst_ip", 0), ("flags", 0)]
)
def test_mutators_give_the_views_the_parser_gives(seed, with_fcs, changes):
    rng = random.Random(seed)
    frame = _random_frame(rng, with_fcs=with_fcs, outside=True)
    _assert_views_match_parser(frame)
    if frame.tcp is not None:
        spliced = with_tcp_payload(frame, rng.randbytes(len(frame.tcp_payload)))
        _assert_views_match_parser(spliced)
        assert tcp_checksum_ok(spliced) and fcs_ok(spliced)
    for name, value in changes:
        try:
            out = with_ip_fields(frame, **{name: value})
        except WireError:
            # Only this field decides whether the bytes still parse.
            assert name == "total_length"
            continue
        assert getattr(out.ip, name) == value
        _assert_views_match_parser(out)
        assert ipv4_checksum_ok(out) and tcp_checksum_ok(out) and fcs_ok(out)
        frame = out
        if frame.tcp is not None:
            spliced = with_tcp_payload(frame, rng.randbytes(len(frame.tcp_payload)))
            _assert_views_match_parser(spliced)


def test_with_ip_fields_rejects_out_of_range_values():
    frame = build_tcp_frame(
        src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0,
    )
    for name, bits in IPV4_SCALAR_BITS.items():
        with pytest.raises(ValueError):
            with_ip_fields(frame, **{name: 1 << bits})
        with pytest.raises(ValueError):
            with_ip_fields(frame, **{name: -1})


def test_strip_fcs():
    frame = build_tcp_frame(
        src_ip="1.1.1.1", dst_ip="2.2.2.2", src_port=1, dst_port=2, seq=0,
        with_fcs=True,
    )
    bare = strip_fcs(frame)
    assert bare.fcs is None
    assert bare.emit() == frame.emit()[:-4]
    assert strip_fcs(bare) is bare


# ---------------------------------------------------------------------------
# known sums: the simulator and the tap do not re-check a frame whose sums
# the codec made, so the flag must never vouch for bytes it did not sum


def _assert_flag_vouches(frame: EthernetFrame) -> None:
    again = parse_frame(frame.data, frame.has_fcs)
    assert not again.sums_known
    assert again == frame and hash(again) == hash(frame)
    # A frame the builders made carries views of the values they packed.
    assert again.ip == frame.ip and again.tcp == frame.tcp
    if frame.sums_known:
        assert tcp_checksum_ok(again) and fcs_ok(again)
        if again.tcp is not None:
            assert tcp_checksum_oracle(again) == again.tcp.checksum
        if again.has_fcs:
            assert crc32_oracle(again.data[:-4]) == again.fcs


def _flip_bit(frame: EthernetFrame, at: int) -> EthernetFrame:
    """The frame's bytes with one bit flipped, parsed as outside bytes are."""
    wire = bytearray(frame.data)
    wire[at // 8 % len(wire)] ^= 1 << at % 8
    return parse_frame(bytes(wire), frame.has_fcs)


# IPv4 fields the TCP checksum covers through its pseudo-header.
_PSEUDO = ("src_ip", "dst_ip", "protocol", "total_length")

sums_steps = st.lists(
    st.one_of(
        st.tuples(st.just("payload"), st.integers(0, 10_000)),
        st.tuples(st.just("ip"), ip_field_changes()),
        st.tuples(st.just("flip"), st.integers(0, 8 * 120)),
    ),
    max_size=4,
)


@given(
    seed=st.integers(0, 10_000),
    payload_len=st.integers(0, 41),
    with_fcs=st.booleans(),
    ip_flags=st.sampled_from([0, IP_FLAG_DF, IP_FLAG_MF]),
    frag_offset=st.sampled_from([0, 0, 7]),
    steps=sums_steps,
)
# A corrupted frame through a field rewrite that copies its segment: still unknown.
@example(seed=0, payload_len=9, with_fcs=True, ip_flags=IP_FLAG_DF, frag_offset=0,
         steps=[("flip", 8 * 60), ("ip", ("ttl", 1))])
# ... and one through a pseudo-header rewrite, which repairs the TCP checksum.
@example(seed=0, payload_len=9, with_fcs=False, ip_flags=IP_FLAG_DF, frag_offset=0,
         steps=[("flip", 8 * 60), ("ip", ("src_ip", 1))])
# A fragment made whole, with a pseudo-header field changed in between.
@example(seed=1, payload_len=4, with_fcs=True, ip_flags=IP_FLAG_MF, frag_offset=0,
         steps=[("ip", ("dst_ip", 0)), ("ip", ("flags", 0))])
# A flip in the ethertype leaves no IPv4 layer for a field rewrite.
@example(seed=0, payload_len=0, with_fcs=False, ip_flags=0, frag_offset=0,
         steps=[("flip", 96), ("ip", ("dst_ip", 0))])
def test_known_sums_hold_wherever_the_codec_claims_them(
    seed, payload_len, with_fcs, ip_flags, frag_offset, steps
):
    rng = random.Random(seed)
    frame = _random_frame(rng, with_fcs=with_fcs, payload=rng.randbytes(payload_len),
                          outside=True)
    # Built frames have known sums; frames parsed from outside bytes, which
    # carry IPv4 options, do not.
    assert frame.sums_known == (frame.ip.ihl == 5)
    _assert_flag_vouches(frame)
    if (ip_flags, frag_offset) != (frame.ip.flags, 0):
        known = frame.sums_known
        frame = with_ip_fields(frame, flags=ip_flags, frag_offset=frag_offset)
        assert frame.sums_known == known
        _assert_flag_vouches(frame)
    for step, arg in steps:
        known = frame.sums_known
        if step == "payload":
            if frame.tcp is None:
                continue
            frame = with_tcp_payload(frame, random.Random(arg).randbytes(len(frame.tcp_payload)))
            assert frame.sums_known
        elif step == "flip":
            try:
                frame = _flip_bit(frame, arg)
            except WireError:
                continue
            assert not frame.sums_known
        else:
            if frame.ip is None:  # a flipped ethertype bit leaves no IPv4 layer
                continue
            name, value = arg
            try:
                out = with_ip_fields(frame, **{name: value})
            except WireError:
                continue
            repaired = out.tcp is not None and (frame.tcp is None or name in _PSEUDO)
            # A rewrite that copies the segment as it is passes the input's flag on.
            assert out.sums_known == (known or repaired)
            frame = out
        _assert_flag_vouches(frame)


def test_a_bad_checksum_stays_unknown_until_a_rewrite_repairs_it():
    made = build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
        seq=100, payload=b"0123456789", with_fcs=True,
    )
    # A made frame passes its flag through a rewrite that copies the segment.
    assert with_ip_fields(made, ttl=7).sums_known
    bad = _flip_bit(made, 8 * (len(made.data) - 6))  # a payload bit
    assert not bad.sums_known and not tcp_checksum_ok(bad) and not fcs_ok(bad)
    copied = with_ip_fields(bad, ttl=7)
    assert not copied.sums_known and not tcp_checksum_ok(copied) and fcs_ok(copied)
    repaired = with_ip_fields(bad, src_ip=0x0A000063)
    assert repaired.sums_known and tcp_checksum_ok(repaired) and fcs_ok(repaired)
    # Every frame made from outside bytes has unknown sums.
    assert not EthernetFrame(made.data, True).sums_known
    assert not strip_fcs(made).sums_known
    capture = io.BytesIO()
    write_pcap(capture, PcapFile((PcapRecord(0, 0, strip_fcs(made).data),)))
    with PcapReader(capture.getvalue()) as reader:
        (record,) = reader
    assert not parse_frame(record.frame_bytes).sums_known


# ---------------------------------------------------------------------------
# address helpers


def test_ipv4_conversions():
    assert ipv4("192.168.0.1") == 0xC0A80001
    assert ipv4(0xC0A80001) == 0xC0A80001
    assert ipv4_str(0xC0A80001) == "192.168.0.1"
    with pytest.raises(ValueError):
        ipv4("256.0.0.1")
    with pytest.raises(ValueError):
        ipv4("1.2.3")
    assert ipv4("0.0.0.0") == 0
    assert ipv4("255.255.255.255") == 0xFFFFFFFF
    assert ipv4("100.20.3.0") == 0x64140300


@pytest.mark.parametrize(
    "address",
    [
        "1_0.0.0.1",  # digit separator
        "+10.0.0.1",  # sign
        "10.0.0.-0",
        " 10.0.0.1",  # surrounding whitespace
        "10.0.0.1 ",
        "10.0.0.1\n",
        "\uff11\uff10.0.0.1",  # full-width digits
        "10.0.0.01",  # leading zero
        "010.0.0.1",
        "10.0.0.0001",
        True,
        False,
        None,  # neither str nor int
        3.0,
        b"10.0.0.1",
    ],
)
def test_ipv4_rejects_non_canonical_forms(address):
    with pytest.raises(ValueError, match="not a"):
        ipv4(address)


# ---------------------------------------------------------------------------
# pcap


def _sample_frames():
    return [
        build_tcp_frame(
            src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000,
            dst_port=8080, seq=i, payload=bytes([i]) * (i + 1),
        ).emit()
        for i in range(3)
    ]


def test_pcap_golden_bytes():
    frames = _sample_frames()
    records = [
        PcapRecord(ts_sec=1, ts_usec=500000, frame_bytes=frames[0]),
        PcapRecord(ts_sec=2, ts_usec=0, frame_bytes=frames[1]),
    ]
    expected = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    expected += struct.pack("<IIII", 1, 500000, len(frames[0]), len(frames[0]))
    expected += frames[0]
    expected += struct.pack("<IIII", 2, 0, len(frames[1]), len(frames[1]))
    expected += frames[1]
    buf = io.BytesIO()
    write_pcap(buf, PcapFile(records=tuple(records)))
    assert buf.getvalue() == expected


def test_pcap_write_read_round_trip():
    frames = _sample_frames()
    records = tuple(
        PcapRecord(ts_sec=i, ts_usec=i * 7, frame_bytes=f)
        for i, f in enumerate(frames)
    )
    original = PcapFile(records=records, snaplen=2048, thiszone=-3600, sigfigs=6)
    buf = io.BytesIO()
    write_pcap(buf, original)
    back = read_pcap(buf.getvalue())
    assert back == original
    # Byte-identical re-serialization.
    buf2 = io.BytesIO()
    write_pcap(buf2, back)
    assert buf2.getvalue() == buf.getvalue()


def test_pcap_reads_big_endian():
    frame = _sample_frames()[0]
    data = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    data += struct.pack(">IIII", 10, 20, len(frame), len(frame))
    data += frame
    capture = read_pcap(data)
    assert len(capture.records) == 1
    rec = capture.records[0]
    assert (rec.ts_sec, rec.ts_usec) == (10, 20)
    assert rec.frame_bytes == frame


def test_pcap_bad_magic():
    with pytest.raises(BadMagic):
        read_pcap(b"\x00\x01\x02\x03" + bytes(20))


def test_pcap_unsupported_linktype():
    data = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
    with pytest.raises(UnsupportedLinktype):
        read_pcap(data)


def test_pcap_truncated_record():
    frame = _sample_frames()[0]
    data = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    data += struct.pack("<IIII", 0, 0, len(frame), len(frame))
    data += frame[:-1]
    with pytest.raises(TruncatedRecord, match="^record body truncated$"):
        read_pcap(data)
    with pytest.raises(TruncatedRecord, match="^record body truncated$"):
        read_pcap(data[: 24 + 16])  # cut right after the record header
    with pytest.raises(TruncatedRecord, match="^record header truncated$"):
        read_pcap(data[: 24 + 8])  # record header itself cut


def test_pcap_timestamp_out_of_range_is_a_wire_error():
    data = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    data += struct.pack("<IIII", 0, 1_000_000, 0, 0)
    with pytest.raises(WireError):
        read_pcap(data)
    # A record built by hand keeps the plain ValueError, also for a field
    # that would not fit its 32-bit slot of the record header.
    for fields in (dict(ts_usec=1_000_000), dict(ts_sec=1 << 32), dict(ts_sec=-1)):
        with pytest.raises(ValueError):
            PcapRecord(**{"ts_sec": 0, "ts_usec": 0, "frame_bytes": b"", **fields})


def test_pcap_file_io(tmp_path):
    path = tmp_path / "t.pcap"
    frames = _sample_frames()
    records = tuple(
        PcapRecord(ts_sec=0, ts_usec=i, frame_bytes=f) for i, f in enumerate(frames)
    )
    write_pcap(str(path), PcapFile(records=records))
    back = read_pcap(str(path))
    assert [r.frame_bytes for r in back.records] == frames


def _one_flow_capture(path, n: int) -> None:
    records = (
        PcapRecord(ts_sec=i, ts_usec=0, frame_bytes=build_tcp_frame(
            src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
            seq=1000 * i, payload=bytes([i & 0xFF]) * 1000,
        ).emit())
        for i in range(n)
    )
    with PcapWriter(str(path)) as writer:
        for record in records:
            writer.write(record)


def test_iter_pcap_to_pcap_writer_peak_memory_stays_flat(tmp_path):
    peaks = []
    for n in (1000, 2000):
        source, copy = tmp_path / f"in{n}.pcap", tmp_path / f"out{n}.pcap"
        _one_flow_capture(source, n)
        tracemalloc.start()
        try:
            with PcapWriter(str(copy)) as writer:
                with PcapReader(str(source)) as reader:
                    for record in reader:
                        writer.write(record)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert copy.read_bytes() == source.read_bytes()
    # The capture grows by about 1 MB; the peak by no more than noise.
    assert peaks[1] < peaks[0] + 16 * 1024, peaks


def test_pcap_reader_takes_a_file_and_reads_long_records_in_pieces(tmp_path):
    frame = bytes(range(256)) * 600  # longer than one read piece
    path = tmp_path / "long.pcap"
    write_pcap(str(path), PcapFile(records=(PcapRecord(ts_sec=1, ts_usec=2, frame_bytes=frame),)))
    with open(path, "rb") as fh:
        assert [r.frame_bytes for r in PcapReader(fh)] == [frame]
        assert not fh.closed
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedRecord), PcapReader(str(path)) as reader:
        list(reader)
    # A corrupt length reads only what the file holds.
    header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    path.write_bytes(header + struct.pack("<IIII", 0, 0, 0xFFFFFFFF, 0) + frame)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedRecord), PcapReader(str(path)) as reader:
            list(reader)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pcap_writer_on_a_pipe_and_on_a_missing_directory(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    buf = io.BytesIO()
    capture = PcapFile(records=(PcapRecord(ts_sec=1, ts_usec=2, frame_bytes=b"frame"),))
    write_pcap(buf, capture)
    write_pcap(str(fifo), capture)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [buf.getvalue()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]
    # An unwritable path is reported by its own name, not its temporary's.
    missing = str(tmp_path / "no-such-dir" / "x.pcap")
    with pytest.raises(FileNotFoundError) as raised:
        write_pcap(missing, capture)
    assert raised.value.filename == missing


def test_pcap_writer_close_moves_its_temporary_file_into_place(tmp_path):
    path = tmp_path / "out.pcap"
    path.write_bytes(b"old")
    record = PcapRecord(ts_sec=1, ts_usec=2, frame_bytes=b"frame")
    writer = PcapWriter(str(path))
    writer.write(record)
    assert path.read_bytes() == b"old"  # the capture is still in the temporary file
    writer.close()
    assert read_pcap(str(path)).records == (record,)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pcap"]


class _DiskFull:
    """A binary file whose every write fails, as on a full disk."""

    def __init__(self, file):
        self._file = file

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        return self._file.fileno()

    def close(self):
        self._file.close()


@pytest.mark.parametrize("existing", [False, True])
def test_pcap_writer_removes_its_temporary_file_when_the_header_write_fails(
    tmp_path, monkeypatch, existing
):
    path = tmp_path / "out.pcap"
    if existing:
        path.write_bytes(b"old")
    monkeypatch.setattr(wirecodec, "open", lambda *args, **kwargs: _DiskFull(
        builtins.open(*args, **kwargs)), raising=False)
    with pytest.raises(OSError) as raised:
        PcapWriter(str(path))
    assert raised.value.errno == errno.ENOSPC
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out.pcap"] if existing else [])
    assert not existing or path.read_bytes() == b"old"
    # A file object the caller owns is left to the caller.
    with pytest.raises(OSError):
        PcapWriter(_DiskFull(io.BytesIO()))


def test_ns_to_pcap_ts():
    assert ns_to_pcap_ts(0) == (0, 0)
    assert ns_to_pcap_ts(1_500_000_000) == (1, 500_000)
    assert ns_to_pcap_ts(999) == (0, 0)  # sub-microsecond truncates


# ---------------------------------------------------------------------------
# fuzzing: malformed bytes raise only WireError

flips = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(1, 255)), max_size=6)
cuts = st.one_of(st.none(), st.integers(0, 1 << 16))


def _mutate(data: bytes, flipped, cut) -> bytes:
    """XOR the given bytes (positions wrap) and optionally truncate."""
    out = bytearray(data)
    for at, mask in flipped:
        if out:
            out[at % len(out)] ^= mask
    if cut is not None:
        del out[cut % (len(out) + 1):]
    return bytes(out)


def _parsed_or_none(data: bytes, has_fcs: bool):
    try:
        frame = parse_frame(data, has_fcs=has_fcs)
    except WireError:
        return None
    assert frame.emit() == data
    # Verifiers and views work on whatever the parser accepted.
    assert all(isinstance(ok(frame), bool) for ok in (ipv4_checksum_ok, tcp_checksum_ok, fcs_ok))
    if frame.ip is not None:
        packet = frame.payload[: frame.ip.total_length]
        assert packet + frame.trailer == frame.payload
        assert packet.endswith(frame.tcp_payload)
    return frame


@given(st.binary(max_size=200), st.booleans())
def test_parse_frame_on_arbitrary_bytes_raises_only_wire_error(data, has_fcs):
    _parsed_or_none(data, has_fcs)


@given(st.integers(0, 10_000), st.booleans(), st.booleans(), flips, cuts)
def test_parse_frame_on_mutated_frames_raises_only_wire_error(
    seed, with_fcs, has_fcs, flipped, cut
):
    frame = _random_frame(random.Random(seed), with_fcs=with_fcs)
    parsed = _parsed_or_none(_mutate(frame.emit(), flipped, cut), has_fcs)
    if parsed is not None and parsed.tcp is not None:
        # The mutators keep foreign-looking frames consistent with the parser.
        spliced = with_tcp_payload(parsed, bytes(len(parsed.tcp_payload)))
        again = parse_frame(spliced.emit(), has_fcs=has_fcs)
        assert spliced == again and spliced.ip == again.ip and spliced.tcp == again.tcp
        assert tcp_checksum_ok(spliced) and fcs_ok(spliced)


# Arbitrary values for the header fields that decide lengths, each written
# into a valid frame at its offset: (offset, struct format, value).  Total
# lengths near the headers', short payloads and unfragmented TCP are drawn
# often, so that a run of 100 examples reaches most of the parser's seven
# length checks, and usually all of them.
length_fields = st.lists(
    st.one_of(
        st.tuples(st.just(14), st.just("!B"), st.integers(0, 15).map(lambda ihl: 0x40 | ihl)),
        st.tuples(st.just(16), st.just("!H"), st.integers(0, 0xFFFF) | st.integers(0, 80)),
        st.tuples(st.just(20), st.just("!H"), st.sampled_from([0, IP_FLAG_DF << 13])
                  | st.integers(0, 0xFFFF)),
        st.tuples(st.just(23), st.just("!B"), st.just(6) | st.integers(0, 255)),
        st.tuples(st.just(46), st.just("!B"), st.integers(0, 15).map(lambda off: off << 4)),
    ),
    min_size=1, max_size=5,
)


@given(st.integers(0, 10_000), st.integers(0, 8) | st.integers(0, 80), st.booleans(),
       length_fields)
def test_parse_frame_on_arbitrary_length_fields_raises_only_wire_error(
    seed, payload_len, with_fcs, fields
):
    """IHL, total length, flags/fragment offset, protocol and data offset."""
    _parsed_or_none(_with_length_fields(seed, payload_len, with_fcs, fields), with_fcs)


def _with_length_fields(seed: int, payload_len: int, with_fcs: bool, fields) -> bytes:
    """A random frame's bytes with the ``length_fields`` values written in."""
    rng = random.Random(seed)
    frame = _random_frame(rng, with_fcs=with_fcs, payload=rng.randbytes(payload_len))
    wire = bytearray(frame.emit())
    for at, fmt, value in fields:
        struct.pack_into(fmt, wire, at, value)
    return bytes(wire)


def _assert_peek_is_the_parsers_first_stage(data: bytes, has_fcs: bool) -> None:
    """peek_frame raises exactly when the parser does, with the same type,
    and otherwise reads the values of the parser's views."""
    try:
        frame = EthernetFrame(data, has_fcs)
    except WireError as exc:
        with pytest.raises(WireError) as raised:
            peek_frame(data, has_fcs)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    fields = peek_frame(data, has_fcs)
    if frame.ip is None:
        assert fields is None
        return
    ip, tcp = fields
    assert ip == frame.ip[:-1]  # all but the options
    if frame.tcp is None:
        assert tcp is None
    else:
        assert tcp == frame.tcp[:9] + (frame.tcp.reserved,)


@given(st.binary(max_size=200), st.booleans())
def test_peek_agrees_with_the_parser_on_arbitrary_bytes(data, has_fcs):
    _assert_peek_is_the_parsers_first_stage(data, has_fcs)


# Flips inside the Ethernet, IPv4 and TCP headers of an option-less frame,
# where every bit is a field the peek reads.
header_flips = st.lists(st.tuples(st.integers(0, 53), st.integers(1, 255)), min_size=1,
                        max_size=3)


@given(st.integers(0, 10_000), st.booleans(), st.booleans(), flips | header_flips, cuts)
def test_peek_agrees_with_the_parser_on_mutated_frames(seed, with_fcs, has_fcs, flipped, cut):
    frame = _random_frame(random.Random(seed), with_fcs=with_fcs)
    _assert_peek_is_the_parsers_first_stage(_mutate(frame.emit(), flipped, cut), has_fcs)


@given(st.integers(0, 10_000), st.integers(0, 8) | st.integers(0, 80), st.booleans(),
       length_fields)
def test_peek_agrees_with_the_parser_on_arbitrary_length_fields(
    seed, payload_len, with_fcs, fields
):
    wire = _with_length_fields(seed, payload_len, with_fcs, fields)
    _assert_peek_is_the_parsers_first_stage(wire, with_fcs)


PCAP_LE_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
PCAP_BE_HEADER = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)


def _read_pcap_or_none(data: bytes):
    try:
        capture = read_pcap(data)
    except WireError:
        return None
    buf = io.BytesIO()
    write_pcap(buf, capture)
    assert read_pcap(buf.getvalue()) == capture
    return capture


@given(st.sampled_from([b"", PCAP_LE_HEADER, PCAP_BE_HEADER]), st.binary(max_size=120))
def test_read_pcap_on_arbitrary_bytes_raises_only_wire_error(header, body):
    _read_pcap_or_none(header + body)


@given(st.integers(0, 10_000), st.integers(0, 3), flips, cuts)
# The high byte of the first record's ts_usec: 0x80 makes it at least 1,000,000.
@example(seed=0, count=1, flipped=[(24 + 7, 0x80)], cut=None)
def test_read_pcap_on_mutated_captures_raises_only_wire_error(seed, count, flipped, cut):
    rng = random.Random(seed)
    records = tuple(
        PcapRecord(
            ts_sec=rng.randrange(1 << 32), ts_usec=rng.randrange(1_000_000),
            frame_bytes=_random_frame(rng, with_fcs=False).emit(),
        )
        for _ in range(count)
    )
    buf = io.BytesIO()
    write_pcap(buf, PcapFile(records=records))
    _read_pcap_or_none(_mutate(buf.getvalue(), flipped, cut))


# ---------------------------------------------------------------------------
# the pcap record scanner


CHUNK = wirecodec._IO_CHUNK


def pcap_oracle(source):
    """The records of a capture, read as two reads per record: a header,
    then a body.  Yields each record before the next is read."""
    header = source.read(24)
    endian = "<" if struct.unpack_from("<I", header)[0] == 0xA1B2C3D4 else ">"
    record_header = struct.Struct(endian + "IIII")
    while True:
        head = source.read(16)
        if not head:
            return
        if len(head) < 16:
            raise TruncatedRecord("record header truncated")
        ts_sec, ts_usec, incl_len, orig_len = record_header.unpack(head)
        body = source.read(incl_len)
        if len(body) < incl_len:
            raise TruncatedRecord("record body truncated")
        if ts_usec >= 1_000_000:
            raise BadTimestamp(f"record microseconds {ts_usec} out of range")
        yield PcapRecord._make((ts_sec, ts_usec, body, orig_len))


def _drain(records) -> tuple:
    """The records an iterator yields, and the type and text of the error
    that ends it, if any."""
    seen = []
    try:
        for record in records:
            seen.append(record)
    except WireError as exc:
        return seen, (type(exc), str(exc))
    return seen, None


class _Trickle:
    """A binary file that returns at most ``most`` bytes per read, as a raw
    pipe may."""

    def __init__(self, data: bytes, most: int):
        self._in, self._most = io.BytesIO(data), most

    def read(self, n: int = -1) -> bytes:
        return self._in.read(min(n, self._most) if n >= 0 else self._most)


# Record sizes: small frames, frames of a few KiB, and frames around one and
# two chunks, which put the next record's header across a chunk's end.
record_sizes = st.lists(
    st.integers(0, 100) | st.integers(0, 3000) | st.integers(CHUNK - 90, CHUNK + 40)
    | st.integers(2 * CHUNK - 40, 2 * CHUNK + 40),
    max_size=5,
)
# A fault at a random record: its file cut at a random byte of it, or its
# microseconds out of range.
faults = st.none() | st.tuples(st.sampled_from(["cut", "usec"]), st.integers(0, 1 << 20),
                               st.integers(0, 1 << 20))


def _capture(endian: str, sizes, seed: int, fault) -> bytes:
    rng = random.Random(seed)
    record_header = struct.Struct(endian + "IIII")
    out = [struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, -60, 3, 65535, 1)]
    starts = []
    for size in sizes:
        starts.append(sum(map(len, out)))
        usec = rng.randrange(1_000_000)
        if fault is not None and fault[0] == "usec" and fault[1] % len(sizes) == len(starts) - 1:
            usec = 1_000_000 + fault[2] % (1 << 31)
        out.append(record_header.pack(rng.randrange(1 << 32), usec, size,
                                      size + rng.randrange(3)))
        out.append(rng.randbytes(size))
    data = b"".join(out)
    if fault is not None and fault[0] == "cut" and sizes:
        at = fault[1] % len(sizes)
        data = data[:starts[at] + fault[2] % (16 + sizes[at])]
    return data


FLIP = bytes(range(255, -1, -1))  # each byte XOR 0xFF


# Functions of a frame: passing it, changing every frame or some, and
# returning equal bytes in a new object (written out, but not changed).
REWRITES = {
    "identity": lambda frame: frame,
    "flip-all": lambda frame: frame.translate(FLIP),
    "flip-some": lambda frame: frame.translate(FLIP) if len(frame) % 3 else frame,
    "equal-copy": lambda frame: bytes(bytearray(frame)),
}


def _reference_rewrite(data: bytes, fn) -> tuple:
    """Every record through PcapReader, fn and PcapWriter.write."""
    out, changed, count = io.BytesIO(), [], 0
    with PcapReader(data) as capture, PcapWriter(
        out, capture.snaplen, capture.thiszone, capture.sigfigs
    ) as writer:
        for count, record in enumerate(capture, 1):
            frame = fn(record.frame_bytes)
            if frame != record.frame_bytes:
                changed.append(count - 1)
            writer.write(record._replace(frame_bytes=frame))
    return out.getvalue(), count, changed


@given(st.sampled_from("<>"), record_sizes, st.integers(0, 1 << 16), faults,
       st.none() | st.integers(1, 23) | st.integers(24, 3 * CHUNK))
@example(endian="<", sizes=[CHUNK - 42, 0, 5], seed=0, fault=None, most=None)
@example(endian=">", sizes=[CHUNK + 7, 3], seed=1, fault=("cut", 0, CHUNK), most=None)
@example(endian="<", sizes=[10, 20, 30], seed=2, fault=("usec", 1, 0), most=None)
@example(endian=">", sizes=[10, 0], seed=3, fault=None, most=1)  # the global header too
def test_pcap_reader_scans_the_records_the_two_read_oracle_reads(
    endian, sizes, seed, fault, most
):
    data = _capture(endian, sizes, seed, fault)
    source = data if most is None else _Trickle(data, most)
    with PcapReader(source) as capture:
        scanned = _drain(capture)
    assert scanned == _drain(pcap_oracle(io.BytesIO(data)))


@given(st.sampled_from("<>"), record_sizes, st.integers(0, 1 << 16), faults)
@example(endian="<", sizes=[CHUNK - 42, 0, 5], seed=0, fault=None)
def test_rewrite_records_equals_writing_every_record(endian, sizes, seed, fault):
    data = _capture(endian, sizes, seed, fault)
    for name, fn in REWRITES.items():
        try:
            expected = _reference_rewrite(data, fn)
        except WireError as exc:
            expected = (type(exc), str(exc))
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "out.pcap")
            try:
                with PcapReader(data) as capture, PcapWriter(
                    path, capture.snaplen, capture.thiszone, capture.sigfigs
                ) as writer:
                    count, changed = rewrite_records(capture, writer, fn)
            except WireError as exc:
                assert (type(exc), str(exc)) == expected, name
                assert os.listdir(folder) == [], name  # a failed run leaves no output
                continue
            with open(path, "rb") as fh:
                assert (fh.read(), count, changed) == expected, name
