"""Byte-exact codecs for the wire formats the lab manipulates.

Ethernet II frames with parsed IPv4/TCP views, the RFC 1071 Internet
checksum, the IEEE CRC-32 frame check sequence, and classic pcap files.
Everything round-trips: ``parse_frame(data).emit() == data`` for any frame
this module accepts, and a pcap read here and written back is byte-identical.

A frame is its bytes.  :class:`EthernetFrame` holds only its wire bytes
(and whether they end in an FCS), and constructing one parses them, so its
``ip`` and ``tcp`` views can never disagree with the wire.
:func:`build_tcp_frame` and the ``with_*`` helpers only produce bytes, with
checksums (and the FCS, when carried) computed over them, and hand those to
the same constructor.

Values are validated once, at the edge: the arguments of
:func:`build_tcp_frame` and :func:`with_ip_fields` raise ``ValueError`` when
out of range.  The ``ip`` and ``tcp`` views are read-only tuples that only
the parser makes, so their fields are in range by construction.  Malformed
bytes raise :class:`WireError` subclasses only.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from itertools import accumulate
from typing import BinaryIO, NamedTuple, Union

ETHERTYPE_IPV4 = 0x0800
PROTO_TCP = 6
ETH_HEADER_LEN = 14
IPV4_MIN_HEADER = 20
TCP_MIN_HEADER = 20

# IPv4 flag bits (3-bit field, MSB first: reserved, DF, MF).
IP_FLAG_MF = 0b001
IP_FLAG_DF = 0b010

# TCP control bits.  Nine of them: NS lives above the classic eight.
TCP_FIN = 0x001
TCP_SYN = 0x002
TCP_RST = 0x004
TCP_PSH = 0x008
TCP_ACK = 0x010
TCP_URG = 0x020
TCP_ECE = 0x040
TCP_CWR = 0x080
TCP_NS = 0x100

SEQ_MOD = 1 << 32
# A TCP payload this long or longer overflows the 16-bit IPv4 total length.
_MAX_TCP_PAYLOAD = (1 << 16) - IPV4_MIN_HEADER - TCP_MIN_HEADER

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBHII")
_TCP = struct.Struct("!HHIIHHHH")
_PSEUDO = struct.Struct("!8sxBH")  # src and dst, zero byte, protocol, TCP length
_U16 = struct.Struct("!H")
_FCS = struct.Struct("<I")
_IP_CHECKSUM_AT = 10
_TCP_CHECKSUM_AT = 16


class WireError(Exception):
    """Base class for wire-format parse/emit failures."""


class TruncatedFrame(WireError):
    """Frame bytes are shorter than a declared or minimum size."""


class BadVersion(WireError):
    """Ethertype promised IPv4 but the IP version nibble disagrees."""


class BadMagic(WireError):
    """pcap global header is missing or carries an unknown magic number."""


class UnsupportedLinktype(WireError):
    """pcap linktype is not Ethernet (1)."""


class TruncatedRecord(WireError):
    """pcap record header or body ends before its declared length."""


class BadTimestamp(WireError):
    """pcap record carries a microseconds field of 1,000,000 or more."""


# ---------------------------------------------------------------------------
# checksums


def internet_checksum(data: bytes) -> int:
    """One's-complement checksum over 16-bit big-endian words (RFC 1071).

    Odd-length input is padded with a virtual zero byte.  Since
    2^16 ≡ 1 (mod 0xFFFF), the data read as one big-endian integer is
    congruent to the sum of its words, and the end-around-carry sum is that
    residue, except that residue 0 is 0x0000 only for all-zero data and
    0xFFFF (one's-complement negative zero) for any other.
    """
    value = int.from_bytes(data, "big")
    if len(data) & 1:
        value <<= 8
    folded = value % 0xFFFF
    if folded:
        return 0xFFFF - folded
    return 0 if value else 0xFFFF


def fcs32(data: bytes) -> int:
    """Ethernet frame check sequence: reflected CRC-32 of the frame bytes."""
    return zlib.crc32(data) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# header views


def _check_range(name: str, value: int, bits: int) -> None:
    if not 0 <= value < (1 << bits):
        raise ValueError(f"{name} out of range for {bits} bits: {value!r}")


def _put16(data: bytes, at: int, value: int) -> bytes:
    """``data`` with the big-endian 16-bit word at ``at`` set to ``value``."""
    return data[:at] + _U16.pack(value) + data[at + 2:]


_IPV4_BITS = {
    "version": 4, "ihl": 4, "tos": 8, "total_length": 16, "identification": 16,
    "flags": 3, "frag_offset": 13, "ttl": 8, "protocol": 8, "header_checksum": 16,
    "src_ip": 32, "dst_ip": 32,
}


class Ipv4Header(NamedTuple):
    """The IPv4 header of a frame, as the parser reads it from the bytes."""

    version: int
    ihl: int
    tos: int
    total_length: int
    identification: int
    flags: int          # 3 bits: reserved | DF | MF
    frag_offset: int    # 13 bits
    ttl: int
    protocol: int
    header_checksum: int
    src_ip: int
    dst_ip: int
    options: bytes

    @property
    def header_len(self) -> int:
        return self.ihl * 4


class TcpHeader(NamedTuple):
    """The TCP header of a frame, as the parser reads it from the bytes."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    data_offset: int
    flags: int          # 9 control bits, NS at bit 8
    window: int
    checksum: int
    urgent_ptr: int
    options: bytes
    reserved: int       # 3 bits between data_offset and NS, normally zero

    @property
    def header_len(self) -> int:
        return self.data_offset * 4


@dataclass(frozen=True, slots=True)
class EthernetFrame:
    """An Ethernet II frame: its wire bytes, and the views parsed out of them.

    ``data`` is the frame as sent, with the little-endian FCS as its last
    four bytes when ``has_fcs``.  Constructing a frame parses ``data``, so
    ``ip`` and ``tcp`` are always the IPv4 and TCP views of those bytes
    (``None`` where a layer is absent or, for TCP, fragmented).  Malformed
    bytes raise :class:`WireError`.  Frames compare and hash by
    ``(data, has_fcs)``.
    """

    data: bytes
    has_fcs: bool = False
    ip: Union[Ipv4Header, None] = field(init=False, compare=False)
    tcp: Union[TcpHeader, None] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        end = self._fcs_at
        if self.has_fcs and end < ETH_HEADER_LEN:
            raise TruncatedFrame("frame too short to carry an FCS")
        if end < ETH_HEADER_LEN:
            raise TruncatedFrame("frame shorter than the Ethernet header")
        ip = tcp = None
        if _U16.unpack_from(self.data, 12)[0] == ETHERTYPE_IPV4:
            ip, tcp = _parse_ip_layers(self.data, end)
        object.__setattr__(self, "ip", ip)
        object.__setattr__(self, "tcp", tcp)

    @property
    def _fcs_at(self) -> int:
        """Offset of the FCS, or the frame length when none is carried."""
        return len(self.data) - 4 if self.has_fcs else len(self.data)

    @property
    def payload(self) -> bytes:
        """L2 payload: the bytes between the Ethernet header and the FCS."""
        return self.data[ETH_HEADER_LEN:self._fcs_at]

    @property
    def fcs(self) -> Union[int, None]:
        """The stored FCS, or ``None`` when the frame carries none."""
        return _FCS.unpack_from(self.data, self._fcs_at)[0] if self.has_fcs else None

    @property
    def tcp_payload(self) -> bytes:
        """TCP segment payload, empty when there is no TCP view."""
        if self.tcp is None:
            return b""
        start = ETH_HEADER_LEN + self.ip.header_len + self.tcp.header_len
        return self.data[start:ETH_HEADER_LEN + self.ip.total_length]

    @property
    def trailer(self) -> bytes:
        """L2 padding past the IP total length (kept verbatim)."""
        if self.ip is None:
            return b""
        return self.data[ETH_HEADER_LEN + self.ip.total_length:self._fcs_at]

    def emit(self) -> bytes:
        return self.data


# ---------------------------------------------------------------------------
# parsing


def _parse_ip_layers(data: bytes, end: int):
    """Parse the IPv4 header (and TCP, when applicable) of the L2 payload
    ``data[ETH_HEADER_LEN:end]``."""
    ip_at = ETH_HEADER_LEN
    size = end - ip_at
    if size < IPV4_MIN_HEADER:
        raise TruncatedFrame("IPv4 header shorter than 20 bytes")
    (vi, tos, total_length, ident, flags_frag, ttl, proto, cksum,
     src, dst) = _IPV4.unpack_from(data, ip_at)
    version = vi >> 4
    if version != 4:
        raise BadVersion(f"IP version {version}, expected 4")
    ihl = vi & 0x0F
    if ihl < 5:
        raise TruncatedFrame(f"IHL below minimum header size: {ihl}")
    header_len = ihl * 4
    if header_len > size:
        raise TruncatedFrame("IPv4 header length beyond captured bytes")
    if total_length < header_len:
        raise TruncatedFrame("IPv4 total length below header length")
    if total_length > size:
        raise TruncatedFrame("IPv4 total length beyond captured bytes")
    flags, frag_offset = flags_frag >> 13, flags_frag & 0x1FFF
    tcp_at = ip_at + header_len
    ip = Ipv4Header(
        version, ihl, tos, total_length, ident, flags, frag_offset, ttl, proto, cksum,
        src, dst, data[ip_at + IPV4_MIN_HEADER:tcp_at],
    )
    # Only an unfragmented datagram carries a parseable TCP header.
    if proto != PROTO_TCP or frag_offset or flags & IP_FLAG_MF:
        return ip, None
    if total_length - header_len < TCP_MIN_HEADER:
        raise TruncatedFrame("TCP header shorter than 20 bytes")
    sport, dport, seq, ack, off_bits, window, tcp_cksum, urg = _TCP.unpack_from(
        data, tcp_at
    )
    data_offset = off_bits >> 12
    if data_offset < 5:
        raise TruncatedFrame(f"TCP data offset below minimum: {data_offset}")
    if header_len + data_offset * 4 > total_length:
        raise TruncatedFrame("TCP data offset beyond segment end")
    tcp = TcpHeader(
        sport, dport, seq, ack, data_offset, off_bits & 0x1FF, window, tcp_cksum, urg,
        data[tcp_at + TCP_MIN_HEADER:tcp_at + data_offset * 4], (off_bits >> 9) & 0x7,
    )
    return ip, tcp


def parse_frame(data: bytes, has_fcs: bool = False) -> EthernetFrame:
    """Parse raw bytes into an :class:`EthernetFrame`.

    ``has_fcs`` tells the parser whether the last four bytes are a
    little-endian FCS.  The stored FCS is taken verbatim (use
    :func:`fcs_ok` to validate it), so parse/emit round-trips exactly.
    """
    return EthernetFrame(bytes(data), has_fcs)


# ---------------------------------------------------------------------------
# checksum plumbing and mutation helpers


def _ip_sum(header: bytes) -> int:
    # Leaving out the aligned checksum word sums the same as zeroing it.
    return internet_checksum(header[:_IP_CHECKSUM_AT] + header[_IP_CHECKSUM_AT + 2:])


def _tcp_sum(ip_header: bytes, header: bytes, payload: bytes) -> int:
    """TCP checksum over the pseudo-header taken from the IPv4 header bytes
    ``ip_header``, ``header`` without its checksum word, and ``payload``."""
    pseudo = _PSEUDO.pack(ip_header[12:20], ip_header[9], len(header) + len(payload))
    return internet_checksum(
        pseudo + header[:_TCP_CHECKSUM_AT] + header[_TCP_CHECKSUM_AT + 2:] + payload
    )


def _framed(head: bytes, tail: bytes, has_fcs: bool) -> EthernetFrame:
    """The frame ``head + tail``, with a fresh FCS appended when ``has_fcs``.

    Two pieces, so the FCS is summed over them where they are and the
    frame's bytes are joined once: no frame-sized copy is made only to be
    summed.
    """
    if not has_fcs:
        return EthernetFrame(head + tail)
    fcs = zlib.crc32(tail, zlib.crc32(head))
    return EthernetFrame(b"".join((head, tail, _FCS.pack(fcs))), True)


def ipv4_checksum_ok(frame: EthernetFrame) -> bool:
    """Verify the IPv4 header checksum; vacuously true without an IP layer."""
    ip = frame.ip
    if ip is None:
        return True
    header = frame.data[ETH_HEADER_LEN:ETH_HEADER_LEN + ip.header_len]
    return _ip_sum(header) == ip.header_checksum


def tcp_checksum_ok(frame: EthernetFrame) -> bool:
    """Verify the TCP checksum; vacuously true without a TCP view.

    Frames whose covert fields mark them as fragments lose the TCP view by
    design — there is then no reassembled segment to checksum.
    """
    ip, tcp = frame.ip, frame.tcp
    if tcp is None:
        return True
    data = frame.data
    start = ETH_HEADER_LEN + ip.header_len
    at = start + tcp.header_len
    payload = data[at:ETH_HEADER_LEN + ip.total_length]
    return _tcp_sum(data[ETH_HEADER_LEN:start], data[start:at], payload) == tcp.checksum


def fcs_ok(frame: EthernetFrame) -> bool:
    """Verify the FCS when carried; frames without one have nothing to fail."""
    return not frame.has_fcs or fcs32(frame.data[:-4]) == frame.fcs


# Where each fixed IPv4 field's lowest bit sits in the 160-bit fixed header
# (``_IPV4_BITS`` lists the fields in wire order).
_IPV4_SHIFT = dict(zip(_IPV4_BITS, (160 - end for end in accumulate(_IPV4_BITS.values()))))
# IPv4 fields the TCP checksum covers through its pseudo-header.
_PSEUDO_FIELDS = frozenset({"src_ip", "dst_ip", "protocol", "total_length"})


def with_ip_fields(frame: EthernetFrame, **fields) -> EthernetFrame:
    """Frame with scalar IPv4 header fields replaced and checksums repaired.

    Only fixed-width fields may change (not ``options``/``ihl``), so the
    header length is stable and everything after it is untouched, except
    the TCP checksum of a frame that comes out with a TCP view when a field
    of its pseudo-header changes or the frame went in without one (a
    fragment's pseudo-header may have changed since its checksum was made).
    """
    ip = frame.ip
    if ip is None:
        raise ValueError("frame has no IPv4 layer")
    data = frame.data
    fixed = int.from_bytes(data[ETH_HEADER_LEN:ETH_HEADER_LEN + IPV4_MIN_HEADER], "big")
    for name, value in fields.items():
        if name == "ihl" or name not in _IPV4_BITS:
            raise ValueError(f"{name} is not a scalar field that keeps the header length")
        bits, shift = _IPV4_BITS[name], _IPV4_SHIFT[name]
        _check_range(name, value, bits)
        fixed = (fixed & ~(((1 << bits) - 1) << shift)) | (value << shift)
    header = fixed.to_bytes(IPV4_MIN_HEADER, "big") + ip.options
    header = _put16(header, _IP_CHECKSUM_AT, _ip_sum(header))
    out = _framed(data[:ETH_HEADER_LEN] + header, frame.payload[ip.header_len:], frame.has_fcs)
    repair = frame.tcp is None or not _PSEUDO_FIELDS.isdisjoint(fields)
    if out.tcp is not None and repair:
        return with_tcp_payload(out, out.tcp_payload)
    return out


def with_tcp_payload(frame: EthernetFrame, payload: bytes) -> EthernetFrame:
    """Frame with its TCP payload replaced (same length) and checksum repaired."""
    ip, tcp = frame.ip, frame.tcp
    if tcp is None:
        raise ValueError("frame has no TCP layer")
    old = frame.data
    start = ETH_HEADER_LEN + ip.header_len
    at = start + tcp.header_len
    if len(payload) != ETH_HEADER_LEN + ip.total_length - at:
        raise ValueError("replacement payload must preserve length")
    checksum = _tcp_sum(old[ETH_HEADER_LEN:start], old[start:at], payload)
    head = _put16(old[:at], start + _TCP_CHECKSUM_AT, checksum)
    return _framed(head, payload + frame.trailer, frame.has_fcs)


def strip_fcs(frame: EthernetFrame) -> EthernetFrame:
    """Frame without its FCS (captures conventionally store frames bare)."""
    if not frame.has_fcs:
        return frame
    return EthernetFrame(frame.data[:-4])


def ipv4(address: Union[str, int]) -> int:
    """Dotted-quad string (or pass-through int) to a 32-bit address.

    Each octet is written as 1-3 ASCII digits with no leading zero, the form
    ``ipaddress.IPv4Address`` accepts; ``bool`` is not an address.
    """
    if isinstance(address, int):
        if isinstance(address, bool):
            raise ValueError(f"not an address: {address!r}")
        _check_range("address", address, 32)
        return address
    if not isinstance(address, str):
        raise ValueError(f"not an address: {address!r}")
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet < 1 << 8:
            _check_range("octet", octet, 8)
        # int() also reads "+1", " 1", "1_0", "01" and non-ASCII digits.
        if str(octet) != part:
            raise ValueError(f"not a dotted quad: {address!r}")
        value = (value << 8) | octet
    return value


def ipv4_str(address: int) -> str:
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def build_tcp_frame(
    *,
    src_ip: Union[str, int],
    dst_ip: Union[str, int],
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int = 0,
    flags: int = TCP_ACK,
    payload: bytes = b"",
    window: int = 4096,
    urgent_ptr: int = 0,
    ttl: int = 64,
    ip_id: int = 0,
    ip_flags: int = IP_FLAG_DF,
    frag_offset: int = 0,
    tos: int = 0,
    dst_mac: bytes = b"\x02\x00\x00\x00\x00\x02",
    src_mac: bytes = b"\x02\x00\x00\x00\x00\x01",
    with_fcs: bool = False,
) -> EthernetFrame:
    """Assemble a checksummed TCP/IPv4/Ethernet frame from field values."""
    # One guard, in the order of the checks below, which run only when it
    # fails so that the error names the first bad argument.
    if not (
        len(dst_mac) == 6 and len(src_mac) == 6 and len(payload) < _MAX_TCP_PAYLOAD
        and 0 <= src_port < 1 << 16 and 0 <= dst_port < 1 << 16 and 0 <= flags < 1 << 9
        and 0 <= window < 1 << 16 and 0 <= urgent_ptr < 1 << 16 and 0 <= tos < 1 << 8
        and 0 <= ip_id < 1 << 16 and 0 <= ip_flags < 1 << 3
        and 0 <= frag_offset < 1 << 13 and 0 <= ttl < 1 << 8
    ):
        if len(dst_mac) != 6 or len(src_mac) != 6:
            raise ValueError("MAC addresses must be 6 bytes")
        for name, value, bits in (
            ("src_port", src_port, 16), ("dst_port", dst_port, 16), ("flags", flags, 9),
            ("window", window, 16), ("urgent_ptr", urgent_ptr, 16), ("tos", tos, 8),
            ("total_length", IPV4_MIN_HEADER + TCP_MIN_HEADER + len(payload), 16),
            ("ip_id", ip_id, 16),
            ("ip_flags", ip_flags, 3), ("frag_offset", frag_offset, 13), ("ttl", ttl, 8),
        ):
            _check_range(name, value, bits)
    if type(src_ip) is not int or not 0 <= src_ip < 1 << 32:
        src_ip = ipv4(src_ip)
    if type(dst_ip) is not int or not 0 <= dst_ip < 1 << 32:
        dst_ip = ipv4(dst_ip)
    total_length = IPV4_MIN_HEADER + TCP_MIN_HEADER + len(payload)
    ip_header = _IPV4.pack(
        0x45, tos, total_length, ip_id, (ip_flags << 13) | frag_offset, ttl, PROTO_TCP,
        0, src_ip, dst_ip,
    )
    ip_header = _put16(ip_header, _IP_CHECKSUM_AT, _ip_sum(ip_header))
    tcp_header = _TCP.pack(
        src_port, dst_port, seq % SEQ_MOD, ack % SEQ_MOD, (5 << 12) | flags, window, 0,
        urgent_ptr,
    )
    tcp_header = _put16(tcp_header, _TCP_CHECKSUM_AT, _tcp_sum(ip_header, tcp_header, payload))
    eth_header = _ETH.pack(dst_mac, src_mac, ETHERTYPE_IPV4)
    return _framed(eth_header + ip_header + tcp_header, payload, with_fcs)


# ---------------------------------------------------------------------------
# classic pcap


PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_ETHERNET = 1
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


@dataclass(frozen=True)
class PcapRecord:
    """One captured frame: microsecond timestamp plus raw bytes (no FCS)."""

    ts_sec: int
    ts_usec: int
    frame_bytes: bytes
    orig_len: Union[int, None] = None

    def __post_init__(self) -> None:
        if self.ts_sec < 0 or not 0 <= self.ts_usec < 1_000_000:
            raise ValueError("timestamp out of range")
        if self.orig_len is None:
            object.__setattr__(self, "orig_len", len(self.frame_bytes))

    @property
    def incl_len(self) -> int:
        return len(self.frame_bytes)


@dataclass(frozen=True)
class PcapFile:
    """A classic pcap: Ethernet records plus the global-header knobs."""

    records: tuple = ()
    snaplen: int = 65535
    thiszone: int = 0
    sigfigs: int = 0


def ns_to_pcap_ts(t_ns: int) -> tuple:
    """Integer nanoseconds to a (seconds, microseconds) pcap timestamp."""
    return t_ns // 1_000_000_000, (t_ns % 1_000_000_000) // 1_000


def write_pcap(out: Union[str, BinaryIO], pcap: PcapFile) -> None:
    """Write a :class:`PcapFile` as little-endian Ethernet pcap."""
    close = False
    if isinstance(out, str):
        out = open(out, "wb")
        close = True
    try:
        out.write(_GLOBAL_HEADER.pack(
            PCAP_MAGIC, *PCAP_VERSION, pcap.thiszone, pcap.sigfigs, pcap.snaplen,
            LINKTYPE_ETHERNET,
        ))
        for rec in pcap.records:
            out.write(
                _RECORD_HEADER.pack(rec.ts_sec, rec.ts_usec, rec.incl_len, rec.orig_len)
            )
            out.write(rec.frame_bytes)
    finally:
        if close:
            out.close()


def read_pcap(source: Union[str, bytes, BinaryIO]) -> PcapFile:
    """Read a classic pcap (either byte order); records come back in file order."""
    if isinstance(source, str):
        with open(source, "rb") as fh:
            data = fh.read()
    elif isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        data = source.read()

    if len(data) < 4:
        raise BadMagic("file too short for a pcap magic number")
    magic_le = struct.unpack_from("<I", data)[0]
    if magic_le == PCAP_MAGIC:
        endian = "<"
    elif struct.unpack_from(">I", data)[0] == PCAP_MAGIC:
        endian = ">"
    else:
        raise BadMagic(f"unknown magic 0x{magic_le:08X}")
    if len(data) < _GLOBAL_HEADER.size:
        raise TruncatedRecord("global header truncated")
    header = struct.Struct(endian + "IHHiIII")
    _, _, _, thiszone, sigfigs, snaplen, linktype = header.unpack_from(data)
    if linktype != LINKTYPE_ETHERNET:
        raise UnsupportedLinktype(f"linktype {linktype}")

    record_header = struct.Struct(endian + "IIII")
    records = []
    offset = header.size
    while offset < len(data):
        if offset + record_header.size > len(data):
            raise TruncatedRecord("record header truncated")
        ts_sec, ts_usec, incl_len, orig_len = record_header.unpack_from(data, offset)
        offset += record_header.size
        if offset + incl_len > len(data):
            raise TruncatedRecord("record body truncated")
        if ts_usec >= 1_000_000:
            raise BadTimestamp(f"record microseconds {ts_usec} out of range")
        records.append(
            PcapRecord(ts_sec, ts_usec, data[offset:offset + incl_len], orig_len)
        )
        offset += incl_len
    return PcapFile(
        records=tuple(records),
        snaplen=snaplen,
        thiszone=thiszone,
        sigfigs=sigfigs,
    )
