"""Byte-exact codecs for the wire formats the lab manipulates.

Ethernet II frames with parsed IPv4/TCP layers, the RFC 1071 Internet
checksum, the IEEE CRC-32 frame check sequence, and classic pcap files.
Everything round-trips: ``parse_frame(data).emit() == data`` for any frame
this module accepts, and a pcap read here and written back is byte-identical.

A frame is its bytes: ``EthernetFrame.payload`` is authoritative, ``ip``
and ``tcp`` are immutable views of it, and checksums are summed over it
with the checksum field sliced out.  The ``with_*`` helpers splice bytes
in, repair the checksums (and the FCS, when carried) and carry the views
over, reparsing only when a changed field decides what the views are.

Values are validated once, at the edge: the public constructors and the
arguments of :func:`build_tcp_frame` and :func:`with_ip_fields` raise
``ValueError`` when out of range.  Parsed fields and internal copies are in
range by construction and skip the checks.  Malformed bytes raise
:class:`WireError` subclasses only.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Union

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

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBHII")
_TCP = struct.Struct("!HHIIHHHH")
_PSEUDO = struct.Struct("!IIxBH")  # src, dst, zero byte, protocol, TCP length
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
# header value objects


def _check_range(name: str, value: int, bits: int) -> None:
    if not 0 <= value < (1 << bits):
        raise ValueError(f"{name} out of range for {bits} bits: {value!r}")


def _unchecked(cls, **fields):
    """``cls(**fields)`` without ``__post_init__``, for fields in range by
    construction; every field must be given."""
    new = object.__new__(cls)
    # From items(), not a dict: merging a dict into the empty instance dict
    # clones it and drops the key table shared with the class (twice the size).
    new.__dict__.update(fields.items())
    return new


def _copy(obj, **changes):
    """``dataclasses.replace`` without ``__post_init__``."""
    return _unchecked(type(obj), **{**obj.__dict__, **changes})


def _check_fields(obj, widths: dict) -> None:
    """``_check_range`` over every field named in ``widths``."""
    for name, bits in widths.items():
        value = getattr(obj, name)
        if not 0 <= value < 1 << bits:
            _check_range(name, value, bits)


def _put16(data: bytes, at: int, value: int) -> bytes:
    """``data`` with the big-endian 16-bit word at ``at`` set to ``value``."""
    return data[:at] + _U16.pack(value) + data[at + 2:]


_IPV4_BITS = {
    "version": 4, "ihl": 4, "tos": 8, "total_length": 16, "identification": 16,
    "flags": 3, "frag_offset": 13, "ttl": 8, "protocol": 8, "header_checksum": 16,
    "src_ip": 32, "dst_ip": 32,
}
_TCP_BITS = {
    "src_port": 16, "dst_port": 16, "seq": 32, "ack": 32, "data_offset": 4,
    "flags": 9, "window": 16, "checksum": 16, "urgent_ptr": 16, "reserved": 3,
}


@dataclass(frozen=True)
class Ipv4Header:
    """Parsed IPv4 header.  ``emit()`` returns exactly ``ihl * 4`` bytes."""

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
    options: bytes = b""

    def __post_init__(self) -> None:
        _check_fields(self, _IPV4_BITS)
        if self.ihl < 5:
            raise ValueError(f"ihl below minimum header size: {self.ihl}")
        if len(self.options) != (self.ihl - 5) * 4:
            raise ValueError("options length inconsistent with ihl")

    @property
    def header_len(self) -> int:
        return self.ihl * 4

    def emit(self) -> bytes:
        return _IPV4.pack(
            (self.version << 4) | self.ihl, self.tos, self.total_length,
            self.identification, (self.flags << 13) | self.frag_offset, self.ttl,
            self.protocol, self.header_checksum, self.src_ip, self.dst_ip,
        ) + self.options


@dataclass(frozen=True)
class TcpHeader:
    """Parsed TCP header.  ``emit()`` returns exactly ``data_offset * 4`` bytes."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    data_offset: int
    flags: int          # 9 control bits, NS at bit 8
    window: int
    checksum: int
    urgent_ptr: int
    options: bytes = b""
    reserved: int = 0   # 3 bits between data_offset and NS, normally zero

    def __post_init__(self) -> None:
        _check_fields(self, _TCP_BITS)
        if self.data_offset < 5:
            raise ValueError(f"data_offset below minimum: {self.data_offset}")
        if len(self.options) != (self.data_offset - 5) * 4:
            raise ValueError("options length inconsistent with data_offset")

    @property
    def header_len(self) -> int:
        return self.data_offset * 4

    def emit(self) -> bytes:
        return _TCP.pack(
            self.src_port, self.dst_port, self.seq, self.ack,
            (self.data_offset << 12) | (self.reserved << 9) | self.flags,
            self.window, self.checksum, self.urgent_ptr,
        ) + self.options


@dataclass(frozen=True)
class EthernetFrame:
    """Ethernet II frame with optional parsed IPv4/TCP views.

    ``payload`` holds the raw L2 payload bytes and is authoritative; ``ip``
    and ``tcp`` are views parsed out of it.  Construct frames through
    :func:`parse_frame` or :func:`build_tcp_frame` so the views stay
    consistent.  ``fcs``, when present, covers header plus payload and is
    appended little-endian by ``emit()``.
    """

    dst_mac: bytes
    src_mac: bytes
    ethertype: int
    payload: bytes
    fcs: Union[int, None] = None
    ip: Union[Ipv4Header, None] = None
    tcp: Union[TcpHeader, None] = None

    def __post_init__(self) -> None:
        if len(self.dst_mac) != 6 or len(self.src_mac) != 6:
            raise ValueError("MAC addresses must be 6 bytes")
        _check_range("ethertype", self.ethertype, 16)
        if self.fcs is not None:
            _check_range("fcs", self.fcs, 32)

    @property
    def tcp_payload(self) -> bytes:
        """TCP segment payload, empty when no TCP layer was parsed."""
        if self.ip is None or self.tcp is None:
            return b""
        start = self.ip.header_len + self.tcp.header_len
        return self.payload[start:self.ip.total_length]

    @property
    def ip_payload(self) -> bytes:
        """IPv4 payload bytes (TCP header included, L2 trailer excluded)."""
        if self.ip is None:
            return b""
        return self.payload[self.ip.header_len:self.ip.total_length]

    @property
    def trailer(self) -> bytes:
        """L2 padding past the IP total length (kept verbatim)."""
        if self.ip is None:
            return b""
        return self.payload[self.ip.total_length:]

    def emit(self) -> bytes:
        head = _ETH.pack(self.dst_mac, self.src_mac, self.ethertype)
        if self.fcs is None:
            return head + self.payload
        return head + self.payload + _FCS.pack(self.fcs)


# ---------------------------------------------------------------------------
# parsing


def _parse_ip_layers(payload: bytes):
    """Parse an IPv4 header (and TCP, when applicable) out of an L2 payload."""
    if len(payload) < IPV4_MIN_HEADER:
        raise TruncatedFrame("IPv4 header shorter than 20 bytes")
    (vi, tos, total_length, ident, flags_frag, ttl, proto, cksum,
     src, dst) = _IPV4.unpack_from(payload)
    version = vi >> 4
    if version != 4:
        raise BadVersion(f"IP version {version}, expected 4")
    ihl = vi & 0x0F
    if ihl < 5:
        raise TruncatedFrame(f"IHL below minimum header size: {ihl}")
    header_len = ihl * 4
    if header_len > len(payload):
        raise TruncatedFrame("IPv4 header length beyond captured bytes")
    if total_length < header_len:
        raise TruncatedFrame("IPv4 total length below header length")
    if total_length > len(payload):
        raise TruncatedFrame("IPv4 total length beyond captured bytes")
    flags, frag_offset = flags_frag >> 13, flags_frag & 0x1FFF
    ip = _unchecked(
        Ipv4Header, version=version, ihl=ihl, tos=tos, total_length=total_length,
        identification=ident, flags=flags, frag_offset=frag_offset, ttl=ttl,
        protocol=proto, header_checksum=cksum, src_ip=src, dst_ip=dst,
        options=payload[IPV4_MIN_HEADER:header_len],
    )
    # Only an unfragmented datagram carries a parseable TCP header.
    if proto != PROTO_TCP or frag_offset or flags & IP_FLAG_MF:
        return ip, None
    if total_length - header_len < TCP_MIN_HEADER:
        raise TruncatedFrame("TCP header shorter than 20 bytes")
    sport, dport, seq, ack, off_bits, window, tcp_cksum, urg = _TCP.unpack_from(
        payload, header_len
    )
    data_offset = off_bits >> 12
    if data_offset < 5:
        raise TruncatedFrame(f"TCP data offset below minimum: {data_offset}")
    options_end = header_len + data_offset * 4
    if options_end > total_length:
        raise TruncatedFrame("TCP data offset beyond segment end")
    tcp = _unchecked(
        TcpHeader, src_port=sport, dst_port=dport, seq=seq, ack=ack,
        data_offset=data_offset, flags=off_bits & 0x1FF, window=window,
        checksum=tcp_cksum, urgent_ptr=urg,
        options=payload[header_len + TCP_MIN_HEADER:options_end],
        reserved=(off_bits >> 9) & 0x7,
    )
    return ip, tcp


def parse_frame(data: bytes, has_fcs: bool = False) -> EthernetFrame:
    """Parse raw bytes into an :class:`EthernetFrame`.

    ``has_fcs`` tells the parser whether the last four bytes are a
    little-endian FCS.  The stored FCS is taken verbatim (use
    :func:`fcs_ok` to validate it), so parse/emit round-trips exactly.
    """
    body = bytes(data)
    end = len(body)
    fcs = None
    if has_fcs:
        if end < ETH_HEADER_LEN + 4:
            raise TruncatedFrame("frame too short to carry an FCS")
        end -= 4
        (fcs,) = _FCS.unpack_from(body, end)
    if end < ETH_HEADER_LEN:
        raise TruncatedFrame("frame shorter than the Ethernet header")
    dst_mac, src_mac, ethertype = _ETH.unpack_from(body)
    payload = body[ETH_HEADER_LEN:end]
    ip = tcp = None
    if ethertype == ETHERTYPE_IPV4:
        ip, tcp = _parse_ip_layers(payload)
    return _unchecked(
        EthernetFrame, dst_mac=dst_mac, src_mac=src_mac, ethertype=ethertype,
        payload=payload, fcs=fcs, ip=ip, tcp=tcp,
    )


# ---------------------------------------------------------------------------
# checksum plumbing and mutation helpers


def _ip_sum(header: bytes) -> int:
    # Leaving out the aligned checksum word sums the same as zeroing it.
    return internet_checksum(header[:_IP_CHECKSUM_AT] + header[_IP_CHECKSUM_AT + 2:])


def _tcp_sum(ip: Ipv4Header, header: bytes, payload: bytes) -> int:
    """TCP checksum over the pseudo-header, ``header`` without its checksum
    word, and ``payload``."""
    pseudo = _PSEUDO.pack(ip.src_ip, ip.dst_ip, ip.protocol, len(header) + len(payload))
    return internet_checksum(
        pseudo + header[:_TCP_CHECKSUM_AT] + header[_TCP_CHECKSUM_AT + 2:] + payload
    )


def _fcs(dst_mac: bytes, src_mac: bytes, ethertype: int, payload: bytes) -> int:
    return fcs32(_ETH.pack(dst_mac, src_mac, ethertype) + payload)


def ipv4_checksum(ip: Ipv4Header) -> int:
    """Header checksum value for ``ip`` (checksum field treated as zero)."""
    return _ip_sum(ip.emit())


def tcp_checksum(ip: Ipv4Header, tcp: TcpHeader, payload: bytes) -> int:
    """TCP checksum over the pseudo-header, TCP header and payload."""
    return _tcp_sum(ip, tcp.emit(), payload)


def ipv4_checksum_ok(frame: EthernetFrame) -> bool:
    """Verify the IPv4 header checksum; vacuously true without an IP layer."""
    ip = frame.ip
    if ip is None:
        return True
    return _ip_sum(frame.payload[:ip.header_len]) == ip.header_checksum


def tcp_checksum_ok(frame: EthernetFrame) -> bool:
    """Verify the TCP checksum; vacuously true without a TCP view.

    Frames whose covert fields mark them as fragments lose the TCP view by
    design — there is then no reassembled segment to checksum.
    """
    ip, tcp = frame.ip, frame.tcp
    if ip is None or tcp is None:
        return True
    start = ip.header_len
    data = start + tcp.header_len
    l2 = frame.payload
    return _tcp_sum(ip, l2[start:data], l2[data:ip.total_length]) == tcp.checksum


def fcs_ok(frame: EthernetFrame) -> bool:
    """Verify the FCS when carried; frames without one have nothing to fail."""
    if frame.fcs is None:
        return True
    return _fcs(frame.dst_mac, frame.src_mac, frame.ethertype, frame.payload) == frame.fcs


def _spliced(frame: EthernetFrame, payload: bytes, ip, tcp) -> EthernetFrame:
    """Copy of ``frame`` carrying ``payload`` and its views, FCS recomputed."""
    fcs = frame.fcs
    if fcs is not None:
        fcs = _fcs(frame.dst_mac, frame.src_mac, frame.ethertype, payload)
    return _copy(frame, payload=payload, fcs=fcs, ip=ip, tcp=tcp)


# IPv4 fields that decide whether (and where) the TCP view exists.
_VIEW_FIELDS = frozenset({"version", "flags", "frag_offset", "protocol", "total_length"})


def with_ip_fields(frame: EthernetFrame, **fields) -> EthernetFrame:
    """Frame with scalar IPv4 header fields replaced and checksum repaired.

    Only fixed-width fields may change (not ``options``/``ihl``), so the
    header length is stable and everything after it is untouched.  The
    views are reparsed only when a field in ``_VIEW_FIELDS`` changes.
    """
    if frame.ip is None:
        raise ValueError("frame has no IPv4 layer")
    for name, value in fields.items():
        if name == "ihl" or name not in _IPV4_BITS:
            raise ValueError(f"{name} is not a scalar field that keeps the header length")
        _check_range(name, value, _IPV4_BITS[name])
    ip = _copy(frame.ip, **fields)
    header = ip.emit()
    checksum = _ip_sum(header)
    payload = _put16(header, _IP_CHECKSUM_AT, checksum) + frame.payload[ip.header_len:]
    if _VIEW_FIELDS.isdisjoint(fields):
        return _spliced(frame, payload, _copy(ip, header_checksum=checksum), frame.tcp)
    return _spliced(frame, payload, *_parse_ip_layers(payload))


def with_tcp_payload(frame: EthernetFrame, payload: bytes) -> EthernetFrame:
    """Frame with its TCP payload replaced (same length) and checksum repaired."""
    ip, tcp = frame.ip, frame.tcp
    if ip is None or tcp is None:
        raise ValueError("frame has no TCP layer")
    start = ip.header_len
    data = start + tcp.header_len
    end = ip.total_length
    if len(payload) != end - data:
        raise ValueError("replacement payload must preserve length")
    old = frame.payload
    checksum = _tcp_sum(ip, old[start:data], payload)
    new = _put16(old[:data], start + _TCP_CHECKSUM_AT, checksum) + payload + old[end:]
    return _spliced(frame, new, ip, _copy(tcp, checksum=checksum))


def strip_fcs(frame: EthernetFrame) -> EthernetFrame:
    """Frame without its FCS (captures conventionally store frames bare)."""
    if frame.fcs is None:
        return frame
    return _copy(frame, fcs=None)


def ipv4(address: Union[str, int]) -> int:
    """Dotted-quad string (or pass-through int) to a 32-bit address."""
    if isinstance(address, int):
        _check_range("address", address, 32)
        return address
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted quad: {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        _check_range("octet", octet, 8)
        value = (value << 8) | octet
    return value


def ipv4_str(address: int) -> str:
    return ".".join(str((address >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mac_str(mac: bytes) -> str:
    return ":".join(f"{b:02x}" for b in mac)


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
    tcp = TcpHeader(
        src_port=src_port, dst_port=dst_port, seq=seq % SEQ_MOD, ack=ack % SEQ_MOD,
        data_offset=5, flags=flags, window=window, checksum=0, urgent_ptr=urgent_ptr,
    )
    ip = Ipv4Header(
        version=4, ihl=5, tos=tos,
        total_length=IPV4_MIN_HEADER + TCP_MIN_HEADER + len(payload),
        identification=ip_id, flags=ip_flags, frag_offset=frag_offset, ttl=ttl,
        protocol=PROTO_TCP, header_checksum=0, src_ip=ipv4(src_ip), dst_ip=ipv4(dst_ip),
    )
    ip_header, tcp_header = ip.emit(), tcp.emit()
    ip_sum = _ip_sum(ip_header)
    tcp_sum = _tcp_sum(ip, tcp_header, payload)
    l2_payload = (
        _put16(ip_header, _IP_CHECKSUM_AT, ip_sum)
        + _put16(tcp_header, _TCP_CHECKSUM_AT, tcp_sum)
        + payload
    )
    return EthernetFrame(
        dst_mac=dst_mac, src_mac=src_mac, ethertype=ETHERTYPE_IPV4, payload=l2_payload,
        fcs=_fcs(dst_mac, src_mac, ETHERTYPE_IPV4, l2_payload) if with_fcs else None,
        ip=_copy(ip, header_checksum=ip_sum), tcp=_copy(tcp, checksum=tcp_sum),
    )


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
    linktype: int = LINKTYPE_ETHERNET
    thiszone: int = 0
    sigfigs: int = 0


def ns_to_pcap_ts(t_ns: int) -> tuple:
    """Integer nanoseconds to a (seconds, microseconds) pcap timestamp."""
    return t_ns // 1_000_000_000, (t_ns % 1_000_000_000) // 1_000


def write_pcap(out: Union[str, BinaryIO], pcap) -> None:
    """Write a :class:`PcapFile` (or iterable of records) as little-endian pcap."""
    if not isinstance(pcap, PcapFile):
        pcap = PcapFile(records=tuple(pcap))
        if pcap.snaplen < 1514:
            raise ValueError("snaplen below a full Ethernet frame")
    if pcap.linktype != LINKTYPE_ETHERNET:
        raise UnsupportedLinktype(f"linktype {pcap.linktype}")
    close = False
    if isinstance(out, str):
        out = open(out, "wb")
        close = True
    try:
        out.write(_GLOBAL_HEADER.pack(
            PCAP_MAGIC, *PCAP_VERSION, pcap.thiszone, pcap.sigfigs, pcap.snaplen,
            pcap.linktype,
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
        records.append(_unchecked(
            PcapRecord, ts_sec=ts_sec, ts_usec=ts_usec,
            frame_bytes=data[offset:offset + incl_len], orig_len=orig_len,
        ))
        offset += incl_len
    return PcapFile(
        records=tuple(records),
        snaplen=snaplen,
        linktype=linktype,
        thiszone=thiszone,
        sigfigs=sigfigs,
    )
