"""Byte-exact codecs for the wire formats the lab manipulates.

Ethernet II frames with parsed IPv4/TCP views, the RFC 1071 Internet
checksum, the IEEE CRC-32 frame check sequence, and classic pcap files.
Everything round-trips: ``parse_frame(data).emit() == data`` for any frame
this module accepts, and a pcap read here and written back is byte-identical.

The pcap format is written down once, as a stream: :class:`PcapReader`
reads a capture one record at a time, and :class:`PcapWriter` writes one
record per call, so a capture can pass from one to the other in constant
memory.  The reader scans records
out of chunks of the file, and :func:`rewrite_records` passes a capture
through a function of its frames with the same scan, copying the records
that pass unchanged as they were read.  :func:`read_pcap` and
:func:`write_pcap` hold a whole capture as a :class:`PcapFile` and are thin
wrappers over the two.

A frame is its bytes.  :class:`EthernetFrame` holds its wire bytes (and
whether they end in an FCS) and the ``ip`` and ``tcp`` views of them.  The
parser makes the views of outside bytes: constructing a frame from bytes
parses them, in two stages.  :func:`peek_frame` reads the fixed-offset
header fields and checks every offset and length rule, and the views are
made from what it read; a caller that needs only those fields peeks and
builds no frame.  The three builders, :func:`build_tcp_frame`,
:func:`with_tcp_payload` and :func:`with_ip_fields`, make the views of the
values they packed: each sums its checksums from those values (RFC 1071
arithmetic), packs its headers once with the checksums in place, joins the
frame and its FCS once, and does not parse what it made.  The one
exception: :func:`with_ip_fields` parses its output when it changes the
flags, fragment offset, protocol or total length, the fields that decide
whether and how the bytes parse.  A test holds every view a builder makes
equal to a re-parse of its bytes.  The verifiers recompute each checksum
with the value sum a builder uses: :func:`with_ip_fields` and
:func:`ipv4_checksum_ok` share one sum of the IPv4 view's values, as
:func:`with_tcp_payload` and :func:`tcp_checksum_ok` share one of the TCP
view's.

A frame this module made carries known sums: :attr:`EthernetFrame.sums_known`
is True when :func:`build_tcp_frame` or a ``with_*`` helper computed its TCP
checksum and FCS over its bytes (or copied a segment whose checksum was
known good), and False for every frame made from outside bytes, where it
means "unknown", never "bad".  Since a frame is immutable, such sums cannot
fail, so the simulator's receiver and sender and the tap skip re-checking
them.  The verifiers (:func:`tcp_checksum_ok`, :func:`fcs_ok`,
:func:`ipv4_checksum_ok`) ignore the field and always recompute.

Values are validated once, at the edge: the arguments of
:func:`build_tcp_frame` and :func:`with_ip_fields` raise ``ValueError`` when
out of range.  The ``ip`` and ``tcp`` views are read-only tuples of values
read from bytes or already range-checked, so their fields are in range by
construction.  Malformed bytes raise :class:`WireError` subclasses only.
"""

from __future__ import annotations

import io
import os
import stat
import struct
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterator, List, NamedTuple, Sequence, Tuple, Union

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

_IPV4 = struct.Struct("!BBHHHBBHII")
_TCP = struct.Struct("!HHIIHHHH")
_HEADERS = struct.Struct("!6s6sH" + _IPV4.format[1:] + _TCP.format[1:])  # Ethernet, IPv4, TCP
_U16 = struct.Struct("!H")
_FCS = struct.Struct("<I")
_TCP_CHECKSUM_AT = 16
_set = object.__setattr__  # how a frozen frame sets its derived fields


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
    residue (:func:`_fold` gives the checksum of a residue).
    """
    return _fold(_words(data))


def _words(data: bytes) -> int:
    """``data`` as one big-endian integer, odd-length input padded with a
    zero byte: congruent, modulo 0xFFFF, to the sum of its 16-bit words."""
    return int.from_bytes(data, "big") << 8 * (len(data) & 1)


def _fold(total: int) -> int:
    """The Internet checksum of data whose 16-bit words sum to ``total``
    modulo 0xFFFF, where ``total`` is 0 only for all-zero data.

    The checksum is the complement of the end-around-carry sum, which is
    the residue except at residue 0: there the sum is 0x0000 for all-zero
    data, giving checksum 0xFFFF, and 0xFFFF (one's-complement negative
    zero) for any other data, giving checksum 0x0000.
    """
    folded = total % 0xFFFF
    if folded:
        return 0xFFFF - folded
    return 0 if total else 0xFFFF


def fcs32(data: bytes) -> int:
    """Ethernet frame check sequence: reflected CRC-32 of the frame bytes."""
    return zlib.crc32(data) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# header views


def _check_range(name: str, value: int, bits: int) -> None:
    if not 0 <= value < (1 << bits):
        raise ValueError(f"{name} out of range for {bits} bits: {value!r}")


class Ipv4Header(NamedTuple):
    """The IPv4 header of a frame, as the parser reads it from the bytes
    (or as a builder packed it)."""

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
    """The TCP header of a frame, as the parser reads it from the bytes
    (or as a builder packed it)."""

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
    """An Ethernet II frame: its wire bytes, and the IPv4 and TCP views of them.

    ``data`` is the frame as sent, with the little-endian FCS as its last
    four bytes when ``has_fcs``.  ``ip`` and ``tcp`` are the IPv4 and TCP
    views of those bytes (``None`` where a layer is absent or, for TCP,
    fragmented).  Constructing a frame parses ``data`` into the views, and
    malformed bytes raise :class:`WireError`; the builders make a frame's
    views from the values they packed.  Frames compare and hash by
    ``(data, has_fcs)``.  ``sums_known`` is True only on a frame whose TCP
    checksum and FCS this module computed.  The module docstring states
    both rules.
    """

    data: bytes
    has_fcs: bool = False
    ip: Union[Ipv4Header, None] = field(init=False, compare=False)
    tcp: Union[TcpHeader, None] = field(init=False, compare=False)
    sums_known: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ip, tcp = peek_frame(self.data, self.has_fcs) or (None, None)
        if ip is not None:
            ip, tcp = _views(self.data, ip, tcp)
        _set(self, "ip", ip)
        _set(self, "tcp", tcp)
        _set(self, "sums_known", False)

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


def peek_frame(data: bytes, has_fcs: bool = False) -> Union[tuple, None]:
    """The validated fixed-offset fields of a frame's IPv4 and TCP headers.

    The first stage of the parser: ``EthernetFrame(data, has_fcs)`` raises
    exactly what this raises, and makes its ``ip`` and ``tcp`` views from
    what this returns.  Returns ``None`` when the frame is not IPv4, and
    otherwise ``(ip, tcp)``: ``ip`` holds the values of the ``Ipv4Header``
    view but its options, and ``tcp`` those of the ``TcpHeader`` view but
    its options, or is ``None`` where the frame has no TCP view.  Each value
    sits at its view's index, except that ``tcp`` ends with ``reserved``.
    A caller that needs only these fields reads them without building the
    frame.
    """
    end = len(data) - 4 if has_fcs else len(data)
    if end < ETH_HEADER_LEN:
        raise TruncatedFrame(
            "frame too short to carry an FCS" if has_fcs
            else "frame shorter than the Ethernet header"
        )
    if data[12:14] != b"\x08\x00":  # ETHERTYPE_IPV4
        return None
    size = end - ETH_HEADER_LEN
    if size < IPV4_MIN_HEADER:
        raise TruncatedFrame("IPv4 header shorter than 20 bytes")
    (vi, tos, total_length, ident, flags_frag, ttl, proto, cksum,
     src, dst) = _IPV4.unpack_from(data, ETH_HEADER_LEN)
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
    ip = (version, ihl, tos, total_length, ident, flags, frag_offset, ttl, proto, cksum, src, dst)
    # Only an unfragmented datagram carries a parseable TCP header.
    if proto != PROTO_TCP or frag_offset or flags & IP_FLAG_MF:
        return ip, None
    if total_length - header_len < TCP_MIN_HEADER:
        raise TruncatedFrame("TCP header shorter than 20 bytes")
    sport, dport, seq, ack, off_bits, window, tcp_cksum, urg = _TCP.unpack_from(
        data, ETH_HEADER_LEN + header_len
    )
    data_offset = off_bits >> 12
    if data_offset < 5:
        raise TruncatedFrame(f"TCP data offset below minimum: {data_offset}")
    if header_len + data_offset * 4 > total_length:
        raise TruncatedFrame("TCP data offset beyond segment end")
    return ip, (
        sport, dport, seq, ack, data_offset, off_bits & 0x1FF, window, tcp_cksum, urg,
        (off_bits >> 9) & 0x7,
    )


def _views(data: bytes, ip: tuple, tcp: Union[tuple, None]) -> tuple:
    """The ``(ip, tcp)`` views of ``data``, from the fields :func:`peek_frame`
    read from it: each view is its fields plus the options they delimit."""
    tcp_at = ETH_HEADER_LEN + 4 * ip[1]  # the IHL
    # tuple.__new__ skips the named tuples' Python-level __new__ on this hot path.
    ip = tuple.__new__(Ipv4Header, ip + (data[ETH_HEADER_LEN + IPV4_MIN_HEADER:tcp_at],))
    if tcp is not None:
        sport, dport, seq, ack, offset, flags, window, checksum, urgent, reserved = tcp
        tcp = tuple.__new__(TcpHeader, (
            sport, dport, seq, ack, offset, flags, window, checksum, urgent,
            data[tcp_at + TCP_MIN_HEADER:tcp_at + 4 * offset], reserved,
        ))
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


def _ip_checksum(ip: Sequence) -> int:
    """The checksum of the IPv4 header whose view values are ``ip``
    (checksum field ignored), options included."""
    version, ihl, tos, total_length, ident, flags, frag_offset, ttl, proto, _, src, dst, options = ip
    # The sum of the views' values is the sum of the bytes they were read from.
    return _fold(
        (version << 12 | ihl << 8 | tos) + total_length + ident + (flags << 13 | frag_offset)
        + (ttl << 8 | proto) + src + dst + int.from_bytes(options, "big")
    )


def _tcp_checksum(ip: Ipv4Header, tcp: TcpHeader, payload: bytes) -> int:
    """The checksum of the TCP header ``tcp`` (checksum field ignored) and
    ``payload`` in the datagram ``ip``, pseudo-header included."""
    sport, dport, seq, ack, offset, flags, window, _, urgent, options, reserved = tcp
    # The sum of the views' values is the sum of the bytes they were read from.
    return _fold(
        ip.src_ip + ip.dst_ip + ip.protocol + ip.total_length - 4 * ip.ihl
        + sport + dport + seq + ack + (offset << 12 | reserved << 9 | flags) + window + urgent
        + int.from_bytes(options, "big") + _words(payload)
    )


def _framed(
    head: bytes, tail: bytes, has_fcs: bool, sums_known: bool, views: Union[tuple, None] = None
) -> EthernetFrame:
    """The frame ``head + tail``, with a fresh FCS appended when ``has_fcs``.

    Two pieces, so the FCS is summed over them where they are and the
    frame's bytes are joined once: no frame-sized copy is made only to be
    summed.  ``sums_known`` says whether the TCP checksum in ``head`` is
    known good for these bytes: the caller computed it, or copied the
    segment unchanged from a frame whose sums were known.  ``views`` are
    the ``(ip, tcp)`` views of the values the caller packed into these
    bytes; without them the bytes are parsed.
    """
    if has_fcs:
        data = b"".join((head, tail, _FCS.pack(zlib.crc32(tail, zlib.crc32(head)))))
    else:
        data = head + tail
    if views is None:
        frame = EthernetFrame(data, has_fcs)
    else:
        frame = object.__new__(EthernetFrame)  # its builder sets the fields, unparsed
        _set(frame, "data", data)
        _set(frame, "has_fcs", has_fcs)
        _set(frame, "ip", views[0])
        _set(frame, "tcp", views[1])
    _set(frame, "sums_known", sums_known)
    return frame


def ipv4_checksum_ok(frame: EthernetFrame) -> bool:
    """Verify the IPv4 header checksum; vacuously true without an IP layer."""
    ip = frame.ip
    return ip is None or _ip_checksum(ip) == ip.header_checksum


def tcp_checksum_ok(frame: EthernetFrame) -> bool:
    """Verify the TCP checksum; vacuously true without a TCP view.

    Frames whose covert fields mark them as fragments lose the TCP view by
    design — there is then no reassembled segment to checksum.
    """
    ip, tcp = frame.ip, frame.tcp
    if tcp is None:
        return True
    at = ETH_HEADER_LEN + 4 * (ip.ihl + tcp.data_offset)
    payload = frame.data[at:ETH_HEADER_LEN + ip.total_length]
    return _tcp_checksum(ip, tcp, payload) == tcp.checksum


def fcs_ok(frame: EthernetFrame) -> bool:
    """Verify the FCS when carried; frames without one have nothing to fail."""
    return not frame.has_fcs or fcs32(frame.data[:-4]) == frame.fcs


# IPv4 fields the TCP checksum covers through its pseudo-header.
_PSEUDO_FIELDS = frozenset({"src_ip", "dst_ip", "protocol", "total_length"})
# The IPv4 fields that decide whether and how the bytes parse: whether the
# datagram is a fragment, whether it carries TCP, and where its segment ends.
_PARSE_FIELDS = frozenset({"flags", "frag_offset", "protocol", "total_length"})
# The fields with_ip_fields sets, each with its index in an Ipv4Header and
# its width in bits: it keeps the version and header length and computes
# the checksum.
_IPV4_SETTABLE = {
    name: (Ipv4Header._fields.index(name), bits) for name, bits in (
        ("tos", 8), ("total_length", 16), ("identification", 16), ("flags", 3),
        ("frag_offset", 13), ("ttl", 8), ("protocol", 8), ("src_ip", 32), ("dst_ip", 32),
    )
}


def with_ip_fields(frame: EthernetFrame, **fields) -> EthernetFrame:
    """Frame with scalar IPv4 header fields replaced and checksums repaired.

    Only fixed-width fields may change: ``version``, ``ihl``, ``options``
    and ``header_checksum`` raise ``ValueError``, so the header keeps its
    length and gets a fresh checksum.  Everything after it is untouched, except
    the TCP checksum of a frame that comes out with a TCP view when a field
    of its pseudo-header changes or the frame went in without one (a
    fragment's pseudo-header may have changed since its checksum was made).

    The header is packed from the input's ``ip`` view with the fields
    replaced, and its checksum summed from those values as
    :func:`ipv4_checksum_ok` sums them.  Only ``flags``, ``frag_offset``,
    ``protocol`` and ``total_length`` decide whether and how the new bytes
    parse, so a call that sets none of them makes its views from the values
    it packed (the ``tcp`` view is the input's), and a call that sets any
    of them parses its output.
    """
    ip = frame.ip
    if ip is None:
        raise ValueError("frame has no IPv4 layer")
    values = list(ip)
    for name, value in fields.items():
        if name not in _IPV4_SETTABLE:
            raise ValueError(f"{name} is not an IPv4 field that with_ip_fields sets")
        at, bits = _IPV4_SETTABLE[name]
        _check_range(name, value, bits)
        values[at] = value
    values[9] = _ip_checksum(values)  # the header_checksum
    (version, ihl, tos, total_length, ident, flags, frag_offset, ttl, proto, checksum, src, dst,
     options) = values
    data = frame.data
    head = data[:ETH_HEADER_LEN] + _IPV4.pack(
        version << 4 | ihl, tos, total_length, ident, flags << 13 | frag_offset, ttl, proto,
        checksum, src, dst,
    ) + options
    # The TCP segment and any trailer are copied as they are, so unless the
    # segment is repaired below its checksum is as good (or as unknown) as
    # the input's.
    tail = data[ETH_HEADER_LEN + 4 * ihl:frame._fcs_at]
    views = None
    if _PARSE_FIELDS.isdisjoint(fields):  # the bytes parse as the input's did
        views = (tuple.__new__(Ipv4Header, values), frame.tcp)
    out = _framed(head, tail, frame.has_fcs, frame.sums_known, views)
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
    checksum = _tcp_checksum(ip, tcp, payload)
    at_sum = start + _TCP_CHECKSUM_AT
    head = old[:at_sum] + _U16.pack(checksum) + old[at_sum + 2:at]
    tcp = tuple.__new__(TcpHeader, tcp[:7] + (checksum,) + tcp[8:])  # checksum replaced
    return _framed(head, payload + frame.trailer, frame.has_fcs, True, (ip, tcp))


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
    ttl: int = 64,
    ip_id: int = 0,
    dst_mac: bytes = b"\x02\x00\x00\x00\x00\x02",
    src_mac: bytes = b"\x02\x00\x00\x00\x00\x01",
    with_fcs: bool = False,
) -> EthernetFrame:
    """Assemble a checksummed TCP/IPv4/Ethernet frame from field values.

    The headers carry no options, TOS 0, DF set, fragment offset 0 and
    urgent pointer 0; :func:`with_ip_fields` sets IPv4 fields afterwards.
    """
    # One guard, in the order of the checks below, which run only when it
    # fails so that the error names the first bad argument.
    if not (
        len(dst_mac) == 6 and len(src_mac) == 6 and len(payload) < _MAX_TCP_PAYLOAD
        and 0 <= src_port < 1 << 16 and 0 <= dst_port < 1 << 16 and 0 <= flags < 1 << 9
        and 0 <= window < 1 << 16 and 0 <= ip_id < 1 << 16 and 0 <= ttl < 1 << 8
    ):
        if len(dst_mac) != 6 or len(src_mac) != 6:
            raise ValueError("MAC addresses must be 6 bytes")
        for name, value, bits in (
            ("src_port", src_port, 16), ("dst_port", dst_port, 16), ("flags", flags, 9),
            ("window", window, 16),
            ("total_length", IPV4_MIN_HEADER + TCP_MIN_HEADER + len(payload), 16),
            ("ip_id", ip_id, 16), ("ttl", ttl, 8),
        ):
            _check_range(name, value, bits)
    if type(src_ip) is not int or not 0 <= src_ip < 1 << 32:
        src_ip = ipv4(src_ip)
    if type(dst_ip) is not int or not 0 <= dst_ip < 1 << 32:
        dst_ip = ipv4(dst_ip)
    total_length = IPV4_MIN_HEADER + TCP_MIN_HEADER + len(payload)
    seq %= SEQ_MOD
    ack %= SEQ_MOD
    off_bits = 5 << 12 | flags
    # Each checksum sums the 16-bit words of the values packed below; a
    # 32-bit value sums as its two words, since 2^16 ≡ 1 (mod 0xFFFF).
    ip_checksum = _fold(
        0x4500 + total_length + ip_id + (IP_FLAG_DF << 13) + (ttl << 8) + PROTO_TCP
        + src_ip + dst_ip
    )
    tcp_checksum = _fold(
        src_ip + dst_ip + PROTO_TCP + total_length - IPV4_MIN_HEADER
        + src_port + dst_port + seq + ack + off_bits + window + _words(payload)
    )
    head = _HEADERS.pack(
        dst_mac, src_mac, ETHERTYPE_IPV4,
        0x45, 0, total_length, ip_id, IP_FLAG_DF << 13, ttl, PROTO_TCP, ip_checksum,
        src_ip, dst_ip,
        src_port, dst_port, seq, ack, off_bits, window, tcp_checksum, 0,
    )
    ip = tuple.__new__(Ipv4Header, (
        4, 5, 0, total_length, ip_id, IP_FLAG_DF, 0, ttl, PROTO_TCP, ip_checksum,
        src_ip, dst_ip, b"",
    ))
    tcp = tuple.__new__(TcpHeader, (
        src_port, dst_port, seq, ack, 5, flags, window, tcp_checksum, 0, b"", 0,
    ))
    return _framed(head, payload, with_fcs, True, (ip, tcp))


# ---------------------------------------------------------------------------
# classic pcap


PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_ETHERNET = 1
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


class _PcapFields(NamedTuple):
    ts_sec: int
    ts_usec: int
    frame_bytes: bytes
    orig_len: int


class PcapRecord(_PcapFields):
    """One captured frame: microsecond timestamp plus raw bytes (no FCS).

    Construction records the whole frame (``orig_len`` is its length) and
    raises ``ValueError`` on a timestamp the record header cannot hold.
    The reader, which keeps each record's ``orig_len``, and ``trace_to_pcap``
    make their records unchecked.
    """

    __slots__ = ()

    def __new__(cls, ts_sec: int, ts_usec: int, frame_bytes: bytes) -> "PcapRecord":
        if not (0 <= ts_sec < 1 << 32 and 0 <= ts_usec < 1_000_000):
            raise ValueError(f"timestamp out of range: {ts_sec} s {ts_usec} us")
        return tuple.__new__(cls, (ts_sec, ts_usec, frame_bytes, len(frame_bytes)))


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


# The buffer size of the files opened here, and the size of the chunks the
# pcap reader scans: a stream of small records then costs one read per chunk
# rather than two per record.
_IO_CHUNK = 1 << 16


class PcapReader:
    """A classic pcap (either byte order), read one record at a time.

    ``source`` is a path, the capture's bytes, or a binary file.  Opening
    reads and checks the global header and sets ``snaplen``, ``thiszone``
    and ``sigfigs``; iterating (once) then yields each :class:`PcapRecord`
    as it is read, so memory does not grow with the capture.  A path is
    opened here and closed by :meth:`close` or at the end of a ``with``.
    """

    def __init__(self, source: Union[str, bytes, BinaryIO]):
        self._owned = isinstance(source, (str, bytes, bytearray))
        if isinstance(source, str):
            source = open(source, "rb", buffering=_IO_CHUNK)
        elif self._owned:
            source = io.BytesIO(source)
        self._in = source
        try:
            self._read_global_header()
        except BaseException:
            self.close()
            raise

    def _read_global_header(self) -> None:
        data = self._read(b"", _GLOBAL_HEADER.size)
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
        _, _, _, self.thiszone, self.sigfigs, self.snaplen, linktype = struct.unpack_from(
            endian + _GLOBAL_HEADER.format[1:], data
        )
        if linktype != LINKTYPE_ETHERNET:
            raise UnsupportedLinktype(f"linktype {linktype}")
        self._record_header = struct.Struct(endian + _RECORD_HEADER.format[1:])
        self._rest = data[_GLOBAL_HEADER.size:]  # the first records, read with the header

    def _read(self, rest: bytes, want: int) -> bytes:
        """``rest`` and the next chunk of the file, and more chunks until there
        are ``want`` bytes or the file ends; reads may come back short."""
        read = self._in.read
        parts = [rest] if rest else []
        have = len(rest)
        while True:
            chunk = read(_IO_CHUNK)
            if not chunk:
                break
            parts.append(chunk)
            have += len(chunk)
            if have >= want:
                break
        return b"".join(parts)

    def _scan(self) -> Iterator[tuple]:
        """The records, as ``(buf, records)`` for each chunk of the file read.

        ``buf`` holds whole records, each listed in ``records`` as ``(at,
        stop, ts_sec, ts_usec, orig_len)``: its header starts at
        ``buf[at]`` and its frame is ``buf[at + 16:stop]``.  The first chunk
        is read with the global header.  A record cut by a chunk's end is
        carried into the next, which :meth:`_read` completes, so a corrupt
        length reads no more than the file holds.  The records before a
        malformed one are yielded before it raises.
        """
        unpack_from = self._record_header.unpack_from
        head = self._record_header.size
        buf, self._rest = self._rest, b""
        while True:
            # want: the size of a record cut by the end of buf, once its header is read
            records, error, pos, end, want = [], None, 0, len(buf), 0
            while pos + head <= end:
                ts_sec, ts_usec, incl_len, orig_len = unpack_from(buf, pos)
                stop = pos + head + incl_len
                if stop > end:
                    want = stop - pos
                    break
                if ts_usec >= 1_000_000:
                    error = BadTimestamp(f"record microseconds {ts_usec} out of range")
                    break
                records.append((pos, stop, ts_sec, ts_usec, orig_len))
                pos = stop
            if records:
                yield buf, records
            if error is not None:
                raise error
            rest = buf[pos:]
            buf = self._read(rest, want)
            if len(buf) == len(rest):  # end of file
                if rest:
                    raise TruncatedRecord(
                        "record header truncated" if len(rest) < head
                        else "record body truncated"
                    )
                return

    def __iter__(self) -> Iterator[PcapRecord]:
        new = tuple.__new__
        head = self._record_header.size
        for buf, records in self._scan():
            for at, stop, ts_sec, ts_usec, orig_len in records:
                yield new(PcapRecord, (ts_sec, ts_usec, buf[at + head:stop], orig_len))

    def close(self) -> None:
        if self._owned:
            self._in.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PcapWriter:
    """A little-endian Ethernet pcap, written one record at a time.

    Opening writes the global header and :meth:`write` appends one record.
    ``out`` is a binary file or a path.  A path to a regular or new file is
    written through a temporary file beside it, with the permission bits a
    plain ``open`` would leave, which :meth:`close` (or a ``with`` left
    normally) moves into place; leaving the ``with`` by an exception
    removes it.  So the path holds a whole capture or its old contents, and
    may be the capture being read.  A pipe or device is written directly.
    """

    def __init__(
        self, out: Union[str, BinaryIO], snaplen: int = 65535, thiszone: int = 0,
        sigfigs: int = 0,
    ):
        header = _GLOBAL_HEADER.pack(
            PCAP_MAGIC, *PCAP_VERSION, thiszone, sigfigs, snaplen, LINKTYPE_ETHERNET
        )
        self._owned = isinstance(out, str)
        self._path = self._tmp = None
        mode = None  # an existing regular file's mode, kept by its replacement
        if self._owned:
            path = os.path.realpath(out)
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                pass
            if mode is None or stat.S_ISREG(mode):
                folder, name = os.path.split(path)
                self._path, self._tmp = path, os.path.join(folder, f".{name}.{os.getpid()}.tmp")
                try:
                    out = open(self._tmp, "xb", buffering=_IO_CHUNK)
                except OSError as exc:  # name the path asked for, not the temporary
                    raise OSError(exc.errno, exc.strerror, out) from None
            else:
                out, mode = open(path, "wb"), None
        self._out = out
        self._write = out.write
        try:
            if mode is not None:
                os.chmod(out.fileno(), stat.S_IMODE(mode))
            out.write(header)
        except BaseException:
            self._finish(keep=False)
            raise

    def write(self, record: PcapRecord) -> None:
        ts_sec, ts_usec, frame_bytes, orig_len = record
        self._write(_RECORD_HEADER.pack(ts_sec, ts_usec, len(frame_bytes), orig_len))
        self._write(frame_bytes)

    def close(self) -> None:
        """Finish the capture: close a path, moving its temporary file into place."""
        self._finish(keep=True)

    def _finish(self, keep: bool) -> None:
        if self._owned:
            self._out.close()
        if self._tmp is not None:
            if keep:
                os.replace(self._tmp, self._path)
            else:
                os.unlink(self._tmp)
            self._tmp = None

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self._finish(keep=exc_type is None)


def rewrite_records(
    reader: PcapReader, writer: PcapWriter, fn: Callable[[bytes], bytes]
) -> Tuple[int, List[int]]:
    """Write each record of ``reader`` to ``writer``, its frame through ``fn``.

    ``fn`` takes a record's frame bytes and returns the bytes to write in
    their place, the same object when the frame passes unchanged; a frame
    on which it raises :class:`WireError` passes unchanged.  A record that
    passes is copied as read, and a run of them as one slice, when the
    capture is little-endian; any other record is written as
    :meth:`PcapWriter.write` writes it.  The output equals writing every
    record that way.  Returns the number of records and the indices of
    those whose frame bytes changed.
    """
    write, pack = writer._write, _RECORD_HEADER.pack
    head = reader._record_header.size
    as_read = reader._record_header.format[0] == "<"
    changed: List[int] = []
    index = 0
    for buf, records in reader._scan():
        run = None  # where the current run of records copied as read starts
        for at, stop, ts_sec, ts_usec, orig_len in records:
            frame = buf[at + head:stop]
            try:
                out = fn(frame)
            except WireError:
                out = frame
            if out is frame and as_read:
                if run is None:
                    run = at
            else:
                if run is not None:
                    write(buf[run:at])
                    run = None
                write(pack(ts_sec, ts_usec, len(out), orig_len))
                write(out)
                if out != frame:
                    changed.append(index)
            index += 1
        if run is not None:
            write(buf[run:stop])
    return index, changed


def write_pcap(out: Union[str, BinaryIO], pcap: PcapFile) -> None:
    """Write a :class:`PcapFile` as little-endian Ethernet pcap."""
    with PcapWriter(out, pcap.snaplen, pcap.thiszone, pcap.sigfigs) as writer:
        for record in pcap.records:
            writer.write(record)


def read_pcap(source: Union[str, bytes, BinaryIO]) -> PcapFile:
    """Read a classic pcap (either byte order); records come back in file order."""
    with PcapReader(source) as capture:
        return PcapFile(tuple(capture), capture.snaplen, capture.thiszone, capture.sigfigs)
