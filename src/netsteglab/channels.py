"""Classical covert channels over TCP/IP header fields, timing and ordering.

Six codecs, each a pure encode/decode pair:

* IP storage channel — 32 bits per frame hidden in identification (16),
  flags (3) and fragment offset (13), most significant bit first.
* TTL channel — the top ``k`` bits of the TTL carry payload, the low bits
  start full so router hops drain them without touching the message.
* ISN channel — the top ``n`` bits of a TCP initial sequence number.
* Inter-packet timing — one bit per gap, nominal +/- delta.
* Packet ordering — one bit per adjacent frame pair, swap means 1.
* HTTP header ordering — the message indexes a permutation of a fixed
  header set (factorial number system), floor(log2(k!)) usable bits.

Carrier frames are returned as new objects with only the designated fields
(and the repaired checksums) changed; everything else is byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Union

from .wirecodec import EthernetFrame, with_ip_fields

IP_STORAGE_BITS_PER_FRAME = 32


class CovertChannelError(Exception):
    """Base class for covert-channel encode/decode failures."""


class CapacityExceeded(CovertChannelError):
    """Message is longer than the carrier can hold."""


class NotIpv4(CovertChannelError):
    """A carrier frame lacks the IPv4 layer the channel modulates."""


class HopBudgetExceeded(CovertChannelError):
    """hop_count would overflow the low TTL bits reserved for routing."""


class LengthMismatch(CovertChannelError):
    """Message length does not match the carrier's fixed width."""


class OddBurst(CovertChannelError):
    """The ordering channel needs an even number of frames."""


# ---------------------------------------------------------------------------
# bit container


_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")    # ASCII digits -> bit values
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # bit values -> ASCII digits
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _msb_plane(value: int, width: int) -> bytes:
    """``value`` as ``width`` bit values, most significant first."""
    return format(value, f"0{width}b").encode().translate(_TO_BITS) if width else b""


class BitMessage:
    """Immutable ordered sequence of bits; MSB-first in every conversion.

    The bits are stored as a ``bytes`` of 0/1 values (a bit plane), so every
    conversion is a single ``int``/``translate`` call, not a loop per bit.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] = ()):
        if isinstance(bits, (bytes, bytearray)):
            values = bytes(bits)
        else:
            values = bytes(map(int, bits))
        stray = values.translate(None, b"\x00\x01")
        if stray:
            raise ValueError(f"not a bit: {stray[0]!r}")
        object.__setattr__(self, "_bits", values)

    # construction -----------------------------------------------------------

    @classmethod
    def from_int(cls, value: int, width: int) -> "BitMessage":
        if value < 0:
            raise ValueError("value must be non-negative")
        if value.bit_length() > width:
            raise ValueError(f"{value} does not fit in {width} bits")
        return cls(_msb_plane(value, width))

    @classmethod
    def from_hex(cls, text: str) -> "BitMessage":
        """Four bits per hex digit, after an optional ``0x`` or ``0X`` prefix.

        Surrounding whitespace is ignored; any other character that is not
        a hex digit raises ``ValueError`` (``int(text, 16)`` alone would
        also read a sign, underscores and inner spaces, so the width taken
        from the digits would be wrong).
        """
        digits = text.strip()
        if digits[:2] in ("0x", "0X"):
            digits = digits[2:]
        if not _HEX_DIGITS.issuperset(digits):
            raise ValueError(f"not a hex message: {text!r}")
        if not digits:
            return cls()
        return cls.from_int(int(digits, 16), 4 * len(digits))

    @classmethod
    def from01(cls, text: str) -> "BitMessage":
        return cls(text.strip().encode().translate(_TO_BITS))

    @classmethod
    def random(cls, n: int, seed) -> "BitMessage":
        rng = random.Random(seed)
        return cls(rng.getrandbits(1) for _ in range(n))

    @classmethod
    def concat(cls, messages: Iterable["BitMessage"]) -> "BitMessage":
        """All ``messages`` joined in order, copying each bit once."""
        return cls(b"".join(m._bits for m in messages))

    # conversion -------------------------------------------------------------

    def to_int(self) -> int:
        return int(self._bits.translate(_TO_DIGITS) or b"0", 2)

    def to_bytes(self) -> bytes:
        """Pack MSB-first; a final partial byte is zero-padded at the low end."""
        n = len(self._bits)
        return (self.to_int() << (-n % 8)).to_bytes((n + 7) // 8, "big")

    def to01(self) -> str:
        return self._bits.translate(_TO_DIGITS).decode()

    def packed_hex(self) -> str:
        return self.to_bytes().hex()

    def bit_errors(self, other: "BitMessage") -> int:
        """Hamming distance over the shared prefix of the two messages."""
        n = min(len(self._bits), len(other._bits))
        # one bit per byte, so XOR leaves a 1 bit exactly where they differ
        diff = int.from_bytes(self._bits[:n], "big") ^ int.from_bytes(other._bits[:n], "big")
        return diff.bit_count()

    # sequence protocol ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self):
        return iter(self._bits)

    def __bytes__(self) -> bytes:
        """The bit plane: one byte, 0 or 1, per bit."""
        return self._bits

    def __getitem__(self, item):
        if isinstance(item, slice):
            return BitMessage(self._bits[item])
        return self._bits[item]

    def __add__(self, other: "BitMessage") -> "BitMessage":
        if not isinstance(other, BitMessage):
            return NotImplemented
        return BitMessage(self._bits + other._bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitMessage) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return f"BitMessage({self.to01()!r})"


def _pad_to(msg: BitMessage, capacity: int, channel: str) -> BitMessage:
    if len(msg) > capacity:
        raise CapacityExceeded(
            f"{channel}: message of {len(msg)} bits exceeds capacity {capacity}"
        )
    return msg + BitMessage([0] * (capacity - len(msg)))


def _require_ipv4(frame: EthernetFrame, channel: str) -> None:
    if frame.ip is None:
        raise NotIpv4(f"{channel}: carrier frame has no IPv4 layer")


# ---------------------------------------------------------------------------
# IP storage channel: identification ++ flags ++ fragment offset


def ip_storage_encode(msg: BitMessage, frames: Sequence[EthernetFrame]) -> List[EthernetFrame]:
    """Hide 32 bits per frame in identification/flags/fragment-offset.

    A short message is zero-padded to the 32 * len(frames) capacity; the IP
    header checksum is repaired, all other fields stay untouched.
    """
    frames = list(frames)
    padded = _pad_to(msg, IP_STORAGE_BITS_PER_FRAME * len(frames), "ip-storage")
    out = []
    for i, frame in enumerate(frames):
        _require_ipv4(frame, "ip-storage")
        word = padded[32 * i:32 * i + 32]
        out.append(
            with_ip_fields(
                frame,
                identification=word[0:16].to_int(),
                flags=word[16:19].to_int(),
                frag_offset=word[19:32].to_int(),
            )
        )
    return out


def ip_storage_decode(frames: Sequence[EthernetFrame]) -> BitMessage:
    """Read 32 bits back from every frame, in frame order."""
    words = []
    for frame in frames:
        _require_ipv4(frame, "ip-storage")
        ip = frame.ip
        words.append(BitMessage.from_int(
            (ip.identification << 16) | (ip.flags << 13) | ip.frag_offset, 32
        ))
    return BitMessage.concat(words)


# ---------------------------------------------------------------------------
# TTL channel


@dataclass(frozen=True)
class TtlConfig:
    """Top-``k``-bits-of-TTL channel parameters.

    The low ``8 - k`` bits are transmitted full (all ones) so that up to
    ``2**(8-k) - 1`` router hops decrement harmlessly; the decoder adds
    ``hop_count`` back before reading the top bits.
    """

    k: int = 3
    hop_count: int = 0

    def __post_init__(self) -> None:
        if self.k not in (2, 3, 4):
            raise ValueError(f"k must be 2, 3 or 4, got {self.k}")
        budget = (1 << (8 - self.k)) - 1
        if not 0 <= self.hop_count <= budget:
            raise HopBudgetExceeded(
                f"hop_count {self.hop_count} outside [0, {budget}] for k={self.k}"
            )


def ttl_capacity(n_frames: int, cfg: TtlConfig) -> int:
    return cfg.k * n_frames


def ttl_encode(msg: BitMessage, frames: Sequence[EthernetFrame], cfg: TtlConfig) -> List[EthernetFrame]:
    frames = list(frames)
    padded = _pad_to(msg, ttl_capacity(len(frames), cfg), "ttl")
    low = 8 - cfg.k
    out = []
    for i, frame in enumerate(frames):
        _require_ipv4(frame, "ttl")
        value = padded[cfg.k * i:cfg.k * (i + 1)].to_int()
        out.append(with_ip_fields(frame, ttl=(value << low) | ((1 << low) - 1)))
    return out


def ttl_decode(frames: Sequence[EthernetFrame], cfg: TtlConfig) -> BitMessage:
    low = 8 - cfg.k
    chunks = []
    for frame in frames:
        _require_ipv4(frame, "ttl")
        value = ((frame.ip.ttl + cfg.hop_count) & 0xFF) >> low
        chunks.append(BitMessage.from_int(value, cfg.k))
    return BitMessage.concat(chunks)


# ---------------------------------------------------------------------------
# ISN channel


def isn_encode(msg: BitMessage, n_bits: int, rng_seed) -> int:
    """Build an ISN whose top ``n_bits`` carry ``msg``; low bits are seeded noise."""
    if not 1 <= n_bits <= 32:
        raise ValueError(f"n_bits must be in [1, 32], got {n_bits}")
    if len(msg) != n_bits:
        raise LengthMismatch(f"isn: message is {len(msg)} bits, carrier holds {n_bits}")
    low = 32 - n_bits
    noise = random.Random(rng_seed).getrandbits(low) if low else 0
    return (msg.to_int() << low) | noise


def isn_decode(isn: int, n_bits: int) -> BitMessage:
    if not 1 <= n_bits <= 32:
        raise ValueError(f"n_bits must be in [1, 32], got {n_bits}")
    if not 0 <= isn < (1 << 32):
        raise ValueError("isn out of 32-bit range")
    return BitMessage.from_int(isn >> (32 - n_bits), n_bits)


# ---------------------------------------------------------------------------
# inter-packet timing channel


@dataclass(frozen=True)
class TimingConfig:
    """Gap modulation: bit 1 -> nominal + delta, bit 0 -> nominal - delta.

    The decision threshold defaults to the nominal gap and must lie strictly
    between the two modulated gap values.  Durations are integer nanoseconds.
    """

    nominal_gap_ns: int = 200_000_000
    delta_ns: int = 100_000_000
    decision_threshold_ns: Union[int, None] = None

    def __post_init__(self) -> None:
        if not 0 < self.delta_ns < self.nominal_gap_ns:
            raise ValueError("delta must satisfy 0 < delta < nominal gap")
        thr = self.threshold_ns
        if not self.nominal_gap_ns - self.delta_ns < thr < self.nominal_gap_ns + self.delta_ns:
            raise ValueError("threshold outside the modulation interval")

    @property
    def threshold_ns(self) -> int:
        if self.decision_threshold_ns is None:
            return self.nominal_gap_ns
        return self.decision_threshold_ns


def timing_encode(msg: BitMessage, cfg: TimingConfig) -> List[int]:
    """Message to a schedule of inter-frame gaps (nanoseconds)."""
    return [
        cfg.nominal_gap_ns + (cfg.delta_ns if bit else -cfg.delta_ns) for bit in msg
    ]


def timing_decode(gaps: Sequence[int], cfg: TimingConfig) -> BitMessage:
    """Best-effort threshold decode; noisy gaps yield bit errors, not raises."""
    thr = cfg.threshold_ns
    return BitMessage(1 if gap > thr else 0 for gap in gaps)


# ---------------------------------------------------------------------------
# packet ordering channel


def order_capacity(n_frames: int) -> int:
    return n_frames // 2


def order_encode(msg: BitMessage, burst: Sequence[EthernetFrame]) -> List[EthernetFrame]:
    """Swap adjacent frame pairs: pair ``(2i, 2i+1)`` swapped encodes bit 1."""
    burst = list(burst)
    if len(burst) % 2:
        raise OddBurst(f"burst of {len(burst)} frames cannot be paired")
    padded = _pad_to(msg, order_capacity(len(burst)), "order")
    out: List[EthernetFrame] = []
    for i, bit in enumerate(padded):
        first, second = burst[2 * i], burst[2 * i + 1]
        out.extend((second, first) if bit else (first, second))
    return out


def order_decode(burst: Sequence[EthernetFrame]) -> BitMessage:
    """Recover bits by comparing TCP sequence numbers within each pair.

    The canonical order is the ascending-seq order, so no side channel is
    needed at the receiver.  Sequence wraparound inside a burst is out of
    scope (bursts are short).
    """
    burst = list(burst)
    if len(burst) % 2:
        raise OddBurst(f"burst of {len(burst)} frames cannot be paired")
    bits = []
    for i in range(len(burst) // 2):
        first, second = burst[2 * i], burst[2 * i + 1]
        if first.tcp is None or second.tcp is None:
            raise ValueError("ordering channel needs TCP frames")
        bits.append(1 if first.tcp.seq > second.tcp.seq else 0)
    return BitMessage(bits)


# ---------------------------------------------------------------------------
# HTTP header ordering channel


@dataclass(frozen=True)
class HttpHeaderConfig:
    """A fixed, distinct header set whose orderings carry the message."""

    header_set: tuple = ("Host", "User-Agent", "Accept", "Connection")

    def __post_init__(self) -> None:
        if len(self.header_set) < 2:
            raise ValueError("need at least two headers")
        if len(set(self.header_set)) != len(self.header_set):
            raise ValueError("header names must be distinct")

    @property
    def k(self) -> int:
        return len(self.header_set)

    @property
    def capacity_bits(self) -> int:
        """floor(log2(k!)) — the widest message every value of which fits."""
        return math.factorial(self.k).bit_length() - 1


def nth_permutation(index: int, items: Sequence) -> list:
    """The ``index``-th permutation of ``items`` in lexicographic order."""
    pool = list(items)
    if not 0 <= index < math.factorial(len(pool)):
        raise ValueError(f"permutation index {index} out of range")
    out = []
    for i in range(len(pool), 0, -1):
        digit, index = divmod(index, math.factorial(i - 1))
        out.append(pool.pop(digit))
    return out


def permutation_index(perm: Sequence, items: Sequence) -> int:
    """Inverse of :func:`nth_permutation` (factorial number system)."""
    pool = list(items)
    if len(perm) != len(pool):
        raise ValueError("not a permutation of the expected items")
    index = 0
    for element in perm:
        try:
            digit = pool.index(element)
        except ValueError:
            raise ValueError(f"unexpected element {element!r}") from None
        index += digit * math.factorial(len(pool) - 1)
        pool.pop(digit)
    return index


def http_header_encode(msg: BitMessage, cfg: HttpHeaderConfig) -> List[str]:
    """Message value selects one of the k! orderings of the header set."""
    index = msg.to_int()
    if index >= math.factorial(cfg.k):
        raise CapacityExceeded(
            f"http-order: value {index} >= {cfg.k}! = {math.factorial(cfg.k)}"
        )
    return nth_permutation(index, cfg.header_set)


def http_header_decode(
    ordering: Sequence[str], cfg: HttpHeaderConfig, n_bits: int
) -> BitMessage:
    """Observed header ordering back to ``n_bits`` bits, the prearranged width."""
    index = permutation_index(ordering, cfg.header_set)
    return BitMessage.from_int(index, n_bits)
