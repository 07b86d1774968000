"""In-flight steganographic embedding for BMP payloads inside TCP streams.

A middlebox sits on the path, reassembles just enough of each TCP flow to
recognize a BMP transfer from its first 54 stream bytes, then rewrites the
least significant bit of every carrier byte that crosses it: each pixel's
red byte at 24 bpp, every pixel byte at 8 bpp, row padding never.  The TCP
checksum and (when carried) the Ethernet FCS are repaired, nothing else in
the frame changes.  A data frame that fails either check is neither stashed
nor rewritten: it passes as it came, so the receiver still sees it fail.

The bit written at carrier index ``i`` is a pure function of ``i`` and the
policy — never of arrival order — so retransmitted, reordered or
differently-segmented traffic embeds identically, and a receiver holding
the same :class:`StegoPolicy` can extract from the reassembled file alone.

The engine works a pixel row at a time, never a byte at a time.
:func:`carrier_slices` maps a stream range to one extended slice per row
it touches (step 3 over the red bytes at 24 bpp, step 1 at 8 bpp), and the
carriers of a frame carry one contiguous run of carrier indices.  The
embedding source is a bit plane, ``bytes`` of 0/1 values
(:meth:`StegoPolicy.bits`).  Coverage is an exact fraction ``p/q``, so the
selected carriers of any index run are at most ``p`` runs of step ``q``
(:meth:`StegoPolicy.runs`); at full coverage that is the whole run.  A
frame's carriers are read with the row slices and translated to their LSB
plane, each run's bits are written into that plane with one slice
assignment, and the plane is ORed back over the carriers, LSBs cleared with
``bytes.translate``, as one big integer; extraction reads the same runs
out of the file's LSB plane.  :func:`carrier_offsets` and :meth:`StegoPolicy.selected` list
carriers one by one and are kept as the reference the engine is tested
against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from math import floor
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .bmp import BmpInfo, NotBmp, UnsupportedBpp, parse_bmp_info
from .channels import BitMessage
from .wirecodec import (
    EthernetFrame,
    SEQ_MOD,
    TCP_SYN,
    fcs_ok,
    ipv4_str,
    tcp_checksum_ok,
    with_tcp_payload,
)

Flow = Tuple[int, int, int, int]  # (src_ip, dst_ip, src_port, dst_port), one direction

CLASSIFY_NEED = 54       # stream bytes stashed for classification: the BMP header
_STASH_FULL = (1 << CLASSIFY_NEED) - 1  # stash_mask once they are all present

__all__ = [
    "FlowState",
    "FlowReport",
    "StegoPolicy",
    "Interceptor",
    "track",
    "carrier_offsets",
    "carrier_slices",
    "embed_in_frame",
    "extract_from_file",
    "report_csv",
    "NotBmp",
    "UnsupportedBpp",
]


@dataclass
class FlowState:
    """Mutable per-flow tracking state (single writer per flow).

    The flow is decided once ``stash_mask`` is ``_STASH_FULL``; ``bmp`` is
    then set iff the flow carries a BMP the tap embeds into.
    """

    base_seq: int
    bmp: Optional[BmpInfo] = None
    header_stash: bytearray = field(default_factory=lambda: bytearray(CLASSIFY_NEED))
    stash_mask: int = 0
    frames_seen: int = 0
    frames_modified: int = 0
    carrier_bits: int = 0
    # stream ranges [start, end) that crossed the tap unembedded and have not
    # been embedded since; disjoint and sorted
    unembedded: list = field(default_factory=list)


@dataclass(frozen=True)
class FlowReport:
    flow: str
    frames_seen: int
    frames_modified: int
    carrier_bits: int
    skipped_bits: int


KEYSTREAM_BLOCK_BITS = 4096


@lru_cache(maxsize=128)
def _keystream_block(seed: int, block: int) -> int:
    return random.Random(f"{seed}/{block}").getrandbits(KEYSTREAM_BLOCK_BITS)


@lru_cache(maxsize=128)
def _keystream_plane(seed: int, block: int) -> bytes:
    """The block's bits as 0/1 bytes, least significant bit first."""
    msb_first = format(_keystream_block(seed, block), f"0{KEYSTREAM_BLOCK_BITS}b")
    return bytes(BitMessage.from01(msb_first[::-1]))


@dataclass(frozen=True)
class StegoPolicy:
    """What to embed and how densely.

    Exactly one bit source: a finite ``message`` (repeated cyclically past
    its length) or a seeded ``keystream``.  ``coverage`` is the exact
    fraction ``c = p/q`` in (0, 1] of its decimal text, so ``0.3``,
    ``"0.3"``, ``"3/10"`` and ``Fraction(3, 10)`` make one policy.  Carrier
    ``i`` is touched iff ``floor((i+1)*c) > floor(i*c)``, an even spread, so
    selection and bit lookup stay pure functions of the carrier index and
    both ends compute them identically.
    """

    message: Optional[BitMessage] = None
    keystream_seed: Optional[int] = None
    coverage: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if (self.message is None) == (self.keystream_seed is None):
            raise ValueError("exactly one of message/keystream_seed required")
        if self.message is not None and len(self.message) == 0:
            raise ValueError("message must be non-empty")
        try:
            coverage = Fraction(str(self.coverage))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"coverage must be a number or p/q, not {self.coverage!r}") from None
        if not 0 < coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        object.__setattr__(self, "coverage", coverage)

    def selected(self, index: int) -> bool:
        c = self.coverage
        return floor((index + 1) * c) > floor(index * c)

    def rank(self, index: int) -> int:
        """How many carriers below ``index`` are selected."""
        return index * self.coverage.numerator // self.coverage.denominator

    def source_bit(self, j: int) -> int:
        """The ``j``-th bit of the embedding source."""
        if self.message is not None:
            return self.message[j % len(self.message)]
        return (_keystream_block(self.keystream_seed, j >> 12) >> (j & 0xFFF)) & 1

    def bit_at(self, index: int) -> int:
        """The bit written at carrier index ``index`` (pure in ``index``)."""
        return self.source_bit(self.rank(index))

    def bits(self, lo: int, hi: int) -> bytes:
        """Source bits ``lo .. hi-1`` as a plane of 0/1 bytes."""
        n = hi - lo
        if n <= 0:
            return b""
        if self.message is not None:
            plane = bytes(self.message)
            skip = lo % len(plane)
            return (plane * ((skip + n) // len(plane) + 1))[skip:skip + n]
        first = lo // KEYSTREAM_BLOCK_BITS
        last = (hi - 1) // KEYSTREAM_BLOCK_BITS
        plane = b"".join(
            _keystream_plane(self.keystream_seed, block) for block in range(first, last + 1)
        )
        skip = lo - first * KEYSTREAM_BLOCK_BITS
        return plane[skip:skip + n]

    def source_bits(self, n: int) -> BitMessage:
        return BitMessage(self.bits(0, n))

    def runs(self, lo: int, hi: int) -> Iterator[Tuple[slice, slice]]:
        """The selected carriers in ``[lo, hi)``, as at most ``p`` strided runs.

        Yields ``(carriers, bits)`` slice pairs: ``carriers`` picks a run
        of step ``q`` out of the carriers ``lo .. hi-1``, and ``bits``
        picks their bits, in step, out of
        ``self.bits(self.rank(lo), self.rank(hi))``.  Rank ``t`` is first
        reached at carrier ``(t*q - 1)//p`` and ranks ``p`` apart sit ``q``
        carriers apart, so each run holds every ``p``-th rank.
        """
        p, q = self.coverage.numerator, self.coverage.denominator
        first = lo * p // q
        for t in range(first + 1, min(first + p, hi * p // q) + 1):
            yield slice((t * q - 1) // p - lo, None, q), slice(t - first - 1, None, p)


# ---------------------------------------------------------------------------
# flow tracking


def track(
    frame: EthernetFrame, flows: Dict[Flow, FlowState]
) -> Tuple[Flow, FlowState, Tuple[int, int]]:
    """Match a TCP frame to its flow and return its stream byte range.

    A flow is created on SYN (``base_seq = ISN + 1``) or anchored at the
    first data frame seen.  Offsets are sequence numbers relative to
    ``base_seq`` modulo 2**32, so retransmits map to identical ranges.
    """
    ip, tcp = frame.ip, frame.tcp
    if ip is None or tcp is None:
        raise ValueError("track needs a TCP frame")
    key = (ip.src_ip, ip.dst_ip, tcp.src_port, tcp.dst_port)
    state = flows.get(key)
    if state is None:
        if tcp.flags & TCP_SYN:
            state = FlowState(base_seq=(tcp.seq + 1) % SEQ_MOD)
        else:
            state = FlowState(base_seq=tcp.seq)
        flows[key] = state
    if tcp.flags & TCP_SYN:
        return key, state, (0, 0)
    start = (tcp.seq - state.base_seq) % SEQ_MOD
    # The parser checked both header lengths against the total length, so
    # this is len(frame.tcp_payload) without copying the payload.
    return key, state, (start, start + ip.total_length - 4 * (ip.ihl + tcp.data_offset))


# ---------------------------------------------------------------------------
# carrier addressing


def carrier_slices(bmp: BmpInfo, start: int, end: int) -> Iterator[Tuple[int, int, int, int]]:
    """Carriers inside stream range [start, end), one pixel row at a time.

    Yields ``(offset, step, first, count)`` for each row holding carriers in
    range: they sit at ``payload[offset:offset + step * count:step]`` of the
    payload that starts at stream position ``start``, and carry indices
    ``first .. first + count - 1``.  The step is the pixel size, so at
    24 bpp the slice walks the red byte of each BGR triple.  Successive
    rows continue the index run, so the carriers of any range hold one
    contiguous run of carrier indices.
    """
    lo = max(start, bmp.pixel_offset)
    hi = min(end, bmp.pixel_data_end)
    if lo >= hi:
        return
    stride = bmp.row_stride
    width = bmp.width
    step = bmp.bytes_per_pixel
    lead = 2 if step == 3 else 0  # red lives at the third byte of each BGR triple
    for row in range((lo - bmp.pixel_offset) // stride, (hi - 1 - bmp.pixel_offset) // stride + 1):
        first_pos = bmp.pixel_offset + row * stride + lead
        p_lo = max(0, -((lo - first_pos) // -step))
        p_hi = min(width, (hi - 1 - first_pos) // step + 1)
        if p_lo < p_hi:
            yield first_pos + step * p_lo - start, step, row * width + p_lo, p_hi - p_lo


def _index_span(bmp: BmpInfo, start: int, end: int) -> Optional[Tuple[int, int]]:
    """The run of carrier indices inside stream range [start, end), if any."""
    rows = list(carrier_slices(bmp, start, end))
    if not rows:
        return None
    _, _, last, count = rows[-1]
    return rows[0][2], last + count


def carrier_offsets(bmp: BmpInfo, start: int, end: int) -> List[Tuple[int, int]]:
    """Carrier positions intersecting stream range [start, end).

    Returns ``(stream_position, carrier_index)`` pairs in stream order.
    The carrier index counts carriers from the start of the pixel data
    (row * width + pixel), independent of the queried range.  This is the
    byte-at-a-time reference for :func:`carrier_slices`.
    """
    start = max(start, bmp.pixel_offset)
    end = min(end, bmp.pixel_data_end)
    if start >= end:
        return []
    stride = bmp.row_stride
    width = bmp.width
    out: List[Tuple[int, int]] = []
    first_row = (start - bmp.pixel_offset) // stride
    last_row = (end - 1 - bmp.pixel_offset) // stride
    for row in range(first_row, last_row + 1):
        row_base = bmp.pixel_offset + row * stride
        if bmp.bytes_per_pixel == 3:
            # red lives at the third byte of each BGR triple
            p_lo = max(0, -((start - row_base - 2) // -3))
            p_hi = min(width, (end - row_base - 3) // 3 + 1)
            base_index = row * width
            for p in range(p_lo, p_hi):
                out.append((row_base + 3 * p + 2, base_index + p))
        else:
            p_lo = max(0, start - row_base)
            p_hi = min(width, end - row_base)
            base_index = row * width
            for p in range(p_lo, p_hi):
                out.append((row_base + p, base_index + p))
    return out


# ---------------------------------------------------------------------------
# embedding


_LSB = bytes(v & 1 for v in range(256))
_CLEAR_LSB = bytes(v & 0xFE for v in range(256))


def _union(spans: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The union of intervals [lo, hi), as disjoint sorted intervals."""
    out: List[Tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _cut(spans: List[Tuple[int, int]], lo: int, hi: int) -> List[Tuple[int, int]]:
    """Disjoint sorted ``spans`` minus the interval [lo, hi)."""
    out = []
    for a, b in spans:
        if a < lo:
            out.append((a, min(b, lo)))
        if b > hi:
            out.append((max(a, hi), b))
    return out


def embed_in_frame(
    frame: EthernetFrame, state: FlowState, policy: StegoPolicy
) -> EthernetFrame:
    """Embed policy bits into the frame's carrier bytes; repair checksums.

    Pure in (stream offset, policy): the same frame embeds to the same
    bytes no matter when or how often it passes.  Frames whose carrier
    bytes already hold their bits, or that overlap no carrier, come back
    unchanged (the identical object).  The selected carriers are counted
    in ``state.carrier_bits``, and the frame's stream range is cut from
    ``state.unembedded``.
    """
    payload = frame.tcp_payload
    if state.bmp is None or not payload:
        return frame
    start = (frame.tcp.seq - state.base_seq) % SEQ_MOD
    end = start + len(payload)
    if state.unembedded:
        state.unembedded = _cut(state.unembedded, start, end)
    rows = [
        (slice(offset, offset + step * count, step), first, count)
        for offset, step, first, count in carrier_slices(state.bmp, start, end)
    ]
    if not rows:
        return frame
    lo = rows[0][1]
    hi = rows[-1][1] + rows[-1][2]
    bits = policy.bits(policy.rank(lo), policy.rank(hi))
    state.carrier_bits += len(bits)
    carriers = b"".join(payload[row] for row, _, _ in rows)
    lsbs = bytearray(carriers.translate(_LSB))
    for run, take in policy.runs(lo, hi):
        lsbs[run] = bits[take]
    stego = (
        int.from_bytes(carriers.translate(_CLEAR_LSB), "big") | int.from_bytes(lsbs, "big")
    ).to_bytes(len(carriers), "big")
    if stego == carriers:
        return frame  # bits already matched; nothing to rewrite
    buf = bytearray(payload)
    for row, first, count in rows:
        buf[row] = stego[first - lo:first - lo + count]
    state.frames_modified += 1
    return with_tcp_payload(frame, bytes(buf))


# ---------------------------------------------------------------------------
# the middlebox


class Interceptor:
    """Stateful in-path processor: track flows, classify payloads, embed."""

    def __init__(self, policy: StegoPolicy):
        self.policy = policy
        self.flows: Dict[Flow, FlowState] = {}

    def process(self, frame: EthernetFrame) -> EthernetFrame:
        """Pass, stash or embed one frame.

        Non-TCP frames, frames without payload, frames of a flow decided
        not to carry and frames that fail their TCP checksum or FCS pass
        untouched (the identical object).  A verified frame of an
        undecided flow fills the header stash, and the frame that
        completes it decides the flow.  A verified frame of a BMP flow is
        embedded.
        """
        if frame.ip is None or frame.tcp is None:
            return frame
        _, state, (start, end) = track(frame, self.flows)
        state.frames_seen += 1
        undecided = state.stash_mask != _STASH_FULL
        if start == end or (not undecided and state.bmp is None):
            return frame
        # Rewriting gives a frame fresh, valid checksums, so a frame that fails
        # them is never rewritten, and never decides its flow.
        verified = tcp_checksum_ok(frame) and fcs_ok(frame)
        if verified and undecided and start < CLASSIFY_NEED:
            self._stash(state, start, frame.tcp_payload)
        if not verified or state.stash_mask != _STASH_FULL:
            state.unembedded = _union([*state.unembedded, (start, end)])
            return frame
        if undecided:  # this frame completed the stash
            try:
                state.bmp = parse_bmp_info(bytes(state.header_stash))
            except (NotBmp, UnsupportedBpp):
                return frame
        return embed_in_frame(frame, state, self.policy)

    def flow_reports(self) -> List[FlowReport]:
        return [
            FlowReport(
                flow=f"{ipv4_str(src_ip)}:{src_port}->{ipv4_str(dst_ip)}:{dst_port}",
                frames_seen=state.frames_seen,
                frames_modified=state.frames_modified,
                carrier_bits=state.carrier_bits,
                skipped_bits=self._skipped_bits(state),
            )
            for (src_ip, dst_ip, src_port, dst_port), state in self.flows.items()
        ]

    def _skipped_bits(self, state: FlowState) -> int:
        """Selected carriers in the flow's unembedded stream ranges.

        The carriers of a stream range are one run of carrier indices, so
        disjoint ranges count disjoint runs.
        """
        if state.bmp is None:
            return 0
        rank = self.policy.rank
        spans = (_index_span(state.bmp, lo, hi) for lo, hi in state.unembedded)
        return sum(rank(hi) - rank(lo) for lo, hi in filter(None, spans))

    @staticmethod
    def _stash(state: FlowState, start: int, payload: bytes) -> None:
        take = min(CLASSIFY_NEED - start, len(payload))
        state.header_stash[start:start + take] = payload[:take]
        state.stash_mask |= ((1 << take) - 1) << start


def report_csv(reports: Sequence[FlowReport]) -> str:
    lines = ["flow,frames_seen,frames_modified,carrier_bits,skipped_bits"]
    for r in reports:
        lines.append(
            f"{r.flow},{r.frames_seen},{r.frames_modified},"
            f"{r.carrier_bits},{r.skipped_bits}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# receiver side


def extract_from_file(data: bytes, policy: StegoPolicy) -> BitMessage:
    """Read embedded bits back from a reassembled file.

    Reads the same row slices and strided runs the embedder writes, in
    carrier index order.  The result holds one bit per selected carrier;
    compare a prefix against the original message.
    """
    info = parse_bmp_info(data)
    end = min(info.pixel_data_end, len(data))
    lsbs = b"".join(
        data[offset:offset + step * count:step]
        for offset, step, _, count in carrier_slices(info, 0, end)
    ).translate(_LSB)
    bits = bytearray(policy.rank(len(lsbs)))
    for run, take in policy.runs(0, len(lsbs)):
        bits[take] = lsbs[run]
    return BitMessage(bits)
