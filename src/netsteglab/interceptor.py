"""In-flight steganographic embedding for BMP payloads inside TCP streams.

A middlebox sits on the path, reassembles just enough of each TCP flow to
recognize a BMP transfer from its first 54 stream bytes, then rewrites the
least significant bit of every carrier byte that crosses it: each pixel's
red byte at 24 bpp, every pixel byte at 8 bpp, row padding never.  The TCP
checksum and (when carried) the Ethernet FCS are repaired, nothing else in
the frame changes.  A data frame that fails either check is neither stashed
nor rewritten: it passes as it came, so the receiver still sees it fail.  A
frame whose sums the wire layer made (``EthernetFrame.sums_known``) cannot
fail them and is not checked again.

Each flow has one verdict (:attr:`FlowState.verdict`).  It is ``None``
while the flow's first 54 stream bytes, the BMP header, fill a stash, and
the write that fills the stash sets it: to the :class:`BmpInfo` the tap
embeds by, or, when the flow gives up (:func:`_give_up`) and passes, to
the reason, ``"not-bmp"`` or ``"unsupported-bpp"``.

The tap decides each frame from its header fields alone: the flow's
4-tuple, the sequence number, the flags and the payload length.  A frame
with no payload, or of a flow that gave up, passes on those.  Only a frame
whose payload must be stashed, verified or embedded is read further.  So
:meth:`Interceptor.process_bytes`, the entry for frames read from a
capture, reads the fields at their fixed offsets
(:func:`~netsteglab.wirecodec.peek_frame`) and builds a frame only for
those few; :meth:`Interceptor.process` takes a frame already built.  Both
make the same decision in one method: it tracks the frame's flow once and
embeds into the stream range it tracked.  A SYN with a new ISN on a
4-tuple starts that flow afresh, so a flow's record and report row cover
the latest connection on its 4-tuple.  The public surface is
:class:`Interceptor` (``process``, ``process_bytes``, ``flow_reports``),
:class:`StegoPolicy`, :func:`carrier_slices`, :func:`extract_from_file`
and :func:`report_csv`.

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
out of the file's LSB plane.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .bmp import BmpInfo, NotBmp, UnsupportedBpp, parse_bmp_info
from .channels import BitMessage
from .wirecodec import (
    EthernetFrame,
    SEQ_MOD,
    TCP_SYN,
    _framed,
    _views,
    fcs_ok,
    ipv4_str,
    peek_frame,
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
    "carrier_slices",
    "extract_from_file",
    "report_csv",
    "NotBmp",
    "UnsupportedBpp",
]


@dataclass
class FlowState:
    """Mutable per-flow tracking state (single writer per flow).

    ``verdict`` is ``None`` while ``header_stash`` fills (``stash_mask``
    marks the bytes present).  Then it is the :class:`BmpInfo` the tap
    embeds by, or the reason the flow passes: ``"not-bmp"`` or
    ``"unsupported-bpp"``.
    """

    base_seq: int
    verdict: Union[BmpInfo, str, None] = None
    header_stash: bytearray = field(default_factory=lambda: bytearray(CLASSIFY_NEED))
    stash_mask: int = 0
    frames_seen: int = 0
    frames_modified: int = 0
    carrier_bits: int = 0
    # stream ranges [start, end) that crossed the tap unembedded and have not
    # been embedded since; disjoint and sorted, and empty once the flow gives up
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
def _keystream_plane(seed: int, block: int) -> bytes:
    """Block ``block`` of ``seed``'s keystream as 0/1 bytes, least significant bit first."""
    value = random.Random(f"{seed}/{block}").getrandbits(KEYSTREAM_BLOCK_BITS)
    msb_first = format(value, f"0{KEYSTREAM_BLOCK_BITS}b")
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

    def rank(self, index: int) -> int:
        """How many carriers below ``index`` are selected."""
        return index * self.coverage.numerator // self.coverage.denominator

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


def _track(flows: Dict[Flow, FlowState], ip: tuple, tcp: tuple):
    """Match a TCP frame to its flow: ``(key, state, start, end)``, where
    ``[start, end)`` is the frame's stream byte range.

    ``ip`` and ``tcp`` are the frame's views, or the fields
    :func:`peek_frame` read, which sit at the views' indices.  A SYN
    anchors its flow at ``base_seq = ISN + 1`` and covers no stream bytes.
    A SYN with another ISN on a 4-tuple already tracked opens a new
    connection, so it starts the flow afresh; a resent SYN keeps it.  A
    flow first seen mid-stream is anchored at its first data frame.
    Offsets are sequence numbers relative to ``base_seq`` modulo 2**32, so
    retransmits map to identical ranges.
    """
    key = (ip[10], ip[11], tcp[0], tcp[1])  # src_ip, dst_ip, src_port, dst_port
    seq, flags = tcp[2], tcp[5]
    state = flows.get(key)
    if flags & TCP_SYN:
        base_seq = (seq + 1) % SEQ_MOD
        if state is None or state.base_seq != base_seq:
            state = flows[key] = FlowState(base_seq=base_seq)
        return key, state, 0, 0
    if state is None:
        state = flows[key] = FlowState(base_seq=seq)
    start = (seq - state.base_seq) % SEQ_MOD
    # The payload length is total_length less both header lengths (IHL and
    # data offset, in words), which the parser checked against each other.
    return key, state, start, start + ip[3] - 4 * (ip[1] + tcp[4])


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


# ---------------------------------------------------------------------------
# embedding


_LSB = bytes(v & 1 for v in range(256))
_CLEAR_LSB = bytes(v & 0xFE for v in range(256))


def _add(spans: List[Tuple[int, int]], lo: int, hi: int) -> None:
    """Add the non-empty interval [lo, hi) to the disjoint sorted intervals
    ``spans``, in place, merging it with the intervals it overlaps or touches.

    Bisection finds those intervals, so the work is logarithmic in
    ``len(spans)`` plus one list splice.
    """
    i = bisect_left(spans, lo, key=itemgetter(1))  # the first that ends at or after lo
    j = bisect_right(spans, hi, key=itemgetter(0))  # past the last that starts by hi
    if i < j:
        lo, hi = min(lo, spans[i][0]), max(hi, spans[j - 1][1])
    spans[i:j] = [(lo, hi)]


def _cut(spans: List[Tuple[int, int]], lo: int, hi: int) -> None:
    """Remove the non-empty interval [lo, hi) from the disjoint sorted
    intervals ``spans``, in place, found by bisection as in :func:`_add`."""
    i = bisect_right(spans, lo, key=itemgetter(1))  # the first that ends after lo
    j = bisect_left(spans, hi, key=itemgetter(0))  # past the last that starts before hi
    if i >= j:
        return
    first, last = spans[i][0], spans[j - 1][1]
    kept = []  # what the cut leaves of the first and the last interval it meets
    if first < lo:
        kept.append((first, lo))
    if last > hi:
        kept.append((hi, last))
    spans[i:j] = kept


def _give_up(state: FlowState, reason: str) -> None:
    """Decide ``state``'s flow not to carry, for ``reason``: its frames pass
    from now on, so none of its stream is left unembedded."""
    state.verdict = reason
    state.unembedded.clear()


def _embed(
    frame: EthernetFrame, state: FlowState, start: int, policy: StegoPolicy
) -> EthernetFrame:
    """Embed policy bits into the carrier bytes of a BMP flow's frame whose
    payload starts at stream position ``start``; repair checksums.

    Pure in (stream offset, policy): the same frame embeds to the same
    bytes no matter when or how often it passes.  Frames whose carrier
    bytes already hold their bits, or that overlap no carrier, come back
    unchanged (the identical object).  The selected carriers are counted
    in ``state.carrier_bits``, and the frame's stream range is cut from
    ``state.unembedded``.
    """
    payload = frame.tcp_payload
    end = start + len(payload)
    if state.unembedded:
        _cut(state.unembedded, start, end)
    rows = [
        (slice(offset, offset + step * count, step), first, count)
        for offset, step, first, count in carrier_slices(state.verdict, start, end)
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

        Non-TCP frames, frames without payload, frames of a flow that gave
        up and frames that fail their TCP checksum or FCS pass untouched
        (the identical object).  A verified frame of an undecided flow
        fills the header stash, and the frame that completes it decides
        the flow.  A verified frame of a BMP flow is embedded.
        """
        tcp = frame.tcp
        if tcp is None:
            return frame
        return self._decide(frame.ip, tcp, frame)

    def process_bytes(self, data: bytes) -> bytes:
        """:meth:`process` on a bare frame's bytes (no FCS, as a capture holds it).

        The frame's fields are read at their fixed offsets
        (:func:`peek_frame`), and a frame is built only when its payload
        must be read: to stash, verify or embed.  Returns ``data`` itself
        when the frame passes untouched, and raises the :class:`WireError`
        that parsing ``data`` would raise, before tracking anything.
        """
        ip, tcp = peek_frame(data) or (None, None)
        if tcp is None:
            return data
        out = self._decide(ip, tcp, data)
        return out if out is data else out.data

    def _decide(
        self, ip: tuple, tcp: tuple, frame: Union[EthernetFrame, bytes]
    ) -> Union[EthernetFrame, bytes]:
        """Pass, stash or embed one TCP frame, from its header fields.

        ``ip`` and ``tcp`` are the frame's views or the fields
        :func:`peek_frame` read.  ``frame`` is the frame, or its bytes,
        parsed only when the payload must be read: to stash, verify or
        embed.  The frame is tracked and counted once, and ``frame``
        itself comes back when it passes as it came.
        """
        _, state, start, end = _track(self.flows, ip, tcp)
        state.frames_seen += 1
        if start == end or isinstance(state.verdict, str):
            return frame
        if not isinstance(frame, EthernetFrame):  # the views of the fields peeked
            frame = _framed(frame, b"", False, False, _views(frame, ip, tcp))
        # Rewriting gives a frame fresh, valid checksums, so a frame that fails
        # them is never rewritten, and never decides its flow.  A frame whose
        # sums wirecodec made over its bytes cannot fail them.
        verified = frame.sums_known or (tcp_checksum_ok(frame) and fcs_ok(frame))
        if verified and state.verdict is None and start < CLASSIFY_NEED:
            self._stash(state, start, frame.tcp_payload)
        if not verified or state.verdict is None:
            _add(state.unembedded, start, end)
            return frame
        if isinstance(state.verdict, str):  # the stash this frame filled gave up
            return frame
        return _embed(frame, state, start, self.policy)

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
        if not isinstance(state.verdict, BmpInfo):
            return 0
        rank = self.policy.rank
        spans = (_index_span(state.verdict, lo, hi) for lo, hi in state.unembedded)
        return sum(rank(hi) - rank(lo) for lo, hi in filter(None, spans))

    @staticmethod
    def _stash(state: FlowState, start: int, payload: bytes) -> None:
        """Stash the header bytes of ``payload``; the write that fills the
        stash decides the flow."""
        take = min(CLASSIFY_NEED - start, len(payload))
        state.header_stash[start:start + take] = payload[:take]
        state.stash_mask |= ((1 << take) - 1) << start
        if state.stash_mask == _STASH_FULL:
            try:
                state.verdict = parse_bmp_info(bytes(state.header_stash))
            except NotBmp:
                _give_up(state, "not-bmp")
            except UnsupportedBpp:
                _give_up(state, "unsupported-bpp")


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
