"""Deterministic event-driven simulation of one TCP-lite transfer link.

A client pushes a byte payload to a server over a single duplex link with
parameterized propagation delay, nodal processing time, jitter, loss and
adjacent-frame reordering.  TCP-lite means: a SYN/SYN-ACK handshake that
carries the ISNs, MSS-sized segments, one cumulative ACK per received data
frame, a fixed retransmission timeout, a receive-window cap on bytes in
flight, and no congestion control or FIN teardown.

The clock is integer nanoseconds and every random draw comes from seeded
generators, so identical inputs reproduce identical traces bit for bit.
An optional ``tap`` callable sees every in-flight frame (both directions)
and may rewrite it — the hook the in-flight embedder plugs into; a
``warden`` normalizes frames after the tap.  Traces export to pcap and CSV.

Every arriving frame (SYN, SYN-ACK, data or ACK) passes one check,
``_Sim.arrive``: the receiving endpoint drops a frame whose TCP checksum or
FCS fails, and logs it as a ``drop``.  The frames the simulator builds
carry known sums (``EthernetFrame.sums_known``), so they are not summed
again on arrival; a frame a tap rebuilt from other bytes is.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from math import inf
from typing import Callable, List, NamedTuple, Optional, Sequence

from .wirecodec import (
    EthernetFrame,
    PcapFile,
    PcapRecord,
    SEQ_MOD,
    TCP_ACK,
    TCP_SYN,
    build_tcp_frame,
    fcs_ok,
    ipv4,
    ns_to_pcap_ts,
    strip_fcs,  # not called here; bench/spans.py wraps netsim.strip_fcs by name
    tcp_checksum_ok,
    with_ip_fields,
    with_tcp_payload,
)

CLIENT_MAC = b"\x02\x00\x00\x00\x00\x01"
SERVER_MAC = b"\x02\x00\x00\x00\x00\x02"
CLIENT_IP = ipv4("10.0.0.1")
SERVER_IP = ipv4("10.0.0.2")
CLIENT_PORT = 40000
SERVER_PORT = 8080

DIR_C2S = "c2s"
DIR_S2C = "s2c"
# Each direction's (src_ip, dst_ip, src_port, dst_port, src_mac, dst_mac).
_ENDS = {
    DIR_C2S: (CLIENT_IP, SERVER_IP, CLIENT_PORT, SERVER_PORT, CLIENT_MAC, SERVER_MAC),
    DIR_S2C: (SERVER_IP, CLIENT_IP, SERVER_PORT, CLIENT_PORT, SERVER_MAC, CLIENT_MAC),
}

WARDEN_TTL = 64
WARDEN_MODES = ("passive", "active", "malicious")
NORMALIZATIONS = ("rewrite_ttl", "randomize_ip_id")

MS = 1_000_000
US = 1_000


class Stalled(Exception):
    """The transfer cannot make progress or ran past the time budget."""


@dataclass(frozen=True)
class LinkModel:
    """One-way link parameters.  Delays in natural units, converted to ns."""

    propagation_ms: float = 10.0
    processing_us: float = 50.0
    jitter_ms: float = 0.0
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(
            0 <= delay < inf
            for delay in (self.propagation_ms, self.processing_us, self.jitter_ms)
        ):
            raise ValueError("delays must be finite and non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= self.reorder_rate <= 1.0:
            raise ValueError("reorder_rate must be in [0, 1]")

    @property
    def propagation_ns(self) -> int:
        return round(self.propagation_ms * MS)

    @property
    def processing_ns(self) -> int:
        return round(self.processing_us * US)

    @property
    def jitter_ns(self) -> int:
        return round(self.jitter_ms * MS)


def rtt(link: LinkModel) -> int:
    """Nominal round-trip time: two propagation legs plus one nodal delay."""
    return 2 * link.propagation_ns + link.processing_ns


@dataclass(frozen=True)
class TcpLiteEndpoint:
    isn: int = 0x10000000
    mss: int = 1460
    recv_buffer: int = 4096

    def __post_init__(self) -> None:
        if not 0 <= self.isn < SEQ_MOD:
            raise ValueError("isn out of 32-bit range")
        if self.mss < 1:
            raise ValueError("mss must be at least 1")
        # The window field is 16 bits and there is no window scaling.
        if not 1 <= self.recv_buffer <= 0xFFFF:
            raise ValueError("recv_buffer must be in [1, 65535]")


@dataclass(frozen=True)
class WardenConfig:
    """A network inspector: passive observer, normalizer, or active corruptor."""

    mode: str = "passive"
    normalizations: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.mode not in WARDEN_MODES:
            raise ValueError(f"unknown warden mode {self.mode!r}")
        norms = frozenset(self.normalizations)
        object.__setattr__(self, "normalizations", norms)
        unknown = norms.difference(NORMALIZATIONS)
        if unknown:
            raise ValueError(f"unknown normalizations: {sorted(unknown)}")
        if self.mode == "passive" and norms:
            raise ValueError("a passive warden applies no normalizations")


def apply_warden(
    frame: EthernetFrame, cfg: Optional[WardenConfig], rng: random.Random
) -> EthernetFrame:
    """Per-frame warden behavior; checksums (and FCS) are repaired in place.

    Passive is the identity.  Active applies the enabled field rewrites.
    Malicious additionally scrambles the TCP payload with seeded nonzero
    XOR bytes — semantics destroyed, checksums still valid.  Timing
    smoothing is a link-level behavior and lives in ``deliver_schedule``.
    """
    if cfg is None or cfg.mode == "passive":
        return frame
    out = frame
    if out.ip is not None:
        fields = {}
        if "rewrite_ttl" in cfg.normalizations:
            fields["ttl"] = WARDEN_TTL
        if "randomize_ip_id" in cfg.normalizations:
            fields["identification"] = rng.randrange(1 << 16)
        if fields:
            out = with_ip_fields(out, **fields)
    if cfg.mode == "malicious" and out.tcp is not None and out.tcp_payload:
        scrambled = bytes(b ^ rng.randrange(1, 256) for b in out.tcp_payload)
        out = with_tcp_payload(out, scrambled)
    return out


def segment_payload(total_len: int, mss: int) -> List[int]:
    """Split a payload length into MSS-sized segment lengths plus remainder."""
    if mss < 1:
        raise ValueError("mss must be at least 1")
    if total_len < 0:
        raise ValueError("negative payload length")
    sizes = [mss] * (total_len // mss)
    if total_len % mss:
        sizes.append(total_len % mss)
    return sizes


class TraceEvent(NamedTuple):
    """One wire observation: a frame entering the link, or a loss marker."""

    t_ns: int
    direction: str
    kind: str  # syn | synack | data | retransmit | ack | drop
    frame: EthernetFrame


@dataclass(frozen=True)
class TransferTrace:
    events: tuple = ()
    rtt_estimate_ns: int = 0
    total_time_ns: int = 0
    delivered: bytes = b""
    max_in_flight: int = 0


TapFn = Callable[[EthernetFrame], EthernetFrame]


class _Sim:
    """Event loop and endpoint state for one simulated transfer."""

    def __init__(
        self,
        payload: bytes,
        link: LinkModel,
        sender: TcpLiteEndpoint,
        receiver: TcpLiteEndpoint,
        warden: Optional[WardenConfig],
        tap: Optional[TapFn],
        tap_delay_ns: int,
        max_time_ns: int,
    ):
        self.payload = payload
        self.link = link
        self.sender = sender
        self.receiver = receiver
        self.warden = warden
        self.tap = tap
        self.tap_delay_ns = tap_delay_ns if tap is not None else 0
        self.max_time_ns = max_time_ns
        # The link's delays in ns, read once rather than rounded per frame.
        self.propagation_ns = link.propagation_ns
        self.processing_ns = link.processing_ns
        self.jitter_ns = link.jitter_ns

        self.rng = random.Random(f"{link.seed}/link")
        self.warden_rng = random.Random(f"{link.seed}/warden")
        self.queue: list = []
        self.order = itertools.count()
        self.now = 0
        self.events: List[TraceEvent] = []
        self.prev_arrival = {DIR_C2S: -1, DIR_S2C: -1}
        self.ip_id = {DIR_C2S: itertools.count(1), DIR_S2C: itertools.count(1)}

        # Sender: fixed segment boundaries, cumulative-ack bookkeeping.
        offsets = []
        pos = 0
        for size in segment_payload(len(payload), sender.mss):
            offsets.append((pos, size))
            pos += size
        self.segments = offsets
        self.total = len(payload)
        self.acked = 0
        self.next_seg = 0
        self.sent_end = 0
        self.max_in_flight = 0
        self.timer_epoch = 0
        self.hs_done = False
        self.data_start: Optional[int] = None
        self.completed_at: Optional[int] = None
        self.rtt_estimate: Optional[int] = None

        # Fixed RTO, derived generously from link nominals so that jittered
        # round trips do not trigger spurious retransmits.
        worst_rtt = rtt(link) + 2 * self.jitter_ns + 2 * self.tap_delay_ns
        self.rto_ns = 3 * worst_rtt + 1 * MS

        # Receiver: in-order delivery plus an out-of-order stash.
        self.delivered = bytearray()
        self.ooo: dict = {}

    # -- event plumbing ------------------------------------------------------

    def schedule(self, t_ns: int, fn, *args) -> None:
        heapq.heappush(self.queue, (t_ns, next(self.order), fn, args))

    def log(self, kind: str, direction: str, frame: EthernetFrame) -> None:
        self.events.append(TraceEvent(self.now, direction, kind, frame))

    def transmit(self, frame: EthernetFrame, direction: str, kind: str, on_arrive) -> None:
        """Push one frame onto the link: tap, warden, then impairments."""
        if self.tap is not None:
            frame = self.tap(frame)
        if self.warden is not None:
            frame = apply_warden(frame, self.warden, self.warden_rng)
        self.log(kind, direction, frame)
        if self.link.loss_rate and self.rng.random() < self.link.loss_rate:
            self.log("drop", direction, frame)
            return
        transit = self.propagation_ns + self.tap_delay_ns
        if self.jitter_ns:
            transit += round(self.rng.uniform(-self.jitter_ns, self.jitter_ns))
        arrival = self.now + max(0, transit)
        if self.link.reorder_rate and self.rng.random() < self.link.reorder_rate:
            prev = self.prev_arrival[direction]
            if prev > self.now and prev <= arrival:
                arrival = max(self.now, prev - 1)  # leapfrog the predecessor
        self.prev_arrival[direction] = max(self.prev_arrival[direction], arrival)
        self.schedule(arrival, self.arrive, direction, on_arrive, frame)

    def arrive(self, direction: str, on_arrive, frame: EthernetFrame) -> None:
        """Hand an arriving frame to ``on_arrive``, or drop it if it fails its
        TCP checksum or FCS.

        Sums that :mod:`.wirecodec` computed over a frame's bytes cannot
        fail, so only a frame with unknown sums is checked.  The timers
        recover a dropped frame: the handshake timer resends the SYN, the
        retransmission timer the unacknowledged segment.
        """
        if frame.sums_known or (tcp_checksum_ok(frame) and fcs_ok(frame)):
            on_arrive(frame)
        else:
            self.log("drop", direction, frame)

    def run(self) -> TransferTrace:
        if self.total == 0:
            raise ValueError("payload must be non-empty")
        if self.segments[0][1] > self.receiver.recv_buffer:
            raise Stalled(
                f"recv_buffer {self.receiver.recv_buffer} below segment size "
                f"{self.segments[0][1]}"
            )
        self.send_syn()
        self.schedule(self.now + self.rto_ns, self.on_hs_timer)
        # A live timer stays queued until completion (the handshake timer
        # requeues itself, then every arm_timer leaves one on_timer), so
        # the queue drains only after the final ACK.
        while self.queue:
            t_ns, _, fn, args = heapq.heappop(self.queue)
            if t_ns > self.max_time_ns:
                raise Stalled(f"no completion within {self.max_time_ns} ns")
            self.now = t_ns
            fn(*args)
        return TransferTrace(
            events=tuple(self.events),
            rtt_estimate_ns=self.rtt_estimate or 0,
            total_time_ns=self.completed_at - (self.data_start or 0),
            delivered=bytes(self.delivered),
            max_in_flight=self.max_in_flight,
        )

    def send(
        self, direction: str, kind: str, on_arrive, seq: int, ack: int, flags: int,
        payload: bytes = b"",
    ) -> None:
        """Build the next frame of this connection in ``direction`` and transmit it.

        ``seq`` and ``ack`` wrap modulo 2^32 in :func:`build_tcp_frame`.
        """
        src_ip, dst_ip, src_port, dst_port, src_mac, dst_mac = _ENDS[direction]
        end = self.sender if direction == DIR_C2S else self.receiver
        frame = build_tcp_frame(
            src_ip=src_ip, dst_ip=dst_ip, src_port=src_port, dst_port=dst_port,
            seq=seq, ack=ack, flags=flags, payload=payload, window=end.recv_buffer,
            ip_id=next(self.ip_id[direction]) & 0xFFFF,  # wraps, as in RFC 791
            dst_mac=dst_mac, src_mac=src_mac, with_fcs=True,
        )
        self.transmit(frame, direction, kind, on_arrive)

    # -- handshake -----------------------------------------------------------

    def send_syn(self) -> None:
        self.send(DIR_C2S, "syn", self.on_syn_arrive, self.sender.isn, 0, TCP_SYN)

    def on_hs_timer(self) -> None:
        if self.hs_done:
            return
        self.send_syn()
        self.schedule(self.now + self.rto_ns, self.on_hs_timer)

    def on_syn_arrive(self, frame: EthernetFrame) -> None:
        # Duplicate SYNs get a fresh SYN-ACK: that is the loss recovery.
        self.schedule(self.now + self.processing_ns, self.send_synack)

    def send_synack(self) -> None:
        self.send(
            DIR_S2C, "synack", self.on_synack_arrive,
            self.receiver.isn, self.sender.isn + 1, TCP_SYN | TCP_ACK,
        )

    def on_synack_arrive(self, frame: EthernetFrame) -> None:
        if self.hs_done:
            return
        self.hs_done = True
        self.rtt_estimate = self.now  # SYN departed at t=0
        self.data_start = self.now
        self.fill_window()
        self.arm_timer()

    # -- sender --------------------------------------------------------------

    def fill_window(self) -> None:
        while self.next_seg < len(self.segments):
            off, size = self.segments[self.next_seg]
            if off + size - self.acked > self.receiver.recv_buffer:
                break
            self.send_segment(self.next_seg, retransmit=False)
            self.next_seg += 1
            self.sent_end = off + size
            self.max_in_flight = max(self.max_in_flight, self.sent_end - self.acked)

    def send_segment(self, index: int, retransmit: bool) -> None:
        off, size = self.segments[index]
        self.send(
            DIR_C2S, "retransmit" if retransmit else "data", self.on_data_arrive,
            self.sender.isn + 1 + off, self.receiver.isn + 1, TCP_ACK,
            self.payload[off:off + size],
        )

    def arm_timer(self) -> None:
        self.timer_epoch += 1
        self.schedule(self.now + self.rto_ns, self.on_timer, self.timer_epoch)

    def on_timer(self, epoch: int) -> None:
        if epoch != self.timer_epoch or self.acked >= self.total:
            return
        # Cumulative ACKs land on segment boundaries, so the wanted segment
        # is the one starting at exactly `acked`.
        index = min(self.acked // self.sender.mss, len(self.segments) - 1)
        self.send_segment(index, retransmit=True)
        self.arm_timer()

    def on_ack_arrive(self, frame: EthernetFrame) -> None:
        acked = (frame.tcp.ack - (self.sender.isn + 1)) % SEQ_MOD
        if acked > self.total or acked <= self.acked:
            return  # stale or duplicate
        self.acked = acked
        if self.acked >= self.total:
            self.completed_at = self.now
            self.timer_epoch += 1  # disarm
            return
        self.arm_timer()
        self.fill_window()

    # -- receiver ------------------------------------------------------------

    def on_data_arrive(self, frame: EthernetFrame) -> None:
        data = frame.tcp_payload
        if data:
            offset = (frame.tcp.seq - (self.sender.isn + 1)) % SEQ_MOD
            if offset + len(data) > len(self.delivered):
                self.ooo[offset] = data
            while len(self.delivered) in self.ooo:
                self.delivered += self.ooo.pop(len(self.delivered))
        # One cumulative ACK per received data frame, after nodal processing.
        self.schedule(self.now + self.processing_ns, self.send_ack)

    def send_ack(self) -> None:
        self.send(
            DIR_S2C, "ack", self.on_ack_arrive,
            self.receiver.isn + 1, self.sender.isn + 1 + len(self.delivered), TCP_ACK,
        )


def simulate_transfer(
    payload: bytes,
    link: LinkModel,
    sender: Optional[TcpLiteEndpoint] = None,
    receiver: Optional[TcpLiteEndpoint] = None,
    warden: Optional[WardenConfig] = None,
    tap: Optional[TapFn] = None,
    tap_delay_ns: int = 0,
    max_time_ns: int = 600_000_000_000,
) -> TransferTrace:
    """Run one client-to-server transfer and return its trace.

    The trace records every frame at the instant it enters the link, after
    the tap and warden have seen it; lost frames get an extra ``drop``
    marker.  ``total_time_ns`` spans first data departure to the final
    cumulative ACK's arrival; ``rtt_estimate_ns`` is measured on the
    handshake.  Raises :class:`Stalled` when no progress is possible or the
    time budget runs out.
    """
    if tap_delay_ns < 0:
        raise ValueError("tap_delay_ns must be >= 0")
    sim = _Sim(
        payload=bytes(payload),
        link=link,
        sender=sender or TcpLiteEndpoint(isn=0x10000000),
        receiver=receiver or TcpLiteEndpoint(isn=0x20000000),
        warden=warden,
        tap=tap,
        tap_delay_ns=tap_delay_ns,
        max_time_ns=max_time_ns,
    )
    return sim.run()


def deliver_schedule(
    gaps_ns: Sequence[int], link: LinkModel, smooth: bool = False
) -> List[int]:
    """Send a marker-frame train with the given departure gaps; return arrival gaps.

    Each of the ``len(gaps_ns) + 1`` frames suffers propagation plus an
    independent jitter draw; arrival gaps are measured in delivery order.
    ``smooth=True`` models a timing-normalizing warden that re-paces the
    train at its mean gap before release.
    """
    rng = random.Random(f"{link.seed}/schedule")
    departs = [0]
    for gap in gaps_ns:
        if gap <= 0:
            raise ValueError("gaps must be positive")
        departs.append(departs[-1] + gap)
    arrivals = []
    for t in departs:
        transit = link.propagation_ns
        if link.jitter_ns:
            transit += round(rng.uniform(-link.jitter_ns, link.jitter_ns))
        arrivals.append(t + max(0, transit))
    arrivals.sort()
    if smooth and len(arrivals) > 1:
        first, last = arrivals[0], arrivals[-1]
        n = len(arrivals) - 1
        arrivals = [first + round(i * (last - first) / n) for i in range(n + 1)]
    return [b - a for a, b in zip(arrivals, arrivals[1:])]


# ---------------------------------------------------------------------------
# trace export


def trace_to_pcap(trace: TransferTrace) -> PcapFile:
    """Every transmitted frame (drop markers excluded), FCS stripped, in order.

    Raises ``ValueError`` when a timestamp's seconds do not fit the 32-bit
    field of a pcap record.
    """
    records = []
    new = tuple.__new__  # the fields are in range, as checked here
    for ev in trace.events:
        if ev.kind == "drop":
            continue
        sec, usec = ns_to_pcap_ts(ev.t_ns)
        if not 0 <= sec < 1 << 32:
            raise ValueError(f"timestamp out of range: {ev.t_ns} ns")
        data = ev.frame.data[:-4] if ev.frame.has_fcs else ev.frame.data
        records.append(new(PcapRecord, (sec, usec, data, len(data))))
    return PcapFile(records=tuple(records))


def trace_to_csv(trace: TransferTrace) -> str:
    """One line per trace event: timestamp_ns, direction, kind, seq, len."""
    lines = ["timestamp_ns,direction,kind,seq,len"]
    for ev in trace.events:
        frame = ev.frame
        tcp = frame.tcp
        if tcp is None:
            seq, size = "", 0
        else:  # the TCP payload's length, without slicing it out
            seq = tcp.seq
            size = frame.ip.total_length - 4 * (frame.ip.ihl + tcp.data_offset)
        lines.append(f"{ev.t_ns},{ev.direction},{ev.kind},{seq},{size}")
    return "\n".join(lines) + "\n"
