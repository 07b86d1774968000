"""Simulator tests.

The zero-impairment transfer-time oracle is an independent greedy model:
each round, the sender emits every segment the receive window admits, and
one round costs exactly two propagation legs plus one nodal processing
delay.  The simulator must land on the oracle's round count to the
nanosecond.
"""

import random
from dataclasses import replace

import pytest

from netsteglab.netsim import (
    CLIENT_IP,
    CLIENT_MAC,
    CLIENT_PORT,
    DIR_S2C,
    LinkModel,
    MS,
    SERVER_IP,
    SERVER_MAC,
    SERVER_PORT,
    Stalled,
    TcpLiteEndpoint,
    TraceEvent,
    _Sim,
    US,
    WARDEN_TTL,
    WardenConfig,
    apply_warden,
    deliver_schedule,
    rtt,
    segment_payload,
    simulate_transfer,
    trace_to_csv,
    trace_to_pcap,
)
from netsteglab.channels import BitMessage, TimingConfig, timing_decode, timing_encode
from netsteglab.wirecodec import (
    SEQ_MOD,
    TCP_ACK,
    TCP_SYN,
    build_tcp_frame,
    fcs_ok,
    ipv4,
    parse_frame,
    tcp_checksum_ok,
    with_ip_fields,
    with_tcp_payload,
)


def greedy_total_ns(payload_len: int, mss: int, recv_buffer: int, link: LinkModel) -> int:
    """Independent round-count model for a lossless, jitter-free link."""
    round_ns = 2 * link.propagation_ns + link.processing_ns
    sizes = segment_payload(payload_len, mss)
    ends = []
    pos = 0
    for size in sizes:
        pos += size
        ends.append(pos)
    acked = 0
    nxt = 0
    rounds = 0
    while acked < payload_len:
        end = acked
        while nxt < len(ends) and ends[nxt] - acked <= recv_buffer:
            end = ends[nxt]
            nxt += 1
        assert end > acked, "window admits no segment: stalled"
        rounds += 1
        acked = end
    return rounds * round_ns


def payload_bytes(n: int, seed: int = 0) -> bytes:
    return random.Random(seed).randbytes(n)


# ---------------------------------------------------------------------------
# arithmetic


def test_rtt_default_is_20_05_ms():
    link = LinkModel()  # 10 ms propagation, 50 us processing
    assert rtt(link) == 20_050_000
    assert rtt(link) == 2 * 10 * MS + 50 * US


def test_segment_payload_reference_split():
    sizes = segment_payload(786_460, 1460)
    assert len(sizes) == 539
    assert sizes[:-1] == [1460] * 538
    assert sizes[-1] == 980
    assert sum(sizes) == 786_460


def test_segment_payload_edges():
    assert segment_payload(0, 1460) == []
    assert segment_payload(1460, 1460) == [1460]
    assert segment_payload(1461, 1460) == [1460, 1]
    with pytest.raises(ValueError):
        segment_payload(10, 0)
    with pytest.raises(ValueError, match="negative payload length"):
        segment_payload(-1, 1460)


def test_link_model_validation():
    with pytest.raises(ValueError):
        LinkModel(loss_rate=1.0)
    with pytest.raises(ValueError):
        LinkModel(reorder_rate=1.5)
    with pytest.raises(ValueError):
        LinkModel(propagation_ms=-1)


@pytest.mark.parametrize("field", ["propagation_ms", "processing_us", "jitter_ms"])
@pytest.mark.parametrize("value", [-1.0, float("inf"), float("nan")])
def test_link_model_rejects_delays_that_are_negative_or_not_finite(field, value):
    with pytest.raises(ValueError, match="delays"):
        LinkModel(**{field: value})


def test_negative_tap_delay_rejected():
    with pytest.raises(ValueError, match="tap_delay_ns"):
        simulate_transfer(payload_bytes(100), LinkModel(), tap=lambda f: f, tap_delay_ns=-1)


def test_recv_buffer_must_fit_the_16_bit_window():
    assert TcpLiteEndpoint(recv_buffer=0xFFFF).recv_buffer == 0xFFFF
    for bad in (0, 0x10000, 65_600):
        with pytest.raises(ValueError, match="recv_buffer"):
            TcpLiteEndpoint(recv_buffer=bad)


@pytest.mark.parametrize("fields, message", [
    ({"isn": -1}, "isn out of 32-bit range"),
    ({"isn": SEQ_MOD}, "isn out of 32-bit range"),
    ({"mss": 0}, "mss must be at least 1"),
])
def test_endpoint_rejects_isn_and_mss_out_of_range(fields, message):
    with pytest.raises(ValueError, match=message):
        TcpLiteEndpoint(**fields)


def test_ip_id_wraps_modulo_2_16_past_65535_frames():
    """IPv4 identification wraps (RFC 791): the SYN and 65,535 one-byte
    segments are 65,536 client frames, the last of which carries id 0."""
    payload = payload_bytes(0xFFFF, seed=9)
    trace = simulate_transfer(
        payload, LinkModel(), sender=TcpLiteEndpoint(mss=1),
        receiver=TcpLiteEndpoint(isn=0x20000000, recv_buffer=0xFFFF),
    )
    assert trace.delivered == payload
    ids = [e.frame.ip.identification for e in trace.events if e.direction == "c2s"]
    assert len(ids) == 1 << 16
    assert ids == [i & 0xFFFF for i in range(1, len(ids) + 1)]


# ---------------------------------------------------------------------------
# clean-link timing equals the greedy oracle


@pytest.mark.parametrize("payload_len", [1, 100, 1460, 1461, 4096, 10_000, 18_486])
@pytest.mark.parametrize("mss,recv_buffer", [(1460, 4096), (1460, 1460), (536, 4096), (536, 2920)])
def test_total_time_matches_greedy_oracle(payload_len, mss, recv_buffer):
    link = LinkModel(seed=1)
    trace = simulate_transfer(
        payload_bytes(payload_len),
        link,
        sender=TcpLiteEndpoint(isn=0x10000000, mss=mss),
        receiver=TcpLiteEndpoint(isn=0x20000000, recv_buffer=recv_buffer),
    )
    assert trace.total_time_ns == greedy_total_ns(payload_len, mss, recv_buffer, link)


def test_single_segment_takes_one_round_trip():
    link = LinkModel()
    trace = simulate_transfer(payload_bytes(900), link)
    assert trace.total_time_ns == rtt(link)
    assert trace.rtt_estimate_ns == rtt(link)


def test_total_time_scales_with_propagation():
    fast = simulate_transfer(payload_bytes(8000), LinkModel(propagation_ms=2.0))
    slow = simulate_transfer(payload_bytes(8000), LinkModel(propagation_ms=20.0))
    ratio = slow.total_time_ns / fast.total_time_ns
    assert 9.5 < ratio < 10.5  # dominated by the propagation term


def test_delivery_and_window_bound():
    payload = payload_bytes(18_486, seed=3)
    trace = simulate_transfer(payload, LinkModel(seed=2))
    assert trace.delivered == payload
    assert 0 < trace.max_in_flight <= 4096
    kinds = [e.kind for e in trace.events]
    assert kinds.count("syn") == 1 and kinds.count("synack") == 1
    assert kinds.count("data") == 13  # ceil(18486/1460)
    assert "drop" not in kinds and "retransmit" not in kinds


def test_every_simulated_frame_verifies():
    trace = simulate_transfer(payload_bytes(5000), LinkModel(seed=5))
    for event in trace.events:
        assert tcp_checksum_ok(event.frame)
        assert event.frame.fcs is not None and fcs_ok(event.frame)


# ---------------------------------------------------------------------------
# impairments


@pytest.mark.parametrize("seed", range(8))
def test_reliable_delivery_under_impairments(seed):
    payload = payload_bytes(12_000, seed=seed)
    link = LinkModel(
        loss_rate=0.1, reorder_rate=0.1, jitter_ms=2.0, seed=seed,
        propagation_ms=5.0,
    )
    trace = simulate_transfer(payload, link)
    assert trace.delivered == payload


def test_loss_forces_retransmissions():
    link = LinkModel(loss_rate=0.3, seed=11, propagation_ms=2.0)
    payload = payload_bytes(8000, seed=4)
    trace = simulate_transfer(payload, link)
    kinds = [e.kind for e in trace.events]
    assert "drop" in kinds and "retransmit" in kinds
    assert trace.delivered == payload


def test_reorder_swaps_arrivals_without_loss():
    link = LinkModel(reorder_rate=0.5, seed=9, propagation_ms=2.0)
    payload = payload_bytes(10_000, seed=6)
    trace = simulate_transfer(payload, link)
    assert trace.delivered == payload
    assert "drop" not in [e.kind for e in trace.events]


def test_determinism_bit_identical_traces():
    link = LinkModel(loss_rate=0.08, reorder_rate=0.1, jitter_ms=1.5, seed=77)
    payload = payload_bytes(9000, seed=7)
    a = simulate_transfer(payload, link)
    b = simulate_transfer(payload, link)
    assert a == b
    assert [e.frame.emit() for e in a.events] == [e.frame.emit() for e in b.events]
    assert simulate_transfer(payload, LinkModel(seed=78, loss_rate=0.08)) != a


def test_stalled_when_first_segment_exceeds_window():
    with pytest.raises(Stalled):
        simulate_transfer(
            payload_bytes(5000),
            LinkModel(),
            sender=TcpLiteEndpoint(mss=1460),
            receiver=TcpLiteEndpoint(recv_buffer=1000),
        )


def test_stalled_on_time_budget():
    with pytest.raises(Stalled):
        simulate_transfer(payload_bytes(5000), LinkModel(), max_time_ns=1_000_000)


def test_empty_payload_rejected():
    with pytest.raises(ValueError):
        simulate_transfer(b"", LinkModel())


# ---------------------------------------------------------------------------
# warden


def _sample_frame(ttl=37, payload=b"secret-data", ip_id=5):
    return build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
        seq=1000, payload=payload, ttl=ttl, ip_id=ip_id, with_fcs=True,
    )


def test_warden_config_validation():
    with pytest.raises(ValueError):
        WardenConfig(mode="sneaky")
    with pytest.raises(ValueError):
        WardenConfig(mode="passive", normalizations={"rewrite_ttl"})
    with pytest.raises(ValueError):
        WardenConfig(mode="active", normalizations={"melt"})


def test_passive_warden_is_identity():
    frame = _sample_frame()
    cfg = WardenConfig(mode="passive")
    assert apply_warden(frame, cfg, random.Random(0)) is frame
    assert apply_warden(frame, None, random.Random(0)) is frame


def test_active_rewrite_ttl():
    out = apply_warden(
        _sample_frame(ttl=37),
        WardenConfig(mode="active", normalizations={"rewrite_ttl"}),
        random.Random(0),
    )
    assert out.ip.ttl == 64
    assert tcp_checksum_ok(out) and fcs_ok(out)
    assert out.tcp_payload == b"secret-data"


def test_active_warden_passes_a_bad_tcp_checksum_on_as_unknown():
    made = _sample_frame(ttl=37)
    wire = bytearray(made.data)
    wire[-6] ^= 0x01  # a payload bit
    bad = parse_frame(bytes(wire), has_fcs=True)
    cfg = WardenConfig(mode="active", normalizations={"rewrite_ttl", "randomize_ip_id"})
    out = apply_warden(bad, cfg, random.Random(0))
    assert out.ip.ttl == 64 and fcs_ok(out)
    assert not out.sums_known and not tcp_checksum_ok(out)
    assert apply_warden(made, cfg, random.Random(0)).sums_known


def test_active_randomize_ip_id():
    rng = random.Random(123)
    out = apply_warden(
        _sample_frame(ip_id=5),
        WardenConfig(mode="active", normalizations={"randomize_ip_id"}),
        rng,
    )
    expected = random.Random(123).randrange(1 << 16)
    assert out.ip.identification == expected
    assert tcp_checksum_ok(out) and fcs_ok(out)


@pytest.mark.parametrize("mode", ["active", "malicious"])
def test_warden_writes_both_normalizations_as_two_rewrites_would(mode):
    frame = _sample_frame(ttl=37, ip_id=5)
    cfg = WardenConfig(mode=mode, normalizations={"rewrite_ttl", "randomize_ip_id"})
    rng = random.Random(77)
    out = apply_warden(frame, cfg, rng)
    # Reference: one rewrite per normalization, in the order they are listed.
    ref_rng = random.Random(77)
    ref = with_ip_fields(frame, ttl=WARDEN_TTL)
    ref = with_ip_fields(ref, identification=ref_rng.randrange(1 << 16))
    if mode == "malicious":
        ref = with_tcp_payload(
            ref, bytes(b ^ ref_rng.randrange(1, 256) for b in ref.tcp_payload)
        )
    assert (out.data, out.has_fcs) == (ref.data, ref.has_fcs)
    assert rng.getstate() == ref_rng.getstate()


def test_malicious_scrambles_every_payload_byte():
    frame = _sample_frame(payload=b"covert-message-bytes")
    out = apply_warden(frame, WardenConfig(mode="malicious"), random.Random(1))
    assert len(out.tcp_payload) == len(frame.tcp_payload)
    # Nonzero XOR guarantees every byte moved.
    assert all(a != b for a, b in zip(frame.tcp_payload, out.tcp_payload))
    assert tcp_checksum_ok(out) and fcs_ok(out)


def test_passive_warden_changes_no_trace_bytes():
    payload = payload_bytes(6000, seed=9)
    link = LinkModel(seed=13)
    bare = simulate_transfer(payload, link)
    watched = simulate_transfer(payload, link, warden=WardenConfig(mode="passive"))
    assert [e.frame.emit() for e in bare.events] == [
        e.frame.emit() for e in watched.events
    ]
    assert bare.total_time_ns == watched.total_time_ns


def test_malicious_warden_corrupts_delivery_but_not_checksums():
    payload = payload_bytes(6000, seed=10)
    link = LinkModel(seed=14)
    trace = simulate_transfer(payload, link, warden=WardenConfig(mode="malicious"))
    assert len(trace.delivered) == len(payload)
    assert trace.delivered != payload
    assert all(tcp_checksum_ok(e.frame) and fcs_ok(e.frame) for e in trace.events)


def test_randomize_ip_id_rewrites_header_ids_in_flight():
    payload = payload_bytes(6000, seed=11)
    link = LinkModel(seed=15)
    bare = simulate_transfer(payload, link)
    scrubbed = simulate_transfer(
        payload, link, warden=WardenConfig(mode="active", normalizations={"randomize_ip_id"})
    )
    bare_ids = [e.frame.ip.identification for e in bare.events if e.direction == "c2s"]
    scrub_ids = [e.frame.ip.identification for e in scrubbed.events if e.direction == "c2s"]
    assert bare_ids == sorted(bare_ids)  # per-direction counter
    assert bare_ids != scrub_ids
    assert scrubbed.delivered == payload


# ---------------------------------------------------------------------------
# tap hook


def test_tap_sees_both_directions_and_rewrites_stick():
    payload = payload_bytes(4000, seed=12)
    seen = []

    def tap(frame):
        direction = "c2s" if frame.ip.src_ip == CLIENT_IP else "s2c"
        seen.append((direction, len(frame.tcp_payload)))
        if direction == "c2s" and frame.tcp_payload:
            return with_tcp_payload(frame, b"X" * len(frame.tcp_payload))
        return frame

    trace = simulate_transfer(payload, LinkModel(seed=16), tap=tap)
    assert trace.delivered == b"X" * len(payload)
    directions = {d for d, _ in seen}
    assert directions == {"c2s", "s2c"}
    # The trace logs the post-tap frames.
    datas = [e for e in trace.events if e.kind == "data"]
    assert all(set(e.frame.tcp_payload) == {ord("X")} for e in datas)


def _corrupt_first(picks):
    """A tap that flips one sequence-number bit of the first frame ``picks``
    accepts and hands on the bytes re-parsed, as a frame from outside would be."""
    flipped = []

    def tap(frame):
        if flipped or not picks(frame):
            return frame
        wire = bytearray(frame.data)
        wire[14 + 20 + 4] ^= 0x01  # the top byte of the TCP sequence number
        flipped.append(parse_frame(bytes(wire), has_fcs=True))
        return flipped[0]

    return tap, flipped


def _assert_dropped_once(trace, flipped, direction):
    drops = [e for e in trace.events if e.kind == "drop"]
    assert [(e.direction, e.frame) for e in drops] == [(direction, flipped[0])]
    assert not drops[0].frame.sums_known
    assert not tcp_checksum_ok(drops[0].frame) and not fcs_ok(drops[0].frame)


@pytest.mark.parametrize("kind, direction, flags", [
    ("syn", "c2s", TCP_SYN),
    ("synack", "s2c", TCP_SYN | TCP_ACK),
])
def test_corrupted_handshake_frame_is_dropped_and_the_handshake_retried(
    kind, direction, flags
):
    payload = payload_bytes(3000, seed=21)
    tap, flipped = _corrupt_first(lambda f: f.tcp.flags == flags)
    trace = simulate_transfer(payload, LinkModel(seed=22), tap=tap)
    _assert_dropped_once(trace, flipped, direction)
    kinds = [e.kind for e in trace.events]
    # The handshake timer resends the SYN; only a SYN that arrived drew a SYN-ACK.
    handshake = ["syn", "drop", "syn", "synack"]
    if kind == "synack":
        handshake = ["syn", "synack", "drop", "syn", "synack"]
    assert kinds[:len(handshake)] == handshake
    assert kinds.count(kind) == 2
    assert trace.delivered == payload


@pytest.mark.parametrize("kind, direction, size", [
    # The first of three segments: the two behind it wait out of order.
    ("data", "c2s", 4000),
    # The only ACK of a one-segment transfer: no later ACK covers it.
    ("ack", "s2c", 1000),
])
def test_corrupted_data_or_ack_is_dropped_and_the_segment_resent(kind, direction, size):
    payload = payload_bytes(size, seed=23)
    carries_data = kind == "data"
    tap, flipped = _corrupt_first(
        lambda f: f.tcp.flags == TCP_ACK and bool(f.tcp_payload) == carries_data
    )
    trace = simulate_transfer(payload, LinkModel(seed=24), tap=tap)
    _assert_dropped_once(trace, flipped, direction)
    resent = [e.frame.tcp.seq for e in trace.events if e.kind == "retransmit"]
    assert resent == [0x10000001]
    assert trace.delivered == payload


def test_synack_arriving_after_the_handshake_changes_nothing():
    """The handshake timer resends a SYN only while no SYN-ACK has come, so
    no transfer draws a second SYN-ACK; this one is handed in directly."""
    sim = _Sim(payload_bytes(3000, seed=25), LinkModel(seed=26), TcpLiteEndpoint(),
               TcpLiteEndpoint(isn=0x20000000), None, None, 0, 10**12)
    trace = sim.run()
    [synack] = [e.frame for e in trace.events if e.kind == "synack"]
    def state():
        return len(sim.events), sim.rtt_estimate, sim.data_start, sim.timer_epoch

    before = state()
    sim.arrive(DIR_S2C, sim.on_synack_arrive, synack)
    assert state() == before and sim.queue == []


def test_tap_delay_slows_transfer_but_preserves_delivery():
    payload = payload_bytes(8000, seed=13)
    link = LinkModel(seed=17)
    plain = simulate_transfer(payload, link)
    tapped = simulate_transfer(
        payload, link, tap=lambda f: f, tap_delay_ns=50 * US
    )
    assert tapped.delivered == payload
    assert tapped.total_time_ns > plain.total_time_ns
    rounds = plain.total_time_ns // rtt(link)
    assert tapped.total_time_ns - plain.total_time_ns == rounds * 2 * 50 * US


# ---------------------------------------------------------------------------
# schedule delivery (timing-channel link behavior)


def test_deliver_schedule_identity_without_jitter():
    gaps = [300 * MS, 100 * MS, 300 * MS]
    assert deliver_schedule(gaps, LinkModel()) == gaps


@pytest.mark.parametrize("seed", range(6))
def test_timing_channel_survives_jitter_below_half_delta(seed):
    cfg = TimingConfig()  # 200 ms nominal, 100 ms delta
    msg = BitMessage.random(24, seed)
    gaps = timing_encode(msg, cfg)
    link = LinkModel(jitter_ms=20.0, seed=seed)  # 20 < 100/2
    arrival_gaps = deliver_schedule(gaps, link)
    assert timing_decode(arrival_gaps, cfg) == msg


def test_smoothing_warden_destroys_timing_modulation():
    cfg = TimingConfig()
    msg = BitMessage.from01("101010101010")
    gaps = timing_encode(msg, cfg)
    smoothed = deliver_schedule(gaps, LinkModel(), smooth=True)
    assert timing_decode(smoothed, cfg) != msg
    assert len(set(smoothed)) == 1  # uniformly re-paced


def test_deliver_schedule_rejects_non_positive_gaps():
    with pytest.raises(ValueError):
        deliver_schedule([0], LinkModel())


# ---------------------------------------------------------------------------
# trace export


def test_trace_to_pcap_excludes_drops_and_strips_fcs():
    link = LinkModel(loss_rate=0.3, seed=11, propagation_ms=2.0)
    trace = simulate_transfer(payload_bytes(8000, seed=4), link)
    capture = trace_to_pcap(trace)
    wire_events = [e for e in trace.events if e.kind != "drop"]
    assert len(capture.records) == len(wire_events)
    for record, event in zip(capture.records, wire_events):
        assert record.frame_bytes == event.frame.emit()[:-4]
        assert record.ts_sec * 1_000_000 + record.ts_usec == event.t_ns // 1000



def test_trace_to_pcap_rejects_a_timestamp_past_32_bits_of_seconds():
    trace = simulate_transfer(payload_bytes(2000), LinkModel())
    last = trace.events[-1]
    assert trace_to_pcap(replace(trace, events=(last._replace(t_ns=((1 << 32) - 1) * 10**9),)))
    late = replace(trace, events=trace.events[:-1] + (last._replace(t_ns=(1 << 32) * 10**9),))
    with pytest.raises(ValueError, match="timestamp out of range"):
        trace_to_pcap(late)


def test_trace_to_csv_shape():
    trace = simulate_transfer(payload_bytes(2000), LinkModel())
    lines = trace_to_csv(trace).strip().split("\n")
    assert lines[0] == "timestamp_ns,direction,kind,seq,len"
    assert len(lines) == len(trace.events) + 1
    assert lines[1].split(",")[1:4] == ["c2s", "syn", str(0x10000000)]
    for line, event in zip(lines[1:], trace.events):
        assert int(line.split(",")[4]) == len(event.frame.tcp_payload)
    # A frame with no TCP view has no sequence number and no TCP payload.
    arp = parse_frame(b"\x01" * 6 + b"\x02" * 6 + b"\x08\x06" + bytes(28))
    trace = replace(trace, events=(TraceEvent(5, "c2s", "data", arp),))
    assert trace_to_csv(trace).split("\n")[1] == "5,c2s,data,,0"


def test_client_ip_constant_matches_frames():
    trace = simulate_transfer(payload_bytes(1000), LinkModel())
    syn = trace.events[0].frame
    assert syn.ip.src_ip == ipv4(CLIENT_IP)


def test_each_direction_carries_its_own_endpoint_fields():
    sender = TcpLiteEndpoint(isn=0x10000000, recv_buffer=8192)
    receiver = TcpLiteEndpoint(isn=0x20000000, recv_buffer=2920)
    trace = simulate_transfer(
        payload_bytes(6000, seed=5), LinkModel(), sender=sender, receiver=receiver
    )
    for direction, ends in (
        ("c2s", (CLIENT_IP, SERVER_IP, CLIENT_PORT, SERVER_PORT, CLIENT_MAC, SERVER_MAC, 8192)),
        ("s2c", (SERVER_IP, CLIENT_IP, SERVER_PORT, CLIENT_PORT, SERVER_MAC, CLIENT_MAC, 2920)),
    ):
        frames = [e.frame for e in trace.events if e.direction == direction]
        assert {
            (f.ip.src_ip, f.ip.dst_ip, f.tcp.src_port, f.tcp.dst_port, f.data[6:12],
             f.data[:6], f.tcp.window)
            for f in frames
        } == {ends}
        assert [f.ip.identification for f in frames] == list(range(1, len(frames) + 1))
