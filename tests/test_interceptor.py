"""In-flight embedder tests.

The independent oracle walks the BMP structure row by row and pixel by
pixel to list carrier byte positions, then applies the policy to a copy of
the whole file.  The interceptor, which only ever sees segment-sized
windows of the stream, must reproduce that whole-file result for every
segmentation, arrival order, and retransmission pattern.
"""

import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from netsteglab.bmp import BmpInfo, make_bmp, parse_bmp_info
from netsteglab.channels import BitMessage
from netsteglab.interceptor import (
    FlowReport,
    FlowState,
    Interceptor,
    _add,
    _cut,
    StegoPolicy,
    _embed,
    _keystream_plane,
    _track,
    carrier_slices,
    extract_from_file,
    report_csv,
)
from netsteglab.netsim import LinkModel, simulate_transfer
from netsteglab.wirecodec import (
    IP_FLAG_MF,
    SEQ_MOD,
    TCP_ACK,
    TCP_SYN,
    WireError,
    build_tcp_frame,
    fcs_ok,
    ipv4,
    parse_frame,
    tcp_checksum_ok,
    with_ip_fields,
)
from oracles import bit_at, carrier_map_oracle, embed_oracle, selected, source_bit


# ---------------------------------------------------------------------------
# oracles


def carrier_offsets(bmp: BmpInfo, start: int, end: int):
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
    out = []
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


def data_frame(offset: int, chunk: bytes, *, base_seq: int = 0x10000001, with_fcs=False):
    return build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
        seq=(base_seq + offset) % SEQ_MOD, flags=TCP_ACK, payload=chunk,
        with_fcs=with_fcs,
    )


def syn_frame(isn: int = 0x10000000):
    return build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
        seq=isn, flags=TCP_SYN,
    )


def segmented_frames(file_bytes: bytes, mss: int, *, with_syn=True):
    frames = [syn_frame()] if with_syn else []
    for off in range(0, len(file_bytes), mss):
        frames.append(data_frame(off, file_bytes[off:off + mss]))
    return frames


def run_stream(frames, policy):
    """Every frame through one fresh interceptor: the outputs and the reports."""
    interceptor = Interceptor(policy)
    return [interceptor.process(frame) for frame in frames], interceptor.flow_reports()


def tracked(flows, frame):
    """:func:`_track` on a built TCP frame's views."""
    return _track(flows, frame.ip, frame.tcp)


MSG = StegoPolicy(message=BitMessage.from01("1011001110001111"))


# ---------------------------------------------------------------------------
# carrier addressing


def test_carrier_offsets_frozen_tiny_example():
    info = parse_bmp_info(make_bmp(2, 1, 24))
    assert carrier_offsets(info, 0, 62) == [(56, 0), (59, 1)]
    assert carrier_offsets(info, 54, 60) == [(56, 0), (59, 1)]
    assert carrier_offsets(info, 57, 62) == [(59, 1)]
    assert carrier_offsets(info, 0, 54) == []
    assert carrier_offsets(info, 60, 62) == []  # row padding only
    assert carrier_offsets(info, 56, 57) == [(56, 0)]


@pytest.mark.parametrize(
    "width,height,bpp",
    [(2, 1, 24), (3, 3, 24), (4, 4, 24), (5, 2, 8), (1, 7, 24), (96, 4, 24)],
)
def test_carrier_offsets_full_range_matches_oracle(width, height, bpp):
    info = parse_bmp_info(make_bmp(width, height, bpp))
    expected = sorted(carrier_map_oracle(info).items())
    assert carrier_offsets(info, 0, info.pixel_data_end) == expected
    assert len(expected) == width * height


@pytest.mark.parametrize("width,height,bpp", [(2, 1, 24), (3, 3, 24), (3, 2, 8)])
def test_carrier_offsets_every_subrange_matches_oracle(width, height, bpp):
    info = parse_bmp_info(make_bmp(width, height, bpp))
    mapping = carrier_map_oracle(info)
    size = info.pixel_data_end
    for start in range(size + 1):
        for end in range(start, size + 2):
            expected = sorted(
                (pos, idx) for pos, idx in mapping.items() if start <= pos < end
            )
            assert carrier_offsets(info, start, end) == expected, (start, end)


# ---------------------------------------------------------------------------
# policy


def test_policy_requires_exactly_one_source():
    with pytest.raises(ValueError):
        StegoPolicy()
    with pytest.raises(ValueError):
        StegoPolicy(message=BitMessage.from01("1"), keystream_seed=1)
    with pytest.raises(ValueError):
        StegoPolicy(message=BitMessage())
    with pytest.raises(ValueError):
        StegoPolicy(message=BitMessage.from01("1"), coverage=0.0)
    with pytest.raises(ValueError):
        StegoPolicy(message=BitMessage.from01("1"), coverage=1.5)
    for bad in ("1/0", "abc", "0", "-1/2", float("nan")):
        with pytest.raises(ValueError):
            StegoPolicy(message=BitMessage.from01("1"), coverage=bad)


def test_policy_coverage_is_the_exact_fraction_of_its_decimal_text():
    bit = BitMessage.from01("1")
    policies = [StegoPolicy(message=bit, coverage=c) for c in (0.7, "7/10", "0.7", Fraction(7, 10))]
    assert all(p == policies[0] and p.coverage == Fraction(7, 10) for p in policies)
    assert StegoPolicy(message=bit, coverage=1 / 3).coverage == Fraction(3333333333333333, 10**16)
    assert StegoPolicy(message=bit).coverage == 1


def test_policy_coverage_0_7_selects_by_exact_arithmetic():
    # floor(90 * 0.7) == 62 in floats, which would select carrier 90 for rank 63.
    policy = StegoPolicy(message=BitMessage.from01("1"), coverage=0.7)
    assert selected(policy, 89) and not selected(policy, 90)
    assert [i for i in range(85, 95) if selected(policy, i)] == [85, 87, 88, 89, 91, 92, 94]
    assert list(policy.runs(89, 91)) == [(slice(0, None, 10), slice(0, None, 7))]


def test_policy_message_bits_cycle():
    policy = StegoPolicy(message=BitMessage.from01("101"))
    assert [bit_at(policy, i) for i in range(9)] == [1, 0, 1] * 3
    assert policy.source_bits(7) == BitMessage.from01("1011011")


@pytest.mark.parametrize("coverage", [0.1, 0.25, 0.5, 0.75, 0.99, 1.0])
def test_policy_coverage_selection_density_and_rank(coverage):
    policy = StegoPolicy(message=BitMessage.from01("1"), coverage=coverage)
    n = 1000
    chosen = [i for i in range(n) if selected(policy, i)]
    assert len(chosen) == int(n * coverage) or len(chosen) == round(n * coverage)
    # rank(i) must equal the brute-force count of selected indices below i.
    count = 0
    for i in range(n):
        if selected(policy, i):
            assert policy.rank(i) == count, i
            count += 1
    assert count == len(chosen)


def test_policy_keystream_matches_generator_oracle():
    policy = StegoPolicy(keystream_seed=99)
    block0 = random.Random("99/0").getrandbits(4096)
    assert [source_bit(policy, j) for j in range(64)] == [
        (block0 >> j) & 1 for j in range(64)
    ]
    # Across the block boundary the next seeded block takes over.
    block1 = random.Random("99/1").getrandbits(4096)
    assert source_bit(policy, 4096) == block1 & 1
    assert source_bit(policy, 4097) == (block1 >> 1) & 1


def test_policy_bit_at_is_pure():
    """``StegoPolicy.bits`` is a pure function of its range: asking for the
    same ranges in a shuffled order, twice, gives the bits a fresh policy
    gives, also when the keystream planes come from the cache."""
    ranges = [(0, 50), (3, 4), (7, 7), (4090, 4200), (5, 4097), (8191, 8193), (12000, 12288)]
    rng = random.Random(11)
    for make in (
        lambda: StegoPolicy(message=BitMessage.from01("1100"), coverage=0.7),
        lambda: StegoPolicy(keystream_seed=99, coverage=0.7),
    ):
        policy = make()
        asked = []
        for _ in range(2):
            rng.shuffle(ranges)
            asked += [(lo, hi, policy.bits(lo, hi)) for lo, hi in ranges]
        _keystream_plane.cache_clear()
        fresh = make()
        assert all(bits == fresh.bits(lo, hi) for lo, hi, bits in asked)


# ---------------------------------------------------------------------------
# flow tracking


def test_track_syn_anchors_base_seq():
    flows = {}
    key, state, start, end = tracked(flows, syn_frame(isn=5000))
    assert (start, end) == (0, 0)
    assert state.base_seq == 5001
    assert key == (ipv4("10.0.0.1"), ipv4("10.0.0.2"), 40000, 8080)
    assert tracked(flows, data_frame(0, b"abc", base_seq=5001))[2:] == (0, 3)
    assert tracked(flows, data_frame(3, b"dd", base_seq=5001))[2:] == (3, 5)


def test_track_without_syn_anchors_first_data():
    flows = {}
    _, state, start, end = tracked(flows, data_frame(0, b"abcdef", base_seq=777_000))
    assert state.base_seq == 777_000
    assert (start, end) == (0, 6)
    assert tracked(flows, data_frame(6, b"gh", base_seq=777_000))[2:] == (6, 8)


def test_track_retransmit_maps_to_same_range():
    flows = {}
    tracked(flows, syn_frame())
    first = tracked(flows, data_frame(10, b"zz"))[2:]
    again = tracked(flows, data_frame(10, b"zz"))[2:]
    assert first == again == (10, 12)


def test_track_handles_sequence_wraparound():
    flows = {}
    isn = SEQ_MOD - 5
    tracked(flows, syn_frame(isn=isn))  # base = 2**32 - 4
    frame = data_frame(0, b"abcdefgh", base_seq=SEQ_MOD - 4)
    assert tracked(flows, frame)[2:] == (0, 8)
    frame = data_frame(8, b"ij", base_seq=SEQ_MOD - 4)  # seq wraps past zero
    assert frame.tcp.seq == 4
    assert tracked(flows, frame)[2:] == (8, 10)


def test_track_restarts_the_flow_on_a_new_isn_and_keeps_it_on_a_resent_syn():
    flows = {}
    first = tracked(flows, syn_frame(isn=1000))[1]
    tracked(flows, data_frame(0, b"abc", base_seq=1001))
    assert tracked(flows, syn_frame(isn=1000))[1] is first
    second = tracked(flows, syn_frame(isn=5000))[1]
    assert second is not first and second.base_seq == 5001
    assert list(flows.values()) == [second]


def test_a_reconnect_on_the_same_4_tuple_is_not_embedded_with_the_old_bmp():
    """An ISN advances with the clock (RFC 6528), so a reconnect a second
    later starts about 250,000 bytes on, inside the first connection's
    768 KB image; its bytes must pass untouched."""
    file_bytes = make_bmp(512, 512, 24)
    interceptor = Interceptor(MSG)
    first = [syn_frame(isn=1_000_000)] + [
        data_frame(off, file_bytes[off:off + 1460], base_seq=1_000_001)
        for off in range(0, len(file_bytes), 1460)
    ]
    assert sum(interceptor.process(f) is not f for f in first) == 539
    noise = random.Random(5)
    second = [syn_frame(isn=1_250_000)] + [
        data_frame(k * 1460, noise.randbytes(1460), base_seq=1_250_001) for k in range(20)
    ]
    assert all(interceptor.process(f) is f for f in second)
    [report] = interceptor.flow_reports()  # the latest connection's row
    assert (report.frames_seen, report.frames_modified, report.carrier_bits) == (21, 0, 0)


# ---------------------------------------------------------------------------
# classification


def test_classify_bmp_and_non_bmp():
    """The frame that completes the 54-byte header stash decides the flow."""
    for header, carries in [(make_bmp(4, 2, 24)[:54], True), (b"%PDF-1.4" + bytes(46), False)]:
        interceptor = Interceptor(MSG)
        interceptor.process(syn_frame())
        interceptor.process(data_frame(20, header[20:]))
        [state] = interceptor.flows.values()
        assert state.stash_mask != (1 << 54) - 1 and state.verdict is None
        interceptor.process(data_frame(0, header[:20]))
        assert state.stash_mask == (1 << 54) - 1
        if carries:
            assert (state.verdict.width, state.verdict.height) == (4, 2)
        else:
            assert state.verdict == "not-bmp"


# ---------------------------------------------------------------------------
# embedding


def test_embed_in_frame_hand_oracle_tiny_file():
    file_bytes = make_bmp(2, 1, 24)
    policy = StegoPolicy(message=BitMessage.from01("10"))
    state = FlowState(base_seq=0x10000001, verdict=parse_bmp_info(file_bytes))
    frame = data_frame(0, file_bytes)
    out = _embed(frame, state, 0, policy)
    a, b = frame.tcp_payload, out.tcp_payload
    assert b[56] == (a[56] & 0xFE) | 1
    assert b[59] == (a[59] & 0xFE) | 0
    assert all(x == y for i, (x, y) in enumerate(zip(a, b)) if i not in (56, 59))
    assert tcp_checksum_ok(out)


def test_embed_returns_same_object_when_no_carriers():
    file_bytes = make_bmp(2, 1, 24)
    state = FlowState(base_seq=0x10000001, verdict=parse_bmp_info(file_bytes))
    frame = data_frame(0, file_bytes[:54])  # header only
    assert _embed(frame, state, 0, MSG) is frame


def test_embed_is_idempotent():
    file_bytes = make_bmp(3, 3, 24)
    policy = StegoPolicy(message=BitMessage.from01("110"))
    state = FlowState(base_seq=0x10000001, verdict=parse_bmp_info(file_bytes))
    frame = data_frame(0, file_bytes)
    once = _embed(frame, state, 0, policy)
    twice = _embed(once, state, 0, policy)
    assert twice.emit() == once.emit()


@pytest.mark.parametrize("width,height,bpp", [(2, 1, 24), (3, 3, 24), (3, 2, 8)])
def test_interceptor_matches_oracle_for_every_segmentation(width, height, bpp):
    file_bytes = make_bmp(width, height, bpp)
    policy = StegoPolicy(message=BitMessage.from01("1011001110001111"))
    expected = embed_oracle(file_bytes, policy)
    for mss in range(1, len(file_bytes) + 1):
        interceptor = Interceptor(policy)
        out = bytearray(len(file_bytes))
        for frame in segmented_frames(file_bytes, mss):
            processed = interceptor.process(frame)
            chunk = processed.tcp_payload
            if chunk:
                off = (processed.tcp.seq - 0x10000001) % SEQ_MOD
                out[off:off + len(chunk)] = chunk
        assert bytes(out) == expected, f"mss={mss}"


def test_interceptor_segmentation_invariance_large_vs_small_mss():
    file_bytes = make_bmp(24, 10, 24)
    policy = StegoPolicy(keystream_seed=5)
    results = []
    for mss in (1460, 536, 53):
        interceptor = Interceptor(policy)
        out = bytearray(len(file_bytes))
        for frame in segmented_frames(file_bytes, mss):
            processed = interceptor.process(frame)
            if processed.tcp_payload:
                off = (processed.tcp.seq - 0x10000001) % SEQ_MOD
                out[off:off + len(processed.tcp_payload)] = processed.tcp_payload
        results.append(bytes(out))
    assert results[0] == results[1] == results[2] == embed_oracle(file_bytes, policy)


def test_interceptor_out_of_order_header_still_classifies():
    file_bytes = make_bmp(4, 4, 24)
    policy = StegoPolicy(message=BitMessage.from01("10"))
    frames = segmented_frames(file_bytes, 40, with_syn=True)
    # Move the header-carrying first data frame to the back.
    shuffled = [frames[0]] + frames[2:] + [frames[1]]
    interceptor = Interceptor(policy)
    outputs = [interceptor.process(f) for f in shuffled]
    report = interceptor.flow_reports()[0]
    # Frames that passed before classification kept their original bytes.
    assert report.skipped_bits > 0
    skipped_before = report.skipped_bits
    # A retransmission pass now embeds what was missed.
    retransmit = [interceptor.process(f) for f in frames[2:]]
    report = interceptor.flow_reports()[0]
    assert report.skipped_bits == 0
    # Reassembling the final state of every offset matches the oracle.
    out = bytearray(len(file_bytes))
    for frame in [outputs[-1]] + retransmit:
        off = (frame.tcp.seq - 0x10000001) % SEQ_MOD
        out[off:off + len(frame.tcp_payload)] = frame.tcp_payload
    assert bytes(out) == embed_oracle(file_bytes, policy)
    assert skipped_before > 0


def test_interceptor_passes_non_bmp_flows_untouched():
    payload = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n" + bytes(40)
    frames = [syn_frame()] + [data_frame(0, payload)]
    interceptor = Interceptor(MSG)
    outputs = [interceptor.process(f) for f in frames]
    assert outputs[0] is frames[0]
    assert outputs[1] is frames[1]
    report = interceptor.flow_reports()[0]
    assert report.frames_modified == 0 and report.carrier_bits == 0


def test_a_flow_decided_not_to_carry_keeps_no_unembedded_ranges():
    """A segment past the header stash arrives first and is left unembedded;
    once the stash shows no BMP, that range is dropped."""
    payload = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n" + bytes(100)
    frames = [syn_frame(), data_frame(60, payload[60:]), data_frame(0, payload[:60])]
    interceptor = Interceptor(MSG)
    outputs = [interceptor.process(f) for f in frames]
    assert all(out is frame for out, frame in zip(outputs, frames))
    (state,) = interceptor.flows.values()
    assert state.verdict == "not-bmp" and state.unembedded == []
    assert interceptor.flow_reports() == [FlowReport(
        flow="10.0.0.1:40000->10.0.0.2:8080", frames_seen=3, frames_modified=0,
        carrier_bits=0, skipped_bits=0,
    )]


def test_interceptor_passes_unsupported_depth_untouched():
    data = bytearray(make_bmp(4, 2, 24))
    data[28:30] = (16).to_bytes(2, "little")
    interceptor = Interceptor(MSG)
    outputs = [interceptor.process(f) for f in segmented_frames(bytes(data), 32)]
    payloads = b"".join(f.tcp_payload for f in outputs)
    assert payloads == bytes(data)
    (state,) = interceptor.flows.values()
    assert state.verdict == "unsupported-bpp" and state.unembedded == []


def test_interceptor_ignores_non_tcp_frames():
    from netsteglab.wirecodec import parse_frame
    arp = parse_frame(b"\x00" * 12 + b"\x08\x06" + b"x" * 6)
    interceptor = Interceptor(MSG)
    assert interceptor.process(arp) is arp


def test_eight_bpp_uses_every_pixel_byte_and_spares_padding():
    file_bytes = make_bmp(3, 2, 8)
    policy = StegoPolicy(message=BitMessage.from01("111111"))
    expected = embed_oracle(file_bytes, policy)
    info = parse_bmp_info(file_bytes)
    # Padding byte positions unchanged even though all bits are ones.
    for row in range(2):
        row_base = info.pixel_offset + row * info.row_stride
        assert expected[row_base + 3] == file_bytes[row_base + 3]
        assert all(expected[row_base + p] & 1 == 1 for p in range(3))


# ---------------------------------------------------------------------------
# extraction


@pytest.mark.parametrize("coverage", [1.0, 0.5, 0.3])
def test_extract_recovers_policy_bits(coverage):
    file_bytes = make_bmp(16, 8, 24)
    policy = StegoPolicy(message=BitMessage.from01("100111"), coverage=coverage)
    stego = embed_oracle(file_bytes, policy)
    extracted = extract_from_file(stego, policy)
    assert len(extracted) == int(16 * 8 * coverage)
    assert extracted == policy.source_bits(len(extracted))


def test_extract_message_round_trip_cyclic():
    file_bytes = make_bmp(8, 8, 24)
    message = BitMessage.from_hex("c0ffee")
    policy = StegoPolicy(message=message)
    extracted = extract_from_file(embed_oracle(file_bytes, policy), policy)
    assert extracted[: len(message)] == message
    for i, bit in enumerate(extracted):
        assert bit == message[i % len(message)]


# ---------------------------------------------------------------------------
# end-to-end through the simulator


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_end_to_end_extraction_under_impairments(seed):
    file_bytes = make_bmp(24, 16, 24)
    policy = StegoPolicy(message=BitMessage.from_hex("a5c3"), coverage=1.0)
    link = LinkModel(
        propagation_ms=2.0, loss_rate=0.08, reorder_rate=0.08, jitter_ms=1.0,
        seed=seed,
    )
    interceptor = Interceptor(policy)
    trace = simulate_transfer(file_bytes, link, tap=interceptor.process, tap_delay_ns=50_000)
    assert trace.delivered == embed_oracle(file_bytes, policy)
    extracted = extract_from_file(trace.delivered, policy)
    assert extracted == policy.source_bits(24 * 16)
    for event in trace.events:
        assert tcp_checksum_ok(event.frame) and fcs_ok(event.frame)


def test_end_to_end_non_carrier_bytes_identical_to_direct_run():
    file_bytes = make_bmp(16, 16, 24)
    policy = StegoPolicy(message=BitMessage.from_hex("77"))
    link = LinkModel(seed=21)
    direct = simulate_transfer(file_bytes, link)
    interceptor = Interceptor(policy)
    stego = simulate_transfer(file_bytes, link, tap=interceptor.process)
    info = parse_bmp_info(file_bytes)
    carriers = set(carrier_map_oracle(info))
    assert len(direct.delivered) == len(stego.delivered)
    for i, (a, b) in enumerate(zip(direct.delivered, stego.delivered)):
        if i in carriers:
            assert a & 0xFE == b & 0xFE, i
        else:
            assert a == b, i


# ---------------------------------------------------------------------------
# stream processing and reports


def test_interceptor_preserves_order_and_reports():
    file_bytes = make_bmp(6, 4, 24)
    frames = segmented_frames(file_bytes, 33)
    policy = StegoPolicy(message=BitMessage.from01("01"))
    outputs, reports = run_stream(frames, policy)
    assert len(outputs) == len(frames)
    assert outputs[0].tcp.flags & TCP_SYN  # order preserved
    reassembled = bytearray(len(file_bytes))
    for frame in outputs[1:]:
        off = (frame.tcp.seq - 0x10000001) % SEQ_MOD
        reassembled[off:off + len(frame.tcp_payload)] = frame.tcp_payload
    assert bytes(reassembled) == embed_oracle(file_bytes, policy)
    [report] = reports
    assert report.flow == "10.0.0.1:40000->10.0.0.2:8080"
    assert report.frames_seen == len(frames)
    assert report.carrier_bits == 6 * 4
    assert report.frames_modified > 0
    assert report.skipped_bits == 0


def test_report_csv_shape():
    file_bytes = make_bmp(2, 2, 24)
    _, reports = run_stream(segmented_frames(file_bytes, 16), MSG)
    text = report_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == "flow,frames_seen,frames_modified,carrier_bits,skipped_bits"
    assert len(lines) == 2
    assert lines[1].startswith("10.0.0.1:40000->10.0.0.2:8080,")


def test_interceptor_passes_compressed_bmp_flows_untouched():
    data = bytearray(make_bmp(6, 4, 8))
    data[30:34] = struct.pack("<I", 1)  # BI_RLE8: the pixel bytes are a code stream
    frames = segmented_frames(bytes(data), 40)
    outputs, [report] = run_stream(frames, MSG)
    assert all(out is frame for out, frame in zip(outputs, frames))
    assert report.carrier_bits == 0 and report.frames_modified == 0


@pytest.mark.parametrize("failing", ["tcp_checksum", "fcs"])
def test_corrupted_header_frame_does_not_decide_the_flow(failing):
    """A header frame that fails its TCP checksum or its FCS passes untouched
    and is not classified from; the clean resend of the flow is embedded in full."""
    file_bytes = make_bmp(40, 30, 24)
    has_fcs = failing == "fcs"
    clean = [data_frame(off, file_bytes[off:off + 1460], with_fcs=has_fcs)
             for off in range(0, len(file_bytes), 1460)]
    flipped = b"CM" + file_bytes[2:1460]  # one bit of the "BM" magic
    if failing == "tcp_checksum":
        wire = clean[0].data.replace(file_bytes[:1460], flipped)
    else:  # a valid TCP checksum over the flipped bytes, the clean frame's FCS
        wire = data_frame(0, flipped, with_fcs=True).data[:-4] + clean[0].data[-4:]
    corrupted = parse_frame(wire, has_fcs=has_fcs)
    assert (tcp_checksum_ok(corrupted), fcs_ok(corrupted)) == (has_fcs, not has_fcs)
    outputs, [report] = run_stream([syn_frame(), corrupted, *clean], MSG)
    assert outputs[1] is corrupted
    assert all(out is not frame for out, frame in zip(outputs[2:], clean))
    assert report.frames_modified == len(clean) == 3


@pytest.mark.parametrize("failing", ["tcp_checksum", "fcs", "both"])
def test_corrupted_frame_of_a_classified_flow_is_not_laundered(failing):
    """A data frame of a BMP flow that fails its TCP checksum, its FCS or both
    passes as the identical object, still failing, and its carriers count as
    skipped until the clean resend embeds them."""
    file_bytes = make_bmp(40, 30, 24)
    has_fcs = failing != "tcp_checksum"
    clean = [data_frame(off, file_bytes[off:off + 1460], with_fcs=has_fcs)
             for off in range(0, len(file_bytes), 1460)]
    flipped = bytearray(file_bytes[1460:2920])
    flipped[100] ^= 1  # one payload bit of the second data frame
    if failing == "fcs":  # a valid TCP checksum over the flipped bytes, the clean frame's FCS
        wire = data_frame(1460, bytes(flipped), with_fcs=True).data[:-4] + clean[1].data[-4:]
    else:
        wire = clean[1].data.replace(file_bytes[1460:2920], bytes(flipped))
    corrupted = parse_frame(wire, has_fcs=has_fcs)
    verdict = (tcp_checksum_ok(corrupted), fcs_ok(corrupted))
    assert verdict == {"tcp_checksum": (False, True), "fcs": (True, False),
                       "both": (False, False)}[failing]
    interceptor = Interceptor(MSG)
    outputs = [interceptor.process(f) for f in [syn_frame(), clean[0], corrupted, clean[2]]]
    assert outputs[2] is corrupted
    assert (tcp_checksum_ok(outputs[2]), fcs_ok(outputs[2])) == verdict
    [report] = interceptor.flow_reports()
    missed = len(carrier_offsets(parse_bmp_info(file_bytes), 1460, 2920))
    assert (report.frames_modified, report.skipped_bits) == (2, missed)
    assert interceptor.process(clean[1]) is not clean[1]
    [report] = interceptor.flow_reports()
    assert (report.frames_modified, report.skipped_bits) == (3, 0)
    assert report.carrier_bits == 40 * 30


def test_flow_report_names_the_flow():
    frame = build_tcp_frame(
        src_ip="192.168.1.2", dst_ip="10.9.8.7", src_port=1234, dst_port=80, seq=0,
        flags=TCP_SYN,
    )
    _, [report] = run_stream([frame], MSG)
    assert report.flow == "192.168.1.2:1234->10.9.8.7:80"


# ---------------------------------------------------------------------------
# the row-slice engine against the per-index oracle
#
# Inputs: 8 and 24 bpp at widths 1-9 (every row-padding case), pixel bytes
# with random LSBs, stream ranges that start anywhere (mid-pixel, inside
# padding, inside the header), messages of 1-17 bits, keystreams, and the
# coverages below.  Tall images (470 rows) at width 9 hold more than 4096
# carriers, so a keystream crosses a block boundary inside them; explicit
# examples pin that case.

COVERAGES = [
    Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(3, 10), Fraction(7, 10),
    Fraction(999, 1000), Fraction(1, 1000),
    0.3,  # a float input: the policy reads it as exactly 3/10
]
BASE_SEQ = 0x10000001


@st.composite
def policies(draw):
    coverage = draw(st.sampled_from(COVERAGES))
    if draw(st.booleans()):
        bits = draw(st.lists(st.integers(0, 1), min_size=1, max_size=17))
        return StegoPolicy(message=BitMessage(bits), coverage=coverage)
    return StegoPolicy(keystream_seed=draw(st.integers(0, 1 << 16)), coverage=coverage)


@st.composite
def images(draw, tall=True):
    bpp = draw(st.sampled_from([8, 24]))
    width = draw(st.integers(1, 9))
    height = draw(st.one_of(st.integers(1, 6), st.just(470)) if tall else st.integers(1, 6))
    data = bytearray(make_bmp(width, height, bpp))
    offset = parse_bmp_info(data).pixel_offset
    noise = random.Random(draw(st.integers(0, 1 << 32)))
    data[offset:] = noise.randbytes(len(data) - offset)
    return bytes(data)


@st.composite
def windows(draw):
    """An image and a stream range [start, end) over it, up to 2 bytes past the end."""
    data = draw(images())
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data) + 2, start + 700)))
    return data, start, end


# carriers 4092..4103 of a 9x470 8-bpp image: the keystream steps from block 0 to 1
TALL = make_bmp(9, 470, 8)
BLOCK_EDGE = (TALL, 1078 + 454 * 12 + 6, 1078 + 455 * 12 + 9)


def oracle_chunk(data, start, end, policy):
    """The range's bytes after embedding, one carrier at a time."""
    out = bytearray(data[start:end])
    count = 0
    for pos, index in carrier_offsets(parse_bmp_info(data), start, end):
        if selected(policy, index):
            out[pos - start] = out[pos - start] & 0xFE | bit_at(policy, index)
            count += 1
    return bytes(out), count


@given(window=windows(), policy=policies())
@example(window=BLOCK_EDGE, policy=StegoPolicy(keystream_seed=3))
@example(window=BLOCK_EDGE, policy=StegoPolicy(keystream_seed=3, coverage=Fraction(999, 1000)))
def test_embed_in_frame_matches_per_index_oracle(window, policy):
    data, start, end = window
    chunk = data[start:end]
    state = FlowState(base_seq=BASE_SEQ, verdict=parse_bmp_info(data))
    frame = data_frame(start, chunk)
    out = _embed(frame, state, start, policy)
    expected, count = oracle_chunk(data, start, end, policy)
    assert out.tcp_payload == expected
    assert (out is frame) == (expected == chunk)
    assert state.carrier_bits == count
    assert state.frames_modified == (expected != chunk)
    assert tcp_checksum_ok(out)


@given(window=windows())
def test_carrier_slices_match_carrier_offsets(window):
    data, start, end = window
    info = parse_bmp_info(data)
    from_slices = []
    for offset, step, first, count in carrier_slices(info, start, end):
        assert count > 0
        from_slices += [(start + offset + step * k, first + k) for k in range(count)]
    assert from_slices == carrier_offsets(info, start, end)


@given(window=windows(), policy=policies())
@example(window=(TALL, 0, len(TALL)), policy=StegoPolicy(keystream_seed=3, coverage=Fraction(1, 3)))
def test_extract_from_file_matches_per_index_oracle(window, policy):
    data, _, end = window
    data = data[:max(end, 54)]  # a file cut short anywhere past its header
    info = parse_bmp_info(data)
    stop = min(info.pixel_data_end, len(data))
    expected = [
        data[pos] & 1
        for pos, index in carrier_offsets(info, info.pixel_offset, stop)
        if selected(policy, index)
    ]
    assert extract_from_file(data, policy) == BitMessage(expected)


@given(
    policy=policies(),
    lo=st.one_of(st.integers(0, 3 * 4096), st.integers(4096 - 300, 4096)),
    n=st.integers(0, 400),
)
@example(policy=StegoPolicy(keystream_seed=1), lo=4000, n=9000)
def test_policy_bits_match_source_bit(policy, lo, n):
    assert policy.bits(lo, lo + n) == bytes(source_bit(policy, j) for j in range(lo, lo + n))


@given(policy=policies(), lo=st.integers(0, 1 << 40), n=st.integers(0, 600))
@example(policy=StegoPolicy(keystream_seed=0, coverage=1 - 2 ** -53), lo=1 << 52, n=600)
def test_policy_runs_match_selected_and_bit_at(policy, lo, n):
    carriers = range(lo, lo + n)
    bits = policy.bits(policy.rank(lo), policy.rank(lo + n))
    got = {}
    runs = list(policy.runs(lo, lo + n))
    for run, take in runs:
        assert run.step == policy.coverage.denominator and take.step == policy.coverage.numerator
        assert len(carriers[run]) == len(bits[take]) > 0
        got.update(zip(carriers[run], bits[take]))
    expected = [i for i in carriers if selected(policy, i)]
    assert sorted(got) == expected
    assert len(runs) == min(policy.coverage.numerator, len(expected))
    assert bytes(got[i] for i in expected) == bytes(bit_at(policy, i) for i in expected)


@given(
    data=images(tall=False),
    policy=policies(),
    mss=st.integers(1, 200),
    early=st.lists(st.tuples(st.integers(1, 200), st.integers(0, 1 << 20)), max_size=4),
    late=st.lists(st.integers(0, 1 << 20), max_size=6),
)
# stream bytes [120, 150) resent inside the pending [100, 200)
@example(data=make_bmp(9, 6, 24), policy=MSG, mss=100, early=[(30, 2)], late=[])
def test_skipped_and_carrier_bits_match_set_semantics_when_header_arrives_last(
    data, policy, mss, early, late
):
    frames = segmented_frames(data, mss)
    header = [f for f in frames[1:] if f.tcp.seq - BASE_SEQ < 54]
    rest = [f for f in frames[1:] if f.tcp.seq - BASE_SEQ >= 54]
    # Before the header completes, resegmented retransmits overlap and nest.
    resent = []
    for other_mss, k in early:
        other = segmented_frames(data, other_mss, with_syn=False)
        other = [f for f in other if f.tcp.seq - BASE_SEQ >= 54]
        resent += [other[k % len(other)]] if other else []
    order = [frames[0]] + rest + resent + header + [rest[k % len(rest)] for k in late if rest]
    interceptor = Interceptor(policy)
    for frame in order:
        interceptor.process(frame)
    # What the tap reported when it kept one set entry per skipped bit.
    info = parse_bmp_info(data)
    skipped, written, headers_seen = set(), 0, 0
    for frame in order[1:]:
        start = frame.tcp.seq - BASE_SEQ
        headers_seen += start < 54
        chosen = {
            index
            for _, index in carrier_offsets(info, start, start + len(frame.tcp_payload))
            if selected(policy, index)
        }
        if headers_seen < len(header):
            skipped |= chosen
        else:
            skipped -= chosen
            written += len(chosen)
    [report] = interceptor.flow_reports()
    assert report.skipped_bits == len(skipped)
    assert report.carrier_bits == written


def union_oracle(spans):
    """The union of intervals [lo, hi) by sorting them all: the tap's
    original way of adding a range to its unembedded list."""
    out = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def cut_oracle(spans, lo, hi):
    """Disjoint sorted ``spans`` minus [lo, hi), by a walk over all of them."""
    out = []
    for a, b in spans:
        if a < lo:
            out.append((a, min(b, lo)))
        if b > hi:
            out.append((max(a, hi), b))
    return out


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 300), st.integers(1, 40)), max_size=60))
@example([(True, 10, 5), (True, 20, 5), (True, 15, 5), (False, 12, 10), (False, 0, 30)])
def test_unembedded_ranges_by_bisection_match_the_sorting_oracles(steps):
    """_add and _cut, in place, keep the same list as sorting every range.

    The ranges are non-empty, as the tap's are: it adds and cuts only the
    stream ranges of frames that carry payload.
    """
    spans, expected = [], []
    for adding, lo, length in steps:
        if adding:
            _add(spans, lo, lo + length)
            expected = union_oracle([*expected, (lo, lo + length)])
        else:
            _cut(spans, lo, lo + length)
            expected = cut_oracle(expected, lo, lo + length)
        assert spans == expected


@st.composite
def wrapping_flows(draw):
    """A BMP, an MSS that puts the whole header in the first segment, and a
    base sequence number that is arbitrary or within one segment of 2^32."""
    data = draw(images(tall=False))
    mss = draw(st.integers(54, 300))
    base_seq = draw(
        st.one_of(st.integers(0, SEQ_MOD - 1), st.integers(1, mss).map(lambda k: SEQ_MOD - k))
    )
    return data, mss, base_seq


@given(flow=wrapping_flows(), policy=policies())
@example(flow=(make_bmp(9, 6, 24), 60, SEQ_MOD - 30), policy=MSG)
@example(flow=(make_bmp(9, 6, 8), 54, SEQ_MOD - 54), policy=StegoPolicy(keystream_seed=5))
def test_tap_keeps_valid_frames_valid_across_sequence_wrap(flow, policy):
    data, mss, base_seq = flow
    frames = [syn_frame((base_seq - 1) % SEQ_MOD)] + [
        data_frame(off, data[off:off + mss], base_seq=base_seq, with_fcs=True)
        for off in range(0, len(data), mss)
    ]
    interceptor = Interceptor(policy)
    delivered = bytearray()
    for frame in frames:
        assert tcp_checksum_ok(frame) and fcs_ok(frame)
        out = interceptor.process(frame)
        assert tcp_checksum_ok(out) and fcs_ok(out)
        if out.tcp_payload:
            start = (out.tcp.seq - base_seq) % SEQ_MOD
            expected, _ = oracle_chunk(data, start, start + len(out.tcp_payload), policy)
            assert out.tcp_payload == expected
            delivered += out.tcp_payload
    assert bytes(delivered) == embed_oracle(data, policy)


# ---------------------------------------------------------------------------
# fuzzing: hostile flows pass through without an exception


@st.composite
def hostile_payloads(draw):
    """Arbitrary bytes, or a real BMP prefix with a few bytes overwritten,
    so that both the classifier and the embedder are reached."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=300))
    data = bytearray(make_bmp(draw(st.integers(1, 9)), draw(st.integers(1, 6)),
                              draw(st.sampled_from([8, 24])))[:300])
    for pos, value in draw(st.lists(st.tuples(st.integers(0, 53), st.integers(0, 255)),
                                    max_size=4)):
        data[pos] = value
    return bytes(data[draw(st.integers(0, len(data))):])


@given(
    segments=st.lists(
        st.tuples(st.integers(0, SEQ_MOD - 1), st.sampled_from([TCP_ACK, TCP_SYN]),
                  hostile_payloads()),
        max_size=8,
    ),
    policy=policies(),
)
def test_interceptor_process_on_arbitrary_payloads_and_sequence_numbers_raises_nothing(
    segments, policy
):
    interceptor = Interceptor(policy)
    for seq, flags, payload in segments:
        frame = build_tcp_frame(
            src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
            seq=seq, flags=flags, payload=payload,
        )
        out = interceptor.process(frame)
        assert tcp_checksum_ok(out) and len(out.tcp_payload) == len(payload)
    interceptor.flow_reports()


# ---------------------------------------------------------------------------
# the tap's two entries: frames and capture bytes


def _mixed_capture(rng: random.Random):
    """Record bytes of interleaved flows, as a capture holds them (no FCS).

    Two BMP flows (24 and 8 bpp) and a non-BMP flow, each a SYN and its
    segments, with retransmits, bad-checksum copies of some segments,
    truncated copies that fail to parse, and local reordering; among them
    ARP, IPv6, IPv4/UDP, IPv4 fragments and a bad IP version.
    """
    flows = []
    streams = ((make_bmp(12, 9, 24), 100), (make_bmp(10, 7, 8), 64), (rng.randbytes(600), 120))
    for n, (data, mss) in enumerate(streams):
        kw = dict(src_ip=f"10.0.0.{n + 1}", dst_ip="10.0.9.9", src_port=40000 + n, dst_port=80)
        isn = rng.randrange(SEQ_MOD)
        records = [build_tcp_frame(seq=isn, flags=TCP_SYN, **kw).data]
        for off in range(0, len(data), mss):
            wire = build_tcp_frame(seq=isn + 1 + off, payload=data[off:off + mss], **kw).data
            records.append(wire)
            if rng.random() < 0.2:
                records.append(wire)  # a retransmit
            if rng.random() < 0.2:
                records.append(wire[:-1] + bytes([wire[-1] ^ 1]))  # fails its TCP checksum
            if rng.random() < 0.1:
                records.append(wire[:rng.randrange(14, 54)])  # headers cut short
        records.append(build_tcp_frame(seq=isn + 1 + len(data), **kw).data)  # a bare ACK
        flows.append(records)
    kw = dict(src_ip="10.0.0.7", dst_ip="10.0.9.9", src_port=5, dst_port=6, seq=1)
    udp = bytearray(build_tcp_frame(payload=bytes(12), **kw).data)
    udp[23] = 17
    bad_version = bytearray(udp)
    bad_version[14] = 0x65
    flows.append([
        b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + bytes(28),  # ARP
        b"\x02" * 12 + b"\x86\xdd" + bytes(60),  # IPv6
        bytes(udp),
        with_ip_fields(build_tcp_frame(payload=b"frag", **kw), flags=IP_FLAG_MF).data,
        with_ip_fields(build_tcp_frame(payload=b"ment", **kw), frag_offset=3).data,
        bytes(bad_version),
        b"\x02" * 10,  # shorter than an Ethernet header
    ])
    capture = []
    while any(flows):  # interleave, each flow in its own order
        capture.append(rng.choice([f for f in flows if f]).pop(0))
    for _ in range(len(capture) // 4):  # then reorder neighbours
        i = rng.randrange(len(capture) - 1)
        capture[i], capture[i + 1] = capture[i + 1], capture[i]
    return capture


@given(st.integers(0, 10_000))
def test_process_bytes_equals_parse_frame_then_process(seed):
    capture = _mixed_capture(random.Random(seed))
    by_bytes, by_frames = Interceptor(MSG), Interceptor(MSG)
    modified = 0
    for data in capture:
        try:
            frame = parse_frame(data)
        except WireError:
            with pytest.raises(WireError):
                by_bytes.process_bytes(data)
            continue
        out = by_frames.process(frame)
        out_bytes = by_bytes.process_bytes(data)
        assert out_bytes == out.emit()
        assert (out_bytes is data) == (out is frame)
        modified += out is not frame
    assert modified > 0
    assert by_bytes.flow_reports() == by_frames.flow_reports()
    assert sum(r.frames_seen for r in by_bytes.flow_reports()) > 0


def test_process_bytes_peeks_each_record_once(monkeypatch):
    """A record's fields are read once, also when its frame is built to be
    stashed, verified or embedded."""
    from netsteglab import interceptor, wirecodec

    calls = []

    def counted(data, has_fcs=False):
        calls.append(data)
        return peek(data, has_fcs)

    capture = _mixed_capture(random.Random(3))  # built before peek_frame is counted
    peek = wirecodec.peek_frame
    monkeypatch.setattr(wirecodec, "peek_frame", counted)
    monkeypatch.setattr(interceptor, "peek_frame", counted)
    tap = Interceptor(MSG)
    modified = 0
    for data in capture:
        try:
            modified += tap.process_bytes(data) is not data
        except WireError:
            pass
    assert modified > 0
    assert len(calls) == len(capture)
    assert all(seen is data for seen, data in zip(calls, capture))
