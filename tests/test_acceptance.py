"""Acceptance criteria for the laboratory, one verdict line per criterion.

Each test prints exactly one ``acceptance criterion N: PASS/FAIL`` line on
the real stdout (bypassing capture) and then asserts, so the verdicts are
visible in any run log.  The carrier oracles come from ``oracles.py``,
the one brute-force reference the unit tests judge the tap by as well; no
check imports from a unit-test module.
"""

import random
import time
from math import ceil

import pytest

from netsteglab.analytics import (
    OverheadRow,
    REFERENCE_IMAGES,
    REFERENCE_TESTBED_MS,
    covert_channel_yield,
    exfil_projection,
    audio_capacity,
    transfer_frame_profile,
)
from netsteglab.bmp import make_bmp, parse_bmp_info
from netsteglab.channels import (
    BitMessage,
    HttpHeaderConfig,
    TimingConfig,
    TtlConfig,
    http_header_decode,
    http_header_encode,
    ip_storage_decode,
    ip_storage_encode,
    isn_decode,
    isn_encode,
    order_decode,
    order_encode,
    timing_decode,
    timing_encode,
    ttl_decode,
    ttl_encode,
)
from netsteglab.interceptor import (
    Interceptor,
    StegoPolicy,
    carrier_slices,
    extract_from_file,
)
from netsteglab.netsim import (
    LinkModel,
    WardenConfig,
    apply_warden,
    simulate_transfer,
    trace_to_csv,
    trace_to_pcap,
)
from netsteglab.wirecodec import (
    SEQ_MOD,
    TCP_ACK,
    TCP_SYN,
    build_tcp_frame,
    fcs_ok,
    ipv4_checksum_ok,
    tcp_checksum_ok,
    write_pcap,
)
from oracles import carrier_map_oracle, embed_oracle


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    line = f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _carrier_frame(i, *, seq, payload=b"", flags=TCP_ACK, ttl=64):
    return build_tcp_frame(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
        seq=seq, flags=flags, payload=payload, ttl=ttl, ip_id=(i + 1) & 0xFFFF,
    )


# ---------------------------------------------------------------------------


def test_criterion_1_capacity_values_exact(capsys):
    started = time.monotonic()
    bits = [img.capacity_bits for img in REFERENCE_IMAGES]
    elapsed = time.monotonic() - started
    expected = [262_144, 262_144, 260_100, 262_144, 65_536, 65_536]
    ok = bits == expected and elapsed < 1.0
    _verdict(
        capsys, 1, ok,
        f"six benchmark capacities {bits} (expected {expected}) in {elapsed:.3f}s",
    )


def test_criterion_2_segmentation_arithmetic(capsys):
    profile = transfer_frame_profile(786_460, mss=1460)
    ok = abs(profile.segments - 539) <= 2 and profile.frame_size == 1514
    _verdict(
        capsys, 2, ok,
        f"786,460 B at MSS 1460 -> {profile.segments} segments "
        f"(539 +/- 2), frame size {profile.frame_size} (1514)",
    )


def test_criterion_3_yield_identities(capsys):
    got = (
        covert_channel_yield(8, 540),
        audio_capacity(44_100, 30, 4),
        exfil_projection(8, 500_000_000).bytes_per_day,
        exfil_projection(8, 500_000_000).bytes_per_year,
    )
    expected = (540, 661_500, 4_000_000_000, 1_460_000_000_000)
    ok = got == expected
    _verdict(capsys, 3, ok, f"yield identities {got} == {expected}")


def test_criterion_4_end_to_end_over_impaired_links(capsys):
    started = time.monotonic()
    width, height = 96, 64
    payload = make_bmp(width, height, 24)
    policy = StegoPolicy(message=BitMessage.from_hex("a5c3f00d"))
    expected_bits = policy.source_bits(width * height)
    rng = random.Random("acceptance/4")
    failures = []
    for run in range(50):
        if run < 3:  # pin the corner of the allowed impairment box
            loss, reorder, jitter = 0.10, 0.10, 5.0
        else:
            loss = rng.uniform(0, 0.10)
            reorder = rng.uniform(0, 0.10)
            jitter = rng.uniform(0, 5.0)
        link = LinkModel(
            loss_rate=loss, reorder_rate=reorder, jitter_ms=jitter, seed=1000 + run
        )
        direct = simulate_transfer(payload, link)
        interceptor = Interceptor(policy)
        stego = simulate_transfer(
            payload, link, tap=interceptor.process, tap_delay_ns=50_000
        )
        if extract_from_file(stego.delivered, policy) != expected_bits:
            failures.append(f"run {run}: extraction not bit-exact")
        carriers = set(carrier_map_oracle(parse_bmp_info(payload)))
        bad = [
            i for i, (a, b) in enumerate(zip(direct.delivered, stego.delivered))
            if a != b and i not in carriers
        ]
        if bad:
            failures.append(f"run {run}: non-carrier bytes differ at {bad[:3]}")
        for event in stego.events:
            frame = event.frame
            if not (ipv4_checksum_ok(frame) and tcp_checksum_ok(frame) and fcs_ok(frame)):
                failures.append(f"run {run}: bad checksum on {event.kind}")
                break
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 60.0
    detail = (
        f"50 impaired runs (loss<=10%, reorder<=10%, jitter<=5ms): "
        f"{50 - len(failures)}/50 bit-exact with valid checksums in {elapsed:.1f}s"
    )
    if failures:
        detail += f"; first failure: {failures[0]}"
    _verdict(capsys, 4, ok, detail)


def test_criterion_5_channel_round_trips(capsys):
    rng = random.Random("acceptance/5")
    failures = []

    def check(channel, trial, sent, got):
        if got != sent:
            failures.append(f"{channel} trial {trial}")

    for trial in range(200):
        # IP storage: exactly 32 bits per frame.
        n = rng.randint(1, 8)
        msg = BitMessage.random(32 * n, f"a5/ip/{trial}")
        frames = [_carrier_frame(i, seq=100 + i) for i in range(n)]
        out = ip_storage_encode(msg, frames)
        if len(out) != n:
            failures.append(f"ip-storage trial {trial}: frame count")
        check("ip-storage", trial, msg, ip_storage_decode(out))

        # TTL: exactly k bits per frame.
        cfg = TtlConfig(k=rng.choice((2, 3, 4)), hop_count=0)
        n = rng.randint(1, 8)
        msg = BitMessage.random(cfg.k * n, f"a5/ttl/{trial}")
        frames = [_carrier_frame(i, seq=200 + i) for i in range(n)]
        out = ttl_encode(msg, frames, cfg)
        if len(out) != n:
            failures.append(f"ttl trial {trial}: frame count")
        check("ttl", trial, msg, ttl_decode(out, cfg))

        # ISN: n bits inside one SYN.
        n_bits = rng.randint(1, 16)
        msg = BitMessage.random(n_bits, f"a5/isn/{trial}")
        isn = isn_encode(msg, n_bits, f"a5/isn/rng/{trial}")
        check("isn", trial, msg, isn_decode(isn, n_bits))

        # Timing: one bit per inter-packet gap.
        msg = BitMessage.random(rng.randint(1, 64), f"a5/timing/{trial}")
        timing_cfg = TimingConfig()
        check(
            "timing", trial, msg,
            timing_decode(timing_encode(msg, timing_cfg), timing_cfg),
        )

        # Order: one bit per frame pair.
        pairs = rng.randint(1, 8)
        msg = BitMessage.random(pairs, f"a5/order/{trial}")
        frames = [_carrier_frame(i, seq=300 + i) for i in range(2 * pairs)]
        check("order", trial, msg, order_decode(order_encode(msg, frames)))

        # HTTP header order: full permutation-code width.
        cfg = HttpHeaderConfig()
        msg = BitMessage.random(cfg.capacity_bits, f"a5/http/{trial}")
        ordering = http_header_encode(msg, cfg)
        check(
            "http-order", trial, msg,
            http_header_decode(ordering, cfg, n_bits=cfg.capacity_bits),
        )
    ok = not failures
    detail = "6 channels x 200 max-capacity round-trips, 32 bits/frame (IP), k bits/frame (TTL)"
    if failures:
        detail += f"; {len(failures)} failed, first: {failures[0]}"
    _verdict(capsys, 5, ok, detail)


def test_criterion_6_warden_effects(capsys):
    # Passive warden: byte-diff of the whole trace is empty.
    payload = make_bmp(16, 8, 24)
    link = LinkModel(seed=77, jitter_ms=1.0)
    plain = simulate_transfer(payload, link)
    watched = simulate_transfer(payload, link, warden=WardenConfig(mode="passive"))
    passive_clean = [e.frame.emit() for e in plain.events] == [
        e.frame.emit() for e in watched.events
    ]

    # Active warden rewriting TTLs floors the TTL channel.
    cfg = TtlConfig(k=3, hop_count=0)
    warden = WardenConfig(mode="active", normalizations=frozenset({"rewrite_ttl"}))
    errors = total = 0
    checksums_ok = True
    for trial in range(100):
        msg = BitMessage.random(15, f"a6/{trial}")
        frames = ttl_encode(msg, [_carrier_frame(i, seq=i) for i in range(5)], cfg)
        rng = random.Random(f"a6/warden/{trial}")
        mangled = [apply_warden(f, warden, rng) for f in frames]
        checksums_ok = checksums_ok and all(
            ipv4_checksum_ok(f) and tcp_checksum_ok(f) for f in mangled
        )
        errors += ttl_decode(mangled, cfg).bit_errors(msg)
        total += len(msg)
    ber = errors / total
    ok = passive_clean and ber >= 0.25 and checksums_ok
    _verdict(
        capsys, 6, ok,
        f"passive byte-diff empty: {passive_clean}; active rewrite_ttl BER "
        f"{ber:.2%} (>= 25%) with checksums valid: {checksums_ok}",
    )


def test_criterion_7_determinism(capsys, tmp_path):
    payload = make_bmp(24, 16, 24)
    policy = StegoPolicy(message=BitMessage.from_hex("1dea"))
    artifacts = []
    for attempt in ("first", "second"):
        link = LinkModel(loss_rate=0.06, reorder_rate=0.06, jitter_ms=2.0, seed=99)
        interceptor = Interceptor(policy)
        trace = simulate_transfer(
            payload, link, tap=interceptor.process, tap_delay_ns=50_000
        )
        pcap_path = tmp_path / f"{attempt}.pcap"
        write_pcap(str(pcap_path), trace_to_pcap(trace))
        artifacts.append(
            (
                pcap_path.read_bytes(),
                trace_to_csv(trace),
                trace.total_time_ns,
                trace.delivered,
            )
        )
    ok = artifacts[0] == artifacts[1]
    _verdict(
        capsys, 7, ok,
        "same seed twice -> bit-identical pcap, trace CSV, timing, delivery",
    )


def test_criterion_8_overhead_shape(capsys):
    printed_deltas = [575.35, 558.97, 450.05, 543.67, 35.54, 34.64]
    recomputed_ok = all(
        abs(row.delta_ms - printed) <= 0.01 + 1e-9
        for row, printed in zip(REFERENCE_TESTBED_MS, printed_deltas)
    )

    deltas = {}
    for img in REFERENCE_IMAGES:
        payload = make_bmp(img.width, img.height, img.bpp)
        link = LinkModel(seed=8)
        direct = simulate_transfer(payload, link)
        interceptor = Interceptor(StegoPolicy(keystream_seed=8))
        tapped = simulate_transfer(
            payload, link, tap=interceptor.process, tap_delay_ns=50_000
        )
        row = OverheadRow(
            img.name, img.size_kb, direct.total_time_ns / 1e6, tapped.total_time_ns / 1e6
        )
        deltas[img.name] = (len(payload), row.delta_ms)
    nonneg = all(delta >= 0 for _, delta in deltas.values())
    ordered = sorted(deltas.values())
    monotone = all(
        a_delta <= b_delta
        for (_, a_delta), (_, b_delta) in zip(ordered, ordered[1:])
    )
    ok = recomputed_ok and nonneg and monotone
    _verdict(
        capsys, 8, ok,
        f"printed difference column reproduced within +/-0.01 ms: {recomputed_ok}; "
        f"simulated overhead nonnegative: {nonneg}, size-monotone: {monotone}",
    )


def test_criterion_9_oracle_equivalence_every_segmentation(capsys):
    file_bytes = make_bmp(4, 4, 24)
    policy = StegoPolicy(message=BitMessage.from_hex("9e"))
    info = parse_bmp_info(file_bytes)

    offsets_ok = [
        (offset + step * k, first + k)
        for offset, step, first, count in carrier_slices(info, 0, len(file_bytes))
        for k in range(count)
    ] == sorted(
        carrier_map_oracle(info).items()
    )

    expected = embed_oracle(file_bytes, policy)
    base_seq = 0x10000001
    mismatches = []
    for mss in range(1, len(file_bytes) + 1):
        interceptor = Interceptor(policy)
        interceptor.process(
            build_tcp_frame(
                src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000,
                dst_port=8080, seq=base_seq - 1, flags=TCP_SYN,
            )
        )
        out = bytearray(len(file_bytes))
        for off in range(0, len(file_bytes), mss):
            chunk = file_bytes[off:off + mss]
            frame = build_tcp_frame(
                src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000,
                dst_port=8080, seq=(base_seq + off) % SEQ_MOD, flags=TCP_ACK,
                payload=chunk,
            )
            processed = interceptor.process(frame)
            out[off:off + len(chunk)] = processed.tcp_payload
        if bytes(out) != expected:
            mismatches.append(mss)
    ok = offsets_ok and not mismatches
    detail = (
        f"4x4 BMP ({len(file_bytes)} B): carrier map matches brute force, "
        f"embedding matches for all {len(file_bytes)} segmentations"
    )
    if mismatches:
        detail += f"; mismatched MSS values: {mismatches[:5]}"
    _verdict(capsys, 9, ok, detail)
