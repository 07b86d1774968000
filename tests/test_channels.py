"""Covert-channel codec tests.

Oracles: itertools.permutations for the ordering mathematics, exhaustive
enumeration for the TTL channel, independent bit arithmetic for the frozen
field-split examples.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from netsteglab.channels import (
    BitMessage,
    CapacityExceeded,
    HopBudgetExceeded,
    HttpHeaderConfig,
    IP_STORAGE_BITS_PER_FRAME,
    LengthMismatch,
    NotIpv4,
    OddBurst,
    TimingConfig,
    TtlConfig,
    http_header_decode,
    http_header_encode,
    ip_storage_decode,
    ip_storage_encode,
    isn_decode,
    isn_encode,
    nth_permutation,
    order_capacity,
    order_decode,
    order_encode,
    permutation_index,
    timing_decode,
    timing_encode,
    ttl_capacity,
    ttl_decode,
    ttl_encode,
)
from netsteglab.wirecodec import (
    build_tcp_frame,
    fcs_ok,
    ipv4_checksum_ok,
    parse_frame,
    tcp_checksum_ok,
)

bits_lists = st.lists(st.integers(min_value=0, max_value=1), max_size=96)


def make_frames(n, payload=b"", with_fcs=False):
    return [
        build_tcp_frame(
            src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=40000, dst_port=8080,
            seq=1000 + i, payload=payload, ip_id=i + 1, with_fcs=with_fcs,
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# BitMessage


def test_bitmessage_conversions():
    msg = BitMessage.from_hex("deadbeef")
    assert len(msg) == 32
    assert msg.to_int() == 0xDEADBEEF
    assert msg.to_bytes() == b"\xde\xad\xbe\xef"
    assert msg.packed_hex() == "deadbeef"
    assert BitMessage.from01(msg.to01()) == msg
    assert BitMessage.from_int(0xDEADBEEF, 32) == msg


def test_bitmessage_msb_first():
    assert BitMessage.from_hex("80").to01() == "10000000"
    assert BitMessage.from_int(1, 3).to01() == "001"
    assert BitMessage([1, 0, 1]).to_int() == 5


def test_bitmessage_partial_byte_pads_low_end():
    assert BitMessage([1, 0, 1]).to_bytes() == b"\xa0"


def test_bitmessage_rejects_non_bits():
    with pytest.raises(ValueError):
        BitMessage([0, 2])
    with pytest.raises(ValueError):
        BitMessage.from_int(8, 3)
    with pytest.raises(ValueError, match="non-negative"):
        BitMessage.from_int(-1, 8)


@pytest.mark.parametrize("text, bits", [
    ("0xff", "11111111"), ("0XFF", "11111111"), ("ff", "11111111"),
    (" C0de\n", "1100000011011110"), ("0x", ""), ("", ""),
])
def test_bitmessage_from_hex_takes_four_bits_per_digit(text, bits):
    assert BitMessage.from_hex(text).to01() == bits


# int(text, 16) reads each of these, so a width taken from the text would be wrong.
@pytest.mark.parametrize("text", ["+ff", "-1", "f_f", "0x 1", "0x0x1", "0xff\x00", "\uff11"])
def test_bitmessage_from_hex_rejects_what_is_not_hex_digits(text):
    with pytest.raises(ValueError, match="not a hex message"):
        BitMessage.from_hex(text)


def test_bitmessage_bit_errors_over_shared_prefix():
    a = BitMessage.from01("10110")
    b = BitMessage.from01("100")
    assert a.bit_errors(b) == 1
    assert b.bit_errors(a) == 1
    assert a.bit_errors(a) == 0


def test_bitmessage_sequence_protocol():
    msg = BitMessage.from01("1101")
    assert list(msg) == [1, 1, 0, 1]
    assert msg[0] == 1 and msg[2] == 0
    assert msg[1:3] == BitMessage.from01("10")
    assert msg + BitMessage.from01("0") == BitMessage.from01("11010")
    assert hash(msg) == hash(BitMessage.from01("1101"))
    with pytest.raises(TypeError):
        msg + [0]  # only a BitMessage is joined


@given(bits_lists, bits_lists)
def test_bitmessage_conversions_match_per_bit_reference(bits, other_bits):
    msg, other = BitMessage(bits), BitMessage(other_bits)
    value = 0
    for b in bits:
        value = value * 2 + b
    assert msg.to_int() == value
    assert msg.to01() == "".join(map(str, bits))
    packed = bytearray((len(bits) + 7) // 8)
    for i, b in enumerate(bits):
        packed[i // 8] |= b << (7 - i % 8)
    assert msg.to_bytes() == bytes(packed)
    assert msg.packed_hex() == bytes(packed).hex()
    assert msg.bit_errors(other) == sum(a != b for a, b in zip(bits, other_bits))
    assert list(msg) == bits and bytes(msg) == bytes(bits)
    assert BitMessage.from01(msg.to01()) == msg
    assert BitMessage.from_int(value, len(bits)) == msg
    assert BitMessage.concat([msg, other, msg]) == msg + other + msg


def test_bitmessage_equality_ignores_construction_route():
    assert BitMessage([1, 0]) == BitMessage((b for b in (1, 0))) == BitMessage(b"\x01\x00")
    assert BitMessage([True, False]) == BitMessage("10") == BitMessage.from01("10")
    assert BitMessage([1, 0]) != BitMessage([1, 0, 0])
    assert BitMessage([1]) != (1,) and BitMessage() == BitMessage(b"")
    for bad in ([2], [-1], [256], b"\x02", "2"):
        with pytest.raises(ValueError):
            BitMessage(bad)


def test_bitmessage_random_is_seed_deterministic():
    assert BitMessage.random(64, 42) == BitMessage.random(64, 42)
    assert BitMessage.random(64, 42) != BitMessage.random(64, 43)


# ---------------------------------------------------------------------------
# IP storage channel


def test_ip_storage_frozen_field_split():
    # 0xDEADBEEF split as 16 + 3 + 13 bits: computed by hand from the
    # binary expansion 1101111010101101 101 1111011101111.
    [frame] = ip_storage_encode(BitMessage.from_hex("deadbeef"), make_frames(1))
    assert frame.ip.identification == 0xDEAD
    assert frame.ip.flags == 0b101
    assert frame.ip.frag_offset == 0x1EEF


def test_ip_storage_decode_concatenates_fields():
    frames = make_frames(2)
    out = ip_storage_encode(BitMessage.from_hex("0123456789abcdef"), frames)
    assert ip_storage_decode(out) == BitMessage.from_hex("0123456789abcdef")


@given(bits_lists)
def test_ip_storage_round_trip_with_padding(bits):
    msg = BitMessage(bits)
    n = max(1, math.ceil(len(msg) / IP_STORAGE_BITS_PER_FRAME))
    out = ip_storage_encode(msg, make_frames(n))
    decoded = ip_storage_decode(out)
    assert len(decoded) == 32 * n
    assert decoded[: len(msg)] == msg
    assert all(b == 0 for b in decoded[len(msg):])


def test_ip_storage_capacity_exceeded():
    with pytest.raises(CapacityExceeded):
        ip_storage_encode(BitMessage([0] * 33), make_frames(1))


def test_ip_storage_carrier_transparency():
    frames = make_frames(1, payload=b"data", with_fcs=True)
    [out] = ip_storage_encode(BitMessage.from_hex("cafebabe"), frames)
    a, b = frames[0].emit(), out.emit()
    assert len(a) == len(b)
    changed = {i for i, (x, y) in enumerate(zip(a, b)) if x != y}
    ip0 = 14
    allowed = {ip0 + 4, ip0 + 5, ip0 + 6, ip0 + 7}  # id, flags+offset
    allowed |= {ip0 + 10, ip0 + 11}  # header checksum
    allowed |= set(range(len(a) - 4, len(a)))  # FCS
    assert changed <= allowed
    assert ipv4_checksum_ok(out) and tcp_checksum_ok(out) and fcs_ok(out)
    # Covert bits in flags/frag_offset make the frame read as a fragment,
    # so the TCP view is (correctly) gone; the segment bytes are untouched.
    assert out.tcp is None
    assert b[ip0 + 20:ip0 + 20 + 24] == a[ip0 + 20:ip0 + 20 + 24]


def test_ip_storage_requires_ipv4():
    frame = parse_frame(b"\x00" * 12 + b"\x08\x06" + b"x" * 10)
    with pytest.raises(NotIpv4):
        ip_storage_encode(BitMessage.from_hex("00000000"), [frame])


# ---------------------------------------------------------------------------
# TTL channel


def test_ttl_frozen_example():
    # payload 0b101 with k=3: sent TTL = (5 << 5) | 31 = 191; after five
    # hops the observed TTL is 186 and decoding adds the hops back.
    cfg = TtlConfig(k=3, hop_count=5)
    [frame] = ttl_encode(BitMessage.from01("101"), make_frames(1), cfg)
    assert frame.ip.ttl == 191
    hopped = frame
    for _ in range(5):
        from netsteglab.wirecodec import with_ip_fields
        hopped = with_ip_fields(hopped, ttl=hopped.ip.ttl - 1)
    assert hopped.ip.ttl == 186
    assert ttl_decode([hopped], cfg) == BitMessage.from01("101")


def test_ttl_exhaustive_all_k_payload_hops():
    from netsteglab.wirecodec import with_ip_fields
    for k in (2, 3, 4):
        budget = (1 << (8 - k)) - 1
        for hops in range(0, budget + 1, max(1, budget // 5)):
            cfg = TtlConfig(k=k, hop_count=hops)
            for value in range(1 << k):
                msg = BitMessage.from_int(value, k)
                [frame] = ttl_encode(msg, make_frames(1), cfg)
                hopped = with_ip_fields(frame, ttl=frame.ip.ttl - hops)
                assert ttl_decode([hopped], cfg) == msg, (k, hops, value)


def test_ttl_capacity_and_multi_frame():
    cfg = TtlConfig(k=4)
    assert ttl_capacity(3, cfg) == 12
    msg = BitMessage.from_hex("abc")
    out = ttl_encode(msg, make_frames(3), cfg)
    assert ttl_decode(out, cfg) == msg


def test_ttl_hop_budget():
    with pytest.raises(HopBudgetExceeded):
        TtlConfig(k=4, hop_count=16)
    TtlConfig(k=4, hop_count=15)  # boundary fits
    with pytest.raises(ValueError):
        TtlConfig(k=5)


# ---------------------------------------------------------------------------
# ISN channel


def test_isn_round_trip_all_widths():
    rng = random.Random(7)
    for n_bits in range(1, 33):
        value = rng.randrange(1 << n_bits)
        msg = BitMessage.from_int(value, n_bits)
        isn = isn_encode(msg, n_bits, rng_seed=f"s/{n_bits}")
        assert 0 <= isn < (1 << 32)
        assert isn_decode(isn, n_bits) == msg


def test_isn_noise_is_seeded():
    msg = BitMessage.from_hex("ab")
    assert isn_encode(msg, 8, "x") == isn_encode(msg, 8, "x")
    low_a = isn_encode(msg, 8, "x") & 0xFFFFFF
    low_b = isn_encode(msg, 8, "y") & 0xFFFFFF
    assert low_a != low_b  # overwhelmingly likely; seeds fixed so stable


def test_isn_length_mismatch():
    with pytest.raises(LengthMismatch):
        isn_encode(BitMessage.from01("101"), 8, 0)
    with pytest.raises(ValueError):
        isn_encode(BitMessage.from01(""), 0, 0)
    with pytest.raises(ValueError):
        isn_decode(1 << 32, 8)
    for n_bits in (0, 33):
        with pytest.raises(ValueError, match=rf"n_bits must be in \[1, 32\], got {n_bits}"):
            isn_decode(0, n_bits)


# ---------------------------------------------------------------------------
# timing channel


def test_timing_frozen_example():
    cfg = TimingConfig(nominal_gap_ns=200_000_000, delta_ns=100_000_000)
    gaps = timing_encode(BitMessage.from01("101"), cfg)
    assert gaps == [300_000_000, 100_000_000, 300_000_000]
    assert timing_decode(gaps, cfg) == BitMessage.from01("101")


@given(bits_lists)
def test_timing_round_trip(bits):
    cfg = TimingConfig()
    msg = BitMessage(bits)
    assert timing_decode(timing_encode(msg, cfg), cfg) == msg


def test_timing_decode_survives_noise_below_delta():
    cfg = TimingConfig(nominal_gap_ns=200_000_000, delta_ns=100_000_000)
    msg = BitMessage.from01("110010")
    rng = random.Random(3)
    noisy = [g + rng.randrange(-99_999_999, 99_999_999) for g in timing_encode(msg, cfg)]
    assert timing_decode(noisy, cfg) == msg


def test_timing_config_validation():
    with pytest.raises(ValueError):
        TimingConfig(nominal_gap_ns=100, delta_ns=100)
    with pytest.raises(ValueError):
        TimingConfig(nominal_gap_ns=100, delta_ns=0)
    with pytest.raises(ValueError):
        TimingConfig(nominal_gap_ns=200, delta_ns=50, decision_threshold_ns=250)
    cfg = TimingConfig(nominal_gap_ns=200, delta_ns=50, decision_threshold_ns=249)
    assert cfg.threshold_ns == 249


# ---------------------------------------------------------------------------
# ordering channel


def test_order_encode_swaps_pairs():
    frames = make_frames(4)
    out = order_encode(BitMessage.from01("10"), frames)
    assert [f.tcp.seq for f in out] == [1001, 1000, 1002, 1003]


@given(bits_lists)
def test_order_round_trip(bits):
    msg = BitMessage(bits)
    frames = make_frames(2 * max(1, len(msg)))
    decoded = order_decode(order_encode(msg, frames))
    assert decoded[: len(msg)] == msg


def test_order_capacity_and_odd_burst():
    assert order_capacity(10) == 5
    with pytest.raises(OddBurst):
        order_encode(BitMessage.from01("1"), make_frames(3))
    with pytest.raises(OddBurst):
        order_decode(make_frames(5))
    with pytest.raises(CapacityExceeded):
        order_encode(BitMessage.from01("111"), make_frames(4))


def test_order_decode_rejects_non_tcp_frames():
    arp = parse_frame(b"\x00" * 12 + b"\x08\x06" + b"x" * 28)
    for burst in ([arp, *make_frames(1)], [*make_frames(1), arp]):
        with pytest.raises(ValueError, match="ordering channel needs TCP frames"):
            order_decode(burst)


# ---------------------------------------------------------------------------
# HTTP header ordering channel


def test_permutations_match_itertools_lexicographic_order():
    items = ("Host", "User-Agent", "Accept", "Connection")
    # Lexicographic order over *positions* (the factorial number system
    # enumerates by index into the remaining pool, not by string sort).
    expected = list(itertools.permutations(items))
    for index, perm in enumerate(expected):
        assert tuple(nth_permutation(index, items)) == perm
        assert permutation_index(perm, items) == index


def test_permutation_frozen_example():
    assert nth_permutation(5, ["A", "B", "C"]) == ["C", "B", "A"]
    assert permutation_index(["C", "B", "A"], ["A", "B", "C"]) == 5


def test_permutation_errors():
    with pytest.raises(ValueError):
        nth_permutation(6, ["A", "B", "C"])
    with pytest.raises(ValueError):
        permutation_index(["A", "B"], ["A", "B", "C"])
    with pytest.raises(ValueError):
        permutation_index(["A", "B", "X"], ["A", "B", "C"])


def test_http_capacity_is_floor_log2_factorial():
    for k in range(2, 9):
        cfg = HttpHeaderConfig(header_set=tuple(f"H{i}" for i in range(k)))
        # Oracle: the largest n with 2**n <= k!.
        n = 0
        while (1 << (n + 1)) <= math.factorial(k):
            n += 1
        assert cfg.capacity_bits == n
    assert HttpHeaderConfig().capacity_bits == 4  # 4! = 24 >= 16


def test_http_round_trip_every_value():
    cfg = HttpHeaderConfig()
    for value in range(1 << cfg.capacity_bits):
        msg = BitMessage.from_int(value, cfg.capacity_bits)
        ordering = http_header_encode(msg, cfg)
        assert sorted(ordering) == sorted(cfg.header_set)
        assert http_header_decode(ordering, cfg, n_bits=cfg.capacity_bits) == msg


def test_http_value_at_factorial_boundary():
    cfg = HttpHeaderConfig()
    # Indices 16..23 encode fine (they are valid permutations) even though
    # they need 5 bits; 24 is out of range.
    msg = BitMessage.from_int(23, 5)
    ordering = http_header_encode(msg, cfg)
    assert http_header_decode(ordering, cfg, n_bits=5) == msg
    with pytest.raises(CapacityExceeded):
        http_header_encode(BitMessage.from_int(24, 5), cfg)


def test_http_config_validation():
    with pytest.raises(ValueError):
        HttpHeaderConfig(header_set=("One",))
    with pytest.raises(ValueError):
        HttpHeaderConfig(header_set=("A", "A"))
