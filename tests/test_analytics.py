"""Capacity, yield, overhead, and taxonomy arithmetic.

Expected values are hand-derived closed forms (e.g. 512*512 red-layer
bits, ceil(786460/1460) segments) and frozen benchmark rows; the code
under test must reproduce them exactly, or within the stated millisecond
tolerance for the recorded testbed timings.
"""

import csv
import io
import math

import pytest

from netsteglab.analytics import (
    DataState,
    ImageSpec,
    ModificationLocus,
    OverheadRow,
    REFERENCE_IMAGES,
    REFERENCE_TESTBED_MS,
    StegoClass,
    TaxonomyInput,
    audio_capacity,
    capacity_table_csv,
    classify_taxonomy,
    covert_channel_yield,
    exfil_projection,
    lsb_capacity,
    render_capacity_table,
    render_overhead_table,
    transfer_frame_profile,
)
from netsteglab.bmp import bmp_file_size
from netsteglab.netsim import LinkModel, simulate_transfer

DAR, DIM, DIU = DataState.DAR, DataState.DIM, DataState.DIU
PRE = ModificationLocus.PRE_TRANSIT
TRANSIT = ModificationLocus.IN_TRANSIT
RUNTIME = ModificationLocus.RUNTIME


# ---------------------------------------------------------------------------
# taxonomy


# Hand-derived classification for every non-empty state subset and locus:
# no motion -> non-network; motion+rest -> II; motion+use -> III;
# motion-only in transit -> IV; motion-only elsewhere -> I.
TAXONOMY_CASES = {
    (frozenset({DAR}), PRE): StegoClass.NON_NETWORK,
    (frozenset({DAR}), TRANSIT): StegoClass.NON_NETWORK,
    (frozenset({DAR}), RUNTIME): StegoClass.NON_NETWORK,
    (frozenset({DIU}), PRE): StegoClass.NON_NETWORK,
    (frozenset({DIU}), TRANSIT): StegoClass.NON_NETWORK,
    (frozenset({DIU}), RUNTIME): StegoClass.NON_NETWORK,
    (frozenset({DAR, DIU}), PRE): StegoClass.NON_NETWORK,
    (frozenset({DAR, DIU}), TRANSIT): StegoClass.NON_NETWORK,
    (frozenset({DAR, DIU}), RUNTIME): StegoClass.NON_NETWORK,
    (frozenset({DAR, DIM}), PRE): StegoClass.NPS,
    (frozenset({DAR, DIM}), TRANSIT): StegoClass.NPS,
    (frozenset({DAR, DIM}), RUNTIME): StegoClass.NPS,
    (frozenset({DAR, DIM, DIU}), PRE): StegoClass.NPS,
    (frozenset({DAR, DIM, DIU}), TRANSIT): StegoClass.NPS,
    (frozenset({DAR, DIM, DIU}), RUNTIME): StegoClass.NPS,
    (frozenset({DIM, DIU}), PRE): StegoClass.RT_ANS,
    (frozenset({DIM, DIU}), TRANSIT): StegoClass.RT_ANS,
    (frozenset({DIM, DIU}), RUNTIME): StegoClass.RT_ANS,
    (frozenset({DIM}), TRANSIT): StegoClass.RT_NDS,
    (frozenset({DIM}), PRE): StegoClass.RT_NS,
    (frozenset({DIM}), RUNTIME): StegoClass.RT_NS,
}


def test_taxonomy_covers_every_state_and_locus_combination():
    assert len(TAXONOMY_CASES) == 7 * 3
    for (states, locus), expected in TAXONOMY_CASES.items():
        got = classify_taxonomy(TaxonomyInput(states, locus))
        assert got is expected, (sorted(s.value for s in states), locus.value)


def test_taxonomy_worked_examples():
    # Embed into a stored file, then send it: packet steganography.
    inp = TaxonomyInput(frozenset({DAR, DIM}), PRE)
    assert classify_taxonomy(inp) is StegoClass.NPS
    # Modify traffic only while it is on the wire: RT-NDS.
    inp = TaxonomyInput(frozenset({DIM}), TRANSIT)
    assert classify_taxonomy(inp) is StegoClass.RT_NDS
    # Never touches the network at all.
    inp = TaxonomyInput(frozenset({DAR}), RUNTIME)
    assert classify_taxonomy(inp) is StegoClass.NON_NETWORK


def test_taxonomy_labels():
    assert StegoClass.RT_NDS.label == "Class IV (RT-NDS)"
    assert StegoClass.RT_NS.label == "Class I (RT-NS)"
    assert StegoClass.NPS.label == "Class II (NPS)"
    assert StegoClass.RT_ANS.label == "Class III (RT-ANS)"
    assert StegoClass.NON_NETWORK.label == "non-network steganography"
    assert StegoClass.RT_NDS.numeral == "IV"
    assert StegoClass.RT_NDS.abbreviation == "RT-NDS"


def test_taxonomy_input_validation():
    with pytest.raises(ValueError):
        TaxonomyInput(frozenset(), TRANSIT)
    with pytest.raises(TypeError):
        TaxonomyInput(frozenset({"dim"}), TRANSIT)


def test_taxonomy_input_normalizes_iterables():
    inp = TaxonomyInput({DIM}, TRANSIT)
    assert inp.data_states == frozenset({DIM})


# ---------------------------------------------------------------------------
# capacity


def test_lsb_capacity_red_layer_of_rgb_512():
    assert lsb_capacity(512, 512) == 262_144


def test_lsb_capacity_510_grayscale_benchmark():
    assert lsb_capacity(510, 510) == 260_100


def test_lsb_capacity_256_8bpp():
    assert lsb_capacity(256, 256) == 65_536


def test_lsb_capacity_validation():
    for bad in [(0, 5), (5, 0)]:
        with pytest.raises(ValueError):
            lsb_capacity(*bad)
    # One bit per pixel of one plane: a third positional is not a bpp.
    with pytest.raises(TypeError):
        lsb_capacity(5, 5, 24)


def test_audio_capacity_pcm_identities():
    assert audio_capacity(44_100, 30, 4) == 661_500
    assert audio_capacity(44_100, 30, 1) == 165_375
    assert audio_capacity(0, 30, 4) == 0
    assert audio_capacity(44_100, 0, 4) == 0
    with pytest.raises(ValueError):
        audio_capacity(-1, 30, 4)


# ---------------------------------------------------------------------------
# frame profile and yield


def test_transfer_frame_profile_reference_file():
    profile = transfer_frame_profile(786_460, mss=1460)
    assert profile.segments == 539
    assert profile.frame_size == 1514
    assert profile.wire_bytes == 786_460 + 54 * 539
    # Independent check of the segment count.
    assert 538 * 1460 < 786_460 <= 539 * 1460


@pytest.mark.parametrize(
    "file_bytes,mss",
    [(1, 1460), (1460, 1460), (1461, 1460), (2920, 1460), (100, 1), (786_486, 1460)],
)
def test_transfer_frame_profile_segment_arithmetic(file_bytes, mss):
    profile = transfer_frame_profile(file_bytes, mss=mss)
    assert profile.segments == math.ceil(file_bytes / mss)
    assert profile.frame_size == mss + 54
    assert profile.wire_bytes == file_bytes + 54 * profile.segments


def test_transfer_frame_profile_empty_and_invalid():
    profile = transfer_frame_profile(0)
    assert profile == (0, 1514, 0)
    with pytest.raises(ValueError):
        transfer_frame_profile(-1)
    with pytest.raises(ValueError):
        transfer_frame_profile(10, mss=0)


def test_covert_channel_yield_identities():
    assert covert_channel_yield(8, 540) == 540
    assert covert_channel_yield(32, 540) == 2_160
    assert covert_channel_yield(3, 7) == 2  # floor of 21/8
    assert covert_channel_yield(0, 1000) == 0
    with pytest.raises(ValueError):
        covert_channel_yield(-1, 10)


def test_exfil_projection_identities():
    proj = exfil_projection(8, 500_000_000)
    assert proj.bytes_per_day == 4_000_000_000
    assert proj.bytes_per_year == 1_460_000_000_000
    assert exfil_projection(0, 0) == (0, 0)
    with pytest.raises(ValueError):
        exfil_projection(-1, 5)


# ---------------------------------------------------------------------------
# overhead


def test_overhead_report_from_measured_milliseconds():
    report = OverheadRow("Peppers", 768, 85.67, 661.01)
    assert report.direct_ms == pytest.approx(85.67)
    assert report.delta_ms == pytest.approx(575.34, abs=1e-9)
    assert report.ratio == pytest.approx(661.01 / 85.67)


def test_overhead_report_zero_baseline():
    assert OverheadRow("X", 0, 0, 0).ratio == 1.0
    assert OverheadRow("X", 0, 0, 5.0).ratio == math.inf


def test_overhead_report_from_simulated_traces():
    payload = b"\x5a" * 6000
    link = LinkModel(seed=3)
    direct = simulate_transfer(payload, link)
    stego = simulate_transfer(
        payload, link, tap=lambda frame: frame, tap_delay_ns=50_000
    )
    report = OverheadRow("X", 6, direct.total_time_ns / 1e6, stego.total_time_ns / 1e6)
    assert report.delta_ms > 0
    # Every window round crosses the tap twice, 50 us per crossing.
    rounds = round(report.delta_ms * 1e6 / (2 * 50_000))
    assert report.delta_ms * 1e6 == pytest.approx(rounds * 2 * 50_000)
    assert report.ratio > 1.0


# ---------------------------------------------------------------------------
# reference tables


EXPECTED_CAPACITY_ROWS = [
    ("Peppers", "RGB", "512x512x3", 768, 262_144),
    ("Baboon", "RGB", "512x512x3", 768, 262_144),
    ("Barbara", "Grayscale", "510x510x3", 763, 260_100),
    ("Lena", "Grayscale", "512x512x3", 768, 262_144),
    ("Diamond", "Grayscale", "256x256x1", 65, 65_536),
    ("House", "Grayscale", "256x256x1", 65, 65_536),
]


def test_capacity_table_frozen_rows():
    rows = [
        (r.name, r.structure, r.dimensions, r.size_kb, r.capacity_bits)
        for r in REFERENCE_IMAGES
    ]
    assert rows == EXPECTED_CAPACITY_ROWS


def test_capacity_table_sizes_follow_file_layout():
    for img in REFERENCE_IMAGES:
        assert img.file_bytes == bmp_file_size(img.width, img.height, img.bpp)
        assert img.size_kb == round(img.file_bytes / 1024)


def test_image_spec_properties():
    spec = ImageSpec("X", "RGB", 512, 512, 24)
    assert spec.dimensions == "512x512x3"
    assert spec.file_bytes == 786_486
    assert spec.capacity_bits == 262_144


# Published difference column for the recorded testbed rows; reproduced to
# within a hundredth of a millisecond (one row was printed with the final
# digit rounded the other way).
PRINTED_DELTAS = [575.35, 558.97, 450.05, 543.67, 35.54, 34.64]


def test_reference_overhead_rows_recompute_difference_column():
    rows = REFERENCE_TESTBED_MS
    assert [r.name for r in rows] == [
        "Peppers", "Baboon", "Barbara", "Lena", "Diamond", "House",
    ]
    for row, printed in zip(rows, PRINTED_DELTAS):
        assert row.delta_ms == pytest.approx(row.stego_ms - row.direct_ms)
        assert abs(row.delta_ms - printed) <= 0.01 + 1e-9, row.name
        assert row.ratio == pytest.approx(row.stego_ms / row.direct_ms)


def test_reference_testbed_rows_are_frozen():
    assert REFERENCE_TESTBED_MS[0] == ("Peppers", 768, 85.67, 661.01)
    assert REFERENCE_TESTBED_MS[4] == ("Diamond", 65, 7.28, 42.82)
    assert len(REFERENCE_TESTBED_MS) == 6


# ---------------------------------------------------------------------------
# rendering


def test_render_capacity_table_layout():
    text = render_capacity_table()
    lines = text.splitlines()
    assert lines[0].startswith("Image")
    assert "LSB capacity (bits)" in lines[0]
    assert len(lines) == 2 + 6  # header, rule, six rows
    assert any("262,144" in line for line in lines)
    assert any(line.startswith("Barbara") for line in lines)


def test_render_overhead_table_layout():
    text = render_overhead_table()
    lines = text.splitlines()
    assert "Difference (ms)" in lines[0]
    assert len(lines) == 2 + 6
    assert any("575.34" in line for line in lines)


def test_capacity_table_csv_parses():
    rows = list(csv.DictReader(io.StringIO(capacity_table_csv())))
    assert len(rows) == 6
    assert rows[0]["image"] == "Peppers"
    assert int(rows[0]["capacity_bits"]) == 262_144
    assert rows[2]["dimensions"] == "510x510x3"


# The three reference tables byte for byte: the paper's rows as the CLI and
# demo 06 print them and as `capacity --out-dir` writes them.
PINNED_CAPACITY_TEXT = """\
Image    Structure  Dimensions  Size (KB)  LSB capacity (bits)
-------  ---------  ----------  ---------  -------------------
Peppers  RGB        512x512x3   768        262,144
Baboon   RGB        512x512x3   768        262,144
Barbara  Grayscale  510x510x3   763        260,100
Lena     Grayscale  512x512x3   768        262,144
Diamond  Grayscale  256x256x1   65         65,536
House    Grayscale  256x256x1   65         65,536
"""

PINNED_CAPACITY_CSV = """\
image,structure,dimensions,size_kb,capacity_bits
Peppers,RGB,512x512x3,768,262144
Baboon,RGB,512x512x3,768,262144
Barbara,Grayscale,510x510x3,763,260100
Lena,Grayscale,512x512x3,768,262144
Diamond,Grayscale,256x256x1,65,65536
House,Grayscale,256x256x1,65,65536
"""

PINNED_OVERHEAD_TEXT = """\
Image    Size (KB)  Direct (ms)  RT-NDS (ms)  Difference (ms)  Ratio
-------  ---------  -----------  -----------  ---------------  -----
Peppers  768        85.67        661.01       575.34           7.72
Baboon   768        83.15        642.12       558.97           7.72
Barbara  764        81.18        531.23       450.05           6.54
Lena     768        83.48        627.15       543.67           7.51
Diamond  65         7.28         42.82        35.54            5.88
House    65         8.59         43.23        34.64            5.03
"""


@pytest.mark.parametrize(
    "render,expected",
    [
        (render_capacity_table, PINNED_CAPACITY_TEXT),
        (capacity_table_csv, PINNED_CAPACITY_CSV),
        (render_overhead_table, PINNED_OVERHEAD_TEXT),
    ],
    ids=["capacity-text", "capacity-csv", "overhead-text"],
)
def test_reference_tables_are_pinned_byte_for_byte(render, expected):
    assert render() == expected
