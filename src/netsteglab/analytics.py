"""Closed-form capacity, throughput and overhead calculators, plus the
four-class covert-channel taxonomy.

Everything here is pure arithmetic on declared assumptions: LSB carrier
capacity of images and audio, TCP segmentation profiles, covert-channel
yield, long-run exfiltration projections, and transfer-overhead deltas.
The module also carries the reference benchmark-image set (Peppers, Baboon,
Barbara, Lena, Diamond, House) and recorded testbed timings for the RT-NDS
prototype, with renderers for aligned-text and CSV tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import ceil, inf
from typing import Iterable, NamedTuple, Sequence, Tuple, Union

from .bmp import bmp_file_size
from .wirecodec import ETH_HEADER_LEN, IPV4_MIN_HEADER, TCP_MIN_HEADER

__all__ = [
    "DataState",
    "ModificationLocus",
    "TaxonomyInput",
    "StegoClass",
    "classify_taxonomy",
    "lsb_capacity",
    "audio_capacity",
    "TransferFrameProfile",
    "transfer_frame_profile",
    "covert_channel_yield",
    "ExfilProjection",
    "exfil_projection",
    "OverheadRow",
    "ImageSpec",
    "REFERENCE_IMAGES",
    "REFERENCE_TESTBED_MS",
    "render_capacity_table",
    "capacity_table_csv",
    "render_overhead_table",
]


# ---------------------------------------------------------------------------
# taxonomy


class DataState(Enum):
    """Where the covert carrier lives when it is modified."""

    DAR = "dar"  # data at rest
    DIM = "dim"  # data in motion
    DIU = "diu"  # data in use


class ModificationLocus(Enum):
    """Where on the path the embedding happens."""

    PRE_TRANSIT = "end-node-pre-transit"
    IN_TRANSIT = "in-transit"
    RUNTIME = "application-runtime"


@dataclass(frozen=True)
class TaxonomyInput:
    data_states: frozenset
    modification_locus: ModificationLocus

    def __post_init__(self) -> None:
        states = frozenset(self.data_states)
        if not states:
            raise ValueError("data_states must be non-empty")
        if not all(isinstance(s, DataState) for s in states):
            raise TypeError("data_states must contain DataState members")
        object.__setattr__(self, "data_states", states)


class StegoClass(Enum):
    """The four network-steganography classes plus the non-network bucket."""

    RT_NS = ("I", "RT-NS", "real-time network steganography (umbrella)")
    NPS = ("II", "NPS", "network packet steganography: embed at rest, then transmit")
    RT_ANS = ("III", "RT-ANS", "real-time application network steganography")
    RT_NDS = ("IV", "RT-NDS", "real-time network data steganography: modify in transit")
    NON_NETWORK = ("non-network", "non-network", "carrier never in motion")

    @property
    def numeral(self) -> str:
        return self.value[0]

    @property
    def abbreviation(self) -> str:
        return self.value[1]

    @property
    def label(self) -> str:
        if self is StegoClass.NON_NETWORK:
            return "non-network steganography"
        return f"Class {self.numeral} ({self.abbreviation})"


def classify_taxonomy(inp: TaxonomyInput) -> StegoClass:
    """Place a technique by its data states and modification locus.

    Precedence: no data-in-motion involvement at all is non-network; touching
    stored data that later moves is Class II; touching data in use that also
    moves is Class III; modifying only in-motion data while it is in transit
    is Class IV (RT-NDS); any other in-motion technique falls under the
    Class I umbrella.
    """
    states = inp.data_states
    if DataState.DIM not in states:
        return StegoClass.NON_NETWORK
    if DataState.DAR in states:
        return StegoClass.NPS
    if DataState.DIU in states:
        return StegoClass.RT_ANS
    if inp.modification_locus is ModificationLocus.IN_TRANSIT:
        return StegoClass.RT_NDS
    return StegoClass.RT_NS


# ---------------------------------------------------------------------------
# capacity arithmetic


def lsb_capacity(width: int, height: int) -> int:
    """LSB capacity in bits: one bit per pixel of one plane (red of RGB, or grayscale)."""
    if min(width, height) < 1:
        raise ValueError("all capacity parameters must be >= 1")
    return width * height


def audio_capacity(
    sample_rate: int, seconds: Union[int, float], bits_per_sample_embedded: int
) -> int:
    """Bytes embeddable in a PCM stream at the given per-sample depth."""
    if min(sample_rate, seconds, bits_per_sample_embedded) < 0:
        raise ValueError("audio capacity parameters must be >= 0")
    return int(sample_rate * seconds * bits_per_sample_embedded) // 8


class TransferFrameProfile(NamedTuple):
    segments: int
    frame_size: int
    wire_bytes: int


def transfer_frame_profile(file_bytes: int, mss: int = 1460) -> TransferFrameProfile:
    """Segment count and wire footprint of a file pushed through TCP.

    ``frame_size`` is the on-wire size of a full segment, with minimal TCP,
    IPv4 and Ethernet headers and no FCS; ``wire_bytes`` sums the actual
    per-frame sizes including the short final segment.
    """
    if file_bytes < 0:
        raise ValueError("file_bytes must be >= 0")
    if mss < 1:
        raise ValueError("mss must be >= 1")
    overhead = TCP_MIN_HEADER + IPV4_MIN_HEADER + ETH_HEADER_LEN
    segments = ceil(file_bytes / mss)
    return TransferFrameProfile(
        segments=segments,
        frame_size=mss + overhead,
        wire_bytes=file_bytes + overhead * segments,
    )


def covert_channel_yield(bits_per_packet: int, packets: int) -> int:
    """Covert bytes moved by a header channel across a packet budget."""
    if bits_per_packet < 0 or packets < 0:
        raise ValueError("yield parameters must be >= 0")
    return (bits_per_packet * packets) // 8


class ExfilProjection(NamedTuple):
    bytes_per_day: int
    bytes_per_year: int


def exfil_projection(bytes_per_packet: int, packets_per_day: int) -> ExfilProjection:
    """Long-run exfiltration volume at a fixed covert payload per packet."""
    if bytes_per_packet < 0 or packets_per_day < 0:
        raise ValueError("projection parameters must be >= 0")
    per_day = bytes_per_packet * packets_per_day
    return ExfilProjection(per_day, per_day * 365)


# ---------------------------------------------------------------------------
# the paper's two tables: one record per row


class OverheadRow(NamedTuple):
    """Transfer time of one file sent directly and through the tap."""

    name: str
    size_kb: int
    direct_ms: float
    stego_ms: float

    @property
    def delta_ms(self) -> float:
        return self.stego_ms - self.direct_ms

    @property
    def ratio(self) -> float:
        if self.direct_ms == 0:
            return 1.0 if self.stego_ms == 0 else inf
        return self.stego_ms / self.direct_ms


@dataclass(frozen=True)
class ImageSpec:
    """A benchmark image: geometry and storage depth, one carrier plane."""

    name: str
    structure: str
    width: int
    height: int
    bpp: int

    @property
    def dimensions(self) -> str:
        return f"{self.width}x{self.height}x{self.bpp // 8}"

    @property
    def file_bytes(self) -> int:
        return bmp_file_size(self.width, self.height, self.bpp)

    @property
    def size_kb(self) -> int:
        return round(self.file_bytes / 1024)

    @property
    def capacity_bits(self) -> int:
        return lsb_capacity(self.width, self.height)


# The standard image-processing benchmark set used throughout: RGB images
# carry covert data in the red plane only, so every entry has one carrier
# layer and capacity = width * height bits.
REFERENCE_IMAGES: Tuple[ImageSpec, ...] = (
    ImageSpec("Peppers", "RGB", 512, 512, 24),
    ImageSpec("Baboon", "RGB", 512, 512, 24),
    ImageSpec("Barbara", "Grayscale", 510, 510, 24),
    ImageSpec("Lena", "Grayscale", 512, 512, 24),
    ImageSpec("Diamond", "Grayscale", 256, 256, 8),
    ImageSpec("House", "Grayscale", 256, 256, 8),
)

# Wall-clock transfer times measured on the original RT-NDS prototype's
# physical testbed.  Absolute values are hardware-specific and are not
# simulation targets; only the difference arithmetic is reproduced.
REFERENCE_TESTBED_MS: Tuple[OverheadRow, ...] = (
    OverheadRow("Peppers", 768, 85.67, 661.01),
    OverheadRow("Baboon", 768, 83.15, 642.12),
    OverheadRow("Barbara", 764, 81.18, 531.23),
    OverheadRow("Lena", 768, 83.48, 627.15),
    OverheadRow("Diamond", 65, 7.28, 42.82),
    OverheadRow("House", 65, 8.59, 43.23),
)


# ---------------------------------------------------------------------------
# rendering


def _render_aligned(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    table = [list(header)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_capacity_table() -> str:
    rows = [
        (r.name, r.structure, r.dimensions, str(r.size_kb), f"{r.capacity_bits:,}")
        for r in REFERENCE_IMAGES
    ]
    return _render_aligned(
        ("Image", "Structure", "Dimensions", "Size (KB)", "LSB capacity (bits)"), rows
    )


def capacity_table_csv() -> str:
    lines = ["image,structure,dimensions,size_kb,capacity_bits"]
    for r in REFERENCE_IMAGES:
        lines.append(
            f"{r.name},{r.structure},{r.dimensions},{r.size_kb},{r.capacity_bits}"
        )
    return "\n".join(lines) + "\n"


def render_overhead_table(rows: Sequence[OverheadRow] = REFERENCE_TESTBED_MS) -> str:
    cells = [
        (
            r.name,
            str(r.size_kb),
            f"{r.direct_ms:.2f}",
            f"{r.stego_ms:.2f}",
            f"{r.delta_ms:.2f}",
            f"{r.ratio:.2f}",
        )
        for r in rows
    ]
    return _render_aligned(
        ("Image", "Size (KB)", "Direct (ms)", "RT-NDS (ms)", "Difference (ms)", "Ratio"),
        cells,
    )
