"""netsteglab — a laboratory for network steganography.

Byte-exact TCP/IPv4/Ethernet frame handling, six classical covert
channels, a deterministic link simulator with a warden, an in-flight
LSB embedder for BMP payloads crossing TCP streams, and closed-form
capacity/overhead analytics.  The ``stegctl`` console script drives
end-to-end experiments.
"""

from .wirecodec import (
    EthernetFrame,
    Ipv4Header,
    PcapFile,
    PcapReader,
    PcapRecord,
    PcapWriter,
    TcpHeader,
    WireError,
    build_tcp_frame,
    fcs32,
    internet_checksum,
    iter_pcap,
    parse_frame,
    read_pcap,
    tcp_checksum_ok,
    write_pcap,
)
from .channels import (
    BitMessage,
    CovertChannelError,
    HttpHeaderConfig,
    TimingConfig,
    TtlConfig,
)
from .bmp import BmpInfo, NotBmp, UnsupportedBpp, make_bmp, parse_bmp_info
from .netsim import (
    LinkModel,
    Stalled,
    TcpLiteEndpoint,
    TransferTrace,
    WardenConfig,
    simulate_transfer,
)
from .interceptor import (
    FlowState,
    Interceptor,
    StegoPolicy,
    carrier_offsets,
    carrier_slices,
    embed_in_frame,
    extract_from_file,
)
from .analytics import (
    DataState,
    ModificationLocus,
    StegoClass,
    TaxonomyInput,
    audio_capacity,
    classify_taxonomy,
    covert_channel_yield,
    exfil_projection,
    lsb_capacity,
    transfer_frame_profile,
)

__version__ = "0.1.0"

__all__ = [
    "EthernetFrame", "Ipv4Header", "TcpHeader", "PcapFile", "PcapReader",
    "PcapRecord", "PcapWriter", "WireError", "build_tcp_frame", "fcs32",
    "internet_checksum", "iter_pcap", "parse_frame", "read_pcap",
    "tcp_checksum_ok", "write_pcap",
    "BitMessage", "CovertChannelError", "HttpHeaderConfig", "TimingConfig",
    "TtlConfig",
    "BmpInfo", "NotBmp", "UnsupportedBpp", "make_bmp", "parse_bmp_info",
    "LinkModel", "Stalled", "TcpLiteEndpoint", "TransferTrace",
    "WardenConfig", "simulate_transfer",
    "FlowState", "Interceptor", "StegoPolicy", "carrier_offsets",
    "carrier_slices", "embed_in_frame", "extract_from_file",
    "DataState", "ModificationLocus", "StegoClass", "TaxonomyInput",
    "audio_capacity", "classify_taxonomy", "covert_channel_yield",
    "exfil_projection", "lsb_capacity", "transfer_frame_profile",
    "__version__",
]
