"""stegctl — experiment driver for the network-steganography laboratory.

Subcommands:

* ``transfer``     — simulate a BMP transfer twice (direct, and through the
  in-flight embedder), write pcaps, the received file, the extraction
  result and CSV reports, and print an overhead row.
* ``rewrite-pcap`` — run a captured pcap through the embedder and write the
  rewritten capture plus a per-flow report.
* ``channel``      — encode a message into a pcap via one of the six covert
  channels, or decode it back.
* ``capacity``     — print the benchmark-image capacity table.
* ``classify``     — place a technique in the four-class taxonomy.

Every command is deterministic; the two with randomness take ``--seed``
(``transfer`` requires it, ``channel`` seeds the ISN channel's noise).
``--config`` names a ``key = value`` text file whose keys are flag
destinations; its lines are parsed as the command's own flags, ahead of the
explicit ones, which win.  Exit codes: 0 success, 1 runtime error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from functools import cache
from itertools import accumulate
from math import ceil, inf
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from . import analytics
from .bmp import BmpError, make_bmp, parse_bmp_info
from .channels import (
    BitMessage,
    CovertChannelError,
    HttpHeaderConfig,
    IP_STORAGE_BITS_PER_FRAME,
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
from .interceptor import Interceptor, StegoPolicy, extract_from_file, report_csv
from .netsim import (
    CLIENT_IP,
    LinkModel,
    MS,
    NORMALIZATIONS,
    SERVER_IP,
    Stalled,
    TcpLiteEndpoint,
    WardenConfig,
    simulate_transfer,
    trace_to_csv,
    trace_to_pcap,
)
from .wirecodec import (
    EthernetFrame,
    PcapFile,
    PcapReader,
    PcapRecord,
    PcapWriter,
    TCP_ACK,
    TCP_SYN,
    WireError,
    build_tcp_frame,
    ns_to_pcap_ts,
    parse_frame,
    read_pcap,
    write_pcap,
)

CHANNELS = ("ip-storage", "ttl", "isn", "timing", "order", "http-order")
WARDEN_CHOICES = ("none", "passive", "active", "malicious")
FRAME_GAP_NS = 1 * MS  # pcap spacing for channels that do not encode in time
# --width, --height and --bpp of the synthetic carrier when none is given;
# the flags default to None so that giving one beside --image is an error.
SYNTHETIC_CARRIER = (512, 512, 24)

_HEADER_VALUES = {
    "Host": "example.test",
    "User-Agent": "stegctl/0.1",
    "Accept": "*/*",
    "Connection": "keep-alive",
}


class UsageError(Exception):
    """Bad invocation: wrong flags, values, or config keys."""


# ---------------------------------------------------------------------------
# configuration plumbing


def _config_argv(args: argparse.Namespace) -> List[str]:
    """The ``--config`` file's ``key = value`` lines as flags of ``args.command``.

    A key is a flag's destination, written with ``-`` or ``_``; a key that
    only another command takes is ignored.
    """
    path = args.config
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from None
    own = args.config_flags[args.command]
    known = set().union(*args.config_flags.values())
    argv = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config {path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key in own:
            argv.append(f"{own[key]}={value.strip()}")
        elif key not in known:
            raise UsageError(f"config {path}:{lineno}: unknown key {key!r}")
    return argv


def _parse(argv: List[str]) -> argparse.Namespace:
    """Parse ``argv``; a ``--config`` file's settings go ahead of its flags.

    Argparse keeps the last value given, so explicit flags win.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    return parser.parse_args(argv[:1] + _config_argv(args) + argv[1:])


@contextmanager
def _bad_setting() -> Iterator[None]:
    """Report a setting the library rejects as a usage error."""
    try:
        yield
    except (ValueError, CovertChannelError) as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# shared argument helpers


def _policy_from(args: argparse.Namespace, default_message: Optional[str] = None) -> StegoPolicy:
    sources = [
        s for s in (args.message, args.bits, args.keystream_seed) if s is not None
    ]
    if len(sources) > 1:
        raise UsageError("give at most one of --message, --bits, --keystream-seed")
    with _bad_setting():
        if args.keystream_seed is not None:
            return StegoPolicy(keystream_seed=args.keystream_seed, coverage=args.coverage)
        if args.bits is not None:
            message = BitMessage.from01(args.bits)
        elif args.message is not None:
            message = BitMessage.from_hex(args.message)
        elif default_message is not None:
            message = BitMessage.from_hex(default_message)
        else:
            raise UsageError("a message is required (--message, --bits or --keystream-seed)")
        return StegoPolicy(message=message, coverage=args.coverage)


def _message_from(args: argparse.Namespace) -> BitMessage:
    if args.message is not None and args.bits is not None:
        raise UsageError("give at most one of --message, --bits")
    with _bad_setting():
        if args.bits is not None:
            return BitMessage.from01(args.bits)
        if args.message is not None:
            return BitMessage.from_hex(args.message)
    raise UsageError("a message is required (--message or --bits)")


def _link_from(args: argparse.Namespace, seed: int) -> LinkModel:
    with _bad_setting():
        return LinkModel(
            propagation_ms=args.tp_ms,
            processing_us=args.tnp_us,
            jitter_ms=args.jitter_ms,
            loss_rate=args.loss,
            reorder_rate=args.reorder,
            seed=seed,
        )


def _warden_from(args: argparse.Namespace) -> Optional[WardenConfig]:
    if args.warden == "none":
        return None
    names = frozenset(n.strip() for n in args.normalize.split(",") if n.strip())
    with _bad_setting():
        return WardenConfig(mode=args.warden, normalizations=names)


def _require_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise UsageError("seed: required for reproducibility (--seed or config)")
    return args.seed


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# transfer


def cmd_transfer(args: argparse.Namespace) -> int:
    seed = _require_seed(args)
    synthetic = (args.width, args.height, args.bpp)
    if args.image is not None and synthetic != (None, None, None):
        raise UsageError("exactly one carrier source: --image or --width/--height/--bpp")
    if args.image is not None:
        path = Path(args.image)
        if not path.is_file():
            raise UsageError(f"image: file not found: {path}")
        payload = path.read_bytes()
        parse_bmp_info(payload)  # fail fast with a clear diagnostic
        carrier_name = path.name
    else:
        width, height, bpp = (
            default if value is None else value
            for value, default in zip(synthetic, SYNTHETIC_CARRIER)
        )
        with _bad_setting():
            payload = make_bmp(width, height, bpp)
        carrier_name = f"synthetic-{width}x{height}x{bpp // 8}"

    policy = _policy_from(args, default_message="c0de")
    link = _link_from(args, seed)
    warden = _warden_from(args)
    with _bad_setting():
        sender = TcpLiteEndpoint(isn=0x10000000, mss=args.mss)
    out = _out_dir(args)

    direct = simulate_transfer(payload, link, sender=sender, warden=warden)
    interceptor = Interceptor(policy)
    stego = simulate_transfer(
        payload, link, sender=sender, warden=warden,
        tap=interceptor.process, tap_delay_ns=round(args.tap_us * 1000),
    )

    write_pcap(str(out / "direct.pcap"), trace_to_pcap(direct))
    write_pcap(str(out / "stego.pcap"), trace_to_pcap(stego))
    (out / "received.bmp").write_bytes(stego.delivered)
    (out / "direct_trace.csv").write_text(trace_to_csv(direct))
    (out / "stego_trace.csv").write_text(trace_to_csv(stego))
    (out / "tap_report.csv").write_text(report_csv(interceptor.flow_reports()))

    extracted: Optional[BitMessage] = None
    extract_error = ""
    try:
        extracted = extract_from_file(stego.delivered, policy)
    except BmpError as exc:
        extract_error = str(exc)
    if extracted is not None:
        (out / "extracted.hex").write_text(extracted.packed_hex() + "\n")
        expected = policy.source_bits(len(extracted))
        errors = extracted.bit_errors(expected)
        match = len(extracted) > 0 and errors == 0
    else:
        (out / "extracted.hex").write_text("")
        errors = -1
        match = False

    profile = analytics.transfer_frame_profile(len(payload), mss=args.mss)
    row = analytics.OverheadRow(
        carrier_name, round(len(payload) / 1024),
        direct.total_time_ns / 1e6, stego.total_time_ns / 1e6,
    )
    (out / "report.csv").write_text(
        "carrier,file_bytes,segments,direct_ms,stego_ms,delta_ms,ratio,"
        "extracted_bits,bit_errors,match\n"
        f"{row.name},{len(payload)},{profile.segments},"
        f"{row.direct_ms:.3f},{row.stego_ms:.3f},{row.delta_ms:.3f},{row.ratio:.4f},"
        f"{len(extracted) if extracted is not None else 0},{errors},{match}\n"
    )

    print(analytics.render_overhead_table([row]), end="")
    if extracted is None:
        print(f"extraction failed: {extract_error}", file=sys.stderr)
        return 1
    verdict = "MATCH" if match else "MISMATCH"
    print(f"extracted {len(extracted)} bits, bit errors {errors} -> {verdict}")
    if not match:
        return 1
    print(f"artifacts written to {out}")
    return 0


# ---------------------------------------------------------------------------
# rewrite-pcap


def cmd_rewrite_pcap(args: argparse.Namespace) -> int:
    if args.in_path is None or args.out_path is None:
        raise UsageError("rewrite-pcap needs --in and --out")
    policy = _policy_from(args)
    interceptor = Interceptor(policy)
    modified: List[int] = []
    frames = 0
    try:
        with PcapReader(args.in_path) as capture, PcapWriter(
            args.out_path, capture.snaplen, capture.thiszone, capture.sigfigs
        ) as out:
            for frames, record in enumerate(capture, 1):
                try:
                    frame = parse_frame(record.frame_bytes)
                    out_bytes = interceptor.process(frame).emit()
                except WireError:
                    out_bytes = record.frame_bytes  # not ours to touch
                if out_bytes != record.frame_bytes:
                    modified.append(frames - 1)
                    record = record._replace(frame_bytes=out_bytes)
                out.write(record)
    except WireError as exc:  # the capture itself is malformed
        print(f"error: {args.in_path}: {exc}", file=sys.stderr)
        return 1
    print(f"frames: {frames}, modified: {len(modified)}")
    if modified:
        print("modified indices: " + ",".join(str(i) for i in modified))
    print(report_csv(interceptor.flow_reports()), end="")
    return 0


# ---------------------------------------------------------------------------
# channel encode/decode


def _carrier_frame(
    i: int, *, seq: int, payload: bytes = b"", flags: int = TCP_ACK, ttl: int = 64
) -> EthernetFrame:
    return build_tcp_frame(
        src_ip=CLIENT_IP, dst_ip=SERVER_IP,
        src_port=40000, dst_port=8080,
        seq=seq, ack=0, flags=flags, payload=payload,
        ttl=ttl, ip_id=(i + 1) & 0xFFFF,
    )


def _carriers(n: int) -> List[EthernetFrame]:
    """``n`` header-only carriers at consecutive sequence numbers."""
    return [_carrier_frame(i, seq=1000 + i) for i in range(n)]


def _chunks(message: BitMessage, width: int) -> List[BitMessage]:
    """``message`` zero-padded and cut into whole ``width``-bit chunks."""
    n = ceil(len(message) / width)
    padded = message + BitMessage([0] * (n * width - len(message)))
    return [padded[width * i:width * (i + 1)] for i in range(n)]


def _frames_to_pcap(frames: Sequence[EthernetFrame], times_ns: Sequence[int]) -> PcapFile:
    records = []
    for frame, t_ns in zip(frames, times_ns):
        sec, usec = ns_to_pcap_ts(t_ns)
        records.append(PcapRecord(ts_sec=sec, ts_usec=usec, frame_bytes=frame.emit()))
    return PcapFile(records=tuple(records))


def _ttl_config(args: argparse.Namespace) -> TtlConfig:
    with _bad_setting():
        return TtlConfig(k=args.k, hop_count=args.hops)


def _timing_config(args: argparse.Namespace) -> TimingConfig:
    threshold = args.threshold_ms
    with _bad_setting():
        return TimingConfig(
            nominal_gap_ns=round(args.gap_ms * MS),
            delta_ns=round(args.delta_ms * MS),
            decision_threshold_ns=None if threshold is None else round(threshold * MS),
        )


def _http_config(args: argparse.Namespace) -> HttpHeaderConfig:
    if args.headers is None:
        return HttpHeaderConfig()
    names = tuple(h.strip() for h in args.headers.split(",") if h.strip())
    with _bad_setting():
        return HttpHeaderConfig(header_set=names)


def _render_http_request(ordering: Sequence[str]) -> bytes:
    lines = ["GET / HTTP/1.1"]
    for name in ordering:
        lines.append(f"{name}: {_HEADER_VALUES.get(name, 'x')}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


def _parse_http_request(payload: bytes) -> List[str]:
    text = payload.decode("latin-1")
    names = []
    for line in text.split("\r\n")[1:]:
        if not line:
            break
        names.append(line.partition(":")[0])
    return names


def _encode_channel(args: argparse.Namespace) -> int:
    if args.out_path is None:
        raise UsageError("channel encode needs --out")
    message = _message_from(args)
    channel = args.channel
    if len(message) == 0:
        write_pcap(args.out_path, PcapFile(records=()))
        print(f"encoded 0 bits into 0 frames -> {args.out_path}")
        return 0

    times: Optional[List[int]] = None
    if channel == "ip-storage":
        carriers = _carriers(ceil(len(message) / IP_STORAGE_BITS_PER_FRAME))
        frames = ip_storage_encode(message, carriers)
    elif channel == "ttl":
        cfg = _ttl_config(args)
        frames = ttl_encode(message, _carriers(ceil(len(message) / cfg.k)), cfg)
    elif channel == "isn":
        frames = []
        for i, chunk in enumerate(_chunks(message, args.n_bits)):
            isn = isn_encode(chunk, args.n_bits, f"{args.seed}/isn/{i}")
            frames.append(_carrier_frame(i, seq=isn, flags=TCP_SYN))
    elif channel == "timing":
        gaps = timing_encode(message, _timing_config(args))
        frames = _carriers(len(gaps) + 1)
        times = [0, *accumulate(gaps)]
    elif channel == "order":
        frames = order_encode(message, _carriers(2 * len(message)))
    else:
        cfg = _http_config(args)
        frames, seq = [], 1000
        for i, chunk in enumerate(_chunks(message, cfg.capacity_bits)):
            payload = _render_http_request(http_header_encode(chunk, cfg))
            frames.append(_carrier_frame(i, seq=seq, payload=payload))
            seq += len(payload)
    if times is None:
        times = [i * FRAME_GAP_NS for i in range(len(frames))]

    write_pcap(args.out_path, _frames_to_pcap(frames, times))
    print(f"encoded {len(message)} bits into {len(frames)} frames -> {args.out_path}")
    return 0


def _decode_channel(args: argparse.Namespace) -> int:
    if args.in_path is None:
        raise UsageError("channel decode needs --in")
    channel = args.channel
    capture = read_pcap(args.in_path)
    frames = [parse_frame(r.frame_bytes) for r in capture.records]

    if channel == "ip-storage":
        bits = ip_storage_decode(frames)
    elif channel == "ttl":
        bits = ttl_decode(frames, _ttl_config(args))
    elif channel == "isn":
        bits = BitMessage.concat(
            isn_decode(frame.tcp.seq, args.n_bits)
            for frame in frames
            if frame.tcp is not None and frame.tcp.flags & TCP_SYN
        )
    elif channel == "timing":
        cfg = _timing_config(args)
        stamps = [
            (r.ts_sec * 1_000_000 + r.ts_usec) * 1_000 for r in capture.records
        ]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        bits = timing_decode(gaps, cfg)
    elif channel == "order":
        bits = order_decode(frames)
    else:
        cfg = _http_config(args)
        bits = BitMessage.concat(
            http_header_decode(
                _parse_http_request(frame.tcp_payload), cfg, n_bits=cfg.capacity_bits
            )
            for frame in frames
        )

    if args.length is not None:
        bits = bits[:args.length]
    print(f"bits: {bits.to01()}")
    print(f"hex: {bits.packed_hex()}")
    if args.expect is not None:
        with _bad_setting():
            expected = BitMessage.from_hex(args.expect)
        # a bit the capture does not carry counts as an error
        n = len(expected)
        errors = bits.bit_errors(expected) + max(0, n - len(bits))
        rate = errors / n if n else 0.0
        print(f"bit errors: {errors}/{n} (rate {rate:.4f})")
    return 0


def cmd_channel(args: argparse.Namespace) -> int:
    if args.channel is None:
        raise UsageError("channel command needs --channel")
    if args.action == "encode":
        return _encode_channel(args)
    return _decode_channel(args)


# ---------------------------------------------------------------------------
# capacity & classify


def cmd_capacity(args: argparse.Namespace) -> int:
    print(analytics.render_capacity_table(), end="")
    if args.out_dir is not None:
        out = _out_dir(args)
        (out / "capacity.csv").write_text(analytics.capacity_table_csv())
    return 0


_LOCUS_ALIASES = {
    "pre-transit": analytics.ModificationLocus.PRE_TRANSIT,
    "end-node-pre-transit": analytics.ModificationLocus.PRE_TRANSIT,
    "transit": analytics.ModificationLocus.IN_TRANSIT,
    "in-transit": analytics.ModificationLocus.IN_TRANSIT,
    "runtime": analytics.ModificationLocus.RUNTIME,
    "application-runtime": analytics.ModificationLocus.RUNTIME,
}


def cmd_classify(args: argparse.Namespace) -> int:
    if args.states is None:
        raise UsageError("classify needs --states (comma-separated: dar,dim,diu)")
    names = [s.strip().lower() for s in args.states.split(",") if s.strip()]
    known = {state.value: state for state in analytics.DataState}
    for name in names:
        if name not in known:
            raise UsageError(f"unknown data state {name!r}; choose from dar, dim, diu")
    locus = _LOCUS_ALIASES[args.locus]
    with _bad_setting():
        inp = analytics.TaxonomyInput(frozenset(known[name] for name in names), locus)
    result = analytics.classify_taxonomy(inp)
    state_names = ",".join(sorted(s.value for s in inp.data_states))
    print(f"states={state_names} locus={locus.value} -> {result.label}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``stegctl`` parser, built once per process.

    Parsing never changes it: each call gets a fresh ``Namespace``.  Each
    namespace carries ``config_flags``, every command's ``{dest: flag}``
    table, through which config keys become flags.
    """
    parser = argparse.ArgumentParser(
        prog="stegctl",
        description="network-steganography laboratory: simulate, embed, measure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_flags: Dict[str, Dict[str, str]] = {}
    parser.set_defaults(config_flags=config_flags)

    def command(name: str, func, summary: str):
        """Add a subcommand; return an ``add_argument`` that records its flags."""
        p = sub.add_parser(name, help=summary)
        flags = config_flags[name] = {}

        def arg(*names: str, **kwargs) -> None:
            action = p.add_argument(*names, **kwargs)
            if action.option_strings:
                flags[action.dest] = action.option_strings[0]

        p.add_argument("--config", help="key = value settings file")  # not a config key
        p.set_defaults(func=func)
        return arg

    def count(text: str) -> int:
        """A whole number, 0 or more."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be 0 or more, not {value}")
        return value

    def delay(text: str) -> float:
        """A finite time, 0 or more."""
        value = float(text)
        if not 0 <= value < inf:  # NaN fails too
            raise argparse.ArgumentTypeError(f"must be finite and 0 or more, not {text}")
        return value

    def policy_args(arg) -> None:
        arg("--message", help="covert message as hex digits")
        arg("--bits", help="covert message as a 0/1 string")
        arg("--keystream-seed", type=int, help="embed a seeded keystream instead of a message")
        arg("--coverage", default="1",
            help="fraction of carrier bytes to use, as 0.3 or 3/10 (default %(default)s)")

    arg = command("transfer", cmd_transfer, "simulate direct vs intercepted BMP transfer")
    arg("--seed", type=int, help="run seed (reproducibility)")
    arg("--out-dir", default=".", help="artifact directory (default %(default)s)")
    policy_args(arg)
    arg("--image", help="BMP file to transfer")
    width, height, bpp = SYNTHETIC_CARRIER
    arg("--width", type=int, help=f"synthetic carrier width (default {width})")
    arg("--height", type=int, help=f"synthetic carrier height (default {height})")
    arg("--bpp", type=int, choices=(8, 24),
        help=f"synthetic carrier depth, 8 or 24 (default {bpp})")
    arg("--mss", type=int, default=1460,
        help="TCP segment payload size (default %(default)s)")
    arg("--tp-ms", type=delay, default=10.0,
        help="one-way propagation delay, ms (default %(default)s)")
    arg("--tnp-us", type=delay, default=50.0,
        help="nodal processing time, us (default %(default)s)")
    arg("--loss", type=float, default=0.0, help="frame loss rate [0,1)")
    arg("--reorder", type=float, default=0.0, help="adjacent reorder rate [0,1]")
    arg("--jitter-ms", type=delay, default=0.0, help="uniform +/- jitter, ms")
    arg("--warden", choices=WARDEN_CHOICES, default="none",
        help="warden mode (default %(default)s)")
    arg("--normalize", default="", help=f"comma list: {','.join(NORMALIZATIONS)}")
    arg("--tap-us", type=delay, default=50.0,
        help="interceptor per-crossing delay, us (default %(default)s)")

    arg = command("rewrite-pcap", cmd_rewrite_pcap, "embed into an existing capture")
    policy_args(arg)
    arg("--in", dest="in_path", help="input pcap")
    arg("--out", dest="out_path", help="output pcap")

    arg = command("channel", cmd_channel, "covert-channel encode/decode")
    arg("action", choices=("encode", "decode"))
    arg("--channel", choices=CHANNELS, help="covert channel")
    arg("--message", help="message as hex digits (encode)")
    arg("--bits", help="message as a 0/1 string (encode)")
    arg("--in", dest="in_path", help="input pcap (decode)")
    arg("--out", dest="out_path", help="output pcap (encode)")
    arg("--expect", help="hex message to compare against (decode)")
    arg("--length", type=count, help="truncate decoded bits")
    arg("--k", type=int, default=3, help="TTL channel: top bits used, 2-4 (default %(default)s)")
    arg("--hops", type=int, default=0, help="TTL channel: router hops to undo")
    arg("--n-bits", type=int, choices=range(1, 33), default=8, metavar="N",
        help="ISN channel: bits per SYN, 1-32 (default %(default)s)")
    arg("--seed", type=int, default=0, help="ISN channel: noise seed")
    arg("--gap-ms", type=delay, default=200.0,
        help="timing channel: nominal gap (default %(default)s)")
    arg("--delta-ms", type=delay, default=100.0,
        help="timing channel: modulation depth (default %(default)s)")
    arg("--threshold-ms", type=delay,
        help="timing channel: decision threshold (default: nominal)")
    arg("--headers", help="http-order channel: comma list of header names")

    arg = command("capacity", cmd_capacity, "print the benchmark capacity table")
    arg("--out-dir", help="also write capacity.csv into this directory")

    arg = command("classify", cmd_classify, "four-class taxonomy lookup")
    arg("--states", help="comma list from: dar, dim, diu")
    arg("--locus", type=lambda s: s.strip().lower(), choices=_LOCUS_ALIASES,
        default="transit", metavar="LOCUS",
        help="pre-transit | transit | runtime (default %(default)s)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except SystemExit as exc:  # argparse has already printed its message
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (WireError, CovertChannelError, BmpError, Stalled, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
