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

Every command is deterministic given ``--seed``.  ``--config`` names a
``key = value`` text file holding the same settings as the flags; flags
win over config values.  Exit codes: 0 success, 1 runtime error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import ceil
from pathlib import Path
from typing import Dict, List, Optional, Sequence

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
    PcapRecord,
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

_INT_KEYS = {
    "seed", "mss", "width", "height", "bpp", "k", "hops", "n_bits",
    "keystream_seed", "length",
}
_FLOAT_KEYS = {
    "tp_ms", "tnp_us", "loss", "reorder", "jitter_ms", "tap_us",
    "gap_ms", "delta_ms", "threshold_ms",
}
_STR_KEYS = {
    "out_dir", "warden", "normalize", "channel", "message", "bits", "image",
    "headers", "expect", "states", "locus", "in_path", "out_path",
    "coverage",  # StegoPolicy parses "0.3" and "3/10" alike
}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS


def _load_config(path: str) -> Dict[str, object]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"config: cannot read {path}: {exc}") from None
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config {path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _ALL_KEYS:
            raise UsageError(f"config {path}:{lineno}: unknown key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value, 0)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise UsageError(
                f"config {path}:{lineno}: bad value {value!r} for {key}"
            ) from None
    return values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset (None) argument slots from the config file; flags win."""
    if getattr(args, "config", None) is None:
        return
    for key, value in _load_config(args.config).items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _pick(args: argparse.Namespace, key: str, default):
    value = getattr(args, key, None)
    return default if value is None else value


# ---------------------------------------------------------------------------
# shared argument helpers


def _policy_from(args: argparse.Namespace, default_message: Optional[str] = None) -> StegoPolicy:
    sources = [
        s for s in (args.message, args.bits, args.keystream_seed) if s is not None
    ]
    if len(sources) > 1:
        raise UsageError("give at most one of --message, --bits, --keystream-seed")
    try:
        if args.keystream_seed is not None:
            return StegoPolicy(
                keystream_seed=args.keystream_seed, coverage=_pick(args, "coverage", 1.0)
            )
        if args.bits is not None:
            message = BitMessage.from01(args.bits)
        elif args.message is not None:
            message = BitMessage.from_hex(args.message)
        elif default_message is not None:
            message = BitMessage.from_hex(default_message)
        else:
            raise UsageError("a message is required (--message, --bits or --keystream-seed)")
        return StegoPolicy(message=message, coverage=_pick(args, "coverage", 1.0))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _message_from(args: argparse.Namespace) -> BitMessage:
    if args.message is not None and args.bits is not None:
        raise UsageError("give at most one of --message, --bits")
    try:
        if args.bits is not None:
            return BitMessage.from01(args.bits)
        if args.message is not None:
            return BitMessage.from_hex(args.message)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    raise UsageError("a message is required (--message or --bits)")


def _link_from(args: argparse.Namespace, seed: int) -> LinkModel:
    try:
        return LinkModel(
            propagation_ms=_pick(args, "tp_ms", 10.0),
            processing_us=_pick(args, "tnp_us", 50.0),
            jitter_ms=_pick(args, "jitter_ms", 0.0),
            loss_rate=_pick(args, "loss", 0.0),
            reorder_rate=_pick(args, "reorder", 0.0),
            seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _warden_from(args: argparse.Namespace) -> Optional[WardenConfig]:
    mode = _pick(args, "warden", "none")
    if mode == "none":
        return None
    norms = _pick(args, "normalize", "")
    names = frozenset(n.strip() for n in norms.split(",") if n.strip())
    try:
        return WardenConfig(mode=mode, normalizations=names)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _require_seed(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise UsageError("seed: required for reproducibility (--seed or config)")
    return args.seed


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(_pick(args, "out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# transfer


def cmd_transfer(args: argparse.Namespace) -> int:
    seed = _require_seed(args)
    synthetic = [
        k for k in ("width", "height", "bpp") if getattr(args, k, None) is not None
    ]
    if args.image is not None and synthetic:
        raise UsageError("exactly one carrier source: --image or --width/--height/--bpp")
    if args.image is not None:
        path = Path(args.image)
        if not path.is_file():
            raise UsageError(f"image: file not found: {path}")
        payload = path.read_bytes()
        parse_bmp_info(payload)  # fail fast with a clear diagnostic
        carrier_name = path.name
    else:
        width = _pick(args, "width", 512)
        height = _pick(args, "height", 512)
        bpp = _pick(args, "bpp", 24)
        try:
            payload = make_bmp(width, height, bpp)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        carrier_name = f"synthetic-{width}x{height}x{bpp // 8}"

    policy = _policy_from(args, default_message="c0de")
    link = _link_from(args, seed)
    warden = _warden_from(args)
    mss = _pick(args, "mss", 1460)
    tap_delay_ns = round(_pick(args, "tap_us", 50.0) * 1000)
    try:
        sender = TcpLiteEndpoint(isn=0x10000000, mss=mss)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    out = _out_dir(args)

    direct = simulate_transfer(payload, link, sender=sender, warden=warden)
    interceptor = Interceptor(policy)
    stego = simulate_transfer(
        payload, link, sender=sender, warden=warden,
        tap=interceptor.process, tap_delay_ns=tap_delay_ns,
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

    report = analytics.overhead_report(direct, stego)
    profile = analytics.transfer_frame_profile(len(payload), mss=mss)
    row = analytics.OverheadRow(
        name=carrier_name,
        size_kb=round(len(payload) / 1024),
        direct_ms=report.direct_ms,
        stego_ms=report.stego_ms,
        delta_ms=report.delta_ms,
        ratio=report.ratio,
    )
    (out / "report.csv").write_text(
        "carrier,file_bytes,segments,direct_ms,stego_ms,delta_ms,ratio,"
        "extracted_bits,bit_errors,match\n"
        f"{carrier_name},{len(payload)},{profile.segments},"
        f"{report.direct_ms:.3f},{report.stego_ms:.3f},{report.delta_ms:.3f},"
        f"{report.ratio:.4f},"
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
    try:
        capture = read_pcap(args.in_path)
    except (WireError, OSError) as exc:
        print(f"error: {args.in_path}: {exc}", file=sys.stderr)
        return 1
    interceptor = Interceptor(policy)
    records: List[PcapRecord] = []
    modified: List[int] = []
    for index, record in enumerate(capture.records):
        try:
            frame = parse_frame(record.frame_bytes)
            out_bytes = interceptor.process(frame).emit()
        except WireError:
            out_bytes = record.frame_bytes  # not ours to touch
        if out_bytes != record.frame_bytes:
            modified.append(index)
        records.append(
            PcapRecord(
                ts_sec=record.ts_sec,
                ts_usec=record.ts_usec,
                frame_bytes=out_bytes,
                orig_len=record.orig_len,
            )
        )
    write_pcap(
        args.out_path,
        PcapFile(
            records=tuple(records),
            snaplen=capture.snaplen,
            linktype=capture.linktype,
            thiszone=capture.thiszone,
            sigfigs=capture.sigfigs,
        ),
    )
    print(f"frames: {len(records)}, modified: {len(modified)}")
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


def _frames_to_pcap(frames: Sequence[EthernetFrame], times_ns: Sequence[int]) -> PcapFile:
    records = []
    for frame, t_ns in zip(frames, times_ns):
        sec, usec = ns_to_pcap_ts(t_ns)
        records.append(PcapRecord(ts_sec=sec, ts_usec=usec, frame_bytes=frame.emit()))
    return PcapFile(records=tuple(records))


def _ttl_config(args: argparse.Namespace) -> TtlConfig:
    try:
        return TtlConfig(k=_pick(args, "k", 3), hop_count=_pick(args, "hops", 0))
    except (ValueError, CovertChannelError) as exc:
        raise UsageError(str(exc)) from None


def _timing_config(args: argparse.Namespace) -> TimingConfig:
    threshold = getattr(args, "threshold_ms", None)
    try:
        return TimingConfig(
            nominal_gap_ns=round(_pick(args, "gap_ms", 200.0) * MS),
            delta_ns=round(_pick(args, "delta_ms", 100.0) * MS),
            decision_threshold_ns=None if threshold is None else round(threshold * MS),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _http_config(args: argparse.Namespace) -> HttpHeaderConfig:
    headers = _pick(args, "headers", None)
    try:
        if headers is None:
            return HttpHeaderConfig()
        names = tuple(h.strip() for h in headers.split(",") if h.strip())
        return HttpHeaderConfig(header_set=names)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


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
    seed = _pick(args, "seed", 0)
    channel = args.channel
    if len(message) == 0:
        write_pcap(args.out_path, PcapFile(records=()))
        print(f"encoded 0 bits into 0 frames -> {args.out_path}")
        return 0

    frames: List[EthernetFrame]
    times: List[int]
    if channel == "ip-storage":
        n = ceil(len(message) / IP_STORAGE_BITS_PER_FRAME)
        carriers = [_carrier_frame(i, seq=1000 + i) for i in range(n)]
        frames = ip_storage_encode(message, carriers)
        times = [i * FRAME_GAP_NS for i in range(len(frames))]
    elif channel == "ttl":
        cfg = _ttl_config(args)
        n = ceil(len(message) / cfg.k)
        carriers = [_carrier_frame(i, seq=1000 + i) for i in range(n)]
        frames = ttl_encode(message, carriers, cfg)
        times = [i * FRAME_GAP_NS for i in range(len(frames))]
    elif channel == "isn":
        n_bits = _pick(args, "n_bits", 8)
        chunks = ceil(len(message) / n_bits)
        padded = message + BitMessage([0] * (chunks * n_bits - len(message)))
        frames = []
        for i in range(chunks):
            chunk = padded[n_bits * i:n_bits * (i + 1)]
            try:
                isn = isn_encode(chunk, n_bits, f"{seed}/isn/{i}")
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            frames.append(_carrier_frame(i, seq=isn, flags=TCP_SYN))
        times = [i * FRAME_GAP_NS for i in range(len(frames))]
    elif channel == "timing":
        cfg = _timing_config(args)
        gaps = timing_encode(message, cfg)
        frames = [_carrier_frame(i, seq=1000 + i) for i in range(len(gaps) + 1)]
        times = [0]
        for gap in gaps:
            times.append(times[-1] + gap)
    elif channel == "order":
        pairs = ceil(len(message) / 1)
        carriers = [_carrier_frame(i, seq=1000 + i) for i in range(2 * pairs)]
        frames = order_encode(message, carriers)
        times = [i * FRAME_GAP_NS for i in range(len(frames))]
    elif channel == "http-order":
        cfg = _http_config(args)
        width = cfg.capacity_bits
        chunks = ceil(len(message) / width)
        padded = message + BitMessage([0] * (chunks * width - len(message)))
        frames, times, seq = [], [], 1000
        for i in range(chunks):
            ordering = http_header_encode(padded[width * i:width * (i + 1)], cfg)
            payload = _render_http_request(ordering)
            frames.append(_carrier_frame(i, seq=seq, payload=payload))
            times.append(i * FRAME_GAP_NS)
            seq += len(payload)
    else:
        raise UsageError(f"unknown channel {channel!r}")

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
        n_bits = _pick(args, "n_bits", 8)
        bits = BitMessage.concat(
            isn_decode(frame.tcp.seq, n_bits)
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
    elif channel == "http-order":
        cfg = _http_config(args)
        bits = BitMessage.concat(
            http_header_decode(
                _parse_http_request(frame.tcp_payload), cfg, n_bits=cfg.capacity_bits
            )
            for frame in frames
        )
    else:
        raise UsageError(f"unknown channel {channel!r}")

    if args.length is not None:
        bits = bits[:args.length]
    print(f"bits: {bits.to01()}")
    print(f"hex: {bits.packed_hex()}")
    if args.expect is not None:
        try:
            expected = BitMessage.from_hex(args.expect)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        n = min(len(bits), len(expected))
        errors = bits.bit_errors(expected)
        rate = errors / n if n else 0.0
        print(f"bit errors: {errors}/{n} (rate {rate:.4f})")
    return 0


def cmd_channel(args: argparse.Namespace) -> int:
    if args.channel is None:
        raise UsageError("channel command needs --channel")
    if args.channel not in CHANNELS:
        raise UsageError(
            f"unknown channel {args.channel!r}; choose from {', '.join(CHANNELS)}"
        )
    if args.action == "encode":
        return _encode_channel(args)
    return _decode_channel(args)


# ---------------------------------------------------------------------------
# capacity & classify


def cmd_capacity(args: argparse.Namespace) -> int:
    print(analytics.render_capacity_table(), end="")
    out_dir = getattr(args, "out_dir", None)
    if out_dir is not None:
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
    states = set()
    for name in names:
        try:
            states.add(analytics.DataState(name))
        except ValueError:
            raise UsageError(
                f"unknown data state {name!r}; choose from dar, dim, diu"
            ) from None
    locus_name = _pick(args, "locus", "transit")
    locus = _LOCUS_ALIASES.get(locus_name.strip().lower())
    if locus is None:
        raise UsageError(
            f"unknown locus {locus_name!r}; choose from pre-transit, transit, runtime"
        )
    try:
        inp = analytics.TaxonomyInput(frozenset(states), locus)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = analytics.classify_taxonomy(inp)
    state_names = ",".join(sorted(s.value for s in inp.data_states))
    print(f"states={state_names} locus={locus.value} -> {result.label}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``stegctl`` parser, built once per process.

    Parsing never changes it: each call gets a fresh ``Namespace``, and
    ``_merge_config`` writes only to that.
    """
    parser = argparse.ArgumentParser(
        prog="stegctl",
        description="network-steganography laboratory: simulate, embed, measure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="run seed (reproducibility)")
        p.add_argument("--config", default=None, help="key = value settings file")
        p.add_argument("--out-dir", dest="out_dir", default=None, help="artifact directory")

    def policy_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--message", default=None, help="covert message as hex digits")
        p.add_argument("--bits", default=None, help="covert message as a 0/1 string")
        p.add_argument("--keystream-seed", dest="keystream_seed", type=int, default=None,
                       help="embed a seeded keystream instead of a message")
        p.add_argument("--coverage", default=None,
                       help="fraction of carrier bytes to use, as 0.3 or 3/10 (default 1)")

    p = sub.add_parser("transfer", help="simulate direct vs intercepted BMP transfer")
    common(p)
    policy_args(p)
    p.add_argument("--image", default=None, help="BMP file to transfer")
    p.add_argument("--width", type=int, default=None, help="synthetic carrier width")
    p.add_argument("--height", type=int, default=None, help="synthetic carrier height")
    p.add_argument("--bpp", type=int, default=None, help="synthetic carrier depth (8 or 24)")
    p.add_argument("--mss", type=int, default=None, help="TCP segment payload size (default 1460)")
    p.add_argument("--tp-ms", dest="tp_ms", type=float, default=None,
                   help="one-way propagation delay, ms (default 10)")
    p.add_argument("--tnp-us", dest="tnp_us", type=float, default=None,
                   help="nodal processing time, us (default 50)")
    p.add_argument("--loss", type=float, default=None, help="frame loss rate [0,1)")
    p.add_argument("--reorder", type=float, default=None, help="adjacent reorder rate [0,1]")
    p.add_argument("--jitter-ms", dest="jitter_ms", type=float, default=None,
                   help="uniform +/- jitter, ms")
    p.add_argument("--warden", choices=WARDEN_CHOICES, default=None,
                   help="warden mode (default none)")
    p.add_argument("--normalize", default=None,
                   help="comma list: rewrite_ttl,randomize_ip_id,smooth_timing")
    p.add_argument("--tap-us", dest="tap_us", type=float, default=None,
                   help="interceptor per-crossing delay, us (default 50)")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("rewrite-pcap", help="embed into an existing capture")
    common(p)
    policy_args(p)
    p.add_argument("--in", dest="in_path", default=None, help="input pcap")
    p.add_argument("--out", dest="out_path", default=None, help="output pcap")
    p.set_defaults(func=cmd_rewrite_pcap)

    p = sub.add_parser("channel", help="covert-channel encode/decode")
    common(p)
    p.add_argument("action", choices=("encode", "decode"))
    p.add_argument("--channel", default=None, help=f"one of: {', '.join(CHANNELS)}")
    p.add_argument("--message", default=None, help="message as hex digits (encode)")
    p.add_argument("--bits", default=None, help="message as a 0/1 string (encode)")
    p.add_argument("--in", dest="in_path", default=None, help="input pcap (decode)")
    p.add_argument("--out", dest="out_path", default=None, help="output pcap (encode)")
    p.add_argument("--expect", default=None, help="hex message to compare against (decode)")
    p.add_argument("--length", type=int, default=None, help="truncate decoded bits")
    p.add_argument("--k", type=int, default=None, help="TTL channel: top bits used (2-4)")
    p.add_argument("--hops", type=int, default=None, help="TTL channel: router hops to undo")
    p.add_argument("--n-bits", dest="n_bits", type=int, default=None,
                   help="ISN channel: bits per SYN (default 8)")
    p.add_argument("--gap-ms", dest="gap_ms", type=float, default=None,
                   help="timing channel: nominal gap (default 200)")
    p.add_argument("--delta-ms", dest="delta_ms", type=float, default=None,
                   help="timing channel: modulation depth (default 100)")
    p.add_argument("--threshold-ms", dest="threshold_ms", type=float, default=None,
                   help="timing channel: decision threshold (default: nominal)")
    p.add_argument("--headers", default=None,
                   help="http-order channel: comma list of header names")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("capacity", help="print the benchmark capacity table")
    common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("classify", help="four-class taxonomy lookup")
    common(p)
    p.add_argument("--states", default=None, help="comma list from: dar, dim, diu")
    p.add_argument("--locus", default=None, help="pre-transit | transit | runtime")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        _merge_config(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (WireError, CovertChannelError, BmpError, Stalled,
            analytics.IncompleteTrace, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
