"""The four benchmark workloads: seeded inputs, the op each runs, its checks.

Every op is one or two ``cli.main`` calls, the entry point users run.  A
workload builds all of its inputs in set-up from the workload seed, using
public library calls (``make_bmp``, ``build_tcp_frame``, ``write_pcap``).
A different seed changes bytes, never sizes, frame counts or flow counts.

Each op is checked.  The first run of each distinct op input gets the deep
check: independent oracles on the written files.  Its output digest then
becomes the reference, and every later run of that input must reproduce
the same bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from netsteglab import cli
from netsteglab.bmp import make_bmp
from netsteglab.channels import BitMessage
from netsteglab.interceptor import StegoPolicy, extract_from_file
from netsteglab.wirecodec import (
    PcapFile,
    PcapRecord,
    TCP_ACK,
    TCP_SYN,
    build_tcp_frame,
    internet_checksum,
    ipv4_checksum_ok,
    ns_to_pcap_ts,
    parse_frame,
    tcp_checksum_ok,
    write_pcap,
)

StepResult = Tuple[int, str]  # (exit code, captured stdout)

GOLDEN_ARGS = ["transfer", "--seed", "7", "--width", "96", "--height", "64",
               "--message", "feedc0de"]
GOLDEN_PREFIXES = {
    "direct.pcap": "560e8c23aad3720a",
    "stego.pcap": "4c532d6a5dc0551c",
    "received.bmp": "cfa1148a5187345e",
    "report.csv": "6b928d8cc1752d6a",
    "tap_report.csv": "5a1fffb76a5d5799",
}
TRANSFER_OUTPUTS = ("direct.pcap", "stego.pcap", "received.bmp", "report.csv",
                    "tap_report.csv", "extracted.hex")
_LSB = bytes(b & 1 for b in range(256))


@dataclass
class Op:
    """One op input: the ``cli.main`` argument lists it runs back to back."""

    label: str
    steps: List[List[str]]
    out: Path
    info: Dict[str, object] = field(default_factory=dict)


@dataclass
class Verdict:
    error: Optional[str]
    frames: int = 0
    useful_bytes: int = 0


def sha256_hex(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def golden_gate(out: Path) -> Dict[str, object]:
    """Rerun the reference transfer and compare the five golden hash prefixes."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(GOLDEN_ARGS + ["--out-dir", str(out)])
    got = {}
    for name in GOLDEN_PREFIXES:
        path = out / name
        got[name] = sha256_hex(path.read_bytes())[:16] if path.is_file() else ""
    ok = rc == 0 and got == GOLDEN_PREFIXES
    return {"ok": ok, "exit_code": rc, "sha256_prefixes": got}


def iter_pcap(path: Path) -> Iterator[Tuple[int, int, bytes]]:
    """(ts_sec, ts_usec, frame bytes) of a little-endian classic pcap, streamed.

    Reading record by record keeps the checks out of ``peak_rss_MB``.
    """
    with open(path, "rb") as fh:
        fh.read(24)
        while header := fh.read(16):
            ts_sec, ts_usec, incl, _ = struct.unpack("<IIII", header)
            yield ts_sec, ts_usec, fh.read(incl)


def carrier_layout(width: int, height: int, bpp: int) -> Tuple[int, int, int]:
    """(pixel offset, row stride, bytes per pixel) of a ``make_bmp`` file."""
    bpp_bytes = bpp // 8
    stride = (width * bpp_bytes + 3) // 4 * 4
    return 54 + (1024 if bpp == 8 else 0), stride, bpp_bytes


def carrier_bytes(data: bytes, width: int, height: int, bpp: int) -> bytes:
    """Carrier bytes in carrier-index order: red at 24 bpp, every pixel at 8."""
    offset, stride, step = carrier_layout(width, height, bpp)
    out = bytearray()
    for row in range(height):
        base = offset + row * stride + (2 if step == 3 else 0)
        out += data[base:base + step * width:step]
    return bytes(out)


def lsb_only_diff(original: bytes, received: bytes, width: int, height: int,
                  bpp: int) -> Optional[str]:
    """None when ``received`` differs from ``original`` only in carrier LSBs."""
    if len(original) != len(received):
        return f"length {len(received)} != {len(original)}"
    offset, stride, step = carrier_layout(width, height, bpp)
    unit = (b"\x00\x00\x01" if step == 3 else b"\x01") * width
    mask = b"\x00" * offset + (unit + b"\x00" * (stride - len(unit))) * height
    diff = int.from_bytes(original, "big") ^ int.from_bytes(received, "big")
    if diff & ~int.from_bytes(mask, "big"):
        return "bytes other than carrier LSBs changed"
    if not diff:
        return "no carrier bit was rewritten"
    return None


def message_lsbs_match(data: bytes, width: int, height: int, bpp: int,
                       message_hex: str) -> bool:
    """Carrier LSBs repeat the message bits cyclically (coverage 1)."""
    lsbs = carrier_bytes(data, width, height, bpp).translate(_LSB)
    bits = bytes(BitMessage.from_hex(message_hex))
    reps = -(-len(lsbs) // len(bits))
    return lsbs == (bits * reps)[:len(lsbs)]


def _count_records(path: Path) -> int:
    return sum(1 for _ in iter_pcap(path))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    warmup_ops = 1  # op inputs run once, untimed, in each set-up

    def setup(self, seed: int, work: Path) -> List[Op]:
        raise NotImplementedError

    def check(self, op: Op, results: Sequence[StepResult]) -> Optional[str]:
        """Cheap per-op check of exit codes and printed verdicts."""
        raise NotImplementedError

    def digest(self, op: Op, results: Sequence[StepResult]) -> str:
        raise NotImplementedError

    def deep_check(self, op: Op, results: Sequence[StepResult]) -> Verdict:
        raise NotImplementedError


class _Transfer(Workload):
    width = height = bpp = 0

    def check(self, op, results):
        rc, out = results[-1]
        if rc != 0:
            return f"transfer exited {rc}"
        if "-> MATCH" not in out:
            return "transfer did not print MATCH"
        return None

    def digest(self, op, results):
        chunks = []
        for name in TRANSFER_OUTPUTS:
            path = op.out / name
            chunks += [name.encode(), path.read_bytes() if path.is_file() else b"<missing>"]
        return sha256_hex(*chunks)

    def deep_check(self, op, results):
        received = (op.out / "received.bmp").read_bytes()
        original = make_bmp(self.width, self.height, self.bpp)
        error = lsb_only_diff(original, received, self.width, self.height, self.bpp)
        if error is None:
            error = self.extra_check(op, received)
        frames = _count_records(op.out / "direct.pcap") + _count_records(op.out / "stego.pcap")
        return Verdict(error, frames=frames, useful_bytes=len(received))

    def extra_check(self, op: Op, received: bytes) -> Optional[str]:
        return None


class BmpUpload24(_Transfer):
    name = "bmp-upload-24"
    width, height, bpp = 512, 512, 24

    def setup(self, seed, work):
        rng = random.Random(f"{seed}/{self.name}")
        message = rng.randbytes(2).hex()  # as long as the default c0de
        out = work / "op0"
        argv = ["transfer", "--seed", str(rng.randrange(1 << 31)), "--message", message,
                "--out-dir", str(out)]
        return [Op("transfer-512x512x24", [argv], out, {"message": message})]

    def extra_check(self, op, received):
        if not message_lsbs_match(received, self.width, self.height, self.bpp,
                                  str(op.info["message"])):
            return "red LSBs do not repeat the message"
        report = (op.out / "tap_report.csv").read_text().splitlines()[1:]
        carrier_bits = sum(int(line.split(",")[3]) for line in report)
        if carrier_bits != self.width * self.height:
            return f"tap report carrier_bits {carrier_bits}"
        return None


class Impaired8bppSweep(_Transfer):
    name = "impaired-8bpp-sweep"
    width, height, bpp = 256, 256, 8
    ops_per_cycle = 8

    def setup(self, seed, work):
        rng = random.Random(f"{seed}/{self.name}")
        keystream = rng.randrange(1 << 31)
        n = self.ops_per_cycle

        def strata(top: float) -> List[float]:
            # one draw from each of n equal slices of [0, top], in seeded order
            values = [(i + rng.random()) * top / n for i in range(n)]
            rng.shuffle(values)
            return values

        loss, reorder, jitter = strata(0.10), strata(0.10), strata(5.0)
        ops = []
        for i in range(n):
            out = work / f"op{i}"
            argv = [
                "transfer", "--seed", str(rng.randrange(1 << 31)),
                "--width", str(self.width), "--height", str(self.height),
                "--bpp", "8", "--mss", "536", "--keystream-seed", str(keystream),
                "--coverage", "0.5", "--loss", f"{loss[i]:.4f}",
                "--reorder", f"{reorder[i]:.4f}", "--jitter-ms", f"{jitter[i]:.3f}",
                "--warden", "active", "--normalize", "rewrite_ttl,randomize_ip_id",
                "--out-dir", str(out),
            ]
            ops.append(Op(f"impaired-{i}", [argv], out))
        return ops


class CaptureRewriteMixed(Workload):
    name = "capture-rewrite-mixed"
    n_flows = 360
    segments_per_flow = 12
    bmp_specs = ((40, 30, 24), (48, 32, 24), (64, 24, 8))
    n_other = 210

    def setup(self, seed, work):
        rng = random.Random(f"{seed}/{self.name}")
        message = rng.randbytes(4).hex()
        seg_lens = [64 + (536 - 64) * i // (self.segments_per_flow - 1)
                    for i in range(self.segments_per_flow)]
        events: List[Tuple[int, int, bytes, int]] = []  # (t_ns, order, bytes, flow)
        order = itertools.count()
        bmp_flows = []

        def add_flow(flow_id: int, client: str, server: str, sport: int, dport: int,
                     payloads: Sequence[bytes]) -> None:
            t = rng.randrange(0, 2_000_000_000)
            isn, server_isn = rng.randrange(1 << 32), rng.randrange(1 << 32)
            c2s = dict(src_ip=client, dst_ip=server, src_port=sport, dst_port=dport,
                       ttl=rng.choice((64, 128)))
            s2c = dict(src_ip=server, dst_ip=client, src_port=dport, dst_port=sport)
            frames = [
                (build_tcp_frame(seq=isn, flags=TCP_SYN, **c2s), -1),
                (build_tcp_frame(seq=server_isn, ack=isn + 1, flags=TCP_SYN | TCP_ACK,
                                 **s2c), -1),
                (build_tcp_frame(seq=isn + 1, ack=server_isn + 1, **c2s), -1),
            ]
            offset = 0
            for payload in payloads:
                frames.append((build_tcp_frame(seq=isn + 1 + offset, ack=server_isn + 1,
                                               payload=payload, **c2s), flow_id))
                offset += len(payload)
                frames.append((build_tcp_frame(seq=server_isn + 1, ack=isn + 1 + offset,
                                               **s2c), -1))
            for frame, tag in frames:
                t += rng.randrange(50_000, 4_000_000)
                events.append((t, next(order), frame.emit(), tag))

        for f in range(self.n_flows):
            lens = seg_lens[:]
            rng.shuffle(lens)
            payloads = [rng.randbytes(n) for n in lens]
            payloads[0] = b"X" + payloads[0][1:]  # never a "BM" magic
            add_flow(-1, f"10.1.{f // 200}.{f % 200 + 1}", f"10.2.0.{f % 8 + 1}",
                     20000 + f, (80, 443, 8080)[f % 3], payloads)
        for b, (w, h, bpp) in enumerate(self.bmp_specs):
            data = make_bmp(w, h, bpp)
            bmp_flows.append({"width": w, "height": h, "bpp": bpp, "bytes": data})
            chunks = [data[i:i + 1460] for i in range(0, len(data), 1460)]
            add_flow(b, f"10.3.0.{b + 1}", "10.4.0.1", 30000 + b, 80, chunks)
        for i in range(self.n_other):
            events.append((rng.randrange(0, 2_000_000_000), next(order),
                           _foreign_frame(i % 3, rng), -1))

        events.sort()
        records, bmp_records = [], [[] for _ in bmp_flows]
        for index, (t_ns, _, frame_bytes, tag) in enumerate(events):
            sec, usec = ns_to_pcap_ts(t_ns)
            records.append(PcapRecord(ts_sec=sec, ts_usec=usec, frame_bytes=frame_bytes))
            if tag >= 0:
                bmp_records[tag].append(index)
        work.mkdir(parents=True, exist_ok=True)
        capture = work / "mixed.pcap"
        write_pcap(str(capture), PcapFile(records=tuple(records)))
        for flow, indices in zip(bmp_flows, bmp_records):
            flow["records"] = indices
        out = work / "op0"
        argv = ["rewrite-pcap", "--in", str(capture), "--out", str(out / "rewritten.pcap"),
                "--message", message]
        info = {"message": message, "capture": capture, "records": len(records),
                "payload_bytes": self.n_flows * sum(seg_lens)
                + sum(len(flow["bytes"]) for flow in bmp_flows),
                "bmp_flows": bmp_flows,
                "flows": self.n_flows + len(bmp_flows)}
        return [Op("rewrite-mixed", [argv], out, info)]

    def check(self, op, results):
        rc, out = results[-1]
        if rc != 0:
            return f"rewrite-pcap exited {rc}"
        match = re.match(r"frames: (\d+), modified: (\d+)", out)
        if not match or int(match.group(1)) != op.info["records"]:
            return "rewrite-pcap did not report every frame"
        if int(match.group(2)) == 0:
            return "rewrite-pcap modified no frame"
        return None

    def digest(self, op, results):
        path = op.out / "rewritten.pcap"
        return sha256_hex(path.read_bytes() if path.is_file() else b"<missing>",
                          results[-1][1].encode())

    def deep_check(self, op, results):
        verdict = Verdict(None, frames=int(op.info["records"]),
                          useful_bytes=int(op.info["payload_bytes"]))
        flow_of = {i: n for n, flow in enumerate(op.info["bmp_flows"]) for i in flow["records"]}
        payloads = [[] for _ in op.info["bmp_flows"]]
        count = 0
        pairs = zip(iter_pcap(Path(op.info["capture"])), iter_pcap(op.out / "rewritten.pcap"))
        for index, ((s0, u0, b0), (s1, u1, b1)) in enumerate(pairs):
            count += 1
            if (s0, u0) != (s1, u1):
                verdict.error = f"record {index}: timestamp changed"
                return verdict
            if index not in flow_of:
                if b0 != b1:
                    verdict.error = f"record {index}: non-BMP frame changed"
                    return verdict
                continue
            frame = parse_frame(b1)
            if not (ipv4_checksum_ok(frame) and tcp_checksum_ok(frame)):
                verdict.error = f"record {index}: bad checksum after rewrite"
                return verdict
            payloads[flow_of[index]].append(frame.tcp_payload)
        if count != op.info["records"] or _count_records(op.out / "rewritten.pcap") != count:
            verdict.error = "record count changed"
            return verdict
        policy = StegoPolicy(message=BitMessage.from_hex(str(op.info["message"])))
        for flow, chunks in zip(op.info["bmp_flows"], payloads):
            data = b"".join(chunks)
            w, h, bpp = flow["width"], flow["height"], flow["bpp"]
            error = lsb_only_diff(flow["bytes"], data, w, h, bpp)
            if error is None and not message_lsbs_match(data, w, h, bpp,
                                                        str(op.info["message"])):
                error = "carrier LSBs do not repeat the message"
            if error is None:
                extracted = extract_from_file(data, policy)
                if extracted != policy.source_bits(len(extracted)):
                    error = "extract_from_file disagrees with the message"
            if error is not None:
                verdict.error = f"BMP flow {w}x{h}x{bpp}: {error}"
                return verdict
        return verdict


def _foreign_frame(kind: int, rng: random.Random) -> bytes:
    """A frame the tap must pass untouched: ARP, IPv6/UDP or IPv4/UDP."""
    macs = b"\xff\xff\xff\xff\xff\xff" if kind == 0 else b"\x02\x00\x00\x00\x00\x09"
    macs += b"\x02\x00\x00\x00\x00\x0a"
    if kind == 0:
        body = struct.pack("!HHBBH", 1, 0x0800, 6, 4, 1) + rng.randbytes(20)
        return macs + b"\x08\x06" + body + b"\x00" * 18
    udp_payload = rng.randbytes(32)
    udp = struct.pack("!HHHH", rng.randrange(1024, 65536), 53, 8 + len(udp_payload), 0)
    if kind == 1:
        ip6 = struct.pack("!IHBB", 6 << 28, len(udp) + len(udp_payload), 17, 64)
        return macs + b"\x86\xdd" + ip6 + rng.randbytes(32) + udp + udp_payload
    head = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 20 + len(udp) + len(udp_payload),
                       rng.randrange(1 << 16), 0, 64, 17, 0, rng.randbytes(4),
                       rng.randbytes(4))
    head = head[:10] + struct.pack("!H", internet_checksum(head)) + head[12:]
    return macs + b"\x08\x00" + head + udp + udp_payload


class ChannelRoundtrip(Workload):
    name = "channel-roundtrip"
    # One op is the whole sweep, so every op costs the same and the median
    # and tail do not depend on where the run stops in a mixed cycle.
    frame_targets = (4, 48, 200)  # frames each message fills
    bits_per_frame = {"ip-storage": 32, "ttl": 3, "isn": 8, "timing": 1, "order": 0.5,
                      "http-order": 4}

    def setup(self, seed, work):
        rng = random.Random(f"{seed}/{self.name}")
        out = work / "op0"
        steps, messages = [], []
        for frames in self.frame_targets:
            for channel, per_frame in self.bits_per_frame.items():
                n_bytes = max(1, round(frames * per_frame / 8))
                message = rng.randbytes(n_bytes).hex()
                pcap = str(out / f"{channel}-{frames}.pcap")
                steps.append(["channel", "encode", "--channel", channel,
                              "--message", message, "--out", pcap])
                steps.append(["channel", "decode", "--channel", channel, "--in", pcap,
                              "--expect", message])
                messages.append({"label": f"{channel}-{frames}", "message": message,
                                 "bits": 8 * n_bytes, "pcap": pcap})
        return [Op("sweep", steps, out, {"messages": messages})]

    def check(self, op, results):
        messages = op.info["messages"]
        if len(results) != 2 * len(messages) or any(rc != 0 for rc, _ in results):
            return f"channel exit codes {[rc for rc, _ in results]}"
        for m, (enc, dec) in zip(messages, zip(results[::2], results[1::2])):
            if not enc[1].startswith(f"encoded {m['bits']} bits into "):
                return f"{m['label']}: encode did not report the message length"
            if f"bit errors: 0/{m['bits']} " not in dec[1]:
                return f"{m['label']}: decode reported bit errors"
        return None

    def digest(self, op, results):
        chunks = []
        for m, (_, dec) in zip(op.info["messages"], results[1::2]):
            path = Path(m["pcap"])
            chunks += [path.read_bytes() if path.is_file() else b"<missing>",
                       dec[1].encode()]
        return sha256_hex(*chunks)

    def deep_check(self, op, results):
        verdict = Verdict(None)
        for m, (enc, dec) in zip(op.info["messages"], zip(results[::2], results[1::2])):
            frames = int(re.search(r"into (\d+) frames", enc[1]).group(1))
            verdict.frames += 2 * frames
            verdict.useful_bytes += m["bits"] // 8
            if _count_records(Path(m["pcap"])) != frames:
                verdict.error = f"{m['label']}: pcap holds another frame count"
            elif f"hex: {m['message']}" not in dec[1]:
                verdict.error = f"{m['label']}: decoded hex does not start with the message"
            if verdict.error:
                break
        return verdict


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (BmpUpload24(), CaptureRewriteMixed(), Impaired8bppSweep(),
                        ChannelRoundtrip())
}
