"""Span recording for the traced benchmark run.

The traced run wraps, in its own process only, the names each netsteglab
module calls from the layer below (``cli.simulate_transfer``,
``netsim.build_tcp_frame``, ``Interceptor.process``,
``interceptor.with_tcp_payload`` and so on).  Each wrapped call records one
span: name, start, end, parent span and op id.  Spans stay in memory, in
flat arrays, and are written out as one JSON list when the run ends.  A
span's self time is its duration minus the time its child spans cover.

Nothing under ``src/`` is changed: the wrappers are installed with
``setattr`` on the live modules and classes and removed again afterwards.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

TAP_MODEL_US = 50.0  # the simulator's default --tap-us

CHANNEL_FUNCS = {
    "ip-storage": ("ip_storage_encode", "ip_storage_decode"),
    "ttl": ("ttl_encode", "ttl_decode"),
    "isn": ("isn_encode", "isn_decode"),
    "timing": ("timing_encode", "timing_decode"),
    "order": ("order_encode", "order_decode"),
    "http-order": ("http_header_encode", "http_header_decode"),
}

Tag = Callable[[tuple, object], tuple]


class Tracer:
    """Flat in-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.data = array("b")  # 1 when the span's frame argument carried TCP payload
        self.tags: Dict[int, tuple] = {}
        self.current_op = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, tag: Optional[Tag] = None,
             carries_data: Optional[Callable[[tuple], bool]] = None):
        nid = self._intern(name)
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, op, tags = self.name_id, self.parent, self.op, self.tags
        data = self.data

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            data.append(1 if carries_data is not None and carries_data(args) else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if tag is not None:
                tags[idx] = tag(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, patches) -> None:
        for owner, attr, name, tag, carries_data in patches:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, tag, carries_data))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write the spans as one JSON list of ``[name, start, end, parent, op]``.

        Times are microseconds since the first span; ``parent`` is the index
        of the parent span in the list, or -1.
        """
        names = [json.dumps(n) for n in self.names]
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            fh.write("[")
            for i, (nid, s, e, p, o) in enumerate(
                    zip(self.name_id, self.start, self.end, self.parent, self.op)):
                fh.write(f"{',' if i else ''}\n[{names[nid]},{(s - t0) * 1e6:.1f},"
                         f"{(e - t0) * 1e6:.1f},{p},{o}]")
            fh.write("\n]\n")


def _transfer_tag(args, trace) -> tuple:
    kinds = [ev.kind for ev in trace.events]
    return (len(kinds), kinds.count("retransmit"), kinds.count("drop"), trace.max_in_flight)


def _frame_carries_payload(args) -> bool:
    frame = args[1]
    return frame.tcp is not None and bool(frame.tcp_payload)


def _flow_reports_tag(args, reports) -> tuple:
    return (
        len(reports),
        sum(r.frames_seen for r in reports),
        sum(r.frames_modified for r in reports),
        sum(r.carrier_bits for r in reports),
        sum(r.skipped_bits for r in reports),
    )


def boundary_patches():
    """(owner, attribute, span name, tag, carries_data) for every traced boundary."""
    from netsteglab import channels, cli, interceptor, netsim, wirecodec

    patches = []

    def add(owner, attr, name, tag=None, carries_data=None):
        patches.append((owner, attr, name, tag, carries_data))

    # cli -> bmp, netsim, interceptor, wirecodec, channels
    add(cli, "make_bmp", "bmp.make_bmp")
    add(cli, "parse_bmp_info", "bmp.parse_bmp_info")
    add(cli, "simulate_transfer", "netsim.simulate_transfer", _transfer_tag)
    add(cli, "trace_to_pcap", "netsim.trace_to_pcap")
    add(cli, "trace_to_csv", "netsim.trace_to_csv")
    add(cli, "extract_from_file", "interceptor.extract_from_file")
    add(cli, "report_csv", "interceptor.report_csv")
    for attr in ("read_pcap", "write_pcap", "parse_frame", "build_tcp_frame"):
        add(cli, attr, f"wirecodec.{attr}")
    for channel, (enc, dec) in CHANNEL_FUNCS.items():
        add(cli, enc, f"channels.{channel}.encode")
        add(cli, dec, f"channels.{channel}.decode")
    # methods reached from cli and from the simulator's tap hook
    add(interceptor.Interceptor, "process", "interceptor.process",
        carries_data=_frame_carries_payload)
    add(interceptor.Interceptor, "flow_reports", "interceptor.flow_reports",
        _flow_reports_tag)
    add(interceptor.StegoPolicy, "source_bits", "interceptor.source_bits")
    add(wirecodec.EthernetFrame, "emit", "wirecodec.emit")
    # netsim -> wirecodec
    for attr in ("build_tcp_frame", "tcp_checksum_ok", "fcs_ok", "with_ip_fields",
                 "with_tcp_payload", "strip_fcs"):
        add(netsim, attr, f"wirecodec.{attr}")
    # interceptor -> wirecodec, bmp
    add(interceptor, "with_tcp_payload", "wirecodec.with_tcp_payload")
    add(interceptor, "parse_bmp_info", "bmp.parse_bmp_info")
    # channels -> wirecodec
    add(channels, "with_ip_fields", "wirecodec.with_ip_fields")
    return patches


# ---------------------------------------------------------------------------
# per-layer metrics


class _Agg:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def per_layer_metrics(
    tracer: Tracer, traced_ops: int, trace_overhead_ratio: float
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``.

    ``.s`` and ``_s`` values are seconds per traced op; ``.us`` values are
    mean microseconds per call, child spans included; counts are per op.
    A layer the workload does not reach reads 0.
    """
    n = len(tracer)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    aggs: Dict[str, _Agg] = {name: _Agg() for name in tracer.names}
    layer_self: Dict[str, float] = {}
    names = tracer.names
    for i, nid in enumerate(tracer.name_id):
        name = names[nid]
        agg = aggs[name]
        agg.calls += 1
        agg.total += dur[i]
        own = dur[i] - child[i]
        agg.self_time += own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    ops = max(traced_ops, 1)
    none = _Agg()

    def a(name: str) -> _Agg:
        return aggs.get(name, none)

    def us(name: str) -> float:
        g = a(name)
        return g.total / g.calls * 1e6 if g.calls else 0.0

    def per_op(name: str) -> float:
        return a(name).total / ops

    def tag_sums(name: str, width: int) -> List[float]:
        sums = [0.0] * width
        nid = tracer._name_ids.get(name)
        for idx, values in tracer.tags.items():
            if tracer.name_id[idx] == nid:
                for k in range(width):
                    sums[k] += values[k]
        return sums

    # interceptor.process split by whether the frame carried TCP payload
    data_time = data_calls = 0.0
    pid = tracer._name_ids.get("interceptor.process")
    for idx, (nid, flag) in enumerate(zip(tracer.name_id, tracer.data)):
        if flag and nid == pid:
            data_calls += 1
            data_time += dur[idx]
    us_per_data_frame = data_time / data_calls * 1e6 if data_calls else 0.0

    events, retransmits, drops, _ = tag_sums("netsim.simulate_transfer", 4)
    max_in_flight = max(
        (v[3] for i, v in tracer.tags.items()
         if tracer.name_id[i] == tracer._name_ids.get("netsim.simulate_transfer")),
        default=0,
    )
    flows, seen, modified, carrier_bits, skipped = tag_sums("interceptor.flow_reports", 5)
    sim = a("netsim.simulate_transfer")
    op_time = a("cli.main").total

    m: Dict[str, Tuple[float, str]] = {}
    for fn in ("build_tcp_frame", "parse_frame"):
        m[f"wirecodec.{fn}.us"] = (us(f"wirecodec.{fn}"), "us")
        m[f"wirecodec.{fn}.calls"] = (a(f"wirecodec.{fn}").calls / ops, "count")
    for fn in ("with_tcp_payload", "with_ip_fields", "tcp_checksum_ok", "fcs_ok"):
        m[f"wirecodec.{fn}.us"] = (us(f"wirecodec.{fn}"), "us")
    m["wirecodec.read_pcap.s"] = (per_op("wirecodec.read_pcap"), "s")
    m["wirecodec.write_pcap.s"] = (per_op("wirecodec.write_pcap"), "s")
    m["wirecodec.self_share"] = (
        layer_self.get("wirecodec", 0.0) / op_time if op_time else 0.0, "ratio")
    m["netsim.simulate_transfer.self_s"] = (sim.self_time / ops, "s")
    m["netsim.events"] = (events / ops, "count")
    m["netsim.events_per_s"] = (events / sim.total if sim.total else 0.0, "1/s")
    m["netsim.trace_to_pcap.s"] = (per_op("netsim.trace_to_pcap"), "s")
    m["netsim.retransmits"] = (retransmits / ops, "count")
    m["netsim.drops"] = (drops / ops, "count")
    m["netsim.max_in_flight"] = (float(max_in_flight), "B")
    m["interceptor.process.us_per_data_frame"] = (us_per_data_frame, "us")
    m["interceptor.process.us_per_frame"] = (us("interceptor.process"), "us")
    m["interceptor.process.calls"] = (a("interceptor.process").calls / ops, "count")
    m["interceptor.tap_model_ratio"] = (us_per_data_frame / TAP_MODEL_US, "ratio")
    m["interceptor.extract_from_file.s"] = (per_op("interceptor.extract_from_file"), "s")
    m["interceptor.source_bits.s"] = (per_op("interceptor.source_bits"), "s")
    m["interceptor.carrier_bits"] = (carrier_bits / ops, "count")
    m["interceptor.frames_modified"] = (modified / ops, "count")
    m["interceptor.skipped_bits"] = (skipped / ops, "count")
    m["interceptor.flows"] = (flows / ops, "count")
    m["interceptor.modified_ratio"] = (modified / seen if seen else 0.0, "ratio")
    m["bmp.make_bmp.s"] = (per_op("bmp.make_bmp"), "s")
    for channel in CHANNEL_FUNCS:
        m[f"channels.{channel}.encode_s"] = (per_op(f"channels.{channel}.encode"), "s")
        m[f"channels.{channel}.decode_s"] = (per_op(f"channels.{channel}.decode"), "s")
    m["cli.self_s"] = (a("cli.main").self_time / ops, "s")
    m["trace_overhead_ratio"] = (trace_overhead_ratio, "ratio")
    return m
