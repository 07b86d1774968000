#!/usr/bin/env python3
"""A file crossing a deliberately bad link, reproducibly.

Pushes a BMP through the TCP-lite simulator twice: once over a clean
link, once with loss, reordering, and jitter.  The event trace shows the
handshake, the window rounds, the drops, and the retransmissions that
recover them - and the whole thing is deterministic for a given seed.
"""

from collections import Counter

from netsteglab.bmp import make_bmp
from netsteglab.netsim import LinkModel, rtt, simulate_transfer

MS = 1_000_000


def describe(label, trace):
    kinds = Counter(e.kind for e in trace.events)
    print(f"  {label}:")
    print(f"    total time {trace.total_time_ns / MS:.2f} ms, "
          f"max in flight {trace.max_in_flight} B")
    print(f"    events: " + ", ".join(
        f"{k}={kinds[k]}" for k in ("syn", "synack", "data", "ack",
                                    "drop", "retransmit") if kinds[k]))


def main() -> None:
    payload = make_bmp(96, 64, 24)
    print(f"payload: synthetic 96x64 24-bpp BMP, {len(payload)} bytes "
          f"-> {len(payload) // 1460 + 1} segments at MSS 1460\n")

    clean = LinkModel(propagation_ms=10.0, processing_us=50.0, seed=1)
    print(f"== clean link (rtt {rtt(clean) / MS:.2f} ms) ==")
    trace = simulate_transfer(payload, clean)
    describe("clean", trace)
    print(f"    delivered intact: {trace.delivered == payload}")

    print("\n== impaired link: 8% loss, 8% reorder, 2 ms jitter ==")
    rough = LinkModel(
        propagation_ms=10.0, processing_us=50.0,
        loss_rate=0.08, reorder_rate=0.08, jitter_ms=2.0, seed=1,
    )
    trace = simulate_transfer(payload, rough)
    describe("impaired", trace)
    print(f"    delivered intact anyway: {trace.delivered == payload}")

    print("\n== determinism ==")
    again = simulate_transfer(payload, rough)
    same = (
        again.total_time_ns == trace.total_time_ns
        and [e.t_ns for e in again.events] == [e.t_ns for e in trace.events]
    )
    print(f"  same seed, same trace, down to the nanosecond: {same}")

    drops = [e for e in trace.events if e.kind == "drop"]
    if drops:
        first = drops[0]
        print(f"\n  first drop at {first.t_ns / MS:.2f} ms "
              f"({first.direction}, seq {first.frame.tcp.seq:#x}) - "
              "recovered by a later retransmission")


if __name__ == "__main__":
    main()
