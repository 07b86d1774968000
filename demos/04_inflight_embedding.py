#!/usr/bin/env python3
"""RT-NDS end to end: rewrite the picture while it is in flight.

Neither endpoint cooperates.  A client uploads a BMP; a tap between the
endpoints recognizes the file type from the first bytes of the stream,
flips the least significant bit of each red pixel byte as the segments
pass, repairs TCP checksums and frame FCS, and delays nobody by more
than a tap crossing.  The receiver stores a visually identical file that
now carries our message.
"""

from netsteglab.bmp import make_bmp, parse_bmp_info
from netsteglab.channels import BitMessage
from netsteglab.interceptor import Interceptor, StegoPolicy, extract_from_file
from netsteglab.netsim import LinkModel, simulate_transfer
from netsteglab.wirecodec import fcs_ok, tcp_checksum_ok

MS = 1_000_000


def main() -> None:
    payload = make_bmp(96, 64, 24)
    info = parse_bmp_info(payload)
    message = BitMessage.from_hex("feedc0de")
    policy = StegoPolicy(message=message)
    print(f"carrier: 96x64 24-bpp BMP ({len(payload)} B), "
          f"{info.capacity_bits} carrier bits available")
    print(f"message: 0x{message.packed_hex()} ({len(message)} bits, "
          "repeated to fill the carrier)\n")

    link = LinkModel(loss_rate=0.05, reorder_rate=0.05, jitter_ms=1.0, seed=7)
    direct = simulate_transfer(payload, link)

    interceptor = Interceptor(policy)
    stego = simulate_transfer(
        payload, link, tap=interceptor.process, tap_delay_ns=50_000
    )

    print("== what the tap did ==")
    for report in interceptor.flow_reports():
        print(f"  flow {report.flow}: saw {report.frames_seen} frames, "
              f"modified {report.frames_modified}, "
              f"embedded {report.carrier_bits} bits")

    print("\n== what the receiver got ==")
    changed = [
        i for i, (a, b) in enumerate(zip(payload, stego.delivered)) if a != b
    ]
    print(f"  file length unchanged: {len(stego.delivered) == len(payload)}")
    print(f"  bytes touched: {len(changed)} of {len(payload)} "
          "(every one a red-byte LSB)")
    all_red = all((i - info.pixel_offset - 2) % 3 == 0 for i in changed
                  if i >= info.pixel_offset)
    print(f"  all changes on red bytes: {all_red}")

    extracted = extract_from_file(stego.delivered, policy)
    print(f"  extracted {len(extracted)} bits; first 32 = "
          f"0x{extracted[:32].packed_hex()}")
    print(f"  bit errors vs embedded stream: "
          f"{extracted.bit_errors(policy.source_bits(len(extracted)))}")

    print("\n== integrity and cost ==")
    valid = all(tcp_checksum_ok(e.frame) and fcs_ok(e.frame)
                for e in stego.events)
    print(f"  every frame in the stego trace passes checksum+fcs: {valid}")
    overhead = (stego.total_time_ns - direct.total_time_ns) / MS
    print(f"  transfer overhead vs direct run: {overhead:.2f} ms "
          f"({direct.total_time_ns / MS:.2f} -> {stego.total_time_ns / MS:.2f})")


if __name__ == "__main__":
    main()
