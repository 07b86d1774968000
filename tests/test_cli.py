"""stegctl command-line behavior: exit codes, artifacts, determinism.

Tests call ``main(argv)`` in-process and assert on the returned exit code,
captured output, and the files written to a temp directory.  A few run the
CLI as a separate process: the ``stegctl`` target declared in
``pyproject.toml`` (run the way an installed console script runs it),
``python -m netsteglab``, and, where the package is installed, the
``stegctl`` script on PATH.
"""

import argparse
import hashlib
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from netsteglab import cli
from netsteglab.bmp import make_bmp, parse_bmp_info
from netsteglab.channels import BitMessage
from netsteglab.cli import CHANNELS, _build_parser, _parse, main
from netsteglab.interceptor import StegoPolicy, extract_from_file
from netsteglab.wirecodec import (
    SEQ_MOD,
    fcs_ok,
    ipv4,
    ipv4_checksum_ok,
    parse_frame,
    read_pcap,
    tcp_checksum_ok,
    write_pcap,
    PcapFile,
    PcapRecord,
)

TRANSFER_ARTIFACTS = [
    "direct.pcap", "stego.pcap", "received.bmp", "extracted.hex",
    "direct_trace.csv", "stego_trace.csv", "report.csv", "tap_report.csv",
]


def run(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_missing_seed_is_usage_error(capsys, tmp_path):
    code, _, err = run(["transfer", "--out-dir", tmp_path], capsys)
    assert code == 2
    assert "seed" in err


def test_missing_image_file_is_usage_error_naming_image(capsys, tmp_path):
    code, _, err = run(
        ["transfer", "--seed", 1, "--image", tmp_path / "nope.bmp"], capsys
    )
    assert code == 2
    assert "image" in err


def test_unknown_data_state_is_usage_error(capsys):
    code, _, err = run(["classify", "--states", "bogus"], capsys)
    assert code == 2
    assert "bogus" in err


def test_unknown_config_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nwibble = 3\n")
    code, _, err = run(["capacity", "--config", cfg], capsys)
    assert code == 2
    assert "wibble" in err


def test_both_carrier_sources_is_usage_error(capsys, tmp_path):
    img = tmp_path / "c.bmp"
    img.write_bytes(make_bmp(2, 2, 24))
    code, _, err = run(
        ["transfer", "--seed", 1, "--image", img, "--width", 4], capsys
    )
    assert code == 2
    assert "carrier" in err


def test_conflicting_message_sources_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        ["transfer", "--seed", 1, "--width", 2, "--height", 2,
         "--message", "ab", "--keystream-seed", 9, "--out-dir", tmp_path],
        capsys,
    )
    assert code == 2


def test_message_that_is_not_hex_digits_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        ["transfer", "--seed", 1, "--width", 2, "--height", 2, "--message", "+c0de",
         "--out-dir", tmp_path],
        capsys,
    )
    assert code == 2
    assert "not a hex message" in err


def test_unknown_channel_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        ["channel", "encode", "--channel", "carrier-pigeon", "--bits", "1",
         "--out", tmp_path / "x.pcap"], capsys,
    )
    assert code == 2
    assert "carrier-pigeon" in err


def test_unknown_normalization_is_usage_error(capsys, tmp_path):
    code, _, err = run(
        ["transfer", "--seed", 1, "--width", 2, "--height", 2, "--warden", "active",
         "--normalize", "rewrite_ttl,smooth_timing", "--out-dir", tmp_path], capsys,
    )
    assert code == 2
    assert "smooth_timing" in err


def test_truncated_pcap_is_runtime_error_naming_file(capsys, tmp_path):
    bad = tmp_path / "broken.pcap"
    bad.write_bytes(b"\xd4\xc3\xb2\xa1short")
    code, _, err = run(
        ["rewrite-pcap", "--in", bad, "--out", tmp_path / "out.pcap",
         "--message", "ab"], capsys,
    )
    assert code == 1
    assert "broken.pcap" in err


def test_unknown_locus_is_usage_error(capsys):
    code, _, err = run(["classify", "--states", "dim", "--locus", "mars"], capsys)
    assert code == 2
    assert "mars" in err


TRANSFER_2X2 = ["transfer", "--seed", 1, "--width", 2, "--height", 2]
REWRITE_IN_OUT = ["rewrite-pcap", "--in", "in.pcap", "--out", "out.pcap"]
ENCODE_ORDER = ["channel", "encode", "--channel", "order", "--out", "x.pcap"]


@pytest.mark.parametrize("argv, message", [
    (REWRITE_IN_OUT, "a message is required (--message, --bits or --keystream-seed)"),
    (ENCODE_ORDER, "a message is required (--message or --bits)"),
    (["channel", "encode", "--channel", "order", "--message", "a", "--bits", "1",
      "--out", "x.pcap"], "give at most one of --message, --bits"),
    (["rewrite-pcap", "--in", "in.pcap", "--message", "a"], "rewrite-pcap needs --in and --out"),
    (["rewrite-pcap", "--out", "out.pcap", "--message", "a"], "rewrite-pcap needs --in and --out"),
    (["channel", "encode", "--channel", "order", "--bits", "1"], "channel encode needs --out"),
    (["channel", "decode", "--channel", "order"], "channel decode needs --in"),
    (["channel", "encode", "--bits", "1", "--out", "x.pcap"], "channel command needs --channel"),
    (["classify"], "classify needs --states"),
    (["capacity", "--config", "no-such.cfg"], "config: cannot read no-such.cfg"),
    *(
        ([*command, *sources], "give at most one of --message, --bits, --keystream-seed")
        for command in (TRANSFER_2X2, REWRITE_IN_OUT)
        for sources in (["--message", "a", "--bits", "1"], ["--bits", "1", "--keystream-seed", 9])
    ),
    *(
        ([*command, "--bits", "012"], "not a bit")
        for command in (TRANSFER_2X2, REWRITE_IN_OUT, ENCODE_ORDER)
    ),
])
def test_missing_or_conflicting_input_is_usage_error_naming_it(
    capsys, tmp_path, monkeypatch, argv, message
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith(f"usage error: {message}")
    assert out == "" and list(tmp_path.iterdir()) == []


@pytest.fixture
def isn_pcap(capsys, tmp_path):
    pcap = tmp_path / "isn.pcap"
    code, _, _ = run(
        ["channel", "encode", "--channel", "isn", "--message", "c0de", "--out", pcap],
        capsys,
    )
    assert code == 0
    return pcap


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("n_bits", [0, -8, 33])
@pytest.mark.parametrize("action", ["encode", "decode"])
def test_n_bits_outside_1_to_32_is_usage_error(
    capsys, tmp_path, isn_pcap, action, n_bits, via
):
    cfg = tmp_path / "n.cfg"
    cfg.write_text(f"n_bits = {n_bits}\n")
    setting = ["--config", cfg] if via == "config" else ["--n-bits", n_bits]
    out_pcap = tmp_path / "out.pcap"
    io = ["--message", "c0de", "--out", out_pcap] if action == "encode" else ["--in", isn_pcap]
    code, out, err = run(["channel", action, "--channel", "isn", *setting, *io], capsys)
    assert code == 2
    assert "--n-bits" in err
    assert "Traceback" not in out + err
    assert not out_pcap.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("length", [-1, -3])
def test_negative_length_is_usage_error(capsys, tmp_path, length, via):
    pcap = tmp_path / "l.pcap"
    code, _, _ = run(
        ["channel", "encode", "--channel", "ip-storage", "--message", "c0de", "--out", pcap],
        capsys,
    )
    assert code == 0
    cfg = tmp_path / "l.cfg"
    cfg.write_text(f"length = {length}\n")
    setting = ["--config", cfg] if via == "config" else ["--length", length]
    code, out, err = run(
        ["channel", "decode", "--channel", "ip-storage", "--in", pcap, *setting,
         "--expect", "c0de"], capsys,
    )
    assert code == 2
    assert "--length" in err
    assert "Traceback" not in out + err
    assert "bits:" not in out


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("bpp", [16, 32])
def test_bpp_other_than_8_or_24_is_usage_error(capsys, tmp_path, bpp, via):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"bpp = {bpp}\n")
    setting = ["--config", cfg] if via == "config" else ["--bpp", bpp]
    out_dir = tmp_path / "out"
    code, out, err = run(
        ["transfer", "--seed", 1, "--width", 8, "--height", 8, *setting,
         "--out-dir", out_dir], capsys,
    )
    assert code == 2
    assert "--bpp" in err
    assert "Traceback" not in out + err
    assert not out_dir.exists()


DELAY_FLAGS = [
    ("transfer", "--tp-ms"),
    ("transfer", "--tnp-us"),
    ("transfer", "--jitter-ms"),
    ("transfer", "--tap-us"),
    ("channel", "--gap-ms"),
    ("channel", "--delta-ms"),
    ("channel", "--threshold-ms"),
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("value", ["-5", "inf", "nan"])
@pytest.mark.parametrize("command, flag", DELAY_FLAGS)
def test_delay_must_be_finite_and_non_negative(capsys, tmp_path, command, flag, value, via):
    cfg = tmp_path / "d.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    setting = ["--config", cfg] if via == "config" else [f"{flag}={value}"]
    if command == "transfer":
        argv = ["transfer", "--seed", 1, "--width", 8, "--height", 8, "--out-dir", tmp_path]
    else:
        argv = ["channel", "encode", "--channel", "timing", "--message", "c0de",
                "--out", tmp_path / "t.pcap"]
    code, out, err = run([*argv, *setting], capsys)
    assert code == 2
    assert flag in err
    assert "Traceback" not in out + err
    assert list(tmp_path.iterdir()) == [cfg]


# Each command takes only the flags it reads.
DEAD_FLAGS = [
    (["rewrite-pcap", "--in", "a.pcap", "--out", "b.pcap", "--message", "ab"], "--seed"),
    (["rewrite-pcap", "--in", "a.pcap", "--out", "b.pcap", "--message", "ab"], "--out-dir"),
    (["channel", "encode", "--channel", "ttl", "--bits", "1", "--out", "x.pcap"], "--out-dir"),
    (["capacity"], "--seed"),
    (["classify", "--states", "dim"], "--seed"),
    (["classify", "--states", "dim"], "--out-dir"),
]


@pytest.mark.parametrize(
    "argv, flag", DEAD_FLAGS, ids=[f"{argv[0]}:{flag}" for argv, flag in DEAD_FLAGS]
)
def test_flag_the_command_does_not_read_is_usage_error(
    capsys, tmp_path, monkeypatch, argv, flag
):
    monkeypatch.chdir(tmp_path)
    code, _, err = run([*argv, flag, "1"], capsys)
    assert code == 2
    assert flag in err
    code, out, _ = run([argv[0], "--help"], capsys)
    assert code == 0
    assert flag not in out
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# config file plumbing


def test_config_supplies_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "# laboratory defaults\n"
        "seed = 11\n"
        "width = 8\n"
        "height = 4\n"
        "out_dir = {}\n".format(tmp_path / "from_cfg")
    )
    code, out, _ = run(
        ["transfer", "--config", cfg, "--width", "16"], capsys
    )
    assert code == 0
    report = (tmp_path / "from_cfg" / "report.csv").read_text()
    # The flag value (16) overrode the config width (8); height came from config.
    assert "synthetic-16x4x3" in report
    assert (tmp_path / "from_cfg" / "received.bmp").exists()
    info = parse_bmp_info((tmp_path / "from_cfg" / "received.bmp").read_bytes())
    assert (info.width, info.height) == (16, 4)


def test_config_seed_satisfies_seed_requirement(capsys, tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("seed = 3\nwidth = 2\nheight = 2\n")
    code, _, _ = run(
        ["transfer", "--config", cfg, "--out-dir", tmp_path / "o"], capsys
    )
    assert code == 0


def test_config_rejects_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("this is not a setting\n")
    code, _, err = run(["capacity", "--config", cfg], capsys)
    assert code == 2
    assert "key = value" in err


# A value for every config key, each unlike the flag's default.
CONFIG_SAMPLES = {
    "seed": "5", "out_dir": "runs/a", "message": "ab", "bits": "0110",
    "keystream_seed": "9", "coverage": "3/10", "image": "c.bmp", "width": "8",
    "height": "4", "bpp": "8", "mss": "536", "tp_ms": "2.5", "tnp_us": "7",
    "loss": "0.1", "reorder": "0.2", "jitter_ms": "1.5", "warden": "active",
    "normalize": "rewrite_ttl", "tap_us": "20", "in_path": "in.pcap",
    "out_path": "out.pcap", "channel": "ttl", "expect": "ab", "length": "7",
    "k": "4", "hops": "2", "n_bits": "16", "gap_ms": "150", "delta_ms": "50",
    "threshold_ms": "120", "headers": "Host,Accept", "states": "dim",
    "locus": "runtime",
}
CONFIG_FLAGS = [
    (command, dest, flag)
    for command, flags in _build_parser().parse_args(["capacity"]).config_flags.items()
    for dest, flag in flags.items()
]


@pytest.mark.parametrize(
    "command, dest, flag", CONFIG_FLAGS, ids=[f"{c}:{d}" for c, d, _ in CONFIG_FLAGS]
)
def test_config_key_gives_the_same_namespace_as_its_flag(tmp_path, command, dest, flag):
    head = [command, "encode"] if command == "channel" else [command]
    value = CONFIG_SAMPLES[dest]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("")
    from_flag = _parse([*head, "--config", str(cfg), flag, value])
    assert getattr(from_flag, dest) != getattr(_parse(head), dest)
    for key in (dest, dest.replace("_", "-")):
        cfg.write_text(f"{key} = {value}\n")
        assert _parse([*head, "--config", str(cfg)]) == from_flag, key


def test_config_key_of_another_command_is_ignored(capsys, tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("k = 9\nmss = not-a-number\nlocus = runtime\n")
    code, out, _ = run(["classify", "--states", "dim", "--config", cfg], capsys)
    assert code == 0
    assert "locus=application-runtime" in out
    assert not hasattr(_parse(["classify", "--config", str(cfg)]), "k")


@pytest.mark.parametrize(
    "line, flag",
    [("seed = 0x10", "--seed"), ("warden = nosy", "--warden"), ("loss = lots", "--loss")],
)
def test_bad_config_value_is_usage_error_naming_the_flag(capsys, tmp_path, line, flag):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run(["transfer", "--config", cfg], capsys)
    assert code == 2
    assert flag in err


# ---------------------------------------------------------------------------
# one parser per process


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_argparse_error_then_valid_call_succeeds(capsys):
    code, _, err = run(["classify", "--no-such-flag"], capsys)
    assert code == 2
    assert "--no-such-flag" in err
    code, out, _ = run(["classify", "--states", "dim"], capsys)
    assert code == 0
    assert "Class IV (RT-NDS)" in out


def test_config_values_do_not_leak_into_a_later_call(capsys, tmp_path):
    cfg = tmp_path / "runtime.cfg"
    cfg.write_text("locus = runtime\nseed = 4\n")
    code, with_config, _ = run(["classify", "--states", "dim", "--config", cfg], capsys)
    assert code == 0
    code, without, _ = run(["classify", "--states", "dim"], capsys)
    assert code == 0
    assert "locus=application-runtime" in with_config
    assert "locus=in-transit" in without and "Class IV (RT-NDS)" in without
    args = _build_parser().parse_args(["transfer"])
    assert args.seed is None and args.config is None


def test_help_returns_zero_every_time(capsys):
    commands = ["transfer", "rewrite-pcap", "channel", "capacity", "classify"]
    for argv in (["--help"], *([c, "--help"] for c in commands), ["--help"]):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert " ".join(["stegctl", *argv[:-1]]) in out


@pytest.mark.parametrize("code, returned", [(None, 0), ("message", 2)])
def test_main_returns_the_code_of_a_system_exit(monkeypatch, code, returned):
    def leave(args):
        raise SystemExit(code)

    monkeypatch.setattr(cli, "_parse", lambda argv: argparse.Namespace(func=leave))
    assert main(["classify"]) == returned


# ---------------------------------------------------------------------------
# transfer


def test_transfer_writes_artifacts_and_matches(capsys, tmp_path):
    code, out, _ = run(
        ["transfer", "--seed", 7, "--width", 16, "--height", 8,
         "--message", "a5", "--out-dir", tmp_path], capsys,
    )
    assert code == 0
    assert "MATCH" in out
    for name in TRANSFER_ARTIFACTS:
        assert (tmp_path / name).exists(), name

    payload = make_bmp(16, 8, 24)
    received = (tmp_path / "received.bmp").read_bytes()
    assert len(received) == len(payload)
    policy = StegoPolicy(message=BitMessage.from_hex("a5"))
    diffs = [i for i, (a, b) in enumerate(zip(payload, received)) if a != b]
    info = parse_bmp_info(payload)
    carriers = set()
    for row in range(8):
        base = info.pixel_offset + row * info.row_stride
        carriers.update(base + 3 * p + 2 for p in range(16))
    assert set(diffs) <= carriers
    extracted = (tmp_path / "extracted.hex").read_text().strip()
    assert extracted == policy.source_bits(16 * 8).packed_hex()
    assert extract_from_file(received, policy) == policy.source_bits(16 * 8)


GOLDEN_TRANSFER_SHA256_PREFIXES = {
    "direct.pcap": "560e8c23aad3720a",
    "stego.pcap": "4c532d6a5dc0551c",
    "received.bmp": "cfa1148a5187345e",
    "report.csv": "6b928d8cc1752d6a",
    "tap_report.csv": "5a1fffb76a5d5799",
}


def test_transfer_golden_hashes(capsys, tmp_path):
    """The reference run's artifacts are byte-identical to the recorded ones."""
    code, out, _ = run(
        ["transfer", "--seed", 7, "--width", 96, "--height", 64,
         "--message", "feedc0de", "--out-dir", tmp_path], capsys,
    )
    assert code == 0 and "MATCH" in out
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
        for name in GOLDEN_TRANSFER_SHA256_PREFIXES
    }
    assert got == GOLDEN_TRANSFER_SHA256_PREFIXES


def test_transfer_same_seed_is_byte_identical(capsys, tmp_path):
    argv = [
        "transfer", "--seed", 42, "--width", 16, "--height", 8,
        "--message", "c0de", "--loss", 0.05, "--reorder", 0.05,
        "--jitter-ms", 1, "--out-dir", None,
    ]
    for out_dir in (tmp_path / "a", tmp_path / "b"):
        argv[-1] = out_dir
        code, _, _ = run(argv, capsys)
        assert code == 0
    for name in TRANSFER_ARTIFACTS:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_transfer_different_seed_changes_impaired_trace(capsys, tmp_path):
    base = [
        "transfer", "--width", 16, "--height", 8, "--loss", 0.1,
        "--jitter-ms", 2,
    ]
    run(base + ["--seed", 1, "--out-dir", tmp_path / "s1"], capsys)
    run(base + ["--seed", 2, "--out-dir", tmp_path / "s2"], capsys)
    a = (tmp_path / "s1" / "stego_trace.csv").read_bytes()
    b = (tmp_path / "s2" / "stego_trace.csv").read_bytes()
    assert a != b


def test_transfer_extraction_failure_exits_1_with_empty_extract(capsys, tmp_path):
    """A malicious warden scrambles every payload byte, so the received file
    is no longer a BMP and nothing can be extracted from it."""
    code, out, err = run(
        ["transfer", "--seed", 7, "--width", 16, "--height", 8, "--message", "a5",
         "--warden", "malicious", "--out-dir", tmp_path], capsys,
    )
    assert code == 1
    assert "extraction failed" in err
    assert (tmp_path / "extracted.hex").read_text() == ""
    assert "MATCH" not in out


def test_transfer_that_extracts_no_bits_is_a_mismatch(capsys, tmp_path):
    """A 1x1 image at coverage 1/2 selects no carrier, so nothing can match."""
    code, out, _ = run(
        ["transfer", "--seed", 1, "--width", 1, "--height", 1, "--coverage", "1/2",
         "--out-dir", tmp_path], capsys,
    )
    assert code == 1
    assert "extracted 0 bits, bit errors 0 -> MISMATCH" in out
    assert "artifacts written" not in out
    assert (tmp_path / "report.csv").read_text().endswith(",0,0,False\n")


def test_transfer_without_a_message_source_embeds_c0de(capsys, tmp_path):
    code, _, _ = run(
        ["transfer", "--seed", 1, "--width", 8, "--height", 8, "--out-dir", tmp_path], capsys,
    )
    assert code == 0
    assert (tmp_path / "extracted.hex").read_text().startswith("c0de")


def test_transfer_from_image_file(capsys, tmp_path):
    img = tmp_path / "carrier.bmp"
    img.write_bytes(make_bmp(8, 8, 8))
    code, out, _ = run(
        ["transfer", "--seed", 3, "--image", img, "--bits", "1100",
         "--out-dir", tmp_path / "run"], capsys,
    )
    assert code == 0
    assert "MATCH" in out
    assert "carrier.bmp" in out


def test_transfer_overhead_row_printed(capsys, tmp_path):
    code, out, _ = run(
        ["transfer", "--seed", 5, "--width", 8, "--height", 4,
         "--out-dir", tmp_path], capsys,
    )
    assert code == 0
    assert "Difference (ms)" in out
    report = (tmp_path / "report.csv").read_text().splitlines()
    header, row = report
    assert header.startswith("carrier,file_bytes,segments,")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["match"] == "True"
    assert int(fields["bit_errors"]) == 0
    assert int(fields["extracted_bits"]) == 8 * 4


def test_transfer_stego_pcap_checksums_all_valid(capsys, tmp_path):
    code, _, _ = run(
        ["transfer", "--seed", 9, "--width", 16, "--height", 4,
         "--loss", 0.05, "--out-dir", tmp_path], capsys,
    )
    assert code == 0
    for record in read_pcap(str(tmp_path / "stego.pcap")).records:
        frame = parse_frame(record.frame_bytes)
        assert ipv4_checksum_ok(frame)
        assert tcp_checksum_ok(frame)


# ---------------------------------------------------------------------------
# channel encode/decode round trips


def encode_decode(capsys, tmp_path, channel, encode_extra, decode_extra, message_args):
    pcap = tmp_path / f"{channel}.pcap"
    code, out, _ = run(
        ["channel", "encode", "--channel", channel, *message_args,
         "--out", pcap, *encode_extra], capsys,
    )
    assert code == 0, out
    code, out, _ = run(
        ["channel", "decode", "--channel", channel, "--in", pcap, *decode_extra],
        capsys,
    )
    assert code == 0
    return out


def test_cli_ip_storage_round_trip(capsys, tmp_path):
    out = encode_decode(
        capsys, tmp_path, "ip-storage", [], ["--expect", "deadbeefcafebabe"],
        ["--message", "deadbeefcafebabe"],
    )
    assert "hex: deadbeefcafebabe" in out
    assert "bit errors: 0/64" in out


def test_cli_ttl_round_trip_and_wrong_hops(capsys, tmp_path):
    pcap = tmp_path / "ttl.pcap"
    code, _, _ = run(
        ["channel", "encode", "--channel", "ttl", "--bits", "101100111000",
         "--k", 3, "--out", pcap], capsys,
    )
    assert code == 0
    code, out, _ = run(
        ["channel", "decode", "--channel", "ttl", "--in", pcap, "--k", 3], capsys
    )
    assert code == 0
    assert "bits: 101100111000" in out
    # Decoding with a wrong hop allowance shifts every TTL off its lattice.
    code, out, _ = run(
        ["channel", "decode", "--channel", "ttl", "--in", pcap, "--k", 3,
         "--hops", 4, "--expect", "b38"], capsys,
    )
    assert code == 0
    assert "bit errors: 0/" not in out


def test_cli_isn_round_trip(capsys, tmp_path):
    out = encode_decode(
        capsys, tmp_path, "isn", ["--seed", 4, "--n-bits", 8],
        ["--n-bits", 8, "--expect", "a7"], ["--message", "a7"],
    )
    assert "bits: 10100111" in out
    assert "bit errors: 0/8" in out


def test_cli_timing_round_trip(capsys, tmp_path):
    out = encode_decode(
        capsys, tmp_path, "timing", [], ["--length", 3], ["--bits", "101"]
    )
    assert "bits: 101" in out


def test_cli_order_round_trip(capsys, tmp_path):
    out = encode_decode(capsys, tmp_path, "order", [], [], ["--bits", "10"])
    assert "bits: 10" in out


def test_cli_http_order_round_trip(capsys, tmp_path):
    out = encode_decode(
        capsys, tmp_path, "http-order", [], ["--expect", "3c"], ["--message", "3c"]
    )
    assert "bits: 00111100" in out
    assert "bit errors: 0/8" in out


def test_cli_http_order_round_trip_with_own_headers(capsys, tmp_path):
    headers = ["--headers", "Host, Accept,Cookie,Referer,User-Agent,"]
    out = encode_decode(
        capsys, tmp_path, "http-order", headers, [*headers, "--length", 8, "--expect", "3c"],
        ["--message", "3c"],
    )
    assert "bits: 00111100" in out
    assert "bit errors: 0/8" in out
    names = [line.partition(b":")[0] for line in
             read_pcap(str(tmp_path / "http-order.pcap")).records[0].frame_bytes.split(b"\r\n")]
    assert sorted(names[1:6]) == [b"Accept", b"Cookie", b"Host", b"Referer", b"User-Agent"]


def test_decode_counts_missing_bits_as_errors(capsys, tmp_path):
    empty = tmp_path / "empty.pcap"
    write_pcap(str(empty), PcapFile(records=()))
    code, out, _ = run(
        ["channel", "decode", "--channel", "ip-storage", "--in", empty, "--expect", "c0de"],
        capsys,
    )
    assert code == 0
    assert "bit errors: 16/16 (rate 1.0000)" in out
    # One ip-storage frame carries 32 of the 64 expected bits, all of them right.
    out = encode_decode(
        capsys, tmp_path, "ip-storage", [], ["--expect", "deadbeefcafebabe"],
        ["--message", "deadbeef"],
    )
    assert "hex: deadbeef\n" in out
    assert "bit errors: 32/64 (rate 0.5000)" in out


@pytest.mark.parametrize("channel", CHANNELS)
def test_cli_channel_carriers_flow_from_client_to_server(capsys, tmp_path, channel):
    pcap = tmp_path / f"{channel}.pcap"
    code, _, _ = run(
        ["channel", "encode", "--channel", channel, "--message", "5a", "--out", pcap],
        capsys,
    )
    assert code == 0
    frames = [parse_frame(r.frame_bytes) for r in read_pcap(str(pcap)).records]
    assert frames
    for frame in frames:
        assert (frame.ip.src_ip, frame.ip.dst_ip) == (ipv4("10.0.0.1"), ipv4("10.0.0.2"))
        assert (frame.tcp.src_port, frame.tcp.dst_port) == (40000, 8080)


def test_cli_empty_message_writes_empty_pcap(capsys, tmp_path):
    pcap = tmp_path / "empty.pcap"
    code, out, _ = run(
        ["channel", "encode", "--channel", "ip-storage", "--bits", "",
         "--out", pcap], capsys,
    )
    assert code == 0
    assert "0 bits into 0 frames" in out
    assert read_pcap(str(pcap)).records == ()


def test_timing_timestamps_past_32_bits_are_an_error_writing_nothing(capsys, tmp_path):
    pcap = tmp_path / "x.pcap"
    code, out, err = run(
        ["channel", "encode", "--channel", "timing", "--message", "c0",
         "--gap-ms", "1e12", "--out", pcap], capsys,
    )
    assert code == 1
    assert err.startswith("error: ") and "timestamp" in err
    assert "Traceback" not in out + err
    assert list(tmp_path.iterdir()) == []


def test_cli_timing_pcap_gap_structure(capsys, tmp_path):
    pcap = tmp_path / "t.pcap"
    run(
        ["channel", "encode", "--channel", "timing", "--bits", "101",
         "--out", pcap], capsys,
    )
    records = read_pcap(str(pcap)).records
    stamps = [r.ts_sec * 1_000_000 + r.ts_usec for r in records]
    gaps_ms = [(b - a) / 1000 for a, b in zip(stamps, stamps[1:])]
    assert gaps_ms == [300.0, 100.0, 300.0]


# ---------------------------------------------------------------------------
# rewrite-pcap


def test_rewrite_pcap_embeds_and_reextracts(capsys, tmp_path):
    run(
        ["transfer", "--seed", 6, "--width", 8, "--height", 8,
         "--out-dir", tmp_path], capsys,
    )
    rewritten = tmp_path / "rewritten.pcap"
    code, out, _ = run(
        ["rewrite-pcap", "--in", tmp_path / "direct.pcap", "--out", rewritten,
         "--message", "5a"], capsys,
    )
    assert code == 0
    assert "modified indices:" in out

    payload = bytearray(make_bmp(8, 8, 24))
    for record in read_pcap(str(rewritten)).records:
        frame = parse_frame(record.frame_bytes)
        assert ipv4_checksum_ok(frame) and tcp_checksum_ok(frame)
        if frame.tcp and frame.tcp.src_port == 40000 and frame.tcp_payload:
            off = (frame.tcp.seq - 0x10000001) % SEQ_MOD
            payload[off:off + len(frame.tcp_payload)] = frame.tcp_payload
    policy = StegoPolicy(message=BitMessage.from_hex("5a"))
    assert extract_from_file(bytes(payload), policy) == policy.source_bits(64)


def test_rewrite_pcap_is_idempotent(capsys, tmp_path):
    run(
        ["transfer", "--seed", 6, "--width", 8, "--height", 8,
         "--out-dir", tmp_path], capsys,
    )
    first = tmp_path / "first.pcap"
    second = tmp_path / "second.pcap"
    run(
        ["rewrite-pcap", "--in", tmp_path / "direct.pcap", "--out", first,
         "--message", "5a"], capsys,
    )
    code, out, _ = run(
        ["rewrite-pcap", "--in", first, "--out", second, "--message", "5a"],
        capsys,
    )
    assert code == 0
    assert "modified: 0" in out
    assert first.read_bytes() == second.read_bytes()


def test_rewrite_pcap_leaves_foreign_traffic_alone(capsys, tmp_path):
    arp = b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + bytes(46)
    source = tmp_path / "arp.pcap"
    write_pcap(
        str(source),
        PcapFile(records=(PcapRecord(ts_sec=1, ts_usec=0, frame_bytes=arp),)),
    )
    out_path = tmp_path / "arp_out.pcap"
    code, out, _ = run(
        ["rewrite-pcap", "--in", source, "--out", out_path, "--message", "ff"],
        capsys,
    )
    assert code == 0
    assert "modified: 0" in out
    assert out_path.read_bytes() == source.read_bytes()


def test_rewrite_pcap_passes_a_record_it_cannot_parse_through_unchanged(capsys, tmp_path):
    code, _, _ = run(
        ["transfer", "--seed", 6, "--width", 8, "--height", 8, "--mss", 100,
         "--out-dir", tmp_path], capsys,
    )
    assert code == 0
    records = list(read_pcap(str(tmp_path / "direct.pcap")).records)
    data = [i for i, r in enumerate(records)
            if (f := parse_frame(r.frame_bytes)).tcp.src_port == 40000 and f.tcp_payload]
    first, second = data[:2]
    # Ethernet header whole, IPv4 header cut short: the parser refuses it.
    truncated = PcapRecord(ts_sec=0, ts_usec=0, frame_bytes=records[first].frame_bytes[:30])
    records.insert(second, truncated)
    source = tmp_path / "with_truncated.pcap"
    write_pcap(str(source), PcapFile(records=tuple(records)))
    rewritten = tmp_path / "rewritten.pcap"
    code, out, _ = run(
        ["rewrite-pcap", "--in", source, "--out", rewritten, "--message", "5a"], capsys,
    )
    assert code == 0
    out_records = read_pcap(str(rewritten)).records
    assert len(out_records) == len(records)
    assert out_records[second].frame_bytes == truncated.frame_bytes
    for index in (first, second + 1):  # the BMP data frames on either side
        assert out_records[index].frame_bytes != records[index].frame_bytes
        assert tcp_checksum_ok(parse_frame(out_records[index].frame_bytes))
    modified = out.split("modified indices: ")[1].split("\n")[0].split(",")
    assert str(first) in modified and str(second) not in modified


@pytest.fixture
def direct_pcap(capsys, tmp_path):
    """The direct capture of a small BMP transfer, with data frames to embed into."""
    code, _, _ = run(
        ["transfer", "--seed", 6, "--width", 8, "--height", 8, "--mss", 100,
         "--out-dir", tmp_path / "run"], capsys,
    )
    assert code == 0
    return tmp_path / "run" / "direct.pcap"


def test_rewrite_pcap_in_place_equals_a_fresh_output(capsys, tmp_path, direct_pcap):
    fresh = tmp_path / "fresh.pcap"
    code, out, _ = run(
        ["rewrite-pcap", "--in", direct_pcap, "--out", fresh, "--message", "5a"], capsys
    )
    assert code == 0
    assert "modified indices:" in out
    in_place = tmp_path / "in_place.pcap"
    shutil.copyfile(direct_pcap, in_place)
    code, in_place_out, _ = run(
        ["rewrite-pcap", "--in", in_place, "--out", in_place, "--message", "5a"], capsys
    )
    assert code == 0
    assert in_place_out == out
    assert in_place.read_bytes() == fresh.read_bytes()
    # The output keeps the permission bits a plain open() gives a new file,
    # and leaves no temporary file behind.
    plain = tmp_path / "plain"
    plain.open("wb").close()
    assert fresh.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fresh.pcap", "in_place.pcap", "plain", "run"]


def test_rewrite_pcap_of_a_capture_cut_in_its_last_record_writes_nothing(
    capsys, tmp_path, direct_pcap
):
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(direct_pcap.read_bytes()[:-10])
    fresh = tmp_path / "fresh.pcap"
    existing = tmp_path / "existing.pcap"
    existing.write_bytes(b"an earlier result")
    for out_path in (fresh, existing):
        code, out, err = run(
            ["rewrite-pcap", "--in", cut, "--out", out_path, "--message", "5a"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {cut}: ") and "truncated" in err
    assert not fresh.exists()
    assert existing.read_bytes() == b"an earlier result"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.pcap", "existing.pcap", "run"]


def test_rewrite_pcap_of_a_big_endian_capture_equals_its_little_endian_twin(
    capsys, tmp_path, direct_pcap
):
    """Either byte order reads the same; the output is little-endian and keeps
    the input's snaplen, time zone and sigfigs."""
    records = read_pcap(str(direct_pcap)).records
    knobs = dict(snaplen=2048, thiszone=-3600, sigfigs=6)
    little = tmp_path / "little.pcap"
    write_pcap(str(little), PcapFile(records=records, **knobs))
    big = tmp_path / "big.pcap"
    big.write_bytes(
        struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, -3600, 6, 2048, 1)
        + b"".join(struct.pack(">IIII", r.ts_sec, r.ts_usec, len(r.frame_bytes), r.orig_len)
                   + r.frame_bytes for r in records)
    )
    outputs = []
    for source in (little, big):
        rewritten = tmp_path / f"{source.stem}-rewritten.pcap"
        code, out, _ = run(
            ["rewrite-pcap", "--in", source, "--out", rewritten, "--message", "5a"], capsys
        )
        assert code == 0
        assert "modified: 0" not in out
        outputs.append((out, rewritten.read_bytes()))
    assert outputs[0] == outputs[1]
    back = read_pcap(outputs[1][1])
    assert (back.snaplen, back.thiszone, back.sigfigs) == (2048, -3600, 6)
    assert outputs[1][1][:4] == struct.pack("<I", 0xA1B2C3D4)


@pytest.mark.parametrize(
    "transfer_args, policy_args",
    [
        (["--seed", 7], ["--message", "feedc0de"]),
        # Seed 2 drops four frames on this link, so a SYN and a data segment are resent.
        (["--seed", 2, "--bpp", 8, "--loss", 0.05, "--reorder", 0.05],
         ["--keystream-seed", 9, "--coverage", 0.5]),
        # p = 3: the selected carriers of a frame are three strided runs.
        (["--seed", 2, "--loss", 0.05, "--reorder", 0.05],
         ["--keystream-seed", 9, "--coverage", "3/10"]),
    ],
    ids=["golden", "impaired-8bpp-keystream", "impaired-keystream-coverage-3-10"],
)
def test_rewrite_pcap_of_direct_capture_equals_inflight_stego_capture(
    capsys, tmp_path, transfer_args, policy_args
):
    """Rewriting the direct capture offline gives the frames the in-flight tap
    put on the wire, record by record (timestamps differ by the tap delay)."""
    code, _, _ = run(
        ["transfer", "--width", 96, "--height", 64, *transfer_args,
         *policy_args, "--out-dir", tmp_path], capsys,
    )
    assert code == 0
    rewritten = tmp_path / "rewritten.pcap"
    code, _, _ = run(
        ["rewrite-pcap", "--in", tmp_path / "direct.pcap", "--out", rewritten,
         *policy_args], capsys,
    )
    assert code == 0
    offline = [r.frame_bytes for r in read_pcap(str(rewritten)).records]
    inflight = [r.frame_bytes for r in read_pcap(str(tmp_path / "stego.pcap")).records]
    assert len(offline) == len(inflight)
    for index, (a, b) in enumerate(zip(offline, inflight)):
        assert a == b, f"record {index}"


# ---------------------------------------------------------------------------
# coverage


def test_coverage_as_decimal_ratio_or_config_gives_the_same_stego_capture(capsys, tmp_path):
    base = ["transfer", "--seed", 4, "--width", 16, "--height", 8, "--keystream-seed", 9]
    cfg = tmp_path / "cov.cfg"
    cfg.write_text("coverage = 3/10\n")
    captures = []
    for name, extra in [("ratio", ["--coverage", "3/10"]), ("decimal", ["--coverage", "0.3"]),
                        ("config", ["--config", cfg]), ("full", [])]:
        code, _, _ = run([*base, *extra, "--out-dir", tmp_path / name], capsys)
        assert code == 0, name
        captures.append((tmp_path / name / "stego.pcap").read_bytes())
    assert captures[0] == captures[1] == captures[2] != captures[3]


@pytest.mark.parametrize("coverage", ["1/0", "abc", "0", "1.5"])
def test_bad_coverage_is_usage_error(capsys, tmp_path, coverage):
    code, _, err = run(
        ["transfer", "--seed", 1, "--width", 2, "--height", 2, "--message", "ab",
         "--coverage", coverage, "--out-dir", tmp_path], capsys,
    )
    assert code == 2
    assert "coverage" in err


# ---------------------------------------------------------------------------
# capacity & classify


def test_capacity_prints_benchmark_table(capsys, tmp_path):
    code, out, _ = run(["capacity", "--out-dir", tmp_path], capsys)
    assert code == 0
    assert "Peppers" in out and "262,144" in out
    csv_text = (tmp_path / "capacity.csv").read_text()
    assert csv_text.splitlines()[0] == "image,structure,dimensions,size_kb,capacity_bits"
    assert len(csv_text.splitlines()) == 7


@pytest.mark.parametrize(
    "states,locus,expected",
    [
        ("dim", "transit", "Class IV (RT-NDS)"),
        ("dar,dim", "pre-transit", "Class II (NPS)"),
        ("dim,diu", "runtime", "Class III (RT-ANS)"),
        ("dim", "pre-transit", "Class I (RT-NS)"),
        ("dar", "runtime", "non-network steganography"),
        ("dim,diu", " Application-Runtime ", "Class III (RT-ANS)"),
    ],
)
def test_classify_labels(capsys, states, locus, expected):
    code, out, _ = run(["classify", "--states", states, "--locus", locus], capsys)
    assert code == 0
    assert expected in out


def test_classify_defaults_to_transit(capsys):
    code, out, _ = run(["classify", "--states", "dim"], capsys)
    assert code == 0
    assert "Class IV (RT-NDS)" in out


# ---------------------------------------------------------------------------
# console script


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What the console-script wrapper an installer writes does: resolve the
# declared ``module:function``, name the program, exit with its result.
CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint
target = EntryPoint(name=sys.argv[1], value=sys.argv[2],
                    group="console_scripts").load()
sys.argv[0:3] = [sys.argv[1]]
sys.exit(target())
"""


def declared_console_scripts():
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def test_console_script_runs():
    scripts = declared_console_scripts()
    assert scripts.get("stegctl") == "netsteglab.cli:entry"
    proc = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT,
         "stegctl", scripts["stegctl"], "capacity"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Peppers" in proc.stdout


@pytest.mark.skipif(
    shutil.which("stegctl") is None,
    reason="stegctl console script not on PATH (package not installed)",
)
def test_installed_console_script_runs():
    exe = shutil.which("stegctl")
    assert exe, "stegctl console script not on PATH"
    proc = subprocess.run(
        [exe, "capacity"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "Peppers" in proc.stdout


def test_module_reports_usage_without_subcommand():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from netsteglab.cli import main; raise SystemExit(main([]))"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2


def test_python_m_netsteglab_runs_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "netsteglab", "capacity"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Peppers" in proc.stdout
