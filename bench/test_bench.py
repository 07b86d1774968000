"""Tests of the benchmark itself: seeded generation, the result contract, a smoke run.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, iter_pcap  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_workload_names_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_one_cycle_reports_every_metric_with_its_unit(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _inputs(name: str, seed: int, work: Path):
    """(what must not depend on the seed, the inputs that must)."""
    shape, content = [], []
    for op in WORKLOADS[name].setup(seed, work):
        steps = [[a.replace(str(work), "<work>") for a in argv] for argv in op.steps]
        flags = [[a for a in argv if a.startswith("--")] for argv in steps]
        messages = op.info.get("messages", [op.info])
        shape.append((op.label, flags, [len(str(m.get("message", ""))) for m in messages]))
        content.append(steps)
        if "capture" in op.info:
            data = Path(op.info["capture"]).read_bytes()
            records = sum(1 for _ in iter_pcap(Path(op.info["capture"])))
            shape.append((len(data), records, op.info["flows"], op.info["payload_bytes"]))
            content.append(data)
    return shape, content


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_changes_bytes_but_not_sizes(name, tmp_path):
    shape1, content1 = _inputs(name, 1, tmp_path / "a")
    shape1b, content1b = _inputs(name, 1, tmp_path / "b")
    shape2, content2 = _inputs(name, 2, tmp_path / "c")
    assert shape1 == shape1b == shape2
    assert content1 == content1b
    assert content1 != content2


def test_tail_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    value, pct = measure.tail(times)
    assert value == 90.0 and pct == 90.0
    assert sum(t > value for t in times) == 10
    assert measure.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_cross_check_fails_ops_whose_outputs_differ_between_workers():
    def op(index):
        return {"index": index, "error": None, "frames": 5, "useful_bytes": 7}

    workers = [{"digests": {"0": "a", "1": "b"}, "ops": [op(0), op(1)]},
               {"digests": {"0": "a", "1": "c"}, "ops": [op(0), op(1)]}]
    measure.cross_check(workers)
    assert [o["error"] is None for w in workers for o in w["ops"]] == [True, True, True, False]
    assert workers[1]["ops"][1]["frames"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "bmp-upload-24", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
