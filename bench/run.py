#!/usr/bin/env python3
"""netsteglab benchmark: four seeded workloads through the ``stegctl`` entry point.

Run one workload (the last stdout line is a JSON result):

    python3 bench/run.py --workload bmp-upload-24 --seed 1 --seconds 24 --trace 0

``--trace 0`` reports the end-to-end metrics, pooled over several fresh
worker processes; ``--trace 1`` wraps the layer boundaries in one worker
and reports per-layer metrics instead.  ``--workload all`` runs
every workload, untraced and traced, each in processes of its own.  Results and
spans go to ``.bench_results/`` at the repository root; scratch files go to
``.bench_work/`` and are removed on exit.  See ``bench/README.md``.
"""

from time import perf_counter

_T0 = perf_counter()  # set-up time starts with the imports

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bmp-upload-24", "capture-rewrite-mixed", "impaired-8bpp-sweep",
                  "channel-roundtrip")


def load_program() -> None:
    """Make ``netsteglab`` importable from this checkout's ``src/``, or exit nonzero."""
    src = ROOT / "src"
    if not (src / "netsteglab" / "__init__.py").is_file():
        raise SystemExit(f"error: no netsteglab sources under {src}")
    sys.path.insert(0, str(src))
    import netsteglab

    if Path(netsteglab.__file__).resolve().parent != (src / "netsteglab").resolve():
        raise SystemExit(f"error: imported netsteglab from {netsteglab.__file__}")


def run_all(args) -> None:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"error: {name} trace {trace} exited {proc.returncode}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                summary[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measure at least this long, in whole cycles of op inputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_program()
    if args.workload == "all":
        run_all(args)
        return 0
    import measure

    if args.worker is None:
        measure.run_one(args)
    else:
        measure.worker_main(args, import_s=perf_counter() - _T0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
