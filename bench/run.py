"""The efl benchmark: four workloads, checked outputs, end-to-end metrics.

    python3 bench/run.py                    # every workload, 25 s each
    python3 bench/run.py --workload many-defs --seed 7 --seconds 25 --trace 0

Run it from the root of a checkout: it checks the `efl` sources under
`src/` and the corpus under `programs/`. Each workload runs in its own
worker process (`bench/worker.py`). With --trace 0 the result holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run, whose spans go to `bench/out/`. The last line of standard
output is the result as one JSON object; see README.md for what each
metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import BARE_START_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("many-defs", "rank2-chain", "small-programs", "repl-session")
SETUP_RUNS = 15
WORKER_TIMEOUT_S = 170


def environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds() -> float:
    """Median wall time from a fresh interpreter to `efl.cli` imported,
    at nominal speed: scaled by the median start of a bare interpreter,
    timed in turn with it, to BARE_START_S (see speed.py)."""
    efl, bare = [], []
    for _ in range(SETUP_RUNS):
        for code, times in (("import efl.cli", efl), ("pass", bare)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                           env=environment(), check=True)
            times.append(time.perf_counter() - t0)
    return statistics.median(efl) * BARE_START_S / statistics.median(bare)


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=environment(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {name} exited with "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"] = {"setup_s": {"value": setup_seconds(),
                                         "unit": "s"},
                             **result["metrics"]}
    return result


def show(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:30s} {m['value']:14.4f} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description="efl benchmark")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [p for p in ("src/efl/cli.py", "programs/g_example.efl")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an efl checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
            if not args.workload:
                show(name, results[name])
    except (RuntimeError, subprocess.SubprocessError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
