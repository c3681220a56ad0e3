"""Benchmark of the localmem CLI.

    python3 bench/run.py --workload paper --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 56

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in a fresh interpreter (worker.py) with single-threaded
BLAS. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, the failed-operation ratio and any failed
check.

Exit status: 0 when every output check passed, 1 when any failed, 2 when the
benchmark could not run at all.
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper", "wide")

# A workload's run must end within 180 s.
DEADLINE_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(args)}") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Result dict in the benchmark's output format, plus "messages" and "passes"."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    main = run_worker(base, max(deadline - time.monotonic(), 1.0))

    messages = list(main["messages"])
    if trace:
        units = main["units"]
        metrics = main["per_layer"]
        messages += [f"harness self-check: {m}" for m in main["harness"]]
        if main["absent_layers"]:
            messages.append(f"absent layers (reported as 0): {', '.join(main['absent_layers'])}")
        if main["missing_targets"]:
            messages.append(f"missing trace targets: {', '.join(main['missing_targets'])}")
    else:
        units = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
        metrics = {
            "wall_s": statistics.fmean(main["wall_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(main["setup_probes"]),
        }
    correct = main["failed"] == 0 and not (trace and main["harness"])
    return {
        "correct": correct,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "messages": messages,
        "passes": len(main["wall_s"]),
        "setups": len(main.get("setup_probes", ())),
    }


def print_report(name: str, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    setups = f", {result['setups']} set-up samples" if result["setups"] else ""
    print(f"[{name}] {result['passes']} plain passes{setups}, {result['attempted']} operations")
    for key, metric in result["metrics"].items():
        print(f"[{name}] {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"[{name}] failed_ratio = {ratio:.6g} ratio ({result['failed']}/{result['attempted']})")
    for message in result["messages"]:
        print(f"[{name}] {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="localmem CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "localmem" / "__init__.py").is_file():
        print(f"benchmark: no src/localmem under {ROOT}; run it from a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print_report(name, results[name])
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2

    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
