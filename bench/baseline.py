"""Repeat the benchmark over several seeds and record the result.

    python3 bench/baseline.py --label baseline --first-seed 21

For every workload in BENCHMARK.json this makes ten untraced runs, one per
seed, and
reports each end-to-end metric's median, quartiles and spread (quartile
distance over median) against the bound in BENCHMARK.json. It then makes two
traced runs with one seed, checks that every count metric repeats exactly,
and records the per-layer metrics with each layer's share of the traced pass.
The result goes to bench/BENCH_<label>.json together with the machine's
conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def machine() -> dict:
    import numpy

    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(pages / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def src_tree() -> str | None:
    """Git tree hash of src/, which names the measured program exactly."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD:src"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))

    record = {"label": args.label, "src_tree": src_tree(), "machine": machine(),
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for name in names:
        results = [run(name, seed, seconds, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for metric, bound in bounds.items():
            summary = summarize([r["metrics"][metric]["value"] for r in results], bound)
            entry["end_to_end"][metric] = summary
            flag = "ok" if summary["spread"] < bound / 3 else (
                "WITHIN BOUND" if summary["spread"] < bound else "TOO WIDE")
            print(f"{name:16s} {metric:12s} median {summary['median']:.4g} "
                  f"spread {summary['spread']:.3f} (bound {bound}) {flag}", flush=True)
            ok &= flag != "TOO WIDE"

        traced = [run(name, seeds[0], seconds, 1) for _ in range(2)]
        counts = [{k: m["value"] for k, m in t["metrics"].items() if m["unit"] in ("count", "ratio", "bytes")}
                  for t in traced]
        layers = {k: m["value"] for k, m in traced[0]["metrics"].items()}
        wall = layers["trace.wall_s"]
        shares = {k[: -len(".self_s")]: v / wall for k, v in layers.items()
                  if k.endswith(".self_s") and wall > 0}
        entry.update(
            traced_correct=all(t["correct"] for t in traced),
            counts_repeat=counts[0] == counts[1],
            per_layer=layers,
            self_share=dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        )
        top = next(iter(entry["self_share"].items()), ("-", 0.0))
        print(f"{name:16s} counts repeat: {entry['counts_repeat']}; largest self time: "
              f"{top[0]} {top[1]:.0%}; correct: {entry['correct'] and entry['traced_correct']}",
              flush=True)
        ok &= entry["correct"] and entry["traced_correct"] and entry["counts_repeat"]
        record["workloads"][name] = entry

    out = BENCH_DIR / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
