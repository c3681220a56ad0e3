"""Record the reference values that the benchmark's output checks compare
against, by running the CLI of the current source tree.

    python3 bench/record_reference.py

Writes bench/reference.json. The committed file was recorded from the source
the benchmark was introduced with; re-record only when a change to the
program's numbers is intended, and say so.

- looks-b7: a pool of datasets at B = 7, each with exactly six baskets left
  after the interim rule so that every dataset costs the same (the final
  look enumerates Bell(6) partitions), with the analyze and monitor outputs
  for each.
- oc-wide: a pool of simulation seeds whose stage-2 work is alike, and every
  rate of the oc-wide simulate at a 10x larger n_sims. Stage-2 cost grows
  with Bell(|S|) summed over the distinct survivor sets S. At 300 trials
  about a third of all seeds leave one all-nine-basket set under the null,
  which alone adds an engine over 21,147 partitions and about 10% to the
  pass. The pool keeps seeds whose sum lies within 3% of the median, so
  every seed costs the same.
- calibrate-paper: mean and seed-to-seed standard deviation of the
  evaluation FWER and power over many calibration seeds. At n_sims = 2000
  these scatter by about 0.01, so fixed limits such as FWER <= 0.11 would
  fail on several percent of seeds.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".out" / "record"

LOOKS_POOL = 8
LOOKS_RATES = (0.45,) * 6 + (0.15,)
OC_WIDE_REF_SIMS = 10 * workloads.OC_WIDE_SIMS
OC_WIDE_POOL = 16
OC_WIDE_CANDIDATES = 64
OC_WIDE_BAND = 0.03
CALIBRATE_REF_SEEDS = 40


def run_cli(cli, command: str, config: dict, report: str) -> dict:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    path = WORK_DIR / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        status = cli.main([command, "--config", str(path), "--out", str(WORK_DIR), "--workers", "1"])
    if status != 0:
        raise RuntimeError(f"{command} exited with {status}")
    return json.loads((WORK_DIR / report).read_text(encoding="utf-8"))


def design_spec(doc: dict):
    """The DesignSpec a CLI config's spec section describes."""
    from localmem.design import DesignSpec

    return DesignSpec.create(
        doc["baskets"], doc["max_sizes"], doc["theta0"], doc["theta1"], lam=doc["lambda"],
        gamma=doc["gamma"], delta=doc["delta"], stages=doc["stages"],
        interim_sizes=doc["interim_sizes"],
    )


def looks_pool(cli) -> list[dict]:
    from localmem.design import TrialState, interim_step

    n1, n_max = workloads.PAPER_SPEC["interim_sizes"], workloads.PAPER_SPEC["max_sizes"]
    spec = design_spec(dict(workloads.PAPER_SPEC, baskets=workloads.LOOKS_BASKETS))
    rng = random.Random(2108)
    pool = []
    while len(pool) < LOOKS_POOL:
        x1 = [sum(rng.random() < p for _ in range(n1)) for p in LOOKS_RATES]
        x2 = [sum(rng.random() < p for _ in range(n_max - n1)) for p in LOOKS_RATES]
        state = interim_step(TrialState.at_interim(x1, spec), spec)
        if sum(state.active) != 6:
            continue
        dataset = {"x1": x1, "x_total": [a + b for a, b in zip(x1, x2)], "active": list(state.active)}
        expected = []
        for command, config in workloads.looks_configs(dataset):
            report = "analysis.json" if command == "analyze" else "monitor.json"
            expected.append(workloads.looks_summary(run_cli(cli, command, config, report)))
        pool.append({"dataset": dataset, "expected": expected})
    return pool


def stage2_partitions(config: dict) -> int:
    """Sum of Bell(|S|) over the distinct stage-2 survivor sets S of each
    scenario: the number of partitions the stage-2 engines enumerate."""
    import numpy as np

    from localmem.partitions import bell_number
    from localmem.simulation import Scenario, decide_batch, generate_counts

    spec = design_spec(config["spec"])
    total = 0
    for doc in config["scenarios"]:
        scenario = Scenario.from_rates(spec, doc["true_rates"], doc["label"])
        x1, x_total = generate_counts(spec, scenario, range(config["n_sims"]), config["seed"])
        continued, _ = decide_batch(spec, x1, x_total)
        sets = {tuple(np.nonzero(row)[0]) for row in continued} - {()}
        total += sum(bell_number(len(s)) for s in sets)
    return total


def oc_wide_reference(cli) -> dict:
    candidates = [workloads.derive_seed("oc-wide-pool", i) for i in range(OC_WIDE_CANDIDATES)]
    cost = {seed: stage2_partitions(workloads.oc_wide_config(seed)) for seed in candidates}
    middle = statistics.median(cost.values())
    seeds = [s for s in candidates if abs(cost[s] - middle) <= OC_WIDE_BAND * middle][:OC_WIDE_POOL]
    if len(seeds) < OC_WIDE_POOL:
        raise RuntimeError(f"only {len(seeds)} oc-wide seeds within the cost band")
    config = workloads.oc_wide_config(workloads.derive_seed("oc-wide-reference", 0), OC_WIDE_REF_SIMS)
    report = run_cli(cli, "simulate", config, "simulation.json")
    return {
        "seeds": seeds,
        "stage2_partitions": [cost[s] for s in seeds],
        "n_sims": OC_WIDE_REF_SIMS,
        "rates": workloads.oc_rates(report),
    }


def calibrate_reference(cli) -> dict:
    values = {"fwer": [], "trialwise_power": []}
    for i in range(CALIBRATE_REF_SEEDS):
        config = workloads.calibrate_config(workloads.derive_seed("calibrate-paper-reference", i))
        report = run_cli(cli, "calibrate", config, "calibration.json")
        for key in values:
            values[key].append(report["evaluation"][key])
    out = {
        key: {"mean": statistics.fmean(v), "sd": statistics.stdev(v), "values": v}
        for key, v in values.items()
    }
    out["seeds"] = CALIBRATE_REF_SEEDS
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from localmem import cli

    reference = {
        "looks-b7": looks_pool(cli),
        "oc-wide": oc_wide_reference(cli),
        "calibrate-paper": calibrate_reference(cli),
    }
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
