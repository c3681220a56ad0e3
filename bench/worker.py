"""One benchmark process: set up a workload, time its CLI commands, check
every output and print a JSON summary as the last line of stdout.

run.py starts this in a fresh interpreter so that set-up time and peak memory
belong to the workload alone:

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T

``--t0`` is the parent's ``time.monotonic()`` just before the spawn, so the
reported set-up time runs from process start to the first command.
``--setup-only`` stops after set-up.

A pass runs every command of the workload once through ``localmem.cli.main``
with ``--workers 1``; its time is the sum of the command times. With
``--trace 0``, every pass is followed by ``SETUP_PROBES`` set-up-only
processes, so that the set-up samples are spread over the whole run rather
than taken in one burst. With ``--trace 1`` the first half of the time runs
plain passes and the second half traced ones, whose spans give the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"
MAX_MESSAGES = 20
# Set-up-only processes started after each plain pass.
SETUP_PROBES = 3


class Runner:
    """Runs the commands of one workload and checks what they write."""

    def __init__(self, cli, schemas, validator_cls, ops, run_dir: Path):
        self.cli = cli
        self.ops = ops
        self.run_dir = run_dir
        self.validators = [validator_cls(getattr(schemas, op.schema)) for op in ops]
        self.configs = []
        for i, op in enumerate(ops):
            path = run_dir / f"config{i}.json"
            path.write_text(json.dumps(op.config), encoding="utf-8")
            self.configs.append(path)
        self.first_outputs: list[dict | None] = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.bytes_written = 0

    def run_pass(self, tracer=None) -> float:
        """Run every command once; return the summed command time."""
        wall = 0.0
        written = 0
        for i, op in enumerate(self.ops):
            out = self.run_dir / f"out{i}"
            shutil.rmtree(out, ignore_errors=True)
            argv = [op.command, "--config", str(self.configs[i]), "--out", str(out), "--workers", "1"]
            log = io.StringIO()
            gc.collect()
            start = time.perf_counter()
            try:
                with redirect_stdout(log), redirect_stderr(log):
                    if tracer is None:
                        status = self.cli.main(argv)
                    else:
                        status = tracer.call(tracing.CLI_SPAN, self.cli.main, (argv,), {})
            except SystemExit as err:
                status = f"SystemExit({err.code})"
            except Exception as err:  # a crash is one failed operation, not the end of the run
                status = f"{type(err).__name__}: {err}"
            wall += time.perf_counter() - start
            outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
            written += sum(len(b) for b in outputs.values())
            problems = self._check(i, op, status, outputs, log.getvalue())
            self.attempted += 1
            if problems:
                self.failed += 1
                for message in problems:
                    if len(self.messages) < MAX_MESSAGES:
                        self.messages.append(f"{op.command} (op {i}): {message}")
        self.bytes_written = written
        return wall

    def _check(self, i, op, status, outputs, log) -> list[str]:
        if status != 0:
            return [f"exit status {status}; {log.strip()[-300:]}"]
        if op.report not in outputs:
            return [f"{op.report} was not written"]
        try:
            report = json.loads(outputs[op.report])
        except ValueError as err:
            return [f"{op.report} is not JSON: {err}"]
        problems = [f"schema {op.schema}: {e.message}" for e in self.validators[i].iter_errors(report)]
        if not problems:
            problems = op.check(report)
        if self.first_outputs[i] is None:
            self.first_outputs[i] = outputs
        elif outputs != self.first_outputs[i]:
            changed = sorted(
                name
                for name in set(outputs) | set(self.first_outputs[i])
                if outputs.get(name) != self.first_outputs[i].get(name)
            )
            problems.append(f"{changed} differ from the first pass on the same inputs")
        return problems


def timed_passes(runner: Runner, budget: float, min_passes: int, tracer=None, between=None):
    """Run passes until the next one would overrun the budget.

    ``between`` is called after every pass; its time counts against the
    budget but not in the pass times. Returns the pass times and, when
    traced, each pass's spans.
    """
    times, spans = [], []
    start = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        times.append(runner.run_pass(tracer))
        if tracer is not None:
            spans.append(tracer.take())
        if between is not None:
            between()
        now = time.monotonic()
        if len(times) >= min_passes and now - start + (now - cycle_start) > budget:
            return times, spans


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh set-up-only worker process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--setup-only"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def traced_metrics(runner, plain, traced, span_sets, tracer, workload) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, plus harness self-check failures."""
    reductions = [tracing.reduce_spans(spans, tracer.parent_cost_s, tracer.span_cost_s)
                  for spans in span_sets]
    harness = [f"traced pass {k} counts differ from traced pass 0"
               for k, red in enumerate(reductions) if red["counts"] != reductions[0]["counts"]]
    tracing.dump_spans(span_sets[-1], OUT_DIR / f"spans-{workload}.jsonl")

    metrics = {}
    for name, _unit in tracing.METRICS:
        if name == "cli.bytes_written":
            value = runner.bytes_written
        elif name == "trace.wall_s":
            value = statistics.fmean(traced)
        elif name == "trace.overhead_s":
            value = statistics.fmean(traced) - statistics.fmean(plain)
        elif name == "trace.tracer_s":
            value = statistics.fmean(red["tracer_s"] for red in reductions)
        elif name == "trace.untraced_s":
            value = statistics.fmean(wall - red["covered_s"] for red, wall in zip(reductions, traced))
        elif name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            value = statistics.fmean(red["self_s"].get(layer, 0.0) for red in reductions)
        else:
            value = reductions[0]["counts"][name]
        metrics[name] = value

    # The reported self times, the tracer cost taken out of them and the time
    # outside every span must add up to the traced pass. This fails when a
    # traced layer has no self-time metric, or when spans are lost or overlap.
    accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    accounted += metrics["trace.tracer_s"] + metrics["trace.untraced_s"]
    if abs(accounted - metrics["trace.wall_s"]) > 1e-6:
        harness.append(f"reported self times account for {accounted:.6f} s of the "
                       f"{metrics['trace.wall_s']:.6f} s traced pass")
    return metrics, harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import jsonschema
    from localmem import cli, schemas

    ops = workloads.WORKLOADS[args.workload](args.seed, workloads.load_reference())
    run_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(cli, schemas, jsonschema.Draft202012Validator, ops, run_dir)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            if args.trace:
                plain, _ = timed_passes(runner, args.seconds / 2, 1)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced, span_sets = timed_passes(runner, args.seconds / 2, 2, tracer)
                finally:
                    tracer.uninstall()
                metrics, harness = traced_metrics(runner, plain, traced, span_sets, tracer,
                                                  args.workload)
                result.update(
                    per_layer=metrics,
                    units=dict(tracing.METRICS),
                    harness=harness,
                    absent_layers=tracer.absent_layers,
                    missing_targets=tracer.missing_targets,
                )
            else:
                setups = result["setup_probes"] = [setup_s]

                def probe():
                    setups.extend(setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES))

                plain, _ = timed_passes(runner, args.seconds, 2, between=probe)
            result.update(
                wall_s=plain,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                attempted=runner.attempted,
                failed=runner.failed,
                messages=runner.messages,
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
