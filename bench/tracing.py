"""Span tracing of localmem from outside the package.

Each layer is a set of functions wrapped under the names their callers look
them up by (a module global another module imported, or a method on a class).
A span records its name, start, end, parent span and, for some layers, counts
taken from the call's arguments or return value. Spans stay in memory until
the pass ends; ``reduce_spans`` then reduces them to per-layer self times
(span time minus child-span time, less the tracer's own cost) and exact work
counts.

The tracer's cost per span is measured once, on an empty function, when it
is installed. Part of it falls outside the span, so in the parent's self
time, and part inside. Both parts are taken out of the self times and
reported together as ``trace.tracer_s``; without this, a parent of many
short spans (``generate_counts`` over 400,000 draw calls) would report the
harness's cost as its own.

A target that no longer exists is skipped; a layer none of whose targets
exist is reported as absent rather than failing the run, because later
versions may rename private helpers.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from time import perf_counter

import numpy as np


def _reg_inc_beta_counts(args, kwargs, result):
    return {"elements": int(np.size(result))}


def _build_counts(args, kwargs, result):
    # args: (cls, num_baskets, delta=0.0, ...)
    delta = args[2] if len(args) > 2 else kwargs.get("delta", 0.0)
    return {"partitions": len(result), "key": (int(args[1]), float(delta))}


def _weights_counts(args, kwargs, result):
    weights = result[0]
    return {"rows": int(weights.shape[0]), "cells": int(weights.size)}


def _engine_counts(args, kwargs, result):
    return {"sizes": tuple(int(v) for v in args[0].n)}


def _decide_counts(args, kwargs, result):
    spec = args[0]
    sets = []
    if spec.stages == 2:
        rows = np.unique(np.asarray(result[0], dtype=bool), axis=0)
        sets = [tuple(np.nonzero(row)[0]) for row in rows if row.any()]
    return {
        "stage1": tuple(spec.stage1_sizes()),
        "sets": len(sets),
        "size_tuples": len({tuple(spec.max_sizes[b] for b in s) for s in sets}),
    }


def _sweep_counts(args, kwargs, result):
    problem = args[0]
    return {"grid_points": len(problem.lambda_grid) * len(problem.gamma_grid)}


def _empty(*args, **kwargs):
    return None


# layer -> (targets as "module:qualified.name", counter or None)
LAYERS = {
    "numerics.rng_stream": (("localmem.numerics:RngStream.generator",), None),
    "numerics.binomial_draw": (("localmem.simulation:binomial_draw",), None),
    "numerics.reg_inc_beta": (("localmem.posterior:reg_inc_beta",), _reg_inc_beta_counts),
    "numerics.log_beta": (
        ("localmem.posterior:log_beta", "localmem.numerics:log_beta"),
        None,
    ),
    "partitions.build": (("localmem.partitions:PartitionSet.build",), _build_counts),
    "posterior.engine_build": (("localmem.posterior:BatchPosterior.__init__",), _engine_counts),
    "posterior.weights": (("localmem.posterior:BatchPosterior.posterior",), _weights_counts),
    "posterior.borrow_params": (("localmem.posterior:BatchPosterior.borrow_params",), None),
    "posterior.exceed_probs": (("localmem.posterior:BatchPosterior.exceed_probs",), None),
    "posterior.partition_posterior": (
        ("localmem.posterior:partition_posterior", "localmem.design:partition_posterior"),
        None,
    ),
    "posterior.similarity_matrix": (("localmem.posterior:similarity_matrix",), None),
    "posterior.analyze": (("localmem.cli:analyze",), None),
    "design.interim_step": (("localmem.cli:interim_step", "localmem.design:interim_step"), None),
    "simulation.generate_counts": (
        ("localmem.simulation:generate_counts", "localmem.calibration:generate_counts"),
        None,
    ),
    "simulation.decide_batch": (("localmem.simulation:decide_batch",), _decide_counts),
    "calibration.sweep": (("localmem.cli:calibrate",), _sweep_counts),
    "calibration.precompute": (("localmem.calibration:_two_stage_chunk",), None),
}

# The span the benchmark itself opens around each CLI command.
CLI_SPAN = "cli"

# Per-layer metrics in report order: (name, unit).
METRICS = (
    ("numerics.rng_stream.calls", "count"),
    ("numerics.rng_stream.self_s", "s"),
    ("numerics.binomial_draw.calls", "count"),
    ("numerics.binomial_draw.self_s", "s"),
    ("numerics.reg_inc_beta.calls", "count"),
    ("numerics.reg_inc_beta.elements", "count"),
    ("numerics.reg_inc_beta.self_s", "s"),
    ("numerics.log_beta.calls", "count"),
    ("numerics.log_beta.self_s", "s"),
    ("partitions.build.calls", "count"),
    ("partitions.build.partitions", "count"),
    ("partitions.build.self_s", "s"),
    ("partitions.build.repeat_ratio", "ratio"),
    ("posterior.engine_build.calls", "count"),
    ("posterior.engine_build.self_s", "s"),
    ("posterior.weights.rows", "count"),
    ("posterior.weights.cells", "count"),
    ("posterior.weights.self_s", "s"),
    ("posterior.borrow_params.self_s", "s"),
    ("posterior.exceed_probs.self_s", "s"),
    ("posterior.partition_posterior.calls", "count"),
    ("posterior.partition_posterior.self_s", "s"),
    ("posterior.similarity_matrix.self_s", "s"),
    ("posterior.analyze.self_s", "s"),
    ("design.interim_step.calls", "count"),
    ("design.interim_step.self_s", "s"),
    ("simulation.generate_counts.self_s", "s"),
    ("simulation.decide_batch.self_s", "s"),
    ("simulation.survivor_sets", "count"),
    ("simulation.engines_per_size_tuple", "ratio"),
    ("calibration.sweep.self_s", "s"),
    ("calibration.precompute.self_s", "s"),
    ("calibration.grid_points", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.tracer_s", "s"),
    ("trace.untraced_s", "s"),
)


class Tracer:
    """Records nested spans around wrapped localmem functions."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, attrs)
        self.missing_targets: list[str] = []
        self.absent_layers: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        # Tracer cost per span booked to the parent's and to the span's own
        # self time; set by calibrate().
        self.parent_cost_s = 0.0
        self.span_cost_s = 0.0

    def call(self, name, fn, args, kwargs, counter=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        done = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = perf_counter()
            self._stack.pop()
            attrs = counter(args, kwargs, result) if counter and done else None
            self.spans.append((sid, parent, name, start, end, attrs))

    def _wrapper(self, name, fn, counter):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        traced.__wrapped__ = fn
        return traced

    def calibrate(self) -> None:
        """Measure the tracer's cost per span on an empty function.

        Times an empty loop, plain calls and wrapped calls. Of a wrapped
        call's extra time, the part outside its span goes to
        ``parent_cost_s`` and the part inside to ``span_cost_s``; each is the
        median over 7 batches of 20,000 calls.
        """
        calls = 20000
        wrapped = self._wrapper("calibration", _empty, None)
        outside, inside = [], []
        for _ in range(7):
            start = perf_counter()
            for _ in range(calls):
                pass
            loop = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                _empty(1, 2)
            plain = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                wrapped(1, 2)
            traced = perf_counter() - start
            within = sum(end - begin for _, _, _, begin, end, _ in self.take())
            outside.append((traced - loop - within) / calls)
            inside.append((within - (plain - loop)) / calls)
        self.parent_cost_s = max(statistics.median(outside), 0.0)
        self.span_cost_s = max(statistics.median(inside), 0.0)

    def install(self) -> None:
        self.calibrate()
        for layer, (targets, counter) in LAYERS.items():
            found = False
            for target in targets:
                module_name, _, qualname = target.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    owner = None
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
                if raw is None:
                    self.missing_targets.append(target)
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper(layer, raw.__func__, counter))
                else:
                    wrapped = self._wrapper(layer, raw, counter)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))
                found = True
            if not found:
                self.absent_layers.append(layer)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def take(self) -> list[tuple]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def dump_spans(spans: list[tuple], path) -> None:
    """Write spans as JSON lines, times in microseconds from the first start."""
    origin = min((s[3] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end, attrs in spans:
            record = [sid, parent, name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1)]
            if attrs:
                record.append({k: list(v) if isinstance(v, tuple) else v for k, v in attrs.items()})
            fh.write(json.dumps(record) + "\n")


def reduce_spans(spans: list[tuple], parent_cost_s: float = 0.0, span_cost_s: float = 0.0) -> dict:
    """Per-layer self times and counts of one pass.

    A span's self time is its duration minus its children's, minus the
    tracer's cost: ``parent_cost_s`` per child and ``span_cost_s`` for the
    span itself. Returns {"self_s": {layer: s}, "counts": {metric: value},
    "covered_s": total time of root spans, "tracer_s": the tracer cost taken
    out}. For a well-formed span tree, the self times plus ``tracer_s`` add
    up to ``covered_s``.
    """
    child_time: dict[int, float] = {}
    children: dict[int, int] = {}
    by_id = {}
    for sid, parent, name, start, end, attrs in spans:
        by_id[sid] = (parent, name, attrs)
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            children[parent] = children.get(parent, 0) + 1

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, int] = {}
    build_keys = set()
    stage2_builds = 0
    covered = tracer = 0.0
    for sid, parent, name, start, end, attrs in spans:
        duration = end - start
        cost = children.get(sid, 0) * parent_cost_s + span_cost_s
        self_s[name] = self_s.get(name, 0.0) + duration - child_time.get(sid, 0.0) - cost
        calls[name] = calls.get(name, 0) + 1
        tracer += cost
        if parent < 0:
            covered += duration
        if not attrs:
            continue
        for key, value in attrs.items():
            if isinstance(value, int):
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0) + value
        if name == "partitions.build":
            build_keys.add(attrs["key"])
        elif name == "posterior.engine_build":
            # A stage-2 engine is one built inside decide_batch for any
            # sample-size vector other than the stage-1 one.
            anc = parent
            while anc >= 0 and by_id[anc][1] != "simulation.decide_batch":
                anc = by_id[anc][0]
            if anc >= 0 and by_id[anc][2] and attrs["sizes"] != by_id[anc][2]["stage1"]:
                stage2_builds += 1

    def ratio(num, den):
        return num / den if den else 0.0

    size_tuples = sums.get("simulation.decide_batch.size_tuples", 0)
    counts = {
        "numerics.rng_stream.calls": calls.get("numerics.rng_stream", 0),
        "numerics.binomial_draw.calls": calls.get("numerics.binomial_draw", 0),
        "numerics.reg_inc_beta.calls": calls.get("numerics.reg_inc_beta", 0),
        "numerics.reg_inc_beta.elements": sums.get("numerics.reg_inc_beta.elements", 0),
        "numerics.log_beta.calls": calls.get("numerics.log_beta", 0),
        "partitions.build.calls": calls.get("partitions.build", 0),
        "partitions.build.partitions": sums.get("partitions.build.partitions", 0),
        "partitions.build.repeat_ratio": ratio(calls.get("partitions.build", 0), len(build_keys)),
        "posterior.engine_build.calls": calls.get("posterior.engine_build", 0),
        "posterior.weights.rows": sums.get("posterior.weights.rows", 0),
        "posterior.weights.cells": sums.get("posterior.weights.cells", 0),
        "posterior.partition_posterior.calls": calls.get("posterior.partition_posterior", 0),
        "design.interim_step.calls": calls.get("design.interim_step", 0),
        "simulation.survivor_sets": sums.get("simulation.decide_batch.sets", 0),
        "simulation.engines_per_size_tuple": ratio(stage2_builds, size_tuples),
        "calibration.grid_points": sums.get("calibration.sweep.grid_points", 0),
    }
    return {
        "self_s": self_s,
        "counts": counts,
        "covered_s": covered,
        "tracer_s": tracer,
    }
