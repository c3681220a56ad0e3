"""Monte-Carlo operating characteristics of a basket design.

Each simulated trial draws its stage cohorts from a dedicated random stream
keyed on (seed, trial, basket, stage), so results are bit-identical no matter
how trials are split across workers. A run simulates all of its scenarios
together, since they share these streams: draws are made in blocks of 1024
trials (TRIAL_BLOCK), one binomial_draws pass per block that seeds every
stream of the block once and draws each basket's distinct rates on it once,
so scenarios that give a basket the same rate share its counts and memory
stays bounded at any trial count. Each trial chunk then decides the trials
of every scenario in one decide_batch call, which analyzes a count row that
several scenarios share once. Aggregation uses integer counters only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .design import DesignSpec, survivor_exceedance
from .errors import DomainError, ShapeError
from .numerics import as_int, binomial_draws

TRIAL_BLOCK = 1024
DEFAULT_N_SIMS = 5000


@dataclass(frozen=True)
class Scenario:
    """One configuration of true response rates, with promising flags."""

    true_rates: tuple[float, ...]
    promising: tuple[bool, ...]
    label: str

    @classmethod
    def from_rates(cls, spec: DesignSpec, true_rates: Sequence[float], label: str) -> "Scenario":
        rates = tuple(float(r) for r in true_rates)
        if len(rates) != spec.num_baskets:
            raise ShapeError(
                f"scenario has {len(rates)} rates, design expects {spec.num_baskets}"
            )
        if any(not (0.0 <= r <= 1.0) for r in rates):
            raise DomainError(f"true rates must lie in [0, 1], got {rates}")
        promising = tuple(r > t0 for r, t0 in zip(rates, spec.theta0))
        return cls(true_rates=rates, promising=promising, label=label)


def scenario_suite(spec: DesignSpec) -> list[Scenario]:
    """The global null, the global alternative, and every mixed scenario in
    between; "k success" makes the last k baskets promising."""
    out = []
    for k in range(spec.num_baskets + 1):
        rates = list(spec.theta0[: spec.num_baskets - k]) + list(spec.theta1[spec.num_baskets - k:])
        out.append(Scenario.from_rates(spec, rates, f"{k} success"))
    return out


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Frequentist summary of a design under one scenario.

    fwer is None when the scenario has no null basket; trialwise_power is
    None when it has no promising basket. For Monte-Carlo results every rate
    is an integer count divided by n_sims; exact (non-simulated) results
    carry n_sims = None.
    """

    per_basket_reject_rate: tuple[float, ...]
    fwer: float | None
    trialwise_power: float | None
    expected_n: tuple[float, ...]
    n_sims: int | None = None
    seed: int | None = None


def generate_counts_batch(
    spec: DesignSpec, scenarios: Sequence[Scenario], trials: range, seed: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Binomial draws of every scenario for a range of trial indices:
    (x_interim, x_total), each (S, T, B) for S scenarios.

    Stage 1 draws spec.stage1_sizes() patients per basket on stream
    (t, b, 0) and stage 2 the remaining patients on (t, b, 1); the scenarios
    share these streams and differ only in their rates. A draw is a pure
    function of its stream, size and rate, so each basket's distinct rates
    are drawn once and their counts copied to every scenario that gives the
    basket that rate: the paper's suite, whose baskets take only theta0 or
    theta1, draws 2 rate rows, not 5. Baskets with fewer distinct rates
    than the most pad their rows with p = 0, which draws nothing. A
    single-stage design draws only stage 1, at its maximum sizes, and
    returns (None, x_total). The trials are drawn in blocks of TRIAL_BLOCK,
    one binomial_draws pass per block for every rate row at once, which
    derives each stream's state once and keeps every temporary bounded. The
    counts are copied a (scenario, basket) column at a time into the two
    arrays, whose dtype is the smallest unsigned integer type that holds
    the largest basket size.
    """
    if not scenarios:
        raise ShapeError("need at least one scenario")
    n1 = spec.stage1_sizes()
    sizes = [n1]
    if spec.stages == 2:
        sizes.append(tuple(n - m for n, m in zip(spec.max_sizes, n1)))
    sizes = np.array(sizes)
    stage, basket = np.indices(sizes.shape)
    # Each basket's distinct rates, padded with p = 0 to the most any basket
    # has: rate row r draws rates[r], and scenario s reads basket b from row
    # pick[s][b].
    table = np.array([sc.true_rates for sc in scenarios], dtype=float)
    rates, pick = np.zeros(table.shape), np.empty(table.shape, dtype=int)
    for b, col in enumerate(table.T):
        vals, pick[:, b] = np.unique(col, return_inverse=True)
        rates[: len(vals), b] = vals
    rates = rates[: pick.max() + 1].reshape(-1, 1, 1, spec.num_baskets)  # (R, stage, trial, B)
    pick = pick.tolist()
    dtype = np.min_scalar_type(max(spec.max_sizes))
    x_total = np.empty((len(scenarios), len(trials), spec.num_baskets), dtype=dtype)
    x_interim = np.empty_like(x_total) if spec.stages == 2 else None
    for lo in range(0, len(trials), TRIAL_BLOCK):
        block = np.asarray(trials[lo : lo + TRIAL_BLOCK])
        t, s, b, n = np.broadcast_arrays(
            block[None, :, None], *(a[:, None, :] for a in (stage, basket, sizes))
        )
        keys = np.stack([t, b, s], axis=-1).reshape(-1, 3)
        p = np.broadcast_to(rates, (len(rates), *t.shape)).reshape(len(rates), -1)
        # (R, stages, trials of the block, B)
        draws = binomial_draws(seed, keys, n.ravel(), p).reshape(len(rates), *t.shape)
        interim = draws[:, 0].astype(dtype)
        total = interim + draws[:, 1].astype(dtype) if x_interim is not None else interim
        hi = lo + len(block)
        for sc, rows in enumerate(pick):
            for j, r in enumerate(rows):
                x_total[sc, lo:hi, j] = total[r, :, j]
                if x_interim is not None:
                    x_interim[sc, lo:hi, j] = interim[r, :, j]
    return x_interim, x_total


def generate_counts(
    spec: DesignSpec, scenario: Scenario, trials: range, seed: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Binomial draws of one scenario, as int arrays: (x_interim, x_total),
    each (T, B), or (None, x_total) for a single-stage design. The
    one-scenario call of :func:`generate_counts_batch`."""
    x_interim, x_total = generate_counts_batch(spec, [scenario], trials, seed)
    return (None if x_interim is None else x_interim[0].astype(int)), x_total[0].astype(int)


def decide_batch(
    spec: DesignSpec, x_interim: np.ndarray | None, x_total: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decisions for many trials: (continued, rejected) booleans of shape (T, B).

    Both stages go through :func:`~localmem.design.survivor_exceedance`, whose
    rows equal the single-trial steps' :func:`~localmem.posterior.analyze`
    looks bit for bit, so row t equals run_single_stage or run_two_stage on
    trial t. A single-stage design continues every basket.
    """
    boundary = spec.boundary()
    continued = np.ones(np.shape(x_total), dtype=bool)
    if spec.stages == 2:
        continued = survivor_exceedance(spec, x_interim, continued, spec.stage1_sizes()) > boundary.q1
    rejected = survivor_exceedance(spec, x_total, continued, spec.max_sizes) > boundary.q2
    return continued, rejected


def _chunk_counts(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection counts (S, B), trials with a null basket rejected (S,) and
    continuation counts (S, B) of one trial chunk, from one decide_batch
    call over the (S * T, B) rows of every scenario."""
    spec, scenarios, seed, start, stop = args
    counts = generate_counts_batch(spec, scenarios, range(start, stop), seed)
    shape = counts[1].shape
    rows = (None if x is None else x.reshape(-1, shape[-1]) for x in counts)
    continued, rejected = (d.reshape(shape) for d in decide_batch(spec, *rows))
    null = ~np.array([sc.promising for sc in scenarios], dtype=bool).reshape(-1, 1, shape[-1])
    return rejected.sum(axis=1), (rejected & null).any(axis=2).sum(axis=1), continued.sum(axis=1)


def _chunk_ranges(n_sims: int, workers: int) -> list[tuple[int, int]]:
    chunk = -(-n_sims // workers)
    return [(lo, min(lo + chunk, n_sims)) for lo in range(0, n_sims, chunk)]


def _collect(fn, spec, scenarios, n_sims, seed, workers) -> list:
    """fn applied to every trial chunk of n_sims, in trial order; each chunk
    covers every scenario.

    workers sets the number of chunks only. The chunks run in a process pool
    of at most os.cpu_count() processes: under the fork start method the pool
    starts every process it is sized for at its first submit.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    jobs = [(spec, tuple(scenarios), seed, lo, hi) for lo, hi in _chunk_ranges(n_sims, workers)]
    processes = min(len(jobs), os.cpu_count() or 1)
    if processes == 1:
        return [fn(job) for job in jobs]
    # imported here: it pulls in multiprocessing, which one worker never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(fn, jobs))


def _summary(spec, scenario, n_sims, seed, reject_counts, any_null, continue_counts):
    """One scenario's OperatingCharacteristics from its integer counts."""
    rates = tuple(float(c) / n_sims for c in reject_counts)
    null_mask = [not p for p in scenario.promising]
    fwer = float(any_null) / n_sims if any(null_mask) else None
    if any(scenario.promising):
        weight = sum(spec.max_sizes[b] for b in range(spec.num_baskets) if scenario.promising[b])
        trialwise = (
            sum(spec.max_sizes[b] * rates[b] for b in range(spec.num_baskets) if scenario.promising[b])
            / weight
        )
    else:
        trialwise = None
    n1 = spec.stage1_sizes()
    expected_n = tuple(
        n1[b] + (spec.max_sizes[b] - n1[b]) * float(continue_counts[b]) / n_sims
        for b in range(spec.num_baskets)
    )
    return OperatingCharacteristics(
        per_basket_reject_rate=rates,
        fwer=fwer,
        trialwise_power=None if trialwise is None else float(trialwise),
        expected_n=expected_n,
        n_sims=n_sims,
        seed=seed,
    )


def simulate_batch(
    spec: DesignSpec,
    scenarios: Sequence[Scenario],
    n_sims: int = DEFAULT_N_SIMS,
    seed: int = 0,
    workers: int = 1,
) -> list[OperatingCharacteristics]:
    """Operating characteristics of every scenario, each from n_sims
    simulated trials on the same streams.

    Each trial chunk draws every scenario at once and decides all of their
    trials in one decide_batch call, so a count row that several scenarios
    produce is analyzed once. Trials are independent of their batch, so each
    result equals :func:`simulate` of its scenario alone. The worker count
    only splits the trial range; per-trial streams plus integer-count
    aggregation make the result identical for any split.
    """
    n_sims = as_int(n_sims, "n_sims")
    if n_sims < 1:
        raise DomainError(f"n_sims must be >= 1, got {n_sims}")
    if not scenarios:
        raise ShapeError("need at least one scenario")
    if any(len(sc.true_rates) != spec.num_baskets for sc in scenarios):
        raise ShapeError("scenario does not match the design's basket count")
    parts = _collect(_chunk_counts, spec, scenarios, n_sims, seed, workers)
    totals = (np.sum([p[i] for p in parts], axis=0) for i in range(3))
    return [_summary(spec, sc, n_sims, seed, *counts) for sc, *counts in zip(scenarios, *totals)]


def simulate(
    spec: DesignSpec,
    scenario: Scenario,
    n_sims: int = DEFAULT_N_SIMS,
    seed: int = 0,
    workers: int = 1,
) -> OperatingCharacteristics:
    """Estimate operating characteristics from n_sims simulated trials: the
    one-scenario call of :func:`simulate_batch`."""
    return simulate_batch(spec, [scenario], n_sims, seed, workers)[0]
