"""Monte-Carlo operating characteristics of a basket design.

Each simulated trial draws its stage cohorts from a dedicated random stream
keyed on (seed, trial, basket, stage), so results are bit-identical no matter
how trials are split across workers. Draws are made in blocks of 512 trials
(TRIAL_BLOCK), one numpy binomial_draws pass per block that seeds and draws
every stream of the block, so memory stays bounded at any trial count.
Aggregation uses integer counters only.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .design import DesignSpec, survivor_exceedance
from .errors import DomainError, ShapeError
from .numerics import as_int, binomial_draws

TRIAL_BLOCK = 512
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


def generate_counts(
    spec: DesignSpec, scenario: Scenario, trials: range, seed: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Binomial draws for a range of trial indices: (x_interim, x_total), each (T, B).

    Stage 1 draws spec.stage1_sizes() patients per basket on stream
    (t, b, 0) and stage 2 the remaining patients on (t, b, 1). A
    single-stage design draws only stage 1, at its maximum sizes, and returns
    (None, x_total). The trials are drawn in blocks of TRIAL_BLOCK, one
    binomial_draws call per block, which keeps every temporary bounded.
    """
    n1 = spec.stage1_sizes()
    sizes = [n1]
    if spec.stages == 2:
        sizes.append(tuple(n - m for n, m in zip(spec.max_sizes, n1)))
    sizes = np.array(sizes)
    stage, basket = np.indices(sizes.shape)
    rates = np.broadcast_to(scenario.true_rates, sizes.shape)
    x = np.empty((len(sizes), len(trials), spec.num_baskets), dtype=int)
    for lo in range(0, len(trials), TRIAL_BLOCK):
        block = np.asarray(trials[lo : lo + TRIAL_BLOCK])
        t, s, b, n, p = np.broadcast_arrays(
            block[None, :, None], *(a[:, None, :] for a in (stage, basket, sizes, rates))
        )
        keys = np.stack([t, b, s], axis=-1).reshape(-1, 3)
        draws = binomial_draws(seed, keys, n.ravel(), p.ravel())
        x[:, lo : lo + len(block)] = draws.reshape(t.shape)
    return (x[0] if spec.stages == 2 else None), x.sum(axis=0)


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


def _chunk_counts(args) -> tuple[np.ndarray, int, np.ndarray]:
    spec, scenario, seed, start, stop = args
    x1, xt = generate_counts(spec, scenario, range(start, stop), seed)
    continued, rejected = decide_batch(spec, x1, xt)
    null_mask = ~np.asarray(scenario.promising)
    any_null_reject = int(rejected[:, null_mask].any(axis=1).sum()) if null_mask.any() else 0
    return rejected.sum(axis=0), any_null_reject, continued.sum(axis=0)


def _chunk_ranges(n_sims: int, workers: int) -> list[tuple[int, int]]:
    chunk = -(-n_sims // workers)
    return [(lo, min(lo + chunk, n_sims)) for lo in range(0, n_sims, chunk)]


def _collect(fn, spec, scenario, n_sims, seed, workers) -> list:
    """fn applied to every trial chunk of n_sims, in trial order.

    workers sets the number of chunks only. The chunks run in a process pool
    of at most os.cpu_count() processes: under the fork start method the pool
    starts every process it is sized for at its first submit.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    jobs = [(spec, scenario, seed, lo, hi) for lo, hi in _chunk_ranges(n_sims, workers)]
    processes = min(len(jobs), os.cpu_count() or 1)
    if processes == 1:
        return [fn(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(fn, jobs))


def simulate(
    spec: DesignSpec,
    scenario: Scenario,
    n_sims: int = DEFAULT_N_SIMS,
    seed: int = 0,
    workers: int = 1,
) -> OperatingCharacteristics:
    """Estimate operating characteristics from n_sims simulated trials.

    The worker count only splits the trial range; per-trial streams plus
    integer-count aggregation make the result identical for any split.
    """
    n_sims = as_int(n_sims, "n_sims")
    if n_sims < 1:
        raise DomainError(f"n_sims must be >= 1, got {n_sims}")
    if len(scenario.true_rates) != spec.num_baskets:
        raise ShapeError("scenario does not match the design's basket count")
    parts = _collect(_chunk_counts, spec, scenario, n_sims, seed, workers)
    reject_counts = np.sum([p[0] for p in parts], axis=0)
    any_null = sum(p[1] for p in parts)
    continue_counts = np.sum([p[2] for p in parts], axis=0)

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
