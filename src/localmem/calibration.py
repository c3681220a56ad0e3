"""Boundary calibration: pick (lam, gamma) maximizing power under control.

The search evaluates every grid point on one shared set of simulated trials
(common random numbers), so grid comparisons are not washed out by
Monte-Carlo noise. Feasibility means the family-wise error rate under the
global null stays at or below the target; among feasible points the one with
the highest trial-wise power under the global alternative wins, with ties
broken by lower error rate, then lower lam, then lower gamma.

The heavy per-trial quantities are computed once: stage-1 exceedance
probabilities, plus stage-2 exceedance probabilities for every survivor set a
trial can produce as q1 sweeps through its range (survivor sets are nested in
q1, so there are at most B + 1 of them per trial).

The sweep works on thresholds, not grid points. On the sorted lam grid,
basket b survives the interim look (p1 > q1 = lam * t^gamma) exactly at the
indices below one threshold, found by one `searchsorted` per gamma, and a
stage-2 probability rejects (p2 > lam) exactly at the indices below another,
found once. So between consecutive survivor thresholds a trial keeps one
survivor set, and each of its stage-2 analyses rejects on one interval of
indices. A difference array sums these intervals into integer FWER and power
counts for the whole lam row, the counts of evaluating each grid point on its
own.

A single-stage design is the case with no interim look: it runs the same
code with a stage 1 that stops no basket, and its sweep covers lam only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .design import DesignSpec, survivor_exceedance
from .errors import DomainError, InfeasibleCalibrationError
from .numerics import as_int
from .simulation import Scenario, _collect, generate_counts

DEFAULT_LAMBDA_GRID = tuple(np.round(np.arange(0.900, 0.9995, 0.001), 3))
DEFAULT_GAMMA_GRID = tuple(np.round(np.arange(0.0, 3.0001, 0.05), 2))


@dataclass(frozen=True)
class CalibrationProblem:
    """Search space and budget. The template's lam and gamma are ignored."""

    spec_template: DesignSpec
    fwer_target: float = 0.10
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    n_sims: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not self.lambda_grid or any(not (0.0 < v < 1.0) for v in self.lambda_grid):
            raise DomainError("lambda grid must be non-empty with values in (0, 1)")
        if self.spec_template.stages == 2 and (
            not self.gamma_grid or any(not (math.isfinite(v) and v >= 0.0) for v in self.gamma_grid)
        ):
            raise DomainError("gamma grid must be non-empty with finite values >= 0")
        if not (0.0 <= self.fwer_target < 1.0):
            raise DomainError(f"fwer_target must lie in [0, 1), got {self.fwer_target}")
        object.__setattr__(self, "n_sims", as_int(self.n_sims, "n_sims"))
        if self.n_sims < 1:
            raise DomainError(f"n_sims must be >= 1, got {self.n_sims}")

    def null_scenario(self) -> Scenario:
        return Scenario.from_rates(self.spec_template, self.spec_template.theta0, "global null")

    def alternative_scenario(self) -> Scenario:
        return Scenario.from_rates(
            self.spec_template, self.spec_template.theta1, "global alternative"
        )


@dataclass(frozen=True)
class FrontierPoint:
    lam: float
    gamma: float
    fwer: float
    power: float


@dataclass(frozen=True)
class CalibrationResult:
    lam: float
    gamma: float
    achieved_fwer: float
    achieved_power: float
    frontier: tuple[FrontierPoint, ...] = field(repr=False)


def _two_stage_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    """Stage-1 probabilities (T, B) and stage-2 probabilities (T, B + 1, B),
    where p2[t, r] is the stage-2 analysis when the r baskets with the highest
    stage-1 probabilities survive (-inf outside them).

    A single-stage design has no interim look: its p1 is +inf, so no basket
    stops, the only reachable cut is r = B and only p2[:, B], the analysis of
    all baskets at their maximum sizes, is filled."""
    spec, scenario, seed, lo, hi = args
    num_baskets = spec.num_baskets
    x1, xt = generate_counts(spec, scenario, range(lo, hi), seed)
    if spec.stages == 1:
        p1 = np.full(xt.shape, np.inf)
    else:
        p1 = survivor_exceedance(spec, x1, np.ones(x1.shape, dtype=bool), spec.stage1_sizes())

    order = np.argsort(-p1, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(p1, order, axis=1)
    rank = np.argsort(order, axis=1)
    # Cut r keeps the r highest baskets; no q1 produces it when a tie spans it.
    reachable = np.ones(p1.shape, dtype=bool)
    reachable[:, :-1] = sorted_vals[:, :-1] != sorted_vals[:, 1:]
    trial, cut = np.nonzero(reachable)
    p2 = np.full((len(p1), num_baskets + 1, num_baskets), -np.inf)
    p2[trial, cut + 1] = survivor_exceedance(
        spec, xt[trial], rank[trial] <= cut[:, None], spec.max_sizes
    )
    return p1, p2


def _sweep_counts(p1, p2, weights, lam_grid, t_frac, gamma_grid) -> np.ndarray:
    """Weighted rejection counts per (gamma, lam), lam in the grid's order.

    count[g, i] sums weights[j] * (p2[t, r, j] > lam_i) over trials t and
    columns j, where r = (p1[t] > lam_i * t_frac**gamma_g).sum() survivors.
    On the sorted lam grid each (trial, cut, column) rejects on one interval
    of indices; a difference array adds up the intervals.
    """
    num_trials, num_baskets = p1.shape
    order = np.argsort(lam_grid, kind="stable")
    lam_s = lam_grid[order]
    width = len(lam_s) + 1
    # p2[t, r, j] > lam_s[i] iff i < reject[t, r, j]
    reject = np.searchsorted(lam_s, p2, side="left")
    offsets = np.arange(p2.shape[2]) * width
    # Each trial's survivor thresholds, highest first, framed by len(lam_s)
    # and 0: cut r (r survivors) holds on [bounds[:, r + 1], bounds[:, r]).
    bounds = np.empty((num_trials, num_baskets + 2), dtype=np.intp)
    bounds[:, 0], bounds[:, -1] = len(lam_s), 0
    lo, top = bounds[:, 1:, None], bounds[:, :-1, None]
    p1_desc = np.sort(p1, axis=1)[:, ::-1]
    counts = np.empty((len(gamma_grid), len(lam_s)), dtype=np.int64)
    for g, gamma in enumerate(gamma_grid):
        # t_frac**gamma >= 0 scales the sorted grid into a sorted q1 grid
        q1_s = lam_s * t_frac**gamma
        # basket b survives at sorted index i iff i < s_b, i.e. p1 > q1
        bounds[:, 1:-1] = np.searchsorted(q1_s, p1_desc, side="left")
        hi = np.maximum(lo, np.minimum(top, reject))
        ends = np.bincount((hi + offsets).ravel(), minlength=offsets.size * width)
        diff = weights.sum() * np.bincount(lo.ravel(), minlength=width)
        diff -= weights @ ends.reshape(-1, width)
        counts[g, order] = np.cumsum(diff[:-1])
    return counts


def calibrate(problem: CalibrationProblem, workers: int = 1) -> CalibrationResult:
    """Grid search over (lam, gamma).

    A single-stage design searches lam only, since its stage 1 stops no
    basket, and gamma reports 0.
    """
    spec = problem.spec_template
    n_sims = problem.n_sims
    weights = np.asarray(spec.max_sizes)
    trial_weight = int(weights.sum())
    t_frac = spec.information_fraction()
    gamma_grid = problem.gamma_grid if spec.stages == 2 else (0.0,)

    null_parts = _collect(_two_stage_chunk, spec, problem.null_scenario(), n_sims, problem.seed, workers)
    alt_parts = _collect(
        _two_stage_chunk, spec, problem.alternative_scenario(), n_sims, problem.seed, workers
    )
    p1_null = np.concatenate([p[0] for p in null_parts])
    p2_null = np.concatenate([p[1] for p in null_parts])
    p1_alt = np.concatenate([p[0] for p in alt_parts])
    p2_alt = np.concatenate([p[1] for p in alt_parts])
    lam_grid = np.asarray(problem.lambda_grid, dtype=float)
    fwer_counts = _sweep_counts(
        p1_null, p2_null.max(axis=2, keepdims=True), np.ones(1, dtype=np.int64),
        lam_grid, t_frac, gamma_grid,
    )
    power_counts = _sweep_counts(p1_alt, p2_alt, weights, lam_grid, t_frac, gamma_grid)
    candidates = [
        (int(fwer_counts[g, i]), int(power_counts[g, i]), float(lam), float(gamma))
        for g, gamma in enumerate(gamma_grid)
        for i, lam in enumerate(problem.lambda_grid)
    ]
    feasible = [c for c in candidates if c[0] <= problem.fwer_target * n_sims + 1e-9]
    if not feasible:
        min_fwer = min(c[0] for c in candidates) / n_sims
        raise InfeasibleCalibrationError(
            f"no grid point controls FWER at {problem.fwer_target}; minimum achieved was {min_fwer:.4f}",
            min_achieved_fwer=min_fwer,
        )
    fwer_count, power_count, lam, gamma = min(feasible, key=lambda c: (-c[1], c[0], c[2], c[3]))
    return CalibrationResult(
        lam=lam,
        gamma=gamma,
        achieved_fwer=fwer_count / n_sims,
        achieved_power=power_count / (n_sims * trial_weight),
        frontier=tuple(
            FrontierPoint(lam=lm, gamma=gm, fwer=fc / n_sims, power=pc / (n_sims * trial_weight))
            for fc, pc, lm, gm in feasible
        ),
    )


def calibrated_spec(problem: CalibrationProblem, result: CalibrationResult) -> DesignSpec:
    """The template with the selected boundary parameters filled in."""
    return replace(problem.spec_template, lam=result.lam, gamma=result.gamma)
