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
q1, so there are at most B + 1 of them per trial). The global null and the
global alternative share their streams, so each trial chunk draws both at
once and analyzes their trials in one survivor_exceedance call per stage.

The sweep works on events, not grid points. On the sorted lam grid a
stage-2 probability rejects (p2 > lam) exactly at the indices below one
threshold, found by one `searchsorted`; the (trial, cut, column) cells whose
threshold is above 0 are the events, and no other cell can reject. An event
of cut r counts at the grid point (lam, q1 = lam * t^gamma) when the trial
keeps r survivors there, i.e. when q1 lies between its r-th and (r+1)-th
highest stage-1 probabilities. These bounds are looked up among the distinct
stage-1 probabilities of the trials that hold an event, once per q1. Sweeping
lam from the top down, each event enters a running histogram over those
bounds once, at its own threshold, and a prefix sum of the histogram reads
off every gamma's integer FWER or power count at that lam: the counts of
evaluating each grid point on its own.

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
from .simulation import DEFAULT_N_SIMS, Scenario, _collect, generate_counts_batch

DEFAULT_LAMBDA_GRID = tuple(np.round(np.arange(0.900, 0.9995, 0.001), 3))
DEFAULT_GAMMA_GRID = tuple(np.round(np.arange(0.0, 3.0001, 0.05), 2))
DEFAULT_FWER_TARGET = 0.10


@dataclass(frozen=True)
class CalibrationProblem:
    """Search space and budget. The template's lam and gamma are ignored."""

    spec_template: DesignSpec
    fwer_target: float = DEFAULT_FWER_TARGET
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    n_sims: int = DEFAULT_N_SIMS
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
    """Stage-1 probabilities (S, T, B) and stage-2 probabilities
    (S, T, B + 1, B) of every scenario, where p2[s, t, r] is the stage-2
    analysis when the r baskets with the highest stage-1 probabilities
    survive (-inf outside them). The trials of every scenario go through one
    survivor_exceedance call per stage.

    A single-stage design has no interim look: its p1 is +inf, so no basket
    stops, the only reachable cut is r = B and only p2[..., B, :], the
    analysis of all baskets at their maximum sizes, is filled."""
    spec, scenarios, seed, lo, hi = args
    num_baskets = spec.num_baskets
    x1, xt = generate_counts_batch(spec, scenarios, range(lo, hi), seed)
    shape = xt.shape
    xt = xt.reshape(-1, num_baskets)
    if spec.stages == 1:
        p1 = np.full(xt.shape, np.inf)
    else:
        x1 = x1.reshape(-1, num_baskets)
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
    return p1.reshape(shape), p2.reshape(*shape[:2], num_baskets + 1, num_baskets)


def _sweep_counts(p1, p2, weights, lam_grid, t_frac, gamma_grid) -> np.ndarray:
    """Weighted rejection counts per (gamma, lam), lam in the grid's order.

    count[g, i] sums weights[j] * (p2[t, r, j] > lam_i) over trials t and
    columns j, where r = (p1[t] > lam_i * t_frac**gamma_g).sum() survivors.

    Only events, the cells with p2 above the lowest lam, can count. With
    p1[t] sorted descending and framed by +inf and -inf, cut r holds where
    framed[r + 1] <= q1 < framed[r]; as indices lo < top into the distinct
    values of framed, that is lo < k <= top for k = searchsorted(values, q1,
    "right"). On the sorted lam grid an event rejects at indices i < reject.
    So the sweep walks i downwards, adds the events with reject = i + 1 to a
    histogram (+weight at lo, -weight at top) and reads count[:, i] from the
    histogram's prefix sums at each gamma's k. Weights enter through one
    integer bincount slot per distinct weight, so the counts stay exact.
    """
    num_baskets = p1.shape[1]
    order = np.argsort(lam_grid, kind="stable")
    lam_s = lam_grid[order]
    counts = np.zeros((len(gamma_grid), len(lam_s)), dtype=np.int64)
    # p2[t, r, j] > lam_s[i] iff i < reject[t, r, j]
    reject = np.searchsorted(lam_s, p2, side="left")
    trial, cut, column = np.nonzero(reject)
    if trial.size:
        reject = reject[trial, cut, column]
        rows, trial = np.unique(trial, return_inverse=True)
        framed = np.empty((rows.size, num_baskets + 2))
        framed[:, 0], framed[:, -1] = np.inf, -np.inf
        framed[:, 1:-1] = np.sort(p1[rows], axis=1)[:, ::-1]
        # a 1-D argument, so the inverse is flat on every numpy
        values, index = np.unique(framed.ravel(), return_inverse=True)
        index = index.reshape(framed.shape)
        classes, weight_class = np.unique(weights, return_inverse=True)
        span = values.size + 1
        slot = weight_class.reshape(-1)[column] * span + 1
        by = np.argsort(reject, kind="stable")
        lo_slot = (slot + index[trial, cut + 1])[by]
        top_slot = (slot + index[trial, cut])[by]
        # events with reject = i + 1 are by[ends[i]:ends[i + 1]]
        ends = np.searchsorted(reject[by], np.arange(len(lam_s) + 1), side="right")
        # t_frac**gamma >= 0 scales the sorted grid into a sorted q1 grid
        shrink = np.array([t_frac**gamma for gamma in gamma_grid])
        k = np.searchsorted(values, lam_s[:, None] * shrink, side="right")
        held = np.zeros(classes.size * span, dtype=np.int64)
        below = np.zeros(span, dtype=np.int64)
        for i in range(len(lam_s) - 1, -1, -1):
            if ends[i + 1] > ends[i]:
                held += np.bincount(lo_slot[ends[i] : ends[i + 1]], minlength=held.size)
                held -= np.bincount(top_slot[ends[i] : ends[i + 1]], minlength=held.size)
                # below[k] sums the weights of held events with lo < k <= top
                below = classes @ np.cumsum(held.reshape(classes.size, span), axis=1)
            counts[:, order[i]] = below[k[i]]
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

    scenarios = (problem.null_scenario(), problem.alternative_scenario())
    parts = _collect(_two_stage_chunk, spec, scenarios, n_sims, problem.seed, workers)
    p1_null, p1_alt = np.concatenate([p[0] for p in parts], axis=1)
    p2_null, p2_alt = np.concatenate([p[1] for p in parts], axis=1)
    lam_grid = np.asarray(problem.lambda_grid, dtype=float)
    fwer_counts = _sweep_counts(
        p1_null, p2_null.max(axis=2, keepdims=True), np.ones(1, dtype=np.int64),
        lam_grid, t_frac, gamma_grid,
    )
    power_counts = _sweep_counts(p1_alt, p2_alt, weights, lam_grid, t_frac, gamma_grid)
    feasible = fwer_counts <= problem.fwer_target * n_sims + 1e-9
    if not feasible.any():
        min_fwer = int(fwer_counts.min()) / n_sims
        raise InfeasibleCalibrationError(
            f"no grid point controls FWER at {problem.fwer_target}; minimum achieved was {min_fwer:.4f}",
            min_achieved_fwer=min_fwer,
        )
    # the feasible points in grid order, gamma outer and lam inner
    g, i = np.nonzero(feasible)
    lams = lam_grid[i]
    gammas = np.asarray(gamma_grid, dtype=float)[g]
    fwer, power = fwer_counts[g, i], power_counts[g, i]
    # lexsort is stable, so among equal keys the first in grid order wins
    best = np.lexsort((gammas, lams, fwer, -power))[0]
    fwer, power, lams, gammas = fwer.tolist(), power.tolist(), lams.tolist(), gammas.tolist()
    return CalibrationResult(
        lam=lams[best],
        gamma=gammas[best],
        achieved_fwer=fwer[best] / n_sims,
        achieved_power=power[best] / (n_sims * trial_weight),
        frontier=tuple(
            FrontierPoint(lam=lm, gamma=gm, fwer=fc / n_sims, power=pc / (n_sims * trial_weight))
            for fc, pc, lm, gm in zip(fwer, power, lams, gammas)
        ),
    )


def calibrated_spec(problem: CalibrationProblem, result: CalibrationResult) -> DesignSpec:
    """The template with the selected boundary parameters filled in."""
    return replace(problem.spec_template, lam=result.lam, gamma=result.gamma)
