import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from localmem.calibration import (
    CalibrationProblem,
    CalibrationResult,
    FrontierPoint,
    _two_stage_chunk,
    calibrate,
    calibrated_spec,
)
from localmem.design import DesignSpec
from localmem.errors import DomainError, InfeasibleCalibrationError
from localmem.numerics import binom_sf, reg_inc_beta
from localmem.simulation import _collect, scenario_suite, simulate


def fixed_template(num_baskets=4, size=19, delta=2.0):
    return DesignSpec.create(
        num_baskets, size, 0.15, 0.45, lam=0.5, gamma=0.0, delta=delta, stages=1
    )


def two_stage_template(delta=2.0):
    return DesignSpec.create(
        4, 16, 0.15, 0.45, lam=0.5, gamma=0.0, delta=delta, stages=2, interim_sizes=10
    )


class TestCalibrateFixed:
    def test_extreme_threshold_is_feasible(self):
        problem = CalibrationProblem(
            spec_template=fixed_template(),
            lambda_grid=(0.9999,),
            gamma_grid=(0.0,),
            n_sims=400,
            seed=1,
        )
        result = calibrate(problem)
        assert result.lam == 0.9999
        assert result.gamma == 0.0
        assert result.achieved_fwer <= 0.10

    def test_zero_target_infeasible(self):
        problem = CalibrationProblem(
            spec_template=fixed_template(),
            fwer_target=0.0,
            lambda_grid=(0.5, 0.6),
            gamma_grid=(0.0,),
            n_sims=400,
            seed=1,
        )
        with pytest.raises(InfeasibleCalibrationError) as err:
            calibrate(problem)
        assert err.value.min_achieved_fwer > 0.0

    def test_single_basket_reproduces_exact_binomial_test(self):
        # With one basket the chosen threshold must induce the same rejection
        # region {x >= c*} as the exact most-powerful Beta-Binomial test with
        # type I error at most the target.
        size, p0, p1, target = 19, 0.15, 0.45, 0.10
        template = DesignSpec.create(1, size, p0, p1, lam=0.5, delta=0.0, stages=1)
        problem = CalibrationProblem(
            spec_template=template, fwer_target=target, n_sims=20_000, seed=31
        )
        result = calibrate(problem)
        # exhaustive enumeration oracle over rejection cutoffs
        exact_alpha = {
            c: 1.0 if c == 0 else binom_sf(c - 1, size, p0) for c in range(size + 1)
        }
        best_c = min(c for c in range(size + 1) if exact_alpha[c] <= target)
        tail = lambda x: 1.0 - reg_inc_beta(p0, 1 + x, 1 + size - x)
        induced_c = next(x for x in range(size + 1) if tail(x) > result.lam)
        assert induced_c == best_c

    def test_feasibility_and_dominance(self):
        problem = CalibrationProblem(
            spec_template=fixed_template(),
            lambda_grid=tuple(np.round(np.arange(0.95, 0.999, 0.002), 3)),
            gamma_grid=(0.0,),
            n_sims=1200,
            seed=5,
        )
        result = calibrate(problem)
        assert result.achieved_fwer <= problem.fwer_target
        for point in result.frontier:
            assert point.fwer <= problem.fwer_target
            assert not (point.power > result.achieved_power)

    def test_monotone_screening_in_lambda(self):
        # Single-stage rejection regions shrink as the threshold rises, so
        # with shared trials the empirical FWER is exactly non-increasing.
        problem = CalibrationProblem(
            spec_template=fixed_template(),
            lambda_grid=tuple(np.round(np.arange(0.90, 0.999, 0.001), 3)),
            gamma_grid=(0.0,),
            n_sims=1500,
            seed=6,
        )
        result = calibrate(problem)
        by_lam = sorted((p.lam, p.fwer) for p in result.frontier)
        fwers = [f for _, f in by_lam]
        assert all(a >= b - 1e-12 for a, b in zip(fwers, fwers[1:]))


class TestCalibrateTwoStage:
    def test_paper_setup_selects_controlled_powerful_boundary(self):
        problem = CalibrationProblem(
            spec_template=two_stage_template(delta=2.0),
            lambda_grid=tuple(np.round(np.arange(0.960, 0.9905, 0.001), 3)),
            gamma_grid=tuple(np.round(np.arange(0.0, 1.6, 0.1), 2)),
            n_sims=2000,
            seed=42,
        )
        result = calibrate(problem)
        assert result.achieved_fwer <= 0.10
        # the reported boundary for this setting is q2 = 0.977; flat near-ties
        # mean the selected point can differ, but must sit in the same region
        # and dominate it in calibration power
        assert 0.96 <= result.lam <= 0.99
        paper_point = [
            p for p in result.frontier if abs(p.lam - 0.977) < 5e-4 and abs(p.gamma - 0.7) < 0.051
        ]
        if paper_point:
            assert result.achieved_power >= paper_point[0].power - 1e-12

    def test_evaluation_of_calibrated_design(self):
        problem = CalibrationProblem(
            spec_template=two_stage_template(delta=2.0),
            lambda_grid=tuple(np.round(np.arange(0.965, 0.9905, 0.002), 3)),
            gamma_grid=(0.5, 0.7, 0.9),
            n_sims=1500,
            seed=17,
        )
        result = calibrate(problem)
        chosen = calibrated_spec(problem, result)
        assert chosen.lam == result.lam and chosen.gamma == result.gamma
        oc = simulate(chosen, scenario_suite(chosen)[0], 1500, seed=18)
        assert oc.fwer < problem.fwer_target + 0.04  # loose independent-seed guard

    def test_ties_prefer_lower_fwer_then_lower_lambda(self):
        problem = CalibrationProblem(
            spec_template=two_stage_template(),
            lambda_grid=(0.97, 0.98),
            gamma_grid=(0.5,),
            n_sims=300,
            seed=3,
        )
        result = calibrate(problem)
        same_power = [p for p in result.frontier if p.power == result.achieved_power]
        best = min(same_power, key=lambda p: (p.fwer, p.lam, p.gamma))
        assert (result.lam, result.gamma) == (best.lam, best.gamma)

    def test_worker_invariance(self):
        problem = CalibrationProblem(
            spec_template=two_stage_template(),
            lambda_grid=(0.97, 0.977),
            gamma_grid=(0.5, 0.7),
            n_sims=240,
            seed=11,
        )
        serial = calibrate(problem, workers=1)
        parallel = calibrate(problem, workers=3)
        assert serial == parallel


class TestSweepIsTheDecisionRule:
    # Each frontier point, re-run through simulate on the calibration's own
    # seed, must give the same FWER count and the same trial-wise power.
    @pytest.mark.parametrize(
        "template, lambda_grid, gamma_grid, n_sims",
        [
            (two_stage_template(), (0.9, 0.95, 0.977), (0.3, 0.7, 1.5), 300),
            (
                DesignSpec.create(
                    5, (10, 12, 14, 16, 18), 0.15, 0.45, lam=0.5, delta=1.0,
                    stages=2, interim_fraction=0.5,
                ),
                (0.9, 0.97),
                (0.0, 0.7, 2.0),
                200,
            ),
            (fixed_template(), (0.8, 0.9, 0.95, 0.99), (0.0,), 300),
        ],
        ids=["paper-two-stage", "unequal-two-stage", "single-stage"],
    )
    def test_frontier_points_match_simulate(self, template, lambda_grid, gamma_grid, n_sims):
        problem = CalibrationProblem(
            spec_template=template,
            fwer_target=0.99,
            lambda_grid=lambda_grid,
            gamma_grid=gamma_grid,
            n_sims=n_sims,
            seed=13,
        )
        result = calibrate(problem)
        assert len(result.frontier) == len(lambda_grid) * len(gamma_grid)
        for point in result.frontier:
            spec = replace(template, lam=point.lam, gamma=point.gamma)
            null = simulate(spec, problem.null_scenario(), n_sims, seed=problem.seed)
            alt = simulate(spec, problem.alternative_scenario(), n_sims, seed=problem.seed)
            assert null.fwer == point.fwer
            assert abs(alt.trialwise_power - point.power) <= 1e-12


def per_point_calibrate(problem):
    """calibrate with every grid point evaluated on its own, one at a time."""
    spec = problem.spec_template
    n_sims = problem.n_sims
    weights = np.asarray(spec.max_sizes)
    trial_weight = int(weights.sum())
    t_frac = spec.information_fraction()
    gamma_grid = problem.gamma_grid if spec.stages == 2 else (0.0,)
    null_parts = _collect(_two_stage_chunk, spec, problem.null_scenario(), n_sims, problem.seed, 1)
    alt_parts = _collect(_two_stage_chunk, spec, problem.alternative_scenario(), n_sims, problem.seed, 1)
    p1_null = np.concatenate([p[0] for p in null_parts])
    p2_null = np.concatenate([p[1] for p in null_parts])
    p1_alt = np.concatenate([p[0] for p in alt_parts])
    p2_alt = np.concatenate([p[1] for p in alt_parts])
    rows = np.arange(n_sims)
    candidates = []
    for gamma in gamma_grid:
        shrink = t_frac**gamma
        for lam in problem.lambda_grid:
            q1 = lam * shrink
            r_null = (p1_null > q1).sum(axis=1)
            fwer_count = int((p2_null[rows, r_null, :].max(axis=1) > lam).sum())
            r_alt = (p1_alt > q1).sum(axis=1)
            reject_alt = p2_alt[rows, r_alt, :] > lam
            power_count = int((reject_alt * weights[None, :]).sum())
            candidates.append((fwer_count, power_count, float(lam), float(gamma)))
    feasible = [c for c in candidates if c[0] <= problem.fwer_target * n_sims + 1e-9]
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


class TestVectorisedSweep:
    # The grid sweep must give exactly the per-point answer. The trial
    # counts are not multiples of the 512-trial block.
    @pytest.mark.parametrize(
        "template, lambda_grid, gamma_grid, n_sims, fwer_target",
        [
            (two_stage_template(), None, None, 2000, 0.10),
            (two_stage_template(), (0.9, 0.95, 0.977), (0.3, 0.7, 1.5), 1100, 0.99),
            (
                DesignSpec.create(
                    5, (10, 12, 14, 16, 18), 0.15, 0.45, lam=0.5, delta=1.0,
                    stages=2, interim_fraction=0.5,
                ),
                (0.9, 0.97),
                (0.0, 0.7, 2.0),
                700,
                0.99,
            ),
            (fixed_template(), (0.8, 0.9, 0.95, 0.99), (0.0,), 1300, 0.99),
            (fixed_template(num_baskets=3, size=(12, 19, 25)), None, None, 1500, 0.10),
        ],
        ids=[
            "paper-default-grid",
            "paper-two-stage",
            "unequal-two-stage",
            "single-stage",
            "single-stage-default-grid",
        ],
    )
    def test_equals_per_point_evaluation(
        self, template, lambda_grid, gamma_grid, n_sims, fwer_target
    ):
        grids = {}
        if lambda_grid is not None:
            grids = {"lambda_grid": lambda_grid, "gamma_grid": gamma_grid}
        problem = CalibrationProblem(
            spec_template=template, fwer_target=fwer_target, n_sims=n_sims, seed=13, **grids
        )
        result = calibrate(problem)
        reference = per_point_calibrate(problem)
        assert result == reference
        assert result.frontier == reference.frontier

    def test_memory_is_bounded_by_the_trial_block(self):
        problem = CalibrationProblem(spec_template=two_stage_template(), n_sims=2000, seed=13)
        tracemalloc.start()
        try:
            calibrate(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestProblemValidation:
    def test_bad_grids(self):
        with pytest.raises(DomainError):
            CalibrationProblem(spec_template=two_stage_template(), lambda_grid=())
        with pytest.raises(DomainError):
            CalibrationProblem(spec_template=two_stage_template(), lambda_grid=(1.2,))
        with pytest.raises(DomainError):
            CalibrationProblem(spec_template=two_stage_template(), gamma_grid=(-0.5,))
        with pytest.raises(DomainError):
            CalibrationProblem(spec_template=two_stage_template(), n_sims=0)
