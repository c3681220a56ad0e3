import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from localmem import calibration
from localmem.calibration import (
    CalibrationProblem,
    CalibrationResult,
    FrontierPoint,
    _sweep_counts,
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
    # Each scenario collected on its own, a one-scenario batch.
    null_parts = _collect(_two_stage_chunk, spec, (problem.null_scenario(),), n_sims, problem.seed, 1)
    alt_parts = _collect(_two_stage_chunk, spec, (problem.alternative_scenario(),), n_sims, problem.seed, 1)
    p1_null = np.concatenate([p[0][0] for p in null_parts])
    p2_null = np.concatenate([p[1][0] for p in null_parts])
    p1_alt = np.concatenate([p[0][0] for p in alt_parts])
    p2_alt = np.concatenate([p[1][0] for p in alt_parts])
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
    # counts are not multiples of the trial block (TRIAL_BLOCK, 1024 trials).
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
            (
                two_stage_template(),
                (0.99, 0.95, 0.977, 0.95, 0.9, 0.985, 0.977),
                (1.5, 0.0, 0.7, 0.7),
                900,
                0.99,
            ),
        ],
        ids=[
            "paper-default-grid",
            "paper-two-stage",
            "unequal-two-stage",
            "single-stage",
            "single-stage-default-grid",
            "unsorted-duplicated-grid",
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

    @pytest.mark.parametrize("template", [two_stage_template(), fixed_template(num_baskets=3)])
    def test_scenario_batch_equals_one_scenario_at_a_time(self, template):
        # calibrate draws and analyzes the null and the alternative together;
        # each scenario's probabilities equal those of a chunk of its own.
        problem = CalibrationProblem(spec_template=template, n_sims=10, seed=3)
        scenarios = (problem.null_scenario(), problem.alternative_scenario())
        p1, p2 = _two_stage_chunk((template, scenarios, 3, 100, 900))
        assert p1.shape == (2, 800, template.num_baskets)
        assert p2.shape == (2, 800, template.num_baskets + 1, template.num_baskets)
        for s, scenario in enumerate(scenarios):
            one = _two_stage_chunk((template, (scenario,), 3, 100, 900))
            assert p1[s].tobytes() == one[0][0].tobytes()
            assert p2[s].tobytes() == one[1][0].tobytes()

    def test_memory_is_bounded_by_the_trial_block(self):
        problem = CalibrationProblem(spec_template=two_stage_template(), n_sims=2000, seed=13)
        tracemalloc.start()
        try:
            calibrate(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_paper_calibration_memory_is_bounded(self):
        # The paper design on the default 61 x 100 grid at 2,000 trials: the
        # exceedance step gets only the survivors' cells. Traced at 3.18-3.20 MB
        # (Python 3.11, numpy 2.4); filling full (T, B) alpha and beta arrays
        # and masking them traced 3.35-3.37 MB.
        problem = CalibrationProblem(spec_template=two_stage_template(), n_sims=2000, seed=3)
        tracemalloc.start()
        try:
            calibrate(problem)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.3e6


def brute_sweep_counts(p1, p2, weights, lam_grid, t_frac, gamma_grid):
    """The rule _sweep_counts applies, at one (gamma, lam) at a time."""
    rows = np.arange(len(p1))
    counts = np.zeros((len(gamma_grid), len(lam_grid)), dtype=np.int64)
    for g, gamma in enumerate(gamma_grid):
        for i, lam in enumerate(lam_grid):
            survivors = (p1 > lam * t_frac**gamma).sum(axis=1)
            counts[g, i] = ((p2[rows, survivors] > lam) * weights).sum()
    return counts


class TestSweepCounts:
    # Values are drawn from small pools so that p1 sits exactly on q1 grid
    # values, ties within a trial are common, p2 equals lam grid values and
    # some cuts are -inf.
    LAMBDAS = (0.99, 0.95, 0.977, 0.95, 0.9, 0.985, 0.977, 0.93)
    GAMMAS = (0.0, 0.7, 1.5, 0.7, 3.0)
    T_FRAC = 10 / 16

    def synthetic(self, rng, num_trials, num_baskets, columns):
        q1_values = [lam * self.T_FRAC**gamma for lam in self.LAMBDAS for gamma in self.GAMMAS]
        p1_pool = np.concatenate([q1_values, rng.uniform(0.0, 1.0, 40), [0.0, 1.0]])
        p1 = rng.choice(p1_pool, size=(num_trials, num_baskets))
        p2_pool = np.concatenate([self.LAMBDAS, rng.uniform(0.85, 1.0, 40), [-np.inf]])
        p2 = rng.choice(p2_pool, size=(num_trials, num_baskets + 1, columns))
        return p1, p2

    @pytest.mark.parametrize("num_baskets", [1, 2, 4, 6])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_equals_brute_force(self, num_baskets, weighted):
        rng = np.random.default_rng(num_baskets)
        columns = num_baskets if weighted else 1
        p1, p2 = self.synthetic(rng, 1300, num_baskets, columns)
        weights = rng.integers(1, 30, columns) if weighted else np.ones(1, dtype=np.int64)
        lam_grid = np.asarray(self.LAMBDAS)
        got = _sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, brute_sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        )

    def test_tied_trial_and_exact_threshold(self):
        lam_grid = np.array([0.95, 0.9, 0.95])
        q1 = 0.95 * self.T_FRAC**0.7
        p1 = np.array([[0.8, 0.8, 0.1], [q1, q1, q1]])
        p2 = np.full((2, 4, 1), -np.inf)
        # the cut inside trial 0's tie is never reached, so its 0.99 never counts
        p2[0, 1], p2[0, 2], p2[1, 3] = 0.99, 0.96, 0.95
        got = _sweep_counts(p1, p2, np.ones(1, dtype=np.int64), lam_grid, self.T_FRAC, (0.7,))
        np.testing.assert_array_equal(
            got, brute_sweep_counts(p1, p2, 1, lam_grid, self.T_FRAC, (0.7,))
        )
        # trial 0 keeps two baskets at every lam; trial 1, with p1 on
        # q1(0.95), keeps all three at lam = 0.9 and none at lam = 0.95
        np.testing.assert_array_equal(got, [[1, 2, 1]])

    def test_single_stage_has_no_interim_look(self):
        rng = np.random.default_rng(7)
        p1 = np.full((700, 3), np.inf)
        p2 = np.full((700, 4, 3), -np.inf)
        p2[:, 3] = rng.choice([0.9, 0.95, 0.97, 0.99, 0.5], size=(700, 3))
        weights = np.array([12, 19, 25])
        lam_grid = np.asarray(self.LAMBDAS)
        got = _sweep_counts(p1, p2, weights, lam_grid, 1.0, (0.0,))
        np.testing.assert_array_equal(
            got, brute_sweep_counts(p1, p2, weights, lam_grid, 1.0, (0.0,))
        )
        expected = [((p2[:, 3] > lam) * weights).sum() for lam in lam_grid]
        np.testing.assert_array_equal(got, [expected])

    def test_no_event_counts_nothing(self):
        # every p2 is -inf or at most the lowest lam, so no cell can reject
        rng = np.random.default_rng(11)
        p1 = rng.uniform(0.0, 1.0, (60, 3))
        p2 = rng.choice([-np.inf, 0.3, min(self.LAMBDAS)], size=(60, 4, 3))
        weights = np.array([5, 7, 5])
        lam_grid = np.asarray(self.LAMBDAS)
        got = _sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        assert got.dtype == np.int64
        assert got.shape == (len(self.GAMMAS), len(self.LAMBDAS))
        np.testing.assert_array_equal(got, 0)
        np.testing.assert_array_equal(
            got, brute_sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        )

    def test_weight_classes_and_a_column_that_never_rejects(self):
        rng = np.random.default_rng(12)
        p1, p2 = self.synthetic(rng, 900, 5, 5)
        # column 2 is the only one of its weight and never rejects
        p2[:, :, 2] = rng.choice([-np.inf, 0.3, min(self.LAMBDAS)], size=p2.shape[:2])
        weights = np.array([16, 9, 23, 30, 9])
        lam_grid = np.asarray(self.LAMBDAS)
        got = _sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        np.testing.assert_array_equal(
            got, brute_sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        )
        keep = [0, 1, 3, 4]
        np.testing.assert_array_equal(
            got,
            _sweep_counts(p1, p2[:, :, keep], weights[keep], lam_grid, self.T_FRAC, self.GAMMAS),
        )

    def test_infinite_stage1_probabilities(self):
        rng = np.random.default_rng(13)
        p1, p2 = self.synthetic(rng, 800, 4, 4)
        p1[rng.random(p1.shape) < 0.25] = np.inf
        p1[rng.random(p1.shape) < 0.25] = -np.inf
        p1[:20], p1[20:40] = np.inf, -np.inf
        weights = rng.integers(1, 30, 4)
        lam_grid = np.asarray(self.LAMBDAS)
        got = _sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        np.testing.assert_array_equal(
            got, brute_sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        )

    def test_trial_whose_rejecting_cuts_are_never_reached(self):
        # Trial 0 keeps every basket at every grid point (p1 = 1 > q1) and
        # trial 1 none (p1 = 0 < q1), and trial 2 ties two baskets; each
        # rejects only on cuts that no grid point reaches.
        p1 = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.99, 0.5, 0.5]])
        p2 = np.full((3, 4, 2), -np.inf)
        p2[0, :3], p2[1, 1:], p2[2, 2] = 0.999, 0.999, 0.999
        weights = np.array([3, 4])
        lam_grid = np.asarray(self.LAMBDAS)
        got = _sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        np.testing.assert_array_equal(got, 0)
        np.testing.assert_array_equal(
            got, brute_sweep_counts(p1, p2, weights, lam_grid, self.T_FRAC, self.GAMMAS)
        )
        # among other trials they add nothing either
        others = self.synthetic(np.random.default_rng(14), 500, 3, 2)
        mixed = [np.concatenate([a, b]) for a, b in zip(others, (p1, p2))]
        np.testing.assert_array_equal(
            _sweep_counts(*mixed, weights, lam_grid, self.T_FRAC, self.GAMMAS),
            _sweep_counts(*others, weights, lam_grid, self.T_FRAC, self.GAMMAS),
        )


def min_pick(problem, fwer_counts, power_counts):
    """The pick as a min over a list of candidate tuples in grid order."""
    n_sims = problem.n_sims
    trial_weight = int(sum(problem.spec_template.max_sizes))
    candidates = [
        (int(fwer_counts[g, i]), int(power_counts[g, i]), float(lam), float(gamma))
        for g, gamma in enumerate(problem.gamma_grid)
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


class TestPick:
    # calibrate's pick on crafted FWER and power counts, which stand in for
    # the sweep's; the answer must be the first best point in grid order.
    def pick(self, monkeypatch, fwer_counts, power_counts, lambda_grid, gamma_grid):
        problem = CalibrationProblem(
            spec_template=two_stage_template(), lambda_grid=lambda_grid, gamma_grid=gamma_grid,
            n_sims=100, seed=1,
        )
        fwer_counts = np.array(fwer_counts, dtype=np.int64)
        power_counts = np.array(power_counts, dtype=np.int64)
        crafted = iter([fwer_counts, power_counts])
        monkeypatch.setattr(calibration, "_sweep_counts", lambda *args: next(crafted))
        result = calibrate(problem)
        expected = min_pick(problem, fwer_counts, power_counts)
        assert result == expected
        assert result.frontier == expected.frontier
        return result

    def test_power_tie_prefers_lower_fwer(self, monkeypatch):
        result = self.pick(monkeypatch, [[5, 9, 3]], [[40, 41, 41]], (0.95, 0.96, 0.97), (0.5,))
        assert (result.lam, result.achieved_fwer) == (0.97, 0.03)

    def test_power_and_fwer_tie_prefers_lower_lambda(self, monkeypatch):
        # the lowest tied lam comes with the highest gamma
        result = self.pick(
            monkeypatch, [[4, 4, 4], [4, 4, 4]], [[10, 9, 10], [9, 10, 9]],
            (0.98, 0.96, 0.97), (0.3, 0.9),
        )
        assert (result.lam, result.gamma) == (0.96, 0.9)

    def test_full_tie_but_gamma_prefers_lower_gamma(self, monkeypatch):
        result = self.pick(
            monkeypatch, [[4], [4], [4]], [[10], [10], [10]], (0.97,), (0.9, 0.3, 0.6)
        )
        assert (result.lam, result.gamma) == (0.97, 0.3)

    def test_duplicated_points(self, monkeypatch):
        result = self.pick(
            monkeypatch, [[2, 2, 1], [2, 2, 1]], [[7, 7, 3], [7, 7, 3]],
            (0.97, 0.97, 0.99), (0.5, 0.5),
        )
        assert (result.lam, result.gamma) == (0.97, 0.5)
        assert len(result.frontier) == 6

    def test_infeasible_points_are_left_out(self, monkeypatch):
        # the most powerful point breaks the FWER target
        result = self.pick(monkeypatch, [[11, 10]], [[60, 50]], (0.95, 0.97), (0.5,))
        assert result.lam == 0.97
        assert [p.lam for p in result.frontier] == [0.97]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ties_match_min(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        lambda_grid = tuple(rng.choice([0.95, 0.96, 0.97, 0.98], 7).tolist())
        gamma_grid = tuple(rng.choice([0.0, 0.5, 1.0], 5).tolist())
        shape = (len(gamma_grid), len(lambda_grid))
        self.pick(
            monkeypatch, rng.integers(5, 14, shape), rng.integers(0, 4, shape) * 100,
            lambda_grid, gamma_grid,
        )

    def test_infeasible_grid_raises_with_the_smallest_fwer(self, monkeypatch):
        problem = CalibrationProblem(
            spec_template=two_stage_template(), lambda_grid=(0.95, 0.97), gamma_grid=(0.5, 0.7),
            n_sims=100, seed=1,
        )
        crafted = iter([np.array([[12, 15], [11, 30]]), np.zeros((2, 2), dtype=np.int64)])
        monkeypatch.setattr(calibration, "_sweep_counts", lambda *args: next(crafted))
        with pytest.raises(InfeasibleCalibrationError) as err:
            calibrate(problem)
        assert err.value.min_achieved_fwer == 0.11
        assert str(err.value) == "no grid point controls FWER at 0.1; minimum achieved was 0.1100"


class TestProblemValidation:
    def test_bad_grids(self):
        with pytest.raises(DomainError):
            CalibrationProblem(spec_template=two_stage_template(), lambda_grid=())
        with pytest.raises(DomainError):
            CalibrationProblem(spec_template=two_stage_template(), lambda_grid=(1.2,))
        with pytest.raises(DomainError):
            CalibrationProblem(spec_template=two_stage_template(), gamma_grid=(-0.5,))
        for gamma in (np.nan, np.inf):
            with pytest.raises(DomainError, match="gamma"):
                CalibrationProblem(spec_template=two_stage_template(), gamma_grid=(gamma, 0.5))
        with pytest.raises(DomainError):
            CalibrationProblem(spec_template=two_stage_template(), n_sims=0)
