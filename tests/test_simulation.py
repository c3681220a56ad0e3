import concurrent.futures
import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from localmem.design import Decision, DesignSpec, run_two_stage, run_single_stage
from localmem.errors import CapacityError, DomainError, ShapeError
from localmem.numerics import binom_sf, binomial_draws, reg_inc_beta
from localmem.calibration import CalibrationProblem, calibrate
from localmem.partitions import enumerate_partitions
from localmem.posterior import BasketData, _layout
from localmem import design, simulation
from localmem.simulation import (
    Scenario,
    TRIAL_BLOCK,
    decide_batch,
    generate_counts,
    generate_counts_batch,
    scenario_suite,
    simulate,
    simulate_batch,
)


def paper_two_stage(delta=2.0):
    return DesignSpec.create(
        4, 16, 0.15, 0.45, lam=0.977, gamma=0.70033, delta=delta, stages=2, interim_sizes=10
    )


class TestScenarioSuite:
    def test_layout(self):
        spec = paper_two_stage()
        suite = scenario_suite(spec)
        assert [s.label for s in suite] == [f"{k} success" for k in range(5)]
        assert suite[0].true_rates == (0.15, 0.15, 0.15, 0.15)
        assert suite[1].true_rates == (0.15, 0.15, 0.15, 0.45)  # promising basket D
        assert suite[1].promising == (False, False, False, True)
        assert suite[4].true_rates == (0.45, 0.45, 0.45, 0.45)

    def test_heterogeneous_rates(self):
        spec = DesignSpec.create(
            4, 19, (0.25, 0.25, 0.15, 0.15), (0.55, 0.55, 0.45, 0.45), lam=0.98, delta=2.0, stages=1
        )
        suite = scenario_suite(spec)
        assert suite[1].true_rates == (0.25, 0.25, 0.15, 0.45)
        assert suite[3].true_rates == (0.25, 0.55, 0.45, 0.45)

    def test_scenario_validation(self):
        spec = paper_two_stage()
        with pytest.raises(ShapeError):
            Scenario.from_rates(spec, [0.1, 0.2], "bad")
        with pytest.raises(DomainError):
            Scenario.from_rates(spec, [0.1, 0.2, 0.3, 1.4], "bad")


class TestSimulate:
    def test_zero_rate_never_rejects(self):
        spec = paper_two_stage()
        oc = simulate(spec, Scenario.from_rates(spec, [0.0] * 4, "degenerate"), 300, seed=1)
        assert oc.per_basket_reject_rate == (0.0,) * 4
        assert oc.fwer == 0.0
        assert oc.expected_n == (10.0,) * 4  # every basket stops at the interim

    def test_deterministic_repeat(self):
        spec = paper_two_stage()
        scenario = scenario_suite(spec)[2]
        a = simulate(spec, scenario, 400, seed=77)
        b = simulate(spec, scenario, 400, seed=77)
        assert a == b

    def test_worker_count_invariance(self):
        spec = paper_two_stage()
        scenario = scenario_suite(spec)[1]
        serial = simulate(spec, scenario, 300, seed=5, workers=1)
        parallel = simulate(spec, scenario, 300, seed=5, workers=4)
        assert serial == parallel

    def test_pool_never_exceeds_cpu_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # _collect imports the pool class only when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        spec = paper_two_stage()
        scenario = scenario_suite(spec)[1]
        split = simulate(spec, scenario, 40, seed=3, workers=10_000)
        cpus = os.cpu_count() or 1
        assert sizes == ([min(40, cpus)] if cpus > 1 else [])
        assert split == simulate(spec, scenario, 40, seed=3, workers=1)

    def test_fwer_bounds(self):
        spec = paper_two_stage()
        for scenario in scenario_suite(spec)[:3]:
            oc = simulate(spec, scenario, 500, seed=9)
            null_rates = [
                r for r, prom in zip(oc.per_basket_reject_rate, scenario.promising) if not prom
            ]
            assert oc.fwer >= max(null_rates) - 1e-12
            assert oc.fwer <= sum(null_rates) + 1e-12

    def test_global_alternative_has_no_fwer(self):
        spec = paper_two_stage()
        oc = simulate(spec, scenario_suite(spec)[-1], 300, seed=3)
        assert oc.fwer is None
        assert oc.trialwise_power is not None

    def test_global_null_has_no_power(self):
        spec = paper_two_stage()
        oc = simulate(spec, scenario_suite(spec)[0], 300, seed=3)
        assert oc.trialwise_power is None

    def test_expected_n_in_range(self):
        spec = paper_two_stage()
        for scenario in (scenario_suite(spec)[0], scenario_suite(spec)[4]):
            oc = simulate(spec, scenario, 400, seed=13)
            for en in oc.expected_n:
                assert 10.0 <= en <= 16.0

    def test_trialwise_power_weighting(self):
        spec = DesignSpec.create(
            2, (10, 30), 0.15, 0.45, lam=0.95, gamma=1.0, delta=0.0, stages=2, interim_fraction=0.5
        )
        scenario = Scenario.from_rates(spec, [0.45, 0.45], "both")
        oc = simulate(spec, scenario, 400, seed=21)
        expect = (10 * oc.per_basket_reject_rate[0] + 30 * oc.per_basket_reject_rate[1]) / 40
        assert oc.trialwise_power == pytest.approx(expect, abs=1e-12)

    def test_single_stage_expected_n_fixed(self):
        spec = DesignSpec.create(4, 19, 0.15, 0.45, lam=0.98, delta=2.0, stages=1)
        oc = simulate(spec, scenario_suite(spec)[2], 200, seed=2)
        assert oc.expected_n == (19.0,) * 4

    def test_rates_are_count_ratios(self):
        spec = paper_two_stage()
        oc = simulate(spec, scenario_suite(spec)[1], 321, seed=8)
        for r in oc.per_basket_reject_rate + (oc.fwer,):
            assert (r * 321) == pytest.approx(round(r * 321), abs=1e-9)

    def test_mismatched_scenario(self):
        spec = paper_two_stage()
        other = DesignSpec.create(2, 16, 0.15, 0.45, lam=0.9, stages=1)
        scenario = Scenario.from_rates(other, [0.15, 0.15], "wrong size")
        with pytest.raises(ShapeError):
            simulate(spec, scenario, 10, seed=0)


class TestAgainstDesignEngine:
    def test_two_stage_decisions_match(self):
        spec = paper_two_stage()
        scenario = scenario_suite(spec)[2]
        x1, xt = generate_counts(spec, scenario, range(150), seed=99)
        continued, rejected = decide_batch(spec, x1, xt)
        for t in range(150):
            state = run_two_stage(list(x1[t]), list(xt[t]), spec)
            for b in range(4):
                assert continued[t, b] == (state.decisions[b] is not Decision.FUTILITY_STOPPED)
                assert rejected[t, b] == (state.decisions[b] is Decision.EFFICACIOUS)

    def test_paper_suite_decisions_are_pinned(self):
        # (continued, rejected) over the paper's OC table, 5 scenarios x 5000
        # trials; recorded when every row had its own analysis, so analyzing
        # each distinct row once never moves a decision.
        spec = paper_two_stage()
        digest = hashlib.sha256()
        for scenario in scenario_suite(spec):
            for decided in decide_batch(spec, *generate_counts(spec, scenario, range(5000), 20211)):
                digest.update(decided.tobytes())
        assert digest.hexdigest() == "bd03769244b3110b9b59cd0480707d5c126d9c398889135a54741cfb5cc8240a"

    def test_single_stage_decisions_match(self):
        spec = DesignSpec.create(4, 19, 0.15, 0.45, lam=0.977, delta=2.0, stages=1)
        scenario = scenario_suite(spec)[3]
        x1, xt = generate_counts(spec, scenario, range(150), seed=98)
        _, rejected = decide_batch(spec, x1, xt)
        for t in range(150):
            decisions = run_single_stage(BasketData.create(xt[t], spec.max_sizes), spec)
            for b in range(4):
                assert rejected[t, b] == (decisions[b] is Decision.EFFICACIOUS)


def per_draw_counts(spec, scenario, trials, seed):
    """generate_counts with a fresh generator per (trial, basket, stage) stream."""
    n1 = spec.stage1_sizes()
    stages = [n1]
    if spec.stages == 2:
        stages.append(tuple(n - m for n, m in zip(spec.max_sizes, n1)))
    x = np.zeros((len(stages), len(trials), spec.num_baskets), dtype=int)
    for i, t in enumerate(trials):
        for b, rate in enumerate(scenario.true_rates):
            for stage, sizes in enumerate(stages):
                if sizes[b] == 0 or rate == 0.0:
                    continue
                if rate == 1.0:
                    x[stage, i, b] = sizes[b]
                    continue
                seq = np.random.SeedSequence(seed, spawn_key=(t, b, stage))
                gen = np.random.Generator(np.random.PCG64(seq))
                x[stage, i, b] = gen.binomial(sizes[b], rate)
    return (x[0] if spec.stages == 2 else None), x.sum(axis=0)


class TestGenerateCounts:
    def assert_identical(self, got, want):
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w)

    @pytest.mark.parametrize(
        "trials", [range(0, 1500), range(700, 1300)], ids=["0-1500", "700-1300"]
    )
    def test_paper_design_matches_per_draw_streams(self, trials):
        spec = paper_two_stage()
        scenario = scenario_suite(spec)[2]
        self.assert_identical(
            generate_counts(spec, scenario, trials, 2024),
            per_draw_counts(spec, scenario, trials, 2024),
        )

    def test_single_stage_with_degenerate_rates(self):
        spec = DesignSpec.create(3, 19, 0.15, 0.45, lam=0.977, delta=2.0, stages=1)
        scenario = Scenario.from_rates(spec, [0.0, 1.0, 0.3], "degenerate")
        got = generate_counts(spec, scenario, range(600), 5)
        self.assert_identical(got, per_draw_counts(spec, scenario, range(600), 5))
        assert (got[1][:, 0] == 0).all() and (got[1][:, 1] == 19).all()

    def test_large_cohorts_take_the_btpe_branch(self):
        # numpy draws by BTPE once n * min(p, 1 - p) >= 30
        spec = DesignSpec.create(
            2, 120, 0.15, 0.45, lam=0.977, gamma=0.7, delta=2.0, stages=2, interim_sizes=80
        )
        scenario = Scenario.from_rates(spec, [0.45, 0.6], "large")
        self.assert_identical(
            generate_counts(spec, scenario, range(300), 77),
            per_draw_counts(spec, scenario, range(300), 77),
        )

    def test_trial_index_of_two_words_is_refused(self):
        spec = paper_two_stage()
        with pytest.raises(CapacityError):
            generate_counts(spec, scenario_suite(spec)[0], range(2**32 - 1, 2**32 + 1), 0)

    def test_paper_suite_counts_are_pinned(self):
        # Every stream of the paper's OC table, 5 scenarios x 5000 trials:
        # any change to seeding, state stepping or sampling moves this digest.
        spec = paper_two_stage()
        digest = hashlib.sha256()
        for scenario in scenario_suite(spec):
            for x in generate_counts(spec, scenario, range(5000), 20211):
                digest.update(x.astype(np.int64).tobytes())
        assert digest.hexdigest() == "e77b4e44fa33c8c76c4220f1aa26f6b4cf307f8e5c143fd1cc4a02b2bfdd4f8b"

    def test_paper_suite_counts_drawn_together_are_pinned(self):
        # The same streams in one call for the whole suite, which draws each
        # basket's two rates once and copies them to the five scenarios.
        spec = paper_two_stage()
        x_interim, x_total = generate_counts_batch(spec, scenario_suite(spec), range(5000), 20211)
        digest = hashlib.sha256()
        for x1, xt in zip(x_interim, x_total):
            digest.update(x1.astype(np.int64).tobytes())
            digest.update(xt.astype(np.int64).tobytes())
        # the digest of test_paper_suite_counts_are_pinned
        assert digest.hexdigest() == "e77b4e44fa33c8c76c4220f1aa26f6b4cf307f8e5c143fd1cc4a02b2bfdd4f8b"

    def test_paper_suite_draws_two_rate_rows_per_block(self, monkeypatch):
        rows = []

        def recording(seed, keys, n, p):
            rows.append(len(p))
            return binomial_draws(seed, keys, n, p)

        monkeypatch.setattr(simulation, "binomial_draws", recording)
        spec = paper_two_stage()
        generate_counts_batch(spec, scenario_suite(spec), range(2 * TRIAL_BLOCK + 1), 20211)
        assert rows == [2, 2, 2]

    def test_memory_is_bounded_by_the_trial_block(self):
        spec = paper_two_stage()
        scenario = scenario_suite(spec)[2]
        tracemalloc.start()
        try:
            generate_counts(spec, scenario, range(20_000), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


def batch_cases():
    """(design, scenarios, n_sims) per case of the scenario-batch tests."""
    paper = paper_two_stage()
    single = DesignSpec.create(4, 19, 0.15, 0.45, lam=0.977, delta=2.0, stages=1)
    unequal = DesignSpec.create(
        3, [16, 20, 12], [0.15, 0.2, 0.1], 0.45, lam=0.95, gamma=0.5, delta=1.0, stages=2,
        interim_sizes=[10, 8, 6],
    )
    # Stage 1 is 80 patients at p = 0.5, in numpy's BTPE branch.
    large = DesignSpec.create(
        2, 120, 0.35, 0.5, lam=0.977, gamma=0.7, delta=2.0, stages=2, interim_sizes=80
    )
    # The baskets take 1, 3 and 2 distinct rates, so the rate rows of the
    # first and last are padded with p = 0; two scenarios repeat the first.
    shared = [
        Scenario.from_rates(unequal, rates, label)
        for rates, label in [
            ([0.15, 0.45, 0.0], "a"),
            ([0.15, 0.45, 0.0], "a again"),
            ([0.15, 1.0, 0.1], "edges"),
            ([0.15, 0.0, 0.1], "zero"),
            ([0.15, 0.45, 0.0], "a once more"),
        ]
    ]
    # Basket A keeps p = 0.5 (BTPE at stage 1); basket B takes 0.5, 0.6
    # (BTPE, drawn flipped) and 0.3 (inversion), 0.6 twice.
    shared_large = [
        Scenario.from_rates(large, rates, label)
        for rates, label in [
            ([0.5, 0.5], "half"),
            ([0.5, 0.6], "flipped"),
            ([0.5, 0.3], "inversion"),
            ([0.5, 0.6], "flipped again"),
        ]
    ]
    return {
        "paper-suite": (paper, scenario_suite(paper), 600),
        "single-stage": (single, scenario_suite(single)[::2], 500),
        "rates-0-and-1": (
            unequal,
            [
                Scenario.from_rates(unequal, [0.0, 1.0, 0.3], "edges"),
                Scenario.from_rates(unequal, [1.0, 0.0, 0.0], "edges reversed"),
                Scenario.from_rates(unequal, [0.15, 0.45, 0.1], "mixed"),
            ],
            400,
        ),
        "btpe": (
            large,
            [Scenario.from_rates(large, [0.5, 0.5], "half"), *scenario_suite(large)],
            150,
        ),
        # more trials than one block, so every chunk at workers 1 and 3 spans
        # a block boundary
        "shared-rates": (unequal, shared, 3 * TRIAL_BLOCK + 30),
        "shared-btpe": (large, shared_large, 3 * TRIAL_BLOCK + 30),
    }


class TestScenarioBatch:
    # A run's scenarios share their streams and one decide_batch call per
    # chunk; every result must equal its scenario simulated on its own.
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("case", list(batch_cases()))
    def test_simulate_batch_equals_one_scenario_at_a_time(self, case, workers):
        spec, scenarios, n_sims = batch_cases()[case]
        batch = simulate_batch(spec, scenarios, n_sims, seed=31, workers=workers)
        assert batch == [simulate(spec, sc, n_sims, seed=31, workers=workers) for sc in scenarios]

    @pytest.mark.parametrize("case", list(batch_cases()))
    def test_counts_equal_per_scenario_streams(self, case):
        spec, scenarios, _ = batch_cases()[case]
        trials = range(500, 600 + TRIAL_BLOCK)  # crosses a block boundary
        x_interim, x_total = generate_counts_batch(spec, scenarios, trials, 12)
        assert x_total.shape == (len(scenarios), len(trials), spec.num_baskets)
        assert (x_interim is None) == (spec.stages == 1)
        for s, scenario in enumerate(scenarios):
            x1, xt = per_draw_counts(spec, scenario, trials, 12)
            assert np.array_equal(x_total[s], xt)
            if x1 is not None:
                assert np.array_equal(x_interim[s], x1)

    def test_mismatched_scenario_is_refused(self):
        spec = paper_two_stage()
        other = DesignSpec.create(2, 16, 0.15, 0.45, lam=0.9, stages=1)
        scenarios = [scenario_suite(spec)[0], Scenario.from_rates(other, [0.15, 0.15], "wrong size")]
        with pytest.raises(ShapeError):
            simulate_batch(spec, scenarios, 10, seed=0)

    def test_empty_scenario_list_is_refused_before_any_draw(self, monkeypatch):
        def drawing(*args):
            raise AssertionError("drew for an empty scenario list")

        monkeypatch.setattr(simulation, "binomial_draws", drawing)
        spec = paper_two_stage()
        with pytest.raises(ShapeError, match="at least one scenario"):
            simulate_batch(spec, [], 10, seed=0, workers=2)
        with pytest.raises(ShapeError, match="at least one scenario"):
            generate_counts_batch(spec, [], range(10), 0)

    def test_paper_suite_memory_is_bounded(self):
        # The paper's OC table, 5 scenarios x 5000 trials in one chunk: the
        # counts of every scenario plus one decide_batch call over all of
        # them. Traced at 2.85 MB, against at most 1.86 MB one scenario at a
        # time.
        spec = paper_two_stage()
        tracemalloc.start()
        try:
            simulate_batch(spec, scenario_suite(spec), 5000, seed=20211)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6


class TestStageTwoEngines:
    def test_equal_sizes_need_at_most_b_engines(self, monkeypatch):
        built = []

        class Counting(design.BatchPosterior):
            def __init__(self, n, delta, prior):
                built.append(tuple(n))
                super().__init__(n, delta, prior)

        monkeypatch.setattr(design, "BatchPosterior", Counting)
        spec = DesignSpec.create(
            5, 16, 0.15, 0.45, lam=0.977, gamma=0.70033, delta=2.0, stages=2, interim_sizes=10
        )
        scenario = Scenario.from_rates(spec, [0.15, 0.25, 0.35, 0.45, 0.45], "mixed")
        x1, xt = generate_counts(spec, scenario, range(400), seed=17)
        continued, _ = decide_batch(spec, x1, xt)
        survivor_sets = {tuple(row) for row in continued if row.any()}
        stage2 = [n for n in built if n != spec.stage1_sizes()]
        assert len(survivor_sets) > spec.num_baskets
        assert len(stage2) <= spec.num_baskets


class TestLayoutCache:
    def test_built_once_per_basket_count(self, monkeypatch):
        # A whole suite and a calibration build many engines, at every
        # survivor count, but each basket count's layout and enumeration once.
        counts = set()

        class Counting(design.BatchPosterior):
            def __init__(self, n, delta, prior):
                counts.add(len(n))
                super().__init__(n, delta, prior)

        monkeypatch.setattr(design, "BatchPosterior", Counting)
        _layout.cache_clear()
        enumerate_partitions.cache_clear()
        spec = paper_two_stage()
        for scenario in scenario_suite(spec):
            simulate(spec, scenario, 200, seed=5)
        problem = CalibrationProblem(
            spec_template=spec, lambda_grid=(0.95, 0.977), gamma_grid=(0.5, 1.0), n_sims=100, seed=2
        )
        calibrate(problem)
        assert counts == {1, 2, 3, 4}
        assert _layout.cache_info().misses == len(counts)
        assert enumerate_partitions.cache_info().misses == len(counts)


class TestMonteCarloAgainstExactBinomial:
    def test_degenerate_threshold_rule(self):
        # With one basket there is no borrowing, so rejection is exactly
        # {x >= c}; the simulated rate must match the exact binomial tail.
        spec = DesignSpec.create(1, 19, 0.15, 0.45, lam=0.977, delta=2.0, stages=1)
        tail_prob = lambda x: 1.0 - reg_inc_beta(0.15, 1 + x, 1 + 19 - x)
        cutoff = next(x for x in range(20) if tail_prob(x) > spec.lam)
        n_sims = 20_000
        for theta in (0.15, 0.45):
            scenario = Scenario.from_rates(spec, [theta], "one")
            oc = simulate(spec, scenario, n_sims, seed=1234)
            exact = binom_sf(cutoff - 1, 19, theta)
            se = math.sqrt(exact * (1 - exact) / n_sims)
            assert abs(oc.per_basket_reject_rate[0] - exact) < 4 * se


class TestPaperTwoStageSmoke:
    def test_global_null_fwer_near_reported(self):
        # Full-resolution check lives in the acceptance suite; this is a
        # faster guard with looser Monte-Carlo bounds.
        spec = paper_two_stage()
        oc = simulate(spec, scenario_suite(spec)[0], 1500, seed=2024)
        assert 0.06 < oc.fwer < 0.14
        for en in oc.expected_n:
            assert 12.0 < en < 13.5
