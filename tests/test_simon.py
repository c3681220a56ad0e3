import math
from fractions import Fraction

import numpy as np
import pytest

from localmem.design import Decision, DesignSpec
from localmem.errors import CapacityError, DomainError
from localmem.simon import (
    SimonDesign,
    expected_size,
    reject_probability,
    simon_decide,
    simon_oc,
    simon_search,
)
from localmem.simulation import Scenario

from oracles import simon_exact_rational


@pytest.fixture(scope="module")
def paper_search():
    return simon_search(0.15, 0.45, 0.025, 0.20)


def scenario_for(num_baskets, promising_count):
    spec = DesignSpec.create(num_baskets, 16, 0.15, 0.45, lam=0.5, stages=1)
    rates = [0.15] * (num_baskets - promising_count) + [0.45] * promising_count
    return Scenario.from_rates(spec, rates, f"{promising_count} success")


class TestSearch:
    def test_paper_minimax_design(self, paper_search):
        d = paper_search.minimax
        assert (d.r1, d.n1, d.r, d.n) == (1, 10, 5, 16)

    def test_exact_error_rates_vs_double_sum_oracle(self, paper_search):
        d = paper_search.minimax
        alpha, pet0, en0 = simon_exact_rational(d.r1, d.n1, d.r, d.n, Fraction(15, 100))
        power, _, _ = simon_exact_rational(d.r1, d.n1, d.r, d.n, Fraction(45, 100))
        assert d.alpha_actual == pytest.approx(float(alpha), abs=1e-12)
        assert d.power_actual == pytest.approx(float(power), abs=1e-12)
        assert d.pet_null == pytest.approx(float(pet0), abs=1e-12)
        assert d.en_null == pytest.approx(float(en0), abs=1e-12)

    def test_constraints_hold(self, paper_search):
        for d in (paper_search.minimax, paper_search.optimal):
            assert d.alpha_actual <= 0.025
            assert d.power_actual >= 0.80
            assert 0 <= d.r1 <= d.n1 < d.n
            assert d.r1 <= d.r <= d.n

    def test_minimax_has_smallest_feasible_n(self, paper_search):
        # re-verify that nothing smaller than n=16 can work by searching below it
        with pytest.raises(CapacityError):
            simon_search(0.15, 0.45, 0.025, 0.20, n_max=paper_search.minimax.n - 1)

    def test_optimal_minimizes_expected_null_size(self, paper_search):
        assert paper_search.optimal.en_null <= paper_search.minimax.en_null

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            simon_search(0.45, 0.15, 0.025, 0.2)
        with pytest.raises(DomainError):
            simon_search(0.15, 0.45, 0.0, 0.2)

    def test_known_simon_table_entry(self):
        # classic (p0=0.10, p1=0.30, alpha=0.05, beta=0.20) minimax design
        result = simon_search(0.10, 0.30, 0.05, 0.20, n_max=40)
        d = result.minimax
        assert (d.r1, d.n1, d.r, d.n) == (1, 15, 5, 25)
        opt = result.optimal
        assert (opt.r1, opt.n1, opt.r, opt.n) == (1, 10, 5, 29)


class TestDecide:
    def test_paper_examples(self, paper_search):
        d = paper_search.minimax
        assert simon_decide(d, 1) is Decision.FUTILITY_STOPPED
        assert simon_decide(d, 2, 6) is Decision.EFFICACIOUS
        assert simon_decide(d, 0) is Decision.FUTILITY_STOPPED

    def test_boundary_cases(self, paper_search):
        d = paper_search.minimax
        assert simon_decide(d, 2) is Decision.CONTINUE
        assert simon_decide(d, 2, 5) is Decision.NOT_PROMISING
        assert simon_decide(d, 1, 1) is Decision.FUTILITY_STOPPED

    def test_inconsistent_counts(self, paper_search):
        d = paper_search.minimax
        with pytest.raises(DomainError):
            simon_decide(d, 11)
        with pytest.raises(DomainError):
            simon_decide(d, 3, 2)
        with pytest.raises(DomainError):
            simon_decide(d, 1, 4)  # stopped trial cannot accrue more responses


class TestOperatingCharacteristics:
    def test_global_null_fwer(self, paper_search):
        oc = simon_oc(paper_search.minimax, scenario_for(4, 0))
        assert oc.fwer == pytest.approx(1 - (1 - paper_search.minimax.alpha_actual) ** 4, abs=1e-12)
        assert abs(oc.fwer - 0.091) < 0.005  # reported Monte-Carlo estimate

    def test_power_and_en(self, paper_search):
        d = paper_search.minimax
        oc = simon_oc(d, scenario_for(4, 4))
        assert oc.fwer is None
        for rate in oc.per_basket_reject_rate:
            assert 0.79 < rate < 0.81  # reported range 0.797..0.806
        oc0 = simon_oc(d, scenario_for(4, 0))
        assert abs(oc0.expected_n[0] - 12.7) < 0.2

    def test_mixed_scenario(self, paper_search):
        d = paper_search.minimax
        oc = simon_oc(d, scenario_for(4, 1))
        assert oc.fwer == pytest.approx(1 - (1 - d.alpha_actual) ** 3, abs=1e-12)
        assert oc.per_basket_reject_rate[3] == pytest.approx(d.power_actual, abs=1e-12)
        assert oc.n_sims is None and oc.seed is None


def stream(seed, *key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


class TestMonteCarloAgreement:
    def test_simulated_decisions_match_exact_rates(self, paper_search):
        d = paper_search.minimax
        n_sims = 100_000
        for theta, exact in ((0.15, d.alpha_actual), (0.45, d.power_actual)):
            hits = 0
            for t in range(n_sims):
                gen = stream(314159, t, int(theta * 100))
                x1 = int(gen.binomial(d.n1, theta))
                x_total = x1 + int(gen.binomial(d.n - d.n1, theta))
                if x1 > d.r1 and simon_decide(d, x1, x_total) is Decision.EFFICACIOUS:
                    hits += 1
            rate = hits / n_sims
            se = math.sqrt(exact * (1 - exact) / n_sims)
            assert abs(rate - exact) < 4 * se

    def test_expected_size_matches_simulation(self, paper_search):
        d = paper_search.minimax
        n_sims = 50_000
        sizes = []
        for t in range(n_sims):
            x1 = int(stream(2718, t).binomial(d.n1, 0.15))
            sizes.append(d.n1 if x1 <= d.r1 else d.n)
        exact = expected_size(d, 0.15)
        se = np.std(sizes) / math.sqrt(n_sims)
        assert abs(float(np.mean(sizes)) - exact) < 4 * se


class TestRejectProbability:
    def test_extremes(self, paper_search):
        d = paper_search.minimax
        assert reject_probability(d, 0.0) == 0.0
        assert reject_probability(d, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_p(self, paper_search):
        d = paper_search.minimax
        probs = [reject_probability(d, p) for p in np.linspace(0.01, 0.99, 25)]
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize(
        "bounds",
        # (r1, n1, r, n); (3, 3, 5, 8) always stops early, (0, 4, 9, 9) never rejects.
        [(1, 10, 5, 16), (1, 15, 5, 25), (3, 3, 5, 8), (0, 4, 9, 9), (4, 4, 6, 6), (0, 1, 0, 2)],
    )
    def test_matches_double_sum_oracle(self, bounds):
        d = SimonDesign(*bounds, alpha_actual=0, power_actual=0, en_null=0, pet_null=0)
        for p in (0.0, 0.15, 0.45, 1.0):
            reject, _, en = simon_exact_rational(*bounds, Fraction(p))
            assert abs(reject_probability(d, p) - float(reject)) < 1e-12
            assert abs(expected_size(d, p) - float(en)) < 1e-12

    def test_design_validation(self):
        with pytest.raises(DomainError):
            SimonDesign(r1=3, n1=2, r=5, n=16, alpha_actual=0, power_actual=0, en_null=0, pet_null=0)
