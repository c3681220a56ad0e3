import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from localmem import cli
from localmem.calibration import CalibrationProblem
from localmem.design import DesignSpec, TrialState
from localmem import numerics
from localmem.errors import CapacityError, ConvergenceError, DomainError, ShapeError
from localmem.numerics import (
    _INIT_A,
    _LOOKUP_MARGIN,
    _MULT_A,
    _Hasher,
    _binomial_from_limbs,
    _chain,
    _inversion_px,
    _mix,
    _pcg64_limbs,
    _seed_words,
    as_int,
    binom_pmf,
    binom_sf,
    binomial_draws,
    log_beta,
    log_choose,
    log_gamma,
    log_sum_exp,
    reg_inc_beta,
)

from localmem.posterior import BasketData
from localmem.simulation import Scenario, simulate

import pins
from oracles import binom_cdf_rational, reg_inc_beta_quadrature


# Shapes for the log_beta and log_gamma pins.
PIN_VALUES = np.array(
    [0.01, 0.05, 0.3, 0.49, 0.5, 0.75, 1.0, 2.5, 7.25, 9.99, 10.0, 16.5, 40.5, 150.0, 1e4, 1e6]
)


class TestLogBeta:
    def test_identity_cases(self):
        assert abs(log_beta(1.0, 1.0)) <= 1e-12
        assert abs(log_beta(3.0, 3.0) - math.log(1.0 / 30.0)) <= 1e-12
        assert abs(log_beta(0.5, 0.5) - math.log(math.pi)) <= 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = 10 ** rng.uniform(-2, 5)
            b = 10 ** rng.uniform(-2, 5)
            assert log_beta(a, b) == log_beta(b, a)

    def test_against_stdlib_lgamma(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = 10 ** rng.uniform(-2, 2)
            b = 10 ** rng.uniform(-2, 2)
            ref = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            assert log_beta(a, b) == pytest.approx(ref, abs=5e-13)

    def test_integer_values_exact_rational(self):
        # B(a, b) = (a-1)!(b-1)!/(a+b-1)! for integers
        for a in range(1, 30, 3):
            for b in range(1, 30, 4):
                ref = Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))
                assert log_beta(float(a), float(b)) == pytest.approx(math.log(ref), abs=1e-12)

    def test_domain_errors(self):
        for bad in [(0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0), (float("inf"), 1.0)]:
            with pytest.raises(DomainError):
                log_beta(*bad)

    def test_vectorized(self):
        a = np.array([1.0, 2.5, 40.0])
        b = np.array([3.0, 0.5, 7.0])
        vec = log_beta(a, b)
        assert vec.shape == (3,)
        for i in range(3):
            assert vec[i] == log_beta(float(a[i]), float(b[i]))

    def test_grid_is_pinned(self):
        # Every value over a fixed grid whose pairs cross the big (min >= 10),
        # mid (max >= 10) and three-term branches and the log-gamma
        # reflection below 0.5, given as a 2-D broadcast, a 1-D array against
        # a scalar and scalar calls.
        a = PIN_VALUES[:, None]
        out = [log_beta(a, PIN_VALUES), log_beta(PIN_VALUES, 0.25)]
        out.append(np.array([log_beta(0.3, 12.0), log_beta(25.0, 30.0), log_beta(2.0, 3.0)]))
        digest = hashlib.sha256(b"".join(v.tobytes() for v in out)).hexdigest()
        assert digest == pins.pinned({
            pins.AVX512: "ae22bbb46b68a47b82494d7bb628d154138dbdf5d21c5a63dd5869e6bb776f31",
            pins.AVX2: "ae22bbb46b68a47b82494d7bb628d154138dbdf5d21c5a63dd5869e6bb776f31",
        })


class TestLogGamma:
    def test_grid_is_pinned(self):
        # The pinned shapes and their sums, reflected below 0.5, as a 2-D
        # array and as scalar calls.
        grid = PIN_VALUES[:, None] + PIN_VALUES
        out = [log_gamma(grid), np.array([log_gamma(0.3), log_gamma(12.5), log_gamma(1e5)])]
        digest = hashlib.sha256(b"".join(v.tobytes() for v in out)).hexdigest()
        assert digest == pins.pinned({
            pins.AVX512: "132c6a561337fe3b1ad1982154dd1f626288ebdab46f70861774c91f7f681b65",
            pins.AVX2: "132c6a561337fe3b1ad1982154dd1f626288ebdab46f70861774c91f7f681b65",
        })

    def test_small_argument_reflection(self):
        for x in (0.01, 0.1, 0.25, 0.49):
            ref = math.lgamma(x)
            assert log_gamma(x) == pytest.approx(ref, rel=1e-13, abs=1e-12)

    def test_factorials(self):
        for n in range(1, 20):
            assert log_gamma(float(n)) == pytest.approx(math.log(math.factorial(n - 1)), abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.0)


class TestRegIncBeta:
    def test_uniform_cdf(self):
        assert reg_inc_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-10)

    def test_against_quadrature_spot(self):
        assert reg_inc_beta(0.15, 4.0, 17.0) == pytest.approx(
            reg_inc_beta_quadrature(0.15, 4.0, 17.0), abs=1e-8
        )
        # high-precision frozen reference for the same point
        assert reg_inc_beta(0.15, 4.0, 17.0) == pytest.approx(0.35227482584329693, abs=1e-10)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = 10 ** rng.uniform(-1, 1.5)
            b = 10 ** rng.uniform(-1, 1.5)
            xs = np.sort(rng.uniform(0, 1, 25))
            vals = reg_inc_beta(xs, a, b)
            assert np.all(np.diff(vals) >= -1e-14)

    def test_reflection_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            a = 10 ** rng.uniform(-1, 2)
            b = 10 ** rng.uniform(-1, 2)
            x = rng.uniform(0, 1)
            assert reg_inc_beta(x, a, b) + reg_inc_beta(1 - x, b, a) == pytest.approx(1.0, abs=1e-10)

    def test_edges(self):
        assert reg_inc_beta(0.0, 3.0, 4.0) == 0.0
        assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 1.0)

    def test_non_convergence_raises(self):
        # Shapes near 1e6 need more continued-fraction terms than the budget.
        # x = 0.5 lies above (a + 1) / (a + b + 2), so the fraction runs on
        # (b, a, 1 - x); the message still names the caller's x, a and b.
        message = r"at x=0\.5, a=1000000\.0, b=1000100\.0$"
        with pytest.raises(ConvergenceError, match=message):
            reg_inc_beta(0.5, 1e6, 1.0001e6)
        with pytest.raises(ConvergenceError, match=message):
            reg_inc_beta(np.array([0.3, 0.5]), np.array([2.0, 1e6]), np.array([3.0, 1.0001e6]))

    def test_x_lost_in_one_minus_x_raises(self):
        # b above about 2^54 (a + 1) swaps a tiny x, and 1 - x rounds to 1;
        # SciPy's betainc gives 0.993 for the first call.
        with pytest.raises(ConvergenceError, match=r"x=5e-17, a=1.0, b=1e\+17"):
            reg_inc_beta(5e-17, 1.0, 1e17)
        with pytest.raises(ConvergenceError, match=r"x=5e-17, a=1.0, b=1e\+17"):
            reg_inc_beta(np.array([0.3, 5e-17, 0.0]), 1.0, 1e17)
        assert reg_inc_beta(0.0, 1.0, 1e17) == 0.0
        assert reg_inc_beta(1.0, 1.0, 1e17) == 1.0

    def test_grid_is_pinned(self):
        # Every value over a fixed (x, a, b) grid, edges and swapped x
        # included, as the whole-array modified-Lentz recurrence gives its
        # bits: any change to an operation or its order moves this digest.
        xs = np.concatenate(([0.0, 1e-12, 1e-3], np.linspace(0.01, 0.99, 33), [0.999, 1.0]))
        shapes = np.array([0.05, 0.5, 1.0, 1.5, 3.0, 7.25, 16.0, 40.5, 150.0])
        x, a, b = (v.ravel() for v in np.meshgrid(xs, shapes, shapes, indexing="ij"))
        digest = hashlib.sha256(reg_inc_beta(x, a, b).tobytes()).hexdigest()
        assert digest == pins.pinned({
            pins.AVX512: "256fadd8494b362959f3c38cdf634b4058708841b757d78dfe978ddc7d80c36a",
            pins.AVX2: "0e3ef485c504cd7a72b08aa7597e535cc2cbb7531893d5f6953c49c55a6ac597",
        })

    def test_agrees_with_scipy_betainc(self):
        # An independent implementation, within 1e-12, on the pinned grid and
        # on paper-like triples: a and b are one plus a count out of 160, x a
        # null rate.
        from scipy.special import betainc

        xs = np.concatenate(([0.0, 1e-12, 1e-3], np.linspace(0.01, 0.99, 33), [0.999, 1.0]))
        shapes = np.array([0.05, 0.5, 1.0, 1.5, 3.0, 7.25, 16.0, 40.5, 150.0])
        grid = [v.ravel() for v in np.meshgrid(xs, shapes, shapes, indexing="ij")]
        rng = np.random.default_rng(29)
        paper = [rng.uniform(0.05, 0.6, 20_000), *rng.uniform(1.0, 161.0, (2, 20_000))]
        for x, a, b in (grid, paper):
            assert np.max(np.abs(reg_inc_beta(x, a, b) - betainc(a, b, x))) <= 1e-12

    def test_unknown_exp_log_build_fails_naming_it(self, monkeypatch):
        monkeypatch.setattr(pins, "FINGERPRINT", "0123456789abcdef")
        with pytest.raises(pytest.fail.Exception, match="0123456789abcdef"):
            pins.pinned({pins.AVX512: "a", pins.AVX2: "b"})

    def test_element_alone_equals_it_in_a_batch(self):
        # BatchPosterior evaluates each distinct (x, a, b) once and copies
        # it to the repeats. That holds only if an element's value does not
        # depend on its batch: not on duplicates, nor on neighbours that
        # need many more continued-fraction iterations.
        rng = np.random.default_rng(8)
        x = np.concatenate(([0.15, 0.15, 0.15], rng.uniform(0, 1, 40), [0.5, 0.49, 0.15]))
        a = np.concatenate(([3.5, 3.5, 2.25], 10 ** rng.uniform(-1, 2, 40), [4e4, 9e3, 3.5]))
        b = np.concatenate(([14.0, 14.0, 9.75], 10 ** rng.uniform(-1, 2, 40), [4e4, 9.5e3, 14.0]))
        batch = reg_inc_beta(x, a, b)
        for i in range(len(x)):
            assert batch[i] == reg_inc_beta(float(x[i]), float(a[i]), float(b[i]))
            assert batch[i : i + 1].tobytes() == reg_inc_beta(x[i : i + 1], a[i : i + 1], b[i : i + 1]).tobytes()

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 1, 200)
        aa = 10 ** rng.uniform(-1, 2, 200)
        bb = 10 ** rng.uniform(-1, 2, 200)
        vec = reg_inc_beta(xs, aa, bb)
        for i in range(0, 200, 17):
            assert vec[i] == reg_inc_beta(float(xs[i]), float(aa[i]), float(bb[i]))


class TestBinomial:
    def test_degenerate_p(self):
        assert binom_pmf(0, 5, 0.0) == 1.0
        assert binom_pmf(3, 5, 0.0) == 0.0
        assert binom_pmf(5, 5, 1.0) == 1.0

    def test_simple_pmf(self):
        assert binom_pmf(2, 4, 0.5) == pytest.approx(0.375, rel=1e-14)

    def test_cdf_rational_oracle(self):
        expect = 1 - binom_cdf_rational(1, 10, Fraction(15, 100))
        assert binom_sf(1, 10, 0.15) == pytest.approx(float(expect), rel=1e-12)

    def test_pmf_rational_grid(self):
        for n in (1, 7, 19, 55, 120):
            for k in range(0, n + 1, max(1, n // 5)):
                expect = math.comb(n, k) * Fraction(45, 100) ** k * Fraction(55, 100) ** (n - k)
                assert binom_pmf(k, n, 0.45) == pytest.approx(float(expect), rel=1e-12)

    def test_cdf_terminal(self):
        assert binom_sf(7, 7, 0.3) == 0.0
        assert binom_sf(19, 19, 0.999) == 0.0

    def test_sf_complements_cdf(self):
        for k in range(11):
            cdf = math.fsum(binom_pmf(j, 10, 0.3) for j in range(k + 1))
            assert binom_sf(k, 10, 0.3) + cdf == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("n, k", [(1001, 500), (1500, 700), (4000, 1700), (20000, 3)])
    def test_log_choose_lgamma_form_above_1000(self, n, k):
        assert log_choose(n, k) == pytest.approx(math.log(math.comb(n, k)), rel=0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            binom_pmf(5, 4, 0.5)
        with pytest.raises(DomainError):
            binom_sf(-1, 4, 0.5)
        with pytest.raises(DomainError):
            binom_pmf(1, 4, 1.5)


def draw(seed, key, n, p):
    """One draw on the stream of one key."""
    return int(binomial_draws(seed, [key], [n], [p])[0])


def fresh_stream(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


class TestRngStream:
    # Streams keyed on (seed, key), drawn through binomial_draws.
    def test_deterministic(self):
        assert draw(99, (3, 1, 0), 19, 0.45) == draw(99, (3, 1, 0), 19, 0.45)

    def test_trivial_draws(self):
        assert draw(1, (0,), 0, 0.45) == 0
        assert draw(1, (1,), 10, 0.0) == 0
        assert draw(1, (2,), 10, 1.0) == 10

    def test_empirical_mean(self):
        n, p = 12, 0.35
        t = np.arange(100_000)
        draws = binomial_draws(2024, t[:, None], np.full(len(t), n), np.full(len(t), p))
        se = math.sqrt(n * p * (1 - p) / len(draws))
        assert abs(float(np.mean(draws)) - n * p) < 4 * se

    def test_stream_isolation(self):
        # a trial's draws depend only on its own key
        a = [draw(7, (t, 0, 0), 10, 0.5) for t in range(6)]
        b = [draw(7, (t, 0, 0), 10, 0.5) for t in (5, 1, 4, 0, 3, 2)]
        assert a == [b[i] for i in (3, 1, 5, 4, 2, 0)]

    def test_swapping_trials_affects_only_those(self):
        draws = {t: draw(7, (t, 0, 0), 10, 0.5) for t in range(4)}
        # relabel trials 0 <-> 1: draws move with the labels, trials 2,3 unchanged
        swapped = {0: draws[1], 1: draws[0], 2: draws[2], 3: draws[3]}
        relabel = {0: 1, 1: 0, 2: 2, 3: 3}
        for t in range(4):
            assert swapped[t] == draw(7, (relabel[t], 0, 0), 10, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            draw(-1, (0,), 10, 0.5)
        with pytest.raises(DomainError):
            draw(1, (), -2, 0.5)
        with pytest.raises(DomainError):
            draw(1, (), 3, 1.5)

    def test_nan_p_is_refused(self):
        with pytest.raises(DomainError):
            draw(1, (0,), 10, math.nan)
        with pytest.raises(DomainError):
            binomial_draws(1, [[0], [1], [2]], [10, 10, 10], [0.3, math.nan, 0.6])

    def test_zero_rows(self):
        draws = binomial_draws(1, np.zeros((0, 3), dtype=np.int64), [], [])
        assert draws.dtype == np.int64 and draws.shape == (0,)

    @pytest.mark.parametrize(
        "n, p",
        [
            ([0, 10, 10, 7], [0.45, 0.0, 1.0, 0.0]),
            ([3, 0, 12], [[1.0, 0.3, 0.0], [0.0, 1.0, 1.0]]),
            ([], []),
            ([], np.zeros((2, 0))),
            ([4, 5], np.zeros((0, 2))),
        ],
    )
    def test_nothing_to_draw(self, n, p):
        # Every cell has n == 0, p == 0 or p == 1, so its value needs no draw.
        keys = np.arange(3 * len(n)).reshape(len(n), 3)
        draws = binomial_draws(1, keys, n, p)
        want = np.where(np.asarray(p) == 1.0, n, 0).astype(np.int64)
        assert draws.dtype == want.dtype and draws.shape == want.shape
        assert draws.tolist() == want.tolist()

    def test_key_of_two_words_is_refused(self):
        # SeedSequence hashes a key >= 2^32 as two words; refuse it rather
        # than return a different stream, before any row is drawn.
        with pytest.raises(CapacityError):
            binomial_draws(1, [[0, 0, 0], [2**32, 0, 0]], [10, 10], [0.5, 0.5])
        with pytest.raises(DomainError):
            binomial_draws(1, [[0, -1, 0]], [10], [0.5])


class TestProbabilityRows:
    # binomial_draws with (S, N) p: S rows of probabilities on the same streams.
    KEYS = [(t, b, s) for t in range(40) for b in range(3) for s in range(2)]

    def rows(self):
        n = np.tile([10, 6, 16, 0, 80, 120], 40)
        p = np.array([
            np.full(len(n), 0.15),
            np.tile([0.0, 1.0, 0.45, 0.3, 0.5, 0.6], 40),  # trivial and BTPE draws
            np.tile([0.85, 0.5, 0.55, 0.9, 0.35, 0.45], 40),
            np.zeros(len(n)),
        ])
        return n, p

    def test_equal_to_one_call_per_row(self):
        n, p = self.rows()
        draws = binomial_draws(77, self.KEYS, n, p)
        assert draws.dtype == np.int64 and draws.shape == p.shape
        for row, got in zip(p, draws):
            assert got.tolist() == binomial_draws(77, self.KEYS, n, row).tolist()

    def test_equal_to_fresh_generators(self):
        n, p = self.rows()
        draws = binomial_draws(5, self.KEYS, n, p[1:3])
        for key, ni, pi, got in zip(self.KEYS, n.tolist(), p[1:3].T.tolist(), draws.T.tolist()):
            for pj, x in zip(pi, got):
                want = ni if pj == 1.0 else 0 if ni == 0 or pj == 0.0 else None
                assert x == (fresh_stream(5, key).binomial(ni, pj) if want is None else want)

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.1])
    def test_bad_p_in_any_row_is_refused_before_drawing(self, monkeypatch, bad):
        def no_seeding(*args):
            raise AssertionError("a stream was seeded")

        monkeypatch.setattr(numerics, "_seed_words", no_seeding)
        n, p = self.rows()
        p[2, -1] = bad
        with pytest.raises(DomainError):
            binomial_draws(1, self.KEYS, n, p)

    def test_sizes_sorted_and_first_doubles_derived_once(self, monkeypatch):
        # Five rows of p on the same streams: the distinct sizes and each
        # stream's first double are found once for all of them, not per row.
        sorts, steps = [], []
        distinct, next_double = numerics._distinct, numerics._next_double_index

        def sorting(values):
            sorts.append(values)
            return distinct(values)

        def stepping(*limbs):
            steps.append(len(limbs[0]))
            return next_double(*limbs)

        n, p = self.rows()
        p = np.vstack([p, np.full(len(n), 0.35)])
        want = [binomial_draws(77, self.KEYS, n, row).tolist() for row in p]
        monkeypatch.setattr(numerics, "_distinct", sorting)
        monkeypatch.setattr(numerics, "_next_double_index", stepping)
        assert binomial_draws(77, self.KEYS, n, p).tolist() == want
        assert steps == [len(n)]
        assert sum(np.array_equal(values, n) for values in sorts) == 1

    def test_shapes(self):
        n, p = self.rows()
        assert binomial_draws(1, self.KEYS, n, p[:0]).shape == (0, len(n))
        for bad in (p[:, :-1], p[None], 0.5):
            with pytest.raises(ShapeError):
                binomial_draws(1, self.KEYS, n, bad)


class TestStreamsMatchNumpy:
    # The vectorised seeding must reproduce SeedSequence and PCG64 exactly;
    # a failure here means numpy broke its NEP 19 stream compatibility.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 7, 2**64 - 1])
    def test_seed_words_and_states(self, seed):
        rng = np.random.default_rng(seed % 1000)
        keys = rng.integers(0, 2**32, size=(1000, 3), dtype=np.int64)
        keys[:3] = 0
        keys[3:10] = rng.integers(2**32 - 3, 2**32, size=(7, 3))
        words = _seed_words(seed, keys)
        assert words.dtype == np.uint64 and words.shape == (1000, 4)
        limbs = [a.tolist() for a in _pcg64_limbs(words)]
        for row, w, s_hi, s_lo, i_hi, i_lo in zip(keys.tolist(), words.tolist(), *limbs):
            seq = np.random.SeedSequence(seed, spawn_key=row)
            assert w == seq.generate_state(4, np.uint64).tolist()
            state = np.random.PCG64(seq).state["state"]
            assert s_hi << 64 | s_lo == state["state"]
            assert i_hi << 64 | i_lo == state["inc"]

    def test_draws_equal_fresh_generators(self):
        # n up to 1000 covers numpy's BTPE branch as well as inversion
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**32, size=(3000, 3), dtype=np.int64)
        n = rng.integers(0, 1001, size=3000)
        p = rng.random(3000)
        p[:50] = rng.choice([0.0, 1.0], size=50)
        draws = binomial_draws(12345, keys, n, p)
        assert draws.dtype == np.int64
        for row, got, ni, pi in zip(keys.tolist(), draws.tolist(), n.tolist(), p.tolist()):
            if ni == 0 or pi == 0.0:
                assert got == 0
            elif pi == 1.0:
                assert got == ni
            else:
                assert got == fresh_stream(12345, row).binomial(ni, pi)


    def test_mixed_batch_equals_row_by_row_draws(self):
        # trivial rows, BTPE rows and reflected p > 0.5 rows between
        # inversion rows, in one call and one row at a time
        n = [0, 10, 16, 120, 16, 10, 6, 61, 200, 1000, 6, 16, 0, 10]
        p = [0.45, 0.0, 1.0, 0.45, 0.85, 0.15, 0.45, 0.5, 0.9, 0.01, 1.0, 0.45, 0.0, 0.55]
        keys = [(t, 3, t % 2) for t in range(len(n))]
        draws = binomial_draws(2024, keys, n, p)
        assert draws.tolist() == [draw(2024, *row) for row in zip(keys, n, p)]

    def test_thousands_of_distinct_inversion_pairs(self):
        rng = np.random.default_rng(11)
        n = rng.integers(1, 400, size=2500)
        p = rng.uniform(0.0, 1.0, size=2500) * np.minimum(0.5, 30.0 / n)
        p[::2] = 1.0 - p[::2]
        assert len(set(zip(n.tolist(), p.tolist()))) > 2000
        assert (np.minimum(p, 1.0 - p) * n <= 30.0).all()
        keys = rng.integers(0, 2**32, size=(2500, 2), dtype=np.int64)
        draws = binomial_draws(77, keys, n, p)
        for row, got, ni, pi in zip(keys.tolist(), draws.tolist(), n.tolist(), p.tolist()):
            assert got == fresh_stream(77, row).binomial(ni, pi)


class TestSeedPool:
    # The seed's pool is hashed on Python ints and the key words on uint32
    # arrays, by the same _Hasher and _mix, without numpy.random.
    @pytest.mark.parametrize("seed", [0, 1, 7, 20211, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
    def test_pool_equals_numpy(self, seed):
        # With no key words the seed words are the pool's whole output.
        words = _seed_words(seed, np.zeros((1, 0), dtype=np.int64))
        assert words.tolist() == [np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()]

    def test_int_and_uint32_array_hash_alike(self):
        # numpy 1.x casts a Python int operand by its value, numpy 2 by the
        # array's dtype; either way the uint32 words must match int arithmetic.
        values = [0, 1, 0xCA01F9DD, 0x4973F715, 2**31, 2**32 - 1]
        for x in values:
            as_int, as_array = _Hasher(_INIT_A, _MULT_A), _Hasher(_INIT_A, _MULT_A)
            for _ in range(3):
                got = as_array(np.array([x], dtype=np.uint32))
                assert got.dtype == np.uint32 and got.tolist() == [as_int(x)]
            for y in values:
                got = _mix(np.array([x], dtype=np.uint32), np.array([y], dtype=np.uint32))
                assert got.dtype == np.uint32 and got.tolist() == [_mix(x, y)]

    def test_paper_simulate_never_imports_numpy_random(self, tmp_path):
        config = {
            "spec": {
                "baskets": 4, "max_sizes": 16, "theta0": 0.15, "theta1": 0.45, "delta": 2.0,
                "lambda": 0.977, "gamma": 0.70033, "stages": 2, "interim_sizes": 10,
            },
            "n_sims": 100,
            "seed": 20211,
        }
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(config))
        script = (
            "import sys\n"
            "from localmem.cli import main\n"
            f"status = main(['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "print(status, 'numpy.random' in sys.modules)\n"
        )
        # The pytest pythonpath setting does not reach a subprocess.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1


def state_for_first_double(k, inc):
    """A PCG64 state whose next double is exactly k * 2^-53.

    The stepped state gets rotation 0 (top six bits clear) and low word
    hi ^ (k << 11), so its XSL-RR output is k << 11; one step is then
    inverted: pre = (post - inc) * MULT^-1 mod 2^128.
    """
    hi = (0x0123456789ABCDEF ^ k) & (2**58 - 1)
    post = hi << 64 | hi ^ k << 11
    return (post - inc) * pow(_PCG64_MULT, -1, 2**128) % 2**128


def generator_at(state, inc):
    bitgen = np.random.PCG64(0)
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bitgen)


def double_index(u, shift=0):
    """The k whose double k * 2^-53 is nearest u, moved by shift, within [0, 2^53)."""
    return min(max(round(u * 2**53) + shift, 0), 2**53 - 1)


def inversion_thresholds(n, p):
    """U values where numpy's inversion sampler moves from X to X + 1 (p <= 0.5)."""
    q = 1.0 - p
    px = math.exp(n * math.log1p(-p))
    cut, cuts = px, [px]
    for x in range(1, n + 1):
        px = (n - x + 1) * p * px / (x * q)
        cut += px
        cuts.append(cut)
    return cuts


class TestInversionAtCraftedStates:
    # Random rows almost never land within a few 2^-53 of a threshold of
    # numpy's sampler; these states put the first double exactly there.
    INC = (0x9E3779B97F4A7C15F39CC0605CEDC835 << 1 | 1) % 2**128

    def assert_matches_numpy(self, ks, n, p, inc=INC):
        """Check the draws at the doubles k * 2^-53 against numpy's and return numpy's."""
        states = [state_for_first_double(k, inc) for k in ks]
        limbs = tuple(
            np.array(values, dtype=np.uint64)
            for values in (
                [s >> 64 for s in states],
                [s & _MASK64 for s in states],
                [inc >> 64] * len(ks),
                [inc & _MASK64] * len(ks),
            )
        )
        got = _binomial_from_limbs(limbs, np.full(len(ks), n), np.full(len(ks), p))
        want = [int(generator_at(s, inc).binomial(n, p)) for s in states]
        assert got.tolist() == want
        return want

    def test_crafted_state_gives_the_chosen_double(self):
        for k in (0, 1, 2**52 + 12345, 2**53 - 1):
            gen = generator_at(state_for_first_double(k, self.INC), self.INC)
            assert gen.random() == k * 2.0**-53

    @pytest.mark.parametrize("n, p", [(2, 0.15), (16, 0.15), (10, 0.45), (6, 0.3)])
    def test_at_and_around_every_threshold(self, n, p):
        ks = sorted(
            {double_index(cut, d) for cut in inversion_thresholds(n, p) for d in range(-3, 4)}
        )
        self.assert_matches_numpy(ks, n, p)

    # The cohorts the benchmark draws, and a long chain. Doubles at each
    # cumulative sum run numpy's chain; doubles just outside the lookup's
    # margin take the lookup; those near 1 restart past the bound of 43.
    @pytest.mark.parametrize(
        "n, p, bound", [(10, 0.15, 10), (6, 0.15, 6), (6, 0.45, 6), (16, 0.45, 16), (1000, 0.01, 43)]
    )
    def test_lookup_and_chain_at_every_cut_and_margin(self, n, p, bound):
        px = _inversion_px(n, p)
        assert len(px) == bound + 1
        shifts = [*range(-3, 4)] + [s * (_LOOKUP_MARGIN + d) for s in (-1, 1) for d in (-1, 0, 1)]
        cuts = inversion_thresholds(n, p)[: bound + 1]
        ks = sorted({double_index(cut, d) for cut in cuts for d in shifts})
        ks += [2**53 - 1 - j for j in range(4)]
        want = self.assert_matches_numpy(ks, n, p)
        chain = [_chain(k * 2.0**-53, px) for k in ks]
        assert [c for c in chain if c <= bound] == [w for c, w in zip(chain, want) if c <= bound]
        assert bound == n or bound + 1 in chain

    @pytest.mark.parametrize("n, p", [(2, 0.15), (16, 0.15), (16, 0.85)])
    def test_largest_doubles(self, n, p):
        self.assert_matches_numpy([2**53 - 1, 2**53 - 2], n, p)

    @pytest.mark.parametrize("n, p, bound", [(100, 0.01, 15), (400, 0.02, 37)])
    def test_search_past_the_bound_restarts_on_a_fresh_double(self, n, p, bound):
        # Doubles this close to 1 exceed every cumulative probability up to
        # the search bound (below n here), so each row draws again.
        assert inversion_thresholds(n, p)[bound] < 1.0 - 2.0**-49
        ks = [2**53 - 1 - j for j in range(16)]
        for inc in (self.INC, 1, 2**128 - 1, *(2 * j + 1 << 64 | 2 * j + 1 for j in range(1, 8))):
            self.assert_matches_numpy(ks, n, p, inc)

    # 0.5 * 60 == 30 stays on inversion; (1 - 0.7) * 100 rounds to
    # 30.000000000000004, so (100, 0.7) takes BTPE.
    @pytest.mark.parametrize(
        "n, p",
        [(10, 0.5), (60, 0.5), (16, 0.85), (100, 0.7), (61, 0.5), (120, 0.45)],
        ids=["p=0.5", "np=30", "reflected", "(1-p)n>30 BTPE", "np>30 BTPE", "BTPE"],
    )
    def test_branch_edges(self, n, p):
        ks = [0, 1, 2**51, 2**52, 2**52 + 2**51, 2**53 - 1]
        ks += [double_index(cut) for cut in inversion_thresholds(n, min(p, 1 - p))[::7]]
        self.assert_matches_numpy(ks, n, p)


class TestLogSumExp:
    def test_all_neg_inf(self):
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_basic(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_large_values_no_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-11)

    def test_axis(self):
        arr = np.array([[0.0, -np.inf], [1.0, 1.0]])
        out = log_sum_exp(arr, axis=1)
        assert out[0] == pytest.approx(0.0, abs=1e-14)
        assert out[1] == pytest.approx(1.0 + math.log(2.0), abs=1e-14)


def distinct_rows_cases():
    """Columns of the _distinct_rows tests by name, every key with repeats."""
    rng = np.random.default_rng(61)
    row_keys = rng.integers(-1, 4, size=(400, 4)).astype(np.int8)
    alpha, beta = rng.uniform(1.0, 17.0, size=(2, 9))
    triples = rng.integers(0, 9, size=(500, 2))
    return {
        "int8 row keys": tuple(row_keys.T),
        "float triples": (rng.choice([0.1, 0.15, 0.2], 500), alpha[triples[:, 0]], beta[triples[:, 1]]),
        "one column": (rng.choice([0.5, 2.0, 7.25], 60),),
        "no rows": (np.empty(0), np.empty(0), np.empty(0)),
    }


class TestDistinctRows:
    @pytest.mark.parametrize("name", ["int8 row keys", "float triples", "one column", "no rows"])
    def test_equals_unique_rows(self, name):
        # np.unique sorts rows with the first column primary and np.lexsort
        # with the last, so it gets the columns reversed: then its distinct
        # rows are in lexsort order, each at its first occurrence.
        columns = distinct_rows_cases()[name]
        pick, inverse = numerics._distinct_rows(columns)
        rows = np.stack(columns[::-1], axis=1)
        unique, index, unique_inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        assert len(unique) < len(rows) or not len(rows)
        assert pick.tolist() == index.tolist()
        assert inverse.tolist() == unique_inverse.ravel().tolist()
        for column in columns:
            assert column[pick][inverse].tobytes() == column.tobytes()


def _spec(**kwargs):
    args = dict(num_baskets=2, max_sizes=16, theta0=0.15, theta1=0.45, lam=0.9, interim_sizes=10)
    args.update(kwargs)
    return DesignSpec.create(**args)


class TestAsInt:
    def test_integral_values_of_any_type(self):
        for value in (2, 2.0, np.int64(2), np.float32(2.0), Fraction(4, 2)):
            out = as_int(value, "v")
            assert out == 2 and type(out) is int
        ints = np.array([1, 2], dtype=np.int32)
        assert as_int(ints, "v") is ints
        floats = as_int([[1.0, 2.0], [0.0, 7.0]], "v")
        assert floats.dtype == np.int64 and floats.tolist() == [[1, 2], [0, 7]]

    @pytest.mark.parametrize(
        "value", [1.5, np.float64(-0.5), math.nan, math.inf, "3", None, [1, 2.5], [math.inf]]
    )
    def test_fractional_or_non_numeric_refused(self, value):
        with pytest.raises(DomainError):
            as_int(value, "v")

    @pytest.mark.parametrize(
        "call",
        [
            lambda: BasketData.create([1.5, 2], [2, 4]),
            lambda: BasketData.create([1, 2], [2.9, 4]),
            lambda: _spec(num_baskets=2.5),
            lambda: _spec(max_sizes=16.7),
            lambda: _spec(interim_sizes=(10, 10.2)),
            lambda: simulate(_spec(), Scenario.from_rates(_spec(), [0.15, 0.45], "s"), n_sims=1.5),
            lambda: CalibrationProblem(_spec(), n_sims=1.5),
            lambda: TrialState.at_interim([1, 2], _spec()).with_final_data([1.5, 2], _spec()),
            lambda: binomial_draws(0, [[0, 0, 0]], [2.5], [0.5]),
            lambda: binomial_draws(0, [[0.7, 0, 0]], [2], [0.5]),
            lambda: cli._seed(argparse.Namespace(seed=None), {"seed": 1.5}),
        ],
        ids=[
            "BasketData-x", "BasketData-n", "DesignSpec-num_baskets", "DesignSpec-max_sizes",
            "DesignSpec-interim_sizes", "simulate-n_sims", "CalibrationProblem-n_sims",
            "TrialState-with_final_data", "binomial_draws-n", "binomial_draws-keys", "cli-seed",
        ],
    )
    def test_entry_points_refuse_fractions(self, call):
        with pytest.raises(DomainError):
            call()

    def test_integral_floats_are_stored_as_ints(self):
        spec = _spec(num_baskets=2.0, max_sizes=(16.0, np.int64(16)), interim_sizes=10.0)
        assert spec == _spec()
        assert all(type(v) is int for v in (spec.num_baskets, *spec.max_sizes, *spec.interim_sizes))
        data = BasketData.create([1.0, np.int64(2)], [2.0, 4])
        assert (data.x, data.n) == ((1, 2), (2, 4))
        assert all(type(v) is int for v in data.x + data.n)
        assert type(CalibrationProblem(_spec(), n_sims=50.0).n_sims) is int
