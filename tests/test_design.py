import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from localmem import design, numerics, posterior
from localmem.design import (
    Decision,
    DesignSpec,
    STAGE_DONE,
    STAGE_FINAL,
    STAGE_INTERIM,
    TrialState,
    final_step,
    interim_step,
    run_single_stage,
    run_two_stage,
    stopping_boundary,
    survivor_exceedance,
)
from localmem.errors import CapacityError, DomainError, ShapeError
from localmem.numerics import reg_inc_beta
from localmem.posterior import JEFFREYS_PRIOR, BasketData, analyze

import pins
from oracles import RationalAnalysis


def paper_two_stage(delta=2.0):
    """Four baskets, N=16 with a look after 10, boundary (q1=0.703, q2=0.977)."""
    return DesignSpec.create(
        4, 16, 0.15, 0.45, lam=0.977, gamma=0.70033, delta=delta, stages=2, interim_sizes=10
    )


def unequal_six():
    """B = 6 with unequal sizes, a vector theta0 and the Jeffreys prior; 240
    count rows (every fourth with equal counts) and random survivor masks,
    with empty rows and all-basket rows among them."""
    spec = DesignSpec.create(
        6, (16, 14, 16, 12, 14, 16), (0.1, 0.15, 0.2, 0.15, 0.1, 0.25), 0.5, lam=0.977,
        gamma=0.7, delta=2.0, prior=JEFFREYS_PRIOR, stages=2, interim_sizes=(10, 8, 10, 6, 8, 10),
    )
    sizes = np.asarray(spec.max_sizes)
    rng = np.random.default_rng(54)
    x = rng.integers(0, sizes + 1, size=(240, 6))
    x[::4] = rng.integers(0, 13, size=(60, 1))
    survivors = rng.random((240, 6)) < 0.5
    survivors[::9] = False
    survivors[1::9] = True
    return spec, x, survivors, sizes


def oracle_decisions_single(x, n, delta, theta0, q2, alpha2=2, beta2=2):
    oracle = RationalAnalysis(list(x), [n] * len(x), delta, alpha2, beta2)
    return tuple(
        Decision.EFFICACIOUS if oracle.exceed_prob(b, theta0) > q2 else Decision.NOT_PROMISING
        for b in range(len(x))
    )


class TestStoppingBoundary:
    def test_paper_point(self):
        # gamma back-solved so that 0.977 * 0.625**gamma = 0.703
        bd = stopping_boundary(0.977, 0.70033, 10 / 16)
        assert bd.q1 == pytest.approx(0.703, abs=5e-4)
        assert bd.q2 == 0.977

    def test_gamma_zero(self):
        bd = stopping_boundary(0.9, 0.0, 0.4)
        assert bd.q1 == bd.q2 == 0.9

    def test_full_information(self):
        assert stopping_boundary(0.9, 1.7, 1.0).q1 == pytest.approx(0.9, abs=1e-15)

    def test_q1_never_exceeds_q2(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            lam = rng.uniform(0.01, 0.99)
            gamma = rng.uniform(0.0, 5.0)
            t = rng.uniform(0.01, 1.0)
            bd = stopping_boundary(lam, gamma, t)
            assert 0 < bd.q1 <= bd.q2 < 1

    def test_domain(self):
        with pytest.raises(DomainError):
            stopping_boundary(1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            stopping_boundary(0.9, -0.1, 0.5)
        with pytest.raises(DomainError):
            stopping_boundary(0.9, 1.0, 0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma(self, gamma):
        with pytest.raises(DomainError, match="gamma"):
            stopping_boundary(0.9, gamma, 0.5)


class TestDesignSpec:
    def test_interim_from_fraction(self):
        spec = DesignSpec.create(
            2, (16, 20), 0.15, 0.45, lam=0.9, gamma=1.0, stages=2, interim_fraction=0.5
        )
        assert spec.stage1_sizes() == (8, 10)

    def test_fraction_and_sizes_together_are_refused(self):
        with pytest.raises(DomainError):
            DesignSpec.create(
                4, 16, 0.15, 0.45, lam=0.977, stages=2, interim_fraction=0.25, interim_sizes=10
            )

    def test_information_fraction_with_explicit_sizes(self):
        spec = paper_two_stage()
        assert spec.information_fraction() == pytest.approx(10 / 16)

    def test_numpy_scalars(self):
        spec = DesignSpec.create(
            np.int64(4), np.int64(16), np.float64(0.15), np.float32(0.45),
            lam=np.float64(0.9), stages=2, interim_sizes=np.int32(10),
        )
        plain = DesignSpec.create(
            4, 16, 0.15, float(np.float32(0.45)), lam=0.9, stages=2, interim_sizes=10
        )
        assert spec == plain
        assert type(spec.num_baskets) is int and type(spec.max_sizes[0]) is int

    def test_validation(self):
        with pytest.raises(DomainError):
            DesignSpec.create(2, 16, 0.45, 0.15, lam=0.9, stages=1)  # target below null
        with pytest.raises(DomainError):
            DesignSpec.create(2, 16, 0.15, 0.45, lam=0.9, stages=2, interim_sizes=16)
        with pytest.raises(DomainError):
            DesignSpec.create(2, 16, 0.15, 0.45, lam=0.9, stages=2)  # no interim plan
        with pytest.raises(ShapeError):
            DesignSpec.create(3, (16, 16), 0.15, 0.45, lam=0.9, stages=1)

    @pytest.mark.parametrize("interim", [{"interim_sizes": 99}, {"interim_fraction": 0.5}])
    def test_single_stage_has_no_interim_look(self, interim):
        # Neither field would ever be read: stage1_sizes() is max_sizes.
        with pytest.raises(DomainError, match="single-stage design has no interim look"):
            DesignSpec.create(4, 16, 0.15, 0.45, lam=0.9, stages=1, **interim)

    @pytest.mark.parametrize("name", ["gamma", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_and_delta(self, name, value):
        with pytest.raises(DomainError, match=name):
            DesignSpec.create(
                4, 16, 0.15, 0.45, lam=0.9, stages=2, interim_sizes=10, **{name: value}
            )

    def test_negative_delta_is_allowed(self):
        spec = DesignSpec.create(4, 16, 0.15, 0.45, lam=0.9, delta=-1.5, stages=1)
        assert spec.delta == -1.5

    def test_basket_cap_is_checked_before_any_field_is_expanded(self):
        class Untouchable:
            def __iter__(self):
                raise AssertionError("max_sizes was expanded before the basket cap was checked")

        with pytest.raises(CapacityError):
            DesignSpec.create(11, Untouchable(), 0.15, 0.45, lam=0.9, stages=1)


class TestInterimStep:
    def test_all_futile(self):
        spec = paper_two_stage()
        state = interim_step(TrialState.at_interim([0, 0, 0, 0], spec), spec)
        assert state.stage == STAGE_DONE
        assert all(d is Decision.FUTILITY_STOPPED for d in state.decisions)

    def test_single_strong_basket_continues(self):
        spec = paper_two_stage()
        x = [0, 0, 0, 8]
        state = interim_step(TrialState.at_interim(x, spec), spec)
        # exact oracle recomputation of each basket's exceedance probability
        oracle = RationalAnalysis(x, [10] * 4, 2)
        probs = [oracle.exceed_prob(b, 0.15) for b in range(4)]
        q1 = spec.boundary().q1
        assert probs[3] > q1 and all(p <= q1 for p in probs[:3])
        assert state.active == (False, False, False, True)
        assert state.decisions[3] is Decision.PENDING
        assert state.stage == STAGE_FINAL

    def test_single_basket_above_threshold(self):
        spec = DesignSpec.create(
            1, 16, 0.15, 0.45, lam=0.977, gamma=0.70033, delta=2.0, stages=2, interim_sizes=10
        )
        state = interim_step(TrialState.at_interim([5], spec), spec)
        # one basket: plain Beta tail
        p = 1.0 - reg_inc_beta(0.15, 1 + 5, 1 + 5)
        assert p > spec.boundary().q1
        assert state.active == (True,)

    def test_size_mismatch(self):
        spec = paper_two_stage()
        state = TrialState(
            stage=1,
            data=BasketData.create([0, 0, 0, 0], [9, 10, 10, 10]),
            decisions=(Decision.PENDING,) * 4,
        )
        with pytest.raises(ShapeError):
            interim_step(state, spec)

    def test_stopped_basket_is_refused(self):
        # A basket stopped before the interim look cannot be re-activated by it.
        spec = paper_two_stage()
        stopped = (Decision.PENDING, Decision.FUTILITY_STOPPED, Decision.PENDING, Decision.PENDING)
        state = replace(TrialState.at_interim([0, 3, 1, 8], spec), decisions=stopped)
        with pytest.raises(DomainError):
            interim_step(state, spec)

    def test_decisions_given_as_values_are_decisions(self):
        # "pending" equals Decision.PENDING but is not it: the state holds
        # Decision members, so plain strings mark their baskets active.
        spec = paper_two_stage()
        data = BasketData.create([0, 7, 6, 7], [10] * 4)
        state = TrialState(STAGE_INTERIM, data, ("pending",) * 4)
        assert state.decisions == (Decision.PENDING,) * 4
        assert state.active == (True,) * 4
        assert interim_step(state, spec) == interim_step(TrialState.at_interim([0, 7, 6, 7], spec), spec)
        stopped = TrialState(STAGE_FINAL, data, ("futility-stopped", "pending", "pending", "pending"))
        assert stopped.decisions[0] is Decision.FUTILITY_STOPPED
        with pytest.raises(DomainError, match="stopped"):
            TrialState(STAGE_INTERIM, data, ("pending", "stopped", "pending", "pending"))

    def test_basket_count_must_match_design(self):
        spec = paper_two_stage()
        three = DesignSpec.create(
            3, 16, 0.15, 0.45, lam=0.977, gamma=0.70033, delta=2.0, stages=2, interim_sizes=10
        )
        with pytest.raises(ShapeError):
            interim_step(TrialState.at_interim([0, 3, 1], three), spec)
        final = TrialState(
            stage=STAGE_FINAL,
            data=BasketData.create([9, 8, 9], [16, 16, 16]),
            decisions=(Decision.PENDING,) * 3,
        )
        with pytest.raises(ShapeError):
            final_step(final, spec)


class TestFinalStep:
    def test_matches_partition_oracle_on_survivors(self):
        spec = paper_two_stage()
        state = interim_step(TrialState.at_interim([0, 7, 6, 7], spec), spec)
        assert state.active == (False, True, True, True)
        state = state.with_final_data([0, 9, 8, 9], spec)
        done = final_step(state, spec)
        expect = oracle_decisions_single([9, 8, 9], 16, 2, 0.15, 0.977)
        assert done.decisions[1:] == expect
        assert done.decisions[0] is Decision.FUTILITY_STOPPED
        assert done.stage == STAGE_DONE

    def test_single_survivor_uses_basket_wise_rule(self):
        spec = paper_two_stage()
        state = interim_step(TrialState.at_interim([0, 0, 0, 8], spec), spec)
        done = final_step(state.with_final_data([0, 0, 0, 12], spec), spec)
        p = 1.0 - reg_inc_beta(0.15, 1 + 12, 1 + 4)
        expect = Decision.EFFICACIOUS if p > 0.977 else Decision.NOT_PROMISING
        assert done.decisions[3] == expect

    def test_interim_stopping_every_basket_ends_the_trial(self):
        spec = paper_two_stage()
        state = interim_step(TrialState.at_interim([0, 0, 0, 0], spec), spec)
        assert state.stage == STAGE_DONE
        assert state.decisions == (Decision.FUTILITY_STOPPED,) * 4
        assert state.active == (False,) * 4
        with pytest.raises(DomainError):
            final_step(state.with_final_data([0, 0, 0, 0], spec), spec)  # no final look follows

    def test_dropped_basket_data_excluded(self):
        # Two final datasets differing only in a stopped basket's counts must
        # produce identical stage-2 decisions.
        spec = paper_two_stage()
        state = interim_step(TrialState.at_interim([0, 7, 6, 7], spec), spec)
        a = final_step(state.with_final_data([0, 9, 8, 9], spec), spec)
        b = final_step(state.with_final_data([999, 9, 8, 9], spec), spec)
        assert a.decisions == b.decisions
        assert a.data.x[0] == b.data.x[0] == 0  # interim counts retained

    def test_active_basket_requires_full_enrollment(self):
        spec = paper_two_stage()
        state = interim_step(TrialState.at_interim([0, 7, 6, 7], spec), spec)
        with pytest.raises(ShapeError):
            final_step(state, spec)  # data still at interim sizes

    def test_stopped_basket_keeps_interim_size(self):
        spec = paper_two_stage()
        state = interim_step(TrialState.at_interim([0, 7, 6, 7], spec), spec)
        assert state.active == (False, True, True, True)
        past = replace(state, data=BasketData.create([0, 9, 8, 9], [16, 16, 16, 16]))
        with pytest.raises(ShapeError):
            final_step(past, spec)

    def test_no_active_basket_is_refused(self):
        spec = paper_two_stage()
        state = TrialState(
            stage=STAGE_FINAL,
            data=BasketData.create([0, 0, 0, 0], [10, 10, 10, 10]),
            decisions=(Decision.FUTILITY_STOPPED,) * 4,
        )
        with pytest.raises(DomainError):
            final_step(state, spec)

    def test_stopped_decision_keeps_the_basket_out(self):
        # The decisions alone say which baskets are stopped: a FUTILITY_STOPPED
        # basket keeps its decision and interim counts and is not analyzed.
        spec = paper_two_stage()
        stopped = (Decision.FUTILITY_STOPPED,) + (Decision.PENDING,) * 3
        data = BasketData.create([10, 9, 8, 9], [10, 16, 16, 16])
        state = TrialState(STAGE_FINAL, data, stopped)
        done = final_step(state, spec)
        assert done.decisions[0] is Decision.FUTILITY_STOPPED
        assert (done.data.x[0], done.data.n[0]) == (10, 10)
        assert done.analysis.data.basket_ids == ("B", "C", "D")
        # At its maximum size it is refused, not re-analyzed.
        with pytest.raises(ShapeError):
            final_step(replace(state, data=BasketData.create([16, 9, 8, 9], [16] * 4)), spec)

    @pytest.mark.parametrize("decided", [Decision.EFFICACIOUS, Decision.NOT_PROMISING, Decision.CONTINUE])
    def test_a_final_decision_is_refused_not_kept(self, decided):
        # Only PENDING and FUTILITY_STOPPED baskets enter a look; a basket
        # already decided at its interim size is refused, not passed through.
        spec = paper_two_stage()
        data = BasketData.create([5, 1, 8, 12], [10, 16, 16, 16])
        state = TrialState(STAGE_FINAL, data, (decided,) + (Decision.PENDING,) * 3)
        with pytest.raises(DomainError, match=f"basket 0 is {decided.value} before the final look"):
            final_step(state, spec)
        interim = TrialState(STAGE_INTERIM, BasketData.create([5, 1, 8, 9], [10] * 4), state.decisions)
        with pytest.raises(DomainError, match=f"basket 0 is {decided.value} before the interim look"):
            interim_step(interim, spec)

    def test_active_is_the_pending_flags(self):
        spec = paper_two_stage()
        single = DesignSpec.create(4, 19, 0.15, 0.45, lam=0.977, delta=2.0, stages=1)
        for x1, x_total in (([0, 7, 6, 7], [0, 9, 8, 9]), ([0] * 4, [0] * 4), ([9] * 4, [16] * 4)):
            state = TrialState.at_interim(x1, spec)
            states = [state, interim_step(state, spec)]
            if states[-1].stage == STAGE_FINAL:
                states.append(final_step(states[-1].with_final_data(x_total, spec), spec))
            data = BasketData.create(x_total, [19] * 4)
            one = TrialState(STAGE_FINAL, data, (Decision.PENDING,) * 4)
            states += [one, final_step(one, single)]
            for st in states:
                assert st.active == tuple(d is Decision.PENDING for d in st.decisions)
        with pytest.raises(TypeError):
            TrialState(STAGE_FINAL, state.data, state.decisions, active=(True,) * 4)


class TestRunSingleStage:
    def spec19(self, num_baskets=4, lam=0.977):
        return DesignSpec.create(num_baskets, 19, 0.15, 0.45, lam=lam, delta=2.0, stages=1)

    def test_maximal_evidence(self):
        spec = self.spec19()
        decisions = run_single_stage(BasketData.create([19] * 4, [19] * 4), spec)
        assert all(d is Decision.EFFICACIOUS for d in decisions)

    def test_zero_responses(self):
        spec = self.spec19()
        decisions = run_single_stage(BasketData.create([0] * 4, [19] * 4), spec)
        assert all(d is Decision.NOT_PROMISING for d in decisions)

    def test_matches_oracle(self):
        spec = self.spec19()
        x = [2, 3, 8, 9]
        decisions = run_single_stage(BasketData.create(x, [19] * 4), spec)
        assert decisions == oracle_decisions_single(x, 19, 2, 0.15, 0.977)

    def test_wrong_stage_count(self):
        with pytest.raises(DomainError):
            run_single_stage(BasketData.create([0] * 4, [16] * 4), paper_two_stage())

    def test_checked_as_a_final_look(self):
        # The same checks and error classes as a two-stage trial's looks.
        spec = self.spec19()
        with pytest.raises(ShapeError):
            run_single_stage(BasketData.create([0] * 4, [19, 19, 16, 19]), spec)
        with pytest.raises(ShapeError):
            run_single_stage(BasketData.create([0] * 3, [19] * 3), spec)
        final = TrialState(
            stage=STAGE_FINAL,
            data=BasketData.create([0] * 4, [19] * 4),
            decisions=(Decision.PENDING,) * 4,
        )
        assert final_step(final, spec).decisions == run_single_stage(final.data, spec)


    @pytest.mark.parametrize("x", [[2, 3, 8, 9], [0, 19, 7, 12], [6, 6, 6, 6]])
    def test_final_step_is_its_one_look(self, x):
        spec = self.spec19()
        data = BasketData.create(x, [19] * 4)
        done = final_step(TrialState(STAGE_FINAL, data, (Decision.PENDING,) * 4), spec)
        assert done.decisions == run_single_stage(data, spec)
        assert done.stage == STAGE_DONE and done.analysis.data.basket_ids == data.basket_ids

    def test_every_basket_is_looked_at_once(self):
        # A single-stage design stops no basket early and has no interim look.
        spec = self.spec19()
        data = BasketData.create([0, 3, 1, 8], [19] * 4)
        stopped = (Decision.FUTILITY_STOPPED,) + (Decision.PENDING,) * 3
        with pytest.raises(DomainError):
            final_step(TrialState(STAGE_FINAL, data, stopped), spec)
        with pytest.raises(DomainError, match="stage 2"):
            interim_step(TrialState(STAGE_INTERIM, data, (Decision.PENDING,) * 4), spec)


class TestOneRowEqualsBatch:
    def test_survivor_exceedance_rows_equal_analyze(self):
        # Random survivor masks at B = 5; a third of the rows give every
        # basket the same counts, so partitions tie and the tie-break decides.
        spec = DesignSpec.create(
            5, (16, 16, 14, 16, 12), (0.1, 0.15, 0.2, 0.15, 0.1), 0.45, lam=0.977,
            gamma=0.7, delta=2.0, prior=JEFFREYS_PRIOR, stages=2, interim_sizes=10,
        )
        sizes = np.asarray(spec.max_sizes)
        rng = np.random.default_rng(53)
        x = rng.integers(0, sizes + 1, size=(90, 5))
        x[::3] = rng.integers(0, 13, size=(30, 1))
        survivors = rng.random((90, 5)) < 0.6
        survivors[::7] = True
        probs = survivor_exceedance(spec, x, survivors, sizes)
        for t in range(len(x)):
            cols = np.flatnonzero(survivors[t])
            assert np.all(probs[t, ~survivors[t]] == -np.inf)
            if not len(cols):
                continue
            result = analyze(
                BasketData.create(x[t, cols], sizes[cols]),
                delta=spec.delta,
                prior=spec.prior,
                theta0=[spec.theta0[b] for b in cols],
            )
            assert probs[t, cols].tolist() == list(result.prob_exceeds)

    def test_output_bytes_are_pinned(self):
        # Recorded when each survivor set still had its own engine call: the
        # grouping of rows into engine calls never moves a byte.
        probs = survivor_exceedance(*unequal_six())
        digest = hashlib.sha256(probs.tobytes()).hexdigest()
        assert digest == pins.pinned({
            pins.AVX512: "e6dd8de8f4409a869ddb74f3fe3826a5ec6304c6b03d7567f46a49aa19ee94c3",
            pins.AVX2: "090e581a27427bbf13788ea82f46527bca9a8638ba5c0026a4d4435b3dde868e",
        })

    def test_one_engine_call_per_size_tuple(self, monkeypatch):
        # 60 non-empty survivor sets share 45 size tuples ({0}, {2} and {5}
        # are all (16,)); each tuple gets one engine, whose rows reach the
        # top pick in one call.
        built, called = [], []

        class Counting(design.BatchPosterior):
            def __init__(self, n, *args):
                built.append(tuple(n))
                super().__init__(n, *args)

            def borrow_params(self, x):
                called.append(tuple(self.n.tolist()))
                return super().borrow_params(x)

        monkeypatch.setattr(design, "BatchPosterior", Counting)
        spec, x, survivors, sizes = unequal_six()
        survivor_exceedance(spec, x, survivors, sizes)
        keys = sorted({tuple(sizes[row].tolist()) for row in survivors if row.any()})
        assert len(keys) == 45
        assert sorted(built) == keys and sorted(called) == keys

    def test_duplicate_rows_are_analyzed_once(self, monkeypatch):
        # The rows tiled three times and shuffled give the untiled output row
        # for row, and each distinct (survivor set, survivor counts) row
        # reaches an engine's top pick once.
        seen = []

        class Counting(design.BatchPosterior):
            def borrow_params(self, x):
                seen.extend(map(tuple, np.asarray(x).tolist()))
                return super().borrow_params(x)

        spec, x, survivors, sizes = unequal_six()
        want = survivor_exceedance(spec, x, survivors, sizes)
        monkeypatch.setattr(design, "BatchPosterior", Counting)
        tiled = np.random.default_rng(55).permutation(np.tile(np.arange(len(x)), 3))
        got = survivor_exceedance(spec, x[tiled], survivors[tiled], sizes)
        assert got.tobytes() == want[tiled].tobytes()
        distinct = {tuple(np.where(s, r, -1)) for r, s in zip(x, survivors) if s.any()}
        assert len(seen) == len(distinct) < len(x)

    @pytest.mark.parametrize("alive", [False, True])
    def test_one_incomplete_beta_call_per_call(self, monkeypatch, alive):
        # Every engine's cells go through one exceedance step: one
        # incomplete beta call however many size tuples there are, and none
        # when no basket survives.
        calls = []

        def counting(x, a, b):
            calls.append(np.size(x))
            return reg_inc_beta(x, a, b)

        monkeypatch.setattr(posterior, "reg_inc_beta", counting)
        spec, x, survivors, sizes = unequal_six()
        survivor_exceedance(spec, x, survivors & alive, sizes)
        assert len(calls) == alive

    @pytest.mark.parametrize("alive", [False, True])
    def test_cells_are_deduplicated_once(self, monkeypatch, alive):
        # The exceedance step is the one dedup of (theta0, alpha, beta) cells:
        # one _distinct_rows call over float columns however many engines
        # there are, and none when no basket survives. The row key's call is
        # over integer columns.
        float_calls = []
        distinct_rows = numerics._distinct_rows

        def counting(columns):
            if any(np.asarray(c).dtype.kind == "f" for c in columns):
                float_calls.append(columns)
            return distinct_rows(columns)

        for module in (numerics, posterior, design):
            monkeypatch.setattr(module, "_distinct_rows", counting)
        spec, x, survivors, sizes = unequal_six()
        survivor_exceedance(spec, x, survivors & alive, sizes)
        assert len(float_calls) == alive

    def test_row_key_holds_every_count(self):
        # The row key is int8 only while every count fits: counts above 127
        # still equal analyze, and a negative count is refused, not wrapped
        # into a valid one (-240 is 16 in int8).
        spec = DesignSpec.create(2, 200, 0.15, 0.45, lam=0.977, delta=1.0, stages=1)
        x = np.array([[130, 200], [127, 128], [0, 200]], dtype=np.uint8)
        probs = survivor_exceedance(spec, x, np.ones(x.shape, dtype=bool), spec.max_sizes)
        for row, p in zip(x, probs):
            data = BasketData.create(row, spec.max_sizes)
            assert p.tolist() == list(analyze(data, delta=1.0, theta0=spec.theta0).prob_exceeds)
        with pytest.raises(DomainError):
            survivor_exceedance(spec, [[-240, 16]], [[True, True]], spec.max_sizes)

    @pytest.mark.parametrize("num_rows", [0, 7])
    def test_no_rows_or_no_survivors(self, num_rows, monkeypatch):
        # Nothing to analyze builds no engine; every cell is -inf.
        monkeypatch.setattr(design, "BatchPosterior", None)
        spec = paper_two_stage()
        x = np.full((num_rows, 4), 3)
        probs = survivor_exceedance(spec, x, np.zeros(x.shape, dtype=bool), spec.max_sizes)
        assert probs.shape == (num_rows, 4) and np.all(probs == -np.inf)

    def test_steps_keep_their_analysis(self):
        spec = paper_two_stage()
        state = interim_step(TrialState.at_interim([0, 7, 6, 7], spec), spec)
        assert state.analysis.data.basket_ids == ("A", "B", "C", "D")
        state = state.with_final_data([0, 9, 8, 9], spec)
        assert state.analysis is None
        done = final_step(state, spec)
        assert done.analysis.data.basket_ids == ("B", "C", "D")
        assert done.analysis.data.x == (9, 8, 9)


class TestTwoStageDriver:
    def test_b1_equals_basket_wise_rule(self):
        spec = DesignSpec.create(
            1, 16, 0.15, 0.45, lam=0.977, gamma=0.70033, delta=2.0, stages=2, interim_sizes=10
        )
        bd = spec.boundary()
        for x1 in range(11):
            p1 = 1.0 - reg_inc_beta(0.15, 1 + x1, 1 + 10 - x1)
            for x_extra in range(7):
                state = run_two_stage([x1], [x1 + x_extra], spec)
                if p1 <= bd.q1:
                    assert state.decisions[0] is Decision.FUTILITY_STOPPED
                else:
                    p2 = 1.0 - reg_inc_beta(0.15, 1 + x1 + x_extra, 1 + 16 - x1 - x_extra)
                    expect = Decision.EFFICACIOUS if p2 > bd.q2 else Decision.NOT_PROMISING
                    assert state.decisions[0] == expect

    def test_stopped_baskets_never_reenter(self):
        spec = paper_two_stage()
        state = run_two_stage([0, 7, 6, 7], [0, 9, 8, 9], spec)
        assert state.decisions[0] is Decision.FUTILITY_STOPPED
        assert state.data.n[0] == 10  # never advanced past the interim

    def test_monotonicity_in_own_evidence(self):
        # Not guaranteed once borrowing shifts the top partition; checked
        # empirically and reported, never asserted as a hard property.
        spec = paper_two_stage()
        violations = 0
        checks = 0
        rng = np.random.default_rng(47)
        for _ in range(25):
            x1 = rng.integers(0, 11, size=4)
            extra = rng.integers(0, 7, size=4)
            previous = None
            for xb in range(11):
                x1[0] = xb
                xt = np.minimum(x1 + extra, 16)
                state = run_two_stage(list(x1), list(xt), spec)
                flag = state.decisions[0] is Decision.EFFICACIOUS
                if previous is not None:
                    checks += 1
                    if previous and not flag:
                        violations += 1
                previous = flag
        if violations:
            warnings.warn(
                f"decision monotonicity violated {violations}/{checks} times on the random grid"
            )
        assert violations <= 0.05 * checks
