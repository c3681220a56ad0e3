import re
import tracemalloc

import numpy as np
import pytest

from localmem.errors import CapacityError, DomainError, ShapeError
from localmem.partitions import (
    bell_number,
    enumerate_partitions,
    membership_strings,
    partition_prior,
)
from localmem.posterior import BatchPosterior, _layout

from oracles import bell_recurrence, membership_of, partitions_by_insertion

# Paper-reported priors for four baskets (three decimal places).
TABLE1 = {
    1: {0: 0.067, 1: 0.027, 2: 0.010},
    2: {0: 0.067, 1: 0.054, 2: 0.040},
    3: {0: 0.067, 1: 0.081, 2: 0.091},
    4: {0: 0.067, 1: 0.108, 2: 0.162},
}


class TestEnumeration:
    def test_counts_match_bell_recurrence(self):
        for b in range(1, 9):
            assert len(enumerate_partitions(b)) == bell_recurrence(b)

    def test_bell_numbers(self):
        assert [bell_number(i) for i in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_single_basket(self):
        parts = enumerate_partitions(1)
        assert len(parts) == 1
        assert tuple(parts[0]) == (1,)

    def test_four_baskets(self):
        assert len(enumerate_partitions(4)) == 15

    def test_six_baskets(self):
        assert len(enumerate_partitions(6)) == 203

    def test_restricted_growth_validity(self):
        labels = enumerate_partitions(5)
        for j, row in enumerate(labels):
            m = tuple(row)
            assert m[0] == 1
            running_max = 1
            for v in m[1:]:
                assert 1 <= v <= running_max + 1
                running_max = max(running_max, v)
            assert labels[j].max() == max(m)

    def test_lexicographic_order(self):
        memberships = [tuple(p) for p in enumerate_partitions(5)]
        assert memberships == sorted(memberships)
        assert len(set(memberships)) == len(memberships)

    def test_matches_insertion_oracle(self):
        for b in range(1, 7):
            mine = {tuple(p) for p in enumerate_partitions(b)}
            oracle = {membership_of(p, b) for p in partitions_by_insertion(b)}
            assert mine == oracle

    @pytest.mark.parametrize("num_baskets", [7, 8, 9, 10])
    def test_large_sets_are_exactly_the_restricted_growth_strings(self, num_baskets):
        # Valid strings, strictly increasing and Bell(B) of them: exactly the set.
        labels = enumerate_partitions(num_baskets)
        assert labels.shape == (bell_number(num_baskets), num_baskets)
        assert labels.dtype == np.int8 and not labels.flags.writeable
        running_max = np.maximum.accumulate(labels, axis=1)
        assert np.all(labels[:, 0] == 1)
        assert np.all(labels[:, 1:] >= 1)
        assert np.all(labels[:, 1:] <= running_max[:, :-1] + 1)
        diff = np.diff(labels.astype(int), axis=0)
        first = np.argmax(diff != 0, axis=1)
        assert np.all(diff[np.arange(len(diff)), first] > 0)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_partitions(11)
        with pytest.raises(DomainError):
            enumerate_partitions(0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        parts = {tuple(p) for p in enumerate_partitions(5)}
        perm = rng.permutation(5)
        relabeled = set()
        for m in parts:
            permuted = [m[perm[i]] for i in range(5)]
            relabeled.add(membership_of(
                tuple(tuple(i for i in range(5) if permuted[i] == lab) for lab in set(permuted)),
                5,
            ))
        assert relabeled == parts


class TestPrior:
    def test_table1_values(self):
        parts = enumerate_partitions(4)
        for col, delta in enumerate((0.0, 1.0, 2.0)):
            weights = partition_prior(parts, delta)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            for part, w in zip(parts, weights):
                assert abs(w - TABLE1[int(part.max())][col]) < 5e-4

    def test_uniform_at_zero(self):
        parts = enumerate_partitions(4)
        assert np.allclose(partition_prior(parts, 0.0), 1.0 / 15.0, atol=1e-15)

    def test_large_delta_concentrates_on_singletons(self):
        parts = enumerate_partitions(4)
        weights = partition_prior(parts, 50.0)
        singleton = next(i for i, p in enumerate(parts) if p.max() == 4)
        assert weights[singleton] > 0.999

    def test_negative_delta_favors_pooling(self):
        parts = enumerate_partitions(4)
        weights = partition_prior(parts, -2.0)
        pooled = next(i for i, p in enumerate(parts) if p.max() == 1)
        assert weights[pooled] == weights.max()

    def test_empty_list_rejected(self):
        with pytest.raises(ShapeError):
            partition_prior([], 1.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(DomainError, match="delta"):
            partition_prior(enumerate_partitions(3), delta)
        with pytest.raises(DomainError, match="delta"):
            BatchPosterior([1] * 3, delta)

    @pytest.mark.parametrize("delta", [1e308, -1e308])
    @pytest.mark.parametrize("baskets", [9, 10])
    def test_overflowing_delta_rejected(self, delta, baskets):
        # delta * log(B) is past the float range although delta is finite.
        with pytest.raises(DomainError, match=re.escape(f"delta = {delta} ") + f".*B = {baskets}"):
            partition_prior(enumerate_partitions(baskets), delta)

    def test_largest_delta_before_overflow(self):
        # 1e308 * log(4) is finite: the prior is all on the four singletons.
        weights = partition_prior(enumerate_partitions(4), 1e308)
        assert weights[-1] == 1.0 and weights[:-1].sum() == 0.0


class TestPartitionSet:
    """An engine's partition set: the cached enumeration of its B = len(n)
    baskets, under the delta prior."""

    def test_build_with_delta(self):
        engine = BatchPosterior([0] * 4, 2.0)
        assert len(engine.partition_prior) == 15
        assert engine.partition_prior.sum() == pytest.approx(1.0, abs=1e-12)

    def test_b10_build_under_8mb(self):
        # The enumeration is cached per process; measure a fresh build.
        enumerate_partitions.cache_clear()
        tracemalloc.start()
        try:
            prior = partition_prior(enumerate_partitions(10), 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(prior) == 115975
        assert peak < 8 * 2**20

    def test_numpy_basket_count_hits_the_cache(self):
        # B is len(n), an int however n is given, so NumPy sizes hit the
        # cache entries that lru_cache keys by value and type.
        enumerate_partitions.cache_clear()
        _layout.cache_clear()
        for n in (np.full(5, 3, dtype=np.int64), [3] * 5, np.arange(5, dtype=np.int64)):
            BatchPosterior(n, 2.0)
        assert enumerate_partitions.cache_info().misses == 1
        assert _layout.cache_info().misses == 1

    def test_memberships_are_the_cached_enumeration(self):
        # Engines of any sizes, delta and prior share the one array.
        engines = [BatchPosterior([3] * 5, 1.0), BatchPosterior(np.arange(5), -1.0)]
        for engine in engines:
            assert engine._labels is enumerate_partitions(5)


class TestPartitionType:
    def test_membership_string(self):
        assert membership_strings([(1, 1, 2, 1)]) == ["1|1|2|1"]

    def test_two_digit_label(self):
        assert membership_strings(enumerate_partitions(10))[-1] == "1|2|3|4|5|6|7|8|9|10"

    def test_strings_parse_back_to_rows(self):
        for b in range(1, 9):
            labels = enumerate_partitions(b)
            parsed = [tuple(int(v) for v in s.split("|")) for s in membership_strings(labels)]
            assert parsed == [tuple(row) for row in labels.tolist()]
