import numpy as np
import pytest

from localmem.errors import CapacityError, DomainError, ShapeError
from localmem.partitions import (
    Partition,
    PartitionSet,
    bell_number,
    enumerate_partitions,
    partition_prior,
)

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
        assert parts[0].membership == (1,)

    def test_four_baskets(self):
        assert len(enumerate_partitions(4)) == 15

    def test_six_baskets(self):
        assert len(enumerate_partitions(6)) == 203

    def test_restricted_growth_validity(self):
        for part in enumerate_partitions(5):
            m = part.membership
            assert m[0] == 1
            running_max = 1
            for v in m[1:]:
                assert 1 <= v <= running_max + 1
                running_max = max(running_max, v)
            assert part.num_blocks == max(m)

    def test_lexicographic_order(self):
        memberships = [p.membership for p in enumerate_partitions(5)]
        assert memberships == sorted(memberships)
        assert len(set(memberships)) == len(memberships)

    def test_matches_insertion_oracle(self):
        for b in range(1, 7):
            mine = {p.membership for p in enumerate_partitions(b)}
            oracle = {membership_of(p, b) for p in partitions_by_insertion(b)}
            assert mine == oracle

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_partitions(11)
        with pytest.raises(DomainError):
            enumerate_partitions(0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        parts = {p.membership for p in enumerate_partitions(5)}
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
                assert abs(w - TABLE1[part.num_blocks][col]) < 5e-4

    def test_uniform_at_zero(self):
        parts = enumerate_partitions(4)
        assert np.allclose(partition_prior(parts, 0.0), 1.0 / 15.0, atol=1e-15)

    def test_large_delta_concentrates_on_singletons(self):
        parts = enumerate_partitions(4)
        weights = partition_prior(parts, 50.0)
        singleton = next(i for i, p in enumerate(parts) if p.num_blocks == 4)
        assert weights[singleton] > 0.999

    def test_negative_delta_favors_pooling(self):
        parts = enumerate_partitions(4)
        weights = partition_prior(parts, -2.0)
        pooled = next(i for i, p in enumerate(parts) if p.num_blocks == 1)
        assert weights[pooled] == weights.max()

    def test_empty_list_rejected(self):
        with pytest.raises(ShapeError):
            partition_prior([], 1.0)


class TestPartitionSet:
    def test_build_with_delta(self):
        pset = PartitionSet.build(4, 2.0)
        assert len(pset) == 15
        assert pset.prior.sum() == pytest.approx(1.0, abs=1e-12)

    def test_user_supplied_prior(self):
        custom = [0.0] * 15
        custom[3] = 1.0
        pset = PartitionSet.build(4, prior=custom)
        assert pset.prior[3] == 1.0

    def test_bad_prior_rejected(self):
        with pytest.raises(ShapeError):
            PartitionSet.build(4, prior=[1.0])
        with pytest.raises(DomainError):
            PartitionSet.build(2, prior=[0.7, 0.7])
        with pytest.raises(DomainError):
            PartitionSet.build(2, prior=[-0.5, 1.5])


class TestPartitionType:
    def test_membership_string(self):
        assert Partition.from_membership([1, 1, 2, 1]).membership_string() == "1|1|2|1"

    def test_blocks(self):
        part = Partition.from_membership([1, 2, 1, 3])
        assert part.blocks() == ((0, 2), (1,), (3,))

    def test_invalid_strings(self):
        with pytest.raises(DomainError):
            Partition.from_membership([2, 1])
        with pytest.raises(DomainError):
            Partition.from_membership([1, 3])
        with pytest.raises(ShapeError):
            Partition.from_membership([])
