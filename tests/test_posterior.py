import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from localmem import posterior
from localmem.errors import DomainError, ShapeError
from localmem.partitions import PartitionSet
from localmem.posterior import (
    AnalysisResult,
    BasketData,
    BatchPosterior,
    BetaParams,
    analyze,
    default_basket_ids,
    partition_posterior,
    similarity_matrix,
)

from oracles import RationalAnalysis, beta_tail_quadrature

# sha256 of BatchPosterior.posterior output bytes, keyed by (B, delta); see
# TestBatchPosterior.test_output_bytes_are_pinned.
POSTERIOR_DIGESTS = {
    (1, 0.0): "371b523fbc2996f9b50dd26bfd923a1c7a0b8a592f8cd116c0f13ac20d46a71c",
    (1, 2.0): "371b523fbc2996f9b50dd26bfd923a1c7a0b8a592f8cd116c0f13ac20d46a71c",
    (2, 0.0): "25361cfcd02a867fd37dd13f57a1f4af803b4ff815d1f227428e2415dc8db6c8",
    (2, 2.0): "79f15a2ad2719131357f845753c1e0d73dfe01fcf87c429f260ae853ae5381b4",
    (3, 0.0): "99d5d9bf2cd98e64840a643f32a8e3aae88d847b0bd9c89ea7b92b939a06abcd",
    (3, 2.0): "41d19b74773446c9be139326369d96c0c25045f2269b6b749d922fcb46553187",
    (4, 0.0): "31b9b2c72b7ab3191b05f7086e45872a64ebdbfad656b1fa4a20258c17cafa38",
    (4, 2.0): "f860b82e5cf8a6ec6e0911566179039885da67b0b95cd497488a9b765445c3fd",
    (5, 0.0): "9ffb58808312bfe41e58d085c7356bc4934d1b8bb80505f430d7b3062bead710",
    (5, 2.0): "d033d024fd281ee806d592d3687cabaaf43cb037462c6578139d3e54ff5ad520",
    (6, 0.0): "44a23191aa60e6419959c7d2f4c182db5b4529361ef74ac29a39b81f7408e506",
    (6, 2.0): "3e12cc854c8c5863c7124c4dc230ebe90b588c40fbfa6396232f0f996c0d63fa",
    (7, 0.0): "55ea774e8735fca7cd9e9fe2b735b856e229395f503c2e641854b8e775478b60",
    (7, 2.0): "0ff9b2ae62940addc1584d2a72c9830b98fe67aad17643cbe065bbb0abff3af0",
    (8, 0.0): "048c09439f4730efe3574435e42fc89c8cea03cefa03f5656228b88981351831",
    (8, 2.0): "841039146c1cccefcec9b16d5ea418faf2777261d947f755804897b91a282ee8",
    (9, 0.0): "89bb6ae7d83dd3323e0e405b3bbe24fa477288a01aa270e5d99eb3d63081cbe7",
    (9, 2.0): "77d8872b4d80268c901dd6d80ecc0092e869bd27840ac303ea79259a8f81829f",
    (10, 0.0): "f392f1fe0059c5fff7263fcfec89ed797be014f2ab74f5117c583ff83a18c574",
    (10, 2.0): "784ef8b49b2c97924b5804d4dc65ee5f5ac4e50d330a285f0b13d8cc6df7d89e",
}


class TestPartitionPosteriorExamples:
    def test_two_basket_weights(self):
        # x=(0,2), n=(2,2), uniform prior over {pooled, split}:
        # pooled Beta factor B(3,3)/B(1,1) = 1/30, split B(1,3)B(3,1) = 1/9,
        # so weights are (3/13, 10/13).
        data = BasketData.create([0, 2], [2, 2])
        pset = PartitionSet.build(2, 0.0)
        pp = partition_posterior(data, pset)
        assert pp.weights[0] == pytest.approx(3 / 13, abs=1e-12)
        assert pp.weights[1] == pytest.approx(10 / 13, abs=1e-12)
        assert pset.partition(pp.top_index).membership_string() == "1|2"

    def test_no_data_returns_prior(self):
        data = BasketData.create([0, 0], [0, 0])
        pset = PartitionSet.build(2, 1.0)
        pp = partition_posterior(data, pset)
        assert np.allclose(pp.weights, pset.prior, atol=1e-14)

    def test_degenerate_prior(self):
        pset = replace(PartitionSet.build(3), prior=np.array([0, 0, 0, 1.0, 0]))
        data = BasketData.create([3, 0, 2], [5, 5, 5])
        pp = partition_posterior(data, pset)
        assert pp.top_index == 3
        assert pp.top_prob == pytest.approx(1.0, abs=1e-14)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(21)
        pset = PartitionSet.build(4, 2.0)
        for _ in range(40):
            n = rng.integers(1, 20, size=4)
            x = rng.integers(0, n + 1)
            pp = partition_posterior(BasketData.create(x, n), pset)
            assert pp.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            partition_posterior(BasketData.create([1], [2]), PartitionSet.build(2))


class TestSimilarity:
    def test_two_basket_value(self):
        data = BasketData.create([0, 2], [2, 2])
        pset = PartitionSet.build(2, 0.0)
        psi = similarity_matrix(partition_posterior(data, pset), pset)
        assert psi.shape == (2, 2) and not psi.flags.writeable
        assert psi[0, 1] == pytest.approx(3 / 13, abs=1e-12)
        assert psi[0, 0] == 1.0

    def test_degenerate_masses(self):
        pset = PartitionSet.build(3)
        singleton = next(
            i for i, p in enumerate(pset.memberships) if tuple(p) == (1, 2, 3)
        )
        pooled = next(i for i, p in enumerate(pset.memberships) if tuple(p) == (1, 1, 1))
        for idx, expect in ((singleton, np.eye(3)), (pooled, np.ones((3, 3)))):
            w = np.zeros(len(pset))
            w[idx] = 1.0
            from localmem.posterior import PartitionPosterior

            pp = PartitionPosterior(weights=w, top_index=idx, top_prob=1.0)
            assert np.allclose(similarity_matrix(pp, pset), expect)

    def test_bounds_symmetry_random(self):
        rng = np.random.default_rng(22)
        pset = PartitionSet.build(5, 1.0)
        for _ in range(10):
            n = rng.integers(1, 15, size=5)
            x = rng.integers(0, n + 1)
            psi = similarity_matrix(partition_posterior(BasketData.create(x, n), pset), pset)
            assert np.allclose(psi, psi.T)
            assert np.all(psi >= 0) and np.all(psi <= 1 + 1e-12)
            assert np.allclose(np.diag(psi), 1.0)


class TestLocalPosterior:
    def test_pooled_borrowing(self):
        # x=(1,1), n=(2,2): pooled factor 1/30, split (1/6)^2 = 1/36,
        # weights (6/11, 5/11), top pooled, so each basket borrows the other's
        # counts scaled by 6/11.
        data = BasketData.create([1, 1], [2, 2])
        pset = PartitionSet.build(2, 0.0)
        result = analyze(data, pset=pset)
        assert result.partition_posterior.top_prob == pytest.approx(6 / 11, abs=1e-12)
        post = result.posteriors[0]
        assert post.alpha == pytest.approx(2 + 6 / 11, abs=1e-12)
        assert post.beta == pytest.approx(2 + 6 / 11, abs=1e-12)

    def test_singleton_top_no_borrowing(self):
        data = BasketData.create([0, 2], [2, 2])
        pset = PartitionSet.build(2, 0.0)
        post = analyze(data, pset=pset).posteriors[0]  # top is the split partition
        assert (post.alpha, post.beta) == (1.0, 3.0)

    def test_empty_neighbours_match_singleton(self):
        data = BasketData.create([2, 0], [6, 0])
        pset = PartitionSet.build(2, 0.0)
        post = analyze(data, pset=pset).posteriors[0]
        assert post.alpha == pytest.approx(1 + 2, abs=1e-12)
        assert post.beta == pytest.approx(1 + 4, abs=1e-12)


class TestEffectiveSampleSize:
    def test_singleton_reduction(self):
        data = BasketData.create([0, 2], [2, 2])
        pset = PartitionSet.build(2, 0.0)
        assert analyze(data, pset=pset).ess[0] == pytest.approx(1 + 1 + 2, abs=1e-12)

    def test_pooled_value(self):
        data = BasketData.create([1, 1], [2, 2])
        pset = PartitionSet.build(2, 0.0)
        assert analyze(data, pset=pset).ess[0] == pytest.approx(4 + 12 / 11, abs=1e-12)

    def test_no_patients(self):
        data = BasketData.create([0, 0], [0, 0])
        pset = PartitionSet.build(2, 0.0)
        assert analyze(data, pset=pset).ess[0] == pytest.approx(2.0, abs=1e-12)

    def test_equals_alpha_plus_beta_randomized(self):
        rng = np.random.default_rng(23)
        pset = PartitionSet.build(4, 2.0)
        for _ in range(30):
            n = rng.integers(0, 20, size=4)
            x = rng.integers(0, n + 1)
            result = analyze(BasketData.create(x, n), pset=pset)
            for b in range(4):
                post = result.posteriors[b]
                assert result.ess[b] == pytest.approx(post.alpha + post.beta, abs=1e-10)


class TestProbExceeds:
    # One basket: with x = 0 of n = 0 the borrowing posterior is the prior,
    # Beta(1, 1) here; x = 1 of n = 2 gives Beta(2, 2).
    def test_uniform(self):
        result = analyze(BasketData.create([0], [0]), theta0=0.3)
        assert result.prob_exceeds[0] == pytest.approx(0.7, abs=1e-12)

    def test_symmetry(self):
        result = analyze(BasketData.create([1], [2]), theta0=0.5)
        assert result.prob_exceeds[0] == pytest.approx(0.5, abs=1e-10)

    def test_quadrature(self):
        prior = BetaParams(16 / 7, 3.0)
        prob = analyze(BasketData.create([0], [0]), prior=prior, theta0=0.15).prob_exceeds[0]
        assert prob == pytest.approx(beta_tail_quadrature(16 / 7, 3.0, 0.15), abs=1e-8)
        assert prob == pytest.approx(0.925991235648435, abs=1e-10)


def _all_count_vectors(num_baskets, max_n):
    """Every (x, n) pair with n_b <= max_n and x_b <= n_b."""
    pairs = [(x, n) for n in range(max_n + 1) for x in range(n + 1)]
    if num_baskets == 1:
        return [((x,), (n,)) for x, n in pairs]
    out = []
    for (x, n) in pairs:
        for rest_x, rest_n in _all_count_vectors(num_baskets - 1, max_n):
            out.append(((x, *rest_x), (n, *rest_n)))
    return out


class TestRationalOracleEquivalence:
    """Exhaustive agreement with the exact-rational reference for small trials."""

    @pytest.mark.parametrize("num_baskets", [1, 2, 3])
    def test_exhaustive_small_grids(self, num_baskets):
        delta = 2
        pset = PartitionSet.build(num_baskets, float(delta))
        for x, n in _all_count_vectors(num_baskets, 4):
            oracle = RationalAnalysis(x, n, delta)
            result = analyze(BasketData.create(x, n), pset=pset)
            pp = result.partition_posterior
            for j in range(len(pset)):
                assert pset.partition(j).membership == oracle.memberships[j]
                assert abs(pp.weights[j] - float(oracle.weights[j])) < 1e-9
            assert pp.top_index == oracle.top_index
            assert abs(pp.top_prob - float(oracle.top_prob)) < 1e-9
            psi = result.similarity
            for s in range(num_baskets):
                for t in range(num_baskets):
                    assert abs(psi[s, t] - float(oracle.psi(s, t))) < 1e-9
            for b in range(num_baskets):
                post = result.posteriors[b]
                alpha, beta = oracle.local_params(b)
                assert abs(post.alpha - float(alpha)) < 1e-9
                assert abs(post.beta - float(beta)) < 1e-9
                assert abs(result.ess[b] - float(oracle.ess(b))) < 1e-9

    @pytest.mark.parametrize("num_baskets", [4, 5])
    def test_seeded_rows_larger_b(self, num_baskets):
        # Every fourth row gives all baskets the same counts, so partitions
        # with the same block-size profile tie exactly and the tie-break decides.
        rng = np.random.default_rng(40 + num_baskets)
        pset = PartitionSet.build(num_baskets, 2.0)
        for i in range(40):
            if i % 4 == 0:
                size = int(rng.integers(0, 7))
                n = np.full(num_baskets, size)
                x = np.full(num_baskets, int(rng.integers(0, size + 1)))
            else:
                n = rng.integers(0, 7, size=num_baskets)
                x = rng.integers(0, n + 1)
            oracle = RationalAnalysis(x, n, 2)
            result = analyze(BasketData.create(x, n), pset=pset)
            pp = result.partition_posterior
            assert pp.top_index == oracle.top_index
            assert np.allclose(pp.weights, [float(w) for w in oracle.weights], rtol=0, atol=1e-9)
            psi = result.similarity
            for s in range(num_baskets):
                for t in range(num_baskets):
                    assert abs(psi[s, t] - float(oracle.psi(s, t))) < 1e-9
            for b in range(num_baskets):
                post = result.posteriors[b]
                alpha, beta = oracle.local_params(b)
                assert abs(post.alpha - float(alpha)) < 1e-9
                assert abs(post.beta - float(beta)) < 1e-9
                assert abs(result.ess[b] - float(oracle.ess(b))) < 1e-9

    def test_random_cases_jeffreys_prior(self):
        rng = np.random.default_rng(31)
        pset = PartitionSet.build(3, 0.0)
        prior = BetaParams(0.5, 0.5)
        for _ in range(120):
            n = rng.integers(0, 5, size=3)
            x = rng.integers(0, n + 1)
            oracle = RationalAnalysis(x, n, 0, alpha2=1, beta2=1)
            result = analyze(BasketData.create(x, n), pset=pset, prior=prior)
            pp = result.partition_posterior
            for j in range(len(pset)):
                assert abs(pp.weights[j] - float(oracle.weights[j])) < 1e-9
            for b in range(3):
                post = result.posteriors[b]
                alpha, beta = oracle.local_params(b)
                assert abs(post.alpha - float(alpha)) < 1e-9
                assert abs(post.beta - float(beta)) < 1e-9


class TestInvariants:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(33)
        pset = PartitionSet.build(4, 1.0)
        for _ in range(10):
            n = rng.integers(1, 12, size=4)
            x = rng.integers(0, n + 1)
            perm = rng.permutation(4)
            result = analyze(BasketData.create(x, n), pset=pset)
            presult = analyze(BasketData.create(x[perm], n[perm]), pset=pset)
            psi = result.similarity
            ppsi = presult.similarity
            for i in range(4):
                post = presult.posteriors[int(np.where(perm == i)[0][0])]
                ref = result.posteriors[i]
                assert post.alpha == pytest.approx(ref.alpha, abs=1e-9)
                assert post.beta == pytest.approx(ref.beta, abs=1e-9)
                for j in range(4):
                    pi = int(np.where(perm == i)[0][0])
                    pj = int(np.where(perm == j)[0][0])
                    assert ppsi[pi, pj] == pytest.approx(psi[i, j], abs=1e-9)

    def test_sandwich_property(self):
        # The borrowing posterior mean sits between the basket-alone mean and
        # the fully pooled mean of the basket's block under the top partition.
        rng = np.random.default_rng(34)
        pset = PartitionSet.build(4, 2.0)
        prior = BetaParams(1, 1)
        for _ in range(60):
            n = rng.integers(1, 16, size=4)
            x = rng.integers(0, n + 1)
            result = analyze(BasketData.create(x, n), pset=pset, prior=prior)
            top = result.top_partition
            for b in range(4):
                post = result.posteriors[b]
                alone = BetaParams(prior.alpha + x[b], prior.beta + n[b] - x[b])
                label = top.membership[b]
                bs = sum(int(x[t]) for t in range(4) if top.membership[t] == label)
                bn = sum(int(n[t]) for t in range(4) if top.membership[t] == label)
                pooled = BetaParams(prior.alpha + bs, prior.beta + bn - bs)
                lo, hi = sorted((alone.mean, pooled.mean))
                assert lo - 1e-12 <= post.mean <= hi + 1e-12


class TestBatchPosterior:
    def test_matches_scalar_ops(self):
        rng = np.random.default_rng(35)
        n = [7, 9, 5, 8]
        pset = PartitionSet.build(4, 2.0)
        engine = BatchPosterior(n, pset)
        xs = np.stack([rng.integers(0, np.asarray(n) + 1) for _ in range(80)])
        weights, top, top_prob = engine.posterior(xs)
        alpha, beta = engine.borrow_params(xs)
        probs = engine.exceed_probs(xs, 0.15)
        for t in range(len(xs)):
            result = analyze(BasketData.create(xs[t], n), pset=pset, theta0=0.15)
            pp = result.partition_posterior
            assert np.allclose(weights[t], pp.weights, atol=1e-12)
            assert top[t] == pp.top_index
            assert top_prob[t] == pytest.approx(pp.top_prob, abs=1e-12)
            for b in range(4):
                post = result.posteriors[b]
                assert alpha[t, b] == pytest.approx(post.alpha, abs=1e-10)
                assert beta[t, b] == pytest.approx(post.beta, abs=1e-10)
                assert probs[t, b] == pytest.approx(result.prob_exceeds[b], abs=1e-12)

    def test_heterogeneous_theta0(self):
        n = [6, 6]
        pset = PartitionSet.build(2, 1.0)
        engine = BatchPosterior(n, pset)
        xs = np.array([[2, 5], [0, 3]])
        probs = engine.exceed_probs(xs, np.array([0.25, 0.15]))
        for t in range(2):
            result = analyze(BasketData.create(xs[t], n), pset=pset, theta0=[0.25, 0.15])
            assert probs[t, 0] == pytest.approx(result.prob_exceeds[0], abs=1e-12)
            assert probs[t, 1] == pytest.approx(result.prob_exceeds[1], abs=1e-12)

    def test_rows_do_not_depend_on_batch(self):
        # At B = 9 most partitions leave most block slots empty, so a slot's
        # sums cover only a leading part of each row.
        rng = np.random.default_rng(36)
        for num_baskets in (5, 9):
            engine = BatchPosterior([6] * num_baskets, PartitionSet.build(num_baskets, 1.0))
            xs = rng.integers(0, 7, size=(60, num_baskets))
            xs[::5] = xs[1::5]  # repeated rows
            xs[2::5] = 3  # all baskets equal
            weights, top, top_prob = engine.posterior(xs)
            for t in range(len(xs)):
                w1, top1, prob1 = engine.posterior(xs[t])
                assert np.array_equal(w1[0], weights[t])
                assert top1[0] == top[t] and prob1[0] == top_prob[t]

    @pytest.mark.parametrize("delta", [0.0, 2.0])
    @pytest.mark.parametrize("num_baskets", range(1, 11))
    def test_output_bytes_are_pinned(self, num_baskets, delta):
        # Weights, top index and top weight of seeded rows, recorded before
        # the weights skipped empty block slots: any change to the order of
        # the sums, the normalisation or the tie-break moves a digest.
        rng = np.random.default_rng(400 + num_baskets)
        n = rng.integers(0, 13, size=num_baskets)
        xs = rng.integers(0, n + 1, size=(8, num_baskets))
        xs[0] = 0
        xs[1] = n
        engine = BatchPosterior(n, PartitionSet.build(num_baskets, delta))
        weights, top, top_prob = engine.posterior(xs)
        digest = hashlib.sha256()
        for a in (weights, top.astype(np.int64), top_prob):
            digest.update(a.tobytes())
        assert digest.hexdigest() == POSTERIOR_DIGESTS[num_baskets, delta]

    def test_weights_peak_under_18_bytes_per_cell(self):
        # Weights, one scratch buffer of the same size and the top pick's
        # candidates and ranks: about 17.2 bytes per row x partition cell.
        # A temporary per slot or a second copy of the weights exceeds 18.
        rng = np.random.default_rng(39)
        engine = BatchPosterior([12] * 9, PartitionSet.build(9, 2.0))
        xs = rng.integers(0, 13, size=(300, 9))
        tracemalloc.start()
        try:
            engine.posterior(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * 300 * len(engine.pset)

    def test_chunked_rows_equal_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(37)
        n = [6, 9, 4, 7]
        engine = BatchPosterior(n, PartitionSet.build(4, 1.0))
        xs = rng.integers(0, np.asarray(n) + 1, size=(60, 4))
        theta0 = np.array([0.1, 0.2, 0.3, 0.15])
        whole = engine.exceed_probs(xs, theta0)
        # 15 partitions x 7 rows per chunk: eight full chunks and one of 4 rows.
        monkeypatch.setattr(posterior, "MAX_CELLS", 15 * 7)
        chunked = engine.exceed_probs(xs, theta0)
        assert chunked.shape == whole.shape and chunked.tobytes() == whole.tobytes()

    def test_b10_rows_bounded_memory(self):
        # A B = 10 row holds about 1.9 MB of weights and temporaries, so 300
        # rows at once would peak near 570 MB; chunks of MAX_CELLS cells stay
        # near 270 MB.
        rng = np.random.default_rng(38)
        engine = BatchPosterior([12] * 10, PartitionSet.build(10, 2.0))
        xs = rng.integers(0, 13, size=(300, 10))
        tracemalloc.start()
        try:
            probs = engine.exceed_probs(xs, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (300, 10)
        assert peak < 400e6

    def test_b10_index_arrays_under_50mb(self):
        engine = BatchPosterior([1] * 10, PartitionSet.build(10, 0.0))
        arrays = (engine._block_index, engine._member, engine._ranks, engine._filled)
        assert engine._block_index.shape == (115975, 10)
        assert sum(a.nbytes for a in arrays) < 50e6

    def test_factor_table_sized_by_data(self):
        # Only the distinct block sizes are tabulated, not every total up to sum(n).
        engine = BatchPosterior([500] * 4, PartitionSet.build(4, 2.0))
        assert engine._factor_table.nbytes < 1e6

    def test_rejects_bad_counts(self):
        engine = BatchPosterior([4, 4], PartitionSet.build(2))
        with pytest.raises(DomainError):
            engine.posterior(np.array([[5, 0]]))
        with pytest.raises(ShapeError):
            engine.posterior(np.array([[1, 1, 1]]))


class TestDefaultIds:
    def test_letters_then_numbered(self):
        ids = default_basket_ids(28)
        assert ids[:3] == ("A", "B", "C") and ids[25] == "Z"
        assert ids[26:] == ("B27", "B28")
        assert BasketData.create([0] * 28, [1] * 28).basket_ids == ids


class TestAnalyze:
    def test_bundles_everything(self):
        data = BasketData.create([0, 2], [2, 2])
        result = analyze(data, delta=0.0, theta0=0.15)
        assert isinstance(result, AnalysisResult)
        assert result.top_partition.membership_string() == "1|2"
        assert result.prob_exceeds[1] == pytest.approx(
            beta_tail_quadrature(3.0, 1.0, 0.15), abs=1e-8
        )
        assert result.ess[0] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("theta0", [0.0, 1.2, [0.15, 1.0]])
    def test_theta0_outside_unit_interval(self, theta0):
        with pytest.raises(DomainError):
            analyze(BasketData.create([0, 2], [2, 2]), theta0=theta0)

    def test_tie_break_prefers_more_blocks(self):
        # Symmetric data over identical baskets often ties partitions with the
        # same block-size profile; the winner must have the most blocks and
        # the smallest membership among those.
        data = BasketData.create([0, 0], [0, 0])
        pset = PartitionSet.build(2, 0.0)  # uniform prior, no data: exact tie
        pp = partition_posterior(data, pset)
        assert pset.partition(pp.top_index).membership == (1, 2)
