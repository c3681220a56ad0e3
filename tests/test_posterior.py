import hashlib
import sys
import tracemalloc

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest

from localmem import posterior
from localmem.errors import CapacityError, DomainError, ShapeError
from localmem.numerics import log_beta, reg_inc_beta
from localmem.partitions import MAX_BASKETS, enumerate_partitions, membership_strings, partition_prior
from localmem.posterior import (
    TOP_TIE_TOL,
    AnalysisResult,
    BasketData,
    BatchPosterior,
    BetaParams,
    JEFFREYS_PRIOR,
    _layout,
    analyze,
    borrow,
    default_basket_ids,
)

import pins
from oracles import RationalAnalysis, beta_tail_quadrature, borrow_by_comembership

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
# The same outputs under AVX2 exp and log (tests/pins.py), where their bytes
# differ from the AVX512 ones above.
POSTERIOR_DIGESTS_AVX2 = {
    **POSTERIOR_DIGESTS,
    (3, 0.0): "6d1947e026159224cc5be1cc3b8481cf6e3d6ed45d24c0c9672cb1198414b223",
    (3, 2.0): "b6c33d9fd12bed0ace2f39de1af51b37e84d78589460803539dce6a6f603278e",
    (4, 0.0): "eaf5a498e6ddee2120465841eda38110d5f2ce85c8a786e800e8aa069729dc0e",
    (4, 2.0): "1e7a24907e27908af4dbc9cedc282bb4d6ec0140b1643bc050b2338df093c079",
    (5, 0.0): "38b3f79659656bab5d87ea15558c1ffc715d098f0d736de8a2f9b46e17b4c16f",
    (5, 2.0): "92a83baa8f862fd7faf5f158cc3a0c8fa39570a49b3c05255d8c2e100ad0c952",
    (6, 0.0): "674645d351ec67dcdb914e9c473166686b693b8029afe32064ec1b303364b6d3",
    (6, 2.0): "8e0ae91213e4a5bd27d06cbef253904f061ef506e35b72b8896300a1b399a5e7",
    (7, 0.0): "3c6f3a82a3c45f28e1de3ce7017fec58f5bec32b806cde6bb73088d08b5be4ca",
    (7, 2.0): "41c20363b5b1470bcc1164d2367e6cda6fccf0a5687b57638f06c905f618015a",
    (8, 0.0): "84fb0191c8df21168115125833f365c5a38de05b1c7464db3d39221dc421b33a",
    (8, 2.0): "b61a2b5c19f38b580710b9ae5aa3ee7874c370129e5a0bbb94bcfc9fe86d3731",
    (9, 0.0): "a7728e617292e529160b17478c5cfb58183ad15f59faf0cfec313da4ea62b315",
    (9, 2.0): "387b109fd7c8767506878af3319639c72e69bd497a1060e8711ca769a620e18c",
    (10, 0.0): "f06f22f7fbb372666204da0ff3b926bb39a2133d1d9d133f524a1d7f669a1bc1",
    (10, 2.0): "e899785657fd8177dabeb344401bf9e96664b036df05a1214c490cde06cbd018",
}


class TestPartitionPosteriorExamples:
    def test_two_basket_weights(self):
        # x=(0,2), n=(2,2), uniform prior over {pooled, split}:
        # pooled Beta factor B(3,3)/B(1,1) = 1/30, split B(1,3)B(3,1) = 1/9,
        # so weights are (3/13, 10/13).
        result = analyze(BasketData.create([0, 2], [2, 2]), delta=0.0)
        pp = result.partition_posterior
        assert pp.weights[0] == pytest.approx(3 / 13, abs=1e-12)
        assert pp.weights[1] == pytest.approx(10 / 13, abs=1e-12)
        assert membership_strings(enumerate_partitions(2)[[pp.top_index]]) == ["1|2"]

    def test_no_data_returns_prior(self):
        result = analyze(BasketData.create([0, 0], [0, 0]), delta=1.0)
        assert np.allclose(result.partition_posterior.weights, result.partition_prior, atol=1e-14)

    def test_degenerate_prior(self):
        # delta = +2000 (-2000) puts a prior mass of exactly 0 on every
        # partition but the singletons (the pooled partition), whatever the data.
        for delta, index in ((2000.0, 4), (-2000.0, 0)):
            engine = BatchPosterior([5, 5, 5], delta)
            assert np.flatnonzero(engine.partition_prior).tolist() == [index]
            _, top, top_prob = engine.posterior([3, 0, 2])
            assert top[0] == index
            assert top_prob[0] == 1.0

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = rng.integers(1, 20, size=4)
            x = rng.integers(0, n + 1)
            pp = analyze(BasketData.create(x, n), delta=2.0).partition_posterior
            assert pp.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_basket_count_outside_the_cap(self):
        # The enumeration refuses B = 0 and B = 11 before any layout is built.
        misses = _layout.cache_info().misses
        with pytest.raises(DomainError):
            BatchPosterior([])
        with pytest.raises(CapacityError):
            BatchPosterior([1] * (MAX_BASKETS + 1))
        assert _layout.cache_info().misses == misses


class TestSimilarity:
    def test_two_basket_value(self):
        psi = analyze(BasketData.create([0, 2], [2, 2]), delta=0.0).similarity
        assert psi.shape == (2, 2) and not psi.flags.writeable
        assert psi[0, 1] == pytest.approx(3 / 13, abs=1e-12)
        assert psi[0, 0] == 1.0

    def test_degenerate_masses(self):
        # With no data the weights are the prior, and delta = +200 (-200) puts
        # all but about 1e-35 (1e-60) of it on the singletons (the pooled
        # partition).
        cases = ((200.0, (1, 2, 3), np.eye(3)), (-200.0, (1, 1, 1), np.ones((3, 3))))
        for delta, top, expect in cases:
            result = analyze(BasketData.create([0, 0, 0], [0, 0, 0]), delta=delta)
            assert tuple(enumerate_partitions(3)[result.partition_posterior.top_index]) == top
            assert np.allclose(result.similarity, expect)

    def test_bounds_symmetry_random(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = rng.integers(1, 15, size=5)
            x = rng.integers(0, n + 1)
            psi = analyze(BasketData.create(x, n), delta=1.0).similarity
            assert np.allclose(psi, psi.T)
            assert np.all(psi >= 0) and np.all(psi <= 1 + 1e-12)
            assert np.allclose(np.diag(psi), 1.0)


class TestLocalPosterior:
    def test_pooled_borrowing(self):
        # x=(1,1), n=(2,2): pooled factor 1/30, split (1/6)^2 = 1/36,
        # weights (6/11, 5/11), top pooled, so each basket borrows the other's
        # counts scaled by 6/11.
        data = BasketData.create([1, 1], [2, 2])
        result = analyze(data, delta=0.0)
        assert result.partition_posterior.top_prob == pytest.approx(6 / 11, abs=1e-12)
        post = result.posteriors[0]
        assert post.alpha == pytest.approx(2 + 6 / 11, abs=1e-12)
        assert post.beta == pytest.approx(2 + 6 / 11, abs=1e-12)

    def test_singleton_top_no_borrowing(self):
        data = BasketData.create([0, 2], [2, 2])
        post = analyze(data, delta=0.0).posteriors[0]  # top is the split partition
        assert (post.alpha, post.beta) == (1.0, 3.0)

    def test_empty_neighbours_match_singleton(self):
        data = BasketData.create([2, 0], [6, 0])
        post = analyze(data, delta=0.0).posteriors[0]
        assert post.alpha == pytest.approx(1 + 2, abs=1e-12)
        assert post.beta == pytest.approx(1 + 4, abs=1e-12)


class TestBorrow:
    # borrow sums each row's blocks with one bincount per quantity; it must
    # give the co-membership formula's bits.
    @pytest.mark.parametrize("num_baskets", [1, 2, 4, 10])
    @pytest.mark.parametrize("prior", [posterior.DEFAULT_PRIOR, JEFFREYS_PRIOR], ids=["uniform", "jeffreys"])
    def test_equals_the_comembership_formula(self, num_baskets, prior):
        rng = np.random.default_rng(num_baskets)
        labels = enumerate_partitions(num_baskets)
        rows = 300
        # The first partition is one block and the last all singletons; the
        # rest are drawn from the enumeration.
        pick = np.concatenate(([0] * 5, [len(labels) - 1] * 5, rng.integers(0, len(labels), rows - 10)))
        n = rng.integers(0, 30, num_baskets)
        x = rng.integers(0, n + 1, (rows, num_baskets))
        top_prob = np.concatenate((rng.random(rows - 2), [0.0, 1.0]))
        got = borrow(x, n, labels[pick], top_prob, prior)
        want = borrow_by_comembership(x, n, labels[pick], top_prob, prior)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestEffectiveSampleSize:
    def test_singleton_reduction(self):
        data = BasketData.create([0, 2], [2, 2])
        assert analyze(data, delta=0.0).ess[0] == pytest.approx(1 + 1 + 2, abs=1e-12)

    def test_pooled_value(self):
        data = BasketData.create([1, 1], [2, 2])
        assert analyze(data, delta=0.0).ess[0] == pytest.approx(4 + 12 / 11, abs=1e-12)

    def test_no_patients(self):
        data = BasketData.create([0, 0], [0, 0])
        assert analyze(data, delta=0.0).ess[0] == pytest.approx(2.0, abs=1e-12)

    def test_equals_alpha_plus_beta_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = rng.integers(0, 20, size=4)
            x = rng.integers(0, n + 1)
            result = analyze(BasketData.create(x, n), delta=2.0)
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


class TestRationalOracleEquivalence:
    """Exhaustive agreement with the exact-rational reference for small trials."""

    @pytest.mark.parametrize("num_baskets", [4, 5])
    def test_seeded_rows_larger_b(self, num_baskets):
        # Every fourth row gives all baskets the same counts, so partitions
        # with the same block-size profile tie exactly and the tie-break decides.
        rng = np.random.default_rng(40 + num_baskets)
        for i in range(40):
            if i % 4 == 0:
                size = int(rng.integers(0, 7))
                n = np.full(num_baskets, size)
                x = np.full(num_baskets, int(rng.integers(0, size + 1)))
            else:
                n = rng.integers(0, 7, size=num_baskets)
                x = rng.integers(0, n + 1)
            oracle = RationalAnalysis(x, n, 2)
            result = analyze(BasketData.create(x, n), delta=2.0)
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
        prior = BetaParams(0.5, 0.5)
        for _ in range(120):
            n = rng.integers(0, 5, size=3)
            x = rng.integers(0, n + 1)
            oracle = RationalAnalysis(x, n, 0, alpha2=1, beta2=1)
            result = analyze(BasketData.create(x, n), delta=0.0, prior=prior)
            pp = result.partition_posterior
            for j in range(len(oracle.weights)):
                assert abs(pp.weights[j] - float(oracle.weights[j])) < 1e-9
            for b in range(3):
                post = result.posteriors[b]
                alpha, beta = oracle.local_params(b)
                assert abs(post.alpha - float(alpha)) < 1e-9
                assert abs(post.beta - float(beta)) < 1e-9


class TestInvariants:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = rng.integers(1, 12, size=4)
            x = rng.integers(0, n + 1)
            perm = rng.permutation(4)
            result = analyze(BasketData.create(x, n), delta=1.0)
            presult = analyze(BasketData.create(x[perm], n[perm]), delta=1.0)
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
        labels = enumerate_partitions(4)
        prior = BetaParams(1, 1)
        for _ in range(60):
            n = rng.integers(1, 16, size=4)
            x = rng.integers(0, n + 1)
            result = analyze(BasketData.create(x, n), delta=2.0, prior=prior)
            top = tuple(labels[result.partition_posterior.top_index])
            for b in range(4):
                post = result.posteriors[b]
                alone = BetaParams(prior.alpha + x[b], prior.beta + n[b] - x[b])
                label = top[b]
                bs = sum(int(x[t]) for t in range(4) if top[t] == label)
                bn = sum(int(n[t]) for t in range(4) if top[t] == label)
                pooled = BetaParams(prior.alpha + bs, prior.beta + bn - bs)
                lo, hi = sorted((alone.mean, pooled.mean))
                assert lo - 1e-12 <= post.mean <= hi + 1e-12


class TestBatchPosterior:
    def test_matches_scalar_ops(self):
        rng = np.random.default_rng(35)
        n = [7, 9, 5, 8]
        engine = BatchPosterior(n, 2.0)
        xs = np.stack([rng.integers(0, np.asarray(n) + 1) for _ in range(80)])
        weights, top, top_prob = engine.posterior(xs)
        alpha, beta, _ = borrow(xs, n, enumerate_partitions(4)[top], top_prob)
        probs = engine.exceed_probs(xs, 0.15)
        for t in range(len(xs)):
            result = analyze(BasketData.create(xs[t], n), delta=2.0, theta0=0.15)
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
        engine = BatchPosterior(n, 1.0)
        xs = np.array([[2, 5], [0, 3]])
        probs = engine.exceed_probs(xs, np.array([0.25, 0.15]))
        for t in range(2):
            result = analyze(BasketData.create(xs[t], n), delta=1.0, theta0=[0.25, 0.15])
            assert probs[t, 0] == pytest.approx(result.prob_exceeds[0], abs=1e-12)
            assert probs[t, 1] == pytest.approx(result.prob_exceeds[1], abs=1e-12)

    def test_rows_do_not_depend_on_batch(self):
        # At B = 9 most partitions leave most block slots empty, so a slot's
        # sums cover only a leading part of each row.
        rng = np.random.default_rng(36)
        for num_baskets in (5, 9):
            engine = BatchPosterior([6] * num_baskets, 1.0)
            xs = rng.integers(0, 7, size=(60, num_baskets))
            xs[::5] = xs[1::5]  # repeated rows
            xs[2::5] = 3  # all baskets equal
            weights, top, top_prob = engine.posterior(xs)
            for t in range(len(xs)):
                w1, top1, prob1 = engine.posterior(xs[t])
                assert np.array_equal(w1[0], weights[t])
                assert top1[0] == top[t] and prob1[0] == top_prob[t]

    def test_repeated_cells_share_one_incomplete_beta(self, monkeypatch):
        # exceed_probs evaluates each distinct (theta0, alpha, beta) triple
        # once; every row still equals its own one-row call bit for bit.
        elements = []

        def counting(x, a, b):
            elements.append(np.size(x))
            return reg_inc_beta(x, a, b)

        monkeypatch.setattr(posterior, "reg_inc_beta", counting)
        rng = np.random.default_rng(37)
        engine = BatchPosterior([10, 10, 10, 10], 2.0)
        xs = rng.integers(0, 11, size=(90, 4))
        xs[::3] = xs[1::3]  # repeated rows
        xs[2::9] = 4  # all baskets equal: one triple per row
        theta0 = np.tile([0.15, 0.15, 0.2, 0.15], (90, 1))
        theta0[::7] = 0.3
        probs = engine.exceed_probs(xs, theta0)
        assert elements[0] < xs.size / 2
        for t in range(len(xs)):
            assert probs[t].tobytes() == engine.exceed_probs(xs[t], theta0[t]).tobytes()

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
        engine = BatchPosterior(n, delta)
        weights, top, top_prob = engine.posterior(xs)
        digest = hashlib.sha256()
        for a in (weights, top.astype(np.int64), top_prob):
            digest.update(a.tobytes())
        digests = pins.pinned({pins.AVX512: POSTERIOR_DIGESTS, pins.AVX2: POSTERIOR_DIGESTS_AVX2})
        assert digest.hexdigest() == digests[num_baskets, delta]

    def test_weights_peak_under_17_bytes_per_cell(self):
        # Weights and one scratch buffer of the same size while the block
        # slots are summed: about 16.2 bytes per row x partition cell. A
        # temporary per slot, a second copy of the weights or an int64 array
        # for the top pick exceeds 17.
        rng = np.random.default_rng(39)
        engine = BatchPosterior([12] * 9, 2.0)
        xs = rng.integers(0, 13, size=(300, 9))
        tracemalloc.start()
        try:
            engine.posterior(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * 300 * len(engine.partition_prior)

    def test_chunked_rows_equal_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(37)
        n = [6, 9, 4, 7]
        engine = BatchPosterior(n, 1.0)
        xs = rng.integers(0, np.asarray(n) + 1, size=(60, 4))
        # theta0 per basket, and per row and basket as survivor_exceedance
        # passes it when survivor sets of equal sizes share one call.
        theta0s = (np.array([0.1, 0.2, 0.3, 0.15]), rng.uniform(0.05, 0.6, size=(60, 4)))
        wholes = [engine.exceed_probs(xs, theta0) for theta0 in theta0s]
        # 15 partitions x 7 rows per chunk: eight full chunks and one of 4 rows.
        monkeypatch.setattr(posterior, "MAX_CELLS", 15 * 7)
        for theta0, whole in zip(theta0s, wholes):
            chunked = engine.exceed_probs(xs, theta0)
            assert chunked.shape == whole.shape and chunked.tobytes() == whole.tobytes()

    def test_b10_rows_bounded_memory(self):
        # A B = 10 row holds about 1.9 MB of weights and temporaries. Only
        # one chunk of at most MAX_CELLS cells (two rows here) is alive at a
        # time, at about 17 bytes per cell: near 4.5 MB. The rest, a top
        # index, a top weight and the borrowing arrays per row, is small.
        rng = np.random.default_rng(38)
        engine = BatchPosterior([12] * 10, 2.0)
        xs = rng.integers(0, 13, size=(300, 10))
        tracemalloc.start()
        try:
            probs = engine.exceed_probs(xs, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (300, 10)
        assert peak < 17 * posterior.MAX_CELLS + 1e6

    def test_counts_checked_once_per_call(self, monkeypatch):
        # The chunks run on the counts the call has already checked.
        checked, check = [], BatchPosterior._as_matrix

        def counting(self, x):
            checked.append(len(np.atleast_2d(x)))
            return check(self, x)

        monkeypatch.setattr(BatchPosterior, "_as_matrix", counting)
        monkeypatch.setattr(posterior, "MAX_CELLS", 15 * 7)
        engine = BatchPosterior([6, 9, 4, 7], 1.0)
        xs = np.random.default_rng(41).integers(0, 5, size=(60, 4))
        engine.exceed_probs(xs, 0.2)
        assert checked == [60]

    def test_empty_batch(self):
        engine = BatchPosterior([3, 3], 1.0)
        empty = np.zeros((0, 2), dtype=int)
        assert engine.exceed_probs(empty, 0.2).shape == (0, 2)
        assert engine.posterior(empty)[0].shape == (0, 2)

    @pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"), reason="Linux only")
    def test_chunks_reuse_one_buffer_pair(self):
        # 120 rows at B = 9 are 10 chunks of 12 rows. They run in one weights
        # + scratch pair, so the call faults in the pages of under two pairs
        # (2 x 2 x 12 x 21,147 floats); fresh buffers per chunk fault in about
        # ten times as many.
        rng = np.random.default_rng(42)
        engine = BatchPosterior([12] * 9, 2.0)
        xs = rng.integers(0, 13, size=(120, 9))
        assert posterior.MAX_CELLS // len(engine.partition_prior) == 12
        engine.exceed_probs(xs, 0.3)  # warm-up: imports, caches, heap growth
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        engine.exceed_probs(xs, 0.3)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 2 * 2 * 12 * len(engine.partition_prior) * 8 / 4096

    def test_single_chunk_traces_under_1_8mb(self):
        # A paper-sized call, one chunk: the buffer pair is allocated after
        # the chunk's int64 block sums are freed, so the call peaks at the
        # pair plus the factors (1.69 MB); allocated before them it peaks at
        # 2.14 MB.
        rng = np.random.default_rng(43)
        engine = BatchPosterior([10] * 4, 2.0)
        xs = rng.integers(0, 11, size=(4051, 4))
        engine.exceed_probs(xs, 0.15)
        tracemalloc.start()
        try:
            engine.exceed_probs(xs, 0.15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8e6

    def test_b10_index_arrays_under_50mb(self):
        engine = BatchPosterior([1] * 10, 0.0)
        arrays = (engine._block_index, engine._member, engine._ranks, engine._filled, engine._order)
        assert engine._block_index.shape == (115975, 10)
        assert sum(a.nbytes for a in arrays) < 50e6

    def test_factor_table_sized_by_data(self):
        # Only the distinct block sizes are tabulated, not every total up to sum(n).
        engine = BatchPosterior([500] * 4, 2.0)
        assert engine._factor_table.nbytes < 1e6

    def test_factor_table_equals_one_log_beta_call_per_size(self):
        # The table is filled by one masked log_beta call; the reference makes
        # one call per distinct block size, over both large-argument branches.
        for prior in (posterior.DEFAULT_PRIOR, JEFFREYS_PRIOR, BetaParams(0.3, 7.5)):
            for n in ([0, 0, 0], [3, 0, 12], [40, 200, 7, 1]):
                engine = BatchPosterior(n, prior=prior)
                sizes = np.unique(engine.n @ engine._member)
                want = np.zeros(engine._factor_table.shape)
                for rank, size in enumerate(sizes[1:], start=1):
                    s = np.arange(size + 1, dtype=float)
                    want[rank, : size + 1] = log_beta(prior.alpha + s, prior.beta + size - s)
                    want[rank, : size + 1] -= log_beta(prior.alpha, prior.beta)
                assert engine._factor_table.tobytes() == want.tobytes()

    def test_rejects_bad_counts(self):
        engine = BatchPosterior([4, 4])
        with pytest.raises(DomainError):
            engine.posterior(np.array([[5, 0]]))
        with pytest.raises(ShapeError):
            engine.posterior(np.array([[1, 1, 1]]))

    @pytest.mark.parametrize(
        "theta0, error", [(0.0, DomainError), (1.0, DomainError), ([0.1, 0.2, 0.3], ShapeError)]
    )
    def test_rejects_bad_theta0(self, theta0, error):
        # The same checks as analyze: a bound of (0, 1) would make every
        # probability 1 or 0, and a wrong length is not broadcast.
        engine = BatchPosterior([4, 4])
        with pytest.raises(error, match="theta0"):
            engine.exceed_probs(np.array([[1, 2], [3, 0]]), theta0)


    @pytest.mark.parametrize("num_baskets, delta", [(1, 0.0), (4, -1.0), (7, 2.0), (10, 0.5)])
    def test_partition_prior_is_the_delta_prior(self, monkeypatch, num_baskets, delta):
        # An engine's prior is partition_prior over the cached enumeration and
        # refuses writes; analyze reports its one engine's array.
        engines = []

        class Recording(BatchPosterior):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr(posterior, "BatchPosterior", Recording)
        result = analyze(BasketData.create([1] * num_baskets, [3] * num_baskets), delta=delta)
        (engine,) = engines
        want = partition_prior(enumerate_partitions(num_baskets), delta)
        assert engine.partition_prior.tobytes() == want.tobytes()
        assert result.partition_prior is engine.partition_prior
        with pytest.raises(ValueError):
            engine.partition_prior[0] = 0.5


def reference_top_pick(engine, weights):
    """The top pick made over every normalised cell: the cells within
    TOP_TIE_TOL of the row max flagged, the first flagged in tie-break order
    taken, and its weight read."""
    flags = weights >= weights.max(axis=1, keepdims=True) - TOP_TIE_TOL
    top = engine._order[flags[:, engine._order].argmax(axis=1)]
    return top, weights[np.arange(len(weights)), top]


class TestTopPick:
    # The engine normalises and tests only the cells near each row's max. Its
    # pick must equal the pick over every normalised cell, bit for bit, in
    # posterior and in exceed_probs (read from its borrow call).

    def assert_reference_pick(self, monkeypatch, engine, xs):
        weights, top, top_prob = engine.posterior(xs)
        want_top, want_prob = reference_top_pick(engine, weights)
        assert top.tolist() == want_top.tolist()
        assert top_prob.tobytes() == want_prob.tobytes()
        seen = []

        def recording(x, n, labels, top_prob, prior):
            seen.append((labels, top_prob))
            return borrow(x, n, labels, top_prob, prior)

        monkeypatch.setattr(posterior, "borrow", recording)
        engine.exceed_probs(xs, 0.3)
        labels, prob = seen[-1]
        assert np.array_equal(labels, enumerate_partitions(len(engine.n))[want_top])
        assert prob.tobytes() == want_prob.tobytes()
        return want_top, weights

    @pytest.mark.parametrize("gap", [0.5, 1.0, 2.0, 100.0])
    def test_gap_between_the_two_best(self, monkeypatch, gap):
        # No data, so the weights are the prior's. The pooled partition, last
        # in tie-break order, leads the three-block one, first in it, by
        # about gap x TOP_TIE_TOL of normalised weight. At 2 and 100 the
        # three-block cell is near enough to be tested, and fails the test.
        engine = BatchPosterior([0, 0, 0], 0.0)
        q = np.array([0.4, 0.3, 0.2, 0.1, 0.4])
        q[4] *= 1.0 - gap * TOP_TIE_TOL * q.sum() / q[0]
        monkeypatch.setattr(engine, "_log_prior", np.log(q))
        xs = np.zeros((1, 3), dtype=int)
        top, _ = self.assert_reference_pick(monkeypatch, engine, xs)
        e, sums = engine._weights(xs, [])[:2]
        assert e[0, 4] >= 1.0 - 2.0 * sums[0] * TOP_TIE_TOL - 1e-9
        if gap != 1.0:
            assert top[0] == (4 if gap < 1.0 else 0)

    @pytest.mark.parametrize("delta", [0.0, 2.0])
    def test_exact_ties_at_equal_counts(self, monkeypatch, delta):
        # Baskets of equal size and count give partitions that swap them the
        # same factors, summed in other slot orders: tied rows next to rows
        # with one clear top.
        engine = BatchPosterior([10] * 4, delta)
        xs = np.array(
            [[c] * 4 for c in range(11)]
            + [[3, 5, 5, 7], [0, 5, 5, 5], [1, 5, 5, 5], [2, 2, 7, 7], [0, 3, 5, 7]]
        )
        _, weights = self.assert_reference_pick(monkeypatch, engine, xs)
        tied = (weights >= weights.max(axis=1, keepdims=True) - TOP_TIE_TOL).sum(axis=1)
        assert tied.max() > 1 and tied.min() == 1

    @pytest.mark.parametrize("num_baskets", [2, 5, 8])
    def test_random_rows_with_repeated_counts(self, monkeypatch, num_baskets):
        rng = np.random.default_rng(60 + num_baskets)
        engine = BatchPosterior([6] * num_baskets, 0.0)
        xs = rng.integers(0, 3, size=(40, num_baskets)) * 3
        self.assert_reference_pick(monkeypatch, engine, xs)


class TestLayoutCache:
    def test_engines_share_one_layout(self):
        engines = [
            BatchPosterior([5] * 6, 0.0),
            BatchPosterior([3, 8, 0, 4, 4, 9], 2.0, JEFFREYS_PRIOR),
        ]
        for name in ("_order", "_ranks", "_filled", "_block_index", "_member"):
            assert getattr(engines[0], name) is getattr(engines[1], name)
        assert engines[0]._labels is engines[1]._labels
        assert engines[0]._block_index.dtype == np.intp

    def test_block_id_is_the_bitmask(self):
        labels = enumerate_partitions(5)
        order, _, filled, block_index, member = _layout(5)
        for slot in range(5):
            ids = block_index[: filled[slot], slot]
            held = labels[order[: filled[slot]]] == slot + 1
            assert np.array_equal(member[:, ids].T, held)
        assert member.shape == (5, 2**5)

    def test_cached_arrays_are_read_only(self):
        # The enumeration, the slot fill counts and the basket-in-block matrix;
        # the order, ranks and block ids that np.take reads stay writeable,
        # since np.take copies a read-only index array on every call.
        for num_baskets in (1, 4):
            _, _, filled, _, member = _layout(num_baskets)
            for a in (filled, member, enumerate_partitions(num_baskets)):
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 0

    def test_first_b10_build_under_14mb(self):
        # 13.1 MB measured, 11.2 MB of it kept; an int64 cast of each slot's
        # 0/1 cells took the build to 22.8 MB.
        enumerate_partitions(10)
        _layout.cache_clear()
        tracemalloc.start()
        try:
            _layout(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14e6

    def test_every_basket_count_under_16mb(self):
        # 14.9 MB measured: 12.4 MB at B = 10 and 2.1 MB at B = 9.
        total = sum(
            enumerate_partitions(b).nbytes + sum(a.nbytes for a in _layout(b))
            for b in range(1, MAX_BASKETS + 1)
        )
        assert total < 16e6


class TestDefaultIds:
    def test_letters_then_numbered(self):
        ids = default_basket_ids(28)
        assert ids[:3] == ("A", "B", "C") and ids[25] == "Z"
        assert ids[26:] == ("B27", "B28")
        assert BasketData.create([0] * 28, [1] * 28).basket_ids == ids

    def test_repeated_ids_rejected(self):
        with pytest.raises(DomainError, match="'a'"):
            BasketData.create([0, 1, 2], [2, 2, 2], ["a", "b", "a"])


class TestAnalyze:
    def test_bundles_everything(self):
        data = BasketData.create([0, 2], [2, 2])
        result = analyze(data, delta=0.0, theta0=0.15)
        assert isinstance(result, AnalysisResult)
        top = enumerate_partitions(2)[[result.partition_posterior.top_index]]
        assert membership_strings(top) == ["1|2"]
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
        result = analyze(data, delta=0.0)  # uniform prior, no data: exact tie
        assert tuple(enumerate_partitions(2)[result.partition_posterior.top_index]) == (1, 2)
