"""Closed-form Bayesian engine for partition-based information borrowing.

Every quantity here has an explicit Beta-Binomial form, so no sampling is
involved. The flow is: score every partition of the baskets by its posterior
probability, pick the top partition, then let each basket borrow from the
other baskets in its block, scaled by the top partition's posterior weight.

Partition weights are computed from the marginal likelihood of the observed
per-basket counts. The per-basket binomial coefficients in that marginal are
identical under every partition, so they cancel after normalization and are
omitted; only the Beta-function block factors are evaluated.

Two entry points give every posterior quantity: :func:`analyze` for one
dataset (partition posterior, similarity, and each basket's borrowing
posterior, effective sample size and exceedance probability) and
:class:`BatchPosterior` for many count rows; they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import as_int, log_beta, reg_inc_beta
from .partitions import Partition, PartitionSet  # noqa: F401 (Partition is public API)

# Two partition weights closer than this are treated as tied when picking the
# top partition.
TOP_TIE_TOL = 1e-12

# Largest rows x partitions evaluated at once by BatchPosterior.exceed_probs.
# BatchPosterior.posterior peaks at about 17.1 bytes per row x partition cell
# (the weights, a scratch buffer of the same size, and the top pick's
# candidates and ranks), so a chunk peaks near 285 MB however many rows are
# asked for: 144 rows at B = 10.
MAX_CELLS = 2**24

_DEFAULT_IDS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def default_basket_ids(num_baskets: int) -> tuple[str, ...]:
    """Ids for baskets given none: A to Z, then B27, B28, ..."""
    return tuple(
        _DEFAULT_IDS[i] if i < len(_DEFAULT_IDS) else f"B{i + 1}" for i in range(num_baskets)
    )


@dataclass(frozen=True)
class BetaParams:
    """Shape parameters of a Beta distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise DomainError(f"Beta parameters must be positive, got {self}")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


DEFAULT_PRIOR = BetaParams(1.0, 1.0)
JEFFREYS_PRIOR = BetaParams(0.5, 0.5)


@dataclass(frozen=True)
class BasketData:
    """Observed counts at one analysis point: x responses out of n per basket."""

    x: tuple[int, ...]
    n: tuple[int, ...]
    basket_ids: tuple[str, ...]

    @classmethod
    def create(
        cls,
        x: Sequence[int],
        n: Sequence[int],
        basket_ids: Sequence[str] | None = None,
    ) -> "BasketData":
        xs = tuple(as_int(v, "x") for v in x)
        ns = tuple(as_int(v, "n") for v in n)
        if len(xs) != len(ns) or not xs:
            raise ShapeError(f"x and n must be equal-length and non-empty, got {len(xs)} and {len(ns)}")
        for b, (xv, nv) in enumerate(zip(xs, ns)):
            if nv < 0 or not (0 <= xv <= nv):
                raise DomainError(f"basket {b}: need 0 <= x <= n, got x={xv}, n={nv}")
        if basket_ids is None:
            ids = default_basket_ids(len(xs))
        else:
            ids = tuple(str(s) for s in basket_ids)
            if len(ids) != len(xs):
                raise ShapeError("basket_ids length must match x and n")
        return cls(x=xs, n=ns, basket_ids=ids)

    @property
    def num_baskets(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class PartitionPosterior:
    """Normalized weights over a PartitionSet plus the selected top partition."""

    weights: np.ndarray = field(repr=False)
    top_index: int
    top_prob: float


def partition_posterior(
    data: BasketData,
    pset: PartitionSet,
    prior: BetaParams = DEFAULT_PRIOR,
) -> PartitionPosterior:
    """Posterior probability of every partition given the observed counts.

    A one-row call of :class:`BatchPosterior`. The weight of a partition is
    proportional to its prior times the product of its block Beta factors.
    Among weights tied within TOP_TIE_TOL, the top partition is the one with
    the most blocks, then the lexicographically smallest membership.
    """
    weights, top, top_prob = BatchPosterior(data.n, pset, prior).posterior(data.x)
    row = weights[0]
    row.setflags(write=False)
    return PartitionPosterior(weights=row, top_index=int(top[0]), top_prob=float(top_prob[0]))


def similarity_matrix(pp: PartitionPosterior, pset: PartitionSet) -> np.ndarray:
    """Pairwise co-membership probability as a read-only (B, B) array: the
    summed weight of partitions placing the two baskets in one block.
    Diagonal is 1 by convention."""
    if len(pp.weights) != len(pset):
        raise ShapeError("posterior weights and partition set sizes differ")
    labels = pset.memberships
    psi = np.stack(
        [pp.weights @ (labels == labels[:, [s]]) for s in range(pset.num_baskets)]
    )
    np.fill_diagonal(psi, 1.0)
    psi.setflags(write=False)
    return psi


def borrow(x, n, labels, top_prob, prior: BetaParams = DEFAULT_PRIOR):
    """Borrowing-posterior (alpha, beta, ess) arrays of shape (T, B).

    x holds count rows (T, B), n the sample sizes (B,), labels each row's
    top-partition block labels (T, B) and top_prob its weight (T,). Each
    basket adds the counts of the other baskets in its block, scaled by the
    top weight; baskets outside the block contribute nothing. This is the
    only code that forms borrowing parameters.
    """
    x = np.asarray(x, dtype=int)
    n = np.asarray(n, dtype=int)
    same = labels[:, :, None] == labels[:, None, :]
    # Block totals less the basket's own counts: the borrowed counts.
    bx = (same * x[:, None, :]).sum(axis=2) - x
    bn = (same * n).sum(axis=2) - n
    scale = np.asarray(top_prob, dtype=float)[:, None]
    alpha = prior.alpha + x + scale * bx
    beta = prior.beta + (n - x) + scale * (bn - bx)
    ess = prior.alpha + prior.beta + n + scale * bn
    return alpha, beta, ess


@dataclass(frozen=True)
class AnalysisResult:
    """Everything a one-shot analysis of observed data produces."""

    data: BasketData
    pset: PartitionSet
    partition_posterior: PartitionPosterior
    similarity: np.ndarray
    posteriors: tuple[BetaParams, ...]
    ess: tuple[float, ...]
    prob_exceeds: tuple[float, ...]

    @property
    def top_partition(self) -> Partition:
        return self.pset.partition(self.partition_posterior.top_index)


def analyze(
    data: BasketData,
    delta: float = 0.0,
    prior: BetaParams = DEFAULT_PRIOR,
    theta0: float | Sequence[float] = 0.5,
    pset: PartitionSet | None = None,
) -> AnalysisResult:
    """Full posterior analysis: partition table, similarity, per-basket
    borrowing posteriors with their effective sample sizes and exceedance
    probabilities. One engine row, one :func:`borrow` call and one incomplete
    beta call: a row of :meth:`BatchPosterior.exceed_probs`, bit for bit."""
    if pset is None:
        pset = PartitionSet.build(data.num_baskets, delta)
    t0 = np.asarray(theta0, dtype=float)
    t0 = np.full(data.num_baskets, t0) if t0.ndim == 0 else t0
    if t0.shape != (data.num_baskets,):
        raise ShapeError(f"theta0 must have {data.num_baskets} entries, got {len(t0)}")
    if not np.all((t0 > 0.0) & (t0 < 1.0)):
        raise DomainError(f"theta0 must lie in (0, 1), got {t0.tolist()}")
    pp = partition_posterior(data, pset, prior)
    top = pset.memberships[[pp.top_index]]
    alpha, beta, ess = (v[0] for v in borrow([data.x], data.n, top, [pp.top_prob], prior))
    probs = 1.0 - reg_inc_beta(t0, alpha, beta)
    return AnalysisResult(
        data=data,
        pset=pset,
        partition_posterior=pp,
        similarity=similarity_matrix(pp, pset),
        posteriors=tuple(BetaParams(float(a), float(b)) for a, b in zip(alpha, beta)),
        ess=tuple(float(v) for v in ess),
        prob_exceeds=tuple(float(v) for v in probs),
    )


class BatchPosterior:
    """Partition-posterior evaluation for a batch of count rows.

    Bound to a fixed sample-size vector, partition set and prior; the data
    matrix varies across rows, and each row's result is independent of the
    others. This is the only code that computes partition weights and the
    public way to analyze many rows: :func:`analyze` (and through it every
    look of a single trial) calls it with a single row, simulation and
    calibration with whole batches, and its borrowing parameters come from
    :func:`borrow`.

    A block's log Beta factor depends only on which baskets it holds, so a
    row needs at most 2**B - 1 factors, and each partition sums at most B of
    them. Blocks are identified by their basket bitmask. Partitions are
    summed in block-count order, most blocks first, so block slot s is filled
    in a leading run of partitions and each row adds only the factors of the
    blocks its partitions hold, never an empty block's 0.
    """

    def __init__(self, n: Sequence[int], pset: PartitionSet, prior: BetaParams = DEFAULT_PRIOR):
        n = tuple(as_int(v, "n") for v in n)
        if len(n) != pset.num_baskets:
            raise ShapeError("sample-size vector does not match the partition set")
        if any(v < 0 for v in n):
            raise DomainError("sample sizes must be non-negative")
        self.n = np.asarray(n, dtype=int)
        self.pset = pset
        self.prior = prior
        num_baskets = pset.num_baskets

        # A stable sort by block count, most blocks first. Its order is also
        # the preference among tied weights: most blocks (least borrowing),
        # then the lexicographically smallest membership (enumeration order).
        num_blocks = pset.memberships.max(axis=1)
        order = np.argsort(-num_blocks, kind="stable")
        self._ranks = np.empty(len(pset), dtype=int)
        self._ranks[order] = np.arange(len(pset))
        # Slot s holds a block in the first _filled[s] sorted partitions only.
        self._filled = (num_blocks[:, None] > np.arange(num_baskets)).sum(axis=0)

        labels = pset.memberships[order]
        bits = 1 << np.arange(num_baskets)
        masks = np.stack(
            [(labels == label) @ bits for label in range(1, num_baskets + 1)], axis=1
        )
        blocks, index = np.unique(masks, return_inverse=True)
        # (J, B): block ids of each sorted partition in label order; unfilled
        # slots hold the empty block and are never read. Column-major, so the
        # ids of one slot are contiguous.
        self._block_index = np.asfortranarray(index.reshape(masks.shape))
        # (B, blocks): 0/1 basket-in-block matrix.
        self._member = (blocks[None, :] >> np.arange(num_baskets)[:, None]) & 1

        # Log Beta factors tabulated over (rank of the block size among the
        # distinct sizes, block responses); a size-0 block's row stays 0.
        sizes, self._size_rank = np.unique(self.n @ self._member, return_inverse=True)
        table = np.zeros((len(sizes), int(sizes[-1]) + 1))
        log_b0 = log_beta(prior.alpha, prior.beta)
        for rank, size in enumerate(sizes):
            if size == 0:
                continue
            s_vals = np.arange(size + 1, dtype=float)
            table[rank, : size + 1] = (
                log_beta(prior.alpha + s_vals, prior.beta + size - s_vals) - log_b0
            )
        self._factor_table = table

        with np.errstate(divide="ignore"):
            self._log_prior = np.log(pset.prior)

    def _as_matrix(self, x) -> np.ndarray:
        mat = np.asarray(as_int(x, "x"), dtype=int)
        if mat.ndim == 1:
            mat = mat[None, :]
        if mat.shape[1] != self.pset.num_baskets:
            raise ShapeError(
                f"data matrix has {mat.shape[1]} baskets, expected {self.pset.num_baskets}"
            )
        if np.any(mat < 0) or np.any(mat > self.n[None, :]):
            raise DomainError("response counts must satisfy 0 <= x <= n per basket")
        return mat

    def posterior(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weights (T, J), top partition index (T,), top weight (T,)."""
        mat = self._as_matrix(x)
        # (T, blocks): log Beta factor of every block for every row.
        factors = self._factor_table[self._size_rank, mat @ self._member]
        # (T, J) log weights of the sorted partitions, row-major (np.take, not
        # fancy indexing, which would return column-major), so a row's sums
        # and its normalisation do not depend on the batch size. Each slot's
        # factors go through one reused buffer and are added to the leading
        # partitions that hold a block in that slot. mode="clip" lets np.take
        # write straight into `out`; the default mode buffers it.
        log_w = np.take(factors, self._block_index[:, 0], axis=1)
        scratch = np.empty(log_w.size)
        for slot in range(1, self.pset.num_baskets):
            k = self._filled[slot]
            part = scratch[: len(mat) * k].reshape(len(mat), k)
            np.take(factors, self._block_index[:k, slot], axis=1, out=part, mode="clip")
            log_w[:, :k] += part
        # Back to enumeration order, into the buffer; the sorted sums are freed.
        unsorted = scratch.reshape(log_w.shape)
        log_w = np.take(log_w, self._ranks, axis=1, out=unsorted, mode="clip")
        log_w += self._log_prior
        log_w -= log_w.max(axis=1, keepdims=True)
        weights = np.exp(log_w, out=log_w)
        weights /= weights.sum(axis=1, keepdims=True)
        candidates = weights >= weights.max(axis=1, keepdims=True) - TOP_TIE_TOL
        top = np.where(candidates, self._ranks, len(self.pset)).argmin(axis=1)
        top_prob = weights[np.arange(len(mat)), top]
        return weights, top, top_prob

    def borrow_params(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Borrowing-posterior (alpha, beta) arrays of shape (T, B)."""
        mat = self._as_matrix(x)
        _, top, top_prob = self.posterior(mat)
        alpha, beta, _ = borrow(mat, self.n, self.pset.memberships[top], top_prob, self.prior)
        return alpha, beta

    def exceed_probs(self, x, theta0) -> np.ndarray:
        """Per-basket posterior exceedance probabilities, shape (T, B).

        Rows are evaluated in chunks of at most MAX_CELLS rows x partitions,
        which bounds memory at any batch size; rows are independent, so the
        chunking never changes a result.
        """
        mat = self._as_matrix(x)
        t0 = np.broadcast_to(np.asarray(theta0, dtype=float), mat.shape)
        step = max(1, MAX_CELLS // len(self.pset))
        out = np.empty(mat.shape)
        for lo in range(0, len(mat), step):
            rows = slice(lo, lo + step)
            alpha, beta = self.borrow_params(mat[rows])
            out[rows] = 1.0 - reg_inc_beta(t0[rows], alpha, beta)
        return out
