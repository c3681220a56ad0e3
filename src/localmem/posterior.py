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
:class:`BatchPosterior` for many count rows; they agree bit for bit. No other
helper gives a one-dataset posterior: :func:`analyze` builds one engine from
the data's sample sizes, ``delta`` and the prior, and makes one-row calls of it.

Every exceedance probability comes from one exceedance step, the one place
that deduplicates (theta0, alpha, beta) cells: one incomplete beta call over
the distinct cells it is given. A batch that spans several engines (a
simulated stage's survivor sets) passes all their cells to one step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .numerics import _distinct_rows, as_int, log_beta, reg_inc_beta
from .partitions import MAX_BASKETS, enumerate_partitions, partition_prior

# Two partition weights closer than this are treated as tied when picking the
# top partition.
TOP_TIE_TOL = 1e-12

# Chunk budget of BatchPosterior.borrow_params: the most rows x partitions
# whose weights are evaluated at once. A call allocates one weights + scratch
# pair (8 + 8 bytes per cell) for its largest chunk, after that chunk's
# (2**B, T) block factors, and runs every chunk in it; the top pick's 1-byte
# flag table goes into the spent scratch, and the factors are freed before
# the pick. So the weights of a call peak near 4.3 MB however many rows are
# asked for, and its pages are faulted in once, not once per chunk. The
# borrowing step and the incomplete beta add a few KB per row. tracemalloc
# measured 3.8 MB for a whole 300-row call at B = 10 (two rows per chunk),
# 4.2 MB for a 600-row call at B = 9 (12 rows per chunk) and 1.56 MB for a
# 4,051-row call at B = 4 (one chunk). The budget bounds memory only: 2**16,
# 2**17 and 2**18 cells time the same on a B = 9 simulate.
# BatchPosterior.posterior allocates the same pair for its whole batch.
MAX_CELLS = 2**18

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
            repeated = sorted({s for s in ids if ids.count(s) > 1})
            if repeated:
                raise DomainError(f"basket_ids must be distinct, got {repeated} more than once")
        return cls(x=xs, n=ns, basket_ids=ids)

    @property
    def num_baskets(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class PartitionPosterior:
    """Normalized weights over the partitions of the analyzed baskets, in the
    row order of :func:`~localmem.partitions.enumerate_partitions`, plus the
    selected top partition.

    Among weights tied within TOP_TIE_TOL, the top partition is the one with
    the most blocks, then the lexicographically smallest membership.
    """

    weights: np.ndarray = field(repr=False)
    top_index: int
    top_prob: float


def borrow(x, n, labels, top_prob, prior: BetaParams = DEFAULT_PRIOR):
    """Borrowing-posterior (alpha, beta, ess) arrays of shape (T, B).

    x holds count rows (T, B), n the sample sizes (B,), labels each row's
    top-partition block labels (T, B), non-negative integers, and top_prob
    its weight (T,). Each
    basket adds the counts of the other baskets in its block, scaled by the
    top weight; baskets outside the block contribute nothing. This is the
    only code that forms borrowing parameters.
    """
    x = np.asarray(x, dtype=int)
    n = np.asarray(n, dtype=int)
    # One bincount per quantity over (row, block label) slots gives every
    # block's totals; each basket reads its own block's and drops its own
    # counts: the borrowed counts. The totals are integers, exact in float64.
    width = int(labels.max(initial=0)) + 1
    slot = labels + width * np.arange(len(labels))[:, None]
    size = width * len(labels)
    bx = np.bincount(slot.ravel(), x.ravel(), size)[slot] - x
    bn = np.bincount(slot.ravel(), np.broadcast_to(n, x.shape).ravel(), size)[slot] - n
    scale = np.asarray(top_prob, dtype=float)[:, None]
    alpha = prior.alpha + x + scale * bx
    beta = prior.beta + (n - x) + scale * (bn - bx)
    ess = prior.alpha + prior.beta + n + scale * bn
    return alpha, beta, ess


@dataclass(frozen=True)
class AnalysisResult:
    """Everything a one-shot analysis of observed data produces."""

    data: BasketData
    partition_prior: np.ndarray
    partition_posterior: PartitionPosterior
    similarity: np.ndarray
    posteriors: tuple[BetaParams, ...]
    ess: tuple[float, ...]
    prob_exceeds: tuple[float, ...]


def analyze(
    data: BasketData,
    delta: float = 0.0,
    prior: BetaParams = DEFAULT_PRIOR,
    theta0: float | Sequence[float] = 0.5,
) -> AnalysisResult:
    """Full posterior analysis: partition table, similarity, and per-basket
    borrowing posteriors, effective sample sizes and exceedance probabilities.

    One :class:`BatchPosterior` evaluates the row's partition weights once
    (:meth:`BatchPosterior.posterior`); its top partition goes through
    :func:`borrow` and the exceedance step, as every row of
    :meth:`BatchPosterior.exceed_probs` does, so the two agree bit for bit."""
    engine = BatchPosterior(data.n, delta, prior)
    (weights,), top, top_prob = engine.posterior(data.x)
    labels = engine._labels
    alpha, beta, ess = borrow([data.x], engine.n, labels[top], top_prob, prior)
    (probs,) = _exceedance(theta0, alpha, beta)
    weights.setflags(write=False)
    # Pairwise co-membership probability: the summed weight of the partitions
    # placing two baskets in one block; the diagonal is 1 by convention.
    similarity = np.stack([weights @ (labels == labels[:, [s]]) for s in range(data.num_baskets)])
    np.fill_diagonal(similarity, 1.0)
    similarity.setflags(write=False)
    return AnalysisResult(
        data=data,
        partition_prior=engine.partition_prior,
        partition_posterior=PartitionPosterior(weights, int(top[0]), float(top_prob[0])),
        similarity=similarity,
        posteriors=tuple(BetaParams(float(a), float(b)) for a, b in zip(alpha[0], beta[0])),
        ess=tuple(float(v) for v in ess[0]),
        prob_exceeds=tuple(float(v) for v in probs),
    )


def _exceedance(theta0, alpha, beta) -> np.ndarray:
    """Posterior exceedance probabilities 1 - I_theta0(alpha, beta), alpha's shape.

    The one exceedance step of :func:`analyze`,
    :meth:`BatchPosterior.exceed_probs` and
    :func:`~localmem.design.survivor_exceedance`. theta0 in (0, 1) is a
    scalar, one per basket (alpha's last axis) or one per cell. This is the
    one dedup of (theta0, alpha, beta) cells: the three raveled columns go
    to :func:`~localmem.numerics._distinct_rows` unstacked, and one
    incomplete beta call covers the distinct exact triples, copied to the
    cells that repeat them. An element's value does not depend on what else
    shares the call, so this never changes a bit.
    """
    t0 = np.asarray(theta0, dtype=float)
    if t0.shape not in ((), alpha.shape[1:], alpha.shape):
        raise ShapeError(f"theta0 has shape {t0.shape}; need (), {alpha.shape[1:]} or {alpha.shape}")
    if not np.all((t0 > 0.0) & (t0 < 1.0)):
        raise DomainError(f"theta0 must lie in (0, 1), got {t0.tolist()}")
    cells = (np.broadcast_to(t0, alpha.shape).ravel(), alpha.ravel(), beta.ravel())
    pick, inverse = _distinct_rows(cells)
    probs = 1.0 - reg_inc_beta(*(column[pick] for column in cells))
    return probs[inverse].reshape(alpha.shape)


# At most MAX_BASKETS layouts, under 16 MB with the enumerations (14.9 MB, 12.4 at B = 10).
@functools.lru_cache(maxsize=MAX_BASKETS)
def _layout(num_baskets: int) -> tuple[np.ndarray, ...]:
    """A BatchPosterior's arrays that depend on B alone: block-count order,
    its ranks, slot fill counts, block ids and basket-in-block matrix."""
    # A stable sort by block count, most blocks first. Its order is also
    # the preference among tied weights: most blocks (least borrowing),
    # then the lexicographically smallest membership (enumeration order).
    labels = enumerate_partitions(num_baskets)
    num_blocks = labels.max(axis=1)
    order = np.argsort(-num_blocks, kind="stable")
    # Slot s holds a block in the first filled[s] sorted partitions only.
    filled = (num_blocks[:, None] > np.arange(num_baskets)).sum(axis=0)
    # (J, B): block ids of each sorted partition in label order; unfilled slots
    # hold the empty block 0, never read. Column-major: a slot's ids are contiguous.
    # Each slot's 0/1 cells go through one uint16 buffer and meet uint16 bit
    # weights (masks stay below 2**MAX_BASKETS), so the matmul casts nothing;
    # int64 weights would cast every slot's cells to 8 bytes. At B = 10 the
    # build peaks at 13.1 MB.
    block_index = np.empty(labels.shape, dtype=np.intp, order="F")
    cells = np.empty(labels.shape, dtype=np.uint16)
    bits = (1 << np.arange(num_baskets)).astype(np.uint16)
    for slot in range(num_baskets):
        block_index[:, slot] = (np.equal(labels, slot + 1, out=cells) @ bits)[order]
    del cells  # before the ranks are allocated
    # (B, 2**B): 0/1 basket-in-block matrix over every mask.
    member = (np.arange(2**num_baskets) >> np.arange(num_baskets)[:, None]) & 1
    # The index arrays np.take reads stay writeable: np.take copies a read-only
    # index array on every call, which cost 10-15% of a B = 10 exceed_probs call.
    for a in (filled, member):
        a.setflags(write=False)
    return order, np.argsort(order), filled, block_index, member


class BatchPosterior:
    """Partition-posterior evaluation for a batch of count rows.

    Bound to a fixed sample-size vector, the partition prior's delta and the
    Beta prior, as :func:`analyze` is. The vector's length B fixes the
    partitions: the rows of the cached
    :func:`~localmem.partitions.enumerate_partitions` array, weighted a priori
    by the read-only ``partition_prior``. The data matrix varies across rows,
    and each row's result is independent of the others. This is the only code
    that computes partition weights and the public way to analyze many rows:
    :func:`analyze` (and through it every look of a single trial) calls it
    with a single row, simulation and calibration with whole batches through
    :meth:`borrow_params`, and its borrowing parameters come from
    :func:`borrow`.

    A block's log Beta factor depends only on which baskets it holds, so a row
    needs at most 2**B - 1 factors, and each partition sums at most B of them.
    A block's id is its basket bitmask. Partitions are summed in block-count
    order, most blocks first, so slot s is filled in a leading run of
    partitions and each row adds only the factors of the blocks its partitions
    hold, never an empty block's 0. That layout is cached per B. The sums are
    made partition-major, (J, T), so that each gathered factor is a T-long row
    of a (2**B, T) table; the weights are then row-major, (T, J), and so are
    each row's max, exp and sum, which therefore do not depend on the batch.
    The top pick normalises only the cells near a row's max (:meth:`_weights`).
    """

    def __init__(self, n: Sequence[int], delta: float = 0.0, prior: BetaParams = DEFAULT_PRIOR):
        n = tuple(as_int(v, "n") for v in n)
        if any(v < 0 for v in n):
            raise DomainError("sample sizes must be non-negative")
        # The enumeration refuses a basket count outside 1..MAX_BASKETS
        # before any layout is built.
        self._labels = enumerate_partitions(len(n))
        self.partition_prior = partition_prior(self._labels, delta)
        self.partition_prior.setflags(write=False)
        self.n = np.asarray(n, dtype=int)
        self.prior = prior
        layout = _layout(len(n))
        self._order, self._ranks, self._filled, self._block_index, self._member = layout

        # Log Beta factors tabulated over (rank of the block size among the
        # distinct sizes, block responses), over the cells with
        # 0 <= responses <= size; a size-0 block's row stays 0. One log_beta
        # call gives the prior's B(alpha, beta) first, then every cell.
        sizes, size_rank = np.unique(self.n @ self._member, return_inverse=True)
        self._size_rank = size_rank.reshape(-1, 1)  # (2**B, 1): one per block id
        s_vals = np.arange(sizes[-1] + 1, dtype=float)
        held = (s_vals <= sizes[:, None]) & (sizes[:, None] > 0)
        a = np.broadcast_to(prior.alpha + s_vals, held.shape)[held]
        b = ((prior.beta + sizes[:, None]) - s_vals)[held]
        logs = log_beta(np.append(prior.alpha, a), np.append(prior.beta, b))
        self._factor_table = np.zeros(held.shape)
        self._factor_table[held] = logs[1:] - logs[0]

        with np.errstate(divide="ignore"):
            self._log_prior = np.log(self.partition_prior)

    def _as_matrix(self, x) -> np.ndarray:
        mat = np.asarray(as_int(x, "x"), dtype=int)
        if mat.ndim == 1:
            mat = mat[None, :]
        if mat.shape[1] != len(self.n):
            raise ShapeError(f"data matrix has {mat.shape[1]} baskets, expected {len(self.n)}")
        if np.any(mat < 0) or np.any(mat > self.n[None, :]):
            raise DomainError("response counts must satisfy 0 <= x <= n per basket")
        return mat

    def posterior(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weights (T, J), top partition index (T,), top weight (T,)."""
        weights, sums, top, top_prob = self._weights(self._as_matrix(x), [])
        weights /= sums[:, None]
        return weights, top, top_prob

    def _weights(self, mat, pair: list) -> tuple[np.ndarray, ...]:
        """Unnormalised weights (T, J), their row sums (T,), the top partition
        index (T,) and its weight (T,) of checked count rows (T, B).

        `pair` holds two flat float buffers of at least T x J cells (16 bytes
        per cell), or is empty and gets them here, after the rows' (2**B, T)
        block factors, so that the factors' int64 block sums are freed first;
        the factors themselves are freed once the slots are summed. The
        weights are a view of the first buffer, e = exp(log weight - row max),
        so each row's largest is exactly 1; dividing by the sums s gives
        :meth:`posterior`'s weights. The second buffer is spent.

        The top partition is the first, in tie-break order, of the cells whose
        normalised weight e / s is within TOP_TIE_TOL of the row's largest.
        Any such cell has e >= 1 - 2 s TOP_TIE_TOL - 1e-9, so only the few
        cells above that bound are divided and tested; the weights are never
        normalised here.
        """
        rows, parts = len(mat), len(self.partition_prior)
        cells = rows * parts
        # (2**B, T) log Beta factors, one T-long row per block id.
        factors = self._factor_table[self._size_rank, self._member.T @ mat.T]
        if not pair:
            pair += np.empty(cells), np.empty(cells)
        buffer, scratch = pair
        # (J, T) log weights of the sorted partitions, partition-major: each
        # slot's factors are gathered a T-long row at a time (np.take along
        # axis 0) into the scratch and added to the leading partitions that
        # hold a block in that slot. mode="clip" lets np.take write straight
        # into `out`; the default mode buffers it.
        sums_t = buffer[:cells].reshape(parts, rows)
        np.take(factors, self._block_index[:, 0], axis=0, out=sums_t, mode="clip")
        for slot in range(1, len(self.n)):
            k = self._filled[slot]
            part = scratch[: rows * k].reshape(k, rows)
            np.take(factors, self._block_index[:k, slot], axis=0, out=part, mode="clip")
            sums_t[:k] += part
        del factors  # before the top pick's temporaries
        # Back to enumeration order in the scratch, then the prior added in
        # one transposing pass into the (T, J) weights: row-major, so a row's
        # max, exp and sum do not depend on the batch size.
        ranked = np.take(sums_t, self._ranks, axis=0, out=scratch[:cells].reshape(parts, rows), mode="clip")
        weights = np.add(ranked.T, self._log_prior, out=buffer[:cells].reshape(rows, parts))
        weights -= weights.max(axis=1, keepdims=True)
        np.exp(weights, out=weights)
        sums = weights.sum(axis=1)
        # The cells near each row's max, in row-major order: a run per row that
        # holds the row's largest (e = 1), so the runs' max of e / s is the
        # max of the row's normalised weights.
        near = np.flatnonzero(
            np.greater_equal(
                weights,
                (1.0 - 2.0 * TOP_TIE_TOL * sums - 1e-9)[:, None],
                out=scratch.view(bool)[:cells].reshape(rows, parts),
            )
        )
        row, col = np.divmod(near, parts)
        w = weights.ravel()[near] / sums[row]
        starts = np.flatnonzero(np.diff(row, prepend=-1))
        # Tie-break ranks, J for a cell not within TOP_TIE_TOL of its row's max.
        rank = self._ranks[col]
        rank[w < np.maximum.reduceat(w, starts)[row] - TOP_TIE_TOL] = parts
        first = np.minimum.reduceat(rank, starts)
        return weights, sums, self._order[first], w[rank == first[row]]

    def borrow_params(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Borrowing-posterior (alpha, beta, ess) of count rows, each (T, B).

        The counts are checked once, before any work. The partition weights
        are then evaluated in row chunks of at most MAX_CELLS rows x
        partitions, keeping only each row's top partition and its weight; the
        weights are never normalised, as only the cells near each row's max
        are read (:meth:`_weights`). Every chunk runs in one weights + scratch
        pair, allocated once per call for the largest chunk (16 bytes per
        cell), so a call of any length touches fresh pages only once. One
        :func:`borrow` call covers the whole batch. Rows are independent of
        their batch, so the chunking never changes a result.
        """
        mat = self._as_matrix(x)
        step = max(1, MAX_CELLS // len(self.partition_prior))
        top, top_prob = np.empty(len(mat), dtype=int), np.empty(len(mat))
        pair = []  # sized by the first, largest chunk
        for lo in range(0, len(mat), step):
            top[lo : lo + step], top_prob[lo : lo + step] = self._weights(mat[lo : lo + step], pair)[2:]
        pair = None  # freed before the borrowing arrays
        return borrow(mat, self.n, self._labels[top], top_prob, self.prior)

    def exceed_probs(self, x, theta0) -> np.ndarray:
        """Per-basket posterior exceedance probabilities, shape (T, B).

        theta0 in (0, 1) is a scalar, one per basket (B,) or one per cell
        (T, B). The rows' :meth:`borrow_params` go through the one exceedance
        step, which checks theta0 against their shape and makes one
        incomplete beta call over their distinct (theta0, alpha, beta) triples.
        """
        alpha, beta, _ = self.borrow_params(x)
        return _exceedance(theta0, alpha, beta)
