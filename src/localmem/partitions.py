"""Set partitions of trial baskets and priors over them.

A partition groups baskets into blocks that are assumed to share one response
rate. Partitions are encoded as restricted-growth strings: the first basket
always gets block label 1 and each later basket gets either an existing label
or the smallest unused one. That encoding is canonical, so equality and
ordering are well defined.

A partition set is one read-only ``(Bell(B), B)`` int8 array of these strings,
one row per partition in lexicographic order; a row's block count is its
maximum label. :class:`Partition` is the value a report derives from one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, ShapeError
from .numerics import log_sum_exp

MAX_BASKETS = 10


def bell_number(n: int) -> int:
    """Number of set partitions of n elements."""
    if n < 0:
        raise DomainError(f"bell_number requires n >= 0, got {n}")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@dataclass(frozen=True)
class Partition:
    """One grouping of baskets into blocks, in restricted-growth form."""

    membership: tuple[int, ...]
    num_blocks: int

    def membership_string(self) -> str:
        return "|".join(str(v) for v in self.membership)


def enumerate_partitions(num_baskets: int) -> np.ndarray:
    """All set partitions of ``num_baskets`` elements as a read-only
    ``(Bell(B), B)`` int8 array of restricted-growth strings, one row per
    partition in lexicographic order.

    Rows grow one basket at a time: each row is extended by every label from 1
    to its maximum + 1 in increasing order, which keeps the rows sorted.
    Growth is the Bell number, so a capacity guard refuses anything past
    ``MAX_BASKETS`` (Bell(10) = 115975).
    """
    if num_baskets < 1:
        raise DomainError(f"need at least one basket, got {num_baskets}")
    if num_baskets > MAX_BASKETS:
        raise CapacityError(
            f"{num_baskets} baskets would enumerate Bell({num_baskets}) = "
            f"{bell_number(num_baskets)} partitions; the configured cap is {MAX_BASKETS}"
        )
    labels = np.ones((1, num_baskets), dtype=np.int8)
    running_max = np.ones(1, dtype=np.int8)
    for pos in range(1, num_baskets):
        children = running_max + 1
        parent = np.repeat(np.arange(len(labels)), children)
        # Rank of each child among its parent's children, plus 1.
        label = np.arange(len(parent)) - np.repeat(np.cumsum(children) - children, children) + 1
        labels = labels[parent]
        labels[:, pos] = label
        running_max = np.maximum(running_max[parent], labels[:, pos])
    labels.setflags(write=False)
    return labels


def partition_prior(memberships, delta: float) -> np.ndarray:
    """Prior weights proportional to (number of blocks)**delta over the rows
    of a ``(partitions, baskets)`` membership array.

    delta = 0 is uniform; positive delta favors partitions with more blocks
    (less pooling), negative delta favors fewer blocks.
    """
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    labels = np.asarray(memberships)
    if labels.ndim != 2 or labels.size == 0:
        raise ShapeError("partition_prior needs a non-empty (partitions, baskets) array")
    # float64 before the log: the log of an int8 array is computed in float16.
    log_k = np.log(labels.max(axis=1).astype(float))
    logits = delta * log_k
    return np.exp(logits - log_sum_exp(logits))


@dataclass(frozen=True)
class PartitionSet:
    """The full hypothesis space for one analysis: the read-only membership
    array of :func:`enumerate_partitions` plus the prior over its rows."""

    num_baskets: int
    memberships: np.ndarray = field(repr=False)
    prior: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, num_baskets: int, delta: float = 0.0) -> "PartitionSet":
        """Enumerate partitions and attach the delta-family prior."""
        labels = enumerate_partitions(num_baskets)
        weights = partition_prior(labels, delta)
        weights.setflags(write=False)
        return cls(num_baskets=num_baskets, memberships=labels, prior=weights)

    def __len__(self) -> int:
        return len(self.memberships)

    def partition(self, j: int) -> Partition:
        """Partition ``j`` of the set as a value."""
        row = self.memberships[j]
        return Partition(membership=tuple(int(v) for v in row), num_blocks=int(row.max()))
