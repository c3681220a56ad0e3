"""Set partitions of trial baskets and priors over them.

A partition groups baskets into blocks that are assumed to share one response
rate. Partitions are encoded as restricted-growth strings: the first basket
always gets block label 1 and each later basket gets either an existing label
or the smallest unused one. That encoding is canonical, so equality and
ordering are well defined.

The partitions of B baskets are one read-only ``(Bell(B), B)`` int8 array of
these strings in lexicographic order, built once per process; a row's block
count is its maximum label. The prior over them is fixed by one number, delta
(:func:`partition_prior`); a :class:`~localmem.posterior.BatchPosterior` holds
its own prior over that array. Reports print a row as the labels joined by
"|", as :func:`membership_strings` does.
"""

from __future__ import annotations

import functools
import math

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


@functools.lru_cache(maxsize=MAX_BASKETS)
def enumerate_partitions(num_baskets: int) -> np.ndarray:
    """All set partitions of ``num_baskets`` elements as a read-only
    ``(Bell(B), B)`` int8 array of restricted-growth strings, one row per
    partition in lexicographic order; one array per B (1.2 MB at B = 10).

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


def membership_strings(memberships) -> list[str]:
    """Each row of a ``(partitions, baskets)`` membership array as the string
    reports print, its labels joined by "|": ``"1|1|2"``."""
    return ["|".join(map(str, row)) for row in np.asarray(memberships).tolist()]


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
    with np.errstate(over="ignore"):
        logits = delta * log_k
    if not np.isfinite(logits).all():
        raise DomainError(
            f"delta = {delta} overflows the partition prior: (number of blocks)**delta "
            f"is out of float range at B = {labels.shape[1]}"
        )
    return np.exp(logits - log_sum_exp(logits))
