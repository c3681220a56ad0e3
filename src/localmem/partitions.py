"""Set partitions of trial baskets and priors over them.

A partition groups baskets into blocks that are assumed to share one response
rate. Partitions are encoded as restricted-growth strings: the first basket
always gets block label 1 and each later basket gets either an existing label
or the smallest unused one. That encoding is canonical, so equality and
ordering are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

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

    @classmethod
    def from_membership(cls, membership: Sequence[int]) -> "Partition":
        m = tuple(int(v) for v in membership)
        if not m:
            raise ShapeError("partition membership must be non-empty")
        if m[0] != 1:
            raise DomainError(f"restricted-growth string must start at 1, got {m}")
        mx = 1
        for v in m[1:]:
            if not (1 <= v <= mx + 1):
                raise DomainError(f"invalid restricted-growth string {m}")
            mx = max(mx, v)
        return cls(membership=m, num_blocks=mx)

    @property
    def num_baskets(self) -> int:
        return len(self.membership)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Basket indices per block, ordered by block label."""
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for basket, label in enumerate(self.membership):
            out[label - 1].append(basket)
        return tuple(tuple(b) for b in out)

    def membership_string(self) -> str:
        return "|".join(str(v) for v in self.membership)


def enumerate_partitions(num_baskets: int) -> list[Partition]:
    """All set partitions of ``num_baskets`` elements, lexicographically ordered.

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
    out: list[Partition] = []
    membership = [1] * num_baskets

    def extend(pos: int, mx: int) -> None:
        if pos == num_baskets:
            out.append(Partition(membership=tuple(membership), num_blocks=mx))
            return
        for label in range(1, mx + 2):
            membership[pos] = label
            extend(pos + 1, max(mx, label))

    extend(1, 1)
    return out


def partition_prior(partitions: Sequence[Partition], delta: float) -> np.ndarray:
    """Prior weights proportional to (number of blocks)**delta.

    delta = 0 is uniform; positive delta favors partitions with more blocks
    (less pooling), negative delta favors fewer blocks.
    """
    if not partitions:
        raise ShapeError("partition_prior needs a non-empty partition list")
    log_k = np.log([p.num_blocks for p in partitions])
    logits = delta * log_k
    return np.exp(logits - log_sum_exp(logits))


@dataclass(frozen=True)
class PartitionSet:
    """The full hypothesis space for one analysis: partitions plus their prior."""

    num_baskets: int
    partitions: tuple[Partition, ...]
    prior: np.ndarray = field(repr=False)

    @classmethod
    def build(
        cls,
        num_baskets: int,
        delta: float = 0.0,
        prior: Iterable[float] | None = None,
    ) -> "PartitionSet":
        """Enumerate partitions and attach either the delta-family prior or a
        user-supplied probability vector."""
        parts = enumerate_partitions(num_baskets)
        if prior is None:
            weights = partition_prior(parts, delta)
        else:
            weights = np.asarray(list(prior), dtype=float)
            if weights.shape != (len(parts),):
                raise ShapeError(
                    f"prior vector has length {weights.size}, expected {len(parts)}"
                )
            if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
                raise DomainError("prior vector entries must be finite and non-negative")
            total = weights.sum()
            if abs(total - 1.0) > 1e-9 or total <= 0.0:
                raise DomainError(f"prior vector must sum to 1, got {total}")
            weights = weights / total
        weights.setflags(write=False)
        return cls(num_baskets=num_baskets, partitions=tuple(parts), prior=weights)

    def __len__(self) -> int:
        return len(self.partitions)

    @cached_property
    def memberships(self) -> np.ndarray:
        """Block labels as a read-only (partitions, baskets) array."""
        labels = np.array([p.membership for p in self.partitions], dtype=np.int8)
        labels.setflags(write=False)
        return labels
