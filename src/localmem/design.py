"""Go/no-go decision engine for single-stage and two-stage basket designs.

Stage I analyzes all baskets together at their interim sizes and stops
accrual for futility in any basket whose exceedance probability falls at or
below q1. Stage II re-analyzes only the surviving baskets at their maximum
sizes, re-enumerating partitions over the survivors so dropped baskets
contribute no data, and declares efficacy where the exceedance probability
exceeds q2.

Each single-trial look is one :func:`~localmem.posterior.analyze` call;
simulated batches go through :func:`survivor_exceedance`. Both reach the same
engine, borrowing step and incomplete beta, so the two agree bit for bit.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError, ShapeError
from .numerics import as_int
from .partitions import MAX_BASKETS, PartitionSet
from .posterior import DEFAULT_PRIOR, AnalysisResult, BasketData, BatchPosterior, BetaParams, analyze

STAGE_INTERIM = 1
STAGE_FINAL = 2
STAGE_DONE = 3


class Decision(str, enum.Enum):
    PENDING = "pending"
    FUTILITY_STOPPED = "futility-stopped"
    EFFICACIOUS = "efficacious"
    NOT_PROMISING = "not-promising"
    CONTINUE = "continue"


@dataclass(frozen=True)
class Boundary:
    """Posterior-probability cutoffs: q1 at the interim look, q2 at the end."""

    q1: float
    q2: float


def stopping_boundary(lam: float, gamma: float, t: float) -> Boundary:
    """Power-function boundary (q1, q2) = (lam * t**gamma, lam)."""
    if not (0.0 < lam < 1.0):
        raise DomainError(f"lam must lie in (0, 1), got {lam}")
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise DomainError(f"gamma must be finite and >= 0, got {gamma}")
    if not (0.0 < t <= 1.0):
        raise DomainError(f"information fraction t must lie in (0, 1], got {t}")
    return Boundary(q1=lam * t**gamma, q2=lam)


@dataclass(frozen=True)
class DesignSpec:
    """Everything needed to run or simulate one design."""

    num_baskets: int
    max_sizes: tuple[int, ...]
    theta0: tuple[float, ...]
    theta1: tuple[float, ...]
    lam: float
    gamma: float
    delta: float = 0.0
    prior: BetaParams = DEFAULT_PRIOR
    stages: int = 2
    interim_fraction: float | None = None
    interim_sizes: tuple[int, ...] | None = None

    @classmethod
    def create(
        cls,
        num_baskets: int,
        max_sizes,
        theta0,
        theta1,
        lam: float,
        gamma: float = 0.0,
        delta: float = 0.0,
        prior: BetaParams = DEFAULT_PRIOR,
        stages: int = 2,
        interim_fraction: float | None = None,
        interim_sizes=None,
    ) -> "DesignSpec":
        def expand(v, name, integer=False):
            vals = (v,) * num_baskets if isinstance(v, numbers.Real) else tuple(v)
            if len(vals) != num_baskets:
                raise ShapeError(f"{name} must have one entry per basket, got {len(vals)}")
            return tuple(as_int(u, name) if integer else float(u) for u in vals)

        num_baskets = as_int(num_baskets, "num_baskets")
        if num_baskets < 1:
            raise DomainError(f"need at least one basket, got {num_baskets}")
        if num_baskets > MAX_BASKETS:
            raise CapacityError(
                f"{num_baskets} baskets exceeds the partition-enumeration cap of {MAX_BASKETS}"
            )
        spec = cls(
            num_baskets=num_baskets,
            max_sizes=expand(max_sizes, "max_sizes", integer=True),
            theta0=expand(theta0, "theta0"),
            theta1=expand(theta1, "theta1"),
            lam=float(lam),
            gamma=float(gamma),
            delta=float(delta),
            prior=prior,
            stages=as_int(stages, "stages"),
            interim_fraction=None if interim_fraction is None else float(interim_fraction),
            interim_sizes=(
                None if interim_sizes is None else expand(interim_sizes, "interim_sizes", integer=True)
            ),
        )
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.stages not in (1, 2):
            raise DomainError(f"stages must be 1 or 2, got {self.stages}")
        if not (0.0 < self.lam < 1.0):
            raise DomainError(f"lam must lie in (0, 1), got {self.lam}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise DomainError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not math.isfinite(self.delta):
            raise DomainError(f"delta must be finite, got {self.delta}")
        for b in range(self.num_baskets):
            if self.max_sizes[b] < 1:
                raise DomainError(f"basket {b}: max size must be >= 1")
            if not (0.0 < self.theta0[b] < 1.0) or not (0.0 < self.theta1[b] < 1.0):
                raise DomainError(f"basket {b}: rates must lie in (0, 1)")
            if self.theta1[b] <= self.theta0[b]:
                raise DomainError(
                    f"basket {b}: target rate {self.theta1[b]} must exceed null rate {self.theta0[b]}"
                )
        if self.stages == 2:
            if self.interim_sizes is None and self.interim_fraction is None:
                raise DomainError("two-stage designs need interim_fraction or interim_sizes")
            if self.interim_fraction is not None and not (0.0 < self.interim_fraction < 1.0):
                raise DomainError(f"interim_fraction must lie in (0, 1), got {self.interim_fraction}")
            for b, n1 in enumerate(self.stage1_sizes()):
                if not (0 < n1 < self.max_sizes[b]):
                    raise DomainError(
                        f"basket {b}: interim size {n1} must satisfy 0 < n1 < {self.max_sizes[b]}"
                    )

    def stage1_sizes(self) -> tuple[int, ...]:
        """Interim sample sizes; derived as round(t * N) when only a fraction is given."""
        if self.stages == 1:
            return self.max_sizes
        if self.interim_sizes is not None:
            return self.interim_sizes
        return tuple(int(round(self.interim_fraction * n)) for n in self.max_sizes)

    def information_fraction(self) -> float:
        """Fraction of total information available at the interim look (1.0 for one stage)."""
        return sum(self.stage1_sizes()) / sum(self.max_sizes)

    def boundary(self) -> Boundary:
        return stopping_boundary(self.lam, self.gamma, self.information_fraction())

    def partition_set(self, num_baskets: int | None = None) -> PartitionSet:
        return PartitionSet.build(num_baskets or self.num_baskets, self.delta)


@dataclass(frozen=True)
class TrialState:
    """Snapshot of one trial between analyses.

    Stopped baskets never re-enter; their decisions are frozen at the stage
    where the rule fired. A step's returned state carries the step's analysis
    (all baskets at the interim, the survivors at the final look).
    """

    stage: int
    active: tuple[bool, ...]
    data: BasketData
    decisions: tuple[Decision, ...]
    analysis: AnalysisResult | None = field(default=None, compare=False, repr=False)

    @classmethod
    def at_interim(cls, x: Sequence[int], spec: DesignSpec) -> "TrialState":
        data = BasketData.create(x, spec.stage1_sizes())
        return cls(
            stage=STAGE_INTERIM,
            active=tuple(True for _ in range(spec.num_baskets)),
            data=data,
            decisions=tuple(Decision.PENDING for _ in range(spec.num_baskets)),
        )

    def with_final_data(self, x_total: Sequence[int], spec: DesignSpec) -> "TrialState":
        """Attach cumulative counts at the maximum sizes for active baskets.

        Stopped baskets keep their interim counts; their entries in x_total
        are ignored.
        """
        xs = tuple(as_int(v, "x_total") for v in x_total)
        if len(xs) != spec.num_baskets:
            raise ShapeError(f"x_total must have {spec.num_baskets} entries, got {len(xs)}")
        x = tuple(
            xs[b] if self.active[b] else self.data.x[b] for b in range(spec.num_baskets)
        )
        n = tuple(
            spec.max_sizes[b] if self.active[b] else self.data.n[b]
            for b in range(spec.num_baskets)
        )
        return replace(self, data=BasketData.create(x, n, self.data.basket_ids), analysis=None)


def survivor_exceedance(spec: DesignSpec, x, survivors, sizes: Sequence[int]) -> np.ndarray:
    """Exceedance probabilities over each row's survivor set, shape (T, B).

    x holds count rows (T, B), survivors a boolean mask per row and sizes the
    sample size of every basket. Each row is analyzed on its survivors only,
    with partitions re-enumerated over them; baskets outside the set get
    -inf. Rows are grouped by survivor set, and a set's engine depends only
    on its survivors' sample sizes, so an equal-size design needs at most B
    engines.
    """
    x = np.asarray(x, dtype=int)
    survivors = np.asarray(survivors, dtype=bool)
    sizes = np.asarray(sizes, dtype=int)
    theta0 = np.asarray(spec.theta0)
    out = np.full(x.shape, -np.inf)
    sets, group = np.unique(survivors, axis=0, return_inverse=True)
    engines: dict[tuple[int, ...], BatchPosterior] = {}
    for g, keep in enumerate(sets):
        cols = np.flatnonzero(keep)
        if not len(cols):
            continue
        key = tuple(int(v) for v in sizes[cols])
        if key not in engines:
            engines[key] = BatchPosterior(key, spec.partition_set(len(cols)), spec.prior)
        rows = np.flatnonzero(group.ravel() == g)
        out[np.ix_(rows, cols)] = engines[key].exceed_probs(x[np.ix_(rows, cols)], theta0[cols])
    return out


def _look(data: BasketData, spec: DesignSpec, baskets: Sequence[int]) -> AnalysisResult:
    """One analysis of the given baskets, with partitions enumerated over them."""
    sub = BasketData.create(*([v[b] for b in baskets] for v in (data.x, data.n, data.basket_ids)))
    theta0 = [spec.theta0[b] for b in baskets]
    return analyze(sub, prior=spec.prior, theta0=theta0, pset=spec.partition_set(len(baskets)))


def interim_step(state: TrialState, spec: DesignSpec) -> TrialState:
    """Apply the stage-I futility rule to interim data on all baskets."""
    if spec.stages != 2:
        raise DomainError("interim_step applies to two-stage designs only")
    if state.stage != STAGE_INTERIM:
        raise DomainError(f"interim_step needs a stage-1 state, got stage {state.stage}")
    n1 = spec.stage1_sizes()
    if state.data.n != n1:
        raise ShapeError(f"interim data sizes {state.data.n} do not match plan {n1}")
    q1 = spec.boundary().q1
    result = _look(state.data, spec, range(spec.num_baskets))
    active = tuple(p > q1 for p in result.prob_exceeds)
    decisions = tuple(
        Decision.PENDING if keep else Decision.FUTILITY_STOPPED for keep in active
    )
    stage = STAGE_FINAL if any(active) else STAGE_DONE
    return TrialState(
        stage=stage, active=active, data=state.data, decisions=decisions, analysis=result
    )


def final_step(state: TrialState, spec: DesignSpec) -> TrialState:
    """Apply the stage-II efficacy rule over the surviving baskets only.

    Partitions are re-enumerated over the survivors, so data from baskets
    stopped at the interim are fully excluded from borrowing.
    """
    if state.stage != STAGE_FINAL:
        raise DomainError(f"final_step needs a stage-2 state, got stage {state.stage}")
    survivors = [b for b, keep in enumerate(state.active) if keep]
    if not survivors:
        return replace(state, stage=STAGE_DONE, analysis=None)
    for b in survivors:
        if state.data.n[b] != spec.max_sizes[b]:
            raise ShapeError(
                f"basket {b} is active but has {state.data.n[b]} patients, expected {spec.max_sizes[b]}"
            )
    q2 = spec.boundary().q2
    result = _look(state.data, spec, survivors)
    decisions = list(state.decisions)
    for b, p in zip(survivors, result.prob_exceeds):
        decisions[b] = Decision.EFFICACIOUS if p > q2 else Decision.NOT_PROMISING
    return TrialState(
        stage=STAGE_DONE,
        active=tuple(False for _ in state.active),
        data=state.data,
        decisions=tuple(decisions),
        analysis=result,
    )


def run_single_stage(data: BasketData, spec: DesignSpec) -> tuple[Decision, ...]:
    """One analysis over all baskets at their maximum sizes."""
    if spec.stages != 1:
        raise DomainError("run_single_stage applies to single-stage designs only")
    if data.num_baskets != spec.num_baskets:
        raise ShapeError(
            f"data covers {data.num_baskets} baskets, design expects {spec.num_baskets}"
        )
    if data.n != spec.max_sizes:
        raise ShapeError(f"data sizes {data.n} do not match the design sizes {spec.max_sizes}")
    q2 = spec.boundary().q2
    return tuple(
        Decision.EFFICACIOUS if p > q2 else Decision.NOT_PROMISING
        for p in _look(data, spec, range(spec.num_baskets)).prob_exceeds
    )


def run_two_stage(
    x_interim: Sequence[int], x_total: Sequence[int], spec: DesignSpec
) -> TrialState:
    """Convenience driver: interim rule, then final rule on the survivors."""
    state = interim_step(TrialState.at_interim(x_interim, spec), spec)
    if state.stage == STAGE_DONE:
        return state
    return final_step(state.with_final_data(x_total, spec), spec)
