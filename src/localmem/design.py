"""Go/no-go decision engine for single-stage and two-stage basket designs.

Stage I analyzes all baskets together at their interim sizes and stops
accrual for futility in any basket whose exceedance probability falls at or
below q1. Stage II re-analyzes only the surviving baskets at their maximum
sizes, re-enumerating partitions over the survivors so dropped baskets
contribute no data, and declares efficacy where the exceedance probability
exceeds q2.

A single trial's look is one checked step behind :func:`interim_step`,
:func:`final_step` and :func:`run_single_stage` (a single-stage design's only
look is its final look, stage 2). A trial's baskets are active while their
decisions are PENDING. The step refuses a state that does not match the plan
(an interim look on a single-stage design, a basket already decided, a
stopped basket at the interim or in a single-stage design, no active basket,
a basket off its planned size, a basket count other than the design's), then
makes one :func:`~localmem.posterior.analyze` call over the active baskets
and applies the stage's cutoff. Simulated batches go through
:func:`survivor_exceedance`, which analyzes each distinct (survivor set,
survivor counts) row once: with few baskets and small cohorts most simulated
trials repeat another's counts. Both reach the same engine, borrowing step
and exceedance step, so the two agree bit for bit; a batch passes the cells
of all its engines to one exceedance step, the one dedup of those cells.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError, ShapeError
from .numerics import _distinct_rows, as_int
from .partitions import MAX_BASKETS
from .posterior import (
    DEFAULT_PRIOR,
    AnalysisResult,
    BasketData,
    BatchPosterior,
    BetaParams,
    _exceedance,
    analyze,
)

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
        if self.interim_sizes is not None and self.interim_fraction is not None:
            raise DomainError("give interim_fraction or interim_sizes, not both")
        if self.stages == 1 and (self.interim_sizes, self.interim_fraction) != (None, None):
            raise DomainError("a single-stage design has no interim look")
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
        # The (lam, gamma) checks live in stopping_boundary.
        self.boundary()

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


@dataclass(frozen=True)
class TrialState:
    """Snapshot of one trial between analyses.

    The active baskets are the ones still PENDING (:attr:`active`): a stopped
    basket is one whose decision says so, frozen at the stage where the rule
    fired, and it never re-enters. Decisions are held as Decision members
    ("pending" becomes Decision.PENDING). A step's returned state carries the
    step's analysis (all baskets at the interim, the survivors at the final look).
    """

    stage: int
    data: BasketData
    decisions: tuple[Decision, ...]
    analysis: AnalysisResult | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "decisions", tuple(map(Decision, self.decisions)))
        except ValueError as err:
            raise DomainError(f"decisions {self.decisions!r}: {err}") from None

    @property
    def active(self) -> tuple[bool, ...]:
        """One flag per basket: its decision is still PENDING."""
        return tuple(d is Decision.PENDING for d in self.decisions)

    @classmethod
    def at_interim(cls, x: Sequence[int], spec: DesignSpec) -> "TrialState":
        return cls(
            stage=STAGE_INTERIM,
            data=BasketData.create(x, spec.stage1_sizes()),
            decisions=(Decision.PENDING,) * spec.num_baskets,
        )

    def with_final_data(self, x_total: Sequence[int], spec: DesignSpec) -> "TrialState":
        """Attach cumulative counts at the maximum sizes for active baskets.

        Stopped baskets keep their interim counts; their entries in x_total
        are ignored.
        """
        xs = tuple(as_int(v, "x_total") for v in x_total)
        if len(xs) != spec.num_baskets:
            raise ShapeError(f"x_total must have {spec.num_baskets} entries, got {len(xs)}")
        active = self.active
        x = tuple(xs[b] if active[b] else self.data.x[b] for b in range(spec.num_baskets))
        n = tuple(
            spec.max_sizes[b] if active[b] else self.data.n[b] for b in range(spec.num_baskets)
        )
        return replace(self, data=BasketData.create(x, n, self.data.basket_ids), analysis=None)


def survivor_exceedance(spec: DesignSpec, x, survivors, sizes: Sequence[int]) -> np.ndarray:
    """Exceedance probabilities over each row's survivor set, shape (T, B).

    x holds count rows (T, B), survivors a boolean mask per row and sizes the
    sample size of every basket. Each row is analyzed on its survivors only,
    with partitions re-enumerated over them; baskets outside the set get
    -inf. Rows are independent of their batch, so each distinct (survivor
    set, survivor counts) row is analyzed once and copied to its duplicates,
    matched exactly, never up to a permutation. An engine depends only on its
    survivors' sample sizes, so the distinct rows of every survivor set with
    the same size tuple go through one engine and one
    :meth:`~localmem.posterior.BatchPosterior.borrow_params` call; an
    equal-size design needs at most B engines. The (theta0, alpha, beta)
    cells of every engine go through one exceedance step, which alone
    deduplicates them: a call makes one incomplete beta call, or none when
    nothing survives.
    """
    survivors = np.asarray(survivors, dtype=bool)
    x = np.asarray(x)
    # A row's key: its survivors' counts, -1 elsewhere, in the narrowest
    # signed dtype that holds every count (int8 up to 127). Only the first
    # row with each key is analyzed; inverse maps every row to it.
    low = min(int(x.min(initial=0)), -1 - int(x.max(initial=0)))
    key = np.full(x.shape, -1, dtype=np.min_scalar_type(low))
    np.copyto(key, x, casting="unsafe", where=survivors)
    pick, inverse = _distinct_rows(key.T)
    x, survivors = key[pick], survivors[pick]
    del key, pick
    sizes = np.asarray(sizes, dtype=int)
    width = x.shape[1]
    # Each engine's cells: their flat positions in x, alpha and beta.
    cells = []
    # One int per row: its survivor set as a basket bitmask.
    bits = np.arange(width)
    codes, group = np.unique(survivors @ (1 << bits), return_inverse=True)
    # Size tuple -> (rows, survivor columns) of each set with those sizes.
    batches: dict[tuple[int, ...], list[tuple[np.ndarray, np.ndarray]]] = {}
    for g, code in enumerate(codes):
        cols = np.flatnonzero(code >> bits & 1)
        if len(cols):
            key = tuple(int(v) for v in sizes[cols])
            batches.setdefault(key, []).append((np.flatnonzero(group == g), cols))
    for key, sets in batches.items():
        rows = np.concatenate([r for r, _ in sets])[:, None]
        cols = np.concatenate([np.broadcast_to(c, (len(r), len(c))) for r, c in sets])
        alpha, beta = BatchPosterior(key, spec.delta, spec.prior).borrow_params(x[rows, cols])[:2]
        cells.append(((rows * width + cols).ravel(), alpha.ravel(), beta.ravel()))
    probs = np.full(x.shape, -np.inf)
    if cells:
        at, alpha, beta = map(np.concatenate, zip(*cells))
        del cells  # the engines' arrays, freed before the exceedance step's temporaries
        probs.flat[at] = _exceedance(np.take(spec.theta0, at % width), alpha, beta)
    return probs[inverse]


def _step(state: TrialState, spec: DesignSpec, stage: int) -> TrialState:
    """One look of a trial: the only code that checks and applies it.

    The interim look needs a two-stage design and every basket active; the
    final look serves either design (a single-stage design's stage-1 sizes
    are its maximum sizes) and needs every basket active in a single-stage
    design, at least one in a two-stage design. A basket enters a look
    PENDING or FUTILITY_STOPPED. Every basket is at its interim size, except
    an active basket at the final look, at its maximum. The look analyzes the
    PENDING baskets only and compares their exceedance probabilities with q1
    at the interim (PENDING or FUTILITY_STOPPED) and q2 at the final look
    (EFFICACIOUS or NOT_PROMISING); the other baskets keep their decisions.
    """
    if state.stage != stage:
        raise DomainError(f"the stage-{stage} look needs a stage-{stage} state, got stage {state.stage}")
    if stage == STAGE_INTERIM and spec.stages != 2:
        raise DomainError("a single-stage design has no interim look; its one look is stage 2")
    if len(state.decisions) != spec.num_baskets or state.data.num_baskets != spec.num_baskets:
        raise ShapeError(
            f"the decisions and the data must cover {spec.num_baskets} baskets, "
            f"got {len(state.decisions)} and {state.data.num_baskets}"
        )
    look = "interim" if stage == STAGE_INTERIM else "final"
    for b, d in enumerate(state.decisions):
        if d not in (Decision.PENDING, Decision.FUTILITY_STOPPED):
            raise DomainError(f"basket {b} is {d.value} before the {look} look, which takes only pending or stopped")
    active = state.active
    if (stage == STAGE_INTERIM or spec.stages == 1) and not all(active):
        raise DomainError(f"a {spec.stages}-stage design's {look} look needs every basket active")
    if not any(active):
        raise DomainError("stage 2 needs at least one active basket")
    n1 = spec.stage1_sizes()
    for b, keep in enumerate(active):
        full = keep and stage == STAGE_FINAL
        size = spec.max_sizes[b] if full else n1[b]
        if state.data.n[b] != size:
            note = "" if keep else (
                "; a stopped basket keeps its interim size and cannot re-enter the active set"
            )
            raise ShapeError(
                f"basket {b} is listed as {'active' if keep else 'stopped'} at the {look} look "
                f"but has n={state.data.n[b]}, expected its {'maximum' if full else 'interim'} "
                f"size {size}{note}"
            )
    # One analysis of the active baskets, with partitions enumerated over them.
    baskets = [b for b, keep in enumerate(active) if keep]
    data = state.data
    sub = BasketData.create(*([v[b] for b in baskets] for v in (data.x, data.n, data.basket_ids)))
    theta0 = [spec.theta0[b] for b in baskets]
    result = analyze(sub, delta=spec.delta, prior=spec.prior, theta0=theta0)
    boundary = spec.boundary()
    decisions = list(state.decisions)
    for b, p in zip(baskets, result.prob_exceeds):
        if stage == STAGE_INTERIM:
            decisions[b] = Decision.PENDING if p > boundary.q1 else Decision.FUTILITY_STOPPED
        else:
            decisions[b] = Decision.EFFICACIOUS if p > boundary.q2 else Decision.NOT_PROMISING
    return TrialState(
        stage=STAGE_FINAL if Decision.PENDING in decisions else STAGE_DONE,
        data=state.data,
        decisions=tuple(decisions),
        analysis=result,
    )


def interim_step(state: TrialState, spec: DesignSpec) -> TrialState:
    """Apply the stage-I futility rule to a two-stage design's interim data."""
    return _step(state, spec, STAGE_INTERIM)


def final_step(state: TrialState, spec: DesignSpec) -> TrialState:
    """Apply the stage-II efficacy rule over the surviving baskets only.

    Partitions are re-enumerated over the survivors, so data from baskets
    stopped at the interim are fully excluded from borrowing. It is also a
    single-stage design's one look, with every basket active.
    """
    return _step(state, spec, STAGE_FINAL)


def run_single_stage(data: BasketData, spec: DesignSpec) -> tuple[Decision, ...]:
    """The one look of a single-stage design: every basket at its maximum
    size against q2: :func:`final_step` on a state with every basket PENDING."""
    if spec.stages != 1:
        raise DomainError(f"run_single_stage needs a single-stage design, got {spec.stages} stages")
    state = TrialState(STAGE_FINAL, data, (Decision.PENDING,) * data.num_baskets)
    return final_step(state, spec).decisions


def run_two_stage(
    x_interim: Sequence[int], x_total: Sequence[int], spec: DesignSpec
) -> TrialState:
    """Convenience driver: interim rule, then final rule on the survivors."""
    state = interim_step(TrialState.at_interim(x_interim, spec), spec)
    if state.stage == STAGE_DONE:
        return state
    return final_step(state.with_final_data(x_total, spec), spec)
