"""Exact Simon two-stage designs as a frequentist baseline.

A design (r1, n1, r, n) stops for futility after n1 patients when at most r1
responses are seen, and declares the treatment promising when the final
response total exceeds r. All error rates here are exact binomial sums, not
simulations, and one table (`_reject_table`) holds every rejection
probability the search and the operating characteristics read. When several
baskets each run the design independently, the caller passes the per-basket
significance level: the paper's family-wise 0.10 over four baskets gives
0.025.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Decision
from .errors import CapacityError, DomainError
from .numerics import binom_pmf
from .simulation import OperatingCharacteristics, Scenario

DEFAULT_N_MAX = 55


@dataclass(frozen=True)
class SimonDesign:
    r1: int
    n1: int
    r: int
    n: int
    alpha_actual: float
    power_actual: float
    en_null: float
    pet_null: float

    def __post_init__(self):
        if not (0 <= self.r1 <= self.n1 < self.n and self.r1 <= self.r <= self.n):
            raise DomainError(f"inconsistent Simon design bounds: {self}")


@dataclass(frozen=True)
class SimonSearchResult:
    minimax: SimonDesign
    optimal: SimonDesign


def _pmf_vector(n: int, p: float) -> np.ndarray:
    return np.array([binom_pmf(k, n, p) for k in range(n + 1)])


def _reject_table(pmf1: np.ndarray, pmf2: np.ndarray) -> np.ndarray:
    """rej[i, r] = P(X1 >= i and X1 + X2 > r) for i in 0..n1 + 1 and r in 0..n.

    pmf1 and pmf2 are the stage-1 and stage-2 response pmfs. A design with
    bounds (r1, r) rejects with probability rej[r1 + 1, r]; row n1 + 1
    (r1 = n1) and column n (r = n) never reject and hold 0.
    """
    n1, n2 = len(pmf1) - 1, len(pmf2) - 1
    tail2 = np.concatenate((pmf2[::-1].cumsum()[::-1], [0.0]))  # tail2[j] = P(X2 >= j)
    x1, r = np.arange(n1 + 1)[:, None], np.arange(n1 + n2 + 1)[None, :]
    j = np.clip(r - x1 + 1, 0, n2 + 1)  # tail2[j] = P(X2 > r - x1)
    rej = np.zeros((n1 + 2, n1 + n2 + 1))
    rej[:-1] = (pmf1[:, None] * tail2[j])[::-1].cumsum(axis=0)[::-1]  # suffix sum over x1
    return rej


def reject_probability(design: SimonDesign, p: float) -> float:
    """Exact probability of declaring the treatment promising at true rate p."""
    pmf1, pmf2 = _pmf_vector(design.n1, p), _pmf_vector(design.n - design.n1, p)
    return float(_reject_table(pmf1, pmf2)[design.r1 + 1, design.r])


def expected_size(design: SimonDesign, p: float) -> float:
    pet = float(_pmf_vector(design.n1, p).cumsum()[design.r1])
    return design.n1 + (1.0 - pet) * (design.n - design.n1)


def simon_search(
    p0: float, p1: float, alpha: float, beta: float, n_max: int = DEFAULT_N_MAX
) -> SimonSearchResult:
    """Exhaustive search for the minimax and optimal two-stage designs.

    Feasibility requires exact type I error <= alpha at p0 and exact power
    >= 1 - beta at p1. Minimax has the smallest total n (ties by smaller
    expected null size); optimal has the smallest expected size under p0.
    """
    if not (0.0 < p0 < p1 < 1.0):
        raise DomainError(f"need 0 < p0 < p1 < 1, got p0={p0}, p1={p1}")
    if not (0.0 < alpha < 1.0 and 0.0 < beta < 1.0):
        raise DomainError(f"alpha and beta must lie in (0, 1), got {alpha}, {beta}")

    pmfs_p0 = [_pmf_vector(size, p0) for size in range(n_max + 1)]
    pmfs_p1 = [_pmf_vector(size, p1) for size in range(n_max + 1)]
    minimax: SimonDesign | None = None
    optimal: SimonDesign | None = None
    for n in range(2, n_max + 1):
        for n1 in range(1, n):
            n2 = n - n1
            rej_p0 = _reject_table(pmfs_p0[n1], pmfs_p0[n2])
            rej_p1 = _reject_table(pmfs_p1[n1], pmfs_p1[n2])
            cum1_p0 = pmfs_p0[n1].cumsum()
            for r1 in range(0, n1):
                # Alpha falls with r and is 0 at r = n, which has no power.
                r = r1 + int(np.argmax(rej_p0[r1 + 1, r1:] <= alpha))  # smallest r meeting alpha
                power = float(rej_p1[r1 + 1, r])
                if power < 1.0 - beta:
                    continue  # larger r only lowers power further
                pet = float(cum1_p0[r1])
                cand = SimonDesign(
                    r1=r1,
                    n1=n1,
                    r=r,
                    n=n,
                    alpha_actual=float(rej_p0[r1 + 1, r]),
                    power_actual=power,
                    en_null=n1 + (1.0 - pet) * n2,
                    pet_null=pet,
                )
                if minimax is None or (cand.n, cand.en_null) < (minimax.n, minimax.en_null):
                    minimax = cand
                if optimal is None or (cand.en_null, cand.n, cand.n1) < (
                    optimal.en_null,
                    optimal.n,
                    optimal.n1,
                ):
                    optimal = cand
    if minimax is None or optimal is None:
        raise CapacityError(
            f"no two-stage design with n <= {n_max} meets alpha={alpha}, power={1 - beta}"
        )
    return SimonSearchResult(minimax=minimax, optimal=optimal)


def simon_decide(design: SimonDesign, x1: int, x_total: int | None = None) -> Decision:
    """Apply the design's rules to observed counts.

    With only stage-1 data the outcome is futility stop or continue; with the
    final total it is efficacious or not promising.
    """
    if not (0 <= x1 <= design.n1):
        raise DomainError(f"x1 must lie in [0, {design.n1}], got {x1}")
    stopped = x1 <= design.r1
    if x_total is None:
        return Decision.FUTILITY_STOPPED if stopped else Decision.CONTINUE
    if stopped:
        if x_total != x1:
            raise DomainError(
                f"trial stopped at stage 1 with {x1} responses; x_total={x_total} is inconsistent"
            )
        return Decision.FUTILITY_STOPPED
    if not (x1 <= x_total <= design.n):
        raise DomainError(f"x_total must lie in [{x1}, {design.n}], got {x_total}")
    return Decision.EFFICACIOUS if x_total > design.r else Decision.NOT_PROMISING


def simon_oc(design: SimonDesign, scenario: Scenario) -> OperatingCharacteristics:
    """Exact operating characteristics when each basket runs the design
    independently. Baskets are independent, so the family-wise error rate is
    one minus the product of per-null-basket non-rejection probabilities."""
    rates = tuple(reject_probability(design, p) for p in scenario.true_rates)
    null_rates = [r for r, prom in zip(rates, scenario.promising) if not prom]
    fwer = None
    if null_rates:
        keep = 1.0
        for r in null_rates:
            keep *= 1.0 - r
        fwer = 1.0 - keep
    if any(scenario.promising):
        promising_rates = [r for r, prom in zip(rates, scenario.promising) if prom]
        # Equal basket sizes by construction. Equal rates are reported as
        # they are: their mean can be an ulp away.
        if len(set(promising_rates)) == 1:
            trialwise = promising_rates[0]
        else:
            trialwise = float(np.mean(promising_rates))
    else:
        trialwise = None
    expected_n = tuple(expected_size(design, p) for p in scenario.true_rates)
    return OperatingCharacteristics(
        per_basket_reject_rate=rates,
        fwer=fwer,
        trialwise_power=trialwise,
        expected_n=expected_n,
        n_sims=None,
        seed=None,
    )
