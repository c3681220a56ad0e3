"""Special functions and deterministic random-number streams.

Everything here is evaluated on the natural-log scale where underflow is a
risk. All functions are pure and accept either Python scalars or numpy
arrays; scalar inputs yield scalar outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_LN_SQRT_2PI = 0.9189385332046727417803297364056176
_LN_PI = 1.1447298858494001741434273513530587

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Stirling-series coefficients B_{2n} / (2n (2n-1)) for the log-gamma
# correction term; truncation error is below 3e-17 once x >= 10.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_BETACF_TOL = 1e-12
_BETACF_MAX_ITER = 300
_FPMIN = 1e-300


def _as_float_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return arr


def _maybe_scalar(arr, scalar: bool):
    return float(arr) if scalar else arr


def _lgammacor(x):
    """Correction del(x) with lgamma(x) = ln sqrt(2 pi) + (x-.5) ln x - x + del(x), x >= 10."""
    inv2 = 1.0 / (x * x)
    acc = np.full_like(x, _STIRLING_COEFFS[-1])
    for c in reversed(_STIRLING_COEFFS[:-1]):
        acc = acc * inv2 + c
    return acc / x


def _lanczos_positive(x):
    # valid for x >= 0.5
    acc = np.full_like(x, _LANCZOS_COEFFS[0])
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc = acc + c / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return _LN_SQRT_2PI + (x - 0.5) * np.log(t) - t + np.log(acc)


def log_gamma(x):
    """Natural log of the Gamma function for x > 0.

    Lanczos approximation with the reflection formula below x = 0.5.
    """
    scalar = np.isscalar(x)
    arr = _as_float_array(x, "x")
    if np.any(arr <= 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = arr < 0.5
    if np.any(small):
        xs = arr[small]
        out[small] = _LN_PI - np.log(np.sin(np.pi * xs)) - _lanczos_positive(1.0 - xs)
    if np.any(~small):
        out[~small] = _lanczos_positive(arr[~small])
    return _maybe_scalar(out[0] if scalar else out.reshape(np.shape(x)), scalar)


def log_beta(a, b):
    """ln B(a, b) for a, b > 0.

    Computed as lgamma(a) + lgamma(b) - lgamma(a + b) for small arguments and
    with Stirling corrections for large ones, which avoids the cancellation
    the three-term form suffers when a + b is large. Exactly symmetric in
    (a, b) because arguments are sorted before evaluation.
    """
    scalar = np.isscalar(a) and np.isscalar(b)
    aa = _as_float_array(a, "a")
    bb = _as_float_array(b, "b")
    if np.any(aa <= 0.0) or np.any(bb <= 0.0):
        raise DomainError(f"log_beta requires a, b > 0, got a={a!r}, b={b!r}")
    aa, bb = np.broadcast_arrays(np.atleast_1d(aa), np.atleast_1d(bb))
    p = np.minimum(aa, bb)
    q = np.maximum(aa, bb)
    out = np.empty_like(p)

    big = p >= 10.0
    if np.any(big):
        pp, qq = p[big], q[big]
        corr = _lgammacor(pp) + _lgammacor(qq) - _lgammacor(pp + qq)
        out[big] = (
            -0.5 * np.log(qq)
            + _LN_SQRT_2PI
            + corr
            + (pp - 0.5) * np.log(pp / (pp + qq))
            + qq * np.log1p(-pp / (pp + qq))
        )
    mid = (~big) & (q >= 10.0)
    if np.any(mid):
        pp, qq = p[mid], q[mid]
        corr = _lgammacor(qq) - _lgammacor(pp + qq)
        out[mid] = (
            log_gamma(pp)
            + corr
            + pp
            - pp * np.log(pp + qq)
            + (qq - 0.5) * np.log1p(-pp / (pp + qq))
        )
    rest = (~big) & (~mid)
    if np.any(rest):
        pp, qq = p[rest], q[rest]
        out[rest] = log_gamma(pp) + log_gamma(qq) - log_gamma(pp + qq)
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    return _maybe_scalar(out[0] if scalar else out.reshape(shape), scalar)


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz).

    Element-wise on arrays; each element's value is frozen the moment it
    converges, so results do not depend on what else shares the batch.
    Raises ConvergenceError if any element is still moving after
    _BETACF_MAX_ITER iterations.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
    d = 1.0 / d
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2.0 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _FPMIN, _FPMIN, c)
        d = 1.0 / d
        h = np.where(converged, h, h * d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
        c = 1.0 + aa / c
        c = np.where(np.abs(c) < _FPMIN, _FPMIN, c)
        d = 1.0 / d
        delt = d * c
        h = np.where(converged, h, h * delt)
        converged |= np.abs(delt - 1.0) < _BETACF_TOL
        if converged.all():
            return h
    bad = np.flatnonzero(~converged)[0]
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge in {_BETACF_MAX_ITER} "
        f"iterations at a={float(a[bad])}, b={float(b[bad])}, x={float(x[bad])}"
    )


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], a, b > 0.

    Continued-fraction evaluation; switches to 1 - I_{1-x}(b, a) when
    x > (a + 1)/(a + b + 2) where the direct fraction converges slowly.
    """
    scalar = np.isscalar(x) and np.isscalar(a) and np.isscalar(b)
    xx = _as_float_array(x, "x")
    aa = _as_float_array(a, "a")
    bb = _as_float_array(b, "b")
    if np.any(xx < 0.0) or np.any(xx > 1.0):
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got x={x!r}")
    if np.any(aa <= 0.0) or np.any(bb <= 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a!r}, b={b!r}")
    shape = np.broadcast_shapes(np.shape(xx), np.shape(aa), np.shape(bb))
    xx, aa, bb = (np.broadcast_to(v, shape).astype(float) for v in (xx, aa, bb))
    xx, aa, bb = np.atleast_1d(xx.copy()), np.atleast_1d(aa.copy()), np.atleast_1d(bb.copy())

    swap = xx > (aa + 1.0) / (aa + bb + 2.0)
    ax = np.where(swap, bb, aa)
    bx = np.where(swap, aa, bb)
    tx = np.where(swap, 1.0 - xx, xx)

    interior = (tx > 0.0) & (tx < 1.0)
    val = np.zeros_like(tx)
    if np.any(interior):
        ai, bi, ti = ax[interior], bx[interior], tx[interior]
        log_front = ai * np.log(ti) + bi * np.log1p(-ti) - log_beta(ai, bi)
        val[interior] = np.exp(log_front) * _betacf(ai, bi, ti) / ai
    val[tx >= 1.0] = 1.0
    out = np.where(swap, 1.0 - val, val)
    out = np.clip(out, 0.0, 1.0)
    return _maybe_scalar(out[0] if scalar else out.reshape(shape), scalar)


def log_choose(n: int, k: int) -> float:
    """ln C(n, k). Exact combinatorics below n = 1000, lgamma form above."""
    if not (0 <= k <= n):
        raise DomainError(f"log_choose requires 0 <= k <= n, got n={n}, k={k}")
    if n <= 1000:
        return math.log(math.comb(n, k))
    return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)


def _check_counts(k: int, n: int, p: float) -> None:
    if n < 0 or k < 0 or k > n:
        raise DomainError(f"require 0 <= k <= n, got k={k}, n={n}")
    if not (0.0 <= p <= 1.0) or not math.isfinite(p):
        raise DomainError(f"require p in [0, 1], got p={p}")


def binom_pmf(k: int, n: int, p: float) -> float:
    """P(X = k) for X ~ Binomial(n, p), evaluated on the log scale."""
    _check_counts(k, n, p)
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    return math.exp(log_choose(n, k) + k * math.log(p) + (n - k) * math.log1p(-p))


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    _check_counts(k, n, p)
    if k == n:
        return 1.0
    return min(1.0, math.fsum(binom_pmf(j, n, p) for j in range(k + 1)))


def binom_sf(k: int, n: int, p: float) -> float:
    """P(X > k), summed from the upper tail so small values keep full precision."""
    _check_counts(k, n, p)
    return math.fsum(binom_pmf(j, n, p) for j in range(k + 1, n + 1))


def log_sum_exp(values, axis=None):
    """log(sum(exp(values))), safe against -inf entries and underflow."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -np.inf
    m = np.max(arr, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(arr - m_safe), axis=axis, keepdims=True)) + m_safe
    out = np.where(np.all(np.isneginf(arr), axis=axis, keepdims=True), -np.inf, out)
    if axis is None:
        return float(out.ravel()[0])
    return np.squeeze(out, axis=axis)


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    The same (master_seed, path) pair always produces the same generator
    state; distinct paths give statistically independent streams. Paths are
    tuples of non-negative indices such as (trial, basket, stage), so results
    never depend on how work is split across workers.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise DomainError(f"master_seed must be an unsigned 64-bit int, got {self.master_seed}")
        if any(int(i) < 0 for i in self.path):
            raise DomainError(f"stream path indices must be non-negative, got {self.path}")
        object.__setattr__(self, "path", tuple(int(i) for i in self.path))

    def child(self, *indices: int) -> "RngStream":
        return RngStream(self.master_seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=int(self.master_seed), spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def binomial_draw(stream: RngStream, n: int, p: float) -> int:
    """One Binomial(n, p) draw, a pure function of (stream, n, p)."""
    if n < 0:
        raise DomainError(f"binomial_draw requires n >= 0, got {n}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"binomial_draw requires p in [0, 1], got {p}")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return int(n)
    return int(stream.generator().binomial(n, p))
