"""Special functions and deterministic random-number streams.

Everything here is evaluated on the natural-log scale where underflow is a
risk. All functions are pure and accept either Python scalars or numpy
arrays; scalar inputs yield scalar outputs.

The incomplete beta's continued fraction (_betacf) runs the modified-Lentz
recurrence on whole arrays and freezes each element as it converges, so an
element's value never depends on what else shares the call.

Random draws come from one stream per key, such as (trial, basket, stage):
the stream of key k under a master seed is numpy's
Generator(PCG64(SeedSequence(seed, spawn_key=k))). binomial_draws makes the
first binomial draw of many streams in one numpy pass, for one row of
probabilities or for several that share the streams (one per scenario), and
derives each stream's state once for all of them. It hashes the seed's words
into SeedSequence(seed).pool (O'Neill's seed_seq) on Python ints, mixes the
key words into that pool in uint32 arithmetic over all keys, turns each
row's seed words into its PCG64 (state, inc) held as uint64 hi/lo limbs, and
steps the 128-bit state with products built from 32-bit halves. Rows in
numpy's inversion branch are then drawn together by one threshold lookup
that gives numpy's inversion draw exactly (_inversion); the few rows numpy
draws by BTPE go through one Generator set to their state, the only use of
numpy.random here. The draws therefore equal those of a fresh generator per stream as
long as numpy keeps SeedSequence, PCG64 and its binomial samplers
stream-compatible, which its NEP 19 policy promises and tests check, at
random keys and at crafted states on the sampler's thresholds. Each key
must be below 2^32: SeedSequence hashes a larger key as two words, which
the fixed-width hash here does not reproduce, so such a key raises
CapacityError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, ConvergenceError, DomainError, ShapeError

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


def _log_gamma(x):
    """log_gamma of a checked 1-D array of positive values."""
    out = np.empty_like(x)
    small = x < 0.5
    if np.any(small):
        xs = x[small]
        out[small] = _LN_PI - np.log(np.sin(np.pi * xs)) - _lanczos_positive(1.0 - xs)
    if not np.all(small):
        out[~small] = _lanczos_positive(x[~small])
    return out


def log_gamma(x):
    """Natural log of the Gamma function for x > 0.

    Lanczos approximation with the reflection formula below x = 0.5.
    """
    scalar = np.isscalar(x)
    arr = _as_float_array(x, "x")
    if np.any(arr <= 0.0):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    out = _log_gamma(arr.ravel())
    return _maybe_scalar(out[0] if scalar else out.reshape(np.shape(x)), scalar)


def log_beta(a, b):
    """ln B(a, b) for a, b > 0.

    Computed as lgamma(a) + lgamma(b) - lgamma(a + b) for small arguments and
    with Stirling corrections for large ones, which avoids the cancellation
    the three-term form suffers when a + b is large. Exactly symmetric in
    (a, b) because arguments are sorted before evaluation. Each element takes
    one branch by its own (min, max), and the branches' log-gamma terms go
    through one _log_gamma pass and their corrections through one _lgammacor
    pass, so an element's value does not depend on what else shares the call.
    """
    scalar = np.isscalar(a) and np.isscalar(b)
    aa = _as_float_array(a, "a")
    bb = _as_float_array(b, "b")
    if np.any(aa <= 0.0) or np.any(bb <= 0.0):
        raise DomainError(f"log_beta requires a, b > 0, got a={a!r}, b={b!r}")
    aa, bb = np.broadcast_arrays(np.atleast_1d(aa), np.atleast_1d(bb))
    p = np.minimum(aa, bb).ravel()
    q = np.maximum(aa, bb).ravel()
    big = p >= 10.0
    mid = (~big) & (q >= 10.0)
    rest = (~big) & (~mid)
    pb, qb, pm, qm, pr, qr = p[big], q[big], p[mid], q[mid], p[rest], q[rest]
    sb, sm, sr = pb + qb, pm + qm, pr + qr
    nb, nm, nr = len(pb), len(pm), len(pr)
    cp, cq, cs, cqm, csm = np.split(
        _lgammacor(np.concatenate((pb, qb, sb, qm, sm))), np.cumsum((nb, nb, nb, nm))
    )
    gm, gp, gq, gs = np.split(_log_gamma(np.concatenate((pm, pr, qr, sr))), np.cumsum((nm, nr, nr)))
    out = np.empty_like(p)
    out[big] = (
        -0.5 * np.log(qb)
        + _LN_SQRT_2PI
        + (cp + cq - cs)
        + (pb - 0.5) * np.log(pb / sb)
        + qb * np.log1p(-pb / sb)
    )
    out[mid] = gm + (cqm - csm) + pm - pm * np.log(sm) + (qm - 0.5) * np.log1p(-pm / sm)
    out[rest] = gp + gq - gs
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    return _maybe_scalar(out[0] if scalar else out.reshape(shape), scalar)


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz).

    Element-wise on arrays, as the recurrence of Numerical Recipes' betacf
    on whole-array temporaries: each iteration is its two half-steps, with
    np.where raising d and c to _FPMIN and keeping h fixed where an element
    has converged, so an element's value is frozen the moment it converges
    and never depends on what else shares the call. Returns the fraction and
    the mask of elements that converged within _BETACF_MAX_ITER iterations;
    the fraction is not final where that mask is False.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    d = np.where(np.abs(d) < _FPMIN, _FPMIN, d)
    d = 1.0 / d
    h = d
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
            break
    return h, converged


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], a, b > 0.

    Continued-fraction evaluation; switches to 1 - I_{1-x}(b, a) when
    x > (a + 1)/(a + b + 2) where the direct fraction converges slowly.
    Raises ConvergenceError, naming the caller's x, a and b, where the
    fraction does not converge in _BETACF_MAX_ITER iterations or a swapped x
    is too small for 1 - x to differ from 1.
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
    xx, aa, bb = (np.atleast_1d(np.broadcast_to(v, shape).astype(float)) for v in (xx, aa, bb))

    swap = xx > (aa + 1.0) / (aa + bb + 2.0)
    ax = np.where(swap, bb, aa)
    bx = np.where(swap, aa, bb)
    tx = np.where(swap, 1.0 - xx, xx)
    # A swapped x below about 2^-54 (reached once b exceeds about 2^54 (a + 1))
    # rounds 1 - x to 1, and neither fraction can then resolve I.
    lost = tx >= 1.0
    if np.any(lost):
        i = np.flatnonzero(lost)[0]
        raise ConvergenceError(
            f"reg_inc_beta cannot resolve 1 - x at x={float(xx[i])!r}, "
            f"a={float(aa[i])!r}, b={float(bb[i])!r}"
        )

    interior = (tx > 0.0) & (tx < 1.0)
    val = np.zeros_like(tx)
    if np.any(interior):
        ai, bi, ti = ax[interior], bx[interior], tx[interior]
        frac, converged = _betacf(ai, bi, ti)
        if not converged.all():
            i = np.flatnonzero(interior)[np.flatnonzero(~converged)[0]]
            raise ConvergenceError(
                f"incomplete beta continued fraction did not converge in {_BETACF_MAX_ITER} "
                f"iterations at x={float(xx[i])!r}, a={float(aa[i])!r}, b={float(bb[i])!r}"
            )
        log_front = ai * np.log(ti) + bi * np.log1p(-ti) - log_beta(ai, bi)
        val[interior] = np.exp(log_front) * frac / ai
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


def as_int(value, name: str):
    """An integral value as an int, or an array of them as an integer array.

    Any numeric type is accepted (2, 2.0, np.int64(2)); a fractional,
    non-finite or non-numeric value raises DomainError, so no count is ever
    silently truncated.
    """
    if np.ndim(value) == 0:
        try:
            if int(value) == value:
                return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        raise DomainError(f"{name} must be an integer, got {value!r}")
    arr = np.asarray(value)
    if arr.dtype.kind in "biu":
        return arr
    if arr.dtype.kind != "f" or not (np.isfinite(arr) & (arr == np.round(arr))).all():
        raise DomainError(f"{name} must hold integers, got {arr.tolist()!r}")
    return arr.astype(np.int64)


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


# numpy's SeedSequence (O'Neill's seed_seq) with its default pool of four
# uint32 words, and the multiplier of numpy's PCG64 (PCG XSL-RR 128/64).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG64_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
_ONE = np.uint64(1)
# numpy draws a binomial by inversion when min(p, 1 - p) * n is at most this.
_INVERSION_MAX_MEAN = 30.0
# An inversion row whose double lies within this many units of 2^-53 of a
# cut of the lookup runs numpy's chain instead; the chain's own cuts lie
# within 2 * 85 + 2 units of the lookup's.
_LOOKUP_MARGIN = 2**13


class _Hasher:
    """SeedSequence's multiply-xorshift hash with its running multiplier.

    The multiplier sequence depends only on how many words were hashed
    before, never on their values, so one hasher serves every row at once.
    A word is a Python int or a uint32 array: the constants are plain ints
    below 2^32, and the mask keeps an int product to 32 bits.
    """

    def __init__(self, init: int, mult: int):
        self.const = init
        self.mult = mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> 16


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
    return result ^ result >> 16


def _seed_words(seed: int, keys: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=row).generate_state(4, np.uint64)
    for every row of keys, as an (N, 4) uint64 array.

    The entropy is the seed's uint32 words, low word first, zero-padded to
    the pool size, then one word per key column (every key is < 2^32). The
    seed words are the same in every row, so their pool (SeedSequence(seed)
    .pool) is hashed once on Python ints: one hash per pool word, then a mix
    for each ordered pair of distinct words. The key words continue the hash from
    there, on one-element uint32 arrays that broadcast to N rows.
    """
    hashmix = _Hasher(_INIT_A, _MULT_A)
    pool = [hashmix(seed >> 32 * i & _MASK32) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    pool = [np.array([word], dtype=np.uint32) for word in pool]
    for word in keys.astype(np.uint32).T:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _Hasher(_INIT_B, _MULT_B)
    words = np.empty((len(keys), _POOL_SIZE), dtype=np.uint64)
    for k in range(_POOL_SIZE):
        low = output(pool[2 * k % _POOL_SIZE]).astype(np.uint64)
        high = output(pool[(2 * k + 1) % _POOL_SIZE]).astype(np.uint64)
        words[:, k] = low | high << np.uint64(32)
    return words


def _mul_wide(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """The full 128-bit products of uint64 values, as (hi, lo), from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (p00 & _LOW32) | (mid << _SHIFT32)
    hi = a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_step(s_hi, s_lo, i_hi, i_lo) -> tuple[np.ndarray, np.ndarray]:
    """state * MULT + inc mod 2^128, on (hi, lo) limbs."""
    hi, lo = _mul_wide(s_lo, _PCG64_MULT_LO)
    return _add128(hi + s_hi * _PCG64_MULT_LO + s_lo * _PCG64_MULT_HI, lo, i_hi, i_lo)


def _pcg64_limbs(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (state, inc) PCG64 seeds itself with from (N, 4) seed words (its
    srandom step), as uint64 limbs (state_hi, state_lo, inc_hi, inc_lo)."""
    w0, w1, w2, w3 = words.T
    inc_hi = w2 << _ONE | w3 >> np.uint64(63)
    inc_lo = w3 << _ONE | _ONE
    return (*_pcg64_step(*_add128(inc_hi, inc_lo, w0, w1), inc_hi, inc_lo), inc_hi, inc_lo)


def _next_double_index(s_hi, s_lo, i_hi, i_lo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One PCG64 step and its XSL-RR output shifted right by 11, the int64 m
    whose m * 2^-53 is numpy's next double: (state_hi, state_lo, m)."""
    s_hi, s_lo = _pcg64_step(s_hi, s_lo, i_hi, i_lo)
    rot = s_hi >> np.uint64(58)
    x = s_hi ^ s_lo
    out = x >> rot | x << (-rot & np.uint64(63))
    return s_hi, s_lo, (out >> np.uint64(11)).astype(np.int64)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True) from a sort and a search, which
    cost less than its argsort when there are few distinct values."""
    v = np.sort(values)
    v = v[np.concatenate(([True], v[1:] != v[:-1]))]
    return v, np.searchsorted(v, values)


def _distinct_rows(columns) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of equal-length 1-D columns, np.lexsort's keys,
    matched exactly: pick, the index of each one's first occurrence, in
    np.lexsort order, and inverse, every row's position in pick, so that
    column[pick][inverse] equals each column. posterior._exceedance is the
    one caller with float (theta0, alpha, beta) cells, their one dedup."""
    order = np.lexsort(columns)
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    # One sorted column at a time, so no sorted copy of the whole key is held.
    for column in columns:
        column = column[order]
        first[1:] |= column[1:] != column[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def _inversion_px(n: int, p: float) -> list[float]:
    """numpy's px sequence of the inversion sampler for one (n, p), from
    px[0] = qn = exp(n * log1p(-p)) to its search bound
    int(min(n, np + 10 sqrt(np q + 1))), in the operation order of its C code."""
    q, mean = 1.0 - p, n * p
    px = [math.exp(n * math.log1p(-p))]
    for x in range(1, int(min(n, mean + 10.0 * math.sqrt(mean * q + 1))) + 1):
        px.append((n - x + 1) * p * px[-1] / (x * q))
    return px


def _chain(u: float, px: list[float]) -> int:
    """numpy's sequential search on the double u: the first x with u <= px[x],
    u losing px[0], px[1], ... in turn, or len(px) when u runs past the bound."""
    for x, px_x in enumerate(px):
        if u <= px_x:
            return x
        u -= px_x
    return len(px)


def _inversion(
    state: tuple[np.ndarray, ...], sizes: tuple[np.ndarray, np.ndarray], p: np.ndarray
) -> np.ndarray:
    """numpy's inversion sampler (BINV) for 0 < p <= 0.5 and n * p <= 30,
    by one threshold lookup per double.

    state holds each row's stream after its first PCG64 step, with that
    step's double (_next_double_index): (state_hi, state_lo, m, inc_hi,
    inc_lo). sizes holds the distinct n and each row's index into them.

    numpy's chain returns the first x with U <= px[x], subtracting px[0],
    px[1], ... from its double U in turn. A rounded subtraction is monotone,
    so that x grows with U: it counts the cuts U lies above, and each cut of
    the chain lies within (2 * bound + 2) * 2^-53 of floor(cumsum(px) * 2^53)
    * 2^-53, with bound <= 85 on this branch. So each distinct (n, p) gets
    its px sequence (_inversion_px) and those integer cuts once, and a row
    whose double is m * 2^-53 takes as x the number of its pair's cuts below
    m, from one searchsorted over every pair. Only a row whose m lies within
    _LOOKUP_MARGIN of a cut runs the chain itself (_chain); a row past the
    bound restarts on a fresh double, as in numpy.
    """
    n_vals, n_idx = sizes
    p_vals, p_idx = _distinct(p)
    pairs, pair = _distinct(n_idx * len(p_vals) + p_idx)
    pair_n, pair_p = n_vals[pairs // len(p_vals)], p_vals[pairs % len(p_vals)]
    px_of = [_inversion_px(nj, pj) for nj, pj in zip(pair_n.tolist(), pair_p.tolist())]
    # Each pair's cuts between two sentinels, keyed pair + 1j * cut: complex
    # values sort by real part, then imaginary part, so the search stays
    # within each row's pair, exactly, for any number of pairs.
    length = np.array([len(px) for px in px_of])
    cuts = np.concatenate(
        [np.concatenate(([-(2.0**62)], np.floor(np.cumsum(px) * 2.0**53), [2.0**62])) for px in px_of]
    )
    keys = np.repeat(np.arange(len(px_of)), length + 2) + 1j * cuts
    cuts = cuts.astype(np.int64)
    first = np.cumsum(length + 2) - length - 1
    s_hi, s_lo, m, i_hi, i_lo = state
    rows = np.arange(len(p))
    out = np.empty(len(p), dtype=np.int64)
    while True:
        at = np.searchsorted(keys, pair + 1j * m)
        x = at - first[pair]
        near = (cuts[at] - m <= _LOOKUP_MARGIN) | (m - cuts[at - 1] <= _LOOKUP_MARGIN)
        for i in np.flatnonzero(near).tolist():
            x[i] = _chain(int(m[i]) * 2.0**-53, px_of[pair[i]])
        out[rows] = x
        again = x == length[pair]
        if not again.any():
            return out
        rows, s_hi, s_lo, i_hi, i_lo, pair = (a[again] for a in (rows, s_hi, s_lo, i_hi, i_lo, pair))
        s_hi, s_lo, m = _next_double_index(s_hi, s_lo, i_hi, i_lo)


def _binomial_from_limbs(limbs: tuple[np.ndarray, ...], n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The first Generator.binomial(n[i], p[..., i]) of N PCG64 streams given by
    their (state_hi, state_lo, inc_hi, inc_lo) limbs, as an int64 array of p's
    shape: p is (N,), or (S, N) for S rows on the same streams.

    n == 0 or p == 0 gives 0 and p == 1 gives n, without drawing. Like numpy,
    p > 0.5 is drawn as n - Binomial(n, 1 - p). Cells with min(p, 1 - p) * n
    <= 30 take the inversion lookup (_inversion), row by row; the distinct n
    and every stream's first double are found once for all rows. The rest
    (numpy's BTPE branch) are drawn one by one through a Generator set to
    their state.
    """
    rows = np.atleast_2d(p)
    out = np.where(rows == 1.0, n, 0).astype(np.int64)
    flip = rows > 0.5
    small = np.where(flip, 1.0 - rows, rows)
    live = (n > 0) & (small > 0.0)
    inv = live & (small * n <= _INVERSION_MAX_MEAN)
    if inv.any():
        s_hi, s_lo, m = _next_double_index(*limbs)
        n_vals, n_idx = _distinct(n)
        for r in np.flatnonzero(inv.any(axis=1)).tolist():
            col = slice(None) if inv[r].all() else np.flatnonzero(inv[r])
            state = tuple(a[col] for a in (s_hi, s_lo, m, *limbs[2:]))
            x = _inversion(state, (n_vals, n_idx[col]), small[r, col])
            out[r, col] = np.where(flip[r, col], n[col] - x, x)
    cells = np.argwhere(live & ~inv).tolist()
    if cells:
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        s_hi, s_lo, i_hi, i_lo = (a.tolist() for a in limbs)
        for r, i in cells:
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": s_hi[i] << 64 | s_lo[i], "inc": i_hi[i] << 64 | i_lo[i]},
                "has_uint32": 0,
                "uinteger": 0,
            }
            out[r, i] = gen.binomial(int(n[i]), float(rows[r, i]))
    return out.reshape(np.shape(p))


def binomial_draws(seed: int, keys, n, p) -> np.ndarray:
    """One Binomial(n[i], p[..., i]) draw per row of keys, as an int64 array
    of p's shape.

    Draw i is the first binomial of
    Generator(PCG64(SeedSequence(seed, spawn_key=keys[i]))), so it is a pure
    function of (seed, keys[i], n[i], p[..., i]) and independent of the other
    rows. p is (N,), or (S, N) for S probability rows on the same streams
    (one per scenario, say): row s of the result equals the call with p[s].
    n == 0 or p == 0 gives 0 and p == 1 gives n, without drawing. Every
    argument, every row of p included, is checked before anything is drawn.

    Seed words and PCG64 states are derived in numpy, each 128-bit state as
    two uint64 limbs, once per key row for all S rows of p. Draws in numpy's
    inversion branch (min(p, 1 - p) * n <= 30, every cohort of the paper's
    designs) are made together by one threshold lookup that gives numpy's
    draw exactly (_inversion). Its starting probability must be
    exp(n * log1p(-p)), as in numpy: exp(n * log(1 - p)) can differ in the
    last bit and move a draw. Larger draws go through numpy's BTPE sampler,
    one Generator call each.
    """
    seed = as_int(seed, "seed")
    if not (0 <= seed < 2**64):
        raise DomainError(f"seed must be an unsigned 64-bit int, got {seed}")
    keys = np.asarray(as_int(keys, "stream keys"))
    n = np.asarray(as_int(n, "n"))
    p = np.asarray(p, dtype=float)
    if keys.ndim != 2 or n.shape != (len(keys),) or p.ndim not in (1, 2) or p.shape[-1:] != n.shape:
        raise ShapeError(
            f"need (N, k) keys, length-N n and (N,) or (S, N) p, "
            f"got {keys.shape}, {n.shape}, {p.shape}"
        )
    if keys.min(initial=0) < 0:
        raise DomainError("stream keys must be non-negative")
    if keys.max(initial=0) >= 2**32:
        raise CapacityError(
            "stream keys must be below 2^32; SeedSequence splits a larger key into two words"
        )
    if n.min(initial=0) < 0:
        raise DomainError(f"binomial_draws requires n >= 0, got {n.min()}")
    # a NaN p makes both reductions NaN, so it fails the check
    if not (p.min(initial=0.0) >= 0.0 and p.max(initial=1.0) <= 1.0):
        raise DomainError("binomial_draws requires p in [0, 1]")
    # Each stream's limbs are derived once and read by every row of p.
    return _binomial_from_limbs(_pcg64_limbs(_seed_words(seed, keys)), n.astype(np.int64), p)
