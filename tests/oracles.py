"""Independent reference implementations used to verify the package.

Everything here deliberately avoids the library's own algorithms: partitions
are enumerated by recursive block insertion (not restricted-growth strings),
posterior quantities are exact rationals via fractions.Fraction, tail
probabilities come from adaptive quadrature, and binomial sums use
math.comb. Keep it slow and obviously correct.
"""

import math
from fractions import Fraction

from scipy import integrate


# ---------------------------------------------------------------- partitions


def bell_recurrence(n):
    """Bell numbers via B_{n+1} = sum_k C(n, k) B_k."""
    bells = [1]
    for m in range(n):
        bells.append(sum(math.comb(m, k) * bells[k] for k in range(m + 1)))
    return bells[n]


def partitions_by_insertion(num_elements):
    """All set partitions as tuples of blocks, built by inserting each element
    into every existing block or a new one."""
    parts = [[[0]]]
    for element in range(1, num_elements):
        grown = []
        for part in parts:
            for i in range(len(part)):
                grown.append([blk + [element] if j == i else list(blk) for j, blk in enumerate(part)])
            grown.append([list(blk) for blk in part] + [[element]])
        parts = grown
    return [tuple(tuple(sorted(blk)) for blk in sorted(p, key=min)) for p in parts]


def membership_of(blocks, num_elements):
    """Canonical membership labels (first-appearance order) for a block list."""
    labels = [0] * num_elements
    ordered = sorted(blocks, key=min)
    for lab, blk in enumerate(ordered, start=1):
        for e in blk:
            labels[e] = lab
    return tuple(labels)


# ------------------------------------------------------------ exact rationals


def gamma_half(m):
    """Gamma(m/2) as (rational, k) with value = rational * pi**(k/2), m >= 1."""
    assert m >= 1
    if m % 2 == 0:
        return Fraction(math.factorial(m // 2 - 1)), 0
    frac = Fraction(1)
    while m > 1:
        m -= 2
        frac *= Fraction(m, 2)
    return frac, 1


def beta_exact(a2, b2):
    """Beta(a2/2, b2/2) as (rational, k) with value = rational * pi**(k/2)."""
    fa, ka = gamma_half(a2)
    fb, kb = gamma_half(b2)
    fab, kab = gamma_half(a2 + b2)
    return fa * fb / fab, ka + kb - kab


def block_factor(responses, size, alpha2, beta2):
    """Beta(a0+S, b0+N-S) / Beta(a0, b0) as an exact Fraction.

    alpha2/beta2 are the prior shapes doubled (so 1 encodes 0.5); the pi
    powers always cancel because the parities match.
    """
    num, knum = beta_exact(alpha2 + 2 * responses, beta2 + 2 * (size - responses))
    den, kden = beta_exact(alpha2, beta2)
    assert knum == kden
    return num / den


class RationalAnalysis:
    """Exact-rational partition posterior and borrowing posterior.

    delta must be a non-negative integer and the prior shapes multiples of
    one half, so every quantity is an exact Fraction.
    """

    def __init__(self, x, n, delta, alpha2=2, beta2=2, prior=None):
        self.x = list(x)
        self.n = list(n)
        num = len(x)
        self.alpha2 = alpha2
        self.beta2 = beta2
        self.blocksets = partitions_by_insertion(num)
        self.memberships = [membership_of(p, num) for p in self.blocksets]
        order = sorted(range(len(self.blocksets)), key=lambda i: self.memberships[i])
        self.blocksets = [self.blocksets[i] for i in order]
        self.memberships = [self.memberships[i] for i in order]
        if prior is None:
            raw = [Fraction(len(p)) ** delta for p in self.blocksets]
        else:
            raw = [Fraction(v) for v in prior]
        total = sum(raw)
        self.prior = [v / total for v in raw]
        weights = []
        for pr, blocks in zip(self.prior, self.blocksets):
            w = pr
            for blk in blocks:
                s = sum(self.x[b] for b in blk)
                m = sum(self.n[b] for b in blk)
                w *= block_factor(s, m, alpha2, beta2)
            weights.append(w)
        total_w = sum(weights)
        self.weights = [w / total_w for w in weights]
        self.top_index = self._select_top()
        self.top_prob = self.weights[self.top_index]

    def _select_top(self):
        best = max(self.weights)
        # Exact ties only: most blocks, then smallest membership.
        candidates = [j for j, w in enumerate(self.weights) if w == best]
        return min(
            candidates, key=lambda j: (-len(self.blocksets[j]), self.memberships[j])
        )

    def psi(self, s, t):
        if s == t:
            return Fraction(1)
        return sum(
            w
            for w, m in zip(self.weights, self.memberships)
            if m[s] == m[t]
        )

    def local_params(self, basket):
        m = self.memberships[self.top_index]
        bx = sum(self.x[t] for t in range(len(self.x)) if t != basket and m[t] == m[basket])
        by = sum(
            self.n[t] - self.x[t]
            for t in range(len(self.x))
            if t != basket and m[t] == m[basket]
        )
        alpha = Fraction(self.alpha2, 2) + self.x[basket] + self.top_prob * bx
        beta = Fraction(self.beta2, 2) + (self.n[basket] - self.x[basket]) + self.top_prob * by
        return alpha, beta

    def ess(self, basket):
        m = self.memberships[self.top_index]
        bn = sum(self.n[t] for t in range(len(self.n)) if t != basket and m[t] == m[basket])
        return (
            Fraction(self.alpha2 + self.beta2, 2) + self.n[basket] + self.top_prob * bn
        )

    def exceed_prob(self, basket, theta0):
        alpha, beta = self.local_params(basket)
        return beta_tail_quadrature(float(alpha), float(beta), theta0)


# ---------------------------------------------------------------- quadrature


def beta_density_integral(a, b, lo, hi):
    """Integral of the Beta(a, b) density over [lo, hi] by adaptive quadrature.

    Where an interval ends at 0 or 1, the density's factor t^(a-1) or
    (1-t)^(b-1), singular there when a or b is below 1, is handed to quad as
    an algebraic endpoint weight and left out of the integrand.
    """
    ln_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    at_zero, at_one = lo == 0.0, hi == 1.0

    def smooth(t):
        log_f = -ln_norm
        if not at_zero:
            log_f += (a - 1.0) * math.log(t)
        if not at_one:
            log_f += (b - 1.0) * math.log1p(-t)
        return math.exp(log_f)

    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    if at_zero or at_one:
        wvar = (a - 1.0 if at_zero else 0.0, b - 1.0 if at_one else 0.0)
        opts.update(weight="alg", wvar=wvar)
    val, _ = integrate.quad(smooth, lo, hi, **opts)
    return val


def reg_inc_beta_quadrature(x, a, b):
    """I_x(a, b) by quadrature; integrates whichever side is smaller."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x < 0.5:
        return beta_density_integral(a, b, 0.0, x)
    return 1.0 - beta_density_integral(a, b, x, 1.0)


def beta_tail_quadrature(a, b, theta0):
    """P(theta > theta0) for theta ~ Beta(a, b)."""
    return beta_density_integral(a, b, theta0, 1.0)


# -------------------------------------------------------------------- simon


def simon_exact_rational(r1, n1, r, n, p):
    """(reject probability, early stop probability, expected size) as exact
    Fractions, by direct double summation at rate p (a Fraction)."""
    p = Fraction(p)
    n2 = n - n1

    def pmf(k, size):
        return math.comb(size, k) * p**k * (1 - p) ** (size - k)

    reject = Fraction(0)
    for x1 in range(r1 + 1, n1 + 1):
        tail = sum(pmf(x2, n2) for x2 in range(max(0, r - x1 + 1), n2 + 1))
        reject += pmf(x1, n1) * tail
    pet = sum(pmf(x1, n1) for x1 in range(r1 + 1))
    en = n1 + (1 - pet) * n2
    return reject, pet, en


def binom_cdf_rational(k, n, p):
    p = Fraction(p)
    return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k + 1))
