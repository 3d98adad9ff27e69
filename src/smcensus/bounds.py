"""Exact identities and series constants behind the counting bounds.

Everything rational is computed exactly; series values come back as
enclosures [lo, hi] built from a float partial sum (with an explicit
rounding pad) plus a rigorous integral tail majorant.  The per-chain
log-bound constants asserted downstream are 1.2038 for the plain gap
variant and 0.6331 for the extended one.

The closed form of the gap pmf's integral over x in [0, 1] is written
once, in ``GAP_INTEGRALS``: exact heads at the first k, then num(k) /
den(k) as factor data (``Factors``: num = scale (k + s0) (k + s1) ... +
add, den the same with scale 1 and add 0, multiplied left to right), and
the constant c of the term majorant.  The int value of the factor data
gives ``series_coefficient`` its one ``Fraction``, and its coefficients,
multiplied out, give ``verify_term_majorants`` its proof of
c den(k) - k^2 num(k) >= 0; the float kernel ``_term_chunks`` evaluates
(log k num(k)) / den(k) with the same factors in the same order, and
``gap_log_series`` bounds the tail by c.  c10's ``integral_check``
integrates the expanded law (``line_gap_pmf_poly``, built from
``distributions.line_gap_terms``) and compares it with this closed form,
which stays the labelled oracle for the law.

The scan and both series read their float terms from one kernel,
``_term_chunks``: chunks of at most _CHUNK values of k in buffers
allocated once per call.  A window array holds k .. k+m+span-1 for a
chunk of m values and steps forward in place; each factor k + s is its
shifted view window[s:s+m], exact as every value is an integer below
2^53.  The scan carries one running sum through its chunks in the order
of one ``np.cumsum`` and keeps the first maximum; ``gap_log_series``
takes each chunk's ``np.sum`` in whatever order numpy takes and adds the
chunk sums in order.  Both are certified by one rounding bound,
``_drift``, on a float sum of nonnegative terms none of which passes
through more than a given number of additions.  The scan's ceiling holds
at every n it covers, and ``finite_reveal_log_ceiling`` carries it past
the last n with the plain series.

The Whitworth identity sum_j C(m,j)/C(n,j+a) = (n+1)/((a+1) C(n-m+1, a+1))
is checked in integers.  With g_n[t] = t! (n-t)!, 1 / C(n, t) = g_n[t] / n!,
so n! times the left side is N = sum_j C(m,j) g_n[j+a], and each triple is
the test N (a+1) C(n-m+1, a+1) == (n+1)!, with no lcm and no division.
``whitworth_sweep`` gets the N of every a at once as a binomial
transform: from row = g_n, m steps row <- [row[s] + row[s+1]] leave
row[a] = N.

The pmf integrals expand the law term by term: each (1 - x)^b row is one
Pascal step from the row of b - 1, kept in a cache of the last
_ROWS_KEPT rows, and the integral is one sum over the weight row
L // (j + 1), L = lcm(1..d+1), kept for the longest polynomial so far.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import comb
from typing import NamedTuple

import numpy as np

from .distributions import EXTENDED, PLAIN, check_variant, line_gap_terms

PLAIN_LOG_LIMIT = 1.2038
EXTENDED_LOG_LIMIT = 0.6331
SERIES_MIN_TRUNCATION = {PLAIN: 10, EXTENDED: 8}  # smallest K gap_log_series takes

_SUM_PAD = 1e-10  # covers the rounding of each float term and of the steps after a sum
_CHUNK = 1 << 15  # values per evaluation chunk: its buffers stay in cache


def _factorial_row(n: int, fact: list[int]) -> list[int]:
    """g_n[t] = t! (n-t)! for t = 0..n, so 1 / C(n, t) = g_n[t] / n!."""
    return [fact[t] * fact[n - t] for t in range(n + 1)]


def _factorials(top: int) -> list[int]:
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i
    return fact


def _left_sides(n_max: int, fact: list[int]):
    """(n, m, row) for every m <= n <= n_max, where row[a] for a = 0..n-m is
    n! times the identity's left side: the binomial transform of g_n, one
    step row[s] + row[s+1] per increment of m."""
    for n in range(0, n_max + 1):
        row = _factorial_row(n, fact)
        for m in range(0, n + 1):
            yield n, m, row
            row = [lo + hi for lo, hi in zip(row, row[1:])]


class IdentityError(AssertionError):
    """The identity fails at the Whitworth triple ``triple`` = (m, a, n)."""

    def __init__(self, m: int, a: int, n: int):
        super().__init__(f"identity fails at m={m}, a={a}, n={n}")
        self.triple = (m, a, n)


def whitworth_sweep(n_max: int) -> int:
    """Assert the identity for every (m, a, n) with n <= n_max, raising
    IdentityError at the first that fails; returns the number of triples
    checked."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    fact = _factorials(n_max + 1)
    checked = 0
    for n, m, row in _left_sides(n_max, fact):
        for a, num in enumerate(row):
            if num * (a + 1) * comb(n - m + 1, a + 1) != fact[n + 1]:
                raise IdentityError(m, a, n)
        checked += len(row)
    return checked


# ------------------------------------------------------------ finite-n bound

def finite_reveal_log_bound(n: int) -> float:
    """Exact finite-n ceiling on the expected log option count per chain:
    2 log(n+1)/(n+1) + 2 (n+2)/(n+1) * sum_{k=2..n} log k / ((k+1)(k+2))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = math.fsum(math.log(k) / ((k + 1) * (k + 2)) for k in range(2, n + 1))
    return 2 * math.log(n + 1) / (n + 1) + 2 * (n + 2) / (n + 1) * s


@dataclass(frozen=True)
class ScanResult:
    max_value: float
    argmax: int
    certified_hi: float  # a ceiling on the exact f(n) at every n of the scan


def finite_reveal_log_bound_scan(limit: int) -> ScanResult:
    """Maximum of finite_reveal_log_bound over 1..limit, vectorized, and a
    ceiling on the exact f(n) at every n of the scan.

    Write f(n) = 2 log(n+1)/(n+1) + 2 (n+2)/(n+1) S_n, S_n the sum of
    t_k = log k / ((k+1)(k+2)) over 2 <= k <= n; t'_k >= 0 are the float
    terms (the plain law's from ``_term_chunks``, whose num 2 is all
    scale), s'_n their float running sum (one rounded add per term), f'(n)
    the float f from s'_n, u = 2^-53, gamma_m = m u / (1 - m u),
    gamma = gamma_(limit-2) and s' = s'_limit.  Then at every n <= limit:
    1. |s'_n - sum_(k<=n) t'_k| <= gamma_(n-2) sum_(k<=n) t'_k, recursive
       summation of n - 1 nonnegative terms (Higham, Accuracy and Stability
       of Numerical Algorithms, sec. 4.2), and gamma_(n-2) <= gamma;
    2. sum_(k<=n) t'_k <= sum_(k<=limit) t'_k <= s' / (1 - gamma) by 1, so
       that error is at most D = gamma s' / (1 - gamma), ``_drift``;
    3. f puts 2 (n+2)/(n+1) <= 8/3 on it (n >= 2; f(1) has no sum), and
       2 _SUM_PAD = 2e-10 covers the rounding of the terms (np.log within a
       few ulps), of f from s'_n and of D, about 1e-15 in all;
    4. f'(n) <= max_value.
    So f(n) <= max_value + (8/3) D + 2 _SUM_PAD = certified_hi.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    best_v, best_n = 2 * math.log(2) / 2, 1
    run = 0.0  # the running sum at the last k scanned
    f = np.empty(min(_CHUNK, limit - 1))
    for kk, logs, terms in _term_chunks(GAP_INTEGRALS[PLAIN], 2, limit):
        n = len(terms)
        k1, k2 = kk[1:n + 1], kk[2:n + 2]  # k + 1 and k + 2
        terms[0] += run
        np.cumsum(terms, out=terms)
        run = float(terms[-1])
        # f = 2 log(k+1) / (k+1) + 2 (k+2) / (k+1) * cs, one operation at a
        # time in that order; logs[:n] is free once the terms are made
        fk = np.multiply(logs[1:], 2.0, out=f[:n])
        fk /= k1
        rest = np.multiply(k2, 2.0, out=logs[:n])
        rest /= k1
        rest *= terms
        fk += rest
        i = int(np.argmax(fk))
        if float(fk[i]) > best_v:
            best_v, best_n = float(fk[i]), int(kk[i])
    drift = _drift(max(limit - 2, 0), run)
    return ScanResult(best_v, best_n, best_v + 8 / 3 * drift + 2 * _SUM_PAD)


def finite_reveal_log_ceiling(limit: int, plain_hi: float) -> float:
    """A ceiling on finite_reveal_log_bound(n) at every n > limit >= 1 from
    plain_hi >= 2 S_inf, the plain series' upper end: log x / x decreases
    for x >= e, and 2 (n+2)/(n+1) in n, so they are at most their values at
    n = limit + 1, and S_n <= S_inf."""
    return 2 * math.log(limit + 2) / (limit + 2) + (limit + 3) / (limit + 2) * plain_hi


# ------------------------------------------------------------- series values

@dataclass(frozen=True)
class Interval:
    """Enclosure of a series value: partial sum minus/plus pads, with the
    tail majorant folded into hi."""

    lo: float
    hi: float
    truncation: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval with lo > hi")

    @property
    def certified_base(self) -> float:
        """exp(2 hi): the base of the bound exp(2 n hi) over 2n chains that
        the enclosure certifies."""
        return math.exp(2.0 * self.hi)


class Factors(NamedTuple):
    """scale * (k + s0) * (k + s1) * ... + add over the `shifts` s, multiplied
    left to right: the one statement of a closed-form numerator or
    denominator, read by its int value and by the float kernel."""

    scale: int
    shifts: tuple[int, ...]
    add: int = 0

    def __call__(self, k: int) -> int:
        """The exact value at an int k."""
        value = self.scale
        for s in self.shifts:
            value = value * (k + s)
        return value + self.add

    def coefficients(self) -> list[int]:
        """The integer coefficients in k, lowest degree first."""
        coeffs = [self.scale]
        for s in self.shifts:  # times (k + s)
            coeffs = [a * s + b for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs[0] += self.add
        return coeffs

    def fill(self, kk: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
        """The value at k = kk[0..n-1] into out, each factor k + s read as
        the window's shifted view kk[s:s+n] (exact: kk holds integers below
        2^53), in the order of __call__ (skipping a scale of 1 changes no
        bit).  Needs two factors at least, counting a scale other than 1."""
        factors = [kk[s:s + n] for s in self.shifts]
        if self.scale != 1:
            factors.insert(0, self.scale)
        np.multiply(factors[0], factors[1], out=out)
        for factor in factors[2:]:
            out *= factor
        if self.add:
            out += self.add
        return out


class GapIntegral(NamedTuple):
    """The closed form of the pmf integral over x in [0, 1] for one variant:
    exact (num, den) `heads` at the first k, then num(k) / den(k) from k =
    `start` on, both as Factors; term_k <= c log k / k^2."""

    heads: dict[int, tuple[int, int]]
    start: int
    num: Factors
    den: Factors
    c: int


GAP_INTEGRALS = {
    PLAIN: GapIntegral({}, 1, Factors(2, ()), Factors(1, (1, 2)), 2),
    EXTENDED: GapIntegral({2: (1, 12), 3: (23, 630)}, 4,
                          Factors(2, (0, 7), 72), Factors(1, (3, 5, 6, 7)), 2),
}


def _term_chunks(law: GapIntegral, first: int, last: int):
    """The float terms (log k num(k)) / den(k) / num.scale, k = first ..
    last, in chunks of at most _CHUNK: per chunk of n values the window
    (k .. k+n+span-1 first), log k .. log(k+n) and the n terms, views valid
    until the next chunk.  A num with shifts puts den in the logs' buffer.
    The scale, a power of two, is the caller's: it moves no bit."""
    unit = law.num._replace(scale=1, add=law.num.add // law.num.scale)
    m = min(_CHUNK, last - first + 1)
    span = max(law.num.shifts + law.den.shifts)
    kk = np.arange(first, first + m + span, dtype=np.float64)
    logs, work = np.empty(m + 1), np.empty(m)
    for at in range(first, last + 1, _CHUNK):
        n = min(_CHUNK, last + 1 - at)
        logk = np.log(kk[:n + 1], out=logs[:n + 1])[:n]
        if unit.shifts:  # unit * log k: the product commutes exactly
            terms = unit.fill(kk, n, work[:n])
            terms *= logk
            terms /= law.den.fill(kk, n, logs[:n])
        else:  # a constant num is all scale: unit is 1
            terms = np.divide(logk, law.den.fill(kk, n, work[:n]), out=work[:n])
        yield kk, logs[:n + 1], terms
        kk += n


def _drift(adds: int, s: float) -> float:
    """How far a float sum s of nonnegative terms lies from their exact sum
    S when no term passes through more than `adds` additions, in any order:
    |s - S| <= gamma S <= gamma s / (1 - gamma), gamma = adds u / (1 - adds u),
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 4.2)."""
    mu = adds * 2.0 ** -53
    gamma = mu / (1 - mu)
    return gamma * s / (1 - gamma)


def gap_log_series(K: int, variant: str = PLAIN) -> Interval:
    """Enclosure of sum_k log k * int_0^1 pmf_k dx truncated at K.

    The heads, then each chunk's ``np.sum`` of ``_term_chunks``, in any
    order numpy takes, times num's scale, added in order: a term passes
    through at most _CHUNK - 1 additions in its chunk and one per chunk and
    head after it, which ``_drift`` bounds; _SUM_PAD covers each term's
    rounding.  The tail past K is at most the integral from K of
    c log k / k^2 (see verify_term_majorants), decreasing past e:
    c (log K + 1) / K.
    """
    law = GAP_INTEGRALS[check_variant(variant)]
    min_k = SERIES_MIN_TRUNCATION[variant]
    if K < min_k:
        raise ValueError(f"K must be >= {min_k}")
    partial = 0.0
    for k, (num, den) in law.heads.items():
        partial += math.log(k) * num / den
    for chunks, (_, _, terms) in enumerate(_term_chunks(law, max(2, law.start), K), 1):
        partial += law.num.scale * float(np.sum(terms))
    pad = _drift(_CHUNK - 1 + chunks + len(law.heads), partial) + _SUM_PAD
    tail = law.c * (math.log(K) + 1.0) / K
    return Interval(partial - pad, partial + tail + pad, K)


def verify_term_majorants(variant: str) -> bool:
    """Prove term_k <= c log k / k^2 for every k, exactly.

    The inequality divides by log k and cross-multiplies into
    P(k) = c den(k) - k^2 num(k) >= 0.  P's integer coefficients come from
    multiplying out the factor data, and all of them are nonnegative,
    which settles every k >= 0 at once (6 k + 4 for the plain variant,
    28 k^3 + 250 k^2 + 1062 k + 1260 for the extended one).  c is the
    smallest integer that proves it: both laws have k^2 num(k) / den(k)
    tending to 2.
    """
    law = GAP_INTEGRALS[check_variant(variant)]
    diff = [law.c * d - e for d, e in zip_longest(
        law.den.coefficients(), [0, 0] + law.num.coefficients(), fillvalue=0)]
    return all(c >= 0 for c in diff)


# ----------------------------------------------------------- pmf integrals

_ROWS_KEPT = 4  # rows of (1 - x)^b kept: an extended pmf reads three consecutive b
_rows: dict[int, list[int]] = {}  # b -> coefficients of (1 - x)^b, the last few built
_weights: list = [1, [1]]  # [L, the row L // (j + 1)], L = lcm(1..len), longest so far


def _poly_int_01(coeffs: list[int]) -> Fraction:
    """Exact integral over [0, 1]: one sum of c_j L // (j + 1) over L =
    lcm(1..len), the row kept for the longest polynomial integrated so far
    (a longer L is a common denominator of a shorter polynomial too)."""
    if len(coeffs) > len(_weights[1]):
        lcm = math.lcm(*range(1, len(coeffs) + 1))
        _weights[:] = [lcm, [lcm // (j + 1) for j in range(len(coeffs))]]
    lcm, row = _weights
    return Fraction(sum(map(operator.mul, coeffs, row)), lcm)


def _one_minus_x_pow(b: int) -> list[int]:
    """Coefficients of (1 - x)^b: one Pascal step from the row of b - 1 when
    it is kept, else the signed binomials (-1)^j C(b, j) written directly."""
    row = _rows.get(b)
    if row is not None:
        return row
    prev = _rows.get(b - 1)
    if prev is not None:
        row = [c - d for c, d in zip(prev + [0], [0] + prev)]
    else:
        row = [1] * (b + 1)
        for j in range(b):
            row[j + 1] = -row[j] * (b - j) // (j + 1)
    if len(_rows) >= _ROWS_KEPT:
        del _rows[next(iter(_rows))]
    _rows[b] = row
    return row


def _check_gap_index(k: int, variant: str) -> GapIntegral:
    """The variant's integral; reject a k below its first polynomial term."""
    law = GAP_INTEGRALS[check_variant(variant)]
    first = min(law.heads, default=law.start)
    if k < first:
        raise ValueError(f"k must be >= {first} for the {variant} variant")
    return law


def line_gap_pmf_poly(k: int, variant: str) -> list[int]:
    """Integer coefficients of the gap pmf as a polynomial in x: x^2 times
    a (1 - x)^b, written out as signed binomials, summed over the law's
    (a, b) pairs, so the work is linear in the degree."""
    _check_gap_index(k, variant)
    terms = line_gap_terms(k, variant)
    out = [0] * (3 + max(b for _, b in terms))
    for a, b in terms:
        out[2:b + 3] = [o + a * c for o, c in zip(out[2:b + 3], _one_minus_x_pow(b))]
    return out


def series_coefficient(k: int, variant: str) -> Fraction:
    """The closed-form value of the pmf integral over x in [0, 1]."""
    law = _check_gap_index(k, variant)
    if k in law.heads:
        return Fraction(*law.heads[k])
    return Fraction(law.num(k), law.den(k))


def integral_check(k: int, variant: str = PLAIN) -> tuple[Fraction, Fraction, bool]:
    """Integrate the pmf polynomial exactly and compare with the closed form."""
    integral = _poly_int_01(line_gap_pmf_poly(k, variant))
    closed = series_coefficient(k, variant)
    return integral, closed, integral == closed


# --------------------------------------------------------------- the report

REPORT_DIGITS = 12  # significant digits of each reported bound value


def bound_report(n: int) -> dict:
    """Per-n values of the exponential bounds at 50-digit working precision,
    plus the one-time base comparisons, each decided on ``mpmath.iv``
    intervals: a straddling one (its comparison is None) counts as False."""
    if n < 1:
        raise ValueError("n must be >= 1")
    import mpmath as mp

    with mp.workdps(50):
        values = {
            "exp(2.4076 n)": mp.exp(mp.mpf("2.4076") * n),
            "11.11^n": mp.mpf("11.11") ** n,
            "exp(1.2662 n)": mp.exp(mp.mpf("1.2662") * n),
            "exp(1.2663 n)": mp.exp(mp.mpf("1.2663") * n),
            "3.55^n": mp.mpf("3.55") ** n,
        }
        checks = {f"exp({e}) <= {base}": (mp.iv.exp(mp.iv.mpf(e)) <= mp.iv.mpf(base)) is True
                  for e, base in (("2.4076", "11.11"), ("1.2662", "3.55"), ("1.2663", "3.55"))}
        return {
            "n": n,
            "values": {k: mp.nstr(v, REPORT_DIGITS) for k, v in values.items()},
            "checks": checks,
        }
