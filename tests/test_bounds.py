import ast
import inspect
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from smcensus import bounds, verify
from smcensus.bounds import (EXTENDED_LOG_LIMIT, GAP_INTEGRALS, PLAIN_LOG_LIMIT,
                             SERIES_MIN_TRUNCATION, Interval, ScanResult,
                             bound_report, finite_reveal_log_bound,
                             finite_reveal_log_bound_scan, gap_log_series,
                             integral_check, line_gap_pmf_poly,
                             series_coefficient, verify_term_majorants,
                             whitworth_sweep)
from smcensus.distributions import (EXTENDED, PLAIN, DistributionError,
                                    line_gap_pmf, line_gap_tail, line_gap_terms)

# ------------------------------------------------------------------ oracles
# The direct loops the bounds kernels replaced: (1-x)^m by repeated
# multiplication, one Fraction per integral term and per Whitworth term,
# one numpy array per chunk of the series, and one for the scan.


def _oracle_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _oracle_powers(top):
    """(1-x)^i for i = 0..top, each from the previous one times (1 - x)."""
    qpow = [[1]]
    for _ in range(top):
        qpow.append(_oracle_poly_mul(qpow[-1], [1, -1]))
    return qpow


def _oracle_pmf_poly(k, variant, qpow):
    c, x = [0, 2, -1], [0, 1]
    if variant == PLAIN:
        return _oracle_poly_mul([0, 0, k], qpow[k - 1])
    cc, cx = _oracle_poly_mul(c, c), _oracle_poly_mul(c, x)
    if k == 2:
        return _oracle_poly_mul([2], _oracle_poly_mul(qpow[3], cc))
    if k == 3:
        return _oracle_add(_oracle_poly_mul(qpow[5], cc),
                           _oracle_poly_mul([2], _oracle_poly_mul(qpow[5], cx)))
    a = _oracle_poly_mul([2], _oracle_poly_mul(qpow[k + 2], cx))
    b = _oracle_poly_mul([2], _oracle_poly_mul(qpow[k + 3], cx))
    d = _oracle_poly_mul([k - 4], _oracle_poly_mul(qpow[k + 4], _oracle_poly_mul(x, x)))
    return _oracle_add(_oracle_add(a, b), d)


def _oracle_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return out


def _oracle_int_01(coeffs):
    return sum((Fraction(c, j + 1) for j, c in enumerate(coeffs)), Fraction(0))


def _oracle_whitworth(m, a, n):
    lhs = sum(Fraction(math.comb(m, j), math.comb(n, j + a)) for j in range(m + 1))
    return lhs, Fraction(n + 1, (a + 1) * math.comb(n - m + 1, a + 1))


def _oracle_num_den(k, variant):
    """num(k) and den(k) of the series terms, the closed forms written out;
    on a float array they are the block-at-once float operations, in order."""
    if variant == PLAIN:
        return 2, (k + 1) * (k + 2)
    return 2 * k * (k + 7) + 72, (k + 3) * (k + 5) * (k + 6) * (k + 7)


def _oracle_terms(K, variant):
    """The series' float terms up to K: the heads, then one array per chunk
    of bounds._CHUNK values of k, evaluated at once."""
    law = GAP_INTEGRALS[variant]
    heads = [math.log(k) * num / den for k, (num, den) in law.heads.items()]
    chunks = []
    for lo in range(max(2, law.start), K + 1, bounds._CHUNK):
        k = np.arange(lo, min(lo + bounds._CHUNK, K + 1), dtype=np.float64)
        num, den = _oracle_num_den(k, variant)
        chunks.append(np.log(k) * num / den)
    return heads, chunks


def _oracle_partial(K, variant):
    """The heads and then each chunk's np.sum, added in order, and the most
    additions any one term passes through."""
    heads, chunks = _oracle_terms(K, variant)
    partial = 0.0
    for part in heads + [float(np.sum(chunk)) for chunk in chunks]:
        partial += part
    return partial, bounds._CHUNK - 1 + len(chunks) + len(heads)


def _oracle_series(K, variant):
    """gap_log_series from the per-chunk oracle, padded by the rounding
    bound of its additions written out and 1e-10."""
    partial, adds = _oracle_partial(K, variant)
    gamma = adds * 2.0 ** -53 / (1 - adds * 2.0 ** -53)
    pad = gamma * partial / (1 - gamma) + 1e-10
    tail = GAP_INTEGRALS[variant].c * (math.log(K) + 1.0) / K
    return Interval(partial - pad, partial + tail + pad, K)


def _oracle_scan(limit):
    """finite_reveal_log_bound_scan with all its terms as one array and one
    np.cumsum, certified by the same summation error bound."""
    k = np.arange(2, limit + 1, dtype=np.float64)
    terms = np.log(k) / ((k + 1.0) * (k + 2.0))
    cs = np.cumsum(terms)
    f = 2.0 * np.log(k + 1.0) / (k + 1.0) + 2.0 * (k + 2.0) / (k + 1.0) * cs
    best_v, best_n = 2 * math.log(2) / 2, 1
    if limit > 1 and float(f.max()) > best_v:
        i = int(np.argmax(f))
        best_v, best_n = float(f[i]), int(k[i])
    adds = max(limit - 2, 0) * 2.0 ** -53
    gamma = adds / (1 - adds)
    drift = gamma * (float(cs[-1]) if limit > 1 else 0.0) / (1 - gamma)
    return ScanResult(best_v, best_n, best_v + 8 / 3 * drift + 2 * 1e-10)


def _traced_peak_mib(call):
    """Peak traced allocation of one call, in MiB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        if not tracing:
            tracemalloc.stop()


# the smallest truncation, one past a chunk, and long sums of 31 to 62
# chunks ending at assorted offsets into their last chunk
@pytest.mark.parametrize("K", [10, (1 << 15) + 1, 10 ** 6 - 1, 10 ** 6, 10 ** 6 + 1,
                               2 * 10 ** 6 + 12345] +
                         [10 ** 6 + first - 1 + last for first in (2, 4)
                          for last in (1, 8, 128, 129)])
@pytest.mark.parametrize("variant", [PLAIN, EXTENDED])
def test_chunked_series_equals_block_oracle(K, variant):
    assert gap_log_series(K, variant) == _oracle_series(K, variant)


@pytest.mark.parametrize("limit", [1, 2, (1 << 15) + 1, 10 ** 6, 10 ** 6 + 1, 2345678])
def test_chunked_scan_equals_block_oracle(limit):
    assert finite_reveal_log_bound_scan(limit) == _oracle_scan(limit)


# a first chunk of one value, chunk edges (one value short, exact and one
# past) and, for the larger chunks, a long sum of many chunks; the scan is
# bitwise the one-array oracle at every chunk, the series the per-chunk
# oracle at that chunk
@pytest.mark.parametrize("chunk", [1, 7, 4099, bounds._CHUNK])
def test_kernels_are_chunk_invariant(monkeypatch, chunk):
    monkeypatch.setattr(bounds, "_CHUNK", chunk)
    counts = [1, chunk - 1, chunk, chunk + 1, 3000] + ([10 ** 6 + 5] if chunk > 7 else [])
    for variant in (PLAIN, EXTENDED):
        first = max(2, GAP_INTEGRALS[variant].start)
        for K in sorted({max(first - 1 + c, SERIES_MIN_TRUNCATION[variant]) for c in counts}):
            assert gap_log_series(K, variant) == _oracle_series(K, variant), (variant, K)
    for limit in sorted({1 + c for c in counts}):
        assert finite_reveal_log_bound_scan(limit) == _oracle_scan(limit), limit


def _scaled(x):
    """The float x as an exact integer multiple of 2^-1074."""
    num, den = x.as_integer_ratio()
    return num * ((1 << 1074) // den)


# over three chunks and a partial one, at the real chunk and at a small one
@pytest.mark.parametrize("chunk", [7, bounds._CHUNK])
def test_summation_bound_holds_at_every_n(monkeypatch, chunk):
    # the float running sum at every n lies within D = gamma s' / (1 - gamma)
    # of the exact sum of its float terms, as the scan's certificate claims
    monkeypatch.setattr(bounds, "_CHUNK", chunk)
    limit = 3 * bounds._CHUNK + 5
    scan = finite_reveal_log_bound_scan(limit)
    assert scan == _oracle_scan(limit)
    k = np.arange(2, limit + 1, dtype=np.float64)
    terms = np.log(k) / ((k + 1.0) * (k + 2.0))
    running = np.cumsum(terms)  # the scan's running sum, by the oracle test
    adds = limit - 2
    gamma = Fraction(adds, 2 ** 53 - adds)  # adds u / (1 - adds u), exactly
    drift = gamma * Fraction(float(running[-1])) / (1 - gamma)
    exact, worst = 0, 0
    for term, got in zip(terms.tolist(), running.tolist()):
        exact += _scaled(term)
        worst = max(worst, abs(_scaled(got) - exact))
    assert Fraction(worst, 1 << 1074) <= drift
    margin = scan.certified_hi - scan.max_value - 2e-10
    assert abs(margin - float(8 * drift / 3)) <= 4 * math.ulp(scan.certified_hi)


# over three chunks and a partial one, at the real chunk and at a small one
@pytest.mark.parametrize("chunk", [7, bounds._CHUNK])
@pytest.mark.parametrize("variant", [PLAIN, EXTENDED])
def test_series_sum_stays_within_its_drift_bound(monkeypatch, chunk, variant):
    # the series' float partial sum lies within _drift of the exact sum of
    # its float terms, whatever order numpy sums each chunk in
    monkeypatch.setattr(bounds, "_CHUNK", chunk)
    K = max(2, GAP_INTEGRALS[variant].start) + 3 * chunk + 4
    assert gap_log_series(K, variant) == _oracle_series(K, variant)
    heads, chunks = _oracle_terms(K, variant)
    partial, adds = _oracle_partial(K, variant)
    assert adds == chunk - 1 + 4 + len(heads)
    exact = sum(map(_scaled, heads + [t for part in chunks for t in part.tolist()]))
    assert Fraction(abs(_scaled(partial) - exact), 1 << 1074) \
        <= Fraction(bounds._drift(adds, partial))


def test_series_enclosures_contain_the_exact_partial_sums():
    # lo <= sum_(k<=K) log k series_coefficient(k) <= hi, the sum taken by
    # mpmath at 30 digits from the exact coefficients, with no float kernel
    cuts = [10, 10 ** 3, 10 ** 4, bounds._CHUNK + 2]
    with mp.workdps(30):
        logs = [mp.log(k) for k in range(1, cuts[-1] + 1)]
        for variant in (PLAIN, EXTENDED):
            total, done = mp.mpf(0), min(GAP_INTEGRALS[variant].heads,
                                         default=GAP_INTEGRALS[variant].start) - 1
            for K in cuts:
                coeffs = (series_coefficient(k, variant) for k in range(done + 1, K + 1))
                total += mp.fsum(logs[k - 1] * c.numerator / c.denominator
                                 for k, c in enumerate(coeffs, done + 1))
                done = K
                iv = gap_log_series(K, variant)
                assert iv.lo <= total <= iv.hi, (variant, K)


def test_series_enclosures_contain_the_series_values():
    # the 30-digit values of both series (the baseline's Euler-Maclaurin
    # evaluation) lie in the enclosures at 10^5 and 10^7 terms
    for variant, value in ((PLAIN, 1.20356491674961), (EXTENDED, 0.693972344676595)):
        for K in (10 ** 5, 10 ** 7):
            iv = gap_log_series(K, variant)
            assert iv.lo <= value <= iv.hi, (variant, K)


def test_only_the_term_kernel_takes_logs():
    # the scan and the series read their terms from one kernel, so they
    # cannot evaluate their terms two ways
    tree = ast.parse(inspect.getsource(bounds))
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_term_chunks")

    def np_logs(node):
        return sum(isinstance(sub, ast.Attribute) and sub.attr == "log"
                   and isinstance(sub.value, ast.Name) and sub.value.id == "np"
                   for sub in ast.walk(node))

    assert np_logs(tree) == np_logs(kernel) == 1


def test_chunked_kernels_keep_peak_memory_below_a_block_of_temporaries():
    # the series holds its window and two chunk buffers, 0.75 MiB in all;
    # a block-sized array would be 8 MB per temporary (about 30 MiB for the
    # series, 61 MiB for the scan); the scan holds its four chunk buffers,
    # 1 MiB in all
    assert _traced_peak_mib(lambda: gap_log_series(3 * 10 ** 6, EXTENDED)) < 1
    assert _traced_peak_mib(lambda: finite_reveal_log_bound_scan(2 * 10 ** 6)) < 2


def test_factor_data_gives_the_closed_forms():
    for variant in (PLAIN, EXTENDED):
        law = GAP_INTEGRALS[variant]
        for k in range(1, 10 ** 4 + 1):
            assert (law.num(k), law.den(k)) == _oracle_num_den(k, variant), (variant, k)
        for k in range(law.start, 50):
            num, den = _oracle_num_den(k, variant)
            assert series_coefficient(k, variant) == Fraction(num, den), (variant, k)
    assert series_coefficient(1, PLAIN) == Fraction(1, 3)
    assert [series_coefficient(k, EXTENDED) for k in (2, 3)] == \
        [Fraction(1, 12), Fraction(23, 630)]


def test_whitworth_negative_control(monkeypatch):
    # C(7, 3) reads 36, not 35: the right side C(n-m+1, a+1) of (m, a, n) =
    # (0, 2, 6), the first triple in sweep order that uses it
    real = math.comb
    monkeypatch.setattr(bounds, "comb",
                        lambda n, k: real(n, k) + 1 if (n, k) == (7, 3) else real(n, k))
    with pytest.raises(AssertionError, match=r"fails at m=0, a=2, n=6$"):
        whitworth_sweep(40)


def test_c10_reports_the_failing_whitworth_triple(monkeypatch):
    # the fault above, through the criterion: a FAIL record, not a raise
    real = math.comb
    monkeypatch.setattr(bounds, "comb",
                        lambda n, k: real(n, k) + 1 if (n, k) == (7, 3) else real(n, k))
    res = verify.criterion_identities(verify.RunConfig())
    assert not res.passed
    assert res.fields["details"] == {"whitworth_triples": None,
                                     "failures": [("whitworth", 0, 2, 6)]}


def test_c11_fails_on_a_term_majorant_constant_too_small(monkeypatch):
    # c = 1 in c log k / k^2 falls below the plain term 2 log k / ((k+1)(k+2))
    # for large k; c11's verdict is already FAIL (the extended series), so the
    # control is the majorant detail itself
    monkeypatch.setitem(GAP_INTEGRALS, PLAIN, GAP_INTEGRALS[PLAIN]._replace(c=1))
    monkeypatch.setattr(verify, "SCAN_LIMIT", 1000)
    res = verify.criterion_constants(verify.RunConfig(series_truncation=10 ** 5))
    assert not res.passed
    assert res.fields["details"]["majorants"] == {"plain": False, "extended": True}


def test_whitworth_sweep_small():
    assert whitworth_sweep(12) == sum((n + 1) * (n + 2) // 2 for n in range(13))
    assert whitworth_sweep(0) == 1


def test_whitworth_sweep_rows_match_per_term_oracle_for_every_triple():
    # each row the sweep checks, read as left sides over n!, triple by
    # triple, equals the per-term sum, and the identity holds for it
    fact = [math.factorial(i) for i in range(42)]
    triples = 0
    for n, m, row in bounds._left_sides(40, fact):
        assert len(row) == n - m + 1, (m, n)
        for a, num in enumerate(row):
            lhs, rhs = _oracle_whitworth(m, a, n)
            assert Fraction(num, fact[n]) == lhs == rhs, (m, a, n)
            triples += 1
    assert triples == whitworth_sweep(40) == 12341


def test_whitworth_sweep_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        whitworth_sweep(-1)


def test_finite_bound_small_values():
    assert abs(finite_reveal_log_bound(1) - math.log(2)) < 1e-15
    expect2 = 2 * math.log(3) / 3 + (8 / 3) * math.log(2) / 12
    assert abs(finite_reveal_log_bound(2) - expect2) < 1e-15


def test_finite_bound_scan():
    scan = finite_reveal_log_bound_scan(20000)
    assert scan.certified_hi <= PLAIN_LOG_LIMIT
    assert abs(finite_reveal_log_bound(scan.argmax) - scan.max_value) < 1e-9
    # the scan maximum grows toward the series value
    assert finite_reveal_log_bound(10) < finite_reveal_log_bound(1000) \
        < scan.max_value + 1e-12


def test_c11_ceiling_past_the_scan_holds_at_every_later_n(monkeypatch):
    # c11's closed-form ceiling past the scan limit, against every f(n) up
    # to five times the limit; each f(n) is finite_reveal_log_bound's float
    # expression on the correctly rounded (math.fsum) prefix sum, kept as an
    # exact int multiple of 2^-1074
    monkeypatch.setattr(verify, "SCAN_LIMIT", 1000)
    res = verify.criterion_constants(verify.RunConfig(series_truncation=10 ** 5))
    details = res.fields["details"]
    ceiling = details["finite_scan"]["past_limit_hi"]
    assert ceiling == bounds.finite_reveal_log_ceiling(1000, details["plain_series"]["hi"])
    exact = 0
    for n in range(2, 5001):
        exact += _scaled(math.log(n) / ((n + 1) * (n + 2)))
        if n > 1000:
            f = 2 * math.log(n + 1) / (n + 1) + 2 * (n + 2) / (n + 1) * (exact / (1 << 1074))
            assert f <= ceiling, n
            if n % 1000 == 0:
                assert f == finite_reveal_log_bound(n)


def test_series_enclosures_nest():
    small = gap_log_series(10 ** 3, PLAIN)
    big = gap_log_series(10 ** 4, PLAIN)
    assert small.lo <= big.lo and big.hi <= small.hi
    assert big.hi <= PLAIN_LOG_LIMIT
    ext_small = gap_log_series(10 ** 3, EXTENDED)
    ext_big = gap_log_series(10 ** 4, EXTENDED)
    assert ext_small.lo <= ext_big.lo and ext_big.hi <= ext_small.hi


def test_plain_series_first_terms():
    # ten-term partial sum sits around 0.63, still far from the limit
    iv = gap_log_series(10, PLAIN)
    assert 0.63 < iv.lo < 0.64
    assert iv.hi > 1.0  # wide tail at K=10


def test_extended_series_value_exceeds_historic_limit():
    # the extended series converges near 0.694; the asserted ceiling 0.6331
    # is not met, which criterion c11 reports as an honest failure
    iv = gap_log_series(10 ** 5, EXTENDED)
    assert 0.693 < iv.lo < iv.hi < 0.695
    assert iv.lo > EXTENDED_LOG_LIMIT


def test_series_enclosures_are_bit_exact():
    # the bits of np.sum over each chunk in the installed numpy's order; a
    # numpy that sums in another order moves them, within the drift bound
    for variant, lo, hi in ((PLAIN, 1.2033146628910094, 1.203564921609065),
                            (EXTENDED, 0.6937221040326607, 0.6939723627470082)):
        iv = gap_log_series(10 ** 5, variant)
        assert (iv.lo, iv.hi) == (lo, hi), variant


@pytest.mark.parametrize("call", [
    lambda v: gap_log_series(100, v),
    lambda v: verify_term_majorants(v),
    lambda v: series_coefficient(5, v),
    lambda v: line_gap_pmf_poly(5, v),
    lambda v: line_gap_terms(5, v),
    lambda v: line_gap_pmf(Fraction(1, 2), 5, v),
    lambda v: line_gap_tail(Fraction(1, 2), 5, v),
], ids=["gap_log_series", "verify_term_majorants", "series_coefficient",
        "line_gap_pmf_poly", "line_gap_terms", "line_gap_pmf", "line_gap_tail"])
def test_unknown_variant_is_rejected(call):
    with pytest.raises(DistributionError, match="unknown variant 'bogus'"):
        call("bogus")


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        gap_log_series(5, PLAIN)


def test_term_majorants():
    assert verify_term_majorants(PLAIN)
    assert verify_term_majorants(EXTENDED)


@pytest.mark.parametrize("variant", [PLAIN, EXTENDED])
def test_term_majorant_with_too_small_a_constant_is_refused(monkeypatch, variant):
    # each law's c is the smallest integer the proof takes, which keeps the
    # tail bound c (log K + 1) / K tight: c - 1 = 1 is below the leading
    # ratio 2 of k^2 num(k) to den(k) in both laws
    law = GAP_INTEGRALS[variant]
    assert verify_term_majorants(variant)
    monkeypatch.setattr(bounds, "GAP_INTEGRALS",
                        {**GAP_INTEGRALS, variant: law._replace(c=law.c - 1)})
    assert not verify_term_majorants(variant)


def test_term_majorant_inequalities_explicit():
    # the nonnegative polynomial coefficients prove every k; these integer
    # comparisons check the cross-multiplied inequalities independently
    for k in range(1, 10 ** 5 + 1):
        assert k * k <= (k + 1) * (k + 2)
        assert k * k * (2 * k * k + 14 * k + 72) \
            <= 2 * (k + 3) * (k + 5) * (k + 6) * (k + 7)


def test_integral_checks():
    integral, closed, ok = integral_check(1, PLAIN)
    assert ok and integral == Fraction(1, 3)
    for k in range(1, 60):
        assert integral_check(k, PLAIN)[2]
    assert integral_check(2, EXTENDED) == (Fraction(1, 12), Fraction(1, 12), True)
    assert integral_check(3, EXTENDED)[1] == Fraction(23, 630)
    assert series_coefficient(4, EXTENDED) == Fraction(160, 6930)
    for k in range(2, 60):
        assert integral_check(k, EXTENDED)[2]
    with pytest.raises(ValueError):
        integral_check(1, EXTENDED)


@pytest.fixture
def cold_integral_caches():
    """Empty the integral kernel's row and weight caches before and after."""
    def clear():
        bounds._rows.clear()
        bounds._weights[:] = [1, [1]]

    clear()
    yield
    clear()


def _oracle_powers_at(needed):
    """(1-x)^b for the b in `needed` only, stepping by repeated multiplication."""
    row, out = [1], {}
    for b in range(max(needed) + 1):
        if b in needed:
            out[b] = row
        row = _oracle_poly_mul(row, [1, -1])
    return out


@pytest.mark.parametrize("k", [300, 1000])
@pytest.mark.parametrize("variant", [PLAIN, EXTENDED])
def test_integrals_past_c10s_range_match_oracles(cold_integral_caches, k, variant):
    # past the degrees c10 reaches, so a capped weight row would show
    qpow = _oracle_powers_at({k - 1, k + 2, k + 3, k + 4})
    poly = _oracle_pmf_poly(k, variant, qpow)
    integral, closed, ok = integral_check(k, variant)
    assert integral == _oracle_int_01(poly) == closed and ok
    assert len(bounds._weights[1]) == len(poly)


def test_cold_integral_at_a_high_degree(cold_integral_caches):
    # no recursion from b down to 0, and no step-by-step walk either
    integral, closed, ok = integral_check(5000, EXTENDED)
    assert ok and integral == series_coefficient(5000, EXTENDED)


def test_integral_caches_stay_bounded(cold_integral_caches):
    longest = 0
    for variant, first in ((PLAIN, 1), (EXTENDED, 2)):
        for k in range(first, 201):
            assert integral_check(k, variant)[2]
            longest = max(longest, len(line_gap_pmf_poly(k, variant)))
            assert len(bounds._rows) <= bounds._ROWS_KEPT
            assert len(bounds._weights[1]) == longest
    assert longest == 207
    # a shorter polynomial reuses the longest row and gives the same value
    assert integral_check(1, PLAIN)[:2] == (Fraction(1, 3), Fraction(1, 3))
    assert len(bounds._weights[1]) == 207


def test_pmf_polynomials_and_integrals_match_oracles():
    qpow = _oracle_powers(204)
    for variant, first in ((PLAIN, 1), (EXTENDED, 2)):
        for k in range(first, 201):
            poly = _oracle_pmf_poly(k, variant, qpow)
            assert line_gap_pmf_poly(k, variant) == poly, (variant, k)
            integral, closed, ok = integral_check(k, variant)
            assert integral == _oracle_int_01(poly) == closed and ok, (variant, k)


@pytest.mark.parametrize("k, variant, error", [
    (1, EXTENDED, ValueError),      # no polynomial closed form at k = 1
    (0, PLAIN, ValueError),
    (5, "bogus", DistributionError),
])
def test_series_coefficient_rejects_inputs_outside_its_domain(k, variant, error):
    with pytest.raises(error):
        series_coefficient(k, variant)
    with pytest.raises(error):
        line_gap_pmf_poly(k, variant)


def test_pmf_polynomials_evaluate_to_pmf():
    x = Fraction(2, 7)
    for variant, ks in ((PLAIN, (1, 2, 5)), (EXTENDED, (2, 3, 4, 9))):
        for k in ks:
            poly = line_gap_pmf_poly(k, variant)
            val = sum(Fraction(c) * x ** j for j, c in enumerate(poly))
            assert val == line_gap_pmf(x, k, variant)


def test_bound_report():
    rep = bound_report(3)
    assert all(rep["checks"].values())
    assert all(type(ok) is bool for ok in rep["checks"].values())
    assert rep["values"]["3.55^n"] == "44.738875"
    assert float(rep["values"]["exp(2.4076 n)"]) < float(rep["values"]["11.11^n"])
    with pytest.raises(ValueError):
        bound_report(0)


def test_base_checks_count_a_straddling_interval_as_false(monkeypatch):
    # at 4 bits every exp interval overlaps its base, so no check can pass
    monkeypatch.setattr(mp.iv, "prec", 4)
    checks = bound_report(1)["checks"]
    assert len(checks) == 3 and not any(checks.values())
