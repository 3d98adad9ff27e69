import itertools
import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import (CyclicGapSampler, LineGapSampler, gap_from_slots_where,
                     jensen_pair_check, line_gap_log_mean, option_count)
from smcensus import distributions, rng, verify
from smcensus.distributions import (EXTENDED, FIT_CELLS, PLAIN, SLOTS,
                                    WINDOW_CAP,
                                    DistributionError, _gap_from_slots,
                                    asymptotic_dominance_probe,
                                    cyclic_gap_expectation, cyclic_gap_pmf,
                                    cyclic_gap_pmf_bruteforce, dominance_check,
                                    dominance_check_grid, gap_dependence_cells,
                                    gap_dependence_check,
                                    jensen_margins,
                                    legal_identification_patterns,
                                    line_gap_cells, line_gap_pmf,
                                    line_gap_tail, line_gap_terms,
                                    line_gap_total,
                                    sample_cyclic_gap, sample_line_gap)
from smcensus.counting import downset_top_family
from smcensus.instances import random_instance
from smcensus.posets import TangledGrid, grid_diamond, random_tangled_grid
from smcensus.record import SE_RULE, law_fit
from smcensus.rotations import build_rotation_poset


def test_small_cyclic_pmf():
    pmf = dict(cyclic_gap_pmf(3, 2))
    assert pmf == {1: Fraction(1, 6), 2: Fraction(2, 6), 3: Fraction(3, 6)}


def test_cyclic_pmf_matches_enumeration():
    for n in range(2, 10):
        for l in range(2, n + 1):
            closed = dict(cyclic_gap_pmf(n, l))
            brute = dict(cyclic_gap_pmf_bruteforce(n, l))
            assert closed == brute, (n, l)


def test_cyclic_pmf_parameter_validation():
    with pytest.raises(DistributionError):
        cyclic_gap_pmf(3, 1)
    with pytest.raises(DistributionError):
        cyclic_gap_pmf(3, 4)


def test_cyclic_moments():
    m = cyclic_gap_expectation(3, 2)
    assert m.expectation == Fraction(7, 3)
    assert m.given_marked_unchosen == Fraction(8, 3)
    assert m.given_marked_chosen == Fraction(2)
    for n in range(2, 21):
        for l in range(2, n + 1):
            mm = cyclic_gap_expectation(n, l)
            assert mm.given_marked_unchosen == Fraction(2 * (n + 1), l + 1)
            assert mm.given_marked_chosen == Fraction(n + 1, l)
            assert mm.expectation <= Fraction(2 * (n + 1), l + 1)


def test_c08_reports_an_expectation_above_its_ceiling(monkeypatch):
    real = distributions.cyclic_gap_expectation

    def above_ceiling(n, l):
        moments = real(n, l)
        if (n, l) != (7, 4):
            return moments
        return distributions.CyclicGapMoments(Fraction(2 * (n + 1), l + 1) + Fraction(1, 100),
                                              moments.given_marked_unchosen,
                                              moments.given_marked_chosen)

    monkeypatch.setattr(distributions, "cyclic_gap_expectation", above_ceiling)
    res = verify.criterion_distributions(verify.RunConfig())
    assert not res.passed
    assert res.fields["details"]["failures"] == [("expectation", 7, 4)]


# ------------------------------------------------------------------ oracles
# The line-gap law in its factored form, with c = 1 - (1-x)^2 the chance
# that a slot is marked in either set, term for term as the slot model reads.


def _oracle_pmf(x, k, variant):
    one = Fraction(1) if isinstance(x, Fraction) else 1.0
    q = one - x
    if variant == PLAIN:
        return k * x * x * q ** (k - 1)
    c = one - q * q
    if k == 1:
        return x + q * c * c
    if k == 2:
        return 2 * q ** 3 * c ** 2
    if k == 3:
        return q ** 5 * c ** 2 + 2 * q ** 5 * c * x
    return 2 * q ** (k + 2) * c * x + 2 * q ** (k + 3) * c * x \
        + (k - 4) * q ** (k + 4) * x * x


def _oracle_tail(x, K, variant):
    one = Fraction(1) if isinstance(x, Fraction) else 1.0
    q = one - x
    if variant == PLAIN:
        return q ** K * (K * x + 1)
    c = one - q * q
    return 2 * c * q ** (K + 3) + 2 * c * q ** (K + 4) \
        + q ** (K + 5) * ((K - 3) * x + q)


FIRST_TAIL = {PLAIN: 1, EXTENDED: 3}


def test_law_matches_factored_oracle_exactly():
    for variant in (PLAIN, EXTENDED):
        for i in range(1, 31):
            x = Fraction(i, 31)
            for k in range(1, 81):
                assert line_gap_pmf(x, k, variant) == _oracle_pmf(x, k, variant), (variant, i, k)
            for K in range(FIRST_TAIL[variant], 81):
                assert line_gap_tail(x, K, variant) == _oracle_tail(x, K, variant), (variant, i, K)


def test_law_matches_factored_oracle_in_floats():
    def close(a, b):
        return abs(a) < sys.float_info.min or abs(a - b) <= 1e-13 * abs(a)

    for variant in (PLAIN, EXTENDED):
        for i in range(1, 100):
            x = i / 100
            for k in range(1, 400):
                assert close(_oracle_pmf(x, k, variant), line_gap_pmf(x, k, variant)), (variant, i, k)
            for K in range(FIRST_TAIL[variant], 400):
                assert close(_oracle_tail(x, K, variant), line_gap_tail(x, K, variant)), (variant, i, K)


def test_law_terms():
    assert line_gap_terms(7, PLAIN) == ((7, 6),)
    assert line_gap_terms(1, EXTENDED) == ((1, 1), (2, 2), (1, 3))
    assert line_gap_terms(4, EXTENDED) == ((2, 6), (4, 7), (2, 8))
    with pytest.raises(DistributionError):
        line_gap_terms(0, PLAIN)
    with pytest.raises(DistributionError, match="K >= 3"):
        line_gap_tail(Fraction(1, 2), 2, EXTENDED)


def test_plain_pmf_values():
    assert line_gap_pmf(Fraction(1, 2), 1, PLAIN) == Fraction(1, 4)
    assert line_gap_pmf(Fraction(1, 2), 2, EXTENDED) == Fraction(9, 64)


def test_normalization_exact_at_rational_points():
    for i in range(1, 21):
        x = Fraction(i, 21)
        assert line_gap_total(x, 35, PLAIN) == 1
        assert line_gap_total(x, 35, EXTENDED) == 1


def _oracle_total(x, K, variant):
    """The former line_gap_total, kept as labelled oracle: one Fraction per
    pmf point plus the closed-form tail."""
    return sum(line_gap_pmf(x, k, variant) for k in range(1, K + 1)) \
        + line_gap_tail(x, K, variant)


@pytest.mark.parametrize("x", [Fraction(i, 21) for i in range(1, 21)]
                         + [Fraction(1, 2), Fraction(3, 7), Fraction(1, 1000), 0.3],
                         ids=str)
def test_integer_normalization_equals_fraction_sum_oracle(x):
    for variant in (PLAIN, EXTENDED):
        for K in range(FIRST_TAIL[variant], 41):
            total = line_gap_total(x, K, variant)
            assert isinstance(total, Fraction)
            assert total == _oracle_total(Fraction(x), K, variant) == 1, (variant, K)


def test_normalization_fails_on_a_wrong_general_term(monkeypatch):
    law = distributions.GAP_LAWS[EXTENDED]
    alpha, beta, s = law.general[0]
    monkeypatch.setitem(distributions.GAP_LAWS, EXTENDED,
                        law._replace(general=((alpha, beta + 1, s),) + law.general[1:]))
    for x in (Fraction(1, 21), Fraction(1, 2), 0.3):
        assert line_gap_total(x, 40, EXTENDED) != 1
        assert line_gap_total(x, 40, PLAIN) == 1
    # the integrals read the same law, so they are held at pass here to
    # leave the first ten failures to the normalization
    monkeypatch.setattr(verify.bounds, "integral_check", lambda k, variant: (0, 0, True))
    report = verify.criterion_identities(verify.RunConfig())
    assert not report.passed
    assert report.fields["details"]["failures"] == [("extended_norm", i) for i in range(1, 11)]


@pytest.mark.parametrize("x", [0, 1, Fraction(-1, 2), Fraction(3, 2), 1.0])
def test_normalization_rejects_x_outside_the_open_unit_interval(x):
    with pytest.raises(DistributionError, match=r"outside \(0, 1\)"):
        line_gap_total(x, 40, PLAIN)


def test_normalization_rejects_an_unknown_variant():
    with pytest.raises(DistributionError, match="unknown variant 'bogus'"):
        line_gap_total(Fraction(1, 2), 40, "bogus")


@pytest.mark.parametrize("K, variant, message", [
    (2, EXTENDED, "extended tail needs K >= 3"),
    (0, PLAIN, "plain tail needs K >= 1"),
])
def test_normalization_rejects_K_below_the_heads(K, variant, message):
    with pytest.raises(DistributionError, match=message):
        line_gap_total(Fraction(1, 2), K, variant)


def test_tail_recurrence():
    x = Fraction(3, 7)
    for variant, k0 in ((PLAIN, 2), (EXTENDED, 4)):
        for k in range(k0, 25):
            assert line_gap_tail(x, k - 1, variant) - line_gap_tail(x, k, variant) \
                == line_gap_pmf(x, k, variant)


def test_x_range_validation():
    for bad in (0, 1, -0.5, 1.5):
        with pytest.raises(DistributionError):
            line_gap_pmf(bad, 2, PLAIN)


def test_samplers_deterministic():
    assert sample_cyclic_gap(5, 3, 7, 500).tolist() == sample_cyclic_gap(5, 3, 7, 500).tolist()
    for variant in (PLAIN, EXTENDED):
        assert sample_line_gap(0.3, variant, 7, 500).tolist() == \
            sample_line_gap(0.3, variant, 7, 500).tolist()


def two_sample_z(a: list[int], b: list[int], cells) -> float:
    """Largest |z| of the two-proportion test over the cells and the rest."""
    worst = 0.0
    for cell in list(cells) + [None]:
        if cell is None:
            fa = sum(v > max(cells) for v in a) / len(a)
            fb = sum(v > max(cells) for v in b) / len(b)
        else:
            fa, fb = a.count(cell) / len(a), b.count(cell) / len(b)
        pooled = (fa * len(a) + fb * len(b)) / (len(a) + len(b))
        se = math.sqrt(pooled * (1 - pooled) * (1 / len(a) + 1 / len(b)))
        if se > 0:
            worst = max(worst, abs(fa - fb) / se)
    return worst


def test_fast_samplers_match_scalar_oracles():
    draws = 20000
    fast = sample_cyclic_gap(6, 3, 11, draws).tolist()
    slow = CyclicGapSampler(6, 3, 12).take(draws)
    assert two_sample_z(fast, slow, range(1, 6)) < 4.5
    for x in (0.1, 0.3, 0.9):
        for variant in (PLAIN, EXTENDED):
            fast = sample_line_gap(x, variant, 11, draws).tolist()
            slow = LineGapSampler(x, variant, 12).take(draws)
            top = min(12, round(3 / x))
            assert two_sample_z(fast, slow, range(1, top)) < 4.5, (x, variant)


def test_fast_samplers_golden_values():
    # the first draws of seed 7, and draws on both sides of the boundary
    # between the two rounds of 10000 lanes; a change of any stream shows here
    assert sample_cyclic_gap(5, 3, 7, 12).tolist() == [1, 4, 3, 2, 2, 3, 4, 2, 2, 3, 3, 2]
    assert sample_line_gap(0.3, PLAIN, 7, 12).tolist() == [5, 4, 7, 5, 6, 8, 2, 2, 9, 9, 1, 12]
    assert sample_line_gap(0.3, EXTENDED, 7, 12).tolist() == \
        [1, 3, 8, 3, 2, 2, 4, 10, 1, 3, 1, 3]
    assert sample_line_gap(0.5, EXTENDED, 7, 20000)[9998:10002].tolist() == [1, 2, 1, 3]
    assert sample_cyclic_gap(50, 2, 7, 20000)[9998:10002].tolist() == [28, 49, 50, 33]


def test_sampler_frequencies_match_pmf():
    draws = 40000
    s = sample_cyclic_gap(3, 2, 42, draws).tolist()
    for k, p in [(1, 1 / 6), (2, 2 / 6), (3, 3 / 6)]:
        assert abs(s.count(k) / draws - p) <= 4 * math.sqrt(p * (1 - p) / draws)
    for variant in (PLAIN, EXTENDED):
        s = sample_line_gap(0.5, variant, 42, draws).tolist()
        for k in range(1, 6):
            p = float(line_gap_pmf(0.5, k, variant))
            assert abs(s.count(k) / draws - p) <= 4 * math.sqrt(p * (1 - p) / draws)


def test_law_fit_boundary_is_se_rule_squared_over_two():
    """The largest count of a cell whose m KL(f || p) stays at most
    SE_RULE^2 / 2 passes, and one more draw fails; the KL is taken at 50
    digits so that the two counts straddle the boundary by a clear margin."""
    m, p = 1000, Fraction(3, 10)

    def m_kl(count):
        with mpmath.workdps(50):
            f = mpmath.mpf(count) / m
            q = mpmath.mpf(p.numerator) / p.denominator
            return m * (f * mpmath.log(f / q) + (1 - f) * mpmath.log((1 - f) / (1 - q)))

    top = max(c for c in range(300, m) if m_kl(c) <= SE_RULE ** 2 / 2)
    assert m_kl(top) < SE_RULE ** 2 / 2 - 1e-6 and m_kl(top + 1) > SE_RULE ** 2 / 2 + 1e-6

    def draws(count):
        return np.array([1] * count + [2] * (m - count))

    assert law_fit(draws(top), [p, 1 - p]) == []
    assert law_fit(draws(top + 1), [p, 1 - p]) == [
        (1, (top + 1) / m, 0.3), (2, (m - top - 1) / m, 0.7)]


def test_law_fit_fails_one_draw_in_a_cell_of_mass_zero():
    masses = [Fraction(1, 2), Fraction(0), Fraction(1, 2)]
    assert law_fit(np.array([1, 3] * 500), masses) == []
    assert law_fit(np.array([1, 3] * 500 + [2]), masses) == [(2, 1 / 1001, 0.0)]


def test_law_fit_fails_draws_outside_the_support():
    masses = [Fraction(1, 2), Fraction(1, 2)]
    genuine = [1, 2] * 500
    assert law_fit(np.array(genuine + [0, -3]), masses) == [("outside_support", 2)]
    # with no tail the support ends at K, so draws above it are outside too
    assert law_fit(np.array(genuine + [3]), masses) == [("outside_support", 1)]
    # with a tail they fall in the tail cell
    assert law_fit(np.array([1] * 1000 + [3]), masses[:1], masses[1]) == [
        (1, 1000 / 1001, 0.5), (">1", 1 / 1001, 0.5)]


def test_law_fit_decides_the_line_gap_tail():
    s = sample_line_gap(0.5, PLAIN, 42, 10 ** 5)
    masses, tail = line_gap_cells(0.5, PLAIN)
    assert law_fit(s, masses, tail) == []
    clipped = np.minimum(s, FIT_CELLS)
    assert (f">{FIT_CELLS}", 0.0, float(tail)) in law_fit(clipped, masses, tail)


@pytest.mark.parametrize("n, l", [(2, 2), (3, 2), (5, 3), (12, 7), (50, 2)])
def test_cyclic_fit_cells_sum_to_one(n, l):
    support = cyclic_gap_pmf(n, l)  # law_fit reads masses of k = 1..K
    assert [k for k, _ in support] == list(range(1, len(support) + 1))
    assert sum(p for _, p in support) == 1


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(2, 7), Fraction(0.3), Fraction(9, 10)])
@pytest.mark.parametrize("variant", [PLAIN, EXTENDED])
def test_line_fit_cells_and_tail_sum_to_one(x, variant):
    masses, tail = line_gap_cells(x, variant)
    assert len(masses) == FIT_CELLS and tail > 0
    assert sum(masses) + tail == 1


def test_gap_from_slots_equals_selection_oracle_on_every_mark_combination():
    """All 2^9 combinations of the eight slot marks and the branch, each
    at several scan lengths (1 and the largest of c12's windows included)."""
    marks = (np.arange(512)[:, None] >> np.arange(9)) & 1 == 1
    marks = np.tile(marks, (4, 1))
    in_a = dict(zip(SLOTS, marks[:, 0:4].T))
    in_b = dict(zip(SLOTS, marks[:, 4:8].T))
    down = np.repeat([1, 2, 17, 400], 512)
    up = np.roll(down, 512)
    fast = _gap_from_slots(in_a, in_b, down, up, marks[:, 8])
    assert fast.dtype == np.int64
    assert fast.tolist() == gap_from_slots_where(in_a, in_b, down, up, marks[:, 8]).tolist()


def test_c13_fails_on_draws_outside_the_support(monkeypatch):
    """Impossible draws mixed into genuine ones (line gaps of 0, cyclic(3,2)
    gaps of 7) are too few to move any law cell past SE_RULE standard
    errors, so only the out-of-support cell can catch them."""
    line, cyclic = distributions.sample_line_gap, distributions.sample_cyclic_gap
    monkeypatch.setattr(distributions, "sample_line_gap",
                        lambda *args: np.concatenate([line(*args), [0] * 100]))
    monkeypatch.setattr(distributions, "sample_cyclic_gap",
                        lambda *args: np.concatenate([cyclic(*args), [7] * 50]))
    res = verify.criterion_samplers(verify.RunConfig())
    assert not res.passed
    assert res.fields["details"]["failures"] == [
        ("cyclic(3,2)", "outside_support", 50), ("line_plain", "outside_support", 100),
        ("line_extended", "outside_support", 100)]


def test_c13_fails_when_a_sampler_repeats_no_draws(monkeypatch):
    """A plain-gap sampler whose second call at one seed swaps two unequal
    draws keeps every cell's count, so only the determinism check sees it."""
    line, calls = distributions.sample_line_gap, itertools.count()

    def drifting(x, variant, seed, count):
        s = line(x, variant, seed, count)
        if variant == PLAIN and next(calls) % 2:
            i = int(np.flatnonzero(s != s[0])[0])
            s[[0, i]] = s[[i, 0]]
        return s

    monkeypatch.setattr(distributions, "sample_line_gap", drifting)
    res = verify.criterion_samplers(verify.RunConfig())
    assert res.fields["details"]["failures"] == [("plain_determinism",)]


@pytest.mark.parametrize("call", [
    lambda x: sample_line_gap(x, PLAIN, 0, 10),
    lambda x: sample_line_gap(x, EXTENDED, 0, 10),
    lambda x: gap_dependence_check(x, (), 0, 10),
], ids=["plain", "extended", "dependence"])
def test_samplers_refuse_a_window_past_the_cap_before_any_work(monkeypatch, call):
    def no_table(*args):
        raise AssertionError("a scan table was built")

    x_cap = 40 / WINDOW_CAP  # the smallest x whose window is within the cap
    assert distributions.line_gap_window(x_cap) == WINDOW_CAP
    monkeypatch.setattr(distributions, "ScanTable", no_table)
    for x in (x_cap * 0.999, 1e-5, 1e-9):
        with pytest.raises(DistributionError, match="above the cap"):
            call(x)
    monkeypatch.setattr(distributions, "ScanTable", rng.ScanTable)
    call(x_cap)  # the widest window within the cap runs


def test_trivial_grid_dominance():
    grid = random_tangled_grid(1, 0)
    assert grid.n == 1
    assert dominance_check_grid(grid) == []  # no valid l exists


def test_dominance_on_diamond_and_random_grids():
    for rep in dominance_check_grid(grid_diamond(3)):
        f = rep.fields
        assert rep.passed, (f["chain"], f["l"], f["witnesses"][:2])
    for seed in range(6):
        grid = random_tangled_grid(2 + seed % 3, seed)
        for rep in dominance_check_grid(grid):
            assert rep.passed


def test_dominance_parameter_validation():
    grid = grid_diamond(3)
    with pytest.raises(DistributionError):
        dominance_check(grid, 0, 1)
    with pytest.raises(DistributionError):
        dominance_check(grid, 6, 2)


def test_jensen_examples():
    lhs, rhs, ok = jensen_pair_check(1, 1, 1, Fraction(1, 2))
    assert ok
    assert abs(lhs - (math.log(2) / 2 + math.log(3) / 4)) < 1e-12
    assert abs(rhs - math.log(3) / 2) < 1e-12
    for x in (0, 1):
        lhs, rhs, ok = jensen_pair_check(2, 5, 7, x)
        assert ok and abs(lhs - rhs) < 1e-12
    with pytest.raises(DistributionError):
        jensen_pair_check(0, 1, 1, 0.5)


def test_jensen_margins_match_the_scalar_check_at_every_point():
    """The integer margin has the sign of the oracle's lhs - rhs, which
    equals x (1-x) log((a0+a1)(a0+a2) / (a0 (a0+a1+a2))) up to rounding."""
    points, margins = jensen_margins(10, 10)
    assert points.shape == (10 * 10 * 10 * 11, 4)
    assert points.tolist() == [[a0, a1, a2, xi] for a0 in range(1, 11) for a1 in range(1, 11)
                               for a2 in range(1, 11) for xi in range(11)]
    for (a0, a1, a2, xi), margin in zip(points.tolist(), margins.tolist()):
        lhs, rhs, ok = jensen_pair_check(a0, a1, a2, Fraction(xi, 10))
        x = xi / 10
        identity = x * (1 - x) * math.log((a0 + a1) * (a0 + a2) / (a0 * (a0 + a1 + a2)))
        assert abs((lhs - rhs) - identity) < 1e-14
        assert margin == xi * (10 - xi) * a1 * a2
        assert (margin > 0, margin == 0) == (lhs > rhs, lhs == rhs)
        assert ok


def test_c12_fails_on_a_grid_with_one_inequality_reversed(monkeypatch):
    """The margin of the point the float oracle finds widest, negated:
    c12 names that one point."""
    margins_of = jensen_margins

    def reversed_at(a_max, x_steps):
        points, margins = margins_of(a_max, x_steps)
        margins[k] = -margins[k]
        return points, margins

    points, _ = jensen_margins(10, 10)
    gaps = [lhs - rhs for lhs, rhs, _ in (jensen_pair_check(a0, a1, a2, Fraction(xi, 10))
                                          for a0, a1, a2, xi in points.tolist())]
    k = int(np.argmax(gaps))  # the widest margin, now a violation
    monkeypatch.setattr(distributions, "jensen_margins", reversed_at)
    res = verify.criterion_jensen_and_dependence(verify.RunConfig(mc_samples=1000))
    assert not res.passed
    assert res.fields["details"]["failures"] == [("jensen", 1, 10, 10, 5)]
    assert points[k].tolist() == [1, 10, 10, 5]


C12_XS = (0.1, 0.3, 0.5, 0.7, 0.9)


def scale_dependent_gaps(monkeypatch, shift: float) -> None:
    """Multiply every dependent gap by e^shift: each paired log-gap
    difference moves up by shift and keeps its standard error.  Each round
    of gap_dependence_cells draws once, computes the independent gaps, then
    one pattern's dependent gaps after another, so every gap computed after
    the first since the last draw is a dependent one."""
    real_gap, real_draws = distributions._gap_from_slots, distributions._extended_draws
    independent_next = [False]

    def draws(*args):
        independent_next[0] = True
        return real_draws(*args)

    def scaled(*args):
        gap = real_gap(*args)
        if independent_next[0]:
            independent_next[0] = False
            return gap
        return gap * math.exp(shift)

    monkeypatch.setattr(distributions, "_extended_draws", draws)
    monkeypatch.setattr(distributions, "_gap_from_slots", scaled)


def test_dependence_check_decides_at_se_rule_standard_errors(monkeypatch):
    base = gap_dependence_check(0.3, ((-1, 1),), seed=5, samples=20000)
    assert base.passed and base.diff_stderr > 0
    for se, passed in ((SE_RULE - 1, True), (SE_RULE + 1, False)):
        with monkeypatch.context() as m:
            scale_dependent_gaps(m, se * base.diff_stderr - base.diff_mean)
            res = gap_dependence_check(0.3, ((-1, 1),), seed=5, samples=20000)
        assert math.isclose(res.diff_mean, se * base.diff_stderr, rel_tol=1e-9)
        assert math.isclose(res.diff_stderr, base.diff_stderr, rel_tol=1e-9)
        assert res.passed is passed


def test_c12_fails_when_the_dependent_log_gap_is_shifted_up(monkeypatch):
    cells = []
    real = distributions.gap_dependence_cells

    def spy(*args, **kwargs):
        results = real(*args, **kwargs)
        cells.extend(results)
        return results

    monkeypatch.setattr(distributions, "gap_dependence_cells", spy)
    # identifying slots lowers E log gap by at most about 0.086 (x = 0.1,
    # both pairs identified), so a shift of 0.25 fails every cell
    scale_dependent_gaps(monkeypatch, 0.25)
    res = verify.criterion_jensen_and_dependence(verify.RunConfig(mc_samples=20000))
    assert not res.passed
    assert len(cells) == 25 and not any(cell.passed for cell in cells)
    failures = res.fields["details"]["failures"]
    # the first ten of 25 cells in pattern-major order: every x of the
    # first two patterns
    patterns = legal_identification_patterns()
    assert [f[1:3] for f in failures] == [(p, x) for p in patterns[:2] for x in C12_XS]
    for tag, _, _, diff_mean, diff_stderr in failures:
        assert tag == "dependence" and diff_mean > SE_RULE * diff_stderr


# one lane round, and 40000 drawn in three lane rounds
@pytest.mark.parametrize("samples", [1000, 40000])
def test_dependence_cells_equal_one_cell_views_bit_for_bit(samples):
    patterns = legal_identification_patterns()
    for xi, x in enumerate(C12_XS):
        cells = gap_dependence_cells(x, patterns, seed=700 + xi, samples=samples)
        assert [cell.pattern for cell in cells] == list(patterns)
        for pattern, cell in zip(patterns, cells):
            one = gap_dependence_check(x, pattern, seed=700 + xi, samples=samples)
            assert repr(cell) == repr(one), (x, pattern)  # float reprs round-trip exactly
            assert cell.samples == samples


def test_c12_draws_once_per_x_for_all_five_patterns(monkeypatch):
    real = distributions._extended_draws
    calls = itertools.count()

    def counted(*args):
        next(calls)
        return real(*args)

    monkeypatch.setattr(distributions, "_extended_draws", counted)
    res = verify.criterion_jensen_and_dependence(verify.RunConfig(mc_samples=40000))
    assert res.fields["details"]["dependence_cells"] == 25
    rounds = len(rng.lane_rounds(0, 40000)[1])
    assert rounds == 3
    assert next(calls) == 5 * rounds  # not 25 * rounds, one draw per cell


def test_identification_patterns():
    pats = legal_identification_patterns()
    assert () in pats and ((-1, 1), (0, 2)) in pats
    with pytest.raises(DistributionError, match="adjacent"):
        gap_dependence_check(0.5, ((0, 1),), seed=0, samples=100)
    with pytest.raises(DistributionError, match="adjacent"):
        gap_dependence_check(0.5, ((-1, 1), (1, 2)), seed=0, samples=100)


def test_dependence_check_small():
    res = gap_dependence_check(0.3, ((0, 2),), seed=1, samples=60000)
    assert res.passed
    assert res.samples == 60000  # exactly the samples asked for
    empty = gap_dependence_check(0.3, (), seed=1, samples=20000)
    assert empty.passed and empty.diff_mean == 0.0


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_dependence_independent_mean_matches_series(x):
    res = gap_dependence_check(x, ((-1, 1),), seed=2, samples=200000)
    assert abs(res.independent_mean - line_gap_log_mean(x, EXTENDED)) < 0.01


def test_asymptotic_probe():
    res = asymptotic_dominance_probe(50, seed=3, samples=1500)
    assert res.passed, res.fields["worst_shortfall"]
    assert res.fields["cells"] >= 1


def test_probe_option_count_matches_the_oracle():
    """The probe's structural X_u equals option_count on the downset-top
    family of the rotation poset, at every downset, for several reveal
    orders and every chain."""
    draw = rng.Xoshiro256StarStar(11)
    cases = 0
    for n in (6, 8, 10, 12, 16):
        for seed in range(30):
            rposet = build_rotation_poset(random_instance(n, seed))
            chains = rposet.m_chains + rposet.w_chains
            fam = downset_top_family(TangledGrid(rposet.finite_poset, rposet.m_chains,
                                                 rposet.w_chains))
            prefix, suffix = distributions._chain_closures(rposet.finite_poset, chains)
            for member in fam.members:
                tops = [0 if e < 0 else chain.index(e) + 1 for chain, e in zip(chains, member)]
                for _ in range(4):
                    order = tuple(draw.permutation(2 * n))
                    for pos, u in enumerate(order):
                        got = distributions._chain_option_count(prefix, suffix, tops,
                                                                order[:pos], u)
                        assert got == option_count(fam, member, order, u), (n, seed, order, u)
                        cases += 1
    assert cases > 30000


@pytest.mark.parametrize("n, samples, cause", [
    (1, 10, "no m-chain"),
    (50, 50, "no \\(x, chain\\) bucket reached 50 of 50 samples"),
])
def test_asymptotic_probe_without_cells_raises(n, samples, cause):
    with pytest.raises(DistributionError, match=cause):
        asymptotic_dominance_probe(n, seed=0, samples=samples)
