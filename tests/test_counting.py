import math
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from smcensus.counting import (EXACT_COMPONENT_LIMIT, BipartiteGraph,
                               BoundMode, FamilyError, TupleFamily,
                               bound_holds, bregman_log_bound,
                               count_perfect_matchings, diagonal_pair_family,
                               downset_top_family, option_count,
                               perfect_matching_family, random_bipartite_graph,
                               reveal_bound, reveal_bounds_exact)
from smcensus.distributions import (_conditional_option_histograms,
                                    _dominance_report, dominance_check_grid)
from smcensus.posets import count_downsets, grid_diamond, random_tangled_grid
from smcensus.rng import Xoshiro256StarStar, bernoulli_threshold

ORDERS = {"123": (0, 1, 2), "132": (0, 2, 1), "213": (1, 0, 2),
          "231": (1, 2, 0), "312": (2, 0, 1), "321": (2, 1, 0)}


def test_family_of_three():
    fam = diagonal_pair_family(1)
    assert set(fam.members) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}


@pytest.mark.parametrize("member, expected", [
    ((2, 2, 0), {"123": 6, "132": 6, "213": 2, "231": 1, "312": 5, "321": 1}),
    ((2, 0, 2), {"123": 6, "132": 6, "213": 5, "231": 1, "312": 2, "321": 1}),
    ((0, 2, 2), {"123": 6, "132": 6, "213": 2, "231": 1, "312": 2, "321": 1}),
])
def test_option_count_table(member, expected):
    fam = diagonal_pair_family(5)
    for name, order in ORDERS.items():
        assert option_count(fam, member, order, 0) == expected[name]


def test_option_count_errors():
    fam = diagonal_pair_family(2)
    with pytest.raises(FamilyError, match="not a family member"):
        option_count(fam, (2, 2, 2), (0, 1, 2), 0)
    with pytest.raises(FamilyError, match="permutation"):
        option_count(fam, (1, 1, 0), (0, 0, 2), 0)


def test_option_count_monotone_in_reveal_position():
    # moving a component later can only shrink its option count
    fam = downset_top_family(random_tangled_grid(3, 2))
    rng = Xoshiro256StarStar(11)
    for _ in range(30):
        order = tuple(rng.permutation(fam.n))
        member = fam.members[rng.randrange(len(fam.members))]
        i = order[rng.randrange(fam.n - 1)]
        pos = order.index(i)
        later = order[:pos] + order[pos + 1:pos + 2] + (i,) + order[pos + 2:]
        assert option_count(fam, member, later, i) <= option_count(fam, member, order, i)


def test_revealed_last_with_pinned_prefix_gives_one():
    fam = diagonal_pair_family(4)
    for member in fam.members:
        assert option_count(fam, member, (1, 2, 0), 0) == 1


def test_option_count_never_exceeds_component_size():
    fam = downset_top_family(random_tangled_grid(3, 4))
    rng = Xoshiro256StarStar(13)
    for _ in range(40):
        order = tuple(rng.permutation(fam.n))
        member = fam.members[rng.randrange(len(fam.members))]
        i = rng.randrange(fam.n)
        assert 1 <= option_count(fam, member, order, i) <= len(fam.components[i])


def test_fixed_order_bound_closed_form():
    for n_max in (2, 5, 10):
        fam = diagonal_pair_family(n_max)
        res = reveal_bound(fam, BoundMode("fixed_order", orders=(0, 1, 2)))
        closed = math.log(n_max + 1) + math.log(n_max) / 3 + 2 * math.log(2) / 3
        assert abs(res.value - closed) < 1e-12
        assert res.value >= math.log(3 * n_max)


def test_mean_product_closed_form():
    fam = diagonal_pair_family(5)
    res = reveal_bound(fam, BoundMode("mean_product"))
    assert res.product == Fraction(21, 6) ** 3


def test_singleton_family_bound_is_zero():
    fam = TupleFamily(((0,), (0,)), ((0, 0),))
    for variant in ("averaged", "worst_member", "mean_product"):
        res = reveal_bound(fam, BoundMode(variant))
        assert abs(res.value) < 1e-12
        assert bound_holds(res, fam)


def test_bounds_cover_family_size_exact_and_mc():
    fams = [diagonal_pair_family(4),
            downset_top_family(grid_diamond(2)),
            downset_top_family(random_tangled_grid(3, 5))]
    for fam in fams:
        for variant, res in reveal_bounds_exact(fam).items():
            assert bound_holds(res, fam), variant
        res = reveal_bound(fam, BoundMode("averaged", samples=1500), seed=3)
        assert res.stderr is not None
        assert bound_holds(res, fam)


def test_explicit_order_weights():
    fam = diagonal_pair_family(3)
    orders = (((0, 1, 2), Fraction(1, 2)), ((2, 1, 0), Fraction(1, 2)))
    res = reveal_bound(fam, BoundMode("averaged", orders=orders))
    assert bound_holds(res, fam)
    with pytest.raises(FamilyError, match="sum to 1"):
        BoundMode("averaged", orders=(((0, 1, 2), Fraction(1, 3)),))


def test_negative_sample_count_is_rejected():
    with pytest.raises(FamilyError, match="samples must be >= 0"):
        BoundMode("averaged", samples=-5)


def test_exact_mode_component_limit():
    grid = random_tangled_grid(5, 1)  # 10 components
    fam = downset_top_family(grid)
    with pytest.raises(FamilyError, match="Monte Carlo"):
        reveal_bound(fam, BoundMode("averaged"))
    res = reveal_bound(fam, BoundMode("averaged", samples=300), seed=1)
    assert bound_holds(res, fam)


def test_downset_family_size_matches_count():
    grid = random_tangled_grid(4, 8)
    fam = downset_top_family(grid)
    assert len(fam.members) == count_downsets(grid.poset)


def test_empty_and_invalid_families():
    with pytest.raises(FamilyError):
        TupleFamily(((0,),), ((0,), (0,)))
    with pytest.raises(FamilyError, match="outside component"):
        TupleFamily(((0,),), ((1,),))


def test_perfect_matching_family_and_bregman():
    g = BipartiteGraph(3, 3, frozenset((u, v) for u in range(3) for v in range(3)))
    fam = perfect_matching_family(g)
    assert len(fam.members) == 6
    assert abs(bregman_log_bound(g) - math.log(6)) < 1e-12
    single = BipartiteGraph(2, 2, frozenset({(0, 0), (1, 1)}))
    assert count_perfect_matchings(single) == 1
    assert bregman_log_bound(single) == 0.0


def test_bregman_on_random_graphs():
    rng = Xoshiro256StarStar(4)
    half = bernoulli_threshold(Fraction(1, 2))
    for _ in range(60):
        g = random_bipartite_graph(5, 5, half, rng)
        pm = count_perfect_matchings(g)
        if pm:
            assert math.log(pm) <= bregman_log_bound(g) + 1e-9


def test_unequal_sides_rejected():
    g = BipartiteGraph(2, 3, frozenset({(0, 0), (1, 1)}))
    with pytest.raises(FamilyError, match="equal side sizes"):
        perfect_matching_family(g)


# ------------------------------------------- option-count table vs oracle

def _pm_family(side, seed):
    rng = Xoshiro256StarStar(seed)
    half = bernoulli_threshold(Fraction(1, 2))
    while True:
        g = random_bipartite_graph(side, side, half, rng)
        if count_perfect_matchings(g) > 1:
            return perfect_matching_family(g)


ORACLE_FAMILIES = [
    pytest.param(diagonal_pair_family(5), id="diag5"),
    pytest.param(downset_top_family(random_tangled_grid(2, 3)), id="grid2"),
    pytest.param(downset_top_family(random_tangled_grid(3, 6)), id="grid3"),
    pytest.param(_pm_family(4, 21), id="pm4"),
]


def _revealed(order, i):
    return sum(1 << j for j in order[: order.index(i)])


def _order_with_prefix(prefix, i, n):
    return tuple(prefix) + (i,) + tuple(j for j in range(n) if j != i and j not in prefix)


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_table_matches_option_count_for_every_order(fam):
    table = fam.option_counts
    for order in permutations(range(fam.n)):
        for i in range(fam.n):
            row = table.row(i, _revealed(order, i))
            for mi, member in enumerate(fam.members):
                assert row[mi] == option_count(fam, member, order, i), (order, i)


def test_table_rejects_rows_outside_the_family():
    table = diagonal_pair_family(2).option_counts
    with pytest.raises(FamilyError, match="no row"):
        table.row(0, 0b001)  # component 0 cannot be revealed before itself
    with pytest.raises(FamilyError, match="no row"):
        table.row(0, 0b1000)
    with pytest.raises(FamilyError, match="no row"):
        table.row(3, 0)


def _reference_mixes(fam, i):
    """Per-member law of X_i over a uniform order, one subset at a time."""
    n = fam.n
    others = [j for j in range(n) if j != i]
    mixes = [{} for _ in fam.members]
    for size in range(n):
        w = Fraction(factorial(size) * factorial(n - 1 - size), factorial(n))
        for prefix in combinations(others, size):
            order = _order_with_prefix(prefix, i, n)
            for mi, member in enumerate(fam.members):
                c = option_count(fam, member, order, i)
                mixes[mi][c] = mixes[mi].get(c, 0) + w
    return mixes


def _mix_log(mix):
    return math.fsum(float(p) * math.log(c) for c, p in sorted(mix.items()))


def _add_mix(target, mix, scale=Fraction(1)):
    for c, p in mix.items():
        target[c] = target.get(c, 0) + p * scale


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_exact_bounds_equal_per_subset_reference(fam):
    nm = len(fam.members)
    avg_pc, avg_mix, worst_pc, worst_mix, prod_pc = [], {}, [], {}, []
    for i in range(fam.n):
        mixes = _reference_mixes(fam, i)
        comp = {}
        for mix in mixes:
            _add_mix(comp, mix, Fraction(1, nm))
        avg_pc.append(_mix_log(comp))
        _add_mix(avg_mix, comp)
        logs = [_mix_log(mix) for mix in mixes]
        best = max(range(nm), key=lambda mi: (logs[mi], mi))
        worst_pc.append(logs[best])
        _add_mix(worst_mix, mixes[best])
        prod_pc.append(max(sum(p * c for c, p in mix.items()) for mix in mixes))
    got = reveal_bounds_exact(fam)
    assert got["averaged"].per_component == tuple(avg_pc)
    assert got["averaged"].value == math.fsum(avg_pc)
    assert got["averaged"].log_mix == avg_mix
    assert got["worst_member"].per_component == tuple(worst_pc)
    assert got["worst_member"].value == math.fsum(worst_pc)
    assert got["worst_member"].log_mix == worst_mix
    assert got["mean_product"].per_component == tuple(prod_pc)
    assert got["mean_product"].product == math.prod(prod_pc)
    assert got["mean_product"].value == math.fsum(math.log(x) for x in prod_pc)
    for variant in ("averaged", "worst_member", "mean_product"):
        single = reveal_bound(fam, BoundMode(variant))
        assert single.value == got[variant].value
        assert single.per_component == got[variant].per_component


def _explicit_orders(n):
    """Four distinct orders whose weights have denominators 4, 6, 4, 3:
    their lcm, 12, is none of the denominators."""
    ident = tuple(range(n))
    orders = [ident, ident[::-1], ident[1:] + ident[:1], ident[2:] + ident[:2]]
    weights = [Fraction(1, 4), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3)]
    return tuple(zip(orders, weights))


HALVES = (((1, 0, 2), Fraction(1, 2)), ((2, 0, 1), Fraction(1, 2)))

EXPLICIT_CASES = [pytest.param(p.values[0], _explicit_orders(p.values[0].n), id=p.id)
                  for p in ORACLE_FAMILIES] + [
    # the first and the last member tie on component 0 (log 4 / 2 and log 2
    # are the same float) with different histograms: the tie-break shows
    pytest.param(TupleFamily((tuple(range(4)), (0, 1), tuple(range(5))),
                             ((0, 1, 4), (1, 1, 4), (1, 0, 1), (2, 0, 2), (3, 0, 3),
                              (0, 0, 0))), HALVES, id="tied"),
    # only the last member has the largest X_0
    pytest.param(TupleFamily(((0, 1),) * 3, ((1, 0, 1), (1, 1, 0), (0, 0, 0))),
                 HALVES, id="last-worst"),
]


@pytest.mark.parametrize("variant", ["averaged", "worst_member", "mean_product"])
@pytest.mark.parametrize("fam, orders", EXPLICIT_CASES)
def test_explicit_weighted_orders_match_per_order_reference(fam, orders, variant):
    nm = len(fam.members)
    per_component, log_mix = [], {}
    for i in range(fam.n):
        mixes = [{} for _ in fam.members]  # per member, {X_i: weight} by Fractions
        for order, w in orders:
            for mi, member in enumerate(fam.members):
                c = option_count(fam, member, order, i)
                mixes[mi][c] = mixes[mi].get(c, 0) + w
        if variant == "averaged":
            comp = {}
            for mix in mixes:
                _add_mix(comp, mix, Fraction(1, nm))
            per_component.append(_mix_log(comp))
            _add_mix(log_mix, comp)
        elif variant == "worst_member":
            logs = [_mix_log(mix) for mix in mixes]
            best = max(range(nm), key=lambda mi: (logs[mi], mi))
            per_component.append(logs[best])
            _add_mix(log_mix, mixes[best])
        else:
            per_component.append(max(sum(p * c for c, p in mix.items()) for mix in mixes))
    res = reveal_bound(fam, BoundMode(variant, orders=orders))
    assert res.exact
    assert res.per_component == tuple(per_component)
    if variant == "mean_product":
        assert res.product == math.prod(per_component)
        assert res.value == math.fsum(math.log(x) for x in per_component)
    else:
        assert res.log_mix == log_mix
        assert res.value == math.fsum(per_component)
    assert bound_holds(res, fam)


def _naive_mc(fam, variant, samples, seed):
    """Per-sample loop over orders and members, straight from option_count."""
    n, nm = fam.n, len(fam.members)
    rng = Xoshiro256StarStar(seed)
    logs = [[[] for _ in range(nm)] for _ in range(n)]
    lins = [[[] for _ in range(nm)] for _ in range(n)]
    for _ in range(samples):
        order = tuple(rng.permutation(n))
        for i in range(n):
            for mi, member in enumerate(fam.members):
                c = option_count(fam, member, order, i)
                logs[i][mi].append(math.log(c))
                lins[i][mi].append(c)

    def mean_stderr(values_per_member):
        mean = math.fsum(math.fsum(v) for v in values_per_member) / len(values_per_member) / samples
        sq = math.fsum(math.fsum(x * x for x in v) for v in values_per_member)
        var = max(sq / len(values_per_member) / samples - mean * mean, 0.0)
        return mean, math.sqrt(var / samples)

    per_component, errs = [], []
    for i in range(n):
        if variant == "averaged":
            mean, err = mean_stderr(logs[i])
        elif variant == "worst_member":
            mean, err = max((mean_stderr([v]) for v in logs[i]), key=lambda p: p[0])
        else:
            mean, err = max((mean_stderr([v]) for v in lins[i]), key=lambda p: p[0])
            err /= mean
        per_component.append(mean)
        errs.append(err)
    if variant == "mean_product":
        value = math.fsum(math.log(x) for x in per_component)
    else:
        value = math.fsum(per_component)
    return value, math.sqrt(math.fsum(e * e for e in errs))


@pytest.mark.parametrize("variant", ["averaged", "worst_member", "mean_product"])
@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_monte_carlo_matches_naive_per_sample_loop(fam, variant):
    res = reveal_bound(fam, BoundMode(variant, samples=120), seed=17)
    value, stderr = _naive_mc(fam, variant, 120, 17)
    assert math.isclose(res.value, value, rel_tol=1e-12)
    assert math.isclose(res.stderr, stderr, rel_tol=1e-12)


def test_monte_carlo_builds_only_sampled_rows():
    fam = downset_top_family(random_tangled_grid(6, 1))
    assert fam.n == 12 > EXACT_COMPONENT_LIMIT
    res = reveal_bound(fam, BoundMode("averaged", samples=300), seed=1)
    assert fam.option_counts.rows_built <= 300 * 12
    assert bound_holds(res, fam)


def _reference_dominance_hists(fam, chain, n):
    nch = 2 * n
    opposite = set(range(n, nch)) if chain < n else set(range(n))
    others = [j for j in range(nch) if j != chain]
    hists = {l: [{} for _ in fam.members] for l in range(n + 1)}
    for size in range(nch):
        w = factorial(size) * factorial(nch - 1 - size)
        for prefix in combinations(others, size):
            order = _order_with_prefix(prefix, chain, nch)
            row = hists[len(opposite.intersection(prefix))]
            for mi, member in enumerate(fam.members):
                c = option_count(fam, member, order, chain)
                row[mi][c] = row[mi].get(c, 0) + w
    return hists


@pytest.mark.parametrize("grid", [grid_diamond(2), random_tangled_grid(2, 8),
                                  random_tangled_grid(3, 9)])
def test_dominance_histograms_match_option_count(grid):
    fam = downset_top_family(grid)
    reports = iter(dominance_check_grid(grid))
    for chain in range(2 * grid.n):
        want = _reference_dominance_hists(fam, chain, grid.n)
        assert _conditional_option_histograms(fam, chain, grid.n) == want
        for l in range(2, grid.n + 1):
            got = next(reports)
            ref = _dominance_report(grid.n, chain, l, want[l])
            assert got == ref
