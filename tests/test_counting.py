import dataclasses
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import option_count
from smcensus import counting, verify
from smcensus.counting import (EXACT_COMPONENT_LIMIT, MC_COMPONENT_LIMIT, BipartiteGraph,
                               BoundMode, BoundResult, FamilyError,
                               OptionCountTable, TupleFamily, bound_holds,
                               bregman_bound, count_perfect_matchings,
                               diagonal_pair_family, downset_top_family,
                               perfect_matching_family, random_bipartite_graph,
                               reveal_bound, reveal_bounds_exact)
from smcensus.distributions import (_conditional_option_histograms,
                                    _dominance_report, cyclic_gap_pmf,
                                    dominance_check_grid)
from smcensus.posets import count_downsets, grid_diamond, random_tangled_grid
from smcensus.record import SE_RULE
from smcensus.rng import (KEY_CELLS, MC_LANES, Xoshiro256StarStar, XoshiroLanes,
                          bernoulli_threshold)

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


def test_bound_holds_fails_a_monte_carlo_bound_past_se_rule_standard_errors():
    fam = diagonal_pair_family(4)
    res = reveal_bound(fam, BoundMode("averaged", samples=1500), seed=3)
    target = math.log(len(fam.members))
    assert res.stderr > 0
    for se, holds in ((SE_RULE - 1, True), (SE_RULE + 1, False)):
        shifted = dataclasses.replace(res, value=target - se * res.stderr)
        assert bound_holds(shifted, fam) is holds


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
    assert bregman_bound(g) == (3, 6 ** 3)  # ((3!)^(1/3))^3 = 3!, cubed: tight
    single = BipartiteGraph(2, 2, frozenset({(0, 0), (1, 1)}))
    assert count_perfect_matchings(single) == 1
    assert bregman_bound(single) == (1, 1)
    # right degrees 2, 3, 1: L = 6 and P = (2!)^3 (3!)^2 (1!)^6
    mixed = BipartiteGraph(3, 3, frozenset({(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)}))
    assert bregman_bound(mixed) == (6, 2 ** 3 * 6 ** 2)
    assert bregman_bound(BipartiteGraph(2, 2, frozenset())) == (1, 1)


def test_bregman_on_random_graphs():
    rng = Xoshiro256StarStar(4)
    half = bernoulli_threshold(Fraction(1, 2))
    for _ in range(60):
        g = random_bipartite_graph(5, 5, half, rng)
        pm = count_perfect_matchings(g)
        L, P = bregman_bound(g)
        assert pm ** L <= P
        # (L, P) encodes the bound's float form, the sum of log(d!) / d
        want = math.fsum(math.lgamma(d + 1) / d for d in g.right_degrees() if d)
        assert math.isclose(math.log(P) / L, want, rel_tol=1e-12, abs_tol=1e-12)


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
    table = OptionCountTable((fam,))
    for order in permutations(range(fam.n)):
        for i in range(fam.n):
            row = table.counts([i], [_revealed(order, i)])[0].tolist()
            for mi, member in enumerate(fam.members):
                assert row[mi] == option_count(fam, member, order, i), (order, i)


def test_table_rejects_rows_outside_the_family():
    table = OptionCountTable((diagonal_pair_family(2),))
    with pytest.raises(FamilyError, match="no row"):
        table.counts([0], [0b001])  # component 0 cannot be revealed before itself
    with pytest.raises(FamilyError, match="no row"):
        table.counts([0], [0b1000])
    with pytest.raises(FamilyError, match="no row"):
        table.counts([3], [0])


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
    """Four distinct orders with weights 3, 2, 3 and 4 out of 12, for the
    table's histograms under weights that are neither uniform nor tallies."""
    ident = tuple(range(n))
    orders = [ident, ident[::-1], ident[1:] + ident[:1], ident[2:] + ident[:2]]
    return tuple(zip(orders, (3, 2, 3, 4)))


def _sampled_orders(n, samples, seed):
    """ORACLE: the Monte Carlo reveal orders from scalar streams.  Rounds of
    at most MC_LANES lanes and KEY_CELLS keys, balanced; in each round
    order j reads n keys from Xoshiro256StarStar(seed, stream=j) and sorts
    the components by key, ties to the lower index."""
    width = min(MC_LANES, max(1, KEY_CELLS // max(n, 1)))
    rounds = -(-samples // width)
    size = -(-samples // rounds)
    streams = [Xoshiro256StarStar(seed, stream=j) for j in range(size)]
    for r in range(rounds):
        for stream in streams[:min(size, samples - r * size)]:
            keys = [stream.next_u64() for _ in range(n)]
            yield tuple(sorted(range(n), key=keys.__getitem__))


def _naive_mc(fam, samples, seed):
    """The averaged Monte Carlo bound and its standard error by a
    per-sample loop over orders and members, straight from option_count."""
    n, nm = fam.n, len(fam.members)
    logs = [[] for _ in range(n)]
    for order in _sampled_orders(n, samples, seed):
        for i in range(n):
            logs[i] += [math.log(option_count(fam, member, order, i)) for member in fam.members]
    per_component, errs = [], []
    for values in logs:
        mean = math.fsum(values) / nm / samples
        var = max(math.fsum(x * x for x in values) / nm / samples - mean * mean, 0.0)
        per_component.append(mean)
        errs.append(math.sqrt(var / samples))
    return math.fsum(per_component), math.sqrt(math.fsum(e * e for e in errs))


@pytest.mark.parametrize("variant", ["averaged"])  # the one Monte Carlo variant
@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_monte_carlo_matches_naive_per_sample_loop(fam, variant):
    res = reveal_bound(fam, BoundMode(variant, samples=120), seed=17)
    value, stderr = _naive_mc(fam, 120, 17)
    assert math.isclose(res.value, value, rel_tol=1e-12)
    assert math.isclose(res.stderr, stderr, rel_tol=1e-12)


def test_monte_carlo_builds_only_sampled_rows(monkeypatch):
    fam = downset_top_family(random_tangled_grid(6, 1))
    assert fam.n == 12 > EXACT_COMPONENT_LIMIT
    tables = []
    law_histograms = OptionCountTable.law_histograms

    def spied(self, *args):
        tables.append(self)
        return law_histograms(self, *args)

    monkeypatch.setattr(OptionCountTable, "law_histograms", spied)
    res = reveal_bound(fam, BoundMode("averaged", samples=300), seed=1)
    [table] = tables
    assert table.rows_built <= 300 * 12
    assert bound_holds(res, fam)


# ------------------------------------------- the Monte Carlo order law

@pytest.mark.parametrize("n, samples", [(0, 5), (1, 10), (4, 500), (8, 300), (2, 40000),
                                        (70, 40), (130, 12)])
def test_lane_tallies_equal_the_scalar_order_oracle(n, samples):
    # 40000 orders of two components take three rounds of lanes; past one
    # int64 code word the tallies are refused rather than drawn wrong
    if n > MC_COMPONENT_LIMIT:
        with pytest.raises(FamilyError, match=f"up to {MC_COMPONENT_LIMIT} components"):
            counting._reveal_tallies(n, samples, 9)
        return
    assert _lane_tallies(n, samples, 9) == _ref_tallies(n, samples, 9)


def test_monte_carlo_past_one_code_word_is_refused(monkeypatch):
    # a (component, revealed set) code fills 57 + 6 = 63 bits at the limit,
    # where the tallies still equal the oracle; one component more is
    # refused before any order is drawn
    assert _lane_tallies(MC_COMPONENT_LIMIT, 40, 9) == _ref_tallies(MC_COMPONENT_LIMIT, 40, 9)
    n = MC_COMPONENT_LIMIT + 1
    fam = TupleFamily(((0, 1),) * n, ((0,) * n, (1,) * n))
    monkeypatch.setattr(counting, "lane_rounds", None)  # drawing would fail
    with pytest.raises(FamilyError, match=f"up to {MC_COMPONENT_LIMIT} components"):
        reveal_bound(fam, BoundMode("averaged", samples=10))


def _lane_tallies(n, samples, seed):
    """counting._reveal_tallies as tallies[i][T], checking that each pair is listed once."""
    comps, sets, weights = counting._reveal_tallies(n, samples, seed)
    assert len(set(zip(comps, sets))) == len(comps)
    tallies = [{} for _ in range(n)]
    for i, T, w in zip(comps, sets, weights):
        tallies[i][T] = w
    return tallies


def test_prefix_sets_follow_the_uniform_order_law():
    """Pr[T is revealed before i] = |T|! (n-1-|T|)! / n!, within 4 standard
    errors per (i, T) cell."""
    n, samples = 4, 10 ** 5
    tallies = _lane_tallies(n, samples, 3)
    for i in range(n):
        for T in range(1 << n):
            if T >> i & 1:
                assert T not in tallies[i]
                continue
            p = factorial(T.bit_count()) * factorial(n - 1 - T.bit_count()) / factorial(n)
            f = tallies[i].get(T, 0) / samples
            assert abs(f - p) <= 4 * math.sqrt(p * (1 - p) / samples), (i, T, f, p)


def _wide_family(n, size, seed):
    """`size` distinct random 0/1/2 tuples over n components."""
    rng = Xoshiro256StarStar(seed)
    members = set()
    while len(members) < size:
        members.add(tuple(rng.randrange(3) for _ in range(n)))
    return TupleFamily(((0, 1, 2),) * n, tuple(sorted(members)))


@pytest.mark.parametrize("variant", ["averaged"])  # the one Monte Carlo variant
def test_monte_carlo_at_the_component_limit_matches_naive_loop(variant):
    fam = _wide_family(MC_COMPONENT_LIMIT, 6, 4)
    res = reveal_bound(fam, BoundMode(variant, samples=25), seed=8)
    value, stderr = _naive_mc(fam, 25, 8)
    assert math.isclose(res.value, value, rel_tol=1e-12)
    assert math.isclose(res.stderr, stderr, rel_tol=1e-12)


@pytest.mark.parametrize("key, order", [(lambda j, n: 0, (0, 1, 2, 3)),
                                        (lambda j, n: (n - j) // 2, (3, 1, 2, 0))],
                         ids=["all-tied", "pairs-tied"])
def test_tied_keys_reveal_in_index_order(monkeypatch, key, order):
    def tied_block(self, rows, width):
        return np.array([[key(j, rows)] * width for j in range(rows)], dtype=np.uint64)

    monkeypatch.setattr(XoshiroLanes, "next_block", tied_block)
    samples = 50
    want = [{_revealed(order, i): samples} for i in range(4)]
    assert _lane_tallies(4, samples, 1) == want
    fam = _wide_family(4, 20, 2)
    res = reveal_bound(fam, BoundMode("averaged", samples=samples), seed=1)
    fixed = reveal_bound(fam, BoundMode("fixed_order", orders=order))
    assert res.per_component == fixed.per_component


def test_a_million_orders_stay_within_a_memory_bound():
    """Orders are drawn in rounds of at most MC_LANES lanes, so the peak
    does not grow with the sample count: 10.4 MiB traced at 10^6 orders of
    8 components (a round's keys, order and codes with their temporaries),
    where one key block for all orders alone would be 61 MiB."""
    fam = downset_top_family(random_tangled_grid(4, 3))
    assert fam.n == 8
    tracemalloc.start()
    try:
        res = reveal_bound(fam, BoundMode("averaged", samples=10 ** 6), seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
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
    levels = range(2, grid.n + 1)
    got_hists = _conditional_option_histograms(fam, grid.n, range(2 * grid.n), levels)
    for chain in range(2 * grid.n):
        want = _reference_dominance_hists(fam, chain, grid.n)
        assert {l: _as_dicts(got_hists[l][chain]) for l in levels} == \
            {l: want[l] for l in levels}
        for l in levels:
            got = next(reports)
            assert got == _dominance_report_reference(grid.n, chain, l, want[l])
            assert got == _dominance_report(grid.n, chain, l, got_hists[l][chain])


# ------------------------------------- dict-based oracle of the columnar table

class OptionCountTableReference:
    """ORACLE: the dict-based option-count table the columnar
    ``OptionCountTable`` replaced.  A row counts, per group of members
    agreeing on T, the distinct values of component i; the grouping for T
    is built from the grouping for T without its top bit."""

    def __init__(self, family: TupleFamily):
        self.n = family.n
        self._columns = list(zip(*family.members)) or [()] * family.n
        self._groups: dict[int, list[int]] = {0: [0] * len(family.members)}
        self._rows: dict[tuple[int, int], tuple[int, ...]] = {}

    def _grouping(self, T: int) -> list[int]:
        groups = self._groups.get(T)
        if groups is None:
            top = T.bit_length() - 1
            ids: dict[tuple, int] = {}
            groups = [ids.setdefault(key, len(ids)) for key in
                      zip(self._grouping(T & ~(1 << top)), self._columns[top])]
            self._groups[T] = groups
        return groups

    def row(self, i: int, T: int) -> tuple[int, ...]:
        row = self._rows.get((i, T))
        if row is None:
            groups = self._grouping(T)
            options = Counter(map(itemgetter(0), set(zip(groups, self._columns[i]))))
            row = tuple(map(options.__getitem__, groups))
            self._rows[(i, T)] = row
        return row

    def histograms(self, i: int, weighted_sets) -> list[dict[int, int]]:
        """Per member, {X_i: total weight} over (T, weight) pairs."""
        merged: dict[tuple[int, ...], int] = {}
        for T, w in weighted_sets:
            row = self.row(i, T)
            merged[row] = merged.get(row, 0) + w
        hists: list[dict[int, int]] = [{} for _ in self._groups[0]]
        for row, w in merged.items():
            for hist, c in zip(hists, row):
                hist[c] = hist.get(c, 0) + w
        return hists


def _ref_mix_log(hist, total):
    return math.fsum(w / total * math.log(c) for c, w in sorted(hist.items()))


def _ref_reduce(variant, hists, total):
    """The per-member dict reduction: (statistic, histogram, its total)."""
    if variant in ("fixed_order", "averaged"):
        pooled = Counter()
        for hist in hists:
            pooled.update(hist)
        return _ref_mix_log(pooled, total * len(hists)), pooled, total * len(hists)
    if variant == "worst_member":
        stats = [_ref_mix_log(hist, total) for hist in hists]
    else:
        stats = [sum(w * c for c, w in hist.items()) for hist in hists]
    best = max(range(len(hists)), key=lambda mi: (stats[mi], mi))
    stat = stats[best] if variant == "worst_member" else Fraction(stats[best], total)
    return stat, hists[best], total


def _ref_aggregate(variant, comps):
    per_component, log_mix, product = [], {}, Fraction(1)
    for hists, total in comps:
        stat, hist, hist_total = _ref_reduce(variant, hists, total)
        per_component.append(stat)
        if variant == "mean_product":
            product *= stat
        else:
            for c, w in hist.items():
                log_mix[c] = log_mix.get(c, 0) + Fraction(w, hist_total)
    if variant == "mean_product":
        value = math.fsum(math.log(x) for x in per_component)
        return BoundResult(variant, value, tuple(per_component), True, product=product)
    return BoundResult(variant, math.fsum(per_component), tuple(per_component), True,
                       log_mix=log_mix)


def _ref_tallies(n, samples, seed):
    """tallies[i][T]: how many of the seeded sampled orders reveal T before i."""
    tallies = [{} for _ in range(n)]
    for order in _sampled_orders(n, samples, seed):
        T = 0
        for i in order:
            tallies[i][T] = tallies[i].get(T, 0) + 1
            T |= 1 << i
    return tallies


def _ref_mc(hists_per_component, t):
    """ORACLE: the averaged Monte Carlo bound from each component's
    per-member dicts over t sampled orders, with its standard error."""
    per_component, errs = [], []
    for hists in hists_per_component:
        stat, hist, total = _ref_reduce("averaged", hists, t)
        second = math.fsum(w / total * math.log(c) ** 2 for c, w in hist.items())
        per_component.append(stat)
        errs.append(math.sqrt(max(second - stat * stat, 0.0) / t))
    return BoundResult("averaged", math.fsum(per_component), tuple(per_component), False,
                       stderr=math.sqrt(math.fsum(e * e for e in errs)))


def _conditional_histograms_reference(table, chain_index, n):
    """ORACLE: the dominance histograms through the dict-based table."""
    nch = 2 * n
    opposite = ((1 << n) - 1) << n if chain_index < n else (1 << n) - 1
    prefixes = {l: [] for l in range(n + 1)}
    for T in range(1 << nch):
        if not T >> chain_index & 1:
            size = T.bit_count()
            prefixes[(T & opposite).bit_count()].append(
                (T, factorial(size) * factorial(nch - 1 - size)))
    return {l: table.histograms(chain_index, weighted) for l, weighted in prefixes.items()}


def _dominance_report_reference(n, chain_index, l, hists):
    """ORACLE: the dominance report by Fractions, one member at a time."""
    pmf = cyclic_gap_pmf(n, l)
    ref_cdf = [(y, sum(p for k, p in pmf if k <= y)) for y, _ in pmf]
    witnesses = []
    for mi, hist in enumerate(hists):
        total = sum(hist.values())
        for y, ref_p in ref_cdf:
            acc = sum(w for c, w in hist.items() if c <= y)
            if Fraction(acc, total) < ref_p:
                witnesses.append((mi, y, Fraction(acc, total), ref_p))
    return verify.CheckResult("dominance", not witnesses,
                              {"chain": chain_index, "l": l, "witnesses": witnesses})


def _as_dicts(hists):
    """A (member x X) weight matrix as per-member {X: weight} dicts."""
    return [{c: w for c, w in enumerate(row) if w} for row in hists.tolist()]


def _as_matrix(dicts, width):
    out = np.zeros((len(dicts), width), np.int64)
    for mi, hist in enumerate(dicts):
        for c, w in hist.items():
            out[mi, c] = w
    return out


# ----------------------------------------- columnar table vs the dict oracle

MC_SAMPLES = 200  # c06's Monte Carlo sample count at --samples 20000


def _family_group(name):
    """(family, its grid for c09's dominance check or None): the oracle
    families, or every family of c06 / c09 at one seed."""
    if name == "oracle":
        return [(p.values[0], None) for p in ORACLE_FAMILIES]
    check, seed = name.split("@")
    config = verify.RunConfig(seed=int(seed))
    if check == "c06":
        return [(fam, None) for _, fam in verify.family_bound_families(config)]
    return [(downset_top_family(grid), grid) for _, grid in verify.dominance_grids(config)]


FAMILY_GROUPS = ["oracle", "c06@42", "c06@7", "c09@42", "c09@7"]


@pytest.mark.parametrize("group", FAMILY_GROUPS)
def test_columnar_table_equals_dict_oracle(group):
    variants = ("averaged", "worst_member", "mean_product")
    for fam, grid in _family_group(group):
        table, ref, n = OptionCountTable((fam,)), OptionCountTableReference(fam), fam.n
        ident, explicit = tuple(range(n)), _explicit_orders(n)
        tallies = _ref_tallies(n, MC_SAMPLES, 42)
        want = {"uniform": [], "explicit": [], "mc": []}  # per component, member dicts
        for i in range(n):
            sets = [T for T in range(1 << n) if not T >> i & 1]
            assert table.counts([i] * len(sets), sets).tolist() == \
                [list(ref.row(i, T)) for T in sets]
            assert tuple(table.counts([i], sets[-1:])[0].tolist()) == ref.row(i, sets[-1])
            uniform = [factorial(T.bit_count()) * factorial(n - 1 - T.bit_count())
                       for T in sets]
            weighted = {"uniform": (sets, uniform),
                        "explicit": ([_revealed(o, i) for o, _ in explicit],
                                     [w for _, w in explicit]),
                        "mc": (list(tallies[i]), list(tallies[i].values()))}
            for kind, (ts, ws) in weighted.items():
                want[kind].append(ref.histograms(i, zip(ts, ws)))
                assert _as_dicts(table.law_histograms([i] * len(ts), ts, [ws])[0, i]) == \
                    want[kind][-1], (kind, i)
        uniform = [(hists, factorial(n)) for hists in want["uniform"]]
        assert reveal_bounds_exact(fam) == {v: _ref_aggregate(v, uniform) for v in variants}
        fixed = [([{c: 1} for c in ref.row(i, _revealed(ident, i))], 1) for i in range(n)]
        assert reveal_bound(fam, BoundMode("fixed_order", orders=ident)) == \
            _ref_aggregate("fixed_order", fixed)
        assert reveal_bound(fam, BoundMode("averaged", samples=MC_SAMPLES), seed=42) == \
            _ref_mc(want["mc"], MC_SAMPLES)
        if grid is not None:
            levels = range(2, grid.n + 1)
            got = _conditional_option_histograms(fam, grid.n, range(2 * grid.n), levels)
            for chain in range(2 * grid.n):
                by_l = _conditional_histograms_reference(ref, chain, grid.n)
                assert {l: _as_dicts(got[l][chain]) for l in levels} == \
                    {l: by_l[l] for l in levels}
                for l in levels:
                    assert _dominance_report(grid.n, chain, l, got[l][chain]) == \
                        _dominance_report_reference(grid.n, chain, l, by_l[l])


# ------------------------------------------------ negative controls

# gap law of l = 2 points among 4 cyclic positions: Pr[gap <= y] = 1/6, 1/2, 1
HAND_BUILT = [
    pytest.param([{4: 6},                # never below 4: fails at y = 1, 2, 3
                  {1: 6},                # dominated
                  {1: 3, 3: 3},          # ties Pr[gap <= 2] = 1/2 exactly: no witness
                  {1: 1, 2: 3, 4: 8}],   # 1/12, 1/3, 1/3: fails at y = 1, 2, 3
                 5, [(0, 1, Fraction(0), Fraction(1, 6)), (0, 2, Fraction(0), Fraction(1, 2)),
                     (0, 3, Fraction(0), Fraction(1)), (3, 1, Fraction(1, 12), Fraction(1, 6)),
                     (3, 2, Fraction(1, 3), Fraction(1, 2)), (3, 3, Fraction(1, 3), Fraction(1))],
                 id="wide"),
    # counts stop at 2 < y = 3: Pr[X <= 3] is the whole row
    pytest.param([{2: 6}, {1: 1, 2: 5}], 3, [(0, 1, Fraction(0), Fraction(1, 6))], id="narrow"),
]


@pytest.mark.parametrize("dicts, width, witnesses", HAND_BUILT)
def test_hand_built_violation_gives_the_fraction_witnesses(dicts, width, witnesses):
    got = _dominance_report(3, 0, 2, _as_matrix(dicts, width))
    assert got == _dominance_report_reference(3, 0, 2, dicts)
    assert not got.passed
    assert got.fields["witnesses"] == witnesses


# the members tie on mean log (log 4 / 2 and log 2 are the same float) and
# on mean count (2), each time with a different histogram
TIES = {"worst_member": [{1: 1, 4: 1}, {2: 2}], "mean_product": [{1: 1, 3: 1}, {2: 2}]}


@pytest.mark.parametrize("variant", ["averaged", "worst_member", "mean_product"])
def test_reduce_breaks_ties_like_the_dict_oracle(variant):
    for dicts in TIES.values():
        [stat], hist, total = counting._reduce(variant, _as_matrix(dicts, 5)[None], 2)
        want_stat, want_hist, want_total = _ref_reduce(variant, dicts, 2)
        assert (stat, _as_dicts(hist)[0], total) == (want_stat, want_hist, want_total)
    if variant in TIES:
        assert want_hist == TIES[variant][1]  # the later member


def test_histograms_in_small_chunks_equal_the_dict_oracle(monkeypatch):
    for p in ORACLE_FAMILIES:
        fam = p.values[0]
        ref = OptionCountTableReference(fam)
        monkeypatch.setattr(counting, "_CHUNK_CELLS", 3 * len(fam.members))  # 3 sets a step
        for i in range(fam.n):
            sets = [T for T in range(1 << fam.n) if not T >> i & 1]
            weights = list(range(1, len(sets) + 1))  # distinct, so a misaligned weight shows
            hists = OptionCountTable((fam,)).law_histograms([i] * len(sets), sets, [weights])
            assert _as_dicts(hists[0, i]) == ref.histograms(i, zip(sets, weights))


@pytest.mark.parametrize("step", [None, 3], ids=["one-step", "3-sets-a-step"])
def test_histograms_of_many_components_equal_one_component_at_a_time(monkeypatch, step):
    """The Monte Carlo batch, one component per set, against the dict
    oracle component by component, padded to the widest card + 1."""
    for p in ORACLE_FAMILIES:
        fam = p.values[0]
        ref = OptionCountTableReference(fam)
        if step:
            monkeypatch.setattr(counting, "_CHUNK_CELLS", step * len(fam.members))
        pairs = [(i, T) for T in range(1 << fam.n) for i in range(fam.n) if not T >> i & 1]
        comps, sets = [i for i, _ in pairs], [T for _, T in pairs]
        weights = list(range(1, len(pairs) + 1))
        table = OptionCountTable((fam,))
        assert table.counts(comps, sets).tolist() == [list(ref.row(i, T)) for i, T in pairs]
        [hists] = table.law_histograms(comps, sets, [weights])
        width = max(len(c) for c in fam.components) + 1
        assert hists.shape == (fam.n, len(fam.members), width)
        for i in range(fam.n):
            mine = [(T, w) for (c, T), w in zip(pairs, weights) if c == i]
            assert _as_dicts(hists[i]) == ref.histograms(i, mine)


def test_component_lists_are_checked_per_set():
    table = OptionCountTable((diagonal_pair_family(2),))
    with pytest.raises(FamilyError, match="2 components for 1 sets"):
        table.counts([0, 1], [0])
    with pytest.raises(FamilyError, match="no row for component 1 after set 0b10"):
        table.law_histograms([0, 1], [0b10, 0b10], [[1, 1]])
    with pytest.raises(FamilyError, match="no row for component 3"):
        table.counts([0, 3], [0, 0])


def check_by_walk(n, i, sets):
    """The former OptionCountTable._check, kept as labelled oracle: every
    (component, set) pair tested in turn.  Returns the message, or None."""
    if len(i) != len(sets):
        return f"{len(i)} components for {len(sets)} sets"
    for c, T in zip(i, sets):
        if not 0 <= c < n:
            return f"no row for component {c}"
        if T >> c & 1 or T >> n:
            return f"no row for component {c} after set {T:#b}"
    return None


@pytest.mark.parametrize("i, sets, message", [
    (3, [0], "no row for component 3"),
    (-1, [0], "no row for component -1"),
    (1, [0, 0b1, 0b1010, 0b10], "no row for component 1 after set 0b1010"),
    (0, [0b110, 0b1000, 0b1], "no row for component 0 after set 0b1000"),
    (0, [0b10, -0b10], "no row for component 0 after set -0b10"),
    ([0, 3], [0, 0], "no row for component 3"),
    ([0, -1], [0, 0], "no row for component -1"),
    ([0, 1, 2], [0b100, 0b1010, 0b10], "no row for component 1 after set 0b1010"),
    ([2, 0, 1], [0b11, 0b1000, 0b1], "no row for component 0 after set 0b1000"),
    ([1, 0], [0, -0b10], "no row for component 0 after set -0b10"),
    ([0, 1], [0], "2 components for 1 sets"),
])
def test_option_count_checks_name_the_first_offender(i, sets, message):
    table = OptionCountTable((diagonal_pair_family(2),))  # three components
    i = [i] * len(sets) if isinstance(i, int) else i  # one component for every set
    assert check_by_walk(3, i, sets) == message
    with pytest.raises(FamilyError) as exc:
        table.counts(i, sets)
    assert str(exc.value) == message


@given(st.integers(-1, 4), st.lists(st.integers(-2, 20), max_size=12), st.booleans())
@settings(max_examples=100, deadline=None)
def test_option_count_check_matches_pair_walk(i, sets, as_list):
    table = OptionCountTable((diagonal_pair_family(2),))
    comps = [(i + k) % 4 - (k % 5 == 4) for k in range(len(sets))] if as_list \
        else [i] * len(sets)
    want = check_by_walk(3, comps, sets)
    try:
        table._check(comps, sets)
        got = None
    except FamilyError as exc:
        got = str(exc)
    assert got == want


def test_dominance_makes_one_histogram_request_per_grid(monkeypatch):
    """c09 reads each grid's laws for 2 <= l <= n, every chain, in one
    request with one weight column per l; each (chain, set) pair weighs
    in exactly one column."""
    calls = []
    law_histograms = OptionCountTable.law_histograms

    def counted(self, i, sets, columns):
        calls.append((sorted(set(i)), len(columns)))
        assert all(sum(w != 0 for w in ws) == 1 for ws in zip(*columns))
        return law_histograms(self, i, sets, columns)

    monkeypatch.setattr(OptionCountTable, "law_histograms", counted)
    for _, grid in verify.dominance_grids(verify.RunConfig()):
        calls.clear()
        dominance_check_grid(grid)
        assert calls == [(list(range(2 * grid.n)), grid.n - 1)]


def test_dominance_criterion_fails_on_inflated_counts(monkeypatch):
    counts = OptionCountTable._counts

    def inflated(self, i, sets):
        return np.minimum(counts(self, i, sets) + 1, np.take(self._cards, i)[:, None])

    assert verify.criterion_dominance(verify.RunConfig()).passed
    monkeypatch.setattr(OptionCountTable, "_counts", inflated)
    assert not verify.criterion_dominance(verify.RunConfig()).passed


def test_family_bounds_criterion_fails_when_every_count_is_one(monkeypatch):
    counts = OptionCountTable._counts
    monkeypatch.setattr(OptionCountTable, "_counts",
                        lambda self, i, sets: np.ones_like(counts(self, i, sets)))
    config = verify.RunConfig(mc_samples=20000)
    result = verify.criterion_family_bounds(config)
    assert not result.passed
    details = result.fields["details"]
    assert details["failures"]
    # every bound reads 0, so each margin is -log |S| and no standard error is left
    logs = [math.log(len(fam.members)) for _, fam in verify.family_bound_families(config)]
    variants = ("averaged", "worst_member", "mean_product", "fixed_order", "averaged_mc")
    assert details["min_margin"] == {**dict.fromkeys(variants, -max(logs)),
                                     "averaged_mc_se": None}
    assert details["mean_margin"] == dict.fromkeys(variants, math.fsum(-x for x in logs)
                                                   / len(logs))


def test_family_bounds_criterion_fails_on_option_counts_one_too_small(monkeypatch):
    # every option count misses one option (a member always has its own, so
    # a count stays at least 1): the worked family diag2 fails every variant
    counts = OptionCountTable._counts
    monkeypatch.setattr(OptionCountTable, "_counts",
                        lambda self, i, sets: np.maximum(counts(self, i, sets) - 1, 1))
    result = verify.criterion_family_bounds(verify.RunConfig(mc_samples=20000))
    assert not result.passed
    failures = result.fields["details"]["failures"]
    assert [f[:2] for f in failures[:5]] == [
        ("diag2", v) for v in ("averaged", "worst_member", "mean_product", "fixed_order",
                               "averaged_mc")]
    assert all(value < target for _, _, value, target in failures)


# ------------------------------- c06 and c09 compute once per distinct input

def test_family_bounds_run_once_per_distinct_family(monkeypatch):
    """c06 bounds each distinct family once, in one reveal_bounds call per
    arity, and draws the Monte Carlo orders once per arity."""
    config = verify.RunConfig(seed=21, mc_samples=20000)
    families = [fam for _, fam in verify.family_bound_families(config)]
    bounded, drawn = [], []
    reveal, tallies = counting.reveal_bounds, counting._reveal_tallies

    def counted(fams, modes, seed=0):
        bounded.append(list(fams))
        return reveal(fams, modes, seed)

    def counted_tallies(n, samples, seed):
        drawn.append(n)
        return tallies(n, samples, seed)

    monkeypatch.setattr(counting, "reveal_bounds", counted)
    monkeypatch.setattr(counting, "_reveal_tallies", counted_tallies)
    verify.criterion_family_bounds(config)
    arities = {fam.n for fam in families}
    assert Counter(fam for call in bounded for fam in call) == \
        Counter(dict.fromkeys(families, 1))
    assert sorted(call[0].n for call in bounded) == sorted(arities)
    assert all(fam.n == call[0].n for call in bounded for fam in call)
    assert Counter(drawn) == Counter(dict.fromkeys(arities, 1))
    assert len(set(families)) < len(families)


def test_family_graphs_enumerate_their_matchings_once(monkeypatch):
    """c06 enumerates each random graph's perfect matchings once: the call
    that rejects a graph without one is the call that builds the family."""
    enumerated = []
    real = counting.perfect_matchings

    def counted(graph):
        enumerated.append(graph)
        return real(graph)

    monkeypatch.setattr(counting, "perfect_matchings", counted)
    tagged = list(verify.family_bound_families(verify.RunConfig(seed=21)))
    pms = [fam for tag, fam in tagged if tag.startswith("pm")]
    assert len(pms) == 50
    assert len(enumerated) == len(set(map(id, enumerated)))  # no graph enumerated twice
    assert sum(1 for g in enumerated if real(g)) == 50


def test_dominance_runs_once_per_distinct_grid(monkeypatch):
    config = verify.RunConfig(seed=21)
    grids = [grid for _, grid in verify.dominance_grids(config)]
    checked = []
    check = dominance_check_grid

    def counted(grid):
        checked.append(grid)
        return check(grid)

    monkeypatch.setattr(verify.distributions, "dominance_check_grid", counted)
    verify.criterion_dominance(config)
    assert Counter(checked) == Counter(dict.fromkeys(grids, 1))
    assert len(set(grids)) < len(grids)


def plain_family_bounds(config):
    """c06's verdict and details from a loop that bounds every tag's family."""
    bad, margins, mc_se = [], {}, []
    for tag, fam in verify.family_bound_families(config):
        results = reveal_bounds_exact(fam)
        results["fixed_order"] = reveal_bound(
            fam, BoundMode("fixed_order", orders=tuple(range(fam.n))))
        results["averaged_mc"] = reveal_bound(
            fam, BoundMode("averaged", samples=max(200, config.mc_samples // 500)),
            seed=config.seed)
        target = math.log(len(fam.members))
        for variant, res in results.items():
            if not bound_holds(res, fam):
                bad.append((tag, variant, res.value, target))
            margins.setdefault(variant, []).append(res.value - target)
        mc = results["averaged_mc"]
        if mc.stderr > 0:
            mc_se.append((mc.value - target) / mc.stderr)
    return not bad, {
        "failures": bad[:10],
        "min_margin": {**{v: min(ms) for v, ms in margins.items()},
                       "averaged_mc_se": min(mc_se, default=None)},
        "mean_margin": {v: math.fsum(ms) / len(ms) for v, ms in margins.items()}}


def plain_dominance(config):
    """c09's verdict and details from a loop that checks every tag's grid."""
    bad, reports = [], 0
    grids = verify.dominance_grids(config)
    for tag, grid in grids:
        for rep in dominance_check_grid(grid):
            reports += 1
            if not rep.passed:
                f = rep.fields
                bad.append((tag, f["chain"], f["l"], f["witnesses"][:2]))
    return not bad, {"grids": len(grids), "reports": reports, "failures": bad[:10]}


@pytest.mark.parametrize("seed", [21, 42])
def test_deduplicated_criteria_equal_a_plain_loop(seed):
    config = verify.RunConfig(seed=seed, mc_samples=20000)
    for criterion, plain in ((verify.criterion_family_bounds, plain_family_bounds),
                             (verify.criterion_dominance, plain_dominance)):
        res = criterion(config)
        assert (res.passed, res.fields["details"]) == plain(config)


def test_deduplicated_dominance_names_the_failures_of_a_plain_loop(monkeypatch):
    counts = OptionCountTable._counts
    monkeypatch.setattr(OptionCountTable, "_counts", lambda self, i, sets: np.minimum(
        counts(self, i, sets) + 1, np.take(self._cards, i)[:, None]))
    config = verify.RunConfig(seed=21)
    res = verify.criterion_dominance(config)
    assert not res.passed
    assert (res.passed, res.fields["details"]) == plain_dominance(config)


def _shared(tagged):
    """The first item that two or more (tag, item) pairs share, with its tags."""
    tags = {}
    for tag, item in tagged:
        tags.setdefault(item, []).append(tag)
    return next((item, ts) for item, ts in tags.items() if len(ts) > 1)


def test_a_fault_in_one_distinct_family_fails_every_tag_that_shares_it(monkeypatch):
    # the Monte Carlo bound of one distinct family reads -1 with no
    # standard error: each tag bounding that family fails once, no other
    config = verify.RunConfig(seed=21, mc_samples=20000)
    target, tags = _shared(verify.family_bound_families(config))
    reveal = counting.reveal_bounds

    def faulty(fams, modes, seed=0):
        return [tuple(dataclasses.replace(res, value=-1.0, stderr=0.0)
                      if fam == target and res.stderr is not None else res for res in results)
                for fam, results in zip(fams, reveal(fams, modes, seed))]

    monkeypatch.setattr(counting, "reveal_bounds", faulty)
    res = verify.criterion_family_bounds(config)
    assert not res.passed
    assert 2 <= len(tags) <= 10  # every failure is listed
    assert [f[:3] for f in res.fields["details"]["failures"]] == \
        [(tag, "averaged_mc", -1.0) for tag in tags]


def test_a_fault_in_one_distinct_grid_fails_every_tag_that_shares_it(monkeypatch):
    config = verify.RunConfig(seed=21)
    target, tags = _shared(verify.dominance_grids(config))
    check = dominance_check_grid

    def faulty(grid):
        reports = check(grid)
        if grid == target:  # the first report of that grid fails
            reports[0] = verify.CheckResult("dominance", False,
                                            {**reports[0].fields, "witnesses": ["fault"]})
        return reports

    monkeypatch.setattr(verify.distributions, "dominance_check_grid", faulty)
    res = verify.criterion_dominance(config)
    assert not res.passed
    assert 2 <= len(tags) <= 10
    assert [(f[0], f[3]) for f in res.fields["details"]["failures"]] == \
        [(tag, ["fault"]) for tag in tags]


# ------------------------------------------- stacked tables and reveal_bounds

@pytest.mark.parametrize("mc_samples", [10 ** 6, 20000], ids=["default", "samples-20000"])
@pytest.mark.parametrize("seed", [21, 42])
def test_stacked_bounds_equal_one_family_at_a_time(seed, mc_samples):
    """Every c06 family, stacked by arity as c06 stacks them, bounded under
    its five modes equals reveal_bound of that family alone, mode by mode."""
    config = verify.RunConfig(seed=seed, mc_samples=mc_samples)
    by_arity = {}
    for _, fam in verify.family_bound_families(config):
        by_arity.setdefault(fam.n, {})[fam] = None
    assert max(len(fams) for fams in by_arity.values()) > 1
    for n, fams in by_arity.items():
        modes = verify._family_bound_modes(n, max(200, mc_samples // 500))
        stacked = counting.reveal_bounds(list(fams), modes, seed)
        assert stacked == [tuple(reveal_bound(fam, mode, seed) for mode in modes)
                           for fam in fams]


@st.composite
def stacks(draw):
    """One to three families of one arity, each with its own cards (values
    listed in descending order, so codes differ from values)."""
    n = draw(st.integers(1, 4))
    fams = []
    for _ in range(draw(st.integers(1, 3))):
        cards = [draw(st.integers(1, 4)) for _ in range(n)]
        members = draw(st.sets(st.tuples(*(st.integers(0, c - 1) for c in cards)),
                               min_size=1, max_size=12))
        fams.append(TupleFamily(tuple(tuple(range(c))[::-1] for c in cards),
                                tuple(sorted(members))))
    return fams


@given(stacks())
@settings(max_examples=60, deadline=None)
def test_mixed_card_stacks_equal_option_count_and_the_dict_oracle(fams):
    n = fams[0].n
    table = OptionCountTable(tuple(fams))
    pairs = [(i, T) for T in range(1 << n) for i in range(n) if not T >> i & 1]
    comps, sets = [i for i, _ in pairs], [T for _, T in pairs]
    uniform = [factorial(T.bit_count()) * factorial(n - 1 - T.bit_count()) for T in sets]
    distinct = list(range(1, len(pairs) + 1))  # so a misaligned weight shows
    counts = table.counts(comps, sets)
    hists = table.law_histograms(comps, sets, [uniform, distinct])
    for fam, lo, hi in zip(fams, table.bounds, table.bounds[1:]):
        ref = OptionCountTableReference(fam)
        assert counts[:, lo:hi].tolist() == [list(ref.row(i, T)) for i, T in pairs]
        for mi, member in enumerate(fam.members):
            for (i, T), row in zip(pairs, counts[:, lo:hi].tolist()):
                prefix = [j for j in range(n) if T >> j & 1]
                assert row[mi] == option_count(fam, member, _order_with_prefix(prefix, i, n), i)
        for law, weights in enumerate((uniform, distinct)):
            for i in range(n):
                mine = [(T, w) for (c, T), w in zip(pairs, weights) if c == i]
                assert _as_dicts(hists[law, i, lo:hi]) == ref.histograms(i, mine)


def test_stacks_take_one_arity_and_nonempty_families():
    with pytest.raises(FamilyError, match="differ in arity"):
        OptionCountTable((diagonal_pair_family(2), TupleFamily(((0,),), ((0,),))))
    with pytest.raises(FamilyError, match="differ in arity"):
        counting.reveal_bounds([diagonal_pair_family(2), TupleFamily(((0,),), ((0,),))],
                               [BoundMode("averaged")])
    with pytest.raises(FamilyError, match="family is empty"):
        counting.reveal_bounds([diagonal_pair_family(2), TupleFamily(((0,),) * 3, ())],
                               [BoundMode("averaged")])
    with pytest.raises(FamilyError, match="at least one family"):
        OptionCountTable(())
    with pytest.raises(FamilyError, match="no families"):
        counting.reveal_bounds([], [BoundMode("averaged")])


# ----------------------------------------------- orders checked at the boundary

@pytest.mark.parametrize("orders", [
    (0, 1, 2, 3),                                       # one component too many
    (0, 1),                                             # one too few
    (0, 0, 1),                                          # a repeat
], ids=["too-long", "too-short", "repeat"])
def test_orders_that_do_not_permute_the_components_are_rejected(orders):
    fam = diagonal_pair_family(2)
    with pytest.raises(FamilyError, match="not a permutation"):
        reveal_bound(fam, BoundMode("fixed_order", orders=orders))


@pytest.mark.parametrize("orders", ["uniform", [0, 1, 2], (False, True, 2), (0.0, 1, 2)],
                         ids=["uniform", "list", "bools", "float"])
def test_fixed_order_takes_one_tuple_of_ints(orders):
    with pytest.raises(FamilyError, match="a single order, a tuple of ints"):
        BoundMode("fixed_order", orders=orders)


@pytest.mark.parametrize("samples", [True, False, 2.0, "3", None])
def test_non_int_sample_counts_are_rejected(samples):
    with pytest.raises(FamilyError, match="samples must be an int"):
        BoundMode("averaged", samples=samples)


# the valid (variant, orders, samples) combinations before the five modes:
# every variant but fixed_order took a single order, weighted orders and
# Monte Carlo orders too
DROPPED_MODES = [
    *((v, (0, 1, 2), 0) for v in ("averaged", "worst_member", "mean_product")),
    *((v, (((0, 1, 2), Fraction(1, 2)), ((2, 1, 0), Fraction(1, 2))), 0)
      for v in ("averaged", "worst_member", "mean_product")),
    *((v, "uniform", 300) for v in ("worst_member", "mean_product")),
]


@pytest.mark.parametrize("variant, orders, samples", DROPPED_MODES,
                         ids=["single-averaged", "single-worst", "single-product",
                              "weighted-averaged", "weighted-worst", "weighted-product",
                              "mc-worst", "mc-product"])
def test_only_the_five_bound_modes_are_accepted(variant, orders, samples):
    with pytest.raises(FamilyError):
        BoundMode(variant, orders=orders, samples=samples)


def test_weight_total_past_int64_is_rejected():
    fam = diagonal_pair_family(2)
    # six members: a total of 2^63 // 6 still fits every pooled column sum
    table = OptionCountTable((fam,))
    assert table.law_histograms([0], [0], [[counting.INT64_MAX // 6]]).sum() \
        == 6 * (counting.INT64_MAX // 6)
    with pytest.raises(FamilyError, match="overflows int64"):
        table.law_histograms([0], [0], [[counting.INT64_MAX // 6 + 1]])


def test_stacked_weight_total_past_int64_is_rejected():
    # the pooled sums stay within one family, so the guard reads the largest
    # (diag2, six members), not the nine stacked members; each column is
    # checked on its own
    table = OptionCountTable((diagonal_pair_family(1), diagonal_pair_family(2)))
    limit = counting.INT64_MAX // 6
    hists = table.law_histograms([0], [0], [[1], [limit]])
    assert hists.shape == (2, 3, 9, 4)
    assert [int(hists[law, 0, lo:hi].sum()) for law in (0, 1)
            for lo, hi in ((0, 3), (3, 9))] == [3, 6, 3 * limit, 6 * limit]
    with pytest.raises(FamilyError, match="overflows int64"):
        table.law_histograms([0], [0], [[1], [limit + 1]])
