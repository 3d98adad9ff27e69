import gc
import random
import types
from collections import Counter
from functools import reduce
from heapq import heappop, heappush
from math import comb
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_downsets_bruteforce
import smcensus.posets as posets_module
from smcensus.counting import BipartiteGraph, perfect_matching_family
from smcensus.instances import instance_I2, irving_leather, random_instance
from smcensus.posets import (DIAMOND_CAP, FinitePoset, PosetError, TangledGrid, _bits,
                             _downsets_with_tops, count_downsets,
                             embed_in_tangled_grid, enumerate_downset_masks,
                             enumerate_downsets, grid_diamond, grid_key, grid_to_json,
                             poset_from_below, random_tangled_grid,
                             validate_tangled_grid)
from smcensus.rotations import Rotation, _with_chains, build_rotation_poset, to_finite_poset
from smcensus.verify import (RunConfig, _profile_for, _sweep_one, criterion_diamond, instance_plan,
                             run_sweep)


def chain(k):
    return FinitePoset(k, tuple((i, i + 1) for i in range(k - 1)))


def antichain(k):
    return FinitePoset(k, ())


def test_chain_and_antichain_counts():
    assert count_downsets(chain(3)) == 4
    assert count_downsets(antichain(3)) == 8
    assert count_downsets(FinitePoset(0, ())) == 1


def test_product_grid_counts():
    for n in range(1, 9):
        assert count_downsets(grid_diamond(n).poset) == comb(2 * n, n)


def test_c04_fails_on_a_diamond_that_drops_one_cover(monkeypatch):
    # without the cover (0, 1), element 1 no longer needs 0 below it, so each
    # diamond of side n >= 2 gains downsets ({1} at n = 2); side 1 has no cover
    real = grid_diamond

    def dropped(n):
        grid = real(n)
        return TangledGrid(FinitePoset(grid.poset.size, grid.poset.covers[1:]),
                           grid.m_chains, grid.w_chains)

    assert criterion_diamond(RunConfig()).passed
    monkeypatch.setattr(posets_module, "grid_diamond", dropped)
    result = criterion_diamond(RunConfig())
    assert not result.passed
    failures = result.fields["details"]["failures"]
    assert [n for n, _, _ in failures] == list(range(2, 9))
    assert failures[0] == (2, 7, 6)
    assert all(got > want for _, got, want in failures)


def test_cover_validation():
    with pytest.raises(PosetError, match="cycle"):
        FinitePoset(2, ((0, 1), (1, 0)))
    with pytest.raises(PosetError, match="transitive"):
        FinitePoset(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(PosetError, match="bad cover"):
        FinitePoset(2, ((0, 2),))
    with pytest.raises(PosetError, match=r"repeated cover pair \(0, 1\)"):
        FinitePoset(2, ((0, 1), (0, 1)))


@st.composite
def random_posets(draw):
    size = draw(st.integers(min_value=0, max_value=9))
    rels = draw(st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
                        .filter(lambda p: p[0] < p[1]), max_size=12)) if size else set()
    below = [0] * size
    for lo, hi in sorted(rels):
        below[hi] |= below[lo] | (1 << lo)
    # push closures upward until stable
    changed = True
    while changed:
        changed = False
        for lo, hi in sorted(rels):
            new = below[hi] | below[lo] | (1 << lo)
            if new != below[hi]:
                below[hi] = new
                changed = True
    return poset_from_below(size, below)


@given(random_posets())
@settings(max_examples=80, deadline=None)
def test_count_matches_bruteforce(poset):
    assert count_downsets(poset) == count_downsets_bruteforce(poset) == \
        count_downsets_reference(poset)
    assert len(list(enumerate_downset_masks(poset))) == count_downsets(poset)


@given(random_posets())
@settings(max_examples=80, deadline=None)
def test_each_downset_top_is_maximal_and_its_removal_streamed_earlier(poset):
    seen = set()
    pairs = list(_downsets_with_tops(poset))
    assert [mask for mask, _ in pairs] == list(enumerate_downset_masks(poset))
    for mask, top in pairs:
        if top < 0:
            assert mask == 0
        else:
            assert mask >> top & 1
            assert not any(poset.below[e] >> top & 1 for e in _bits(mask))  # maximal
            assert mask ^ (1 << top) in seen
        seen.add(mask)


def test_count_matches_bruteforce_at_sixteen_elements():
    # oracle equivalence at the stated 2^16 boundary
    grid16 = grid_diamond(4).poset
    assert count_downsets(grid16) == count_downsets_bruteforce(grid16) == 70
    two_chains = FinitePoset(16, tuple((i, i + 1) for i in range(7))
                             + tuple((i, i + 1) for i in range(8, 15)))
    assert count_downsets(two_chains) == count_downsets_bruteforce(two_chains) == 81


def test_enumeration_is_canonical_and_complete():
    poset = grid_diamond(2).poset
    masks = list(enumerate_downset_masks(poset))
    assert masks == list(enumerate_downset_masks(poset))
    assert len(masks) == len(set(masks)) == 6
    assert masks[0] == 0 and masks[-1] == (1 << 4) - 1
    sets = list(enumerate_downsets(poset))
    assert frozenset() in sets and frozenset(range(4)) in sets


def test_count_cap(monkeypatch):
    # the cap bounds live states, not poset size: every antichain element
    # leaves the frontier as soon as it is processed, so one state suffices
    monkeypatch.setattr("smcensus.posets.STATE_CAP", 1)
    assert count_downsets(antichain(41)) == 2 ** 41
    monkeypatch.setattr("smcensus.posets.STATE_CAP", 0)
    with pytest.raises(PosetError, match="more than 0 states"):
        count_downsets(antichain(41))
    with pytest.raises(PosetError, match="brute-force count needs size <= 20"):
        count_downsets_bruteforce(antichain(21))


def test_fixture_embedding_is_two_by_two_diamond():
    grid = embed_in_tangled_grid(build_rotation_poset(instance_I2()))
    assert grid.poset.size == 4
    assert count_downsets(grid.poset) == 6


def test_single_market_embedding():
    from smcensus.instances import PreferenceProfile

    profile = PreferenceProfile(1, ((0,),), ((0,),))
    grid = embed_in_tangled_grid(build_rotation_poset(profile))
    assert grid.poset.size == 1
    assert count_downsets(grid.poset) == 2


def test_embedding_invariants_and_monotone_counts():
    for seed in range(12):
        n = 2 + seed % 4
        rposet = build_rotation_poset(random_instance(n, seed))
        grid = embed_in_tangled_grid(rposet)  # validates internally
        assert count_downsets(grid.poset) >= \
            count_downsets(to_finite_poset(rposet))


def test_random_grid_deterministic():
    assert random_tangled_grid(4, 9) == random_tangled_grid(4, 9)
    validate_tangled_grid(random_tangled_grid(4, 9))


def test_grid_validation_rejects_broken_chains():
    good = grid_diamond(2)
    with pytest.raises(PosetError, match="intersect"):
        validate_tangled_grid(TangledGrid(good.poset,
                                          ((0, 1), (2, 3)), ((0, 1), (2, 3))))
    with pytest.raises(PosetError, match="n\\^2"):
        validate_tangled_grid(TangledGrid(good.poset, ((0, 1, 2, 3),), ((0, 1, 2, 3),)))


def test_grid_downsets_stay_below_exponential_ceiling():
    for n in range(1, 7):
        assert count_downsets(grid_diamond(n).poset) <= 11.11 ** n
    for seed in range(8):
        grid = random_tangled_grid(2 + seed % 5, seed)
        assert count_downsets(grid.poset) <= 11.11 ** grid.n


def test_grid_json():
    data = grid_to_json(grid_diamond(2))
    assert data["size"] == 4
    assert len(data["m_chains"]) == 2


def covers_by_triple_loop(size, below):
    """The former O(size * |below|^2) transitive reduction, kept as reference."""
    covers = []
    for e in range(size):
        for f in _bits(below[e]):
            if not any(below[g] >> f & 1 for g in _bits(below[e]) if g != f):
                covers.append((f, e))
    return tuple(sorted(covers))


@given(random_posets())
@settings(max_examples=80, deadline=None)
def test_poset_from_below_matches_triple_loop(poset):
    below = poset.below
    assert poset_from_below(poset.size, below).covers == \
        covers_by_triple_loop(poset.size, below)


def test_poset_from_below_matches_triple_loop_on_grids():
    grids = [grid_diamond(n) for n in range(1, 6)]
    grids += [random_tangled_grid(2 + seed % 6, seed) for seed in range(12)]
    for grid in grids:
        below = grid.poset.below
        assert poset_from_below(grid.poset.size, below).covers == \
            covers_by_triple_loop(grid.poset.size, below)


def below_by_kahn(poset):
    """Reference: strict-below masks recomputed from the covers in Kahn order."""
    indeg = [0] * poset.size
    for _, hi in poset.covers:
        indeg[hi] += 1
    below = [0] * poset.size
    ready = [e for e in range(poset.size) if indeg[e] == 0]
    while ready:
        e = ready.pop()
        for lo, hi in poset.covers:
            if lo == e:
                below[hi] |= below[e] | (1 << e)
                indeg[hi] -= 1
                if indeg[hi] == 0:
                    ready.append(hi)
    return below


def strict_above_masks(poset):
    """above[e] = bitmask of elements strictly above e."""
    above = [0] * poset.size
    for e, b in enumerate(poset.below):
        for f in _bits(b):
            above[f] |= 1 << e
    return above


def count_downsets_reference(poset):
    """The former count_downsets, the memoised pivot count, kept as oracle:
    ideals(P) = ideals(P - upset(x)) + ideals(P - downset(x))."""
    below = poset.below
    above = strict_above_masks(poset)
    memo = {}
    comp = [below[e] | above[e] for e in range(poset.size)]

    def count(mask):
        if mask == 0:
            return 1
        got = memo.get(mask)
        if got is not None:
            return got
        best, best_c = -1, -1
        for e in _bits(mask):
            c = (comp[e] & mask).bit_count()
            if c > best_c:
                best, best_c = e, c
        x = best
        res = count(mask & ~(above[x] | (1 << x))) + count(mask & ~(below[x] | (1 << x)))
        memo[mask] = res
        return res

    return count((1 << poset.size) - 1)


def pad_below_by_scan(rposet):
    """Reference: the strict-below masks of the embedded grid, each pad's
    product-order part found by scanning every other pad."""
    n, r = rposet.n, len(rposet.rotations)
    firsts = {rot.edges[0] for rot in rposet.rotations}
    pads = [(u, v) for u in range(n) for v in range(n) if (u, v) not in firsts]
    below = list(rposet.below)
    for u, v in pads:
        below.append((1 << r) - 1 | sum(1 << (r + idx) for idx, (u2, v2) in enumerate(pads)
                                        if u2 <= u and v2 <= v and (u2, v2) != (u, v)))
    return below


def sweep_plan_rotation_posets(seed=42):
    return [build_rotation_poset(_profile_for(item))
            for item in instance_plan(RunConfig(seed=seed))]


@given(random_posets())
@settings(max_examples=80, deadline=None)
def test_cached_below_matches_kahn(poset):
    assert list(poset.below) == below_by_kahn(poset)


def test_cached_below_matches_kahn_on_grids():
    grids = [grid_diamond(n) for n in range(1, 6)]
    grids += [random_tangled_grid(2 + seed % 6, seed) for seed in range(12)]
    for grid in grids:
        assert list(grid.poset.below) == below_by_kahn(grid.poset)


def test_transitive_cover_names_its_witness():
    with pytest.raises(PosetError, match=r"transitive cover \(0, 3\) via 1"):
        FinitePoset(4, ((0, 1), (0, 3), (1, 2), (2, 3)))


def kahn_min_order(poset):
    """Kahn's order over the covers, smallest ready index first."""
    indeg = [0] * poset.size
    for _, hi in poset.covers:
        indeg[hi] += 1
    ready = [e for e in range(poset.size) if indeg[e] == 0]
    order = []
    while ready:
        e = heappop(ready)
        order.append(e)
        for lo, hi in poset.covers:
            if lo == e:
                indeg[hi] -= 1
                if indeg[hi] == 0:
                    heappush(ready, hi)
    return order


def transfer_peak(poset):
    """Largest number of distinct restrictions of the downsets to the
    frontier (processed elements with an unprocessed upper cover) after
    each step of Kahn's order: the live states of the transfer count."""
    downsets = list(enumerate_downset_masks(poset))
    done, peak = 0, 0
    for e in kahn_min_order(poset):
        done |= 1 << e
        frontier = 0
        for lo, hi in poset.covers:
            if done >> lo & 1 and not done >> hi & 1:
                frontier |= 1 << lo
        peak = max(peak, len({d & frontier for d in downsets}))
    return peak


def test_count_and_smallest_cap_match_reference(monkeypatch):
    # the smallest cap that lets a count through is its peak of live states
    cases = [embed_in_tangled_grid(rp).poset for rp in sweep_plan_rotation_posets()]
    cases += [grid_diamond(n).poset for n in range(1, 7)]
    for poset in cases:
        want = count_downsets_reference(poset)
        peak = transfer_peak(poset)
        monkeypatch.setattr("smcensus.posets.STATE_CAP", peak)
        assert count_downsets(poset) == want
        monkeypatch.setattr("smcensus.posets.STATE_CAP", peak - 1)
        with pytest.raises(PosetError, match=f"more than {peak - 1} states"):
            count_downsets(poset)


def test_count_matches_references_on_sweep_plan():
    for rposet in sweep_plan_rotation_posets():
        for poset in (to_finite_poset(rposet), embed_in_tangled_grid(rposet).poset):
            want = count_downsets_reference(poset)
            assert count_downsets(poset) == want
            if poset.size <= 16:
                assert count_downsets_bruteforce(poset) == want


def test_diamond_counts_match_binomial_and_references():
    for n in range(1, 13):
        poset = grid_diamond(n).poset
        got = count_downsets(poset)
        assert got == comb(2 * n, n)
        if n <= 8:
            assert got == count_downsets_reference(poset)
        if poset.size <= 16:
            assert got == count_downsets_bruteforce(poset)


def test_diamond_side_is_capped():
    # the cap is on the side: the largest diamond is built, the next refused
    assert grid_diamond(DIAMOND_CAP).poset.size == DIAMOND_CAP ** 2
    with pytest.raises(PosetError, match=f"above the diamond side cap {DIAMOND_CAP}"):
        grid_diamond(DIAMOND_CAP + 1)


def shuffled_random_poset(size, rng):
    """A random poset (closure of a sparse random DAG) with its element
    labels shuffled, so that index order is no linear extension."""
    below = [0] * size
    for hi in range(size):
        for lo in range(hi):
            if rng.random() < 2.5 / size:
                below[hi] |= below[lo] | (1 << lo)
    label = list(range(size))
    rng.shuffle(label)
    relabelled = [0] * size
    for e, b in enumerate(below):
        relabelled[label[e]] = sum(1 << label[f] for f in _bits(b))
    return poset_from_below(size, relabelled)


def is_graded(poset):
    """Whether every cover joins consecutive longest-chain heights."""
    height = {}
    for e in kahn_min_order(poset):
        height[e] = max((height[lo] + 1 for lo, hi in poset.covers if hi == e), default=0)
    return all(height[hi] == height[lo] + 1 for lo, hi in poset.covers)


def test_count_matches_reference_on_shuffled_random_posets():
    rng = random.Random(2024)
    for _ in range(40):
        poset = shuffled_random_poset(rng.randint(20, 30), rng)
        assert any(lo > hi for lo, hi in poset.covers) and not is_graded(poset)
        assert count_downsets(poset) == count_downsets_reference(poset)


def test_irving_leather_counts_follow_the_doubling_recursion():
    # Irving and Leather: f(2n) = 3 f(n)^2 - 2 f(n/2)^4, f(1) = 1, f(2) = 2
    f = {1: 1, 2: 2}
    for k in range(2, 5):
        n = 2 ** k
        f[n] = 3 * f[n // 2] ** 2 - 2 * f[n // 4] ** 4
    assert [f[2 ** k] for k in range(1, 5)] == [2, 10, 268, 195472]
    for k in range(1, 5):
        n = 2 ** k
        poset = to_finite_poset(build_rotation_poset(irving_leather(k)))
        got = count_downsets(poset)
        assert got == f[n] <= 3.55 ** n
        if k <= 3:
            assert got == count_downsets_reference(poset)


def test_sweep_leaves_no_cyclic_garbage():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for item in instance_plan(RunConfig())[::25]:
            _sweep_one((item, False))
        complete = BipartiteGraph(5, 5, frozenset((u, v) for u in range(5) for v in range(5)))
        assert len(perfect_matching_family(complete).members) == 120
        gc.collect()
        leaked = [obj.__qualname__ for obj in gc.garbage
                  if isinstance(obj, types.FunctionType)
                  and obj.__module__.startswith("smcensus")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert leaked == []


def test_embedding_pad_below_matches_scan():
    for rposet in sweep_plan_rotation_posets():
        grid = embed_in_tangled_grid(rposet)
        assert list(grid.poset.below) == pad_below_by_scan(rposet)


# --- direct grid covers against the transitive reduction --------------------

def assert_grid_covers_are_the_reduction(rposet, triple_loop=True):
    """The embedding's directly written covers equal the reduction of the
    grid's strict-below masks, which are built here from the rotation
    poset by the pad scan, independently of the covers."""
    grid = embed_in_tangled_grid(rposet)
    size = grid.poset.size
    below = pad_below_by_scan(rposet)
    assert grid.poset.covers == poset_from_below(size, below).covers
    if triple_loop:
        assert grid.poset.covers == covers_by_triple_loop(size, below)


@pytest.mark.parametrize("seed", [42, 7])
def test_grid_covers_equal_reduction_on_sweep_plans(seed):
    for rposet in sweep_plan_rotation_posets(seed):
        assert_grid_covers_are_the_reduction(rposet)


@pytest.mark.parametrize("n", [10, 30, 50])
def test_grid_covers_equal_reduction_on_large_random_instances(n):
    # the triple loop takes about 20 s at n = 30 (900 elements), so it
    # stops at n = 10; poset_from_below covers every n
    assert_grid_covers_are_the_reduction(build_rotation_poset(random_instance(n, 1)),
                                         triple_loop=n <= 10)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_grid_covers_equal_reduction_on_irving_leather(k):
    rposet = build_rotation_poset(irving_leather(k))
    assert embed_in_tangled_grid(rposet).poset.size == 4 ** k
    assert_grid_covers_are_the_reduction(rposet)


def test_diamond_covers_equal_reduction():
    for n in range(1, 7):
        poset = grid_diamond(n).poset
        below = [0] * poset.size
        for e in range(poset.size):
            r, c = divmod(e, n)
            below[e] = sum(1 << (r2 * n + c2) for r2 in range(r + 1)
                           for c2 in range(c + 1)) & ~(1 << e)
        assert poset.covers == poset_from_below(poset.size, below).covers == \
            covers_by_triple_loop(poset.size, below)


# --- FinitePoset's cover check against the reduction-based one --------------

def cover_error_by_reduction(size, covers):
    """The former FinitePoset check, kept as labelled oracle: a cover is
    transitive unless it survives the transitive reduction of all strict-
    below masks.  Returns the error message, or None."""
    seen = set()
    for lo, hi in covers:
        if not (0 <= lo < size and 0 <= hi < size) or lo == hi:
            return f"bad cover pair ({lo}, {hi})"
        if (lo, hi) in seen:
            return f"repeated cover pair ({lo}, {hi})"
        seen.add((lo, hi))
    indeg = [0] * size
    for _, hi in covers:
        indeg[hi] += 1
    below = [0] * size
    ready = [e for e in range(size) if indeg[e] == 0]
    done = 0
    while ready:
        e = ready.pop()
        done += 1
        for lo, hi in covers:
            if lo == e:
                below[hi] |= below[e] | (1 << e)
                indeg[hi] -= 1
                if indeg[hi] == 0:
                    ready.append(hi)
    if done != size:
        return "cover relation contains a cycle"
    lower = [b & ~reduce(or_, (below[g] for g in _bits(b)), 0) for b in below]
    for lo, hi in covers:
        if not lower[hi] >> lo & 1:
            mid = next(m for m in _bits(below[hi]) if below[m] >> lo & 1)
            return f"transitive cover ({lo}, {hi}) via {mid}"
    return None


@st.composite
def cover_lists(draw, kinds=("cyclic", "range", "repeated", "transitive")):
    """Covers of a random DAG (on shuffled labels), with one to three pairs
    of the given kinds (transitive, repeated, cyclic, out-of-range)
    injected at random places."""
    size = draw(st.integers(min_value=0, max_value=9))
    label = draw(st.permutations(range(size)))
    pairs = [(lo, hi) for hi in range(size) for lo in range(hi)]
    rels = draw(st.sets(st.sampled_from(pairs), max_size=20)) if pairs else set()
    below = [0] * size
    for hi in range(size):
        for lo, h in rels:
            if h == hi:
                below[hi] |= below[lo] | (1 << lo)
    reduced = poset_from_below(size, below).covers
    closure = [(lo, hi) for hi in range(size) for lo in _bits(below[hi])]
    pools = {"transitive": sorted(set(closure) - set(reduced)), "repeated": reduced,
             "cyclic": [(hi, lo) for lo, hi in closure],
             "range": [(-1, 0), (0, size), (size, 0), (0, 0)]}
    covers = list(reduced)
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if pools[kind]:
            lo, hi = draw(st.sampled_from(pools[kind]))
            covers.insert(draw(st.integers(0, len(covers))), (lo, hi))
    covers = [(label[lo] if 0 <= lo < size else lo, label[hi] if 0 <= hi < size else hi)
              for lo, hi in covers]
    return size, tuple(covers)


@given(st.one_of(cover_lists(), cover_lists(kinds=("transitive",))))
@settings(max_examples=150, deadline=None)
def test_cover_check_matches_reduction_oracle(case):
    size, covers = case
    want = cover_error_by_reduction(size, covers)
    try:
        FinitePoset(size, covers)
        got = None
    except PosetError as exc:
        got = str(exc)
    assert got == want


# --- tangled-grid invariants on bitmasks ------------------------------------

DIAMOND3 = grid_diamond(3)
ROWS = DIAMOND3.m_chains   # (0, 1, 2), (3, 4, 5), (6, 7, 8)
COLS = DIAMOND3.w_chains   # (0, 3, 6), (1, 4, 7), (2, 5, 8)


@pytest.mark.parametrize("poset, m_chains, w_chains, message", [
    (DIAMOND3.poset, ROWS, COLS[:2], "m-chain and w-chain counts differ"),
    (DIAMOND3.poset, ROWS[:2], COLS[:2], "grid must have n^2=4 elements, has 9"),
    (DIAMOND3.poset, ((0, 1, 2), (3, 4, 5), (6, 7)), COLS, "m-chain of length 2, expected 3"),
    (DIAMOND3.poset, ROWS, ((0, 3, 6), (4, 1, 7), (2, 5, 8)),
     "w-chain not ordered bottom-to-top at (4,1)"),
    (DIAMOND3.poset, ((0, 1, 2), (0, 4, 5), (6, 7, 8)), COLS, "m-chains overlap"),
    (DIAMOND3.poset, ((0, 0, 1), (3, 4, 5), (6, 7, 8)), COLS,
     "m-chains do not partition the elements"),
    (DIAMOND3.poset, ROWS, ((0, 3, 6), (1, 4, 7), (2, 5, 9)),
     "w-chains do not partition the elements"),
    (DIAMOND3.poset, ROWS, ((3, 6, 7), (0, 1, 4), (2, 5, 8)),
     "chains m0 and w0 intersect 0 times"),
    (DIAMOND3.poset, ROWS, ((0, 1, 4), (3, 6, 7), (2, 5, 8)),
     "chains m0 and w0 intersect 2 times"),
    (DIAMOND3.poset, ROWS, ROWS, "chains m0 and w0 intersect 3 times"),
])
def test_grid_validation_names_each_broken_invariant(poset, m_chains, w_chains, message):
    with pytest.raises(PosetError) as exc:
        validate_tangled_grid(TangledGrid(poset, m_chains, w_chains))
    assert str(exc.value) == message


def test_embedded_grids_validate():
    grids = [random_tangled_grid(n, seed) for n in range(1, 8) for seed in range(3)]
    grids += [embed_in_tangled_grid(build_rotation_poset(irving_leather(k)))
              for k in range(1, 5)]
    grids += [grid_diamond(n) for n in range(1, 7)]
    for grid in grids:
        validate_tangled_grid(grid)


# --- one poset build per sweep instance -------------------------------------

def test_sweep_instance_builds_each_poset_once(monkeypatch):
    calls = {"poset_from_below": 0, "FinitePoset": 0}
    from_below = posets_module.poset_from_below
    post_init = FinitePoset.__post_init__

    def counted_from_below(*args, **kwargs):
        calls["poset_from_below"] += 1
        return from_below(*args, **kwargs)

    def counted_post_init(self):
        calls["FinitePoset"] += 1
        post_init(self)

    monkeypatch.setattr(posets_module, "poset_from_below", counted_from_below)
    monkeypatch.setattr(FinitePoset, "__post_init__", counted_post_init)
    for item in instance_plan(RunConfig())[:12]:
        calls.update(dict.fromkeys(calls, 0))
        row = _sweep_one((item, False))
        assert row["grid_ok"] and row["sets_equal"]
        assert calls == {"poset_from_below": 0, "FinitePoset": 2}, item


@pytest.mark.parametrize("rposets", [
    lambda: sweep_plan_rotation_posets(42),
    lambda: sweep_plan_rotation_posets(7),
    lambda: [build_rotation_poset(irving_leather(k)) for k in range(1, 5)],
], ids=["sweep-seed-42", "sweep-seed-7", "irving-leather-1-4"])
def test_relabelled_chain_covers_equal_the_reduction(rposets):
    # the builder reduces once, on chain steps, and relabels the covers
    for rposet in rposets():
        assert rposet.covers is not None
        reduced = poset_from_below(len(rposet.rotations), list(rposet.below))
        assert rposet.covers == reduced.covers
        assert to_finite_poset(rposet).covers == reduced.covers


# --- one grid stage per distinct grid key in a sweep ------------------------

SWEEP_PLANS = {"seed-42": RunConfig(seed=42), "seed-7": RunConfig(seed=7),
               "max-n-7": RunConfig(seed=1000, num_instances=500, max_n=7)}


def without_timing(rows):
    return [{k: v for k, v in r.items() if k != "bijection_elapsed"} for r in rows]


def covers_only_pair():
    """Two rotation posets on the same rotations, hence the same n and first
    edges, that differ only in their covers."""
    rots = [Rotation(((0, 0), (1, 1))), Rotation(((2, 2), (3, 3)))]
    return [_with_chains(4, rots, below, covers, (0, 1, 2, 3))
            for below, covers in (([0, 0], ()), ([0, 1], ((0, 1),)))]


@pytest.mark.parametrize("config", SWEEP_PLANS.values(), ids=SWEEP_PLANS.keys())
def test_shared_grid_results_leave_every_row_unchanged(config):
    fresh = [_sweep_one((item, False)) for item in instance_plan(config)]
    assert without_timing(run_sweep(config)) == without_timing(fresh)


@pytest.mark.parametrize("rposets", [
    *(lambda config=config: [build_rotation_poset(_profile_for(item))
                             for item in instance_plan(config)]
      for config in SWEEP_PLANS.values()),
    lambda: [build_rotation_poset(irving_leather(k)) for k in range(1, 5)],
    covers_only_pair,
], ids=[*SWEEP_PLANS.keys(), "irving-leather-1-4", "covers-only-pair"])
def test_posets_sharing_a_grid_key_embed_to_equal_grids(rposets):
    grid_of: dict = {}
    for rposet in rposets():
        grid = embed_in_tangled_grid(rposet)
        assert grid_of.setdefault(grid_key(rposet), grid) == grid


def test_a_covers_only_difference_changes_the_grid():
    a, b = covers_only_pair()
    assert embed_in_tangled_grid(a) != embed_in_tangled_grid(b)
    assert grid_key(a) != grid_key(b)


def count_grid_stage(monkeypatch) -> dict:
    """Count the sweep's grid embeddings by key and its downset counts."""
    calls = {"embed": Counter(), "count_downsets": 0}
    embed, count = posets_module.embed_in_tangled_grid, posets_module.count_downsets

    def counted_embed(rposet):
        calls["embed"][grid_key(rposet)] += 1
        return embed(rposet)

    def counted_count(poset):
        calls["count_downsets"] += 1
        return count(poset)

    monkeypatch.setattr(posets_module, "embed_in_tangled_grid", counted_embed)
    monkeypatch.setattr(posets_module, "count_downsets", counted_count)
    return calls


def plan_grid_keys(config) -> set:
    return {grid_key(build_rotation_poset(_profile_for(item)))
            for item in instance_plan(config)}


def test_sweep_embeds_and_counts_each_grid_key_once(monkeypatch):
    config = SWEEP_PLANS["max-n-7"]
    keys = plan_grid_keys(config)
    calls = count_grid_stage(monkeypatch)
    run_sweep(config)
    assert calls["embed"] == Counter(dict.fromkeys(keys, 1))
    # one count per instance for its rotation poset, one per key for its grid
    assert calls["count_downsets"] == len(instance_plan(config)) + len(keys)
    assert len(keys) < len(instance_plan(config)) / 2


def test_a_second_sweep_repeats_every_grid_call(monkeypatch):
    config = SWEEP_PLANS["seed-42"]
    calls = count_grid_stage(monkeypatch)
    run_sweep(config)
    first = (Counter(calls["embed"]), calls["count_downsets"])
    run_sweep(config)
    assert (calls["embed"], calls["count_downsets"]) == \
        (Counter({key: 2 * k for key, k in first[0].items()}), 2 * first[1])


def test_a_memoised_poset_error_fails_every_instance_sharing_its_key(monkeypatch):
    config = SWEEP_PLANS["seed-42"]
    clean = run_sweep(config)
    raised = Counter()
    embed = posets_module.embed_in_tangled_grid

    def no_empty_grids(rposet):  # one failing key per n: the empty rotation poset
        if not rposet.rotations:
            raised[rposet.n] += 1
            raise PosetError("refused")
        return embed(rposet)

    monkeypatch.setattr(posets_module, "embed_in_tangled_grid", no_empty_grids)
    rows = run_sweep(config)
    empty = [r["downset_count"] == 1 for r in clean]
    assert raised == Counter({r["n"]: 1 for r, e in zip(clean, empty) if e})
    assert sum(empty) > len(raised)  # some key is shared by several instances
    for r, c, e in zip(rows, clean, empty):
        want = {**c, "grid_ok": False, "grid_downsets": None} if e else c
        assert without_timing([r]) == without_timing([want])


def test_two_worker_sweep_equals_the_single_process_sweep():
    # each worker's job gets a grid-result dict of its own
    config = SWEEP_PLANS["seed-42"]
    two = run_sweep(RunConfig(seed=config.seed, threads=2))
    assert without_timing(two) == without_timing(run_sweep(config))
