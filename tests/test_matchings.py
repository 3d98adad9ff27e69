import re
from functools import lru_cache
from itertools import chain, permutations
from math import ceil, factorial

import numpy as np
import pytest

from smcensus import matchings, rotations, verify
from smcensus.instances import PreferenceProfile, instance_I2, irving_leather, random_instance
from smcensus.matchings import (enumerate_stable_bruteforce, gale_shapley,
                                is_stable, stable_rows, unstable_pairs)
from smcensus.rng import Xoshiro256StarStar
from smcensus.verify import RunConfig, _profile_for, instance_plan


@lru_cache(maxsize=None)
def all_permutations(n):
    """Every perfect matching on n pairs, one column per permutation:
    match[u] holds job u's applicant and partner[v] applicant v's job."""
    flat = chain.from_iterable(permutations(range(n)))
    rows = np.fromiter(flat, dtype=np.int8, count=n * factorial(n)).reshape(-1, n)
    partner = np.argsort(rows, axis=1).astype(np.int8)
    return np.ascontiguousarray(rows.T), np.ascontiguousarray(partner.T)


def stable_by_permutation_filter(profile):
    """Reference oracle: the literal filter of all n! perfect matchings.

    Every (job u, applicant v) pair is tested on every permutation through
    rank-table gathers; a permutation is dropped only when some pair blocks.
    """
    n = profile.n
    match, partner = all_permutations(n)
    jrank, arank = profile.job_rank_table, profile.applicant_rank_table
    # each side's rank of its own partner, per permutation
    own_j = [np.take(np.array(jrank[u], dtype=np.int8), match[u]) for u in range(n)]
    own_a = [np.take(np.array(arank[v], dtype=np.int8), partner[v]) for v in range(n)]
    blocked = np.zeros(match.shape[1], dtype=bool)
    for u in range(n):
        for v in range(n):
            blocked |= (own_j[u] > jrank[u][v]) & (own_a[v] > arank[v][u])
    return set(map(tuple, match[:, ~blocked].T.tolist()))


def stable_by_is_stable_filter(profile):
    """The same filter, one `is_stable` call per permutation."""
    return {m for m in permutations(range(profile.n)) if is_stable(profile, m)}


def test_single_job_market():
    profile = PreferenceProfile(1, ((0,),), ((0,),))
    assert gale_shapley(profile, "jobs") == (0,)
    assert unstable_pairs(profile, (0,)) == []
    assert enumerate_stable_bruteforce(profile) == {(0,)}


def test_fixture_optimal_matchings():
    profile = instance_I2()
    assert gale_shapley(profile, "jobs") == (0, 1)
    assert gale_shapley(profile, "applicants") == (1, 0)
    assert enumerate_stable_bruteforce(profile) == {(0, 1), (1, 0)}
    assert unstable_pairs(profile, (0, 1)) == []


def test_blocking_pair_detected():
    # both jobs want applicant 0 first, both applicants want job 0 first
    profile = PreferenceProfile(2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))
    assert (0, 0) in unstable_pairs(profile, (1, 0))


def test_deferred_acceptance_output_is_stable():
    for seed in range(200):
        profile = random_instance(2 + seed % 7, seed)
        for side in ("jobs", "applicants"):
            assert unstable_pairs(profile, gale_shapley(profile, side)) == []


def test_both_optimal_matchings_are_enumerated():
    for seed in range(40):
        profile = random_instance(2 + seed % 4, seed)
        stable = enumerate_stable_bruteforce(profile)
        assert gale_shapley(profile, "jobs") in stable
        assert gale_shapley(profile, "applicants") in stable


def test_jobs_weakly_prefer_job_proposing_outcome():
    for seed in range(30):
        profile = random_instance(5, seed)
        best = gale_shapley(profile, "jobs")
        rank = {(u, v): profile.job_prefs[u].index(v)
                for u in range(5) for v in range(5)}
        for other in enumerate_stable_bruteforce(profile):
            for u in range(5):
                assert rank[(u, best[u])] <= rank[(u, other[u])]


def test_bruteforce_cap():
    with pytest.raises(ValueError, match="above brute-force cap"):
        enumerate_stable_bruteforce(random_instance(10, 0))


def test_matching_validation():
    profile = instance_I2()
    with pytest.raises(ValueError, match="not a bijection"):
        unstable_pairs(profile, (0, 0))


def test_is_stable_validates_the_matching():
    profile = random_instance(3, 1)
    for matching in [(0, 1, 1), (0, 1)]:
        with pytest.raises(ValueError, match="not a bijection"):
            is_stable(profile, matching)


def test_invalid_side():
    with pytest.raises(ValueError, match="proposing_side"):
        gale_shapley(instance_I2(), "managers")


def test_pruned_search_matches_filter_on_sweep_plan():
    for item in instance_plan(RunConfig()):
        profile = _profile_for(item)
        assert enumerate_stable_bruteforce(profile) == \
            stable_by_permutation_filter(profile), item


@pytest.mark.slow
@pytest.mark.parametrize("n", [8, 9])
def test_pruned_search_matches_filter_at_the_cap(n):
    for seed in range(20):
        profile = random_instance(n, 7000 + seed)
        assert enumerate_stable_bruteforce(profile) == \
            stable_by_permutation_filter(profile), seed


def test_pruned_search_on_irving_leather_eight():
    profile = irving_leather(3)
    stable = enumerate_stable_bruteforce(profile)
    assert len(stable) == 268
    assert stable == stable_by_permutation_filter(profile)


def test_numpy_filter_matches_is_stable_filter_on_sweep_plan():
    for item in instance_plan(RunConfig()):
        profile = _profile_for(item)
        assert stable_by_permutation_filter(profile) == \
            stable_by_is_stable_filter(profile), item


def scanned(profile, rows):
    """The array kernel's oracle: one blocking-pair scan per row."""
    return [not unstable_pairs(profile, m) for m in rows]


def count_kernel_calls(monkeypatch):
    calls = []
    kernel = matchings._stable_rows_array

    def counting(profile, rows):
        calls.append(len(rows))
        return kernel(profile, rows)

    monkeypatch.setattr(matchings, "_stable_rows_array", counting)
    return calls


@pytest.mark.parametrize("n", range(1, 7))
def test_array_kernel_matches_scan_on_every_permutation(n):
    rows = list(permutations(range(n)))
    for seed in range(4):
        profile = random_instance(n, 8200 + 10 * n + seed)
        want = scanned(profile, rows)
        assert matchings._stable_rows_array(profile, rows) == want
        assert stable_rows(profile, rows) == want
        # the stable rows are exactly the brute-force oracle's
        assert {m for m, ok in zip(rows, want) if ok} == enumerate_stable_bruteforce(profile)


def _swapped(matching, rng):
    """The matching with two random jobs' applicants exchanged."""
    out = list(matching)
    i, j = rng.randrange(len(out)), rng.randrange(len(out))
    out[i], out[j] = out[j], out[i]
    return tuple(out)


@pytest.mark.parametrize("n", [20, 50])
def test_array_kernel_matches_scan_above_the_constant(n):
    rng = Xoshiro256StarStar(n)
    for seed in range(5):
        profile = random_instance(n, 8300 + seed)
        stable = list(rotations.enumerate_stable_via_rotations(profile))
        rows = stable + [_swapped(m, rng) for m in stable]
        for _ in range(40):
            row = list(range(n))
            rng.shuffle(row)
            rows.append(tuple(row))
        assert len(rows) * n * n > matchings.ARRAY_MIN_CELLS
        want = scanned(profile, rows)
        assert want[:len(stable)] == [True] * len(stable)
        assert not all(want)
        assert matchings._stable_rows_array(profile, rows) == want
        assert stable_rows(profile, rows) == want
        assert [is_stable(profile, m) for m in rows] == want


@pytest.mark.parametrize("chunk_rows", [1, 3, 7])
def test_array_kernel_runs_once_per_chunk(monkeypatch, chunk_rows):
    profile = irving_leather(3)  # n = 8, 268 stable matchings
    rows = sorted(enumerate_stable_bruteforce(profile))
    rng = Xoshiro256StarStar(chunk_rows)
    rows += [_swapped(m, rng) for m in rows[:50]]
    want = scanned(profile, rows)
    calls = count_kernel_calls(monkeypatch)
    monkeypatch.setattr(matchings, "CHUNK_CELLS", chunk_rows * 64)
    assert stable_rows(profile, rows) == want
    assert len(calls) == ceil(len(rows) / chunk_rows)
    assert sum(calls) == len(rows) and max(calls) == chunk_rows


@pytest.mark.parametrize("n, count", [(5, 2), (50, 3)])  # the scan and the array path
def test_malformed_rows_raise_validate_matchings_error(monkeypatch, n, count):
    profile = random_instance(n, 8400)
    good = gale_shapley(profile, "jobs")
    dup = (good[1],) + good[1:]
    bad_rows = [dup, good[:-1] + (n,), good[:-1] + (-1,), good[:-1], good + (0,)]
    calls = count_kernel_calls(monkeypatch)
    for bad in bad_rows:
        with pytest.raises(ValueError) as oracle:
            matchings.validate_matching(bad, n)
        rows = [good] * count + [bad] + [good] * count
        with pytest.raises(ValueError, match=re.escape(str(oracle.value))):
            stable_rows(profile, rows)
        with pytest.raises(ValueError, match=re.escape(str(oracle.value))):
            is_stable(profile, bad)
    assert bool(calls) == (n == 50)


def test_sweep_plan_stays_on_the_scan_path(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    rows = verify.run_sweep(RunConfig())
    assert all(r["sets_equal"] for r in rows)
    assert calls == []
    rposet = rotations.build_rotation_poset(random_instance(50, 4601))
    assert calls == [len(rposet.rotations) + 1]  # the chain takes the array path
