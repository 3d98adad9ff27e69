from functools import lru_cache
from itertools import chain, permutations
from math import factorial

import numpy as np
import pytest

from smcensus.instances import (PreferenceProfile, applicant_ranks, instance_I2,
                                irving_leather, job_ranks, random_instance)
from smcensus.matchings import (enumerate_stable_bruteforce, gale_shapley,
                                is_stable, unstable_pairs)
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
    jrank, arank = job_ranks(profile), applicant_ranks(profile)
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
