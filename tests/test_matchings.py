import ast
import re
from itertools import permutations
from math import ceil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import stable_by_permutation_filter
from smcensus import matchings, rotations, verify
from smcensus.instances import PreferenceProfile, instance_I2, irving_leather, random_instance
from smcensus.matchings import (BRUTE_FORCE_CAP, enumerate_stable_bruteforce,
                                gale_shapley, is_stable, stable_rows, unstable_pairs)
from smcensus.rng import Xoshiro256StarStar
from smcensus.verify import RunConfig, _profile_for, instance_plan


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


@pytest.mark.parametrize("seed", [1, 7])  # the default plan, seed 42, is tested above
def test_pruned_search_matches_filter_on_other_sweep_plans(seed):
    for item in instance_plan(RunConfig(seed=seed)):
        profile = _profile_for(item)
        assert enumerate_stable_bruteforce(profile) == \
            stable_by_permutation_filter(profile), item


@st.composite
def profiles(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rows = st.lists(st.permutations(range(n)).map(tuple), min_size=n, max_size=n).map(tuple)
    return PreferenceProfile(n, draw(rows), draw(rows))


@settings(max_examples=200, deadline=None)
@given(profiles())
def test_pruned_search_matches_filter_on_any_small_profile(profile):
    assert enumerate_stable_bruteforce(profile) == stable_by_permutation_filter(profile)


def _cyclic_latin_square(n):
    """Job u ranks u, u+1, ...; applicant v ranks v+1, ..., v (mod n)."""
    jobs = tuple(tuple((u + k) % n for k in range(n)) for u in range(n))
    apps = tuple(tuple((v + 1 + k) % n for k in range(n)) for v in range(n))
    return PreferenceProfile(n, jobs, apps)


@pytest.mark.parametrize("n", range(1, BRUTE_FORCE_CAP + 1))
def test_pruned_search_on_hand_built_extremes(n):
    # identical rows on both sides: job 0 and applicant 0 pair first, then
    # 1 and 1, ..., so the identity is the one stable matching
    same = tuple(tuple(range(n)) for _ in range(n))
    identical = PreferenceProfile(n, same, same)
    assert enumerate_stable_bruteforce(identical) == {tuple(range(n))}
    # the cyclic Latin square: each of the n shifts u -> u + k is stable
    # (job u's k-th choice ranks u (n - 1 - k)-th), and nothing else is;
    # at n = 2 it is instance_I2
    cyclic = _cyclic_latin_square(n)
    assert n != 2 or cyclic == instance_I2()
    shifts = {tuple((u + k) % n for u in range(n)) for k in range(n)}
    assert enumerate_stable_bruteforce(cyclic) == shifts
    if n <= 8:
        assert stable_by_permutation_filter(identical) == {tuple(range(n))}
        assert stable_by_permutation_filter(cyclic) == shifts


def test_bruteforce_imports_nothing_but_instances():
    """The oracle is the ground truth for everything the rotation machinery
    produces, so it must never share that code."""
    imported = set()
    for node in ast.walk(ast.parse(Path(matchings.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ("smcensus." if node.level else "") + (node.module or "")
            if module.rstrip(".") == "smcensus":  # from smcensus (or .) import x
                imported.update(f"smcensus.{alias.name}" for alias in node.names)
            else:
                imported.add(module)
    assert {m for m in imported if m.split(".")[0] == "smcensus"} == {"smcensus.instances"}


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
