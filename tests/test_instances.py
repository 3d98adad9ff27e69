import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smcensus.instances import (N_CAP, InstanceError, PreferenceProfile, instance_I2,
                                irving_leather, parse_instance, random_instance,
                                serialize_instance)


def test_smallest_instance_parses():
    profile = parse_instance('{"n": 1, "job_prefs": [[0]], "applicant_prefs": [[0]]}')
    assert profile.n == 1


def test_non_permutation_row_is_reported_with_index():
    with pytest.raises(InstanceError, match="job_prefs row 0 not a permutation"):
        parse_instance('{"n": 2, "job_prefs": [[0, 0], [0, 1]],'
                       ' "applicant_prefs": [[0, 1], [0, 1]]}')


@pytest.mark.parametrize("text, match", [
    ("not json", "malformed JSON"),
    ("[]", "JSON object"),
    ('{"n": 2}', "missing keys"),
    ('{"n": "x", "job_prefs": [], "applicant_prefs": []}', "n must be an integer"),
    ('{"n": 2, "job_prefs": [[0, 1]], "applicant_prefs": [[0, 1], [1, 0]]}',
     "job_prefs must be a list of 2 rows"),
])
def test_parse_errors(text, match):
    with pytest.raises(InstanceError, match=match):
        parse_instance(text)


@pytest.mark.parametrize("text, match", [
    ('{"n": true, "job_prefs": [[false]], "applicant_prefs": [[false]]}',
     "n must be an integer"),
    ('{"n": 1, "job_prefs": [[false]], "applicant_prefs": [[0]]}',
     "job_prefs row 0 must be a list of integers"),
    ('{"n": 2, "job_prefs": [[0, 1], [1, 0]], "applicant_prefs": [[0, 1], [true, 0]]}',
     "applicant_prefs row 1 must be a list of integers"),
])
def test_json_booleans_rejected(text, match):
    # bool is an int subclass, so true/false would otherwise pass as 1/0
    with pytest.raises(InstanceError, match=match):
        parse_instance(text)


def test_round_trip():
    profile = random_instance(4, seed=7)
    assert parse_instance(serialize_instance(profile)) == profile


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_round_trip_random(n, seed):
    profile = random_instance(n, seed)
    assert parse_instance(serialize_instance(profile)) == profile


def test_random_instance_deterministic_and_distinct():
    assert random_instance(4, 7) == random_instance(4, 7)
    assert random_instance(4, 7) != random_instance(4, 8)


def test_random_instance_valid_over_many_seeds():
    # validity is enforced by the PreferenceProfile constructor
    for seed in range(1000):
        random_instance(1 + seed % 10, seed)


def test_random_instance_rejects_zero():
    with pytest.raises(InstanceError):
        random_instance(0, 1)


def test_profiles_up_to_the_size_cap_and_not_past_it():
    rows = (tuple(range(N_CAP)),) * N_CAP
    assert PreferenceProfile(N_CAP, rows, rows).n == N_CAP
    # the cap is checked before the rows are validated
    past = [[0]] * (N_CAP + 1)
    text = f'{{"n": {N_CAP + 1}, "job_prefs": {past}, "applicant_prefs": {past}}}'
    for build in (lambda: PreferenceProfile(N_CAP + 1, past, past),
                  lambda: random_instance(N_CAP + 1, 0),
                  lambda: parse_instance(text)):
        with pytest.raises(InstanceError, match=f"above the instance-size cap {N_CAP}"):
            build()


def test_two_matching_fixture():
    profile = instance_I2()
    assert profile.n == 2
    assert profile.job_prefs == ((0, 1), (1, 0))
    assert profile.applicant_prefs == ((1, 0), (0, 1))


def test_profile_invariants_enforced():
    with pytest.raises(InstanceError):
        PreferenceProfile(2, ((0, 1), (1, 1)), ((0, 1), (1, 0)))
    with pytest.raises(InstanceError):
        PreferenceProfile(0, (), ())


def test_rank_tables_are_built_once_and_leave_identity_alone():
    profile = random_instance(6, 4)
    fresh = random_instance(6, 4)
    jrank, arank = profile.job_rank_table, profile.applicant_rank_table
    assert profile.job_rank_table is jrank and profile.applicant_rank_table is arank
    for u in range(6):
        for pos in range(6):
            assert jrank[u][profile.job_prefs[u][pos]] == pos
            assert arank[u][profile.applicant_prefs[u][pos]] == pos
    assert isinstance(jrank, tuple) and all(isinstance(row, tuple) for row in jrank)
    # a profile with cached tables still equals and hashes like one without
    assert profile == fresh and hash(profile) == hash(fresh)
    assert {profile: 1}[fresh] == 1
    assert repr(profile) == repr(fresh)


@pytest.mark.parametrize("n", [1, 6, 255, 256])
def test_rank_arrays_hold_the_rank_tables_indexed_job_then_applicant(n):
    profile = random_instance(n, 5)
    jrank, arank = profile.job_rank_array, profile.applicant_rank_array
    assert profile.job_rank_array is jrank and profile.applicant_rank_array is arank
    assert jrank.tolist() == [list(row) for row in profile.job_rank_table]
    assert arank.T.tolist() == [list(row) for row in profile.applicant_rank_table]
    for ranks in (jrank, arank):
        assert ranks.shape == (n, n) and ranks.flags.c_contiguous
        assert ranks.dtype.itemsize == (1 if n < 256 else 2)
        assert int(np.array(n, dtype=ranks.dtype)) == n  # room for the sentinel n
        with pytest.raises(ValueError):
            ranks[0, 0] = 1
    assert profile == random_instance(n, 5)


def test_irving_leather_doubling():
    assert irving_leather(0) == PreferenceProfile(1, ((0,),), ((0,),))
    assert irving_leather(1) == instance_I2()
    i4 = irving_leather(2)
    assert i4.job_prefs[1] == (1, 0, 3, 2) and i4.job_prefs[3] == (3, 2, 1, 0)
    assert i4.applicant_prefs[0] == (3, 2, 1, 0) and i4.applicant_prefs[2] == (1, 0, 3, 2)
    assert irving_leather(5).n == 32
    with pytest.raises(InstanceError, match="k must be"):
        irving_leather(-1)
