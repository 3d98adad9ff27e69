import ast
import inspect
import time
from math import comb

import pytest

from oracles import build_rotation_poset_bfs, exposed_rotations_by_scan
from smcensus import matchings, posets, rotations, verify
from smcensus.instances import (PreferenceProfile, instance_I2, irving_leather,
                                random_instance)
from smcensus.matchings import enumerate_stable_bruteforce, gale_shapley, unstable_pairs
from smcensus.rotations import (NotExposedError, Rotation, RotationPoset,
                                StateCapError, _apply_rotation, build_rotation_poset,
                                canonical_rotation, check_structure, eliminate,
                                enumerate_stable_via_rotations,
                                exposed_rotations, poset_to_json,
                                stable_matching_bijection, to_finite_poset)


def test_fixture_exposed_rotations():
    profile = instance_I2()
    assert [r.edges for r in exposed_rotations(profile, (0, 1))] == [((0, 0), (1, 1))]
    assert exposed_rotations(profile, (1, 0)) == []


def test_single_market_has_no_rotations():
    profile = PreferenceProfile(1, ((0,),), ((0,),))
    assert exposed_rotations(profile, (0,)) == []
    assert build_rotation_poset(profile).rotations == ()
    assert enumerate_stable_via_rotations(profile) == {(0,)}


def test_eliminate_applies_cyclic_shift():
    profile = instance_I2()
    rho = Rotation(((0, 0), (1, 1)))
    assert eliminate((0, 1), rho, profile) == (1, 0)


def test_eliminate_requires_exposure():
    profile = instance_I2()
    rho = Rotation(((0, 0), (1, 1)))
    with pytest.raises(NotExposedError, match="not in matching"):
        eliminate((1, 0), rho, profile)
    # edges present but successor condition violated: build a profile where
    # the cycle exists in the matching but is not a rotation
    prof2 = PreferenceProfile(2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))
    with pytest.raises(NotExposedError):
        eliminate((0, 1), rho, prof2)


def test_eliminate_rejects_unstable_input():
    rho = Rotation(((0, 0), (1, 1)))
    # (1, 0) blocks (0, 1): job 1 and applicant 0 prefer each other
    profile = PreferenceProfile(2, ((0, 1), (0, 1)), ((1, 0), (1, 0)))
    with pytest.raises(NotExposedError, match="unstable"):
        eliminate((0, 1), rho, profile)


def test_eliminate_agrees_with_exposure_oracle():
    """Every rotation whose edges a stable matching holds: eliminate
    succeeds exactly when the from-scratch oracle calls it exposed."""
    refused = 0
    for profile in [irving_leather(2), irving_leather(3)] + \
            [random_instance(n, 300 + n) for n in range(3, 9)]:
        rposet = build_rotation_poset(profile)
        for matching in stable_matching_bijection(profile, rposet).values():
            exposed = exposed_rotations_by_scan(profile, matching)
            for rot in rposet.rotations:
                if any(matching[u] != v for u, v in rot.edges):
                    continue
                if rot in exposed:
                    assert eliminate(matching, rot, profile) == _apply_rotation(matching, rot)
                else:
                    refused += 1
                    with pytest.raises(NotExposedError, match="not exposed"):
                        eliminate(matching, rot, profile)
    assert refused  # the not-exposed case was met


def test_elimination_preserves_stability():
    for seed in range(60):
        profile = random_instance(2 + seed % 5, seed)
        rposet = build_rotation_poset(profile)
        for _, matching in stable_matching_bijection(profile).items():
            assert unstable_pairs(profile, matching) == []
        assert rposet.n == profile.n


def test_canonical_rotation_shifts():
    rho = canonical_rotation([(2, 5), (0, 1), (1, 3)])
    assert rho.edges == ((0, 1), (1, 3), (2, 5))
    with pytest.raises(ValueError):
        Rotation(((1, 0), (0, 1)))  # not canonical
    with pytest.raises(ValueError):
        Rotation(((0, 1),))  # too short


def test_bijection_matches_bruteforce():
    for seed in range(40):
        profile = random_instance(2 + seed % 5, seed + 100)
        brute = enumerate_stable_bruteforce(profile)
        via = enumerate_stable_via_rotations(profile)
        rposet = build_rotation_poset(profile)
        downsets = posets.count_downsets(to_finite_poset(rposet))
        assert via == brute
        assert downsets == len(brute)


def test_fixture_poset_shape():
    rposet = build_rotation_poset(instance_I2())
    assert len(rposet.rotations) == 1
    assert posets.count_downsets(to_finite_poset(rposet)) == 2
    assert check_structure(rposet).passed


def test_structure_checks_on_random_instances():
    for seed in range(50):
        profile = random_instance(2 + seed % 6, seed)
        report = check_structure(build_rotation_poset(profile))
        assert report.passed, (seed, report.fields)


def test_chain_lengths_bounded():
    for seed in range(30):
        n = 3 + seed % 5
        rposet = build_rotation_poset(random_instance(n, seed))
        for ch in rposet.m_chains + rposet.w_chains:
            assert len(ch) <= n - 1


def test_edge_uniqueness_negative_control():
    # hand-built poset with the same edge in two rotations must be flagged
    r0 = Rotation(((0, 0), (1, 1)))
    r1 = Rotation(((0, 0), (2, 2)))
    fake = RotationPoset(3, (r0, r1), (0, 0),
                         ((0, 1), (0,), (1,)), ((0, 1), (0,), (1,)), (), (0, 1, 2))
    report = check_structure(fake)
    assert not report.fields["checks"]["edge_uniqueness"]
    assert report.fields["witnesses"]["edge_uniqueness"]


def test_poset_json_export():
    data = poset_to_json(build_rotation_poset(instance_I2()))
    assert data["n"] == 2
    assert data["rotations"] == [[[0, 0], [1, 1]]]
    assert data["covers"] == []
    assert data["m_chains"] == [[0], [0]]


def test_exposed_requires_stability():
    profile = instance_I2()
    with pytest.raises(NotExposedError, match="unstable"):
        exposed_rotations(PreferenceProfile(2, ((0, 1), (0, 1)), ((0, 1), (0, 1))),
                          (1, 0))
    with pytest.raises(ValueError):
        exposed_rotations(profile, (0, 0))


def assert_same_poset(profile):
    """The chain builder equals the BFS oracle by rotation content: the
    oracle's ids, its discovery order, map to the builder's, its chain
    steps, through each rotation's edges, and every relation agrees."""
    fast, oracle = build_rotation_poset(profile), build_rotation_poset_bfs(profile)
    id_of = {rot.edges: t for t, rot in enumerate(fast.rotations)}
    assert len(id_of) == len(fast.rotations) == len(oracle.rotations)
    to_fast = [id_of[rot.edges] for rot in oracle.rotations]

    def mask(bits):
        return sum(1 << to_fast[t] for t in posets._bits(bits))

    assert fast.n == oracle.n
    for t, below in enumerate(oracle.below):
        assert fast.below[to_fast[t]] == mask(below)
    assert fast.covers == tuple(sorted((to_fast[a], to_fast[b]) for a, b in oracle.covers))
    for ours, theirs in ((fast.m_chains, oracle.m_chains), (fast.w_chains, oracle.w_chains)):
        assert ours == tuple(tuple(to_fast[t] for t in chain) for chain in theirs)
    return fast


def _sweep_plan():
    return [verify._profile_for(item) for item in verify.instance_plan(verify.RunConfig())]


def assert_ids_bottom_to_top(rposet):
    for t, below in enumerate(rposet.below):
        assert below >> t == 0, t
    for chain in rposet.m_chains + rposet.w_chains:
        assert all(a < b for a, b in zip(chain, chain[1:])), chain


def test_builder_ids_are_a_linear_extension():
    """Both builders list the vertex chains in id order, unsorted, so their
    ids must run bottom to top."""
    profiles = _sweep_plan()
    for profile in profiles + [irving_leather(k) for k in range(4)]:
        assert_ids_bottom_to_top(build_rotation_poset_bfs(profile))
    profiles += [random_instance(n, 7300 + n + seed) for n in (30, 50) for seed in range(5)]
    for profile in profiles + [irving_leather(k) for k in range(6)]:
        assert_ids_bottom_to_top(build_rotation_poset(profile))


def test_builder_ids_are_chain_steps():
    """Replaying the rotations in id order from the job-optimal matching,
    each is the first exposed rotation at its step, and the replay ends at
    the applicant-optimal matching."""
    profiles = _sweep_plan() + [random_instance(50, 7400 + seed) for seed in range(4)]
    for profile in profiles + [irving_leather(k) for k in range(5)]:
        m = gale_shapley(profile, "jobs")
        for step, rot in enumerate(build_rotation_poset(profile).rotations):
            assert exposed_rotations_by_scan(profile, m)[0] == rot, step
            m = eliminate(m, rot, profile)
        assert exposed_rotations_by_scan(profile, m) == []
        assert m == gale_shapley(profile, "applicants")


def test_chain_builder_matches_bfs_over_sweep_plan():
    for profile in _sweep_plan():
        assert_same_poset(profile)


@pytest.mark.parametrize("n, count", [(30, 40), (50, 20)])
def test_chain_builder_matches_bfs_on_larger_instances(n, count):
    for seed in range(count):
        rposet = assert_same_poset(random_instance(n, 7000 + seed))
        assert check_structure(rposet).passed


def _chain_sources():
    plan = _sweep_plan()
    plan += [random_instance(n, 9100 + n + seed) for n in (20, 50, 80) for seed in range(6)]
    return plan + [irving_leather(k) for k in range(5)]


@pytest.mark.parametrize("pick", [0, -1])
def test_successor_table_matches_oracle_along_chain(pick):
    """At every step of a maximal elimination chain (the builder's, which
    takes the first exposed rotation, and the one taking the last) the
    incrementally kept table, and a fresh one read by `exposed_rotations`,
    expose what the from-scratch oracle does."""
    for profile in _chain_sources():
        table = rotations._SuccessorTable(profile, gale_shapley(profile, "jobs"))
        steps = 0
        while True:
            exposed = table.exposed()
            matching = tuple(table.matching)
            assert exposed == exposed_rotations_by_scan(profile, matching), steps
            assert exposed == exposed_rotations(profile, matching), steps
            if not exposed:
                break
            table.eliminate(exposed[pick])
            steps += 1
        assert tuple(table.matching) == gale_shapley(profile, "applicants")


@pytest.mark.parametrize("oracle", [build_rotation_poset_bfs, exposed_rotations_by_scan])
def test_oracles_do_not_read_the_successor_table(oracle):
    """The lattice BFS and its exposure scan check the chain builder's
    successor table, so neither may reach that table, directly or
    through `exposed_rotations`."""
    tree = ast.parse(inspect.getsource(oracle))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & {"_SuccessorTable", "exposed_rotations"}


def _count_calls(monkeypatch, name, module=rotations):
    calls = []
    target = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return target(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_builder_scans_each_chain_state_once(monkeypatch):
    exposed_calls = _count_calls(monkeypatch, "exposed_rotations")
    single_calls = _count_calls(monkeypatch, "is_stable")
    batch_calls = _count_calls(monkeypatch, "stable_rows")
    for profile in (instance_I2(), irving_leather(3), random_instance(50, 4601)):
        batch_calls.clear()
        rposet = build_rotation_poset(profile)
        # one batch holding the r + 1 chain states, each once
        assert len(batch_calls) == 1
        states = batch_calls[0][1]
        assert len(states) == len(set(states)) == len(rposet.rotations) + 1
        assert states[0] == gale_shapley(profile, "jobs")
        assert states[-1] == gale_shapley(profile, "applicants")
    assert exposed_calls == single_calls == []


def test_bijection_keeps_the_state_cap(monkeypatch):
    profile = irving_leather(2)  # 10 stable matchings
    monkeypatch.setattr(rotations, "STATE_CAP", 10)
    assert len(stable_matching_bijection(profile)) == 10
    monkeypatch.setattr(rotations, "STATE_CAP", 9)
    with pytest.raises(StateCapError, match="more than 9 stable matchings"):
        stable_matching_bijection(profile)


def test_bfs_oracle_keeps_its_state_cap(monkeypatch):
    monkeypatch.setattr(rotations, "STATE_CAP", 100)
    with pytest.raises(StateCapError, match="more than 100 lattice states"):
        build_rotation_poset_bfs(irving_leather(3))


def test_bijection_eliminates_once_per_downset(monkeypatch):
    calls = _count_calls(monkeypatch, "_eliminate_exposed")
    single_calls = _count_calls(monkeypatch, "is_stable")
    batch_calls = _count_calls(monkeypatch, "stable_rows")
    for profile in (instance_I2(), irving_leather(3), random_instance(9, 3),
                    random_instance(50, 4601)):
        rposet = build_rotation_poset(profile)
        downsets = posets.count_downsets(to_finite_poset(rposet))
        calls.clear()
        batch_calls.clear()
        out = stable_matching_bijection(profile, rposet)
        assert len(calls) == len(out) - 1 == downsets - 1
        assert all(len(args) == 3 and args[2] is profile for args in calls)
        # one batch holding each non-root downset's matching once
        assert len(batch_calls) == 1
        checked = batch_calls[0][1]
        assert len(checked) == len(set(checked)) == len(out) - 1
        assert set(checked) == set(out.values()) - {gale_shapley(profile, "jobs")}
    assert single_calls == []


@pytest.mark.parametrize("build", [build_rotation_poset, build_rotation_poset_bfs],
                         ids=["chain", "bfs"])
def test_bijection_of_a_built_poset_runs_no_deferred_acceptance(monkeypatch, build):
    for profile in (instance_I2(), irving_leather(3), random_instance(9, 3)):
        rposet = build(profile)
        assert rposet.job_optimal == gale_shapley(profile, "jobs")
        calls = _count_calls(monkeypatch, "gale_shapley")
        out = stable_matching_bijection(profile, rposet)
        monkeypatch.undo()
        assert calls == []
        assert out[frozenset()] == rposet.job_optimal
        assert set(out.values()) == enumerate_stable_bruteforce(profile)


def _unstable_swap(profile, matching):
    """The first exchange of two jobs' applicants that leaves a blocking pair."""
    for i in range(profile.n):
        for j in range(i + 1, profile.n):
            out = list(matching)
            out[i], out[j] = out[j], out[i]
            if unstable_pairs(profile, tuple(out)):
                return out
    raise AssertionError("no unstable swap")


# n = 4 stays on the row scan, n = 50 takes the array kernel
FAULT_CASES = [(irving_leather(2), False), (random_instance(50, 4601), True)]


@pytest.mark.parametrize("profile, on_array_path", FAULT_CASES)
def test_builder_rejects_an_unstable_chain_state(monkeypatch, profile, on_array_path):
    """Negative control: one state in the middle of the chain is made
    unstable (two jobs exchange applicants, the table kept consistent) and
    the chain goes on from it; only the batched check can see it."""
    r = len(build_rotation_poset(profile).rotations)
    eliminate_step = rotations._SuccessorTable.eliminate
    steps = []

    def faulty(table, rotation):
        eliminate_step(table, rotation)
        if len(steps) == r // 2:
            table.matching = _unstable_swap(profile, table.matching)
            for u, v in enumerate(table.matching):
                table.partner[v] = u
            table.succ = [table._scan(u, table.jrank[u][v] + 1)
                          for u, v in enumerate(table.matching)]
        steps.append(rotation)

    monkeypatch.setattr(rotations._SuccessorTable, "eliminate", faulty)
    kernel_calls = _count_calls(monkeypatch, "_stable_rows_array", matchings)
    with pytest.raises(AssertionError, match="reached an unstable matching"):
        build_rotation_poset(profile)
    assert bool(kernel_calls) == on_array_path


@pytest.mark.parametrize("profile, on_array_path", FAULT_CASES)
def test_bijection_rejects_an_unstable_downset_matching(monkeypatch, profile, on_array_path):
    """Negative control: the last downset's elimination returns an unstable
    matching; no later elimination starts from it, so only the batched
    check can see it."""
    rposet = build_rotation_poset(profile)
    last = posets.count_downsets(to_finite_poset(rposet)) - 2
    eliminate_exposed = rotations._eliminate_exposed
    calls = []

    def faulty(matching, rotation, prof):
        new = eliminate_exposed(matching, rotation, prof)
        calls.append(rotation)
        return tuple(_unstable_swap(prof, new)) if len(calls) - 1 == last else new

    monkeypatch.setattr(rotations, "_eliminate_exposed", faulty)
    kernel_calls = _count_calls(monkeypatch, "_stable_rows_array", matchings)
    with pytest.raises(AssertionError, match="elimination broke stability"):
        stable_matching_bijection(profile, rposet)
    assert len(calls) == last + 1
    assert bool(kernel_calls) == on_array_path


def test_bijection_reuses_a_given_poset():
    profile = random_instance(7, 11)
    rposet = build_rotation_poset(profile)
    assert stable_matching_bijection(profile, rposet) == stable_matching_bijection(profile)
    assert enumerate_stable_via_rotations(profile, rposet) == \
        enumerate_stable_bruteforce(profile)


@pytest.mark.parametrize("k, count", [(0, 1), (1, 2), (2, 10), (3, 268)])
def test_irving_leather_small_counts(k, count):
    profile = irving_leather(k)
    rposet = assert_same_poset(profile)
    assert len(enumerate_stable_bruteforce(profile)) == count
    assert enumerate_stable_via_rotations(profile, rposet) == \
        enumerate_stable_bruteforce(profile)
    assert posets.count_downsets(to_finite_poset(rposet)) == count


def test_irving_leather_rotation_counts():
    for k in range(6):
        n = 2 ** k
        rposet = build_rotation_poset(irving_leather(k))
        assert len(rposet.rotations) == comb(n, 2)
        assert check_structure(rposet).passed


def test_irving_leather_sixteen_counts_fast():
    t0 = time.perf_counter()
    rposet = build_rotation_poset(irving_leather(4))
    count = posets.count_downsets(to_finite_poset(rposet))
    elapsed = time.perf_counter() - t0
    assert count == 195472  # f(2n) = 3 f(n)^2 - 2 f(n/2)^4 at n = 8: 3*268^2 - 2*10^4
    assert count <= 3.55 ** 16
    assert elapsed < 1.0, elapsed
