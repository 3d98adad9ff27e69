"""Rotations of stable matchings and the rotation poset.

A rotation is a cyclic list of matched edges whose elimination re-matches
each job to the next applicant in the cycle, producing another stable
matching.  The rotation poset is built in polynomial time from one
maximal elimination chain (Gusfield's type-1/type-2 precedences); the
exhaustive lattice BFS over all elimination sequences, in
tests/oracles.py, is its labelled oracle.  Along the chain a successor
table is kept up to date per elimination instead of being rebuilt at
every matching (Gusfield, SIAM J. Comput. 16, 1987); `exposed_rotations`
reads a fresh table, and the from-scratch successor scan of
tests/oracles.py is the table's oracle.  The poset's downsets are in
bijection with the stable matchings, which is the central equality this
module exposes and the test suite verifies against brute force.  The builder and the
bijection each give every matching they make one full blocking-pair
test, all of an instance's in one `stable_rows` batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import posets
from .instances import PreferenceProfile
from .matchings import Matching, gale_shapley, is_stable, stable_rows, unstable_pairs
from .record import CheckResult

STATE_CAP = 10 ** 6


class NotExposedError(ValueError):
    pass


class StateCapError(RuntimeError):
    pass


@dataclass(frozen=True)
class Rotation:
    """Canonical ordered edge cycle: the smallest job index comes first."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        k = len(self.edges)
        if k < 2:
            raise ValueError("a rotation has at least 2 edges")
        jobs = [u for u, _ in self.edges]
        apps = [v for _, v in self.edges]
        if len(set(jobs)) != k or len(set(apps)) != k:
            raise ValueError("rotation jobs and applicants must be distinct")
        if self.edges[0][0] != min(jobs):
            raise ValueError("rotation not in canonical form (smallest job first)")

    @property
    def jobs(self) -> tuple[int, ...]:
        return tuple(u for u, _ in self.edges)


def canonical_rotation(edges) -> Rotation:
    """Shift a cyclic edge list so the smallest job index comes first."""
    edges = list(edges)
    shift = min(range(len(edges)), key=lambda i: edges[i][0])
    return Rotation(tuple(edges[shift:] + edges[:shift]))


def exposed_rotations(profile: PreferenceProfile, matching: Matching) -> list[Rotation]:
    """All rotations exposed in a stable matching, read off a fresh
    `_SuccessorTable`; NotExposedError when the matching is unstable."""
    _require_stable(profile, matching)
    return _SuccessorTable(profile, matching).exposed()


def _require_stable(profile: PreferenceProfile, matching: Matching) -> None:
    if not is_stable(profile, matching):
        bad = unstable_pairs(profile, matching)  # only to name a witness
        raise NotExposedError(f"matching is unstable, e.g. blocking pair {bad[0]}")


def _rotation_cycles(succ: list[int], matching) -> list[Rotation]:
    """The cycles of job -> job map `succ` (-1: no successor) as rotations
    of `matching`, sorted by edges."""
    walk_of = [-1] * len(succ)  # the start of the walk that reached each job
    out = []
    for start in range(len(succ)):
        u = start
        while u != -1 and walk_of[u] < 0:
            walk_of[u] = start
            u = succ[u]
        if u != -1 and walk_of[u] == start:  # this walk closed a new cycle at u
            cycle = [u]
            while succ[cycle[-1]] != u:
                cycle.append(succ[cycle[-1]])
            out.append(canonical_rotation([(x, matching[x]) for x in cycle]))
    out.sort(key=lambda r: r.edges)
    return out


def _first_preferring(prefs: tuple[int, ...], u: int, start: int, stop: int,
                      arank, partner: list[int]) -> int:
    """Position of the first applicant in prefs[start:stop] who prefers job
    u to their partner (partner[w] is applicant w's job), or stop."""
    for pos in range(start, stop):
        w = prefs[pos]
        if arank[w][u] < arank[w][partner[w]]:
            return pos
    return stop


class _SuccessorTable:
    """Successor applicants along an elimination chain from a stable matching.

    succ[u] is the first applicant below job u's partner who prefers u to
    their own partner (-1: none); the exposed rotations are the cycles of
    u -> partner(succ[u]).  The table is built once; `eliminate` rescans
    only the jobs whose successor is one of the rotation's applicants.
    Those are the rotation's own jobs, whose successor is their new
    partner, and the jobs whose successor gained a better partner.  Every
    other job keeps its successor: applicants' partners only improve
    along a chain, so one who did not prefer u still does not, and a
    successor whose partner did not change still prefers u.
    """

    def __init__(self, profile: PreferenceProfile, matching: Matching):
        n = profile.n
        self.prefs = profile.job_prefs
        self.jrank = profile.job_rank_table
        self.arank = profile.applicant_rank_table
        self.matching = list(matching)
        self.partner = [0] * n
        for u, v in enumerate(matching):
            self.partner[v] = u
        self.succ = [self._scan(u, self.jrank[u][v] + 1) for u, v in enumerate(matching)]

    def _scan(self, u: int, start: int) -> int:
        prefs = self.prefs[u]
        pos = _first_preferring(prefs, u, start, len(prefs), self.arank, self.partner)
        return prefs[pos] if pos < len(prefs) else -1

    def exposed(self) -> list[Rotation]:
        partner = self.partner
        return _rotation_cycles([-1 if w < 0 else partner[w] for w in self.succ],
                                self.matching)

    def eliminate(self, rotation: Rotation) -> None:
        """Eliminate an exposed rotation read off this table."""
        edges = rotation.edges
        k = len(edges)
        moved = [False] * len(self.succ)
        for i, (u, _) in enumerate(edges):
            v = edges[(i + 1) % k][1]
            self.matching[u] = v
            self.partner[v] = u
            moved[v] = True
        # a rotation job's successor was its new partner, who no longer
        # prefers it to their partner, so one rule rescans both kinds of job
        for u, w in enumerate(self.succ):
            if w >= 0 and moved[w]:
                self.succ[u] = self._scan(u, self.jrank[u][w])


def _apply_rotation(matching: Matching, rotation: Rotation) -> Matching:
    new = list(matching)
    k = len(rotation.edges)
    for i, (u, _) in enumerate(rotation.edges):
        new[u] = rotation.edges[(i + 1) % k][1]
    return tuple(new)


def eliminate(matching: Matching, rotation: Rotation,
              profile: PreferenceProfile) -> Matching:
    """Re-match each rotation job to the next applicant in the cycle.

    The matching must be stable, hold the rotation's edges and expose it
    (NotExposedError otherwise); the result is asserted stable.
    """
    _require_stable(profile, matching)
    new = _eliminate_exposed(matching, rotation, profile)
    if not is_stable(profile, new):
        raise AssertionError("elimination broke stability")
    return new


def _eliminate_exposed(matching: Matching, rotation: Rotation,
                       profile: PreferenceProfile) -> Matching:
    """`eliminate` on a matching the caller knows to be stable, leaving the
    result's stability test to the caller.

    Exposure is tested on the one rotation: each job's successor must be
    the next edge's applicant, so only the job's list between its two
    edges is scanned.
    """
    for u, v in rotation.edges:
        if matching[u] != v:
            raise NotExposedError(f"edge ({u},{v}) not in matching")
    partner = [0] * profile.n
    for u, v in enumerate(matching):
        partner[v] = u
    jrank = profile.job_rank_table
    arank = profile.applicant_rank_table
    edges = rotation.edges
    k = len(edges)
    for i, (u, v) in enumerate(edges):
        stop = jrank[u][edges[(i + 1) % k][1]]
        if _first_preferring(profile.job_prefs[u], u, jrank[u][v] + 1, stop + 1,
                             arank, partner) != stop:
            raise NotExposedError(f"rotation {rotation.edges} not exposed")
    return _apply_rotation(matching, rotation)


@dataclass(frozen=True)
class RotationPoset:
    """All rotations of an instance with their elimination order.

    Ids are a linear extension: below[t], the bitmask of rotations
    strictly below rotation t, has no bit at t or above.  m_chains[u] /
    w_chains[v] list the rotations involving job u / applicant v in id
    order, which is bottom to top.  `covers` lists the sorted cover pairs;
    `finite_poset`, the cover relation as a `posets.FinitePoset`, is built
    from them on first use and shared by every later caller.
    `job_optimal` is the job-optimal stable matching, the bijection's
    image of the empty downset.
    """

    n: int
    rotations: tuple[Rotation, ...]
    below: tuple[int, ...]
    m_chains: tuple[tuple[int, ...], ...]
    w_chains: tuple[tuple[int, ...], ...]
    covers: tuple[tuple[int, int], ...] = field(repr=False, compare=False)
    job_optimal: Matching = field(repr=False, compare=False)

    def leq(self, i: int, j: int) -> bool:
        return i == j or bool(self.below[j] >> i & 1)

    @cached_property
    def finite_poset(self) -> posets.FinitePoset:
        return posets.FinitePoset(len(self.rotations), self.covers)


def to_finite_poset(rposet: RotationPoset) -> posets.FinitePoset:
    return rposet.finite_poset


def _with_chains(n: int, rotations: list[Rotation], below: list[int],
                 covers: tuple[tuple[int, int], ...], job_optimal: Matching) -> RotationPoset:
    m_ids: list[list[int]] = [[] for _ in range(n)]
    w_ids: list[list[int]] = [[] for _ in range(n)]
    for t, rot in enumerate(rotations):
        for u, v in rot.edges:
            m_ids[u].append(t)
            w_ids[v].append(t)
    return RotationPoset(n, tuple(rotations), tuple(below),
                         tuple(map(tuple, m_ids)), tuple(map(tuple, w_ids)), covers,
                         job_optimal)


def build_rotation_poset(profile: PreferenceProfile) -> RotationPoset:
    """Rotation poset in polynomial time, from one maximal elimination chain.

    From the job-optimal matching the first exposed rotation is eliminated
    until none is left; every rotation occurs on the chain exactly once.
    Exposed rotations are read off one `_SuccessorTable` updated per
    elimination, and the r + 1 matchings on the chain, the job-optimal one
    included, get one full blocking-pair test in one `stable_rows` call.
    Precedence (Gusfield, SIAM J. Comput. 16, 1987; Gusfield & Irving 1989,
    3.2-3.3): type 1, the rotation that moved job u to applicant v
    precedes every rotation containing (u, v); type 2, when rho moves u
    from v to v', each applicant w strictly between them on u's list is
    first given a partner ranked above u by a rotation preceding rho.
    The chain order is a linear extension, so `below` is their closure
    taken along it.  A rotation's id is its chain step.  The BFS oracle
    numbers rotations in discovery order, another linear extension, so
    the two builders agree by rotation content, not id for id.
    """
    n = profile.n
    arank = profile.applicant_rank_table
    jrank = profile.job_rank_table
    table = _SuccessorTable(profile, gale_shapley(profile, "jobs"))
    partner0 = list(table.partner)

    chain: list[Rotation] = []
    states = [tuple(table.matching)]  # the matchings along the chain
    moved_to: dict[tuple[int, int], int] = {}  # edge -> chain step that made it
    gains: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (rank of new partner, step)
    while exposed := table.exposed():
        rot = exposed[0]
        step = len(chain)
        chain.append(rot)
        table.eliminate(rot)
        states.append(tuple(table.matching))
        for u in rot.jobs:
            v = table.matching[u]
            moved_to[(u, v)] = step
            gains[v].append((arank[v][u], step))
    if not all(stable_rows(profile, states)):
        raise AssertionError("the elimination chain reached an unstable matching")
    if states[-1] != gale_shapley(profile, "applicants"):
        raise AssertionError("elimination chain does not end at the applicant-optimal matching")

    r = len(chain)
    below_on_chain = [0] * r
    for step, rot in enumerate(chain):
        preds = 0
        k = len(rot.edges)
        for i, (u, v) in enumerate(rot.edges):
            if (u, v) in moved_to:
                preds |= 1 << moved_to[(u, v)]  # type 1
            prefs_u = profile.job_prefs[u]
            for pos in range(jrank[u][v] + 1, jrank[u][rot.edges[(i + 1) % k][1]]):
                w = prefs_u[pos]
                ranked_u = arank[w][u]
                if arank[w][partner0[w]] < ranked_u:
                    continue
                preds |= 1 << _first_gain_above(gains[w], ranked_u)  # type 2
        if preds >> step:
            raise AssertionError("a precedence points forward along the chain")
        for p in posets._bits(preds):
            below_on_chain[step] |= below_on_chain[p] | (1 << p)

    covers = [(p, step) for step, c in enumerate(posets.lower_cover_masks(below_on_chain))
              for p in posets._bits(c)]
    return _with_chains(n, chain, below_on_chain, tuple(sorted(covers)), states[0])


def _first_gain_above(gains: list[tuple[int, int]], rank: int) -> int:
    """First chain step that gives an applicant a partner ranked above `rank`."""
    for got, step in gains:
        if got < rank:
            return step
    raise AssertionError("no chain step lifts the applicant past a job that skipped it")


def stable_matching_bijection(profile: PreferenceProfile,
                              rposet: RotationPoset | None = None
                              ) -> dict[frozenset[int], Matching]:
    """Explicit downset -> stable matching map.

    Raises StateCapError past `STATE_CAP` matchings.  `rposet` defaults to
    a fresh build.
    """
    return {frozenset(posets._bits(mask)): m
            for mask, m in _matchings_by_downset(profile, rposet).items()}


def enumerate_stable_via_rotations(profile: PreferenceProfile,
                                   rposet: RotationPoset | None = None) -> set[Matching]:
    return set(_matchings_by_downset(profile, rposet).values())


def _matchings_by_downset(profile: PreferenceProfile,
                          rposet: RotationPoset | None) -> dict[int, Matching]:
    """The bijection keyed by downset bitmask.

    The empty downset maps to the poset's job-optimal matching.  Downsets
    stream subsets first, each with the rotation the enumeration
    included last, which is maximal in it; so each downset's matching is
    its predecessor's (the downset less that rotation) with the rotation
    eliminated, its exposure tested locally.  The D - 1 new matchings then
    get one full blocking-pair test in one `stable_rows` call.
    """
    if rposet is None:
        rposet = build_rotation_poset(profile)
    rots = rposet.rotations
    by_mask: dict[int, Matching] = {}
    for mask, top in posets._downsets_with_tops(to_finite_poset(rposet)):
        if len(by_mask) >= STATE_CAP:
            raise StateCapError(f"more than {STATE_CAP} stable matchings")
        if top < 0:
            by_mask[mask] = rposet.job_optimal
            continue
        by_mask[mask] = _eliminate_exposed(by_mask[mask ^ (1 << top)], rots[top], profile)
    if not all(stable_rows(profile, list(by_mask.values())[1:])):  # all but the root
        raise AssertionError("elimination broke stability")
    if len(set(by_mask.values())) != len(by_mask):
        raise AssertionError("downset -> matching map is not injective")
    return by_mask


STRUCTURE_CLAIMS = ("vertex_chains", "edge_uniqueness", "chain_counts",
                    "pairing_consecutive", "pairing_moreover", "chain_length")


def check_structure(rposet: RotationPoset) -> CheckResult:
    """Verify the structural properties of a rotation poset.

    (a) rotations sharing a vertex form a chain; (b) an edge appears in at
    most one rotation; (c) each rotation lies on equally many m- and
    w-chains, at least two; (d) paired chains re-pair at exactly one other
    rotation, consecutively on both, unless the rotation tops or bottoms
    both chains; (e) no chain is paired with two different chains at the
    same two rotations; (f) every chain has at most n-1 rotations.
    The record's fields give the verdict per claim (``checks``) and the
    witnesses of each failed claim (``witnesses``).
    """
    checks = dict.fromkeys(STRUCTURE_CLAIMS, True)
    witnesses: dict[str, list] = {}

    def record(name: str, ok: bool, witness) -> None:
        if not ok:
            checks[name] = False
            witnesses.setdefault(name, []).append(witness)

    r = len(rposet.rotations)

    for side, chains in (("m", rposet.m_chains), ("w", rposet.w_chains)):
        for vid, ch in enumerate(chains):
            for a in range(len(ch)):
                for b in range(a + 1, len(ch)):
                    ok = rposet.leq(ch[a], ch[b]) or rposet.leq(ch[b], ch[a])
                    record("vertex_chains", ok, (side, vid, ch[a], ch[b]))

    edge_seen: dict[tuple[int, int], int] = {}
    for t in range(r):
        for e in rposet.rotations[t].edges:
            if e in edge_seen and edge_seen[e] != t:
                record("edge_uniqueness", False, (e, edge_seen[e], t))
            edge_seen[e] = t

    for t in range(r):
        n_m = sum(1 for ch in rposet.m_chains if t in ch)
        n_w = sum(1 for ch in rposet.w_chains if t in ch)
        record("chain_counts", n_m == n_w and n_m >= 2, (t, n_m, n_w))

    # pairing events: at each rotation, job u is paired with its current
    # partner's chain and with its next partner's chain
    events: dict[tuple[int, int], list[int]] = {}
    for t in range(r):
        edges = rposet.rotations[t].edges
        k = len(edges)
        for i in range(k):
            u = edges[i][0]
            for v in (edges[i][1], edges[(i + 1) % k][1]):
                events.setdefault((u, v), []).append(t)

    def consecutive(ch: tuple[int, ...], a: int, b: int) -> bool:
        ia, ib = ch.index(a), ch.index(b)
        return abs(ia - ib) == 1

    for (u, v), ts in events.items():
        mch, wch = rposet.m_chains[u], rposet.w_chains[v]
        if len(ts) == 1:
            t = ts[0]
            at_top = mch[-1] == t and wch[-1] == t
            at_bottom = mch[0] == t and wch[0] == t
            record("pairing_consecutive", at_top or at_bottom, (u, v, t))
        elif len(ts) == 2:
            a, b = ts
            ok = consecutive(mch, a, b) and consecutive(wch, a, b)
            record("pairing_consecutive", ok, (u, v, a, b))
        else:
            record("pairing_consecutive", False, (u, v, tuple(ts)))

    pair_sets = {key: frozenset(ts) for key, ts in events.items() if len(ts) == 2}
    for (u, v), ts in pair_sets.items():
        for (u2, v2), ts2 in pair_sets.items():
            if (u2, v2) == (u, v) or ts2 != ts:
                continue
            if u2 == u or v2 == v:
                record("pairing_moreover", False, ((u, v), (u2, v2), tuple(ts)))

    for side, chains in (("m", rposet.m_chains), ("w", rposet.w_chains)):
        for vid, ch in enumerate(chains):
            record("chain_length", len(ch) <= rposet.n - 1, (side, vid, len(ch)))

    return CheckResult("structure", all(checks.values()),
                       {"checks": checks, "witnesses": witnesses})


def poset_to_json(rposet: RotationPoset) -> dict:
    fp = to_finite_poset(rposet)
    return {
        "n": rposet.n,
        "rotations": [[list(e) for e in rot.edges] for rot in rposet.rotations],
        "covers": [list(c) for c in fp.covers],
        "m_chains": [list(c) for c in rposet.m_chains],
        "w_chains": [list(c) for c in rposet.w_chains],
    }
