"""Labelled oracles: the slower, plainer implementations that the fast
kernels of smcensus are differentially tested against.  Nothing in
src/ calls them.

* ``splitmix64`` -- the SplitMix64 output sequence as a generator, one
  step at a time; the oracle of the closed form that seeds every
  xoshiro256** stream;
* ``scan_draw_searchsorted`` -- ScanTable inversion by a binary search
  of the ascending table;
* ``gap_from_slots_where`` -- the extended gap by nested selections;
* ``lane_state_arange`` -- the XoshiroLanes state from one flat
  SplitMix64 array, transposed;
* ``CyclicGapSampler`` and ``LineGapSampler`` -- scalar streams of the
  cyclic and line gaps, one partial Fisher-Yates choice
  (``sample_range``) or one Bernoulli draw per slot;
* ``line_gap_log_mean`` -- E[log gap] of the line-gap law, summed k by k
  from its pmf until the tail is negligible (``LOG_MEAN_TAIL``);
* ``option_count`` -- one option count X_i straight from its definition,
  a filter of the family's members; the oracle of the columnar
  ``OptionCountTable``;
* ``exposed_rotations_by_scan`` -- the exposed rotations of a stable
  matching by a from-scratch successor scan and a plain cycle walk; the
  oracle of ``rotations._SuccessorTable`` (and so of
  ``exposed_rotations``, which reads a fresh table);
* ``build_rotation_poset_bfs`` -- the rotation poset by breadth-first
  search over every elimination sequence, each state's exposed rotations
  from ``exposed_rotations_by_scan``, capped at ``rotations.STATE_CAP``
  states (read at call time); the oracle of the chain builder
  ``build_rotation_poset``;
* ``count_downsets_bruteforce`` -- the downset count by a 2^size subset
  filter;
* ``jensen_pair_check`` -- the two sides of the two-indicator Jensen
  inequality at one point, in scalar floats; the oracle of the integer
  margins of ``distributions.jensen_margins``;
* ``stable_by_permutation_filter`` -- the stable matchings by the literal
  filter of all n! perfect matchings (``all_permutations``), the oracle of
  the forward-checked ``enumerate_stable_bruteforce``;
* ``shuffle_by_randrange`` -- the textbook Fisher-Yates shuffle, one
  ``randrange`` call per element.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations

import numpy as np

from smcensus import posets, rotations
from smcensus.counting import FamilyError, TupleFamily
from smcensus.distributions import (PLAIN, SLOTS, DistributionError,
                                    _arc_containing_zero, _check_cyclic, _check_x,
                                    check_variant, line_gap_pmf, line_gap_tail,
                                    line_gap_window)
from smcensus.instances import PreferenceProfile
from smcensus.matchings import Matching, gale_shapley, unstable_pairs
from smcensus.posets import FinitePoset, PosetError
from smcensus.rng import (_GAMMA, _MASK64, _MIX1, _MIX2, Xoshiro256StarStar,
                          bernoulli_threshold)


def splitmix64(state: int):
    """Yield the SplitMix64 output sequence starting from ``state``."""
    x = state & _MASK64
    while True:
        x = (x + _GAMMA) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def scan_draw_searchsorted(table, u: np.ndarray) -> np.ndarray:
    """Scan lengths 1 + #{k : U < T_k}: a searchsorted count of the
    ascending table's entries <= U leaves the entries above U."""
    ascending = np.array(table.bounds[::-1], dtype=np.uint64)
    return 1 + len(ascending) - np.searchsorted(ascending, u, side="right")


def gap_from_slots_where(in_a, b, down, up, branch) -> np.ndarray:
    """The extended gap hi - lo by selection: lo is 0, -1 or -1 - down and
    hi is 1, 2 or 2 + up by the first marked slot; the branch gives 1."""
    lo = np.where(in_a[0] | b[0], 0, np.where(in_a[-1] | b[-1], -1, -1 - down))
    hi = np.where(in_a[1] | b[1], 1, np.where(in_a[2] | b[2], 2, 2 + up))
    return np.where(branch, 1, hi - lo)


def lane_state_arange(seed: int, lanes: int) -> tuple[np.ndarray, ...]:
    """The four state rows of XoshiroLanes(seed, lanes): SplitMix64 outputs
    0 .. 4 lanes - 1 as one flat array, reshaped (lanes, 4) and transposed."""
    z = (np.arange(1, 4 * lanes + 1, dtype=np.uint64) * np.uint64(_GAMMA)
         + np.uint64(seed & _MASK64))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    state = (z ^ (z >> np.uint64(31))).reshape(lanes, 4)
    zero_rows = ~state.any(axis=1)
    state[zero_rows, 0] = np.uint64(_GAMMA)
    return tuple(np.ascontiguousarray(state.T))


class CyclicGapSampler:
    """Scalar oracle for ``sample_cyclic_gap``: a deterministic stream of
    cyclic gaps, one partial Fisher-Yates choice of l points per draw."""

    def __init__(self, n: int, l: int, seed: int):
        _check_cyclic(n, l)
        self.n, self.l = n, l
        self._rng = Xoshiro256StarStar(seed)

    def next(self) -> int:
        chosen = sample_range(self._rng, self.n + 1, self.l)
        return _arc_containing_zero(tuple(chosen), self.n)

    def take(self, count: int) -> list[int]:
        return [self.next() for _ in range(count)]


def sample_range(rng: Xoshiro256StarStar, m: int, k: int) -> list[int]:
    """k distinct values from range(m), via partial Fisher-Yates; order discarded."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    xs = list(range(m))
    for i in range(k):
        j = i + rng.randrange(m - i)
        xs[i], xs[j] = xs[j], xs[i]
    return sorted(xs[:k])


class LineGapSampler:
    """Scalar oracle for ``sample_line_gap``: a deterministic line-gap
    stream that scans slot by slot with one Bernoulli draw per slot, on the
    integer line truncated at ``line_gap_window(x)``."""

    def __init__(self, x: float, variant: str, seed: int):
        _check_x(x)
        check_variant(variant)
        self.x = x
        self.variant = variant
        self.window = line_gap_window(x)
        self._thr = bernoulli_threshold(Fraction(x))
        self._rng = Xoshiro256StarStar(seed)

    def _scan(self, limit: int) -> int:
        """Steps until the first marked slot, capped at limit (>= 1)."""
        for step in range(1, limit + 1):
            if self._rng.bernoulli(self._thr):
                return step
        return limit

    def next(self) -> int:
        rng = self._rng
        if self.variant == PLAIN:
            down = 0 if rng.bernoulli(self._thr) else self._scan(self.window)
            up = self._scan(self.window)
            return down + up
        if rng.bernoulli(self._thr):  # shortcut branch
            return 1
        in_a = {j: rng.bernoulli(self._thr) for j in SLOTS}
        in_b = {j: rng.bernoulli(self._thr) for j in SLOTS}
        if in_a[0] or in_b[0]:
            lo = 0
        elif in_a[-1] or in_b[-1]:
            lo = -1
        else:
            lo = -1 - self._scan(self.window)
        if in_a[1] or in_b[1]:
            hi = 1
        elif in_a[2] or in_b[2]:
            hi = 2
        else:
            hi = 2 + self._scan(self.window)
        return hi - lo

    def take(self, count: int) -> list[int]:
        return [self.next() for _ in range(count)]


LOG_MEAN_TAIL = 1e-14  # line_gap_log_mean stops once tail mass * log k falls below it


def line_gap_log_mean(x: float, variant: str = PLAIN) -> float:
    """E[log gap], truncated where the remaining mass is negligible."""
    _check_x(x)
    total = 0.0
    k = 2
    while True:
        total += math.log(k) * line_gap_pmf(x, k, variant)
        if k > 4 and line_gap_tail(x, k, variant) * math.log(k + 50) < LOG_MEAN_TAIL:
            break
        k += 1
    return total


def option_count(family: TupleFamily, member: tuple, order: tuple[int, ...], i: int) -> int:
    """Number of possible i-th components among members agreeing with
    ``member`` on every component revealed before i under ``order``."""
    if member not in family.members:
        raise FamilyError(f"{member} is not a family member")
    if sorted(order) != list(range(family.n)):
        raise FamilyError("order must be a permutation of the component indices")
    prefix = order[: order.index(i)]
    vals = {m[i] for m in family.members
            if all(m[j] == member[j] for j in prefix)}
    return len(vals)


BRUTE_FORCE_SIZE = 20  # the subset filter holds 2^size 64-bit masks at once


def count_downsets_bruteforce(poset: FinitePoset) -> int:
    """2^size subset filter; oracle for count_downsets at size <= ~16.

    A subset is kept unless it holds some element without all of the
    elements below it.  Refuses posets past BRUTE_FORCE_SIZE elements,
    whose subset array would not fit in memory.
    """
    if poset.size > BRUTE_FORCE_SIZE:
        raise PosetError(f"brute-force count needs size <= {BRUTE_FORCE_SIZE}, "
                         f"got {poset.size}")
    subsets = np.arange(1 << poset.size, dtype=np.int64)
    closed = np.ones(subsets.shape, dtype=bool)
    for e, b in enumerate(poset.below):
        closed &= (subsets >> e & 1 == 0) | (subsets & b == b)
    return int(closed.sum())


def jensen_pair_check(a0, a1, a2, x):
    """lhs, rhs of the two-indicator Jensen inequality lhs >= rhs in
    floats, and whether it holds.  The scalar oracle of
    ``distributions.jensen_margins``."""
    if a0 <= 0 or a1 <= 0 or a2 <= 0:
        raise DistributionError("a0, a1, a2 must be positive")
    if not 0 <= x <= 1:
        raise DistributionError("x must lie in [0, 1]")
    a0, a1, a2, x = float(a0), float(a1), float(a2), float(x)
    lhs = (x * x * math.log(a0)
           + x * (1 - x) * (math.log(a0 + a1) + math.log(a0 + a2))
           + (1 - x) * (1 - x) * math.log(a0 + a1 + a2))
    rhs = x * math.log(a0) + (1 - x) * math.log(a0 + a1 + a2)
    return lhs, rhs, lhs >= rhs


@lru_cache(maxsize=None)
def all_permutations(n):
    """Every perfect matching on n pairs, one column per permutation:
    match[u] holds job u's applicant and partner[v] applicant v's job."""
    flat = chain.from_iterable(permutations(range(n)))
    rows = np.fromiter(flat, dtype=np.int8, count=n * math.factorial(n)).reshape(-1, n)
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


def shuffle_by_randrange(rng: Xoshiro256StarStar, xs: list) -> None:
    """In-place Fisher-Yates shuffle: element i, from the last down to
    the second, swaps with ``rng.randrange(i + 1)``."""
    for i in range(len(xs) - 1, 0, -1):
        j = rng.randrange(i + 1)
        xs[i], xs[j] = xs[j], xs[i]


def exposed_rotations_by_scan(profile: PreferenceProfile,
                              matching: Matching) -> list[rotations.Rotation]:
    """The rotations exposed in a stable matching, from scratch: job u
    matched to v has as successor the first applicant w below v on u's
    list who prefers u to their own partner, and the exposed rotations
    are the cycles of u -> partner(successor(u)), each found by walking
    from its smallest job.  Sorted by edges; NotExposedError when the
    matching is unstable."""
    if unstable_pairs(profile, matching):
        raise rotations.NotExposedError("matching is unstable")
    n = profile.n
    arank = profile.applicant_rank_table
    partner = [0] * n
    for u, v in enumerate(matching):
        partner[v] = u
    nxt = [-1] * n  # job -> the job whose applicant it moves to
    for u in range(n):
        for w in profile.job_prefs[u][profile.job_rank_table[u][matching[u]] + 1:]:
            if arank[w][u] < arank[w][partner[w]]:
                nxt[u] = partner[w]
                break
    out = []
    for start in range(n):
        cycle = [start]
        while len(cycle) <= n and nxt[cycle[-1]] not in (-1, start):
            cycle.append(nxt[cycle[-1]])
        if nxt[cycle[-1]] == start and min(cycle) == start:
            out.append(rotations.Rotation(tuple((u, matching[u]) for u in cycle)))
    return sorted(out, key=lambda r: r.edges)


def build_rotation_poset_bfs(profile: PreferenceProfile) -> rotations.RotationPoset:
    """Labelled oracle: breadth-first exploration of all elimination
    sequences from the job-optimal matching; the order is read off the
    reachable eliminated-sets (rho below rho' iff every reachable set
    containing rho' contains rho) and cross-checked to be a lattice of
    downsets.  Exponential in general: it visits every stable matching,
    and raises StateCapError past `rotations.STATE_CAP` of them, the cap
    read at call time.
    """
    n = profile.n
    cap = rotations.STATE_CAP
    mu0 = gale_shapley(profile, "jobs")

    rot_ids: dict[tuple, int] = {}
    rots: list[rotations.Rotation] = []
    states: dict[int, Matching] = {0: mu0}  # eliminated-set bitmask -> matching
    frontier = [0]
    while frontier:
        next_frontier = []
        for mask in frontier:
            matching = states[mask]
            for rot in exposed_rotations_by_scan(profile, matching):
                rid = rot_ids.get(rot.edges)
                if rid is None:
                    rid = len(rots)
                    rot_ids[rot.edges] = rid
                    rots.append(rot)
                new_mask = mask | (1 << rid)
                new_matching = rotations._apply_rotation(matching, rot)
                assert not unstable_pairs(profile, new_matching), \
                    "elimination produced an unstable matching"
                seen = states.get(new_mask)
                if seen is None:
                    if len(states) >= cap:
                        raise rotations.StateCapError(f"more than {cap} lattice states")
                    states[new_mask] = new_matching
                    next_frontier.append(new_mask)
                elif seen != new_matching:
                    raise AssertionError("same eliminated-set reached two matchings")
        frontier = next_frontier

    r = len(rots)
    full = (1 << r) - 1
    below_incl = [full] * r  # AND of all reached sets containing t
    for mask in states:
        for t in posets._bits(mask):
            below_incl[t] &= mask
    below = [below_incl[t] & ~(1 << t) for t in range(r)]

    for i in range(r):
        for j in posets._bits(below[i]):
            if below[j] >> i & 1:
                raise AssertionError("derived elimination order is not antisymmetric")

    # reached sets must be exactly the downsets of the derived order
    reached = set(states)
    for mask in reached:
        for t in posets._bits(mask):
            if below[t] & ~mask:
                raise AssertionError("reached set is not downward closed")
    fp = posets.poset_from_below(r, below)
    ideals = set(posets.enumerate_downset_masks(fp))
    if ideals != reached:
        raise AssertionError("reached sets differ from the downsets of the derived order")

    return rotations._with_chains(n, rots, below, fp.covers, mu0)
