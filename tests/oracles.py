"""Labelled oracles: the slower, plainer implementations that the fast
kernels of smcensus are differentially tested against.  Nothing in
src/ calls them.

* ``scan_draw_searchsorted`` -- ScanTable inversion by a binary search
  of the ascending table;
* ``gap_from_slots_where`` -- the extended gap by nested selections;
* ``lane_state_arange`` -- the XoshiroLanes state from one flat
  SplitMix64 array, transposed;
* ``exact_sum_fsum`` -- the exactly rounded sum by ``math.fsum`` over
  Python floats;
* ``CyclicGapSampler`` and ``LineGapSampler`` -- scalar streams of the
  cyclic and line gaps, one partial Fisher-Yates choice or one Bernoulli
  draw per slot;
* ``count_downsets_bruteforce`` -- the downset count by a 2^size subset
  filter;
* ``jensen_pair_check`` -- one point of ``jensen_grid`` in scalar floats;
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

from smcensus.distributions import (JENSEN_TOL, PLAIN, SLOTS, DistributionError,
                                    _arc_containing_zero, _check_cyclic, _check_x,
                                    check_variant, line_gap_window)
from smcensus.posets import FinitePoset, PosetError
from smcensus.rng import (_GAMMA, _MASK64, _MIX1, _MIX2, Xoshiro256StarStar,
                          bernoulli_threshold)


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


def exact_sum_fsum(chunks) -> float:
    """The correctly rounded sum of the arrays' values: math.fsum over
    their values as one list of Python floats."""
    return math.fsum(chain.from_iterable(x.tolist() for x in chunks))


class CyclicGapSampler:
    """Scalar oracle for ``sample_cyclic_gap``: a deterministic stream of
    cyclic gaps, one partial Fisher-Yates choice of l points per draw."""

    def __init__(self, n: int, l: int, seed: int):
        _check_cyclic(n, l)
        self.n, self.l = n, l
        self._rng = Xoshiro256StarStar(seed)

    def next(self) -> int:
        chosen = self._rng.sample_range(self.n + 1, self.l)
        return _arc_containing_zero(tuple(chosen), self.n)

    def take(self, count: int) -> list[int]:
        return [self.next() for _ in range(count)]


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
    """lhs/rhs of the two-indicator Jensen inequality; pass iff lhs >= rhs - JENSEN_TOL.
    The scalar oracle of ``jensen_grid``."""
    if a0 <= 0 or a1 <= 0 or a2 <= 0:
        raise DistributionError("a0, a1, a2 must be positive")
    if not 0 <= x <= 1:
        raise DistributionError("x must lie in [0, 1]")
    a0, a1, a2, x = float(a0), float(a1), float(a2), float(x)
    lhs = (x * x * math.log(a0)
           + x * (1 - x) * (math.log(a0 + a1) + math.log(a0 + a2))
           + (1 - x) * (1 - x) * math.log(a0 + a1 + a2))
    rhs = x * math.log(a0) + (1 - x) * math.log(a0 + a1 + a2)
    return lhs, rhs, lhs >= rhs - JENSEN_TOL


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
