"""Gap distributions behind the downset-counting bounds.

Two families of random gap lengths are implemented exactly and by
sampling:

* cyclic gap: n+1 points on a circle with a marked point t; choosing l of
  them uniformly splits the circle into l arcs, and the gap is the length
  of the arc containing t.  Pmf: k * C(n-k, l-2) / C(n+1, l).
* line gap: every integer belongs to a random set independently with
  probability x, and the gap is the length of the interval of unmarked
  ground between the chosen points around 0.  The 'plain' variant uses
  only that set (pmf k x^2 (1-x)^(k-1)); the 'extended' variant adds four
  extra indicator slots at {-1, 0, 1, 2}, plus a shortcut branch that
  forces gap 1 with probability x.

The line-gap law is written once, in ``GAP_LAWS``: at gap k the pmf is
x^2 sum a (1-x)^b over the (a, b) pairs of ``line_gap_terms(k, variant)``,
plus the shortcut mass x at extended k = 1.  The first few k have their
own pairs; past them each general entry (alpha, beta, s) gives the pair
(alpha k + beta, k + s).  ``line_gap_pmf`` evaluates the pairs,
``line_gap_tail`` sums the general entries in closed form, and
``bounds.line_gap_pmf_poly`` expands them into integer polynomials.

The samplers are lane-vectorized and generative: each draw follows the
model above, with every capped scan drawn from one u64 by the exact
inversion of ``rng.ScanTable``, into one int64 array; the scalar
samplers of tests/oracles.py are the oracles they are tested against.

The module also hosts the stochastic-dominance check of revealed-chain
option counts against the cyclic gap law (all levels l of a grid read in
one option-count request over all its chains, one weight column per l,
each prefix weighted by the uniform law of ``counting._uniform_prefixes``),
a Jensen inequality grid decided by its integer identity
(``jensen_margins``), and the Monte Carlo comparison of the extended gap
under correlated versus independent slot indicators, in which every slot
identification pattern at one x reads the same draw
(``gap_dependence_cells``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, islice
from math import comb
from operator import or_
from typing import NamedTuple

import numpy as np

from .counting import (INT64_MAX, OptionCountTable, TupleFamily, _uniform_prefixes,
                       downset_top_family)
from .posets import TangledGrid
from .record import SE_RULE, CheckResult
from .rng import (ScanTable, Xoshiro256StarStar, XoshiroLanes, bernoulli_threshold,
                  lane_rounds)

PLAIN = "plain"
EXTENDED = "extended"

SLOTS = (-1, 0, 1, 2)


class DistributionError(ValueError):
    pass


def _check_count(count: int) -> None:
    if count < 1:
        raise DistributionError(f"sample count must be >= 1, got {count}")


# ---------------------------------------------------------------- cyclic gap

def _check_cyclic(n: int, l: int) -> None:
    if not 2 <= l <= n:
        raise DistributionError(f"need 2 <= l <= n, got l={l}, n={n}")


def cyclic_gap_pmf(n: int, l: int) -> tuple[tuple[int, Fraction], ...]:
    """Exact arc-length law for l chosen points among n+1 cyclic positions:
    the (k, Pr[gap = k]) pairs of its support, k ascending."""
    _check_cyclic(n, l)
    denom = comb(n + 1, l)
    support = tuple((k, Fraction(k * comb(n - k, l - 2), denom))
                    for k in range(1, n + 1) if comb(n - k, l - 2) > 0)
    if sum(p for _, p in support) != 1:
        raise DistributionError(f"cyclic gap pmf ({n}, {l}) does not sum to 1")
    return support


def cyclic_gap_pmf_bruteforce(n: int, l: int) -> tuple[tuple[int, Fraction], ...]:
    """Oracle: enumerate all C(n+1, l) choices on the circle directly."""
    _check_cyclic(n, l)
    counts: dict[int, int] = {}
    total = 0
    for chosen in combinations(range(n + 1), l):
        total += 1
        k = _arc_containing_zero(chosen, n)
        counts[k] = counts.get(k, 0) + 1
    return tuple((k, Fraction(c, total)) for k, c in sorted(counts.items()))


def _arc_containing_zero(chosen: tuple[int, ...], n: int) -> int:
    # chosen is sorted ascending within 0..n; arcs are [a_j, a_{j+1})
    if chosen[0] == 0:
        return chosen[1] if len(chosen) > 1 else n + 1
    return (n + 1 - chosen[-1]) + chosen[0]


@dataclass(frozen=True)
class CyclicGapMoments:
    expectation: Fraction
    given_marked_unchosen: Fraction
    given_marked_chosen: Fraction


def cyclic_gap_expectation(n: int, l: int) -> CyclicGapMoments:
    """E of the cyclic gap, overall and conditioned on whether the marked
    point was among the chosen.  c08 compares the overall one with its
    2(n+1)/(l+1) ceiling."""
    _check_cyclic(n, l)
    # split counts: a length-k arc containing the mark starts at the mark
    # (mark chosen) or at one of k-1 earlier points (mark unchosen)
    e_chosen = Fraction(
        sum(k * comb(n - k, l - 2) for k in range(1, n + 1)), comb(n, l - 1))
    e_unchosen = Fraction(
        sum(k * (k - 1) * comb(n - k, l - 2) for k in range(1, n + 1)), comb(n, l))
    e_all = Fraction(
        sum(k * k * comb(n - k, l - 2) for k in range(1, n + 1)), comb(n + 1, l))
    return CyclicGapMoments(e_all, e_unchosen, e_chosen)


def sample_cyclic_gap(n: int, l: int, seed: int, count: int) -> np.ndarray:
    """`count` cyclic gaps, lane-vectorized: each draw gives the n+1 points
    u64 keys and chooses the l points with the smallest keys (keys tie with
    probability below (n+1)^2 / 2^65 per draw; the partition breaks ties)."""
    _check_cyclic(n, l)
    _check_count(count)
    lanes, rounds = lane_rounds(seed, count, keys=n + 1)
    gaps = []
    for m in rounds:
        chosen = np.argpartition(lanes.next_block(n + 1, m), l - 1, axis=0)[:l]
        first, last = chosen.min(axis=0), chosen.max(axis=0)
        after_zero = np.where(chosen == 0, n + 1, chosen).min(axis=0)
        gaps.append(np.where(first == 0, after_zero, n + 1 - last + first))
    return np.concatenate(gaps)


# ------------------------------------------------------------------ line gap

def _check_x(x) -> None:
    if not 0 < x < 1:
        raise DistributionError(f"x={x} outside (0, 1)")


class GapLaw(NamedTuple):
    """One variant's line-gap law (see the module docstring)."""

    heads: dict[int, tuple[tuple[int, int], ...]]  # k -> (a, b) pairs
    general: tuple[tuple[int, int, int], ...]       # (alpha, beta, s) past the heads
    shortcut: bool                                  # extra mass x at k = 1


# The factored forms in c = 1 - (1-x)^2 = x (1 + q), q = 1 - x, expanded;
# tests/test_distributions.py keeps them as the oracle.
GAP_LAWS = {
    PLAIN: GapLaw({}, ((1, 0, -1),), False),
    EXTENDED: GapLaw({1: ((1, 1), (2, 2), (1, 3)),
                      2: ((2, 3), (4, 4), (2, 5)),
                      3: ((3, 5), (4, 6), (1, 7))},
                     ((0, 2, 2), (0, 4, 3), (1, -2, 4)), True),
}


def check_variant(variant: str) -> str:
    """The one variant lookup of the gap laws: raise on an unknown name."""
    if variant not in GAP_LAWS:
        raise DistributionError(f"unknown variant {variant!r}")
    return variant


def line_gap_terms(k: int, variant: str) -> tuple[tuple[int, int], ...]:
    """The (a, b) pairs of the pmf x^2 sum a (1-x)^b at gap length k >= 1."""
    law = GAP_LAWS[check_variant(variant)]
    if k < 1:
        raise DistributionError("k must be >= 1")
    if k in law.heads:
        return law.heads[k]
    return tuple((alpha * k + beta, k + s) for alpha, beta, s in law.general)


def line_gap_pmf(x, k: int, variant: str = PLAIN):
    """Point mass at gap length k; exact when x is a Fraction."""
    _check_x(x)
    terms = line_gap_terms(k, variant)
    q = (Fraction(1) if isinstance(x, Fraction) else 1.0) - x
    mass = x * x * sum(a * q ** b for a, b in terms)
    return mass + x if k == 1 and GAP_LAWS[variant].shortcut else mass


def line_gap_tail(x, K: int, variant: str = PLAIN):
    """Exact mass of gap lengths above K >= max(heads, 1): the general terms
    summed in closed form, sum_{k>K} x^2 (alpha k + beta) q^(k+s)
    = q^(K+1+s) ((alpha (K+1) + beta) x + alpha q)."""
    _check_x(x)
    law = GAP_LAWS[check_variant(variant)]
    first = max(law.heads, default=1)
    if K < first:
        raise DistributionError(f"{variant} tail needs K >= {first}")
    q = (Fraction(1) if isinstance(x, Fraction) else 1.0) - x
    return sum(q ** (K + 1 + s) * ((alpha * (K + 1) + beta) * x + alpha * q)
               for alpha, beta, s in law.general)


def line_gap_total(x, K: int, variant: str = PLAIN) -> Fraction:
    """Sum of the pmf through K plus the exact tail; equals 1.

    Exact for any rational x, a float included (taken exactly as
    Fraction(x) = p / r): every term, a p^2 (r-p)^b / r^(b+2), the shortcut
    p / r and the tail, is scaled by r^D, D the largest power of r in a
    denominator, into an integer from one power table each of r - p and r,
    so the sum is one integer over r^D.
    """
    _check_x(x)
    law = GAP_LAWS[check_variant(variant)]
    first = max(law.heads, default=1)
    if K < first:
        raise DistributionError(f"{variant} tail needs K >= {first}")
    p, r = Fraction(x).as_integer_ratio()
    pairs = [pair for k in range(1, K + 1) for pair in line_gap_terms(k, variant)]
    tail_pows = [K + 1 + s for _, _, s in law.general]  # powers of r - p in the tail
    D = max(max(b + 2 for _, b in pairs), max(tail_pows) + 1)
    qp, rp = [1] * (D + 1), [1] * (D + 1)
    for i in range(1, D + 1):
        qp[i] = qp[i - 1] * (r - p)
        rp[i] = rp[i - 1] * r
    total = p * p * sum(a * qp[b] * rp[D - 2 - b] for a, b in pairs)
    if law.shortcut:
        total += p * rp[D - 1]
    total += sum(qp[t] * rp[D - 1 - t] * ((alpha * (K + 1) + beta) * p + alpha * (r - p))
                 for (alpha, beta, _), t in zip(law.general, tail_pows))
    return Fraction(total, rp[D])


FIT_CELLS = 12  # a line-gap fit's cells: k = 1..FIT_CELLS, then the tail above


def line_gap_cells(x, variant: str) -> tuple[list[Fraction], Fraction]:
    """``record.law_fit``'s masses and tail for a line gap, x taken exactly."""
    x = Fraction(x)
    return ([line_gap_pmf(x, k, variant) for k in range(1, FIT_CELLS + 1)],
            line_gap_tail(x, FIT_CELLS, variant))


def line_gap_window(x) -> int:
    """Width ceil(40/x) at which the samplers truncate the integer line
    (untouched-tail mass below 1e-12)."""
    return math.ceil(40 / x)


# The widest window a line-gap sampler takes: its scan table is a Python
# big-int loop linear in the window, about a tenth of a second of work at
# this cap (x >= 2e-4).
WINDOW_CAP = 2 * 10 ** 5


def sample_line_gap(x: float, variant: str, seed: int, count: int) -> np.ndarray:
    """`count` line gaps, lane-vectorized, from the generative model of the
    module docstring: slot indicators plus two capped scans, each scan
    drawn from one u64 by inversion."""
    _check_x(x)
    check_variant(variant)
    _check_count(count)
    thr, scan = _marking(x)
    lanes, rounds = lane_rounds(seed, count)
    gaps = []
    for m in rounds:
        if variant == PLAIN:
            u = lanes.next_block(3, m)
            gaps.append(np.where(u[0] < thr, 0, scan.draw(u[1])) + scan.draw(u[2]))
        else:
            branch, in_a, slot_u, down, up = _extended_draws(lanes, m, thr, scan)
            in_b = {j: slot_u[j] < thr for j in SLOTS}
            gaps.append(_gap_from_slots(in_a, in_b, down, up, branch))
    return np.concatenate(gaps)


def _marking(x) -> tuple[np.uint64, ScanTable]:
    """The slot-marking threshold of x and the table of its capped scan;
    raise before any work when the window passes WINDOW_CAP."""
    window = line_gap_window(x)
    if window > WINDOW_CAP:
        raise DistributionError(f"x={x} needs a scan window of {window}, above the cap "
                                f"{WINDOW_CAP} (x >= {40 / WINDOW_CAP})")
    thr = bernoulli_threshold(Fraction(x))
    return np.uint64(thr), ScanTable(thr, window)


def _extended_draws(lanes: XoshiroLanes, m: int, thr: np.uint64, scan: ScanTable):
    """One round of the extended model on m lanes: the shortcut branch, the
    A-slot marks, the raw B-slot uniforms (callers may identify slots by
    sharing them), and the scans below slot -1 and above slot 2."""
    u = lanes.next_block(11, m)
    in_a = dict(zip(SLOTS, u[1:5] < thr))
    slot_u = dict(zip(SLOTS, u[5:9]))
    return u[0] < thr, in_a, slot_u, scan.draw(u[9]), scan.draw(u[10])


# ------------------------------------------------------------- dominance

def dominance_check(grid: TangledGrid, chain_index: int, l: int) -> CheckResult:
    """Check that the option count for one chain, conditioned on exactly l
    opposite-side chains being revealed first, is dominated by the cyclic
    gap law: Pr[X <= y] >= Pr[gap <= y] for every y, for every downset.
    The record's fields are ``chain``, ``l`` and ``witnesses``, one
    (member, y, Pr[X <= y], Pr[gap <= y]) per violated comparison.

    The conditional law over uniform reveal orders weights a prefix set T
    by |T|! (2n-1-|T|)!; option counts use everything revealed, which only
    sharpens them.  All comparisons are exact, in integers.
    """
    n = grid.n
    if not 0 <= chain_index < 2 * n:
        raise DistributionError("chain index out of range")
    if not 2 <= l <= n:
        raise DistributionError(f"need 2 <= l <= n, got l={l}")
    hists = _conditional_option_histograms(downset_top_family(grid), n, [chain_index], [l])
    return _dominance_report(n, chain_index, l, hists[l][chain_index])


def _gap_cdf(n: int, l: int) -> tuple:
    """The cyclic gap law's support, its CDF there and the CDF's int64 parts."""
    pmf = cyclic_gap_pmf(n, l)
    cdf = list(accumulate(p for _, p in pmf))
    return ([y for y, _ in pmf], cdf, np.array([p.numerator for p in cdf], dtype=np.int64),
            np.array([p.denominator for p in cdf], dtype=np.int64))


def _dominance_report(n: int, chain: int, l: int, hists: np.ndarray, law=None) -> CheckResult:
    """Compare each member's option-count law, a row of the (member x count)
    integer weight matrix ``hists``, with the cyclic gap law (``_gap_cdf``).

    Pr[X <= y] < Pr[gap <= y] is cum * den < num * total over integers,
    cum the row's cumulative weight at y and num / den the gap CDF there;
    Fractions are built only for the witnesses.
    """
    ys, ref_cdf, num, den = law or _gap_cdf(n, l)
    totals = hists.sum(axis=1)
    cum = np.cumsum(hists, axis=1)[:, np.minimum(ys, hists.shape[1] - 1)]
    if int(totals.max(initial=0)) * int(den.max()) > INT64_MAX:
        raise DistributionError("option-count weights too large for the dominance check")
    below = cum * den < totals[:, None] * num
    witnesses = [(mi, ys[k], Fraction(int(cum[mi, k]), int(totals[mi])), ref_cdf[k])
                 for mi, k in zip(*(idx.tolist() for idx in np.nonzero(below)))]
    return CheckResult("dominance", not witnesses,
                       {"chain": chain, "l": l, "witnesses": witnesses})


def _conditional_option_histograms(fam: TupleFamily, n: int, chains, levels):
    """{l: H} for each l in ``levels``, from one histogram request with one
    weight column per l: H[chain] is the (member x option count) integer
    weight matrix over the prefixes with exactly l opposite-side chains
    revealed before the chain, for every chain in ``chains``, each prefix
    weighted by the uniform order law of ``counting._uniform_prefixes``.
    The request lists the pairs level by level, so each column's nonzero
    weights, its level's, are one contiguous run."""
    requests = {l: ([], [], []) for l in levels}
    for chain in chains:
        opposite = ((1 << n) - 1) << n if chain < n else (1 << n) - 1
        for T, w in zip(*_uniform_prefixes(2 * n, chain)):
            request = requests.get((T & opposite).bit_count())
            if request is not None:
                request[0].append(chain)
                request[1].append(T)
                request[2].append(w)
    comps = [c for request in requests.values() for c in request[0]]
    sets = [T for request in requests.values() for T in request[1]]
    columns, start = [], 0
    for _, _, weights in requests.values():
        columns.append([0] * start + weights + [0] * (len(sets) - start - len(weights)))
        start += len(weights)
    hists = OptionCountTable((fam,)).law_histograms(comps, sets, columns)
    return dict(zip(requests, hists))


def dominance_check_grid(grid: TangledGrid) -> list[CheckResult]:
    """dominance_check for every chain and every l, sharing one family,
    one histogram request and one gap law per l."""
    n = grid.n
    hists = _conditional_option_histograms(downset_top_family(grid), n, range(2 * n),
                                           range(2, n + 1))
    laws = {l: _gap_cdf(n, l) for l in range(2, n + 1)}
    return [_dominance_report(n, chain, l, hists[l][chain], laws[l])
            for chain in range(2 * n) for l in range(2, n + 1)]


# ------------------------------------------------------------ Jensen grid

def jensen_margins(a_max: int, x_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The two-indicator Jensen inequality lhs >= rhs at every grid point
    a0, a1, a2 in 1..a_max and x = xi / x_steps, xi in 0..x_steps, in
    integers: lhs - rhs = x (1-x) log((a0+a1)(a0+a2) / (a0 (a0+a1+a2))) has
    the sign of the margin xi (x_steps-xi) ((a0+a1)(a0+a2) - a0 (a0+a1+a2)).
    Returns (points, margins), points an int (point x 4) matrix of (a0, a1,
    a2, xi) rows in lexicographic order; a point holds iff its margin >= 0."""
    a = np.arange(1, a_max + 1, dtype=np.int64)
    a0, a1, a2, xi = np.meshgrid(a, a, a, np.arange(x_steps + 1, dtype=np.int64),
                                 indexing="ij")
    margins = xi * (x_steps - xi) * ((a0 + a1) * (a0 + a2) - a0 * (a0 + a1 + a2))
    points = np.stack([a0, a1, a2, xi], axis=-1).reshape(-1, 4)
    return points, margins.ravel()


# ----------------------------------------- correlated extended-gap check

def legal_identification_patterns() -> tuple[tuple[tuple[int, int], ...], ...]:
    """All slot identification patterns keeping adjacent slots independent."""
    return ((), ((-1, 1),), ((-1, 2),), ((0, 2),), ((-1, 1), (0, 2)))


def _pattern_classes(pattern) -> dict[int, int]:
    """Map each slot to its class representative; reject adjacent identifications."""
    parent = {j: j for j in SLOTS}

    def find(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for a, b in pattern:
        if a not in parent or b not in parent:
            raise DistributionError(f"identification ({a},{b}) outside slots")
        parent[find(a)] = find(b)
    for j in (-1, 0, 1):
        if find(j) == find(j + 1):
            raise DistributionError(
                f"slots {j} and {j + 1} are adjacent and must stay independent")
    return {j: find(j) for j in SLOTS}


@dataclass
class GapDependenceResult:
    pattern: tuple
    x: float
    samples: int
    dependent_mean: float
    independent_mean: float
    diff_mean: float
    diff_stderr: float
    passed: bool


def gap_dependence_check(x: float, pattern, seed: int,
                         samples: int = 10 ** 6) -> GapDependenceResult:
    """The one-cell view of gap_dependence_cells: the result of one pattern."""
    return gap_dependence_cells(x, (pattern,), seed, samples)[0]


def gap_dependence_cells(x: float, patterns, seed: int,
                         samples: int = 10 ** 6) -> list[GapDependenceResult]:
    """Paired Monte Carlo estimates of E[log gap] for the extended variant
    with identified slots versus fully independent slots, one result per
    pattern in ``patterns``, all from one draw.

    Every estimate shares the branch draw, the base marking and the slot
    uniforms (an identified class reads its representative's mark), so
    each difference estimator is tight: common random numbers between the
    dependent and independent gaps, and across the patterns.  Each round
    draws once and computes the independent gaps and their logs once;
    each pattern identifying slots then adds one dependent gap.  A pattern
    passes iff its dependent mean does not exceed the independent one by
    more than SE_RULE standard errors of its paired difference.  Exactly
    ``samples`` lanes are drawn, in the balanced rounds of
    ``rng.lane_rounds``; a pattern's result does not depend on which
    other patterns share the draw.
    """
    _check_x(x)
    _check_count(samples)
    patterns = [tuple(pattern) for pattern in patterns]
    classes = [c if any(j != c[j] for j in c) else None for c in map(_pattern_classes, patterns)]
    thr, scan = _marking(x)

    sum_i = 0.0
    sums = [[0.0, 0.0, 0.0] for _ in patterns]  # per pattern: dependent, diff, diff^2
    lanes, rounds = lane_rounds(seed, samples)
    for m in rounds:
        branch, in_a, slot_u, down, up = _extended_draws(lanes, m, thr, scan)
        b_ind = {j: slot_u[j] < thr for j in SLOTS}
        log_i = np.log(_gap_from_slots(in_a, b_ind, down, up, branch))
        sum_i += float(log_i.sum())
        for cls, cell in zip(classes, sums):
            log_d = log_i if cls is None else np.log(_gap_from_slots(  # None: no slot identified
                in_a, {j: b_ind[cls[j]] for j in SLOTS}, down, up, branch))
            _add_paired_sums(cell, log_d, log_i)

    results = []
    for pattern, (sum_d, sum_diff, sum_diff2) in zip(patterns, sums):
        mean_diff = sum_diff / samples
        var_diff = max(sum_diff2 / samples - mean_diff * mean_diff, 0.0)
        stderr = math.sqrt(var_diff / samples)
        results.append(GapDependenceResult(pattern, x, samples, sum_d / samples, sum_i / samples,
                                           mean_diff, stderr, mean_diff <= SE_RULE * stderr))
    return results


def _add_paired_sums(cell: list[float], log_d: np.ndarray, log_i: np.ndarray) -> None:
    """Add one round's dependent, difference and squared-difference sums."""
    diff = log_d - log_i
    cell[0] += float(log_d.sum())
    cell[1] += float(diff.sum())
    cell[2] += float((diff * diff).sum())


def _gap_from_slots(in_a, b, down, up, branch) -> np.ndarray:
    """The extended gap hi - lo of each lane from its slot marks h_j = A_j | B_j.

    lo is 0 when slot 0 is marked, else -1 when slot -1 is, else -1 - down;
    hi is 1, 2 or 2 + up likewise; the shortcut branch gives 1.  So
    gap = 1 + ~branch (~h_0 (1 + ~h_-1 down) + ~h_1 (1 + ~h_2 up)), taken
    in exact int64 arithmetic in two buffers, with no selection.
    """
    m = len(down)
    gap, part, free = np.empty(m, np.int64), np.empty(m, np.int64), np.empty(m, bool)

    def unmarked(j):
        np.logical_or(in_a[j], b[j], out=free)
        return np.logical_not(free, out=free)

    np.multiply(unmarked(-1), down, out=gap)
    gap += 1
    gap *= unmarked(0)
    np.multiply(unmarked(2), up, out=part)
    part += 1
    part *= unmarked(1)
    gap += part
    gap *= np.logical_not(branch, out=free)
    gap += 1
    return gap


# ------------------------------------- finite-n asymptotic dominance probe

PROBE_XS = (0.3, 0.5, 0.7)  # x buckets of the asymptotic probe, each +-0.05 wide
PROBE_TOL = 0.02           # the probe's slack on Pr[X <= y] besides 3 sigma
PROBE_TARGETS = 5          # the longest m-chains the probe tests


def _chain_closures(poset, chains) -> tuple[list[list[int]], list[list[int]]]:
    """Per chain of ``poset``, by top index j (0 the sentinel, j the j-th
    element on top): the in-closure of the chain's first j elements and
    the mask of its elements past them."""
    prefix = [list(accumulate((poset.below[e] | 1 << e for e in ch), or_, initial=0))
              for ch in chains]
    suffix = [[sum(1 << e for e in ch[j:]) for j in range(len(ch) + 1)] for ch in chains]
    return prefix, suffix


def _chain_option_count(prefix, suffix, tops, revealed, u: int) -> int:
    """X_u from ``_chain_closures`` tables: the tops j chain u can still
    take once each chain c in ``revealed`` shows top tops[c], i.e. those
    whose in-closure, joined with the revealed ones, meets no element above
    any of the tops.  O(n * chain length), without listing downsets."""
    in_mask = out_els = 0
    for c in revealed:
        in_mask |= prefix[c][tops[c]]
        out_els |= suffix[c][tops[c]]
    return sum((in_mask | p) & (out_els | q) == 0 for p, q in zip(prefix[u], suffix[u]))


def asymptotic_dominance_probe(n: int, seed: int, samples: int = 4000) -> CheckResult:
    """Monte Carlo probe of the asymptotic domination of chain option
    counts by the extended gap law, on the rotation poset of one random
    instance.

    For sampled (downset, reveal order) pairs and each target m-chain, the
    option count X is computed structurally (``_chain_option_count``) and
    bucketed by the fraction x of other w-chains revealed first, excluding
    the chain's own partner at the current top (whose early reveal is the
    gap-1 shortcut).  The probe requires Pr[X <= y] >= Pr[gap <= y] -
    PROBE_TOL - 3 sigma per bucket; tops at a chain boundary are skipped,
    mirroring the interior-only analysis.  This is a slack sanity probe,
    not an exact criterion.
    The record's fields are ``n``, the ``worst_shortfall`` and the number
    of tested ``cells``.  The probe lists every downset of the lattice and
    raises ``rotations.StateCapError`` past ``rotations.STATE_CAP`` of them.
    """
    _check_count(samples)
    from .instances import random_instance
    from .posets import enumerate_downset_masks
    from .rotations import STATE_CAP, StateCapError, build_rotation_poset, to_finite_poset

    profile = random_instance(n, seed)
    rposet = build_rotation_poset(profile)
    fp = to_finite_poset(rposet)
    downsets = list(islice(enumerate_downset_masks(fp), STATE_CAP + 1))
    if len(downsets) > STATE_CAP:
        raise StateCapError(f"more than {STATE_CAP} downsets of the rotation poset")

    chains = list(rposet.m_chains) + list(rposet.w_chains)
    target_ids = sorted(range(n), key=lambda u: -len(chains[u]))[:PROBE_TARGETS]
    target_ids = [u for u in target_ids if len(chains[u]) >= 3]
    if not target_ids:
        raise DistributionError(f"asymptotic probe has no cell to test: no m-chain of "
                                f"the n={n} seed={seed} instance has at least 3 rotations")

    # partner w-chain of (m-chain u, rotation t): chain of u's next applicant in t
    partner_w: dict[tuple[int, int], int] = {}
    for t, rot in enumerate(rposet.rotations):
        k = len(rot.edges)
        for idx, (u, _) in enumerate(rot.edges):
            partner_w[(u, t)] = n + rot.edges[(idx + 1) % k][1]

    prefix, suffix = _chain_closures(fp, chains)
    rng = Xoshiro256StarStar(seed, stream=1)
    hists: dict[tuple[float, int], dict[int, int]] = {}
    for _ in range(samples):
        d_mask = downsets[rng.randrange(len(downsets))]
        order = rng.permutation(2 * n)
        # a downset holds a prefix of each chain: its length is the top index
        tops = [sum(d_mask >> e & 1 for e in ch) for ch in chains]
        for u in target_ids:
            ti = tops[u]
            if ti == 0 or ti >= len(chains[u]):
                continue  # boundary top, outside the interior analysis
            wpair = partner_w.get((u, chains[u][ti - 1]))
            revealed = order[:order.index(u)]
            x = sum(1 for c in revealed if c >= n and c != wpair) / n
            bucket = min(PROBE_XS, key=lambda v: abs(v - x))
            if abs(bucket - x) > 0.05:
                continue
            options = _chain_option_count(prefix, suffix, tops, revealed, u)
            hist = hists.setdefault((bucket, u), {})
            hist[options] = hist.get(options, 0) + 1

    min_count = 50
    worst = 0.0
    counts = []  # samples of each tested (x, chain) cell
    for (x, _), hist in hists.items():
        count = sum(hist.values())
        if count < min_count:
            continue
        max_y = max(hist)
        acc = 0
        ref_acc = 0.0
        shortfall = 0.0
        for y in range(1, max_y + 1):
            acc += hist.get(y, 0)
            ref_acc += float(line_gap_pmf(x, y, EXTENDED))
            shortfall = max(shortfall, ref_acc - acc / count)
        counts.append(count)
        worst = max(worst, shortfall)
    if not counts:
        raise DistributionError(f"asymptotic probe has no cell to test: no (x, chain) "
                                f"bucket reached {min_count} of {samples} samples")
    allowance = PROBE_TOL + 3.0 * math.sqrt(0.25 / min(counts))
    return CheckResult("simulate_asymptotic", worst <= allowance,
                       {"n": n, "worst_shortfall": worst, "cells": len(counts)})
