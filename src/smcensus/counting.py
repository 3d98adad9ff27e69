"""Upper bounds on tuple-family sizes by revealing components one by one.

A family S of n-tuples is bounded through the option counts X_i(s, pi):
the number of values component i can still take once the components
before it (under a reveal order pi) are pinned to those of s.  Averaging
log X_i over random members and/or random orders bounds log |S|; taking
the plain expectation instead of the log gives a weaker product bound.

X_i depends on the order only through the set T revealed before i, so
option counts are read from one columnar option-count table
(``OptionCountTable``) over a stack of equal-arity families, built per
request.  Component values are small integer codes, per family, and each
revealed set T owns one row of an int64 group-id matrix over all stacked members,
built from the row of T without its top bit and only for the sets asked
for (and their top-bit ancestors): exact evaluation reads every set,
Monte Carlo only the sampled ones.  The empty set's row is the family
index, so a group never spans two families.  The table takes one request
form, a list of (component, set) pairs: one bincount over group * card_i
+ code_i gives X_i for a whole batch of them.  Monte Carlo reveal orders
are drawn on the lanes of ``rng.XoshiroLanes``, one order per lane, and
tallied as one int64 code per (component, revealed set) pair, which caps
Monte Carlo at MC_COMPONENT_LIMIT = 57 components.  ``option_count`` of
tests/oracles.py recomputes a single X_i from its definition and is the
oracle the table is tested against.

Every bound takes one path, ``reveal_bounds``: any families of one arity
under any modes.  ``_request`` turns a ``BoundMode`` into one list of
(component, revealed set, weight) triples and the common total each
component's weights sum to: 1 for a single order, n! for uniform orders,
the sample count for Monte Carlo (drawn once per call).  Modes with one
reveal law share a weight column, the laws' pairs are merged into one
request, and one ``law_histograms`` call over the stacked table turns it
into an exact int64 (law x component x member x X_i) array, one
``np.add.at`` per column in steps of at most _CHUNK_CELLS (set, member)
cells; it refuses a column whose pooled sums would overflow int64.
``_aggregate`` reduces each family's member slice through ``_reduce``,
the variant's statistic for every component with the histogram rows it
comes from: exact bounds sum those rows per count as integers, one
Fraction each, and Monte Carlo bounds take a standard error from them.
``reveal_bound`` and ``reveal_bounds_exact`` are its one-family views.

Adapters cover the worked three-component family, perfect matchings of a
bipartite graph (degree-factorial bound), and downsets of a tangled grid
encoded by their per-chain top elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, repeat
from math import factorial
from operator import and_, or_, rshift

import numpy as np

from .posets import TangledGrid, enumerate_downset_masks
from .record import SE_RULE
from .rng import Xoshiro256StarStar, lane_rounds

EXACT_COMPONENT_LIMIT = 8

VARIANTS = ("fixed_order", "averaged", "worst_member", "mean_product")

BOUND_TOL = 1e-9  # exact margins below this are decided at 60 digits

INT64_MAX = int(np.iinfo(np.int64).max)
_CHUNK_CELLS = 1 << 15  # (set, member) cells per histogram step, bounding temporaries
MC_COMPONENT_LIMIT = 57  # largest n whose reveal codes, n + bit_length(n - 1) bits, fit an int64


class FamilyError(ValueError):
    pass


@dataclass(frozen=True)
class TupleFamily:
    """Explicit family of n-tuples with the component value sets."""

    components: tuple[tuple, ...]
    members: tuple[tuple, ...]

    def __post_init__(self):
        comp_sets = [set(c) for c in self.components]
        if any(len(cs) != len(c) for cs, c in zip(comp_sets, self.components)):
            raise FamilyError("component value sets contain repeats")
        if len(set(self.members)) != len(self.members):
            raise FamilyError("members are not distinct")
        for m in self.members:
            if len(m) != len(self.components):
                raise FamilyError(f"member {m} has wrong arity")
            for i, x in enumerate(m):
                if x not in comp_sets[i]:
                    raise FamilyError(f"member entry {x!r} outside component {i}")

    @property
    def n(self) -> int:
        return len(self.components)


class OptionCountTable:
    """X_i(s, T) for every member s of a stack of equal-arity families and
    every revealed set T, in numpy columns.

    T is the bitmask of components revealed before i: X_i depends on a
    reveal order only through that set.  The families' members are
    concatenated into one row of columns, family by family; component i's
    values are each family's own codes 0..card-1, one int64 column over
    the members, and the card of component i is the largest over the
    families.  Each T built so far owns one row of the int64 group-id
    matrix: members share an id iff they belong to one family and agree on
    every component in T, and a row's ids are dense, 0..groups(T)-1 (the
    row of the empty set holds the family index, so no group spans two
    families and every X_i equals that family's own).  The row of T comes
    from the row of T without its top bit, in one vectorised step for all
    missing sets with that top bit; only the sets asked for and their
    top-bit ancestors are built.

    A request is a list of components with one revealed set each.  Each
    set's ids are shifted by the group counts of the sets before it, so
    ids are distinct across the batch, and one bincount over group *
    card_i + code_i marks the (group, value) pairs present: X_i of a
    member is the number of values in its group.  ``law_histograms`` sums
    each weight column (one reveal law) per (component, member, X_i) into
    an exact int64 array, one ``np.add.at`` per column, and raises
    FamilyError when a column's total times the largest family or the
    widest card + 1 (the pooled sums and count moments taken from it)
    would not fit in int64.  Requests run in steps of at most _CHUNK_CELLS
    (set, member) cells, which bounds their temporaries however many
    families are stacked.
    """

    def __init__(self, families: tuple[TupleFamily, ...]):
        if not families:
            raise FamilyError("a table needs at least one family")
        self.n = families[0].n
        if any(fam.n != self.n for fam in families):
            raise FamilyError("stacked families differ in arity")
        sizes = [len(fam.members) for fam in families]
        self.size = sum(sizes)
        self.bounds = list(accumulate(sizes, initial=0))  # family f: members bounds[f]:bounds[f+1]
        self._widest = max(sizes)
        self._cards = [max(len(fam.components[i]) for fam in families) for i in range(self.n)]
        self._codes = np.concatenate([_value_codes(fam) for fam in families], axis=1)
        self._slot = {0: 0}                            # revealed set -> row
        self._ids = np.repeat(np.arange(len(families), dtype=np.int64), sizes)[None, :]
        self._groups = np.array([len(families)], np.int64)  # groups per row

    @property
    def rows_built(self) -> int:
        """How many revealed sets have a group-id row."""
        return len(self._slot)

    def _check(self, i: list[int], sets: list[int]) -> None:
        """Raise unless component i[r] may follow set r, for every r.

        The pairs are screened by C-level reductions (the components' range,
        the OR of the sets, one shift per pair) and walked only to name the
        first offender."""
        n = self.n
        if len(i) != len(sets):
            raise FamilyError(f"{len(i)} components for {len(sets)} sets")
        if (i and (min(i) < 0 or max(i) >= n)) or reduce(or_, sets, 0) >> n \
                or any(map(and_, map(rshift, sets, i), repeat(1))):
            for c, T in zip(i, sets):
                if not 0 <= c < n:
                    raise FamilyError(f"no row for component {c}")
                if T >> c & 1 or T >> n:
                    raise FamilyError(f"no row for component {c} after set {T:#b}")

    def _rows(self, sets) -> list[int]:
        """Group-id rows of ``sets``, building missing ones top bit by top bit."""
        missing: dict[int, list[int]] = {}  # top bit -> sets without a row
        seen: set[int] = set()
        stack = [T for T in sets if T not in self._slot]
        while stack:
            T = stack.pop()
            if T not in self._slot and T not in seen:
                seen.add(T)
                top = T.bit_length() - 1
                missing.setdefault(top, []).append(T)
                stack.append(T ^ 1 << top)
        for top in sorted(missing):  # a set's ancestors have smaller top bits
            batch = missing[top]
            parents = [self._slot[T ^ 1 << top] for T in batch]
            ids, groups = _refine(self._ids[parents], self._groups[parents],
                                  self._codes[top], self._cards[top])
            self._append(batch, ids, groups)
        return [self._slot[T] for T in sets]

    def _append(self, batch: list[int], ids: np.ndarray, groups: np.ndarray) -> None:
        start = len(self._slot)
        stop = start + len(batch)
        if stop > len(self._ids):
            capacity = max(stop, 2 * len(self._ids))
            self._ids = np.concatenate(
                [self._ids[:start], np.empty((capacity - start, self.size), np.int64)])
            self._groups = np.concatenate(
                [self._groups[:start], np.empty(capacity - start, np.int64)])
        self._ids[start:stop] = ids
        self._groups[start:stop] = groups
        self._slot.update(zip(batch, range(start, stop)))

    def counts(self, i: list[int], sets: list[int]) -> np.ndarray:
        """X_{i[r]} after the set sets[r] as an int64 (set x member) matrix,
        one row per set."""
        self._check(i, sets)
        return self._counts(i, sets)

    def _counts(self, i: list[int], sets: list[int]) -> np.ndarray:
        rows = self._rows(sets)
        groups = self._groups[rows]
        gid = self._ids[rows] + (np.cumsum(groups) - groups)[:, None]
        card = max((self._cards[c] for c in set(i)), default=1)
        pairs = np.bincount((gid * card + self._codes[i]).ravel(),
                            minlength=int(groups.sum()) * card)
        return np.count_nonzero(pairs.reshape(-1, card), axis=1)[gid]

    def law_histograms(self, i: list[int], sets: list[int], columns) -> np.ndarray:
        """H[law, c, member, x]: the total weight, in the law's column of
        one weight per set, of the sets r with i[r] = c and X_c = x; an
        exact int64 (law x component x member x widest card + 1) array,
        every column from one pass over the option counts."""
        self._check(i, sets)
        width = max(self._cards, default=0) + 1
        for column in columns:
            total = sum(column)
            if total * max(self._widest, width) > INT64_MAX:
                raise FamilyError(f"weight total {total} overflows int64 option-count sums")
        hist = np.zeros((len(columns), self.n * self.size * width), np.int64)
        cells = np.arange(self.size) * width
        weights = np.array(columns, np.int64).reshape(len(columns), len(sets), 1)
        step = max(1, _CHUNK_CELLS // max(self.size, 1))
        for lo in range(0, len(sets), step):
            comps, chunk = i[lo:lo + step], sets[lo:lo + step]
            block = np.array(comps, np.int64)[:, None] * (self.size * width)
            index = self._counts(comps, chunk) + block + cells
            for law_hist, law_weights in zip(hist, weights[:, lo:lo + step]):
                used = law_weights[:, 0] != 0
                if used.all():
                    np.add.at(law_hist, index, law_weights)
                elif used.any():  # a sparse law (one order, sampled orders) adds only its own sets
                    np.add.at(law_hist, index[used], law_weights[used])
        return hist.reshape(len(columns), self.n, self.size, width)


def _value_codes(family: TupleFamily) -> np.ndarray:
    """Component i's value codes 0..card_i-1 over the members, one int64
    row per component."""
    index = [{v: k for k, v in enumerate(comp)} for comp in family.components]
    return np.array([[index[i][m[i]] for m in family.members] for i in range(family.n)],
                    dtype=np.int64).reshape(family.n, len(family.members))


def _refine(ids: np.ndarray, groups: np.ndarray, codes: np.ndarray,
            card: int) -> tuple[np.ndarray, np.ndarray]:
    """Split each row's groups by one more component's codes: dense new ids
    per row and the new group counts, for all rows in one step."""
    offsets = (np.cumsum(groups) - groups) * card
    keys = ids * card + codes + offsets[:, None]
    present = np.zeros(int(groups.sum()) * card, bool)
    present[keys] = True
    before = np.zeros(len(present) + 1, np.int64)  # present keys below each key
    np.cumsum(present, out=before[1:])
    first = before[offsets]
    return before[keys] - first[:, None], before[offsets + groups * card] - first


def _mix_log(hist: list[int], total: int) -> float:
    """sum of w / total * log c over one histogram row (column c = count);
    each w / total is an integer ratio, so it rounds once."""
    return math.fsum(w / total * math.log(c) for c, w in enumerate(hist) if w)


@dataclass(frozen=True)
class BoundMode:
    """How to aggregate the option counts: one of five modes.

    ``BoundMode("fixed_order", orders=order)``: the expected log over
    members under one reveal order, a tuple of component indices that
    reveal_bound checks is a permutation of them.
    ``BoundMode(variant)``, exact over uniform orders (n <= 8), with
    variant 'averaged' (expected log over members and orders),
    'worst_member' (per component, worst member's expected log) or
    'mean_product' (per component, worst member's expected count; product
    bound).
    ``BoundMode("averaged", samples=k)``: 'averaged' over k Monte Carlo
    uniform orders, with a standard error.
    """

    variant: str
    orders: object = "uniform"
    samples: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise FamilyError(f"unknown variant {self.variant!r}")
        if type(self.samples) is not int:
            raise FamilyError(f"samples must be an int, got {self.samples!r}")
        if self.samples < 0:
            raise FamilyError(f"samples must be >= 0, got {self.samples}")
        if self.variant == "fixed_order":
            if type(self.orders) is not tuple or any(type(j) is not int for j in self.orders):
                raise FamilyError("fixed_order requires a single order, a tuple of ints")
        elif self.orders != "uniform":
            raise FamilyError(f"{self.variant} takes uniform orders only")
        if self.samples and self.variant != "averaged":
            raise FamilyError("Monte Carlo sampling applies to averaged uniform orders only")


@dataclass
class BoundResult:
    """Log-domain bound on |S| with per-component statistics."""

    variant: str
    value: float
    per_component: tuple
    exact: bool
    log_mix: dict[int, Fraction] | None = None  # exact weights of log arguments
    product: Fraction | None = None             # exact product, mean_product only
    stderr: float | None = None


def _revealed_before(order: tuple[int, ...], i: int) -> int:
    """Bitmask of the components that ``order`` reveals before i."""
    T = 0
    for j in order[: order.index(i)]:
        T |= 1 << j
    return T


def _uniform_prefixes(n: int, i: int) -> tuple[list[int], list[int]]:
    """The sets T a uniform order can reveal before i, each with n! times
    its probability as weight.  X_i depends only on the *set* revealed
    before i, whose law weights a prefix set T by |T|! (n-1-|T|)! / n!."""
    by_size = [factorial(size) * factorial(n - 1 - size) for size in range(n)]
    sets = [T for T in range(1 << n) if not T >> i & 1]
    return sets, [by_size[T.bit_count()] for T in sets]


def _request(n: int, mode: BoundMode, seed: int) -> tuple[list[int], list[int], list[int], int]:
    """The reveal law of ``mode`` as one histogram request: (components,
    revealed sets, weights, total), each component's weights summing to
    total.  A single order gives each component its one set, of weight 1;
    uniform orders give every prefix set its n! probability; Monte Carlo
    gives every sampled (component, set) pair its tally out of the sample
    count."""
    if mode.samples:
        return *_reveal_tallies(n, mode.samples, seed), mode.samples
    if mode.orders != "uniform":
        return list(range(n)), [_revealed_before(mode.orders, i) for i in range(n)], [1] * n, 1
    comps, sets, weights = [], [], []
    for i in range(n):
        i_sets, i_weights = _uniform_prefixes(n, i)
        comps += [i] * len(i_sets)
        sets += i_sets
        weights += i_weights
    return comps, sets, weights, factorial(n)


def _reduce(variant: str, hists: np.ndarray, total: int):
    """Every component's statistic from its (member x X_i) histogram
    matrix, each row out of ``total``, for a (component x member x X)
    array: (statistics, the (component x X) histogram rows they come
    from, those rows' total).

    averaged / fixed_order: mean log of the pooled histogram (the column
    sums); worst_member: the largest member mean log; mean_product: the
    largest member mean count, a Fraction.  Ties go to the later member.
    """
    picks = np.arange(len(hists))
    if variant in ("fixed_order", "averaged"):
        pooled = hists.sum(axis=1)
        pooled_total = total * hists.shape[1]
        return [_mix_log(row, pooled_total) for row in pooled.tolist()], pooled, pooled_total
    if variant == "worst_member":
        # a float screen keeps the members within 1e-12 of the largest mean
        # log (it errs by a few ulps); math.fsum decides among them exactly
        logs = np.array([0.0] + [math.log(c) for c in range(1, hists.shape[2])])
        approx = hists @ logs
        near = approx >= approx.max(axis=1, initial=0.0)[:, None] * (1 - 1e-12)
        best = [max((_mix_log(rows[mi].tolist(), total), mi) for mi in np.flatnonzero(keep))
                for rows, keep in zip(hists, near)]
        return [stat for stat, _ in best], hists[picks, [mi for _, mi in best]], total
    means = hists @ np.arange(hists.shape[2])
    best = hists.shape[1] - 1 - np.argmax(means[:, ::-1], axis=1)
    return ([Fraction(m, total) for m in means[picks, best].tolist()],
            hists[picks, best], total)


def _log_value(variant: str, per_component) -> float:
    if variant == "mean_product":
        return math.fsum(math.log(x) for x in per_component)
    return math.fsum(per_component)


def _aggregate(variant: str, hists: np.ndarray, total: int, samples: int = 0) -> BoundResult:
    """The bound from one law's (component x member x X) histogram array,
    each component's rows out of ``total``: exact, or the averaged bound
    over ``samples`` Monte Carlo orders with its standard error.  An exact
    bound's log_mix sums its rows per count as integers, one Fraction per
    count."""
    per_component, rows, row_total = _reduce(variant, hists, total)
    value = _log_value(variant, per_component)
    if samples:  # standard error of the mean log over the sampled orders
        errs = []
        for stat, row in zip(per_component, rows.tolist()):
            second = math.fsum(w / row_total * math.log(c) ** 2 for c, w in enumerate(row) if w)
            errs.append(math.sqrt(max(second - stat * stat, 0.0) / samples))
        stderr = math.sqrt(math.fsum(e * e for e in errs))
        return BoundResult(variant, value, tuple(per_component), False, stderr=stderr)
    if variant == "mean_product":
        return BoundResult(variant, value, tuple(per_component), True,
                           product=math.prod(per_component, start=Fraction(1)))
    mix = [sum(ws) for ws in zip(*rows.tolist())]  # Python ints: no int64 overflow
    return BoundResult(variant, value, tuple(per_component), True,
                       log_mix={c: Fraction(w, row_total) for c, w in enumerate(mix) if w})


def _check_mode(n: int, mode: BoundMode) -> None:
    if mode.orders != "uniform" and sorted(mode.orders) != list(range(n)):
        raise FamilyError(f"reveal order {mode.orders!r} is not a permutation of range({n})")
    if mode.orders == "uniform" and not mode.samples and n > EXACT_COMPONENT_LIMIT:
        raise FamilyError(
            f"exact uniform-order expectation supports up to {EXACT_COMPONENT_LIMIT}"
            " components; set samples for Monte Carlo")


def reveal_bounds(families, modes, seed: int = 0) -> list[tuple[BoundResult, ...]]:
    """Bound log |S| of every family, all of one arity, under every mode:
    one tuple of results per family, in the order of ``modes``, each equal
    to ``reveal_bound(family, mode, seed)``.

    Modes that share a reveal law (the exact uniform variants) share one
    weight column; the laws' (component, set) pairs are merged into one
    request, asked once of one table that stacks the families (for n <=
    EXACT_COMPONENT_LIMIT the uniform law's pairs hold every fixed-order
    and sampled pair), and the Monte Carlo orders are drawn once per call.
    Each family's bounds are reduced from its own members' slice of the
    histograms."""
    families = tuple(families)
    if not families:
        raise FamilyError("no families to bound")
    if any(not fam.members for fam in families):
        raise FamilyError("family is empty")
    n = families[0].n  # the table refuses a stack of mixed arity
    for mode in modes:
        _check_mode(n, mode)
    laws: dict[tuple, int] = {}  # (orders, samples) -> weight column
    requests = []
    for mode in modes:
        if (mode.orders, mode.samples) not in laws:
            laws[mode.orders, mode.samples] = len(requests)
            requests.append(_request(n, mode, seed))
    pairs: dict[tuple[int, int], int] = {}  # (component, set) -> request row
    for comps, sets, _, _ in requests:
        for pair in zip(comps, sets):
            pairs.setdefault(pair, len(pairs))
    columns = [[0] * len(pairs) for _ in requests]
    for column, (comps, sets, weights, _) in zip(columns, requests):
        for pair, w in zip(zip(comps, sets), weights):
            column[pairs[pair]] = w
    table = OptionCountTable(families)
    hists = table.law_histograms([i for i, _ in pairs], [T for _, T in pairs], columns)
    out = []
    for lo, hi in zip(table.bounds, table.bounds[1:]):
        results = []
        for mode in modes:
            law = laws[mode.orders, mode.samples]
            results.append(_aggregate(mode.variant, hists[law, :, lo:hi], requests[law][3],
                                      mode.samples))
        out.append(tuple(results))
    return out


def reveal_bound(family: TupleFamily, mode: BoundMode, seed: int = 0) -> BoundResult:
    """Bound log |S| per the chosen mode: seeded Monte Carlo over uniform
    reveal orders, with a reported standard error, when ``mode.samples`` is
    set, else exact.  Exact uniform orders take at most EXACT_COMPONENT_LIMIT
    components, Monte Carlo MC_COMPONENT_LIMIT; past them FamilyError is
    raised.  The one-family, one-mode view of ``reveal_bounds``."""
    [(result,)] = reveal_bounds((family,), (mode,), seed)
    return result


def reveal_bounds_exact(family: TupleFamily) -> dict[str, BoundResult]:
    """All exact uniform-order variants at once, sharing one request."""
    variants = ("averaged", "worst_member", "mean_product")
    [results] = reveal_bounds((family,), [BoundMode(v) for v in variants])
    return dict(zip(variants, results))


def _reveal_tallies(n: int, samples: int, seed: int) -> tuple[list[int], list[int], list[int]]:
    """The sampled reveal orders as three lists (components, revealed sets,
    counts), one entry per distinct pair (i, T): how many orders reveal
    exactly the set T before component i.

    Order s reads n u64 keys from its lane, in the rounds of
    ``rng.lane_rounds``, and reveals the components in ascending key order,
    ties to the lower index (a stable argsort).  The set revealed before
    each component is the cumulative OR along the order.  Each pair is the
    int64 code T << k | i, k the bit length of n - 1, which n + k <= 63
    bits hold up to MC_COMPONENT_LIMIT components; one ``np.unique`` per
    round counts the distinct codes, and one more sums the rounds when
    there are several.  Past that limit FamilyError is raised before any
    key is drawn."""
    if n > MC_COMPONENT_LIMIT:
        raise FamilyError(
            f"Monte Carlo reveal orders support up to {MC_COMPONENT_LIMIT} components")
    k = (n - 1).bit_length()
    lanes, rounds = lane_rounds(seed, samples, keys=max(n, 1))
    found, counts = [], []
    for m in rounds:
        order = np.argsort(lanes.next_block(n, m), axis=0, kind="stable")
        bits = np.left_shift(1, order + k)  # each component's bit in the codes
        distinct, count = np.unique((np.cumsum(bits, axis=0) - bits) | order, return_counts=True)
        found.append(distinct)
        counts.append(count)
    if len(rounds) > 1:  # one code's counts summed over the rounds
        distinct, pair = np.unique(np.concatenate(found), return_inverse=True)
        count = np.zeros(len(distinct), np.int64)
        np.add.at(count, pair, np.concatenate(counts))
    mask = (1 << k) - 1
    return (distinct & mask).tolist(), (distinct >> k).tolist(), count.tolist()


def bound_holds(result: BoundResult, family: TupleFamily) -> bool:
    """log |S| <= bound: exact modes by float when the margin is at least
    BOUND_TOL, else at high precision; Monte Carlo modes within SE_RULE
    standard errors."""
    target = math.log(len(family.members))
    if not result.exact:
        return result.value >= target - SE_RULE * result.stderr
    if result.value - target >= BOUND_TOL:
        return True
    if result.product is not None:  # product bound compares exactly as rationals
        return result.product >= len(family.members)
    import mpmath as mp

    with mp.workdps(60):
        hp = mp.fsum(mp.mpf(p.numerator) / p.denominator * mp.log(c)
                     for c, p in sorted(result.log_mix.items()))
        return hp >= mp.log(len(family.members)) - mp.mpf("1e-30")


def diagonal_pair_family(limit: int) -> TupleFamily:
    """Three-component family over {0..limit}^3 whose members have two
    equal positive coordinates and one zero: 3*limit members."""
    if limit < 1:
        raise FamilyError("limit must be >= 1")
    members = []
    for i in range(1, limit + 1):
        members.append((i, i, 0))
    for i in range(1, limit + 1):
        members.append((i, 0, i))
    for i in range(1, limit + 1):
        members.append((0, i, i))
    comp = tuple(range(limit + 1))
    return TupleFamily((comp, comp, comp), tuple(members))


@dataclass(frozen=True)
class BipartiteGraph:
    left_size: int
    right_size: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.left_size and 0 <= v < self.right_size):
                raise FamilyError(f"edge ({u},{v}) out of range")

    def right_degrees(self) -> list[int]:
        deg = [0] * self.right_size
        for _, v in self.edges:
            deg[v] += 1
        return deg


def random_bipartite_graph(left: int, right: int, edge_prob_u64: int,
                           rng: Xoshiro256StarStar) -> BipartiteGraph:
    edges = {(u, v) for u in range(left) for v in range(right)
             if rng.bernoulli(edge_prob_u64)}
    return BipartiteGraph(left, right, frozenset(edges))


def perfect_matchings(graph: BipartiteGraph) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings as tuples of edges indexed by right vertex."""
    if graph.left_size != graph.right_size:
        raise FamilyError("perfect matchings need equal side sizes")
    nbrs = [sorted(u for u, v in graph.edges if v == r) for r in range(graph.right_size)]
    out: list[tuple[tuple[int, int], ...]] = []
    _extend_matching(0, 0, [], out, nbrs)
    return out


def _extend_matching(r: int, used: int, pick: list[tuple[int, int]],
                     out: list, nbrs: list[list[int]]) -> None:
    """Match right vertex r to each unused left neighbour, recursing to
    r + 1; complete matchings go to `out`."""
    if r == len(nbrs):
        out.append(tuple(pick))
        return
    for u in nbrs[r]:
        if not used >> u & 1:
            pick.append((u, r))
            _extend_matching(r + 1, used | (1 << u), pick, out, nbrs)
            pick.pop()


def count_perfect_matchings(graph: BipartiteGraph) -> int:
    return len(perfect_matchings(graph))


def perfect_matching_family(graph: BipartiteGraph) -> TupleFamily:
    """Components are the edge sets at each right vertex; members are the
    perfect matchings."""
    pms = perfect_matchings(graph)
    if not pms:
        raise FamilyError("graph has no perfect matching")
    comps = tuple(tuple(sorted((u, r) for u, v in graph.edges if v == r))
                  for r in range(graph.right_size))
    return TupleFamily(comps, tuple(pms))


def bregman_bound(graph: BipartiteGraph) -> tuple[int, int]:
    """Bregman's bound prod_i (d_i!)^(1/d_i) over the positive right
    degrees, as integers (L, P) with bound^L = P: L the lcm of those
    degrees and P = prod_i (d_i!)^(L/d_i).  Isolated vertices contribute
    nothing (they force zero matchings anyway)."""
    degrees = [d for d in graph.right_degrees() if d > 0]
    L = math.lcm(*degrees)
    return L, math.prod(factorial(d) ** (L // d) for d in degrees)


def downset_top_family(grid: TangledGrid) -> TupleFamily:
    """Encode every downset of the grid by its top element per chain.

    Components are the 2n chains, each padded below with a sentinel (-1)
    so that an untouched chain still has a well-defined top; a downset's
    code is the tuple of per-chain tops, which determines it uniquely.
    """
    chains = list(grid.m_chains) + list(grid.w_chains)
    comps = tuple((-1,) + tuple(ch) for ch in chains)
    members = []
    for mask in enumerate_downset_masks(grid.poset):
        code = []
        for ch in chains:
            top = -1
            for e in ch:
                if mask >> e & 1:
                    top = e
            code.append(top)
        members.append(tuple(code))
    if len(set(members)) != len(members):
        raise FamilyError("downset codes collide; grid structure broken")
    return TupleFamily(comps, tuple(members))
