"""Upper bounds on tuple-family sizes by revealing components one by one.

A family S of n-tuples is bounded through the option counts X_i(s, pi):
the number of values component i can still take once the components
before it (under a reveal order pi) are pinned to those of s.  Averaging
log X_i over random members and/or random orders bounds log |S|; taking
the plain expectation instead of the log gives a weaker product bound.

X_i depends on the order only through the set T revealed before i, so
each family carries one option-count table (``TupleFamily.option_counts``)
with a row of X_i for every member per (i, T), filled lazily: exact
evaluation reads all rows, Monte Carlo only the sampled ones.
``option_count`` recomputes a single X_i from its definition and is the
oracle the table is tested against.

Every path reduces through one function, ``_reduce``: per component it
takes each member's integer histogram {X_i: weight} out of a common
total (1 for a single order, n! for uniform orders, the lcm of the
weights' denominators for explicit weighted orders, the sample count
for Monte Carlo) and returns the variant's statistic with the histogram
it comes from.  Exact bounds sum those histograms as Fractions; Monte
Carlo bounds take a standard error from them.

Adapters cover the worked three-component family, perfect matchings of a
bipartite graph (degree-factorial bound), and downsets of a tangled grid
encoded by their per-chain top elements.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial
from operator import itemgetter

from .posets import TangledGrid, enumerate_downset_masks
from .rng import Xoshiro256StarStar

EXACT_COMPONENT_LIMIT = 8

VARIANTS = ("fixed_order", "averaged", "worst_member", "mean_product")


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

    @cached_property
    def option_counts(self) -> OptionCountTable:
        """This family's option-count table; it lives as long as the family."""
        return OptionCountTable(self)


class OptionCountTable:
    """X_i(s, T) for every member s, one row per (i, T), filled lazily.

    T is the bitmask of components revealed before i: X_i depends on a
    reveal order only through that set.  A row counts, per group of
    members agreeing on T, the distinct values of component i.  The
    grouping for T is built once, from the grouping for T without its top
    bit, and is shared by every i outside T.
    """

    def __init__(self, family: TupleFamily):
        self.n = family.n
        self._columns = list(zip(*family.members)) or [()] * family.n
        self._groups: dict[int, list[int]] = {0: [0] * len(family.members)}
        self._rows: dict[tuple[int, int], tuple[int, ...]] = {}

    @property
    def rows_built(self) -> int:
        return len(self._rows)

    def _grouping(self, T: int) -> list[int]:
        """Group id per member; members share an id iff they agree on T."""
        groups = self._groups.get(T)
        if groups is None:
            top = T.bit_length() - 1
            ids: dict[tuple, int] = {}
            groups = [ids.setdefault(key, len(ids)) for key in
                      zip(self._grouping(T & ~(1 << top)), self._columns[top])]
            self._groups[T] = groups
        return groups

    def row(self, i: int, T: int) -> tuple[int, ...]:
        """X_i for every member, in member order, given the revealed set T."""
        row = self._rows.get((i, T))
        if row is None:
            if not 0 <= i < self.n or T >> i & 1 or T >> self.n:
                raise FamilyError(f"no row for component {i} after set {T:#b}")
            groups = self._grouping(T)
            options = Counter(map(itemgetter(0), set(zip(groups, self._columns[i]))))
            row = tuple(map(options.__getitem__, groups))
            self._rows[(i, T)] = row
        return row

    def histograms(self, i: int, weighted_sets) -> list[dict[int, int]]:
        """Per member, {X_i: total weight} over (T, weight) pairs; the
        weights of sets with equal rows are summed first."""
        merged: dict[tuple[int, ...], int] = {}
        for T, w in weighted_sets:
            row = self.row(i, T)
            merged[row] = merged.get(row, 0) + w
        hists: list[dict[int, int]] = [{} for _ in self._groups[0]]
        for row, w in merged.items():
            for hist, c in zip(hists, row):
                hist[c] = hist.get(c, 0) + w
        return hists


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


def _pooled(hists: list[dict[int, int]]) -> Counter:
    """The per-member histograms summed over members."""
    pooled: Counter = Counter()
    for hist in hists:
        pooled.update(hist)
    return pooled


def _mix_log(hist: dict[int, int], total: int) -> float:
    """sum of w / total * log c over the histogram; each w / total is an
    integer ratio, so it rounds once."""
    return math.fsum(w / total * math.log(c) for c, w in sorted(hist.items()))


@dataclass(frozen=True)
class BoundMode:
    """How to aggregate the option counts.

    variant: 'fixed_order' (expected log over members, one fixed order),
    'averaged' (expected log over members and orders), 'worst_member'
    (per component, worst member's expected log), 'mean_product'
    (per component, worst member's expected count; product bound).
    orders: 'uniform', a single order tuple, or a tuple of (order, weight)
    pairs with weights summing to 1.
    samples: 0 for exact evaluation (uniform orders need n <= 8),
    otherwise the Monte Carlo sample count.
    """

    variant: str
    orders: object = "uniform"
    samples: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise FamilyError(f"unknown variant {self.variant!r}")
        if self.samples < 0:
            raise FamilyError(f"samples must be >= 0, got {self.samples}")
        if self.orders != "uniform" and _single_order(self.orders) is None:
            total = sum(Fraction(w) for _, w in self.orders)
            if total != 1:
                raise FamilyError("order weights must sum to 1")


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


def _single_order(orders) -> tuple[int, ...] | None:
    if isinstance(orders, tuple) and orders and isinstance(orders[0], int):
        return orders
    return None


def _revealed_before(order: tuple[int, ...], i: int) -> int:
    """Bitmask of the components that ``order`` reveals before i."""
    T = 0
    for j in order[: order.index(i)]:
        T |= 1 << j
    return T


def _order_hists(family: TupleFamily, i: int, orders) -> tuple[list[dict[int, int]], int]:
    """Per member, the law of X_i over the orders as an integer histogram
    {X_i: weight}; every histogram sums to the returned total."""
    single = _single_order(orders)
    if single is not None:
        row = family.option_counts.row(i, _revealed_before(single, i))
        return [{c: 1} for c in row], 1
    n = family.n
    if orders == "uniform":
        # X_i depends only on the *set* revealed before i, whose law under
        # a uniform order weights a prefix set T by |T|! (n-1-|T|)! / n!
        weights = [factorial(size) * factorial(n - 1 - size) for size in range(n)]
        prefixes = [(T, weights[T.bit_count()]) for T in range(1 << n) if not T >> i & 1]
        return family.option_counts.histograms(i, prefixes), factorial(n)
    fracs = [Fraction(w) for _, w in orders]
    total = math.lcm(*(w.denominator for w in fracs))
    weighted = [(_revealed_before(order, i), w.numerator * (total // w.denominator))
                for (order, _), w in zip(orders, fracs)]
    return family.option_counts.histograms(i, weighted), total


def _reduce(variant: str, hists: list[dict[int, int]], total: int):
    """One component's statistic from its per-member histograms, each out
    of ``total``: (statistic, the histogram it comes from, that total).

    averaged / fixed_order: mean log of the members' pooled histogram;
    worst_member: the largest member mean log; mean_product: the largest
    member mean count, a Fraction.  Ties go to the later member.
    """
    if variant in ("fixed_order", "averaged"):
        pooled_total = total * len(hists)
        pooled = _pooled(hists)
        return _mix_log(pooled, pooled_total), pooled, pooled_total
    if variant == "worst_member":
        stats = [_mix_log(hist, total) for hist in hists]
    else:
        stats = [sum(w * c for c, w in hist.items()) for hist in hists]
    best = max(range(len(hists)), key=lambda mi: (stats[mi], mi))
    stat = stats[best] if variant == "worst_member" else Fraction(stats[best], total)
    return stat, hists[best], total


def _log_value(variant: str, per_component) -> float:
    if variant == "mean_product":
        return math.fsum(math.log(x) for x in per_component)
    return math.fsum(per_component)


def _aggregate(variant: str, comps) -> BoundResult:
    """Exact bound from each component's (histograms, total)."""
    per_component = []
    log_mix: dict[int, Fraction] = {}
    product = Fraction(1)
    for hists, total in comps:
        stat, hist, hist_total = _reduce(variant, hists, total)
        per_component.append(stat)
        if variant == "mean_product":
            product *= stat
        else:
            for c, w in hist.items():
                log_mix[c] = log_mix.get(c, 0) + Fraction(w, hist_total)
    value = _log_value(variant, per_component)
    if variant == "mean_product":
        return BoundResult(variant, value, tuple(per_component), True, product=product)
    return BoundResult(variant, value, tuple(per_component), True, log_mix=log_mix)


def reveal_bound(family: TupleFamily, mode: BoundMode, seed: int = 0) -> BoundResult:
    """Bound log |S| per the chosen mode; exact where feasible, else seeded
    Monte Carlo over reveal orders with a reported standard error."""
    if not family.members:
        raise FamilyError("family is empty")
    n = family.n
    if mode.variant == "fixed_order" and _single_order(mode.orders) is None:
        raise FamilyError("fixed_order requires a single order")
    exact_ok = (mode.orders != "uniform") or n <= EXACT_COMPONENT_LIMIT
    if mode.samples == 0 and not exact_ok:
        raise FamilyError(
            f"exact uniform-order expectation supports up to {EXACT_COMPONENT_LIMIT}"
            " components; set samples for Monte Carlo")
    if mode.samples > 0:
        if mode.orders != "uniform":
            raise FamilyError("Monte Carlo sampling applies to uniform orders only")
        return _reveal_bound_mc(family, mode, seed)
    return _aggregate(mode.variant, [_order_hists(family, i, mode.orders) for i in range(n)])


def reveal_bounds_exact(family: TupleFamily) -> dict[str, BoundResult]:
    """All exact uniform-order variants at once, sharing the per-component
    option-count histograms (they dominate the cost)."""
    if not family.members:
        raise FamilyError("family is empty")
    if family.n > EXACT_COMPONENT_LIMIT:
        raise FamilyError(f"needs at most {EXACT_COMPONENT_LIMIT} components")
    comps = [_order_hists(family, i, "uniform") for i in range(family.n)]
    return {variant: _aggregate(variant, comps)
            for variant in ("averaged", "worst_member", "mean_product")}


def _reveal_bound_mc(family: TupleFamily, mode: BoundMode, seed: int) -> BoundResult:
    n = family.n
    rng = Xoshiro256StarStar(seed)
    # tallies[i][T]: how many sampled orders reveal exactly the set T before i
    tallies: list[dict[int, int]] = [{} for _ in range(n)]
    for _ in range(mode.samples):
        T = 0
        for i in rng.permutation(n):
            tallies[i][T] = tallies[i].get(T, 0) + 1
            T |= 1 << i
    t = mode.samples
    per_component = []
    errs = []
    for i in range(n):
        hists = family.option_counts.histograms(i, tallies[i].items())
        stat, hist, total = _reduce(mode.variant, hists, t)
        # standard error of the statistic over t sampled orders
        mean = float(stat)
        if mode.variant == "mean_product":
            second = sum(w * c * c for c, w in hist.items()) / total
        else:
            second = math.fsum(w / total * math.log(c) ** 2 for c, w in hist.items())
        err = math.sqrt(max(second - mean * mean, 0.0) / t)
        per_component.append(stat)
        errs.append(err / mean if mode.variant == "mean_product" else err)  # delta method
    stderr = math.sqrt(math.fsum(e * e for e in errs))
    return BoundResult(mode.variant, _log_value(mode.variant, per_component),
                       tuple(per_component), False, stderr=stderr)


def bound_holds(result: BoundResult, family: TupleFamily, tol: float = 1e-9) -> bool:
    """log |S| <= bound: exact modes within tol (high-precision fallback for
    hairline margins), Monte Carlo modes within 4 standard errors."""
    target = math.log(len(family.members))
    if not result.exact:
        return result.value >= target - 4.0 * result.stderr
    if result.value - target >= tol:
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


def bregman_log_bound(graph: BipartiteGraph) -> float:
    """log of prod_i (d_i!)^(1/d_i) over right-vertex degrees; isolated
    vertices contribute nothing (they force zero matchings anyway)."""
    total = 0.0
    for d in graph.right_degrees():
        if d > 0:
            total += math.lgamma(d + 1) / d
    return total


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
