"""Finite posets, exact downset counting/enumeration, tangled grids.

Posets are stored by their cover relation over elements 0..size-1 and
manipulated internally as bitmasks.  A tangled grid is a poset with two
chain decompositions (m-chains and w-chains) such that every m-chain
meets every w-chain in exactly one element; the embedding below turns
any rotation poset into one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from .rotations import RotationPoset

MEMO_CAP = 2 * 10 ** 6  # memo entries; the cost of a count, unlike poset size


class PosetError(ValueError):
    pass


@dataclass(frozen=True)
class FinitePoset:
    """Poset given by cover pairs (lower, upper); no transitive covers allowed.

    `below[e]` is the bitmask of elements strictly below e, computed once.
    """

    size: int
    covers: tuple[tuple[int, int], ...]
    below: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for lo, hi in self.covers:
            if not (0 <= lo < self.size and 0 <= hi < self.size) or lo == hi:
                raise PosetError(f"bad cover pair ({lo}, {hi})")
        below = _kahn_below(self.size, self.covers)  # raises on cycles
        lower = lower_cover_masks(below)
        for lo, hi in self.covers:
            if not lower[hi] >> lo & 1:
                mid = next(m for m in _bits(below[hi]) if below[m] >> lo & 1)
                raise PosetError(f"transitive cover ({lo}, {hi}) via {mid}")
        object.__setattr__(self, "below", tuple(below))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kahn_below(size: int, covers) -> list[int]:
    """Strict-below masks from cover pairs in Kahn order; raises PosetError
    on a cycle."""
    indeg = [0] * size
    up_adj = [[] for _ in range(size)]
    for lo, hi in covers:
        up_adj[lo].append(hi)
        indeg[hi] += 1
    order = [e for e in range(size) if indeg[e] == 0]
    below = [0] * size
    seen = 0
    i = 0
    while i < len(order):
        e = order[i]
        i += 1
        seen += 1
        for f in up_adj[e]:
            below[f] |= below[e] | (1 << e)
            indeg[f] -= 1
            if indeg[f] == 0:
                order.append(f)
    if seen != size:
        raise PosetError("cover relation contains a cycle")
    return below


def strict_below_masks(poset: FinitePoset) -> list[int]:
    """below[e] = bitmask of elements strictly below e."""
    return list(poset.below)


def strict_above_masks(poset: FinitePoset) -> list[int]:
    below = poset.below
    above = [0] * poset.size
    for e in range(poset.size):
        for f in _bits(below[e]):
            above[f] |= 1 << e
    return above


def lower_cover_masks(below: list[int]) -> list[int]:
    """Transitive reduction of transitively closed strict-below masks:
    f < e is a cover iff f lies below no g < e."""
    out = []
    for b in below:
        through = 0
        for g in _bits(b):
            through |= below[g]
        out.append(b & ~through)
    return out


def poset_from_below(size: int, below: list[int]) -> FinitePoset:
    """Build a FinitePoset by transitive reduction of strict-below masks."""
    covers = [(f, e) for e, c in enumerate(lower_cover_masks(below)) for f in _bits(c)]
    return FinitePoset(size, tuple(sorted(covers)))


def leq_matrix(poset: FinitePoset) -> list[int]:
    """reflexive leq as bitmasks: row e = {f : f <= e}."""
    return [b | (1 << e) for e, b in enumerate(poset.below)]


def count_downsets(poset: FinitePoset, cap: int = MEMO_CAP) -> int:
    """Exact number of downsets (order ideals), memoized divide and conquer.

    Splits on whether a pivot element is in the ideal:
    ideals(P) = ideals(P - upset(x)) + ideals(P - downset(x)).
    Raises PosetError once the memo would exceed `cap` entries.
    """
    below = poset.below
    above = strict_above_masks(poset)
    full = (1 << poset.size) - 1
    memo: dict[int, int] = {}
    comp = [below[e] | above[e] for e in range(poset.size)]
    drop_up = [above[e] | (1 << e) for e in range(poset.size)]    # x and all above
    drop_down = [below[e] | (1 << e) for e in range(poset.size)]  # x and all below

    def count(mask: int) -> int:
        if mask == 0:
            return 1
        got = memo.get(mask)
        if got is not None:
            return got
        if mask & (mask - 1) == 0:
            res = 2
        else:
            # pivot: the first element with the most comparabilities inside
            # mask; one comparable to all the rest cannot be beaten
            most = mask.bit_count() - 1
            best, best_c = -1, -1
            rest = mask
            while rest:
                low = rest & -rest
                e = low.bit_length() - 1
                c = (comp[e] & mask).bit_count()
                if c > best_c:
                    best, best_c = e, c
                    if c == most:
                        break
                rest ^= low
            res = count(mask & ~drop_up[best]) + count(mask & ~drop_down[best])
        if len(memo) >= cap:
            raise PosetError(f"downset count needs more than {cap} memo entries")
        memo[mask] = res
        return res

    return count(full)


def count_downsets_bruteforce(poset: FinitePoset) -> int:
    """2^size subset filter; oracle for count_downsets at size <= ~16."""
    below = poset.below
    total = 0
    for mask in range(1 << poset.size):
        if all(below[e] & ~mask == 0 for e in _bits(mask)):
            total += 1
    return total


def topological_order(poset: FinitePoset) -> list[int]:
    below = poset.below
    return sorted(range(poset.size), key=lambda e: (below[e].bit_count(), e))


def enumerate_downset_masks(poset: FinitePoset) -> Iterator[int]:
    """Stream all downsets as bitmasks, in a canonical order.

    Elements are visited in a fixed topological order; at each element the
    excluded branch comes first, so the stream is deterministic and starts
    with the empty set and ends with the full set.
    """
    order = topological_order(poset)
    below = poset.below

    def rec(idx: int, cur: int) -> Iterator[int]:
        if idx == len(order):
            yield cur
            return
        e = order[idx]
        yield from rec(idx + 1, cur)
        if below[e] & ~cur == 0:
            yield from rec(idx + 1, cur | (1 << e))

    return rec(0, 0)


def enumerate_downsets(poset: FinitePoset) -> Iterator[frozenset[int]]:
    for mask in enumerate_downset_masks(poset):
        yield frozenset(_bits(mask))


@dataclass(frozen=True)
class TangledGrid:
    """Poset with two n-chain decompositions where every pair of opposite
    chains intersects exactly once; chains are listed bottom-to-top."""

    poset: FinitePoset
    m_chains: tuple[tuple[int, ...], ...]
    w_chains: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.m_chains)


def validate_tangled_grid(grid: TangledGrid) -> None:
    """Raise PosetError unless every tangled grid invariant holds."""
    n = grid.n
    size = grid.poset.size
    if len(grid.w_chains) != n:
        raise PosetError("m-chain and w-chain counts differ")
    if size != n * n:
        raise PosetError(f"grid must have n^2={n * n} elements, has {size}")
    leq = leq_matrix(grid.poset)
    for name, chains in (("m", grid.m_chains), ("w", grid.w_chains)):
        seen: set[int] = set()
        for ch in chains:
            if len(ch) != n:
                raise PosetError(f"{name}-chain of length {len(ch)}, expected {n}")
            for a, b in zip(ch, ch[1:]):
                if not leq[b] >> a & 1:
                    raise PosetError(f"{name}-chain not ordered bottom-to-top at ({a},{b})")
            if seen & set(ch):
                raise PosetError(f"{name}-chains overlap")
            seen |= set(ch)
        if seen != set(range(size)):
            raise PosetError(f"{name}-chains do not partition the elements")
    for mi, mch in enumerate(grid.m_chains):
        mset = set(mch)
        for wi, wch in enumerate(grid.w_chains):
            hits = mset & set(wch)
            if len(hits) != 1:
                raise PosetError(f"chains m{mi} and w{wi} intersect {len(hits)} times")


def grid_diamond(n: int) -> TangledGrid:
    """The untangled n x n grid under the product order; rows are m-chains,
    columns are w-chains.  Its downset count is binom(2n, n)."""
    if n < 1:
        raise PosetError("n must be >= 1")
    covers = []
    for r in range(n):
        for c in range(n):
            e = r * n + c
            if r + 1 < n:
                covers.append((e, e + n))
            if c + 1 < n:
                covers.append((e, e + 1))
    poset = FinitePoset(n * n, tuple(sorted(covers)))
    m_chains = tuple(tuple(r * n + c for c in range(n)) for r in range(n))
    w_chains = tuple(tuple(r * n + c for r in range(n)) for c in range(n))
    return TangledGrid(poset, m_chains, w_chains)


def embed_in_tangled_grid(rposet: "RotationPoset") -> TangledGrid:
    """Embed a rotation poset into an n x n tangled grid.

    Each rotation keeps only the m-chain of its first-edge job and the
    w-chain of its first-edge applicant (edge uniqueness guarantees those
    two thinned chains meet only there).  Every chain pair that then fails
    to intersect receives one fresh element above all original elements;
    fresh elements carry the product order of their (m-chain, w-chain)
    coordinates so that every chain stays totally ordered.
    """
    n = rposet.n
    r = len(rposet.rotations)
    m_owner = [rot.edges[0][0] for rot in rposet.rotations]
    w_owner = [rot.edges[0][1] for rot in rposet.rotations]

    inter: dict[tuple[int, int], int] = {}
    for t in range(r):
        key = (m_owner[t], w_owner[t])
        if key in inter:
            raise PosetError("two rotations share a first edge; edge uniqueness violated")
        inter[key] = t

    m_elems = [[t for t in rposet.m_chains[u] if m_owner[t] == u] for u in range(n)]
    w_elems = [[t for t in rposet.w_chains[v] if w_owner[t] == v] for v in range(n)]

    pad_coord: list[tuple[int, int]] = []
    pad_id: dict[tuple[int, int], int] = {}
    for u in range(n):
        for v in range(n):
            if (u, v) not in inter:
                pad_id[(u, v)] = r + len(pad_coord)
                pad_coord.append((u, v))

    size = n * n
    assert r + len(pad_coord) == size
    all_orig = (1 << r) - 1
    below = list(rposet.below) + [0] * len(pad_coord)
    # pads_upto[u][v]: pads at coordinates <= (u, v) in the product order
    pads_upto = [[0] * (n + 1) for _ in range(n + 1)]  # row/column 0 are empty
    for u in range(n):
        for v in range(n):
            earlier = pads_upto[u][v + 1] | pads_upto[u + 1][v]
            e = pad_id.get((u, v))
            if e is not None:
                below[e] = all_orig | earlier
                earlier |= 1 << e
            pads_upto[u + 1][v + 1] = earlier

    poset = poset_from_below(size, below)
    m_chains = tuple(
        tuple(m_elems[u]) + tuple(pad_id[(u, v)] for v in range(n) if (u, v) in pad_id)
        for u in range(n)
    )
    w_chains = tuple(
        tuple(w_elems[v]) + tuple(pad_id[(u, v)] for u in range(n) if (u, v) in pad_id)
        for v in range(n)
    )
    grid = TangledGrid(poset, m_chains, w_chains)
    validate_tangled_grid(grid)
    return grid


def random_tangled_grid(n: int, seed: int) -> TangledGrid:
    """Grid embedded from the rotation poset of a random instance."""
    from .instances import random_instance
    from .rotations import build_rotation_poset

    profile = random_instance(n, seed)
    return embed_in_tangled_grid(build_rotation_poset(profile))


def grid_to_json(grid: TangledGrid) -> dict:
    return {
        "size": grid.poset.size,
        "covers": [list(c) for c in grid.poset.covers],
        "m_chains": [list(c) for c in grid.m_chains],
        "w_chains": [list(c) for c in grid.w_chains],
    }
