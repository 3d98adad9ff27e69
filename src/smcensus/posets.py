"""Finite posets, exact downset counting/enumeration, tangled grids.

Posets are stored by their cover relation over elements 0..size-1 and
manipulated internally as bitmasks.  Downsets are counted by a transfer
over one linear extension whose state is the part of the downset on the
frontier (processed elements with an unprocessed upper cover), capped at
`STATE_CAP` live states.  A tangled grid is a poset with two
chain decompositions (m-chains and w-chains) such that every m-chain
meets every w-chain in exactly one element; the embedding below turns
any rotation poset into one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .rotations import RotationPoset

STATE_CAP = 2 * 10 ** 6  # live transfer states; the cost of a count, unlike poset size
BRUTE_FORCE_SIZE = 20    # the subset filter holds 2^size 64-bit masks at once


class PosetError(ValueError):
    pass


@dataclass(frozen=True)
class FinitePoset:
    """Poset given by cover pairs (lower, upper); no transitive or repeated
    covers allowed.

    `below[e]` is the bitmask of elements strictly below e, computed once.
    """

    size: int
    covers: tuple[tuple[int, int], ...]
    below: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for lo, hi in self.covers:
            if not (0 <= lo < self.size and 0 <= hi < self.size) or lo == hi:
                raise PosetError(f"bad cover pair ({lo}, {hi})")
            if (lo, hi) in seen:
                raise PosetError(f"repeated cover pair ({lo}, {hi})")
            seen.add((lo, hi))
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


def count_downsets(poset: FinitePoset, cap: int = STATE_CAP) -> int:
    """Exact number of downsets (order ideals), by a transfer count over one
    linear extension.

    Elements are taken in Kahn's order, smallest ready index first.  The
    state is the set of frontier elements (processed, with an unprocessed
    upper cover) that lie in the downset; element e may join a state only
    if all its lower covers are in it.  After each step the states are
    restricted to the new frontier and merged with integer counts.  Raises
    PosetError once a step leaves more than `cap` live states.
    """
    size = poset.size
    lower = [0] * size      # lower covers as a bitmask
    uppers = [0] * size     # unprocessed upper covers of each element
    up_adj: list[list[int]] = [[] for _ in range(size)]
    for lo, hi in poset.covers:
        lower[hi] |= 1 << lo
        uppers[lo] += 1
        up_adj[lo].append(hi)
    waiting = [m.bit_count() for m in lower]  # unprocessed lower covers
    ready = [e for e in range(size) if not waiting[e]]  # sorted, so a heap
    states = {0: 1}
    while ready:
        e = heappop(ready)
        for f in up_adj[e]:
            waiting[f] -= 1
            if not waiting[f]:
                heappush(ready, f)
        need = lower[e]
        drop = 0 if uppers[e] else 1 << e  # frontier elements that leave
        for f in _bits(need):
            uppers[f] -= 1
            if not uppers[f]:
                drop |= 1 << f
        keep = ~drop
        put = (1 << e) & keep
        nxt: dict[int, int] = {}
        for s, c in states.items():
            t = s & keep
            nxt[t] = nxt.get(t, 0) + c
            if s & need == need:
                t |= put
                nxt[t] = nxt.get(t, 0) + c
        if len(nxt) > cap:
            raise PosetError(f"downset count needs more than {cap} states")
        states = nxt
    return sum(states.values())


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
    depth = len(order)
    stack = [(0, 0)]  # (next index into order, downset so far)
    while stack:
        idx, cur = stack.pop()
        if idx == depth:
            yield cur
            continue
        e = order[idx]
        if below[e] & ~cur == 0:
            stack.append((idx + 1, cur | (1 << e)))
        stack.append((idx + 1, cur))


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
