"""Finite posets, exact downset counting/enumeration, tangled grids.

Posets are stored by their cover relation over elements 0..size-1 and
manipulated internally as bitmasks.  Downsets are counted by a transfer
over one linear extension whose state is the part of the downset on the
frontier (processed elements with an unprocessed upper cover), capped at
`STATE_CAP` live states.  A cover list is checked at the cost of its
covers: a cover is transitive iff its lower end lies below another listed
lower cover of its upper end.  A tangled grid is a poset with two
chain decompositions (m-chains and w-chains) such that every m-chain
meets every w-chain in exactly one element, checked on one bitmask per
chain.  The embedding below turns any rotation poset into one, writing
the grid's covers directly from the rotation poset's covers and the pads'
coordinates; `poset_from_below`, the transitive reduction of strict-below
masks, is the oracle its covers are tested against, and tests/oracles.py
holds the count's, a 2^size subset filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from operator import or_
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from .rotations import RotationPoset

STATE_CAP = 2 * 10 ** 6  # live transfer states; the cost of a count, unlike poset size
DIAMOND_CAP = 60  # diamond side: its downset count takes ~1.5 s at 60, ~8 s at 80


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
        size = self.size
        lower = [0] * size  # listed lower covers of each element
        up_adj: list[list[int]] = [[] for _ in range(size)]
        for lo, hi in self.covers:
            if not (0 <= lo < size and 0 <= hi < size) or lo == hi:
                raise PosetError(f"bad cover pair ({lo}, {hi})")
            if lower[hi] >> lo & 1:
                raise PosetError(f"repeated cover pair ({lo}, {hi})")
            lower[hi] |= 1 << lo
            up_adj[lo].append(hi)
        below, through = _kahn_below(lower, up_adj)  # raises on cycles
        # (lo, hi) is transitive iff lo lies below another listed lower
        # cover of hi, since every g < hi lies at or below one of them
        if any(low & thr for low, thr in zip(lower, through)):
            lo, hi = next((lo, hi) for lo, hi in self.covers if through[hi] >> lo & 1)
            mid = next(m for m in _bits(below[hi]) if below[m] >> lo & 1)
            raise PosetError(f"transitive cover ({lo}, {hi}) via {mid}")
        object.__setattr__(self, "below", tuple(below))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _kahn_below(lower: list[int], up_adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Strict-below masks in Kahn order from the lower-cover masks and the
    upper-cover lists, and for each element the union of its lower covers'
    strict-below masks; raises PosetError on a cycle."""
    size = len(lower)
    waiting = [m.bit_count() for m in lower]  # unprocessed lower covers
    order = [e for e in range(size) if not waiting[e]]
    below = [0] * size
    through = [0] * size
    for e in order:  # grows while it is walked
        b = below[e]
        with_e = b | (1 << e)
        for f in up_adj[e]:
            below[f] |= with_e
            through[f] |= b
            waiting[f] -= 1
            if not waiting[f]:
                order.append(f)
    if len(order) != size:
        raise PosetError("cover relation contains a cycle")
    return below, through


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


def count_downsets(poset: FinitePoset) -> int:
    """Exact number of downsets (order ideals), by a transfer count over one
    linear extension.

    Elements are taken in Kahn's order, smallest ready index first.  The
    state is the set of frontier elements (processed, with an unprocessed
    upper cover) that lie in the downset; element e may join a state only
    if all its lower covers are in it.  After each step the states are
    restricted to the new frontier and merged with integer counts.  Raises
    PosetError once a step leaves more than `STATE_CAP` live states.
    """
    cap = STATE_CAP
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


def topological_order(poset: FinitePoset) -> list[int]:
    below = poset.below
    return sorted(range(poset.size), key=lambda e: (below[e].bit_count(), e))


def enumerate_downset_masks(poset: FinitePoset) -> Iterator[int]:
    """Stream all downsets as bitmasks, in a canonical order.

    Elements are visited in a fixed topological order; at each element the
    excluded branch comes first, so the stream is deterministic and starts
    with the empty set and ends with the full set.
    """
    for mask, _ in _downsets_with_tops(poset):
        yield mask


def _downsets_with_tops(poset: FinitePoset) -> Iterator[tuple[int, int]]:
    """`enumerate_downset_masks` as (mask, top) pairs, top the element the
    search included last (-1 for the empty set).  Later elements come later
    in a topological order, so top is maximal in the downset, and the
    downset without it was streamed earlier: it takes the excluded branch
    at top, which comes first, and excludes everything after."""
    order = topological_order(poset)
    below = poset.below
    depth = len(order)
    stack = [(0, 0, -1)]  # (next index into order, downset so far, its top)
    while stack:
        idx, cur, top = stack.pop()
        if idx == depth:
            yield cur, top
            continue
        e = order[idx]
        if below[e] & ~cur == 0:
            stack.append((idx + 1, cur | (1 << e), e))
        stack.append((idx + 1, cur, top))


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
    """Raise PosetError unless every tangled grid invariant holds.

    Each chain becomes one bitmask: chains of a side overlap iff their
    masks share a bit, partition the elements iff their masks OR to all of
    them, and an m-chain meets a w-chain once iff their AND has one bit.
    """
    n = grid.n
    size = grid.poset.size
    if len(grid.w_chains) != n:
        raise PosetError("m-chain and w-chain counts differ")
    if size != n * n:
        raise PosetError(f"grid must have n^2={n * n} elements, has {size}")
    below = grid.poset.below
    masks = []
    for name, chains in (("m", grid.m_chains), ("w", grid.w_chains)):
        seen = 0
        side = []
        for ch in chains:
            if len(ch) != n:
                raise PosetError(f"{name}-chain of length {len(ch)}, expected {n}")
            if ch and not (0 <= min(ch) and max(ch) < size):
                raise PosetError(f"{name}-chains do not partition the elements")
            for a, b in zip(ch, ch[1:]):
                if a != b and not below[b] >> a & 1:
                    raise PosetError(f"{name}-chain not ordered bottom-to-top at ({a},{b})")
            mask = reduce(or_, map((1).__lshift__, ch), 0)
            if seen & mask:
                raise PosetError(f"{name}-chains overlap")
            seen |= mask
            side.append(mask)
        if seen != (1 << size) - 1:
            raise PosetError(f"{name}-chains do not partition the elements")
        masks.append(side)
    m_masks, w_masks = masks
    for mi, m in enumerate(m_masks):
        hits = [(m & w).bit_count() for w in w_masks]
        if hits.count(1) != n:
            wi = next(wi for wi, k in enumerate(hits) if k != 1)
            raise PosetError(f"chains m{mi} and w{wi} intersect {hits[wi]} times")


def grid_diamond(n: int) -> TangledGrid:
    """The untangled n x n grid under the product order; rows are m-chains,
    columns are w-chains.  Its downset count is binom(2n, n).  The side
    n runs over 1..DIAMOND_CAP."""
    if n < 1:
        raise PosetError("n must be >= 1")
    if n > DIAMOND_CAP:
        raise PosetError(f"n={n} is above the diamond side cap {DIAMOND_CAP}")
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


def grid_key(rposet: "RotationPoset") -> tuple:
    """Everything `embed_in_tangled_grid` reads of a rotation poset: n, each
    rotation's first edge in id order and the covers.  The kept chains
    follow from the first edges and the top rotations from the covers, so
    posets with equal keys embed to equal grids."""
    return rposet.n, tuple(rot.edges[0] for rot in rposet.rotations), rposet.covers


def embed_in_tangled_grid(rposet: "RotationPoset") -> TangledGrid:
    """Embed a rotation poset into an n x n tangled grid.

    Each rotation keeps only the m-chain of its first-edge job and the
    w-chain of its first-edge applicant (edge uniqueness guarantees those
    two thinned chains meet only there).  Every chain pair that then fails
    to intersect receives one fresh element (a pad) above all original
    elements; pads carry the product order of their (m-chain, w-chain)
    coordinates so that every chain stays totally ordered.

    The grid's covers are written directly: the rotation poset's covers;
    under each pad, the maximal pads below it, or the maximal rotations
    when no pad is below it.  Pad ids run row-major over the coordinates,
    a linear extension of the product order, so the top bit of a mask of
    pads is a maximal pad of it.
    """
    n = rposet.n
    size = n * n
    firsts = [rot.edges[0] for rot in rposet.rotations]
    r = len(firsts)
    cell = [-1] * size  # element at coordinate (u, v), index u * n + v
    for t, (u, v) in enumerate(firsts):
        if cell[u * n + v] >= 0:
            raise PosetError("two rotations share a first edge; edge uniqueness violated")
        cell[u * n + v] = t

    covers = list(rposet.finite_poset.covers)
    tops = (1 << r) - 1  # rotations below no other rotation
    for below in rposet.below:
        tops &= ~below
    top_rotations = list(_bits(tops))
    upto = [0] * size  # pads at coordinates <= (u, v) in the product order
    pad_upto = []      # upto of each pad, by pad id - r
    e = r
    for k in range(size):
        under = (upto[k - n] if k >= n else 0) | (upto[k - 1] if k % n else 0)
        if cell[k] >= 0:
            upto[k] = under
            continue
        cell[k] = e
        upto[k] = under | 1 << e
        pad_upto.append(upto[k])
        if not under:
            covers += [(t, e) for t in top_rotations]
        while under:  # peel the maximal pads below e, top bit first
            q = under.bit_length() - 1
            covers.append((q, e))
            under &= ~pad_upto[q - r]
        e += 1

    poset = FinitePoset(size, tuple(sorted(covers)))
    m_chains = tuple(
        tuple([t for t in rposet.m_chains[u] if firsts[t][0] == u]
              + [p for p in cell[u * n:u * n + n] if p >= r])
        for u in range(n))
    w_chains = tuple(
        tuple([t for t in rposet.w_chains[v] if firsts[t][1] == v]
              + [p for p in cell[v::n] if p >= r])
        for v in range(n))
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
