"""Deferred acceptance, stability checking, and brute-force enumeration.

A matching is a tuple mapping job index -> applicant index.  There is one
stability check, `stable_rows`, over a batch of matchings: a small batch
is scanned row by row for blocking pairs, a large one is tested as one
boolean array expression in bounded chunks; the row scan is the array
kernel's oracle, and `is_stable` is the one-row case.  The brute-force
enumerator, a pruned exhaustive search, is the ground-truth oracle for
everything the rotation machinery produces; it is capped at n <= 9.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice
from typing import NoReturn

import numpy as np

from .instances import PreferenceProfile

Matching = tuple[int, ...]

BRUTE_FORCE_CAP = 9

# Batches of at most this many cells (rows * n^2) are scanned row by row:
# there the array kernel's fixed cost, some 15-30 us a call, loses to the
# scan's few microseconds a row.  Timed on stable matchings, the two break
# even between about 300 and 1600 cells.
ARRAY_MIN_CELLS = 1024
# The array kernel tests at most this many cells at a time.
CHUNK_CELLS = 1 << 20


def validate_matching(matching: Matching, n: int) -> None:
    if sorted(matching) != list(range(n)):
        raise ValueError(f"matching {matching} is not a bijection on 0..{n - 1}")


def gale_shapley(profile: PreferenceProfile, proposing_side: str = "jobs") -> Matching:
    """Deferred acceptance; proposing_side in {'jobs', 'applicants'}.

    With jobs proposing this returns the job-optimal stable matching, the
    starting point for all rotation eliminations.
    """
    if proposing_side == "jobs":
        prop_prefs, recv_rank = profile.job_prefs, profile.applicant_rank_table
    elif proposing_side == "applicants":
        prop_prefs, recv_rank = profile.applicant_prefs, profile.job_rank_table
    else:
        raise ValueError("proposing_side must be 'jobs' or 'applicants'")

    n = profile.n

    next_choice = [0] * n
    recv_match = [-1] * n
    prop_match = [-1] * n
    free = list(range(n - 1, -1, -1))
    while free:
        p = free.pop()
        r = prop_prefs[p][next_choice[p]]
        next_choice[p] += 1
        cur = recv_match[r]
        if cur == -1:
            recv_match[r] = p
            prop_match[p] = r
        elif recv_rank[r][p] < recv_rank[r][cur]:
            recv_match[r] = p
            prop_match[p] = r
            prop_match[cur] = -1
            free.append(cur)
        else:
            free.append(p)

    if proposing_side == "jobs":
        return tuple(prop_match)
    return tuple(recv_match[u] for u in range(n))


def unstable_pairs(profile: PreferenceProfile, matching: Matching) -> list[tuple[int, int]]:
    """All blocking pairs (job, applicant), sorted; empty iff stable."""
    return sorted(_blocking_pairs(profile, matching))


def is_stable(profile: PreferenceProfile, matching: Matching) -> bool:
    """No blocking pair: the one-row case of `stable_rows`."""
    return stable_rows(profile, (matching,))[0]


def stable_rows(profile: PreferenceProfile, matchings: Sequence[Matching]) -> list[bool]:
    """One bool per matching: True iff it has no blocking pair.

    Every row is validated (`validate_matching`'s ValueError).  A batch of
    at most `ARRAY_MIN_CELLS` cells is scanned row by row, each scan
    stopping at its first blocking pair; a larger one goes to
    `_stable_rows_array` in chunks of at most `CHUNK_CELLS` cells.
    """
    n = profile.n
    if len(matchings) * n * n <= ARRAY_MIN_CELLS:
        return [next(_blocking_pairs(profile, m), None) is None for m in matchings]
    step = max(1, CHUNK_CELLS // (n * n))
    out: list[bool] = []
    for start in range(0, len(matchings), step):
        out += _stable_rows_array(profile, matchings[start:start + step])
    return out


def _stable_rows_array(profile: PreferenceProfile, matchings: Sequence[Matching]) -> list[bool]:
    """`stable_rows` as one array expression over rows x jobs x applicants:
    (u, v) blocks row r iff job u ranks v above its partner and v ranks u
    above its partner."""
    n = profile.n
    jrank, arank = profile.job_rank_array, profile.applicant_rank_array
    try:
        rows = np.array(matchings)
    except ValueError:  # rows of different lengths
        rows = None
    if rows is None or rows.shape != (len(matchings), n) or rows.dtype.kind not in "iu" \
            or rows.min() < 0 or rows.max() >= n:
        _validate_each(matchings, n)
    jobs = np.arange(n)
    own_job = jrank[jobs, rows]  # [r, u]: job u's rank of its partner
    own_app = np.full(rows.shape, n, dtype=arank.dtype)  # n: no partner yet
    own_app[np.arange(len(rows))[:, None], rows] = arank[jobs, rows]  # [r, v]
    if own_app.max() == n:  # a repeated applicant leaves another unmatched
        _validate_each(matchings, n)
    blocked = jrank < own_job[:, :, None]
    blocked &= arank < own_app[:, None, :]
    return (~blocked.reshape(len(rows), -1).any(axis=1)).tolist()


def _validate_each(matchings: Sequence[Matching], n: int) -> NoReturn:
    for matching in matchings:
        validate_matching(matching, n)
    raise ValueError(f"matchings are not integer rows of length {n}")


def _blocking_pairs(profile: PreferenceProfile, matching: Matching):
    """Validate the matching, then yield each blocking pair (job,
    applicant) job by job, scanning only the applicants a job prefers to
    its partner."""
    n = profile.n
    validate_matching(matching, n)
    jrank, arank = profile.job_rank_table, profile.applicant_rank_table
    partner_rank = [0] * n  # partner_rank[v]: v's rank of its own partner
    for u, v in enumerate(matching):
        partner_rank[v] = arank[v][u]
    for u, (prefs, ranks, v0) in enumerate(zip(profile.job_prefs, jrank, matching)):
        for v in islice(prefs, ranks[v0]):
            if arank[v][u] < partner_rank[v]:
                yield u, v


def enumerate_stable_bruteforce(profile: PreferenceProfile) -> set[Matching]:
    """All stable matchings by exhaustive search over perfect matchings.

    Jobs are assigned in index order, depth first, with forward checking.
    Every blocking pair of a perfect matching joins two of its pairs, so
    each unassigned job carries a mask of the applicants it may still take:
    on assigning (u, v) every later job u2 loses v, each v2 that u ranks
    above v and that ranks u above u2 ((u, v2) would block), and, when v
    ranks u2 above u, each v2 that u2 ranks below v ((u2, v) would block).
    A branch ends as soon as some later job has no applicant left, so the
    last job is reached with exactly one and completes a stable matching.
    Independent of the rotation machinery; `BRUTE_FORCE_CAP` marks the
    oracle boundary.

    The masks are the (n + 1)-bit fields of one int, field u for job u
    (n applicant bits under a zero guard bit), so one assignment strikes
    every later job in a few int operations, and adding 2^n - 1 to every
    field carries into the guard bits of exactly the nonempty fields.
    """
    n = profile.n
    cap = BRUTE_FORCE_CAP
    if n > cap:
        raise ValueError(f"n={n} above brute-force cap {cap}")
    width = n + 1
    ones = sum(1 << (u * width) for u in range(n))  # bit 0 of every field
    full = (1 << n) - 1
    fill = ones * full  # every field full: no applicant struck yet
    guards = ones << n
    # better[u][v]: the applicants u ranks above v; worse[v], field u2: the
    # applicants u2 ranks below v
    better = []
    worse = [0] * n
    for u, prefs in enumerate(profile.job_prefs):
        row, above = [0] * n, 0
        for v in prefs:
            row[v] = above
            above |= 1 << v
            worse[v] |= (full ^ above) << (u * width)
        better.append(row)
    # fond[v][u]: all ones in the fields of the jobs v ranks above u;
    # lure[u], field u2: the applicants that rank u above u2
    fond = []
    lure = [0] * n
    for v, prefs in enumerate(profile.applicant_prefs):
        row, above, below = [0] * n, 0, 0
        for u in prefs:
            row[u] = above
            above |= full << (u * width)
        for u in reversed(prefs):
            lure[u] |= below << v
            below |= 1 << (u * width)
        fond.append(row)
    out: set[Matching] = set()
    last = n - 1
    stack = [(0, (), fill)]  # (next job, its predecessors' applicants, masks)
    while stack:
        u, prefix, allowed = stack.pop()
        options = allowed >> (u * width) & full
        if u == last:  # options is the one applicant left
            out.add(prefix + (options.bit_length() - 1,))
            continue
        better_u, lure_u = better[u], lure[u]
        later = guards >> ((u + 1) * width) << ((u + 1) * width)
        while options:
            bit = options & -options
            options ^= bit
            v = bit.bit_length() - 1
            left = allowed & ~(ones * better_u[v] & lure_u | worse[v] & fond[v][u] | ones << v)
            if (left + fill) & later == later:
                stack.append((u + 1, prefix + (v,), left))
    return out
