"""Stable matching instances: data model, generation, JSON serialization.

Indices are 0-based everywhere.  Preference rows are strict orders
(most-preferred first); ties or repeats are validation errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import Xoshiro256StarStar


class InstanceError(ValueError):
    """Malformed instance text or invalid preference data."""


# The largest instance side n: random_instance builds and validates n = 512
# in 0.7-1.1 s (2-core shared VM), and its cost grows as n^2.  Every profile,
# from --n or from --in, is refused past it before its rows are drawn or
# validated.
N_CAP = 512


def _check_n(n: int) -> None:
    if n < 1:
        raise InstanceError("n must be >= 1")
    if n > N_CAP:
        raise InstanceError(f"n={n} is above the instance-size cap {N_CAP}")


@dataclass(frozen=True)
class PreferenceProfile:
    """An n x n instance: jobs and applicants each rank the opposite side."""

    n: int
    job_prefs: tuple[tuple[int, ...], ...]
    applicant_prefs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_n(self.n)
        for name, rows in (("job_prefs", self.job_prefs),
                           ("applicant_prefs", self.applicant_prefs)):
            if len(rows) != self.n:
                raise InstanceError(f"{name} must have {self.n} rows, got {len(rows)}")
            for i, row in enumerate(rows):
                if sorted(row) != list(range(self.n)):
                    raise InstanceError(f"{name} row {i} not a permutation of 0..{self.n - 1}")

    # Rank tables are built on first use and kept on the instance (outside
    # the dataclass fields, so equality and hashing see only n and the rows).
    @cached_property
    def job_rank_table(self) -> tuple[tuple[int, ...], ...]:
        """rank[u][v] = position of applicant v on job u's list (0 = best)."""
        return _rank_table(self.job_prefs)

    @cached_property
    def applicant_rank_table(self) -> tuple[tuple[int, ...], ...]:
        """rank[v][u] = position of job u on applicant v's list (0 = best)."""
        return _rank_table(self.applicant_prefs)

    # The same ranks as read-only arrays, both indexed [job, applicant], for
    # the batched stability kernel; their dtype also holds n, which the
    # kernel uses as a sentinel.
    @cached_property
    def job_rank_array(self) -> np.ndarray:
        """[u, v] = position of applicant v on job u's list."""
        return _read_only(np.array(self.job_rank_table, dtype=np.min_scalar_type(self.n)))

    @cached_property
    def applicant_rank_array(self) -> np.ndarray:
        """[u, v] = position of job u on applicant v's list."""
        ranks = np.array(self.applicant_rank_table, dtype=np.min_scalar_type(self.n))
        return _read_only(np.ascontiguousarray(ranks.T))


def _rank_table(prefs: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    out = []
    for row in prefs:
        rank = [0] * len(row)
        for pos, x in enumerate(row):
            rank[x] = pos
        out.append(tuple(rank))
    return tuple(out)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _is_int(x) -> bool:
    """JSON integer; true and false parse to bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_instance(text: str) -> PreferenceProfile:
    """Parse the JSON instance format; raises InstanceError with row context."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceError("instance must be a JSON object")
    keys = {"n", "job_prefs", "applicant_prefs"}
    missing = keys - set(data)
    if missing:
        raise InstanceError(f"missing keys: {sorted(missing)}")
    unknown = set(data) - keys  # a misspelt or foreign key is refused, not ignored
    if unknown:
        raise InstanceError(f"unknown keys: {sorted(unknown)}")
    n = data["n"]
    if not _is_int(n):
        raise InstanceError("n must be an integer")

    def rows_of(name):
        rows = data[name]
        if not isinstance(rows, list) or len(rows) != n:
            raise InstanceError(f"{name} must be a list of {n} rows")
        out = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or not all(_is_int(x) for x in row):
                raise InstanceError(f"{name} row {i} must be a list of integers")
            out.append(tuple(row))
        return tuple(out)

    return PreferenceProfile(n, rows_of("job_prefs"), rows_of("applicant_prefs"))


def serialize_instance(profile: PreferenceProfile) -> str:
    return json.dumps(
        {
            "n": profile.n,
            "job_prefs": [list(r) for r in profile.job_prefs],
            "applicant_prefs": [list(r) for r in profile.applicant_prefs],
        },
        sort_keys=True,
    )


def random_instance(n: int, seed: int) -> PreferenceProfile:
    """Independent uniform preference rows; deterministic given (n, seed)."""
    _check_n(n)
    rng = Xoshiro256StarStar(seed)
    def rows():
        out = []
        for _ in range(n):
            row = list(range(n))
            rng.shuffle(row)
            out.append(tuple(row))
        return tuple(out)
    return PreferenceProfile(n, rows(), rows())


def instance_I2() -> PreferenceProfile:
    """Canonical n=2 fixture with exactly two stable matchings."""
    return PreferenceProfile(2, ((0, 1), (1, 0)), ((1, 0), (0, 1)))


def irving_leather(k: int) -> PreferenceProfile:
    """The Irving-Leather doubling family I_n, n = 2^k.

    I_1 is the one-pair market; I_2n takes I_n's job lists J and applicant
    lists A: job u ranks J[u] then J[u]+n, job u+n ranks J[u]+n then J[u];
    applicant v ranks A[v]+n then A[v], applicant v+n ranks A[v] then
    A[v]+n.  I_2 is instance_I2, and the counts run 1, 2, 10, 268, 195472.
    """
    if not _is_int(k) or k < 0:
        raise InstanceError("k must be an integer >= 0")
    jobs: list[tuple[int, ...]] = [(0,)]
    apps: list[tuple[int, ...]] = [(0,)]
    for _ in range(k):
        n = len(jobs)
        shift = [tuple(x + n for x in row) for row in jobs]
        jobs = ([jobs[u] + shift[u] for u in range(n)]
                + [shift[u] + jobs[u] for u in range(n)])
        shift = [tuple(x + n for x in row) for row in apps]
        apps = ([shift[v] + apps[v] for v in range(n)]
                + [apps[v] + shift[v] for v in range(n)])
    return PreferenceProfile(len(jobs), tuple(jobs), tuple(apps))
