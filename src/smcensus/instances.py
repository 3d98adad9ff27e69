"""Stable matching instances: data model, generation, JSON serialization.

Indices are 0-based everywhere.  Preference rows are strict orders
(most-preferred first); ties or repeats are validation errors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .rng import Xoshiro256StarStar


class InstanceError(ValueError):
    """Malformed instance text or invalid preference data."""


@dataclass(frozen=True)
class PreferenceProfile:
    """An n x n instance: jobs and applicants each rank the opposite side."""

    n: int
    job_prefs: tuple[tuple[int, ...], ...]
    applicant_prefs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InstanceError("n must be >= 1")
        for name, rows in (("job_prefs", self.job_prefs),
                           ("applicant_prefs", self.applicant_prefs)):
            if len(rows) != self.n:
                raise InstanceError(f"{name} must have {self.n} rows, got {len(rows)}")
            for i, row in enumerate(rows):
                if sorted(row) != list(range(self.n)):
                    raise InstanceError(f"{name} row {i} not a permutation of 0..{self.n - 1}")


def job_ranks(profile: PreferenceProfile) -> list[list[int]]:
    """rank[u][v] = position of applicant v on job u's list (0 = best)."""
    n = profile.n
    rank = [[0] * n for _ in range(n)]
    for u in range(n):
        for pos, v in enumerate(profile.job_prefs[u]):
            rank[u][v] = pos
    return rank


def applicant_ranks(profile: PreferenceProfile) -> list[list[int]]:
    """rank[v][u] = position of job u on applicant v's list (0 = best)."""
    n = profile.n
    rank = [[0] * n for _ in range(n)]
    for v in range(n):
        for pos, u in enumerate(profile.applicant_prefs[v]):
            rank[v][u] = pos
    return rank


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
    missing = {"n", "job_prefs", "applicant_prefs"} - set(data)
    if missing:
        raise InstanceError(f"missing keys: {sorted(missing)}")
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
    if n < 1:
        raise InstanceError("n must be >= 1")
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
