"""The one result record, and the one Monte Carlo decision rule.

A record is a verdict (`passed`) on a named check plus the JSON-ready
fields that back it.  `to_json` puts the name first and the verdict last;
the CLI writes it with sorted keys, so field order never shows.  Every
acceptance verdict taken from samples allows `SE_RULE` standard errors:
c06, c12, and the sampler fits of c13 and `simulate` through `law_fit`.
The asymptotic probe (`simulate --kind asymptotic`) still allows its own
`distributions.PROBE_TOL` plus 3 standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SE_RULE = 4  # standard errors a Monte Carlo verdict allows


@dataclass
class CheckResult:
    check: str
    passed: bool
    fields: dict
    elapsed: float = 0.0  # wall-clock seconds; kept out of the JSON

    def to_json(self) -> dict:
        # no timing, so identical (argv, seed) runs emit byte-identical lines
        return {"check": self.check, **self.fields, "passed": self.passed}


def law_fit(draws, masses, tail=0) -> list[tuple]:
    """The failing cells of an integer law: (k, f, p), k = ">K" for the tail,
    and ("outside_support", count).  The cells come from the law: k = 1..K
    of mass masses[k - 1], K = len(masses); the tail k > K of mass `tail`
    when positive; and everything else, of mass 0.  A cell of frequency f
    and mass p fits m draws when m KL(f || p) <= SE_RULE^2 / 2, KL of two
    Bernoulli laws (infinite for a draw where p = 0): the rule of SE_RULE
    standard errors in its Chernoff form, e^-8 per tail, and sound also
    for cells expected far less than once."""
    m, K = len(draws), len(masses)
    tally = np.bincount(np.clip(draws, 0, K + 1), minlength=K + 2).tolist()
    outside = tally[0] + (0 if tail else tally[K + 1])
    bad: list[tuple] = [("outside_support", outside)] if outside else []
    cells = list(enumerate(masses, 1)) + ([(f">{K}", tail)] if tail else [])
    for (k, p), count in zip(cells, tally[1:]):
        f, p = count / m, float(p)
        kl = sum(a * math.log(a / b) if b > 0 else math.inf
                 for a, b in ((f, p), (1 - f, 1 - p)) if a > 0)
        if m * kl > SE_RULE ** 2 / 2:
            bad.append((k, f, p))
    return bad
