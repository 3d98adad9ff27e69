"""The one result record: every check, sub-check and CLI report line.

A record is a verdict (`passed`) on a named check plus the JSON-ready
fields that back it.  `to_json` puts the name first and the verdict last;
the CLI writes it with sorted keys, so field order never shows.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckResult:
    check: str
    passed: bool
    fields: dict
    elapsed: float = 0.0  # wall-clock seconds; kept out of the JSON

    def to_json(self) -> dict:
        # no timing, so identical (argv, seed) runs emit byte-identical lines
        return {"check": self.check, **self.fields, "passed": self.passed}
