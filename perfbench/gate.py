"""Correctness gate: decide whether one operation's report is a failure.

The functions read only public report attributes, so the gate imports
nothing from fdcache and its tests can feed it altered reports.
"""

from __future__ import annotations

import hashlib
import json


def verify_failure(report, run_oracle: bool) -> str | None:
    """Why a VerificationReport failed, or None when it passed.

    With the oracle requested, anything but ``oracle_ok is True`` fails: a
    None there means the oracle silently did not run.
    """
    if not report.success:
        return f"success is false (per_user={list(report.per_user)})"
    if run_oracle and report.oracle_ok is not True:
        return f"oracle_ok is {report.oracle_ok!r}"
    return None


def identity_failure(report) -> str | None:
    """Why an IdentityReport failed, or None when every family passed."""
    failed = sorted(name for name, family in report.families.items() if family.failures)
    if failed:
        return "identity families failed: " + ", ".join(failed)
    if not report.success:
        return "success is false"
    return None


class Digest:
    """SHA-256 over the canonical JSON records of the first ``limit`` demands.

    The demand stream depends only on the seed, so two commits that produce
    the same records give the same digest regardless of how fast they run.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0
        self._hash = hashlib.sha256()

    def add(self, record: dict) -> None:
        if self.count < self.limit:
            self._hash.update(json.dumps(record, sort_keys=True).encode() + b"\n")
            self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
