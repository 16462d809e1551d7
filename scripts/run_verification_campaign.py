#!/usr/bin/env python3
"""Run the full verification campaign and write a JSON summary.

Covers the exhaustive decode sweeps (both engines plus the rank oracle), the
XOR identity suites, and the golden worked-example check.  Exits 1 on any
failed check, and 2 on bad input, such as an --out path that cannot be
written, which is refused before the first sweep.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from fdcache.cli import at_least_one
from fdcache.core import SchemeParams
from fdcache.harness import (
    IDENTITY_SUITES,
    SWEEP_MATRIX,
    golden_example_check,
    golden_json_dict,
    identity_json_dict,
    identity_suite,
    sweep_json_dict,
    verify_sweep,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--jobs", type=at_least_one, default=1, help="worker processes, at least 1")
    parser.add_argument("--samples", type=at_least_one, default=10, help="demands per identity suite, at least 1")
    parser.add_argument("--out", default="out/campaign.json")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    try:  # an unwritable --out is bad input: refuse it before the first sweep
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    ok = True
    summary = {"seed": args.seed, "sweeps": [], "identity_suites": [], "golden": None}

    for n, k, r in SWEEP_MATRIX:
        started = time.perf_counter()
        sweep = verify_sweep(
            SchemeParams(n, k, r), "fully_demanded", engine="both", seed=args.seed, jobs=args.jobs
        )
        elapsed = time.perf_counter() - started
        ok = ok and sweep.success
        summary["sweeps"].append(sweep_json_dict(sweep))
        print(
            f"sweep ({n},{k}) r={r}: {sweep.count} demands,"
            f" {'ok' if sweep.success else 'FAILED'}, oracle={sweep.oracle_ok}, {elapsed:.1f}s"
        )

    for n, k, r in IDENTITY_SUITES:
        suite = identity_suite(SchemeParams(n, k, r), samples=args.samples)
        ok = ok and suite.success
        summary["identity_suites"].append(identity_json_dict(suite))
        counts = {name: family.checked for name, family in suite.families.items()}
        print(f"identities ({n},{k}) r={r}: {'ok' if suite.success else 'FAILED'} {counts}")

    golden = golden_example_check()
    ok = ok and golden.success
    summary["golden"] = golden_json_dict(golden)
    print(f"golden example: {'ok' if golden.success else 'FAILED'}")

    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
