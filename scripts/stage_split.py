#!/usr/bin/env python3
"""Split the time of one demand into its stages, in ms per demand.

    PYTHONPATH=src python3 scripts/stage_split.py --system 4,6,2
    PYTHONPATH=src python3 scripts/stage_split.py --system 4,10,1 --lemmas

Demands come from perfbench's seeded demand stream (perfbench/workloads.py).
After one untimed operation for set-up, each pass runs every demand through
the shipped operation, harness.verify_demand(params, d, seed=str(--seed)) or
with --lemmas harness.identity_suite(params, demands=[d]), with each stage
(STAGES: a function the operation looks up by name) rebound for the run to a
wrapper that counts its calls and sums its time.  Every binding is put back
after the run, also when the operation raises; a stage called inside another
(NESTED) gets a run of its own.  Each stage prints its best pass: delivery,
the payload draw, the lift, symbol pass and class-2 rows (scheme.lift,
scheme.failing_symbols and scheme.rows_hold, which scheme.user_pass calls
once per excluded user) summed over the users' passes, and the rank oracle;
or delivery, every skip_combination call, every reconstructed_pair and the
transformed sum.  reconstructed_pair calls skip_combination once per
skipped symbol, and lift sums each skipped symbol of its user by one
scheme.reconstructed_pair call, so both times hold the rule's; delivery
never calls it.  The last line counts the demands the operation passed
(verify: success and the oracle agreeing); exits 1 when one failed.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from collections import Counter
from pathlib import Path

from fdcache import harness, scheme
from fdcache.algebra import MaskValues
from fdcache.cli import at_least_one
from fdcache.core import SchemeParams, UsageError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import demand_stream  # noqa: E402

# each stage's function, as (owner, name) where the shipped operation looks it up
STAGES = {
    "delivery": (harness, "delivery"),
    "draw": (MaskValues, "random"),
    "lift": (scheme, "lift"),
    "symbol pass": (scheme, "failing_symbols"),
    "class-2 rows": (scheme, "rows_hold"),
    "oracle": (harness, "_oracle_flags"),
    "skip_combination": (scheme, "skip_combination"),
    "reconstructed_pair": (harness, "reconstructed_pair"),
    "transformed sum": (harness, "transformed_sum_residual"),
}
VERIFY_STAGES = ("delivery", "draw", "lift", "symbol pass", "class-2 rows", "oracle")
LEMMA_STAGES = ("delivery", "skip_combination", "reconstructed_pair", "transformed sum")
# stages called inside another stage (lift and reconstructed_pair call
# skip_combination): one timed with its caller would add its wrapper to the
# caller's time
NESTED = frozenset({"skip_combination"})


def _system(text: str) -> SchemeParams:
    try:
        n_files, n_users, r = (int(part) for part in text.split(","))
        return SchemeParams(n_files, n_users, r)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N,K,R, got {text!r}") from None


def _run(operation, demands, stages, clock: Counter, calls: Counter) -> list[bool]:
    """Each demand's verdict, with the stages rebound to timed wrappers for this run only."""
    def timed(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            started = time.perf_counter()
            out = func(*args, **kwargs)
            clock[name] += time.perf_counter() - started
            return out
        return wrapper

    bound = [(name, *STAGES[name]) for name in stages]
    originals = [vars(owner)[attr] for _, owner, attr in bound]
    try:
        for (name, owner, attr), original in zip(bound, originals):
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(timed(name, original.__func__)))
            else:
                setattr(owner, attr, timed(name, original))
        return [operation(demand) for demand in demands]
    finally:
        for (_, owner, attr), original in zip(bound, originals):
            setattr(owner, attr, original)


def split(params: SchemeParams, demands, passes: int, seed: int, lemmas: bool = False) -> tuple[dict, Counter, int]:
    """(each stage's best seconds over the passes, each stage's calls in the
    last pass, the demands the operation passed in the last pass)."""
    def operation(demand):
        if lemmas:
            return harness.identity_suite(params, demands=[demand]).success
        report = harness.verify_demand(params, demand, seed=str(seed))
        return report.success and report.oracle_ok is True

    names = LEMMA_STAGES if lemmas else VERIFY_STAGES
    runs = [[name for name in names if name not in NESTED]] + [[name] for name in names if name in NESTED]
    operation(demands[0])  # set-up is not a stage
    best = dict.fromkeys(names, float("inf"))
    for _ in range(passes):
        clock, calls = Counter(), Counter()
        verdicts = [_run(operation, demands, run, clock, calls) for run in runs]
        best = {name: min(seconds, clock[name]) for name, seconds in best.items()}
    return best, calls, sum(map(all, zip(*verdicts)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--system", type=_system, required=True, help="N,K,R")
    parser.add_argument("--demands", type=at_least_one, default=200, help="demands per pass, at least 1")
    parser.add_argument("--passes", type=at_least_one, default=7, help="passes, at least 1; the best is printed")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--lemmas", action="store_true", help="split identity_suite, not verify_demand")
    args = parser.parse_args(argv)
    params = args.system
    demands = list(itertools.islice(demand_stream(params.n_files, params.n_users, args.seed), args.demands))
    best, _, passed = split(params, demands, args.passes, args.seed, args.lemmas)
    print(f"({params.n_files},{params.n_users}) r={params.r}: ms per demand, best of {args.passes} passes")
    for name, seconds in best.items():
        print(f"{name:>20} {1000 * seconds / len(demands):.4f}")
    print(f"verified {len(demands)} demands, {passed} passed")
    return 0 if passed == len(demands) else 1


if __name__ == "__main__":
    raise SystemExit(main())
