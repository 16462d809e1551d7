#!/usr/bin/env python3
"""Split the time of one demand into its stages, in ms per demand.

    PYTHONPATH=src python3 scripts/stage_split.py --system 4,6,2
    PYTHONPATH=src python3 scripts/stage_split.py --system 4,10,1 --lemmas

Demands are drawn as perfbench draws them: fully demanded vectors by
rejection sampling from random.Random(--seed).  Each pass runs every demand
through the stages in order, each stage timed on its own, and each stage
prints its best pass.  Without --lemmas the stages are those of
harness.verify_demand with engine "both": delivery, the payload draw, then,
timed inside each excluded user's pass and summed over the users, the lift
of that user's symbols, its symbol pass (failing_symbols) and its class-2
rows, and last the rank oracle.  With --lemmas they are those of
harness.identity_suite per demand: delivery, the skip_combination calls
that delivery makes (timed again after it, so they are a part of
delivery's time), every reconstructed_pair and the transformed sum.  The last line says how many
demands were verified and how many passed.  Exits 1 when one failed.
"""

from __future__ import annotations

import argparse
import random
import time

from fdcache import harness, scheme
from fdcache.algebra import MaskValues, segment_index
from fdcache.cli import at_least_one
from fdcache.core import SchemeParams, UsageError


def _system(text: str) -> SchemeParams:
    try:
        n_files, n_users, r = (int(part) for part in text.split(","))
        return SchemeParams(n_files, n_users, r)
    except UsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N,K,R, got {text!r}") from None


def _demands(params: SchemeParams, count: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        demand = tuple(rng.randint(1, params.n_files) for _ in params.users)
        if len(set(demand)) == params.n_files:
            out.append(demand)
    return out


def _verify_stages(params: SchemeParams, demand: tuple[int, ...], seed: str, clock: list[float]) -> bool:
    """One demand of verify_demand(engine="both"), each stage's seconds
    added to clock in order: the lift, symbol pass and class-2 rows are
    timed inside the pass of each excluded user and summed over users.
    True when every user decodes and the oracle agrees."""
    caches = harness._prefetch_all(params)
    started = time.perf_counter()
    dset = scheme.delivery(params, demand)
    drawn = time.perf_counter()
    values = MaskValues.random(segment_index(params), 1, harness._payload_seed(seed, params, demand), masks=True)
    clock[0] += drawn - started
    clock[1] += time.perf_counter() - drawn
    failed, rows_ok = set(), []
    for cache in caches:
        marks = [time.perf_counter()]
        lifted = scheme.lift(dset, cache.owner, values)
        marks.append(time.perf_counter())
        failed.update(k for _, r_plus in scheme.failing_symbols(dset, lifted) for k in r_plus)
        marks.append(time.perf_counter())
        rows_ok.append(harness._decode_user_ok(dset, cache, lifted))
        marks.append(time.perf_counter())
        del lifted  # one user's Lift at a time, as verify_demand holds it
        for i in range(3):
            clock[2 + i] += marks[i + 1] - marks[i]
    started = time.perf_counter()
    oracle = harness._oracle_flags(dset)
    clock[5] += time.perf_counter() - started
    decoded = [ok and k not in failed for k, ok in zip(params.users, rows_ok)]
    return all(decoded) and all(oracle)


def _lemma_stages(params: SchemeParams, demand: tuple[int, ...], seed: str, clock: list[float]) -> bool:
    """One demand of identity_suite's delivery families, timed as
    _verify_stages is; True when every skipped pair is rebuilt and the
    transformed sum is zero."""
    marks = [time.perf_counter()]
    dset = scheme.delivery(params, demand)
    marks.append(time.perf_counter())
    for s, r_plus in dset.skipped:
        scheme.skip_combination(dset, s, r_plus)
    marks.append(time.perf_counter())
    rebuilt = [scheme.reconstructed_pair(dset, s, r_plus) == want for (s, r_plus), want in dset.skipped.items()]
    marks.append(time.perf_counter())
    residual = scheme.transformed_sum_residual(params, dset.demand, dset.exponents)
    marks.append(time.perf_counter())
    for i in range(len(clock)):
        clock[i] += marks[i + 1] - marks[i]
    return all(rebuilt) and residual == (0, 0)


VERIFY_STAGES = ("delivery", "draw", "lift", "symbol pass", "class-2 rows", "oracle")
LEMMA_STAGES = ("delivery", "skip_combination", "reconstructed_pair", "transformed sum")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--system", type=_system, required=True, help="N,K,R")
    parser.add_argument("--demands", type=at_least_one, default=200, help="demands per pass, at least 1")
    parser.add_argument("--passes", type=at_least_one, default=7, help="passes, at least 1; the best is printed")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--lemmas", action="store_true", help="split identity_suite, not verify_demand")
    args = parser.parse_args(argv)
    params = args.system
    names, run = (LEMMA_STAGES, _lemma_stages) if args.lemmas else (VERIFY_STAGES, _verify_stages)
    demands = _demands(params, args.demands, args.seed)
    harness._prefetch_all(params)  # set-up is not a stage
    if not args.lemmas:
        harness._cache_spans(params)
    best = [float("inf")] * len(names)
    passed = 0
    for _ in range(args.passes):
        clock = [0.0] * len(names)
        passed = sum(run(params, demand, str(args.seed), clock) for demand in demands)
        best = [min(old, new) for old, new in zip(best, clock)]
    print(f"({params.n_files},{params.n_users}) r={params.r}: ms per demand, best of {args.passes} passes")
    for name, seconds in zip(names, best):
        print(f"{name:>20} {1000 * seconds / len(demands):.4f}")
    print(f"verified {len(demands)} demands, {passed} passed")
    return 0 if passed == len(demands) else 1


if __name__ == "__main__":
    raise SystemExit(main())
