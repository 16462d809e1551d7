"""End-to-end verification campaigns and machine-readable reports.

verify_demand runs prefetch -> delivery -> decode for every user on one
demand, in the symbolic and/or concrete-payload domains, and independently
cross-checks decodability with the rank oracle.  The decoder's checks are
scheme's (scheme.user_pass): harness writes no decoder arithmetic, and its
oracle reads only the segment index and each cache's stored masks.
verify_sweep fans that out over a demand class.  identity_suite exercises
the parity-closure, delivery-redundancy, and transformed-sum identities.
golden_example_check replays the (3,6) r=1 construction against
hard-coded expected supports.

Serialized JSON/CSV is byte-stable for fixed inputs and seed; wall-clock
fields are emitted only on request so determinism checks can compare bytes.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Sequence

from .algebra import CHANNELS, MaskValues, SegmentId, SpanBasis, bit_positions, segment, segment_index
from .analysis import memory_point, rates_by_ones
from .core import (
    Demand,
    DemandClass,
    NotFullyDemandedError,
    SchemeParams,
    UsageError,
    count_demands,
    covering_count,
    demand_type,
    enumerate_demands,
    format_fraction,
    require_fully_demanded,
    require_fully_demanded_type,
)
from .scheme import (
    CacheContent,
    DeliverySet,
    PayloadSource,  # noqa: F401  re-exported: perfbench/tracing.py wraps it by name
    decode_file,  # noqa: F401  re-exported: perfbench/tracing.py wraps it by name
    delivery,
    mix,
    prefetch,
    reconstruct_skipped,  # noqa: F401  re-exported: perfbench/tracing.py wraps it by name
    reconstructed_pair,
    row_parity_closure,  # noqa: F401  re-exported: perfbench/tracing.py wraps it by name
    transform_exponents,
    transformed_sum_identity,  # noqa: F401  re-exported: perfbench/tracing.py wraps it by name
    transformed_sum_residual,
    user_pass,
)

ENGINES = ("symbolic", "payload", "both")
# ceiling on the bytes of one demand's segment values (payload_width x segment
# count), so no accepted width draws a payload without bound; a verify peaks at
# about those values plus one user's encoded symbols, as each user's pass
# lifts and drops its own share of the broadcast
MAX_PAYLOAD_BYTES = 256 * 2**20

# (N, K, r) of the exhaustive fully demanded sweeps of the acceptance gate and
# the verification campaign, and of their identity suites
SWEEP_MATRIX = (
    (2, 2, 0), (2, 2, 1),
    (3, 3, 0), (3, 3, 1), (3, 3, 2),
    (3, 4, 0), (3, 4, 1), (3, 4, 2), (3, 4, 3),
    (3, 6, 1),
    (4, 6, 1), (4, 6, 2),
)
IDENTITY_SUITES = ((3, 6, 1), (4, 6, 2))
# ceiling on the demands of one sweep, and on those identity_suite samples
SWEEP_LIMIT = 100_000


class SweepLimitExceeded(UsageError):
    """A sweep would enumerate, or identity_suite sample, over SWEEP_LIMIT demands."""


@lru_cache(maxsize=None)
def _prefetch_all(params: SchemeParams) -> tuple[CacheContent, ...]:
    caches = tuple(prefetch(params, k) for k in params.users)
    sizes = {cache.size for cache in caches}
    if len(sizes) != 1:  # prefetching is symmetric by construction
        raise RuntimeError(f"users cache different amounts: {sorted(sizes)}")
    return caches


@lru_cache(maxsize=None)
def _cache_spans(params: SchemeParams) -> tuple[tuple[SpanBasis, list[int]], ...]:
    """Pre-eliminated cache row spaces over the segment index, one per user,
    each with its pivot rows, listed once at set-up for the broadcast-first
    join."""
    size = segment_index(params).size
    spans = []
    for cache in _prefetch_all(params):
        span = SpanBasis(size)
        span.insert_rows(1 << position for position in bit_positions(cache.uncoded))
        for parities in (cache.column, cache.row):
            span.insert_rows(mask for key in sorted(parities) for mask in parities[key])
        spans.append((span, list(filter(None, span.pivots))))
    return tuple(spans)


def _payload_seed(seed: str, params: SchemeParams, demand: Demand) -> str:
    tag = "-".join(str(x) for x in demand)
    return f"{seed}|{params.n_files},{params.n_users},{params.r}|{tag}"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one demand: per-user decoding, exact identities, oracle."""

    params: SchemeParams
    demand: Demand
    engine: str
    seed: str
    payload_width: int
    per_user: tuple[bool, ...]
    t_count: int
    rate_measured: Fraction
    rate_formula: Fraction
    memory_measured: Fraction
    memory_formula: Fraction
    oracle_ok: bool | None
    engine_seconds: float
    oracle_seconds: float

    @property
    def decode_ok(self) -> bool:
        return all(self.per_user)

    @property
    def rate_ok(self) -> bool:
        return self.rate_measured == self.rate_formula

    @property
    def memory_ok(self) -> bool:
        return self.memory_measured == self.memory_formula

    @property
    def success(self) -> bool:
        return self.decode_ok and self.rate_ok and self.memory_ok


def _oracle_flags(dset: DeliverySet) -> list[bool]:
    """Per-user decodability by rank only: the span of the user's cache rows
    and the transmitted symbols holds every segment of its file.  Each join
    copies the larger pre-eliminated side and inserts the smaller one.  When
    the broadcast has more rows than a cache basis has pivots, it is
    eliminated once per demand and each user's cache pivot rows, listed at
    set-up, go into a copy of it; otherwise the broadcast rows go into a copy
    of each user's cache basis.  Either way the span, and so every verdict,
    is the same.  One SpanBasis.join_covers call per user makes the join on
    a copy of the larger side's pivot list and reads the file's block of
    per_file unit rows off the joined pivots: every position of the block
    leads a pivot, and the parts of those pivots below the block reduce to 0."""
    index = segment_index(dset.params)
    per_file = index.per_file
    spans = _cache_spans(dset.params)
    symbol_rows = [mask for pair in dset.pairs.values() for mask in pair]
    if len(symbol_rows) > spans[0][0].rank:  # every user caches the same amount
        broadcast = SpanBasis(index.size)
        broadcast.insert_rows(symbol_rows)
        joins = [(broadcast, rows) for _, rows in spans]
    else:
        joins = [(span, symbol_rows) for span, _ in spans]
    return [base.join_covers(rows, (f - 1) * per_file, f * per_file) for f, (base, rows) in zip(dset.demand, joins)]


def _refuse_bad_verify_input(params: SchemeParams, engine: str, payload_width: int) -> None:
    """Raise UsageError for an unknown engine, a payload_width below 1, a
    system past the segment index's ceilings or a payload past
    MAX_PAYLOAD_BYTES.  It reads only the segment count, so a caller runs it
    before any set-up or enumeration."""
    if engine not in ENGINES:
        raise UsageError(f"engine must be one of {ENGINES}")
    if payload_width < 1:
        raise UsageError(f"payload_width must be at least 1, got {payload_width}")
    size = segment_index(params).size
    if engine != "symbolic" and payload_width * size > MAX_PAYLOAD_BYTES:
        raise UsageError(f"payload of {size} segments x {payload_width} bytes exceeds {MAX_PAYLOAD_BYTES} bytes")


@lru_cache(maxsize=None)
def _formulas(params: SchemeParams) -> tuple[tuple[Fraction, ...], Fraction]:
    """The rate formula by count of singly-requested files (rates_by_ones)
    and the memory formula: built once per system, not per demand."""
    return rates_by_ones(params), memory_point(params)


def verify_demand(
    params: SchemeParams,
    d: Sequence[int],
    engine: str = "both",
    seed: str = "0",
    payload_width: int = 1,
    run_oracle: bool = True,
) -> VerificationReport:
    """Verify one demand: delivery, then one scheme.user_pass per excluded
    user; a user decodes when no pass fails it.  The engine decides what
    each segment lifts to: its unit mask (symbolic), a seeded payload value
    of payload_width bytes (payload), or that value above the mask (both).
    run_oracle adds the rank oracle's verdict.  Raises UsageError, before
    any set-up, for an unknown engine, a payload_width below 1 or a payload
    past MAX_PAYLOAD_BYTES, and for a demand that leaves a file unrequested
    (NotFullyDemandedError)."""
    _refuse_bad_verify_input(params, engine, payload_width)
    demand = require_fully_demanded(params, d)
    started = time.perf_counter()
    caches = _prefetch_all(params)
    dset = delivery(params, demand)
    # segment i lifts to its unit mask (symbolic: nothing is drawn or encoded),
    # its payload value (payload), or both, the mask below the value
    values = None
    if engine != "symbolic":
        seeded = _payload_seed(seed, params, demand)
        values = MaskValues.random(segment_index(params), payload_width, seeded, masks=engine == "both")
    failed = set()
    for cache in caches:  # each pass's Lift is dropped when user_pass returns
        failed |= user_pass(dset, cache, values)
    per_user = tuple(k not in failed for k in params.users)
    engine_seconds = time.perf_counter() - started

    oracle_ok: bool | None = None
    oracle_seconds = 0.0
    if run_oracle:
        started = time.perf_counter()
        oracle_ok = all(_oracle_flags(dset))
        oracle_seconds = time.perf_counter() - started

    rates, memory_formula = _formulas(params)
    return VerificationReport(
        params=params,
        demand=demand,
        engine=engine,
        seed=seed,
        payload_width=payload_width,
        per_user=per_user,
        t_count=dset.transmitted_count,
        rate_measured=dset.rate(),
        rate_formula=rates[demand_type(params, demand).p],
        memory_measured=caches[0].memory(),
        memory_formula=memory_formula,
        oracle_ok=oracle_ok,
        engine_seconds=engine_seconds,
        oracle_seconds=oracle_seconds,
    )


@dataclass(frozen=True)
class SweepReport:
    params: SchemeParams
    demand_class: str
    engine: str
    seed: str
    reports: tuple[VerificationReport, ...]
    engine_seconds: float
    oracle_seconds: float

    @property
    def count(self) -> int:
        return len(self.reports)

    @property
    def failures(self) -> tuple[VerificationReport, ...]:
        return tuple(r for r in self.reports if not r.success)

    @property
    def oracle_ok(self) -> bool | None:
        flags = [r.oracle_ok for r in self.reports]
        if any(flag is None for flag in flags):
            return None
        return all(flags)

    @property
    def success(self) -> bool:
        if not all(r.success for r in self.reports):
            return False
        return self.oracle_ok is not False

    def per_type(self) -> list[dict]:
        """Aggregate by demand type; transmitted counts must agree per type."""
        groups: dict[tuple[int, ...], list[VerificationReport]] = {}
        for report in self.reports:
            key = demand_type(report.params, report.demand).counts
            groups.setdefault(key, []).append(report)
        rows = []
        for counts in sorted(groups, reverse=True):
            reports = groups[counts]
            t_values = {r.t_count for r in reports}
            rows.append(
                {
                    "type": list(counts),
                    "demands": len(reports),
                    "T": sorted(t_values),
                    "uniform": len(t_values) == 1,
                    "rate": format_fraction(reports[0].rate_measured),
                }
            )
        return rows


def verify_sweep(
    params: SchemeParams,
    demand_class: DemandClass,
    engine: str = "both",
    seed: str = "0",
    jobs: int = 1,
    payload_width: int = 1,
    run_oracle: bool = True,
) -> SweepReport:
    _refuse_bad_verify_input(params, engine, payload_width)
    if demand_class == "mixed":
        raise NotFullyDemandedError("verification sweeps cover fully demanded classes only")
    label = demand_class
    if not isinstance(demand_class, str):
        label = f"type:{require_fully_demanded_type(params, demand_class).label()}"
    count = count_demands(params, demand_class)
    if count > SWEEP_LIMIT:
        raise SweepLimitExceeded(f"{count} demands exceed the limit of {SWEEP_LIMIT}")
    demands = enumerate_demands(params, demand_class)
    verify = partial(verify_demand, params, engine=engine, seed=seed,
                     payload_width=payload_width, run_oracle=run_oracle)
    # the pool forks every worker up front, so never ask for more than can run
    workers = min(jobs, os.cpu_count() or 1, len(demands))
    if workers <= 1:
        reports = list(map(verify, demands))
    else:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(demands) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(verify, demands, chunksize=chunk))
    return SweepReport(
        params=params,
        demand_class=label,
        engine=engine,
        seed=seed,
        reports=tuple(reports),
        engine_seconds=sum(r.engine_seconds for r in reports),
        oracle_seconds=sum(r.oracle_seconds for r in reports),
    )


def _unrank_fully_demanded(params: SchemeParams, rank: int) -> Demand:
    """The fully demanded vector at position `rank` in lexicographic order,
    built entry by entry: each candidate file is passed over together with
    the covering_count completions that start with it."""
    missing = set(params.files)
    out = []
    for left in reversed(range(params.n_users)):
        for f in params.files:
            block = covering_count(params.n_files, len(missing - {f}), left)
            if rank < block:
                break
            rank -= block
        out.append(f)
        missing.discard(f)
    return tuple(out)


def sample_fully_demanded(params: SchemeParams, count: int) -> list[Demand]:
    """Deterministic, evenly spread sample of the fully demanded vectors, in
    lexicographic order.  The picks' positions follow from the closed-form
    count, and each pick is unranked from its position."""
    total = count_demands(params, "fully_demanded")
    picks = range(total) if total <= count else [i * total // count for i in range(count)]
    return [_unrank_fully_demanded(params, rank) for rank in picks]


# ---------------------------------------------------------------------------
# identity suites


@dataclass(frozen=True)
class FamilyResult:
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class IdentityReport:
    params: SchemeParams
    demands: tuple[Demand, ...]
    families: dict[str, FamilyResult]

    @property
    def success(self) -> bool:
        return all(result.ok for result in self.families.values())


def _compare_pairs(got: tuple[int, int], want: tuple[int, int], failures: list[str], label: str) -> None:
    """Record one failure per differing channel of two (I, Q) mask pairs.
    Callers pass differing pairs only, so a label is formatted only for a
    failure."""
    for channel, got_mask, want_mask in zip(CHANNELS, got, want):
        if got_mask != want_mask:
            failures.append(f"{label} ch={channel}")


def identity_suite(
    params: SchemeParams, demands: Sequence[Demand] | None = None, samples: int = 10
) -> IdentityReport:
    """Run the three XOR-identity families used by the construction over the
    demands, or when None over 1 to SWEEP_LIMIT sample_fully_demanded samples.

    parity_closure reads each cache's closures that differ from its row
    parities (CacheContent.closure_mismatches), compared once per cache
    object whatever the calls, and counts two checks per closure; the
    delivery families run per sampled demand.
    Every family compares int masks over the dense segment index, two checks (I
    and Q) per pair.  Every failure records its full index tuple.  Both skip
    families read one rebuilt pair per skipped symbol: skip_reconstruction
    compares it with the skipped pair, and delivery_redundancy's weighted
    zero-sum is MIX**h(leaders) of their difference, so one comparison decides
    both; both stay so that reports keep their shape.  The transformed-sum
    family makes one wide transformed_sum_residual per demand, two checks per
    segment pair, and reads each (s, r_set) block of it, the pair's bits in
    every file, only when the residual is nonzero.
    """
    index = segment_index(params)  # refuses an oversized system before sampling
    if demands is None:
        if samples < 1:
            raise UsageError(f"samples must be >= 1, got {samples}")
        if samples > SWEEP_LIMIT:
            raise SweepLimitExceeded(f"{samples} samples exceed the limit of {SWEEP_LIMIT}")
        demands = sample_fully_demanded(params, samples)
    demands = tuple(require_fully_demanded(params, d) for d in demands)
    if not demands:
        raise UsageError("no demands to check")

    closure_checked = 0
    closure_failures = []
    for cache in _prefetch_all(params):  # no closure when r == 0
        closure_checked += 2 * len(cache.closures)
        for (f, r_minus), got, want in cache.closure_mismatches:
            _compare_pairs(got, want, closure_failures, f"k={cache.owner} f={f} subset={r_minus}")

    skip_checked = 0
    redundancy_failures = []
    reconstruction_failures = []
    sum_checked = 0
    sum_failures = []
    for d in demands:
        dset = delivery(params, d)
        tag = "-".join(str(x) for x in d)
        for (s, r_plus), want in dset.skipped.items():  # in sorted order
            got = reconstructed_pair(dset, s, r_plus)
            skip_checked += 2
            # the block's weighted zero-sum is MIX**h(leaders) of got - want,
            # and MIX is invertible, so it fails exactly when got != want
            if got != want:
                block = tuple(bit_positions(dset.leader_bits[s - 1] | dset.bits[r_plus]))
                redundancy_failures.append(f"d={tag} s={s} block={block}")
                _compare_pairs(got, want, reconstruction_failures, f"d={tag} s={s} subset={r_plus}")
        residual_i, residual_q = transformed_sum_residual(params, d, dset.exponents)
        sum_checked += 2 * len(index.offsets)
        if residual_i or residual_q:
            # stable: r_set order kept within each excluded user s
            for (r_set, s), offset in sorted(index.offsets.items(), key=lambda item: item[0][1]):
                block = index.in_every_file(3 << offset)
                got = (residual_i & block, residual_q & block)
                if got != (0, 0):
                    _compare_pairs(got, (0, 0), sum_failures, f"d={tag} s={s} subset={r_set}")

    return IdentityReport(
        params=params,
        demands=demands,
        families={
            "parity_closure": FamilyResult(closure_checked, tuple(closure_failures)),
            "delivery_redundancy": FamilyResult(skip_checked, tuple(redundancy_failures)),
            "skip_reconstruction": FamilyResult(skip_checked, tuple(reconstruction_failures)),
            "transformed_sum": FamilyResult(sum_checked, tuple(sum_failures)),
        },
    )


# ---------------------------------------------------------------------------
# golden check of the (3,6) r=1 worked construction


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class GoldenReport:
    checks: tuple[GoldenCheck, ...]

    @property
    def success(self) -> bool:
        return all(check.ok for check in self.checks)


def golden_example_check() -> GoldenReport:
    """Rebuild the (3,6) r=1 system with demand (1,1,1,1,2,3) and compare the
    user-1 cache, the s=1 transforms, and the s=1 delivery symbols against
    their expected segment supports, each spelled out as segments and turned
    into a mask through the segment index."""
    params = SchemeParams(3, 6, 1)
    demand = (1, 1, 1, 1, 2, 3)
    index = segment_index(params)
    checks: list[GoldenCheck] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append(GoldenCheck(name, ok, "" if ok else detail))

    def w(f: int, t: int, channel: str) -> SegmentId:
        return segment(f, (t,), 1, channel)

    def mask(segments) -> int:
        out = 0
        for seg in segments:
            out ^= 1 << index[seg]
        return out

    def labels(bits: int) -> list[SegmentId]:
        return [index.segments[i] for i in bit_positions(bits)]

    files = [seg.file for seg in index.segments]
    record("partition_roster_60_per_file", all(files.count(f) == 60 for f in params.files))

    cache1 = prefetch(params, 1)
    expect_uncoded = mask(segment(f, (1,), s, a) for f in params.files for s in range(2, 7) for a in CHANNELS)
    record("user1_uncoded_slice", cache1.uncoded == expect_uncoded, f"got {labels(cache1.uncoded)}")

    expect_columns = {
        (t,): tuple(mask(w(f, t, a) for f in params.files) for a in CHANNELS) for t in range(2, 7)
    }
    record("user1_column_parities", cache1.column == expect_columns, f"keys {sorted(cache1.column)}")

    expect_rows = {
        (f, ()): tuple(mask(w(f, t, a) for t in range(2, 7)) for a in CHANNELS) for f in (2, 3)
    }
    row_ok = cache1.row == expect_rows
    pruned_ok = (1, ()) not in cache1.row
    record("user1_row_parities_file1_pruned", row_ok and pruned_ok, f"keys {sorted(cache1.row)}")

    # MIX for users 2-4, the identity for 5-6 and MIX**2 = MIX^-1 for user 1
    expect_exponent = {2: 1, 3: 1, 4: 1, 5: 0, 6: 0, 1: 2}
    exponents = transform_exponents(params, demand)
    exponent_ok = all(exponents[t - 1][0] == expect_exponent[t] for t in params.users)
    pair_ok = True
    for t in range(2, 7):
        for r_user in range(2, 7):
            f = demand[t - 1]
            unit_i, unit_q = mask([w(f, r_user, "I")]), mask([w(f, r_user, "Q")])
            pair = mix(exponents[t - 1][0], unit_i, unit_q)
            if t in (2, 3, 4):
                want = (mask([w(f, r_user, "I"), w(f, r_user, "Q")]), unit_i)
            else:
                want = (unit_i, unit_q)
            pair_ok = pair_ok and pair == want
    record("s1_transformed_segments", exponent_ok and pair_ok)

    dset = delivery(params, demand)
    symbols = {**dset.pairs, **dset.skipped}
    expected_delivery = {
        (2, 3): ({w(1, 3, "I"), w(1, 3, "Q"), w(1, 2, "I"), w(1, 2, "Q")}, {w(1, 3, "I"), w(1, 2, "I")}),
        (2, 4): ({w(1, 4, "I"), w(1, 4, "Q"), w(1, 2, "I"), w(1, 2, "Q")}, {w(1, 4, "I"), w(1, 2, "I")}),
        (2, 5): ({w(1, 5, "I"), w(1, 5, "Q"), w(2, 2, "I")}, {w(1, 5, "I"), w(2, 2, "Q")}),
        (2, 6): ({w(1, 6, "I"), w(1, 6, "Q"), w(3, 2, "I")}, {w(1, 6, "I"), w(3, 2, "Q")}),
        (3, 4): ({w(1, 4, "I"), w(1, 4, "Q"), w(1, 3, "I"), w(1, 3, "Q")}, {w(1, 4, "I"), w(1, 3, "I")}),
        (3, 5): ({w(1, 5, "I"), w(1, 5, "Q"), w(2, 3, "I")}, {w(1, 5, "I"), w(2, 3, "Q")}),
        (3, 6): ({w(1, 6, "I"), w(1, 6, "Q"), w(3, 3, "I")}, {w(1, 6, "I"), w(3, 3, "Q")}),
        (4, 5): ({w(1, 5, "I"), w(1, 5, "Q"), w(2, 4, "I")}, {w(1, 5, "I"), w(2, 4, "Q")}),
        (4, 6): ({w(1, 6, "I"), w(1, 6, "Q"), w(3, 4, "I")}, {w(1, 6, "I"), w(3, 4, "Q")}),
        (5, 6): ({w(2, 6, "I"), w(3, 5, "I")}, {w(2, 6, "Q"), w(3, 5, "Q")}),
    }
    delivery_ok = True
    detail = ""
    for r_plus, (want_i, want_q) in expected_delivery.items():
        got_i, got_q = symbols[(1, r_plus)]
        if (got_i, got_q) != (mask(want_i), mask(want_q)):
            delivery_ok = False
            detail = f"subset {r_plus}: I={labels(got_i)} Q={labels(got_q)}"
            break
    record("s1_delivery_symbols", delivery_ok, detail)

    skipped_s1 = {r_plus for s, r_plus in dset.skipped if s == 1}
    record("s1_skips_only_34", skipped_s1 == {(3, 4)}, f"got {sorted(skipped_s1)}")

    sent = zip(dset.pairs[(1, (2, 3))], dset.pairs[(1, (2, 4))])
    record("s1_skip_reconstruction", reconstructed_pair(dset, 1, (3, 4)) == tuple(a ^ b for a, b in sent))

    record("total_transmitted_100", dset.transmitted_count == 100, f"T={dset.transmitted_count}")
    record("rate_5_3", dset.rate() == Fraction(5, 3), f"rate={dset.rate()}")

    return GoldenReport(checks=tuple(checks))


# ---------------------------------------------------------------------------
# serialization


def _params_dict(params: SchemeParams) -> dict:
    return {"n_files": params.n_files, "n_users": params.n_users, "r": params.r}


def report_json_dict(report: VerificationReport, timing: bool = False) -> dict:
    out = {
        "params": _params_dict(report.params),
        "demand": list(report.demand),
        "engine": report.engine,
        "seed": report.seed,
        "payload_width": report.payload_width,
        "success": report.success,
        "per_user": list(report.per_user),
        "T": report.t_count,
        "rate": {
            "measured": format_fraction(report.rate_measured),
            "formula": format_fraction(report.rate_formula),
        },
        "memory": {
            "measured": format_fraction(report.memory_measured),
            "formula": format_fraction(report.memory_formula),
        },
        "oracle": report.oracle_ok,
    }
    if timing:
        out["elapsed_ms"] = round(1000 * (report.engine_seconds + report.oracle_seconds), 3)
    return out


def sweep_json_dict(sweep: SweepReport, timing: bool = False) -> dict:
    out = {
        "params": _params_dict(sweep.params),
        "demand_class": sweep.demand_class,
        "engine": sweep.engine,
        "seed": sweep.seed,
        "count": sweep.count,
        "success": sweep.success,
        "oracle": sweep.oracle_ok,
        "memory": format_fraction(sweep.reports[0].memory_measured) if sweep.reports else None,
        "per_type": sweep.per_type(),
        "failures": [list(r.demand) for r in sweep.failures],
    }
    if timing:
        out["elapsed_ms"] = round(1000 * (sweep.engine_seconds + sweep.oracle_seconds), 3)
    return out


SWEEP_CSV_HEADER = (
    "n_files,n_users,r,demand,success,T,rate,rate_formula,memory,memory_formula,oracle"
)


def reports_csv_rows(reports: Sequence[VerificationReport]) -> list[str]:
    rows = [SWEEP_CSV_HEADER]
    for r in reports:
        oracle = "" if r.oracle_ok is None else str(r.oracle_ok).lower()
        rows.append(
            ",".join(
                [
                    str(r.params.n_files),
                    str(r.params.n_users),
                    str(r.params.r),
                    " ".join(str(x) for x in r.demand),
                    str(r.success).lower(),
                    str(r.t_count),
                    format_fraction(r.rate_measured),
                    format_fraction(r.rate_formula),
                    format_fraction(r.memory_measured),
                    format_fraction(r.memory_formula),
                    oracle,
                ]
            )
        )
    return rows


def identity_json_dict(report: IdentityReport) -> dict:
    return {
        "params": _params_dict(report.params),
        "demands": [list(d) for d in report.demands],
        "success": report.success,
        "families": {
            name: {
                "checked": result.checked,
                "failed": len(result.failures),
                "failures": list(result.failures),
            }
            for name, result in report.families.items()
        },
    }


def golden_json_dict(report: GoldenReport) -> dict:
    return {
        "success": report.success,
        "checks": [
            {"name": check.name, "ok": check.ok, "detail": check.detail}
            for check in report.checks
        ],
    }


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"
