import ast
import concurrent.futures
import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fdcache import algebra, cli, harness, scheme
from fdcache.algebra import MaskValues, segment, segment_index
from fdcache.analysis import type_operating_point
from fdcache.core import (
    DemandType,
    NotFullyDemandedError,
    SchemeParams,
    UsageError,
    binom,
    count_demands,
    demand_type,
    enumerate_demands,
    leader_sets,
)
from fdcache.harness import (
    SweepLimitExceeded,
    golden_example_check,
    golden_json_dict,
    identity_json_dict,
    identity_suite,
    report_json_dict,
    reports_csv_rows,
    sample_fully_demanded,
    sweep_json_dict,
    to_json,
    verify_demand,
    verify_sweep,
)

RUN = SchemeParams(3, 6, 1)
RUN_D = (1, 1, 1, 1, 2, 3)


def test_verify_running_example():
    report = verify_demand(RUN, RUN_D)
    assert report.success
    assert report.t_count == 100
    assert report.rate_measured == Fraction(5, 3)
    assert report.memory_measured == Fraction(11, 15)
    assert report.oracle_ok is True
    assert report.oracle_agreement


def test_verify_smallest_instance():
    report = verify_demand(SchemeParams(2, 2, 0), (1, 2))
    assert report.success
    assert report.memory_measured == Fraction(1, 2)
    assert report.rate_measured == Fraction(1)


def test_verify_distinct_requests_three_users():
    report = verify_demand(SchemeParams(3, 3, 1), (1, 2, 3))
    assert report.success
    assert (report.memory_measured, report.rate_measured) == (Fraction(5, 3), Fraction(1, 2))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_system_decodes_as_the_oracle_and_the_type_point_say(data):
    k = data.draw(st.integers(1, 8), label="K")
    params = SchemeParams(data.draw(st.integers(1, k), label="N"), k, data.draw(st.integers(0, k - 1), label="r"))
    rank = data.draw(st.integers(0, count_demands(params, "fully_demanded") - 1), label="rank")
    demand = harness._unrank_fully_demanded(params, rank)
    report = verify_demand(params, demand, engine="both")
    assert report.success
    assert report.oracle_ok == report.decode_ok
    assert report.rate_measured == type_operating_point(params, demand_type(params, demand)).rate


def test_verify_rejects_partial_demand():
    with pytest.raises(NotFullyDemandedError):
        verify_demand(RUN, (1, 1, 1, 1, 2, 2))


def test_prefetch_all_refuses_caches_of_different_sizes(monkeypatch):
    # symmetry is a per-system fact, checked once where the caches are made
    prefetch = harness.prefetch

    def short_of_one_row(params, k):
        cache = prefetch(params, k)
        return dataclasses.replace(cache, row=dict(list(cache.row.items())[1:])) if k == 2 else cache

    monkeypatch.setattr(harness, "prefetch", short_of_one_row)
    with pytest.raises(RuntimeError, match="users cache different amounts"):
        harness._prefetch_all.__wrapped__(RUN)


def test_verify_engine_choices():
    for engine in ("symbolic", "payload", "both"):
        report = verify_demand(SchemeParams(3, 3, 1), (1, 2, 3), engine=engine, run_oracle=False)
        assert report.success
        assert report.oracle_ok is None
    with pytest.raises(ValueError):
        verify_demand(SchemeParams(3, 3, 1), (1, 2, 3), engine="quantum")


@pytest.mark.parametrize("r", range(3))
def test_sweep_three_three(r):
    sweep = verify_sweep(SchemeParams(3, 3, r), "fully_demanded")
    assert sweep.count == 6
    assert sweep.success
    assert sweep.oracle_ok is True
    assert not sweep.failures


def test_sweep_single_type_uniform_t():
    sweep = verify_sweep(RUN, DemandType.of((4, 1, 1)))
    assert sweep.count == 90
    assert sweep.success
    assert all(report.t_count == 100 for report in sweep.reports)
    rows = sweep.per_type()
    assert rows == [
        {"type": [4, 1, 1], "demands": 90, "T": [100], "uniform": True, "rate": "5/3"}
    ]


def test_sweep_rejects_mixed_and_partial_types():
    with pytest.raises(NotFullyDemandedError):
        verify_sweep(SchemeParams(3, 3, 1), "mixed")
    with pytest.raises(NotFullyDemandedError):
        verify_sweep(SchemeParams(3, 3, 1), (2, 1, 0))


def test_sweep_limit_guard(monkeypatch):
    # (3,4) r=1 has 36 fully demanded vectors: the ceiling is inclusive
    monkeypatch.setattr(harness, "SWEEP_LIMIT", 36)
    assert verify_sweep(SchemeParams(3, 4, 1), "fully_demanded").count == 36
    monkeypatch.setattr(harness, "SWEEP_LIMIT", 35)
    with pytest.raises(SweepLimitExceeded, match="36 demands exceed the limit of 35"):
        verify_sweep(SchemeParams(3, 4, 1), "fully_demanded")


def _package_caches():
    """Every module-level lru_cache of the package, by qualified name."""
    return {
        f"{module.__name__}.{name}": value
        for module in (algebra, harness, scheme)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    }


def _cache_sizes():
    return {name: cached.cache_info().currsize for name, cached in _package_caches().items()}


def _clear_caches():
    # start cold, so that demands met by earlier tests count too
    for cached in _package_caches().values():
        cached.cache_clear()


def test_sweep_keeps_no_per_demand_transform_state():
    # transforms are read from the demand's own exponent table, so once a
    # sweep of one type has filled the per-parameters caches, sweeping the
    # whole class must not add a cache entry for any demand
    params = SchemeParams(3, 5, 1)
    _clear_caches()
    assert verify_sweep(params, DemandType.of((3, 1, 1))).success
    before = _cache_sizes()
    sweep = verify_sweep(params, "fully_demanded")
    assert sweep.count == 150 and sweep.success
    assert _cache_sizes() == before


def test_identity_suite_keeps_no_per_demand_transform_state():
    # the transformed-sum family reads the demand's exponents directly, so
    # sampling more demands must not grow any cache
    params = SchemeParams(3, 5, 1)
    _clear_caches()
    assert identity_suite(params, demands=[(1, 1, 1, 2, 3)]).success
    before = _cache_sizes()
    demands = [(1, 2, 3, 3, 3), (2, 1, 3, 1, 2)]
    suite = identity_suite(params, demands=demands)
    assert suite.success and suite.families["transformed_sum"].checked > 0
    assert _cache_sizes() == before


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize(
    "jobs,cpus,workers",
    [(5000, 4, 4), (5000, 64, 6), (3, 64, 3), (5000, None, None), (1, 64, None)],
)
def test_sweep_clamps_worker_count(monkeypatch, jobs, cpus, workers):
    # (3,3) r=1 has 6 fully demanded vectors; None means no pool is started
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "created", [])
    params = SchemeParams(3, 3, 1)
    sweep = verify_sweep(params, "fully_demanded", jobs=jobs)
    assert _SerialPool.created == ([] if workers is None else [workers])
    assert reports_csv_rows(sweep.reports) == reports_csv_rows(verify_sweep(params, "fully_demanded", jobs=1).reports)


def test_sweep_parallel_matches_serial_bytes():
    params = SchemeParams(3, 4, 2)
    serial = verify_sweep(params, "fully_demanded", jobs=1)
    parallel = verify_sweep(params, "fully_demanded", jobs=2)
    assert to_json(sweep_json_dict(serial)) == to_json(sweep_json_dict(parallel))
    assert reports_csv_rows(serial.reports) == reports_csv_rows(parallel.reports)


def test_report_serialization_stable():
    report = verify_demand(SchemeParams(3, 3, 1), (1, 2, 3), seed="9")
    again = verify_demand(SchemeParams(3, 3, 1), (1, 2, 3), seed="9")
    assert to_json(report_json_dict(report)) == to_json(report_json_dict(again))
    payload = report_json_dict(report)
    assert payload["rate"] == {"measured": "1/2", "formula": "1/2"}
    assert "elapsed_ms" not in payload
    assert "elapsed_ms" in report_json_dict(report, timing=True)


def test_payload_seed_changes_bytes_not_outcome():
    a = verify_demand(RUN, RUN_D, seed="1")
    b = verify_demand(RUN, RUN_D, seed="2")
    assert a.success and b.success
    assert report_json_dict(a)["seed"] != report_json_dict(b)["seed"]


def test_sweep_csv_shape():
    sweep = verify_sweep(SchemeParams(2, 2, 0), "fully_demanded")
    rows = reports_csv_rows(sweep.reports)
    assert rows[0].startswith("n_files,n_users,r,demand,")
    assert rows[1] == "2,2,0,1 2,true,4,1,1,1/2,1/2,true"
    assert len(rows) == 3


def test_sample_fully_demanded_deterministic():
    first = sample_fully_demanded(RUN, 10)
    second = sample_fully_demanded(RUN, 10)
    assert first == second
    assert len(first) == 10
    assert len(set(first)) == 10
    small = sample_fully_demanded(SchemeParams(3, 3, 1), 10)
    assert len(small) == 6  # fewer demands than requested


def _sample_by_enumeration(params, count):
    demands = enumerate_demands(params, "fully_demanded")
    if len(demands) <= count:
        return demands
    return [demands[i] for i in sorted({i * len(demands) // count for i in range(count)})]


@pytest.mark.parametrize("params", [SchemeParams(2, 2, 0), SchemeParams(2, 4, 1), SchemeParams(3, 4, 1)])
def test_sample_fully_demanded_matches_enumeration(params):
    total = len(enumerate_demands(params, "fully_demanded"))
    for count in range(total + 2):
        assert sample_fully_demanded(params, count) == _sample_by_enumeration(params, count)


def test_sample_fully_demanded_keeps_only_the_picks():
    tracemalloc.start()
    try:
        sample = sample_fully_demanded(SchemeParams(4, 9, 1), 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sample) == 10
    assert peak < 1 << 20


def test_identity_suite_families_and_json():
    suite = identity_suite(SchemeParams(3, 3, 2))
    assert suite.success
    fams = suite.families
    assert fams["skip_reconstruction"].checked == 0  # no skips at K = N
    assert fams["parity_closure"].checked > 0
    payload = identity_json_dict(suite)
    assert payload["success"] is True
    assert set(payload["families"]) == {
        "parity_closure",
        "delivery_redundancy",
        "skip_reconstruction",
        "transformed_sum",
    }


def test_identity_suite_explicit_demand():
    suite = identity_suite(RUN, demands=[RUN_D])
    assert suite.success
    assert suite.demands == (RUN_D,)
    assert suite.families["skip_reconstruction"].checked == 20  # 10 skips x 2 channels


def test_identity_suite_rejects_partial_demand():
    with pytest.raises(NotFullyDemandedError):
        identity_suite(RUN, demands=[(1, 1, 1, 1, 2, 2)])


def test_identity_suite_rejects_an_empty_demand_list():
    with pytest.raises(ValueError, match="no demands"):
        identity_suite(RUN, demands=[])


@pytest.mark.parametrize("samples", [0, -3])
def test_identity_suite_rejects_samples_below_one(monkeypatch, samples):
    def no_sample(*args):
        raise AssertionError("sampled demands")

    monkeypatch.setattr(harness, "sample_fully_demanded", no_sample)
    with pytest.raises(ValueError, match="samples"):
        identity_suite(RUN, samples=samples)


def test_identity_suite_refuses_samples_past_the_sweep_limit(monkeypatch):
    def no_sample(*args):
        raise AssertionError("sampled demands")

    monkeypatch.setattr(harness, "sample_fully_demanded", no_sample)
    with pytest.raises(SweepLimitExceeded, match="100001 samples exceed the limit of 100000"):
        identity_suite(RUN, samples=harness.SWEEP_LIMIT + 1)


def test_identity_suite_builds_one_selection_list_per_skipped_pair(monkeypatch):
    # reconstructed_pair calls skip_combination once per skipped pair, and
    # both skip families read the rebuilt pair instead of building more
    built, calls = [], []
    real = scheme.skip_combination

    def captured(params, d):
        built.append(scheme.delivery(params, d))
        return built[-1]

    def counted(dset, s, r_plus):
        calls.append((dset.demand, s, r_plus))
        return real(dset, s, r_plus)

    monkeypatch.setattr(harness, "delivery", captured)
    monkeypatch.setattr(scheme, "skip_combination", counted)
    suite = identity_suite(SchemeParams(4, 10, 1), samples=3)
    assert suite.success and len(built) == 3
    assert sorted(calls) == sorted((dset.demand, *key) for dset in built for key in dset.skipped)


@pytest.mark.parametrize("engine", harness.ENGINES)
def test_verify_calls_the_skip_rule_once_per_skipped_pair(monkeypatch, engine):
    # delivery makes no rule call; each user's lift calls it once for each
    # skipped pair of that user, so a verify makes one call per skipped pair
    params = SchemeParams(3, 8, 1)
    calls = []
    real = scheme.skip_combination

    def counted(dset, s, r_plus):
        calls.append((s, r_plus))
        return real(dset, s, r_plus)

    monkeypatch.setattr(scheme, "skip_combination", counted)
    skipped = 0
    for d in sample_fully_demanded(params, 20):
        calls.clear()
        dset = scheme.delivery(params, d)
        assert calls == []
        assert verify_demand(params, d, engine=engine, run_oracle=False).success
        assert sorted(calls) == sorted(dset.skipped)
        skipped += len(dset.skipped)
    assert skipped > 0


# one demand per system, with the number of pairs it transmits
NEEDED_SYMBOL_CASES = [
    ((3, 6, 1), (1, 1, 1, 1, 2, 3), 50),
    ((4, 6, 2), (1, 1, 2, 2, 3, 4), 60),
    ((3, 8, 1), (1, 1, 1, 2, 2, 2, 3, 3), 120),
]


@pytest.mark.parametrize("params,demand,sent", NEEDED_SYMBOL_CASES)
def test_every_transmitted_symbol_is_needed(params, demand, sent):
    # the skip rule drops exactly the redundant symbols: with any one more
    # pair left out, some user can no longer span its file
    params = SchemeParams(*params)
    dset = scheme.delivery(params, demand)
    assert len(dset.pairs) == sent
    assert all(harness._oracle_flags(dset))
    for key, pair in dset.pairs.items():
        pairs = {other: kept for other, kept in dset.pairs.items() if other != key}
        fewer = dataclasses.replace(dset, pairs=pairs, skipped={**dset.skipped, key: pair})
        assert not all(harness._oracle_flags(fewer)), key


def test_oracle_cannot_see_a_corrupted_item(monkeypatch):
    # a corrupted item is only a different vector, and the user's span can
    # still hold its file: the fixed decoding plan is stricter than rank
    # decodability, so the oracle passes where the decoder fails
    index = segment_index(RUN)
    dset = scheme.delivery(RUN, RUN_D)
    key = (2, (1, 3))  # user 1 eliminates it for segment (1, {3}, 2)
    mask_i, mask_q = dset.pairs[key]
    stray = 1 << index[segment(3, (4,), 5, "I")]
    flipped = dataclasses.replace(dset, pairs={**dset.pairs, key: (mask_i ^ stray, mask_q)})
    assert harness._oracle_flags(flipped) == [True] * 6
    with monkeypatch.context() as patch:
        patch.setattr(harness, "delivery", lambda params, d: flipped)
        report = verify_demand(RUN, RUN_D, engine="symbolic")
    assert report.per_user == (False, False, False, False, True, True) and report.oracle_ok

    _corrupt_column_parity(monkeypatch)
    monkeypatch.setattr(harness, "_cache_spans", harness._cache_spans.__wrapped__)  # spans of the corrupted cache
    assert harness._oracle_flags(dset) == [True] * 6
    report = verify_demand(RUN, RUN_D, engine="symbolic")
    assert report.per_user == (False, True, True, True, True, True) and report.oracle_ok


def _cache_first_flags(params, dset):
    """The oracle as one per-user loop: each user's cache basis, copied, with
    every transmitted row inserted, must span the unit rows of its file."""
    per_file = segment_index(params).per_file
    rows = [mask for pair in dset.pairs.values() for mask in pair]
    flags = []
    for (span, _), f in zip(harness._cache_spans(params), dset.demand):
        joined = span.copy()
        joined.insert_rows(rows)
        flags.append(joined.spans(1 << i for i in range((f - 1) * per_file, f * per_file)))
    return flags


# (3,4) r=1 has 28 cache pivots against 24 broadcast rows, (3,6) r=1 has 44 against 100-108
ORACLE_SIDES = [((3, 4, 1), (1, 1, 2, 3)), ((3, 6, 1), RUN_D)]


@pytest.mark.parametrize("params,demand", ORACLE_SIDES)
def test_oracle_matches_the_cache_first_loop(params, demand):
    # the join starts from either side and gives the same verdicts: on every
    # fully demanded demand, and with each transmitted pair of one demand
    # dropped in turn, where some user always fails
    params = SchemeParams(*params)
    for d in enumerate_demands(params, "fully_demanded"):
        dset = scheme.delivery(params, d)
        assert harness._oracle_flags(dset) == _cache_first_flags(params, dset) == [True] * params.n_users
    dset = scheme.delivery(params, demand)
    for key in dset.pairs:
        fewer = dataclasses.replace(dset, pairs={other: pair for other, pair in dset.pairs.items() if other != key})
        flags = harness._oracle_flags(fewer)
        assert flags == _cache_first_flags(params, fewer) and not all(flags), key


def test_oracle_matches_the_cache_first_loop_on_a_corrupted_cache(monkeypatch):
    # both joins read the caches only through _cache_spans: the corrupted
    # basis leaves user 1 short of its file on some demands
    genuine = harness._cache_spans(RUN)
    _corrupt_column_parity(monkeypatch)
    corrupted = harness._cache_spans.__wrapped__(RUN)
    assert corrupted[0][0].pivots != genuine[0][0].pivots
    monkeypatch.setattr(harness, "_cache_spans", lambda params: corrupted)
    failing = 0
    for d in enumerate_demands(RUN, "fully_demanded"):
        dset = scheme.delivery(RUN, d)
        flags = harness._oracle_flags(dset)
        assert flags == _cache_first_flags(RUN, dset)
        failing += not all(flags)
    assert failing > 0


# rows each insert_rows of one demand's oracle takes: (4,6) r=2 sends 120
# rows against 204 cache pivots, and (3,8) r=1 sends 240 against 60
ORACLE_INSERTS = [
    ((4, 6, 2), (1, 1, 2, 2, 3, 4), [120] * 6),
    ((3, 8, 1), (1, 1, 1, 2, 2, 2, 3, 3), [240] + [60] * 8),
]


@pytest.mark.parametrize("params,demand,inserts", ORACLE_INSERTS)
def test_oracle_eliminates_the_broadcast_once_when_it_is_larger(monkeypatch, params, demand, inserts):
    # a broadcast larger than the cache basis is eliminated once per demand
    # and each user's pivots go into a copy; a smaller one goes into a copy
    # of each user's cache basis
    params = SchemeParams(*params)
    dset = scheme.delivery(params, demand)
    harness._cache_spans(params)  # set-up inserts its rows before the count
    inserted = []
    real = algebra.SpanBasis.insert_rows

    def counted(self, rows):
        rows = list(rows)
        inserted.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(algebra.SpanBasis, "insert_rows", counted)
    assert all(harness._oracle_flags(dset))
    assert inserted == inserts


def test_verify_demand_generates_each_users_rows_once(monkeypatch):
    calls = []
    real = scheme.decode_rows

    def counted(dset, cache, lifted):
        calls.append(cache.owner)
        return real(dset, cache, lifted)

    monkeypatch.setattr(scheme, "decode_rows", counted)
    demands = [RUN_D, (3, 2, 1, 1, 2, 3), (1, 2, 3, 3, 3, 3)]
    for d in demands:
        assert verify_demand(RUN, d, engine="both").success
    assert calls == list(RUN.users) * len(demands)


def test_rows_are_checked_as_they_are_made(monkeypatch):
    # user 1's check stops at its first failing class-2 row: the rows after
    # it are never made.  Symbol (1, {2, 3}) excludes user 1, so no class-1
    # row of user 1 reads it, and the first of its five class-2 rows does:
    # that row's sum is the pristine row's with the flipped bit
    made = []
    real = scheme.decode_rows

    def counted(*args):
        for row in real(*args):
            made.append(row)
            yield row

    monkeypatch.setattr(scheme, "decode_rows", counted)
    dset = scheme.delivery(RUN, RUN_D)
    key = (1, (2, 3))
    mask_i, mask_q = dset.pairs[key]
    flipped = dataclasses.replace(dset, pairs={**dset.pairs, key: (mask_i ^ 1, mask_q)})
    failing = [bad for s in RUN.users for bad in scheme.failing_symbols(flipped, scheme.lift(flipped, s))]
    assert key in failing and not any(1 in r_plus for _, r_plus in failing)
    assert not scheme.rows_hold(flipped, harness._prefetch_all(RUN)[0], scheme.lift(flipped, 1))
    assert len(made) == 1
    pristine = next(real(dset, harness._prefetch_all(RUN)[0], scheme.lift(dset, 1)))
    assert made[-1][:2] == pristine[:2]
    assert tuple(a ^ b for a, b in zip(made[-1][2], pristine[2])) == (1, 0)


def test_a_lookup_bug_in_decoding_is_no_decode_failure(monkeypatch, capsys):
    # only a missing segment fails a user's decoding: a row that names a
    # closure key no cache has is a bug, so verify_demand raises its KeyError
    # and the CLI exits 3 on it, never 1 as on a failed check
    real = scheme._equations

    def broken(params, k):
        held, rows = real(params, k)
        (offset, r_set, members, symbols), *rest = rows
        (t, _r_minus), *others = members
        return held, ((offset, r_set, ((t, (0,)), *others), symbols), *rest)

    monkeypatch.setattr(scheme, "_equations", broken)
    for engine in harness.ENGINES:
        with pytest.raises(KeyError):
            verify_demand(RUN, RUN_D, engine=engine)
    assert cli.main(["verify", "--n", "3", "--k", "6", "--r", "1", "--demand", "1,1,1,1,2,3"]) == 3
    assert "internal error: KeyError" in capsys.readouterr().err


@pytest.mark.parametrize("engine", harness.ENGINES)
def test_each_symbol_identity_is_summed_once_per_demand(monkeypatch, engine):
    # every user's class-1 rows read one shared identity per symbol, so a
    # demand sums K C(K-1, r+1) of them, 60 at (3,6) r=1, each symbol's
    # once, whatever the engine, and still makes each user's class-2 rows
    # once.  symbol_identities yields each sum as it is made
    sums, rows = [], []
    real_pass, real_identities, real_rows = scheme.failing_symbols, scheme.symbol_identities, scheme.decode_rows

    def counted_identities(dset, lifted):
        for key, residual in real_identities(dset, lifted):
            sums.append((dset.demand, key))
            yield key, residual

    def counted_pass(dset, lifted):
        with monkeypatch.context() as patch:
            patch.setattr(scheme, "symbol_identities", counted_identities)
            return real_pass(dset, lifted)

    def counted_rows(dset, cache, lifted):
        rows.append(cache.owner)
        return real_rows(dset, cache, lifted)

    monkeypatch.setattr(scheme, "failing_symbols", counted_pass)
    monkeypatch.setattr(scheme, "decode_rows", counted_rows)
    demands = [RUN_D, (3, 2, 1, 1, 2, 3), (1, 2, 3, 3, 3, 3)]
    for d in demands:
        assert verify_demand(RUN, d, engine=engine, run_oracle=False).success
    assert len(sums) == RUN.n_users * binom(RUN.n_users - 1, RUN.r + 1) * len(demands) == 60 * len(demands)
    assert len(set(sums)) == len(sums)
    assert rows == list(RUN.users) * len(demands)


def _reference_user_ok(dset, cache, k, lifts):
    """The per-row check: user k holds each of its uncoded hits, and each
    class-1 row (s != k), the broadcast symbol over r_set | {k} read from
    the Lift of s and the member segments user k caches uncoded, each
    membership tested on cache.uncoded, sums to MIX**undo of its target
    pair.  Class-2 rows are read from decode_rows on user k's Lift and a
    copy of the cache that holds every segment, so holding is decided here
    alone."""
    params, demand, exponents = dset.params, dset.demand, dset.exponents
    index = segment_index(params)
    units = lifts[k].units

    def held(file, r_set, s):
        return cache.uncoded >> index.slot(file, r_set, s) & 3 == 3

    for r_set, s in index.offsets:
        if k in r_set:
            if not held(demand[k - 1], r_set, s):
                return False
        elif s != k:
            r_plus = tuple(sorted(r_set + (k,)))
            terms = [(*lifts[s].broadcast[(s, r_plus)], 0)]
            for i in r_set:
                rest = tuple(u for u in r_plus if u != i)
                if not held(demand[i - 1], rest, s):
                    return False
                position = index.slot(demand[i - 1], rest, s)
                terms.append((units[position], units[position + 1], exponents[i - 1][s - 1]))
            target = index.slot(demand[k - 1], r_set, s)
            if scheme.mix_sum(terms) != scheme.mix(exponents[k - 1][s - 1], units[target], units[target + 1]):
                return False
    everything = dataclasses.replace(cache, uncoded=(1 << index.size) - 1)
    return all(pair == scheme.mix(undo, units[target], units[target + 1])
               for target, undo, pair in scheme.decode_rows(dset, everything, lifts[k]))


def _lifts(params, dset):
    """Every user's Lift, keyed by user, of the identity lift, of a lift
    through payload values, and of one through payload values above the
    masks, as the three engines lift."""
    index = segment_index(params)
    engines = (None, MaskValues.random(index, 4, "reference"), MaskValues.random(index, 4, "reference", masks=True))
    return [{s: scheme.lift(dset, s, values) for s in params.users} for values in engines]


def _assert_verdicts_match_reference(params, dset, caches):
    """The verdicts of the caches' owners, from every user's symbol pass and
    their own class-2 rows, equal _reference_user_ok's on every lift;
    returns how many failed."""
    failed = 0
    for lifts in _lifts(params, dset):
        failing = [bad for s in params.users for bad in scheme.failing_symbols(dset, lifts[s])]
        got = [not any(cache.owner in r_plus for _, r_plus in failing)
               and scheme.rows_hold(dset, cache, lifts[cache.owner]) for cache in caches]
        assert got == [_reference_user_ok(dset, cache, cache.owner, lifts) for cache in caches]
        failed += got.count(False)
    return failed


def test_verdicts_equal_the_per_row_reference():
    # sampled demands of every system of the sweeps and of (3,8) r=1
    for system in harness.SWEEP_MATRIX + ((3, 8, 1),):
        params = SchemeParams(*system)
        caches = harness._prefetch_all(params)
        for d in sample_fully_demanded(params, 10):
            assert _assert_verdicts_match_reference(params, scheme.delivery(params, d), caches) == 0


def _faulty_caches(params, cache):
    """Copies of a cache with one uncoded position removed, for each of its
    positions, and with a stray bit in one channel of one cached parity, for
    each channel of each parity."""
    top = segment_index(params).size - 1
    faulty = [dataclasses.replace(cache, uncoded=cache.uncoded & ~(1 << position))
              for position in algebra.bit_positions(cache.uncoded)]
    for field in ("column", "row"):
        parities = getattr(cache, field)
        for key, pair in parities.items():
            for channel in range(2):
                bad = list(pair)
                bad[channel] ^= 1 << (top - channel)
                faulty.append(dataclasses.replace(cache, **{field: {**parities, key: tuple(bad)}}))
    assert len(faulty) == cache.size
    return faulty


def test_faulty_verdicts_equal_the_per_row_reference():
    # (3,6) r=1: a stray bit in each channel of each transmitted pair; then
    # (3,6) r=1 and (4,6) r=2, where a hit's subset can hold a second user:
    # user 1's cache with each uncoded position removed and with each channel
    # of each cached parity given a stray bit
    index = segment_index(RUN)
    dset = scheme.delivery(RUN, RUN_D)
    caches = harness._prefetch_all(RUN)
    stray = 1 << index[segment(3, (4,), 5, "I")]
    failed = 0
    for key in dset.pairs:
        for channel in range(2):
            pair = list(dset.pairs[key])
            pair[channel] ^= stray << channel
            flipped = dataclasses.replace(dset, pairs={**dset.pairs, key: tuple(pair)})
            failed += _assert_verdicts_match_reference(RUN, flipped, caches)
    for params, d in ((RUN, RUN_D), (SchemeParams(4, 6, 2), (1, 1, 2, 2, 3, 4))):
        dset = scheme.delivery(params, d)
        caches = harness._prefetch_all(params)
        for cache in _faulty_caches(params, caches[0]):  # no other user reads user 1's cache
            failed += _assert_verdicts_match_reference(params, dset, (cache,))
    assert failed > 500


def test_symbolic_engine_draws_no_payload(monkeypatch):
    # the identity lift reads every item as its mask: it draws nothing and
    # encodes nothing, neither a transmitted symbol nor a cached parity
    def no_draw(*args):
        raise AssertionError("drew or encoded a payload")

    for name in ("random", "__getitem__"):
        monkeypatch.setattr(MaskValues, name, no_draw)
    report = verify_demand(RUN, RUN_D, engine="symbolic")
    assert report.success and report.oracle_ok


@pytest.mark.parametrize("engine", harness.ENGINES)
def test_every_engine_lifts_each_demand_once(monkeypatch, engine):
    # every engine decodes through one Lift per user and demand, in user
    # order, and together they encode each transmitted mask of the demand
    # exactly once; the identity lift encodes none
    lifts, encoded = [], Counter()
    real, real_value = scheme.lift, MaskValues.__getitem__

    def counted(dset, s, values=None):
        lifts.append((dset.demand, s))
        return real(dset, s, values)

    def counted_value(self, mask):
        encoded[mask] += 1
        return real_value(self, mask)

    monkeypatch.setattr(scheme, "lift", counted)
    monkeypatch.setattr(MaskValues, "__getitem__", counted_value)
    demands = [RUN_D, (3, 2, 1, 1, 2, 3), (1, 2, 3, 3, 3, 3)]
    for d in demands:
        encoded.clear()
        assert verify_demand(RUN, d, engine=engine, run_oracle=False).success
        pairs = scheme.delivery(RUN, d).pairs
        if engine == "symbolic":
            assert not encoded
        else:  # 2 |pairs| calls, one per transmitted mask
            assert encoded == Counter(mask for pair in pairs.values() for mask in pair)
    assert lifts == [(d, s) for d in demands for s in RUN.users]


def test_checks_build_no_labelled_vectors(monkeypatch):
    # verification, the identity suite and the golden check all work on
    # masks, from prefetch on; a segment label is only for a failure message
    def no_labels(*args, **kwargs):
        raise AssertionError("formatted a segment label")

    harness._prefetch_all.cache_clear()
    harness._cache_spans.cache_clear()
    monkeypatch.setattr(algebra.SegmentId, "label", no_labels)
    sweep = verify_sweep(SchemeParams(3, 5, 1), "fully_demanded", engine="both", run_oracle=True)
    assert sweep.count == 150 and sweep.success and sweep.oracle_ok
    assert identity_suite(RUN, samples=3).success
    assert golden_example_check().success


def test_golden_example_check_passes():
    report = golden_example_check()
    assert report.success
    names = [check.name for check in report.checks]
    assert "user1_row_parities_file1_pruned" in names
    assert "s1_skips_only_34" in names
    payload = golden_json_dict(report)
    assert payload["success"] is True
    assert all(check["ok"] for check in payload["checks"])


# the (4,10) r=1 sample of `fdcache lemmas --samples 10`, as the enumeration picked it
LEMMAS_4X10_SAMPLE = [
    (1, 1, 1, 1, 1, 1, 1, 2, 3, 4),
    (1, 2, 3, 4, 1, 4, 2, 2, 2, 4),
    (1, 4, 1, 4, 4, 2, 2, 3, 4, 4),
    (2, 1, 4, 1, 3, 4, 2, 4, 3, 4),
    (2, 3, 2, 4, 1, 3, 1, 1, 3, 1),
    (3, 1, 1, 1, 1, 1, 1, 1, 2, 4),
    (3, 2, 3, 1, 4, 2, 4, 4, 3, 1),
    (3, 4, 1, 4, 2, 1, 3, 1, 2, 2),
    (4, 1, 4, 1, 1, 3, 3, 2, 1, 2),
    (4, 3, 2, 1, 4, 1, 3, 3, 3, 2),
]


def test_sample_fully_demanded_unranks_its_picks(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the sampler walked the demand vectors")

    monkeypatch.setattr(itertools, "product", no_walk)
    assert sample_fully_demanded(SchemeParams(4, 10, 1), 10) == LEMMAS_4X10_SAMPLE
    # 5^40 vectors: only unranking reaches these
    big = SchemeParams(5, 40, 1)
    sample = sample_fully_demanded(big, 4)
    assert len(sample) == 4 and sample == sorted(set(sample))
    assert all(set(d) == set(big.files) for d in sample)
    assert sample[0] == (1,) * 36 + (2, 3, 4, 5)


# SHA-256 of to_json(identity_json_dict(...)), recorded before the identity
# families moved onto index masks
PINNED_IDENTITY_REPORTS = [
    ((3, 6, 1), {"samples": 10}, "29b9ddc86c99d9215f603a95bc7ef5a4736cb18afa78b00e0d8bb2a4dd07d221"),
    ((2, 4, 0), {}, "9adbcd089cf7373c34ec7e9c50afdd16b070feebc60ec4619d37d6fce0787bae"),
    ((3, 3, 2), {}, "9e9c6b6b7ba314ccd09102b53e0bbb8098d16cefe883cde2531ca4d9b1cb18f6"),
    (
        (4, 10, 1),
        {"demands": [(2, 3, 1, 4, 4, 2, 1, 1, 1, 4), (3, 3, 2, 2, 3, 3, 3, 1, 3, 4), (2, 2, 2, 4, 3, 1, 3, 1, 3, 3)]},
        "1581488c39cc61833a1af851b09de99427b7f0d89b2e443cd3cabcf1e6baf570",
    ),
]


@pytest.mark.parametrize("params,kwargs,digest", PINNED_IDENTITY_REPORTS)
def test_identity_report_bytes_pinned(params, kwargs, digest):
    report = identity_suite(SchemeParams(*params), **kwargs)
    assert hashlib.sha256(to_json(identity_json_dict(report)).encode()).hexdigest() == digest


def _failing_families(report):
    return {name for name, result in report.families.items() if not result.ok}


def _patch_delivery(monkeypatch, change):
    real = harness.delivery

    def corrupted(params, d):
        return change(real(params, d))

    monkeypatch.setattr(harness, "delivery", corrupted)


def _read_by_reconstructions():
    """Every transmitted pair of RUN/RUN_D that the rebuild of some skipped pair reads."""
    dset = scheme.delivery(RUN, RUN_D)
    return sorted({(s, rest) for s, r_plus in dset.skipped for rest, _ in scheme.skip_combination(dset, s, r_plus)})


# (1,(3,4)) and (5,(2,3)) are skipped, (1,(2,3)) is transmitted and rebuilds
# (1,(3,4)); then every other transmitted pair that a rebuild reads
CORRUPTED_SYMBOLS = [(1, (3, 4)), (5, (2, 3)), (1, (2, 3))]
CORRUPTED_SYMBOLS += [key for key in _read_by_reconstructions() if key not in CORRUPTED_SYMBOLS]


def _skip_failures(suite):
    """(s, subset) named by each skip family's failures; a redundancy block
    is the skipped subset with the leaders of s added."""
    leaders = leader_sets(RUN, RUN_D)
    named = {}
    for family, tag in (("delivery_redundancy", "block="), ("skip_reconstruction", "subset=")):
        named[family] = set()
        for failure in suite.families[family].failures:
            s = int(failure.split(" s=")[1].split()[0])
            users = ast.literal_eval(failure.split(tag)[1].split(" ch=")[0])
            named[family].add((s, tuple(u for u in users if u not in leaders[s])))
    return named


@pytest.mark.parametrize("s,r_plus", CORRUPTED_SYMBOLS)
def test_identity_suite_catches_a_corrupted_symbol(monkeypatch, s, r_plus):
    # every one of them sits in a redundancy block of s, and both skip
    # families name the same skipped pairs
    _patch_delivery(monkeypatch, _flip_symbol(s, r_plus))
    suite = identity_suite(RUN, demands=[RUN_D])
    assert _failing_families(suite) == {"delivery_redundancy", "skip_reconstruction"}
    for family in ("delivery_redundancy", "skip_reconstruction"):
        failures = suite.families[family].failures
        assert failures and all(f" s={s} " in failure for failure in failures)
    named = _skip_failures(suite)
    assert named["delivery_redundancy"] == named["skip_reconstruction"]


def test_identity_suite_catches_a_corrupted_reconstruction(monkeypatch):
    # one wrong exponent from the skip rule fails both skip families, at the
    # same skipped pair
    key = (1, (3, 4))
    real = scheme.skip_combination

    def bumped(dset, s, r_plus):
        combination = real(dset, s, r_plus)
        if (s, r_plus) != key:
            return combination
        (rest, e), *others = combination
        return ((rest, (e + 1) % 3), *others)

    monkeypatch.setattr(scheme, "skip_combination", bumped)
    suite = identity_suite(RUN, demands=[RUN_D])
    assert _failing_families(suite) == {"delivery_redundancy", "skip_reconstruction"}
    named = _skip_failures(suite)
    assert named["delivery_redundancy"] == named["skip_reconstruction"] == {key}


def _flip_symbol(s, r_plus):
    def flip(dset):
        field = "skipped" if (s, r_plus) in dset.skipped else "pairs"
        symbols = dict(getattr(dset, field))
        mask_i, mask_q = symbols[(s, r_plus)]
        symbols[(s, r_plus)] = (mask_i ^ 1 << 7, mask_q)
        return dataclasses.replace(dset, **{field: symbols})

    return flip


def _corrupt_parity(monkeypatch, params, kind, owner=3):
    """Flip one Q bit of the owner's last stored parity of the kind."""
    caches = list(harness._prefetch_all(params))
    stored = getattr(caches[owner - 1], kind)
    key = sorted(stored)[-1]
    mask_i, mask_q = stored[key]
    caches[owner - 1] = dataclasses.replace(caches[owner - 1], **{kind: {**stored, key: (mask_i, mask_q ^ 1)}})
    monkeypatch.setattr(harness, "_prefetch_all", lambda p: tuple(caches))


def _bump_exponent(dset):
    # user 5 alone asks for file 2, so its transform toward user 2 is the identity
    rows = [list(row) for row in dset.exponents]
    rows[5 - 1][2 - 1] = 1
    return dataclasses.replace(dset, exponents=tuple(map(tuple, rows)))


@pytest.mark.parametrize("params,kind", [(RUN, "row"), (RUN, "column"), (SchemeParams(3, 4, 2), "row")])
def test_identity_suite_catches_a_corrupted_parity(monkeypatch, params, kind):
    owner = 3
    _corrupt_parity(monkeypatch, params, kind, owner)
    suite = identity_suite(params, samples=2)
    assert _failing_families(suite) == {"parity_closure"}
    failures = suite.families["parity_closure"].failures
    assert failures and all(failure.startswith(f"k={owner} ") for failure in failures)


def test_identity_suite_checks_each_caches_closures_once(monkeypatch):
    # the parity-closure family is a fact of each cache object: two suites
    # read each closure's row parity once per cache, and a copy made with
    # dataclasses.replace compares its own closures, so a corrupted copy
    # patched in after them cannot pass on a stale result
    harness._prefetch_all.cache_clear()
    caches = harness._prefetch_all(RUN)
    pristine = scheme.row_parity_pair
    reads = Counter()

    def counted(params, k, file, r_minus):
        reads[(k, file, r_minus)] += 1
        return pristine(params, k, file, r_minus)

    monkeypatch.setattr(scheme, "row_parity_pair", counted)
    for _ in range(2):
        assert identity_suite(RUN, demands=[RUN_D]).success
    assert reads == Counter((cache.owner, *key) for cache in caches for key in cache.closures)

    owner = 3
    _corrupt_parity(monkeypatch, RUN, "row", owner)
    corrupted = harness._prefetch_all(RUN)[owner - 1]
    suite = identity_suite(RUN, demands=[RUN_D])
    assert _failing_families(suite) == {"parity_closure"}
    want = [
        f"k={owner} f={f} subset={r_minus} ch={channel}"
        for (f, r_minus), got in corrupted.closures.items()
        for channel, got_mask, want_mask in zip(algebra.CHANNELS, got, pristine(RUN, owner, f, r_minus))
        if got_mask != want_mask
    ]
    assert want and list(suite.families["parity_closure"].failures) == want
    assert reads == Counter((cache.owner, *key) for cache in (*caches, corrupted) for key in cache.closures)


def test_identity_suite_catches_a_corrupted_exponent(monkeypatch):
    _patch_delivery(monkeypatch, _bump_exponent)
    suite = identity_suite(RUN, demands=[RUN_D])
    failures = suite.families["transformed_sum"].failures
    assert failures and all(" s=2 " in failure for failure in failures)
    assert suite.families["parity_closure"].ok


# SHA-256 of to_json(identity_json_dict(...)) on RUN/RUN_D under one
# corruption each, recorded before the transformed-sum family became one wide
# residual per demand and before labels were formatted only on failure: they
# pin the order and format of every failure string
PINNED_FAILURE_REPORTS = [
    ("exponent", "86272629b404f4c442680ccf0f0ff93f3c56d5885eb807fe0d0fe867775baba1"),
    ("symbol", "2bf66f4256f2561475b59db397fdf2277a86167d9b340d66efb2a529f246459f"),
    ("row_parity", "ef8a684534d8b9c28bff280ef0ba1f9eeeb3c3b6f567f703e1835821eaa33862"),
]


@pytest.mark.parametrize("corruption,digest", PINNED_FAILURE_REPORTS)
def test_identity_failure_report_bytes_pinned(monkeypatch, corruption, digest):
    if corruption == "exponent":
        _patch_delivery(monkeypatch, _bump_exponent)
    elif corruption == "symbol":
        _patch_delivery(monkeypatch, _flip_symbol(1, (3, 4)))
    else:
        _corrupt_parity(monkeypatch, RUN, "row")
    report = identity_suite(RUN, demands=[RUN_D])
    assert not report.success
    assert hashlib.sha256(to_json(identity_json_dict(report)).encode()).hexdigest() == digest


def _reference_transformed_sum(params, demand, exponents):
    """The transformed-sum family by its definition: for each (s, r_set), the
    XOR of the transformed (d(t), r_set, s) segments over all users t and the
    column parity (r_set, s), compared with zero channel by channel."""
    index = segment_index(params)
    tag = "-".join(map(str, demand))
    checked, failures = 0, []
    for s in params.users:
        for r_set in itertools.combinations([u for u in params.users if u != s], params.r):
            unit = {f: 1 << index.slot(f, r_set, s) for f in params.files}
            terms = [(unit[demand[t - 1]], unit[demand[t - 1]] << 1, exponents[t - 1][s - 1]) for t in params.users]
            residual = scheme.mix_sum(terms + [(unit[f], unit[f] << 1, 0) for f in params.files])
            checked += 2
            failures += [f"d={tag} s={s} subset={r_set} ch={ch}" for ch, mask in zip(algebra.CHANNELS, residual) if mask]
    return checked, tuple(failures)


def test_wide_transformed_sum_matches_the_per_block_reference(monkeypatch):
    # sampled demands of every system up to K = 7, with the real exponent
    # table and with one seeded corrupted entry per demand per round
    rng = random.Random(12)
    tables = {}
    real = harness.delivery
    monkeypatch.setattr(harness, "delivery", lambda p, d: dataclasses.replace(real(p, d), exponents=tables[d]))
    failed = 0
    for k_users in range(2, 8):
        for n_files in range(1, k_users + 1):
            for r in range(k_users):
                params = SchemeParams(n_files, k_users, r)
                demands = sample_fully_demanded(params, 2)
                for round_ in range(3):
                    for d in demands:
                        rows = [list(row) for row in scheme.transform_exponents(params, d)]
                        if round_:
                            t, s = rng.randrange(k_users), rng.randrange(k_users)
                            rows[t][s] = rng.choice([e for e in range(3) if e != rows[t][s]])
                        tables[d] = tuple(map(tuple, rows))
                    family = identity_suite(params, demands=demands).families["transformed_sum"]
                    checked, failures = 0, ()
                    for d in demands:
                        more, bad = _reference_transformed_sum(params, d, tables[d])
                        checked, failures = checked + more, failures + bad
                    assert (family.checked, family.failures) == (checked, failures)
                    assert bool(failures) == bool(round_)
                    failed += len(failures)
    assert failed


# SHA-256 of to_json([report_json_dict(r) for r in sweep.reports]), recorded
# before verify_demand drew its payload as ints
PINNED_VERIFY_REPORTS = [
    ((3, 6, 1), DemandType.of((4, 1, 1)), {"engine": "payload", "payload_width": 3},
     "db16fac2b78993b2b0ab24b08213be332fd39e100af3ddf39c1adcdc577871b9"),
    ((3, 5, 1), "fully_demanded", {"engine": "both"},
     "e264491ff25ee4af14ed021896c83eb9dff79935b3b0fed1f950d8edeb124f85"),
    ((2, 4, 1), "fully_demanded", {"engine": "both", "payload_width": 17, "seed": "x"},
     "6ae6fa519b25e58c92a9af6d89bd37169ff0185f0c46759a6d891b728d27eaf5"),
]


@pytest.mark.parametrize("params,demand_class,kwargs,digest", PINNED_VERIFY_REPORTS)
def test_verify_report_bytes_pinned(params, demand_class, kwargs, digest):
    sweep = verify_sweep(SchemeParams(*params), demand_class, **kwargs)
    rendered = to_json([report_json_dict(r) for r in sweep.reports])
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest


def _flip_held_value(monkeypatch, position, width, shift=0):
    """Flip the top bit of the value every user holds for the segment at
    position, and not the value the server's encodings are made from, as if
    the users had recovered different bytes.  The value starts at bit shift
    of the lifted int."""
    real = scheme.lift

    def flipped(dset, s, values=None):
        lifted = real(dset, s, values)
        if values is None:  # the identity lift holds no drawn value to flip
            return lifted
        units = list(lifted.units)
        units[position] ^= 1 << (shift + 8 * width - 1)
        return lifted._replace(units=units)

    monkeypatch.setattr(scheme, "lift", flipped)


@pytest.mark.parametrize("position,width", [(67, 1), (0, 3), (123, 64)])
def test_payload_check_catches_a_flipped_segment_value(monkeypatch, position, width):
    _flip_held_value(monkeypatch, position, width)
    file = segment_index(RUN).segments[position].file
    report = verify_demand(RUN, RUN_D, engine="payload", payload_width=width)
    assert not report.success
    assert all(not ok for ok, f in zip(report.per_user, RUN_D) if f == file)
    if position == 67:  # W[2;(1);5;Q]: only user 5 reads it
        assert report.per_user == (True, True, True, True, False, True)
    assert verify_demand(RUN, RUN_D, engine="symbolic").per_user == (True,) * 6


def _corrupt_column_parity(monkeypatch):
    """User 1's column parity {2} with W^I[2;{3};1] added to its I mask."""
    caches = harness._prefetch_all(RUN)
    cache = caches[0]
    mask_i, mask_q = cache.column[(2,)]
    stray = 1 << segment_index(RUN)[segment(2, (3,), 1, "I")]
    corrupted = dataclasses.replace(cache, column={**cache.column, (2,): (mask_i ^ stray, mask_q)})
    monkeypatch.setattr(harness, "_prefetch_all", lambda params: (corrupted, *caches[1:]))


@pytest.mark.parametrize("width", [1, 3, 64])
def test_lift_keeps_the_mask_and_value_halves_apart(monkeypatch, width):
    # the both engine lifts each segment to its value above its unit mask, so
    # its one comparison per row is exactly the payload and symbolic checks
    # together, whatever the width of the value
    size = segment_index(RUN).size

    def verdicts(value_fault, engine):
        with monkeypatch.context() as patch:
            if value_fault:  # W[2;(1);5;Q]: only user 5 reads it
                _flip_held_value(patch, 67, width, size if engine == "both" else 0)
            else:
                _corrupt_column_parity(patch)
            return verify_demand(RUN, RUN_D, engine=engine, payload_width=width, run_oracle=False).per_user

    for value_fault in (True, False):
        both, payload, symbolic = (verdicts(value_fault, engine) for engine in ("both", "payload", "symbolic"))
        assert both == tuple(p and s for p, s in zip(payload, symbolic))
        if value_fault:
            assert both == payload == (True, True, True, True, False, True)
            assert symbolic == (True,) * 6
        else:
            assert both == symbolic == (False, True, True, True, True, True)


def test_lifting_holds_each_payload_value_once():
    # the both engine lifts the drawn values where they are held, so it holds
    # no more than the payload engine: the same values and encodings
    verify_demand(RUN, RUN_D, engine="both", run_oracle=False)  # fills the per-system caches
    peaks = {}
    for engine in ("payload", "both"):
        tracemalloc.start()
        try:
            verify_demand(RUN, RUN_D, engine=engine, payload_width=16384, run_oracle=False)
            peaks[engine] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["both"] <= 1.1 * peaks["payload"]


def test_a_payload_verify_holds_one_users_encoded_symbols():
    # each excluded user's pass lifts, checks and drops its own share of the
    # broadcast, so above the drawn values (index.size values of 16 KiB) a
    # payload verify holds about 43 values, one user's encoded symbols and
    # the sums its checks make; about 131 when one Lift held every user's
    width = 16384
    verify_demand(RUN, RUN_D, engine="payload", run_oracle=False)  # fills the per-system caches
    tracemalloc.start()
    try:
        verify_demand(RUN, RUN_D, engine="payload", payload_width=width, run_oracle=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - segment_index(RUN).size * width < 64 * width


def test_payload_value_xors_pinned(monkeypatch):
    # every XOR a 64 KiB payload value takes part in is a 64 KiB copy: count
    # them for one demand, with counting ints as the segment values, in the
    # users' lifts, symbol passes and class-2 rows.  Each transmitted mask is
    # encoded from its lowest bit's value (260 lift XORs when each started
    # from a 0: one per transmitted mask), uncoded hits are no rows, columns
    # and closures are lifted with no 0-seeded copy, each row reads one
    # closure per member, a closure no row reads is never lifted (668 row
    # XORs when all 18 were: 2 unread, 8 XORs each), and each sum starts
    # from its first item.  The lift sums each of the 10 skipped pairs once
    # from its transmitted pairs (32 XORs), and the identities and rows read
    # that one pair: 352 symbol and 652 row XORs, 1164 in all, when each
    # skipped symbol's 2 or 3 terms were summed again by its identity and by
    # every row reading it.  The rows still count MIX**undo of each
    # target's values
    xors = {"lift": 0, "symbols": 0, "rows": 0}
    phase = []

    class Counting(int):
        def __xor__(self, other):
            xors[phase[-1]] += 1
            return Counting(int.__xor__(self, other))

        __rxor__ = __xor__

    draw, lift, symbols = MaskValues.random.__func__, scheme.lift, scheme.failing_symbols
    rows_hold = scheme.rows_hold

    def counted(name, call):
        def wrapped(*args):
            phase.append(name)
            try:
                return call(*args)
            finally:
                phase.pop()

        return wrapped

    def counting_values(cls, index, width, seed, masks=False):
        return cls([Counting(v) for v in draw(cls, index, width, seed, masks).segment_values])

    monkeypatch.setattr(MaskValues, "random", classmethod(counting_values))
    monkeypatch.setattr(scheme, "lift", counted("lift", lift))
    monkeypatch.setattr(scheme, "failing_symbols", counted("symbols", symbols))
    monkeypatch.setattr(scheme, "rows_hold", counted("rows", rows_hold))
    assert verify_demand(RUN, RUN_D, engine="payload", run_oracle=False).success
    assert xors == {"lift": 192, "symbols": 320, "rows": 588}


def test_verify_demand_refuses_a_payload_past_the_ceiling(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew a payload past the ceiling")

    monkeypatch.setattr(MaskValues, "random", no_draw)
    width = harness.MAX_PAYLOAD_BYTES // segment_index(RUN).size + 1
    for engine in ("payload", "both"):
        with pytest.raises(ValueError, match="exceeds"):
            verify_demand(RUN, RUN_D, engine=engine, payload_width=width)


def test_payload_ceiling_is_inclusive(monkeypatch):
    monkeypatch.setattr(harness, "MAX_PAYLOAD_BYTES", 2 * segment_index(RUN).size)
    assert verify_demand(RUN, RUN_D, engine="payload", payload_width=2).success
    with pytest.raises(ValueError, match="exceeds"):
        verify_demand(RUN, RUN_D, engine="payload", payload_width=3)


@pytest.mark.parametrize("kwargs,message", [
    ({"engine": "fast"}, "engine must be one of"),
    ({"payload_width": 0}, "payload_width must be at least 1"),
    ({"engine": "payload", "payload_width": harness.MAX_PAYLOAD_BYTES}, "exceeds"),
], ids=["engine", "width", "payload"])
def test_bad_verify_input_is_refused_before_any_set_up(monkeypatch, kwargs, message):
    def no_set_up(*args, **kwargs):
        raise AssertionError("prefetched, delivered or enumerated before refusing")

    for name in ("_prefetch_all", "delivery", "enumerate_demands"):
        monkeypatch.setattr(harness, name, no_set_up)
    with pytest.raises(UsageError, match=message):
        verify_demand(RUN, RUN_D, **kwargs)
    with pytest.raises(UsageError, match=message):
        verify_sweep(RUN, "fully_demanded", **kwargs)
    # a misspelled class is refused by its count, before any enumeration
    with pytest.raises(UsageError, match="'mixed', 'fully_demanded' or a demand type"):
        verify_sweep(RUN, "fully-demanded")


@pytest.mark.parametrize("width", [0, -2])
def test_verify_demand_rejects_payload_width_below_one(monkeypatch, width):
    def no_draw(*args):
        raise AssertionError("drew a payload for a width below one")

    monkeypatch.setattr(MaskValues, "random", no_draw)
    for engine in harness.ENGINES:
        with pytest.raises(UsageError, match="payload_width must be at least 1"):
            verify_demand(RUN, RUN_D, engine=engine, payload_width=width)
