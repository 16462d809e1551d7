"""Acceptance gate: one test per criterion, exact tolerances, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import json
import time
from fractions import Fraction

import pytest

from fdcache.analysis import (
    RatePoint,
    check_point,
    region_33,
    type_operating_point,
    worst_case_operating_point,
)
from fdcache.cli import main
from fdcache.core import SchemeParams, enumerate_fully_demanded_types
from fdcache.harness import (
    IDENTITY_SUITES,
    SWEEP_MATRIX,
    golden_example_check,
    golden_json_dict,
    identity_json_dict,
    identity_suite,
    reports_csv_rows,
    sweep_json_dict,
    to_json,
    verify_sweep,
)

F = Fraction

EXPECTED_SWEEP_SIZES = {(2, 2): 2, (3, 3): 6, (3, 4): 36, (3, 6): 540, (4, 6): 1560}


@pytest.fixture(scope="module")
def sweep_matrix():
    """All criterion-4 sweeps, run once: both engines, every user, oracle on."""
    results = {}
    for n, k, r in SWEEP_MATRIX:
        started = time.perf_counter()
        sweep = verify_sweep(SchemeParams(n, k, r), "fully_demanded", engine="both", seed="0")
        results[(n, k, r)] = (sweep, time.perf_counter() - started)
    return results


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_four_six_operating_points(capsys):
    started = time.perf_counter()
    code, out = run_cli(
        capsys, "tradeoff", "--n", "4", "--k", "6", "--type", "3,1,1,1", "--format", "json"
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    rows = {row["r"]: row for row in json.loads(out)["rows"]}
    expected = {1: ("14/15", "19/10"), 2: ("17/10", "1"), 3: ("37/15", "1/2"), 4: ("97/30", "1/5")}
    for r, (m, rate) in expected.items():
        assert (rows[r]["M"], rows[r]["R"]) == (m, rate)
    assert elapsed < 1.0
    print(f"\n[acceptance] criterion 1: PASS (4,6) type (3,1,1,1) points exact, {elapsed:.3f}s")


def test_criterion_2_single_request_point_recovery(capsys):
    started = time.perf_counter()
    code, out = run_cli(
        capsys, "tradeoff", "--n", "3", "--k", "3", "--type", "1,1,1", "--format", "json"
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    rows = {row["r"]: row for row in json.loads(out)["rows"]}
    assert (rows[1]["M"], rows[1]["R"]) == ("5/3", "1/2")
    assert type_operating_point(SchemeParams(3, 3, 1), (1, 1, 1)) == RatePoint(F(5, 3), F(1, 2))
    assert elapsed < 1.0
    print(f"[acceptance] criterion 2: PASS (3,3) r=1 point (5/3, 1/2) exact, {elapsed:.3f}s")


def test_criterion_3_golden_tables():
    started = time.perf_counter()
    report = golden_example_check()
    elapsed = time.perf_counter() - started
    failures = [check.name for check in report.checks if not check.ok]
    assert report.success, failures
    names = {check.name for check in report.checks}
    assert {"user1_column_parities", "user1_row_parities_file1_pruned",
            "s1_transformed_segments", "s1_delivery_symbols", "s1_skips_only_34"} <= names
    assert elapsed < 1.0
    print(f"[acceptance] criterion 3: PASS golden (3,6) r=1 tables reproduced, {elapsed:.3f}s")


def test_criterion_4_end_to_end_sweeps(sweep_matrix):
    engine_total = 0.0
    oracle_total = 0.0
    for (n, k, r), (sweep, _wall) in sweep_matrix.items():
        assert sweep.count == EXPECTED_SWEEP_SIZES[(n, k)], (n, k, r)
        assert not sweep.failures, f"({n},{k}) r={r}: {[f.demand for f in sweep.failures]}"
        assert all(report.decode_ok for report in sweep.reports)
        engine_total += sweep.engine_seconds
        oracle_total += sweep.oracle_seconds
    assert engine_total < 60.0, f"decode sweeps took {engine_total:.1f}s"
    print(
        f"[acceptance] criterion 4: PASS {sum(s.count for s, _ in sweep_matrix.values())}"
        f" demands decoded bit-exactly on both engines"
        f" ({engine_total:.1f}s engines, {oracle_total:.1f}s oracle)"
    )


def test_criterion_5_rate_and_memory_identities(sweep_matrix):
    checked = 0
    for (n, k, r), (sweep, _wall) in sweep_matrix.items():
        for report in sweep.reports:
            assert report.rate_measured == report.rate_formula, report.demand
            assert report.memory_measured == report.memory_formula, report.demand
            checked += 1
        assert all(row["uniform"] for row in sweep.per_type())
    print(f"[acceptance] criterion 5: PASS exact rate/memory identities on {checked} demands")


def test_criterion_6_identity_suites():
    started = time.perf_counter()
    for n, k, r in IDENTITY_SUITES:
        suite = identity_suite(SchemeParams(n, k, r), samples=10)
        assert len(suite.demands) >= 10
        for name, family in suite.families.items():
            assert not family.failures, (n, k, r, name, family.failures[:3])
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"[acceptance] criterion 6: PASS identity suites zero failures, {elapsed:.1f}s")


def test_criterion_7_oracle_equivalence(sweep_matrix):
    for (n, k, r), (sweep, _wall) in sweep_matrix.items():
        for report in sweep.reports:
            assert report.oracle_ok is True, (n, k, r, report.demand)
            assert report.oracle_ok == report.decode_ok
    print("[acceptance] criterion 7: PASS rank oracle confirms every sweep case")


def test_criterion_8_region_observation():
    point = RatePoint(F(5, 3), F(1, 2))
    against_210 = check_point(point, region_33("210"))
    assert not against_210.satisfied
    assert [fc.facet.label() for fc in against_210.violated] == ["2M+3R>=5"]
    assert against_210.violated[0].value == F(29, 6)
    assert check_point(point, region_33("111")).satisfied
    print("[acceptance] criterion 8: PASS (5/3,1/2) violates 2M+3R>=5 at 29/6, satisfies (1,1,1) facets")


def test_criterion_9_worst_case_over_types():
    started = time.perf_counter()
    checked = 0
    for k in range(2, 8):
        for n in range(2, k + 1):
            for r in range(k):
                params = SchemeParams(n, k, r)
                best = max(
                    type_operating_point(params, dtype).rate
                    for dtype in enumerate_fully_demanded_types(n, k)
                )
                assert worst_case_operating_point(params).rate == best, (n, k, r)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"[acceptance] criterion 9: PASS worst-case rate matches brute force on {checked} (N,K,r), {elapsed:.1f}s")


def test_criterion_10_determinism(sweep_matrix, capsys):
    # parallel re-run of every criterion-4 sweep must serialize byte-identically
    for (n, k, r), (sweep, _wall) in sweep_matrix.items():
        rerun = verify_sweep(SchemeParams(n, k, r), "fully_demanded", engine="both", seed="0", jobs=2)
        assert to_json(sweep_json_dict(sweep)) == to_json(sweep_json_dict(rerun)), (n, k, r)
        assert reports_csv_rows(sweep.reports) == reports_csv_rows(rerun.reports), (n, k, r)

    # the analytic and identity reports must reproduce byte for byte
    for argv in (
        ["tradeoff", "--n", "4", "--k", "6", "--type", "3,1,1,1", "--format", "csv"],
        ["tradeoff", "--n", "3", "--k", "3", "--type", "1,1,1", "--format", "json"],
        ["bounds", "--setting", "210", "--check", "5/3,1/2", "--format", "json"],
        ["bounds", "--setting", "111", "--check", "5/3,1/2", "--format", "csv"],
    ):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second, argv

    golden_bytes = [to_json(golden_json_dict(golden_example_check())) for _ in range(2)]
    assert golden_bytes[0] == golden_bytes[1]
    suite_bytes = [
        to_json(identity_json_dict(identity_suite(SchemeParams(3, 6, 1), samples=10)))
        for _ in range(2)
    ]
    assert suite_bytes[0] == suite_bytes[1]
    print("[acceptance] criterion 10: PASS byte-identical reports across runs and parallelism")
