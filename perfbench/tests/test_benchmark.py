"""Tests of the benchmark itself: the correctness gate can fail, the demand
stream is seeded, the tracer restores the program, and the benchmark refuses
to run without the program's sources.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import gate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import demand_stream  # noqa: E402

from fdcache import harness  # noqa: E402
from fdcache.core import SchemeParams, is_fully_demanded  # noqa: E402
from fdcache.harness import FamilyResult, identity_suite, verify_demand  # noqa: E402


def small_report(run_oracle=True):
    return verify_demand(SchemeParams(3, 3, 1), (1, 2, 3), run_oracle=run_oracle)


def test_gate_passes_a_good_report():
    assert gate.verify_failure(small_report(), run_oracle=True) is None
    assert gate.verify_failure(small_report(run_oracle=False), run_oracle=False) is None


def test_gate_fails_when_success_is_false():
    report = small_report()
    broken = dataclasses.replace(report, per_user=(False,) + report.per_user[1:])
    assert not broken.success
    assert gate.verify_failure(broken, run_oracle=True)


def test_gate_fails_when_the_oracle_is_not_true():
    report = small_report()
    for verdict in (None, False):
        assert gate.verify_failure(dataclasses.replace(report, oracle_ok=verdict), run_oracle=True)


def test_gate_fails_on_any_identity_family():
    report = identity_suite(SchemeParams(3, 4, 1), demands=[(1, 2, 3, 1)])
    assert gate.identity_failure(report) is None
    families = dict(report.families)
    families["transformed_sum"] = FamilyResult(families["transformed_sum"].checked, ("d=1-2-3-1 s=1",))
    assert gate.identity_failure(dataclasses.replace(report, families=families))


def test_digest_covers_only_the_first_records():
    a, b = gate.Digest(2), gate.Digest(2)
    for digest, extra in ((a, {"x": 3}), (b, {"x": 4})):
        digest.add({"x": 1})
        digest.add({"x": 2})
        digest.add(extra)
    assert a.count == 2 and a.hexdigest() == b.hexdigest()


def test_scale_factors_use_the_samples_around_each_operation():
    reference = calibrate.Reference("python")
    nominal = reference.nominal_ms
    samples = [nominal, nominal, 3 * nominal, 2 * nominal]  # the machine slows down after the second operation
    assert reference.scale_factors(samples) == [1.0, 0.5, 0.4]


def test_every_reference_runs_and_gives_a_positive_factor():
    for name in calibrate.REFERENCES:
        assert calibrate.Reference(name).point_factor(samples=3) > 0


def test_demand_stream_is_seeded_and_fully_demanded():
    params = SchemeParams(4, 6, 2)
    first = [d for d, _ in zip(demand_stream(4, 6, seed=7), range(50))]
    again = [d for d, _ in zip(demand_stream(4, 6, seed=7), range(50))]
    other = [d for d, _ in zip(demand_stream(4, 6, seed=8), range(50))]
    assert first == again != other
    assert all(is_fully_demanded(params, d) for d in first)


def traced_counts(params, demand):
    tracer = Tracer()
    originals = (harness.delivery, harness.decode_file, harness.segment)
    tracer.install()
    try:
        tracer.begin_demand()
        report = verify_demand(params, demand)
        tracer.end_demand(report)
    finally:
        tracer.uninstall()
    assert (harness.delivery, harness.decode_file, harness.segment) == originals
    return tracer.layer_metrics()


def test_trace_sees_skips_only_where_the_scheme_skips():
    no_skips = traced_counts(SchemeParams(4, 6, 2), (1, 1, 2, 2, 3, 4))
    assert no_skips["scheme.skipped_symbols"] == 0
    assert no_skips["scheme.skip_combination_calls"] == 0
    assert no_skips["scheme.sent_symbols"] > 0
    skips = traced_counts(SchemeParams(3, 8, 1), (1, 1, 1, 1, 2, 2, 3, 3))
    assert skips["scheme.skipped_symbols"] > 0
    assert skips["scheme.skip_combination_calls"] > 0
    assert 0 < skips["scheme.skip_useful_ratio"] <= 1


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["top", 1, None, 0.0, 10.0], ["child", 1, 0, 2.0, 5.0], ["leaf", 1, 1, 3.0, 4.0]]
    assert tracer.self_times() == [7.0, 2.0, 1.0]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "verify-4x6r2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        assert not line.startswith("{"), line
