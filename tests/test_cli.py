import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from fdcache import algebra, cli, harness, scheme
from fdcache.cli import main
from fdcache.core import SchemeParams
from fdcache.harness import FamilyResult, GoldenCheck, GoldenReport, IdentityReport

GOLDEN_TRADEOFF_33 = """\
r,M_frac,M_dec,R_frac,R_dec,S_frac
,0,0,3,3,
0,1/3,0.3333333333,2,2,0
1,5/3,1.666666667,1/2,0.5,0
2,3,3,0,0,0
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tradeoff_four_six_points(capsys):
    code, out, _ = run(capsys, "tradeoff", "--n", "4", "--k", "6", "--type", "3,1,1,1", "--format", "csv")
    assert code == 0
    assert "1,14/15,0.9333333333,19/10,1.9,1/10" in out
    assert "2,17/10,1.7,1,1,0" in out
    assert "3,37/15,2.466666667,1/2,0.5,0" in out
    assert "4,97/30,3.233333333,1/5,0.2,0" in out


def test_tradeoff_golden_csv(capsys):
    code, out, _ = run(capsys, "tradeoff", "--n", "3", "--k", "3", "--type", "1,1,1", "--format", "csv")
    assert code == 0
    assert out == GOLDEN_TRADEOFF_33


def test_tradeoff_worst_two_two(capsys):
    code, out, _ = run(capsys, "tradeoff", "--n", "2", "--k", "2", "--worst", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["demand_class"] == "worst"
    rows = {row["r"]: row for row in payload["rows"]}
    assert set(rows) == {None, 0, 1}
    assert rows[0]["M"] == "1/2"
    assert rows[1]["M"] == "2" and rows[1]["R"] == "0"


def test_tradeoff_runs_at_the_user_ceiling(capsys):
    code, out, _ = run(capsys, "tradeoff", "--n", "3", "--k", "1000", "--worst", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 1 + 1 + 1000  # header, the (0, N) endpoint, r = 0..999


def test_tradeoff_worst_refuses_past_the_ceiling_before_building_its_witness(capsys, monkeypatch):
    # the witness holds N counts, so a huge N must be refused before it is built
    def no_witness(*args):
        raise AssertionError("built the worst-case witness")

    monkeypatch.setattr(cli, "worst_case_type", no_witness)
    code, out, err = run(capsys, "tradeoff", "--n", "1001", "--k", "1001", "--worst")
    assert (code, out) == (2, "")
    assert "tradeoff ceiling of 1000" in err


def test_tradeoff_requires_type_or_worst(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tradeoff", "--n", "3", "--k", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_jobs_below_one(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--k", "2", "--r", "1", "--all-fully-demanded", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("width,message", [("0", "must be at least 1, got 0"), ("-3", "must be at least 1, got -3"),
                                           ("x", "invalid int value: 'x'")])
def test_verify_rejects_payload_bytes_below_one(capsys, width, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--k", "2", "--r", "1", "--demand", "1,2", "--payload-bytes", width])
    assert exc.value.code == 2
    assert f"--payload-bytes: {message}" in capsys.readouterr().err


def test_verify_rejects_a_payload_past_the_ceiling(capsys):
    # 180 segments on (3,6) r=1: the width is one byte past 256 MiB in total
    width = str(2**28 // 180 + 1)
    code, out, err = run(capsys, "verify", "--n", "3", "--k", "6", "--r", "1", "--demand", "1,1,1,1,2,3",
                         "--engine", "payload", "--payload-bytes", width)
    assert (code, out) == (2, "")
    assert err == f"error: payload of 180 segments x {width} bytes exceeds 268435456 bytes\n"


# SHA-256 of stdout for the README payload sweep, recorded before verify_demand
# drew its payload as ints
PINNED_PAYLOAD_SWEEP = {
    "text": "04b23c258a6dc87b0546294bc6fb6cf1ed9d1e98991f0322d88bac764bec04ee",
    "json": "737926f4d278d7771c0b408965055851b0adeef4f7aae44f28711d2c4c2aef1e",
    "csv": "5d40175a92790e56494723b823200b4b8b4be2d0a565cc8f5a6b4aa50afd8fab",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_PAYLOAD_SWEEP))
def test_readme_payload_sweep_pinned(capsys, fmt):
    code, out, err = run(capsys, "verify", "--n", "3", "--k", "6", "--r", "1", "--type", "4,1,1",
                         "--engine", "payload", "--seed", "7", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_PAYLOAD_SWEEP[fmt]


def test_verify_single_demand(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--k", "6", "--r", "1", "--demand", "1,1,1,1,2,3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["success"] is True
    assert payload["T"] == 100
    assert payload["rate"]["measured"] == "5/3"
    assert payload["oracle"] is True


def test_verify_sweep_all_fully_demanded(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--k", "3", "--r", "1", "--all-fully-demanded", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert payload["success"] is True
    assert payload["failures"] == []


def test_verify_rejects_partial_demand(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--k", "3", "--r", "1", "--demand", "1,1,2")
    assert code == 2
    assert "unrequested" in err


def test_verify_refuses_a_system_past_the_segment_ceiling(capsys):
    demand = ",".join(["1", "2"] * 8)
    code, out, err = run(capsys, "verify", "--n", "2", "--k", "16", "--r", "8", "--demand", demand)
    assert code == 2
    assert out == ""
    assert "411840 segments" in err


def test_verify_sweep_limit_exit(capsys, monkeypatch):
    monkeypatch.setattr(harness, "SWEEP_LIMIT", 10)
    code, _, err = run(capsys, "verify", "--n", "3", "--k", "4", "--r", "1", "--all-fully-demanded")
    assert code == 2
    assert err == "error: 36 demands exceed the limit of 10\n"


@pytest.mark.parametrize("flag", [("--limit", "10"), ("--force",)], ids=lambda flag: flag[0])
def test_verify_has_no_sweep_limit_override(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--k", "4", "--r", "1", "--all-fully-demanded", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("verify", "--n", "2", "--k", "10000000", "--r", "0", "--type", "9999999,1"), "40000000 segments"),
    (("verify", "--n", "2", "--k", "2000", "--r", "0", "--demand", ",".join(["1"] * 1999 + ["2"])),
     "3998000 broadcast symbols"),
    (("lemmas", "--n", "2", "--k", "2000", "--r", "0"), "3998000 broadcast symbols"),
    # 2NK alone is past the segment ceiling: refused before any binomial of K
    (("lemmas", "--n", "2", "--k", "15000", "--r", "7500"), "at least 60000 segments"),
    (("verify", "--n", "2", "--k", "1000000", "--r", "500000", "--all-fully-demanded"),
     "at least 4000000 segments"),
    # 10000 segments and no symbol, but set-up near r = K-1 grows like N K^3
    (("lemmas", "--n", "1", "--k", "5000", "--r", "4999"), "250000000000 set-up steps"),
], ids=["verify-type", "verify-demand", "lemmas", "lemmas-huge-k", "verify-huge-k", "lemmas-setup"])
def test_oversized_system_exits_2_before_building(capsys, monkeypatch, argv, message):
    def no_build(*args, **kwargs):
        raise AssertionError("built a segment index, counted demands or ran a delivery")

    monkeypatch.setattr(algebra.SegmentIndex, "__init__", no_build)
    for name in ("delivery", "count_demands", "sample_fully_demanded"):
        monkeypatch.setattr(harness, name, no_build)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_verify_type_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "2", "--k", "2", "--r", "0", "--type", "1,1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n_files,")
    assert lines[1:] == ["2,2,0,1 2,true,4,1,1,1/2,1/2,true", "2,2,0,2 1,true,4,1,1,1/2,1/2,true"]


def test_bounds_check_violation(capsys):
    code, out, _ = run(capsys, "bounds", "--setting", "210", "--check", "5/3,1/2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"]["satisfied"] is False
    verdicts = {f["facet"]: (f["value"], f["ok"]) for f in payload["check"]["facets"]}
    assert verdicts["2M+3R>=5"] == ("29/6", False)


def test_bounds_check_satisfied_111(capsys):
    code, out, _ = run(capsys, "bounds", "--setting", "111", "--check", "5/3,1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["check"]["satisfied"] is True


def test_bounds_single_facet_300(capsys):
    code, out, _ = run(capsys, "bounds", "--setting", "300", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["facets"] == ["M+3R>=3"]
    assert payload["inner_corners"] == [["0", "1"], ["3", "0"]]


def test_bounds_bad_fraction(capsys):
    code, _, err = run(capsys, "bounds", "--setting", "210", "--check", "x,y")
    assert code == 2
    assert "fraction" in err


def test_lemmas_single_demand(capsys):
    code, out, _ = run(
        capsys, "lemmas", "--n", "3", "--k", "6", "--r", "1", "--demand", "1,1,1,1,2,3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["success"] is True
    assert all(f["failed"] == 0 for f in payload["families"].values())


def test_lemmas_vacuous_families(capsys):
    code, out, _ = run(capsys, "lemmas", "--n", "2", "--k", "2", "--r", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["success"] is True
    assert payload["families"]["skip_reconstruction"]["checked"] == 0


@pytest.mark.parametrize("samples,message", [
    ("0", "--samples: must be at least 1, got 0"),
    ("-3", "--samples: must be at least 1, got -3"),
    ("100001", "100001 samples exceed the limit of 100000"),
])
def test_lemmas_rejects_samples_out_of_range(capsys, monkeypatch, samples, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled demands for an invalid --samples")

    monkeypatch.setattr(harness, "sample_fully_demanded", no_sampling)
    try:
        code = main(["lemmas", "--n", "3", "--k", "6", "--r", "1", "--samples", samples])
    except SystemExit as exc:  # argparse rejects values below 1
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_golden_command(capsys):
    code, out, _ = run(capsys, "golden", "--format", "json")
    assert code == 0
    assert json.loads(out)["success"] is True


def test_output_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys, "tradeoff", "--n", "3", "--k", "3", "--type", "1,1,1", "--format", "csv",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == GOLDEN_TRADEOFF_33


def test_repeat_runs_byte_identical(capsys):
    args = ["verify", "--n", "3", "--k", "3", "--r", "1", "--all-fully-demanded", "--format", "json"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# Exact text and CSV output of every subcommand on small inputs.
PINNED = {
    ("tradeoff", "--n", "2", "--k", "2", "--worst", "--format", "text"): """\
tradeoff for N=2 K=2, worst case
  endpoint: M=0 (0), R=2 (2)
  r=0: M=1/2 (0.5), R=1 (1)  S=0
  r=1: M=2 (2), R=0 (0)  S=0
""",
    ("tradeoff", "--n", "2", "--k", "2", "--worst", "--format", "csv"): """\
r,M_frac,M_dec,R_frac,R_dec,S_frac
,0,0,2,2,
0,1/2,0.5,1,1,0
1,2,2,0,0,0
""",
    ("verify", "--n", "2", "--k", "2", "--r", "1", "--demand", "1,2", "--format", "text"): """\
demand (1, 2): ok, T=0, rate=0, memory=2, oracle=True
""",
    ("verify", "--n", "2", "--k", "2", "--r", "1", "--demand", "1,2", "--format", "csv"): """\
n_files,n_users,r,demand,success,T,rate,rate_formula,memory,memory_formula,oracle
2,2,1,1 2,true,0,0,0,2,2,true
""",
    ("verify", "--n", "2", "--k", "2", "--r", "1", "--all-fully-demanded", "--format", "text"): """\
sweep fully_demanded at N=2 K=2 r=1: 2 demands, ok, oracle=True
  type (1,1): 2 demands, T=[0], rate=0
""",
    ("verify", "--n", "2", "--k", "2", "--r", "1", "--all-fully-demanded", "--format", "csv"): """\
n_files,n_users,r,demand,success,T,rate,rate_formula,memory,memory_formula,oracle
2,2,1,1 2,true,0,0,0,2,2,true
2,2,1,2 1,true,0,0,0,2,2,true
""",
    ("bounds", "--setting", "300", "--check", "1/2,1", "--format", "text"): """\
(3,3) setting 300
outer facets: M+3R>=3
inner corners: (0, 1), (3, 0)
check (1/2, 1): satisfies all facets
  M+3R>=3: value 7/2 -> ok
""",
    ("bounds", "--setting", "300", "--check", "1/2,1", "--format", "csv"): """\
kind,a,b,c_or_R,ok
facet,1,3,3,
corner,0,1,,
corner,3,0,,
check,M+3R>=3,7/2,,true
""",
    ("lemmas", "--n", "2", "--k", "2", "--r", "0", "--format", "text"): """\
identity suite at N=2 K=2 r=0 over 2 demand(s)
  parity_closure: 0 checks, ok
  delivery_redundancy: 0 checks, ok
  skip_reconstruction: 0 checks, ok
  transformed_sum: 8 checks, ok
""",
    ("lemmas", "--n", "2", "--k", "2", "--r", "0", "--format", "csv"): """\
family,checked,failed
parity_closure,0,0
delivery_redundancy,0,0
skip_reconstruction,0,0
transformed_sum,8,0
""",
    ("golden", "--format", "text"): """\
golden (3,6) r=1 construction check
  partition_roster_60_per_file: ok
  user1_uncoded_slice: ok
  user1_column_parities: ok
  user1_row_parities_file1_pruned: ok
  s1_transformed_segments: ok
  s1_delivery_symbols: ok
  s1_skips_only_34: ok
  s1_skip_reconstruction: ok
  total_transmitted_100: ok
  rate_5_3: ok
""",
    ("golden", "--format", "csv"): """\
check,ok
partition_roster_60_per_file,true
user1_uncoded_slice,true
user1_column_parities,true
user1_row_parities_file1_pruned,true
s1_transformed_segments,true
s1_delivery_symbols,true
s1_skips_only_34,true
s1_skip_reconstruction,true
total_transmitted_100,true
rate_5_3,true
""",
}


@pytest.mark.parametrize("argv", list(PINNED), ids=" ".join)
def test_pinned_output(capsys, argv):
    assert run(capsys, *argv) == (0, PINNED[argv], "")


def _failing_golden():
    return GoldenReport(checks=(GoldenCheck("rate_5_3", True), GoldenCheck("total_transmitted_100", False, "T=98")))


def _failing_identities(params, demands=None, samples=10):
    return IdentityReport(
        params=params,
        demands=((1, 2),),
        families={
            "parity_closure": FamilyResult(0, ()),
            "transformed_sum": FamilyResult(4, ("d=1-2 s=1 subset=() ch=Q",)),
        },
    )


FAILING = {
    ("golden", "--format", "text"): """\
golden (3,6) r=1 construction check
  rate_5_3: ok
  total_transmitted_100: FAILED T=98
""",
    ("golden", "--format", "csv"): """\
check,ok
rate_5_3,true
total_transmitted_100,false
""",
    ("golden", "--format", "json"): """\
{
  "success": false,
  "checks": [
    {
      "name": "rate_5_3",
      "ok": true,
      "detail": ""
    },
    {
      "name": "total_transmitted_100",
      "ok": false,
      "detail": "T=98"
    }
  ]
}
""",
    ("lemmas", "--n", "2", "--k", "2", "--r", "0", "--format", "text"): """\
identity suite at N=2 K=2 r=0 over 1 demand(s)
  parity_closure: 0 checks, ok
  transformed_sum: 4 checks, FAILED
    d=1-2 s=1 subset=() ch=Q
""",
    ("lemmas", "--n", "2", "--k", "2", "--r", "0", "--format", "csv"): """\
family,checked,failed
parity_closure,0,0
transformed_sum,4,1
""",
    ("lemmas", "--n", "2", "--k", "2", "--r", "0", "--format", "json"): """\
{
  "params": {
    "n_files": 2,
    "n_users": 2,
    "r": 0
  },
  "demands": [
    [
      1,
      2
    ]
  ],
  "success": false,
  "families": {
    "parity_closure": {
      "checked": 0,
      "failed": 0,
      "failures": []
    },
    "transformed_sum": {
      "checked": 4,
      "failed": 1,
      "failures": [
        "d=1-2 s=1 subset=() ch=Q"
      ]
    }
  }
}
""",
}


@pytest.mark.parametrize("argv", list(FAILING), ids=" ".join)
def test_failure_output(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "golden_example_check", _failing_golden)
    monkeypatch.setattr(cli, "identity_suite", _failing_identities)
    assert run(capsys, *argv) == (1, FAILING[argv], "")


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("lost a symbol")

    monkeypatch.setattr(cli, "identity_suite", broken)
    code, out, err = run(capsys, "lemmas", "--n", "3", "--k", "6", "--r", "1", "--samples", "2")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: lost a symbol\n")


def test_bare_value_error_exits_three(capsys, monkeypatch):
    # only a UsageError is bad input: a ValueError raised by a bug is internal
    def broken(*args, **kwargs):
        raise ValueError("subset (1, 1) has a repeated user")

    monkeypatch.setattr(cli, "identity_suite", broken)
    code, out, err = run(capsys, "lemmas", "--n", "3", "--k", "6", "--r", "1", "--samples", "2")
    assert (code, out, err) == (3, "", "internal error: ValueError: subset (1, 1) has a repeated user\n")


# one argv per check on outside input that the CLI reaches, with its message
BAD_INPUT = [
    (("tradeoff", "--n", "4", "--k", "3", "--type", "1,1,1,0"), "need 1 <= n_files <= n_users"),
    (("tradeoff", "--n", "3", "--k", "6", "--type", "5,2,-1"), "nonnegative"),
    (("tradeoff", "--n", "3", "--k", "6", "--type", "4,1"), "need N=3"),
    (("tradeoff", "--n", "3", "--k", "6", "--type", "a,b"), "comma-separated integers"),
    (("tradeoff", "--n", "3", "--k", "3", "--type", ""), "comma-separated integers"),
    (("tradeoff", "--n", "3", "--k", "0", "--type", "3"), "need 1 <= n_files <= n_users"),
    (("tradeoff", "--n", "3", "--k", "-2", "--worst"), "need 1 <= n_files <= n_users"),
    (("tradeoff", "--n", "3", "--k", "1001", "--worst"), "tradeoff ceiling of 1000"),
    (("tradeoff", "--n", "3", "--k", "100000", "--worst"), "tradeoff ceiling of 1000"),
    (("verify", "--n", "3", "--k", "3", "--r", "3", "--demand", "1,2,3"), "need 0 <= r <= K-1"),
    (("verify", "--n", "3", "--k", "3", "--r", "1", "--demand", "1,2"), "demand length 2 != K=3"),
    (("verify", "--n", "3", "--k", "3", "--r", "1", "--demand", "1,2,4"), "file index 4 outside 1..3"),
    (("verify", "--n", "3", "--k", "6", "--r", "1", "--type", "4,2"), "need N=3"),
    (("verify", "--n", "3", "--k", "3", "--r", "1", "--demand", ""), "comma-separated integers"),
    (("lemmas", "--n", "3", "--k", "3", "--r", "1", "--demand", ""), "comma-separated integers"),
    (("bounds", "--setting", "210", "--check", "1/2"), "--check expects M,R"),
    (("bounds", "--setting", "210", "--check", ""), "--check expects M,R"),
    (("bounds", "--setting", "210", "--check=-1,2"), "negative coordinate"),
    (("bounds", "--setting", "210", "--check", "1e400,1"), "past the ceiling of 100"),
]


@pytest.mark.parametrize("argv,message", BAD_INPUT, ids=[" ".join(argv) for argv, _ in BAD_INPUT])
def test_bad_input_exits_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_bounds_check_takes_an_exponent_at_the_ceiling(capsys):
    code, out, _ = run(capsys, "bounds", "--setting", "210", "--check", "1e100,1e-100", "--format", "json")
    assert code == 0
    assert json.loads(out)["check"]["point"] == [str(10**100), f"1/{10**100}"]


def test_bounds_check_refuses_a_non_ascii_exponent_past_the_ceiling(capsys):
    text = "1e\u0661\u0660\u0661"  # 1e101 in Arabic-Indic digits
    code, out, err = run(capsys, "bounds", "--setting", "111", "--check", f"{text},1")
    assert (code, out) == (2, "")
    assert err == f"error: decimal exponent of {text!r} is past the ceiling of 100\n"


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "golden", "--format", "json", "--output", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return path, script


@pytest.mark.parametrize("lemmas", [False, True], ids=["verify", "lemmas"])
def test_stage_split_script_prints_every_stage(capsys, lemmas):
    _, script = _load_script("stage_split")
    args = ["--system", "3,4,1", "--demands", "5", "--passes", "1"] + ["--lemmas"] * lemmas
    assert script.main(args) == 0
    header, *lines, verdict = capsys.readouterr().out.splitlines()
    assert header.startswith("(3,4) r=1: ms per demand")
    stages = dict(line.strip().rsplit(" ", 1) for line in lines)
    assert list(stages) == list(script.LEMMA_STAGES if lemmas else script.VERIFY_STAGES)
    assert all(float(value) >= 0 for value in stages.values())
    assert verdict == "verified 5 demands, 5 passed"
    # a system SchemeParams refuses is reported with its own message
    with pytest.raises(SystemExit):
        script.main(["--system", "4,3,1"] + ["--lemmas"] * lemmas)
    assert "need 1 <= n_files <= n_users, got N=4 K=3" in capsys.readouterr().err


def _split_bindings():
    return {
        (owner.__name__, name): value
        for owner in (harness, scheme, algebra.MaskValues)
        for name, value in vars(owner).items()
    }


def _assert_bindings_kept(before):
    after = _split_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


@pytest.mark.parametrize("lemmas", [False, True], ids=["verify", "lemmas"])
def test_stage_split_puts_every_binding_back(capsys, monkeypatch, lemmas):
    _, script = _load_script("stage_split")
    before = _split_bindings()
    assert script.main(["--system", "3,5,1", "--demands", "3", "--passes", "2"] + ["--lemmas"] * lemmas) == 0
    capsys.readouterr()
    _assert_bindings_kept(before)
    # an operation that raises inside a timed run still gets them back
    checked = []

    def fails_after_set_up(params, d):
        checked.append(d)
        if len(checked) > 1:
            raise RuntimeError("demand check failed")
        return tuple(d)

    monkeypatch.setattr(harness, "require_fully_demanded", fails_after_set_up)
    before = _split_bindings()
    with pytest.raises(RuntimeError, match="demand check failed"):
        script.main(["--system", "3,5,1", "--demands", "3", "--passes", "1"] + ["--lemmas"] * lemmas)
    _assert_bindings_kept(before)


@pytest.mark.parametrize("lemmas", [False, True], ids=["verify", "lemmas"])
def test_stage_split_calls_every_stage_on_the_shipped_path(lemmas):
    # a stage whose function the operation stops calling would read 0 here
    # instead of going quietly stale; (3,5) r=1 skips a symbol on every demand
    _, script = _load_script("stage_split")
    demands = [(1, 1, 1, 2, 3), (3, 2, 1, 1, 2), (2, 3, 3, 1, 1)]
    best, calls, passed = script.split(SchemeParams(3, 5, 1), demands, 1, 7, lemmas)
    names = script.LEMMA_STAGES if lemmas else script.VERIFY_STAGES
    assert list(best) == list(names)
    assert {name: calls[name] >= len(demands) for name in names} == dict.fromkeys(names, True)
    assert passed == len(demands)


def test_stage_split_verdict_is_the_operations(capsys, monkeypatch):
    _, script = _load_script("stage_split")
    monkeypatch.setattr(scheme, "rows_hold", lambda dset, cache, lifted: False)
    assert script.main(["--system", "3,4,1", "--demands", "4", "--passes", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verified 4 demands, 0 passed"


def test_export_script_writes_cli_csv(tmp_path, capsys, monkeypatch):
    path, script = _load_script("export_tradeoff_points")
    monkeypatch.setattr(sys, "argv", [str(path), "--outdir", str(tmp_path)])
    assert script.main() == 0
    capsys.readouterr()
    curves = {
        "tradeoff_4x6_type3111.csv": ("--n", "4", "--k", "6", "--type", "3,1,1,1"),
        "tradeoff_4x6_worst.csv": ("--n", "4", "--k", "6", "--worst"),
        "tradeoff_3x3_type111.csv": ("--n", "3", "--k", "3", "--type", "1,1,1"),
        "tradeoff_3x6_type411.csv": ("--n", "3", "--k", "6", "--type", "4,1,1"),
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(curves)
    for name, args in curves.items():
        code, out, _ = run(capsys, "tradeoff", *args, "--format", "csv")
        assert code == 0
        assert (tmp_path / name).read_text(encoding="utf-8") == out


@pytest.mark.parametrize("flag", ["--samples", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_campaign_script_rejects_counts_below_one(tmp_path, capsys, monkeypatch, flag, value):
    path, script = _load_script("run_verification_campaign")

    def no_run(*args, **kwargs):
        raise AssertionError("ran a sweep for an invalid count")

    monkeypatch.setattr(script, "verify_sweep", no_run)
    monkeypatch.setattr(sys, "argv", [str(path), flag, value, "--out", str(tmp_path / "c.json")])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    assert f"{flag}: must be at least 1, got {value}" in capsys.readouterr().err


def test_campaign_script_refuses_an_unwritable_out_before_any_sweep(tmp_path, capsys, monkeypatch):
    path, script = _load_script("run_verification_campaign")
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    target = blocker / "c.json"

    def no_run(*args, **kwargs):
        raise AssertionError("ran a sweep for an unwritable --out")

    monkeypatch.setattr(script, "verify_sweep", no_run)
    monkeypatch.setattr(sys, "argv", [str(path), "--out", str(target)])
    assert script.main() == 2
    assert capsys.readouterr() == ("", f"error: cannot write {target}: File exists\n")
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def test_export_script_refuses_a_file_as_outdir(tmp_path, capsys, monkeypatch):
    path, script = _load_script("export_tradeoff_points")
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    monkeypatch.setattr(sys, "argv", [str(path), "--outdir", str(blocker)])
    assert script.main() == 2
    assert capsys.readouterr() == ("", f"error: cannot write {blocker}: File exists\n")
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def _readme_commands():
    """Every `fdcache ...` line of the README's sh blocks, as an argv."""
    commands, in_sh = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("fdcache "):
            commands.append(line.split()[1:])
    return commands


def test_readme_commands_run(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) == 10
    for i, argv in enumerate(commands):
        code = main([*argv, "--output", str(tmp_path / f"{i}.out")])
        assert code == 0, argv
    assert capsys.readouterr().err == ""


def test_cli_import_loads_no_process_pool():
    # only a parallel sweep starts worker processes, so importing the CLI
    # loads neither multiprocessing nor the process pool
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = ("import fdcache.cli, sys; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys()))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
