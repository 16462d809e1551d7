"""Command-line front end: tradeoff | verify | bounds | lemmas | golden.

Each command returns one Output record holding its exit code and all three
renderings, built in a single pass over its result.  main is the only place
that picks the --format, writes to --output or stdout, maps a UsageError
(a failed check on input) or an unwritable --output to exit 2 and any other
exception a command raises, a bare ValueError included, to exit 3.

Exit codes: 0 success, 1 verification/identity failure, 2 usage error,
3 internal error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import NamedTuple

from .analysis import (
    REGION_SETTINGS,
    RatePoint,
    check_curve_system,
    check_point,
    region_33,
    tradeoff_curve,
    worst_case_type,
)
from .core import (
    DemandType,
    SchemeParams,
    UsageError,
    format_fraction,
    parse_fraction,
)
from .harness import (
    ENGINES,
    SWEEP_LIMIT,
    golden_example_check,
    golden_json_dict,
    identity_json_dict,
    identity_suite,
    report_json_dict,
    reports_csv_rows,
    sweep_json_dict,
    to_json,
    verify_demand,
    verify_sweep,
)


class Output(NamedTuple):
    """A command's exit code and its rendering in every --format."""

    code: int
    json: dict
    csv: list[str]  # lines
    text: list[str]  # lines


def _decimal(value: Fraction) -> str:
    return format(float(value), ".10g")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def at_least_one(text: str) -> int:
    """A worker count, payload width or sample count: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_tradeoff(args) -> Output:
    if args.worst:
        check_curve_system(args.n, args.k)  # refuses a huge N before its N-count witness is built
    dtype = worst_case_type(args.n, args.k) if args.worst else DemandType.of(_parse_ints(args.type))
    label = "worst case" if args.worst else f"type ({dtype.label()})"
    rows = []
    csv = ["r,M_frac,M_dec,R_frac,R_dec,S_frac"]
    text = [f"tradeoff for N={args.n} K={args.k}, {label}"]
    for row in tradeoff_curve(args.n, args.k, dtype, hull=args.hull):
        m, m_dec = format_fraction(row.point.memory), _decimal(row.point.memory)
        rate, rate_dec = format_fraction(row.point.rate), _decimal(row.point.rate)
        saving = None if row.saving is None else format_fraction(row.saving)
        rows.append({"r": row.r, "M": m, "M_dec": m_dec, "R": rate, "R_dec": rate_dec, "S": saving})
        csv.append(f"{'' if row.r is None else row.r},{m},{m_dec},{rate},{rate_dec},{saving or ''}")
        tag = "endpoint" if row.r is None else f"r={row.r}"
        text.append(f"  {tag}: M={m} ({m_dec}), R={rate} ({rate_dec})" + (f"  S={saving}" if saving else ""))
    payload = {
        "n_files": args.n,
        "n_users": args.k,
        "demand_class": "worst" if args.worst else {"type": list(dtype.counts)},
        "hull": args.hull,
        "rows": rows,
    }
    return Output(0, payload, csv, text)


def cmd_verify(args) -> Output:
    params = SchemeParams(args.n, args.k, args.r)
    if args.demand is not None:
        report = verify_demand(
            params,
            _parse_ints(args.demand),
            engine=args.engine,
            seed=args.seed,
            payload_width=args.payload_bytes,
            run_oracle=not args.no_oracle,
        )
        return Output(
            0 if report.success and report.oracle_ok is not False else 1,
            report_json_dict(report, timing=args.timing),
            reports_csv_rows([report]),
            [
                f"demand {report.demand}: {'ok' if report.success else 'FAILED'}, T={report.t_count},"
                f" rate={format_fraction(report.rate_measured)},"
                f" memory={format_fraction(report.memory_measured)},"
                f" oracle={report.oracle_ok}"
            ],
        )

    demand_class = "fully_demanded" if args.all_fully_demanded else DemandType.of(_parse_ints(args.type))
    sweep = verify_sweep(
        params,
        demand_class,
        engine=args.engine,
        seed=args.seed,
        jobs=args.jobs,
        payload_width=args.payload_bytes,
        run_oracle=not args.no_oracle,
    )
    text = [
        f"sweep {sweep.demand_class} at N={args.n} K={args.k} r={args.r}:"
        f" {sweep.count} demands, {'ok' if sweep.success else 'FAILED'}, oracle={sweep.oracle_ok}"
    ]
    for row in sweep.per_type():
        text.append(
            f"  type ({','.join(str(c) for c in row['type'])}):"
            f" {row['demands']} demands, T={row['T']}, rate={row['rate']}"
        )
    text.extend(f"  FAILED demand {failed.demand}" for failed in sweep.failures)
    return Output(0 if sweep.success else 1, sweep_json_dict(sweep, timing=args.timing),
                  reports_csv_rows(sweep.reports), text)


def cmd_bounds(args) -> Output:
    region = region_33(args.setting)
    check = None
    if args.check is not None:
        parts = args.check.split(",")
        if len(parts) != 2:
            raise UsageError(f"--check expects M,R got {args.check!r}")
        check = check_point(RatePoint(parse_fraction(parts[0]), parse_fraction(parts[1])), region)
    facets = [f.label() for f in region.outer_facets]
    payload = {"setting": args.setting, "facets": facets, "inner_corners": []}
    csv = ["kind,a,b,c_or_R,ok"]
    csv.extend(
        f"facet,{format_fraction(f.m_coef)},{format_fraction(f.r_coef)},{format_fraction(f.bound)},"
        for f in region.outer_facets
    )
    corners = []
    for corner in region.inner_corners:
        m, rate = format_fraction(corner.memory), format_fraction(corner.rate)
        payload["inner_corners"].append([m, rate])
        csv.append(f"corner,{m},{rate},,")
        corners.append(f"({m}, {rate})")
    text = [
        f"(3,3) setting {args.setting}",
        "outer facets: " + "; ".join(facets),
        f"inner corners: {', '.join(corners)}",
    ]
    if check is not None:
        m, rate = format_fraction(check.point.memory), format_fraction(check.point.rate)
        payload["check"] = {"point": [m, rate], "satisfied": check.satisfied, "facets": []}
        text.append(f"check ({m}, {rate}): {'satisfies all facets' if check.satisfied else 'VIOLATES'}")
        for fc in check.facets:
            facet, value = fc.facet.label(), format_fraction(fc.value)
            payload["check"]["facets"].append({"facet": facet, "value": value, "ok": fc.satisfied})
            csv.append(f"check,{facet},{value},,{str(fc.satisfied).lower()}")
            text.append(f"  {facet}: value {value} -> {'ok' if fc.satisfied else 'violated'}")
    return Output(0, payload, csv, text)


def cmd_lemmas(args) -> Output:
    params = SchemeParams(args.n, args.k, args.r)
    demands = [_parse_ints(args.demand)] if args.demand is not None else None
    report = identity_suite(params, demands=demands, samples=args.samples)
    csv = ["family,checked,failed"]
    text = [f"identity suite at N={args.n} K={args.k} r={args.r} over {len(report.demands)} demand(s)"]
    for name, result in report.families.items():
        csv.append(f"{name},{result.checked},{len(result.failures)}")
        text.append(f"  {name}: {result.checked} checks, {'ok' if result.ok else 'FAILED'}")
        text.extend(f"    {failure}" for failure in result.failures)
    return Output(0 if report.success else 1, identity_json_dict(report), csv, text)


def cmd_golden(args) -> Output:
    report = golden_example_check()
    csv = ["check,ok"]
    text = ["golden (3,6) r=1 construction check"]
    for check in report.checks:
        csv.append(f"{check.name},{str(check.ok).lower()}")
        text.append(f"  {check.name}: {'ok' if check.ok else f'FAILED {check.detail}'}")
    return Output(0 if report.success else 1, golden_json_dict(report), csv, text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--output", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdcache",
        description="Construct, verify, and analyze coded caching for fully demanded systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tradeoff", help="emit the (M, R) curve for a demand type")
    p.add_argument("--n", type=int, required=True, help="number of files N")
    p.add_argument("--k", type=int, required=True, help="number of users K")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--type", help="demand type as comma-separated counts, e.g. 3,1,1,1")
    group.add_argument("--worst", action="store_true", help="worst case over fully demanded types")
    p.add_argument("--hull", action="store_true", help="keep only lower-convex-hull rows")
    _add_common(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("verify", help="run end-to-end verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--demand", help="one demand vector, e.g. 1,1,1,1,2,3")
    group.add_argument("--type", help="sweep one demand type, e.g. 4,1,1")
    group.add_argument("--all-fully-demanded", action="store_true", help="sweep every fully demanded vector")
    p.add_argument("--engine", choices=ENGINES, default="both")
    p.add_argument("--seed", default="0")
    p.add_argument("--jobs", type=at_least_one, default=1, help="worker processes, at least 1")
    p.add_argument("--payload-bytes", type=at_least_one, default=1,
                   help="bytes per segment value, at least 1; at most 256 MiB over all segments")
    p.add_argument("--no-oracle", action="store_true", help="skip the rank-oracle cross-check")
    p.add_argument("--timing", action="store_true", help="include elapsed_ms in reports")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="(3,3) bound regions and point checks")
    p.add_argument("--setting", choices=REGION_SETTINGS, required=True)
    p.add_argument("--check", help="point to classify, as M,R fractions e.g. 5/3,1/2")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("lemmas", help="run the XOR identity suites")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--demand", help="check one demand instead of sampling")
    p.add_argument("--samples", type=at_least_one, default=10,
                   help=f"fully demanded vectors to sample, 1 to {SWEEP_LIMIT}")
    _add_common(p)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("golden", help="check the (3,6) r=1 worked construction")
    _add_common(p)
    p.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except UsageError as exc:  # bad input, including NotFullyDemandedError and SweepLimitExceeded
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never reported as a failed check or bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    rendered = to_json(out.json) if args.format == "json" else "\n".join(getattr(out, args.format)) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:  # an unwritable --output is bad input
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
