#!/usr/bin/env python3
"""Export memory-rate curve CSVs for plotting.

Writes one CSV per requested system/type (plus the worst-case curve), each
the output of `fdcache tradeoff --format csv`: schema r,M_frac,M_dec,R_frac,
R_dec,S_frac, suitable for external plotting.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from fdcache import cli

CURVES = [
    ("tradeoff_4x6_type3111.csv", "--n 4 --k 6 --type 3,1,1,1"),
    ("tradeoff_4x6_worst.csv", "--n 4 --k 6 --worst"),
    ("tradeoff_3x3_type111.csv", "--n 3 --k 3 --type 1,1,1"),
    ("tradeoff_3x6_type411.csv", "--n 3 --k 6 --type 4,1,1"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="directory for the CSV files")
    args = parser.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # as cli.main treats an unwritable --output
        print(f"error: cannot write {outdir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    for name, curve in CURVES:
        path = outdir / name
        code = cli.main(["tradeoff", *curve.split(), "--format", "csv", "--output", str(path)])
        if code:
            return code
        rows = len(path.read_text(encoding="utf-8").splitlines()) - 1
        print(f"wrote {path} ({rows} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
