"""Check the JSON lines of one `polar experiment --json` run, read from stdin.

    PYTHONPATH=src python -m polarvar.cli experiment --json --nmax 6 \\
        --p-max 3 --mode full --master-seed 1 | python tools/check_grid.py 31 full

Passes when there are exactly COUNT records and each one is `ok`, in MODE
and matching its expected singular dimension; otherwise exits nonzero and
names the records at fault.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> None:
    ap = argparse.ArgumentParser(description="Check polar experiment records on stdin.")
    ap.add_argument("count", type=int, help="the number of records expected")
    ap.add_argument("mode", choices=["full", "delta"], help="the mode every record must be in")
    args = ap.parse_args()
    records = [json.loads(line) for line in sys.stdin]
    bad = [r for r in records
           if (r["status"], r["mode"], r["match"]) != ("ok", args.mode, True)]
    if len(records) != args.count or bad:
        sys.exit(f"{len(records)} records, expected {args.count}; "
                 f"not ok, not {args.mode} or not matching: {bad}")
    print(f"{len(records)} records, each ok, {args.mode} and matching")


if __name__ == "__main__":
    main()
