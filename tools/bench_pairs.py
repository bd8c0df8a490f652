"""Paired benchmark runs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --out BENCH_N.json \\
        --workload delta_n6:10:41 --workload points_f7:4:59

Run from anywhere inside a git checkout.  REV is exported with `git archive`
into a temporary directory.  Each `--workload NAME:K:FIRST` runs
`perfbench/run.py --workload NAME --seed s --seconds S --trace 0` on the
parent and on the working tree for the K seeds FIRST, FIRST + 1, ..., the
side that goes first alternating from pair to pair, and then one
`--trace 1` run per side at the default seed.  S is the run length that
BENCHMARK.json declares.  The output file holds every run, each side's
median and quartiles per end-to-end metric of BENCHMARK.json, how many pairs
the working tree won, and the work counters and busy times of both traced
runs.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

TRACE_SEED = 1


def git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True).stdout


def run_bench(tree: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The JSON object on the last line of one perfbench run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} gave no "
                         f"result: {tail}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: v["value"] for k, v in record["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def compare(workload: str, seeds: list[int], seconds: int, trees: dict,
            catalogue: dict) -> dict:
    runs = []
    for k, seed in enumerate(seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            res = run_bench(trees[side], workload, seed, seconds, 0)
            runs.append({"seed": seed, "side": side, "first": side == order[0], **res})
            print(f"{workload} seed {seed} {side}: wall_s "
                  f"{res['metrics'].get('wall_s', float('nan')):.3f} "
                  f"correct {res['correct']}", file=sys.stderr)
    summary = {}
    for metric in catalogue["end_to_end"]:
        name = metric["name"]
        sides = {side: [r["metrics"][name] for r in runs if r["side"] == side]
                 for side in ("parent", "change")}
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        summary[name] = {"unit": metric["unit"], "better": metric["better"],
                         "parent": quartiles(sides["parent"]),
                         "change": quartiles(sides["change"]),
                         "change_wins": wins, "pairs": len(seeds)}
    traced = {side: run_bench(trees[side], workload, TRACE_SEED, seconds, 1)
              for side in ("parent", "change")}
    counters = {side: {k: v for k, v in t["metrics"].items() if not k.endswith("_s")}
                for side, t in traced.items()}
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed S "
                   f"--seconds {seconds} --trace 0",
        "seeds": seeds,
        "all_correct": all(r["correct"] and not r["failed"] for r in runs),
        "summary": summary,
        "runs": runs,
        "trace": {
            "command": f"python3 perfbench/run.py --workload {workload} "
                       f"--seed {TRACE_SEED} --seconds {seconds} --trace 1",
            "counters_equal": counters["parent"] == counters["change"],
            "parent": traced["parent"],
            "change": traced["change"],
        },
    }


def parse_workload(text: str) -> tuple[str, int, int]:
    try:
        name, pairs, first = text.split(":")
        return name, int(pairs), int(first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME:PAIRS:FIRST_SEED, got {text!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--workload", action="append", required=True, type=parse_workload,
                    help="NAME:PAIRS:FIRST_SEED, repeatable")
    args = ap.parse_args()
    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        catalogue = json.load(fh)
    seconds = catalogue["run_seconds"]
    parent = git(root, "rev-parse", "--short", args.parent).decode().strip()
    out = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "parent_commit": parent,
        "change": "working tree at " + git(root, "rev-parse", "--short", "HEAD").decode().strip()
                  + (" with uncommitted changes" if git(root, "status", "--porcelain",
                                                         "--untracked-files=no") else ""),
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        archive = git(root, "archive", "--format=tar", parent)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"parent": tmp, "change": root}
        for name, pairs, first in args.workload:
            out[name] = compare(name, list(range(first, first + pairs)), seconds,
                                trees, catalogue)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for name, *_ in args.workload:
        wall = out[name]["summary"]["wall_s"]
        print(f"{name}: wall_s median {wall['parent']['median']:.3f} -> "
              f"{wall['change']['median']:.3f} s, change won "
              f"{wall['change_wins']} of {wall['pairs']}; traced counters equal: "
              f"{out[name]['trace']['counters_equal']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
