"""Benchmark of the polarvar library, measured from outside the program.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  NAME is one of full_grid, delta_n6,
points_f7, families, or `all` to run each in turn.  Every pass of a workload
runs in a fresh child process (perfbench/worker.py); this script times the
child from spawn to exit and takes its CPU time and peak memory from the
kernel's accounting.  See perfbench/README.md for the workloads and metrics.

--trace 0 runs as many untraced passes as fit in --seconds (at least two),
each after a short set-up-only child, and reports the end-to-end metrics as
medians over the passes.  --trace 1 runs two traced passes under different
PYTHONHASHSEED values with an untraced pass between them, checks that the
work counters repeat exactly, and reports the per-layer metrics.  Both
check every output line; the last line of standard output is one JSON
object, and the exit code is 0 only if every check held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
SETUP_SAMPLES = 15
MIN_PASSES = 2
RUN_LIMIT_S = 175.0
HASHSEED_UNTRACED = "0"
HASHSEEDS_TRACED = ("1", "2")


def _fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


class Child:
    """One measured child process and what it reported."""

    def __init__(self, workload: str, seed: int, hashseed: str, deadline: float,
                 setup_only: bool = False, spans: str | None = None):
        tag = f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
        result_path = os.path.join(OUT_DIR, tag + ".result.json")
        err_path = os.path.join(OUT_DIR, tag + ".stderr.txt")
        cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", workload,
               "--seed", str(seed), "--result", result_path]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", spans]
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                    stderr=err, cwd=ROOT)
            timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall = t1 - t0
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.error = None
        self.units: list = []
        self.lines: list = []
        self.layers: dict = {}
        self.setup = float("nan")
        try:
            with open(result_path, encoding="utf-8") as fh:
                res = json.load(fh)
            os.remove(result_path)
        except (OSError, ValueError):
            with open(err_path, encoding="utf-8") as fh:
                tail = fh.read().strip().splitlines()[-1:] or ["no output"]
            self.error = f"worker exited with {proc.returncode}: {tail[0]}"
            return
        finally:
            os.remove(err_path)
        self.units = res["units"]
        self.lines = res["lines"]
        self.layers = res.get("layers", {})
        self.error = res["error"]
        first = self.units[0][1] if self.units else res["ready"]
        self.setup = first - t0

    @property
    def slowest_unit(self) -> float:
        return max((end - start for _, start, end in self.units), default=float("nan"))


def load_catalogue() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference(name: str) -> list[str]:
    with open(os.path.join(REFERENCE_DIR, f"{name}.jsonl"), encoding="utf-8") as fh:
        return fh.read().splitlines()


def check_passes(workload, passes: list[Child], reference: list[str] | None
                 ) -> tuple[int, int, list[str]]:
    """(units attempted, units failed, messages): every pass must produce
    every unit's line, satisfy the invariants, equal the reference at the
    default seed and equal the first pass."""
    names = workload.unit_names()
    attempted, failed, messages = 0, 0, []
    first = None
    for k, child in enumerate(passes):
        got = dict(child.lines)
        attempted += len(names)
        if child.error:
            messages.append(f"pass {k}: {child.error.strip().splitlines()[-1]}")
        for idx, name in enumerate(names):
            line = got.get(name)
            if line is None:
                problems = ["no output"]
            else:
                problems = workload.check(name, line)
                if reference is not None and (idx >= len(reference) or reference[idx] != line):
                    problems.append("differs from the reference output")
                if first is not None and first.get(name) != line:
                    problems.append("differs from pass 0")
            if problems:
                failed += 1
                messages.append(f"pass {k} unit {name}: " + "; ".join(problems))
        if first is None:
            first = got
    return attempted, failed, messages


def host_record(seed: int) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "polarvar")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=10
                                    ).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "seed": seed, "calibration_s": calibrate()}


def calibrate() -> float:
    """Median of three runs of a fixed pure-Python loop: a record of the
    host's speed at the time of the run, never gated on."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_untraced(workload, seed: int, seconds: int, deadline: float
                 ) -> tuple[dict, list[Child]]:
    """(metric samples, passes).  Passes run until the next would end past
    `seconds`, and at least MIN_PASSES of them; a set-up-only child before
    each pass spreads the set-up samples over the run."""
    start = time.monotonic()
    setups: list[Child] = []
    passes: list[Child] = []
    while True:
        setups.append(Child(workload.name, seed, HASHSEED_UNTRACED, deadline,
                            setup_only=True))
        passes.append(Child(workload.name, seed, HASHSEED_UNTRACED, deadline))
        elapsed = time.monotonic() - start
        if passes[-1].error or (len(passes) >= MIN_PASSES
                                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    while len(setups) < SETUP_SAMPLES and not passes[-1].error:
        setups.append(Child(workload.name, seed, HASHSEED_UNTRACED, deadline,
                            setup_only=True))
    values = {
        "wall_s": [c.wall for c in passes],
        "cpu_s": [c.cpu for c in passes],
        "setup_s": [c.setup for c in setups + passes],
        "peak_rss_mb": [c.rss_mb for c in passes],
        "slowest_unit_s": [c.slowest_unit for c in passes],
    }
    return values, passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(workload, seed: int, deadline: float
               ) -> tuple[dict, list[Child], list[str], str]:
    def traced_pass(k: int) -> Child:
        spans = os.path.join(OUT_DIR, f"{workload.name}-pass{k}.spans.tsv")
        return Child(workload.name, seed, HASHSEEDS_TRACED[k], deadline, spans=spans)

    # the untraced pass runs between the two traced ones, so that a steady
    # drift of the host's speed cancels out of the overhead
    first = traced_pass(0)
    plain = Child(workload.name, seed, HASHSEED_UNTRACED, deadline)
    traced = [first, traced_pass(1)]
    problems = []
    counts = [{k: v for k, v in c.layers.items() if not k.endswith("_s")} for c in traced]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        problems.append(f"work counters differ between PYTHONHASHSEED "
                        f"{HASHSEEDS_TRACED[0]} and {HASHSEEDS_TRACED[1]}: {diff}")
    layers = {}
    for key in traced[0].layers.keys() | traced[1].layers.keys():
        vals = [c.layers.get(key, 0) for c in traced]
        layers[key] = statistics.median(vals) if key.endswith("_s") else vals[0]
    layers["polar.verify_smooth_complete_intersection.ok_ratio"] = _ratio(
        layers.get("polar.verify_smooth_complete_intersection.ok", 0),
        layers.get("polar.verify_smooth_complete_intersection.calls", 0))
    layers["experiment.run_cell.draw_ok_ratio"] = _ratio(
        layers.get("experiment.run_cell.draws_ok", 0),
        layers.get("experiment.run_cell.draws", 0))
    top = layers.get("trace.top_spans_s", 0)
    layers["trace.overhead_s"] = statistics.median(c.wall for c in traced) - plain.wall
    layers["trace.uncovered_s"] = plain.wall - plain.setup - top
    note = (f"top-level spans {top:.3f} s; untraced wall - setup "
            f"{plain.wall - plain.setup:.3f} s; tracing overhead "
            f"{layers['trace.overhead_s']:.3f} s; covered within the overhead: "
            f"{abs(layers['trace.uncovered_s']) <= abs(layers['trace.overhead_s'])}; "
            f"traced wall - setup - top-level spans of the same pass: "
            f"{statistics.median(c.wall - c.setup for c in traced) - top:.3f} s")
    return layers, [first, plain, traced[1]], problems, note


def layer_table(layers: dict) -> list[str]:
    """Self time per module, largest first, from the traced passes."""
    per_module: dict[str, float] = {}
    for key, value in layers.items():
        if key.endswith(".self_s") and not key.startswith("trace."):
            module = key.split(".")[0]
            per_module[module] = per_module.get(module, 0.0) + value
    per_module["benchmark loop (unit self time)"] = layers.get("trace.unit_self_s", 0.0)
    total = sum(per_module.values()) or 1.0
    rows = sorted(per_module.items(), key=lambda kv: -kv[1])
    return [f"  {name:<34}{value:10.3f} s {100 * value / total:6.1f}%"
            for name, value in rows]


def run_workload(cls, seed: int, seconds: int, trace: bool, deadline: float,
                 catalogue: dict, reference: list[str] | None, write_reference: bool) -> dict:
    name = cls.name
    workload = cls(seed, OUT_DIR)
    host = host_record(seed)
    print(f"== {name}  seed {seed}  trace {int(trace)}  " + "  ".join(
        f"{k} {v}" for k, v in host.items() if k != "seed"))
    metrics = {}
    if trace:
        layers, passes, problems, note = run_traced(workload, seed, deadline)
        for m in catalogue["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0), "unit": m["unit"]}
            print(f"  {m['name']:<58}{layers.get(m['name'], 0):>14.6g} {m['unit']}")
        print("self time by layer (median of the two traced passes):")
        print("\n".join(layer_table(layers)))
        print(note)
    else:
        values, passes = run_untraced(workload, seed, seconds, deadline)
        problems = []
        for m in catalogue["end_to_end"]:
            vals = values[m["name"]]
            metrics[m["name"]] = {"value": statistics.median(vals), "unit": m["unit"]}
            print(f"  {m['name']:<16}{statistics.median(vals):>12.4f} {m['unit']:<6}"
                  f"median of {len(vals)}  [min {min(vals):.4f}, max {max(vals):.4f}]")
    attempted, failed, messages = check_passes(workload, passes, reference)
    failures = problems + messages
    print(f"  {'failed_frac':<16}{failed / attempted:>12.4f}        "
          f"{failed} of {attempted} units")
    for f in failures[:20]:
        print(f"  FAIL {f}")
    if write_reference and not failures:
        with open(os.path.join(REFERENCE_DIR, f"{name}.jsonl"), "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for _, line in passes[0].lines)
        print(f"  wrote reference/{name}.jsonl")
    record = {"workload": name, "trace": trace, "host": host, "metrics": metrics,
              "attempted": attempted, "failed": failed, "failures": failures}
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.run.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "polarvar", "__init__.py")):
        _fail_setup(f"no polarvar sources under {ROOT}/src; run from a checkout root")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import DEFAULT_SEED, WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help=f"store the outputs of seed {DEFAULT_SEED} as the reference")
    args = ap.parse_args()
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        ap.error(f"--write-reference needs --seed {DEFAULT_SEED} --trace 0")
    os.makedirs(OUT_DIR, exist_ok=True)
    catalogue = load_catalogue()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        check_reference = args.seed == DEFAULT_SEED and not args.write_reference
        reference = load_reference(name) if check_reference else None
        records.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), deadline, catalogue, reference,
                                    args.write_reference))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = all(not r["failures"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
