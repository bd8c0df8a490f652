"""One pass of one workload in its own process; run.py measures it from
outside (wall time, CPU time and peak memory of this process).

    python3 perfbench/worker.py --root . --workload NAME --seed N \
        --result PATH [--setup-only] [--spans PATH]

With --spans the pass is traced and the spans are written to PATH.  The
result file is JSON: the monotonic time at which the first unit started
(or, with --setup-only, would start), each unit's start and end, the output
lines and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    src = os.path.abspath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    import polarvar
    if not os.path.abspath(polarvar.__file__).startswith(src + os.sep):
        raise SystemExit(f"polarvar imported from {polarvar.__file__}, not {src}")
    from workloads import WORKLOADS

    scratch = os.path.dirname(os.path.abspath(args.result))
    workload = WORKLOADS[args.workload](args.seed, scratch)
    workload.prepare()
    tracer = None
    if args.spans:  # installed after prepare, so that spans cover units only
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result: dict = {"ready": time.monotonic(), "units": [], "lines": [], "error": None}
    if not args.setup_only:
        units = result["units"]

        @contextlib.contextmanager
        def unit(name):
            sid = tracer.begin_unit(len(units)) if tracer else None
            start = time.monotonic()
            try:
                yield
            finally:
                end = time.monotonic()
                if tracer:
                    tracer.finish(sid)
                units.append([name, start, end])

        try:
            result["lines"] = workload.run(unit)
        except Exception:
            result["error"] = traceback.format_exc()
        if tracer:
            result["layers"] = tracer.layer_metrics()
            tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
