"""The four benchmark workloads.

Each workload turns the run seed into inputs and then runs its units back to
back in one process: a closed loop with one client.  A unit yields one output
line.  For the two grids that line is the `polar experiment` JSON-lines
record itself, so the reference comparison is byte for byte; for the other
workloads it is a sorted-key JSON object.  `check` lists the invariant
failures of one line and holds for every seed.

Library calls go through module attributes (`polar.thom_boardman_class`, not
an imported name), so that the tracer's patches are seen here too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from polarvar import cli, experiment, families, matrices, polar, poly
from polarvar.field import PrimeField

DEFAULT_SEED = 1


class Workload:
    """One workload: `prepare` builds inputs from the seed (set-up time),
    `run` executes every unit inside `unit(name)` and returns
    [(unit name, output line)] in unit order."""

    name = ""

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def prepare(self) -> None:
        pass

    def unit_names(self) -> list[str]:
        raise NotImplementedError

    def run(self, unit) -> list[tuple[str, str]]:
        raise NotImplementedError

    def check(self, name: str, line: str) -> list[str]:
        raise NotImplementedError


class Grid(Workload):
    """`polar experiment` through the CLI; one unit per `run_cell` call."""

    nmax = 0
    p_max = 0
    mode = ""

    @property
    def argv(self) -> list[str]:
        return ["experiment", "--nmax", str(self.nmax), "--p-max", str(self.p_max),
                "--mode", self.mode, "--seeds", "1", "--master-seed", str(self.seed)]

    def unit_names(self) -> list[str]:
        return [f"{n},{p},{i}" for n, p, i in experiment.grid_triples(self.nmax)
                if p <= self.p_max]

    def run(self, unit) -> list[tuple[str, str]]:
        out = os.path.join(self.scratch, f"{self.name}-{os.getpid()}.jsonl")
        inner = experiment.run_cell

        def run_cell(spec, *args, **kwargs):
            with unit(f"{spec.n},{spec.p},{spec.i}"):
                return inner(spec, *args, **kwargs)

        experiment.run_cell = run_cell
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.dispatch(self.argv + ["--out", out])
        finally:
            experiment.run_cell = inner
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        os.remove(out)
        if code not in (cli.EXIT_OK, cli.EXIT_MISMATCH):
            raise RuntimeError(f"polar experiment exited with code {code}")
        named = []
        for line in lines:
            rec = json.loads(line)
            named.append((f"{rec['n']},{rec['p']},{rec['i']}", line))
        return named

    def check(self, name: str, line: str) -> list[str]:
        rec = json.loads(line)
        n, p, i = rec["n"], rec["p"], rec["i"]
        bad = []
        if rec["status"] != "ok":
            bad.append(f"status {rec['status']}")
        if rec["match"] is not True:
            bad.append("dim_sing does not match the expected value")
        if rec["mode"] != self.mode:
            bad.append(f"mode {rec['mode']} instead of {self.mode}")
        if rec["dim_W"] != n - p - i:
            bad.append(f"dim_W {rec['dim_W']} != n-p-i = {n - p - i}")
        return bad


class FullGrid(Grid):
    # p <= 2 keeps the minor-heavy (5,2,3) cell and drops (5,3,*), (5,4,1)
    # and (4,3,1), so that one pass fits a run; see README.md
    name = "full_grid"
    nmax, p_max, mode = 5, 2, "full"


class DeltaN6(Grid):
    # p <= 2 drops the (6,3,*), (5,3,*) and (4,3,1) cells, which are four
    # fifths of an n <= 6, p <= 3 pass, so that a run holds many passes;
    # see README.md
    name = "delta_n6"
    nmax, p_max, mode = 6, 2, "delta"


def _dumps(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


class PointsF7(Workload):
    """Exhaustive point sampling over F_7 plus the pointwise law of
    acceptance criterion 10: at a regular point x, every maximal minor of
    the polar stack vanishes exactly when the Thom-Boardman class j >= i."""

    name = "points_f7"
    systems = ((6, 2), (6, 3))

    def prepare(self) -> None:
        F7 = PrimeField(7)
        self.inputs = {}
        for n, p in self.systems:
            rng = random.Random(experiment.derive_seed(self.seed, 7, n, p))
            F = [experiment.random_dense_poly(rng, F7, n) for _ in range(p)]
            a = experiment.random_full_rank_matrix(rng, F7, n - p, n)
            self.inputs[(n, p)] = (F, a)

    def unit_names(self) -> list[str]:
        return [f"{kind} {n},{p}" for n, p in self.systems
                for kind in ("sample", "pointwise")]

    def run(self, unit) -> list[tuple[str, str]]:
        out = []
        for n, p in self.systems:
            F, a_full = self.inputs[(n, p)]
            name = f"sample {n},{p}"
            with unit(name):
                pts = experiment.sample_points_small_field(F)
                regular = [x for x, reg in pts.points if reg]
            out.append((name, _dumps({"unit": name, "points": len(pts.points),
                                      "regular": len(regular),
                                      "complete": pts.complete})))
            name = f"pointwise {n},{p}"
            with unit(name):
                on_polar, counterexamples = [], 0
                for i in range(1, n - p + 1):
                    a_i = a_full.submatrix(range(n - p - i + 1), range(n))
                    spec = polar.PolarSpec.classic(n, p, i, F, a_i)
                    minors = list(matrices.enumerate_minors(
                        polar.polar_stack(spec), n - i + 1))
                    hits = 0
                    for x in regular:
                        j = polar.thom_boardman_class(F, a_i, x)
                        on = all(poly.evaluate(m, x) == 0 for m in minors)
                        hits += on
                        counterexamples += on != (j >= i)
                    on_polar.append(hits)
            out.append((name, _dumps({"unit": name, "checks": len(regular) * (n - p),
                                      "on_polar": on_polar,
                                      "counterexamples": counterexamples})))
        return out

    def check(self, name: str, line: str) -> list[str]:
        rec = json.loads(line)
        if name.startswith("sample"):
            return [] if rec["complete"] else ["exhaustive scan incomplete"]
        if rec["counterexamples"]:
            return [f"{rec['counterexamples']} pointwise-law counterexamples"]
        return []


class Families(Workload):
    """The explicit families: singular witnesses, the localized dual chain
    and degree domination (criteria 7, 9 and 8, the last with its dual
    combos)."""

    name = "families"
    witnesses = tuple((n, k) for n in (6, 7, 8) for k in range(3))
    chains = ((4, 2), (4, 1))
    combos = ((3, 1, 1, "classic"), (3, 1, 2, "classic"), (3, 2, 1, "classic"),
              (4, 1, 1, "classic"), (4, 1, 3, "classic"), (4, 2, 1, "classic"),
              (4, 2, 2, "classic"), (4, 3, 1, "classic"), (5, 2, 2, "classic"),
              (5, 3, 1, "classic"), (3, 1, 1, "dual"), (4, 2, 1, "dual"))

    def prepare(self) -> None:
        self.K = PrimeField()

    def unit_names(self) -> list[str]:
        return ([f"witness {n},{k}" for n, k in self.witnesses]
                + [f"chain {n},{p}" for n, p in self.chains]
                + [f"degree {n},{p},{i},{fl}" for n, p, i, fl in self.combos])

    def run(self, unit) -> list[tuple[str, str]]:
        K, seed, out = self.K, self.seed, []
        for n, k in self.witnesses:
            name = f"witness {n},{k}"
            with unit(name):
                inst = families.build_family_31(
                    n, seed=experiment.derive_seed(seed, 31, n, k), field=K)
                rep = families.verify_singular_witness(inst)
            out.append((name, _dumps({"unit": name, "ok": rep.ok,
                                      "failures": list(rep.failures),
                                      "stack_rank": rep.stack_rank_at_xi})))
        for n, p in self.chains:
            name = f"chain {n},{p}"
            with unit(name):
                F = experiment.random_smooth_system(
                    K, n, p, seed=experiment.derive_seed(seed, 9, n, p))
                rng = random.Random(experiment.derive_seed(seed, 90, n, p))
                gamma = [rng.randrange(1, K.q) for _ in range(n)]
                chain = families.example2_chain(F, gamma)
            out.append((name, _dumps({
                "unit": name, "ok": chain.ok,
                "dims": [lv.dim for lv in chain.levels],
                "degrees": [lv.degree for lv in chain.levels]})))
        for idx, (n, p, i, flavor) in enumerate(self.combos):
            name = f"degree {n},{p},{i},{flavor}"
            with unit(name):
                F = experiment.random_smooth_system(
                    K, n, p, seed=experiment.derive_seed(seed, 8, n, p, idx))
                rep = families.degree_domination_check(
                    F, i, trials=2, seed=experiment.derive_seed(seed, 80, idx),
                    flavor=flavor)
            out.append((name, _dumps({
                "unit": name, "random": list(rep.random_degrees),
                "structured": {k: list(v) for k, v in rep.structured_degrees.items()},
                "agree": rep.random_degrees_agree, "dominated": rep.dominated,
                "within_bezout": rep.within_bezout(2)})))
        return out

    def check(self, name: str, line: str) -> list[str]:
        rec = json.loads(line)
        kind, args = name.split(" ")
        if kind == "witness":
            return list(rec["failures"]) + ([] if rec["ok"] else ["witness not ok"])
        if kind == "chain":
            n, p = map(int, args.split(","))
            want = [n - p - i for i in range(1, n - p + 1)]
            bad = [] if rec["ok"] else ["chain report not ok"]
            if rec["dims"] != want:
                bad.append(f"chain dims {rec['dims']} != {want}")
            return bad
        return [what for what in ("agree", "dominated", "within_bezout")
                if not rec[what]]


WORKLOADS = {w.name: w for w in (FullGrid, DeltaN6, PointsF7, Families)}
