"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.

Criterion 1 exercises the full-singular grid over 2 <= n <= 5 at three
seeds; criterion 2 extends to n = 6, p <= 3 through the rank-degeneracy
proxy.  The n <= 11 range of the original computation is deliberately NOT
reproduced at desk scale.
"""

import json
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from polarvar.experiment import (CellSpec, derive_seed, expected_singular_dim,
                                 random_dense_poly, random_full_rank_matrix,
                                 random_smooth_system, run_cell, run_grid,
                                 sample_points_small_field)
from polarvar.families import (build_family_31, degree_domination_check,
                               example2_chain, verify_singular_witness)
from polarvar.field import PrimeField
from polarvar.groebner import (GroebnerBasis, IdealPresentation, degree,
                               dimension, reduced_groebner_basis,
                               standard_monomials)
from polarvar.matrices import (PolyMatrix, determinant_division_free,
                               enumerate_minors)
from polarvar.polar import (PolarSpec, incidence_fiber_dim, polar_stack,
                            thom_boardman_class)
from polarvar.poly import Polynomial, evaluate

from conftest import (brute_force_dimension, count_staircase, det_cofactor,
                      expected_polar_degree, monomial_div, naive_normal_form,
                      random_poly, shift)

MASTER_SEED = 20260810
GOLDEN = Path(__file__).parent / "golden"


def degree_problems(results) -> list:
    """Nonempty records whose deg_W differs from the closed form."""
    return [(r.n, r.p, r.i, r.flavor, r.deg_W) for r in results
            if r.status == "ok" and r.dim_W >= 0
            and r.deg_W != expected_polar_degree(r.n, r.p, r.i, r.flavor)]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def K():
    return PrimeField()


@pytest.fixture(scope="module")
def full_grid():
    """Criteria 1/3/4/5 share these runs: classic, full mode, 3 seeds."""
    start = time.monotonic()
    results = run_grid(5, seeds=3, mode="full", master_seed=MASTER_SEED)
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def delta_grid_n6():
    """Criterion 2: n = 6, p <= 3, delta-proxy mode, 3 seeds."""
    results = []
    for p in range(1, 4):
        for i in range(1, 6 - p + 1):
            for k in range(3):
                seed = derive_seed(MASTER_SEED, 6, p, k)
                results.append(run_cell(
                    CellSpec(6, p, i, seed=seed, mode="delta")))
    return results


@pytest.fixture(scope="module")
def delta_grid_small():
    return run_grid(5, seeds=1, mode="delta", master_seed=MASTER_SEED + 1)


def test_criterion_01_full_singular_grid(full_grid):
    results, elapsed = full_grid
    assert len(results) == 20 * 3
    problems = []
    for r in results:
        if r.status != "ok":
            problems.append((r.n, r.p, r.i, r.status))
        elif r.mode != "full":
            problems.append((r.n, r.p, r.i, "fell back to proxy"))
        elif r.redraws_used > 5:
            problems.append((r.n, r.p, r.i, "too many redraws"))
        elif r.dim_sing != expected_singular_dim(r.n, r.p, r.i, r.flavor):
            problems.append((r.n, r.p, r.i, r.dim_sing))
    problems += degree_problems(results)
    ok = not problems and elapsed <= 1800
    report(1, ok, f"{len(results)} cells, full-singular mode, deg_W in "
                  f"closed form, {elapsed:.0f}s <= 1800s; problems: {problems}")


def test_criterion_02_delta_proxy_extension(delta_grid_n6):
    problems = [(r.n, r.p, r.i, r.status, r.dim_sing)
                for r in delta_grid_n6
                if r.status != "ok"
                or r.dim_sing != expected_singular_dim(r.n, r.p, r.i, r.flavor)]
    problems += degree_problems(delta_grid_n6)
    ok = not problems
    report(2, ok, f"n=6, p<=3, {len(delta_grid_n6)} delta-proxy cells, deg_W "
                  f"in closed form "
                  f"(the n<=11 grid is NOT reproduced at desk scale); "
                  f"problems: {problems}")


def test_criterion_03_hypersurfaces_smooth(full_grid, delta_grid_n6):
    cells = [r for r in list(full_grid[0]) + delta_grid_n6
             if r.p == 1 and r.status == "ok"]
    bad = [(r.n, r.i, r.dim_sing) for r in cells if r.dim_sing != -1]
    report(3, bool(cells) and not bad,
           f"{len(cells)} hypersurface cells all report empty singular locus; "
           f"bad: {bad}")


def test_criterion_04_smoothness_zone(full_grid, delta_grid_n6):
    cells = [r for r in list(full_grid[0]) + delta_grid_n6
             if 2 * r.i + 2 > r.n - r.p and r.status == "ok"]
    bad = [(r.n, r.p, r.i, r.dim_sing) for r in cells if r.dim_sing != -1]
    report(4, bool(cells) and not bad,
           f"{len(cells)} cells with 2i+2 > n-p all smooth; bad: {bad}")


def test_criterion_05_pure_codimension_law(full_grid):
    results = [r for r in full_grid[0] if r.status == "ok"]
    dual = [r for r in run_grid(4, seeds=1, mode="full", flavor="dual",
                                master_seed=MASTER_SEED + 2)
            if r.status == "ok"]
    instances = results + dual
    bad = [(r.n, r.p, r.i, r.flavor, r.dim_W) for r in instances
           if r.dim_W not in (-1, r.n - r.p - r.i)]
    bad += degree_problems(instances)
    nonempty = [r for r in instances if r.dim_W is not None and r.dim_W >= 0]
    ok = len(instances) >= 50 and not bad and len(nonempty) >= 50 and dual
    report(5, ok, f"{len(instances)} instances ({len(dual)} dual), "
                  f"{len(nonempty)} nonempty, all of dimension n-p-i and "
                  f"degree 2^p*C(p+i-1,i) (classic) or 2^p*C(p+i,i) (dual); "
                  f"bad: {bad}")


def test_criterion_06_delta_codimension_bound(delta_grid_n6, delta_grid_small):
    cells = [r for r in delta_grid_n6 + list(delta_grid_small)
             if r.status == "ok" and r.dim_W is not None and r.dim_W >= 0]
    bad = []
    for r in cells:
        bound = r.n - r.p - 2 * r.i - 2
        if not (r.dim_sing == -1 or r.dim_sing <= bound):
            bad.append((r.n, r.p, r.i, r.dim_sing, bound))
    bad += degree_problems(cells)
    report(6, bool(cells) and not bad,
           f"{len(cells)} nonempty instances keep dim of the degeneracy locus "
           f"within n-p-2i-2; bad: {bad}")


def test_criterion_07_singular_witness_family(K):
    failures = []
    runs = 0
    for n in (6, 7):
        for k in range(5):
            inst = build_family_31(n, seed=derive_seed(MASTER_SEED, 31, n, k),
                                   field=K)
            rep = verify_singular_witness(inst)
            runs += 1
            if not rep.ok:
                failures.append((n, k, rep.failures))
    report(7, runs == 10 and not failures,
           f"{runs} seeded witness instances (n=6,7) pass all exact checks; "
           f"failures: {failures}")


def test_criterion_08_degree_domination(K):
    combos = [(3, 1, 1, "classic"), (3, 1, 2, "classic"), (3, 2, 1, "classic"),
              (4, 1, 1, "classic"), (4, 1, 3, "classic"), (4, 2, 1, "classic"),
              (4, 2, 2, "classic"), (4, 3, 1, "classic"), (5, 2, 2, "classic"),
              (5, 3, 1, "classic"), (3, 1, 1, "dual"), (4, 2, 1, "dual")]
    problems = []
    for idx, (n, p, i, flavor) in enumerate(combos):
        F = random_smooth_system(K, n, p, seed=derive_seed(MASTER_SEED, 8, n, p, idx))
        rep = degree_domination_check(F, i, trials=2,
                                      seed=derive_seed(MASTER_SEED, 80, idx),
                                      flavor=flavor)
        if not rep.random_degrees_agree:
            problems.append((n, p, i, flavor, "random degrees differ",
                             rep.random_degrees))
        if any(d != expected_polar_degree(n, p, i, flavor)
               for d in rep.random_degrees):
            problems.append((n, p, i, flavor, "random degree off the closed "
                             "form", rep.random_degrees))
        if not rep.dominated:
            problems.append((n, p, i, flavor, "structured degree exceeds generic",
                             rep.structured_degrees))
        if not rep.within_bezout(2):
            problems.append((n, p, i, flavor, "Bezout bound violated"))
    report(8, not problems,
           f"{len(combos)} smooth quadric systems: generic degree in closed "
           f"form, structured degrees dominated by it and within "
           f"2^n * p^(n-p); problems: {problems}")


def test_criterion_09_dual_chain(K):
    F = random_smooth_system(K, 4, 2, seed=derive_seed(MASTER_SEED, 9, 4, 2))
    rng = random.Random(derive_seed(MASTER_SEED, 90))
    gamma = [rng.randrange(1, K.q) for _ in range(4)]
    chain = example2_chain(F, gamma)
    dims = [lv.dim for lv in chain.levels]
    hyper = random_smooth_system(K, 4, 1, seed=derive_seed(MASTER_SEED, 9, 4, 1))
    gamma2 = [rng.randrange(1, K.q) for _ in range(4)]
    chain2 = example2_chain(hyper, gamma2)
    dims2 = [lv.dim for lv in chain2.levels]
    ok = (chain.ok and dims == [1, 0] and chain2.ok and dims2 == [2, 1, 0])
    report(9, ok, f"localized dual chains descend one dimension per level and "
                  f"stay smooth: (4,2) dims {dims}, (4,1) dims {dims2}")


def test_criterion_10_pointwise_rank_suite():
    F7 = PrimeField(7)
    counterexamples = 0
    checks = 0
    for (n, p) in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]:
        regular = []
        for attempt in range(50):
            rng = random.Random(derive_seed(MASTER_SEED, 10, n, p, attempt))
            F = [random_dense_poly(rng, F7, n) for _ in range(p)]
            pts = sample_points_small_field(F)
            regular = [pt for pt, reg in pts.points if reg]
            if regular:
                break
        a_full = random_full_rank_matrix(rng, F7, n - p, n)
        for i in range(1, n - p + 1):
            a_i = a_full.submatrix(range(n - p - i + 1), range(n))
            spec = PolarSpec.classic(n, p, i, F, a_i)
            stack = polar_stack(spec)
            polar_minors = list(enumerate_minors(stack, n - i + 1))
            delta_minors = list(enumerate_minors(stack, n - i))
            for x in regular:
                j = thom_boardman_class(F, a_i, x)
                on_polar = all(evaluate(m, x) == 0 for m in polar_minors)
                on_delta = all(evaluate(m, x) == 0 for m in delta_minors)
                fiber = incidence_fiber_dim(F, a_i, x, i)
                checks += 3
                if on_polar != (j >= i):
                    counterexamples += 1
                if on_delta != (j >= i + 1):
                    counterexamples += 1
                if fiber != j - i:
                    counterexamples += 1
    report(10, checks >= 1000 and counterexamples == 0,
           f"{checks} exhaustive pointwise checks over F_7, "
           f"{counterexamples} counterexamples")


def test_criterion_11_engine_oracles(K):
    problems = []
    rng = random.Random(derive_seed(MASTER_SEED, 11))

    # reduced-basis properties on 100 random small ideals
    from polarvar.poly import monomial_divides, monomial_lcm
    done = 0
    while done < 100:
        n = rng.choice([2, 3])
        gens = [random_poly(rng, K, n, max_degree=2, terms=3)
                for _ in range(rng.choice([2, 3]))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        G = reduced_groebner_basis(IdealPresentation(K, n, gens))
        for f, g in combinations(G.basis, 2):
            lf, lg = f.leading_monomial(), g.leading_monomial()
            lcm = monomial_lcm(lf, lg)
            s = shift(f, monomial_div(lcm, lf)) - shift(g, monomial_div(lcm, lg))
            if not naive_normal_form(s, G.basis).is_zero:
                problems.append("s-polynomial fails to reduce")
        for idx, g in enumerate(G.basis):
            for m in g.terms:
                if any(monomial_divides(o.leading_monomial(), m)
                       for jdx, o in enumerate(G.basis) if jdx != idx):
                    problems.append("basis not reduced")
        shuffled = gens[:]
        rng.shuffle(shuffled)
        G2 = reduced_groebner_basis(IdealPresentation(
            K, n, [g.scale(rng.randrange(1, K.q)) for g in shuffled]))
        if G.basis != G2.basis:
            problems.append("basis not canonical under permutation")
        done += 1

    # dimension against the all-subsets oracle on 100 monomial ideals
    for _ in range(100):
        n = rng.randrange(2, 9)
        lms = [tuple(rng.randrange(3) for _ in range(n))
               for _ in range(rng.randrange(1, 5))]
        lms = [m for m in lms if any(m)]
        if not lms:
            continue
        G = GroebnerBasis(K, n, [Polynomial(K, n, {m: 1}) for m in lms])
        if dimension(G) != brute_force_dimension(lms, n):
            problems.append(f"dimension mismatch on {lms}")

    # zero-dimensional degree equals the staircase count, 30 instances
    done = 0
    while done < 30:
        n = rng.randrange(2, 5)
        lms = [tuple(rng.randrange(1, 4) if j == k else 0 for j in range(n))
               for k in range(n)]
        for _ in range(rng.randrange(3)):
            lms.append(tuple(rng.randrange(3) for _ in range(n)))
        lms = [m for m in lms if any(m)]
        G = GroebnerBasis(K, n, [Polynomial(K, n, {m: 1}) for m in lms])
        if dimension(G) != 0:
            continue
        if degree(G) != count_staircase(lms, n) or \
                degree(G) != len(standard_monomials(G)):
            problems.append(f"degree mismatch on {lms}")
        done += 1

    # division-free determinants against the cofactor oracle, 50 matrices
    for trial in range(50):
        size = 2 + trial % 4  # 2..5
        M = PolyMatrix([[random_poly(rng, K, 2, max_degree=2, terms=2)
                         for _ in range(size)] for _ in range(size)])
        if determinant_division_free(M) != det_cofactor(M):
            problems.append(f"determinant mismatch at size {size}")

    report(11, not problems, f"engine oracles (100 bases, 100 dimensions, "
                             f"30 degrees, 50 determinants); problems: "
                             f"{problems[:3]}")


def test_criterion_12_experiment_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    base = [sys.executable, "-m", "polarvar.cli", "experiment", "--nmax", "4",
            "--seeds", "2", "--master-seed", "424242", "--out"]
    r1 = subprocess.run(base + [str(out1)], capture_output=True, text=True)
    r2 = subprocess.run(base + [str(out2)], capture_output=True, text=True)
    same = out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    ok = (r1.returncode == 0 and r2.returncode == 0 and same
          and len(records) == 20 and all(r["match"] for r in records))
    report(12, ok, f"two runs of the experiment grid produce byte-identical "
                   f"JSON-lines ({len(records)} records)")


@pytest.mark.parametrize("grid", ["full_grid", "delta_grid_n6", "delta_grid_small"])
def test_grid_records_match_golden_files(request, grid):
    """Each shared grid's records, one `json.dumps(r.to_record())` line per
    cell as `polar experiment --out` writes them, equal the committed file
    byte for byte.  Criterion 12 compares two runs of the same code; this
    pins the values across changes to the engines.  The fixtures are the
    ones the criteria use, so the comparison adds no Groebner work."""
    results = request.getfixturevalue(grid)
    if grid == "full_grid":
        results = results[0]
    lines = "".join(json.dumps(r.to_record()) + "\n" for r in results)
    assert lines == (GOLDEN / f"{grid}.jsonl").read_text(encoding="utf-8")
