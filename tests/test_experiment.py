"""Experiment harness: seeding, cell runs, grids, point sampling."""

import dataclasses
import json
import random
from itertools import product

import pytest

from polarvar import experiment, polar
from polarvar.experiment import (FULL_RANK_DRAWS, CellSpec, derive_seed,
                                 expected_singular_dim, grid_triples,
                                 random_dense_poly, random_full_rank_matrix,
                                 run_cell, run_grid, sample_points_small_field,
                                 random_smooth_system, summarize_grid)
from polarvar.field import PrimeField
from polarvar.groebner import BudgetExceededError, GBLimits
from polarvar.matrices import jacobian
from polarvar.parsing import parse_polynomial
from polarvar.polar import CLASSIC, DUAL, SmoothnessReport
from polarvar.poly import Polynomial, evaluate

from conftest import evaluate_matrix, naive_evaluate, random_poly


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(0, n, p, k) for n in range(6) for p in range(4)
            for k in range(4)}
    assert len(seen) == 6 * 4 * 4
    assert all(0 <= s < 2**64 for s in seen)


def test_expected_singular_dimension_table():
    # classic hypersurfaces are always smooth, whatever the formula would say
    assert expected_singular_dim(5, 1, 1, CLASSIC) == -1
    assert expected_singular_dim(6, 1, 1, CLASSIC) == -1
    # p > 1 follows max{-1, n - p - (2i+2)}
    assert expected_singular_dim(5, 2, 1, CLASSIC) == -1
    assert expected_singular_dim(6, 2, 1, CLASSIC) == 0
    assert expected_singular_dim(7, 2, 1, CLASSIC) == 1
    assert expected_singular_dim(6, 2, 2, CLASSIC) == -1
    assert expected_singular_dim(4, 1, 1, CLASSIC) == -1
    # the dual flavor follows the formula at every p, p = 1 included
    assert expected_singular_dim(4, 1, 1, DUAL) == -1
    assert expected_singular_dim(5, 1, 1, DUAL) == 0
    assert expected_singular_dim(6, 1, 1, DUAL) == 1
    assert expected_singular_dim(6, 2, 1, DUAL) == 0
    assert expected_singular_dim(6, 2, 2, DUAL) == -1


def test_random_dense_poly_is_a_quadric(K):
    rng = random.Random(3)
    f = random_dense_poly(rng, K, 4)
    assert f.total_degree() == 2
    assert all(sum(m) <= 2 for m in f.terms)
    rng2 = random.Random(3)
    assert random_dense_poly(rng2, K, 4) == f


def test_random_dense_poly_draw_order_is_pinned():
    # one draw per monomial in lexicographic exponent order; a change of
    # that order changes every seeded system of the experiment
    f = random_dense_poly(random.Random(5), PrimeField(7), 3)
    assert str(f) == ("-3*x1^2 - 2*x1*x2 - 2*x2^2 - 2*x1*x3 - x2*x3 - 2*x3^2"
                      " - x1 + 2*x2 + 2*x3 - 3")


def test_random_full_rank_matrix(K):
    rng = random.Random(9)
    M = random_full_rank_matrix(rng, K, 3, 5)
    assert M.rank() == 3
    # rank can never reach the row count: refused before any draw
    with pytest.raises(ValueError):
        random_full_rank_matrix(random.Random(0), PrimeField(7), 3, 2)


class _Zeros:
    """An rng whose every draw is 0."""

    draws = 0

    def randrange(self, q):
        self.draws += 1
        return 0


def test_random_full_rank_matrix_is_bounded():
    rng = _Zeros()
    with pytest.raises(BudgetExceededError) as err:
        random_full_rank_matrix(rng, PrimeField(7), 2, 3)
    assert (err.value.kind, err.value.limit) == ("full-rank draws",
                                                FULL_RANK_DRAWS)
    assert str(err.value) == f"budget exceeded: full-rank draws limit {FULL_RANK_DRAWS}"
    assert rng.draws == FULL_RANK_DRAWS * 2 * 3


def test_exhausted_full_rank_draws_skip_the_cell(monkeypatch):
    monkeypatch.setattr(experiment, "FULL_RANK_DRAWS", 0)
    experiment._smooth_draw.cache_clear()
    try:
        r = run_cell(CellSpec(3, 1, 1, seed=derive_seed(5, 3, 1, 0)))
    finally:
        experiment._smooth_draw.cache_clear()
    assert (r.status, r.redraws_used, r.match) == ("skipped", 0, None)


def test_cell_spec_validation():
    with pytest.raises(ValueError):
        CellSpec(2, 2, 1)
    with pytest.raises(ValueError):
        CellSpec(3, 1, 3)
    with pytest.raises(ValueError):
        CellSpec(3, 1, 1, mode="bogus")


def test_cell_runs_deterministically(K):
    spec = CellSpec(4, 2, 1, seed=derive_seed(5, 4, 2, 0))
    r1 = run_cell(spec)
    r2 = run_cell(spec)
    assert r1.to_record() == r2.to_record()
    assert r1.status == "ok"
    assert r1.match is True
    assert r1.dim_W == 1
    rec = r1.to_record()
    assert rec["elapsed_ms"] is None
    assert r1.to_record(with_timing=True)["elapsed_ms"] >= 0


def test_grid_triples_enumeration():
    assert len(grid_triples(4)) == 10
    assert grid_triples(2) == [(2, 1, 1)]


def test_small_grid_matches_everywhere(K):
    results = run_grid(3, seeds=1, master_seed=31)
    assert len(results) == 4
    assert all(r.status == "ok" for r in results)
    assert all(r.match for r in results)
    # dual flavor works through the same path
    dual = run_grid(3, seeds=1, master_seed=31, flavor="dual")
    assert all(r.status == "ok" and r.dim_W in (-1, r.n - r.p - r.i)
               for r in dual)
    summary = summarize_grid(results)
    assert "matched: 4" in summary


def test_grid_shares_draws_across_i(K):
    # cells differing only in i derive their system from (master, n, p, k),
    # so the polar dimensions line up along a single nested matrix
    results = run_grid(4, seeds=1, master_seed=77)
    by_key = {(r.n, r.p, r.i): r for r in results}
    assert by_key[(4, 1, 1)].seed == by_key[(4, 1, 3)].seed
    assert by_key[(4, 1, 1)].seed != by_key[(4, 2, 1)].seed


def test_circle_points_over_f7(F7):
    circle = parse_polynomial("x1^2+x2^2-1", 2, F7)
    out = sample_points_small_field([circle])
    assert out.exhaustive and out.complete
    assert len(out.points) == 8
    for pt, regular in out.points:
        assert evaluate(circle, pt) == 0
        assert regular  # the gradient vanishes only at the origin


def test_empty_system_has_no_points(F7):
    F = [parse_polynomial("x1", 2, F7), parse_polynomial("x1+1", 2, F7)]
    out = sample_points_small_field(F)
    assert out.exhaustive and out.complete
    assert out.points == ()


def test_singular_point_tagging(F7):
    cross = parse_polynomial("x1*x2", 2, F7)
    out = sample_points_small_field([cross])
    tags = dict(out.points)
    assert tags[(0, 0)] is False
    assert tags[(0, 1)] is True
    assert len(out.points) == 13  # both axes over F_7


def test_random_smooth_system_verifies(K):
    from polarvar.polar import verify_smooth_complete_intersection
    F = random_smooth_system(K, 3, 2, seed=8)
    assert verify_smooth_complete_intersection(F).ok
    # the quadrics come first in the draw, so the matrix drawn after them
    # does not move them
    rng = random.Random(derive_seed(8, 0))
    assert F == [random_dense_poly(rng, K, 3) for _ in range(2)]


def test_random_smooth_system_is_bounded(K, monkeypatch):
    monkeypatch.setattr(experiment, "_SYSTEM_ATTEMPTS", 0)
    with pytest.raises(BudgetExceededError) as err:
        random_smooth_system(K, 3, 2, seed=8)
    assert (err.value.kind, err.value.limit) == ("smooth-system draws", 0)
    assert str(err.value) == "budget exceeded: smooth-system draws limit 0"


def test_grid_draws_and_verifies_each_system_once(monkeypatch):
    calls = []
    inner = experiment.verify_smooth_complete_intersection

    def counting(F, limits):
        calls.append(len(F))
        return inner(F, limits)

    monkeypatch.setattr(experiment, "verify_smooth_complete_intersection",
                        counting)
    experiment._smooth_draw.cache_clear()
    results = run_grid(4, seeds=2, master_seed=77)
    draws = {}
    for r in results:
        key = (r.n, r.p, r.seed)
        draws[key] = max(draws.get(key, 0), r.redraws_used + 1)
    assert len(calls) == sum(draws.values())
    assert len(draws) == 12 and len(results) == 20


def brute_force_points(F):
    """Every point of F_q^n in product order, evaluated term by term, with
    the rank of the symbolic Jacobian evaluated there."""
    field, n = F[0].field, F[0].n
    J = jacobian(F)
    return [(x, evaluate_matrix(J, x).rank() == len(F))
            for x in product(range(field.q), repeat=n)
            if all(naive_evaluate(f, x) == 0 for f in F)]


def oracle_systems():
    """Random systems over F_5 and F_7 for n = 1..4 and p = 1..3, each
    shifted to vanish at a random point; then a cubic, a constant, the
    zero polynomial, and systems in which x_n is missing from one or every
    polynomial."""
    rng = random.Random(2024)
    for q in (5, 7):
        field = PrimeField(q)
        for n in range(1, 5):
            for p in range(1, 4):
                for _ in range(2):
                    x0 = [rng.randrange(q) for _ in range(n)]
                    F = []
                    for _ in range(p):
                        f = random_poly(rng, field, n, max_degree=3, terms=4)
                        F.append(f - Polynomial.constant(
                            field, n, naive_evaluate(f, x0)))
                    yield F
        yield [parse_polynomial("x1^3 - x2^2 + x3*x1 - 2", 3, field)]
        yield [parse_polynomial("x1*x2 - 1", 2, field),
               Polynomial.constant(field, 2, 3)]
        yield [parse_polynomial("x1^2 + x2^2 - x3", 3, field),
               Polynomial.zero(field, 3)]
        yield [Polynomial.zero(field, 2)]
        yield [parse_polynomial("x1^2 + x2^2 - 1", 3, field)]
        yield [parse_polynomial("x1*x2 - 1", 3, field),
               parse_polynomial("x2 + x3^2 - 2", 3, field)]
        yield [parse_polynomial("x1 - x3^3", 4, field),
               parse_polynomial("x2 - x4", 4, field),
               parse_polynomial("x1^2 - 1", 4, field)]


def test_point_scan_matches_brute_force():
    cases = 0
    for F in oracle_systems():
        out = sample_points_small_field(F)
        assert list(out.points) == brute_force_points(F), [str(f) for f in F]
        cases += 1
    assert cases == 2 * (4 * 3 * 2 + 7)


def dense_systems():
    """Dense quadrics over F_5 and F_7, every monomial of degree <= 2 drawn
    as random_dense_poly draws it, for n = 2..4 and p = 1..3, each shifted
    to vanish at a random point."""
    rng = random.Random(26)
    for q in (5, 7):
        field = PrimeField(q)
        for n in range(2, 5):
            for p in range(1, 4):
                x0 = [rng.randrange(q) for _ in range(n)]
                F = []
                for _ in range(p):
                    f = random_dense_poly(rng, field, n)
                    F.append(f - Polynomial.constant(field, n,
                                                     naive_evaluate(f, x0)))
                yield F


def test_point_scan_matches_brute_force_on_dense_quadrics():
    cases = 0
    for F in dense_systems():
        out = sample_points_small_field(F)
        assert list(out.points) == brute_force_points(F), [str(f) for f in F]
        assert out.exhaustive and out.complete
        cases += 1
    assert cases == 2 * 3 * 3


def test_point_scan_with_a_constant_in_x_n(F7):
    # x1 - 2 is a nonzero constant in x3 on every prefix with x1 != 2, so
    # the sweep rejects every root there; the quadric decides the rest
    F = [parse_polynomial("x1 - 2", 3, F7),
         parse_polynomial("x1^2 + x2^2 + x3^2 - 1", 3, F7)]
    got = list(sample_points_small_field(F).points)
    assert got == brute_force_points(F)
    assert got and all(x[0] == 2 for x, _ in got)


def test_point_scan_rejects_bad_systems(F7, K):
    with pytest.raises(ValueError, match="empty system"):
        sample_points_small_field([])
    with pytest.raises(ValueError):  # two variable counts
        sample_points_small_field([parse_polynomial("x1", 1, F7),
                                   parse_polynomial("x1", 2, F7)])
    with pytest.raises(ValueError):  # two fields
        sample_points_small_field([parse_polynomial("x1", 1, F7),
                                   parse_polynomial("x1", 1, PrimeField(5))])
    with pytest.raises(ValueError, match="no variables"):
        sample_points_small_field([Polynomial.constant(F7, 0, 1)])


def test_point_enumeration_refuses_large_spaces(K):
    # q^2 is far beyond the enumeration limit at the default prime
    with pytest.raises(ValueError):
        sample_points_small_field([parse_polynomial("x1^2+x2^2-1", 2, K)])


def test_full_and_delta_modes_agree(K):
    # both routes to the singular dimension coincide, including on a cell
    # with a genuinely nonempty singular locus
    for (n, p, i) in [(4, 2, 1), (5, 2, 1), (6, 2, 1)]:
        seed = derive_seed(1234, n, p, 0)
        full = run_cell(CellSpec(n, p, i, seed=seed, mode="full"))
        delta = run_cell(CellSpec(n, p, i, seed=seed, mode="delta"))
        assert full.status == delta.status == "ok"
        assert full.mode == "full"
        assert full.dim_sing == delta.dim_sing
    assert full.dim_sing == 0  # (6,2,1) has a zero-dimensional singular locus


def test_cell_records_singular_route(K, monkeypatch):
    # the grid's (5,2,*) draw: W is zero-dimensional at i = 3 and a curve
    # at i = 2; the route stays out of the JSON-lines record
    seed = derive_seed(0, 5, 2, 0)
    radical = run_cell(CellSpec(5, 2, 3, seed=seed))
    jacobian = run_cell(CellSpec(5, 2, 2, seed=seed))
    assert (radical.dim_W, radical.sing_route) == (0, "radical")
    assert (jacobian.dim_W, jacobian.sing_route) == (1, "jacobian")
    assert radical.match and jacobian.match
    assert "sing_route" not in radical.to_record()
    # W's basis fits in 50 pairs, the radical test does not: the cell skips
    starved = run_cell(CellSpec(5, 2, 3, seed=seed), GBLimits(max_pairs=50))
    assert (starved.status, starved.dim_W, starved.sing_route) == ("skipped", 0, None)
    # the cap bounds Jacobian minors only: the radical route ignores it,
    # and the curve skips like a cell past any other budget
    monkeypatch.setattr(polar, "MINOR_CAP", 1)
    uncapped = run_cell(CellSpec(5, 2, 3, seed=seed))
    assert (uncapped.mode, uncapped.sing_route) == ("full", "radical")
    capped = run_cell(CellSpec(5, 2, 2, seed=seed))
    assert (capped.status, capped.mode, capped.sing_route) == ("skipped", "full", None)
    assert (capped.dim_W, capped.dim_sing, capped.match) == (1, None, None)


def test_zero_dimensional_cell_past_the_cap_stays_full():
    # (6,2,4) of the n = 6 grid: W has D = 20 points and its Jacobian
    # criterion would need more minors than the default cap, but the
    # radical test builds none
    cell = run_cell(CellSpec(6, 2, 4, seed=derive_seed(1, 6, 2, 0)))
    assert (cell.dim_W, cell.deg_W) == (0, 20)
    assert (cell.mode, cell.sing_route, cell.dim_sing) == ("full", "radical", -1)


# the cells of the n = 6, p <= 2 full grid at master seed 1 whose Jacobian
# criterion would pass the default MINOR_CAP if the polar generators were
# the minors of the whole stack: (6,1,3) 27 300, (6,1,4) 122 094 and
# (6,2,3) 37 128.  From the minors of J(F)*N they stay under it, in full mode
_CAPPED_CELLS = [
    '{"n": 6, "p": 1, "i": 3, "flavor": "classic", "prime": 10000000019, '
    '"seed": 15384943807377822175, "regular_sequence_ok": true, '
    '"smooth_ok": true, "dim_W": 2, "deg_W": 2, "dim_sing": -1, '
    '"expected_dim_sing": -1, "match": true, "mode": "full", '
    '"status": "ok", "redraws_used": 0, "elapsed_ms": null}',
    '{"n": 6, "p": 1, "i": 4, "flavor": "classic", "prime": 10000000019, '
    '"seed": 15384943807377822175, "regular_sequence_ok": true, '
    '"smooth_ok": true, "dim_W": 1, "deg_W": 2, "dim_sing": -1, '
    '"expected_dim_sing": -1, "match": true, "mode": "full", '
    '"status": "ok", "redraws_used": 0, "elapsed_ms": null}',
    '{"n": 6, "p": 2, "i": 3, "flavor": "classic", "prime": 10000000019, '
    '"seed": 4419176716681592297, "regular_sequence_ok": true, '
    '"smooth_ok": true, "dim_W": 1, "deg_W": 16, "dim_sing": -1, '
    '"expected_dim_sing": -1, "match": true, "mode": "full", '
    '"status": "ok", "redraws_used": 0, "elapsed_ms": null}',
]


@pytest.mark.parametrize("record", _CAPPED_CELLS)
def test_default_minor_cap_falls_back_to_delta(record):
    want = json.loads(record)
    n, p, i = want["n"], want["p"], want["i"]
    assert want["seed"] == derive_seed(1, n, p, 0)
    cell = run_cell(CellSpec(n, p, i, seed=want["seed"]))
    assert json.dumps(cell.to_record()) == record
    assert (cell.mode, cell.sing_route, cell.match) == ("full", "jacobian", True)


# at prime 7 the first draws of (4,3) at seed indices 0 and 1 are not
# smooth, so run_cell redraws once for them
_REDRAWN_CELLS = [
    '{"n": 4, "p": 3, "i": 1, "flavor": "classic", "prime": 7, '
    '"seed": 14227497779494753458, "regular_sequence_ok": true, '
    '"smooth_ok": true, "dim_W": 0, "deg_W": 24, "dim_sing": -1, '
    '"expected_dim_sing": -1, "match": true, "mode": "full", '
    '"status": "ok", "redraws_used": 1, "elapsed_ms": null}',
    '{"n": 4, "p": 3, "i": 1, "flavor": "classic", "prime": 7, '
    '"seed": 14889571637866454010, "regular_sequence_ok": true, '
    '"smooth_ok": true, "dim_W": 0, "deg_W": 24, "dim_sing": -1, '
    '"expected_dim_sing": -1, "match": true, "mode": "full", '
    '"status": "ok", "redraws_used": 1, "elapsed_ms": null}',
]


def test_non_smooth_draws_are_redrawn():
    results = run_grid(4, seeds=3, master_seed=1, prime=7)
    redrawn = [json.dumps(r.to_record()) for r in results if r.redraws_used]
    assert redrawn == _REDRAWN_CELLS
    assert {derive_seed(1, 4, 3, k) for k in (0, 1)} == \
        {json.loads(rec)["seed"] for rec in _REDRAWN_CELLS}
    assert all(r.status == "ok" for r in results)


@pytest.fixture
def fresh_draws():
    """An empty draw memo before and after the test, so that no draw made
    under a monkeypatch outlives it."""
    experiment._smooth_draw.cache_clear()
    yield
    experiment._smooth_draw.cache_clear()


def test_non_generic_matrix_is_redrawn(fresh_draws, monkeypatch):
    # attempt 0 reports a polar variety of the wrong dimension, as a special
    # matrix would: the cell redraws and answers from attempt 1
    polar_ideal, dims = experiment.polar_ideal, []

    def wrong_dimension_first(pspec, limits):
        result = polar_ideal(pspec, limits)
        dims.append(result.dim)
        if len(dims) == 1:
            result = dataclasses.replace(result, dim=result.dim + 1)
        return result

    monkeypatch.setattr(experiment, "polar_ideal", wrong_dimension_first)
    cell = run_cell(CellSpec(5, 2, 2, seed=derive_seed(0, 5, 2, 0)))
    assert dims == [1, 1]
    assert (cell.status, cell.redraws_used, cell.dim_W) == ("ok", 1, 1)
    assert (cell.dim_sing, cell.match) == (-1, True)


def test_redraws_exhausted(fresh_draws, monkeypatch):
    never_smooth = SmoothnessReport(regular_sequence_ok=True, smooth_ok=False,
                                    prefix_dims=(4, 3))
    monkeypatch.setattr(experiment, "verify_smooth_complete_intersection",
                        lambda F, limits: never_smooth)
    cell = run_cell(CellSpec(5, 2, 2, seed=derive_seed(0, 5, 2, 0)))
    assert cell.status == "redraws_exhausted"
    assert cell.redraws_used == experiment.REDRAW_BUDGET + 1
    assert (cell.smooth_ok, cell.dim_W, cell.dim_sing, cell.match) == \
        (None, None, None, None)
