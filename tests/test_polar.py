"""Polar constructions: worked instances, degeneracies, pointwise ranks."""

import random
from itertools import product
from math import comb

import pytest

from polarvar.field import PrimeField
from polarvar.groebner import (BudgetExceededError, GBLimits, IdealPresentation,
                               dimension, normal_form, reduced_groebner_basis)
from polarvar.matrices import ConstMatrix, enumerate_minors, jacobian
from polarvar.parsing import parse_polynomial
from polarvar.poly import Polynomial
from polarvar.polar import (MinorCapExceededError, PolarSpec, PolarSpecError,
                            PointClassificationError, analyze_ideal,
                            delta_ideal, incidence_fiber_dim,
                            polar_generators, polar_ideal, polar_stack,
                            singular_locus_dim, singular_locus_generators,
                            singular_locus_ideal,
                            thom_boardman_class,
                            verify_smooth_complete_intersection)
from polarvar import experiment, polar
from polarvar.experiment import (derive_seed, random_dense_poly,
                                 random_full_rank_matrix, run_grid)
from polarvar.families import example2_matrix

from conftest import evaluate_matrix, naive_evaluate, stack_generators


def P(text, n, field):
    return parse_polynomial(text, n, field)


def reduced_basis(spec, gens):
    return reduced_groebner_basis(IdealPresentation(spec.field, spec.n, gens)).basis


@pytest.fixture(scope="module")
def circle(K):
    return P("x1^2+x2^2-1", 2, K)


@pytest.fixture(scope="module")
def sphere(K):
    return P("x1^2+x2^2+x3^2-1", 3, K)


def test_classic_circle_two_points(K, circle):
    spec = PolarSpec.classic(2, 1, 1, [circle], ConstMatrix(K, [[1, 0]]))
    R = polar_ideal(spec)
    assert (R.dim, R.degree, R.codim_in_S) == (0, 2, 1)


def test_classic_linear_form_is_empty(K):
    spec = PolarSpec.classic(2, 1, 1, [P("x1", 2, K)], ConstMatrix(K, [[3, 7]]))
    R = polar_ideal(spec)
    assert R.dim == -1 and R.degree == 0 and R.codim_in_S is None


def test_classic_sphere_equator(K, sphere):
    spec = PolarSpec.classic(3, 1, 1, [sphere],
                             ConstMatrix(K, [[1, 0, 0], [0, 1, 0]]))
    R = polar_ideal(spec)
    assert (R.dim, R.degree) == (1, 2)
    # the construction forces x3 = 0 on the sphere
    G = R.gb
    assert normal_form(P("x3", 3, K) * P("x3", 3, K), G).is_zero or \
        normal_form(P("x3", 3, K), G).is_zero


def test_dual_circle_distance_critical_points(K, circle):
    spec = PolarSpec.dual(2, 1, 1, [circle], ConstMatrix(K, [[2, 0]]),
                          column0=[1])
    R = polar_ideal(spec)
    assert (R.dim, R.degree) == (0, 2)
    # the single stacked determinant reduces to a multiple of x2
    gens = polar_generators(spec)
    assert gens[1].monic() == P("x2", 2, K)


def test_dual_circle_center_degenerates(K, circle):
    spec = PolarSpec.dual(2, 1, 1, [circle], ConstMatrix(K, [[0, 0]]),
                          column0=[1], strict=False)
    gens = polar_generators(spec)
    assert gens[1].is_zero  # symbolic cancellation about the center
    R = polar_ideal(spec)
    assert R.dim == 1  # the whole circle


def test_dual_with_zero_offsets_matches_classic(K, circle):
    classic = PolarSpec.classic(2, 1, 1, [circle], ConstMatrix(K, [[1, 0]]))
    dual = PolarSpec.dual(2, 1, 1, [circle], ConstMatrix(K, [[1, 0]]),
                          column0=[0])
    assert polar_generators(classic) == polar_generators(dual)


def test_spec_preconditions(K, circle):
    with pytest.raises(PolarSpecError):
        PolarSpec.classic(2, 1, 1, [circle], ConstMatrix(K, [[0, 0]]))
    with pytest.raises(PolarSpecError):
        PolarSpec.classic(2, 1, 2, [circle], ConstMatrix(K, [[1, 0]]))
    with pytest.raises(PolarSpecError):
        PolarSpec.classic(2, 1, 1, [circle, circle], ConstMatrix(K, [[1, 0]]))
    with pytest.raises(PolarSpecError):
        PolarSpec.classic(3, 1, 1, [circle], ConstMatrix(K, [[1, 0, 0]]))


def test_spec_column0(K, circle):
    a = ConstMatrix(K, [[1, 0]])
    assert PolarSpec.classic(2, 1, 1, [circle], a).column0 == (0,)
    assert PolarSpec.dual(2, 1, 1, [circle], a).column0 == (1,)
    # offsets are reduced mod q, so q itself is a zero offset
    assert PolarSpec.classic(2, 1, 1, [circle], a).column0 == \
        PolarSpec(2, 1, 1, "classic", [circle], a, column0=[K.q]).column0
    with pytest.raises(PolarSpecError):
        PolarSpec(2, 1, 1, "classic", [circle], a, column0=[2])
    with pytest.raises(PolarSpecError):
        PolarSpec.dual(2, 1, 1, [circle], a, column0=[1, 1])
    with pytest.raises(PolarSpecError):
        PolarSpec.dual(2, 1, 1, [circle], ConstMatrix(K, [[2, 0, 0]]))


def test_spec_rejects_a_matrix_over_another_field(K, circle):
    with pytest.raises(PolarSpecError):
        PolarSpec.classic(2, 1, 1, [circle], ConstMatrix(PrimeField(7), [[1, 0]]))
    with pytest.raises(PolarSpecError):
        PolarSpec.dual(2, 1, 1, [circle], ConstMatrix(PrimeField(7), [[2, 0]]))


def test_classic_stack_rows_are_constants(K, sphere):
    a = ConstMatrix(K, [[1, 0, 0], [0, 5, 7]])
    stack = polar_stack(PolarSpec.classic(3, 1, 1, [sphere], a))
    assert stack.entries[1:] == a.to_poly_matrix(3).entries


def test_polar_stack_shape(K, sphere):
    spec = PolarSpec.classic(3, 1, 1, [sphere],
                             ConstMatrix(K, [[1, 0, 0], [0, 1, 0]]))
    stack = polar_stack(spec)
    assert (stack.rows, stack.cols) == (3, 3)  # (n-i+1) x n
    assert comb(stack.rows, 3) * comb(stack.cols, 3) == 1


def test_delta_of_sphere_is_empty(K, sphere):
    spec = PolarSpec.classic(3, 1, 1, [sphere],
                             ConstMatrix(K, [[1, 0, 0], [0, 1, 0]]))
    assert delta_ideal(spec).dim == -1


def test_delta_minor_bookkeeping_at_top_index(K):
    # i = n - p: the stack has p+1 rows; delta minors are one size smaller
    # and every polar generator lies in the delta ideal (Laplace expansion)
    field = PrimeField()
    n, p, i = 3, 1, 2
    sphere = P("x1^2+x2^2+x3^2-1", 3, field)
    spec = PolarSpec.classic(n, p, i, [sphere], ConstMatrix(field, [[1, 2, 3]]))
    polar_gens = polar_generators(spec)
    delta_gens = [sphere] + list(enumerate_minors(polar_stack(spec), n - i))
    # the polar generators span the ideal of F and the C(3,2) maximal minors
    assert reduced_basis(spec, polar_gens) == \
        reduced_basis(spec, stack_generators(spec, n - i + 1))
    assert len(delta_gens) == 1 + comb(n - i + 1, n - i) * comb(n, n - i)
    G = reduced_groebner_basis(
        IdealPresentation(field, n, delta_gens))
    for g in polar_gens:
        assert normal_form(g, G).is_zero


def test_delta_codimension_on_random_system(K):
    # (n, p, i) = (6, 2, 1): the degeneracy locus has dimension at most
    # n - p - 2i - 2 = 0
    rng = random.Random(derive_seed(2024, 6, 2))
    F = [random_dense_poly(rng, K, 6) for _ in range(2)]
    assert verify_smooth_complete_intersection(F).ok
    a = random_full_rank_matrix(rng, K, 4, 6)
    spec = PolarSpec.classic(6, 2, 1, F, a)
    d = delta_ideal(spec).dim
    assert d <= 0


def test_pure_codimension_on_random_instances(K):
    rng = random.Random(derive_seed(7, 7, 7))
    for n, p, i in [(3, 1, 1), (3, 2, 1), (4, 2, 1), (4, 1, 2)]:
        F = [random_dense_poly(rng, K, n) for _ in range(p)]
        if not verify_smooth_complete_intersection(F).ok:
            continue
        a = random_full_rank_matrix(rng, K, n - p - i + 1, n)
        for spec in (PolarSpec.classic(n, p, i, F, a),
                     PolarSpec.dual(n, p, i, F, a)):
            R = polar_ideal(spec)
            assert R.dim in (-1, n - p - i)
            if R.dim >= 0:
                assert R.codim_in_S == i


def test_singular_locus_classic_examples(K, circle):
    cross = analyze_ideal(K, 2, 1, [P("x1*x2", 2, K)])
    assert singular_locus_ideal(cross).dim == 0
    cusp = analyze_ideal(K, 2, 1, [P("x2^2-x1^3", 2, K)])
    assert singular_locus_ideal(cusp).dim == 0
    smooth = analyze_ideal(K, 2, 1, [circle])
    assert singular_locus_ideal(smooth).dim == -1


def test_singular_locus_preconditions(K):
    empty = analyze_ideal(K, 1, 1, [P("x1", 1, K), P("x1+1", 1, K)])
    with pytest.raises(PolarSpecError):
        singular_locus_ideal(empty)


def test_minor_cap_triggers_explicit_error(K, monkeypatch):
    gens = [P("x1^2+x2^2+x3^2-1", 3, K), P("x1*x2-x3", 3, K),
            P("x1*x3-x2", 3, K)]
    # C(3,2) * C(3,2) = 9 minors: the cap is read at call time
    assert len(singular_locus_generators(gens, 2)) == 3 + 9
    monkeypatch.setattr(polar, "MINOR_CAP", 9)
    assert len(singular_locus_generators(gens, 2)) == 3 + 9
    monkeypatch.setattr(polar, "MINOR_CAP", 8)
    with pytest.raises(MinorCapExceededError) as info:
        singular_locus_generators(gens, 2)
    assert (info.value.kind, info.value.limit) == ("Jacobian minors", 8)
    assert str(info.value) == "budget exceeded: Jacobian minors limit 8"
    # one budget family: a caller catching BudgetExceededError sees it
    assert isinstance(info.value, BudgetExceededError)


def both_routes(R):
    """dim sing by singular_locus_dim and by the Jacobian criterion."""
    return singular_locus_dim(R)[0], singular_locus_ideal(R).dim


@pytest.mark.parametrize("field_q, texts, want", [
    (None, ["x1^2", "x2"], 0),                 # a double point at the origin
    (None, ["x2-1", "x1^2+x2^2-1"], 0),        # tangent line to the circle
    (7, ["x1^7-3", "x2-x1"], 0),               # (x1-3)^7 over F_7: f' = 0
    (None, ["x1+2*x2-2", "x2^2-x2"], -1),      # (2,0), (0,1): x1 decides
    (None, ["x1", "x2^2-x2"], -1),             # (0,0), (0,1): x2 decides
    (None, ["x1^2-1", "x2^2-4"], -1),          # four reduced points
    (None, ["x1^2-1", "x2^2"], 0),             # x1 squarefree, x2 is not
])
def test_radical_route_matches_jacobian_on_points(K, field_q, texts, want):
    field = K if field_q is None else PrimeField(field_q)
    R = analyze_ideal(field, 2, 1, [P(t, 2, field) for t in texts])
    assert R.dim == 0
    assert both_routes(R) == (want, want)


def test_radical_route_matches_jacobian_on_grid(monkeypatch):
    # every zero-dimensional cell of the n <= 4 grid at three seeds
    checked = []

    def recording(result, limits):
        if result.dim == 0:
            checked.append(both_routes(result))
        return singular_locus_dim(result, limits)

    monkeypatch.setattr(experiment, "singular_locus_dim", recording)
    results = run_grid(4, seeds=3)
    assert all(r.status == "ok" for r in results)
    assert len(checked) == 18  # six zero-dimensional triples, three seeds
    assert all(radical == jacobian for radical, jacobian in checked)


def test_singular_locus_dim_routes_on_polar_ideals(K, circle, sphere,
                                                   monkeypatch):
    empty = PolarSpec.classic(2, 1, 1, [P("x1", 2, K)], ConstMatrix(K, [[3, 7]]))
    assert singular_locus_dim(polar_ideal(empty)) == (-1, "empty")
    points = PolarSpec.classic(2, 1, 1, [circle], ConstMatrix(K, [[1, 0]]))
    assert singular_locus_dim(polar_ideal(points)) == (-1, "radical")
    curve = PolarSpec.classic(3, 1, 1, [sphere],
                              ConstMatrix(K, [[1, 0, 0], [0, 1, 0]]))
    R = polar_ideal(curve)
    assert singular_locus_dim(R) == (-1, "jacobian")
    with pytest.raises(BudgetExceededError):
        singular_locus_dim(polar_ideal(points), GBLimits(max_pairs=3))
    # past the minor cap the budget error propagates: there is no proxy
    monkeypatch.setattr(polar, "MINOR_CAP", 1)
    with pytest.raises(MinorCapExceededError):
        singular_locus_dim(R)


def test_singular_locus_dim_preconditions(K, monkeypatch):
    # an empty variety has an empty singular locus
    empty = analyze_ideal(K, 1, 1, [P("x1", 1, K), P("x1+1", 1, K)])
    assert singular_locus_dim(empty) == (-1, "empty")
    # the radical test builds no minors, so the minor-count cap is moot
    points = analyze_ideal(K, 2, 1, [P("x1^2-1", 2, K), P("x2^2-4", 2, K)])
    assert singular_locus_dim(points) == (-1, "radical")
    curve = analyze_ideal(K, 3, 1, [P("x1^2+x2^2+x3^2-1", 3, K), P("x3", 3, K)])
    assert curve.dim == 1
    assert singular_locus_dim(curve) == (-1, "jacobian")
    monkeypatch.setattr(polar, "MINOR_CAP", 0)
    assert singular_locus_dim(empty) == (-1, "empty")
    assert singular_locus_dim(points) == (-1, "radical")
    # a curve needs the Jacobian minors, whose count the cap bounds
    with pytest.raises(MinorCapExceededError):
        singular_locus_dim(curve)
    # the radical test runs under the Groebner limits it is given
    with pytest.raises(BudgetExceededError):
        singular_locus_dim(points, GBLimits(max_pairs=5))


def test_radical_route_matches_jacobian_property(F7):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.integers(0, 6)

    @st.composite
    def ideals(draw):
        # each generator a product of affine linear forms; the first one is
        # raised to a power of 1 to 3, which repeats all of its factors
        n = draw(st.sampled_from([2, 3]))
        gens = []
        for _ in range(n):
            g = Polynomial.constant(F7, n, 1)
            for _ in range(draw(st.integers(1, 3))):
                form = Polynomial.constant(F7, n, draw(coeff))
                for j in range(1, n + 1):
                    form = form + Polynomial.variable(F7, n, j).scale(draw(coeff))
                g = g * form
            gens.append(g)
        first = gens[0]
        for _ in range(draw(st.integers(1, 3)) - 1):
            gens[0] = gens[0] * first
        return n, gens

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(ideals())
    def check(case):
        n, gens = case
        R = analyze_ideal(F7, n, 1, gens)
        if R.dim == 0:
            radical, jacobian = both_routes(R)
            assert radical == jacobian
            seen.add(radical)

    seen = set()
    check()
    assert seen == {-1, 0}  # both answers were exercised


def test_verify_smooth_complete_intersection_cases(K, F7, circle):
    assert verify_smooth_complete_intersection([circle]).ok
    cross = verify_smooth_complete_intersection([P("x1*x2", 2, K)])
    assert cross.regular_sequence_ok and not cross.smooth_ok
    bad = verify_smooth_complete_intersection(
        [P("x1", 2, K), P("x1+1", 2, K)])
    assert not bad.regular_sequence_ok
    assert bad.prefix_dims == (1, -1)
    # n + 1 members whose first n cut out a point and whose last empties it
    empty = verify_smooth_complete_intersection(
        [P("x1", 2, F7), P("x2", 2, F7), P("x1+x2+1", 2, F7)])
    assert not empty.regular_sequence_ok and not empty.smooth_ok
    assert empty.prefix_dims == (1, 0, -1)


def assembled_smoothness(F):
    """The smoothness report assembled on its own: prefix dimensions from
    reduced bases, and smooth when F plus the p-minors of J(F) generate the
    unit ideal."""
    field, n, p = F[0].field, F[0].n, len(F)
    dims = tuple(dimension(reduced_groebner_basis(IdealPresentation(field, n, F[:k])))
                 for k in range(1, p + 1))
    regular = dims == tuple(n - k for k in range(1, p + 1))
    gens = list(F) + list(enumerate_minors(jacobian(F), p))
    smooth = regular and reduced_groebner_basis(
        IdealPresentation(field, n, gens)).contains_one
    return regular, smooth, dims


@pytest.mark.parametrize("q", [7, None])
def test_smoothness_report_against_the_assembled_criterion_property(q):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = PrimeField(q) if q else PrimeField()
    coeff = st.integers(0, field.q - 1)

    @st.composite
    def systems(draw):
        # dense quadrics are smooth, a crossing or a square of a linear
        # form is singular, and a multiple of an earlier member is irregular
        n = draw(st.sampled_from([2, 3]))
        p = draw(st.integers(1, n))

        def form():
            f = Polynomial.constant(field, n, draw(coeff))
            for j in range(1, n + 1):
                f = f + Polynomial.variable(field, n, j).scale(draw(coeff))
            return f

        F = []
        for _ in range(p):
            kind = draw(st.sampled_from(["dense", "crossing", "square", "multiple"]))
            if kind == "multiple" and F:
                F.append(draw(st.sampled_from(F)) * form())
            elif kind == "crossing":
                F.append(form() * form())
            elif kind == "square":
                line = form()
                F.append(line * line)
            else:
                F.append(Polynomial(field, n, {
                    m: draw(coeff) for m in product(range(3), repeat=n) if sum(m) <= 2}))
        return F

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(systems())
    def check(F):
        report = verify_smooth_complete_intersection(F)
        got = (report.regular_sequence_ok, report.smooth_ok, report.prefix_dims)
        assert got == assembled_smoothness(F)
        seen.add(got[:2] + (len(F) == F[0].n,))

    seen = set()
    check()
    # smooth, singular and irregular systems were drawn, at p < n and p = n
    assert {(True, True), (True, False), (False, False)} <= {s[:2] for s in seen}
    assert {(True, True, True), (True, False, True)} <= seen


def test_thom_boardman_class_on_sphere(K, sphere):
    a = ConstMatrix(K, [[1, 0, 0], [0, 1, 0]])
    assert thom_boardman_class([sphere], a, [1, 0, 0]) == 1
    assert thom_boardman_class([sphere], a, [0, 0, 1]) == 0
    with pytest.raises(PointClassificationError):
        thom_boardman_class([sphere], a, [0, 0, 0])


def test_thom_boardman_rejects_singular_points(K):
    cross = P("x1*x2", 2, K)
    a = ConstMatrix(K, [[1, 1]])
    with pytest.raises(PointClassificationError):
        thom_boardman_class([cross], a, [0, 0])


def test_thom_boardman_class_against_the_evaluated_stack():
    # criterion 10's systems (master seed 20260810, as in test_acceptance);
    # the oracle ranks [jacobian(F); a] evaluated entry by entry and finds
    # V(F) and its regular points the same way
    F7 = PrimeField(7)
    for n, p in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]:
        for attempt in range(50):
            rng = random.Random(derive_seed(20260810, 10, n, p, attempt))
            F = [random_dense_poly(rng, F7, n) for _ in range(p)]
            on_variety = [x for x in product(range(7), repeat=n)
                          if not any(naive_evaluate(f, x) for f in F)]
            regular = [x for x in on_variety
                       if evaluate_matrix(jacobian(F), x).rank() == p]
            if regular:
                break
        a_full = random_full_rank_matrix(rng, F7, n - p, n)
        for i in range(1, n - p + 1):
            a_i = a_full.submatrix(range(n - p - i + 1), range(n))
            stack = jacobian(F).stack(a_i.to_poly_matrix(n))
            for x in regular:
                want = n - evaluate_matrix(stack, x).rank()
                assert thom_boardman_class(F, a_i, x) == want
            for x in set(on_variety) - set(regular):
                with pytest.raises(PointClassificationError, match="singular"):
                    thom_boardman_class(F, a_i, x)


def full_stack_class(F, a, x):
    """n - rank [J(F)(x); a] from the row ranks of the whole evaluated
    stack, or None when x is singular on V(F)."""
    p, n = len(F), a.cols
    rows = evaluate_matrix(jacobian(F), x).entries + a.entries
    ranks = ConstMatrix(a.field, rows).row_ranks()
    return n - ranks[-1] if ranks[p - 1] == p else None


def f7_points(n, p, seed):
    """A random dense system over F_7 and every point of its zero set."""
    F7 = PrimeField(7)
    rng = random.Random(seed)
    F = [random_dense_poly(rng, F7, n) for _ in range(p)]
    return F, [x for x in product(range(7), repeat=n)
               if not any(naive_evaluate(f, x) for f in F)]


def test_thom_boardman_class_with_rank_deficient_matrices():
    # shapes PolarSpec admits with strict=False: a zero row, a repeated
    # row, a row in the span of the others, all rows zero
    F7 = PrimeField(7)
    for n, p in [(3, 1), (4, 1), (4, 2)]:
        F, points = f7_points(n, p, derive_seed(11, n, p))
        rng = random.Random(derive_seed(12, n, p))
        r1, r2 = ([rng.randrange(7) for _ in range(n)] for _ in range(2))
        r3 = [(x + 3 * y) % 7 for x, y in zip(r1, r2)]
        singular = 0
        for i in range(1, n - p + 1):
            k = n - p - i + 1
            candidates = ([[0] * n] + [r1, r2][:k - 1], [[0] * n] * k, [r1] * k,
                          [r1, r2, r3][:k], [r3, r2, r1, r1][:k])
            deficient = [ConstMatrix(F7, rows) for rows in candidates]
            deficient = [a for a in deficient if a.rank() < k]
            assert len(deficient) >= 2
            for a in deficient:
                PolarSpec.classic(n, p, i, F, a, strict=False)
                for x in points:
                    want = full_stack_class(F, a, x)
                    if want is None:
                        singular += 1
                        with pytest.raises(PointClassificationError, match="singular"):
                            thom_boardman_class(F, a, x)
                    else:
                        assert thom_boardman_class(F, a, x) == want
        assert len(points) > singular


def test_thom_boardman_class_reuses_matrices_across_interleaved_calls():
    # each matrix keeps its own row reduction: a, another matrix b, and a
    # twin of a (equal entries, a distinct object), queried in turn
    F7 = PrimeField(7)
    n, p = 4, 2
    F, points = f7_points(n, p, derive_seed(13, n, p))
    rng = random.Random(14)
    a = random_full_rank_matrix(rng, F7, n - p, n)
    b = random_full_rank_matrix(rng, F7, n - p, n)
    twin = ConstMatrix(F7, a.entries)
    top = a.submatrix([0], range(n))
    assert twin == a and twin is not a and b != a
    seen = 0
    for x in points:
        for m in (a, b, twin, top, a, b):
            want = full_stack_class(F, m, x)
            if want is None:
                continue
            assert thom_boardman_class(F, m, x) == want
            seen += 1
    assert seen and a.row_ranks() == twin.row_ranks() == (1, 2)


def test_thom_boardman_rejects_points_off_the_variety(K):
    # the gradient vanishes at the origin, but the value test comes first
    f = P("x1^2+x2^2+1", 2, K)
    a = ConstMatrix(K, [[1, 0]])
    with pytest.raises(PointClassificationError, match="does not lie on the variety"):
        thom_boardman_class([f], a, [0, 0])
    with pytest.raises(ValueError):
        thom_boardman_class([f], a, [0, 0, 0])


def test_thom_boardman_rejects_empty_systems(K):
    a = ConstMatrix(K, [[1, 0]])
    with pytest.raises(PolarSpecError):
        thom_boardman_class([], a, [1, 0])
    with pytest.raises(PolarSpecError):
        incidence_fiber_dim([], a, [1, 0], 1)


def test_thom_boardman_rejects_a_matrix_over_another_field(F7):
    circle = P("x1^2+x2^2-1", 2, F7)
    assert thom_boardman_class([circle], ConstMatrix(F7, [[1, 0]]), [1, 0]) == 1
    with pytest.raises(PolarSpecError):
        thom_boardman_class([circle], ConstMatrix(PrimeField(5), [[1, 0]]),
                            [1, 0])


def test_incidence_fiber_dimensions(K, sphere):
    a = ConstMatrix(K, [[1, 0, 0], [0, 1, 0]])
    assert incidence_fiber_dim([sphere], a, [1, 0, 0], 1) == 0
    assert incidence_fiber_dim([sphere], a, [0, 0, 1], 1) == -1
    degenerate = ConstMatrix(K, [[1, 0, 0], [1, 0, 0]])
    assert incidence_fiber_dim([sphere], degenerate, [1, 0, 0], 1) == 1


def test_fiber_equals_class_minus_index_everywhere(K, sphere):
    # polar index i takes the top n-p-i+1 rows of one matrix
    a_full = ConstMatrix(K, [[1, 0, 0], [0, 1, 0]])
    for x in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
        for i in (1, 2):
            a = a_full.submatrix(range(3 - i), range(3))
            j = thom_boardman_class([sphere], a, x)
            assert incidence_fiber_dim([sphere], a, x, i) == j - i


def test_fiber_rejects_wrong_index_or_row_count(K, sphere):
    two_rows = ConstMatrix(K, [[1, 0, 0], [0, 1, 0]])
    one_row = ConstMatrix(K, [[1, 0, 0]])
    for a, i in ((two_rows, 2), (one_row, 1), (one_row, 7), (two_rows, 0),
                 (one_row, 3)):
        with pytest.raises(PolarSpecError):
            incidence_fiber_dim([sphere], a, [0, 0, 1], i)


# ------------------------------------------- the full-stack oracle gate


def assert_matches_the_full_stack(spec):
    """Polar and delta bases equal those of F plus the minors of the whole
    polar stack."""
    t = spec.n - spec.i + 1
    assert polar_ideal(spec).gb.basis == \
        reduced_basis(spec, stack_generators(spec, t))
    assert delta_ideal(spec).gb.basis == \
        reduced_basis(spec, stack_generators(spec, t - 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_polar_and_delta_bases_match_the_full_stack(K, n):
    # every (n, p, i): classic, dual at the default offsets, and dual at the
    # offsets of example2_matrix, whose offset row is the last one
    for p in range(1, n):
        rng = random.Random(derive_seed(5, n, p))
        F = [random_dense_poly(rng, K, n) for _ in range(p)]
        for i in range(1, n - p + 1):
            a = random_full_rank_matrix(rng, K, n - p - i + 1, n)
            B = example2_matrix(K, n, p, i,
                                [rng.randrange(1, K.q) for _ in range(n)])
            for spec in (PolarSpec.classic(n, p, i, F, a),
                         PolarSpec.dual(n, p, i, F, a),
                         PolarSpec.dual(n, p, i, F, B,
                                        column0=[0] * (B.rows - 1) + [1])):
                assert_matches_the_full_stack(spec)


def test_degenerate_specs_match_the_full_stack(K, circle, sphere):
    F = [sphere]
    specs = [
        # the circle about its center: the offset row is the only row
        PolarSpec.dual(2, 1, 1, [circle], ConstMatrix(K, [[0, 0]]),
                       column0=[1], strict=False),
        # a zero row, without and with offsets
        PolarSpec.classic(3, 1, 1, F, ConstMatrix(K, [[1, 2, 0], [0, 0, 0]]),
                          strict=False),
        PolarSpec.dual(3, 1, 1, F, ConstMatrix(K, [[0, 0, 0], [1, 2, 3]]),
                       column0=[0, 1], strict=False),
        # dependent rows; the dual ones leave a zero constant row
        PolarSpec.classic(3, 1, 1, F, ConstMatrix(K, [[1, 2, 3], [2, 4, 6]]),
                          strict=False),
        PolarSpec.dual(3, 1, 1, F, ConstMatrix(K, [[1, 2, 3], [2, 4, 6]]),
                       column0=[1, 2], strict=False),
        PolarSpec.dual(3, 1, 1, F, ConstMatrix(K, [[1, 2, 3], [2, 4, 6]]),
                       column0=[3, 0], strict=False),
    ]
    for spec in specs:
        assert_matches_the_full_stack(spec)


def test_stack_minors_match_the_full_stack_property(F7):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def specs(draw):
        n = draw(st.integers(2, 4))
        p = draw(st.integers(1, n - 1))
        i = draw(st.integers(1, n - p))
        rows = n - p - i + 1
        rng = random.Random(draw(st.integers(0, 2**32)))
        F = [random_dense_poly(rng, F7, n) for _ in range(p)]
        # entries and offsets are zero half the time, so zero rows,
        # dependent rows and zero offsets all occur
        entry = st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5, 6])
        a = [[draw(entry) for _ in range(n)] for _ in range(rows)]
        column0 = [draw(entry) for _ in range(rows)]
        return PolarSpec.dual(n, p, i, F, ConstMatrix(F7, a), column0,
                              strict=False)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(specs())
    def check(spec):
        assert_matches_the_full_stack(spec)

    check()


@pytest.mark.parametrize("flavor, nmax", [("classic", 7), ("dual", 6)])
def test_jacobian_minor_traffic_stays_under_the_cap(K, flavor, nmax):
    # the module docstring's claim: on a generic draw no positive-
    # dimensional full-mode cell asks the Jacobian criterion for more than
    # MINOR_CAP minors, C(g, c) * C(n, c) with c = p + i; no basis is built
    worst = 0
    for n in range(2, nmax + 1):
        for p in range(1, n):
            rng = random.Random(derive_seed(3, n, p))
            F = [random_dense_poly(rng, K, n) for _ in range(p)]
            a = random_full_rank_matrix(rng, K, n - p, n)
            for i in range(1, n - p):
                spec = PolarSpec(n, p, i, flavor, F,
                                 a.submatrix(range(n - p - i + 1), range(n)))
                g = len(IdealPresentation(K, n, polar_generators(spec)).generators)
                worst = max(worst, comb(g, p + i) * comb(n, p + i))
    assert worst <= polar.MINOR_CAP
    if flavor == "classic":
        assert worst == 12_012  # at (7,3,3): 13 generators, c = 6
