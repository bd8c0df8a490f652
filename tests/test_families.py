"""Explicit families: singular witnesses, inverse-transform rows, dual chains."""

import random

import pytest

from polarvar import families
from polarvar.families import (FamilyDrawError, build_family_31, corner_minor,
                               degree_domination_check, example1_transform,
                               example2_chain, example2_matrix,
                               parameter_count, polar_spec_31,
                               transform_matrix_symbolic,
                               unitriangular_inverse, verify_singular_witness)
from polarvar.groebner import InternalError
from polarvar.matrices import ConstMatrix, PolyMatrix
from polarvar.parsing import parse_polynomial
from polarvar.polar import PolarSpecError, polar_ideal, polar_stack
from polarvar.poly import Polynomial, evaluate
from polarvar.experiment import random_smooth_system

from conftest import det_cofactor


def P(text, n, field):
    return parse_polynomial(text, n, field)


@pytest.fixture(scope="module")
def inst6(K):
    return build_family_31(6, seed=2024, field=K)


def test_family31_requires_n_at_least_six(K):
    with pytest.raises(PolarSpecError):
        build_family_31(5, seed=0, field=K)


def test_family31_instance_invariants(K, inst6):
    n, q = inst6.n, K.q
    # the witness satisfies both equations by construction of c1, c2
    assert evaluate(inst6.F1, inst6.xi) == 0
    assert evaluate(inst6.F2, inst6.xi) == 0
    assert inst6.xi[0] != 0 and inst6.xi[1] != 0
    # xi lies on the rank-degeneracy space: both bordered matrices drop rank
    for u in range(2):
        scaled = [inst6.c[u, j] * inst6.xi[j] % q for j in range(n)]
        bordered = ConstMatrix(K, [scaled] + list(inst6.a.entries))
        assert bordered.rank() == n - 2
    # genericity of c
    assert all(inst6.c[u, j] for u in range(2) for j in range(n))
    for u in range(n):
        for v in range(u + 1, n):
            det2 = (inst6.c[0, u] * inst6.c[1, v]
                    - inst6.c[0, v] * inst6.c[1, u]) % q
            assert det2 != 0
    assert all((inst6.c1 * inst6.c[1, j] - inst6.c2 * inst6.c[0, j]) % q
               for j in range(n))


def test_family31_witness_checks(K, inst6):
    report = verify_singular_witness(inst6)
    assert report.ok, report.failures
    assert report.stack_rank_at_xi == 2


def test_family31_polar_variety_has_codimension_three(K, inst6):
    R = polar_ideal(polar_spec_31(inst6))
    assert R.dim == inst6.n - 3
    assert R.codim_in_S == 1


def test_family31_several_seeds(K):
    for seed in (0, 1):
        inst = build_family_31(6, seed=seed, field=K)
        assert verify_singular_witness(inst).ok


def test_determinant_derivative_identity_on_twenty_instances(K):
    # d/dX_j of the stacked determinant equals
    # 2*(c_{2,j} m_{1,j} + c_{1,j} m_{2,j}) with m_{u,j} the cofactor that
    # keeps the gradient row of F_u; checked as a polynomial identity, with
    # each cofactor from the independent first-row expansion of conftest
    from polarvar.matrices import determinant_division_free
    from polarvar.poly import differentiate

    def cofactor(N, r, j):
        minor = det_cofactor(N.submatrix([k for k in range(N.rows) if k != r],
                                         [c for c in range(N.cols) if c != j]))
        return minor if (r + j) % 2 == 0 else -minor

    for seed in range(20):
        inst = build_family_31(6, seed=1000 + seed, field=K)
        N = polar_stack(polar_spec_31(inst))
        detN = determinant_division_free(N)
        for j in range(6):
            lhs = differentiate(detN, j + 1)
            rhs = (cofactor(N, 1, j).scale(2 * inst.c[1, j])
                   + cofactor(N, 0, j).scale(2 * inst.c[0, j]))
            assert lhs == rhs


def test_transform_at_zero_is_identity(K):
    n, p = 5, 2
    B = example1_transform(n, p, 1, [0] * parameter_count(n, p), K)
    expect = tuple(tuple(1 if c == r + p else 0 for c in range(n))
                   for r in range(n - p))
    assert B.entries == expect


def test_transform_rows_nest(K):
    rng = random.Random(555)
    n, p = 6, 2
    z = [rng.randrange(K.q) for _ in range(parameter_count(n, p))]
    mats = [example1_transform(n, p, i, z, K) for i in range(1, n - p + 1)]
    for prev, nxt in zip(mats, mats[1:]):
        assert nxt.entries == prev.entries[1:]


def test_transform_identity_holds_symbolically(K):
    n, p = 5, 2
    A = transform_matrix_symbolic(K, n, p)
    B = unitriangular_inverse(A).submatrix(range(p, n), range(n))
    for r in range(n - p):
        for c in range(n):
            entry = Polynomial.zero(K, A.n)
            for k in range(n):
                entry = entry + B[r, k] * A[k, c]
            want = 1 if c == p + r else 0
            assert entry == Polynomial.constant(K, A.n, want)


def test_unitriangular_inverse_is_an_inverse_property(F7):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def unit_lower_triangular(draw):
        n = draw(st.sampled_from([0, 2]))
        size = draw(st.integers(1, 5))
        term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(0, 6))
        one, zero = Polynomial.constant(F7, n, 1), Polynomial.zero(F7, n)
        return PolyMatrix([
            [one if j == i else zero if j > i
             else Polynomial(F7, n, dict(draw(st.lists(term, max_size=3))))
             for j in range(size)] for i in range(size)])

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(unit_lower_triangular())
    def check(M):
        inv = unitriangular_inverse(M)
        size, zero = M.rows, Polynomial.zero(F7, M.n)
        for i in range(size):
            for j in range(size):
                entry = zero
                for k in range(size):
                    entry = entry + M[i, k] * inv[k, j]
                assert entry == Polynomial.constant(F7, M.n, int(i == j))

    check()


def test_transform_slice_identity_failure_is_an_internal_error(K, monkeypatch):
    # an inverse that is not one breaks B_i(z) A(z) = [O | I]
    monkeypatch.setattr(families, "unitriangular_inverse", lambda M: M)
    rng = random.Random(7)
    z = [rng.randrange(1, K.q) for _ in range(parameter_count(5, 2))]
    with pytest.raises(InternalError, match="slice identity"):
        example1_transform(5, 2, 1, z, K)


def test_transform_parameter_count_checked(K):
    with pytest.raises(PolarSpecError):
        example1_transform(5, 2, 1, [0, 1, 2], K)
    with pytest.raises(PolarSpecError):
        example1_transform(5, 5, 1, [], K)


def test_unitriangular_inverse_validates_shape(K):
    bad = PolyMatrix([[P("x1", 1, K)]])
    with pytest.raises(ValueError):
        unitriangular_inverse(bad)
    upper = PolyMatrix([[Polynomial.constant(K, 1, 1), P("x1", 1, K)],
                        [Polynomial.zero(K, 1), Polynomial.constant(K, 1, 1)]])
    with pytest.raises(ValueError):
        unitriangular_inverse(upper)


def test_example2_matrix_layout(K):
    B = example2_matrix(K, 6, 2, 2, [10, 20, 30, 40, 50, 60])
    assert (B.rows, B.cols) == (3, 6)
    assert B.row(0) == (0, 1, 0, 0, 0, 0)
    assert B.row(1) == (0, 0, 1, 0, 0, 0)
    assert B.row(2) == (10, 20, 30, 40, 50, 60)
    with pytest.raises(PolarSpecError):
        example2_matrix(K, 6, 2, 2, [10, 20, 30, 0, 50, 60])
    with pytest.raises(PolarSpecError):
        example2_matrix(K, 6, 2, 2, [10, 20, 30])


def test_corner_minor(K):
    F2 = [P("x1^2+x2^2-1", 3, K), P("x2*x3", 3, K)]
    assert corner_minor(F2) == P("2*x1", 3, K)
    assert corner_minor([P("x1^2", 2, K)]) == Polynomial.constant(K, 2, 1)


def test_dual_chain_descends_smoothly(K):
    F = random_smooth_system(K, 4, 2, seed=5)
    rng = random.Random(606)
    gamma = [rng.randrange(1, K.q) for _ in range(4)]
    report = example2_chain(F, gamma)
    assert report.ok
    dims = [lv.dim for lv in report.levels]
    assert dims == [1, 0]
    assert all(lv.smooth for lv in report.levels)
    assert report.levels[0].contains_next
    # the zero-dimensional bottom level obeys the degree bound d^n p^(n-p)
    assert report.levels[-1].dim == 0
    assert report.levels[-1].degree <= 2**4 * 2**2


def test_degree_domination_on_circle(K):
    circle = P("x1^2+x2^2-1", 2, K)
    report = degree_domination_check([circle], i=1, trials=3, seed=99)
    assert report.random_degrees_agree
    assert report.generic_degree == 2
    assert report.dominated
    assert report.within_bezout(2)
    assert all(d <= 2 for ds in report.structured_degrees.values() for d in ds)


def test_degree_domination_dual_flavor(K):
    F = random_smooth_system(K, 3, 1, seed=17)
    report = degree_domination_check(F, i=1, trials=2, seed=3, flavor="dual")
    assert report.random_degrees_agree
    assert report.dominated


def test_family_draw_error_surfaces(K, monkeypatch):
    monkeypatch.setattr(families, "_FAMILY_ATTEMPTS", 0)
    with pytest.raises(FamilyDrawError):
        build_family_31(6, seed=0, field=K)


@pytest.fixture(scope="module")
def mixed_system(K):
    return [P("x1^2+x2^2-1", 2, K), P("x1*x3", 3, K)]


def test_corner_minor_rejects_empty_and_mixed_systems(K, mixed_system):
    for F in ([], mixed_system):
        with pytest.raises(ValueError):
            corner_minor(F)


def test_example2_chain_rejects_empty_and_mixed_systems(K, mixed_system):
    for F in ([], mixed_system):
        with pytest.raises(ValueError):
            example2_chain(F, [1, 1, 1])


@pytest.mark.parametrize("texts", [
    ["x1^2+x2^2-1", "x1-x2"],                  # p = n: no level to check
    ["x1^2+x2^2-1", "x1-x2", "x1+x2-3"],       # p > n
])
def test_example2_chain_needs_p_below_n(K, texts):
    F = [P(t, 2, K) for t in texts]
    with pytest.raises(PolarSpecError, match="1 <= p <= n-1"):
        example2_chain(F, [1, 1])


def test_degree_domination_rejects_empty_and_mixed_systems(K, mixed_system):
    for F in ([], mixed_system):
        with pytest.raises(ValueError):
            degree_domination_check(F, i=1, trials=1, seed=0)
