"""Polynomial matrices: Jacobians, determinants, minors, numeric rank."""

import random
from itertools import combinations
from math import comb

import pytest

from polarvar.matrices import (ConstMatrix, PolyMatrix, determinant_division_free,
                               MAX_DET_SIZE, enumerate_minors, jacobian,
                               jacobian_at)
from polarvar.field import PrimeField
from polarvar.parsing import parse_polynomial
from polarvar.poly import Polynomial, differentiate, evaluate

from conftest import det_cofactor, evaluate_matrix, random_poly


def P(text, n, field):
    return parse_polynomial(text, n, field)


def poly_identity(field, size, n):
    return PolyMatrix([[Polynomial.constant(field, n, 1 if i == j else 0)
                        for j in range(size)] for i in range(size)])


def test_jacobian_of_circle(K):
    J = jacobian([P("x1^2+x2^2-1", 2, K)])
    assert J.rows == 1 and J.cols == 2
    assert J[0, 0] == P("2*x1", 2, K)
    assert J[0, 1] == P("2*x2", 2, K)


def test_jacobian_of_linear_forms_is_constant(K):
    J = jacobian([P("3*x1 + 5*x2", 2, K), P("7*x1 - x2", 2, K)])
    assert all(J[i, j].is_constant() for i in range(2) for j in range(2))
    assert J[0, 0].coefficient((0, 0)) == 3
    assert J[1, 1].coefficient((0, 0)) == K.q - 1


def test_jacobian_entries_match_partials(K):
    rng = random.Random(13)
    F = [random_poly(rng, K, 3) for _ in range(2)]
    if any(f.is_zero for f in F):
        F = [P("x1", 3, K), P("x2^2", 3, K)]
    J = jacobian(F)
    for k, f in enumerate(F):
        for l in range(1, 4):
            assert J[k, l - 1] == differentiate(f, l)


def test_jacobian_rejects_empty_input():
    with pytest.raises(ValueError):
        jacobian([])


def test_jacobian_at_matches_evaluated_jacobian_property(F7):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def systems(draw):
        # exponents up to 9 exceed q = 7, so exponents that vanish mod q
        # after differentiation are exercised too
        n = draw(st.integers(1, 4))
        monomial = st.tuples(*[st.integers(0, 9)] * n)
        term = st.tuples(monomial, st.integers(0, 6))
        F = [Polynomial(F7, n, dict(draw(st.lists(term, max_size=6))))
             for _ in range(draw(st.integers(1, 3)))]
        x = draw(st.tuples(*[st.integers(0, 6)] * n))
        return F, x

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(systems())
    def check(case):
        F, x = case
        assert jacobian_at(F, x) == evaluate_matrix(jacobian(F), x)

    check()


def test_jacobian_at_of_a_dense_cubic_at_the_default_prime(K):
    rng = random.Random(5)
    F = [random_poly(rng, K, 4, max_degree=3, terms=12) for _ in range(3)]
    for _ in range(5):
        x = [rng.randrange(K.q) for _ in range(4)]
        assert jacobian_at(F, x) == evaluate_matrix(jacobian(F), x)


def test_jacobian_at_rejects_bad_input(K):
    circle = P("x1^2+x2^2-1", 2, K)
    with pytest.raises(ValueError):
        jacobian_at([], [1, 0])
    with pytest.raises(ValueError):  # two variable counts
        jacobian_at([circle, P("x1", 3, K)], [1, 0])
    with pytest.raises(ValueError):  # two fields
        jacobian_at([circle, P("x1", 2, PrimeField(7))], [1, 0])
    with pytest.raises(ValueError, match="no variables"):
        jacobian_at([Polynomial.constant(K, 0, 1)], [])
    with pytest.raises(ValueError):  # point of the wrong length
        jacobian_at([circle], [1, 0, 0])
    with pytest.raises(ValueError, match="different ambient rings"):
        jacobian([circle, P("x1", 3, K)])
    with pytest.raises(ValueError, match="no variables"):
        jacobian([Polynomial.zero(K, 0)])


def test_determinant_of_identity(K):
    assert determinant_division_free(poly_identity(K, 3, 1)) \
        == Polynomial.constant(K, 1, 1)


def test_determinant_2x2_symbolic(K):
    M = PolyMatrix([[P("x1", 4, K), P("x2", 4, K)],
                    [P("x3", 4, K), P("x4", 4, K)]])
    assert determinant_division_free(M) == P("x1*x4 - x2*x3", 4, K)


def test_determinant_rejects_non_square(K):
    M = PolyMatrix([[P("x1", 2, K), P("x2", 2, K)]])
    with pytest.raises(ValueError):
        determinant_division_free(M)


def test_determinant_rejects_size_above_cap(K):
    size = MAX_DET_SIZE + 1
    M = poly_identity(K, size, 1)
    with pytest.raises(ValueError, match="exceeds"):
        determinant_division_free(M)


def test_laplace_determinant_against_cofactor_oracle(K):
    rng = random.Random(37)
    for trial in range(50):
        size = 4 if trial % 2 == 0 else 5
        M = PolyMatrix([[random_poly(rng, K, 2, max_degree=2, terms=2)
                         for _ in range(size)] for _ in range(size)])
        assert determinant_division_free(M) == det_cofactor(M)


def test_determinant_alternating_on_row_swap(K):
    rng = random.Random(43)
    M = PolyMatrix([[random_poly(rng, K, 2, max_degree=1, terms=2)
                     for _ in range(3)] for _ in range(3)])
    swapped = PolyMatrix([M.row(1), M.row(0), M.row(2)])
    assert determinant_division_free(M) == det_cofactor(M)
    assert determinant_division_free(swapped) == -det_cofactor(M)


def test_determinant_multiplicative_on_constants(K):
    def det(C):
        return determinant_division_free(C.to_poly_matrix(1))

    rng = random.Random(47)
    for _ in range(20):
        A = ConstMatrix(K, [[rng.randrange(K.q) for _ in range(3)]
                            for _ in range(3)])
        B = ConstMatrix(K, [[rng.randrange(K.q) for _ in range(3)]
                            for _ in range(3)])
        assert det(A.matmul(B)) == det(A) * det(B)


def test_minor_enumeration_count_and_order(K):
    M = PolyMatrix([[P(f"x{3 * i + j + 1}", 6, K) for j in range(3)]
                    for i in range(2)])
    minors = list(enumerate_minors(M, 2))
    assert len(minors) == 3 == comb(M.rows, 2) * comb(M.cols, 2)
    # column sets in lexicographic order: {1,2}, {1,3}, {2,3}
    expected = []
    for cols in combinations(range(3), 2):
        sub = M.submatrix([0, 1], cols)
        expected.append(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    assert minors == expected


def test_minors_of_size_one_are_the_entries(K):
    M = PolyMatrix([[P("x1", 2, K), P("x2", 2, K)]])
    assert list(enumerate_minors(M, 1)) == [M[0, 0], M[0, 1]]


def test_minors_match_extracted_submatrix_determinants(K):
    rng = random.Random(53)
    for _ in range(10):
        M = PolyMatrix([[random_poly(rng, K, 3, max_degree=2, terms=2)
                         for _ in range(4)] for _ in range(3)])
        for r in (1, 2, 3):
            got = list(enumerate_minors(M, r))
            k = 0
            for rows in combinations(range(3), r):
                for cols in combinations(range(4), r):
                    assert got[k] == det_cofactor(M.submatrix(rows, cols))
                    k += 1


def test_minor_size_range_checked(K):
    M = PolyMatrix([[P("x1", 2, K), P("x2", 2, K)]])
    with pytest.raises(ValueError):
        list(enumerate_minors(M, 2))


def test_rank_at_point(K):
    zero = PolyMatrix([[Polynomial.zero(K, 2)] * 3 for _ in range(2)])
    assert evaluate_matrix(zero, [1, 2]).rank() == 0
    assert evaluate_matrix(poly_identity(K, 4, 2), [5, 6]).rank() == 4


def test_rank_equals_largest_nonvanishing_minor(K):
    rng = random.Random(61)
    for _ in range(20):
        M = PolyMatrix([[random_poly(rng, K, 2, max_degree=1, terms=2)
                         for _ in range(4)] for _ in range(3)])
        x = [rng.randrange(K.q) for _ in range(2)]
        r = evaluate_matrix(M, x).rank()
        assert r <= 3
        largest = 0
        for size in range(1, 4):
            if any(evaluate(v, x) for v in enumerate_minors(M, size)):
                largest = size
        assert r == largest


def test_stacked_rank_at_least_constant_rank(K):
    rng = random.Random(67)
    F = [random_poly(rng, K, 3, max_degree=2, terms=3) + P("x1^2", 3, K)]
    a = ConstMatrix(K, [[1, 0, 0], [0, 1, 0]])
    stacked = jacobian(F).stack(a.to_poly_matrix(3))
    for _ in range(10):
        x = [rng.randrange(K.q) for _ in range(3)]
        assert evaluate_matrix(stacked, x).rank() >= a.rank()


def test_const_matrix_nullspace(K):
    B = ConstMatrix(K, [[1, 2, 3], [2, 4, 6]])  # rank 1
    assert B.rank() == 1
    basis = B.nullspace_basis()
    assert len(basis) == 2
    for v in basis:
        assert all(sum(r[j] * v[j] for j in range(3)) % K.q == 0
                   for r in B.entries)


def oracle_rank(M: ConstMatrix) -> int:
    """Largest r with a nonzero r-minor, each minor by cofactor expansion."""
    P = M.to_poly_matrix(0)
    for r in range(min(M.rows, M.cols), 0, -1):
        for rows in combinations(range(M.rows), r):
            for cols in combinations(range(M.cols), r):
                if not det_cofactor(P.submatrix(rows, cols)).is_zero:
                    return r
    return 0


def small_field_matrices():
    """Matrices over F_5 and F_7 of up to 5 x 5 in which some rows are
    combinations of the rows before them, so prefix ranks stall."""
    st = pytest.importorskip("hypothesis").strategies

    @st.composite
    def matrices(draw):
        field = PrimeField(draw(st.sampled_from([5, 7])))
        q, cols = field.q, draw(st.integers(1, 5))
        rows: list[list[int]] = []
        for _ in range(draw(st.integers(1, 5))):
            if rows and draw(st.booleans()):
                coeffs = draw(st.lists(st.integers(0, q - 1), min_size=len(rows),
                                       max_size=len(rows)))
                rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) % q
                             for j in range(cols)])
            else:
                rows.append(draw(st.lists(st.integers(0, q - 1), min_size=cols,
                                          max_size=cols)))
        return ConstMatrix(field, rows)

    return matrices()


def test_row_ranks_are_prefix_minor_ranks_property():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(small_field_matrices())
    def check(M):
        ranks = M.row_ranks()
        assert len(ranks) == M.rows
        for k in range(1, M.rows + 1):
            assert ranks[k - 1] == oracle_rank(M.submatrix(range(k), range(M.cols)))
        assert M.rank() == ranks[-1]

    check()


def test_nullspace_basis_is_the_canonical_basis_property():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(small_field_matrices())
    def check(M):
        q = M.field.q
        # column j is free when it does not raise the rank of the columns
        # before it; the canonical basis has one vector per free column
        col_ranks = [0] + [oracle_rank(M.submatrix(range(M.rows), range(j + 1)))
                           for j in range(M.cols)]
        free = [j for j in range(M.cols) if col_ranks[j + 1] == col_ranks[j]]
        basis = M.nullspace_basis()
        assert len(basis) == M.cols - col_ranks[-1] == len(free)
        for v, f in zip(basis, free):
            assert all(sum(x * y for x, y in zip(r, v)) % q == 0
                       for r in M.entries)
            assert [v[g] for g in free] == [int(g == f) for g in free]

    check()


def test_const_matrix_shape_errors(K):
    with pytest.raises(ValueError):
        ConstMatrix(K, [[1, 2], [3]])
    with pytest.raises(ValueError):
        ConstMatrix(K, [])
