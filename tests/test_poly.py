"""Sparse polynomial arithmetic, the degrevlex order, and calculus ops."""

import random
from itertools import product

import pytest

from polarvar.field import PrimeField
from polarvar.matrices import jacobian, jacobian_at
from polarvar.parsing import parse_polynomial
from polarvar.poly import (KERNEL_MEMO_SIZE, Polynomial, _kernel, _point_kernel,
                           add_multiple, differentiate, drl_key, evaluate,
                           point_values)

from conftest import evaluate_matrix, monomial_mul, naive_evaluate, random_poly


def P(text, n, field):
    return parse_polynomial(text, n, field)


def test_product_of_conjugates(K):
    assert P("x1+x2", 2, K) * P("x1-x2", 2, K) == P("x1^2-x2^2", 2, K)


def test_multiplication_by_zero(K):
    f = P("3*x1^2*x2 + 7", 2, K)
    assert (f * Polynomial.zero(K, 2)).is_zero


def test_degree_adds_on_products(K):
    rng = random.Random(5)
    for _ in range(50):
        f = random_poly(rng, K, 3)
        g = random_poly(rng, K, 3)
        if f.is_zero or g.is_zero:
            continue
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


def expand_product_oracle(f, g):
    # term-by-term expansion into a plain dict, independent of __mul__
    acc = {}
    for m1, c1 in f.sorted_terms():
        for m2, c2 in g.sorted_terms():
            m = monomial_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return Polynomial(f.field, f.n, acc)


def add_multiple_oracle(acc, terms, c, q, shift):
    # acc + c * x^shift * terms, built in a fresh dict with one final mod
    out = dict(acc)
    for m, v in terms.items():
        if shift is not None:
            m = monomial_mul(m, shift)
        out[m] = out.get(m, 0) + c * v
    return {m: v % q for m, v in out.items() if v % q}


def test_add_multiple_against_a_dict_oracle():
    q = 7
    rng = random.Random(71)
    monos = [(a, b) for a in range(3) for b in range(3)]
    for _ in range(300):
        acc = {m: rng.randrange(1, q) for m in rng.sample(monos, rng.randrange(6))}
        terms = {m: rng.randrange(1, q) for m in rng.sample(monos, rng.randrange(6))}
        c = rng.randrange(-2 * q, 2 * q)
        shift = rng.choice([None, (0, 0), (1, 0), (0, 2)])
        expected = add_multiple_oracle(acc, terms, c, q, shift)
        out = add_multiple(acc, terms, c, q, shift)
        assert out is acc
        assert out == expected
        assert all(0 < v < q for v in out.values())


def test_add_multiple_cancellation_and_zero_multipliers():
    q = 7
    f = {(2, 0): 3, (1, 1): 5, (0, 0): 1}
    # full cancellation leaves no key behind, zero-valued or not
    assert add_multiple(dict(f), f, -1, q) == {}
    assert add_multiple(dict(f), f, 6, q) == {}
    assert add_multiple({(3, 1): 3, (2, 2): 5, (1, 1): 1}, f, -1, q, (1, 1)) == {}
    # a multiplier that vanishes mod q leaves acc untouched
    for c in (0, 7, -14):
        assert add_multiple(dict(f), f, c, q) == f
    # a negative multiplier is reduced mod q
    assert add_multiple({}, f, -3, q) == add_multiple({}, f, 4, q) == {
        (2, 0): 5, (1, 1): 6, (0, 0): 4}
    # shift=None is the all-zero shift
    assert add_multiple({(1, 1): 2}, f, 3, q) == add_multiple({(1, 1): 2}, f, 3, q, (0, 0))


def test_add_multiple_on_integer_keys():
    q = 7
    acc = {0: 1, 3: 4}
    assert add_multiple(acc, {0: 6, 1: 2, 3: 1}, 1, q) == {1: 2, 3: 5}
    assert add_multiple(acc, {1: 1, 3: 4}, -2, q) == {3: 4}


def test_ring_laws_on_random_triples(K):
    rng = random.Random(17)
    for _ in range(200):
        f = random_poly(rng, K, 3)
        g = random_poly(rng, K, 3)
        h = random_poly(rng, K, 3)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f * g == expand_product_oracle(f, g)


def test_ambient_mismatch_is_an_error(K):
    with pytest.raises(ValueError):
        P("x1", 1, K) * P("x1", 2, K)


def test_degrevlex_is_a_monomial_order(K):
    rng = random.Random(23)
    n = 4
    one = (0,) * n
    for _ in range(300):
        m1 = tuple(rng.randrange(4) for _ in range(n))
        m2 = tuple(rng.randrange(4) for _ in range(n))
        m = tuple(rng.randrange(3) for _ in range(n))
        if m1 != one:
            assert drl_key(one) < drl_key(m1)
        if drl_key(m1) < drl_key(m2):
            assert drl_key(monomial_mul(m, m1)) < drl_key(monomial_mul(m, m2))


def test_degrevlex_classic_signature(K):
    # among degree-2 monomials in 3 variables: x2^2 beats x1*x3
    assert drl_key((0, 2, 0)) > drl_key((1, 0, 1))
    assert drl_key((2, 0, 0)) > drl_key((1, 1, 0)) > drl_key((0, 2, 0))


def test_canonical_form_unique(K):
    rng = random.Random(31)
    for _ in range(100):
        f = random_poly(rng, K, 3)
        g = Polynomial(K, 3, dict(reversed(f.sorted_terms())))
        assert f == g
        assert f.sorted_terms() == g.sorted_terms()
        assert hash(f) == hash(g)


def test_differentiate_examples(K):
    assert differentiate(P("x1^2*x2", 2, K), 1) == P("2*x1*x2", 2, K)
    assert differentiate(P("x1^3", 2, K), 2).is_zero
    with pytest.raises(ValueError):
        differentiate(P("x1", 2, K), 3)


def test_differentiate_is_linear_and_leibniz(K):
    rng = random.Random(41)
    for _ in range(100):
        f = random_poly(rng, K, 3)
        g = random_poly(rng, K, 3)
        j = rng.randrange(1, 4)
        assert (differentiate(f * g, j)
                == f * differentiate(g, j) + g * differentiate(f, j))
        assert differentiate(f + g, j) == differentiate(f, j) + differentiate(g, j)


def test_exponent_reduction_mod_q_in_derivative(F7):
    # d/dx of x^7 over F_7 is 7*x^6 = 0
    f = Polynomial(F7, 1, {(7,): 1})
    assert differentiate(f, 1).is_zero


def test_evaluate_examples(K):
    assert evaluate(P("x1^2+x2", 2, K), [3, 4]) == 13
    assert evaluate(P("42", 2, K), [5, 6]) == 42
    with pytest.raises(ValueError):
        evaluate(P("x1", 2, K), [1])


def test_evaluate_against_naive_oracle(K):
    rng = random.Random(59)
    for _ in range(100):
        f = random_poly(rng, K, 4, max_degree=5, terms=8)
        x = [rng.randrange(K.q) for _ in range(4)]
        assert evaluate(f, x) == naive_evaluate(f, x)


def test_extend_preserves_values(K):
    f = P("x1^2 + 3*x2", 2, K)
    g = f.extend(4)
    assert g.n == 4
    assert evaluate(g, [2, 5, 9, 9]) == evaluate(f, [2, 5])


def naive_gradient(f: Polynomial, coords) -> list[int]:
    """The partials of f at coords, term by term: c * x^m contributes
    c * e * x^(m - e_j) to the j-th partial."""
    q = f.field.q
    grad = [0] * f.n
    for m, c in f.terms.items():
        for j, e in enumerate(m):
            if e:
                v = c * e
                for k, (x, ek) in enumerate(zip(coords, m)):
                    v = v * pow(x, ek - (k == j), q) % q
                grad[j] = (grad[j] + v) % q
    return grad


@pytest.mark.parametrize("q", [7, PrimeField().q])
def test_point_values_against_the_term_by_term_oracle_property(q):
    # each polynomial and system is evaluated at several points in turn, so
    # a kernel or coefficient tuple carried over from an earlier point or
    # another polynomial of the same support shows; coordinates outside
    # [0, q) must give the values at their residues
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = PrimeField(q)
    residue = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    coordinate = st.one_of(residue, st.integers(-2 * q, -1), st.integers(q, 2 * q - 1),
                           st.integers(2**64 + 1, 2**66))

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 4))
        # variables past `used` never occur; exponents reach 9 >= 7
        used = draw(st.integers(0, n))
        monomial = st.tuples(*[st.integers(0, 9)] * used + [st.just(0)] * (n - used))
        term = st.tuples(monomial, residue)
        F = [Polynomial(field, n, dict(draw(st.lists(term, max_size=6))))
             for _ in range(draw(st.integers(1, 3)))]
        F += [Polynomial.zero(field, n), Polynomial.constant(field, n, draw(residue))]
        F.append(F[0].scale(draw(residue)))  # F[0]'s support, other values
        points = draw(st.lists(st.tuples(*[coordinate] * n), min_size=2, max_size=6))
        return F, points

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        F, points = case
        for x in points:
            residues = [v % q for v in x]
            values = [[naive_evaluate(f, residues)] for f in F]
            grads = [naive_gradient(f, residues) for f in F]
            assert point_values(F, x) == values
            assert point_values(F, x, gradient=True) == [
                v + g for v, g in zip(values, grads)]
            for f, v in zip(F, values):
                assert evaluate(f, x) == v[0]
            assert jacobian_at(F, x) == evaluate_matrix(jacobian(F), residues)

    check()


@pytest.mark.parametrize("q", [7, PrimeField().q])
def test_point_values_of_a_polynomial_with_thousands_of_terms(q):
    # 6561 terms: a single `+` chain that long overflows the compiler's
    # recursion, so the kernel must sum in chunks
    field = PrimeField(q)
    rng = random.Random(q)
    f = Polynomial(field, 4, {m: rng.randrange(1, q)
                              for m in product(range(9), repeat=4)})
    assert len(f.terms) == 6561
    for x in ([0, 0, 0, 0], [1, q - 1, 2, 3], [rng.randrange(q) for _ in range(4)]):
        want = [naive_evaluate(f, x)] + naive_gradient(f, x)
        assert point_values([f], x, gradient=True) == [want]
        assert evaluate(f, x) == want[0]


def test_point_kernels_stay_with_their_polynomial(K):
    rng = random.Random(13)
    for _ in range(20):
        f = random_poly(rng, K, 3, max_degree=4, terms=6)
        g = random_poly(rng, K, 3, max_degree=4, terms=6)
        twin = Polynomial(K, 3, dict(f.terms))
        x = [rng.randrange(K.q) for _ in range(3)]
        for h in (f, g):  # kernels for the value and for the gradients
            evaluate(h, x)
            jacobian_at([h], x)
        assert f == twin and hash(f) == hash(twin) and len({f, twin}) == 1
        for h in (f + g, f - g, f * g, f.monic(), f.extend(4), f.scale(3)):
            y = [rng.randrange(K.q) for _ in range(h.n)]
            assert evaluate(h, y) == naive_evaluate(h, y)
            assert jacobian_at([h], y) == evaluate_matrix(jacobian([h]), y)


def test_point_kernels_are_shared_by_support_in_a_bounded_memo(K):
    f = P("3*x1^2*x2 + x2 - 5", 2, K)
    g = P("x2 + 7*x1^2*x2 + 2", 2, K)  # f's support, written in another order
    h = P("x1^2*x2 + x1 - 5", 2, K)
    assert _point_kernel(f, True)[1] is _point_kernel(g, True)[1]
    assert _point_kernel(f, True)[1] is not _point_kernel(h, True)[1]
    assert _point_kernel(f, False)[1] is not _point_kernel(f, True)[1]
    assert [evaluate(f, [2, 3]), evaluate(g, [2, 3])] == [(36 + 3 - 5) % K.q, 89]
    assert _kernel.cache_info().maxsize == KERNEL_MEMO_SIZE
