"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive results along different routes
than the library (cofactor expansion along the first row, naive power
evaluation, all-subsets dimension search) so the tests stay dual-route.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

from polarvar.field import PrimeField
from polarvar.matrices import ConstMatrix, PolyMatrix, enumerate_minors
from polarvar.polar import PolarSpec, polar_stack
from polarvar.poly import Polynomial, add_multiple, monomial_divides


@pytest.fixture(scope="session")
def K():
    return PrimeField()


@pytest.fixture(scope="session")
def F7():
    return PrimeField(7)


def expected_polar_degree(n: int, p: int, i: int, flavor: str) -> int:
    """Closed-form degree of the i-th polar variety of p generic quadrics
    in A^n: 2^p * C(p+i-1, i) for the classic flavor and 2^p * C(p+i, i)
    for the dual one.  A second route to deg_W that never reads a
    Groebner basis; n only fixes the range 1 <= i <= n - p.

    W is the maximal-minor locus of a p x (p+i-1) matrix (dual:
    (p+1) x (p+i)) of affine-linear forms inside the p quadrics.  For
    generic forms an m x q such locus has degree C(q, m-1) (Eagon-
    Northcott), and Bezout with the quadrics adds 2^p when nothing lies at
    infinity.  Both steps need genericity: dense random quadrics and a
    random full-rank matrix, not a structured draw."""
    if not 1 <= p <= n - 1 or not 1 <= i <= n - p:
        raise ValueError(f"no polar variety at (n, p, i) = ({n}, {p}, {i})")
    top = p + i - 1 if flavor == "classic" else p + i
    return 2 ** p * comb(top, i)


def stack_generators(spec: PolarSpec, t: int) -> list[Polynomial]:
    """F plus every t-minor of the whole (n-i+1) x n polar stack: the
    definition that polar_generators (t = n-i+1) and delta_ideal
    (t = n-i) compute from a smaller matrix."""
    return list(spec.F) + list(enumerate_minors(polar_stack(spec), t))


def random_poly(rng: random.Random, field: PrimeField, n: int,
                max_degree: int = 3, terms: int = 5) -> Polynomial:
    acc = {}
    for _ in range(terms):
        m = [0] * n
        for _ in range(rng.randrange(max_degree + 1)):
            m[rng.randrange(n)] += 1
        acc[tuple(m)] = rng.randrange(field.q)
    return Polynomial(field, n, acc)


def random_nonzero_poly(rng, field, n, max_degree=3, terms=5) -> Polynomial:
    while True:
        f = random_poly(rng, field, n, max_degree, terms)
        if not f.is_zero:
            return f


def det_cofactor(M: PolyMatrix) -> Polynomial:
    """First-row cofactor expansion; independent of the production paths."""
    size = M.rows
    if size == 1:
        return M[0, 0]
    total = Polynomial.zero(M.field, M.n)
    rest = list(range(1, size))
    for j in range(size):
        cols = [c for c in range(size) if c != j]
        sub = det_cofactor(M.submatrix(rest, cols))
        term = M[0, j] * sub
        total = total + term if j % 2 == 0 else total - term
    return total


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_div(b, a):
    """b / a for a | b, exponent by exponent."""
    return tuple(x - y for x, y in zip(b, a))


def shift(f: Polynomial, m, c: int = 1) -> Polynomial:
    """The product c * x^m * f."""
    return Polynomial(f.field, f.n, add_multiple({}, f.terms, c, f.field.q, m))


def naive_normal_form(f: Polynomial, basis) -> Polynomial:
    """Full remainder of f on division by the monic polynomials of basis,
    on exponent tuples: repeatedly take the degrevlex-largest term not yet
    moved to the remainder and cancel it with the first element whose
    leading monomial divides it.  Unique when basis is a Groebner basis."""
    def degrevlex(m):
        return (sum(m), [-e for e in reversed(m)])

    leads = [max(g.terms, key=degrevlex) for g in basis]
    p, remainder = f, {}
    while not p.is_zero:
        m = max((m for m in p.terms if m not in remainder), key=degrevlex,
                default=None)
        if m is None:
            break
        c = p.terms[m]
        for g, lm in zip(basis, leads):
            if all(x <= y for x, y in zip(lm, m)):
                p = p - shift(g, monomial_div(m, lm), c)
                break
        else:
            remainder[m] = c
    return Polynomial(f.field, f.n, remainder)


def naive_evaluate(f: Polynomial, coords) -> int:
    q = f.field.q
    total = 0
    for m, c in f.terms.items():
        v = c
        for x, e in zip(coords, m):
            v = v * pow(x, e, q) % q
        total = (total + v) % q
    return total


def evaluate_matrix(M: PolyMatrix, x) -> ConstMatrix:
    """Every entry of M evaluated at x by naive_evaluate."""
    return ConstMatrix(M.field, [[naive_evaluate(f, x) for f in row]
                                 for row in M.entries])


def brute_force_dimension(leading_monomials, n: int) -> int:
    """Max cardinality over all 2^n subsets, checked exhaustively."""
    supports = [frozenset(j for j, e in enumerate(lm) if e)
                for lm in leading_monomials]
    if any(not s for s in supports):
        return -1
    best = -1
    for k in range(n + 1):
        for U in combinations(range(n), k):
            Uset = set(U)
            if all(not s <= Uset for s in supports):
                best = max(best, k)
    return best


def count_staircase(leading_monomials, n: int, box: int = 40) -> int:
    """Standard monomials by direct enumeration inside a bounding box."""
    bounds = []
    for j in range(n):
        pure = [m[j] for m in leading_monomials if sum(m) == m[j] and m[j] > 0]
        assert pure, "oracle needs a zero-dimensional staircase"
        bounds.append(min(pure))
    count = 0
    idx = [0] * n

    def rec(slot):
        nonlocal count
        if slot == n:
            m = tuple(idx)
            if not any(monomial_divides(g, m) for g in leading_monomials):
                count += 1
            return
        for e in range(bounds[slot]):
            idx[slot] = e
            rec(slot + 1)
        idx[slot] = 0

    rec(0)
    return count
