"""Optional cross-checks against sympy, when it is installed.

The reduced Groebner basis is canonical for an ideal and an order, so a
basis-by-basis comparison against an independent implementation is the
strongest available external oracle.  These tests skip cleanly when sympy
is not importable; nothing in the library itself depends on it.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from polarvar.groebner import (IdealPresentation, localize_rabinowitsch,
                               reduced_groebner_basis)
from polarvar.poly import Polynomial

from conftest import random_poly


def to_sympy(f, xs, q):
    expr = 0
    for m, c in f.terms.items():
        cc = c if c <= q // 2 else c - q  # balanced lift for GF(q)
        term = sympy.Integer(cc)
        for x, e in zip(xs, m):
            term *= x ** e
        expr += term
    return expr


def from_sympy(p, field, n):
    terms = {tuple(mono): int(coeff) % field.q
             for mono, coeff in zip(p.monoms(), p.coeffs())}
    return Polynomial(field, n, terms)


def assert_basis_matches_sympy(I: IdealPresentation) -> None:
    xs = sympy.symbols(f"x1:{I.n + 1}")
    q = I.field.q
    gb = sympy.groebner([to_sympy(g, xs, q) for g in I.generators], *xs,
                        order="grevlex", domain=sympy.GF(q))
    theirs = sorted((from_sympy(p, I.field, I.n).monic() for p in gb.polys),
                    key=str)
    assert sorted(reduced_groebner_basis(I).basis, key=str) == theirs


def test_reduced_bases_match_sympy(K):
    """Random systems in three variables, each also localized by
    Rabinowitsch at a random linear form: the non-homogeneous T*m - 1 mixes
    degrees within one generator, so the pair order differs most there."""
    rng = random.Random(2718)
    n = 3
    checked = 0
    while checked < 25:
        gens = [random_poly(rng, K, n, max_degree=2, terms=3)
                for _ in range(rng.choice([2, 3]))]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        I = IdealPresentation(K, n, gens)
        form = Polynomial(K, n, {tuple(int(k == j) for k in range(n)):
                                 rng.randrange(1, K.q) for j in range(n)})
        assert_basis_matches_sympy(I)
        assert_basis_matches_sympy(localize_rabinowitsch(I, form))
        checked += 1


def test_small_field_bases_match_sympy(F7):
    rng = random.Random(577)
    n = 2
    for _ in range(25):
        gens = [random_poly(rng, F7, n, max_degree=3, terms=4)
                for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        assert_basis_matches_sympy(IdealPresentation(F7, n, gens))
