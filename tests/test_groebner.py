"""Groebner engine: reduced bases, normal forms, dimension, degree,
localization, and resource budgets."""

import random
from itertools import combinations

import pytest

from polarvar.groebner import (HILBERT_MEMO_SIZE, BudgetExceededError, GBLimits,
                               GroebnerBasis, IdealPresentation, _hilbert_rec,
                               _is_squarefree, _Packing,
                               degree, dimension, hilbert_numerator,
                               localize_rabinowitsch,
                               normal_form, reduced_groebner_basis,
                               is_radical_zero_dim, standard_monomials)
from polarvar.parsing import parse_polynomial
from polarvar.poly import Polynomial, drl_key, monomial_divides, monomial_lcm

from conftest import (brute_force_dimension, count_staircase, monomial_div,
                      monomial_mul, naive_normal_form, random_poly, shift)


def P(text, n, field):
    return parse_polynomial(text, n, field)


def gb_of(field, n, texts, limits=GBLimits()):
    return reduced_groebner_basis(
        IdealPresentation(field, n, [P(t, n, field) for t in texts]), limits)


def spolynomial(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = monomial_lcm(lf, lg)
    sf = shift(f, monomial_div(lcm, lf), f.field.inv(f.leading_coefficient()))
    sg = shift(g, monomial_div(lcm, lg), g.field.inv(g.leading_coefficient()))
    return sf - sg


def assert_is_reduced_gb(G: GroebnerBasis):
    # every S-polynomial reduces to zero, by the tuple reducer
    for f, g in combinations(G.basis, 2):
        assert naive_normal_form(spolynomial(f, g), G.basis).is_zero
    # reduced: no term divisible by another element's leading monomial
    for idx, g in enumerate(G.basis):
        assert g.leading_coefficient() == 1
        for m in g.terms:
            for jdx, other in enumerate(G.basis):
                if jdx != idx:
                    assert not monomial_divides(other.leading_monomial(), m)


def test_already_reduced_pair_is_a_fixed_point(K):
    G = gb_of(K, 2, ["x1+x2", "x2^2"])
    assert [str(g) for g in G.basis] == ["x1 + x2", "x2^2"]
    assert_is_reduced_gb(G)


def test_inconsistent_system_collapses_to_one(K):
    G = gb_of(K, 1, ["x1", "x1+1"])
    assert G.contains_one
    assert [str(g) for g in G.basis] == ["1"]


def test_single_generator_is_its_own_basis(K):
    f = P("x1^3 + 5*x2 - 1", 2, K)
    G = reduced_groebner_basis(IdealPresentation(K, 2, [f]))
    assert G.basis == (f,)


def test_spolynomial_property_on_random_ideals(K):
    rng = random.Random(83)
    for _ in range(60):
        n = rng.choice([2, 3])
        gens = [random_poly(rng, K, n, max_degree=2, terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            continue
        G = reduced_groebner_basis(IdealPresentation(K, n, gens))
        assert_is_reduced_gb(G)
        # every input generator is a member of the ideal
        for g in gens:
            assert normal_form(g, G).is_zero


def test_canonicity_under_permutation_and_rescaling(K):
    rng = random.Random(89)
    for _ in range(40):
        n = 3
        gens = [random_poly(rng, K, n, max_degree=2, terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero]
        if len(gens) < 2:
            continue
        G1 = reduced_groebner_basis(IdealPresentation(K, n, gens))
        shuffled = gens[:]
        rng.shuffle(shuffled)
        shuffled = [g.scale(rng.randrange(1, K.q)) for g in shuffled]
        G2 = reduced_groebner_basis(IdealPresentation(K, n, shuffled))
        assert G1.basis == G2.basis


def test_equal_ideals_from_different_presentations(K):
    f = P("x1^2 - x2", 3, K)
    g = P("x2*x3 + 1", 3, K)
    G1 = reduced_groebner_basis(IdealPresentation(K, 3, [f, g]))
    combo = f + g.scale(7)
    G2 = reduced_groebner_basis(
        IdealPresentation(K, 3, [combo, g, f * P("x3", 3, K)]))
    assert G1.basis == G2.basis


def test_normal_form_membership_and_idempotence(K):
    G = gb_of(K, 3, ["x1^2+x2^2+x3^2-1", "x1*x3"])
    for g in G.basis:
        assert normal_form(g, G).is_zero
    one_gb = gb_of(K, 1, ["x1", "x1+1"])
    assert normal_form(P("1", 1, K), one_gb).is_zero
    rng = random.Random(97)
    for _ in range(100):
        f = random_poly(rng, K, 3, max_degree=4, terms=6)
        nf = normal_form(f, G)
        assert normal_form(nf, G) == nf


def test_normal_form_against_the_tuple_oracle(K, F7):
    rng = random.Random(131)
    for field in (K, F7):
        for _ in range(40):
            n = rng.choice([2, 3, 4])
            gens = [random_poly(rng, field, n, max_degree=3, terms=3)
                    for _ in range(rng.choice([2, 3]))]
            G = reduced_groebner_basis(IdealPresentation(field, n, gens))
            for _ in range(5):
                f = random_poly(rng, field, n, max_degree=5, terms=8)
                assert normal_form(f, G) == naive_normal_form(f, G.basis)


def test_packed_keys_against_the_tuple_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 7))
        pk = _Packing(n, draw(st.integers(0, 70)))
        top = pk.limit

        def monomial(bounds):
            return tuple(draw(st.integers(0, b)) for b in bounds)

        a = monomial([top] * n)
        b = monomial([top] * n)
        # c keeps a * c and b * c inside the fields
        c = monomial([top - max(x, y) for x, y in zip(a, b)])
        return pk, a, b, c

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        pk, a, b, c = case
        ka, kb, kc = pk.pack(a), pk.pack(b), pk.pack(c)
        assert pk.unpack(ka) == a and pk.unpack(kb) == b
        assert pk.degree(ka) == sum(a)
        assert (ka < kb) == (drl_key(a) < drl_key(b))
        assert (ka == kb) == (a == b)
        one = pk.pack((0,) * len(a))
        assert ka + kc - one == pk.pack(monomial_mul(a, c))
        if ka < kb:
            assert ka + kc < kb + kc
        assert pk.divides(ka, kb) == monomial_divides(a, b)
        assert pk.divides(ka, pk.pack(monomial_mul(a, c)))

    check()


def test_field_width_holds_twice_the_degree():
    for d in range(0, 130):
        limit = _Packing(3, d).limit
        assert 2 * d <= limit < 4 * d + 2
    # the tightest widths: the field's largest exponent is 2d + 1
    assert _Packing(2, 3).limit == 7 and _Packing(2, 7).limit == 15


def test_generator_above_the_degree_limit(K):
    # fields sized for max_degree = 60 alone would hold exponents up to 127;
    # the S-polynomial x1^199 - x2 needs 199
    assert [str(g) for g in gb_of(K, 2, ["x1^200 - x2", "x1 - 1"]).basis] == [
        "x2 - 1", "x1 - 1"]
    assert [str(g) for g in gb_of(K, 2, ["x1^200 - x2", "x2^2 - 1"]).basis] == [
        "x2^2 - 1", "x1^200 - x2"]
    with pytest.raises(BudgetExceededError) as err:
        gb_of(K, 2, ["x1^200 - x2", "x1*x2 - 1"])
    assert (err.value.kind, err.value.limit) == ("element degree", 60)


def test_normal_form_width_covers_f_and_the_basis(K):
    high = gb_of(K, 2, ["x1^200 - x2", "x2^2 - 1"])
    low = gb_of(K, 2, ["x1^2 - x2", "x2^3 - 1"])
    zero = reduced_groebner_basis(IdealPresentation(K, 2, []))
    # fields sized for f alone would not hold the leads of `high`, nor
    # fields sized for the basis alone the terms of x1^300*x2; modulo the
    # zero ideal's empty basis f is its own normal form
    for G, text in [(high, "x1^3*x2 + x2^3 + x1"), (high, "x1^201 + x2"),
                    (high, "x2 + 1"), (low, "x1^300*x2 + x1"), (low, "x1^2"),
                    (zero, "x1^3*x2 + x2 - 1")]:
        f = P(text, 2, K)
        assert normal_form(f, G) == naive_normal_form(f, G.basis)


def test_spolynomial_at_the_field_width_boundary(K):
    # with max_degree = 3 a field holds exponents up to 7; the S-polynomial
    # x2^2 f - x1^2 g = x2^5 - x1^2*x2^3 - x2^2 reaches 2d - 1 in x2
    f, g = P("x1^3 + x2^3 - 1", 2, K), P("x1*x2^2 + x2^3", 2, K)
    assert spolynomial(f, g) == P("x2^5 - x1^2*x2^3 - x2^2", 2, K)
    narrow = reduced_groebner_basis(IdealPresentation(K, 2, [f, g]),
                                    GBLimits(max_degree=3))
    assert [str(h) for h in narrow.basis] == ["x2^2", "x1^3 - 1"]
    assert narrow.basis == reduced_groebner_basis(IdealPresentation(K, 2, [f, g])).basis
    assert_is_reduced_gb(narrow)
    with pytest.raises(BudgetExceededError) as err:
        gb_of(K, 2, ["x1^3 + x2^3", "x1*x2^2 + x2^3 - 1"], GBLimits(max_degree=3))
    assert (err.value.kind, err.value.limit) == ("element degree", 3)


def test_dimension_examples(K):
    # leading terms {x1} in 3 variables
    G = gb_of(K, 3, ["x1"])
    assert dimension(G) == 2
    assert dimension(gb_of(K, 1, ["x1", "x1+1"])) == -1
    assert dimension(gb_of(K, 2, ["x1*x2"])) == 1
    # zero ideal
    empty = reduced_groebner_basis(IdealPresentation(K, 3, []))
    assert dimension(empty) == 3


def random_monomial_ideal(rng, n, count):
    gens = []
    for _ in range(count):
        m = tuple(rng.randrange(3) for _ in range(n))
        if any(m):
            gens.append(m)
    return gens


def test_dimension_against_brute_force_oracle(K):
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randrange(2, 9)
        lms = random_monomial_ideal(rng, n, rng.randrange(1, 5))
        if not lms:
            continue
        G = GroebnerBasis(K, n, [Polynomial(K, n, {m: 1}) for m in lms])
        assert dimension(G) == brute_force_dimension(lms, n)


def test_degree_examples(K):
    sphere = gb_of(K, 3, ["x1^2+x2^2+x3^2-1"])
    assert dimension(sphere) == 2
    assert degree(sphere) == 2
    four_points = gb_of(K, 2, ["x1^2-1", "x2^2-1"])
    assert degree(four_points) == 4
    assert degree(gb_of(K, 2, ["x1", "x1+1"])) == 0  # empty variety


def test_zero_dimensional_degree_is_staircase_count(K):
    rng = random.Random(107)
    done = 0
    while done < 30:
        n = rng.randrange(2, 5)
        # force zero-dimensionality with one pure power per variable
        lms = [tuple(rng.randrange(1, 4) if j == k else 0 for j in range(n))
               for k in range(n)]
        for _ in range(rng.randrange(3)):
            lms.append(tuple(rng.randrange(3) for _ in range(n)))
        lms = [m for m in lms if any(m)]
        G = GroebnerBasis(K, n, [Polynomial(K, n, {m: 1}) for m in lms])
        if dimension(G) != 0:
            continue
        assert degree(G) == count_staircase(lms, n)
        assert len(standard_monomials(G)) == degree(G)
        done += 1


def test_standard_monomials_walk(K):
    four_points = gb_of(K, 2, ["x1^2-1", "x2^2-1"])
    assert standard_monomials(four_points) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    rng = random.Random(113)
    for _ in range(20):
        n = rng.randrange(2, 5)
        lms = [tuple(rng.randrange(1, 4) if j == k else 0 for j in range(n))
               for k in range(n)]
        lms += [tuple(rng.randrange(3) for _ in range(n)) for _ in range(2)]
        lms = [m for m in lms if any(m)]
        G = GroebnerBasis(K, n, [Polynomial(K, n, {m: 1}) for m in lms])
        walk = standard_monomials(G)
        assert len(walk) == len(set(walk)) == count_staircase(lms, n)
        assert walk == sorted(walk, key=drl_key)
        assert not any(monomial_divides(g, m) for g in lms for m in walk)
    assert standard_monomials(gb_of(K, 2, ["x1", "x1+1"])) == []
    with pytest.raises(ValueError):
        standard_monomials(gb_of(K, 2, ["x1^2"]))  # x2 is free


def test_is_radical_zero_dim_examples(K, F7):
    assert is_radical_zero_dim(gb_of(K, 2, ["x1^2-1", "x2^2-1"]))
    assert not is_radical_zero_dim(gb_of(K, 2, ["x1^2", "x2"]))
    # (x1 - 1)^2 (x1 + 1): a double point next to a simple one
    assert not is_radical_zero_dim(gb_of(K, 2, ["x1^3-x1^2-x1+1", "x2-x1"]))
    # x1 takes one value at both points, so x2 decides
    assert is_radical_zero_dim(gb_of(K, 2, ["x1", "x2^2-x2"]))
    # x1 is squarefree of degree 2 < D = 4; the repeated factor is in x2
    assert not is_radical_zero_dim(gb_of(K, 2, ["x1^2-1", "x2^2"]))
    # x1^7 - 3 = (x1 - 3)^7 over F_7, whose derivative vanishes
    assert not is_radical_zero_dim(gb_of(F7, 2, ["x1^7-3", "x2-x1"]))
    assert is_radical_zero_dim(gb_of(F7, 1, ["x1^7-x1"]))
    assert is_radical_zero_dim(gb_of(K, 2, ["x1", "x1+1"]))  # unit ideal
    with pytest.raises(ValueError):
        is_radical_zero_dim(gb_of(K, 2, ["x1^2"]))  # x2 is free


def test_is_squarefree_over_f7():
    # {degree: coefficient} over F_7
    assert not _is_squarefree({7: 1, 0: 4}, 7)  # t^7 - 3 = (t - 3)^7, f' = 0
    assert _is_squarefree({7: 1, 1: 6}, 7)  # t^7 - t, f' = -1
    assert not _is_squarefree({7: 1, 2: 1}, 7)  # t^7 + t^2, f' = 2t
    assert not _is_squarefree({3: 1, 2: 6, 1: 6, 0: 1}, 7)  # (t - 1)^2 (t + 1)
    assert _is_squarefree({2: 1, 0: 1}, 7)  # t^2 + 1


def test_is_radical_zero_dim_budget(K):
    # D = 4 standard monomials, then the remainders of x_j*s and the powers
    # of x_j: a budget below the work needed fails loudly
    four_points = gb_of(K, 2, ["x1^2-1", "x2^2-1"])
    with pytest.raises(BudgetExceededError):
        is_radical_zero_dim(four_points, GBLimits(max_pairs=3))
    with pytest.raises(BudgetExceededError):
        is_radical_zero_dim(four_points, GBLimits(max_pairs=10))
    assert is_radical_zero_dim(four_points, GBLimits(max_pairs=1000))
    with pytest.raises(BudgetExceededError):
        standard_monomials(four_points, cap=3)


def test_staircase_summary(K):
    four_points = gb_of(K, 2, ["x1^2-1", "x2^2-1"])
    assert dimension(four_points) == 0
    assert degree(four_points) == 4 == len(standard_monomials(four_points))
    empty = gb_of(K, 2, ["x1", "x1+1"])
    assert (dimension(empty), degree(empty)) == (-1, 0)
    sphere = gb_of(K, 3, ["x1^2+x2^2+x3^2-1"])
    assert (dimension(sphere), degree(sphere)) == (2, 2)


def test_dimension_degree_invariant_under_presentation(K):
    rng = random.Random(109)
    gens = ["x1^2+x2^2+x3^2-1", "x1*x2 - x3"]
    G1 = gb_of(K, 3, gens)
    G2 = gb_of(K, 3, list(reversed(gens)))
    assert (dimension(G1), degree(G1)) == (dimension(G2), degree(G2))


def test_hilbert_numerator_simple_cases(K):
    # principal ideal (x1^2): numerator 1 - t^2
    assert hilbert_numerator([(2, 0, 0)]) == [1, 0, -1]
    assert hilbert_numerator([]) == [1]
    assert hilbert_numerator([(0, 0, 0)]) == [0]
    # the numerators of the recursion sit in a bounded memo
    assert _hilbert_rec.cache_info().maxsize == HILBERT_MEMO_SIZE


def test_localize_rabinowitsch_examples(K):
    I = IdealPresentation(K, 2, [P("x1*x2", 2, K)])
    loc = localize_rabinowitsch(I, P("x1", 2, K))
    assert loc.n == 3
    assert dimension(reduced_groebner_basis(loc)) == 1
    gone = localize_rabinowitsch(IdealPresentation(K, 1, [P("x1", 1, K)]),
                                 P("x1", 1, K))
    assert dimension(reduced_groebner_basis(gone)) == -1
    everything = localize_rabinowitsch(IdealPresentation(K, 2, []),
                                       P("1", 2, K))
    assert dimension(reduced_groebner_basis(everything)) == 2
    with pytest.raises(ValueError):
        localize_rabinowitsch(I, Polynomial.zero(K, 2))


def test_budget_errors_are_explicit(K):
    tiny = GBLimits(max_pairs=1, max_basis=2, max_degree=60)
    gens = ["x1^2+x2^2+x3^2-1", "x1*x2-x3", "x1*x3-x2"]
    with pytest.raises(BudgetExceededError):
        gb_of(K, 3, gens, limits=tiny)
    low_degree = GBLimits(max_degree=1)
    with pytest.raises(BudgetExceededError):
        gb_of(K, 3, gens, limits=low_degree)


@pytest.mark.parametrize("field", ["max_pairs", "max_basis", "max_degree"])
def test_budgets_below_one_are_rejected(field):
    for value in (0, -1):
        with pytest.raises(ValueError, match=f"GBLimits.{field} must be at "
                                             f"least 1, got {value}"):
            GBLimits(**{field: value})
    assert getattr(GBLimits(**{field: 1}), field) == 1


def test_presentation_normalizes(K):
    gens = [Polynomial.zero(K, 2), P("2*x1", 2, K), P("x1", 2, K),
            P("3*x2", 2, K)]
    I = IdealPresentation(K, 2, gens)
    assert len(I.generators) == 2  # zero dropped, 2*x1 and x1 merge monic
    assert all(g.leading_coefficient() == 1 for g in I.generators)
