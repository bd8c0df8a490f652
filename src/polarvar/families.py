"""Explicit families with provably singular or provably smooth polar loci.

Three constructions live here:

* a family of pairs of quadrics (n >= 6) whose generic polar variety of
  codimension three in A^n carries a certified singular point xi, witnessed
  by exact vanishing of the full gradient of the stacked determinant at xi;

* the unit-triangular coordinate transform A(Z) whose inverse rows B_i(z)
  parametrize a meagerly generic family of classic polar varieties, with
  the exact identity B_i(z) A(z) = [O | I] and the nesting B_{i+1} inside
  B_i;

* the one-parameter dual family B_(i,gamma) whose localized polar
  varieties form a descending chain of smooth subvarieties, each of
  codimension one in the previous, localized away from the corner
  (p-1)-minor of the Jacobian.

Degree comparisons between these structured draws and uniformly random
full-rank draws back the empirical degree-domination check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .field import PrimeField
from .groebner import (DEFAULT_LIMITS, GBLimits, IdealPresentation,
                       localize_rabinowitsch, normal_form)
from .experiment import random_full_rank_matrix
from .matrices import (ConstMatrix, PolyMatrix, determinant_division_free,
                       enumerate_minors, jacobian, jacobian_at, system_ring)
from .poly import Point, Polynomial, differentiate, evaluate
from .polar import (CLASSIC, PolarIdealResult, PolarSpec, PolarSpecError,
                    analyze_ideal, polar_generators, polar_ideal, polar_stack,
                    singular_locus_dim, singular_locus_generators,
                    verify_smooth_complete_intersection)

_FAMILY_ATTEMPTS = 50  # draws build_family_31 tries before giving up
_POINT_TRIES = 64  # draws _point_with_nonzero_leads tries per basis
STRUCTURED_DRAWS = 3  # draws per structured family in degree_domination_check


class FamilyDrawError(RuntimeError):
    """The bounded re-draw loop failed to hit a generic instance."""


# --------------------------------------------------------------- family (3.1)


@dataclass
class Family31Instance:
    """A pair of diagonal quadrics with a certified singular polar point."""

    field: PrimeField
    n: int
    c: ConstMatrix            # 2 x n, all entries and all 2x2 subdets nonzero
    a: ConstMatrix            # (n-2) x n, [c; a] invertible
    c1: int
    c2: int
    F1: Polynomial
    F2: Polynomial
    xi: Point


def _diagonal_quadric(field: PrimeField, n: int, coeffs: Sequence[int],
                      const: int) -> Polynomial:
    terms = {}
    for j, cj in enumerate(coeffs):
        m = tuple(2 if k == j else 0 for k in range(n))
        terms[m] = cj % field.q
    terms[(0,) * n] = (-const) % field.q
    return Polynomial(field, n, terms)


def build_family_31(n: int, seed: int, field: PrimeField,
                    limits: GBLimits = DEFAULT_LIMITS) -> Family31Instance:
    """Draw matrices c, a and a point xi on the degeneracy space until every
    genericity requirement holds; the returned system is verified to be a
    smooth complete intersection vanishing at xi."""
    if n < 6:
        raise PolarSpecError("the singular family needs n >= 6")
    if field.q == 2:
        raise PolarSpecError("characteristic two is rejected: the derivative "
                             "identity carries a factor 2")
    q = field.q
    rng = random.Random(seed)
    for _ in range(_FAMILY_ATTEMPTS):
        c_rows = [[rng.randrange(1, q) for _ in range(n)] for _ in range(2)]
        c = ConstMatrix(field, c_rows)
        if any(
            (c_rows[0][u] * c_rows[1][v] - c_rows[0][v] * c_rows[1][u]) % q == 0
                for u in range(n) for v in range(u + 1, n)):
            continue
        a = ConstMatrix(field, [[rng.randrange(q) for _ in range(n)]
                                for _ in range(n - 2)])
        stacked = ConstMatrix(field, list(c.entries) + list(a.entries))
        if stacked.rank() != n:
            continue
        # E: points x with both (c_{u,j} x_j)_j inside the row span of a,
        # i.e. orthogonal to the 2-dimensional kernel of a
        kernel = a.nullspace_basis()
        if len(kernel) != 2:
            continue
        cond_rows = [[c_rows[u][j] * v[j] % q for j in range(n)]
                     for u in range(2) for v in kernel]
        E_basis = ConstMatrix(field, cond_rows).nullspace_basis()
        if not E_basis:
            continue
        xi = _point_with_nonzero_leads(rng, field, E_basis)
        if xi is None:
            continue
        c1 = sum(c_rows[0][j] * xi[j] * xi[j] for j in range(n)) % q
        c2 = sum(c_rows[1][j] * xi[j] * xi[j] for j in range(n)) % q
        if c1 == 0 or c2 == 0:
            continue
        if any((c1 * c_rows[1][j] - c2 * c_rows[0][j]) % q == 0 for j in range(n)):
            continue
        F1 = _diagonal_quadric(field, n, c_rows[0], c1)
        F2 = _diagonal_quadric(field, n, c_rows[1], c2)
        if not verify_smooth_complete_intersection([F1, F2], limits).ok:
            continue
        return Family31Instance(field=field, n=n, c=c, a=a, c1=c1, c2=c2,
                                F1=F1, F2=F2, xi=Point(field, xi))
    raise FamilyDrawError(f"no generic draw found in {_FAMILY_ATTEMPTS} attempts")


def _point_with_nonzero_leads(rng: random.Random, field: PrimeField,
                              basis: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    q = field.q
    n = len(basis[0])
    for _ in range(_POINT_TRIES):
        coeffs = [rng.randrange(q) for _ in basis]
        x = [0] * n
        for t, v in zip(coeffs, basis):
            for j in range(n):
                x[j] = (x[j] + t * v[j]) % q
        if x[0] and x[1]:
            return tuple(x)
    return None


@dataclass
class WitnessReport:
    """Exact checks certifying that xi is a singular point of the polar
    variety cut out by (F1, F2, det of the stacked matrix)."""

    det_vanishes_at_xi: bool
    gradient_vanishes_at_xi: bool
    derivative_identity_ok: bool
    stack_rank_at_xi: int
    jacobian_rank_is_two: bool
    singular_generators_vanish: bool
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_singular_witness(inst: Family31Instance) -> WitnessReport:
    n = inst.n
    N = polar_stack(polar_spec_31(inst))
    detN = determinant_division_free(N)
    xi = inst.xi
    failures: list[str] = []

    det_ok = evaluate(detN, xi) == 0
    if not det_ok:
        failures.append("det of the stacked matrix does not vanish at xi")

    grads = [differentiate(detN, j) for j in range(1, n + 1)]
    grad_ok = all(evaluate(g, xi) == 0 for g in grads)
    if not grad_ok:
        failures.append("gradient of the determinant does not vanish at xi")

    # cofactors along the two gradient rows: m1 keeps grad F1, m2 keeps grad F2.
    # One Laplace memo per deleted row r: the (n-1)-minors of N without row r
    # come in lexicographic column-set order, so the one without column j is
    # the last but j, with cofactor sign (-1)^(r+j)
    cofactors = []
    for r in (0, 1):
        rest = N.submatrix([k for k in range(n) if k != r], range(n))
        minors = list(enumerate_minors(rest, n - 1))[::-1]
        cofactors.append([m if (r + j) % 2 == 0 else -m
                          for j, m in enumerate(minors)])
    m2, m1 = cofactors
    identity_ok = all(
        grads[j] == m1[j].scale(2 * inst.c[1, j]) + m2[j].scale(2 * inst.c[0, j])
        for j in range(n))
    if not identity_ok:
        failures.append("cofactor form of the determinant derivative fails")

    # one reduction of J(F1, F2, det)(xi) gives rank J(F1, F2) as a prefix rank
    rank2, rank3 = jacobian_at([inst.F1, inst.F2, detN], xi).row_ranks()[1:]
    rank_ok = rank3 == 2 and rank2 == 2
    if not rank_ok:
        failures.append(f"stacked Jacobian rank at xi is {rank3}, wanted 2")

    sing_gens = singular_locus_generators([inst.F1, inst.F2, detN], 3)
    sing_ok = all(evaluate(g, xi) == 0 for g in sing_gens)
    if not sing_ok:
        failures.append("a singular-locus generator does not vanish at xi")

    return WitnessReport(det_vanishes_at_xi=det_ok,
                         gradient_vanishes_at_xi=grad_ok,
                         derivative_identity_ok=identity_ok,
                         stack_rank_at_xi=rank3,
                         jacobian_rank_is_two=rank_ok,
                         singular_generators_vanish=sing_ok,
                         failures=tuple(failures))


def polar_spec_31(inst: Family31Instance) -> PolarSpec:
    """The classic polar spec whose variety the witness point sits on."""
    return PolarSpec.classic(inst.n, 2, 1, [inst.F1, inst.F2], inst.a)


# ------------------------------------------------- unit-triangular transform


def parameter_count(n: int, p: int) -> int:
    return (n - p) * (n - p + 1) // 2


def _transform_entries(n: int, p: int):
    """Positions (r, t), 1-indexed, of the free parameters below the
    diagonal of the trailing (n-p+1) block."""
    for r in range(p + 1, n + 1):
        for t in range(p, r):
            yield (r, t)


def transform_matrix(field: PrimeField, n: int, p: int,
                     z: Sequence[int]) -> ConstMatrix:
    """The unit lower-triangular n x n coordinate transform A(z)."""
    s = parameter_count(n, p)
    if len(z) != s:
        raise PolarSpecError(f"expected {s} parameters, got {len(z)}")
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for (r, t), v in zip(_transform_entries(n, p), z):
        rows[r - 1][t - 1] = v % field.q
    return ConstMatrix(field, rows)


def transform_matrix_symbolic(field: PrimeField, n: int, p: int) -> PolyMatrix:
    """A(Z) with one fresh variable per parameter slot."""
    s = parameter_count(n, p)
    one = Polynomial.constant(field, s, 1)
    zero = Polynomial.zero(field, s)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for idx, (r, t) in enumerate(_transform_entries(n, p)):
        rows[r - 1][t - 1] = Polynomial.variable(field, s, idx + 1)
    return PolyMatrix(rows)


def unitriangular_inverse(M: PolyMatrix) -> PolyMatrix:
    """Exact inverse of a unit lower-triangular polynomial matrix by forward
    substitution: row i of the inverse is e_i - sum_{k<i} M[i,k] * row k."""
    n_amb = M.n
    field = M.field
    size = M.rows
    zero = Polynomial.zero(field, n_amb)
    one = Polynomial.constant(field, n_amb, 1)
    for i in range(size):
        for j in range(size):
            e = M[i, j]
            if i == j and e != one:
                raise ValueError("diagonal must be identically one")
            if j > i and not e.is_zero:
                raise ValueError("matrix must be lower triangular")
    inv: list[list[Polynomial]] = []
    for i in range(size):
        row = [one if j == i else zero for j in range(size)]
        for k in range(i):
            m = M[i, k]
            if not m.is_zero:
                row = [r - m * b for r, b in zip(row, inv[k])]
        inv.append(row)
    return PolyMatrix(inv)


def example1_transform(n: int, p: int, i: int, z: Sequence[int],
                       field: PrimeField) -> ConstMatrix:
    """B_i(z), the meagerly generic matrix: build A(z), invert it exactly,
    and slice rows p+i..n; the defining identity B_i(z) A(z) = [O | I] is
    re-checked before returning."""
    if not (1 <= p <= n - 1 and 1 <= i <= n - p):
        raise PolarSpecError(f"bad parameters (n, p, i) = ({n}, {p}, {i})")
    A = transform_matrix(field, n, p, z)
    Ainv = unitriangular_inverse(A.to_poly_matrix(0))
    B = ConstMatrix(field, [[e.coefficient(()) for e in Ainv.row(r)]
                            for r in range(p + i - 1, n)])
    prod = B.matmul(A)
    k = n - p - i + 1
    for r in range(k):
        for col in range(n):
            want = 1 if col == p + i - 1 + r else 0
            if prod[r, col] != want:
                raise AssertionError("inverse slice identity failed")
    return B


# ------------------------------------------------------- dual chain (example 2)


def example2_matrix(field: PrimeField, n: int, p: int, i: int,
                    gamma: Sequence[int]) -> ConstMatrix:
    """B_(i,gamma): unit rows in the middle block over the full gamma row."""
    if len(gamma) != n:
        raise PolarSpecError(f"gamma must have {n} entries")
    g = [v % field.q for v in gamma]
    if g[n - i - 1] == 0:
        raise PolarSpecError(f"gamma_{n - i} must be nonzero for level i={i}")
    rows = []
    for k in range(n - p - i):
        rows.append([1 if col == p - 1 + k else 0 for col in range(n)])
    rows.append(g)
    return ConstMatrix(field, rows)


def corner_minor(F: Sequence[Polynomial]) -> Polynomial:
    """det [dF_k/dX_l] over the first p-1 rows and columns; 1 when p = 1."""
    field, n = system_ring(F)
    p = len(F)
    if p == 1:
        return Polynomial.constant(field, n, 1)
    J = jacobian(F)
    return determinant_division_free(J.submatrix(range(p - 1), range(p - 1)))


@dataclass
class ChainLevel:
    i: int
    dim: int
    degree: int
    smooth: bool
    contains_next: bool | None = None


@dataclass
class ChainReport:
    levels: tuple[ChainLevel, ...]
    dims_descend: bool
    all_smooth: bool
    inclusions_ok: bool

    @property
    def ok(self) -> bool:
        return self.dims_descend and self.all_smooth and self.inclusions_ok


def example2_chain(F: Sequence[Polynomial], gamma: Sequence[int],
                   limits: GBLimits = DEFAULT_LIMITS) -> ChainReport:
    """Localized dual chain for B_(i,gamma), i = 1 .. n-p.

    Each level is the dual polar ideal localized away from the corner
    minor; per level the dimension, degree, and the Jacobian-criterion
    smoothness of the localized variety are reported, plus the exact
    ideal-membership inclusion of each level in the next."""
    F = list(F)
    field, n = system_ring(F)
    p = len(F)
    if not 1 <= p <= n - 1:
        raise PolarSpecError(f"need 1 <= p <= n-1, got p={p}, n={n}")
    m = corner_minor(F)
    levels: list[ChainLevel] = []
    gens_by_level: list[tuple[Polynomial, ...]] = []
    results: list[PolarIdealResult] = []
    for i in range(1, n - p + 1):
        B = example2_matrix(field, n, p, i, gamma)
        col0 = [0] * (B.rows - 1) + [1]
        spec = PolarSpec.dual(n, p, i, F, B, column0=col0)
        loc = localize_rabinowitsch(
            IdealPresentation(field, n, polar_generators(spec)), m)
        res = analyze_ideal(field, n + 1, p, loc.generators, limits)
        levels.append(ChainLevel(i=i, dim=res.dim, degree=res.degree,
                                 smooth=singular_locus_dim(res, limits)[0] < 0))
        gens_by_level.append(loc.generators)
        results.append(res)
    dims_ok = all(lv.dim in (-1, n - p - lv.i) for lv in levels)
    seen_empty = False
    for lv in levels:
        if lv.dim < 0:
            seen_empty = True
        elif seen_empty:
            dims_ok = False  # a nonempty level below an empty one
    smooth_ok = all(lv.smooth for lv in levels)
    inclusions = True
    for idx in range(len(levels) - 1):
        deeper = results[idx + 1].gb
        ok = all(normal_form(g, deeper).is_zero for g in gens_by_level[idx])
        levels[idx].contains_next = ok
        inclusions = inclusions and ok
    return ChainReport(levels=tuple(levels), dims_descend=dims_ok,
                       all_smooth=smooth_ok, inclusions_ok=inclusions)


# ------------------------------------------------------------ degree domination


@dataclass
class DegreeReport:
    """Degrees of random full-rank draws next to structured draws."""

    n: int
    p: int
    i: int
    flavor: str
    random_degrees: tuple[int, ...]
    structured_degrees: dict[str, tuple[int, ...]] = dc_field(default_factory=dict)

    @property
    def random_degrees_agree(self) -> bool:
        return len(set(self.random_degrees)) <= 1

    @property
    def generic_degree(self) -> int:
        return self.random_degrees[0]

    @property
    def dominated(self) -> bool:
        top = self.generic_degree
        return all(d <= top for ds in self.structured_degrees.values() for d in ds)

    def bezout_bound(self, d: int) -> int:
        return d ** self.n * self.p ** (self.n - self.p)

    def within_bezout(self, d: int) -> bool:
        bound = self.bezout_bound(d)
        return (all(v <= bound for v in self.random_degrees)
                and all(v <= bound for ds in self.structured_degrees.values()
                        for v in ds))


def degree_domination_check(F: Sequence[Polynomial], i: int, trials: int,
                            seed: int, flavor: str = CLASSIC,
                            limits: GBLimits = DEFAULT_LIMITS) -> DegreeReport:
    """Degrees of `trials` random draws (the generic proxy) against draws
    from the structured families; empty varieties count as degree zero."""
    if trials < 1:
        raise PolarSpecError("need at least one random trial")
    F = list(F)
    field, n = system_ring(F)
    p = len(F)
    if not 1 <= i <= n - p:
        raise PolarSpecError(f"need 1 <= i <= n-p = {n - p}, got i={i}")
    rng = random.Random(seed)
    rows = n - p - i + 1

    def polar_degree(a: ConstMatrix, column0: list[int] | None = None) -> int:
        return polar_ideal(PolarSpec(n, p, i, flavor, F, a, column0), limits).degree

    random_degs = [polar_degree(random_full_rank_matrix(rng, field, rows, n))
                   for _ in range(trials)]

    structured: dict[str, list[int]] = {"transform_rows": [], "gamma_row": []}
    s = parameter_count(n, p)
    for _ in range(STRUCTURED_DRAWS):
        z = [rng.randrange(field.q) for _ in range(s)]
        B = example1_transform(n, p, i, z, field)
        structured["transform_rows"].append(polar_degree(B))
    # the dual gamma rows carry one offset, on the last row only
    col0 = None if flavor == CLASSIC else [0] * (rows - 1) + [1]
    for _ in range(STRUCTURED_DRAWS):
        gamma = [rng.randrange(1, field.q) for _ in range(n)]
        B = example2_matrix(field, n, p, i, gamma)
        structured["gamma_row"].append(polar_degree(B, col0))

    return DegreeReport(n=n, p=p, i=i, flavor=flavor,
                        random_degrees=tuple(random_degs),
                        structured_degrees={k: tuple(v)
                                            for k, v in structured.items()})
