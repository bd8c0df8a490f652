"""Classic and dual polar varieties of a polynomial complete intersection.

Given F_1..F_p cutting out S in A^n, a full-rank constant (n-p-i+1) x n
matrix a and offsets a_{k,0}, the polar ideal adjoins to F all maximal
minors of the (n-i+1) x n stack of the Jacobian over the rows
(a_{k,1} - a_{k,0}*X_1, ..., a_{k,n} - a_{k,0}*X_n).  Both flavors are this
one construction: the classic one has zero offsets, the dual one defaults
to all ones.  The degeneracy locus one rank lower (all (n-i)-minors of the
same stack) contains every singular point of the polar variety at regular
points of S, and the Jacobian-criterion machinery below measures both.

singular_locus_dim decides the singular locus of a variety W: an empty W
has dimension -1, a zero-dimensional W is decided by an exact radical test
on its reduced basis (W is singular exactly at its non-reduced points), and
the Jacobian criterion, singular_locus_ideal, handles positive dimension
and serves as the independent oracle for the radical test in the tests.
It is the one assembly of the criterion: verify_smooth_complete_intersection
asks it about the last prefix of F.

MINOR_CAP bounds the number of Jacobian c-minors one singular-locus ideal
may ask for.  It is a module constant, not a parameter.  Polar generators
are minors of the small matrix J(F)*N (_stack_minors), so a generic
full-mode cell stays under it up to n = 7 for the classic flavor (at most
12 012 minors, at (7,3,3)) and up to n = 6 for the dual one.  Only
singular_locus_generators, the one builder of Jacobian minors, reads it,
at call time; past it MinorCapExceededError is a budget error like any
other, never a switch to the degeneracy proxy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .field import PrimeField
from .groebner import (DEFAULT_LIMITS, BudgetExceededError, GBLimits,
                       GroebnerBasis, IdealPresentation, degree, dimension,
                       is_radical_zero_dim, reduced_groebner_basis)
from .matrices import (ConstMatrix, PolyMatrix, enumerate_minors, jacobian,
                       system_ring)
from .poly import Polynomial, point_values

CLASSIC = "classic"
DUAL = "dual"


class PolarSpecError(ValueError):
    """A polar construction precondition failed (shape, rank, flavor)."""


class PointClassificationError(ValueError):
    """The queried point is off the variety or singular on it."""


class MinorCapExceededError(BudgetExceededError):
    """The Jacobian criterion would build more than MINOR_CAP minors."""


class PolarSpec:
    """One polar-variety construction: (n, p, i, flavor, F, a, column0).

    Both flavors share one matrix format.  `a` is the (n-p-i+1) x n matrix
    of constant parts and `column0` holds the offsets a_{k,0}; row k of the
    polar stack is (a_{k,1} - a_{k,0}*X_1, ..., a_{k,n} - a_{k,0}*X_n).  The
    classic flavor is the case of zero offsets; the dual flavor defaults to
    all ones, the generic dual convention.  Offsets are reduced mod q, and a
    classic spec with a nonzero offset is rejected.
    """

    __slots__ = ("n", "p", "i", "flavor", "F", "a", "column0")

    def __init__(self, n: int, p: int, i: int, flavor: str,
                 F: Sequence[Polynomial], a: ConstMatrix,
                 column0: Sequence[int] | None = None, strict: bool = True):
        if not (1 <= p <= n - 1):
            raise PolarSpecError(f"need 1 <= p <= n-1, got p={p}, n={n}")
        if not (1 <= i <= n - p):
            raise PolarSpecError(f"need 1 <= i <= n-p, got i={i}")
        if flavor not in (CLASSIC, DUAL):
            raise PolarSpecError(f"unknown flavor {flavor!r}")
        F = tuple(F)
        if len(F) != p:
            raise PolarSpecError(f"expected {p} polynomials, got {len(F)}")
        if any(f.n != n for f in F):
            raise PolarSpecError("system ambient count differs from n")
        if any(f.field != a.field for f in F):
            raise PolarSpecError("matrix lives in a different field than the system")
        rows = n - p - i + 1
        if a.rows != rows or a.cols != n:
            raise PolarSpecError(
                f"matrix must be {rows}x{n}, got {a.rows}x{a.cols}")
        if column0 is None:
            column0 = [int(flavor == DUAL)] * rows
        column0 = tuple(c % a.field.q for c in column0)
        if len(column0) != rows:
            raise PolarSpecError("column 0 must have one entry per row")
        if flavor == CLASSIC and any(column0):
            raise PolarSpecError("the classic flavor forbids a nonzero column 0")
        # strict=False admits deliberately degenerate matrices (e.g. the dual
        # polar variety of a circle about its own center)
        if strict and a.rank() != rows:
            raise PolarSpecError("the matrix must have full rank")
        self.n = n
        self.p = p
        self.i = i
        self.flavor = flavor
        self.F = F
        self.a = a
        self.column0 = column0

    @classmethod
    def classic(cls, n: int, p: int, i: int, F: Sequence[Polynomial],
                a: ConstMatrix, strict: bool = True) -> "PolarSpec":
        return cls(n, p, i, CLASSIC, F, a, strict=strict)

    @classmethod
    def dual(cls, n: int, p: int, i: int, F: Sequence[Polynomial],
             a: ConstMatrix, column0: Sequence[int] | None = None,
             strict: bool = True) -> "PolarSpec":
        return cls(n, p, i, DUAL, F, a, column0, strict)

    @property
    def field(self) -> PrimeField:
        return self.a.field

    def __repr__(self) -> str:
        return (f"PolarSpec(n={self.n}, p={self.p}, i={self.i}, "
                f"flavor={self.flavor!r})")


@dataclass
class PolarIdealResult:
    """Structured outcome of one polar-ideal computation."""

    ideal: IdealPresentation
    gb: GroebnerBasis
    dim: int
    codim_in_S: int | None
    degree: int
    n: int
    p: int


def polar_stack(spec: PolarSpec) -> PolyMatrix:
    """The (n-i+1) x n polynomial matrix [J(F); a_{k,l} - a_{k,0}*X_l]."""
    field, n = spec.field, spec.n
    bottom = [[Polynomial.constant(field, n, a_kl)
               - Polynomial.variable(field, n, l).scale(a0)
               for l, a_kl in enumerate(row, start=1)]
              for a0, row in zip(spec.column0, spec.a.entries)]
    return jacobian(spec.F).stack(PolyMatrix(bottom))


def _stack_minors(spec: PolarSpec, t: int) -> list[Polynomial]:
    """Generators of the ideal of the t-minors of polar_stack(spec): the
    (t - rho)-minors of M = [J(F); a_r - c_r*X]*N, with I_0 = (1).

    Row r is the first bottom row with a nonzero offset c_r; the classic
    flavor has none.  c_r times any other bottom row k minus c_k times row
    r is the constant row c_r*a_k - c_k*a_r (classic: a); the columns of N
    span the kernel of these rows and rho is their rank.  Invertible row
    and column operations take the stack to M (+) I_rho, and they keep
    every ideal of minors (Fitting-ideal invariance), so I_t(stack) =
    I_{t-rho}(M)."""
    field, n, p = spec.field, spec.n, spec.p
    stack, c, a = polar_stack(spec).entries, spec.column0, spec.a.entries
    r = next((k for k, ck in enumerate(c) if ck), None)
    top, const = stack[:p], a
    if r is not None:
        top += (stack[p + r],)
        const = [[c[r] * x - ck * y for x, y in zip(a[k], a[r])]
                 for k, ck in enumerate(c) if k != r]
    # the zero row stands in for a dual spec whose only row is row r
    N = ConstMatrix(field, const or [[0] * n]).nullspace_basis()
    s = t - (n - len(N))
    if s <= 0 or s > min(len(top), len(N)):
        return [Polynomial.constant(field, n, 1)] if s <= 0 else []
    M = PolyMatrix([[sum((f.scale(x) for f, x in zip(row, v)),
                         Polynomial.zero(field, n)) for v in N] for row in top])
    return list(enumerate_minors(M, s))


def polar_generators(spec: PolarSpec) -> list[Polynomial]:
    """F joined with generators of the (n-i+1)-minors of the polar stack."""
    return list(spec.F) + _stack_minors(spec, spec.n - spec.i + 1)


def analyze_ideal(field: PrimeField, n: int, p: int,
                  generators: Sequence[Polynomial],
                  limits: GBLimits = DEFAULT_LIMITS) -> PolarIdealResult:
    """Groebner basis plus dimension/degree bookkeeping for one ideal."""
    ideal = IdealPresentation(field, n, generators)
    gb = reduced_groebner_basis(ideal, limits)
    dim = dimension(gb)
    deg = degree(gb)
    codim = (n - p) - dim if dim >= 0 else None
    return PolarIdealResult(ideal=ideal, gb=gb, dim=dim, codim_in_S=codim,
                            degree=deg, n=n, p=p)


def polar_ideal(spec: PolarSpec, limits: GBLimits = DEFAULT_LIMITS) -> PolarIdealResult:
    return analyze_ideal(spec.field, spec.n, spec.p, polar_generators(spec), limits)


def delta_ideal(spec: PolarSpec, limits: GBLimits = DEFAULT_LIMITS) -> PolarIdealResult:
    """The rank-degeneracy ideal: F joined with generators of the
    (n-i)-minors of the polar stack, where the stack drops rank by two."""
    gens = list(spec.F) + _stack_minors(spec, spec.n - spec.i)
    return analyze_ideal(spec.field, spec.n, spec.p, gens, limits)


MINOR_CAP = 20_000


def singular_locus_generators(generators: Sequence[Polynomial],
                              c: int) -> list[Polynomial]:
    """Jacobian-criterion generators: the ideal plus all c-minors of its
    Jacobian; valid for any generating set of an equidimensional radical
    ideal of codimension c.  Raises MinorCapExceededError, before building
    any minor, when the c-minors number more than MINOR_CAP."""
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        raise PolarSpecError("singular locus of the zero ideal is undefined")
    n = gens[0].n
    if c < 1 or c > min(len(gens), n):
        raise PolarSpecError(
            f"codimension {c} incompatible with {len(gens)} generators in {n} vars")
    if comb(len(gens), c) * comb(n, c) > MINOR_CAP:
        raise MinorCapExceededError("Jacobian minors", MINOR_CAP)
    return gens + list(enumerate_minors(jacobian(gens), c))


def singular_locus_ideal(result: PolarIdealResult,
                         limits: GBLimits = DEFAULT_LIMITS) -> PolarIdealResult:
    """Singular locus of the variety behind `result` via the Jacobian
    criterion at its codimension n - dim."""
    if result.dim < 0:
        raise PolarSpecError("singular locus of an empty variety is undefined")
    gens = singular_locus_generators(result.ideal.generators,
                                     result.n - result.dim)
    # seeding the presentation with the reduced basis leaves the ideal
    # unchanged and lets the minors reduce against interreduced elements
    seeded = list(result.gb.basis) + gens
    return analyze_ideal(result.ideal.field, result.n, result.p, seeded, limits)


def singular_locus_dim(result: PolarIdealResult,
                       limits: GBLimits = DEFAULT_LIMITS) -> tuple[int, str]:
    """Dimension of the singular locus of the variety behind `result`, and
    the route that decided it: "empty", "radical" or "jacobian".

    An empty variety has an empty singular locus (-1).  A zero-dimensional
    variety is singular exactly at its non-reduced points, so it is decided
    by the exact radical test on the reduced basis (-1 when radical, 0
    otherwise); it builds no minors, so the minor cap does not apply.
    Positive dimensions go through singular_locus_ideal, which raises
    MinorCapExceededError past MINOR_CAP."""
    if result.dim < 0:
        return -1, "empty"
    if result.dim == 0:
        return (-1 if is_radical_zero_dim(result.gb, limits) else 0), "radical"
    return singular_locus_ideal(result, limits).dim, "jacobian"


@dataclass
class SmoothnessReport:
    """Outcome of the regular-sequence and smoothness verification."""

    regular_sequence_ok: bool
    smooth_ok: bool
    prefix_dims: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.regular_sequence_ok and self.smooth_ok


def verify_smooth_complete_intersection(F: Sequence[Polynomial],
                                        limits: GBLimits = DEFAULT_LIMITS
                                        ) -> SmoothnessReport:
    """Check that F is a regular sequence (each prefix cuts dimension by one)
    whose zero set carries no singular point.

    A regular sequence has no zero member, at most n members and
    codimension p, so the Jacobian criterion of its last prefix is F plus
    the p-minors of J(F);
    C(n, p) stays under the minor cap for n <= 16.  It goes through
    singular_locus_ideal, not singular_locus_dim, so p = n is decided by
    the same criterion and not by the radical test."""
    F = list(F)
    if not F:
        raise PolarSpecError("empty system")
    field, n = F[0].field, F[0].n
    prefixes = [analyze_ideal(field, n, k, F[:k], limits)
                for k in range(1, len(F) + 1)]
    prefix_dims = tuple(r.dim for r in prefixes)
    regular = (len(F) <= n
               and prefix_dims == tuple(range(n - 1, n - len(F) - 1, -1)))
    smooth = regular and singular_locus_ideal(prefixes[-1], limits).dim == -1
    return SmoothnessReport(regular_sequence_ok=regular, smooth_ok=smooth,
                            prefix_dims=prefix_dims)


def thom_boardman_class(F: Sequence[Polynomial], a: ConstMatrix, x) -> int:
    """Kernel dimension j of the projection differential at a regular point:
    j = n - rank of the evaluated stack [J(F)(x); a], whose first p rows
    have rank p exactly when x is regular.  Raises PointClassificationError
    when x is off V(F) or singular on it.

    The row reduction of a is kept on a, so only the p gradient rows are
    reduced, against it: rank [J(x); a] = rank a + r with r the rank of
    J(x) modulo the row space of a.  As r <= rank J(x) <= p, J(x) is ranked
    on its own only when r < p."""
    if not F:
        raise PolarSpecError("empty system")
    field, n = system_ring(F)
    if a.cols != n:
        raise PolarSpecError("matrix must have one column per variable")
    if a.field != field:
        raise PolarSpecError("matrix lives in a different field than the system")
    rows = point_values(F, x, gradient=True)
    if any(row[0] for row in rows):
        raise PointClassificationError("point does not lie on the variety")
    grads = [row[1:] for row in rows]
    r = a.quotient_rank(grads)
    if r < len(F) and ConstMatrix(field, grads).rank() != len(F):
        raise PointClassificationError("point is singular on the variety")
    return n - a.rank() - r


def incidence_fiber_dim(F: Sequence[Polynomial], a: ConstMatrix, x, i: int) -> int:
    """Projective dimension of the multiplier fiber over x; -1 when empty.

    For 1 <= i <= n - p and an (n-p-i+1) x n matrix a this equals
    thom_boardman_class(x) - i: the fiber solves J(x)^T lambda^T +
    a^T theta^T = 0 projectively, and the solution space has dimension
    (n - i + 1) - rank([J(x)^T | a^T]) - 1.  Any other i or row count, and
    an empty F, raise PolarSpecError.
    """
    PolarSpec.classic(a.cols, len(F), i, F, a, strict=False)  # shape checks
    j = thom_boardman_class(F, a, x)
    return j - i
