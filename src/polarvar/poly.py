"""Sparse multivariate polynomials over a prime field.

Monomials are exponent tuples of length n for variables x1 > x2 > ... > xn.
The one monomial order used everywhere is degree reverse lexicographic
(degrevlex): higher total degree wins, ties are broken so that among equal
degrees the monomial whose exponent vector has the *smaller* entry at the
rightmost differing slot is larger.  Terms are stored as a dict from exponent
tuple to a nonzero canonical residue; the zero polynomial has no terms.
"""

from __future__ import annotations

from operator import add
from typing import Iterator, Sequence

from .field import PrimeField

Monomial = tuple[int, ...]


def drl_key(m: Monomial):
    """Sort key realizing degrevlex; max(key) picks the leading monomial."""
    return (sum(m), tuple(-e for e in reversed(m)))


def add_multiple(acc: dict, terms: dict, c: int, q: int,
                 shift: Monomial | None = None) -> dict:
    """acc += c * x^shift * terms over F_q, in place; returns acc.

    The one sparse multiply-accumulate of the package.  Keys whose
    coefficient cancels to zero are deleted.  With shift=None the keys of
    terms are taken as they are, so they may be any hashables."""
    c %= q
    if not c:
        return acc
    for m, v in terms.items():
        if shift is not None:
            m = tuple(map(add, m, shift))
        s = (acc.get(m, 0) + c * v) % q
        if s:
            acc[m] = s
        else:
            acc.pop(m, None)
    return acc


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b, i.e. every exponent of a is <= that of b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    """Immutable sparse polynomial over a PrimeField in n variables."""

    __slots__ = ("field", "n", "terms", "_lead", "_plan")

    def __init__(self, field: PrimeField, n: int, terms: dict[Monomial, int] | None = None,
                 _clean: bool = False):
        if n < 0:
            raise ValueError("variable count must be non-negative")
        self.field = field
        self.n = n
        if terms is None:
            terms = {}
        if not _clean:
            q = field.q
            cleaned: dict[Monomial, int] = {}
            for m, c in terms.items():
                if len(m) != n or any(e < 0 for e in m):
                    raise ValueError(f"bad monomial {m} for ambient n={n}")
                c %= q
                if c:
                    cleaned[m] = c
            terms = cleaned
        self.terms = terms
        self._lead: Monomial | None = None
        self._plan: list | None = None

    # ---------------------------------------------------------------- builders

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "Polynomial":
        return cls(field, n, {}, _clean=True)

    @classmethod
    def constant(cls, field: PrimeField, n: int, c: int) -> "Polynomial":
        c %= field.q
        return cls(field, n, {(0,) * n: c} if c else {}, _clean=True)

    @classmethod
    def variable(cls, field: PrimeField, n: int, j: int) -> "Polynomial":
        """The variable x_j, 1-indexed."""
        if not 1 <= j <= n:
            raise ValueError(f"variable index {j} out of range 1..{n}")
        m = tuple(1 if k == j - 1 else 0 for k in range(n))
        return cls(field, n, {m: 1}, _clean=True)

    # ----------------------------------------------------------------- queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        if self._lead is None:
            self._lead = max(self.terms, key=drl_key)
        return self._lead

    def leading_coefficient(self) -> int:
        return self.terms[self.leading_monomial()]

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in strictly decreasing degrevlex order."""
        return sorted(self.terms.items(), key=lambda t: drl_key(t[0]), reverse=True)

    def coefficient(self, m: Monomial) -> int:
        return self.terms.get(tuple(m), 0)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    # -------------------------------------------------------------- arithmetic

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.field != other.field or self.n != other.n:
            raise ValueError("polynomials live in different ambient rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return Polynomial(self.field, self.n,
                          add_multiple(dict(self.terms), other.terms, 1, self.field.q),
                          _clean=True)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return Polynomial(self.field, self.n,
                          add_multiple(dict(self.terms), other.terms, -1, self.field.q),
                          _clean=True)

    def __neg__(self) -> "Polynomial":
        q = self.field.q
        return Polynomial(self.field, self.n, {m: q - c for m, c in self.terms.items()},
                          _clean=True)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.field.q
        acc: dict[Monomial, int] = {}
        if len(self.terms) > len(other.terms):
            left, right = other, self
        else:
            left, right = self, other
        for m, c in left.terms.items():
            add_multiple(acc, right.terms, c, q, m)
        return Polynomial(self.field, self.n, acc, _clean=True)

    def scale(self, c: int) -> "Polynomial":
        q = self.field.q
        c %= q
        if c == 0:
            return Polynomial.zero(self.field, self.n)
        return Polynomial(self.field, self.n,
                          {m: x * c % q for m, x in self.terms.items()}, _clean=True)

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(self.field.inv(self.leading_coefficient()))

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self.field, self.n, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def extend(self, n_new: int) -> "Polynomial":
        """Reinterpret in a larger ring by appending fresh trailing variables."""
        if n_new < self.n:
            raise ValueError("cannot shrink ambient ring")
        pad = (0,) * (n_new - self.n)
        return Polynomial(self.field, n_new,
                          {m + pad: c for m, c in self.terms.items()}, _clean=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.field.q, self.n, frozenset(self.terms.items())))

    # ------------------------------------------------------------------- print

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        q = self.field.q
        parts: list[str] = []
        for m, c in self.sorted_terms():
            # balanced sign: residues above q/2 print as subtraction
            if c > q // 2:
                sign, mag = "-", q - c
            else:
                sign, mag = "+", c
            factors = [f"x{j + 1}" + (f"^{e}" if e > 1 else "")
                       for j, e in enumerate(m) if e]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self}, n={self.n}, q={self.field.q})"


class Point:
    """A point of the affine space F_q^n, stored as canonical residues."""

    __slots__ = ("field", "coordinates")

    def __init__(self, field: PrimeField, coordinates: Sequence[int]):
        self.field = field
        self.coordinates = tuple(v % field.q for v in coordinates)

    def __len__(self) -> int:
        return len(self.coordinates)

    def __getitem__(self, j: int) -> int:
        return self.coordinates[j]

    def __iter__(self) -> Iterator[int]:
        return iter(self.coordinates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.field == other.field and self.coordinates == other.coordinates

    def __hash__(self) -> int:
        return hash((self.field.q, self.coordinates))

    def __repr__(self) -> str:
        return f"Point{self.coordinates}"


def as_coordinates(field: PrimeField, x: "Point | Sequence[int]") -> tuple[int, ...]:
    if isinstance(x, Point):
        if x.field != field:
            raise ValueError("point lives in a different field")
        return x.coordinates
    return tuple(v % field.q for v in x)


def differentiate(f: Polynomial, j: int) -> Polynomial:
    """Formal partial derivative with respect to x_j (1-indexed)."""
    if not 1 <= j <= f.n:
        raise ValueError(f"variable index {j} out of range 1..{f.n}")
    q = f.field.q
    k = j - 1
    acc: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        e = m[k]
        if e == 0:
            continue
        c2 = c * e % q
        if not c2:
            continue
        m2 = m[:k] + (e - 1,) + m[k + 1:]
        acc[m2] = c2
    return Polynomial(f.field, f.n, acc, _clean=True)


def _point_plan(f: Polynomial, gradient: bool) -> list:
    """f's point plan, built on first use and kept on f, which is immutable:
    [terms, tops, gradients].  terms holds (c, [(j, e), ...]) over the
    nonzero exponents of each term, tops the largest exponent of each
    variable, and gradients, built only once asked for, the terms of each
    partial df/dx_(j+1) in the same form: c * x_j^e gives c * e * x_j^(e-1)."""
    plan = f._plan
    if plan is None:
        terms = [(c, [(j, e) for j, e in enumerate(m) if e]) for m, c in f.terms.items()]
        plan = f._plan = [terms, [max(col) for col in zip(*f.terms)] or [0] * f.n, None]
    if gradient and plan[2] is None:
        q = f.field.q
        grads: list[list] = [[] for _ in range(f.n)]
        for c, support in plan[0]:
            for j, e in support:
                if c * e % q:
                    rest = [(k, ek - (k == j)) for k, ek in support if k != j or ek > 1]
                    grads[j].append((c * e % q, rest))
        plan[2] = grads
    return plan


def point_values(F: Sequence[Polynomial], x: "Point | Sequence[int]",
                 value: bool = True, gradient: bool = False) -> list[list[int]]:
    """Row k holds F_k(x) when value is set, then the gradient of F_k at x
    when gradient is set, all as canonical residues.  The polynomials share
    one ring; each runs its cached point plan against one table of
    coordinate powers, sized by the largest exponents, with one % q per
    value."""
    field, n = F[0].field, F[0].n
    coords = as_coordinates(field, x)
    if len(coords) != n:
        raise ValueError(f"point has {len(coords)} coordinates, ambient n={n}")
    q = field.q
    plans = [_point_plan(f, gradient) for f in F]
    powers = []
    for v, top in zip(coords, map(max, zip(*(plan[1] for plan in plans)))):
        pv = [1]
        for _ in range(top):
            pv.append(pv[-1] * v % q)
        powers.append(pv)
    rows = []
    for terms, _, grads in plans:
        row = []
        for part in ([terms] if value else []) + (grads if gradient else []):
            total = 0
            for c, support in part:
                for j, e in support:
                    c *= powers[j][e]
                total += c
            row.append(total % q)
        rows.append(row)
    return rows


def evaluate(f: Polynomial, x: "Point | Sequence[int]") -> int:
    """Value of f at x as a canonical residue."""
    return point_values([f], x)[0][0]
