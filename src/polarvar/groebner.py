"""Reduced Groebner bases and staircase analytics over a prime field.

The engine is a Buchberger loop with Gebauer-Moller pair elimination and
sugar-based selection, always in degrevlex.  Resource limits (pair count,
basis size, element degree) turn runaway computations into explicit
BudgetExceededError, never silently truncated output.

Inside the engine a monomial is one integer,
K(m) = deg(m) << (B*n) | sum_j (M - e_j) << (B*j) with M = 2^(B-1) - 1:
a B-bit field per variable whose top bit is a guard, and the total degree
above them all.  Integer order is then exactly degrevlex, a product is
K(a) + K(b) - K(1), and a | b is one subtraction tested on the guard bits;
lcms and the coprimality criterion unpack the fields, once per pair.  B is
read off the input: a field holds twice the larger of GBLimits.max_degree
and the largest input degree (for normal_form, the degree of f and of G),
because S-polynomial terms reach the degree of an lcm.
reduced_groebner_basis and normal_form pack their input on entry and
unpack on exit, so every Polynomial and GroebnerBasis keeps tuple keys.

Dimension is read combinatorially off the leading-term staircase (largest
variable subset meeting no leading support), degree from the Hilbert-series
numerator of the leading-term ideal; the two dimension routes are computed
independently and cross-checked.  For a zero-dimensional ideal the
standard monomials are enumerated by a staircase walk, and radicality is
decided exactly by normal-form linear algebra on them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import attrgetter, mul
from typing import Iterable, Sequence

from .field import PrimeField
from .matrices import ConstMatrix
from .poly import (Monomial, Polynomial, add_multiple, drl_key, monomial_divides,
                   monomial_lcm)


class InternalError(RuntimeError):
    """An internal invariant failed: a defect of the package, not bad input
    and not a resource budget."""


class BudgetExceededError(RuntimeError):
    """A configured resource limit was hit before the computation finished."""

    def __init__(self, kind: str, limit: int):
        super().__init__(f"groebner budget exceeded: {kind} limit {limit}")
        self.kind = kind
        self.limit = limit


@dataclass(frozen=True)
class GBLimits:
    """Resource caps for one basis computation."""

    max_pairs: int = 200_000
    max_basis: int = 3_000
    max_degree: int = 60

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 1:
                raise ValueError(f"GBLimits.{name} must be at least 1, got {value}")


DEFAULT_LIMITS = GBLimits()


class IdealPresentation:
    """A generator list: nonzero, monic, deduplicated, order preserved."""

    __slots__ = ("field", "n", "generators")

    def __init__(self, field: PrimeField, n: int, generators: Iterable[Polynomial]):
        seen: set = set()
        gens: list[Polynomial] = []
        for g in generators:
            if g.field != field or g.n != n:
                raise ValueError("generator lives in a different ambient ring")
            if g.is_zero:
                continue
            g = g.monic()
            key = frozenset(g.terms.items())
            if key not in seen:
                seen.add(key)
                gens.append(g)
        self.field = field
        self.n = n
        self.generators = tuple(gens)

    def __repr__(self) -> str:
        return f"IdealPresentation({len(self.generators)} gens, n={self.n})"


class GroebnerBasis:
    """A reduced Groebner basis w.r.t. degrevlex; canonical for its ideal."""

    __slots__ = ("field", "n", "basis", "leading_monomials")

    def __init__(self, field: PrimeField, n: int, basis: Sequence[Polynomial]):
        self.field = field
        self.n = n
        self.basis = tuple(basis)
        self.leading_monomials = tuple(g.leading_monomial() for g in self.basis)

    @property
    def contains_one(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero

    def __repr__(self) -> str:
        return f"GroebnerBasis({len(self.basis)} elements, n={self.n})"


# --------------------------------------------------------------------- engine


class _Packing:
    """Monomials of one ring as the integer keys of the module docstring,
    with the least field width B whose largest exponent M is >= 2 * degree."""

    __slots__ = ("shift", "limit", "one", "guard", "_fields", "_weights")

    def __init__(self, n: int, degree: int):
        width = (2 * max(degree, 0)).bit_length() + 1
        self.shift = width * n  # the total degree sits above the fields
        self.limit = (1 << (width - 1)) - 1
        self._fields = tuple(width * j for j in range(n))
        # K(1) is M in every field, so it also masks the degree off a key
        self.one = sum(self.limit << s for s in self._fields)
        self.guard = sum(1 << (s + width - 1) for s in self._fields)
        self._weights = tuple((1 << self.shift) - (1 << s) for s in self._fields)

    def pack(self, m: Monomial) -> int:
        return self.one + sum(map(mul, m, self._weights))

    def unpack(self, k: int) -> Monomial:
        limit = self.limit
        return tuple(limit - (k >> s & limit) for s in self._fields)

    def divisor(self, a: int) -> int:
        """The guarded fields of a, to test a | b by `divides`."""
        return (a & self.one) | self.guard

    def divides(self, a: int, b: int) -> bool:
        guard = self.guard
        return (self.divisor(a) - (b & self.one)) & guard == guard

    def degree(self, k: int) -> int:
        return k >> self.shift

    def pack_terms(self, terms: dict) -> dict:
        return {self.pack(m): c for m, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        return {self.unpack(m): c for m, c in terms.items()}


class _Elem:
    """A monic basis element in packed form, with what the reducer and the
    pair update read off its leading monomial precomputed."""

    __slots__ = ("terms", "tail", "lm", "div", "deg", "exps", "sugar", "redundant")

    def __init__(self, terms: dict, lm: int, sugar: int, pk: _Packing):
        self.terms = terms
        self.tail = tuple(t for t in terms.items() if t[0] != lm)
        self.lm = lm
        self.div = pk.divisor(lm)
        self.deg = pk.degree(lm)
        self.exps = pk.unpack(lm)
        self.sugar = sugar
        self.redundant = False


def _reduce_full(work: dict, elems: list[_Elem], q: int, sugar: int,
                 pk: _Packing) -> tuple[dict, int]:
    """Full division remainder: no remainder term divisible by any live lead.

    The one multiply-accumulate loop not routed through poly.add_multiple:
    every key it creates must also be pushed onto the heap of negated keys,
    and a kernel that reported new keys would have to branch on which
    caller it serves.  A reducer led by L maps its term b to b + K(m) - K(L)."""
    work = dict(work)
    get, pop = work.get, work.pop
    heap = [-m for m in work]
    heapq.heapify(heap)
    push = heapq.heappush
    remainder: dict = {}
    mask, guard, shift = pk.one, pk.guard, pk.shift
    while heap:
        m = -heapq.heappop(heap)
        c = pop(m, 0)
        if not c:
            continue
        low = m & mask
        for e in elems:
            if (e.div - low) & guard == guard:
                break
        else:
            remainder[m] = c
            continue
        delta = m - e.lm
        sugar = max(sugar, e.sugar + (m >> shift) - e.deg)
        c = q - c
        for bm, bc in e.tail:
            key = bm + delta
            prev = get(key, 0)
            s = (prev + c * bc) % q
            if s:
                if not prev:
                    push(heap, -key)
                work[key] = s
            elif prev:
                del work[key]
    return remainder, sugar


def _monic(terms: dict, q: int) -> tuple[dict, int]:
    lm = max(terms)
    lc = terms[lm]
    if lc != 1:
        inv = pow(lc, -1, q)
        terms = {m: c * inv % q for m, c in terms.items()}
    return terms, lm


def _update_pairs(elems: list[_Elem], pairs: dict, pair_heap: list, t: int,
                  pk: _Packing) -> None:
    """Gebauer-Moller update of the pair set after appending element t."""
    h = elems[t]
    mask, guard = pk.one, pk.guard

    lcms: dict[int, int] = {}

    def lcm(i: int) -> int:
        if i not in lcms:
            lcms[i] = pk.pack(monomial_lcm(elems[i].exps, h.exps))
        return lcms[i]

    # candidate new pairs against live elements
    cand = [i for i in range(t) if not elems[i].redundant]
    divs = {i: pk.divisor(lcm(i)) for i in cand}

    # criteria M and F: keep one representative among divisible/equal lcms
    kept: list[int] = []
    dropped: set[int] = set()
    for i in cand:
        if i in dropped:
            continue
        li = lcms[i]
        low = li & mask
        keep = True
        for j in cand:
            if j == i or j in dropped:
                continue
            if lcms[j] == li:
                # duplicate lcm: the smaller index survives
                if j < i:
                    keep = False
                    break
            elif (divs[j] - low) & guard == guard:
                keep = False
                break
        if keep:
            kept.append(i)
        else:
            dropped.add(i)
    # criterion B on old pairs
    for (i, j) in list(pairs):
        lij = pairs[(i, j)][0]
        if ((h.div - (lij & mask)) & guard == guard
                and lcm(i) != lij and lcm(j) != lij):
            del pairs[(i, j)]
    # Buchberger coprimality criterion on the survivors
    for i in kept:
        e = elems[i]
        if all(a == 0 or b == 0 for a, b in zip(e.exps, h.exps)):
            continue
        li = lcms[i]
        deg = pk.degree(li)
        sugar = max(e.sugar + deg - e.deg, h.sugar + deg - h.deg)
        pairs[(i, t)] = (li, sugar)
        heapq.heappush(pair_heap, (sugar, li, i, t))
    # newly dominated leads form no further pairs
    for i in range(t):
        if not elems[i].redundant and pk.divides(h.lm, elems[i].lm):
            elems[i].redundant = True


def reduced_groebner_basis(I: IdealPresentation,
                           limits: GBLimits = DEFAULT_LIMITS) -> GroebnerBasis:
    """The reduced degrevlex Groebner basis of the ideal presented by I.

    The generators are packed on entry, the whole computation runs on
    packed keys, and the reduced basis is unpacked on exit."""
    field, n = I.field, I.n
    q = field.q
    top = max((g.total_degree() for g in I.generators), default=0)
    pk = _Packing(n, max(limits.max_degree, top))
    elems: list[_Elem] = []
    pairs: dict = {}
    pair_heap: list = []

    def add_element(terms: dict, sugar: int) -> bool:
        """Returns True when the unit ideal was detected."""
        terms, lm = _monic(terms, q)
        if pk.degree(lm) == 0:
            return True
        if len(elems) >= limits.max_basis:
            raise BudgetExceededError("basis size", limits.max_basis)
        elems.append(_Elem(terms, lm, sugar, pk))
        _update_pairs(elems, pairs, pair_heap, len(elems) - 1, pk)
        return False

    unit = False
    for g in I.generators:
        if unit:
            break
        rem, sugar = _reduce_full(pk.pack_terms(g.terms),
                                  [e for e in elems if not e.redundant],
                                  q, g.total_degree(), pk)
        if rem:
            unit = add_element(rem, sugar)

    processed = 0
    while pair_heap and not unit:
        sugar, lij, i, j = heapq.heappop(pair_heap)
        if pairs.pop((i, j), None) is None:
            continue
        processed += 1
        if processed > limits.max_pairs:
            raise BudgetExceededError("pair count", limits.max_pairs)
        fi, fj = elems[i], elems[j]
        # S-polynomial of two monic elements: leading terms cancel exactly
        di, dj = lij - fi.lm, lij - fj.lm
        spoly = {m + di: c for m, c in fi.tail}
        add_multiple(spoly, {m + dj: c for m, c in fj.tail}, -1, q)
        if not spoly:
            continue
        live = [e for e in elems if not e.redundant]
        rem, rsugar = _reduce_full(spoly, live, q, sugar, pk)
        if not rem:
            continue
        if pk.degree(max(rem)) > limits.max_degree:
            raise BudgetExceededError("element degree", limits.max_degree)
        unit = add_element(rem, rsugar)

    if unit:
        return GroebnerBasis(field, n, [Polynomial.constant(field, n, 1)])

    # minimalize: keep leads not divisible by another kept lead
    live = [e for e in elems if not e.redundant]
    kept = sorted((e for e in live
                   if not any(o is not e and pk.divides(o.lm, e.lm) for o in live)),
                  key=attrgetter("lm"))
    # tail-interreduce: full normal form of each element against the others;
    # no other kept lead divides e.lm, so the remainder keeps it, monic
    reduced: list[Polynomial] = []
    for e in kept:
        rem, _ = _reduce_full(e.terms, [o for o in kept if o is not e], q, e.sugar, pk)
        reduced.append(Polynomial(field, n, pk.unpack_terms(rem), _clean=True))
    return GroebnerBasis(field, n, reduced)


def _packed_basis(G: GroebnerBasis, degree: int) -> tuple[_Packing, list[_Elem]]:
    """G packed wide enough for G and for polynomials up to `degree`."""
    pk = _Packing(G.n, max([degree, *(g.total_degree() for g in G.basis)]))
    return pk, [_Elem(pk.pack_terms(g.terms), pk.pack(lm), 0, pk)
                for g, lm in zip(G.basis, G.leading_monomials)]


def normal_form(f: Polynomial, G: GroebnerBasis) -> Polynomial:
    """Remainder of f modulo G; zero exactly when f lies in the ideal."""
    if f.field != G.field or f.n != G.n:
        raise ValueError("polynomial and basis live in different ambient rings")
    if f.is_zero:
        return f
    pk, elems = _packed_basis(G, f.total_degree())
    rem, _ = _reduce_full(pk.pack_terms(f.terms), elems, f.field.q, 0, pk)
    return Polynomial(f.field, f.n, pk.unpack_terms(rem), _clean=True)


# ------------------------------------------------------------------ staircase


def dimension(G: GroebnerBasis) -> int:
    """Krull dimension of the variety; -1 exactly for the unit ideal."""
    if G.contains_one:
        return -1
    supports = [frozenset(j for j, e in enumerate(lm) if e)
                for lm in G.leading_monomials]
    n = G.n
    if not supports:
        return n
    involved = sorted(set().union(*supports))
    free = n - len(involved)
    for k in range(len(involved), -1, -1):
        for U in combinations(involved, k):
            Uset = set(U)
            if all(not s <= Uset for s in supports):
                return free + k
    return free  # unreachable: k = 0 always succeeds for a proper ideal


# Hilbert numerators of monomial ideals kept, the least recently used
# dropped past the bound
HILBERT_MEMO_SIZE = 4096


def hilbert_numerator(lms: Sequence[Monomial], n: int) -> list[int]:
    """Numerator coefficients of the Hilbert series of R/(lms) over (1-t)^n."""
    gens = _minimalize_monomials(lms)
    if any(sum(m) == 0 for m in gens):
        return [0]
    return list(_hilbert_rec(tuple(sorted(gens))))


def _minimalize_monomials(lms: Iterable[Monomial]) -> list[Monomial]:
    ms = sorted(set(lms), key=lambda m: (sum(m), m))
    out: list[Monomial] = []
    for m in ms:
        if not any(monomial_divides(g, m) for g in out):
            out.append(m)
    return out


def _poly_mul_int(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add_int(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


@lru_cache(maxsize=HILBERT_MEMO_SIZE)
def _hilbert_rec(gens: tuple[Monomial, ...]) -> tuple[int, ...]:
    if not gens:
        return (1,)
    mixed = [m for m in gens if sum(1 for e in m if e) > 1]
    if not mixed:
        # pairwise-coprime pure powers: numerator is the product of 1 - t^a
        out = [1]
        for m in gens:
            a = sum(m)
            factor = [1] + [0] * (a - 1) + [-1]
            out = _poly_mul_int(out, factor)
        return tuple(out)
    # pivot on the variable hitting the most generators
    counts: dict[int, int] = {}
    for m in mixed:
        for j, e in enumerate(m):
            if e:
                counts[j] = counts.get(j, 0) + 1
    j = max(counts, key=lambda k: (counts[k], -k))
    plus: list[Monomial] = [m for m in gens if m[j] == 0]
    pivot = tuple(1 if k == j else 0 for k in range(len(gens[0])))
    plus.append(pivot)
    quot = [m[:j] + (m[j] - 1,) + m[j + 1:] if m[j] else m for m in gens]
    n_plus = _hilbert_rec(tuple(sorted(_minimalize_monomials(plus))))
    n_quot = _hilbert_rec(tuple(sorted(_minimalize_monomials(quot))))
    shifted = [0] + list(n_quot)
    return tuple(_poly_add_int(n_plus, shifted))


def degree(G: GroebnerBasis) -> int:
    """Geometric degree read off the leading-term ideal; empty set has 0."""
    if G.contains_one:
        return 0
    num = hilbert_numerator(G.leading_monomials, G.n)
    strips = 0
    while sum(num) == 0:
        # exact division by (1 - t): running prefix sums
        out = []
        acc = 0
        for c in num[:-1]:
            acc += c
            out.append(acc)
        num = out if out else [0]
        strips += 1
        if not any(num):
            break
    dim_hilbert = G.n - strips
    combinatorial = dimension(G)
    if dim_hilbert != combinatorial:
        raise InternalError(
            f"staircase dimension mismatch: hilbert {dim_hilbert} vs "
            f"combinatorial {combinatorial}")
    return sum(num)


def _bump(m: Monomial, j: int) -> Monomial:
    """m times x_(j+1)."""
    return m[:j] + (m[j] + 1,) + m[j + 1:]


def standard_monomials(G: GroebnerBasis, cap: int = 10**6) -> list[Monomial]:
    """Monomials outside the leading-term ideal of a finite staircase, in
    increasing degrevlex order; empty for the unit ideal.

    A staircase walk from 1: each standard monomial grows only in variables
    at or after its last nonzero exponent, so every monomial is reached
    once, and a child is kept when no leading monomial divides it (divisors
    of standard monomials are standard, so no parent is ever missed).
    More than `cap` of them raises BudgetExceededError."""
    lms = G.leading_monomials
    n = G.n
    if any(not any(m) for m in lms):
        return []
    for j in range(n):
        if not any(m[j] and sum(m) == m[j] for m in lms):
            raise ValueError("staircase is infinite: no pure power in variable "
                             f"x{j + 1}")
    one = (0,) * n
    out = [one]
    level = [(one, 0)]
    while level:
        grown = []
        for m, first in level:
            for j in range(first, n):
                c = _bump(m, j)
                if not any(monomial_divides(g, c) for g in lms):
                    grown.append((c, j))
        out.extend(c for c, _ in grown)
        if len(out) > cap:
            raise BudgetExceededError("standard monomials", cap)
        level = grown
    out.sort(key=drl_key)
    return out


# ------------------------------------------------------------- radical test


def _upoly_gcd(a: dict, b: dict, q: int) -> dict:
    """Euclid over F_q on {degree: coefficient} dicts."""
    a, b = dict(a), dict(b)
    while b:
        top = max(b)
        inv = pow(b[top], -1, q)
        while a and (lead := max(a)) >= top:
            add_multiple(a, {k + lead - top: c for k, c in b.items()}, -a[lead] * inv, q)
        a, b = b, a
    return a


def _is_squarefree(f: dict, q: int) -> bool:
    """gcd(f, f') = 1 for f of positive degree; f' = 0 makes f a p-th power
    over the perfect field F_q, and gcd(f, 0) = f then fails the test."""
    df = {k - 1: k * c % q for k, c in f.items() if k * c % q}
    return max(_upoly_gcd(f, df, q)) == 0


def is_radical_zero_dim(G: GroebnerBasis, limits: GBLimits = DEFAULT_LIMITS) -> bool:
    """Whether the zero-dimensional ideal with reduced basis G is radical.

    R/I has the D standard monomials as a basis, and multiplication by x_j
    sends the standard monomial s to the remainder of x_j*s modulo G, which
    _reduce_full computes like every other normal form.  Over the perfect
    field F_q, R/I is reduced exactly when every minimal polynomial of x_j
    is squarefree (Seidenberg's lemma).  The variables are tested in order,
    and the loop stops early both ways: a minimal polynomial with a
    repeated factor refutes reducedness, and a squarefree one of degree D
    makes R/I isomorphic to F_q[t]/(f), which is reduced.  Both answers are
    exact.  The unit ideal counts as radical.

    The minimal polynomial of x_j comes from the package's own engines: the
    powers 1, x_j, ..., x_j^D in the standard basis, each built from the
    previous one with add_multiple over the multiplication map, are the
    D + 1 columns of a ConstMatrix, and the first vector of its null space
    holds the coefficients.

    limits.max_pairs bounds the work, counted as the standard monomials,
    the terms of each remainder x_j*s, and one operation per vector
    combined in a power.  Going over raises BudgetExceededError; a
    staircase that is not finite raises ValueError."""
    q, n = G.field.q, G.n
    left = limits.max_pairs

    def spend(ops: int) -> None:
        nonlocal left
        left -= ops
        if left < 0:
            raise BudgetExceededError("radical-test operations", limits.max_pairs)

    staircase = standard_monomials(G, cap=limits.max_pairs)
    spend(len(staircase))
    D = len(staircase)
    if D == 0:
        return True
    # degrevlex respects degree, so reducing x_j*s only makes terms of
    # degree at most 1 + deg s, and the staircase ends at its top degree
    pk, elems = _packed_basis(G, 1 + sum(staircase[-1]))
    index = {pk.pack(m): k for k, m in enumerate(staircase)}

    for j in range(n):
        times_xj = []
        for s in staircase:
            rem, _ = _reduce_full({pk.pack(_bump(s, j)): 1}, elems, q, 0, pk)
            spend(len(rem))
            times_xj.append({index[m]: c for m, c in rem.items()})
        powers = [{0: 1}]  # staircase[0] is the monomial 1
        for _ in range(D):
            spend(len(powers[-1]))
            acc = {}
            for t, c in powers[-1].items():
                add_multiple(acc, times_xj[t], c, q)
            powers.append(acc)
        # nullspace_basis gives one vector per free column, in column order:
        # 1 at its own free column, 0 at the other free ones and minus the
        # RREF entry at each pivot column.  The first free column k0 is the
        # first power that depends on the lower ones, and every RREF row
        # whose pivot lies right of k0 is 0 at k0, so vector [0] lives on
        # columns 0..k0: the monic minimal polynomial, lowest degree first.
        cols = ConstMatrix(G.field, [[v.get(s, 0) for v in powers] for s in range(D)])
        f = {k: c for k, c in enumerate(cols.nullspace_basis()[0]) if c}
        if not _is_squarefree(f, q):
            return False
        if max(f) == D:
            return True
    return True


# ---------------------------------------------------------------- localization


def localize_rabinowitsch(I: IdealPresentation, m: Polynomial) -> IdealPresentation:
    """Restrict to the open locus m != 0 by adjoining T*m - 1 in a fresh
    last variable; the localized variety is the graph of 1/m there."""
    if m.is_zero:
        raise ValueError("cannot localize at the zero polynomial")
    if m.field != I.field or m.n != I.n:
        raise ValueError("localization witness lives in a different ring")
    n1 = I.n + 1
    gens = [g.extend(n1) for g in I.generators]
    T = Polynomial.variable(I.field, n1, n1)
    one = Polynomial.constant(I.field, n1, 1)
    gens.append(T * m.extend(n1) - one)
    return IdealPresentation(I.field, n1, gens)
