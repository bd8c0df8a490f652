"""Grid replication of the singular-locus dimension experiment.

For each (n, p, seed) the experiment draws dense random quadrics with
uniform coefficients and one random full-rank (n-p) x n matrix, redrawing
(at most REDRAW_BUDGET times) until the quadrics form a verified smooth
complete intersection.  The draw and its check are memoised, so the cells
for every polar index i share them; cell i feeds the top n - p - i + 1
rows of the matrix to the polar ideal and measures the dimension of its
singular locus exactly in full mode (radical test at dimension zero,
Jacobian criterion above) and by the degeneracy proxy in delta mode.

The observed value is compared against max{-1, n - p - (2i+2)}.  W is
where a matrix M over S drops rank (classic: J(F)*N, p x (p+i-1); dual:
(p+1) x (p+i), one more row from a_r - c_r*X; see polar._stack_minors), and
it is singular where M drops rank once more, in codimension 2(i+1) of S.
Classic hypersurface cells (p = 1) are the exception: their M is 1 x i, and
a rank below 0 is impossible, so their singular locus and degeneracy locus
are empty.  Dual cells follow the formula at p = 1 too.

All randomness flows from one 64-bit master seed through a splitmix64-style
derivation keyed by (n, p, seed index, attempt); runs with equal flags and
master seed are bit-identical.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Sequence

from .field import DEFAULT_PRIME, PrimeField
from .groebner import DEFAULT_LIMITS, BudgetExceededError, GBLimits
from .matrices import ConstMatrix, jacobian_at, system_ring
from .poly import Polynomial, point_values
from .polar import (CLASSIC, DUAL, PolarSpec, SmoothnessReport, delta_ideal,
                    polar_ideal, singular_locus_dim,
                    verify_smooth_complete_intersection)

MODE_FULL = "full"
MODE_DELTA = "delta"

_MASK64 = (1 << 64) - 1

REDRAW_BUDGET = 5  # redraws a cell may spend on singular or non-generic draws
_SYSTEM_ATTEMPTS = 20  # draws random_smooth_system tries
_DRAW_CACHE_SIZE = 64  # memoised draws; a grid needs REDRAW_BUDGET + 1 at once
ENUMERATION_LIMIT = 10**7  # largest q^n sample_points_small_field scans
DENSE_DEGREE = 2  # total degree of the random_dense_poly draws: quadrics
FULL_RANK_DRAWS = 64  # draws random_full_rank_matrix tries


def derive_seed(*parts: int) -> int:
    """Fold integer parts into one 64-bit value via splitmix64 steps."""
    acc = 0x9E3779B97F4A7C15
    for part in parts:
        acc = (acc + (part & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        z = acc
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc = z ^ (z >> 31)
    return acc


def expected_singular_dim(n: int, p: int, i: int, flavor: str) -> int:
    """The experiment's target value, max{-1, n - p - (2i+2)}, except that
    classic hypersurface polar varieties are smooth (see the module
    docstring); dual ones follow the formula at p = 1 as well."""
    if p == 1 and flavor == CLASSIC:
        return -1
    return max(-1, n - p - (2 * i + 2))


def random_dense_poly(rng: random.Random, field: PrimeField, n: int) -> Polynomial:
    """Uniform coefficients on every monomial of total degree <= DENSE_DEGREE."""
    q = field.q
    terms: dict[tuple[int, ...], int] = {}
    for m in product(range(DENSE_DEGREE + 1), repeat=n):
        if sum(m) <= DENSE_DEGREE:
            c = rng.randrange(q)
            if c:
                terms[m] = c
    return Polynomial(field, n, terms, _clean=True)


def random_full_rank_matrix(rng: random.Random, field: PrimeField, rows: int,
                            cols: int) -> ConstMatrix:
    """Uniform rows x cols draws until one has rank `rows`; past
    FULL_RANK_DRAWS draws a BudgetExceededError."""
    if rows > cols:
        raise ValueError(f"no {rows} x {cols} matrix has rank {rows}")
    for _ in range(FULL_RANK_DRAWS):
        M = ConstMatrix(field, [[rng.randrange(field.q) for _ in range(cols)]
                                for _ in range(rows)])
        if M.rank() == rows:
            return M
    raise BudgetExceededError("full-rank draws", FULL_RANK_DRAWS)


@lru_cache(maxsize=_DRAW_CACHE_SIZE)
def _smooth_draw(prime: int, n: int, p: int, seed: int, attempt: int,
                 limits: GBLimits) -> tuple[tuple[Polynomial, ...], ConstMatrix,
                                            SmoothnessReport]:
    """Draw number `attempt` for `seed`: p dense quadrics, then a full-rank
    (n-p) x n matrix, and the smoothness report of the quadrics.  The
    arguments are every input of the draw, so the memo is exact; a
    BudgetExceededError propagates and is not memoised."""
    field = PrimeField(prime)
    rng = random.Random(derive_seed(seed, attempt))
    F = tuple(random_dense_poly(rng, field, n) for _ in range(p))
    a_full = random_full_rank_matrix(rng, field, n - p, n)
    return F, a_full, verify_smooth_complete_intersection(F, limits)


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell: the (n, p, i) triple plus run configuration."""

    n: int
    p: int
    i: int
    flavor: str = CLASSIC
    prime: int = DEFAULT_PRIME
    seed: int = 0
    mode: str = MODE_FULL

    def __post_init__(self):
        if not (2 <= self.n and 1 <= self.p <= self.n - 1
                and 1 <= self.i <= self.n - self.p):
            raise ValueError(f"invalid triple ({self.n}, {self.p}, {self.i})")
        if self.flavor not in (CLASSIC, DUAL):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.mode not in (MODE_FULL, MODE_DELTA):
            raise ValueError(f"unknown mode {self.mode!r}")


RESULT_FIELDS = ("n", "p", "i", "flavor", "prime", "seed",
                 "regular_sequence_ok", "smooth_ok", "dim_W", "deg_W",
                 "dim_sing", "expected_dim_sing", "match", "mode", "status",
                 "redraws_used", "elapsed_ms")


@dataclass
class CellResult:
    n: int
    p: int
    i: int
    flavor: str
    prime: int
    seed: int
    regular_sequence_ok: bool | None
    smooth_ok: bool | None
    dim_W: int | None
    deg_W: int | None
    dim_sing: int | None
    expected_dim_sing: int
    match: bool | None
    mode: str
    status: str
    redraws_used: int
    elapsed_ms: int
    # which route decided dim_sing: "empty", "radical" or "jacobian" in full
    # mode, and "delta" only in delta mode; None when the cell did not
    # complete.  Not in RESULT_FIELDS, so the JSONL does not carry it.
    sing_route: str | None = None

    def to_record(self, with_timing: bool = False) -> dict:
        rec = {k: getattr(self, k) for k in RESULT_FIELDS}
        if not with_timing:
            rec["elapsed_ms"] = None
        return rec


def run_cell(spec: CellSpec, limits: GBLimits = DEFAULT_LIMITS) -> CellResult:
    n, p, i = spec.n, spec.p, spec.i
    expected = expected_singular_dim(n, p, i, spec.flavor)
    start = time.monotonic()

    def finish(status, reg=None, smooth=None, dim_w=None, deg_w=None,
               dim_sing=None, redraws=0, route=None) -> CellResult:
        match = (dim_sing == expected) if status == "ok" else None
        return CellResult(
            n=n, p=p, i=i, flavor=spec.flavor, prime=spec.prime, seed=spec.seed,
            regular_sequence_ok=reg, smooth_ok=smooth, dim_W=dim_w, deg_W=deg_w,
            dim_sing=dim_sing, expected_dim_sing=expected, match=match,
            mode=spec.mode, status=status, redraws_used=redraws,
            elapsed_ms=int((time.monotonic() - start) * 1000), sing_route=route)

    # every attempt before this one was a redraw
    for attempt in range(REDRAW_BUDGET + 1):
        try:
            F, a_full, report = _smooth_draw(spec.prime, n, p, spec.seed,
                                             attempt, limits)
        except BudgetExceededError:
            return finish("skipped", redraws=attempt)
        if not report.ok:
            continue
        pspec = PolarSpec(n, p, i, spec.flavor, F,
                          a_full.submatrix(range(n - p - i + 1), range(n)))
        try:
            result = polar_ideal(pspec, limits)
        except BudgetExceededError:
            return finish("skipped", reg=True, smooth=True, redraws=attempt)
        if result.dim not in (-1, n - p - i):
            continue  # a failed the (probabilistic) genericity requirement
        try:
            if spec.mode == MODE_FULL:
                dim_sing, route = singular_locus_dim(result, limits)
            else:
                dim_sing, route = delta_ideal(pspec, limits).dim, "delta"
        except BudgetExceededError:
            return finish("skipped", reg=True, smooth=True, dim_w=result.dim,
                          deg_w=result.degree, redraws=attempt)
        return finish("ok", reg=True, smooth=True, dim_w=result.dim,
                      deg_w=result.degree, dim_sing=dim_sing,
                      redraws=attempt, route=route)
    return finish("redraws_exhausted", redraws=REDRAW_BUDGET + 1)


def grid_triples(nmax: int) -> list[tuple[int, int, int]]:
    out = []
    for n in range(2, nmax + 1):
        for p in range(1, n):
            for i in range(1, n - p + 1):
                out.append((n, p, i))
    return out


def run_grid(nmax: int, seeds: int = 1, mode: str = MODE_FULL,
             flavor: str = CLASSIC, prime: int = DEFAULT_PRIME,
             master_seed: int = 0, limits: GBLimits = DEFAULT_LIMITS,
             p_max: int | None = None) -> list[CellResult]:
    """All triples up to nmax, `seeds` independent draws each; the quadric
    system and matrix derive from (master, n, p, seed index) only, so cells
    that differ in i alone share them.  The cells of one draw run back to
    back, i innermost; results come out sorted by (n, p, i, seed).  A grid
    with no cell (nmax < 2, seeds < 1 or p_max < 1) is a ValueError."""
    if nmax < 2 or seeds < 1 or (p_max is not None and p_max < 1):
        raise ValueError(f"empty grid: need nmax >= 2, seeds >= 1 and "
                         f"p_max >= 1, got nmax={nmax}, seeds={seeds}, "
                         f"p_max={p_max}")
    results = []
    for n in range(2, nmax + 1):
        for p in range(1, n if p_max is None else min(n, p_max + 1)):
            for k in range(seeds):
                cell_seed = derive_seed(master_seed, n, p, k)
                for i in range(1, n - p + 1):
                    spec = CellSpec(n=n, p=p, i=i, flavor=flavor, prime=prime,
                                    seed=cell_seed, mode=mode)
                    results.append(run_cell(spec, limits))
    results.sort(key=lambda r: (r.n, r.p, r.i, r.seed))
    return results


def summarize_grid(results: Sequence[CellResult]) -> str:
    lines = ["  n  p  i  status              dim_W  dim_sing  expected  match"]
    for r in results:
        lines.append(
            f"{r.n:3d}{r.p:3d}{r.i:3d}  {r.status:<18}"
            f"{'' if r.dim_W is None else r.dim_W:>7}"
            f"{'' if r.dim_sing is None else r.dim_sing:>10}"
            f"{r.expected_dim_sing:>10}  "
            f"{'' if r.match is None else ('yes' if r.match else 'NO')}")
    ok = sum(1 for r in results if r.status == "ok")
    matched = sum(1 for r in results if r.match)
    lines.append(f"cells: {len(results)}  completed: {ok}  matched: {matched}")
    return "\n".join(lines)


# ------------------------------------------------------------- point sampling


@dataclass
class SamplePointsResult:
    points: tuple[tuple[tuple[int, ...], bool], ...]  # (point, is_regular)
    exhaustive: bool
    complete: bool


def sample_points_small_field(F: Sequence[Polynomial]) -> SamplePointsResult:
    """All points of V(F) over a small field, in lexicographic order, tagged
    regular/singular by the rank of jacobian_at.

    Each F_k is written once as the sum of c_{k,e}(x1..x_(n-1)) * x_n^e.
    For every prefix (x1, ..., x_(n-1)) the sweep evaluates the c_{1,e}
    by their point kernels (see point_values), keeps the values of x_n
    where F_1 vanishes, read from one table of residue powers, then those
    where F_2 also vanishes, and so on, and stops once none are left; a
    zero F_k keeps every value.  Raises ValueError when F is empty, mixes
    rings or has no variables, and when the q^n points of the ambient
    space exceed ENUMERATION_LIMIT."""
    F = list(F)
    field, n = system_ring(F)
    q = field.q
    if q**n > ENUMERATION_LIMIT:
        raise ValueError(f"{q}^{n} points exceed the enumeration limit "
                         f"{ENUMERATION_LIMIT}")
    p = len(F)
    top = max(f.total_degree() for f in F)
    columns = [[pow(v, e, q) for v in range(q)] for e in range(top + 1)]
    coefficients = []  # per F_k: the exponents e of x_n and the c_{k,e}
    for f in F:
        by_exponent: dict[int, dict] = {}
        for m, c in f.terms.items():
            by_exponent.setdefault(m[-1], {})[m[:-1]] = c
        exponents = sorted(by_exponent)
        coefficients.append((exponents, [Polynomial(field, n - 1, by_exponent[e],
                                                    _clean=True) for e in exponents]))
    found: list[tuple[tuple[int, ...], bool]] = []
    for prefix in product(range(q), repeat=n - 1):
        roots = range(q)
        for exponents, polys in coefficients:
            if not polys:
                continue
            values = [0] * len(roots)
            for e, (c,) in zip(exponents, point_values(polys, prefix)):
                if c:
                    col = columns[e]
                    values = [s + c * col[v] for s, v in zip(values, roots)]
            roots = [v for v, s in zip(roots, values) if not s % q]
            if not roots:
                break
        for v in roots:
            x = prefix + (v,)
            found.append((x, jacobian_at(F, x).rank() == p))
    return SamplePointsResult(tuple(found), True, True)


def random_smooth_system(field: PrimeField, n: int, p: int,
                         seed: int) -> list[Polynomial]:
    """The quadrics of the first verified smooth draw for `seed`, drawn as
    run_cell draws them; convenience for demos and family-level checks."""
    for attempt in range(_SYSTEM_ATTEMPTS):
        F, _, report = _smooth_draw(field.q, n, p, seed, attempt, DEFAULT_LIMITS)
        if report.ok:
            return list(F)
    raise BudgetExceededError("smooth-system draws", _SYSTEM_ATTEMPTS)
