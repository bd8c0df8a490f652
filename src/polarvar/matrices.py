"""Matrices with polynomial or constant entries.

Covers the linear-algebra layer the polar constructions sit on: Jacobian
assembly and evaluation at a point, division-free symbolic determinants and
streaming minor enumeration (both by one memoised Laplace expansion, minors
in a fixed lexicographic subset order), and one row reduction of an
evaluated matrix over the prime field, kept on the matrix, which gives its
rank, the rank of every prefix of its rows, the rank of further rows
modulo its row space, and its null space.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Sequence

from .field import PrimeField
from .poly import Polynomial, add_multiple, differentiate, point_values


def _eliminate(rows, pivots: list[tuple[int, list[int]]], q: int) -> list[int]:
    """Reduce each row in turn against the pivot rows, appending it as a new
    (pivot column, monic row) when it does not vanish, so that each pivot
    row is zero at the pivot columns before it; returns len(pivots) after
    each row.  The existing pivot rows are read, never changed."""
    ranks = []
    for row in rows:
        v = row
        for col, pr in pivots:
            f = v[col]
            if f:
                v = [(x - f * y) % q for x, y in zip(v, pr)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], -1, q)
            pivots.append((lead, [x * inv % q for x in v]))
        ranks.append(len(pivots))
    return ranks


class ConstMatrix:
    """Dense rectangular matrix of canonical residues.  Its row reduction
    is built on first use and kept, which is exact because the matrix is
    never changed."""

    __slots__ = ("field", "rows", "cols", "entries", "_echelon_form")

    def __init__(self, field: PrimeField, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(v % field.q for v in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("rows have unequal lengths")
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows
        self._echelon_form: tuple[list, list[int]] | None = None

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ConstMatrix":
        return ConstMatrix(self.field,
                           [[self.entries[i][j] for j in col_idx] for i in row_idx])

    def matmul(self, other: "ConstMatrix") -> "ConstMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out.append([sum(row[k] * other.entries[k][j] for k in range(self.cols))
                        for j in range(other.cols)])
        return ConstMatrix(self.field, out)

    def _echelon(self) -> tuple[list[tuple[int, list[int]]], list[int]]:
        """The rows reduced in order (see _eliminate): the pivot rows and the
        rank after each prefix of rows.  Built once and shared by every
        caller, so callers must not change it."""
        if self._echelon_form is None:
            pivots: list[tuple[int, list[int]]] = []
            self._echelon_form = pivots, _eliminate(self.entries, pivots, self.field.q)
        return self._echelon_form

    def rank(self) -> int:
        return self._echelon()[1][-1]

    def row_ranks(self) -> tuple[int, ...]:
        """Entry k is the rank of the first k + 1 rows."""
        return tuple(self._echelon()[1])

    def quotient_rank(self, rows: Sequence[Sequence[int]]) -> int:
        """Rank of the rows, vectors of canonical residues, modulo the row
        space of this matrix: rank [rows; self] - rank self.  Only the new
        rows are reduced, against the kept pivot rows."""
        base = self._echelon()[0]
        pivots = list(base)
        _eliminate(rows, pivots, self.field.q)
        return len(pivots) - len(base)

    def nullspace_basis(self) -> list[tuple[int, ...]]:
        """Basis of {v : A v = 0} as row vectors: one per free column, with
        1 there and 0 at the other free columns."""
        q = self.field.q
        # back-substitute on copies, so each pivot row is zero at every
        # other pivot column and the kept reduction stays as it was
        pivots = [(col, list(pr)) for col, pr in self._echelon()[0]]
        for k in range(len(pivots) - 1, 0, -1):
            col, pr = pivots[k]
            for _, pj in pivots[:k]:
                f = pj[col]
                if f:
                    pj[:] = [(x - f * y) % q for x, y in zip(pj, pr)]
        pivot_cols = {col for col, _ in pivots}
        basis = []
        for free in range(self.cols):
            if free in pivot_cols:
                continue
            v = [0] * self.cols
            v[free] = 1
            for col, pr in pivots:
                v[col] = (-pr[free]) % q
            basis.append(tuple(v))
        return basis

    def to_poly_matrix(self, n: int) -> "PolyMatrix":
        return PolyMatrix(
            [[Polynomial.constant(self.field, n, v) for v in row] for row in self.entries])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstMatrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __repr__(self) -> str:
        return f"ConstMatrix({self.rows}x{self.cols} mod {self.field.q})"


class PolyMatrix:
    """Rectangular matrix of polynomials sharing one ambient ring."""

    __slots__ = ("field", "n", "rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        rows = [tuple(row) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("rows have unequal lengths")
        first = rows[0][0]
        for row in rows:
            for p in row:
                if p.field != first.field or p.n != first.n:
                    raise ValueError("entries live in different ambient rings")
        self.field = first.field
        self.n = first.n
        self.rows = len(rows)
        self.cols = cols
        self.entries = tuple(rows)

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Polynomial, ...]:
        return self.entries[i]

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def stack(self, bottom: "PolyMatrix") -> "PolyMatrix":
        if bottom.cols != self.cols:
            raise ValueError("column count mismatch in stack")
        return PolyMatrix(list(self.entries) + list(bottom.entries))

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols}, n={self.n}, q={self.field.q})"


def system_ring(F: Sequence[Polynomial]) -> tuple[PrimeField, int]:
    """The field and variable count shared by the polynomials of F; raises
    ValueError when F is empty, mixes rings or has no variables."""
    if not F:
        raise ValueError("empty system")
    field, n = F[0].field, F[0].n
    if any(f.field != field or f.n != n for f in F):
        raise ValueError("polynomials live in different ambient rings")
    if n == 0:
        raise ValueError("system has no variables")
    return field, n


def jacobian(F: Sequence[Polynomial]) -> PolyMatrix:
    """The p x n matrix of partials, row k the gradient of F_k."""
    n = system_ring(F)[1]
    return PolyMatrix([[differentiate(f, j) for j in range(1, n + 1)] for f in F])


def jacobian_at(F: Sequence[Polynomial], x: Sequence[int]) -> ConstMatrix:
    """jacobian(F) evaluated at x by the gradient kernels of the F_k (see
    point_values), without building the partials."""
    return ConstMatrix(system_ring(F)[0],
                       [row[1:] for row in point_values(F, x, gradient=True)])


MAX_DET_SIZE = 12


def _laplace_minors(M: PolyMatrix):
    """det(rows, cols) of any square submatrix of M, as a term dict.

    Minors of one matrix share subdeterminants heavily, so each determinant
    is expanded along its last row with a memo over (row-set, column-set)
    keys; the expansion uses no division.  Returned dicts are shared with
    the memo and must not be mutated."""
    q = M.field.q
    entries = [[p.terms for p in row] for row in M.entries]
    memo: dict[tuple, dict] = {}

    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict:
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        key = (rows, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        acc: dict = {}
        last = rows[-1]
        sub_rows = rows[:-1]
        k = len(cols)
        for j, cj in enumerate(cols):
            e = entries[last][cj]
            if not e:
                continue
            sub = det(sub_rows, cols[:j] + cols[j + 1:])
            if not sub:
                continue
            sign = -1 if (k - 1 + j) % 2 else 1
            for m, c in e.items():
                add_multiple(acc, sub, sign * c, q, m)
        memo[key] = acc
        return acc

    return det


def determinant_division_free(M: PolyMatrix) -> Polynomial:
    """Exact symbolic determinant by memoised Laplace expansion."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    if M.rows > MAX_DET_SIZE:
        raise ValueError(f"matrix size {M.rows} exceeds the {MAX_DET_SIZE} cap")
    full = tuple(range(M.rows))
    return Polynomial(M.field, M.n, dict(_laplace_minors(M)(full, full)),
                      _clean=True)


def enumerate_minors(M: PolyMatrix, r: int) -> Iterator[Polynomial]:
    """All r-minors, streamed in lexicographic (row-set, column-set) order."""
    if not 1 <= r <= min(M.rows, M.cols):
        raise ValueError(f"minor size {r} out of range for {M.rows}x{M.cols}")
    det = _laplace_minors(M)
    for row_idx in combinations(range(M.rows), r):
        for col_idx in combinations(range(M.cols), r):
            yield Polynomial(M.field, M.n, dict(det(row_idx, col_idx)),
                             _clean=True)

