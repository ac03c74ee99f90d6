"""Polynomial matrices: determinant engines, recursive all-minors, ranks, Jacobians."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .polyring import PolyError, Polynomial, PolyRing

DET_BAREISS = "bareiss"
DET_COFACTOR = "cofactor"
DET_RECURSIVE = "recursive"

DEFAULT_TABLE_CAP = 10**7


class MatrixShapeError(PolyError):
    pass


class MinorTableTooLargeError(PolyError):
    pass


@dataclass(frozen=True)
class SubmatrixChoice:
    """Row and column index lists; index order records selection order."""

    rows: tuple
    cols: tuple

    def __post_init__(self):
        if len(self.rows) != len(self.cols):
            raise MatrixShapeError("row and column selections differ in length")
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise MatrixShapeError("repeated index in submatrix choice")

    @property
    def size(self) -> int:
        return len(self.rows)

    def key(self):
        """Canonical dedup key: sorted row and column index tuples."""
        return (tuple(sorted(self.rows)), tuple(sorted(self.cols)))


class PolyMatrix:
    """A dense matrix of polynomials over one ring."""

    def __init__(self, ring: PolyRing, entries):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.ncols:
                raise MatrixShapeError("ragged rows")
            for e in row:
                if not isinstance(e, Polynomial) or e.ring != ring:
                    raise MatrixShapeError("entry not a polynomial of the matrix ring")

    @classmethod
    def from_rows(cls, rows) -> "PolyMatrix":
        if not rows or not rows[0]:
            raise MatrixShapeError("empty matrix")
        return cls(rows[0][0].ring, rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.ring, zip(*self.entries))

    def submatrix(self, choice: SubmatrixChoice) -> "PolyMatrix":
        for i in choice.rows:
            if not 0 <= i < self.nrows:
                raise MatrixShapeError(f"row index {i} out of range")
        for j in choice.cols:
            if not 0 <= j < self.ncols:
                raise MatrixShapeError(f"column index {j} out of range")
        return PolyMatrix(
            self.ring,
            [[self.entries[i][j] for j in choice.cols] for i in choice.rows],
        )

    def evaluate(self, point):
        """Evaluate every entry at a point; returns a grid of field elements."""
        return [[e.evaluate(point) for e in row] for row in self.entries]

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise MatrixShapeError("incompatible shapes for product")
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = self.ring.zero()
                for k in range(self.ncols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(row)
        return PolyMatrix(self.ring, rows)

    def __str__(self):
        return "[" + ",\n ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"


def det_bareiss(M: PolyMatrix) -> Polynomial:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not M.is_square():
        raise MatrixShapeError("determinant of a non-square matrix")
    n = M.nrows
    if n == 1:
        return M[0, 0]
    a = [list(row) for row in M.entries]
    ring = M.ring
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        # Full column search for the first nonzero pivot.
        pivot_row = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
        if pivot_row is None:
            return ring.zero()
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = pivot * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.exact_divide(prev)
            a[i][k] = ring.zero()
        prev = pivot
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def det_cofactor(M: PolyMatrix) -> Polynomial:
    """Determinant by Laplace expansion along the row with the most zeros."""
    if not M.is_square():
        raise MatrixShapeError("determinant of a non-square matrix")
    return _cofactor(M.ring, M.entries)


def _cofactor(ring, rows) -> Polynomial:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    best = max(range(n), key=lambda i: sum(1 for e in rows[i] if e.is_zero()))
    rest = [rows[i] for i in range(n) if i != best]
    det = ring.zero()
    for j, e in enumerate(rows[best]):
        if e.is_zero():
            continue
        minor_rows = [tuple(r[jj] for jj in range(n) if jj != j) for r in rest]
        term = e * _cofactor(ring, minor_rows)
        det = det + term if (best + j) % 2 == 0 else det - term
    return det


def determinant(M: PolyMatrix, engine: str = DET_BAREISS) -> Polynomial:
    """Dispatch to one of the three determinant engines."""
    if engine == DET_BAREISS:
        return det_bareiss(M)
    if engine == DET_COFACTOR:
        return det_cofactor(M)
    if engine == DET_RECURSIVE:
        if not M.is_square():
            raise MatrixShapeError("determinant of a non-square matrix")
        return recursive_minors(M.nrows, M)[0]
    raise PolyError(f"unknown determinant engine {engine!r}")


def count_possible_minors(nrows: int, ncols: int, k: int) -> int:
    """C(nrows, k) * C(ncols, k), exactly."""
    if k < 0 or k > min(nrows, ncols):
        raise PolyError(f"minor size {k} out of range for a {nrows}x{ncols} matrix")
    return math.comb(nrows, k) * math.comb(ncols, k)


def recursive_minors(k: int, M: PolyMatrix, table_cap: int = DEFAULT_TABLE_CAP):
    """All k x k minors of M via a memoized bottom-up cofactor table.

    Level j minors are expanded along their first column using level j-1
    entries; only (row set, column set) pairs that feed some target are ever
    computed.  Output order is lexicographic in (row set, column set).
    """
    if k < 1 or k > min(M.nrows, M.ncols):
        raise PolyError(f"minor size {k} out of range")
    targets = [
        (r, c)
        for r in combinations(range(M.nrows), k)
        for c in combinations(range(M.ncols), k)
    ]
    if k == 1:
        return [M[r[0], c[0]] for r, c in targets]

    # Needed (row set, column set) pairs per level, derived top-down.  A level-j
    # minor (R, C) needs the level j-1 minors (R minus one row, C[1:]).
    needed = {k: set(targets)}
    total = len(targets)
    for level in range(k, 2, -1):
        lower = set()
        for rows, cols in needed[level]:
            tail = cols[1:]
            for drop in range(level):
                lower.add((rows[:drop] + rows[drop + 1 :], tail))
        needed[level - 1] = lower
        total += len(lower)
        if total > table_cap:
            raise MinorTableTooLargeError(
                f"predicted minor table exceeds {table_cap} entries"
            )

    table = {}

    def det2(key):
        (r0, r1), (c0, c1) = key
        return M[r0, c0] * M[r1, c1] - M[r0, c1] * M[r1, c0]

    def expand(key):
        rows, cols = key
        c0 = cols[0]
        tail = cols[1:]
        det = M.ring.zero()
        for i, r in enumerate(rows):
            e = M[r, c0]
            if e.is_zero():
                continue
            sub = table[(rows[:i] + rows[i + 1 :], tail)]
            term = e * sub
            det = det + term if i % 2 == 0 else det - term
        return det

    for level in range(2, k + 1):
        compute = det2 if level == 2 else expand
        # Only the just-finished level feeds the next one.
        table = {key: compute(key) for key in sorted(needed[level])}

    return [table[key] for key in sorted(targets)]


def numeric_rank(M: PolyMatrix):
    """Rank of a matrix of field constants, with pivot row/column index lists.

    Accepts either a PolyMatrix of degree-0 entries or a plain grid of field
    elements.  Returns (rank, pivot_rows, pivot_cols).
    """
    if isinstance(M, PolyMatrix):
        for row in M.entries:
            for e in row:
                if not e.is_constant():
                    raise PolyError("numeric_rank requires constant entries")
        field = M.ring.field
        grid = [[e.constant_value() for e in row] for row in M.entries]
    else:
        grid, field = M
        grid = [list(row) for row in grid]
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    pivot_rows, pivot_cols = [], []
    row = 0
    order = list(range(nrows))
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = next((i for i in range(row, nrows) if grid[i][col]), None)
        if pivot is None:
            continue
        grid[row], grid[pivot] = grid[pivot], grid[row]
        order[row], order[pivot] = order[pivot], order[row]
        inv = field.inv(grid[row][col])
        for i in range(row + 1, nrows):
            if grid[i][col]:
                factor = field.mul(grid[i][col], inv)
                grid[i] = [field.sub(a, field.mul(factor, b)) for a, b in zip(grid[i], grid[row])]
        pivot_rows.append(order[row])
        pivot_cols.append(col)
        row += 1
    return len(pivot_cols), pivot_rows, pivot_cols


def symbolic_rank(M: PolyMatrix) -> int:
    """Rank over the fraction field by fraction-free elimination with full pivot search."""
    a = [list(row) for row in M.entries]
    ring = M.ring
    nrows, ncols = M.nrows, M.ncols
    rank = 0
    prev = ring.one()
    while rank < min(nrows, ncols):
        pivot = None
        for i in range(rank, nrows):
            for j in range(rank, ncols):
                if not a[i][j].is_zero():
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != rank:
            a[rank], a[pi] = a[pi], a[rank]
        if pj != rank:
            for row in a:
                row[rank], row[pj] = row[pj], row[rank]
        p = a[rank][rank]
        for i in range(rank + 1, nrows):
            for j in range(rank + 1, ncols):
                num = p * a[i][j] - a[i][rank] * a[rank][j]
                a[i][j] = num.exact_divide(prev)
            a[i][rank] = ring.zero()
        prev = p
        rank += 1
    return rank


def jacobian(gens) -> PolyMatrix:
    """Jacobian with variables indexing rows and generators indexing columns."""
    gens = list(gens)
    if not gens:
        raise PolyError("empty generator list")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise PolyError("generators from different rings")
    rows = [[g.partial_derivative(v) for g in gens] for v in range(ring.num_vars)]
    return PolyMatrix(ring, rows)


def identity_matrix(ring: PolyRing, n: int) -> PolyMatrix:
    return PolyMatrix(
        ring,
        [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)],
    )


def random_matrix(ring: PolyRing, nrows: int, ncols: int, degree: int, rng, homogeneous: bool = False) -> PolyMatrix:
    from .polyring import random_polynomial

    return PolyMatrix(
        ring,
        [
            [random_polynomial(ring, degree, rng, homogeneous=homogeneous) for _ in range(ncols)]
            for _ in range(nrows)
        ],
    )
