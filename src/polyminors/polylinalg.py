"""Polynomial matrices and complexes: determinant engines, all-minors, ranks, Jacobians."""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .polyring import (
    PolyError,
    Polynomial,
    PolyRing,
    _add_product,
    _packed_line,
    _polynomial,
    exponent_overflow_error,
    random_polynomial,
)

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
        """The exact matrix product.

        Each output entry sums its term products (`_add_product`) in one
        dict keyed by packed Lex exponent words, where the sum of two words is
        the word of the product, with int coefficients: residues over F_p, and
        over QQ numerators over the common denominator of self's row and of
        other's column, divided once per output term.  Only nonzero output
        terms are unpacked.
        """
        if self.ncols != other.nrows:
            raise MatrixShapeError("incompatible shapes for product")
        ring = self.ring
        p = ring.field.characteristic
        packing = ring.word_packing
        guard = packing.guard
        cols = [_packed_line(packing, col, p) for col in zip(*other.entries)]
        rows = []
        for row in self.entries:
            row_scale, row = _packed_line(packing, row, p)
            out = []
            for col_scale, col in cols:
                acc = defaultdict(int)
                for a, b in zip(row, col):
                    _add_product(acc, a, b, guard)
                out.append(_polynomial(ring, packing.unpack, acc.items(), row_scale * col_scale))
            rows.append(out)
        return PolyMatrix(ring, rows)

    def __str__(self):
        return "[" + ",\n ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries) + "]"


class ChainComplexInput:
    """A user-supplied complex of free modules given by its matrices d_1..d_q.

    Shapes must compose (cols of d_i = rows of d_{i+1}) and consecutive maps
    must compose to zero; both are validated on construction.
    """

    def __init__(self, maps):
        self.maps = list(maps)
        if not self.maps:
            raise PolyError("complex needs at least one map")
        self.ring = self.maps[0].ring
        for i, d in enumerate(self.maps):
            if d.ring != self.ring:
                raise PolyError("complex maps over different rings")
            if i + 1 < len(self.maps):
                nxt = self.maps[i + 1]
                if d.ncols != nxt.nrows:
                    raise PolyError(
                        f"shape mismatch: d{i+1} has {d.ncols} columns but "
                        f"d{i+2} has {nxt.nrows} rows"
                    )
                prod = d * nxt
                if any(not e.is_zero() for row in prod.entries for e in row):
                    raise PolyError(f"d{i+1} * d{i+2} is not zero")

    @property
    def length(self) -> int:
        return len(self.maps)


def _bareiss(M: PolyMatrix, full_pivot: bool):
    """Fraction-free (Bareiss 1968) elimination of M's Lex `_packed_line` rows.

    Over QQ the rows are scaled to integers, so every division is exact over
    ZZ.  Step k takes the first nonzero pivot in column k, or with full_pivot
    in the trailing block by rows then columns, swaps it to (k, k) and
    replaces each a_ij below and right of it by
    (pivot * a_ij - a_ik * a_kj) / previous pivot.

    Returns (rank, sign of the swaps, the eliminated rows, product of the row
    scales); with full rank, the last pivot is the determinant times both.
    """
    ring = M.ring
    p = ring.field.characteristic
    packing = ring.word_packing
    guard, word_lcm = packing.guard, packing.word_lcm
    scale = 1
    a = []
    for row in M.entries:
        row_scale, line = _packed_line(packing, row, p)
        scale *= row_scale
        a.append(line)
    nrows, ncols = M.nrows, M.ncols
    sign = 1
    rank = 0
    for k in range(min(nrows, ncols)):
        cols = range(k, ncols) if full_pivot else (k,)
        pivot = next(((i, j) for i in range(k, nrows) for j in cols if a[i][j][1]), None)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            sign = -sign
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        for row in a[k + 1 :]:
            for j in range(k + 1, ncols):
                acc = defaultdict(int)
                _add_product(acc, a[k][k], row[j], guard)
                _add_product(acc, row[k], a[k][j], guard, -1)
                if p:
                    num = {w: r for w, c in acc.items() if (r := c % p)}
                else:
                    num = {w: c for w, c in acc.items() if c}
                if k and num:
                    num = _divide(num, a[k - 1][k - 1], p, guard)
                row[j] = (reduce(word_lcm, num, 0), list(num.items()))
        rank += 1
    return rank, sign, a, scale


def _divide(num: dict, divisor, p: int, guard: int) -> dict:
    """The exact quotient of {word: int} num by a (top word, [(word, int)]) divisor.

    Heap division after Monagan & Pearce (CASC 2007), largest word first.
    A remainder term the divisor's lead does not divide, or over ZZ a lead
    coefficient it does not divide, raises PolyError; a quotient term whose
    product with the divisor passes the exponent limit raises
    ExponentOverflowError.  num is consumed.
    """
    top, den = divisor
    dm, dc = max(den)
    if p:
        dc = pow(dc, p - 2, p)
    rest = [(w, c) for w, c in den if w != dm]
    get = num.get
    # Words, negated so heapq pops the largest first.  Lazy deletion: a
    # popped word no longer in num was cancelled.
    heap = [-w for w in num]
    heapq.heapify(heap)
    quot = {}
    while heap:
        m = -heapq.heappop(heap)
        c = get(m)
        if c is None:
            continue
        qm = m - dm
        if qm & guard or not p and c % dc:
            raise PolyError("inexact polynomial division")
        if (qm + top) & guard:
            raise exponent_overflow_error()
        qc = c * dc % p if p else c // dc
        quot[qm] = qc
        # The divisor's lead term cancels m.
        del num[m]
        for w, c2 in rest:
            t = qm + w
            old = get(t)
            if old is None:
                heapq.heappush(heap, -t)
                old = 0
            s = old - qc * c2
            if p:
                s %= p
            if s:
                num[t] = s
            else:
                del num[t]
    return quot


def det_bareiss(M: PolyMatrix) -> Polynomial:
    """Exact determinant by fraction-free (Bareiss) elimination with a column pivot search.

    A 1x1 matrix's determinant is its entry and a 0x0 matrix's is 1; neither
    is eliminated.
    """
    if not M.is_square():
        raise MatrixShapeError("determinant of a non-square matrix")
    if M.nrows <= 1:
        return M.entries[0][0] if M.nrows else M.ring.one()
    rank, sign, a, scale = _bareiss(M, full_pivot=False)
    if rank < M.nrows:
        return M.ring.zero()
    terms = [(w, sign * c) for w, c in a[-1][-1][1]]
    return _polynomial(M.ring, M.ring.word_packing.unpack, terms, scale)


def det_cofactor(M: PolyMatrix) -> Polynomial:
    """Determinant by Laplace expansion along the row with the most zeros."""
    if not M.is_square():
        raise MatrixShapeError("determinant of a non-square matrix")
    return _cofactor(M.ring, M.entries)


def _cofactor(ring, rows) -> Polynomial:
    n = len(rows)
    if n == 0:
        return ring.one()
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
    """Dispatch to one of the three determinant engines; a 0x0 matrix's determinant is 1."""
    if engine == DET_BAREISS:
        return det_bareiss(M)
    if engine == DET_COFACTOR:
        return det_cofactor(M)
    if engine == DET_RECURSIVE:
        if not M.is_square():
            raise MatrixShapeError("determinant of a non-square matrix")
        return recursive_minors(M.nrows, M)[0] if M.nrows else M.ring.one()
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

    The table holds plain ints.  Each entry is a (top word, [(word, int)])
    pair under the ring's word packing, the shape `_add_product` multiplies,
    so a level's minor is one signed product per row into a single dict.
    ExponentOverflowError is raised only where an entry times a sub-minor
    passes the exponent limit.  Over QQ every row is first scaled by the lcm
    of its denominators, and each output minor is divided by the product of
    its rows' scales, one Fraction per term.  Over GF(p) each minor's sums
    are reduced mod p once.
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

    ring = M.ring
    p = ring.field.characteristic
    packing = ring.word_packing
    guard, word_lcm = packing.guard, packing.word_lcm
    scales, lines = [], []
    for row in M.entries:
        scale, line = _packed_line(packing, row, p)
        scales.append(scale)
        lines.append(line)

    def expand(rows, cols):
        c0 = cols[0]
        tail = cols[1:]
        acc = defaultdict(int)
        for i, r in enumerate(rows):
            sub = table[(rows[:i] + rows[i + 1 :], tail)]
            _add_product(acc, lines[r][c0], sub, guard, -1 if i & 1 else 1)
        if p:
            terms = [(w, v) for w, c in acc.items() if (v := c % p)]
        else:
            terms = [(w, c) for w, c in acc.items() if c]
        return reduce(word_lcm, [w for w, _ in terms], 0), terms

    # Level 1 is the entries; only the just-finished level feeds the next one.
    table = {((r,), (c,)): entry for r, line in enumerate(lines) for c, entry in enumerate(line)}
    for level in range(2, k + 1):
        table = {key: expand(*key) for key in needed[level]}

    return [
        _polynomial(ring, packing.unpack, table[key][1], math.prod(scales[r] for r in key[0]))
        for key in targets
    ]


def numeric_rank(grid, field):
    """Rank of a grid of field elements, such as an evaluated PolyMatrix.

    Returns (rank, pivot_rows, pivot_cols); the grid is left unchanged.
    """
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
    return _bareiss(M, full_pivot=True)[0]


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
    return PolyMatrix(
        ring,
        [
            [random_polynomial(ring, degree, rng, homogeneous=homogeneous) for _ in range(ncols)]
            for _ in range(nrows)
        ],
    )
