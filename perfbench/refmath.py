"""Reference arithmetic, kept apart from the package under test.

The benchmark builds its inputs and checks the package's outputs with this
module only.  A polynomial is a dict {exponent tuple: coefficient}; p is the
field's characteristic, 0 meaning the rationals (coefficients are Fractions)
and a prime meaning GF(p) (coefficients are ints in [0, p)).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def norm(c, p):
    return Fraction(c) if p == 0 else c % p


def inv(c, p):
    return 1 / Fraction(c) if p == 0 else pow(c, p - 2, p)


def padd(f, g, p):
    out = dict(f)
    for m, c in g.items():
        s = norm(out.get(m, 0) + c, p)
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pscale(f, c, p):
    c = norm(c, p)
    return {m: norm(a * c, p) for m, a in f.items()} if c else {}


def pmul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: norm(c, p) for m, c in out.items() if norm(c, p)}


def substitute(f, scale, p):
    """f(scale[0] * x1, scale[1] * x2, ...)."""
    out = {}
    for m, c in f.items():
        for s, e in zip(scale, m):
            c = c * s**e
        out[m] = norm(c, p)
    return out


def pconst(c, n, p):
    c = norm(c, p)
    return {(0,) * n: c} if c else {}


def is_constant(f):
    return all(not any(m) for m in f)


def peval(f, point, p):
    total = 0
    for m, c in f.items():
        t = c
        for x, e in zip(point, m):
            if e:
                t = t * x**e
        total += t
    return norm(total, p)


def to_text(f, names):
    """The polynomial in the problem-file syntax, e.g. '3*x1^2*x2 - 5'."""
    if not f:
        return "0"
    parts = []
    for m in sorted(f, reverse=True):
        c = f[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def matmul(A, B, p):
    """Product of two matrices of polynomials."""
    inner = len(B)
    return [
        [_dot([A[i][k] for k in range(inner)], [B[k][j] for k in range(inner)], p)
         for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def _dot(xs, ys, p):
    acc = {}
    for x, y in zip(xs, ys):
        if x and y:
            acc = padd(acc, pmul(x, y, p), p)
    return acc


def identity(size, n, p):
    return [[pconst(1 if i == j else 0, n, p) for j in range(size)] for i in range(size)]


def pdet(rows, p):
    """Determinant of a small square matrix of polynomials, by cofactors."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    det = {}
    for j, e in enumerate(rows[0]):
        if not e:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = pmul(e, pdet(minor, p), p)
        det = padd(det, term if j % 2 == 0 else pscale(term, -1, p), p)
    return det


def all_minors(rows, size, p):
    """Every size x size minor of a polynomial matrix."""
    return [
        pdet([[rows[i][j] for j in c] for i in r], p)
        for r in combinations(range(len(rows)), size)
        for c in combinations(range(len(rows[0])), size)
    ]


def rank_and_det(grid, p):
    """Rank of a matrix of field elements and, when it is square, its determinant."""
    a = [[norm(x, p) for x in row] for row in grid]
    nrows, ncols = len(a), len(a[0]) if a else 0
    rank, det = 0, norm(1, p)
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if a[i][col]), None)
        if pivot is None:
            det = norm(0, p)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det = norm(det * a[rank][col], p)
        scale = inv(a[rank][col], p)
        for i in range(rank + 1, nrows):
            if a[i][col]:
                factor = norm(a[i][col] * scale, p)
                a[i] = [norm(x - factor * y, p) for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, (det if nrows == ncols else None)


def monomial_dimension(heads, n):
    """Krull dimension of R/J for a monomial ideal J given by its generators.

    It is the size of a largest set of variables that contains the support of
    no generator (a maximal independent set); -1 when some generator is 1.
    """
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in heads]
    if any(not s for s in supports):
        return -1
    for size in range(n, -1, -1):
        for chosen in combinations(range(n), size):
            free = frozenset(chosen)
            if not any(s <= free for s in supports):
                return size
