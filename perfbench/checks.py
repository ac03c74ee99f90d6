"""Checks of the package's outputs, made with the reference arithmetic only.

Each check returns a list of error strings; an empty list means the output
passed.  test_bench_checks.py shows that each one rejects a corrupted output.
"""

from __future__ import annotations

from refmath import matmul, identity, monomial_dimension, peval, rank_and_det


def grevlex_head(terms, perm):
    """Leading monomial under GRevLex with permutation[0] most significant."""
    return max(terms, key=lambda m: (sum(m),) + tuple(-m[i] for i in reversed(perm)))


def check_curve(report, basis, perm, num_vars, max_dim=1):
    """A regular-in-codimension report against a basis of its certificate ideal.

    `basis` is a Groebner basis, under GRevLex with `perm`, of the defining
    ideal plus the report's minors.  The verdict must be True, and the
    dimension counted from the basis's head monomials must be at most
    `max_dim` and not above the reported dimension.
    """
    errors = []
    if report.result is not True:
        errors.append(f"verdict {report.result!r}, expected True")
    dim = monomial_dimension([grevlex_head(g.terms, perm) for g in basis], num_vars)
    if dim > max_dim:
        errors.append(f"recomputed dimension {dim} exceeds {max_dim}")
    if report.dimension is None or dim > report.dimension:
        errors.append(f"recomputed dimension {dim} above reported {report.dimension}")
    return errors


def check_verdict(label, got, expected):
    return [] if got is expected else [f"{label}: verdict {got!r}, expected {expected!r}"]


def check_rank_at_points(grids, r, p):
    """The matrix has rank exactly r at some evaluation point."""
    ranks = [rank_and_det(g, p)[0] for g in grids]
    return [] if r in ranks else [f"rank {r} not seen at any point, ranks {ranks}"]


def check_submatrix(choice, grids, r, p):
    """The chosen r x r submatrix is nonsingular at some evaluation point."""
    if choice is None:
        return ["no submatrix returned"]
    if len(choice.rows) != r or len(choice.cols) != r:
        return [f"submatrix of size {len(choice.rows)}x{len(choice.cols)}, expected {r}x{r}"]
    for grid in grids:
        block = [[grid[i][j] for j in choice.cols] for i in choice.rows]
        if rank_and_det(block, p)[0] == r:
            return []
    return [f"submatrix {choice.key()} singular at every point"]


def check_minors(minors, targets, entries, points, p):
    """Each minor, evaluated at each point, equals the reference determinant.

    `targets` lists the (rows, cols) of each minor in output order and
    `entries` is the reference matrix of polynomials.
    """
    if len(minors) != len(targets):
        return [f"{len(minors)} minors, expected {len(targets)}"]
    errors = []
    for point in points:
        grid = [[peval(e, point, p) for e in row] for row in entries]
        for minor, (rows, cols) in zip(minors, targets):
            want = rank_and_det([[grid[i][j] for j in cols] for i in rows], p)[1]
            if peval(minor.terms, point, p) != want:
                errors.append(f"minor {rows}x{cols} wrong at {point}")
    return errors


def check_projdim(bound, k, length):
    """The pd of R/(x1..xk) is k, so a sound bound lies in [k, length]."""
    if isinstance(bound, int) and k <= bound <= length:
        return []
    return [f"bound {bound!r} outside [{k}, {length}]"]


def check_inverse(U, U_inv, num_vars, p):
    """U * U_inv is the identity matrix."""
    ok = matmul(U, U_inv, p) == identity(len(U), num_vars, p)
    return [] if ok else ["change of basis times its inverse is not the identity"]
