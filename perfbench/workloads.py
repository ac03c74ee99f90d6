"""The benchmark's workloads: seeded inputs as problem-file text, the
operations that run the package on them, and the checks of their outputs.

Every input is written as problem-file text and read back through
`problemfile.parse_problem_text`, so the package sees only that text.  The
package's own RNG seeds are fixed per operation; `--seed` draws the
coefficients of the inputs, the order of the operations in a round and the
points and orders the checks use.  Inputs have fixed shapes and dense
supports, so a draw of coefficients leaves each loop's path (which
submatrices it draws) unchanged and the work per round nearly constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import checks
from refmath import (all_minors, identity, is_constant, matmul, pconst, peval, pscale,
                     substitute, to_text)

P = 101

# The 7-variable curve over GF(101) that the package's tests use for the
# regular-in-codimension loop (SEC51_GENERATORS in tests/conftest.py).
CURVE_GENERATORS = (
    "x5*x6-x4*x7",
    "x1*x6-x2*x7",
    "x5^2-x1*x7",
    "x4*x5-x2*x7",
    "x4^2-x2*x6",
    "x1*x4-x2*x5",
    "x2*x3^3*x5+3*x2*x3^2*x7+8*x2^2*x5+3*x3*x4*x7-8*x4*x7+x6*x7",
    "x1*x3^3*x5+3*x1*x3^2*x7+8*x1*x2*x5+3*x3*x5*x7-8*x5*x7+x7^2",
    "x2*x3^3*x4+3*x2*x3^2*x6+8*x2^2*x4+3*x3*x4*x6-8*x4*x6+x6^2",
    "x2^2*x3^3+3*x2*x3^2*x4+8*x2^3+3*x2*x3*x6-8*x2*x6+x4*x6",
    "x1*x2*x3^3+3*x2*x3^2*x5+8*x1*x2^2+3*x2*x3*x7-8*x2*x7+x4*x7",
    "x1^2*x3^3+3*x1*x3^2*x5+8*x1^2*x2+3*x1*x3*x7-8*x1*x7+x5*x7",
)
CURVE_VARS = tuple(f"x{i}" for i in range(1, 8))
# Loop seeds 1 and 3 certify in about 1.7 s each, seed 2 needs four
# checkpoints and about 5 s (2 cores, Python 3.11).
CURVE_LOOP_SEEDS = (1, 3, 2)

# rank-minors: M = A*B is ROWS x COLS over GF(101)[a,b] with inner dimension
# R, A and B dense of degree 1, so rank M = R.
RANK_ROWS, RANK_COLS, RANK_R = 5, 6, 3
RANK_LOOP_SEEDS = ((4, 5, 6), (7, 8, 9))  # one matrix per triple
# recursive_minors: all SIZE-minors of a ROWS x COLS matrix over QQ[x,y] whose
# entries are dense forms of degree DEGREE, as in acceptance criterion 8.
MINOR_ROWS, MINOR_COLS, MINOR_SIZE, MINOR_DEGREE = 6, 7, 5, 4
CHECK_POINTS = 4

# projdim-split: Koszul complexes in k variables with A + B trivial summands
# on the tail (A paired with degree k, B with degree k + 1).
PROJDIM_KS = (4, 5, 5)
PROJDIM_A, PROJDIM_B = 1, 2
PROJDIM_FACTOR_DEGREE = 1
PROJDIM_LOOP_SEEDS = (11, 12, 13)
UNIT_MINOR_REDRAWS = 20


@dataclass
class Op:
    """One operation: a call of the package on one parsed problem."""

    label: str
    problem: int  # index into the workload's problem texts
    run: object  # (pm, parsed problem) -> output
    summary: object  # output -> (verdict, considered or None, computed or None)


def monomials(num_vars, degree):
    """Every exponent tuple of total degree <= degree, in a fixed order."""
    if num_vars == 0:
        return [()]
    return [
        (e,) + rest
        for e in range(degree + 1)
        for rest in monomials(num_vars - 1, degree - e)
    ]


def dense_poly(rng, monos):
    return {m: rng.randrange(1, P) for m in monos}


def matrix_text(rows, names):
    return "[" + ", ".join("[" + ", ".join(to_text(e, names) for e in row) + "]" for row in rows) + "]"


class Workload:
    name = ""

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.texts = []
        self.ops = []

    def parse(self, pm):
        return [pm.problemfile.parse_problem_text(t) for t in self.texts]

    def shuffled(self, ops):
        ops = list(ops)
        self.rng.shuffle(ops)
        return ops

    def check(self, pm, problems, ran):
        """Errors found in one round's (op, output) pairs."""
        raise NotImplementedError

    def layer_counts(self, ran):
        """Per-layer counts read from one round's outputs rather than from spans."""
        return {"fastcheck.checkpoints": 0, "fastcheck.projdim_excess": 0}


class CurveR1(Workload):
    """regular_in_codimension(1, ...) on the curve, one op per loop seed.

    Each op gets its own copy of the curve, every generator scaled by a
    nonzero constant drawn from the seed: the ideal, the Jacobian's zero
    pattern and the loop's path stay the same.
    """

    name = "curve-r1"

    def __init__(self, seed):
        super().__init__(seed)
        for loop_seed in CURVE_LOOP_SEEDS:
            gens = "; ".join(f"{self.rng.randrange(1, P)}*({g})" for g in CURVE_GENERATORS)
            self.texts.append(f"ring: {P}; {', '.join(CURVE_VARS)}\nideal: {gens}\n")
        self.perm = list(range(len(CURVE_VARS)))
        self.rng.shuffle(self.perm)
        self.ops = self.shuffled(
            Op(f"seed {s}", i, self._op(s), _curve_summary) for i, s in enumerate(CURVE_LOOP_SEEDS)
        )

    @staticmethod
    def _op(loop_seed):
        def run(pm, problem):
            fc = pm.fastcheck
            return fc.regular_in_codimension(
                1, pm.gbasis.RingPresentation(problem.ideal), fc.MinorLoopConfig(),
                random.Random(loop_seed))
        return run

    def check(self, pm, problems, ran):
        order = pm.polyring.MonomialOrder(pm.polyring.GREVLEX, tuple(self.perm))
        errors = []
        for op, report in ran:
            gens = problems[op.problem].ideal.generators
            basis = pm.gbasis.buchberger(list(gens) + list(report.minors), order)
            errors += [f"{op.label}: {e}" for e in
                       checks.check_curve(report, basis, self.perm, len(CURVE_VARS))]
        return errors

    def layer_counts(self, ran):
        checkpoints = sum(len(report.dimension_history) for _, report in ran)
        return {"fastcheck.checkpoints": checkpoints, "fastcheck.projdim_excess": 0}


def _curve_summary(report):
    return (report.result, report.dimension), report.considered, report.computed


class RankMinors(Workload):
    """Rank queries on A*B matrices and all 5x5 minors of a 6x7 matrix."""

    name = "rank-minors"

    def __init__(self, seed):
        super().__init__(seed)
        names = ("a", "b")
        linear, quadratic = monomials(2, 1), monomials(2, 2)
        self.products = []
        ops = []
        for index, seeds in enumerate(RANK_LOOP_SEEDS):
            while True:
                A = [[dense_poly(self.rng, linear) for _ in range(RANK_R)] for _ in range(RANK_ROWS)]
                B = [[dense_poly(self.rng, linear) for _ in range(RANK_COLS)] for _ in range(RANK_R)]
                M = matmul(A, B, P)
                if any(len(e) < len(quadratic) for row in M for e in row):
                    continue  # a coefficient cancelled; supports must not depend on the seed
                grids = self._grids(A, B)
                if not checks.check_rank_at_points(grids, RANK_R, P):
                    break
            self.products.append((A, B, grids))
            self.texts.append(f"ring: {P}; a, b\nmatrix: {matrix_text(M, names)}\n")
            ops.append(Op(f"m{index} rank queries", index, _rank_queries(seeds), _plain))
        forms = monomials(2, MINOR_DEGREE)
        forms = [m for m in forms if sum(m) == MINOR_DEGREE]
        self.minor_entries = [
            [{m: self._nonzero_int() for m in forms} for _ in range(MINOR_COLS)]
            for _ in range(MINOR_ROWS)
        ]
        self.texts.append(f"ring: 0; x, y\nmatrix: {matrix_text(self.minor_entries, ('x', 'y'))}\n")
        ops.append(Op(f"recursive {MINOR_SIZE}x{MINOR_SIZE} minors", len(self.texts) - 1,
                      _recursive_op, _minors_summary))
        self.ops = self.shuffled(ops)

    def _nonzero_int(self):
        return self.rng.choice([c for c in range(-50, 51) if c])

    def _grids(self, A, B):
        """A*B evaluated at CHECK_POINTS points drawn from the seed."""
        grids = []
        for _ in range(CHECK_POINTS):
            pt = [self.rng.randrange(1, P) for _ in range(2)]
            a = [[peval(e, pt, P) for e in row] for row in A]
            b = [[peval(e, pt, P) for e in row] for row in B]
            grids.append([[sum(x * y for x, y in zip(row, col)) % P for col in zip(*b)] for row in a])
        return grids

    def check(self, pm, problems, ran):
        errors = []
        for op, out in ran:
            if op.problem == len(self.products):
                targets = [(r, c) for r in combinations(range(MINOR_ROWS), MINOR_SIZE)
                           for c in combinations(range(MINOR_COLS), MINOR_SIZE)]
                points = [[self._nonzero_int() for _ in range(2)] for _ in range(2)]
                found = checks.check_minors(out, targets, self.minor_entries, points, 0)
            else:
                at_r, above_r, choice = out
                grids = self.products[op.problem][2]
                found = checks.check_rank_at_points(grids, RANK_R, P)
                found += checks.check_verdict(f"rank >= {RANK_R}", at_r, True)
                found += checks.check_verdict(f"rank >= {RANK_R + 1}", above_r, False)
                found += checks.check_submatrix(choice, grids, RANK_R, P)
            errors += [f"{op.label}: {e}" for e in found]
        return errors


def _rank_queries(loop_seeds):
    """is_rank_at_least at r and r + 1, then get_submatrix_of_rank(r)."""
    def run(pm, problem):
        fc = pm.fastcheck
        s1, s2, s3 = (random.Random(s) for s in loop_seeds)
        M = problem.matrix
        return (fc.is_rank_at_least(RANK_R, M, fc.MinorLoopConfig(), s1),
                fc.is_rank_at_least(RANK_R + 1, M, fc.MinorLoopConfig(), s2),
                fc.get_submatrix_of_rank(RANK_R, M, fc.MinorLoopConfig(), s3))
    return run


def _recursive_op(pm, problem):
    return pm.polylinalg.recursive_minors(MINOR_SIZE, problem.matrix)


def _plain(out):
    return out, None, None


def _minors_summary(minors):
    return tuple(minors), None, None


class ProjdimSplit(Workload):
    """proj_dim_upper_bound on Koszul complexes with hidden split tails.

    The Koszul complex on x1..xk resolves R/(x1..xk), of projective
    dimension k.  Trivial complexes R^A -> R^A (degrees k+1 -> k) and
    R^B -> R^B (degrees k+2 -> k+1) are added, which makes the length k + 2,
    and the three tail modules get a change of basis U, a product of
    elementary matrices I + f*E_ij with f dense of degree
    PROJDIM_FACTOR_DEGREE.  A draw in which some minor of a split map is a
    nonzero constant is redrawn, so certifying each split needs is_unit_ideal.

    The U's come from a fixed structure seed per complex.  The seed scales
    the variables (x_i -> c_i x_i) and each tail basis vector by nonzero
    constants, which changes every coefficient but no support, zero minor or
    unit ideal, so the loop takes the same path for every seed.
    """

    name = "projdim-split"

    def __init__(self, seed):
        super().__init__(seed)
        self.complexes = []
        ops = []
        for index, (k, loop_seed) in enumerate(zip(PROJDIM_KS, PROJDIM_LOOP_SEEDS)):
            structure = random.Random(f"{self.name}:structure:{index}")
            maps, bases = self.hidden_koszul(k, structure)
            self.complexes.append((k, len(maps), bases))
            names = [f"x{i}" for i in range(1, k + 1)]
            body = "; ".join(f"d{i + 1}={matrix_text(d, names)}" for i, d in enumerate(maps))
            self.texts.append(f"ring: {P}; {', '.join(names)}\ncomplex: {body}\n")
            ops.append(Op(f"koszul k={k}", index, _projdim_op(loop_seed), _plain))
        self.ops = self.shuffled(ops)

    @staticmethod
    def _unimodular(size, k, rng):
        """(U, U^-1) for U a product of elementary matrices I + f*E_ij."""
        if size == 1:
            c = rng.randrange(1, P)
            return [[pconst(c, k, P)]], [[pconst(pow(c, P - 2, P), k, P)]]
        monos = monomials(k, PROJDIM_FACTOR_DEGREE)
        U = V = identity(size, k, P)
        lower = [(i + 1, i) for i in range(size - 1)]
        for i, j in lower + [(j, i) for i, j in lower] + lower:
            f = dense_poly(rng, monos)
            E, E_inv = identity(size, k, P), identity(size, k, P)
            E[i][j] = f
            E_inv[i][j] = {m: (-c) % P for m, c in f.items()}
            U, V = matmul(U, E, P), matmul(E_inv, V, P)
        return U, V

    def _scaled(self, U, U_inv, scale):
        """(U(c x) * D, D^-1 * U^-1(c x)) for a diagonal D drawn from the seed."""
        d = [self.rng.randrange(1, P) for _ in U]
        U = [[pscale(substitute(e, scale, P), d[j], P) for j, e in enumerate(row)] for row in U]
        U_inv = [[pscale(substitute(e, scale, P), pow(d[i], P - 2, P), P) for e in row]
                 for i, row in enumerate(U_inv)]
        return U, U_inv

    def hidden_koszul(self, k, structure):
        """The complex's maps and the (U, U^-1) pairs of its three tail modules."""
        a, b = PROJDIM_A, PROJDIM_B
        scale = [self.rng.randrange(1, P) for _ in range(k)]
        maps = [[[substitute(e, scale, P) for e in row] for row in d] for d in koszul_maps(k)]
        tail = [row + [{}] * a for row in maps[-1]]
        split1 = [[pconst(1 if i == j + 1 else 0, k, P) for j in range(a + b)] for i in range(1 + a)]
        split2 = [[pconst(1 if i == j + a else 0, k, P) for j in range(b)] for i in range(a + b)]
        for _ in range(UNIT_MINOR_REDRAWS):
            bases = [self._scaled(*self._unimodular(size, k, structure), scale)
                     for size in (1 + a, a + b, b)]
            (U0, U0i), (U1, U1i), (U2, U2i) = bases
            hidden = [
                matmul(tail, U0, P),
                matmul(matmul(U0i, split1, P), U1, P),
                matmul(matmul(U1i, split2, P), U2, P),
            ]
            unit_minor = any(
                m and is_constant(m)
                for d, rank in ((hidden[1], a), (hidden[2], b))
                for m in all_minors(d, rank, P)
            )
            if not unit_minor:
                return maps[:-1] + hidden, bases
        raise RuntimeError(f"every draw of the k={k} tail had a constant minor")

    def check(self, pm, problems, ran):
        errors = []
        for op, bound in ran:
            k, length, bases = self.complexes[op.problem]
            found = checks.check_projdim(bound, k, length)
            for U, U_inv in bases:
                found += checks.check_inverse(U, U_inv, k, P)
            errors += [f"{op.label}: {e}" for e in found]
        return errors

    def layer_counts(self, ran):
        excess = sum(bound - self.complexes[op.problem][0] for op, bound in ran)
        return {"fastcheck.checkpoints": 0, "fastcheck.projdim_excess": excess}


def koszul_maps(k):
    """d_1..d_k of the Koszul complex on x1..xk over GF(P)."""
    maps = []
    for i in range(1, k + 1):
        rows = list(combinations(range(k), i - 1))
        cols = list(combinations(range(k), i))
        d = []
        for S in rows:
            row = []
            for T in cols:
                entry = {}
                if set(S) <= set(T):
                    (j,) = set(T) - set(S)
                    e = tuple(1 if v == j else 0 for v in range(k))
                    entry = {e: 1 if T.index(j) % 2 == 0 else P - 1}
                row.append(entry)
            d.append(row)
        maps.append(d)
    return maps


def _projdim_op(loop_seed):
    def run(pm, problem):
        fc = pm.fastcheck
        return fc.proj_dim_upper_bound(problem.complex, 0, fc.MinorLoopConfig(), random.Random(loop_seed))
    return run


WORKLOADS = {w.name: w for w in (CurveR1, RankMinors, ProjdimSplit)}
