"""Determinant engines and their exact division, recursive all-minors, ranks, and the Jacobian."""

import math
import random
from fractions import Fraction
from itertools import combinations
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyminors import (
    GF,
    QQ,
    PolyMatrix,
    PolyRing,
    SubmatrixChoice,
    count_possible_minors,
    det_bareiss,
    det_cofactor,
    determinant,
    jacobian,
    numeric_rank,
    recursive_minors,
    symbolic_rank,
)
from polyminors.polylinalg import (
    MatrixShapeError,
    MinorTableTooLargeError,
    _divide,
    identity_matrix,
    random_matrix,
)
from polyminors.polyring import (
    MAX_EXPONENT,
    ExponentOverflowError,
    PolyError,
    Polynomial,
    _packed_line,
    random_polynomial,
)
from tests.test_polyring import assert_canonical, fractional_polynomial


def brute_force_minors(k, M):
    return [
        det_bareiss(M.submatrix(SubmatrixChoice(r, c)))
        for r in combinations(range(M.nrows), k)
        for c in combinations(range(M.ncols), k)
    ]


def eliminated_determinant(grid, field):
    """The determinant of a square grid of field elements by Gaussian elimination.

    Plain Fraction or mod-p int arithmetic, sharing no code with the
    polynomial product.
    """
    p = field.characteristic
    grid = [list(row) for row in grid]
    det = 1
    for k in range(len(grid)):
        pivot = next((i for i in range(k, len(grid)) if grid[i][k]), None)
        if pivot is None:
            return field.zero
        if pivot != k:
            grid[k], grid[pivot] = grid[pivot], grid[k]
            det = -det
        det *= grid[k][k]
        inv = pow(grid[k][k], p - 2, p) if p else 1 / grid[k][k]
        for i in range(k + 1, len(grid)):
            factor = grid[i][k] * inv
            grid[i] = [(a - factor * b) % p if p else a - factor * b for a, b in zip(grid[i], grid[k])]
    return det % p if p else Fraction(det)


class TestSubmatrixChoice:
    def test_key_is_order_independent(self):
        a = SubmatrixChoice((2, 0), (1, 3))
        b = SubmatrixChoice((0, 2), (3, 1))
        assert a.key() == b.key()

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(MatrixShapeError):
            SubmatrixChoice((0,), (0, 1))

    def test_rejects_repeats(self):
        with pytest.raises(MatrixShapeError):
            SubmatrixChoice((0, 0), (0, 1))


class TestPolyMatrix:
    def test_ragged_rows_rejected(self):
        ring = PolyRing(QQ, ["x"])
        with pytest.raises(MatrixShapeError):
            PolyMatrix(ring, [[ring.one()], [ring.one(), ring.one()]])

    def test_submatrix_and_transpose(self):
        ring = PolyRing(QQ, ["x", "y"])
        M = random_matrix(ring, 3, 4, 2, random.Random(0))
        sub = M.submatrix(SubmatrixChoice((2, 0), (3, 1)))
        assert sub[0, 0] == M[2, 3]
        assert M.transpose()[1, 2] == M[2, 1]

    def test_out_of_range_index(self):
        ring = PolyRing(QQ, ["x"])
        M = identity_matrix(ring, 2)
        with pytest.raises(MatrixShapeError):
            M.submatrix(SubmatrixChoice((0, 5), (0, 1)))


@st.composite
def matrix_pairs(draw):
    """(A, B) with a shared inner dimension over GF(101) or QQ with denominators.

    Exponents are mostly below 4, so entries cancel, and one in eight is
    just below or at MAX_EXPONENT / 2 or MAX_EXPONENT - 1, so some products
    overflow.
    """
    ring = PolyRing(draw(st.sampled_from([GF(101), QQ])), ["x", "y"])
    big = st.sampled_from([MAX_EXPONENT // 2 - 1, MAX_EXPONENT // 2, MAX_EXPONENT - 1])
    exponent = st.integers(0, 7).flatmap(lambda r: big if r == 0 else st.integers(0, 3))
    if ring.field.is_prime_field:
        coefficient = st.integers(0, 100)
    else:
        coefficient = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    entry = st.lists(st.tuples(coefficient, st.tuples(exponent, exponent)), max_size=4).map(ring.from_terms)
    m, k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    A = PolyMatrix(ring, draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m)))
    B = PolyMatrix(ring, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k)))
    return A, B


class TestMatrixProduct:
    @settings(max_examples=300, deadline=None)
    @given(matrix_pairs())
    def test_product_is_the_sum_of_polynomial_products(self, pair):
        # Entry (i, j) is sum_k A[i, k] * B[k, j], summed term pair by term
        # pair through from_terms, a path independent of the product kernel
        # that Polynomial.__mul__ shares.  from_terms rejects an exponent of
        # MAX_EXPONENT or more, and the product overflows exactly when one
        # term pair does.
        A, B = pair
        try:
            expected = [
                [
                    A.ring.from_terms(
                        (ca * cb, tuple(map(add, ma, mb)))
                        for k in range(A.ncols)
                        for ma, ca in A[i, k].terms.items()
                        for mb, cb in B[k, j].terms.items()
                    )
                    for j in range(B.ncols)
                ]
                for i in range(A.nrows)
            ]
        except ExponentOverflowError:
            with pytest.raises(ExponentOverflowError):
                A * B
            return
        product = A * B
        assert product.shape == (A.nrows, B.ncols)
        assert [list(row) for row in product.entries] == expected
        for row in product.entries:
            for e in row:
                for m, c in e.terms.items():
                    assert type(m) is tuple and all(type(v) is int for v in m)
                    assert type(c) is (int if A.ring.field.is_prime_field else Fraction) and c

    def test_shapes_must_compose(self):
        ring = PolyRing(QQ, ["x"])
        with pytest.raises(MatrixShapeError):
            identity_matrix(ring, 2) * identity_matrix(ring, 3)


class TestDeterminants:
    def test_identity(self):
        ring = PolyRing(QQ, ["x"])
        M = identity_matrix(ring, 4)
        for engine in ("bareiss", "cofactor", "recursive"):
            assert determinant(M, engine) == ring.one()

    def test_singular_matrix(self):
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        M = PolyMatrix(ring, [[x, y], [x * y, y * y]])
        assert det_bareiss(M).is_zero()
        assert det_cofactor(M).is_zero()

    def test_non_square_rejected(self):
        ring = PolyRing(QQ, ["x"])
        M = random_matrix(ring, 2, 3, 1, random.Random(0))
        for engine in ("bareiss", "cofactor", "recursive"):
            with pytest.raises(MatrixShapeError):
                determinant(M, engine)

    @pytest.mark.parametrize("char, denominators", [(0, False), (101, False), (0, True)],
                             ids=["0", "101", "0-denominators"])
    def test_engine_agreement_random(self, char, denominators):
        # Acceptance criterion 9 ingredient: 200 random matrices, 3 engines.
        # With denominators, QQ entries have non-integer coefficients, so the
        # Bareiss and recursive kernels scale rows to integers and back.
        rng = random.Random("denominators" if denominators else char)
        field = QQ if char == 0 else GF(char)
        ring = PolyRing(field, ["x", "y"])
        for trial in range(100):
            n = rng.choice([2, 3])
            if denominators:
                M = PolyMatrix(ring, [[fractional_polynomial(ring, 2, rng) for _ in range(n)]
                                      for _ in range(n)])
            else:
                M = random_matrix(ring, n, n, 2, rng)
            d1 = det_bareiss(M)
            d2 = det_cofactor(M)
            d3 = determinant(M, "recursive")
            assert d1 == d2 == d3, f"engines disagree on trial {trial}"
            assert_canonical(d1)

    @pytest.mark.parametrize("field", [GF(101), QQ], ids=["GF101", "QQ"])
    def test_engines_agree_at_the_exponent_limit(self, field):
        # The first column's maxima sum past MAX_EXPONENT - 1, but no entry
        # times a cofactor does, so every engine computes the determinant.
        ring = PolyRing(field, ["x", "y"])
        for rows, det in [
            ([["x^40000", "1"], ["x^40000", "1"]], "0"),
            ([["x^40000", "y"], ["x", "1"]], "x^40000 - x*y"),
        ]:
            M = PolyMatrix(ring, [[ring.parse(e) for e in row] for row in rows])
            for engine in ("bareiss", "cofactor", "recursive"):
                assert determinant(M, engine) == ring.parse(det), engine

    @pytest.mark.parametrize("field", [GF(101), QQ], ids=["GF101", "QQ"])
    def test_minors_match_evaluated_determinants(self, field):
        # Every engine multiplies through one product kernel, so agreement
        # between engines cannot catch a fault in it.  Evaluation and
        # eliminated_determinant share no code with that kernel.
        rng = random.Random(f"evaluated-{field}")
        ring = PolyRing(field, ["x", "y", "z"])
        draw = fractional_polynomial if field == QQ else random_polynomial
        for trial in range(6):
            nrows, ncols = rng.choice([(3, 3), (3, 4), (4, 4)])
            M = PolyMatrix(ring, [
                [draw(ring, 2, rng) if rng.random() < 0.85 else ring.zero() for _ in range(ncols)]
                for _ in range(nrows)
            ])
            points = [[field.random_element(rng) for _ in range(3)] for _ in range(3)]
            for k in range(1, nrows + 1):
                choices = [SubmatrixChoice(r, c) for r in combinations(range(nrows), k)
                           for c in combinations(range(ncols), k)]
                minors = {
                    "bareiss": [det_bareiss(M.submatrix(c)) for c in choices],
                    "cofactor": [det_cofactor(M.submatrix(c)) for c in choices],
                    "recursive": recursive_minors(k, M),
                }
                for point in points:
                    expected = [eliminated_determinant(M.submatrix(c).evaluate(point), field)
                                for c in choices]
                    for engine, values in minors.items():
                        assert [m.evaluate(point) for m in values] == expected, (engine, trial, k)

    def test_row_swap_flips_sign(self):
        ring = PolyRing(QQ, ["x", "y"])
        M = random_matrix(ring, 3, 3, 2, random.Random(5))
        swapped = PolyMatrix(ring, [M.entries[1], M.entries[0], M.entries[2]])
        assert det_bareiss(swapped) == -det_bareiss(M)

    def test_multiplicativity(self):
        ring = PolyRing(GF(101), ["x", "y"])
        rng = random.Random(9)
        for _ in range(10):
            A = random_matrix(ring, 3, 3, 1, rng)
            B = random_matrix(ring, 3, 3, 1, rng)
            assert det_bareiss(A * B) == det_bareiss(A) * det_bareiss(B)

    def test_transpose_invariance(self):
        ring = PolyRing(QQ, ["x", "y"])
        M = random_matrix(ring, 3, 3, 2, random.Random(11))
        assert det_bareiss(M.transpose()) == det_bareiss(M)

    def test_zero_pivot_column_handled(self):
        ring = PolyRing(QQ, ["x"])
        x = ring.gens()[0]
        z = ring.zero()
        M = PolyMatrix(ring, [[z, x], [x, z]])
        assert det_bareiss(M) == -(x * x)


class TestBareissOverflow:
    """Where the Bareiss products pass MAX_EXPONENT - 1, elimination raises."""

    @staticmethod
    def matrix(rows):
        ring = PolyRing(GF(101), ["x", "y"])
        return PolyMatrix(ring, [[ring.parse(e) for e in row] for row in rows])

    @pytest.mark.parametrize("rows", [
        # pivot * a_11 = x^80000 at the first step.
        [["x^40000", "1"], ["1", "x^40000"]],
        # The determinant x^40000 fits, but pivot * a_11 does not.
        [["x^40000", "x^40000"], ["x^40000", "x^40000 + 1"]],
        # Only the second step's pivot * a_22 passes the limit.
        [["1", "0", "0"], ["0", "x^30000", "0"], ["0", "0", "x^40000*y"]],
        # The second step multiplies entries the first one grew:
        # x^40000 * x^50000.
        [["x^20000", "0", "0"], ["0", "x^20000", "0"], ["0", "0", "x^30000"]],
        # After a row swap (det) or a column swap (rank).
        [["0", "x^40000"], ["x^40000", "1"]],
    ])
    def test_raises(self, rows):
        M = self.matrix(rows)
        with pytest.raises(ExponentOverflowError):
            det_bareiss(M)
        with pytest.raises(ExponentOverflowError):
            symbolic_rank(M)

    def test_fits_at_the_limit(self):
        # x^30000*y * x^35535 has exponent MAX_EXPONENT - 1.
        M = self.matrix([["x^30000*y", "1"], ["1", "x^35535"]])
        assert det_bareiss(M) == M.ring.parse("x^65535*y - 1")
        assert symbolic_rank(M) == 2
        # A zero entry is never multiplied, so x^40000 twice raises nothing.
        M = self.matrix([["x^40000", "0"], ["x^40000", "0"]])
        assert det_bareiss(M).is_zero()
        assert symbolic_rank(M) == 1


def kernel_quotient(f, g):
    """f / g by the elimination kernel's heap division on packed Lex words.

    Over QQ the kernel divides integer numerators, so f and g must have
    integer coefficients.
    """
    ring = f.ring
    p = ring.field.characteristic
    packing = ring.word_packing
    (f_scale, [(_, num)]), (g_scale, [(top, den)]) = (
        _packed_line(packing, [f], p), _packed_line(packing, [g], p))
    assert f_scale == g_scale == 1
    q = _divide(dict(num), (top, den), p, packing.guard)
    return Polynomial(ring, {packing.unpack(w): c if p else Fraction(c) for w, c in q.items()})


def integral(f):
    """f times the common denominator of its coefficients."""
    return f.scalar_mul(math.lcm(*[c.denominator for c in f.terms.values()]))


class TestExactDivision:
    def test_exact_divide(self, rng):
        ring_xy = PolyRing(QQ, ["x", "y"])
        ring_p = PolyRing(GF(101), ["x", "y", "z"])
        ring_big_p = PolyRing(GF(2**31 - 1), ["x", "y", "z"])
        draws = [
            lambda degree: random_polynomial(ring_xy, degree, rng),
            lambda degree: integral(fractional_polynomial(ring_xy, degree, rng)),
            lambda degree: random_polynomial(ring_big_p, degree, rng),
            lambda degree: random_polynomial(ring_p, degree, rng),
        ]
        for draw in draws:
            for _ in range(20):
                f = draw(3)
                g = draw(3)
                if g.is_zero():
                    continue
                q = kernel_quotient(f * g, g)
                assert q == f
                assert_canonical(q)
        # Remainder terms cancel here, so some popped words are no longer in
        # the remainder and are skipped.
        f = ring_p.parse("x^2 + x*y - y^2 + z")
        g = ring_p.parse("x^2 + x*y + y^2 + z")
        assert kernel_quotient(f * g, g) == f
        assert kernel_quotient(f * g, f) == g

    def test_exponent_overflow_in_exact_divide(self):
        # The first quotient term y^65535 times the divisor's top word x*y
        # passes the limit.
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        with pytest.raises(ExponentOverflowError):
            kernel_quotient(ring.from_terms([(1, (1, MAX_EXPONENT - 1))]), x + y)

    def test_inexact_divide_raises(self):
        ring = PolyRing(QQ, ["x", "y"])
        with pytest.raises(PolyError, match="inexact polynomial division"):
            kernel_quotient(ring.parse("x^2 + 1"), ring.parse("y"))
        # Over ZZ the lead coefficient must divide exactly too.
        with pytest.raises(PolyError, match="inexact polynomial division"):
            kernel_quotient(ring.parse("3*x"), ring.parse("2*x"))


class TestRecursiveMinors:
    def test_matches_brute_force_5x6(self):
        # Acceptance criterion 9 ingredient: 5x6 / k=4 against brute force.
        ring = PolyRing(GF(101), ["x", "y"])
        M = random_matrix(ring, 5, 6, 2, random.Random(3))
        assert recursive_minors(4, M) == brute_force_minors(4, M)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force_small(self, k):
        ring = PolyRing(QQ, ["x", "y"])
        M = random_matrix(ring, 3, 4, 2, random.Random(k))
        assert recursive_minors(k, M) == brute_force_minors(k, M)

    def test_output_count_and_order(self):
        ring = PolyRing(QQ, ["x"])
        M = random_matrix(ring, 4, 5, 1, random.Random(2))
        out = recursive_minors(2, M)
        assert len(out) == count_possible_minors(4, 5, 2)

    def test_size_out_of_range(self):
        ring = PolyRing(QQ, ["x"])
        M = identity_matrix(ring, 3)
        with pytest.raises(Exception):
            recursive_minors(4, M)

    def test_table_cap(self):
        ring = PolyRing(QQ, ["x"])
        M = random_matrix(ring, 8, 9, 1, random.Random(1))
        with pytest.raises(MinorTableTooLargeError):
            recursive_minors(5, M, table_cap=10)

    @staticmethod
    def rational_matrix(seed):
        """4 x 5 over QQ[x, y]: rows with different denominators and signs, one zero row."""
        rng = random.Random(seed)
        ring = PolyRing(QQ, ["x", "y"])
        M = random_matrix(ring, 4, 5, 2, rng)
        rows = []
        for i, row in enumerate(M.entries):
            den = rng.choice([1, 2, 3, 7, 12])
            rows.append([
                ring.zero() if i == 2 or rng.random() < 0.2
                else e.scalar_mul(Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), den))
                for e in row
            ])
        return PolyMatrix(ring, rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rational_rows_with_denominators(self, seed):
        M = self.rational_matrix(seed)
        assert any(c.denominator > 1 for row in M.entries for e in row for c in e.terms.values())
        for k in (2, 3, 4):
            out = recursive_minors(k, M)
            assert out == brute_force_minors(k, M)
            for m in out:
                for c in m.terms.values():
                    assert type(c) is Fraction and c
        # Every 4 x 4 minor uses the zero row 2.
        assert all(m.is_zero() for m in recursive_minors(4, M))
        assert any(not m.is_zero() for m in recursive_minors(3, M))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_square_rational_matches_cofactor(self, seed):
        M = self.rational_matrix(seed)
        square = M.submatrix(SubmatrixChoice((0, 1, 3), (0, 2, 4)))
        assert recursive_minors(3, square) == [det_cofactor(square)]
        assert determinant(square, "recursive") == det_cofactor(square)

    def test_prime_field_coefficients_are_reduced(self):
        p = 7
        ring = PolyRing(GF(p), ["x", "y", "z"])
        M = random_matrix(ring, 5, 5, 2, random.Random(4))
        rows = [list(row) for row in M.entries]
        rows[1][3] = ring.zero()
        M = PolyMatrix(ring, rows)
        for k in (2, 3, 5):
            out = recursive_minors(k, M)
            assert out == brute_force_minors(k, M)
            for m in out:
                for c in m.terms.values():
                    assert type(c) is int and 0 < c < p
        assert recursive_minors(5, M) == [det_cofactor(M)]

    def test_exponent_overflow_raises(self):
        # The 2 x 2 minor of diag(x^40000, x^40000) would need x^80000.
        ring = PolyRing(GF(101), ["x", "y"])
        big = ring.parse("x^40000")
        M = PolyMatrix(ring, [[big, ring.zero()], [ring.zero(), big]])
        with pytest.raises(ExponentOverflowError):
            recursive_minors(2, M)
        with pytest.raises(ExponentOverflowError):
            determinant(M, "recursive")
        # The 1 x 1 minors are the entries, which fit.
        assert recursive_minors(1, M)[0] == big

    def test_exponent_limit_is_exact(self):
        # x^30000 * x^35535 has exponent MAX_EXPONENT - 1 and fits; one more does not.
        ring = PolyRing(QQ, ["x", "y"])
        a, b = ring.parse("x^30000*y"), ring.parse("1/3*x^35535")
        M = PolyMatrix(ring, [[a, ring.one()], [ring.zero(), b]])
        assert recursive_minors(2, M) == [a * b]
        M = PolyMatrix(ring, [[a * ring.parse("x"), ring.one()], [ring.zero(), b]])
        with pytest.raises(ExponentOverflowError):
            recursive_minors(2, M)


class TestRanks:
    def test_numeric_rank_pivots(self):
        field = GF(5)
        grid = [[4, 0, 0], [3, 3, 4], [3, 0, 0]]
        rank, prows, pcols = numeric_rank(grid, field)
        assert rank == 2
        assert prows == [0, 1]
        assert pcols == [0, 1]

    def test_symbolic_rank_full(self):
        ring = PolyRing(QQ, ["x", "y"])
        rng = random.Random(4)
        M = random_matrix(ring, 3, 3, 1, rng)
        if not det_bareiss(M).is_zero():
            assert symbolic_rank(M) == 3
        # Non-integer coefficients, which the kernel scales away row by row.
        F = PolyMatrix(ring, [[fractional_polynomial(ring, 1, rng) for _ in range(3)] for _ in range(3)])
        assert not det_cofactor(F).is_zero()
        assert symbolic_rank(F) == 3

    def test_symbolic_rank_degenerate(self):
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        M = PolyMatrix(ring, [[x, y], [x * x, x * y]])
        assert symbolic_rank(M) == 1
        # A zero first column: the pivot needs a column swap.
        z = ring.zero()
        assert symbolic_rank(PolyMatrix(ring, [[z, x, y], [z, x * x, x * y + 1]])) == 2
        # The second row is 4/3*x times the first.
        M = PolyMatrix(ring, [[x * Fraction(1, 2), y * Fraction(3, 7)],
                              [x * x * Fraction(2, 3), x * y * Fraction(4, 7)]])
        assert symbolic_rank(M) == 1
        # A 3 x 3 product through a 2-dimensional middle, with denominators.
        rng = random.Random(6)
        A = PolyMatrix(ring, [[fractional_polynomial(ring, 1, rng) for _ in range(2)] for _ in range(3)])
        B = PolyMatrix(ring, [[fractional_polynomial(ring, 1, rng) for _ in range(3)] for _ in range(2)])
        assert symbolic_rank(A) == symbolic_rank(A * B) == 2

    def test_specialization_rank_bounded_by_symbolic(self):
        # Acceptance criterion 9 ingredient: 500 random (matrix, point) pairs.
        rng = random.Random(12)
        ring = PolyRing(GF(101), ["x", "y", "z"])
        for _ in range(500):
            M = random_matrix(ring, rng.choice([2, 3]), rng.choice([2, 3]), 1, rng)
            sym = symbolic_rank(M)
            pt = [rng.randrange(101) for _ in range(3)]
            num, _, _ = numeric_rank(M.evaluate(pt), ring.field)
            assert num <= sym


class TestJacobianAndCounts:
    def test_jacobian_shape_and_entries(self):
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        J = jacobian([x * x * y, x + y])
        assert J.shape == (2, 2)
        assert J[0, 0] == 2 * x * y  # d(x^2 y)/dx
        assert J[1, 0] == x * x
        assert J[0, 1] == ring.one()

    def test_count_possible_minors(self):
        assert count_possible_minors(7, 12, 4) == 17325
        assert count_possible_minors(10, 15, 5) == 756756
        with pytest.raises(Exception):
            count_possible_minors(3, 3, 4)
