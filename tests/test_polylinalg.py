"""Determinant engines, recursive all-minors, ranks, and the Jacobian."""

import random
from fractions import Fraction
from itertools import combinations

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
    identity_matrix,
    random_matrix,
)
from polyminors.polyring import MAX_EXPONENT, ExponentOverflowError


def brute_force_minors(k, M):
    return [
        det_bareiss(M.submatrix(SubmatrixChoice(r, c)))
        for r in combinations(range(M.nrows), k)
        for c in combinations(range(M.ncols), k)
    ]


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
        # Entry (i, j) is sum_k A[i, k] * B[k, j] formed with Polynomial
        # arithmetic; the product overflows exactly when one of those does.
        A, B = pair
        try:
            expected = [
                [sum((A[i, k] * B[k, j] for k in range(A.ncols)), A.ring.zero()) for j in range(B.ncols)]
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

    @pytest.mark.parametrize("char", [0, 101])
    def test_engine_agreement_random(self, char):
        # Acceptance criterion 9 ingredient: 200 random matrices, 3 engines.
        rng = random.Random(char)
        field = QQ if char == 0 else GF(char)
        ring = PolyRing(field, ["x", "y"])
        for trial in range(100):
            n = rng.choice([2, 3])
            M = random_matrix(ring, n, n, 2, rng)
            d1 = det_bareiss(M)
            d2 = det_cofactor(M)
            d3 = determinant(M, "recursive")
            assert d1 == d2 == d3, f"engines disagree on trial {trial}"

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
        M = random_matrix(ring, 3, 3, 1, random.Random(4))
        if not det_bareiss(M).is_zero():
            assert symbolic_rank(M) == 3

    def test_symbolic_rank_degenerate(self):
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        M = PolyMatrix(ring, [[x, y], [x * x, x * y]])
        assert symbolic_rank(M) == 1

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
