"""Determinant engines, recursive all-minors, ranks, and the Jacobian."""

import random
from itertools import combinations

import pytest

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
