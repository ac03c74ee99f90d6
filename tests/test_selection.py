"""Selection methods, strategy tables, point search, and chooseGoodMinors."""

import random

import pytest

from polyminors import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    Ideal,
    MonomialOrder,
    PolyMatrix,
    PolyRing,
    SelectionMethod,
    StrategyTable,
    WorkingMatrix,
    builtin_strategy,
    choose_good_minors,
    choose_submatrix_greedy,
    choose_submatrix_points,
    choose_submatrix_random,
    det_bareiss,
    find_point,
    parse_strategy,
)
from polyminors.polylinalg import random_matrix
from polyminors.selection import (
    MUTATION_RESET_PERIOD,
    MinorSelector,
    SelectionFailedError,
)
from polyminors.polyring import PolyError


class TestStrategyTable:
    def test_builtin_weights_sum_to_100(self):
        for name in (
            "StrategyDefault",
            "StrategyDefaultNonRandom",
            "StrategyDefaultWithPoints",
            "StrategyLexSmallest",
            "StrategyGRevLexSmallest",
            "StrategyPoints",
            "StrategyRandom",
        ):
            table = builtin_strategy(name)
            total = sum(table.weights.values())
            # 6x16, 16+4x8, and the even 100-point splits respectively.
            assert total in (96, 48, 100), name

    def test_draw_frequencies_within_3_sigma(self):
        table = builtin_strategy("StrategyDefault")
        rng = random.Random(42)
        n = 10_000
        counts = {m: 0 for m in SelectionMethod}
        for _ in range(n):
            counts[table.draw(rng)] += 1
        total = sum(table.weights.values())
        for method, w in table.weights.items():
            p = w / total
            sigma = (n * p * (1 - p)) ** 0.5
            assert abs(counts[method] - n * p) <= 3 * sigma, method

    def test_zero_weight_methods_never_drawn(self):
        table = builtin_strategy("StrategyRandom")
        rng = random.Random(1)
        drawn = {table.draw(rng) for _ in range(500)}
        assert drawn <= {SelectionMethod.RANDOM, SelectionMethod.RANDOM_NONZERO}

    def test_negative_weight_rejected(self):
        with pytest.raises(PolyError):
            StrategyTable({SelectionMethod.RANDOM: -1})

    def test_all_zero_rejected(self):
        with pytest.raises(PolyError):
            StrategyTable({SelectionMethod.RANDOM: 0})

    def test_parse_builtin_and_custom(self):
        assert parse_strategy("StrategyRandom") == builtin_strategy("StrategyRandom")
        single = parse_strategy("LexSmallest")
        assert single.weights[SelectionMethod.LEX_SMALLEST] == 100
        custom = parse_strategy("{LexSmallest: 30, Random: 70}")
        assert custom.weights[SelectionMethod.RANDOM] == 70

    def test_parse_garbage(self):
        with pytest.raises(PolyError):
            parse_strategy("NoSuchStrategy")
        with pytest.raises(PolyError):
            parse_strategy("{LexSmallest: eel}")


class TestGreedySelection:
    def test_monomial_example_all_orders(self, monomial_matrix):
        cases = [
            (MonomialOrder(LEX, (0, 1)), SelectionMethod.LEX_SMALLEST,
             ((0, 2), (0, 2))),
            (MonomialOrder(LEX, (1, 0)), SelectionMethod.LEX_SMALLEST,
             ((0, 1), (0, 1))),
            (MonomialOrder(GREVLEX, (1, 0)), SelectionMethod.GREVLEX_SMALLEST,
             ((0, 2), (0, 1))),
        ]
        for order, method, expected in cases:
            working = WorkingMatrix(monomial_matrix)
            choice = choose_submatrix_greedy(method, 2, working, random.Random(0), order=order)
            assert (choice.rows, choice.cols) == expected

    def test_order_kind_mismatch(self, monomial_matrix):
        working = WorkingMatrix(monomial_matrix)
        with pytest.raises(PolyError):
            choose_submatrix_greedy(
                SelectionMethod.LEX_SMALLEST, 2, working, random.Random(0),
                order=MonomialOrder(GREVLEX, (0, 1)),
            )

    def test_largest_prefers_high_degree(self, monomial_matrix):
        working = WorkingMatrix(monomial_matrix)
        choice = choose_submatrix_greedy(
            SelectionMethod.LEX_LARGEST, 1, working, random.Random(0),
            order=MonomialOrder(LEX, (0, 1)),
        )
        assert monomial_matrix[choice.rows[0], choice.cols[0]].total_degree() == 6

    def test_too_large_size(self, monomial_matrix):
        working = WorkingMatrix(monomial_matrix)
        with pytest.raises(SelectionFailedError):
            choose_submatrix_greedy(
                SelectionMethod.LEX_SMALLEST, 4, working, random.Random(0))

    def test_not_enough_nonzero_entries(self):
        ring = PolyRing(QQ, ["x"])
        x = ring.gens()[0]
        z = ring.zero()
        M = PolyMatrix(ring, [[x, z], [x, z]])
        with pytest.raises(SelectionFailedError):
            choose_submatrix_greedy(
                SelectionMethod.LEX_SMALLEST, 2, WorkingMatrix(M), random.Random(0))

    def test_tie_break_uses_rng(self):
        ring = PolyRing(QQ, ["x"])
        x = ring.gens()[0]
        M = PolyMatrix(ring, [[x, x], [x, x]])
        picks = set()
        for seed in range(40):
            choice = choose_submatrix_greedy(
                SelectionMethod.LEX_SMALLEST, 1, WorkingMatrix(M),
                random.Random(seed), order=MonomialOrder(LEX, (0,)))
            picks.add((choice.rows[0], choice.cols[0]))
        assert len(picks) == 4


class TestMutation:
    def test_grevlex_mutates_used_entries(self, monomial_matrix):
        working = WorkingMatrix(monomial_matrix)
        rng = random.Random(0)
        choice = choose_submatrix_greedy(
            SelectionMethod.GREVLEX_SMALLEST, 2, working, rng)
        i, j = choice.rows[0], choice.cols[0]
        assert working.mutated[i][j].total_degree() == \
            monomial_matrix[i, j].total_degree() + 1

    def test_lex_does_not_mutate(self, monomial_matrix):
        working = WorkingMatrix(monomial_matrix)
        choose_submatrix_greedy(
            SelectionMethod.LEX_SMALLEST, 2, working, random.Random(0))
        assert working.mutated == [list(r) for r in monomial_matrix.entries]

    def test_reset_after_period(self, monomial_matrix):
        working = WorkingMatrix(monomial_matrix)
        rng = random.Random(0)
        for _ in range(MUTATION_RESET_PERIOD):
            choose_submatrix_greedy(
                SelectionMethod.GREVLEX_SMALLEST, 2, working, rng)
        assert working.selections_since_reset == 0
        assert working.mutated == [list(r) for r in monomial_matrix.entries]


class TestRandomMethods:
    def test_random_shape(self):
        ring = PolyRing(QQ, ["x"])
        M = random_matrix(ring, 4, 5, 1, random.Random(0))
        choice = choose_submatrix_random(SelectionMethod.RANDOM, 3, M, random.Random(1))
        assert choice.size == 3

    def test_random_nonzero_avoids_zeros(self):
        ring = PolyRing(QQ, ["x"])
        x = ring.gens()[0]
        z = ring.zero()
        M = PolyMatrix(ring, [[x, z, z], [z, x, z], [z, z, x]])
        for seed in range(10):
            choice = choose_submatrix_random(
                SelectionMethod.RANDOM_NONZERO, 3, M, random.Random(seed))
            assert sorted(choice.rows) == sorted(choice.cols)

    def test_random_nonzero_failure(self):
        ring = PolyRing(QQ, ["x"])
        z = ring.zero()
        M = PolyMatrix(ring, [[z, z], [z, z]])
        with pytest.raises(SelectionFailedError):
            choose_submatrix_random(
                SelectionMethod.RANDOM_NONZERO, 1, M, random.Random(0))


class TestPoints:
    def test_find_point_on_curve(self, points_example):
        _, curve = points_example
        pt = find_point(curve, random.Random(0))
        assert pt is not None
        assert all(g.evaluate(pt) == 0 for g in curve.generators)

    def test_find_point_exhaustive_failure(self):
        # x^2 + 1 has no root mod 7, so 1 + x0^2 + x1^2... careful: pick an
        # ideal with provably no rational point: x^2 - 3 over GF(5) (3 is a
        # non-residue mod 5).
        ring = PolyRing(GF(5), ["x"])
        x = ring.gens()[0]
        assert find_point(Ideal([x * x - 3], ring), random.Random(0)) is None

    def test_worked_example_with_forced_point(self, points_example):
        M, _ = points_example
        choice = choose_submatrix_points(2, M, None, random.Random(0), point=(2, 0, 2))
        assert (choice.rows, choice.cols) == ((0, 1), (0, 1))
        minor = det_bareiss(M.submatrix(choice))
        ring = M.ring
        assert minor == ring.parse("x^4 + x^2*z^2 - x^4*y - x*y^4")

    def test_char_zero_degrades_to_random(self):
        ring = PolyRing(QQ, ["x"])
        M = random_matrix(ring, 3, 3, 1, random.Random(0))
        choice = choose_submatrix_points(2, M, Ideal([], ring), random.Random(1))
        assert choice.size == 2

    def test_rank_too_low(self, points_example):
        M, _ = points_example
        with pytest.raises(SelectionFailedError):
            choose_submatrix_points(3, M, None, random.Random(0), point=(2, 0, 2))


class TestMinorSelector:
    def test_degradation_on_zero_matrix(self):
        ring = PolyRing(QQ, ["x"])
        z = ring.zero()
        M = PolyMatrix(ring, [[z, z], [z, z]])
        selector = MinorSelector(M, builtin_strategy("StrategyDefaultNonRandom"),
                                 random.Random(0))
        choice = selector.next_choice(2)
        assert choice.size == 2  # fell through to plain Random

    def test_points_without_ideal(self, points_example):
        M, _ = points_example
        selector = MinorSelector(M, builtin_strategy("StrategyPoints"), random.Random(0))
        choice = selector.next_choice(2)
        assert choice.size == 2

    def test_draws_mark_repeats_and_stop_at_possible(self):
        # 2 x 2 matrix, size 1: four distinct submatrices in all.
        ring = PolyRing(GF(101), ["x"])
        M = random_matrix(ring, 2, 2, 1, random.Random(0))
        selector = MinorSelector(M, builtin_strategy("StrategyRandom"), random.Random(0))
        drawn = list(selector.draws(1, 100, possible=4))
        new = [c.key() for c in drawn if c is not None]
        assert len(new) == len(set(new)) == 4
        assert None in drawn  # some draw repeated an earlier submatrix
        assert drawn[-1] is not None  # the loop stopped at the fourth new one
        assert (selector.considered, selector.computed) == (len(drawn), 4)

    def test_draws_without_possible_stop_at_limit(self):
        ring = PolyRing(GF(101), ["x"])
        M = random_matrix(ring, 2, 2, 1, random.Random(0))
        selector = MinorSelector(M, builtin_strategy("StrategyRandom"), random.Random(0))
        drawn = list(selector.draws(1, 30))
        assert len(drawn) == selector.considered == 30
        assert selector.computed == sum(c is not None for c in drawn) == 4


class TestChooseGoodMinors:
    def test_dedup_contract(self):
        ring = PolyRing(GF(101), ["x", "y"])
        M = random_matrix(ring, 3, 3, 1, random.Random(0))
        ideal, stats = choose_good_minors(
            50, 2, M, builtin_strategy("StrategyRandom"), random.Random(0))
        assert stats["considered"] == 50
        assert stats["computed"] <= min(50, 9 * 9)
        assert len(ideal.generators) <= stats["computed"]

    def test_minors_really_are_minors(self):
        ring = PolyRing(QQ, ["x", "y"])
        M = random_matrix(ring, 3, 4, 1, random.Random(1))
        from polyminors.polylinalg import SubmatrixChoice
        from itertools import combinations
        all_minors = {
            str(det_bareiss(M.submatrix(SubmatrixChoice(r, c))))
            for r in combinations(range(3), 2)
            for c in combinations(range(4), 2)
        }
        ideal, _ = choose_good_minors(
            10, 2, M, builtin_strategy("StrategyDefault"), random.Random(2))
        # Selection order can permute rows/cols, flipping the minor's sign.
        for g in ideal.generators:
            assert str(g) in all_minors or str(-g) in all_minors

    def test_seed_reproducibility(self):
        ring = PolyRing(GF(101), ["x", "y"])
        M = random_matrix(ring, 4, 4, 1, random.Random(3))
        a = choose_good_minors(8, 2, M, builtin_strategy("StrategyDefault"),
                               random.Random(99))
        b = choose_good_minors(8, 2, M, builtin_strategy("StrategyDefault"),
                               random.Random(99))
        assert [str(g) for g in a[0].generators] == [str(g) for g in b[0].generators]
        assert a[1] == b[1]

    def test_size_out_of_range(self):
        ring = PolyRing(QQ, ["x"])
        M = random_matrix(ring, 2, 2, 1, random.Random(0))
        with pytest.raises(PolyError):
            choose_good_minors(1, 3, M, builtin_strategy("StrategyRandom"),
                               random.Random(0))
