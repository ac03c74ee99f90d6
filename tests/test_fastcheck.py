"""Checkpoints, budgets, rank search, regular-in-codimension, projective dimension."""

import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest

from polyminors import (
    GF,
    QQ,
    ChainComplexInput,
    GroebnerState,
    Ideal,
    LoopReport,
    MinorLoopConfig,
    PolyMatrix,
    PolyRing,
    RingPresentation,
    builtin_strategy,
    checkpoint_schedule,
    choose_good_minors,
    default_max_minors,
    default_min_minors,
    dim_quotient,
    get_submatrix_of_rank,
    is_rank_at_least,
    proj_dim_upper_bound,
    projdim_default_max_minors,
    regular_in_codimension,
    symbolic_rank,
)
from polyminors import fastcheck, gbasis
from polyminors.polylinalg import count_possible_minors, random_matrix, recursive_minors
from polyminors.selection import _BUILTIN_STRATEGIES
from polyminors.polyring import PolyError
from tests.conftest import SEC51_GENERATORS


def take(gen, n):
    return list(itertools.islice(gen, n))


class TestCheckpointSchedule:
    def test_paper_sequence(self):
        assert take(checkpoint_schedule(7, 1.3), 11) == [
            7, 9, 11, 14, 18, 24, 31, 40, 52, 67, 87]

    def test_base_two_sequence(self):
        assert take(checkpoint_schedule(1, 2.0), 5) == [1, 3, 5, 9, 17]

    def test_strictly_increasing(self):
        for base in (1.1, 1.3, 2.0, 10.0):
            seq = take(checkpoint_schedule(3, base), 30)
            assert all(b > a for a, b in zip(seq, seq[1:]))

    def test_min_minors_floor(self):
        assert take(checkpoint_schedule(0, 1.3), 1) == [1]
        assert take(checkpoint_schedule(12, 1.3), 1) == [12]

    def test_bad_base(self):
        with pytest.raises(PolyError):
            next(checkpoint_schedule(1, 1.0))


class TestDefaults:
    def test_banner_value(self):
        assert abs(default_max_minors(2, 17325) - 317.599) < 1e-3

    def test_min_minors(self):
        assert default_min_minors(2) == 7
        assert default_min_minors(1) == 5

    def test_projdim_budget(self):
        expected = 5 * 3 + 2 * math.log(100) / math.log(1.3)
        assert abs(projdim_default_max_minors(3, 100) - expected) < 1e-9

    def test_invalid_possible_count(self):
        with pytest.raises(PolyError):
            default_max_minors(1, 0)

    def test_config_resolution(self):
        cfg = MinorLoopConfig(max_minors=40)
        assert cfg.resolve_max_minors(2, 1000) == 40.0
        cfg = MinorLoopConfig(max_minors=lambda m, t: m * t)
        assert cfg.resolve_max_minors(2, 10) == 20.0
        cfg = MinorLoopConfig()
        assert cfg.resolve_max_minors(2, 17325) == pytest.approx(317.599, abs=1e-3)

    def test_nonsense_budgets_rejected(self):
        ring = PolyRing(GF(101), ["x"])
        M = random_matrix(ring, 3, 3, 1, random.Random(0))
        for bad in (-3, math.nan, lambda m, t: -1, lambda m, t: math.nan):
            cfg = MinorLoopConfig(max_minors=bad)
            with pytest.raises(PolyError):
                cfg.resolve_max_minors(1, 10)
            with pytest.raises(PolyError):
                get_submatrix_of_rank(1, M, cfg, random.Random(0))
        with pytest.raises(PolyError):
            choose_good_minors(-1, 2, M, builtin_strategy("StrategyDefault"), random.Random(0))
        assert MinorLoopConfig(max_minors=0).resolve_max_minors(1, 10) == 0.0
        assert MinorLoopConfig(max_minors=math.inf).resolve_max_minors(1, 10) == math.inf
        assert get_submatrix_of_rank(1, M, MinorLoopConfig(max_minors=0), random.Random(0)) is None


def small_matrix_corpus():
    rng = random.Random(77)
    ring = PolyRing(GF(101), ["x", "y"])
    corpus = []
    for _ in range(12):
        corpus.append(random_matrix(ring, rng.choice([2, 3]), rng.choice([2, 3]), 1, rng))
    # Structured low-rank cases.
    x, y = ring.gens()
    z = ring.zero()
    corpus.append(PolyMatrix(ring, [[x, y], [x * x, x * y]]))
    corpus.append(PolyMatrix(ring, [[z, z], [z, z]]))
    corpus.append(PolyMatrix(ring, [[x, z], [z, z]]))
    return corpus


def rank_search_matrices():
    """Two rank-3 GF(101) products of shape 5 x 6 and one rank-3 4 x 4 matrix over QQ."""
    gf = PolyRing(GF(101), ["a", "b"])
    qq = PolyRing(QQ, ["x", "y"])
    matrices = {}
    for seed in (11, 12):
        rng = random.Random(seed)
        A = random_matrix(gf, 5, 3, 1, rng)
        matrices[f"gf101-{seed}"] = A * random_matrix(gf, 3, 6, 1, rng)
    rng = random.Random(13)
    matrices["qq-13"] = random_matrix(qq, 4, 3, 1, rng) * random_matrix(qq, 3, 4, 1, rng)
    return matrices


def rank_search_pins(M):
    """Per r = 1..min(shape)+1: both verdicts, each with the next word of its rng."""
    out = []
    for r in range(1, min(M.shape) + 2):
        rng = random.Random(r)
        at_least = is_rank_at_least(r, M, MinorLoopConfig(), rng)
        at_least_next = rng.random()
        rng = random.Random(r)
        choice = get_submatrix_of_rank(r, M, MinorLoopConfig(), rng)
        choice_next = rng.random()
        out.append({
            "r": r,
            "is_rank_at_least": at_least,
            "is_rank_at_least_next": at_least_next,
            "choice": None if choice is None else [list(choice.rows), list(choice.cols)],
            "choice_next": choice_next,
        })
    return out


RANK_SEARCH_GOLDEN = Path(__file__).parent / "rank_search_golden.json"


class TestRankSearch:
    def test_exhaustive_agreement(self):
        # Acceptance criterion 9 ingredient: small-matrix exhaustive sweep.
        for M in small_matrix_corpus():
            true_rank = symbolic_rank(M)
            for n in range(0, min(M.shape) + 2):
                got = is_rank_at_least(n, M, MinorLoopConfig(), random.Random(n))
                assert got == (true_rank >= n), (str(M), n)

    def test_submatrix_of_rank_certificate(self):
        rng = random.Random(5)
        ring = PolyRing(GF(101), ["x", "y"])
        M = random_matrix(ring, 4, 5, 1, rng)
        r = symbolic_rank(M)
        choice = get_submatrix_of_rank(r, M, MinorLoopConfig(), rng)
        assert choice is not None
        assert symbolic_rank(M.submatrix(choice)) == r

    def test_submatrix_of_rank_too_large(self):
        ring = PolyRing(QQ, ["x"])
        M = random_matrix(ring, 2, 2, 1, random.Random(0))
        assert get_submatrix_of_rank(3, M, MinorLoopConfig(), random.Random(0)) is None

    def test_budget_exhaustion_returns_none(self):
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        M = PolyMatrix(ring, [[x, y], [x * x, x * y]])  # rank 1
        cfg = MinorLoopConfig(max_minors=5)
        assert get_submatrix_of_rank(2, M, cfg, random.Random(0)) is None

    def test_invalid_rank(self):
        ring = PolyRing(QQ, ["x"])
        M = random_matrix(ring, 2, 2, 1, random.Random(0))
        with pytest.raises(PolyError):
            get_submatrix_of_rank(0, M, MinorLoopConfig(), random.Random(0))

    def test_pinned_verdicts_choices_and_rng_stream(self):
        # The word drawn after each call pins how much of the stream it used.
        golden = json.loads(RANK_SEARCH_GOLDEN.read_text())
        matrices = rank_search_matrices()
        assert sorted(golden) == sorted(matrices)
        for name, M in matrices.items():
            assert symbolic_rank(M) == 3
            assert rank_search_pins(M) == golden[name], name

    def test_each_distinct_submatrix_certified_once(self, monkeypatch):
        # Rank 3, so no 4 x 4 certificate exists and the search runs until
        # every one of the possible submatrices has been drawn.
        rng = random.Random(11)
        ring = PolyRing(GF(101), ["a", "b"])
        M = random_matrix(ring, 5, 3, 1, rng) * random_matrix(ring, 3, 6, 1, rng)
        certified = []
        real = fastcheck._certify_rank

        def counting(sub, r, rng):
            certified.append(tuple(tuple(map(str, row)) for row in sub.entries))
            return real(sub, r, rng)

        monkeypatch.setattr(fastcheck, "_certify_rank", counting)
        cfg = MinorLoopConfig(max_minors=400)
        assert get_submatrix_of_rank(4, M, cfg, random.Random(0)) is None
        assert len(certified) == len(set(certified)) == count_possible_minors(5, 6, 4)

    def test_rank_queries_settle_without_exact_determinants(self, monkeypatch):
        M = rank_search_matrices()["gf101-11"]
        gf2 = PolyRing(GF(2), ["x"])
        (x,) = gf2.gens()
        # det = x^2 + x vanishes at both points of GF(2): no evaluation
        # certifies D, so the search needs its exact fallback to find it.
        D = PolyMatrix(gf2, [[x, gf2.zero()], [gf2.zero(), x + 1]])
        choice = get_submatrix_of_rank(2, D, MinorLoopConfig(), random.Random(0))
        assert choice is not None and sorted(choice.rows) == sorted(choice.cols) == [0, 1]

        def refuse(sub):
            raise AssertionError("exact determinant in a rank query")

        def refuse_draw(self, size):
            raise AssertionError("submatrix draw in a rank query")

        ranks = []

        def recording(matrix):
            ranks.append(symbolic_rank(matrix))
            return ranks[-1]

        monkeypatch.setattr(fastcheck, "det_bareiss", refuse)
        monkeypatch.setattr(fastcheck.MinorSelector, "next_choice", refuse_draw)
        monkeypatch.setattr(fastcheck, "symbolic_rank", recording)
        assert is_rank_at_least(4, M, MinorLoopConfig(), random.Random(0)) is False
        assert is_rank_at_least(3, M, MinorLoopConfig(), random.Random(0)) is True
        assert ranks == [3]
        assert is_rank_at_least(2, D, MinorLoopConfig(), random.Random(0)) is True
        assert ranks == [3, 2]


class TestRegularInCodimension:
    def test_unit_defining_ideal(self):
        ring = PolyRing(QQ, ["x"])
        report = regular_in_codimension(
            1, RingPresentation(Ideal([ring.one()], ring)))
        assert report.result is True
        assert report.dimension == -1

    def test_zero_ideal_is_regular(self):
        ring = PolyRing(GF(101), ["x", "y"])
        report = regular_in_codimension(
            2, RingPresentation(Ideal([ring.zero()], ring)))
        assert report.result is True

    def test_smooth_hypersurface(self):
        # V(x^2 + y^2 + z^2 - 1) over GF(101) is smooth, hence R1.
        ring = PolyRing(GF(101), ["x", "y", "z"])
        x, y, z = ring.gens()
        I = Ideal([x * x + y * y + z * z - 1], ring)
        report = regular_in_codimension(
            1, RingPresentation(I), MinorLoopConfig(), random.Random(0))
        assert report.result is True

    def test_node_not_r1(self):
        # The union of the axes in the plane: V(xy) is singular at the origin,
        # which has codimension 1 in the curve, so R1 fails; every 1x1 minor
        # must eventually be tried (t = 2), giving a definitive False.
        ring = PolyRing(GF(101), ["x", "y"])
        x, y = ring.gens()
        I = Ideal([x * y], ring)
        report = regular_in_codimension(
            1, RingPresentation(I), MinorLoopConfig(), random.Random(0))
        assert report.result is False

    def test_node_is_r0(self):
        ring = PolyRing(GF(101), ["x", "y"])
        x, y = ring.gens()
        I = Ideal([x * y], ring)
        report = regular_in_codimension(
            0, RingPresentation(I), MinorLoopConfig(), random.Random(0))
        assert report.result is True

    def test_negative_codimension_rejected(self):
        # Regularity in codimension n is defined only for n >= 0.
        ring = PolyRing(GF(101), ["x", "y"])
        I = Ideal([ring.parse("y^2 - x^3 - x^2")], ring)
        with pytest.raises(PolyError, match="nonnegative"):
            regular_in_codimension(-3, RingPresentation(I), MinorLoopConfig(), random.Random(3))

    @pytest.mark.parametrize("count", [-4, math.nan])
    def test_negative_or_nan_min_minors_rejected(self, count):
        # A negative count would clamp the first checkpoint to 1, and NaN
        # would never fire one.
        ring = PolyRing(GF(101), ["x", "y"])
        I = Ideal([ring.parse("x*y")], ring)
        cfg = MinorLoopConfig(min_minors_fn=lambda m: count)
        with pytest.raises(PolyError, match="nonnegative"):
            regular_in_codimension(1, RingPresentation(I), cfg, random.Random(0))

    def test_curve_example_single_run(self, curve_ideal):
        report = regular_in_codimension(
            1, RingPresentation(curve_ideal), MinorLoopConfig(), random.Random(0))
        assert report.result is True
        assert report.considered >= 7
        # Independent certificate: the accumulated ideal has dimension <= 1.
        assert dim_quotient(Ideal(curve_ideal.generators + report.minors,
                                  curve_ideal.ring)) <= 1

    def test_modulus_option(self):
        ring = PolyRing(QQ, ["x", "y", "z"])
        x, y, z = ring.gens()
        I = Ideal([x * x + y * y + z * z - 1], ring)
        cfg = MinorLoopConfig(modulus=101)
        report = regular_in_codimension(1, RingPresentation(I), cfg, random.Random(0))
        assert report.result is True

    def test_modulus_needs_a_rational_presentation_and_a_prime(self):
        ring = PolyRing(GF(101), ["x", "y"])
        I = Ideal([ring.parse("y^2 - x^3 + 3*x - 2")], ring)
        for p in (103, 0):
            with pytest.raises(PolyError, match="over QQ"):
                regular_in_codimension(1, RingPresentation(I), MinorLoopConfig(modulus=p),
                                       random.Random(0))
        ring = PolyRing(QQ, ["x", "y"])
        I = Ideal([ring.parse("y^2 - x^3 - 1")], ring)
        for p in (4, 1, 0, -7):
            with pytest.raises(PolyError, match="prime"):
                regular_in_codimension(1, RingPresentation(I), MinorLoopConfig(modulus=p),
                                       random.Random(0))

    def test_modular_false_is_inconclusive(self, capsys):
        # y^2 - x^3 - 101 is smooth over QQ and the cusp y^2 = x^3 mod 101.
        ring = PolyRing(QQ, ["x", "y"])
        I = Ideal([ring.parse("y^2 - x^3 - 101")], ring)
        report = regular_in_codimension(1, RingPresentation(I), MinorLoopConfig(),
                                        random.Random(0))
        assert report.result is True
        cfg = MinorLoopConfig(modulus=101, verbose=True)
        report = regular_in_codimension(1, RingPresentation(I), cfg, random.Random(0))
        assert report.result is None
        log = capsys.readouterr().err
        assert "regularInCodimension: verdict over GF(101) = False" in log
        assert "regularInCodimension: final dimension = 0" in log

    def test_verbose_log_format(self, curve_ideal, capsys):
        cfg = MinorLoopConfig(verbose=True)
        regular_in_codimension(1, RingPresentation(curve_ideal), cfg, random.Random(0))
        log = capsys.readouterr().err
        assert re.search(
            r"regularInCodimension: ring dimension = 3, possible minors = 17325, "
            r"max minors = 317\.599", log)
        assert re.search(
            r"regularInCodimension: checkpoint considered = 7 computed = \d+", log)
        assert re.search(
            r"regularInCodimension: fast codim bound (succeeded|failed), "
            r"full dimension = -?\d+", log)
        assert re.search(r"regularInCodimension: final dimension = -?\d+", log)

    def test_budget_failure_is_inconclusive(self, capsys):
        # Every submatrix gets computed, but the one checkpoint cannot take
        # the pair its basis needs under a zero S-pair cap, so the bound is
        # never refuted.
        ring = PolyRing(GF(101), ["x", "y"])
        x, y = ring.gens()
        I = Ideal([x * y], ring)
        cfg = MinorLoopConfig(s_pair_cap=0, verbose=True)
        report = regular_in_codimension(1, RingPresentation(I), cfg, random.Random(0))
        assert (report.considered, report.computed) == (3, 2)
        assert report.result is None
        log = capsys.readouterr().err
        assert "S-pair budget of 0 exceeded" in log
        assert "fast codim bound" not in log
        # The last in-loop checkpoint ran at the last draw; it is not repeated.
        assert log.count("checkpoint considered = 3 ") == 1
        # With the default cap the bound fails on a complete basis.
        report = regular_in_codimension(
            1, RingPresentation(I), MinorLoopConfig(), random.Random(0))
        assert report.result is False

    def test_a_checkpoint_resumes_after_a_budget_failure(self, capsys, monkeypatch):
        # The first checkpoint runs out of its 4 pairs.  The second one draws
        # no new minor, resumes the same queue with 4 more pairs and proves
        # the bound; restarting from the basis of I would fail again.
        ring = PolyRing(GF(101), ["x", "y", "z", "w"])
        I = Ideal([ring.parse("x^3 - y^2 + z*w"), ring.parse("x*w - y*z^2")], ring)
        assert dim_quotient(I) == 2  # cached, so only checkpoints complete a state below
        taken = []
        spoly_terms, complete = gbasis._spoly_terms, GroebnerState.complete

        def counted_spoly(*args):
            taken[-1] += 1
            return spoly_terms(*args)

        def counted_complete(state, *args):
            taken.append(0)
            return complete(state, *args)

        monkeypatch.setattr(gbasis, "_spoly_terms", counted_spoly)
        monkeypatch.setattr(GroebnerState, "complete", counted_complete)
        cfg = MinorLoopConfig(s_pair_cap=4, verbose=True)
        report = regular_in_codimension(1, RingPresentation(I), cfg, random.Random(3))
        assert (report.result, report.considered, report.computed) == (True, 9, 5)
        assert report.dimension_history == [0]
        log = capsys.readouterr().err
        assert log.count("S-pair budget of 4 exceeded") == 1
        assert "checkpoint considered = 9 computed = 5" in log
        # The cap still bounds the pairs each checkpoint takes.
        assert taken[0] == 4 and len(taken) == 2 and taken[1] <= 4

    def test_budget_failure_in_the_ring_dimension_is_inconclusive(self, capsys):
        # The basis of I itself needs more than 20 pairs: no minor is drawn.
        ring = PolyRing(GF(101), [f"x{i}" for i in range(1, 8)])
        I = Ideal([ring.parse(g) for g in SEC51_GENERATORS], ring)
        cfg = MinorLoopConfig(s_pair_cap=20, verbose=True)
        report = regular_in_codimension(1, RingPresentation(I), cfg, random.Random(0))
        assert report == LoopReport(result=None)
        assert "S-pair budget of 20 exceeded" in capsys.readouterr().err

    def test_early_exit_answers_under_a_zero_cap(self, capsys):
        # The drawn minor 1 is a constant head: the bound holds before any
        # S-pair is taken, so the zero cap is never reached.
        ring = PolyRing(GF(101), ["x", "y"])
        x, y = ring.gens()
        I = Ideal([y - x * x], ring)
        cfg = MinorLoopConfig(s_pair_cap=0, verbose=True)
        report = regular_in_codimension(0, RingPresentation(I), cfg, random.Random(0))
        assert (report.result, report.considered, report.computed) == (True, 5, 1)
        assert report.dimension == -1
        log = capsys.readouterr().err
        assert "fast codim bound succeeded" in log
        assert "S-pair budget" not in log

    @pytest.mark.parametrize("seed, stop", [
        (0, (7, 7, True, 1)),
        (1, (11, 11, True, 3)),
        (2, (14, 14, True, 4)),
    ])
    def test_curve_stop_points(self, curve_ideal, seed, stop):
        # The early exit must not move a stop point: a checkpoint succeeds
        # with it exactly when it would succeed on the full basis.
        report = regular_in_codimension(
            1, RingPresentation(curve_ideal), MinorLoopConfig(), random.Random(seed))
        got = (report.considered, report.computed, report.result, len(report.dimension_history))
        assert got == stop
        assert report.dimension <= 1

    def test_report_counters_consistent(self, curve_ideal):
        report = regular_in_codimension(
            1, RingPresentation(curve_ideal), MinorLoopConfig(), random.Random(3))
        assert report.computed <= report.considered
        assert len(report.minors) <= report.computed

    def test_seed_reproducibility(self, curve_ideal):
        runs = [
            regular_in_codimension(
                1, RingPresentation(curve_ideal), MinorLoopConfig(), random.Random(11))
            for _ in range(2)
        ]
        assert runs[0].considered == runs[1].considered
        assert [str(m) for m in runs[0].minors] == [str(m) for m in runs[1].minors]


class TestChainComplex:
    def koszul(self):
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        d1 = PolyMatrix(ring, [[x, y]])
        d2 = PolyMatrix(ring, [[-y], [x]])
        return ChainComplexInput([d1, d2])

    def test_koszul_validates(self):
        assert self.koszul().length == 2

    def test_composition_nonzero_rejected(self):
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        d1 = PolyMatrix(ring, [[x, y]])
        bad = PolyMatrix(ring, [[x], [y]])
        with pytest.raises(PolyError):
            ChainComplexInput([d1, bad])

    def test_shape_mismatch_rejected(self):
        ring = PolyRing(QQ, ["x"])
        x = ring.gens()[0]
        d1 = PolyMatrix(ring, [[x]])
        d2 = PolyMatrix(ring, [[x], [x]])
        with pytest.raises(PolyError):
            ChainComplexInput([d1, d2])

    def test_empty_rejected(self):
        with pytest.raises(PolyError):
            ChainComplexInput([])


class TestProjDim:
    def test_koszul_bound_is_two(self):
        # (x, y) has projective dimension 2 and the Koszul tail does not split.
        complex_input = TestChainComplex().koszul()
        bound = proj_dim_upper_bound(complex_input, 0, MinorLoopConfig(), random.Random(0))
        assert bound == 2

    def test_split_tail_trims(self):
        ring = PolyRing(QQ, ["x", "y"])
        x, y = ring.gens()
        one, zero = ring.one(), ring.zero()
        # d2 includes a unit pivot, so the tail splits and the bound drops.
        d1 = PolyMatrix(ring, [[x, zero]])
        d2 = PolyMatrix(ring, [[zero], [one]])
        bound = proj_dim_upper_bound(
            ChainComplexInput([d1, d2]), 0, MinorLoopConfig(), random.Random(0))
        assert bound <= 1

    def test_dense_split_tails_trim_to_k(self):
        # The Koszul complex on x1, x2, x3 resolves R/(x1, x2, x3), of
        # projective dimension 3.  Trivial pieces R -> R (degrees 4 -> 3) and
        # R^2 -> R^2 (degrees 5 -> 4) make the length 5, and each of the three
        # tail modules gets a change of basis U, a product of elementary
        # matrices I + f*E_ij with f dense of degree 1.  A draw in which a
        # split map has a constant minor is redrawn, so every split must be
        # certified by a unit ideal of nonconstant minors.
        k, a, b = 3, 1, 2
        ring = PolyRing(GF(101), [f"x{i}" for i in range(1, k + 1)])
        gens, zero, one = ring.gens(), ring.zero(), ring.one()
        rng = random.Random(19)

        def matrix(rows, cols, entry):
            return PolyMatrix(ring, [[entry(i, j) for j in range(cols)] for i in range(rows)])

        def koszul_entry(S, T):
            if not set(S) <= set(T):
                return zero
            (j,) = set(T) - set(S)
            return gens[j] if T.index(j) % 2 == 0 else -gens[j]

        koszul = []
        for i in range(1, k + 1):
            rows = list(itertools.combinations(range(k), i - 1))
            cols = list(itertools.combinations(range(k), i))
            koszul.append(matrix(len(rows), len(cols), lambda r, c: koszul_entry(rows[r], cols[c])))

        def unimodular(size):
            """(U, U^-1) for U a product of elementary matrices I + f*E_ij."""
            if size == 1:
                c = rng.randrange(1, 101)
                return (PolyMatrix(ring, [[ring.constant(c)]]),
                        PolyMatrix(ring, [[ring.constant(pow(c, 99, 101))]]))
            U = V = identity = matrix(size, size, lambda i, j: one if i == j else zero)
            lower = [(i + 1, i) for i in range(size - 1)]
            for i, j in lower + [(j, i) for i, j in lower] + lower:
                f = ring.from_terms([(rng.randrange(1, 101), m)
                                     for m in [(0,) * k, *itertools.permutations((1,) + (0,) * (k - 1))]])
                U = U * matrix(size, size, lambda r, c: f if (r, c) == (i, j) else identity[r, c])
                V = matrix(size, size, lambda r, c: -f if (r, c) == (i, j) else identity[r, c]) * V
            return U, V

        d_k = koszul[-1]
        tail = matrix(d_k.nrows, 1 + a, lambda i, j: d_k[i, 0] if j == 0 else zero)
        split1 = matrix(1 + a, a + b, lambda i, j: one if i == j + 1 else zero)
        split2 = matrix(a + b, b, lambda i, j: one if i == j + a else zero)
        for _ in range(20):
            (U0, U0i), (U1, U1i), (U2, U2i) = [unimodular(size) for size in (1 + a, a + b, b)]
            hidden = [tail * U0, U0i * split1 * U1, U1i * split2 * U2]
            if not any(m.is_constant() and not m.is_zero()
                       for d, rank in ((hidden[1], a), (hidden[2], b))
                       for m in recursive_minors(rank, d)):
                break
        else:
            raise AssertionError("every draw had a constant minor")
        complex_input = ChainComplexInput(koszul[:-1] + hidden)
        assert complex_input.length == k + 2
        for name in sorted(_BUILTIN_STRATEGIES):
            cfg = MinorLoopConfig(strategy=builtin_strategy(name))
            bound = proj_dim_upper_bound(complex_input, 0, cfg, random.Random(name))
            if name == "StrategyPoints":
                # Every draw is the pivot block of the map at a random point,
                # the same block when no entry vanishes there, so only one
                # minor is ever found and no split is certified.
                assert k <= bound <= k + 2
            else:
                assert bound == k, name

    def test_min_dimension_floor(self):
        complex_input = TestChainComplex().koszul()
        bound = proj_dim_upper_bound(complex_input, 2, MinorLoopConfig(), random.Random(0))
        assert bound == 2

    def test_negative_min_dimension(self):
        with pytest.raises(PolyError):
            proj_dim_upper_bound(TestChainComplex().koszul(), -1)

    def test_identity_complex_trims_fully(self):
        ring = PolyRing(QQ, ["x"])
        one = ring.one()
        d1 = PolyMatrix(ring, [[one]])
        bound = proj_dim_upper_bound(
            ChainComplexInput([d1]), 0, MinorLoopConfig(), random.Random(0))
        assert bound == 0
