"""Acceptance criteria, one test and one printed PASS/FAIL line per criterion.

Criterion 8 is report-only (hardware-dependent orderings); it prints its
observed ordering but never fails the suite.  Set POLYMINORS_FULL_BENCH=1 to
run it at the full 6x7 / size-5 / degree-8 configuration instead of the
scaled-down default.  Criterion 10 records an out-of-scope item.
"""

import itertools
import os
import random
import time
from itertools import combinations

import pytest

from polyminors import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    Ideal,
    MinorLoopConfig,
    MonomialOrder,
    PolyRing,
    RingPresentation,
    SubmatrixChoice,
    WorkingMatrix,
    checkpoint_schedule,
    choose_submatrix_greedy,
    choose_submatrix_points,
    count_possible_minors,
    default_max_minors,
    det_bareiss,
    det_cofactor,
    determinant,
    dim_quotient,
    is_codim_at_least,
    is_rank_at_least,
    normal_form,
    numeric_rank,
    parse_strategy,
    recursive_minors,
    regular_in_codimension,
    symbolic_rank,
)
from polyminors.polylinalg import random_matrix
from polyminors.selection import SelectionMethod

from tests.test_gbasis import ideal_corpus, spoly
from tests.test_fastcheck import small_matrix_corpus


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_banner_arithmetic(capsys):
    budget = default_max_minors(2, 17325)
    ok = (
        abs(budget - 317.599) < 1e-3
        and count_possible_minors(7, 12, 4) == 17325
        and count_possible_minors(10, 15, 5) == 756756
    )
    report(capsys, 1, ok,
           f"default_max_minors(2, 17325) = {budget:.3f}; "
           "minor counts 17325 and 756756 (tolerance 1e-3)")


def test_criterion_2_checkpoint_sequence(capsys):
    got = list(itertools.islice(checkpoint_schedule(7, 1.3), 11))
    expected = [7, 9, 11, 14, 18, 24, 31, 40, 52, 67, 87]
    report(capsys, 2, got == expected, f"checkpoint_schedule(7, 1.3) -> {got} (exact)")


def test_criterion_3_greedy_worked_example(capsys, monomial_matrix):
    # "Lex x<y" pins the order that reads the x-exponent first; "GRevLex x<y"
    # pins x as the grevlex tie-break variable.  Both reproduce the worked
    # example's picks.
    lex = choose_submatrix_greedy(
        SelectionMethod.LEX_SMALLEST, 2, WorkingMatrix(monomial_matrix),
        random.Random(0), order=MonomialOrder(LEX, (0, 1)))
    grevlex = choose_submatrix_greedy(
        SelectionMethod.GREVLEX_SMALLEST, 2, WorkingMatrix(monomial_matrix),
        random.Random(0), order=MonomialOrder(GREVLEX, (1, 0)))
    ring = monomial_matrix.ring
    lex_det = det_bareiss(monomial_matrix.submatrix(lex))
    grevlex_det = det_bareiss(monomial_matrix.submatrix(grevlex))
    ok = (
        lex.key() == ((0, 2), (0, 2)) and lex_det == ring.parse("x^2*y^4")
        and grevlex.key() == ((0, 2), (0, 1)) and grevlex_det == ring.parse("x^3*y^3")
    )
    report(capsys, 3, ok,
           f"Lex x<y -> rows {sorted(lex.rows)}/cols {sorted(lex.cols)} det {lex_det}; "
           f"GRevLex x<y -> rows {sorted(grevlex.rows)}/cols {sorted(grevlex.cols)} "
           f"det {grevlex_det} (exact)")


def test_criterion_4_points_worked_example(capsys, points_example):
    M, _ = points_example
    point = (2, 0, 2)
    evaluated = M.evaluate(point)
    rank, prows, pcols = numeric_rank(evaluated, M.ring.field)
    choice = choose_submatrix_points(2, M, None, random.Random(0), point=point)
    minor = det_bareiss(M.submatrix(choice))
    ok = (
        evaluated == [[4, 0, 0], [3, 3, 4], [3, 0, 0]]
        and (prows[:2], pcols[:2]) == ([0, 1], [0, 1])
        and choice.key() == ((0, 1), (0, 1))
        and minor == M.ring.parse("x^4 + x^2*z^2 - x^4*y - x*y^4")
    )
    report(capsys, 4, ok,
           f"evaluated {evaluated}, pivot block rows {prows[:2]}/cols {pcols[:2]}, "
           f"minor {minor} (exact, over GF(5))")


def test_criterion_5_recursive_minors_example(capsys, rational_cubed_matrix):
    M = rational_cubed_matrix
    ring = M.ring
    rec = recursive_minors(3, M)
    brute = [
        det_bareiss(M.submatrix(SubmatrixChoice(r, c)))
        for r in combinations(range(3), 3)
        for c in combinations(range(4), 3)
    ]
    cof = [
        det_cofactor(M.submatrix(SubmatrixChoice(r, c)))
        for r in combinations(range(3), 3)
        for c in combinations(range(4), 3)
    ]
    printed = Ideal(
        [ring.parse(f"({c})*x^6") for c in ("1403/60", "449/240", "-292/45", "517/144")],
        ring)
    ok = rec == brute == cof and Ideal(rec, ring).equals(printed)
    report(capsys, 5, ok,
           "recursive == Bareiss == cofactor on the 3x4 demo matrix and the "
           "minor ideal equals the printed one (exact ideal equality)")


def test_criterion_6_curve_end_to_end(capsys, curve_ideal):
    ok = dim_quotient(curve_ideal) == 3
    worst = 0.0
    failures = []
    for seed in range(20):
        start = time.time()
        rep = regular_in_codimension(
            1, RingPresentation(curve_ideal), MinorLoopConfig(), random.Random(seed))
        elapsed = time.time() - start
        worst = max(worst, elapsed)
        cert_dim = dim_quotient(Ideal(curve_ideal.generators + rep.minors, curve_ideal.ring))
        if rep.result is not True or cert_dim > 1 or elapsed > 300:
            failures.append(seed)
    ok = ok and not failures
    report(capsys, 6, ok,
           f"20/20 seeded StrategyDefault runs returned True with certified "
           f"dim <= 1; ambient quotient dim = 3; worst run {worst:.1f}s "
           f"(budget 300s/run){'; failing seeds ' + str(failures) if failures else ''}")


def test_criterion_7_strategy_efficiency(capsys, curve_ideal):
    runs = 50
    non_random = parse_strategy("StrategyDefaultNonRandom")
    pure_random = parse_strategy("StrategyRandom")
    wins = 0
    totals = {"nr": 0, "r": 0}
    for seed in range(runs):
        cfg = MinorLoopConfig()
        cfg.strategy = non_random
        nr = regular_in_codimension(
            1, RingPresentation(curve_ideal), cfg, random.Random(seed))
        cfg = MinorLoopConfig()
        cfg.strategy = pure_random
        r = regular_in_codimension(
            1, RingPresentation(curve_ideal), cfg, random.Random(seed))
        totals["nr"] += nr.considered
        totals["r"] += r.considered
        if nr.considered < r.considered:
            wins += 1
    mean_nr = totals["nr"] / runs
    mean_r = totals["r"] / runs
    ok = wins >= 45 and mean_nr < mean_r
    report(capsys, 7, ok,
           f"StrategyDefaultNonRandom beat StrategyRandom on {wins}/{runs} "
           f"paired runs (need >= 45); mean considered {mean_nr:.1f} vs "
           f"{mean_r:.1f} (paper reports 12.1 vs 61.3)")


def test_criterion_8_benchmark_ordering_report_only(capsys):
    full = os.environ.get("POLYMINORS_FULL_BENCH") == "1"
    degree = 8 if full else 4
    seed = 1
    rng = random.Random(seed * 1_000_003 + degree)
    ring = PolyRing(QQ, ["x0", "x1"])
    M = random_matrix(ring, 6, 7, degree, rng, homogeneous=True)
    choices = [SubmatrixChoice(r, c) for r in combinations(range(6), 5)
               for c in combinations(range(7), 5)]
    engines = {
        "bareiss": lambda: [det_bareiss(M.submatrix(c)) for c in choices],
        "cofactor": lambda: [det_cofactor(M.submatrix(c)) for c in choices],
        "recursive": lambda: recursive_minors(5, M),
    }
    row = {}
    for name, run in engines.items():
        start = time.perf_counter()
        run()
        row[name] = time.perf_counter() - start
    ordering_ok = row["recursive"] < row["bareiss"] and row["recursive"] < row["cofactor"]
    with capsys.disabled():
        print(f"\n[acceptance] criterion 8: REPORT — degree {degree} "
              f"({'full' if full else 'scaled; POLYMINORS_FULL_BENCH=1 for degree 8'}): "
              f"bareiss {row['bareiss']:.2f}s, cofactor {row['cofactor']:.2f}s, "
              f"recursive {row['recursive']:.2f}s; "
              f"recursive-fastest ordering {'holds' if ordering_ok else 'DOES NOT hold'}")
    # Non-gating: orderings are hardware-dependent and explicitly report-only.


def test_criterion_9_oracle_suites(capsys):
    rng = random.Random(2026)
    # (a) determinant engine agreement on 200 random matrices.
    for char in (0, 101):
        ring = PolyRing(QQ if char == 0 else GF(char), ["x", "y"])
        for _ in range(100):
            n = rng.choice([2, 3])
            M = random_matrix(ring, n, n, 2, rng)
            assert det_bareiss(M) == det_cofactor(M) == determinant(M, "recursive")
    # (b) recursive_minors vs brute force at 5x6 / k=4.
    ring = PolyRing(GF(101), ["x", "y"])
    M = random_matrix(ring, 5, 6, 2, rng)
    brute = [
        det_bareiss(M.submatrix(SubmatrixChoice(r, c)))
        for r in combinations(range(5), 4)
        for c in combinations(range(6), 4)
    ]
    assert recursive_minors(4, M) == brute
    # (c) specialization rank <= symbolic rank on 500 pairs.
    ring3 = PolyRing(GF(101), ["x", "y", "z"])
    for _ in range(500):
        M = random_matrix(ring3, rng.choice([2, 3]), rng.choice([2, 3]), 1, rng)
        pt = [rng.randrange(101) for _ in range(3)]
        assert numeric_rank(M.evaluate(pt), ring3.field)[0] <= symbolic_rank(M)
    # (d) is_codim_at_least soundness on the >= 50-ideal corpus.
    corpus = ideal_corpus()
    assert len(corpus) >= 50
    for ideal in corpus:
        n = ideal.ring.num_vars
        true_codim = n + 1 if dim_quotient(ideal) == -1 else n - dim_quotient(ideal)
        for c in range(n + 2):
            claim = is_codim_at_least(c, ideal)
            assert claim in (True, None)
            if claim is True:
                assert true_codim >= c
    # (e) Buchberger certificate: S-polynomials reduce to zero.
    for ideal in corpus:
        order = ideal.ring.canonical_order
        gb = ideal.groebner_basis(order)
        for f, g in combinations(gb, 2):
            assert normal_form(spoly(f, g, order), gb, order).is_zero()
    # (f) exhaustive is_rank_at_least agreement on the small-matrix corpus.
    for M in small_matrix_corpus():
        true_rank = symbolic_rank(M)
        for n in range(min(M.shape) + 2):
            assert is_rank_at_least(n, M, MinorLoopConfig(), random.Random(n)) == (
                true_rank >= n)
    report(capsys, 9, True,
           "engine agreement x200, recursive-minors brute force 5x6/k=4, "
           "specialization-rank x500, codim soundness on 53 ideals, S-poly "
           "reduction to zero, exhaustive rank sweep — all hold")


def test_criterion_10_out_of_scope(capsys):
    with capsys.disabled():
        print("\n[acceptance] criterion 10: N/A — the cone/gluing experiment "
              "inputs are not printed in the source material and are "
              "explicitly out of scope; criterion 7 covers the "
              "strategy-comparison content.")
