"""Tests of the benchmark itself: each output check rejects a corrupted
output, the inputs are what the workloads claim, the traced and untraced runs
agree, and BENCHMARK.json names the metrics run.py prints.

    python3 -m pytest perfbench/test_bench_checks.py -q
"""

import copy
import json
import random
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import refmath
import run
import workloads
from tracer import PER_LAYER, Tracer

P = workloads.P


@pytest.fixture(scope="module")
def pm():
    return run.load_package()


def test_monomial_dimension():
    assert refmath.monomial_dimension([], 3) == 3
    assert refmath.monomial_dimension([(1, 1, 0)], 3) == 2
    assert refmath.monomial_dimension([(1, 0, 0), (0, 2, 0)], 3) == 1
    assert refmath.monomial_dimension([(1, 1, 0), (0, 1, 1), (1, 0, 1)], 3) == 1
    assert refmath.monomial_dimension([(0, 0, 0), (1, 0, 0)], 3) == -1


def test_problem_text_round_trips_through_the_parser(pm):
    rng = random.Random(5)
    names = ("a", "b", "c")
    for p in (P, 0):
        ring = pm.polyring.PolyRing(pm.polyring.CoefficientField(p), names)
        for _ in range(20):
            f = {m: refmath.norm(rng.choice([-7, -1, 1, 3, 40]), p)
                 for m in rng.sample(workloads.monomials(3, 3), 5)}
            f = {m: c for m, c in f.items() if c}
            assert ring.parse(refmath.to_text(f, names)).terms == f


def test_inputs_are_drawn_from_the_seed():
    for cls in workloads.WORKLOADS.values():
        if cls is workloads.ProjdimSplit:
            continue  # slow to build; its matrices are checked below
        assert cls(3).texts == cls(3).texts
        assert cls(3).texts != cls(4).texts


def _cone_report(pm, rng_seed=0):
    ring = pm.polyring.PolyRing(pm.polyring.GF(P), ["x", "y", "z"])
    ideal = pm.gbasis.Ideal([ring.parse("x^2 + y^2 - z^2")], ring)
    fc = pm.fastcheck
    report = fc.regular_in_codimension(1, pm.gbasis.RingPresentation(ideal), fc.MinorLoopConfig(),
                                       random.Random(rng_seed))
    return ideal, report


def _curve_errors(pm, ideal, report, perm=(2, 0, 1)):
    order = pm.polyring.MonomialOrder(pm.polyring.GREVLEX, perm)
    basis = pm.gbasis.buchberger(list(ideal.generators) + list(report.minors), order)
    return checks.check_curve(report, basis, perm, 3, max_dim=0)


def test_curve_check_passes_a_correct_report(pm):
    ideal, report = _cone_report(pm)
    assert report.result is True and report.dimension == 0
    assert _curve_errors(pm, ideal, report) == []


def test_curve_check_rejects_a_flipped_verdict(pm):
    ideal, report = _cone_report(pm)
    for wrong in (False, None):
        bad = copy.copy(report)
        bad.result = wrong
        assert _curve_errors(pm, ideal, bad)


def test_curve_check_rejects_a_dimension_above_the_bound(pm):
    ideal, report = _cone_report(pm)
    no_minors = copy.copy(report)
    no_minors.minors = []
    assert any("exceeds" in e for e in _curve_errors(pm, ideal, no_minors))
    understated = copy.copy(report)
    understated.dimension = -1
    assert any("above reported" in e for e in _curve_errors(pm, ideal, understated))


def test_verdict_check():
    assert checks.check_verdict("q", True, True) == []
    assert checks.check_verdict("q", False, True)
    assert checks.check_verdict("q", None, False)


def _rank_matrix():
    workload = workloads.RankMinors(1)
    A, B, grids = workload.products[0]
    return workload, grids


def test_rank_checks():
    _, grids = _rank_matrix()
    r = workloads.RANK_R
    assert checks.check_rank_at_points(grids, r, P) == []
    assert checks.check_rank_at_points(grids, r + 1, P)
    good = SimpleNamespace(rows=(0, 1, 2), cols=(0, 1, 2), key=lambda: ((0, 1, 2), (0, 1, 2)))
    assert checks.check_submatrix(good, grids, r, P) == []
    # Column 2 replaced by column 0 + column 1: the block becomes singular.
    flat = [[[x if j < 2 else (row[0] + row[1]) % P for j, x in enumerate(row)] for row in g]
            for g in grids]
    assert checks.check_submatrix(good, flat, r, P)
    assert checks.check_submatrix(None, grids, r, P)
    small = SimpleNamespace(rows=(0, 1), cols=(0, 1), key=lambda: ((0, 1), (0, 1)))
    assert checks.check_submatrix(small, grids, r, P)


def test_minor_check_rejects_a_perturbed_minor(pm):
    rng = random.Random(2)
    forms = [m for m in workloads.monomials(2, 2) if sum(m) == 2]
    entries = [[{m: rng.choice([-3, 1, 5]) for m in forms} for _ in range(4)] for _ in range(3)]
    text = f"ring: 0; x, y\nmatrix: {workloads.matrix_text(entries, ('x', 'y'))}\n"
    M = pm.problemfile.parse_problem_text(text).matrix
    minors = pm.polylinalg.recursive_minors(2, M)
    targets = [(r, c) for r in combinations(range(3), 2) for c in combinations(range(4), 2)]
    points = [[2, -3], [5, 7]]
    assert checks.check_minors(minors, targets, entries, points, 0) == []
    ring = M.ring
    for index in (0, len(minors) - 1):
        bad = list(minors)
        bad[index] = bad[index] + ring.parse("x*y")
        assert checks.check_minors(bad, targets, entries, points, 0)
    assert checks.check_minors(minors[:-1], targets, entries, points, 0)


def test_projdim_check():
    assert checks.check_projdim(5, 5, 7) == []
    assert checks.check_projdim(7, 5, 7) == []
    assert checks.check_projdim(4, 5, 7)
    assert checks.check_projdim(8, 5, 7)
    assert checks.check_projdim(None, 5, 7)


def test_hidden_tail_is_split_and_unimodular(pm):
    workload = workloads.ProjdimSplit(1)
    k = 3
    maps, bases = workload.hidden_koszul(k, random.Random(0))
    for U, U_inv in bases:
        assert checks.check_inverse(U, U_inv, k, P) == []
    U, U_inv = bases[1]
    broken = [row[:] for row in U]
    broken[0][0] = refmath.padd(broken[0][0], refmath.pconst(1, k, P), P)
    assert checks.check_inverse(broken, U_inv, k, P)
    names = [f"x{i}" for i in range(1, k + 1)]
    body = "; ".join(f"d{i + 1}={workloads.matrix_text(d, names)}" for i, d in enumerate(maps))
    problem = pm.problemfile.parse_problem_text(f"ring: {P}; {', '.join(names)}\ncomplex: {body}\n")
    assert problem.complex.length == k + 2
    fc = pm.fastcheck
    bound = fc.proj_dim_upper_bound(problem.complex, 0, fc.MinorLoopConfig(), random.Random(0))
    assert checks.check_projdim(bound, k, k + 2) == []


def test_traced_and_untraced_runs_agree(pm):
    workload = workloads.CurveR1(0)
    workload.ops = [op for op in workload.ops if op.label == "seed 3"]
    summaries = []
    for timed in (False, True):
        tracer = Tracer(pm, timed)
        tracer.install()
        try:
            _, summary, _, failed, wrong = run.run_round(pm, workload, workload.parse(pm), tracer)
        finally:
            tracer.uninstall()
        assert failed == [] and wrong == []
        summaries.append(summary)
        if timed:
            calls = tracer.stats["gbasis.buchberger"]["calls"]
            assert calls > 0 and tracer.stats["polylinalg.det_bareiss"]["calls"] > 0
    assert summaries[0] == summaries[1]
    assert pm.fastcheck.buchberger is pm.gbasis.buchberger
    assert not hasattr(pm.fastcheck.buchberger, "__wrapped__")


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
