"""Seeded `regular_in_codimension` runs on the curve, pinned to stored values.

`golden_reports.json` pins one curve loop.  Here the curve runs at n = 1
under each built-in strategy with seeds 0 and 1, up to ten checkpoints a
run, so that a change to how checkpoints share Groebner work shows wherever
it moves a verdict, a count, an early-exit dimension or a drawn minor.
Compared with `loop_outcomes_golden.json`; minors are compared as strings.
"""

import json
import random
from pathlib import Path

import pytest

from polyminors import Ideal, RingPresentation, regular_in_codimension
from polyminors.selection import _BUILTIN_STRATEGIES, builtin_strategy
from polyminors.fastcheck import MinorLoopConfig

GOLDEN = json.loads((Path(__file__).parent / "loop_outcomes_golden.json").read_text())

RUNS = [f"{name}-seed{seed}" for name in sorted(_BUILTIN_STRATEGIES) for seed in (0, 1)]


def outcome(curve_ideal, run):
    name, seed = run.rsplit("-seed", 1)
    presentation = RingPresentation(Ideal(curve_ideal.generators, curve_ideal.ring))
    cfg = MinorLoopConfig(strategy=builtin_strategy(name))
    report = regular_in_codimension(1, presentation, cfg, random.Random(int(seed)))
    return {
        "result": report.result,
        "considered": report.considered,
        "computed": report.computed,
        "dimension": report.dimension,
        "dimension_history": report.dimension_history,
        "minors": [str(m) for m in report.minors],
    }


def test_runs_match_stored_names():
    assert sorted(RUNS) == sorted(GOLDEN)


@pytest.mark.parametrize("run", RUNS)
def test_outcome_matches_golden(curve_ideal, run):
    assert outcome(curve_ideal, run) == GOLDEN[run]
