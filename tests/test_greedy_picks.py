"""Greedy picks of the six order-based methods, pinned to stored values.

For each matrix one WorkingMatrix serves every draw of all six methods, as in
MinorSelector, so the GRevLex methods' mutation and its periodic reset take
part, and the Lex methods must ignore the mutation.  Each seed draws, from one
rng, a size-2 and then a size-3 choice with each method in turn, and then one
more random word, which pins how much of the stream the draws consumed (the
random orders, tie breaks and mutation coefficients).  Compared with
`greedy_picks_golden.json`.
"""

import json
import random
from pathlib import Path

import pytest

from polyminors import GF, QQ, PolyMatrix, PolyRing, WorkingMatrix, choose_submatrix_greedy, jacobian
from polyminors.selection import _GREEDY_METHODS
from tests.conftest import SEC51_GENERATORS

GOLDEN = json.loads((Path(__file__).parent / "greedy_picks_golden.json").read_text())

METHODS = sorted(_GREEDY_METHODS, key=lambda m: m.value)


def curve_jacobian():
    ring = PolyRing(GF(101), [f"x{i}" for i in range(1, 8)])
    return jacobian([ring.parse(g) for g in SEC51_GENERATORS])


def qq_matrix():
    """Zeros, a constant, and monomials shared between entries, so ties occur."""
    ring = PolyRing(QQ, ["x", "y", "z"])
    rows = [
        ["x*y", "y^2 - 1/2*z", "0", "x"],
        ["z^3 + x", "x*y", "2*y*z", "0"],
        ["0", "3/4*x^2 + y", "x*y + z", "y^2"],
        ["x", "z^2 - x*y", "5", "x*y*z"],
    ]
    return PolyMatrix(ring, [[ring.parse(e) for e in row] for row in rows])


MATRICES = {"curve-jacobian": curve_jacobian, "qq": qq_matrix}


def picks(matrix):
    """Per seed: {method: [[rows, cols] at size 2, the same at size 3]} and the next word."""
    working = WorkingMatrix(MATRICES[matrix]())
    out = []
    for seed in range(30):
        rng = random.Random(seed)
        draws = {}
        for method in METHODS:
            choices = [choose_submatrix_greedy(method, size, working, rng) for size in (2, 3)]
            draws[method.value] = [[list(c.rows), list(c.cols)] for c in choices]
        out.append([draws, rng.getrandbits(32)])
    return out


def test_matrices_match_stored_names():
    assert sorted(MATRICES) == sorted(GOLDEN)


@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_picks_match_golden(matrix):
    assert picks(matrix) == GOLDEN[matrix]
