"""MinorSelector draws on matrices with dense entries, pinned to stored values.

The greedy methods rank an entry by its smallest or largest term under a
random order.  On these matrices most terms of an entry are neither smallest
nor largest under any order (their divisibility-minimal and -maximal terms
are strict subsets of the support), so the stored draws pin which terms the
ranking may skip.  Every built-in strategy runs, plus `{GRevLexLargest: 100}`
and `{LexLargest: 100}`, which take the GRevLex mutation into the largest
keys.  Each run makes DRAWS draws from one selector, with sizes cycling
through 1..3, and then takes one more random word, which pins how much of the
stream the draws consumed.  Compared with `selector_draws_golden.json`.

Regenerate (only for a deliberate change of the selection's output):

    PYTHONPATH=src python -m tests.test_selector_draws
"""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from polyminors import GF, QQ, PolyMatrix, PolyRing, parse_strategy
from polyminors.selection import _BUILTIN_STRATEGIES, MinorSelector

GOLDEN_PATH = Path(__file__).parent / "selector_draws_golden.json"
DRAWS = 40
STRATEGIES = sorted(_BUILTIN_STRATEGIES) + ["{GRevLexLargest: 100}", "{LexLargest: 100}"]


def _monomials(ring, degree):
    """Every monomial of total degree <= degree."""
    out = [ring.one()]
    for d in range(1, degree + 1):
        for vs in combinations_with_replacement(ring.gens(), d):
            m = ring.one()
            for v in vs:
                m = m * v
            out.append(m)
    return out


def _dense(ring, rng, degree):
    return sum((rng.randrange(1, 101) * m for m in _monomials(ring, degree)), ring.zero())


def hidden_split():
    """U0^-1 * S * U1 over GF(101)[x1..x4]: a split inclusion behind a change of basis.

    S is the inclusion of R^3 into R^4 as the last three coordinates; U0 and
    U1 are products of elementary matrices I + f*E_ij with f dense of degree
    1, over three sweeps (below, above, below the diagonal).
    """
    ring = PolyRing(GF(101), ["x1", "x2", "x3", "x4"])
    rng = random.Random("hidden-split")

    def identity(n):
        return [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]

    def unimodular(n):
        U, V = PolyMatrix(ring, identity(n)), PolyMatrix(ring, identity(n))
        lower = [(i + 1, i) for i in range(n - 1)]
        for i, j in lower + [(j, i) for i, j in lower] + lower:
            f = _dense(ring, rng, 1)
            E, E_inv = identity(n), identity(n)
            E[i][j], E_inv[i][j] = f, -f
            U, V = U * PolyMatrix(ring, E), PolyMatrix(ring, E_inv) * V
        return U, V

    _, U0_inv = unimodular(3)
    U1, _ = unimodular(4)
    S = PolyMatrix(ring, [[ring.one() if j == i + 1 else ring.zero() for j in range(4)]
                          for i in range(3)])
    return U0_inv * S * U1


def random_supports():
    """A 4x5 matrix over GF(101)[x, y, z]: random supports of degree 2..4, a few zeros."""
    ring = PolyRing(GF(101), ["x", "y", "z"])
    rng = random.Random("random-supports")
    monos = [m for m in _monomials(ring, 4) if not m.is_constant()]
    rows = []
    for _ in range(4):
        row = []
        for _ in range(5):
            picked = rng.sample(monos, rng.randrange(0, 12))
            row.append(sum((rng.randrange(1, 101) * m for m in picked), ring.zero()))
        rows.append(row)
    return PolyMatrix(ring, rows)


def qq_dense():
    """A 4x4 matrix over QQ[x, y, z]: products of dense quadrics and linear forms."""
    ring = PolyRing(QQ, ["x", "y", "z"])
    rng = random.Random("qq-dense")
    linear = [m for m in _monomials(ring, 1) if not m.is_constant()]

    def entry():
        if rng.random() < 0.15:
            return ring.zero()
        q = sum((ring.constant(Fraction(rng.randrange(1, 10), rng.choice([1, 2, 3]))) * m
                 for m in _monomials(ring, 2) if rng.random() < 0.8), ring.zero())
        return q * sum((rng.randrange(1, 5) * v for v in linear), ring.zero())

    return PolyMatrix(ring, [[entry() for _ in range(4)] for _ in range(4)])


MATRICES = {"hidden-split": hidden_split, "random-supports": random_supports,
            "qq-dense": qq_dense}


def draws(matrix):
    """Per strategy: the DRAWS choices as [rows, cols] and the next random word."""
    M = MATRICES[matrix]()
    top = min(M.nrows, M.ncols, 3)
    out = {}
    for spec in STRATEGIES:
        rng = random.Random(f"{matrix}:{spec}")
        selector = MinorSelector(M, parse_strategy(spec), rng)
        choices = [selector.next_choice(1 + t % top) for t in range(DRAWS)]
        out[spec] = [[[list(c.rows), list(c.cols)] for c in choices], rng.getrandbits(32)]
    return out


def generate():
    return {name: draws(name) for name in MATRICES}


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_matrices_match_stored_names():
    assert sorted(MATRICES) == sorted(GOLDEN)


def test_strategies_cover_the_builtins():
    for name in MATRICES:
        assert sorted(GOLDEN[name]) == sorted(STRATEGIES)


@pytest.mark.parametrize("matrix", sorted(MATRICES))
def test_draws_match_golden(matrix):
    assert draws(matrix) == GOLDEN[matrix]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(generate(), separators=(",", ":")) + "\n", encoding="utf-8")
