"""The Groebner core under Lex and GRevLex with non-identity permutations,
pinned to stored values.

The golden CLI reports only exercise the canonical GRevLex order.  Here every
ideal of the `test_gbasis` corpus is run under both order kinds, each with the
identity, the reversed and one rotated permutation, and the results are
compared with `gbasis_orders_golden.json`: the reduced basis, the entries the
codimension early exit returns (their order matters), the fast codimension
probe, and normal forms by the basis and by the raw generators (where the
choice of reducer decides the remainder).  Polynomials are compared as strings.
"""

import json
import random
from pathlib import Path

import pytest

from polyminors import GREVLEX, LEX, MonomialOrder, buchberger, is_codim_at_least, normal_form
from polyminors.polyring import random_polynomial
from tests.test_gbasis import ideal_corpus

GOLDEN = json.loads((Path(__file__).parent / "gbasis_orders_golden.json").read_text())

CORPUS = ideal_corpus()


def order_cases(n):
    identity = tuple(range(n))
    perms = dict.fromkeys([identity, identity[::-1], identity[1:] + identity[:1]])
    return [MonomialOrder(kind, perm) for kind in (LEX, GREVLEX) for perm in perms]


def strings(polys):
    return [str(g) for g in polys]


def pinned(index):
    """Everything pinned for one corpus ideal, keyed by order."""
    ideal = CORPUS[index]
    ring = ideal.ring
    n = ring.num_vars
    rng = random.Random(index)
    probes = [random_polynomial(ring, 3, rng) for _ in range(2)]
    gens = ideal.generators
    out = {}
    for order in order_cases(n):
        basis = buchberger(gens, order)
        out[f"{order.kind} {order.permutation}"] = {
            "basis": strings(basis),
            "codim_exit": [strings(buchberger(gens, order, codim_at_least=c)) for c in range(1, n + 2)],
            "is_codim_at_least": [is_codim_at_least(c, ideal, order) for c in range(1, n + 2)],
            "normal_form": strings(normal_form(p, basis, order) for p in probes)
            + strings(normal_form(p, gens, order) for p in probes),
        }
    return out


def test_corpus_matches_stored_size():
    assert len(GOLDEN) == len(CORPUS)


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_ideal_matches_golden(index):
    assert pinned(index) == GOLDEN[index]
