"""Buchberger, normal forms, dimension, and the codimension fast path."""

import random
from itertools import combinations
from operator import le, sub

import pytest

from polyminors import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    BudgetExceededError,
    GroebnerState,
    Ideal,
    MonomialOrder,
    PolyError,
    PolyRing,
    buchberger,
    codim_quotient,
    dim_quotient,
    is_codim_at_least,
    is_unit_ideal,
    normal_form,
)
from polyminors.gbasis import DEFAULT_S_PAIR_CAP, minimum_vertex_cover, monomial_ideal_codim
from polyminors.polyring import (
    ExponentOverflowError,
    identity_order,
    random_polynomial,
)


def spoly(f, g, order):
    lf, cf = f.lead_term(order)
    lg, cg = g.lead_term(order)
    l = tuple(map(max, lf, lg))
    ring = f.ring
    mf = ring.from_terms([(ring.field.inv(cf), tuple(map(sub, l, lf)))])
    mg = ring.from_terms([(ring.field.inv(cg), tuple(map(sub, l, lg)))])
    return mf * f - mg * g


def random_ideal(ring, rng, count=3, degree=2):
    gens = []
    while len(gens) < count:
        f = random_polynomial(ring, degree, rng)
        if not f.is_zero():
            gens.append(f)
    return Ideal(gens, ring)


def ideal_corpus():
    """A mixed corpus of small ideals over GF(101) and QQ."""
    corpus = []
    rng = random.Random(2024)
    for char in (101, 0):
        field = GF(char) if char else QQ
        for n in (2, 3):
            ring = PolyRing(field, [f"x{i}" for i in range(n)])
            for _ in range(12):
                corpus.append(random_ideal(ring, rng, count=rng.choice([2, 3])))
    # A few structured ones.
    R = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = R.gens()
    corpus.append(Ideal([x * y, y * z, x * z], R))
    corpus.append(Ideal([x * x - y, y * y - z], R))
    corpus.append(Ideal([x + y + z], R))
    corpus.append(Ideal([R.one()], R))
    corpus.append(Ideal([R.zero()], R))
    return corpus


class TestBuchberger:
    def test_empty_and_zero(self):
        R = PolyRing(QQ, ["x"])
        assert buchberger([]) == []
        assert buchberger([R.zero()]) == []

    def test_known_basis(self):
        R = PolyRing(QQ, ["x", "y"])
        x, y = R.gens()
        gb = buchberger([x * x - y, x * y - 1], identity_order(GREVLEX, 2))
        # x^2 - y, xy - 1 extend to a basis containing y^2 - x.
        assert any(g == y * y - x for g in gb)

    def test_basis_is_monic_and_sorted(self):
        R = PolyRing(GF(101), ["x", "y", "z"])
        rng = random.Random(1)
        order = R.canonical_order
        gb = buchberger(random_ideal(R, rng).generators, order)
        for g in gb:
            assert g.lead_term(order)[1] == 1
        keys = [order.packing.pack(g.lead_term(order)[0]) for g in gb]
        assert keys == sorted(keys)

    def test_basis_is_reduced(self):
        R = PolyRing(QQ, ["x", "y"])
        rng = random.Random(2)
        order = R.canonical_order
        gb = buchberger(random_ideal(R, rng).generators, order)
        leads = [g.lead_term(order)[0] for g in gb]
        for i, g in enumerate(gb):
            for m in g.terms:
                for j, lm in enumerate(leads):
                    if i == j:
                        continue
                    assert not all(a <= b for a, b in zip(lm, m))

    def test_spolys_reduce_to_zero_on_corpus(self):
        # Acceptance criterion 9 ingredient: the Buchberger certificate.
        for ideal in ideal_corpus():
            order = ideal.ring.canonical_order
            gb = ideal.groebner_basis(order)
            for f, g in combinations(gb, 2):
                assert normal_form(spoly(f, g, order), gb, order).is_zero()

    def test_generators_reduce_to_zero(self):
        for ideal in ideal_corpus()[:12]:
            gb = ideal.groebner_basis()
            for g in ideal.generators:
                assert normal_form(g, gb).is_zero()

    def test_extending_a_basis_matches_a_fresh_run(self):
        # A complete state extended by more generators and completed again
        # must reach the reduced basis of a fresh run, which is unique.
        rng = random.Random(7)
        for ideal in ideal_corpus():
            order = ideal.ring.canonical_order
            gb = ideal.groebner_basis(order)
            extra = random_ideal(ideal.ring, rng, count=2).generators
            fresh = buchberger(ideal.generators + extra, order)
            state = GroebnerState(ideal.ring, order)
            state.add(gb)
            assert state.complete(DEFAULT_S_PAIR_CAP) is False
            assert state.reduced_basis() == gb
            state.add(extra)
            assert state.complete(DEFAULT_S_PAIR_CAP) is False
            assert state.reduced_basis() == fresh

    @pytest.mark.parametrize("field", [GF(101), QQ], ids=repr)
    def test_exponent_overflow_raises(self, field):
        # The S-pair of the two leads (x*y^65535 and x*y) shifts y^2 to y^65536.
        R = PolyRing(field, ["x", "y"])
        gens = [R.parse("x*y^65535 + 1"), R.parse("x*y + y^2")]
        with pytest.raises(ExponentOverflowError):
            buchberger(gens)

    def test_order_of_another_length_rejected(self):
        # Packing with another length would return exponent tuples of that length.
        R = PolyRing(QQ, ["x", "y"])
        x, y = R.gens()
        for order in [MonomialOrder(LEX, (0,)), MonomialOrder(LEX, (0, 1, 2))]:
            with pytest.raises(PolyError, match="does not match order"):
                buchberger([x * y - 1, x - y], order)
            with pytest.raises(PolyError, match="does not match order"):
                normal_form(x * y, [x - y], order)

    @pytest.mark.parametrize("field", [GF(101), QQ], ids=repr)
    def test_exponent_overflow_in_a_reduction_raises(self, field):
        # x^65535*y^60000 reduces by its lead y^60000 to x^65536.
        R = PolyRing(field, ["x", "y"])
        with pytest.raises(ExponentOverflowError):
            normal_form(R.parse("x^65535*y^60000"), [R.parse("x - y^60000")])

    def test_budget_error(self):
        R = PolyRing(QQ, ["x", "y", "z"])
        rng = random.Random(3)
        gens = [random_polynomial(R, 3, rng) for _ in range(4)]
        with pytest.raises(BudgetExceededError):
            buchberger(gens, s_pair_cap=1)


class TestCodimStop:
    def test_corpus_sweep(self):
        # Stopped early, the entries lie in the ideal and prove the bound;
        # otherwise the result is the reduced basis.
        for ideal in ideal_corpus():
            n = ideal.ring.num_vars
            order = ideal.ring.canonical_order
            full = buchberger(ideal.generators, order)
            for c in range(0, n + 2):
                got = buchberger(ideal.generators, order, codim_at_least=c)
                heads = [g.lead_term(order)[0] for g in got]
                if monomial_ideal_codim(heads, n) >= c:
                    assert codim_quotient(ideal) >= c
                    assert all(normal_form(g, full, order).is_zero() for g in got)
                else:
                    assert got == full

    def test_stop_answers_where_the_cap_raises(self):
        # The input heads x^2 and y^2 give codim 2 before any pair is taken,
        # while pairs stay queued; the ideal is the unit ideal.
        R = PolyRing(GF(101), ["x", "y"])
        x, y = R.gens()
        gens = [x * x - y, x * y - 1, y * y]
        with pytest.raises(BudgetExceededError):
            buchberger(gens, s_pair_cap=0)
        assert buchberger(gens, s_pair_cap=0, codim_at_least=2) == gens
        assert buchberger(gens) == [R.one()]

    def test_inputs_past_the_prefix_join_by_their_normal_forms(self):
        # A checkpoint adds its minors unreduced to a state seeded with a
        # Groebner basis (the prefix); the stop and the entries must be those
        # of adding their nonzero normal forms, and members join nothing.
        rng = random.Random(9)
        for ideal in ideal_corpus():
            ring = ideal.ring
            order = ring.canonical_order
            gb = ideal.groebner_basis(order)
            extra = random_ideal(ring, rng, count=2).generators
            members = [gb[0] * extra[0], gb[-1] * extra[1]] if gb else [ring.zero()]
            extra.append(members[0])
            reduced = [r for e in extra if (r := normal_form(e, gb, order))]
            for c in [None, *range(1, ring.num_vars + 2)]:
                outcomes = []
                for inputs in (extra, reduced, members):
                    state = GroebnerState(ring, order)
                    state.add(gb)
                    state.add(inputs)
                    outcomes.append((state.complete(DEFAULT_S_PAIR_CAP, c), state.polynomials()))
                assert outcomes[0] == outcomes[1]
                assert outcomes[2][1] == gb


class TestGroebnerState:
    def test_members_added_to_a_complete_state_join_nothing(self):
        # No entry joins and no pair is queued, so even a zero cap completes.
        rng = random.Random(11)
        for ideal in ideal_corpus():
            ring = ideal.ring
            state = GroebnerState(ring)
            state.add(ideal.generators)
            assert state.complete(DEFAULT_S_PAIR_CAP) is False
            entries, gb = state.polynomials(), state.reduced_basis()
            multipliers = random_ideal(ring, rng, count=2).generators
            state.add(ideal.generators + gb + [g * m for g in gb for m in multipliers])
            assert state.polynomials() == entries
            assert state.complete(0) is False
            assert state.reduced_basis() == gb

    def test_complete_resumes_after_a_budget_failure(self):
        # Calls with caps 1, 2, 3, ..., each but the last raising, resume one
        # queue and must end at the reduced basis of one uncapped run.
        R = PolyRing(QQ, ["x", "y", "z"])
        rng = random.Random(3)
        cubics = Ideal([random_polynomial(R, 3, rng) for _ in range(4)], R)
        failures = 0
        for ideal in [cubics, *ideal_corpus()]:
            state = GroebnerState(ideal.ring)
            state.add(ideal.generators)
            cap = 1
            while True:
                try:
                    assert state.complete(cap) is False
                    break
                except BudgetExceededError:
                    failures += 1
                    cap += 1
            assert state.reduced_basis() == buchberger(ideal.generators)
        assert failures > 0


    def test_pair_update_matches_a_tuple_reference(self):
        # After every join the queued pairs, their sugars and lcms equal those
        # of the Gebauer-Moeller update replayed on exponent tuples.
        rng = random.Random(5)
        R = PolyRing(GF(101), ["x", "y", "z"])
        ideals = [random_ideal(R, rng, count=4, degree=3) for _ in range(4)] + ideal_corpus()
        joins = 0
        for ideal in ideals:
            n = ideal.ring.num_vars
            orders = (identity_order(GREVLEX, n), MonomialOrder(LEX, tuple(reversed(range(n)))))
            for order in orders:
                state = _CheckedState(ideal.ring, order)
                state.add(ideal.generators)
                state.complete(DEFAULT_S_PAIR_CAP)
                joins += len(state.entries)
        assert joins > 300


class _CheckedState(GroebnerState):
    """A state whose every pair update is checked against a tuple reference.

    Between joins `complete` only takes pairs, in ascending (sugar, lcm), so a
    joining remainder's sugar is that of the last pair taken since the last
    join; an input's is its total degree.
    """

    def __init__(self, ring, order):
        super().__init__(ring, order)
        self.leads, self.sugars, self.expected, self.ref_useful = [], [], {}, []

    def _join(self, entry):
        unpack = self.order.packing.unpack
        live = {k: v for k, v in self.expected.items() if k in self.live}
        taken = [sugar for k, (sugar, _) in self.expected.items() if k not in live]
        if taken:
            sugar = max(taken)
        else:
            sugar = max(sum(unpack(m)) for m in (entry.lm, *entry.tail_m))
        new = super()._join(entry)
        self.expected = _reference_update(self.leads, self.sugars, self.ref_useful, live,
                                          unpack(entry.lm), sugar)
        queued = {(i, j): (s, unpack(l)) for s, l, i, j in self.queue if (i, j) in self.live}
        assert queued == self.expected
        return new


def _reference_update(leads, sugars, useful, live, lead_h, sugar_h):
    """The Gebauer-Moeller update on exponent tuples: {(i, j): (sugar, lcm)}."""
    def divides(a, b):
        return all(map(le, a, b))

    def lcm(a, b):
        return tuple(map(max, a, b))

    h = len(leads)
    leads.append(lead_h)
    sugars.append(sugar_h)
    candidates = {}  # lcm -> [least sugar, its first g, coprime]
    for g in useful:
        l = lcm(leads[g], lead_h)
        sugar = max(sugars[g] - sum(leads[g]), sugar_h - sum(lead_h)) + sum(l)
        coprime = not any(map(min, leads[g], lead_h))
        seen = candidates.setdefault(l, [sugar, g, coprime])
        if sugar < seen[0]:
            seen[0], seen[1] = sugar, g
        seen[2] = seen[2] or coprime
    for (i, j), (_, l) in list(live.items()):
        if divides(lead_h, l) and lcm(leads[i], lead_h) != l and lcm(leads[j], lead_h) != l:
            del live[(i, j)]
    for l, (sugar, g, coprime) in candidates.items():
        minimal = not any(d != l and divides(d, l) for d in candidates)
        if minimal and not coprime:
            live[(g, h)] = (sugar, l)
    useful[:] = [g for g in useful if not divides(lead_h, leads[g])] + [h]
    return live

class TestNormalForm:
    def test_remainder_not_divisible(self):
        R = PolyRing(QQ, ["x", "y"])
        rng = random.Random(4)
        ideal = random_ideal(R, rng)
        order = R.canonical_order
        gb = ideal.groebner_basis(order)
        leads = [g.lead_term(order)[0] for g in gb]
        for _ in range(10):
            p = random_polynomial(R, 3, rng)
            r = normal_form(p, gb, order)
            for m in r.terms:
                assert not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)

    def test_membership(self):
        R = PolyRing(QQ, ["x", "y"])
        x, y = R.gens()
        ideal = Ideal([x * x - y], R)
        assert ideal.contains(x**4 - y * y)
        assert not ideal.contains(x)


class TestIdeal:
    def test_equality_independent_of_generators(self):
        R = PolyRing(QQ, ["x", "y"])
        x, y = R.gens()
        a = Ideal([x, y], R)
        b = Ideal([x + y, y], R)
        assert a.equals(b)
        assert not a.equals(Ideal([x], R))

    def test_add(self):
        R = PolyRing(QQ, ["x", "y"])
        x, y = R.gens()
        s = Ideal([x], R) + [y]
        assert s.contains(x + y)

    def test_empty_ideal_needs_ring(self):
        with pytest.raises(Exception):
            Ideal([])


class TestUnitIdeal:
    def test_constant_generator_shortcut(self):
        R = PolyRing(QQ, ["x"])
        assert is_unit_ideal(Ideal([R.constant(5)], R))
        # The pair loop stops at the constant input before taking any pair.
        S = PolyRing(QQ, ["x", "y"])
        x, y = S.gens()
        assert is_unit_ideal(Ideal([x * y - 1, x**2 + y, S.constant(5)], S), s_pair_cap=0)

    def test_hidden_unit(self):
        R = PolyRing(QQ, ["x", "y"])
        x, y = R.gens()
        assert is_unit_ideal(Ideal([x + 1, x], R))
        assert not is_unit_ideal(Ideal([x, y], R))

    def test_constant_remainder_stops_the_pair_loop(self):
        # The one S-pair gives the constant 1; no further pair is needed.
        R = PolyRing(QQ, ["x"])
        x = R.gens()[0]
        assert is_unit_ideal(Ideal([x + 1, x], R), s_pair_cap=1)
        assert buchberger([x + 1, x], s_pair_cap=1) == [R.one()]

    def test_constant_input_stops_the_pair_loop(self):
        # No pair is taken: the input 1 already makes the basis complete.
        R = PolyRing(GF(101), ["x", "y"])
        x, y = R.gens()
        assert buchberger([y - x * x, x, R.one()], s_pair_cap=0) == [R.one()]


class TestVertexCoverAndDimension:
    def exhaustive_cover(self, supports, n):
        supports = [s for s in supports if s]
        for size in range(n + 1):
            for pick in combinations(range(n), size):
                chosen = set(pick)
                if all(chosen & s for s in supports):
                    return size
        return n

    def test_vertex_cover_matches_exhaustive(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.choice([3, 4, 5])
            supports = [
                frozenset(rng.sample(range(n), rng.randint(1, n)))
                for _ in range(rng.randint(1, 6))
            ]
            masks = [sum(1 << v for v in s) for s in supports]
            assert minimum_vertex_cover(masks) == self.exhaustive_cover(supports, n)

    def test_monomial_codim_conventions(self):
        assert monomial_ideal_codim([], 3) == 0
        assert monomial_ideal_codim([(0, 0, 0)], 3) == 4

    def test_dimension_examples(self):
        R = PolyRing(QQ, ["x", "y", "z"])
        x, y, z = R.gens()
        assert dim_quotient(Ideal([R.zero()], R)) == 3
        assert dim_quotient(Ideal([x], R)) == 2
        assert dim_quotient(Ideal([x, y], R)) == 1
        assert dim_quotient(Ideal([x, y, z], R)) == 0
        assert dim_quotient(Ideal([R.one()], R)) == -1
        assert codim_quotient(Ideal([x, y], R)) == 2
        assert codim_quotient(Ideal([R.one()], R)) == 4

    def test_dimension_order_independent(self):
        rng = random.Random(7)
        R = PolyRing(GF(101), ["x", "y", "z"])
        for _ in range(8):
            gens = random_ideal(R, rng).generators
            dims = set()
            for kind in (LEX, GREVLEX):
                perm = tuple(rng.sample(range(3), 3))
                dims.add(dim_quotient(Ideal(gens, R), MonomialOrder(kind, perm)))
            assert len(dims) == 1

    def test_twisted_cubic_dimension(self):
        R = PolyRing(QQ, ["x", "y", "z", "w"])
        x, y, z, w = R.gens()
        I = Ideal([x * z - y * y, y * w - z * z, x * w - y * z], R)
        assert dim_quotient(I) == 2


class TestCodimFastPath:
    def test_soundness_on_corpus(self):
        # Acceptance criterion 9 ingredient: 50-ideal soundness sweep.
        corpus = ideal_corpus()
        assert len(corpus) >= 50
        checked = 0
        for ideal in corpus:
            true_codim = codim_quotient(ideal)
            n = ideal.ring.num_vars
            for c in range(0, n + 2):
                claim = is_codim_at_least(c, ideal)
                assert claim in (True, None)
                if claim is True:
                    assert true_codim >= c
                    checked += 1
        assert checked > 0

    def test_conclusive_on_monomial_ideals(self):
        R = PolyRing(QQ, ["x", "y", "z"])
        x, y, z = R.gens()
        assert is_codim_at_least(2, Ideal([x, y], R)) is True

    def test_zero_bound_trivial(self):
        R = PolyRing(QQ, ["x"])
        assert is_codim_at_least(0, Ideal([R.zero()], R)) is True

    def test_negative_bound_rejected(self):
        R = PolyRing(QQ, ["x"])
        with pytest.raises(Exception):
            is_codim_at_least(-1, Ideal([R.zero()], R))


class TestCodimProbePairLimit:
    def test_limit_gates_discovered_heads(self):
        # Both generator heads are xy (codim 1); the Groebner basis has heads
        # x and y^2 (codim 2), which only S-pair remainders reveal.
        R = PolyRing(QQ, ["x", "y"])
        x, y = R.gens()
        I = Ideal([x * y - y, x * y - x], R)
        assert codim_quotient(I) == 2
        assert is_codim_at_least(2, I, max_reductions=0) is None
        assert is_codim_at_least(2, I) is True
