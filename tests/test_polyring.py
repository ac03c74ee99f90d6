"""Fields, monomial orders, polynomial arithmetic, and the parser."""

import itertools
import random
from fractions import Fraction
from operator import add, le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyminors import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    CoefficientField,
    MonomialOrder,
    ParseError,
    PolyError,
    PolyRing,
    identity_order,
    parse_polynomial,
    random_order,
)
from polyminors.polyring import (
    MAX_EXPONENT,
    ExponentOverflowError,
    RingMismatchError,
    random_polynomial,
)


@pytest.fixture
def ring_xy():
    return PolyRing(QQ, ["x", "y"])


@pytest.fixture
def ring_p():
    return PolyRing(GF(101), ["x", "y", "z"])


def fractional_polynomial(ring, degree, rng):
    """random_polynomial over QQ with non-integer Fraction coefficients."""
    def coeff():
        d = rng.choice((2, 3, 6, 35))
        return Fraction(rng.choice((-1, 1)) * (rng.randint(0, 50) * d + rng.randint(1, d - 1)), d)
    return ring.from_terms((coeff(), m) for m in random_polynomial(ring, degree, rng).terms)


@pytest.fixture
def operand_draws(ring_xy, rng):
    """draw(degree) functions over QQ (integer, then non-integer coefficients)
    and GF(2^31 - 1)."""
    ring_big_p = PolyRing(GF(2**31 - 1), ["x", "y", "z"])
    return [
        lambda degree: random_polynomial(ring_xy, degree, rng),
        lambda degree: fractional_polynomial(ring_xy, degree, rng),
        lambda degree: random_polynomial(ring_big_p, degree, rng),
    ]


def assert_canonical(f):
    p = f.ring.field.characteristic
    for c in f.terms.values():
        assert type(c) is (int if p else Fraction)
        assert c and (not p or 0 < c < p)


class TestCoefficientField:
    def test_rational_coercion(self):
        assert QQ.coerce(3) == Fraction(3)
        assert QQ.coerce(Fraction(2, 5)) == Fraction(2, 5)

    def test_prime_field_coercion(self):
        f = GF(7)
        assert f.coerce(10) == 3
        assert f.coerce(-1) == 6
        # 1/2 = 4 mod 7
        assert f.coerce(Fraction(1, 2)) == 4

    def test_non_invertible_denominator(self):
        with pytest.raises(PolyError):
            GF(5).coerce(Fraction(1, 5))

    def test_rejects_composite_characteristic(self):
        with pytest.raises(PolyError):
            CoefficientField(6)

    def test_rejects_huge_characteristic(self):
        with pytest.raises(PolyError):
            CoefficientField((1 << 31) + 11)

    def test_inverse(self):
        f = GF(101)
        for a in range(1, 101):
            assert f.mul(a, f.inv(a)) == 1

    def test_field_equality(self):
        assert GF(7) == GF(7)
        assert GF(7) != GF(11)
        assert QQ == CoefficientField(0)


@st.composite
def monomials(draw, n=3, max_exp=6):
    return tuple(draw(st.integers(0, max_exp)) for _ in range(n))


@st.composite
def orders(draw, n=3):
    kind = draw(st.sampled_from([LEX, GREVLEX]))
    perm = draw(st.permutations(range(n)))
    return MonomialOrder(kind, tuple(perm))


def reference_compare(a, b, order):
    """-1, 0 or 1 as a is below, equal to or above b, from the definitions.

    Lex: the first differing exponent, in permutation order, decides.
    GRevLex: total degree first; then, scanning up from permutation[-1], the
    larger exponent at the first difference is the smaller monomial.
    """
    def sign(x):
        return (x > 0) - (x < 0)

    if order.kind == LEX:
        scan = [(a[v], b[v]) for v in order.permutation]
    else:
        scan = [(sum(a), sum(b))] + [(b[v], a[v]) for v in reversed(order.permutation)]
    return next((sign(x - y) for x, y in scan if x != y), 0)


def compare(a, b, order):
    """-1, 0 or 1 from the packed ints, checked against the reference."""
    pa, pb = order.packing.pack(a), order.packing.pack(b)
    packed = (pa > pb) - (pa < pb)
    assert packed == reference_compare(a, b, order)
    return packed


class TestMonomialOrders:
    @given(orders(), monomials(), monomials(), monomials())
    def test_total_order_axioms(self, order, a, b, c):
        # Antisymmetry and transitivity via the packed embedding.
        pa, pb, pc = map(order.packing.pack, (a, b, c))
        assert (pa <= pb <= pc) <= (pa <= pc)
        assert (compare(a, b, order) == 0) == (a == b)

    @given(orders(), monomials(max_exp=4), monomials(max_exp=4), monomials(max_exp=4))
    def test_multiplicative_compatibility(self, order, a, b, m):
        cmp_before = compare(a, b, order)
        cmp_after = compare(tuple(map(add, a, m)), tuple(map(add, b, m)), order)
        assert cmp_before == cmp_after

    @given(orders(), monomials())
    def test_one_is_minimal(self, order, a):
        one = (0, 0, 0)
        assert compare(one, a, order) <= 0

    def test_lex_reads_permutation_order(self):
        order = MonomialOrder(LEX, (1, 0))
        # y-exponent compared first.
        assert compare((6, 0), (1, 4), order) < 0

    def test_grevlex_degree_then_reverse(self):
        order = identity_order(GREVLEX, 2)
        # Total degree decides first.
        assert compare((3, 0), (1, 3), order) < 0
        # On ties, the larger exponent in the least significant variable loses.
        assert compare((1, 2), (2, 1), order) < 0

    def test_lead_term_rejects_an_order_of_another_length(self, ring_xy):
        for perm in [(0,), (0, 1, 2)]:
            with pytest.raises(PolyError):
                ring_xy.parse("x*y + 1").lead_term(MonomialOrder(LEX, perm))

    def test_bad_permutation_rejected(self):
        with pytest.raises(PolyError):
            MonomialOrder(LEX, (0, 0))

    def test_random_order_uniform_over_permutations(self):
        rng = random.Random(7)
        seen = {random_order(LEX, 3, rng).permutation for _ in range(200)}
        assert len(seen) == 6


def packing_cases(count):
    """(order, monomial, ...) with `count` monomials of one length, exponents
    small (to force ties and divisibility) or anywhere below MAX_EXPONENT."""
    def for_length(n):
        mono = st.one_of(monomials(n, max_exp=2), monomials(n, max_exp=MAX_EXPONENT - 1))
        return st.tuples(orders(n), *[mono] * count)
    return st.integers(1, 7).flatmap(for_length)


def overflowing(a, b):
    return any(x + y >= MAX_EXPONENT for x, y in zip(a, b))


def check_words(order, a, b):
    """Exponent words of a and b against the tuple reference under the order."""
    packing = order.packing
    pa, pb = packing.pack(a), packing.pack(b)
    wa, wb = packing.word(pa), packing.word(pb)
    lcm = tuple(map(max, a, b))
    word = packing.word_lcm(wa, wb)
    assert word == packing.word_lcm(wb, wa) == packing.word(packing.pack(lcm))
    assert packing.from_word(word) == (sum(lcm), packing.pack(lcm))
    assert (not (wb - wa) & packing.guard) == packing.divides(pa, pb)
    if packing.divides(pa, pb):
        assert wa <= wb  # word order extends divisibility
    assert (word == wa + wb) == (not any(map(min, a, b)))  # coprime leads
    top = packing.pack((MAX_EXPONENT - 1,) * len(a)) + packing.offset
    assert packing.packed_room([pa, pb]) == top - packing.pack(lcm)


def word_cases():
    """(order, a, b) whose exponents are often 0 or MAX_EXPONENT - 1."""
    exponent = st.one_of(st.sampled_from([0, 1, MAX_EXPONENT - 1]),
                         st.integers(0, MAX_EXPONENT - 1))

    def for_length(n):
        mono = st.tuples(*[exponent] * n)
        return st.tuples(orders(n), mono, mono)
    return st.integers(1, 7).flatmap(for_length)


class TestExponentPacking:
    @given(packing_cases(2))
    def test_int_comparison_is_the_order(self, case):
        order, a, b = case
        pa, pb = order.packing.pack(a), order.packing.pack(b)
        assert (pa > pb) - (pa < pb) == reference_compare(a, b, order)

    @given(packing_cases(1))
    def test_unpack_inverts_pack(self, case):
        order, a = case
        assert order.packing.unpack(order.packing.pack(a)) == a

    @given(packing_cases(2))
    def test_product_is_a_sum_and_overflow_is_flagged(self, case):
        order, a, b = case
        packing = order.packing
        product = packing.pack(a) + packing.pack(b)
        flagged = (packing.packed_room([packing.pack(b)]) - packing.pack(a)) & packing.guard
        assert bool(flagged) == overflowing(a, b)
        ring = PolyRing(GF(2), [f"x{i}" for i in range(len(a))])
        if overflowing(a, b):
            with pytest.raises(ExponentOverflowError):
                ring.from_terms([(1, a)]) * ring.from_terms([(1, b)])
        else:
            assert product == packing.pack(tuple(map(add, a, b)))
            assert packing.unpack(product) == tuple(map(add, a, b))

    @given(packing_cases(2))
    def test_divides_is_componentwise(self, case):
        order, a, b = case
        packing = order.packing
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.divides(pa, pb) == all(map(le, a, b))
        gcd = tuple(map(min, a, b))
        assert packing.divides(packing.pack(gcd), pa)
        assert pa - packing.pack(gcd) == packing.pack(tuple(map(sub, a, gcd)))

    @given(packing_cases(3))
    def test_room_bounds_every_shifted_term(self, case):
        order, shift, a, b = case
        packing = order.packing
        room = packing.packed_room([packing.pack(a), packing.pack(b)])
        fits = not (room - packing.pack(shift)) & packing.guard
        assert fits == (not overflowing(shift, a) and not overflowing(shift, b))


    @given(word_cases())
    def test_word_lcm_degree_and_packing(self, case):
        check_words(*case)

    def test_words_at_the_field_limits(self):
        # Lead degree sums past 2^17 and fields at 0 and MAX_EXPONENT - 1,
        # under every Lex and GRevLex permutation of four variables.
        top = MAX_EXPONENT - 1
        monos = [(top, top, top, top), (0, top, 5, top), (top, 0, 0, 1), (1, 0, top, 0),
                 (0, 0, 0, 0), (top, 1, top, 0)]
        assert sum(monos[0]) > 1 << 17
        for perm in itertools.permutations(range(4)):
            for kind in (LEX, GREVLEX):
                order = MonomialOrder(kind, perm)
                for a in monos:
                    for b in monos:
                        check_words(order, a, b)


class TestArithmetic:
    def test_ring_construction_rejects_duplicates(self):
        with pytest.raises(PolyError):
            PolyRing(QQ, ["x", "x"])

    def test_add_sub_roundtrip(self, operand_draws):
        for draw in operand_draws:
            for _ in range(25):
                f = draw(4)
                g = draw(4)
                assert (f + g) - g == f
                assert f - f == f.ring.zero()
                assert_canonical(f + g)
                assert_canonical(f - g)

    def test_mul_distributes(self, operand_draws):
        for draw in operand_draws:
            for _ in range(25):
                f = draw(3)
                g = draw(3)
                h = draw(3)
                assert f * (g + h) == f * g + f * h
                assert_canonical(f * g)

    def test_mul_matches_sum_over_term_pairs(self, ring_xy, operand_draws):
        # from_terms accumulates through CoefficientField.add, a path
        # independent of the product's own loop.
        def reference(f, g):
            return f.ring.from_terms(
                (cf * cg, tuple(map(add, mf, mg))) for mf, cf in f.terms.items() for mg, cg in g.terms.items()
            )

        cases = []
        for draw in operand_draws:
            cases += [(draw(3), draw(3)) for _ in range(20)]
            f = draw(2)
            cases += [(f, f.ring.zero()), (f.ring.zero(), f)]
        # Products whose x*y terms cancel, over QQ and over GF(2).
        ring_2 = PolyRing(GF(2), ["x", "y"])
        cancelling = [
            (ring_xy.parse("1/2*x + 1/3*y"), ring_xy.parse("1/2*x - 1/3*y")),
            (ring_2.parse("x + y"), ring_2.parse("x + y")),
        ]
        for f, g in cases + cancelling:
            assert (f * g).terms == reference(f, g).terms
            assert_canonical(f * g)
        assert [(f * g).terms for f, g in cancelling] == [
            {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)},
            {(2, 0): 1, (0, 2): 1},
        ]

    def test_pow_matches_repeated_mul(self, ring_xy, rng):
        f = random_polynomial(ring_xy, 2, rng)
        acc = ring_xy.one()
        for k in range(5):
            assert f**k == acc
            acc = acc * f

    def test_equality_with_other_types(self, ring_xy, ring_p):
        for ring in (ring_xy, ring_p):
            one = ring.one()
            assert one == 1 and one == Fraction(1) and ring.zero() == 0
            assert not one == None  # noqa: E711
            assert one != "x"
            assert [None, "x", one].index(one) == 2
            assert one not in [None, "x"]

    def test_ring_mismatch(self, ring_xy, ring_p):
        with pytest.raises(RingMismatchError):
            ring_xy.parse("x") + ring_p.parse("x")

    def test_from_terms_rejects_exponents_out_of_range(self, ring_xy):
        top = ring_xy.from_terms([(1, (MAX_EXPONENT - 1, 0))])
        assert top.terms == {(MAX_EXPONENT - 1, 0): 1}
        for mono in [(MAX_EXPONENT, 0), (MAX_EXPONENT + 5, 0), (0, 1 << 40)]:
            with pytest.raises(ExponentOverflowError):
                ring_xy.from_terms([(1, mono)])
        for mono in [(-1, 2), (1.5, 0), (0, Fraction(1, 2)), (0, "2")]:
            with pytest.raises(PolyError, match="not a nonnegative integer"):
                ring_xy.from_terms([(1, mono)])

    def test_exponent_overflow(self, ring_xy):
        x = ring_xy.gens()[0]
        big = ring_xy.from_terms([(1, (MAX_EXPONENT - 1, 0))])
        with pytest.raises(ExponentOverflowError):
            big * x

    def test_exponent_overflow_boundary(self, ring_p):
        # One test per product, from each operand's largest exponent per
        # variable: raised exactly when some pair of terms overflows.
        x, y, z = ring_p.gens()
        near = ring_p.from_terms([(1, (MAX_EXPONENT - 1, 0, 0)), (1, (0, 5, 0))])
        with pytest.raises(ExponentOverflowError):
            near * (x + 1)
        top = ring_p.from_terms([(1, (MAX_EXPONENT - 1, 1, 0))])
        assert near * (y + 1) == top + near + y**6
        f = ring_p.from_terms([(3, (MAX_EXPONENT - 2, 0, 0)), (5, (0, 2, 1))])
        g = x + y**4 + z
        assert (f * g).terms[(MAX_EXPONENT - 1, 0, 0)] == 3

    def test_modular_coefficients_wrap(self, ring_p):
        f = ring_p.parse("100*x + 2*x")
        assert f == ring_p.parse("x")

    def test_monic(self, ring_xy):
        f = ring_xy.parse("3*x^2 + 6*y")
        m = f.monic()
        assert m.lead_term()[1] == 1
        assert m == ring_xy.parse("x^2 + 2*y")


class TestDerivativeAndEvaluate:
    def test_leibniz_rule(self, ring_xy, rng):
        for _ in range(20):
            f = random_polynomial(ring_xy, 3, rng)
            g = random_polynomial(ring_xy, 3, rng)
            for v in range(2):
                lhs = (f * g).partial_derivative(v)
                rhs = f.partial_derivative(v) * g + f * g.partial_derivative(v)
                assert lhs == rhs

    def test_derivative_kills_pth_powers(self):
        ring = PolyRing(GF(5), ["x"])
        assert ring.parse("x^5").partial_derivative(0).is_zero()
        assert ring.parse("x^7").partial_derivative(0) == ring.parse("2*x^6")

    def test_evaluate_is_ring_homomorphism(self, ring_p, rng):
        field = ring_p.field
        for _ in range(30):
            f = random_polynomial(ring_p, 3, rng)
            g = random_polynomial(ring_p, 3, rng)
            pt = [field.random_element(rng) for _ in range(3)]
            assert (f + g).evaluate(pt) == field.add(f.evaluate(pt), g.evaluate(pt))
            assert (f * g).evaluate(pt) == field.mul(f.evaluate(pt), g.evaluate(pt))

    def test_evaluate_rational(self, ring_xy):
        f = ring_xy.parse("x^2*y - 1/2*y")
        assert f.evaluate([Fraction(1, 2), 2]) == Fraction(1, 2) - 1


class TestParser:
    def test_simple(self, ring_xy):
        f = ring_xy.parse("x^2 - 2*x*y + y^2")
        x, y = ring_xy.gens()
        assert f == (x - y) * (x - y)

    def test_rational_coefficients(self, ring_xy):
        f = ring_xy.parse("5/8*x + 7/10")
        assert f.terms[(1, 0)] == Fraction(5, 8)

    def test_parentheses_and_signs(self, ring_xy):
        f = ring_xy.parse("-(x + y)*(x - y)")
        x, y = ring_xy.gens()
        assert f == y * y - x * x

    def test_unknown_variable(self, ring_xy):
        with pytest.raises(ParseError):
            ring_xy.parse("x + w")

    def test_trailing_garbage(self, ring_xy):
        with pytest.raises(ParseError):
            ring_xy.parse("x + ]")

    def test_str_roundtrip(self, ring_xy, ring_p, rng):
        for ring in (ring_xy, ring_p):
            for _ in range(40):
                f = random_polynomial(ring, 4, rng)
                assert parse_polynomial(str(f), ring) == f

    def test_exponent_limit_names_the_largest_exponent(self, ring_xy):
        # MAX_EXPONENT - 1 = 65535 is the largest exponent allowed.
        assert ring_xy.parse("x^65535").terms == {(MAX_EXPONENT - 1, 0): 1}
        with pytest.raises(ParseError, match=r"^exponent above 65535 \(at position 2\)$"):
            ring_xy.parse("x^65536")
        with pytest.raises(ExponentOverflowError, match="^exponent above 65535$"):
            ring_xy.parse("x^65535*y*x")

    def test_nesting_limit_does_not_depend_on_the_caller(self, ring_p):
        # 330 nested expressions, the whole text counting as one, parse; the
        # next opening parenthesis's contents fail at position 330 wherever
        # the caller stands.
        deep = "(" * 400 + "x" + ")" * 400

        def position_at(frames):
            if frames:
                return position_at(frames - 1)
            with pytest.raises(ParseError, match="nested too deeply") as info:
                parse_polynomial(deep, ring_p)
            return info.value.position

        assert [position_at(frames) for frames in (0, 30, 60, 90)] == [330] * 4
        assert parse_polynomial("(" * 329 + "x" + ")" * 329, ring_p) == ring_p.gens()[0]
        # Depth is nesting, not the number of parenthesised factors.
        assert parse_polynomial("+".join(["(x)"] * 400), ring_p) == 400 * ring_p.gens()[0]

    def test_zero_prints_and_parses(self, ring_xy):
        assert str(ring_xy.zero()) == "0"
        assert ring_xy.parse("0").is_zero()

    @settings(max_examples=60)
    @given(st.integers(-40, 40), st.integers(1, 40))
    def test_fraction_roundtrip(self, num, den):
        ring = PolyRing(QQ, ["x"])
        f = ring.constant(Fraction(num, den))
        assert parse_polynomial(str(f), ring) == f
