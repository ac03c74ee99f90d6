"""Fields, monomial orders, polynomial arithmetic, and the parser."""

import random
from fractions import Fraction

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
    compare_monomials,
    identity_order,
    parse_polynomial,
    random_order,
)
from polyminors.polyring import (
    MAX_EXPONENT,
    ExponentOverflowError,
    RingMismatchError,
    monomial_mul,
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


class TestMonomialOrders:
    @given(orders(), monomials(), monomials(), monomials())
    def test_total_order_axioms(self, order, a, b, c):
        # Antisymmetry and transitivity via the key embedding.
        ka, kb, kc = order.key(a), order.key(b), order.key(c)
        assert (ka <= kb <= kc) <= (ka <= kc)
        assert (compare_monomials(a, b, order) == 0) == (a == b)

    @given(orders(), monomials(max_exp=4), monomials(max_exp=4), monomials(max_exp=4))
    def test_multiplicative_compatibility(self, order, a, b, m):
        cmp_before = compare_monomials(a, b, order)
        cmp_after = compare_monomials(monomial_mul(a, m), monomial_mul(b, m), order)
        assert cmp_before == cmp_after

    @given(orders(), monomials())
    def test_one_is_minimal(self, order, a):
        one = (0, 0, 0)
        assert compare_monomials(one, a, order) <= 0

    def test_lex_reads_permutation_order(self):
        order = MonomialOrder(LEX, (1, 0))
        # y-exponent compared first.
        assert compare_monomials((6, 0), (1, 4), order) < 0

    def test_grevlex_degree_then_reverse(self):
        order = identity_order(GREVLEX, 2)
        # Total degree decides first.
        assert compare_monomials((3, 0), (1, 3), order) < 0
        # On ties, the larger exponent in the least significant variable loses.
        assert compare_monomials((1, 2), (2, 1), order) < 0

    def test_bad_permutation_rejected(self):
        with pytest.raises(PolyError):
            MonomialOrder(LEX, (0, 0))

    def test_random_order_uniform_over_permutations(self):
        rng = random.Random(7)
        seen = {random_order(LEX, 3, rng).permutation for _ in range(200)}
        assert len(seen) == 6


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
                (cf * cg, monomial_mul(mf, mg)) for mf, cf in f.terms.items() for mg, cg in g.terms.items()
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
        assert (f * g).exact_divide(g) == f

    def test_modular_coefficients_wrap(self, ring_p):
        f = ring_p.parse("100*x + 2*x")
        assert f == ring_p.parse("x")

    def test_monic(self, ring_xy):
        f = ring_xy.parse("3*x^2 + 6*y")
        m = f.monic()
        assert m.lead_term()[1] == 1
        assert m == ring_xy.parse("x^2 + 2*y")

    def test_exact_divide(self, ring_p, rng, operand_draws):
        draws = operand_draws + [lambda degree: random_polynomial(ring_p, degree, rng)]
        for draw in draws:
            for _ in range(20):
                f = draw(3)
                g = draw(3)
                if g.is_zero():
                    continue
                q = (f * g).exact_divide(g)
                assert q == f
                assert_canonical(q)
        # The x^2*y^2 term of the product cancels after the first quotient
        # term and reappears after the second.
        f = ring_p.parse("x^2 + x*y - y^2 + z")
        g = ring_p.parse("x^2 + x*y + y^2 + z")
        assert (f * g).exact_divide(g) == f
        assert (f * g).exact_divide(f) == g

    def test_inexact_divide_raises(self, ring_xy):
        with pytest.raises(PolyError):
            ring_xy.parse("x^2 + 1").exact_divide(ring_xy.parse("y"))


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

    def test_zero_prints_and_parses(self, ring_xy):
        assert str(ring_xy.zero()) == "0"
        assert ring_xy.parse("0").is_zero()

    @settings(max_examples=60)
    @given(st.integers(-40, 40), st.integers(1, 40))
    def test_fraction_roundtrip(self, num, den):
        ring = PolyRing(QQ, ["x"])
        f = ring.constant(Fraction(num, den))
        assert parse_polynomial(str(f), ring) == f
