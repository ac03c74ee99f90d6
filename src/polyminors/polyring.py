"""Exact coefficient fields, monomial orders, and sparse multivariate polynomials.

Coefficients are either arbitrary-precision rationals (fractions.Fraction) or
elements of a prime field F_p stored as machine ints in [0, p).  Polynomials
are immutable dicts mapping exponent tuples (nonnegative, below MAX_EXPONENT)
to nonzero coefficients; tuples are what every public function takes and
returns.  A monomial order has one encoding, its ExponentPacking: each
monomial becomes one int, comparing ints is the order, multiplication an add
and divisibility one mask test.  Leading terms, printing, the greedy ranking
and the Groebner core's division loop in `gbasis` all order monomials by
these ints.  Every product of two polynomials, in `Polynomial.__mul__` and
in the matrix kernels of `polylinalg`, is one `_add_product` on the ring's
Lex exponent words (`PolyRing.word_packing`).
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import add, mul, sub
from typing import Iterable

MAX_EXPONENT = 1 << 16

LEX = "Lex"
GREVLEX = "GRevLex"


class PolyError(Exception):
    """Base error for this package."""


class RingMismatchError(PolyError):
    pass


class ExponentOverflowError(PolyError):
    pass


def exponent_overflow_error() -> ExponentOverflowError:
    return ExponentOverflowError(f"exponent above {MAX_EXPONENT - 1}")


class ParseError(PolyError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class CoefficientField:
    """The rationals (characteristic 0) or a prime field F_p with p < 2^31."""

    def __init__(self, characteristic: int = 0):
        if characteristic != 0:
            if characteristic >= 1 << 31:
                raise PolyError(f"characteristic {characteristic} too large (must be < 2^31)")
            if not _is_prime(characteristic):
                raise PolyError(f"characteristic {characteristic} is not prime")
        self.characteristic = characteristic

    @property
    def is_prime_field(self) -> bool:
        return self.characteristic != 0

    def coerce(self, value):
        """Map an int, Fraction or field element into canonical form."""
        p = self.characteristic
        if p == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise PolyError(f"denominator of {value} not invertible mod {p}")
            return value.numerator % p * pow(den, p - 2, p) % p
        return int(value) % p

    def add(self, a, b):
        p = self.characteristic
        return a + b if p == 0 else (a + b) % p

    def sub(self, a, b):
        p = self.characteristic
        return a - b if p == 0 else (a - b) % p

    def mul(self, a, b):
        p = self.characteristic
        return a * b if p == 0 else a * b % p

    def neg(self, a):
        p = self.characteristic
        return -a if p == 0 else -a % p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        p = self.characteristic
        return 1 / a if p == 0 else pow(a, p - 2, p)

    @property
    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    def random_element(self, rng):
        p = self.characteristic
        if p == 0:
            return Fraction(rng.randint(-50, 50))
        return rng.randrange(p)

    def random_nonzero(self, rng):
        while True:
            c = self.random_element(rng)
            if c:
                return c

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("CoefficientField", self.characteristic))

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = CoefficientField(0)


def GF(p: int) -> CoefficientField:
    return CoefficientField(p)


@dataclass(frozen=True)
class MonomialOrder:
    """A Lex or GRevLex order with a variable permutation.

    permutation[0] is the most significant variable index.  `packing.pack`
    is the order's sort key: it maps each monomial to an int, and ints sort
    ascending exactly as the monomials do under the order.
    """

    kind: str
    permutation: tuple

    def __post_init__(self):
        if self.kind not in (LEX, GREVLEX):
            raise PolyError(f"unknown order kind {self.kind!r}")
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise PolyError("permutation is not a bijection on variable indices")

    @property
    def num_vars(self) -> int:
        return len(self.permutation)

    @cached_property
    def packing(self) -> "ExponentPacking":
        """This order's ExponentPacking, built on first use and kept with the order."""
        return ExponentPacking(self)


# Each variable gets a field of 16 exponent bits plus the guard bit above them.
_FIELD_BITS = MAX_EXPONENT.bit_length()
_LOW_BITS = MAX_EXPONENT - 1
_GUARD_SHIFT = _FIELD_BITS - 1


class ExponentPacking:
    """Exponent vectors of one order packed into single ints.

    After Monagan & Pearce, "Polynomial division using dynamic arrays, heaps,
    and packed exponent vectors" (CASC 2007).  pack(e) is the sum of
    e[v] * weights[v], so it is linear: the packing of a product is the sum of
    the packings and that of a quotient their difference.  Each variable owns
    one 17-bit field, and comparing packed ints compares monomials:

    - Lex: permutation[0] owns the top field, permutation[-1] the bottom one.
    - GRevLex: the total degree sits above every field, and permutation[k]'s
      exponent is subtracted in field k, so on equal degrees the larger
      exponent in the least significant variable gives the smaller int.

    For exponents below MAX_EXPONENT, `b - a + offset` has its guard bit set
    in exactly the fields where b - a is negative, which gives `divides`.  A
    packed product of two such monomials has an exponent of MAX_EXPONENT or
    more exactly when it does not divide (MAX_EXPONENT - 1, ...), which gives
    `packed_room`.  The Groebner core's division loop inlines both tests.

    An exponent word is the plain sum(e[v] << shift[v]) over the same fields,
    with zero guard bits and no degree field.  Its int order is a Lex order,
    so it too extends divisibility; a divides b exactly when not (b - a) &
    guard, and `word_lcm` takes a fieldwise max without unpacking.  The
    Groebner pair update works on words and packs only the lcms it keeps.
    """

    __slots__ = ("weights", "offset", "guard", "_top", "_shifts", "_flip", "_degree_shift",
                 "_word_mask")

    def __init__(self, order: MonomialOrder):
        n = order.num_vars
        self._degree_shift = _FIELD_BITS * n
        self._word_mask = (1 << self._degree_shift) - 1
        ones = sum(1 << (_FIELD_BITS * k) for k in range(n))
        shifts = [0] * n
        for k, v in enumerate(order.permutation):
            shifts[v] = _FIELD_BITS * (n - 1 - k if order.kind == LEX else k)
        if order.kind == LEX:
            self.weights = [1 << s for s in shifts]
            self.offset = self._flip = 0
        else:
            self.weights = [(1 << self._degree_shift) - (1 << s) for s in shifts]
            # With the offset added, field k holds MAX_EXPONENT - 1 minus the exponent.
            self.offset = _LOW_BITS * ones
            self._flip = _LOW_BITS
        self._shifts = shifts
        self.guard = MAX_EXPONENT * ones
        self._top = self.pack((_LOW_BITS,) * n) + self.offset

    def pack(self, mono: tuple) -> int:
        return sum(map(mul, mono, self.weights))

    def unpack(self, packed: int) -> tuple:
        x = packed + self.offset
        flip = self._flip
        return tuple([((x >> s) & _LOW_BITS) ^ flip for s in self._shifts])

    def divides(self, a: int, b: int) -> bool:
        """True if packed monomial a divides packed monomial b."""
        return not (b - a + self.offset) & self.guard

    def packed_room(self, packed) -> int:
        """Packed headroom of a polynomial given by its packed monomials.

        A packed monomial s times every one of them stays below MAX_EXPONENT
        exactly when not (room - s) & guard.
        """
        top = reduce(self.word_lcm, map(self.word, packed), 0)
        return self._top - self.from_word(top)[1]

    def room(self, monos) -> int:
        """`packed_room` of a polynomial given by its exponent tuples, from their column maxima."""
        return self._top - self.pack(_max_exponents(monos))

    def word(self, packed: int) -> int:
        """The exponent word of a packed monomial.

        Lex packs the word itself.  GRevLex packs degree << (17 * n) minus the
        word, and the word is below 1 << (17 * n).
        """
        return -packed & self._word_mask if self._flip else packed

    def word_lcm(self, a: int, b: int) -> int:
        """The lcm of two exponent words: a fieldwise max in a few int operations.

        t = ((a | guard) - b) & guard keeps the guard bit of each field where
        a >= b, with no borrow between fields; t - (t >> 16) fills those fields'
        exponent bits, and that mask takes a there and b elsewhere.
        """
        guard = self.guard
        t = ((a | guard) - b) & guard
        return b ^ ((a ^ b) & (t - (t >> _GUARD_SHIFT)))

    def from_word(self, word: int) -> tuple:
        """(total degree, packed monomial) of an exponent word."""
        degree = sum([(word >> s) & _LOW_BITS for s in self._shifts])
        return degree, ((degree << self._degree_shift) - word if self._flip else word)


def identity_order(kind: str, num_vars: int) -> MonomialOrder:
    return MonomialOrder(kind, tuple(range(num_vars)))


def random_order(kind: str, num_vars: int, rng) -> MonomialOrder:
    """A Lex or GRevLex order with a uniformly random variable permutation."""
    perm = list(range(num_vars))
    rng.shuffle(perm)
    return MonomialOrder(kind, tuple(perm))


def _max_exponents(terms) -> list:
    """Each variable's largest exponent over the monomials of a term dict."""
    return [max(column) for column in zip(*terms)]


def _packed_line(packing, entries, p):
    """(scale, [(top word, [(word, int coefficient)])]) of a matrix row or column.

    Words are `packing.pack`'s; under a Lex packing, each entry's top word
    holds its largest exponent per variable.  Over QQ, scale is the common
    denominator of the line's coefficients and the ints are numerators over
    it; over F_p it is 1.
    """
    pack = packing.pack
    scale = 1 if p else lcm(*[c.denominator for e in entries for c in e.terms.values()])
    return scale, [
        (
            pack(_max_exponents(e.terms)) if e.terms else 0,
            [(pack(m), c if p else c.numerator * (scale // c.denominator)) for m, c in e.terms.items()],
        )
        for e in entries
    ]


def _add_product(acc, a, b, guard: int, sign: int = 1):
    """acc[word] += sign * a * b for entries a, b = (top word, [(word, int)]).

    Fields hold exponents below MAX_EXPONENT, so two top words cannot carry
    past a guard bit; nonzero entries whose top words sum into one raise
    ExponentOverflowError.  This is the package's one loop that multiplies
    two polynomials' terms.
    """
    (top_a, a), (top_b, b) = a, b
    if a and b:
        if (top_a + top_b) & guard:
            raise exponent_overflow_error()
        for wa, ca in a:
            ca *= sign
            for wb, cb in b:
                acc[wa + wb] += ca * cb


def _polynomial(ring: PolyRing, unpack, terms, d: int) -> Polynomial:
    """The Polynomial of (word, int) terms: each reduced mod p, or over QQ divided by d."""
    p = ring.field.characteristic
    if p:
        return Polynomial(ring, {unpack(w): r for w, c in terms if (r := c % p)})
    return Polynomial(ring, {unpack(w): Fraction(c, d) for w, c in terms if c})


class PolyRing:
    """A polynomial ring: a coefficient field plus named variables."""

    def __init__(self, field: CoefficientField, variables: Iterable[str]):
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise PolyError("duplicate variable names")
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        # Internal canonical order: GRevLex with the identity permutation.
        self.canonical_order = identity_order(GREVLEX, len(self.variables))
        # Lex exponent words, the packing of every polynomial product
        # (`_add_product`): a product's word is the sum of its factors' words.
        self.word_packing = identity_order(LEX, len(self.variables)).packing

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.num_vars: c})

    def var(self, index: int) -> "Polynomial":
        if not 0 <= index < self.num_vars:
            raise PolyError(f"variable index {index} out of range")
        exps = [0] * self.num_vars
        exps[index] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def gens(self):
        return [self.var(i) for i in range(self.num_vars)]

    def from_terms(self, terms) -> "Polynomial":
        """Build a polynomial from (coefficient, exponent-tuple) pairs."""
        acc = {}
        for coeff, mono in terms:
            coeff = self.field.coerce(coeff)
            mono = tuple(mono)
            if len(mono) != self.num_vars:
                raise PolyError("exponent tuple has wrong length")
            for e in mono:
                if not isinstance(e, int) or e < 0:
                    raise PolyError(f"exponent {e!r} is not a nonnegative integer")
                if e >= MAX_EXPONENT:
                    raise exponent_overflow_error()
            c = self.field.add(acc.get(mono, self.field.zero), coeff)
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        return Polynomial(self, acc)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.variables)}]"


class Polynomial:
    """A sparse multivariate polynomial; immutable after construction.

    terms maps exponent tuples to nonzero field coefficients.  The zero
    polynomial has no terms.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self):
        """The coefficient of the constant term (the value, if constant)."""
        return self.terms.get((0,) * self.ring.num_vars, self.ring.field.zero)

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for zero."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def sorted_terms(self):
        """(monomial, coefficient) pairs, descending under the canonical order."""
        pack = self.ring.canonical_order.packing.pack
        return sorted(self.terms.items(), key=lambda t: pack(t[0]), reverse=True)

    def lead_term(self, order: MonomialOrder = None):
        """(monomial, coefficient) of the largest term under the order."""
        if not self.terms:
            raise PolyError("zero polynomial has no lead term")
        order = order or self.ring.canonical_order
        if order.num_vars != self.ring.num_vars:
            raise PolyError("monomial length does not match order")
        m = max(self.terms, key=order.packing.pack)
        return m, self.terms[m]

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials from different rings")

    def _plus(self, other, op):
        """self op other for op in (operator.add, operator.sub)."""
        if not isinstance(other, Polynomial):
            other = self.ring.constant(other)
        self._check_ring(other)
        p = self.ring.field.characteristic
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            s = op(get(m, 0), c)
            if p:
                s %= p
            if s:
                out[m] = s
            else:
                # c is nonzero, so a zero sum means m was already a term.
                del out[m]
        return Polynomial(self.ring, out)

    def __add__(self, other):
        return self._plus(other, add)

    def __radd__(self, other):
        return self._plus(other, add)

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scalar_mul(other)
        self._check_ring(other)
        ring = self.ring
        packing = ring.word_packing
        p = ring.field.characteristic
        scale_a, [a] = _packed_line(packing, (self,), p)
        scale_b, [b] = _packed_line(packing, (other,), p)
        acc = defaultdict(int)
        _add_product(acc, a, b, packing.guard)
        return _polynomial(ring, packing.unpack, acc.items(), scale_a * scale_b)

    def __rmul__(self, other):
        return self.scalar_mul(other)

    def scalar_mul(self, c) -> "Polynomial":
        field = self.ring.field
        c = field.coerce(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: field.mul(co, c) for m, co in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise PolyError("negative exponent")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def monic(self, order: MonomialOrder = None) -> "Polynomial":
        """Divide by the lead coefficient under the order."""
        if not self.terms:
            return self
        _, c = self.lead_term(order)
        return self.scalar_mul(self.ring.field.inv(c))

    def partial_derivative(self, var_index: int) -> "Polynomial":
        """Formal partial derivative; exponent multiples reduce mod p over F_p."""
        if not 0 <= var_index < self.ring.num_vars:
            raise PolyError(f"variable index {var_index} out of range")
        field = self.ring.field
        out = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e == 0:
                continue
            coeff = field.mul(c, field.coerce(e))
            if not coeff:
                continue
            dm = list(m)
            dm[var_index] = e - 1
            out[tuple(dm)] = coeff
        return Polynomial(self.ring, out)

    def evaluate(self, point):
        """Exact evaluation at a point given as a sequence of field elements."""
        field = self.ring.field
        point = [field.coerce(v) for v in point]
        if len(point) != self.ring.num_vars:
            raise PolyError("point length does not match variable count")
        total = field.zero
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, point):
                if e:
                    v = field.mul(v, x**e if field.characteristic == 0 else pow(x, e, field.characteristic))
            total = field.add(total, v)
        return total

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            return self.is_zero()
        return self.is_constant() and self.constant_value() == self.ring.field.coerce(other)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.variables, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = _coeff_str(c)
            elif c == self.ring.field.one:
                body = "*".join(factors)
            elif self.ring.field.characteristic == 0 and c == -1:
                body = "-" + "*".join(factors)
            else:
                body = _coeff_str(c) + "*" + "*".join(factors)
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"Polynomial({self})"


def _coeff_str(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


# One match per token, with its leading whitespace; the last group catches
# any other character.  Only trailing whitespace is left unmatched.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|(\S))")
_TOKEN_KINDS = (None, "int", "name", "op")


def _tokenize(text: str):
    """(kind, value, position) tokens, ending with ("end", None, len(text))."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == 4:
            raise ParseError(f"unexpected character {m.group(4)!r}", m.start())
        value = m.group(group)
        if group == 1:
            try:
                value = int(value)
            except ValueError:  # longer than Python's int-from-string digit limit
                raise ParseError("integer literal too long", m.start(1)) from None
        tokens.append((_TOKEN_KINDS[group], value, m.start(group)))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := coefficient | variable ('^' uint)? | '(' expr ')'
    coefficient := int ('/' uint)?

    `expr` adds each term into one {exponent tuple: coefficient} dict in
    place.  `term` multiplies a run of coefficients and variables into one
    exponent list and one coefficient; only a parenthesised factor goes
    through Polynomial arithmetic.  Expressions nest at most MAX_DEPTH deep,
    the whole text counting as the first; each level costs two frames (expr
    and term), so the limit is a property of the text, well inside Python's
    default recursion limit.
    """

    MAX_DEPTH = 330

    def __init__(self, text: str, ring: PolyRing):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Polynomial:
        terms = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return Polynomial(self.ring, terms)

    def expr(self) -> dict:
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            raise ParseError("expression nested too deeply", self.peek()[2])
        p = self.ring.field.characteristic
        acc = {}
        get = acc.get
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.next()
            negate = value == "-"
        while True:
            for m, c in self.term():
                s = get(m, 0) - c if negate else get(m, 0) + c
                if p:
                    s %= p
                if s:
                    acc[m] = s
                else:
                    # c is nonzero, so a zero sum means m was already a term.
                    del acc[m]
            kind, value, _ = self.peek()
            if kind != "op" or value not in "+-":
                self.depth -= 1
                return acc
            self.next()
            negate = value == "-"

    def term(self):
        """The (exponent tuple, nonzero coefficient) pairs of a product.

        Each factor is checked against the exponent limit as it is read, and
        none is once the product is zero, exactly as a left-to-right chain of
        Polynomial products would: `top` holds the product's largest exponent
        per variable, the sum of its factors' largest exponents.
        """
        ring = self.ring
        field = ring.field
        p = field.characteristic
        tokens = self.tokens
        mono = [0] * ring.num_vars
        top = list(mono)
        coef = 1
        poly = None  # the product of the parenthesised factors so far
        i = self.i
        while True:
            kind, value, pos = tokens[i]
            i += 1
            if kind == "int":
                kind, op, _ = tokens[i]
                if kind == "op" and op == "/":
                    kind, den, pos = tokens[i + 1]
                    i += 2
                    if kind != "int":
                        raise ParseError("expected denominator", pos)
                    if den == 0:
                        raise ParseError("zero denominator", pos)
                    value = field.coerce(Fraction(value, den))
                if coef:
                    coef = coef * value % p if p else coef * value
            elif kind == "name":
                idx = ring._var_index.get(value)
                if idx is None:
                    raise ParseError(f"unknown variable {value!r}", pos)
                kind, op, _ = tokens[i]
                e = 1
                if kind == "op" and op == "^":
                    kind, e, pos = tokens[i + 1]
                    i += 2
                    if kind != "int":
                        raise ParseError("expected exponent", pos)
                    if e >= MAX_EXPONENT:
                        raise ParseError(f"exponent above {MAX_EXPONENT - 1}", pos)
                if coef:
                    if top[idx] + e >= MAX_EXPONENT:
                        raise exponent_overflow_error()
                    top[idx] += e
                    mono[idx] += e
            elif kind == "op" and value == "(":
                self.i = i
                q = Polynomial(ring, self.expr())
                self.expect_op(")")
                i = self.i
                if not q:
                    coef = 0
                elif coef:
                    top = list(map(add, top, _max_exponents(q.terms)))
                    if max(top, default=0) >= MAX_EXPONENT:
                        raise exponent_overflow_error()
                    poly = q if poly is None else poly * q
            else:
                raise ParseError(f"unexpected token {value!r}", pos)
            kind, op, _ = tokens[i]
            if kind != "op" or op != "*":
                break
            i += 1
        self.i = i
        if not coef:
            return ()
        if not p:
            coef = Fraction(coef)
        if poly is None:
            return ((tuple(mono), coef),)
        return [(tuple(map(add, m, mono)), field.mul(c, coef)) for m, c in poly.terms.items()]


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse a polynomial from text in the given ring."""
    return _Parser(text, ring).parse()


def random_polynomial(ring: PolyRing, degree: int, rng, terms: int = None, homogeneous: bool = False) -> Polynomial:
    """A random polynomial, useful for tests and benchmarks.

    With homogeneous=True all monomials have the given degree (dense);
    otherwise `terms` random monomials of degree <= degree are drawn.
    """
    n = ring.num_vars
    if homogeneous:
        monos = list(_compositions(degree, n))
        pairs = [(ring.field.random_nonzero(rng), m) for m in monos]
        return ring.from_terms(pairs)
    if terms is None:
        terms = degree + 2
    pairs = []
    for _ in range(terms):
        remaining = degree
        exps = []
        for _ in range(n - 1):
            e = rng.randint(0, remaining)
            exps.append(e)
            remaining -= e
        exps.append(rng.randint(0, remaining))
        rng.shuffle(exps)
        pairs.append((ring.field.random_nonzero(rng), tuple(exps)))
    return ring.from_terms(pairs)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
