"""Exact coefficient fields, monomial orders, and sparse multivariate polynomials.

Coefficients are either arbitrary-precision rationals (fractions.Fraction) or
elements of a prime field F_p stored as machine ints in [0, p).  Monomials are
plain tuples of nonnegative exponents.  Polynomials are immutable dicts mapping
exponent tuples to nonzero coefficients.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, le, neg, sub
from typing import Iterable

MAX_EXPONENT = 1 << 16

LEX = "Lex"
GREVLEX = "GRevLex"

SMALLEST = "smallest"
LARGEST = "largest"


class PolyError(Exception):
    """Base error for this package."""


class RingMismatchError(PolyError):
    pass


class ExponentOverflowError(PolyError):
    pass


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

    permutation[0] is the most significant variable index.  The key() method
    returns a tuple that sorts monomials ascending under the order.
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

    def key(self, exponents: tuple):
        if len(exponents) != len(self.permutation):
            raise PolyError("monomial length does not match order")
        if self.kind == LEX:
            return tuple([exponents[i] for i in self.permutation])
        # GRevLex: total degree first; ties broken by scanning from the least
        # significant variable upward, larger exponent at the first difference
        # meaning smaller monomial.
        return (sum(exponents), *[-exponents[i] for i in reversed(self.permutation)])


def identity_order(kind: str, num_vars: int) -> MonomialOrder:
    return MonomialOrder(kind, tuple(range(num_vars)))


def random_order(kind: str, num_vars: int, rng) -> MonomialOrder:
    """A Lex or GRevLex order with a uniformly random variable permutation."""
    perm = list(range(num_vars))
    rng.shuffle(perm)
    return MonomialOrder(kind, tuple(perm))


def compare_monomials(a: tuple, b: tuple, order: MonomialOrder) -> int:
    """-1, 0 or 1 as a is smaller than, equal to, or larger than b."""
    if len(a) != len(b) or len(a) != order.num_vars:
        raise PolyError("monomial length mismatch")
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def _heap_key(order: MonomialOrder, mono: tuple):
    # Negate the ascending order key so heapq pops the largest monomial first.
    return tuple(map(neg, order.key(mono)))


def monomial_mul(a: tuple, b: tuple) -> tuple:
    out = tuple(map(add, a, b))
    if out and max(out) >= MAX_EXPONENT:
        raise ExponentOverflowError(f"exponent exceeds {MAX_EXPONENT}")
    return out


def _max_exponents(terms) -> list:
    """Each variable's largest exponent over the monomials of a term dict."""
    return [max(column) for column in zip(*terms)]


def _over_common_denominator(terms):
    """(d, [(monomial, integer numerator)]) with each coefficient = numerator / d."""
    d = lcm(*[c.denominator for c in terms.values()])
    return d, [(m, c.numerator * (d // c.denominator)) for m, c in terms.items()]


def monomial_divides(a: tuple, b: tuple) -> bool:
    """True if monomial a divides monomial b."""
    return all(map(le, a, b))


def monomial_div(a: tuple, b: tuple) -> tuple:
    """Quotient a / b, assuming b divides a."""
    return tuple(map(sub, a, b))


def monomial_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


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

    def sorted_terms(self, order: MonomialOrder = None):
        """(monomial, coefficient) pairs, descending under the order."""
        order = order or self.ring.canonical_order
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def lead_term(self, order: MonomialOrder = None):
        """(monomial, coefficient) of the largest term under the order."""
        if not self.terms:
            raise PolyError("zero polynomial has no lead term")
        order = order or self.ring.canonical_order
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def extremal_monomial(self, order: MonomialOrder, direction: str = SMALLEST) -> tuple:
        if not self.terms:
            raise PolyError("extremal_monomial of the zero polynomial")
        pick = min if direction == SMALLEST else max
        return pick(self.terms, key=order.key)

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
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ring.zero()
        # A product's largest exponent in variable v is the sum of the
        # operands' largest exponents in v, so one test covers every pair.
        if max(map(add, _max_exponents(a), _max_exponents(b)), default=0) >= MAX_EXPONENT:
            raise ExponentOverflowError(f"exponent exceeds {MAX_EXPONENT}")
        p = self.ring.field.characteristic
        if p:
            a_items, b_items = a.items(), list(b.items())
        else:
            # Over QQ, multiply integer numerators over each operand's common
            # denominator and divide once per output term.
            da, a_items = _over_common_denominator(a)
            db, b_items = _over_common_denominator(b)
        out = {}
        get = out.get
        for m1, c1 in a_items:
            for m2, c2 in b_items:
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        if p:
            return Polynomial(self.ring, {m: r for m, c in out.items() if (r := c % p)})
        d = da * db
        return Polynomial(self.ring, {m: Fraction(c, d) for m, c in out.items() if c})

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

    def exact_divide(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient self / divisor when the division is exact; error otherwise."""
        self._check_ring(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        field = self.ring.field
        p = field.characteristic
        order = self.ring.canonical_order
        dm, dc = divisor.lead_term(order)
        dc_inv = field.inv(dc)
        rem = dict(self.terms)
        get = rem.get
        # Lazy deletion: a popped monomial no longer in rem was cancelled.
        heap = [(_heap_key(order, m), m) for m in rem]
        heapq.heapify(heap)
        quot = {}
        while heap:
            _, m = heapq.heappop(heap)
            c = get(m)
            if not c:
                continue
            if not monomial_divides(dm, m):
                raise PolyError("inexact polynomial division")
            qm = monomial_div(m, dm)
            qc = c * dc_inv % p if p else c * dc_inv
            quot[qm] = qc
            for m2, c2 in divisor.terms.items():
                t = monomial_mul(qm, m2)
                old = get(t)
                s = (old or 0) - qc * c2
                if p:
                    s %= p
                if s:
                    if old is None:
                        heapq.heappush(heap, (_heap_key(order, t), t))
                    rem[t] = s
                else:
                    # qc * c2 is nonzero, so a zero difference means t was a term.
                    del rem[t]
        return Polynomial(self.ring, quot)

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


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := coefficient | variable ('^' uint)? | '(' expr ')'
    coefficient := int ('/' uint)?
    """

    def __init__(self, text: str, ring: PolyRing):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

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
        p = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return p

    def expr(self) -> Polynomial:
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.next()
            sign = -1 if value == "-" else 1
        p = self.term().scalar_mul(sign)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                q = self.term()
                p = p + q if value == "+" else p - q
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Polynomial:
        kind, value, pos = self.next()
        if kind == "int":
            num = value
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "/":
                self.next()
                kind3, den, pos3 = self.next()
                if kind3 != "int":
                    raise ParseError("expected denominator", pos3)
                if den == 0:
                    raise ParseError("zero denominator", pos3)
                if self.ring.field.characteristic == 0:
                    return self.ring.constant(Fraction(num, den))
                return self.ring.constant(self.ring.field.coerce(Fraction(num, den)))
            return self.ring.constant(num)
        if kind == "name":
            idx = self.ring._var_index.get(value)
            if idx is None:
                raise ParseError(f"unknown variable {value!r}", pos)
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "^":
                self.next()
                kind3, exp, pos3 = self.next()
                if kind3 != "int":
                    raise ParseError("expected exponent", pos3)
                if exp >= MAX_EXPONENT:
                    raise ParseError(f"exponent exceeds {MAX_EXPONENT}", pos3)
                return self.ring.var(idx) ** exp
            return self.ring.var(idx)
        if kind == "op" and value == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected token {value!r}", pos)


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
