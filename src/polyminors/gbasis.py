"""Groebner machinery: Buchberger, membership, Krull dimension, codim bounds."""

from __future__ import annotations

import heapq
from operator import neg

from .polyring import (
    MonomialOrder,
    PolyError,
    Polynomial,
    PolyRing,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

DEFAULT_S_PAIR_CAP = 200_000
CODIM_PROBE_REDUCTIONS = 50


class BudgetExceededError(PolyError):
    """Raised when the S-pair budget runs out; never a mathematical answer."""


def _heap_key(order: MonomialOrder, mono: tuple):
    # Negate the ascending order key so heapq pops the largest monomial first.
    return tuple(map(neg, order.key(mono)))


def _support_mask(mono: tuple) -> int:
    mask = 0
    for i, e in enumerate(mono):
        if e:
            mask |= 1 << i
    return mask


def _prepared(basis, order):
    """[(lead monomial, support mask, terms items)] for nonzero monic reducers."""
    prep = []
    for g in basis:
        if g.is_zero():
            continue
        g = g.monic(order)
        lm, _ = g.lead_term(order)
        prep.append((lm, _support_mask(lm), tuple(g.terms.items())))
    return prep


def _reduce_prepared(terms: dict, prep, order, ring) -> Polynomial:
    field = ring.field
    rem = dict(terms)
    out = {}
    heap = [(_heap_key(order, m), m) for m in rem]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = rem.get(m)
        if not c:
            continue
        # The mask test cheaply rejects reducers whose lead uses a variable
        # absent from m; only survivors pay for the exponent comparison.
        not_m = ~_support_mask(m)
        reducer = None
        for p in prep:
            if p[1] & not_m:
                continue
            if monomial_divides(p[0], m):
                reducer = p
                break
        if reducer is None:
            del rem[m]
            out[m] = c
            continue
        lm, _, gterms = reducer
        shift = monomial_div(m, lm)
        for gm, gc in gterms:
            t = monomial_mul(shift, gm)
            old = rem.get(t, field.zero)
            s = field.sub(old, field.mul(c, gc))
            if s:
                if t not in rem:
                    heapq.heappush(heap, (_heap_key(order, t), t))
                rem[t] = s
            else:
                rem.pop(t, None)
    return Polynomial(ring, out)


def normal_form(p: Polynomial, basis, order: MonomialOrder = None) -> Polynomial:
    """Remainder of multivariate division of p by the basis under the order.

    No term of the result is divisible by any basis lead term.
    """
    order = order or p.ring.canonical_order
    prep = _prepared(basis, order)
    if not prep or p.is_zero():
        return p
    return _reduce_prepared(p.terms, prep, order, p.ring)


def _spoly_terms(f_lm, f_terms, g_lm, g_terms, order, ring):
    field = ring.field
    l = monomial_lcm(f_lm, g_lm)
    sf, sg = monomial_div(l, f_lm), monomial_div(l, g_lm)
    acc = {}
    for m, c in f_terms:
        t = monomial_mul(sf, m)
        s = field.add(acc.get(t, field.zero), c)
        if s:
            acc[t] = s
        else:
            acc.pop(t, None)
    for m, c in g_terms:
        t = monomial_mul(sg, m)
        s = field.sub(acc.get(t, field.zero), c)
        if s:
            acc[t] = s
        else:
            acc.pop(t, None)
    return acc


def _pair_loop(basis, order, ring, limit: int, start: int = 0) -> bool:
    """Extend a list of prepared entries in place with S-pair remainders.

    Pairs leave the queue smallest lcm first; coprime-lead and chain criteria
    discard pairs, and every other pair's S-polynomial is reduced by the basis
    so far, a nonzero remainder joining it.  The first `start` entries must
    already form a Groebner basis: pairs among them are never queued and
    count as done.  Returns True when the queue emptied before `limit` pairs
    had been taken from it or a remainder was a nonzero constant (the unit
    ideal, whose basis is complete), False otherwise.
    """
    pairs = []
    done = set()

    def push_pair(i, j):
        l = monomial_lcm(basis[i][0], basis[j][0])
        heapq.heappush(pairs, (order.key(l), i, j))

    for j in range(start, len(basis)):
        for i in range(j):
            push_pair(i, j)

    taken = 0
    while pairs:
        if taken >= limit:
            return False
        _, i, j = heapq.heappop(pairs)
        taken += 1
        done.add((i, j))
        lm_i, lm_j = basis[i][0], basis[j][0]
        l = monomial_lcm(lm_i, lm_j)
        # First criterion: coprime lead terms.
        if l == monomial_mul(lm_i, lm_j):
            continue
        # Chain criterion: some k divides the lcm and both side pairs are done.
        skip = False
        not_l = ~_support_mask(l)
        for k in range(len(basis)):
            if k in (i, j) or basis[k][1] & not_l:
                continue
            if monomial_divides(basis[k][0], l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if (a[1] < start or a in done) and (b[1] < start or b in done):
                    skip = True
                    break
        if skip:
            continue
        s_terms = _spoly_terms(lm_i, basis[i][2], lm_j, basis[j][2], order, ring)
        rem = _reduce_prepared(s_terms, basis, order, ring)
        if rem.is_zero():
            continue
        basis.extend(_prepared([rem], order))
        if rem.is_constant():
            return True
        new = len(basis) - 1
        for t in range(new):
            push_pair(t, new)
    return True


def buchberger(generators, order: MonomialOrder = None, s_pair_cap: int = DEFAULT_S_PAIR_CAP,
               gb_prefix: int = 0):
    """Reduced monic Groebner basis of the ideal generated by `generators`.

    Runs the S-pair loop with at most `s_pair_cap` pairs taken from the queue,
    counting those the criteria discard.  When pairs remain past the cap it
    raises BudgetExceededError rather than ever returning a wrong basis.
    When the first `gb_prefix` generators already form a Groebner basis under
    `order`, as a checkpoint's previous basis does, pairs among them are
    skipped, so extending a basis by a few elements costs only their pairs.
    """
    if all(g.is_zero() for g in generators):
        return []
    ring = generators[0].ring
    order = order or ring.canonical_order
    basis = _prepared(generators[:gb_prefix], order)
    start = len(basis)
    basis += _prepared(generators[gb_prefix:], order)
    if not _pair_loop(basis, order, ring, s_pair_cap, start):
        raise BudgetExceededError(f"S-pair budget of {s_pair_cap} exceeded")
    return _auto_reduce(basis, order, ring)


def _auto_reduce(basis, order, ring):
    # Minimalize: drop elements whose lead is divisible by another survivor's.
    keep = []
    indices = sorted(range(len(basis)), key=lambda i: order.key(basis[i][0]))
    lead_list = []
    for i in indices:
        lm = basis[i][0]
        if any(monomial_divides(l, lm) for l in lead_list):
            continue
        lead_list.append(lm)
        keep.append(basis[i])
    # Tail-reduce each against the others.
    reduced = []
    for idx, (lm, _, terms) in enumerate(keep):
        others = keep[:idx] + keep[idx + 1 :]
        p = _reduce_prepared(dict(terms), others, order, ring) if others else Polynomial(ring, dict(terms))
        if not p.is_zero():
            reduced.append(p.monic(order))
    reduced.sort(key=lambda g: order.key(g.lead_term(order)[0]))
    return reduced


class Ideal:
    """An ideal with a write-once cached reduced Groebner basis per order."""

    def __init__(self, generators, ring: PolyRing = None):
        generators = list(generators)
        if ring is None:
            if not generators:
                raise PolyError("cannot infer the ring of an empty ideal")
            ring = generators[0].ring
        for g in generators:
            if g.ring != ring:
                raise PolyError("generators from different rings")
        self.ring = ring
        self.generators = generators
        self._gb = {}
        self._dim = None

    def groebner_basis(self, order: MonomialOrder = None, s_pair_cap: int = DEFAULT_S_PAIR_CAP):
        order = order or self.ring.canonical_order
        if order not in self._gb:
            self._gb[order] = buchberger(self.generators, order, s_pair_cap)
        return self._gb[order]

    def contains(self, p: Polynomial, order: MonomialOrder = None) -> bool:
        order = order or self.ring.canonical_order
        return normal_form(p, self.groebner_basis(order), order).is_zero()

    def __add__(self, extra):
        gens = extra.generators if isinstance(extra, Ideal) else list(extra)
        return Ideal(self.generators + gens, self.ring)

    def equals(self, other: "Ideal") -> bool:
        """Ideal equality via mutual reduction to zero."""
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.generators)})"


def is_unit_ideal(ideal: Ideal, order: MonomialOrder = None, s_pair_cap: int = DEFAULT_S_PAIR_CAP) -> bool:
    """True iff 1 belongs to the ideal."""
    for g in ideal.generators:
        if not g.is_zero() and g.is_constant():
            return True
    gb = ideal.groebner_basis(order, s_pair_cap)
    return any(g.is_constant() and not g.is_zero() for g in gb)


def _head_supports(heads, num_vars):
    """Minimal distinct variable supports of a set of head monomials."""
    supports = {frozenset(i for i, e in enumerate(m) if e) for m in heads}
    return [s for s in supports if not any(t < s for t in supports)]


def minimum_vertex_cover(supports) -> int:
    """Minimum number of variables meeting every support, by branch and bound."""
    supports = [s for s in supports if s]
    best = [len({v for s in supports for v in s})]

    def bound(remaining, used):
        if used >= best[0]:
            return
        if not remaining:
            best[0] = used
            return
        pivot = min(remaining, key=len)
        for v in sorted(pivot):
            rest = [s for s in remaining if v not in s]
            bound(rest, used + 1)

    bound(supports, 0)
    return best[0]


def monomial_ideal_codim(heads, num_vars: int) -> int:
    """Codimension of the monomial ideal generated by the given monomials.

    The zero ideal has codim 0; a unit monomial ideal has codim num_vars + 1.
    """
    heads = [m for m in heads]
    if any(not any(m) for m in heads):
        return num_vars + 1
    supports = _head_supports(heads, num_vars)
    return minimum_vertex_cover(supports)


def dim_quotient(ideal: Ideal, order: MonomialOrder = None, s_pair_cap: int = DEFAULT_S_PAIR_CAP) -> int:
    """Krull dimension of R/I; -1 for the unit ideal.

    Equals the maximum size of a variable subset meeting no head-monomial
    support entirely, i.e. num_vars minus the minimum vertex cover of the
    initial ideal's supports.
    """
    if ideal._dim is not None:
        return ideal._dim
    gb = ideal.groebner_basis(order, s_pair_cap)
    n = ideal.ring.num_vars
    heads = [g.lead_term(order or ideal.ring.canonical_order)[0] for g in gb]
    codim = monomial_ideal_codim(heads, n)
    dim = -1 if codim == n + 1 else n - codim
    ideal._dim = dim
    return dim


def codim_quotient(ideal: Ideal, order: MonomialOrder = None, s_pair_cap: int = DEFAULT_S_PAIR_CAP) -> int:
    """num_vars - dim_quotient; the unit ideal gets num_vars + 1 by convention."""
    d = dim_quotient(ideal, order, s_pair_cap)
    n = ideal.ring.num_vars
    return n + 1 if d == -1 else n - d


def is_codim_at_least(c: int, ideal: Ideal, order: MonomialOrder = None,
                      max_reductions: int = CODIM_PROBE_REDUCTIONS):
    """Sound fast lower-bound test: True, or None when inconclusive.

    Runs the S-pair loop of `buchberger` on the generators, stopped after
    `max_reductions` pairs taken from the queue (the unit of `s_pair_cap`,
    so pairs the criteria discard count too).  The heads found so far
    generate a monomial ideal inside the initial ideal, so its codimension
    bounds codim(I) from below.  Never returns False.
    """
    if c < 0:
        raise PolyError("codimension bound must be nonnegative")
    if c == 0:
        return True
    ring = ideal.ring
    order = order or ring.canonical_order
    basis = _prepared(ideal.generators, order)
    if not basis:
        return None
    _pair_loop(basis, order, ring, max_reductions)
    heads = [entry[0] for entry in basis]
    if monomial_ideal_codim(heads, ring.num_vars) >= c:
        return True
    return None


class RingPresentation:
    """An ambient polynomial ring with a defining ideal."""

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.ring = ideal.ring

    def __repr__(self):
        return f"RingPresentation({self.ring}, {len(self.ideal.generators)} generators)"
