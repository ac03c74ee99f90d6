"""Groebner machinery: Buchberger, membership, Krull dimension, codim bounds."""

from __future__ import annotations

import heapq

from .polyring import (
    MonomialOrder,
    PolyError,
    Polynomial,
    PolyRing,
    _heap_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

DEFAULT_S_PAIR_CAP = 200_000
CODIM_PROBE_REDUCTIONS = 50


class BudgetExceededError(PolyError):
    """Raised when the S-pair budget runs out; never a mathematical answer."""


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


# How a run of _pair_loop ended.
_COMPLETE = "complete"  # the queue emptied, or a nonzero constant joined
_PAIR_LIMIT = "pair limit"  # `limit` pairs were taken and live pairs remain
_CODIM_REACHED = "codim reached"  # the heads reached the requested codimension


def _pair_loop(basis, order, ring, limit: int, start: int = 0, codim_at_least: int = None) -> str:
    """Extend a list of prepared entries in place with S-pair remainders.

    Entries join one at a time through the Gebauer-Moeller update.  A joining
    entry h is paired with every useful entry (one whose lead no later lead
    divides).  Of those pairs only one per minimal lcm is queued, and none
    whose lcm a coprime pair also has.  A queued pair (i, j) is dropped when
    lead(h) divides its lcm and neither lcm(lead(i), lead(h)) nor
    lcm(lead(j), lead(h)) equals it.  Then h retires every useful entry
    whose lead its lead divides.
    Pairs leave the queue by least sugar, then least lcm.  Each one's
    S-polynomial is reduced by all entries, and a nonzero remainder joins
    with the pair's sugar; an input's sugar is its total degree.

    The first `start` entries must already form a Groebner basis: they start
    as the useful entries, with no pair among them.  With `codim_at_least`,
    the loop stops as soon as the heads so far generate a monomial ideal of
    that codimension, tested on the input heads and then whenever a head
    brings a new minimal variable support.

    Returns _PAIR_LIMIT when `limit` pairs have been taken from the queue and
    live pairs remain (pairs the update drops are never taken),
    _CODIM_REACHED at the codimension stop, and _COMPLETE when the queue
    emptied or an input or remainder was a nonzero constant (the unit ideal,
    whose basis is complete).
    """
    num_vars = ring.num_vars
    sugar = [max(sum(m) for m, _ in entry[2]) for entry in basis]
    useful = list(range(start))
    live = {}  # (i, j) -> (lcm, its support mask) for pairs still queued
    queue = []  # (sugar, order key of lcm, i, j); dropped pairs are skipped lazily

    def join(h):
        nonlocal useful
        lm_h, mask_h = basis[h][0], basis[h][1]
        deg_h = sum(lm_h)
        # lcm -> [sugar, i, support mask, some pair with it is coprime]
        by_lcm = {}
        for g in useful:
            lm_g, mask_g = basis[g][0], basis[g][1]
            l = monomial_lcm(lm_g, lm_h)
            deg_l = sum(l)
            pair_sugar = max(sugar[g] + deg_l - sum(lm_g), sugar[h] + deg_l - deg_h)
            coprime = not mask_g & mask_h
            seen = by_lcm.get(l)
            if seen is None:
                by_lcm[l] = [pair_sugar, g, mask_g | mask_h, coprime]
            else:
                if pair_sugar < seen[0]:
                    seen[0], seen[1] = pair_sugar, g
                seen[3] = seen[3] or coprime
        # Criterion B_k on the queued pairs.
        for key, (l, l_mask) in list(live.items()):
            if mask_h & ~l_mask or not monomial_divides(lm_h, l):
                continue
            i, j = key
            if monomial_lcm(basis[i][0], lm_h) != l and monomial_lcm(basis[j][0], lm_h) != l:
                del live[key]
        # Criteria M and F: a strict divisor of a lcm has a smaller degree.
        minimal = []
        for l in sorted(by_lcm, key=sum):
            pair_sugar, g, l_mask, coprime = by_lcm[l]
            not_l = ~l_mask
            if any(not m_mask & not_l and monomial_divides(m, l) for m, m_mask in minimal):
                continue
            minimal.append((l, l_mask))
            if not coprime:
                live[(g, h)] = (l, l_mask)
                heapq.heappush(queue, (pair_sugar, order.key(l), g, h))
        useful = [g for g in useful
                  if mask_h & ~basis[g][1] or not monomial_divides(lm_h, basis[g][0])]
        useful.append(h)

    if codim_at_least is not None:
        supports = _head_supports(entry[1] for entry in basis)
        if _supports_codim(supports, num_vars) >= codim_at_least:
            return _CODIM_REACHED
    if any(not any(entry[0]) for entry in basis):
        return _COMPLETE
    for h in range(start, len(basis)):
        join(h)

    taken = 0
    while True:
        while queue and (queue[0][2], queue[0][3]) not in live:
            heapq.heappop(queue)
        if not queue:
            return _COMPLETE
        if taken >= limit:
            return _PAIR_LIMIT
        pair_sugar, _, i, j = heapq.heappop(queue)
        del live[(i, j)]
        taken += 1
        s_terms = _spoly_terms(basis[i][0], basis[i][2], basis[j][0], basis[j][2], order, ring)
        rem = _reduce_prepared(s_terms, basis, order, ring)
        if rem.is_zero():
            continue
        basis.extend(_prepared([rem], order))
        sugar.append(pair_sugar)
        h = len(basis) - 1
        if codim_at_least is not None:
            support = basis[h][1]
            if not any(not t & ~support for t in supports):
                supports = [t for t in supports if support & ~t] + [support]
                if _supports_codim(supports, num_vars) >= codim_at_least:
                    return _CODIM_REACHED
        if rem.is_constant():
            return _COMPLETE
        join(h)


def buchberger(generators, order: MonomialOrder = None, s_pair_cap: int = DEFAULT_S_PAIR_CAP,
               gb_prefix: int = 0, codim_at_least: int = None):
    """Reduced monic Groebner basis of the ideal generated by `generators`.

    Runs the S-pair loop with at most `s_pair_cap` pairs taken from the queue;
    pairs the Gebauer-Moeller update drops are never taken, so they do not
    count.  When pairs remain past the cap it raises BudgetExceededError
    rather than ever returning a wrong basis.  When the first `gb_prefix`
    generators already form a Groebner basis under `order`, as a
    checkpoint's previous basis does, pairs among them are skipped, so
    extending a basis by a few elements costs only their pairs.

    With `codim_at_least` = c the loop stops as soon as the heads found so
    far generate a monomial ideal of codimension at least c.  Those heads lie
    in the initial ideal, so then codim(I) >= c, and the entries found so far
    are returned, monic and unreduced: they generate the ideal and their
    heads lie in in(I), but they need not form a Groebner basis.  The stop is
    tested before the cap, so it can answer where the cap alone would raise.
    When the heads never reach c, the result is the reduced basis.
    """
    if all(g.is_zero() for g in generators):
        return []
    ring = generators[0].ring
    order = order or ring.canonical_order
    basis = _prepared(generators[:gb_prefix], order)
    start = len(basis)
    basis += _prepared(generators[gb_prefix:], order)
    outcome = _pair_loop(basis, order, ring, s_pair_cap, start, codim_at_least)
    if outcome is _PAIR_LIMIT:
        raise BudgetExceededError(f"S-pair budget of {s_pair_cap} exceeded")
    if outcome is _CODIM_REACHED:
        return [Polynomial(ring, dict(terms)) for _, _, terms in basis]
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
    """True iff 1 belongs to the ideal; the pair loop stops at once on a constant input."""
    gb = ideal.groebner_basis(order, s_pair_cap)
    return any(g.is_constant() and not g.is_zero() for g in gb)


def _head_supports(masks):
    """Minimal distinct support masks among the given ones."""
    supports = set(masks)
    return [s for s in supports if not any(t != s and not t & ~s for t in supports)]


def _supports_codim(supports, num_vars: int) -> int:
    """Codimension of a monomial ideal from its generators' minimal support masks."""
    if 0 in supports:
        return num_vars + 1
    return minimum_vertex_cover(supports)


def minimum_vertex_cover(supports) -> int:
    """Minimum number of variables meeting every support mask, by branch and bound."""
    supports = [s for s in supports if s]
    # Every variable up to the highest one used is a cover.
    best = [max(supports, default=0).bit_length()]

    def bound(remaining, used):
        if used >= best[0]:
            return
        if not remaining:
            best[0] = used
            return
        pivot = min(remaining, key=int.bit_count)
        while pivot:
            v = pivot & -pivot
            pivot ^= v
            rest = [s for s in remaining if not s & v]
            bound(rest, used + 1)

    bound(supports, 0)
    return best[0]


def monomial_ideal_codim(heads, num_vars: int) -> int:
    """Codimension of the monomial ideal generated by the given monomials.

    The zero ideal has codim 0; a unit monomial ideal has codim num_vars + 1.
    """
    return _supports_codim(_head_supports(_support_mask(m) for m in heads), num_vars)


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
    `max_reductions` pairs taken from the queue (the unit of `s_pair_cap`)
    or as soon as the heads found so far have codimension at least c.  Those
    heads generate a monomial ideal inside the initial ideal, so its
    codimension bounds codim(I) from below.  Never returns False.
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
    if _pair_loop(basis, order, ring, max_reductions, codim_at_least=c) is _CODIM_REACHED:
        return True
    return None


class RingPresentation:
    """An ambient polynomial ring with a defining ideal."""

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.ring = ideal.ring

    def __repr__(self):
        return f"RingPresentation({self.ring}, {len(self.ideal.generators)} generators)"
