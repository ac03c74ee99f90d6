"""Groebner machinery: Buchberger, membership, Krull dimension, codim bounds.

`buchberger` is the only way into the S-pair loop: it installs new generators
into a known basis (reduced by it, then paired) and runs `is_codim_at_least`.

Inside the division and S-pair loops every monomial is one int from the
order's ExponentPacking (see `polyring`): comparing ints compares monomials, a
product is an add, and divisibility and exponent overflow are one guard-bit
test each.  Polynomials enter and leave with exponent tuples.
"""

from __future__ import annotations

import heapq
from operator import attrgetter

from .polyring import (
    MAX_EXPONENT,
    ExponentOverflowError,
    MonomialOrder,
    PolyError,
    Polynomial,
    PolyRing,
    monomial_lcm,
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


def _overflow():
    return ExponentOverflowError(f"exponent exceeds {MAX_EXPONENT}")


class _Entry:
    """A nonzero basis element made monic and packed for the loops.

    `lm` is the packed lead monomial, whose coefficient is 1, and `tail_m`
    and `tail_c` hold the packed monomials below it and their coefficients.
    A packed m is divisible by the lead exactly when not (m - div) & guard,
    and a packed shift s times every term stays below MAX_EXPONENT exactly
    when not (room - s) & guard.  `lead` and `mask` are the lead's exponent
    tuple and support mask; `sugar` is the S-pair loop's degree bound.
    """

    __slots__ = ("div", "lm", "tail_m", "tail_c", "room", "lead", "mask", "sugar")

    def __init__(self, terms: dict, monos, field, packing, sugar=None):
        """From nonzero {packed monomial: coefficient} terms and their exponent tuples."""
        monos = list(monos)
        lm = max(terms)
        inv = field.inv(terms[lm])
        p = field.characteristic
        self.lm = lm
        self.div = lm - packing.offset
        tail = [m for m in terms if m != lm]
        self.tail_m = tuple(tail)
        self.tail_c = tuple([terms[m] * inv % p for m in tail] if p else [terms[m] * inv for m in tail])
        self.room = packing.room(monos)
        self.lead = packing.unpack(lm)
        self.mask = _support_mask(self.lead)
        self.sugar = max(map(sum, monos)) if sugar is None else sugar

    def terms(self, one) -> dict:
        """{packed monomial: coefficient}, with `one` as the lead coefficient."""
        terms = {self.lm: one}
        terms.update(zip(self.tail_m, self.tail_c))
        return terms


def _prepared(basis, order):
    """An _Entry for each nonzero polynomial of the basis."""
    basis = [g for g in basis if g.terms]
    if basis and basis[0].ring.num_vars != order.num_vars:
        raise PolyError("monomial length does not match order")
    packing = order.packing
    return [_Entry({packing.pack(m): c for m, c in g.terms.items()}, g.terms, g.ring.field, packing)
            for g in basis]


def _unpacked(terms: dict, packing, ring) -> Polynomial:
    unpack = packing.unpack
    return Polynomial(ring, {unpack(m): c for m, c in terms.items()})


def _reduce_prepared(terms: dict, prep, guard: int, p: int, divisors: dict) -> dict:
    """Remainder of packed terms divided by the entries, by the first divisor.

    Terms and the result map packed monomials to coefficients; the result
    lists them from the largest down.  `divisors` remembers, for each packed
    monomial met, its first dividing entry, or the int k when none of the
    first k entries divides it.  A caller may share it between reductions
    while `prep` only grows at its end, as the S-pair loop's basis does.
    """
    rem = dict(terms)
    get = rem.get
    heappush, heappop = heapq.heappush, heapq.heappop
    # Negated so heapq pops the largest first.  Lazy deletion: a popped
    # monomial no longer in rem was cancelled.
    heap = [-m for m in rem]
    heapq.heapify(heap)
    out = {}
    while heap:
        m = -heappop(heap)
        c = get(m)
        if c is None:
            continue
        del rem[m]
        g = divisors.get(m, 0)
        if g.__class__ is int:
            scanned = g
            for g in prep[scanned:] if scanned else prep:
                if not (m - g.div) & guard:
                    break
            else:
                divisors[m] = len(prep)
                out[m] = c
                continue
            divisors[m] = g
        # The lead of g times shift cancels m; subtract c * shift * tail.
        shift = m - g.lm
        if (g.room - shift) & guard:
            raise _overflow()
        for gm, gc in zip(g.tail_m, g.tail_c):
            t = shift + gm
            old = get(t)
            if old is None:
                heappush(heap, -t)
                rem[t] = -c * gc % p if p else -c * gc
                continue
            s = old - c * gc
            if p:
                s %= p
            if s:
                rem[t] = s
            else:
                del rem[t]
    return out


def normal_form(p: Polynomial, basis, order: MonomialOrder = None) -> Polynomial:
    """Remainder of multivariate division of p by the basis under the order.

    No term of the result is divisible by any basis lead term.
    """
    order = order or p.ring.canonical_order
    prep = _prepared(basis, order)
    if not prep or p.is_zero():
        return p
    packing = order.packing
    terms = {packing.pack(m): c for m, c in p.terms.items()}
    rem = _reduce_prepared(terms, prep, packing.guard, p.ring.field.characteristic, {})
    return _unpacked(rem, packing, p.ring)


def _spoly_terms(f, g, lcm: int, guard: int, p: int) -> dict:
    """Packed terms of the S-polynomial of entries f and g, whose leads have
    the packed lcm `lcm`.  The leads cancel, so only the tails are shifted."""
    sf, sg = lcm - f.lm, lcm - g.lm
    if (f.room - sf) & guard or (g.room - sg) & guard:
        raise _overflow()
    acc = {sf + m: c for m, c in zip(f.tail_m, f.tail_c)}
    get = acc.get
    for m, c in zip(g.tail_m, g.tail_c):
        t = sg + m
        s = get(t, 0) - c
        if p:
            s %= p
        if s:
            acc[t] = s
        else:
            del acc[t]
    return acc


def _pair_loop(basis, order, ring, limit: int, start: int, codim_at_least: int) -> bool:
    """Extend a list of entries in place with S-pair remainders.

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

    Returns True at the codimension stop and False when the basis is
    complete: the queue emptied, or an input or remainder was a nonzero
    constant (the unit ideal).  Raises BudgetExceededError when `limit` pairs
    have been taken from the queue and live pairs remain (pairs the update
    drops are never taken).
    """
    num_vars = ring.num_vars
    field = ring.field
    p = field.characteristic
    packing = order.packing
    pack, unpack, guard, offset = packing.pack, packing.unpack, packing.guard, packing.offset
    useful = list(range(start))
    live = {}  # (i, j) -> packed lcm, for pairs still queued
    queue = []  # (sugar, packed lcm, i, j); dropped pairs are skipped lazily
    divisors = {}  # shared by the reductions; the basis only grows at its end

    def join(h):
        nonlocal useful
        entry_h = basis[h]
        lead_h, mask_h, div_h = entry_h.lead, entry_h.mask, entry_h.div
        deg_h = sum(lead_h)
        # packed lcm -> [sugar, i, some pair with it is coprime]
        by_lcm = {}
        for g in useful:
            entry_g = basis[g]
            lead_g = entry_g.lead
            l = monomial_lcm(lead_g, lead_h)
            deg_l = sum(l)
            pair_sugar = max(entry_g.sugar + deg_l - sum(lead_g), entry_h.sugar + deg_l - deg_h)
            coprime = not entry_g.mask & mask_h
            key = pack(l)
            seen = by_lcm.get(key)
            if seen is None:
                by_lcm[key] = [pair_sugar, g, coprime]
            else:
                if pair_sugar < seen[0]:
                    seen[0], seen[1] = pair_sugar, g
                seen[2] = seen[2] or coprime
        # Criterion B_k on the queued pairs.
        for key, l in list(live.items()):
            if (l - div_h) & guard:
                continue
            i, j = key
            if (pack(monomial_lcm(basis[i].lead, lead_h)) != l
                    and pack(monomial_lcm(basis[j].lead, lead_h)) != l):
                del live[key]
        # Criteria M and F.  The order extends divisibility, so ascending
        # lcms meet every divisor of an lcm before the lcm itself.
        minimal = []  # l - offset for each minimal lcm l
        for l in sorted(by_lcm):
            for d in minimal:
                if not (l - d) & guard:
                    break
            else:
                minimal.append(l - offset)
                pair_sugar, g, coprime = by_lcm[l]
                if not coprime:
                    live[(g, h)] = l
                    heapq.heappush(queue, (pair_sugar, l, g, h))
        useful = [g for g in useful if (basis[g].lm - div_h) & guard]
        useful.append(h)

    if codim_at_least is not None:
        supports = _head_supports(entry.mask for entry in basis)
        if _supports_codim(supports, num_vars) >= codim_at_least:
            return True
    if any(not entry.lm for entry in basis):
        return False
    for h in range(start, len(basis)):
        join(h)

    taken = 0
    while True:
        while queue and (queue[0][2], queue[0][3]) not in live:
            heapq.heappop(queue)
        if not queue:
            return False
        if taken >= limit:
            raise BudgetExceededError(f"S-pair budget of {limit} exceeded")
        pair_sugar, l, i, j = heapq.heappop(queue)
        del live[(i, j)]
        taken += 1
        s_terms = _spoly_terms(basis[i], basis[j], l, guard, p)
        rem = _reduce_prepared(s_terms, basis, guard, p, divisors)
        if not rem:
            continue
        basis.append(_Entry(rem, map(unpack, rem), field, packing, pair_sugar))
        h = len(basis) - 1
        if codim_at_least is not None:
            support = basis[h].mask
            if not any(not t & ~support for t in supports):
                supports = [t for t in supports if support & ~t] + [support]
                if _supports_codim(supports, num_vars) >= codim_at_least:
                    return True
        if not basis[h].lm:
            # A nonzero constant: the unit ideal.
            return False
        join(h)


def buchberger(generators, order: MonomialOrder = None, s_pair_cap: int = DEFAULT_S_PAIR_CAP,
               gb_prefix: int = 0, codim_at_least: int = None):
    """Reduced monic Groebner basis of the ideal generated by `generators`.

    Runs the S-pair loop with at most `s_pair_cap` pairs taken from the queue;
    pairs the Gebauer-Moeller update drops are never taken, so they do not
    count.  When pairs remain past the cap it raises BudgetExceededError
    rather than ever returning a wrong basis.

    When the first `gb_prefix` generators already form a Groebner basis
    under `order`, as a checkpoint's previous basis does, each later
    generator joins by its remainder modulo them, and a zero remainder joins
    not at all.  Pairs among the prefix are skipped, so extending a basis by
    a few elements costs one reduction each plus their pairs.

    With `codim_at_least` = c the loop stops as soon as the heads found so
    far generate a monomial ideal of codimension at least c.  Those heads lie
    in the initial ideal, so then codim(I) >= c, and the entries found so far
    are returned, monic but not auto-reduced: they generate the ideal and
    their heads lie in in(I), but they need not form a Groebner basis.  The
    stop is tested before the cap, so it can answer where the cap alone would
    raise.  When the heads never reach c, the result is the reduced basis.
    """
    if all(g.is_zero() for g in generators):
        return []
    ring = generators[0].ring
    order = order or ring.canonical_order
    basis = _prepared(generators[:gb_prefix], order)
    start = len(basis)
    inputs = _prepared(generators[gb_prefix:], order)
    if start:
        # Reduction is linear: the monic input's remainder is its normal form made monic.
        field, packing, divisors = ring.field, order.packing, {}
        rems = [_reduce_prepared(entry.terms(field.one), basis, packing.guard,
                                 field.characteristic, divisors) for entry in inputs]
        inputs = [_Entry(rem, map(packing.unpack, rem), field, packing) for rem in rems if rem]
    basis += inputs
    if _pair_loop(basis, order, ring, s_pair_cap, start, codim_at_least):
        return [_unpacked(entry.terms(ring.field.one), order.packing, ring) for entry in basis]
    return _auto_reduce(basis, order, ring)


def _auto_reduce(basis, order, ring):
    packing = order.packing
    # Minimalize: drop elements whose lead is divisible by another survivor's.
    keep = []
    for entry in sorted(basis, key=attrgetter("lm")):
        if any(packing.divides(k.lm, entry.lm) for k in keep):
            continue
        keep.append(entry)
    # Tail-reduce each against the others.  Its lead stays, divisible by no
    # other lead, so the results are monic and sorted like `keep`.
    one, p = ring.field.one, ring.field.characteristic
    reduced = []
    for idx, entry in enumerate(keep):
        others = keep[:idx] + keep[idx + 1 :]
        terms = entry.terms(one)
        if others:
            terms = _reduce_prepared(terms, others, packing.guard, p, {})
        reduced.append(_unpacked(terms, packing, ring))
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

    A `buchberger` run on the generators, capped at `max_reductions` pairs
    taken from the queue and stopped as soon as the heads found so far have
    codimension at least c.  Those heads generate a monomial ideal inside
    the initial ideal, so its codimension bounds codim(I) from below.  True
    when the heads of the result reach c; None when they do not or the cap
    ran out.  Never returns False.
    """
    if c < 0:
        raise PolyError("codimension bound must be nonnegative")
    if c == 0:
        return True
    order = order or ideal.ring.canonical_order
    try:
        basis = buchberger(ideal.generators, order, max_reductions, codim_at_least=c)
    except BudgetExceededError:
        return None
    heads = [g.lead_term(order)[0] for g in basis]
    return True if monomial_ideal_codim(heads, ideal.ring.num_vars) >= c else None


class RingPresentation:
    """An ambient polynomial ring with a defining ideal."""

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.ring = ideal.ring

    def __repr__(self):
        return f"RingPresentation({self.ring}, {len(self.ideal.generators)} generators)"
