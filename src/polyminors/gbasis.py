"""Groebner machinery: Buchberger, membership, Krull dimension, codim bounds.

`GroebnerState` is the only S-pair loop: a packed basis that `add` extends by
the remainders of new generators and `complete` runs until it is a Groebner
basis or its heads reach a codimension.  `buchberger`, `is_unit_ideal`,
`is_codim_at_least` and the checkpoints of `fastcheck.regular_in_codimension`
all drive one.

Inside the division and S-pair loops every monomial is one int from the
order's ExponentPacking (see `polyring`): comparing ints compares monomials, a
product is an add, and divisibility and exponent overflow are one guard-bit
test each.  The pair update compares leads by their exponent words instead,
where an lcm is a fieldwise max.  Polynomials enter and leave with exponent
tuples.
"""

from __future__ import annotations

import heapq
from operator import attrgetter

from .polyring import (
    MonomialOrder,
    PolyError,
    Polynomial,
    PolyRing,
    exponent_overflow_error,
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


class _Entry:
    """A nonzero basis element made monic and packed for the loops.

    `lm` is the packed lead monomial, whose coefficient is 1, and `tail_m`
    and `tail_c` hold the packed monomials below it and their coefficients.
    A packed m is divisible by the lead exactly when not (m - div) & guard,
    and a packed shift s times every term stays below MAX_EXPONENT exactly
    when not (room - s) & guard.  The caller passes `room`: from exponent
    tuples it already holds (`ExponentPacking.room`), or else from the packed
    terms (`packed_room`).  Only the lead is unpacked, for its degree and
    support `mask`.  For the
    pair update, `word` is the lead's exponent word (see ExponentPacking)
    and `excess` is the S-pair loop's degree bound (its sugar) minus the
    lead's degree.
    """

    __slots__ = ("div", "lm", "tail_m", "tail_c", "room", "word", "excess", "mask")

    def __init__(self, terms: dict, field, packing, room: int, sugar: int = 0):
        """From nonzero {packed monomial: coefficient} terms, their headroom and their sugar."""
        lm = max(terms)
        inv = field.inv(terms[lm])
        p = field.characteristic
        self.lm = lm
        self.div = lm - packing.offset
        tail = [m for m in terms if m != lm]
        self.tail_m = tuple(tail)
        self.tail_c = tuple([terms[m] * inv % p for m in tail] if p else [terms[m] * inv for m in tail])
        self.room = room
        self.word = packing.word(lm)
        lead = packing.unpack(lm)
        self.excess = sugar - sum(lead)
        self.mask = _support_mask(lead)

    def terms(self, one) -> dict:
        """{packed monomial: coefficient}, with `one` as the lead coefficient."""
        terms = {self.lm: one}
        terms.update(zip(self.tail_m, self.tail_c))
        return terms


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
            raise exponent_overflow_error()
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
    if p.ring.num_vars != order.num_vars:
        raise PolyError("monomial length does not match order")
    packing = order.packing
    prep = [_Entry({packing.pack(m): c for m, c in g.terms.items()}, g.ring.field, packing,
                   packing.room(g.terms))
            for g in basis if g.terms]
    if not prep or p.is_zero():
        return p
    terms = {packing.pack(m): c for m, c in p.terms.items()}
    rem = _reduce_prepared(terms, prep, packing.guard, p.ring.field.characteristic, {})
    return _unpacked(rem, packing, p.ring)


def _spoly_terms(f, g, lcm: int, guard: int, p: int) -> dict:
    """Packed terms of the S-polynomial of entries f and g, whose leads have
    the packed lcm `lcm`.  The leads cancel, so only the tails are shifted."""
    sf, sg = lcm - f.lm, lcm - g.lm
    if (f.room - sf) & guard or (g.room - sg) & guard:
        raise exponent_overflow_error()
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


class GroebnerState:
    """A packed basis under construction, kept between calls.

    Every pair of `entries` has been taken, dropped by the Gebauer-Moeller
    update, or is still queued, so `add` and `complete` can extend one basis
    any number of times.  Entries join one at a time.  A joining entry h is
    paired with every useful entry (one whose lead no later lead divides).
    Of those pairs only one per minimal lcm is queued, and none whose lcm a
    coprime pair also has.  A queued pair (i, j) is dropped when lead(h)
    divides its lcm and neither lcm(lead(i), lead(h)) nor lcm(lead(j),
    lead(h)) equals it.  Then h retires every useful entry whose lead its
    lead divides.  `supports` holds the minimal support masks of the leads.

    The update works on the leads' exponent words (see ExponentPacking): an
    lcm is `word_lcm`, a fieldwise max in a few int operations; a pair's
    sugar is deg(lcm) + max(excess_g, excess_h), so one lcm keeps the least
    excess and the first g with it; a pair is coprime when its lcm is the sum
    of the words; and criteria M, F and B_k test divisibility with one guard
    test on words, which sort in a Lex order.  Only a queued pair pays for
    its lcm's degree and packed int, and the queue keeps (sugar, packed lcm,
    i, j), so pairs leave in the order's own (sugar, lcm) order.
    """

    def __init__(self, ring: PolyRing, order: MonomialOrder = None):
        order = order or ring.canonical_order
        if ring.num_vars != order.num_vars:
            raise PolyError("monomial length does not match order")
        self.ring, self.order = ring, order
        self.entries = []
        self.useful = []
        self.live = {}  # (i, j) -> lcm word, for pairs still queued
        self.queue = []  # (sugar, packed lcm, i, j); dropped pairs are skipped lazily
        self.divisors = {}  # shared by every reduction; the entries only grow at their end
        self.supports = []

    def _reduce(self, terms: dict) -> dict:
        return _reduce_prepared(terms, self.entries, self.order.packing.guard,
                                self.ring.field.characteristic, self.divisors)

    def add(self, polys):
        """Join each polynomial's nonzero remainder modulo the entries before the call.

        Reduction is linear, so a member of the ideal of a complete basis
        joins nothing.  A remainder joins with its total degree as its sugar,
        and its headroom comes from the same exponent tuples.
        """
        packing, field = self.order.packing, self.ring.field
        inputs = [({packing.pack(m): c for m, c in g.terms.items()}, g.terms) for g in polys]
        if self.entries:  # with none, each input is its own remainder and keeps its tuples
            rems = [self._reduce(terms) for terms, _ in inputs]
            inputs = [(rem, list(map(packing.unpack, rem))) for rem in rems]
        for terms, monos in inputs:
            if terms:
                self._join(_Entry(terms, field, packing, packing.room(monos), max(map(sum, monos))))

    def _join(self, entry_h) -> bool:
        """Append an entry and update the pairs; True when its lead brings a new minimal support."""
        entries, live, packing = self.entries, self.live, self.order.packing
        guard, word_lcm = packing.guard, packing.word_lcm
        h = len(entries)
        entries.append(entry_h)
        word_h, excess_h = entry_h.word, entry_h.excess
        # lcm word -> [least max(excess_g, excess_h), its first g, some pair
        # with it is coprime].  A pair's sugar is deg(lcm) + max(excess_g,
        # excess_h), so on one lcm the least excess is the least sugar.
        by_lcm = {}
        for g in self.useful:
            entry_g = entries[g]
            word_g, excess = entry_g.word, entry_g.excess
            l = word_lcm(word_g, word_h)
            if excess < excess_h:
                excess = excess_h
            # The lcm is the sum exactly when no field is nonzero in both leads.
            coprime = l == word_g + word_h
            seen = by_lcm.get(l)
            if seen is None:
                by_lcm[l] = [excess, g, coprime]
            else:
                if excess < seen[0]:
                    seen[0], seen[1] = excess, g
                seen[2] = seen[2] or coprime
        # Criterion B_k on the queued pairs.
        for key, l in list(live.items()):
            if (l - word_h) & guard:
                continue
            i, j = key
            if word_lcm(entries[i].word, word_h) != l and word_lcm(entries[j].word, word_h) != l:
                del live[key]
        # Criteria M and F.  Word order is a Lex order, which extends
        # divisibility, so ascending words meet every divisor of an lcm
        # before the lcm itself.  Only queued pairs pay for the degree and
        # the order's packed lcm.
        minimal = []
        for l in sorted(by_lcm):
            for d in minimal:
                if not (l - d) & guard:
                    break
            else:
                minimal.append(l)
                excess, g, coprime = by_lcm[l]
                if not coprime:
                    live[(g, h)] = l
                    degree, packed = packing.from_word(l)
                    heapq.heappush(self.queue, (degree + excess, packed, g, h))
        self.useful = [g for g in self.useful if (entries[g].word - word_h) & guard]
        self.useful.append(h)
        mask_h = entry_h.mask
        if any(not t & ~mask_h for t in self.supports):
            return False
        self.supports = [t for t in self.supports if mask_h & ~t] + [mask_h]
        return True

    def codim(self) -> int:
        """Codimension of the monomial ideal the leads so far generate."""
        return _supports_codim(self.supports, self.ring.num_vars)

    def complete(self, limit: int, codim_at_least: int = None) -> bool:
        """Take queued pairs until the basis is complete; True at the codimension stop.

        Pairs leave the queue by least sugar, then least lcm.  Each one's
        S-polynomial is reduced by all entries, and a nonzero remainder joins
        with the pair's sugar.  With `codim_at_least`, the loop stops as soon
        as the leads so far generate a monomial ideal of that codimension,
        tested first and then whenever a lead brings a new minimal support.

        Returns True at the codimension stop and False when the basis is
        complete: the queue emptied, or an entry is a nonzero constant (the
        unit ideal).  Raises BudgetExceededError when `limit` pairs have been
        taken in this call and live pairs remain; the queue is kept, so a
        later call resumes it.
        """
        if codim_at_least is not None and self.codim() >= codim_at_least:
            return True
        if 0 in self.supports:
            return False
        field, packing, queue, live = self.ring.field, self.order.packing, self.queue, self.live
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
            rem = self._reduce(_spoly_terms(self.entries[i], self.entries[j], l, packing.guard,
                                            field.characteristic))
            if not rem:
                continue
            entry = _Entry(rem, field, packing, packing.packed_room(rem), pair_sugar)
            if (self._join(entry) and codim_at_least is not None
                    and self.codim() >= codim_at_least):
                return True
            if not entry.lm:
                return False

    def polynomials(self) -> list:
        """The entries as monic polynomials, in the order they joined."""
        one = self.ring.field.one
        return [_unpacked(entry.terms(one), self.order.packing, self.ring) for entry in self.entries]

    def reduced_basis(self) -> list:
        """The reduced monic basis of a complete state, sorted by lead."""
        packing = self.order.packing
        # Minimalize: drop elements whose lead is divisible by another survivor's.
        keep = []
        for entry in sorted(self.entries, key=attrgetter("lm")):
            if any(packing.divides(k.lm, entry.lm) for k in keep):
                continue
            keep.append(entry)
        # Tail-reduce each against the others.  Its lead stays, divisible by no
        # other lead, so the results are monic and sorted like `keep`.
        one, p = self.ring.field.one, self.ring.field.characteristic
        reduced = []
        for idx, entry in enumerate(keep):
            others = keep[:idx] + keep[idx + 1 :]
            terms = entry.terms(one)
            if others:
                terms = _reduce_prepared(terms, others, packing.guard, p, {})
            reduced.append(_unpacked(terms, packing, self.ring))
        return reduced


def buchberger(generators, order: MonomialOrder = None, s_pair_cap: int = DEFAULT_S_PAIR_CAP,
               codim_at_least: int = None):
    """Reduced monic Groebner basis of the ideal generated by `generators`.

    A new `GroebnerState` takes the generators and is completed with at most
    `s_pair_cap` pairs taken from the queue; pairs the Gebauer-Moeller
    update drops are never taken, so they do not count.  When pairs remain
    past the cap it raises BudgetExceededError rather than ever returning a
    wrong basis.

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
    state = GroebnerState(generators[0].ring, order)
    state.add(generators)
    if state.complete(s_pair_cap, codim_at_least):
        return state.polynomials()
    return state.reduced_basis()


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
    """True iff 1 belongs to the ideal.

    One `GroebnerState` of the generators is completed with at most
    `s_pair_cap` pairs, raising BudgetExceededError past them.  Its pair loop
    stops at the first nonzero constant, at once on a constant input, and the
    answer is whether one joined: a lead with the empty support.  No basis is
    reduced or cached.
    """
    state = GroebnerState(ideal.ring, order)
    state.add(ideal.generators)
    state.complete(s_pair_cap)
    return 0 in state.supports


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

    A `GroebnerState` of the generators, completed with at most
    `max_reductions` pairs taken from the queue and stopped as soon as the
    heads found so far have codimension at least c.  Those heads generate a
    monomial ideal inside the initial ideal, so its codimension bounds
    codim(I) from below.  True when that stop fires; None when the basis
    completes below c or the cap runs out.  Never returns False.
    """
    if c < 0:
        raise PolyError("codimension bound must be nonnegative")
    state = GroebnerState(ideal.ring, order)
    state.add(ideal.generators)
    try:
        return True if state.complete(max_reductions, c) else None
    except BudgetExceededError:
        return None


class RingPresentation:
    """An ambient polynomial ring with a defining ideal."""

    def __init__(self, ideal: Ideal):
        self.ideal = ideal
        self.ring = ideal.ring

    def __repr__(self):
        return f"RingPresentation({self.ring}, {len(self.ideal.generators)} generators)"
