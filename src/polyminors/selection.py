"""Submatrix selection: the nine methods, strategy weight tables, point search."""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from operator import mul

from .gbasis import Ideal
from .polylinalg import PolyMatrix, SubmatrixChoice, determinant, numeric_rank
from .polyring import GREVLEX, LEX, PolyError, random_order

MUTATION_RESET_PERIOD = 5
DEFAULT_POINT_ATTEMPTS = 2000
EXHAUSTIVE_SWEEP_LIMIT = 10**6


class SelectionFailedError(PolyError):
    """The requested method could not produce a submatrix of the asked size."""


class UnsupportedFieldError(PolyError):
    pass


class SelectionMethod(Enum):
    LEX_SMALLEST = "LexSmallest"
    LEX_SMALLEST_TERM = "LexSmallestTerm"
    LEX_LARGEST = "LexLargest"
    GREVLEX_SMALLEST = "GRevLexSmallest"
    GREVLEX_SMALLEST_TERM = "GRevLexSmallestTerm"
    GREVLEX_LARGEST = "GRevLexLargest"
    RANDOM = "Random"
    RANDOM_NONZERO = "RandomNonzero"
    POINTS = "Points"


_GREEDY_METHODS = {m for m in SelectionMethod if "Lex" in m.value}
_GREVLEX_METHODS = {m for m in _GREEDY_METHODS if m.value.startswith("GRevLex")}


class StrategyTable:
    """Nonnegative integer weights over the nine selection methods."""

    def __init__(self, weights: dict):
        self.weights = {m: 0 for m in SelectionMethod}
        for method, w in weights.items():
            if not isinstance(method, SelectionMethod):
                method = SelectionMethod(method)
            if w < 0:
                raise PolyError(f"negative weight for {method.value}")
            self.weights[method] = int(w)
        if not any(self.weights.values()):
            raise PolyError("at least one strategy weight must be positive")
        self._methods = [m for m in SelectionMethod if self.weights[m]]
        self._cum = []
        total = 0
        for m in self._methods:
            total += self.weights[m]
            self._cum.append(total)
        self._total = total

    def draw(self, rng) -> SelectionMethod:
        """Draw a method with probability weight / total."""
        r = rng.randrange(self._total)
        for m, c in zip(self._methods, self._cum):
            if r < c:
                return m
        raise AssertionError("unreachable")

    def __eq__(self, other):
        return isinstance(other, StrategyTable) and self.weights == other.weights

    def __repr__(self):
        inner = ", ".join(f"{m.value}: {w}" for m, w in self.weights.items() if w)
        return f"StrategyTable({{{inner}}})"


_BUILTIN_STRATEGIES = {
    "StrategyDefault": {
        SelectionMethod.LEX_SMALLEST: 16,
        SelectionMethod.LEX_SMALLEST_TERM: 16,
        SelectionMethod.GREVLEX_SMALLEST: 16,
        SelectionMethod.GREVLEX_SMALLEST_TERM: 16,
        SelectionMethod.RANDOM: 16,
        SelectionMethod.RANDOM_NONZERO: 16,
    },
    "StrategyDefaultNonRandom": {
        SelectionMethod.LEX_SMALLEST: 25,
        SelectionMethod.LEX_SMALLEST_TERM: 25,
        SelectionMethod.GREVLEX_SMALLEST: 25,
        SelectionMethod.GREVLEX_SMALLEST_TERM: 25,
    },
    "StrategyDefaultWithPoints": {
        SelectionMethod.POINTS: 16,
        SelectionMethod.LEX_SMALLEST: 8,
        SelectionMethod.LEX_SMALLEST_TERM: 8,
        SelectionMethod.GREVLEX_SMALLEST: 8,
        SelectionMethod.GREVLEX_SMALLEST_TERM: 8,
    },
    "StrategyLexSmallest": {
        SelectionMethod.LEX_SMALLEST: 50,
        SelectionMethod.LEX_SMALLEST_TERM: 50,
    },
    "StrategyGRevLexSmallest": {
        SelectionMethod.GREVLEX_SMALLEST: 50,
        SelectionMethod.GREVLEX_SMALLEST_TERM: 50,
    },
    "StrategyPoints": {SelectionMethod.POINTS: 100},
    "StrategyRandom": {
        SelectionMethod.RANDOM: 50,
        SelectionMethod.RANDOM_NONZERO: 50,
    },
}


def builtin_strategy(name: str) -> StrategyTable:
    """One of the seven named weight tables."""
    try:
        return StrategyTable(_BUILTIN_STRATEGIES[name])
    except KeyError:
        raise PolyError(f"unknown strategy {name!r}") from None


_STRATEGY_SPEC_RE = re.compile(r"^\s*\{(.*)\}\s*$", re.S)


def parse_strategy(spec: str) -> StrategyTable:
    """A builtin name, a single method name, or '{Method: weight, ...}'."""
    if spec in _BUILTIN_STRATEGIES:
        return builtin_strategy(spec)
    try:
        return StrategyTable({SelectionMethod(spec): 100})
    except ValueError:
        pass
    m = _STRATEGY_SPEC_RE.match(spec)
    if not m:
        raise PolyError(f"unknown strategy {spec!r}")
    weights = {}
    body = m.group(1).strip()
    if body:
        for item in body.split(","):
            if not item.strip():
                continue
            try:
                key, value = item.split(":")
                method = SelectionMethod(key.strip())
                weights[method] = int(value.strip())
            except ValueError:
                raise PolyError(f"bad strategy entry {item.strip()!r}") from None
    return StrategyTable(weights)


class WorkingMatrix:
    """A matrix with its nonzero positions, extremal supports and mutation counts.

    The greedy methods rank an entry by its smallest or largest term under a
    random order, which is one of its divisibility-minimal or -maximal terms
    (`extremal`), since every monomial order extends divisibility.  The
    GRevLex methods mutate each used nonzero entry: its product with a random
    c0 + c1*x1 + ... + cn*xn (all ci nonzero) is only counted, since its
    smallest term is the entry's and its largest the entry's times the order's
    top variable; the n + 1 coefficients are still drawn.  The counts reset
    every MUTATION_RESET_PERIOD selections.
    """

    def __init__(self, original: PolyMatrix):
        self.original = original
        self.nonzero = [(i, j) for i, row in enumerate(original.entries)
                        for j, e in enumerate(row) if e.terms]
        self._extremal = {}
        self.reset()

    def extremal(self, largest: bool) -> dict:
        """{position: divisibility-maximal, or -minimal, terms}, built on first use.

        Sorted by degree, terms meet their proper multiples (divisors) first,
        so one sweep finds them: a guard test on exponent words per pair.
        """
        if largest not in self._extremal:
            packing = self.original.ring.word_packing
            guard, weights, sign = packing.guard, packing.weights, -1 if largest else 1
            table = self._extremal[largest] = {}
            for ij in self.nonzero:
                kept, words = [], []
                for t in sorted(self.original[ij].terms, key=sum, reverse=largest):
                    w = sign * sum(map(mul, t, weights))
                    for u in words:
                        if not (w - u) & guard:
                            break
                    else:
                        words.append(w)
                        kept.append(t)
                table[ij] = kept
        return self._extremal[largest]

    def keys(self, method: SelectionMethod, order) -> dict:
        """{position: packed smallest, or largest, term} of each nonzero entry, mutated."""
        largest = method.value.endswith("Largest")
        pick, weights = max if largest else min, order.packing.weights
        keys = {ij: pick([sum(map(mul, t, weights)) for t in terms])
                for ij, terms in self.extremal(largest).items()}
        if method == SelectionMethod.GREVLEX_LARGEST:
            # Counts stay below MUTATION_RESET_PERIOD, far inside the 17-bit fields.
            top = order.packing.weights[order.permutation[0]]
            for ij, m in self.mutations.items():
                keys[ij] += m * top
        return keys

    def mutate(self, used: SubmatrixChoice, rng):
        """Count a mutation of the just-used nonzero entries; reset periodically."""
        ring = self.original.ring
        for ij in zip(used.rows, used.cols):
            if self.original[ij].terms:
                for _ in range(ring.num_vars + 1):
                    ring.field.random_nonzero(rng)
                self.mutations[ij] += 1
        self.selections_since_reset += 1
        if self.selections_since_reset >= MUTATION_RESET_PERIOD:
            self.reset()

    def reset(self):
        self.mutations = Counter()
        self.selections_since_reset = 0


def _sweep(size: int, positions, rng, best=None) -> SubmatrixChoice:
    """`size` positions in distinct rows and columns, taken one at a time: each
    drawn uniformly from the survivors (in row order), or from the ties that
    `best` keeps of them, drawing only when there is more than one.
    """
    rows, cols = [], []
    for _ in range(size):
        alive = [ij for ij in positions if ij[0] not in rows and ij[1] not in cols]
        if not alive:
            raise SelectionFailedError("not enough nonzero entries survive")
        if best:
            alive = best(alive)
        i, j = alive[rng.randrange(len(alive))] if not best or len(alive) > 1 else alive[0]
        rows.append(i)
        cols.append(j)
    return SubmatrixChoice(tuple(rows), tuple(cols))


def choose_submatrix_greedy(method: SelectionMethod, size: int, working: WorkingMatrix, rng,
                            order=None) -> SubmatrixChoice:
    """Greedy extremal-entry selection under a freshly randomized order.

    Each nonzero entry is ranked by one int (`WorkingMatrix.keys`): its
    smallest packed monomial under the order, or its largest for *Largest
    (SmallestTerm, which first cuts each entry to that term, ranks alike).
    Then, `size` times: take the surviving entry of extremal rank (ties
    broken uniformly at random) and delete its row and column.  A pinned
    `order` replaces the random draw (its kind and length must match).
    """
    if method not in _GREEDY_METHODS:
        raise PolyError(f"{method.value} is not a greedy method")
    M = working.original
    if size > min(M.nrows, M.ncols):
        raise SelectionFailedError("submatrix size exceeds matrix dimensions")
    kind = GREVLEX if method in _GREVLEX_METHODS else LEX
    if order is not None and order.kind != kind:
        raise PolyError(f"pinned order kind {order.kind} does not match {method.value}")
    if order is not None and order.num_vars != M.ring.num_vars:
        raise PolyError("monomial length does not match order")
    keys = working.keys(method, order or random_order(kind, M.ring.num_vars, rng))
    pick = max if method.value.endswith("Largest") else min

    def best(alive):
        key = pick(map(keys.__getitem__, alive))
        return [ij for ij in alive if keys[ij] == key]

    choice = _sweep(size, keys, rng, best)
    if kind == GREVLEX:
        working.mutate(choice, rng)
    return choice


def choose_submatrix_random(method: SelectionMethod, size: int, working: WorkingMatrix,
                            rng) -> SubmatrixChoice:
    """Uniform random index sets, or iterated random nonzero entries."""
    M = working.original
    if size > min(M.nrows, M.ncols):
        raise SelectionFailedError("submatrix size exceeds matrix dimensions")
    if method == SelectionMethod.RANDOM:
        rows = tuple(rng.sample(range(M.nrows), size))
        cols = tuple(rng.sample(range(M.ncols), size))
        return SubmatrixChoice(rows, cols)
    if method != SelectionMethod.RANDOM_NONZERO:
        raise PolyError(f"{method.value} is not a random method")
    return _sweep(size, working.nonzero, rng)


def find_point(J: Ideal, rng):
    """A random F_p-rational point where every generator of J vanishes, or None.

    Small search spaces (p^n <= 10^6) are swept exhaustively in random order,
    so failure there proves there is no point.
    """
    field = J.ring.field
    if not field.is_prime_field:
        raise UnsupportedFieldError("point search needs a finite prime field")
    p = field.characteristic
    n = J.ring.num_vars
    gens = [g for g in J.generators if not g.is_zero()]

    def vanishes(pt):
        return all(g.evaluate(pt) == 0 for g in gens)

    total = p**n
    if total <= EXHAUSTIVE_SWEEP_LIMIT:
        indices = list(range(total))
        rng.shuffle(indices)
        for idx in indices:
            pt = []
            for _ in range(n):
                pt.append(idx % p)
                idx //= p
            pt = tuple(pt)
            if vanishes(pt):
                return pt
        return None
    for _ in range(DEFAULT_POINT_ATTEMPTS):
        pt = tuple(rng.randrange(p) for _ in range(n))
        if vanishes(pt):
            return pt
    return None


def choose_submatrix_points(size: int, M: PolyMatrix, J: Ideal, rng, point=None) -> SubmatrixChoice:
    """Evaluate M at a point of V(J) and return a full-rank pivot block.

    Over characteristic 0 this degrades to the Random method.  A forced
    `point` skips the search (used by tests).
    """
    field = M.ring.field
    if not field.is_prime_field:
        return choose_submatrix_random(SelectionMethod.RANDOM, size, WorkingMatrix(M), rng)
    if point is None:
        point = find_point(J, rng)
        if point is None:
            raise SelectionFailedError("no rational point found")
    grid = M.evaluate(point)
    rank, prows, pcols = numeric_rank(grid, field)
    if rank < size:
        raise SelectionFailedError("evaluated matrix rank below requested size")
    choice = SubmatrixChoice(tuple(prows[:size]), tuple(pcols[:size]))
    # The pivot block is invertible at the witness point, so the polynomial
    # minor cannot be zero; verify the numeric determinant as a guard.
    block = [[grid[i][j] for j in choice.cols] for i in choice.rows]
    if numeric_rank(block, field)[0] != size:
        raise AssertionError("pivot block unexpectedly singular at witness point")
    return choice


class MinorSelector:
    """Draws submatrix choices by a weighted strategy with graceful degradation.

    Selection failures degrade greedy and point methods to RandomNonzero and
    finally Random.  The points ideal can be updated between draws as minors
    accumulate.  `draws` is the one draw loop of every minor search; the
    selector counts its draws as `considered` and the distinct submatrices
    among them as `computed`.
    """

    def __init__(self, M: PolyMatrix, strategy: StrategyTable, rng, points_ideal: Ideal = None):
        self.M = M
        self.strategy = strategy
        self.rng = rng
        self.points_ideal = points_ideal
        self.working = WorkingMatrix(M)
        self.considered = 0
        self.seen = set()

    @property
    def computed(self) -> int:
        return len(self.seen)

    def draws(self, size: int, limit: float, possible: int = None):
        """Draw until `limit` draws or, given `possible`, every distinct submatrix.

        Yields one item per draw: the choice when its submatrix is new, None
        when it repeats one drawn before.
        """
        while self.considered < limit and (possible is None or self.computed < possible):
            choice = self.next_choice(size)
            self.considered += 1
            key = choice.key()
            if key in self.seen:
                yield None
                continue
            self.seen.add(key)
            yield choice

    def next_choice(self, size: int) -> SubmatrixChoice:
        method = self.strategy.draw(self.rng)
        try:
            if method == SelectionMethod.POINTS:
                ideal = self.points_ideal or Ideal([], self.M.ring)
                return choose_submatrix_points(size, self.M, ideal, self.rng)
            if method in _GREEDY_METHODS:
                return choose_submatrix_greedy(method, size, self.working, self.rng)
        except SelectionFailedError:
            pass
        if method != SelectionMethod.RANDOM:
            try:
                return choose_submatrix_random(SelectionMethod.RANDOM_NONZERO, size, self.working,
                                               self.rng)
            except SelectionFailedError:
                pass
        return choose_submatrix_random(SelectionMethod.RANDOM, size, self.working, self.rng)


def choose_good_minors(count: int, size: int, M: PolyMatrix, strategy: StrategyTable,
                       rng, points_ideal: Ideal = None, det_engine: str = "bareiss"):
    """Select up to `count` submatrices and collect their nonzero determinants.

    Returns (Ideal of minors, stats) where stats counts every draw as
    `considered` and only distinct submatrix keys as `computed`.
    """
    if size > min(M.nrows, M.ncols) or size < 1:
        raise PolyError(f"minor size {size} out of range")
    if count < 0:
        raise PolyError(f"minor count must be nonnegative, not {count}")
    selector = MinorSelector(M, strategy, rng, points_ideal)
    minors = []
    for choice in selector.draws(size, count):
        if choice is None:
            continue
        det = determinant(M.submatrix(choice), det_engine)
        if not det.is_zero():
            minors.append(det)
            if selector.points_ideal is not None:
                selector.points_ideal = selector.points_ideal + [det]
    stats = {"considered": selector.considered, "computed": selector.computed}
    return Ideal(minors, M.ring), stats
