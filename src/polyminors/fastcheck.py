"""Top-level algorithms: rank certification, regular-in-codimension, projective
dimension upper bounds, and their budget/checkpoint machinery."""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field as dataclass_field

# Every name that perfbench/tracer.py patches on this module must stay importable
# here, used or not; tests/test_imports.py allows exactly those unused.
from .gbasis import (
    BudgetExceededError,
    DEFAULT_S_PAIR_CAP,
    GroebnerState,
    Ideal,
    RingPresentation,
    buchberger,
    dim_quotient,
    is_codim_at_least,
    is_unit_ideal,
    monomial_ideal_codim,
    normal_form,
)
from .polylinalg import (
    ChainComplexInput,
    PolyMatrix,
    count_possible_minors,
    det_bareiss,
    determinant,
    jacobian,
    numeric_rank,
    symbolic_rank,
)
from .polyring import GF, PolyError, PolyRing
from .selection import MinorSelector, StrategyTable, builtin_strategy

CODIM_CHECK_BASE = 1.3
RANK_EVALUATION_TRIES = 3


def default_max_minors(minors_needed: int, possible_minors: int) -> float:
    """10*m + 8*log base 1.3 of the possible-minor count."""
    if possible_minors < 1:
        raise PolyError("possible minor count must be at least 1")
    return 10 * minors_needed + 8 * math.log(possible_minors) / math.log(CODIM_CHECK_BASE)


def default_min_minors(minors_needed: int) -> int:
    """2*m + 3 minors before the first codimension check."""
    return 2 * minors_needed + 3


def projdim_default_max_minors(num_vars: int, possible_minors: int) -> float:
    """5*d + 2*log base 1.3 of the possible-minor count."""
    if possible_minors < 1:
        raise PolyError("possible minor count must be at least 1")
    return 5 * num_vars + 2 * math.log(possible_minors) / math.log(CODIM_CHECK_BASE)


def checkpoint_schedule(min_minors: int, base: float = CODIM_CHECK_BASE):
    """Yield the considered-counts at which codimension checks fire.

    The first check happens once min_minors submatrices have been considered
    (at least one); after a check at count c the next one fires at the first
    count past base^k, where k is the smallest integer with base^k > c.
    """
    if base <= 1:
        raise PolyError("checkpoint base must exceed 1")
    c = max(min_minors, 1)
    while True:
        yield c
        k = max(math.ceil(math.log(c) / math.log(base)), 0)
        while base**k <= c:
            k += 1
        c = max(math.floor(base**k) + 1, c + 1)


@dataclass
class MinorLoopConfig:
    """Budgets, strategy, determinant engine and logging for the top loops.

    Checkpoints fire on the CODIM_CHECK_BASE schedule, and a verbose run
    logs to stderr.
    """

    max_minors: object = None  # number, or callable (minors needed, possible) -> float
    min_minors_fn: object = default_min_minors
    strategy: StrategyTable = None
    det_strategy: str = "bareiss"
    verbose: bool = False
    modulus: int = None
    s_pair_cap: int = DEFAULT_S_PAIR_CAP

    def resolve_max_minors(self, minors_needed: int, possible: int, fallback=default_max_minors) -> float:
        if self.max_minors is None:
            return fallback(minors_needed, possible)
        budget = self.max_minors
        if callable(budget):
            budget = budget(minors_needed, possible)
        budget = float(budget)
        if not budget >= 0:
            raise PolyError(f"minor budget must be a nonnegative number, not {budget}")
        return budget

    def log(self, message: str):
        if self.verbose:
            print(message, file=sys.stderr)


@dataclass
class LoopReport:
    """Outcome and counters of a minor-accumulation loop.

    `dimension` and `dimension_history` are the dimensions read from each
    checkpoint's basis heads.  A checkpoint whose fast codim bound succeeded
    stops its Groebner basis early, so its entry is an upper bound on the
    true dimension, still at most the target.
    """

    result: object  # True, False, or None (inconclusive)
    considered: int = 0
    computed: int = 0
    dimension: object = None
    minors: list = dataclass_field(default_factory=list)
    dimension_history: list = dataclass_field(default_factory=list)


def _rank_at_a_point(M: PolyMatrix, r: int, rng) -> bool:
    """Whether M has rank at least r at one of a few random points.

    Rank at any point is a lower bound on the rank.  A miss proves nothing:
    over GF(2), det diag(x, x + 1) = x^2 + x vanishes at every point.
    """
    field = M.ring.field
    for _ in range(RANK_EVALUATION_TRIES):
        point = [field.random_element(rng) for _ in range(M.ring.num_vars)]
        rank, _, _ = numeric_rank(M.evaluate(point), field)
        if rank >= r:
            return True
    return False


def _certify_rank(sub: PolyMatrix, r: int, rng) -> bool:
    """Rank certificate for an r x r candidate: random evaluations, then the exact determinant."""
    return _rank_at_a_point(sub, r, rng) or not det_bareiss(sub).is_zero()


def get_submatrix_of_rank(r: int, M: PolyMatrix, cfg: MinorLoopConfig = None, rng=None):
    """Search for an r x r submatrix of rank r; None when the budget runs out.

    Each distinct submatrix is certified at most once: the certificate ends in
    an exact determinant, so a repeat that failed once fails again.
    """
    if r < 1:
        raise PolyError("requested rank must be positive")
    if r > min(M.nrows, M.ncols):
        return None
    cfg = cfg or MinorLoopConfig()
    rng = rng or random.Random()
    strategy = cfg.strategy or builtin_strategy("StrategyDefaultNonRandom")
    possible = count_possible_minors(M.nrows, M.ncols, r)
    budget = cfg.resolve_max_minors(1, possible)
    selector = MinorSelector(M, strategy, rng)
    for choice in selector.draws(r, budget, possible):
        if choice is not None and _certify_rank(M.submatrix(choice), r, rng):
            return choice
    return None


def is_rank_at_least(n: int, M: PolyMatrix, cfg: MinorLoopConfig = None, rng=None) -> bool:
    """Whether rank(M) >= n, from M's rank at a random point or its exact rank.

    Any n x n block of full rank at a point gives M rank n there, so one
    evaluation of the whole matrix is at least as strong as a submatrix
    search, and `symbolic_rank` settles what no point shows.  No field of
    `cfg` applies: the answer is exact whatever the strategy or budget.
    """
    if n <= 0:
        return True
    if n > min(M.nrows, M.ncols):
        return False
    rng = rng or random.Random()
    return _rank_at_a_point(M, n, rng) or symbolic_rank(M) >= n


def _with_modulus(presentation: RingPresentation, p: int) -> RingPresentation:
    """Map a presentation over the rationals into F_p, for a prime p."""
    src = presentation.ring
    if src.field.characteristic:
        raise PolyError(f"a modulus applies to a presentation over QQ, not over {src.field}")
    if not isinstance(p, int) or p < 2:
        raise PolyError(f"modulus {p!r} is not prime")
    target = PolyRing(GF(p), src.variables)
    gens = [
        target.from_terms((c, m) for m, c in g.terms.items())
        for g in presentation.ideal.generators
    ]
    return RingPresentation(Ideal(gens, target))


def regular_in_codimension(n: int, presentation: RingPresentation,
                           cfg: MinorLoopConfig = None, rng=None) -> LoopReport:
    """Try to verify the quotient ring is regular in codimension n >= 0.

    Accumulates Jacobian minors of size (num_vars - dim) on top of the
    defining ideal; succeeds once the accumulated locus has dimension at most
    dim - n - 1.  Returns True on success, None when the minor budget is
    exhausted or the S-pair budget ran out, and False only when every distinct
    submatrix was computed and the bound still fails on a complete Groebner
    basis.  The caller asserts equidimensionality.

    With `cfg.modulus` = p the presentation, which must be over QQ, is mapped
    to F_p and the whole loop runs there.  F_p can refute what QQ satisfies
    (y^2 - x^3 - 101 is smooth over QQ and a cusp mod 101), so a modular run
    that ends False reports None; a verbose run logs the F_p verdict.

    One `GroebnerState`, seeded with the defining ideal's basis, takes each
    nonzero minor as it is drawn.  Each checkpoint completes it, stopping
    once the heads found so far reach the codimension the bound needs (the
    fast codim bound succeeded); that happens exactly when the full basis
    would reach it, so the stop changes no verdict or count.
    """
    if n < 0:
        raise PolyError("codimension n must be nonnegative")
    cfg = cfg or MinorLoopConfig()
    minors_needed = n + 1
    min_minors = cfg.min_minors_fn(minors_needed)
    if not min_minors >= 0:
        raise PolyError(f"minimum minor count must be a nonnegative number, not {min_minors}")
    rng = rng or random.Random()
    if cfg.modulus is not None:
        presentation = _with_modulus(presentation, cfg.modulus)
    defining = presentation.ideal
    num_vars = presentation.ring.num_vars
    try:
        d = dim_quotient(defining, s_pair_cap=cfg.s_pair_cap)
    except BudgetExceededError:
        cfg.log(f"regularInCodimension: S-pair budget of {cfg.s_pair_cap} exceeded, "
                "ring dimension = ?")
        return LoopReport(result=None)
    if d == -1:
        # Empty variety: vacuously regular in every codimension.
        return LoopReport(result=True, dimension=-1)
    target_dim = d - n - 1
    minor_size = num_vars - d
    gens = [g for g in defining.generators if not g.is_zero()]
    if minor_size == 0:
        # dim equals the ambient dimension, so the size-0 minor ideal is the
        # unit ideal and the singular locus is empty.
        return LoopReport(result=True, dimension=-1)
    jac = jacobian(gens)
    if minor_size > min(jac.nrows, jac.ncols):
        return LoopReport(result=None, dimension=d)

    possible = count_possible_minors(jac.nrows, jac.ncols, minor_size)
    max_minors = cfg.resolve_max_minors(minors_needed, possible)
    cfg.log(
        f"regularInCodimension: ring dimension = {d}, possible minors = {possible}, "
        f"max minors = {max_minors:.3f}"
    )

    strategy = cfg.strategy or builtin_strategy("StrategyDefault")
    selector = MinorSelector(jac, strategy, rng, points_ideal=defining)
    schedule = checkpoint_schedule(min_minors)
    next_check = next(schedule)

    minors = []
    state = GroebnerState(defining.ring)
    state.add(defining.groebner_basis(s_pair_cap=cfg.s_pair_cap))
    current_dim = d
    history = []
    # The unit ideal (codim num_vars + 1) always counts as success: dim -1
    # satisfies every bound.
    fast_codim_bound = min(num_vars - target_dim, num_vars + 1)

    def run_checkpoint():
        """True on success, False if the bound fails, None if the Groebner budget ran out.

        The state keeps its pair queue when the budget runs out, so the next
        checkpoint resumes it; the cap bounds the pairs one checkpoint takes.
        """
        nonlocal current_dim
        cfg.log(
            f"regularInCodimension: checkpoint considered = {selector.considered} "
            f"computed = {selector.computed}"
        )
        try:
            fast = state.complete(cfg.s_pair_cap, fast_codim_bound)
        except BudgetExceededError:
            cfg.log(
                f"regularInCodimension: S-pair budget of {cfg.s_pair_cap} exceeded, "
                f"full dimension = ?"
            )
            return None
        codim = state.codim()
        current_dim = -1 if codim == num_vars + 1 else num_vars - codim
        history.append(current_dim)
        word = "succeeded" if fast else "failed"
        cfg.log(
            f"regularInCodimension: fast codim bound {word}, full dimension = {current_dim}"
        )
        return fast

    outcome = False
    checked_at = None  # the considered count at the last checkpoint
    for choice in selector.draws(minor_size, max_minors, possible):
        if choice is not None:
            det = determinant(jac.submatrix(choice), cfg.det_strategy)
            if not det.is_zero():
                minors.append(det)
                state.add([det])
                selector.points_ideal = selector.points_ideal + [det]
        if selector.considered >= next_check:
            next_check = next(schedule)
            outcome = run_checkpoint()
            checked_at = selector.considered
            if outcome:
                break

    # A checkpoint is deterministic, so rerunning one with no draw since
    # would only repeat its answer.
    if not outcome and checked_at != selector.considered:
        outcome = run_checkpoint()

    cfg.log(f"regularInCodimension: final dimension = {current_dim}")
    if outcome:
        result = True
    elif outcome is False and selector.computed >= possible:
        # Only a completed final checkpoint can refute the bound.
        result = False
    else:
        result = None
    if cfg.modulus is not None:
        cfg.log(f"regularInCodimension: verdict over GF({cfg.modulus}) = {result}")
        if result is False:
            result = None
    return LoopReport(
        result=result,
        considered=selector.considered,
        computed=selector.computed,
        dimension=current_dim,
        minors=minors,
        dimension_history=history,
    )


def proj_dim_upper_bound(complex_input: ChainComplexInput, min_dimension: int = 0,
                         cfg: MinorLoopConfig = None, rng=None) -> int:
    """Upper bound on projective dimension by trimming split tail maps.

    The tail map d_q splits exactly when its (rank F_q)-minors generate the
    unit ideal; each certified split lowers the bound by one and shrinks the
    expected rank of the next map.  Stops at min_dimension unconditionally.
    """
    if min_dimension < 0:
        raise PolyError("min dimension must be nonnegative")
    cfg = cfg or MinorLoopConfig()
    rng = rng or random.Random()
    strategy = cfg.strategy or builtin_strategy("StrategyDefault")
    maps = complex_input.maps
    bound = len(maps)
    expected_rank = maps[-1].ncols
    j = len(maps)
    while bound > min_dimension and j >= 1:
        d = maps[j - 1]
        if expected_rank == 0:
            # Nothing left to split off; the zero-rank minors are the unit ideal.
            bound -= 1
            j -= 1
            expected_rank = maps[j - 1].ncols if j >= 1 else 0
            continue
        if expected_rank > min(d.nrows, d.ncols):
            break
        possible = count_possible_minors(d.nrows, d.ncols, expected_rank)
        budget = cfg.resolve_max_minors(
            complex_input.ring.num_vars, possible, fallback=projdim_default_max_minors
        )
        selector = MinorSelector(d, strategy, rng)
        minors = []
        unit = False
        for choice in selector.draws(expected_rank, budget, possible):
            if choice is None:
                continue
            det = determinant(d.submatrix(choice), cfg.det_strategy)
            if det.is_zero():
                continue
            minors.append(det)
            if det.is_constant():
                unit = True
                break
        if not unit and minors:
            try:
                unit = is_unit_ideal(Ideal(minors, d.ring), s_pair_cap=cfg.s_pair_cap)
            except BudgetExceededError:
                unit = False
        if not unit:
            break
        bound -= 1
        j -= 1
        if j >= 1:
            expected_rank = maps[j - 1].ncols - expected_rank
            if expected_rank < 0:
                break
    return bound
