"""Heuristic submatrix selection and fast minor computations for polynomial matrices."""

from .polyring import (
    GF,
    GREVLEX,
    LEX,
    QQ,
    CoefficientField,
    MonomialOrder,
    ParseError,
    PolyError,
    Polynomial,
    PolyRing,
    identity_order,
    parse_polynomial,
    random_order,
)
from .polylinalg import (
    ChainComplexInput,
    PolyMatrix,
    SubmatrixChoice,
    count_possible_minors,
    det_bareiss,
    det_cofactor,
    determinant,
    jacobian,
    numeric_rank,
    recursive_minors,
    symbolic_rank,
)
from .gbasis import (
    BudgetExceededError,
    Ideal,
    RingPresentation,
    buchberger,
    codim_quotient,
    dim_quotient,
    is_codim_at_least,
    is_unit_ideal,
    normal_form,
)
from .selection import (
    MinorSelector,
    SelectionFailedError,
    SelectionMethod,
    StrategyTable,
    WorkingMatrix,
    builtin_strategy,
    choose_good_minors,
    choose_submatrix_greedy,
    choose_submatrix_points,
    choose_submatrix_random,
    find_point,
    parse_strategy,
)
from .fastcheck import (
    LoopReport,
    MinorLoopConfig,
    checkpoint_schedule,
    default_max_minors,
    default_min_minors,
    get_submatrix_of_rank,
    is_rank_at_least,
    proj_dim_upper_bound,
    projdim_default_max_minors,
    regular_in_codimension,
)
from .problemfile import ProblemFile, parse_problem_file, parse_problem_text

__version__ = "0.1.0"
