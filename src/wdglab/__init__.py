"""wdglab: weighted dynamical graphs for degree-2 multilinear polynomials.

Exact evaluation and L1-norm analysis of WDGs, AND/OR Kronecker
compositions with closed-form norm growth, heuristic solvers for the
two norm-optimization problems, the iterated-AND family with its
certificate complexity, and the projector order measure.
"""

from .boolfn import (
    CertificateComplexity,
    PartialBooleanFunction,
    RandomizedScaleReport,
    and_family_table,
    and_family_wdg,
    and_indicator,
    and_indicator_recursive,
    certificate_complexity,
    randomized_query_scale,
    subset_products,
)
from .compose import (
    AND,
    OR,
    ComposedResult,
    compose,
    compose_and,
    compose_or,
    iterate_compose,
    predicted_l1,
    product_assignment,
)
from .core import (
    WDG,
    AssociatedMatrix,
    Edge,
    Rational,
    as_rational,
    build_wdg,
    check_assignment,
    evaluate,
    f_value,
    format_assignment,
    format_rational,
    l1_norm,
    l1_norm_with_shift,
    matrix_of,
    parse_assignment,
    total_weight,
    wdg_of_matrix,
)
from .errors import (
    BadIndexError,
    DegenerateGraphError,
    DocumentError,
    DuplicateEdgeError,
    EmptyTemplateError,
    IncompleteCsopError,
    InfeasibleError,
    LimitExceededError,
    NonzeroDiagonalError,
    NotSymmetricError,
    SelfLoopError,
    ShapeMismatchError,
    SizeBudgetExceededError,
    WdgError,
)
from .measurement import (
    CsopMatrices,
    CsopProfile,
    OrderTrendReport,
    csop_matrices,
    csop_order,
    order_trend,
    profile_of,
    validate_csop,
)
from .optimize import (
    OptimizationResult,
    PartialFunctionSpec,
    full_template,
    maximize_l1,
    min_to_max,
    minimize_delta,
    uniform_heuristic,
)
from .oracle import (
    ExtremaReport,
    SupportClasses,
    advantage_indicator,
    all_assignments,
    approximation_error,
    delta_exact,
    extrema,
    normalize_range,
    range_check,
    support_classes,
    vertex_weight_bound,
)
from .tensor import (
    RationalMatrix,
    abs_matrix,
    all_ones_value,
    hadamard,
    identity,
    kronecker,
    matrix,
)

__version__ = "0.1.0"
