"""Exact Hahn-series arithmetic with cut classification and budgeted type
realization over lexicographically ordered rational exponent groups."""

from .errors import (
    BudgetExhausted,
    ComparisonUndecidedAtPrecision,
    NotFinitelySatisfiable,
    OracleFailure,
    ParseError,
    PseudoLimitUnverified,
    Unsatisfiable,
)
from .scalars import (
    OracleReal,
    RealAlgebraic,
    format_scalar,
    parse_scalar,
    real_algebraic,
)
from .series import (
    INFINITY,
    Series,
    add,
    compare_series,
    diff_valuation,
    format_series,
    invert,
    make_exp,
    monomial,
    multiply,
    negate,
    parse_series,
    scale,
    subtract,
    valuation,
    zero_series,
)
from .valbasis import (
    PseudoSequence,
    SpanBasis,
    check_pseudo_cauchy,
    is_valuation_independent,
    pseudo_limit,
    represent,
    term_sign,
    valuation_basis,
)
from .formulas import (
    PartialType,
    doag_qe,
    enumerate_formulas,
    eval_formula,
    format_formula,
    parse_formula,
    satisfiable,
)
from .trees import (
    DyadicInterval,
    TreeOracle,
    explicit_tree,
    find_path_bounded,
    full_tree,
    node_interval,
    path_from_real,
    real_from_path,
    seeded_tree,
    single_chain,
)
from .engine import (
    Budgets,
    CutOracle,
    GroupTranscendental,
    ImmediateTranscendental,
    RealizationResult,
    Realized,
    ResidueTranscendental,
    Side,
    classify_cut,
    complete_type,
    gap_center,
    oracle_from_value,
    realize_cut_field,
    realize_cut_group,
    realize_type,
    render_inconclusive_report,
    standard_height_enum,
)

__version__ = "0.1.0"
