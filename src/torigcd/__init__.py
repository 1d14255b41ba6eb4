"""Exact gcd growth experiments over algebraic tori.

Everything is computed in exact arithmetic: univariate and sparse
multivariate polynomials over the rationals, reduced rational functions
with integer valuations at places, graded slices of two-generator ideals,
degree-level (slope) Nevanlinna quantities, Wronskian inequalities, and
closed-form slopes for exponential units with quadratic-field frequencies.

Hot polynomial kernels (heuristic integer gcd over growing evaluation
points, fraction-free rank) live in ``torigcd.kernel``.
"""

from .errors import HypothesisError, ParseError, UsageError
from .expunits import (
    BorelClass,
    BorelPartition,
    ExpUnit,
    QuadExt,
    borel_partition,
    exp_asym_ratio,
    exp_char_slope,
    exp_ngcd_slope,
    exp_slope_table,
    format_quad,
    parse_quad,
)
from .idealslice import (
    AsymptoticReport,
    BasisReport,
    BasisSlice,
    SliceConstants,
    asymptotic_check,
    build_basis_slice,
    monomial_count,
    monomials_of_degree,
    slice_constants,
    verify_basis,
    verify_sum_formulas,
)
from .multipoly import (
    MultiPoly,
    coprime_multivariate,
    dehomogenize,
    equalize_degrees,
    evaluate_poly,
    format_multipoly,
    homogenize,
    mv_exact_div,
    mv_gcd,
    substitute,
)
from .nevandeg import (
    DivisorVector,
    IndependenceCertificate,
    SlopeReport,
    SweepConfig,
    SweepResult,
    SweepRow,
    char_slope,
    divisor_vector,
    fmt_decomposition,
    gcd_slope_report,
    gcd_sweep,
    map_char_slope,
    mgcd_slope,
    mult_independent,
    ngcd_slope,
    tgcd_slope,
    tgcd_sweep,
)
from .ordering import LEX, Lex, MonomialOrder, Weight, parse_order, trailing_monomial
from .parsing import (
    infer_homogeneous_nvars,
    parse_multipoly,
    parse_place,
    parse_ratfunc,
    parse_rational,
    parse_unipoly,
)
from .ratfunc import (
    INFINITY,
    Place,
    RationalFunction,
    coprime_basis,
    divisor_exponents,
    factor_over_basis,
    format_ratfunc,
    gcd_free_places,
    place_multiplicity,
    valuation,
)
from .unipoly import (
    UniPoly,
    exact_div,
    format_unipoly,
    is_squarefree,
    uni_gcd,
    uni_gcd_list,
    uni_lcm,
)
from .wronskian import LocalCheckReport, bs_check, ordw_check, wronskian

__version__ = "0.1.0"
