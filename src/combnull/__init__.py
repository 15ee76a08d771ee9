"""Exact Combinatorial Nullstellensatz toolkit.

Weighted grid sums that execute the coefficient identities over Z_p and the
rationals, plus witness-producing solvers for the classical applications
(Chevalley-Warning, Cauchy-Davenport, Erdos-Heilbronn, Erdos-Ginzburg-Ziv,
zero-sum vectors, plane coverings, cycle labelings, p-regular subgraphs,
distinct-sum permutations, symmetric differences).
"""

from .errors import (
    ArityMismatch,
    BadCount,
    BadGridShape,
    BadInput,
    BadLength,
    CombnullError,
    EmptyInput,
    FieldMismatch,
    GridTooLarge,
    HypothesisViolated,
    InputError,
    MonochromaticInput,
    NotAMember,
    NotPrime,
    OddCycle,
    OutOfRange,
    RequiresDistinctSets,
    ResourceLimit,
    SchemaError,
    SizeMismatch,
    TheoremViolation,
)
from .field import (
    FieldSpec,
    PrimeField,
    RationalField,
    Scalar,
    is_prime,
)
from .mpoly import NEG_INF, MultiPoly, format_poly, parse_poly, sorted_terms
from .nullstellensatz import (
    DEFAULT_MAX_GRID_POINTS,
    MAX_GRID_POINTS_ENV,
    Grid,
    GridPoint,
    boolean_sum,
    grid_weighted_sum,
    lagrange_denominator,
    lagrange_interpolate,
    second_nonvanish,
    signed_two_element_sum,
    weighted_power_sum,
    zp_full_sum,
)
from .combinatorics import (
    CycleLabels,
    Graph,
    PlaneCoverReport,
    PlaneSet,
    PolySystem,
    SumsetReport,
    cauchy_davenport_check,
    chevalley_g,
    common_roots,
    cycle_selection,
    cycle_selection_certificate,
    cycle_selection_valid,
    egz_solve,
    egz_valid,
    erdos_heilbronn_check,
    olson_lower_witness,
    olson_solve,
    olson_valid,
    plane_cover_construct,
    plane_cover_verify,
    regular_subgraph_find,
    regular_subgraph_valid,
    restricted_sumset,
    snevily_mod_n,
    snevily_solve,
    sumset,
    symdiff_check,
    vandermonde_sq_coefficient,
)

__version__ = "0.1.0"
