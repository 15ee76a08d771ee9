"""Exact Combinatorial Nullstellensatz toolkit.

Weighted grid sums that execute the coefficient identities over Z_p and the
rationals, plus witness-producing solvers for the classical applications
(Chevalley-Warning, Cauchy-Davenport, Erdos-Heilbronn, Erdos-Ginzburg-Ziv,
zero-sum vectors, plane coverings, cycle labelings, p-regular subgraphs,
distinct-sum permutations, symmetric differences).

The public names below live in the layer modules (``errors``, ``field``,
``mpoly``, ``nullstellensatz``, the family modules of ``search``,
``combinatorics``).  ``import combnull`` loads none of them: each name is
looked up in its defining module on first access (``combnull.egz_solve``,
``from combnull import Grid``), so a process pays only for the layers it
uses.  ``from combnull import egz_solve`` compiles ``search.zero_sums``
alone, and a CLI request for ``coeff`` never compiles the solvers.
``_EXPORTS`` is also where ``combinatorics`` finds the search names it
re-exports.
"""

__version__ = "0.1.0"

# defining module -> the names it provides
_EXPORTS = {
    "errors": (
        "ArityMismatch", "BadCount", "BadGridShape", "BadInput", "BadLength",
        "CombnullError", "DEFAULT_MAX_GRID_POINTS", "EmptyInput", "FieldMismatch",
        "GridTooLarge", "HypothesisViolated", "InputError", "MAX_GRID_POINTS_ENV",
        "MonochromaticInput", "NotAMember", "NotPrime", "OddCycle", "OutOfRange",
        "RequiresDistinctSets", "ResourceLimit", "SchemaError", "SizeMismatch",
        "TheoremViolation",
    ),
    "field": ("FieldSpec", "PrimeField", "RationalField", "Scalar", "is_prime"),
    "mpoly": ("NEG_INF", "MultiPoly", "format_poly", "parse_poly", "sorted_terms"),
    "nullstellensatz": (
        "Grid", "GridPoint", "boolean_sum", "grid_weighted_sum", "lagrange_denominator",
        "lagrange_interpolate", "second_nonvanish", "signed_two_element_sum",
        "weighted_power_sum", "zp_full_sum",
    ),
    "search.sumsets": ("SumsetReport", "erdos_heilbronn_check", "restricted_sumset", "sumset"),
    "search.zero_sums": (
        "egz_inputs", "egz_solve", "egz_valid", "olson_inputs", "olson_lower_witness",
        "olson_solve", "olson_valid",
    ),
    "search.planes": ("PlaneCoverReport", "PlaneSet", "plane_cover_construct", "plane_cover_verify"),
    "search.cycles": ("CycleLabels", "cycle_selection", "cycle_selection_valid"),
    "search.graphs": (
        "Graph", "regular_subgraph_find", "regular_subgraph_inputs", "regular_subgraph_valid",
    ),
    "search.shuffles": ("snevily_mod_n", "snevily_solve"),
    "search.symdiff": ("symdiff_check",),
    "combinatorics": (
        "PolySystem", "cauchy_davenport_check", "chevalley_g", "common_roots",
        "cycle_selection_certificate", "vandermonde_sq_coefficient",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the input checks the CLI makes before a --check: combinatorics re-exports
# them with every other search name, the package does not list them
__all__ = [name for name in _HOME if not name.endswith("_inputs")]


def __getattr__(name: str):
    """A public name, from its defining module, bound here once resolved."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # here: a bare `import combnull` needs none of it

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
