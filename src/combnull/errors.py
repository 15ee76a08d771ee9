"""Exception hierarchy shared across the package.

Input problems derive from both :class:`CombnullError` and ``ValueError`` so
callers may catch either.  ``TheoremViolation`` is deliberately *not* an input
error: it fires when an unconditional identity fails, which means the
arithmetic itself is broken and the process should fail loudly.

The grid cap is here too (``resolve_max_points``, ``_check_grid_cap``): every
layer that bounds its work by it, and the CLI, which resolves it once per
request, reads it without importing a polynomial or grid layer.
"""

import os


class CombnullError(Exception):
    """Base class for every error raised by this package."""


class InputError(CombnullError, ValueError):
    """Invalid user-supplied input (maps to CLI exit code 2)."""


class NotPrime(InputError):
    """Requested prime-field modulus is composite or < 2."""


class FieldMismatch(InputError):
    """Two objects live over different fields."""


class ArityMismatch(InputError):
    """Variable counts disagree (polynomial vs. polynomial, grid or point)."""


class SizeMismatch(InputError):
    """Two parallel sequences have different lengths."""


class NotAMember(InputError):
    """An element was expected to belong to a given set and does not."""


class OutOfRange(InputError):
    """A numeric argument lies outside its documented range."""


class BadGridShape(InputError):
    """Grid does not have the shape an operation requires."""


class EmptyInput(InputError):
    """A nonempty collection was required."""


class RequiresDistinctSets(InputError):
    """Operation is only stated for two distinct sets."""


class BadLength(InputError):
    """A sequence has the wrong length for the requested operation."""


class BadInput(InputError):
    """Catch-all for malformed arguments with no more specific class."""


class HypothesisViolated(InputError):
    """Solver input lies outside the hypotheses of the underlying theorem."""


class OddCycle(HypothesisViolated):
    """Cycle selection is only guaranteed for an even number of vertices."""


class BadCount(InputError):
    """A collection has an unusable cardinality (e.g. not 2**n + 1 sets)."""


class MonochromaticInput(InputError):
    """A two-coloring was required but only one color is present."""


class SchemaError(InputError):
    """Malformed structured input (CLI flags, documents, polynomial text)."""


class ResourceLimit(CombnullError):
    """Work refused because it exceeds a configured cap (CLI exit code 3)."""


class GridTooLarge(ResourceLimit):
    """Grid point count exceeds the configured enumeration cap."""


class TheoremViolation(CombnullError):
    """An unconditional identity failed.

    This is an internal assertion, not a user error: every raise names the
    identity that broke so the failure points at the arithmetic bug.
    """


def _check_positive_int(value, name: str, error: type) -> None:
    """Raise ``error`` unless ``value`` is an int other than a bool, at least 1."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")


DEFAULT_MAX_GRID_POINTS = 1 << 24
MAX_GRID_POINTS_ENV = "COMBNULL_MAX_GRID_POINTS"


def resolve_max_points(override: int | None = None) -> int:
    """Grid-size cap: explicit argument, else environment, else default."""
    if override is not None:
        if override < 1:
            raise BadInput(f"grid point cap must be >= 1, got {override}")
        return override
    env = os.environ.get(MAX_GRID_POINTS_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError as exc:
            raise BadInput(f"{MAX_GRID_POINTS_ENV} must be an integer, got {env!r}") from exc
        if cap < 1:
            raise BadInput(f"{MAX_GRID_POINTS_ENV} must be >= 1, got {cap}")
        return cap
    return DEFAULT_MAX_GRID_POINTS


def _check_grid_cap(count: int, max_points: int | None, message: str) -> None:
    """The one comparison against the grid cap: GridTooLarge, with message
    formatted from ``count`` and ``cap``, when count exceeds it."""
    cap = resolve_max_points(max_points)
    if count > cap:
        raise GridTooLarge(message.format(count=count, cap=cap))
