"""Affine planes covering the cube {0..n}^3 minus the origin: the CLI's
``planes``."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from ..errors import BadInput, TheoremViolation, _check_grid_cap, _check_positive_int
from . import _Value


class PlaneSet(_Value):
    """Affine planes a*x + b*y + c*z + d = 0 with integer coefficients, as
    a tuple of (a, b, c, d) in ``planes``."""

    __slots__ = ("planes",)

    def __init__(self, planes: Iterable[Sequence[int]]):
        canon = []
        for raw in planes:
            t = tuple(raw)
            if len(t) != 4 or any(not isinstance(x, int) or isinstance(x, bool) for x in t):
                raise BadInput(f"a plane is 4 integers (a, b, c, d), got {raw!r}")
            if t[0] == 0 and t[1] == 0 and t[2] == 0:
                raise BadInput(f"degenerate plane {t}: a, b, c all zero")
            canon.append(t)
        super().__init__(tuple(canon))

    def __len__(self) -> int:
        return len(self.planes)


class PlaneCoverReport(_Value):
    __slots__ = ("covers", "origin_free", "missed")

    def __init__(self, covers: bool, origin_free: bool, missed: tuple[tuple[int, int, int], ...]):
        super().__init__(covers, origin_free, missed)


def plane_cover_construct(n: int, max_points: int | None = None) -> PlaneSet:
    """3n planes avoiding the origin and covering the rest of {0..n}^3:
    x = a, y = a, z = a for a = 1..n.  No smaller origin-free family works.
    A cube over the grid cap is refused before any plane is built."""
    _check_positive_int(n, "n", BadInput)
    _check_grid_cap((n + 1) ** 3, max_points, "cube has {count} points, cap is {cap}")
    axes = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    return PlaneSet(axis + (-a,) for axis in axes for a in range(1, n + 1))


def plane_cover_verify(
    planes: PlaneSet, n: int, max_points: int | None = None
) -> PlaneCoverReport:
    """Check coverage of {0..n}^3 minus the origin.

    The cube is one flag per point, open until a plane marks it.  Each plane
    marks its points column by column: over each (x, y) it meets the z-axis
    in at most one integer z, or, when c = 0, in the whole column or not at
    all.  The grid cap bounds that work, |planes| * (n + 1)^2 marks plus the
    (n + 1)^3 points.  ``missed`` lists the open points in grid order.

    Any origin-free family of fewer than 3n planes must miss a point; if one
    ever covered everything, that would contradict the lower bound and
    TheoremViolation is raised.
    """
    _check_positive_int(n, "n", BadInput)
    side = n + 1
    _check_grid_cap(len(planes) * side**2 + side**3, max_points,
                    "{count} plane marks and cube points exceed the cap of {cap}")
    origin_free = all(d != 0 for (_, _, _, d) in planes.planes)
    open_points = bytearray(b"\x01") * side**3
    open_points[0] = 0  # the origin is not asked for
    column = bytes(side)
    for a, b, c, d in planes.planes:
        for x, y in itertools.product(range(side), repeat=2):
            rest = a * x + b * y + d
            base = (x * side + y) * side
            if c:
                z, r = divmod(-rest, c)
                if not r and 0 <= z <= n:
                    open_points[base + z] = 0
            elif not rest:
                open_points[base:base + side] = column
    missed = list(itertools.compress(itertools.product(range(side), repeat=3), open_points))
    covers = not missed
    if origin_free and len(planes) < 3 * n and covers:
        raise TheoremViolation(
            f"plane covering lower bound violated: {len(planes)} < {3 * n} "
            "origin-free planes covered every other point"
        )
    return PlaneCoverReport(covers, origin_free, tuple(missed))
