"""Command-line interface (``combnull <cmd>`` or ``python -m combnull <cmd>``).

Every subcommand reads flags, optionally topped up from a line-oriented
``key value`` document given with --input FILE or --input -.  Without
--input, piped standard input is read as the document only when no flag of
the command itself is given (--format and --max-grid-points do not count), so
a silent pipe never blocks a fully flagged call.  Each subcommand writes one
structured document to standard output: ``key value`` lines, or JSON with
--format json.  Output is deterministic except for the trailing time_ms line;
a reader that closes the pipe early does not change the exit code.  Every
solver re-checks its witness against the defining property before returning
it, and each --check calls the same predicate from combinatorics.

Exit codes: 0 success, 1 witness searched for but absent, 2 invalid input,
3 resource limit exceeded, 4 internal error (a guaranteed identity or a
witness re-check failed, which only broken arithmetic can cause).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import selftest as selftest_mod
from .combinatorics import (
    CycleLabels,
    Graph,
    PlaneSet,
    PolySystem,
    cauchy_davenport_check,
    chevalley_g,
    common_roots,
    cycle_selection,
    cycle_selection_certificate,
    cycle_selection_valid,
    egz_solve,
    egz_valid,
    erdos_heilbronn_check,
    olson_inputs,
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
from .errors import InputError, ResourceLimit, SchemaError, TheoremViolation
from .field import FieldSpec, PrimeField, RationalField
from .mpoly import MultiPoly, format_poly, parse_poly
from .nullstellensatz import (
    Grid,
    grid_weighted_sum,
    lagrange_interpolate,
    second_nonvanish,
    weighted_power_sum,
)

EXIT_OK = 0
EXIT_NO_WITNESS = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL_ERROR = 4


# ------------------------------------------------------------------ value text


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SchemaError(f"{what}: expected an integer, got {text!r}") from exc


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what}: expected a rational like 3 or 3/4, got {text!r}") from exc


def _split(text: str, sep: str) -> list[str]:
    return [piece.strip() for piece in text.split(sep)]


def _parse_int_list(text: str, what: str) -> list[int]:
    if not text.strip():
        raise SchemaError(f"{what}: empty list")
    return [_parse_int(tok, what) for tok in _split(text, ",")]


def _parse_scalar_list(text: str, field: FieldSpec, what: str) -> list:
    if not text.strip():
        raise SchemaError(f"{what}: empty list")
    return [field.element(_parse_fraction(tok, what)) for tok in _split(text, ",")]


def _parse_grid_sets(text: str, field: FieldSpec, what: str) -> list[list]:
    return [_parse_scalar_list(part, field, what) for part in _split(text, ";")]


def _parse_vectors(text: str, what: str) -> list[tuple[int, ...]]:
    return [tuple(_parse_int_list(part, what)) for part in _split(text, ";")]


def _parse_edges(text: str, what: str) -> list[tuple[int, int]]:
    out = []
    for tok in _split(text, ","):
        ends = tok.split("-")
        if len(ends) != 2:
            raise SchemaError(f"{what}: an edge looks like 0-1, got {tok!r}")
        out.append((_parse_int(ends[0], what), _parse_int(ends[1], what)))
    return out


def _parse_point_list(text: str, field: FieldSpec, what: str) -> list[tuple]:
    out = []
    for tok in _split(text, ";"):
        if not (tok.startswith("(") and tok.endswith(")")):
            raise SchemaError(f"{what}: a point looks like (0,1), got {tok!r}")
        out.append(tuple(_parse_scalar_list(tok[1:-1], field, what)))
    return out


def _parse_atom_sets(text: str, what: str) -> list[list[int]]:
    # ";"-separated sets of comma-separated integers; an empty piece is the
    # empty set, so "1,2;;3" has three sets
    out = []
    for part in text.split(";"):
        part = part.strip()
        out.append([] if not part else [_parse_int(tok, what) for tok in _split(part, ",")])
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return str(value)
    if value is None:
        return "none"
    return str(value)


def _fmt_list(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _fmt_points(points) -> str:
    return ";".join("(" + _fmt_list(pt) + ")" for pt in points)


def _fmt_sets(sets) -> str:
    return ";".join(_fmt_list(sorted(s)) for s in sets)


def _fmt_edges(edges) -> str:
    return ",".join(f"{u}-{v}" for u, v in edges)


# ------------------------------------------------------------------- plumbing


def _read_document(path: str) -> dict[str, str]:
    """key value lines from a file, or from stdin for '-'; blank lines and
    #-comments skipped."""
    if path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read input file {path!r}: {exc}") from exc
    doc: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(" ")
        if not value:
            raise SchemaError(f"input line {lineno}: expected 'key value', got {line!r}")
        doc[key.strip()] = value.strip()
    return doc


# argparse destinations shared by every command; the rest are its own flags
_COMMON_DESTS = {"command", "handler", "input", "format", "max_grid_points"}


class Request:
    """Parsed args merged with any structured input document."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self._source = args.input
        own_flags = [v for k, v in vars(args).items() if k not in _COMMON_DESTS]
        if self._source is None and not sys.stdin.isatty() and all(v is None for v in own_flags):
            self._source = "-"
        self._doc: dict[str, str] | None = None

    def get(self, name: str, default=None) -> str | None:
        value = getattr(self.args, name.replace("-", "_"), None)
        if value is None and self._source is not None:
            if self._doc is None:
                self._doc = _read_document(self._source)
            value = self._doc.get(name)
        return default if value is None else value

    def require(self, name: str) -> str:
        value = self.get(name)
        if value is None:
            raise SchemaError(f"missing required value {name!r} (flag --{name} or input document)")
        return value

    def flag(self, name: str) -> bool:
        value = self.get(name)
        if isinstance(value, bool):
            return value
        if value is None:
            return False
        return str(value).lower() in {"1", "true", "yes", "on"}


def _field_from(req: Request) -> FieldSpec:
    p = req.get("p")
    if req.flag("rational"):
        if p is not None:
            raise SchemaError("--p and --rational are mutually exclusive")
        return RationalField()
    if p is None:
        raise SchemaError("choose a field: --p P for Z_p or --rational")
    return PrimeField(_parse_int(p, "p"))


def _max_points_from(req: Request) -> int | None:
    raw = req.get("max-grid-points")
    return None if raw is None else _parse_int(raw, "max-grid-points")


def _poly_and_grid(req: Request) -> tuple[MultiPoly, Grid]:
    field = _field_from(req)
    sets = _parse_grid_sets(req.require("sets"), field, "sets")
    n_vars_raw = req.get("nvars")
    n_vars = len(sets) if n_vars_raw is None else _parse_int(n_vars_raw, "nvars")
    f = parse_poly(req.require("poly"), field, n_vars)
    grid = Grid(field, sets)
    return f, grid


def _checked(out: dict, ok: bool) -> tuple[dict, int]:
    """The --check answer: exit 0 for a valid claim, 2 otherwise."""
    out["check_valid"] = ok
    return out, EXIT_OK if ok else EXIT_INPUT_ERROR


# --------------------------------------------------------------- subcommands


def _cmd_coeff(req: Request) -> tuple[dict, int]:
    f, grid = _poly_and_grid(req)
    value = grid_weighted_sum(f, grid, _max_points_from(req))
    target = grid.target_exponents()
    out = {
        "poly": format_poly(f),
        "sets": _fmt_sets(grid.sets),
        "target_monomial": _fmt_list(target),
        "degree_bound": grid.degree_bound(),
        "weighted_sum": value,
    }
    degree = f.total_degree()
    applies = degree <= grid.degree_bound() or f.is_restricted(target)
    out["identity_applies"] = applies
    if applies:
        direct = f.coefficient_of(target)
        if direct != value:
            raise TheoremViolation(
                f"coefficient identity broken: sum {value} vs expansion {direct}"
            )
        out["coefficient"] = direct
    return out, EXIT_OK


def _cmd_witness(req: Request) -> tuple[dict, int]:
    f, grid = _poly_and_grid(req)
    points = second_nonvanish(f, grid, _max_points_from(req))
    out = {
        "poly": format_poly(f),
        "sets": _fmt_sets(grid.sets),
        "count": len(points),
        "points": _fmt_points(pt.value for pt in points),
    }
    check = req.get("check")
    if check is not None:
        claimed = set(_parse_point_list(check, grid.field, "check"))
        return _checked(out, claimed <= {pt.value for pt in points})
    if not points:
        return out, EXIT_NO_WITNESS
    return out, EXIT_OK


def _cmd_chevalley(req: Request) -> tuple[dict, int]:
    p = _parse_int(req.require("p"), "p")
    field = PrimeField(p)
    n_vars = _parse_int(req.require("nvars"), "nvars")
    polys_text = req.require("polys")
    polys = [parse_poly(part, field, n_vars) for part in _split(polys_text, ";")]
    system = PolySystem(field, n_vars, polys)
    roots = common_roots(system, _max_points_from(req))
    g = chevalley_g(system)
    degree_sum = sum(f.total_degree() for f in system.polys if f.terms)
    out = {
        "p": p,
        "nvars": n_vars,
        "polys": ";".join(format_poly(f) for f in polys),
        "g": format_poly(g),
        "degree_sum": degree_sum,
        "warning_applies": bool(degree_sum < n_vars),
        "count": len(roots),
        "roots": _fmt_points(roots),
    }
    return out, EXIT_OK


def _cmd_sumset(req: Request) -> tuple[dict, int]:
    p = _parse_int(req.require("p"), "p")
    field = PrimeField(p)
    a = _parse_int_list(req.require("a"), "a")
    b_raw = req.get("b")
    b = None if b_raw is None else _parse_int_list(b_raw, "b")
    check = (req.get("check") or "none").lower()
    out: dict = {"p": p, "a": _fmt_list(sorted({x % p for x in a}))}
    if b is not None:
        out["b"] = _fmt_list(sorted({x % p for x in b}))
    if check == "none":
        if b is None:
            raise SchemaError("plain sumset needs both --a and --b")
        result = restricted_sumset(field, a, b) if req.flag("restricted") else sumset(field, a, b)
        out["restricted"] = req.flag("restricted")
        out["result"] = _fmt_list(result)
        out["size"] = len(result)
        return out, EXIT_OK
    if check == "cauchy-davenport":
        if b is None:
            raise SchemaError("cauchy-davenport needs both --a and --b")
        report = cauchy_davenport_check(field, a, b)
    elif check == "erdos-heilbronn":
        report = erdos_heilbronn_check(field, a, b)
    else:
        raise SchemaError(f"unknown check {check!r}")
    out["kind"] = report.kind
    out["result"] = _fmt_list(report.result)
    out["size"] = len(report.result)
    out["bound"] = report.bound
    out["satisfied"] = report.satisfied
    out["certificate"] = report.certificate
    return out, EXIT_OK


def _cmd_egz(req: Request) -> tuple[dict, int]:
    p = _parse_int(req.require("p"), "p")
    nums = _parse_int_list(req.require("nums"), "nums")
    indices = egz_solve(nums, p)
    chosen_sum = sum(nums[i] for i in indices)
    out = {
        "p": p,
        "nums": _fmt_list(nums),
        "indices": _fmt_list(indices),
        "sum": chosen_sum,
        "sum_mod_p": chosen_sum % p,
    }
    check = req.get("check")
    if check is not None:
        return _checked(out, egz_valid(nums, p, _parse_int_list(check, "check")))
    return out, EXIT_OK


def _cmd_olson(req: Request) -> tuple[dict, int]:
    p = _parse_int(req.require("p"), "p")
    k = _parse_int(req.require("k"), "k")
    if req.flag("construct-lower"):
        vectors = olson_lower_witness(k, p)
        out = {
            "p": p,
            "k": k,
            "count": len(vectors),
            "vectors": _fmt_points(vectors),
            "threshold": k * (p - 1) + 1,
        }
        return out, EXIT_OK
    vectors = _parse_vectors(req.require("vectors"), "vectors")
    check = req.get("check")
    if check is None:
        subset = olson_solve(vectors, p, k)
    else:
        # a claim is decided by the predicate alone: the solver's input
        # errors still apply, its search and state cap do not
        olson_inputs(vectors, p, k)
    out = {
        "p": p,
        "k": k,
        "count": len(vectors),
        "vectors": _fmt_points(vectors),
        "threshold": k * (p - 1) + 1,
    }
    if check is not None:
        return _checked(out, olson_valid(vectors, p, _parse_int_list(check, "check")))
    if subset is None:
        out["witness"] = None
        return out, EXIT_NO_WITNESS
    out["witness"] = _fmt_list(subset)
    return out, EXIT_OK


def _cmd_planes(req: Request) -> tuple[dict, int]:
    n = _parse_int(req.require("n"), "n")
    if req.flag("construct"):
        planes = plane_cover_construct(n)
        report = plane_cover_verify(planes, n)
        if not (report.covers and report.origin_free):
            raise TheoremViolation("constructed plane family failed re-validation")
        out = {
            "n": n,
            "count": len(planes),
            "planes": _fmt_points(planes.planes),
            "covers": report.covers,
            "origin_free": report.origin_free,
        }
        return out, EXIT_OK
    planes_text = req.require("planes")
    planes = PlaneSet(tuple(_parse_int_list(part, "planes")) for part in _split(planes_text, ";"))
    report = plane_cover_verify(planes, n)
    out = {
        "n": n,
        "count": len(planes),
        "planes": _fmt_points(planes.planes),
        "covers": report.covers,
        "origin_free": report.origin_free,
        "missed": _fmt_points(report.missed),
    }
    return out, EXIT_OK


def _cmd_cycle_labels(req: Request) -> tuple[dict, int]:
    pairs_text = req.require("pairs")
    labels = CycleLabels(
        tuple(_parse_fraction(tok, "pairs") for tok in _split(part, ","))
        for part in _split(pairs_text, ";")
    )
    n = len(labels)
    out: dict = {"n": n, "pairs": _fmt_sets(labels.pairs)}
    check = req.get("check")
    if check is not None:
        claimed = [_parse_fraction(tok, "check") for tok in _split(check, ",")]
        return _checked(out, cycle_selection_valid(labels, claimed))
    selection = cycle_selection(labels, force_search=req.flag("force-search"))
    if selection is None:
        out["selection"] = None
        return out, EXIT_NO_WITNESS
    out["selection"] = _fmt_list(selection)
    if n % 2 == 0 and n <= 10:
        out["certificate"] = cycle_selection_certificate(labels)
    return out, EXIT_OK


def _cmd_regular_subgraph(req: Request) -> tuple[dict, int]:
    p = _parse_int(req.require("p"), "p")
    n_vertices = _parse_int(req.require("vertices"), "vertices")
    edges = _parse_edges(req.require("edges"), "edges")
    graph = Graph(n_vertices, edges)
    out: dict = {
        "p": p,
        "vertices": n_vertices,
        "edges": _fmt_edges(graph.edges),
    }
    check = req.get("check")
    if check is not None:
        return _checked(out, regular_subgraph_valid(graph, p, _parse_edges(check, "check")))
    subset = regular_subgraph_find(graph, p, force_search=req.flag("force-search"))
    if subset is None:
        out["witness"] = None
        return out, EXIT_NO_WITNESS
    out["witness"] = _fmt_edges(subset)
    out["witness_size"] = len(subset)
    return out, EXIT_OK


def _cmd_snevily(req: Request) -> tuple[dict, int]:
    a = _parse_int_list(req.require("a"), "a")
    p_raw, n_raw = req.get("p"), req.get("n")
    if (p_raw is None) == (n_raw is None):
        raise SchemaError("pass exactly one of --p (odd prime form) or --n (1..k form)")
    if p_raw is not None:
        p = _parse_int(p_raw, "p")
        b = _parse_int_list(req.require("b"), "b")
        sigma = snevily_solve(a, b, p)
        values = [(a[i] + b[sigma[i] - 1]) % p for i in range(len(a))]
        modulus = p
        out = {"p": p, "a": _fmt_list(a), "b": _fmt_list(b)}
    else:
        n = _parse_int(n_raw, "n")
        sigma = snevily_mod_n(a, n, force_search=req.flag("force-search"))
        out = {"n": n, "a": _fmt_list(a)}
        if sigma is None:
            out["sigma"] = None
            return out, EXIT_NO_WITNESS
        values = [(a[i] + sigma[i]) % n for i in range(len(a))]
        modulus = n
    out["sigma"] = _fmt_list(sigma)
    out["sums"] = _fmt_list(values)
    out["modulus"] = modulus
    return out, EXIT_OK


def _cmd_vandermonde(req: Request) -> tuple[dict, int]:
    k = _parse_int(req.require("k"), "k")
    verify = not req.flag("closed-only")
    value = vandermonde_sq_coefficient(k, verify=verify)
    out = {"k": k, "coefficient": value, "verified": verify}
    return out, EXIT_OK


def _cmd_symdiff(req: Request) -> tuple[dict, int]:
    sets = _parse_atom_sets(req.require("sets"), "sets")
    colors = _split(req.require("colors"), ",")
    if len(colors) != len(sets):
        raise SchemaError(f"{len(sets)} sets but {len(colors)} colors")
    diffs = symdiff_check(sets, colors)
    count = len(sets)
    n = (count - 1).bit_length() - 1
    canon = sorted(tuple(sorted(d)) for d in diffs)
    out = {
        "sets": _fmt_sets(frozenset(s) for s in sets),
        "colors": _fmt_list(colors),
        "bound": 1 << n,
        "count": len(diffs),
        "differences": _fmt_sets(canon),
    }
    return out, EXIT_OK


def _cmd_lagrange(req: Request) -> tuple[dict, int]:
    field = _field_from(req)
    points = _parse_scalar_list(req.require("points"), field, "points")
    values = _parse_scalar_list(req.require("values"), field, "values")
    poly = lagrange_interpolate(field, points, values)
    for x, y in zip(points, values):
        if poly.evaluate((x,)) != y:
            raise TheoremViolation("interpolant failed re-validation")
    out = {
        "points": _fmt_list(points),
        "values": _fmt_list(values),
        "poly": format_poly(poly),
    }
    m_raw = req.get("power-sum")
    if m_raw is not None:
        m = _parse_int(m_raw, "power-sum")
        out["power_sum_m"] = m
        out["power_sum"] = weighted_power_sum(field, points, m)
    return out, EXIT_OK


def _cmd_selftest(req: Request) -> tuple[dict, int]:
    suite = req.get("suite")
    fault = req.flag("inject-fault")
    results = selftest_mod.run_suites(suite, inject_fault=fault)
    out: dict = {}
    failures = 0
    for name, ok, detail in results:
        out[f"suite.{name}"] = ("pass" if ok else f"FAIL {detail}")
        failures += 0 if ok else 1
    out["suites_run"] = len(results)
    out["failures"] = failures
    return out, EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combnull",
        description="Exact coefficient identities on grids and their combinatorial applications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, *flags: tuple) -> None:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--input", help="key-value document file ('-' for stdin)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-grid-points", help="override the grid enumeration cap")
        for args, kwargs in flags:
            p.add_argument(*args, **kwargs)

    f = lambda *names, **kw: (names, kw)  # noqa: E731
    field_flags = [
        f("--p", help="prime modulus for Z_p"),
        f("--rational", action="store_true", default=None, help="work over the rationals"),
    ]
    add(
        "coeff", _cmd_coeff,
        "coefficient of the top grid monomial via the weighted sum",
        *field_flags,
        f("--poly", help="polynomial text, e.g. 2*x1^2*x2 - x3 + 5"),
        f("--sets", help="grid sets, e.g. 0,1,2;0,1"),
        f("--nvars", help="variable count (default: one per grid set)"),
    )
    add(
        "witness", _cmd_witness,
        "grid points where the polynomial does not vanish",
        *field_flags,
        f("--poly", help="polynomial text"),
        f("--sets", help="grid sets"),
        f("--nvars", help="variable count"),
        f("--check", help="verify these points instead, e.g. (1,1);(0,1)"),
    )
    add(
        "chevalley", _cmd_chevalley,
        "common roots of a system over Z_p and the divisibility guarantee",
        f("--p", help="prime modulus"),
        f("--nvars", help="variable count"),
        f("--polys", help="system members separated by ';'"),
    )
    add(
        "sumset", _cmd_sumset,
        "sumsets and the Cauchy-Davenport / Erdos-Heilbronn bounds",
        f("--p", help="prime modulus"),
        f("--a", help="set A, e.g. 0,1,2"),
        f("--b", help="set B (omit for the one-set restricted form)"),
        f("--check", help="none | cauchy-davenport | erdos-heilbronn"),
        f("--restricted", action="store_true", default=None, help="restricted sumset (x != y)"),
    )
    add(
        "egz", _cmd_egz,
        "p indices out of 2p-1 integers summing to 0 mod p",
        f("--p", help="prime modulus"),
        f("--nums", help="2p-1 integers, e.g. 1,1,1,2,2"),
        f("--check", help="verify these indices instead"),
    )
    add(
        "olson", _cmd_olson,
        "nonempty zero-sum subset of vectors in Z_p^k",
        f("--p", help="prime modulus"),
        f("--k", help="dimension"),
        f("--vectors", help="vectors, e.g. 1,0;0,1;1,1"),
        f("--construct-lower", action="store_true", default=None,
          help="emit the extremal zero-sum-free family instead"),
        f("--check", help="verify these indices instead"),
    )
    add(
        "planes", _cmd_planes,
        "plane families covering {0..n}^3 minus the origin",
        f("--n", help="grid parameter"),
        f("--construct", action="store_true", default=None, help="emit the 3n-plane family"),
        f("--planes", help="planes a,b,c,d separated by ';' (verify mode)"),
    )
    add(
        "cycle-labels", _cmd_cycle_labels,
        "pick one of two labels per cycle vertex with neighbors distinct",
        f("--pairs", help="label pairs, e.g. 1,2;3,4;1,2;3,4"),
        f("--force-search", action="store_true", default=None),
        f("--check", help="verify this selection instead, e.g. 1,3,1,4"),
    )
    add(
        "regular-subgraph", _cmd_regular_subgraph,
        "nonempty p-regular edge subset of a graph",
        f("--p", help="prime modulus"),
        f("--vertices", help="vertex count"),
        f("--edges", help="edges, e.g. 0-1,1-2,0-2"),
        f("--force-search", action="store_true", default=None),
        f("--check", help="verify this edge subset instead"),
    )
    add(
        "snevily", _cmd_snevily,
        "permutation making pairwise sums distinct",
        f("--p", help="odd prime (two-sequence form, needs --b)"),
        f("--n", help="modulus (adds 1..k form)"),
        f("--a", help="left sequence"),
        f("--b", help="right sequence (with --p)"),
        f("--force-search", action="store_true", default=None),
    )
    add(
        "vandermonde", _cmd_vandermonde,
        "coefficient of the balanced monomial in the squared Vandermonde product",
        f("--k", help="number of variables"),
        f("--closed-only", action="store_true", default=None, help="skip the verification paths"),
    )
    add(
        "symdiff", _cmd_symdiff,
        "distinct symmetric differences across a two-coloring of 2^n+1 sets",
        f("--sets", help="sets of integers, ';'-separated; empty piece = empty set"),
        f("--colors", help="one color label per set, e.g. 0,1,1"),
    )
    add(
        "lagrange", _cmd_lagrange,
        "interpolate values on distinct points (univariate)",
        *field_flags,
        f("--points", help="distinct sample points"),
        f("--values", help="values at the points"),
        f("--power-sum", help="also report sum of a^m / denom(A, a) for this m"),
    )
    add(
        "selftest", _cmd_selftest,
        "run the bundled invariant suites at reduced scale",
        f("--suite", help="run only this suite"),
        f("--inject-fault", action="store_true", default=None,
          help="corrupt the arithmetic core first (must fail; test hook)"),
    )
    return parser


def _emit(command: str, payload: dict, status: str, fmt: str, started: float) -> None:
    doc: dict = {"command": command, "status": status}
    doc.update(payload)
    doc["time_ms"] = int((time.monotonic() - started) * 1000)
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, default=str) + "\n"
    else:
        text = "".join(f"{key} {_fmt(value)}\n" for key, value in doc.items())
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early.  Point stdout at devnull so the flush at
        # interpreter exit cannot raise again; the exit code stays the
        # command's own.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    fmt = args.format
    command = args.command
    req = Request(args)
    try:
        payload, code = args.handler(req)
    except InputError as exc:
        print(f"combnull {command}: {exc}", file=sys.stderr)
        _emit(command, {"error": f"{type(exc).__name__}: {exc}"}, "input-error", fmt, started)
        return EXIT_INPUT_ERROR
    except ResourceLimit as exc:
        print(f"combnull {command}: {exc}", file=sys.stderr)
        _emit(command, {"error": f"{type(exc).__name__}: {exc}"}, "resource-limit", fmt, started)
        return EXIT_RESOURCE_LIMIT
    except ZeroDivisionError as exc:
        print(f"combnull {command}: {exc}", file=sys.stderr)
        _emit(command, {"error": f"DivisionByZero: {exc}"}, "input-error", fmt, started)
        return EXIT_INPUT_ERROR
    except TheoremViolation as exc:
        print(f"combnull {command}: internal error: {exc}", file=sys.stderr)
        _emit(command, {"error": f"{type(exc).__name__}: {exc}"}, "internal-error", fmt, started)
        return EXIT_INTERNAL_ERROR
    if command == "selftest":
        status = "ok" if code == EXIT_OK else "fail"
    elif code == EXIT_NO_WITNESS:
        status = "no-witness"
    elif code == EXIT_INPUT_ERROR:
        status = "check-failed"
    else:
        status = "ok"
    _emit(command, payload, status, fmt, started)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
