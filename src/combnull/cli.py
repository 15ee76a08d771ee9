"""Command-line interface (``combnull <cmd>`` or ``python -m combnull <cmd>``).

``COMMANDS`` is the one table of the CLI: per command its handler, help line
and flags, each flag with its value type and help text.  ``build_parser``
makes every subcommand from it.  A handler reads values through ``Request``:
the flag if given, else the same key of a ``key value`` document (--input
FILE, or - for stdin), parsed by the declared type when the handler asks, so
flags and documents share one parser.  Piped stdin without --input is read as
the document only when none of the command's own flags is given, and never by
a command whose flags are all optional (selftest).

Output is one document, ``key value`` lines or JSON (--format json), the same
on every run but for time_ms.  Exit codes: 0 success, 1 no witness, 2 invalid
input or failed --check, 3 resource limit (also a result past Python's
int/str digit limit), 4 internal error (a guaranteed identity or a witness
re-check failed); ``_FAILURES`` maps exceptions to them.  A closed standard
stream changes neither: a closed stdin holds no document, and a closed
stdout or stderr, or a reader that closes the pipe early, loses its text.
Any other failure to write the answer to stdout (a full disk, an I/O error)
exits 3 with one line on stderr.

A process imports only what its command runs.  This module loads the errors
(with the grid cap), the fields and argparse, and ``run`` builds the
subparser of the command named first in argv alone (every subparser for
--help, no command or an unknown one).  Each handler imports its solver
modules from where they are defined when it runs:

- ``coeff``, ``witness`` and ``lagrange``: ``mpoly`` and ``nullstellensatz``;
- ``sumset``: ``search.sumsets``, and with the Cauchy-Davenport check also
  ``combinatorics`` and the polynomial layers;
- ``egz`` and ``olson``: ``search.zero_sums``; ``planes``: ``search.planes``;
  ``regular-subgraph``: ``search.graphs``; ``snevily``: ``search.shuffles``;
  ``symdiff``: ``search.symdiff``;
- ``cycle-labels``: ``search.cycles``, and ``combinatorics`` with the
  polynomial layers only for the even-cycle certificate of a found selection;
- ``chevalley`` and ``vandermonde``: ``combinatorics`` and the polynomial
  layers, no search family;
- ``selftest``: everything.

``json`` is imported only for --format json.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from .errors import InputError, ResourceLimit, SchemaError, TheoremViolation, resolve_max_points
from .field import FieldSpec, PrimeField, RationalField

EXIT_OK = 0
EXIT_NO_WITNESS = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_INTERNAL_ERROR = 4


# ----------------------------------------------------------------- value types
# kind(text, name, *context): name is for messages; the handler passes any
# context the parse needs (the field, the variable count)


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SchemaError(f"{what}: expected an integer, got {text!r}") from exc


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        if text.isascii() and text.isdigit():  # a third of the time of Fraction's text parser
            return Fraction(int(text))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{what}: expected a rational like 3 or 3/4, got {text!r}") from exc


_SWITCH_TEXT = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def _switch(value, what: str) -> bool:
    """True from the command line; in a document 1, true, yes or on is set and
    0, false, no or off unset, in any case."""
    if value is True:
        return True
    setting = _SWITCH_TEXT.get(value.lower())
    if setting is None:
        raise SchemaError(f"{what}: expected one of 1, true, yes, on, 0, false, no, off, got {value!r}")
    return setting


def _text(text: str, what: str) -> str:
    return text


def _parse_scalar(text: str, what: str, field: FieldSpec):
    return field.element(_parse_fraction(text, what))


def _parse_edge(text: str, what: str) -> tuple[int, int]:
    ends = text.split("-")
    if len(ends) != 2:
        raise SchemaError(f"{what}: an edge looks like 0-1, got {text!r}")
    return _parse_int(ends[0].strip(), what), _parse_int(ends[1].strip(), what)


def _parse_poly(text: str, what: str, field: FieldSpec, n_vars: int):
    from .mpoly import parse_poly

    return parse_poly(text, field, n_vars)


def _list(sep: str, item, nonempty: bool = False, lazy: bool = False):
    """The one list grammar: the text split on sep, each piece stripped and
    parsed by item(piece, what, *context).  A nonempty list refuses blank
    text.  A lazy list parses each piece as it is consumed, so that a
    consumer checking row by row (PlaneSet, CycleLabels) reports the first
    bad row."""

    def parse(text: str, what: str, *context):
        if nonempty and not text.strip():
            raise SchemaError(f"{what}: empty list")
        pieces = (item(piece.strip(), what, *context) for piece in text.split(sep))
        return pieces if lazy else list(pieces)

    return parse


def _rows(row):
    """';'-separated rows, each a tuple parsed by row as it is consumed."""
    return _list(";", lambda part, what: tuple(row(part, what)), lazy=True)


def _parse_point(text: str, what: str, field: FieldSpec) -> tuple:
    if not (text.startswith("(") and text.endswith(")")):
        raise SchemaError(f"{what}: a point looks like (0,1), got {text!r}")
    return tuple(_parse_scalar_list(text[1:-1], what, field))


_parse_int_list = _list(",", _parse_int, nonempty=True)
_parse_fraction_list = _list(",", _parse_fraction)
_parse_labels = _list(",", _text)
_parse_edges = _list(",", _parse_edge)
_parse_scalar_list = _list(",", _parse_scalar, nonempty=True)
_parse_grid_sets = _list(";", _parse_scalar_list)
_parse_point_list = _list(";", _parse_point)
_parse_polys = _list(";", _parse_poly)
# an empty piece is the empty set, so "1,2;;3" has three sets
_parse_atom_sets = _list(";", lambda part, what: _parse_int_list(part, what) if part else [])


# ------------------------------------------------------------------ value text


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
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
    #-comments skipped.  A closed stdin, an unreadable file and a byte that
    does not decode are each a SchemaError."""
    source = "stdin" if path == "-" else f"input file {path!r}"
    try:
        if path == "-":
            if sys.stdin is None:  # its descriptor was closed at startup
                raise SchemaError("cannot read stdin: it is closed")
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {source}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the whole stream is decoded in one piece, so exc.start is the
        # offset from its first byte
        bad = exc.object[exc.start]
        raise SchemaError(f"{source} is not {exc.encoding}: byte {bad:#04x} at offset {exc.start}") from exc
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


class Request:
    """One command's flags, topped up from any input document; each value is
    parsed by its declared type when the handler asks for it."""

    def __init__(self, args: argparse.Namespace, flags: dict):
        self._flags = {**_SHARED, **flags}
        self._flagged = {name: getattr(args, name.replace("-", "_")) for name in self._flags}
        self._source = args.input
        # a closed stdin (None) holds no document
        implicit = args.command not in _ALL_OPTIONAL and sys.stdin is not None and not sys.stdin.isatty()
        if self._source is None and implicit and all(self._flagged[f] is None for f in flags):
            self._source = "-"
        self._doc: dict[str, str] | None = None
        # resolved for every command, flag or environment, so a bad cap is
        # refused also where no grid reads it
        self.max_points = resolve_max_points(self.get("max-grid-points"))

    def _raw(self, name: str):
        value = self._flagged[name]
        if value is None and self._source is not None:
            if self._doc is None:
                self._doc = _read_document(self._source)
                for key in self._doc:
                    if key not in self._flags:
                        raise SchemaError(f"unknown input key {key!r}: not a flag of this command")
            value = self._doc.get(name)
        return value

    def given(self, name: str) -> bool:
        return self._raw(name) is not None

    def get(self, name: str, *context):
        """The value parsed by its type, or None if absent (False for a switch)."""
        value, kind = self._raw(name), self._flags[name][0]
        if value is None:
            return False if kind is _switch else None
        return kind(value, name, *context)

    def require(self, name: str, *context):
        if not self.given(name):
            raise SchemaError(f"missing required value {name!r} (flag --{name} or input document)")
        return self.get(name, *context)


def _field_from(req: Request) -> FieldSpec:
    if req.get("rational"):
        if req.given("p"):
            raise SchemaError("--p and --rational are mutually exclusive")
        return RationalField()
    p = req.get("p")
    if p is None:
        raise SchemaError("choose a field: --p P for Z_p or --rational")
    return PrimeField(p)


def _poly_and_grid(req: Request):
    """The polynomial and grid of coeff and witness: (MultiPoly, Grid)."""
    from .nullstellensatz import Grid

    field = _field_from(req)
    sets = req.require("sets", field)
    f = req.require("poly", field, len(sets))
    return f, Grid(field, sets)


def _checked(out: dict, ok: bool) -> tuple[dict, int]:
    """The --check answer: exit 0 for a valid claim, 2 otherwise."""
    out["check_valid"] = ok
    return out, EXIT_OK if ok else EXIT_INPUT_ERROR


# --------------------------------------------------------------- subcommands


def _cmd_coeff(req: Request) -> tuple[dict, int]:
    from .mpoly import format_poly
    from .nullstellensatz import grid_weighted_sum

    f, grid = _poly_and_grid(req)
    value = grid_weighted_sum(f, grid, req.max_points)
    target = grid.target_exponents()
    out = {
        "poly": format_poly(f),
        "sets": _fmt_sets(grid.sets),
        "target_monomial": _fmt_list(target),
        "degree_bound": grid.degree_bound(),
        "weighted_sum": value,
    }
    # a monomial e != d with e >= d coordinatewise has degree above sum(d),
    # so this covers every f of total degree at most the bound
    applies = f.is_restricted(target)
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
    from .mpoly import format_poly
    from .nullstellensatz import nonvanishing_valid, second_nonvanish

    f, grid = _poly_and_grid(req)
    out: dict = {"poly": format_poly(f), "sets": _fmt_sets(grid.sets)}
    claimed = req.get("check", grid.field)
    if claimed is not None:
        return _checked(out, nonvanishing_valid(f, grid, claimed))
    points = second_nonvanish(f, grid, req.max_points)
    out["count"] = len(points)
    out["points"] = _fmt_points(pt.value for pt in points)
    return out, EXIT_OK if points else EXIT_NO_WITNESS


def _cmd_chevalley(req: Request) -> tuple[dict, int]:
    from .combinatorics import PolySystem, chevalley_g, common_roots
    from .mpoly import format_poly
    from .nullstellensatz import _points

    p = req.require("p")
    field = PrimeField(p)
    n_vars = req.require("nvars")
    polys = req.require("polys", field, n_vars)
    system = PolySystem(field, n_vars, polys)
    cap = req.max_points
    # both caps before either computation, the root grid's first: its message
    # is the one given when both are exceeded
    _points([range(p)] * n_vars, cap)
    g = chevalley_g(system, cap)
    roots = common_roots(system, cap)
    degree_sum = system.degree_sum()
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
    from .search.sumsets import erdos_heilbronn_check, restricted_sumset, sumset

    p = req.require("p")
    field = PrimeField(p)
    a = req.require("a")
    b = req.get("b")
    check = (req.get("check") or "none").lower()
    out: dict = {"p": p, "a": _fmt_list(sorted({x % p for x in a}))}
    if b is not None:
        out["b"] = _fmt_list(sorted({x % p for x in b}))
    if check == "none":
        if b is None:
            raise SchemaError("plain sumset needs both --a and --b")
        restricted = req.get("restricted")
        result = restricted_sumset(field, a, b) if restricted else sumset(field, a, b)
        out["restricted"] = restricted
        out["result"] = _fmt_list(result)
        out["size"] = len(result)
        return out, EXIT_OK
    if check == "cauchy-davenport":
        if b is None:
            raise SchemaError("cauchy-davenport needs both --a and --b")
        from .combinatorics import cauchy_davenport_check

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
    from .search.zero_sums import egz_inputs, egz_solve, egz_valid

    p = req.require("p")
    nums = req.require("nums")
    out = {"p": p, "nums": _fmt_list(nums)}
    if req.given("check"):
        # decided by the predicate alone, after the solver's input checks
        egz_inputs(nums, p)
        return _checked(out, egz_valid(nums, p, req.get("check")))
    indices = egz_solve(nums, p)
    chosen_sum = sum(nums[i] for i in indices)
    out.update(indices=_fmt_list(indices), sum=chosen_sum, sum_mod_p=chosen_sum % p)
    return out, EXIT_OK


def _cmd_olson(req: Request) -> tuple[dict, int]:
    from .search.zero_sums import olson_inputs, olson_lower_witness, olson_solve, olson_valid

    p = req.require("p")
    k = req.require("k")
    construct = req.get("construct-lower")
    vectors = olson_lower_witness(k, p, req.max_points) if construct else list(req.require("vectors"))
    out: dict = {
        "p": p,
        "k": k,
        "count": len(vectors),
        "vectors": _fmt_points(vectors),
        "threshold": k * (p - 1) + 1,
    }
    if req.given("check"):
        # a claim is decided by the predicate alone: the solver's input
        # errors still apply, its search and state cap do not
        olson_inputs(vectors, p, k)
        return _checked(out, olson_valid(vectors, p, req.get("check")))
    if construct:
        return out, EXIT_OK
    subset = olson_solve(vectors, p, k)
    out["witness"] = None if subset is None else _fmt_list(subset)
    return out, EXIT_NO_WITNESS if subset is None else EXIT_OK


def _cmd_planes(req: Request) -> tuple[dict, int]:
    from .search.planes import PlaneSet, plane_cover_construct, plane_cover_verify

    n, cap = req.require("n"), req.max_points
    construct = req.get("construct")
    planes = plane_cover_construct(n, cap) if construct else PlaneSet(req.require("planes"))
    report = plane_cover_verify(planes, n, cap)
    if construct and not (report.covers and report.origin_free):
        raise TheoremViolation("constructed plane family failed re-validation")
    out = {
        "n": n,
        "count": len(planes),
        "planes": _fmt_points(planes.planes),
        "covers": report.covers,
        "origin_free": report.origin_free,
    }
    if not construct:
        out["missed"] = _fmt_points(report.missed)
    return out, EXIT_OK


def _cmd_cycle_labels(req: Request) -> tuple[dict, int]:
    from .search.cycles import (
        _CERTIFICATE_VERTEX_CAP,
        CycleLabels,
        cycle_selection,
        cycle_selection_valid,
    )

    labels = CycleLabels(req.require("pairs"))
    n = len(labels)
    out: dict = {"n": n, "pairs": ";".join(map(_fmt_list, labels.pairs))}  # each pair sorted
    check = req.get("check")
    if check is not None:
        return _checked(out, cycle_selection_valid(labels, check))
    selection = cycle_selection(labels, force_search=req.get("force-search"))
    out["selection"] = None if selection is None else _fmt_list(selection)
    if selection is None:
        return out, EXIT_NO_WITNESS
    if n % 2 == 0 and n <= _CERTIFICATE_VERTEX_CAP:
        from .combinatorics import cycle_selection_certificate

        out["certificate"] = cycle_selection_certificate(labels)
    return out, EXIT_OK


def _cmd_regular_subgraph(req: Request) -> tuple[dict, int]:
    from .search.graphs import Graph, regular_subgraph_find, regular_subgraph_valid

    p = req.require("p")
    n_vertices = req.require("vertices")
    graph = Graph(n_vertices, req.require("edges"))
    out: dict = {"p": p, "vertices": n_vertices, "edges": _fmt_edges(graph.edges)}
    check = req.get("check")
    if check is not None:
        return _checked(out, regular_subgraph_valid(graph, p, check))
    subset = regular_subgraph_find(graph, p, force_search=req.get("force-search"))
    out["witness"] = None if subset is None else _fmt_edges(subset)
    if subset is None:
        return out, EXIT_NO_WITNESS
    out["witness_size"] = len(subset)
    return out, EXIT_OK


def _cmd_snevily(req: Request) -> tuple[dict, int]:
    from .search.shuffles import snevily_mod_n, snevily_solve

    a = req.require("a")
    if req.given("p") == req.given("n"):
        raise SchemaError("pass exactly one of --p (odd prime form) or --n (1..k form)")
    if req.given("p"):
        modulus, b = req.get("p"), req.require("b")
        sigma = snevily_solve(a, b, modulus)
        out = {"p": modulus, "a": _fmt_list(a), "b": _fmt_list(b)}
    else:
        modulus, b = req.get("n"), range(1, len(a) + 1)
        sigma = snevily_mod_n(a, modulus, force_search=req.get("force-search"))
        out = {"n": modulus, "a": _fmt_list(a)}
        if sigma is None:
            out["sigma"] = None
            return out, EXIT_NO_WITNESS
    out["sigma"] = _fmt_list(sigma)
    out["sums"] = _fmt_list((a[i] + b[sigma[i] - 1]) % modulus for i in range(len(a)))
    out["modulus"] = modulus
    return out, EXIT_OK


def _cmd_vandermonde(req: Request) -> tuple[dict, int]:
    from .combinatorics import vandermonde_sq_coefficient

    k = req.require("k")
    verify = not req.get("closed-only")
    return {"k": k, "coefficient": vandermonde_sq_coefficient(k, verify=verify), "verified": verify}, EXIT_OK


def _cmd_symdiff(req: Request) -> tuple[dict, int]:
    from .search.symdiff import symdiff_check

    sets = req.require("sets")
    colors = req.require("colors")
    diffs = symdiff_check(sets, colors)
    n = (len(sets) - 1).bit_length() - 1
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
    from .mpoly import format_poly
    from .nullstellensatz import lagrange_interpolate, weighted_power_sum

    field = _field_from(req)
    points = req.require("points", field)
    values = req.require("values", field)
    poly = lagrange_interpolate(field, points, values)
    for x, y in zip(points, values):
        if poly.evaluate((x,)) != y:
            raise TheoremViolation("interpolant failed re-validation")
    out = {"points": _fmt_list(points), "values": _fmt_list(values), "poly": format_poly(poly)}
    m = req.get("power-sum")
    if m is not None:
        out["power_sum_m"] = m
        out["power_sum"] = weighted_power_sum(field, points, m)
    return out, EXIT_OK


def _cmd_selftest(req: Request) -> tuple[dict, int]:
    from . import selftest

    results = selftest.run_suites(req.get("suite"), inject_fault=req.get("inject-fault"))
    out: dict = {f"suite.{name}": "pass" if ok else f"FAIL {detail}" for name, ok, detail in results}
    failures = sum(not ok for _, ok, _ in results)
    out["suites_run"] = len(results)
    out["failures"] = failures
    return out, EXIT_OK if failures == 0 else 1


# --------------------------------------------------------------- the table

# flags of every command besides --input and --format, which run() reads itself
_SHARED = {"max-grid-points": (_parse_int, "override the grid enumeration cap")}
_FIELD = {
    "p": (_parse_int, "prime modulus for Z_p"),
    "rational": (_switch, "work over the rationals"),
}

# command -> (handler, help, {flag: (value type, help)})
COMMANDS = {
    "coeff": (_cmd_coeff, "coefficient of the top grid monomial via the weighted sum", {
        **_FIELD,
        "poly": (_parse_poly, "polynomial text, e.g. 2*x1^2*x2 - x3 + 5"),
        "sets": (_parse_grid_sets, "grid sets, e.g. 0,1,2;0,1"),
    }),
    "witness": (_cmd_witness, "grid points where the polynomial does not vanish", {
        **_FIELD,
        "poly": (_parse_poly, "polynomial text"),
        "sets": (_parse_grid_sets, "grid sets"),
        "check": (_parse_point_list, "verify these points instead, e.g. (1,1);(0,1)"),
    }),
    "chevalley": (_cmd_chevalley, "common roots of a system over Z_p and the divisibility guarantee", {
        "p": (_parse_int, "prime modulus"),
        "nvars": (_parse_int, "variable count"),
        "polys": (_parse_polys, "system members separated by ';'"),
    }),
    "sumset": (_cmd_sumset, "sumsets and the Cauchy-Davenport / Erdos-Heilbronn bounds", {
        "p": (_parse_int, "prime modulus"),
        "a": (_parse_int_list, "set A, e.g. 0,1,2"),
        "b": (_parse_int_list, "set B (omit for the one-set restricted form)"),
        "check": (_text, "none | cauchy-davenport | erdos-heilbronn"),
        "restricted": (_switch, "restricted sumset (x != y)"),
    }),
    "egz": (_cmd_egz, "p indices out of 2p-1 integers summing to 0 mod p", {
        "p": (_parse_int, "prime modulus"),
        "nums": (_parse_int_list, "2p-1 integers, e.g. 1,1,1,2,2"),
        "check": (_parse_int_list, "verify these indices instead"),
    }),
    "olson": (_cmd_olson, "nonempty zero-sum subset of vectors in Z_p^k", {
        "p": (_parse_int, "prime modulus"),
        "k": (_parse_int, "dimension"),
        "vectors": (_rows(_parse_int_list), "vectors, e.g. 1,0;0,1;1,1"),
        "construct-lower": (_switch, "emit the extremal zero-sum-free family instead"),
        "check": (_parse_int_list, "verify these indices instead"),
    }),
    "planes": (_cmd_planes, "plane families covering {0..n}^3 minus the origin", {
        "n": (_parse_int, "grid parameter"),
        "construct": (_switch, "emit the 3n-plane family"),
        "planes": (_rows(_parse_int_list), "planes a,b,c,d separated by ';' (verify mode)"),
    }),
    "cycle-labels": (_cmd_cycle_labels, "pick one of two labels per cycle vertex with neighbors distinct", {
        "pairs": (_rows(_parse_fraction_list), "label pairs, e.g. 1,2;3,4;1,2;3,4"),
        "force-search": (_switch, None),
        "check": (_parse_fraction_list, "verify this selection instead, e.g. 1,3,1,4"),
    }),
    "regular-subgraph": (_cmd_regular_subgraph, "nonempty p-regular edge subset of a graph", {
        "p": (_parse_int, "prime modulus"),
        "vertices": (_parse_int, "vertex count"),
        "edges": (_parse_edges, "edges, e.g. 0-1,1-2,0-2"),
        "force-search": (_switch, None),
        "check": (_parse_edges, "verify this edge subset instead"),
    }),
    "snevily": (_cmd_snevily, "permutation making pairwise sums distinct", {
        "p": (_parse_int, "odd prime (two-sequence form, needs --b)"),
        "n": (_parse_int, "modulus (adds 1..k form)"),
        "a": (_parse_int_list, "left sequence"),
        "b": (_parse_int_list, "right sequence (with --p)"),
        "force-search": (_switch, None),
    }),
    "vandermonde": (_cmd_vandermonde, "coefficient of the balanced monomial in the squared Vandermonde product", {
        "k": (_parse_int, "number of variables"),
        "closed-only": (_switch, "skip the verification paths"),
    }),
    "symdiff": (_cmd_symdiff, "distinct symmetric differences across a two-coloring of 2^n+1 sets", {
        "sets": (_parse_atom_sets, "sets of integers, ';'-separated; empty piece = empty set"),
        "colors": (_parse_labels, "one color label per set, e.g. 0,1,1"),
    }),
    "lagrange": (_cmd_lagrange, "interpolate values on distinct points (univariate)", {
        **_FIELD,
        "points": (_parse_scalar_list, "distinct sample points"),
        "values": (_parse_scalar_list, "values at the points"),
        "power-sum": (_parse_int, "also report sum of a^m / denom(A, a) for this m"),
    }),
    "selftest": (_cmd_selftest, "run the bundled invariant suites at reduced scale", {
        "suite": (_text, "run only this suite"),
        "inject-fault": (_switch, "corrupt the arithmetic core first (must fail; test hook)"),
    }),
}

# commands whose flags are all optional: with none given they still have all
# they need, so they never read a piped stdin unless given --input -; the pipe
# may be open with nothing ever written to it
_ALL_OPTIONAL = frozenset({"selftest"})


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one command named.  A
    subcommand's usage, help and errors do not depend on its siblings, so
    both parsers read a command's arguments alike and print the same text.
    An argument the subcommand does not know is reported by the top level,
    whose usage lists every command in both."""
    parser = argparse.ArgumentParser(
        prog="combnull",
        description="Exact coefficient identities on grids and their combinatorial applications.",
    )
    # the full parser lists its choices by itself; a metavar there would also
    # replace "command" in its error for a missing one
    listed = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name in COMMANDS if command is None else (command,):
        _, help_text, flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="key-value document file ('-' for stdin)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        for flag, (kind, flag_help) in {**_SHARED, **flags}.items():
            switch = {"action": "store_true", "default": None} if kind is _switch else {}
            p.add_argument(f"--{flag}", help=flag_help, **switch)
    return parser


# ------------------------------------------------------------------ running

_STATUS = {EXIT_OK: "ok", EXIT_NO_WITNESS: "no-witness", EXIT_INPUT_ERROR: "check-failed"}

# exception -> (status, exit code, name in the error key; None for its class name)
_FAILURES = {
    InputError: ("input-error", EXIT_INPUT_ERROR, None),
    ZeroDivisionError: ("input-error", EXIT_INPUT_ERROR, "DivisionByZero"),
    ResourceLimit: ("resource-limit", EXIT_RESOURCE_LIMIT, None),
    TheoremViolation: ("internal-error", EXIT_INTERNAL_ERROR, None),
}


def _render(command: str, payload: dict, status: str, fmt: str, started: float) -> str:
    doc: dict = {"command": command, "status": status, **payload}
    doc["time_ms"] = int((time.monotonic() - started) * 1000)
    try:
        if fmt == "json":
            import json

            return json.dumps(doc, sort_keys=True, default=str) + "\n"
        return "".join(f"{key} {_fmt(value)}\n" for key, value in doc.items())
    except ValueError as exc:
        # the only value that fails to print: an integer past Python's
        # int/str digit limit (sys.get_int_max_str_digits)
        raise ResourceLimit(f"result too long to print: {exc}") from exc


def _write(stream, text: str) -> OSError | None:
    """Write and flush text; the OSError that lost it, if any.  Nothing is
    written if the stream is None (its descriptor was closed at startup).  A
    stream that fails is pointed at devnull, so the flush at interpreter exit
    cannot raise again."""
    if stream is None:
        return None
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc
    return None


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command name first: its subparser alone; else (help, no command, an
    # unknown one) every command, for the top-level help and errors
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    started = time.monotonic()
    command, fmt = args.command, args.format
    handler, _, flags = COMMANDS[command]
    try:
        payload, code = handler(Request(args, flags))
        status = "fail" if command == "selftest" and code else _STATUS[code]
        text = _render(command, payload, status, fmt, started)
    except tuple(_FAILURES) as exc:
        kind = next(k for k in _FAILURES if isinstance(exc, k))
        status, code, name = _FAILURES[kind]
        internal = "internal error: " if code == EXIT_INTERNAL_ERROR else ""
        # the diagnostic is best effort; the document and exit code stand
        _write(sys.stderr, f"combnull {command}: {internal}{exc}\n")
        text = _render(command, {"error": f"{name or type(exc).__name__}: {exc}"}, status, fmt, started)
    lost = _write(sys.stdout, text)
    # a reader that closed early leaves the exit code the command's own; any
    # other failed write (a full disk, an I/O error) lost the answer
    if lost is not None and not isinstance(lost, BrokenPipeError):
        _write(sys.stderr, f"combnull {command}: cannot write output: {lost}\n")
        return EXIT_RESOURCE_LIMIT
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
