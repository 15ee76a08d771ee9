"""Spans and counters around the public functions of each combnull layer.

Only the traced run installs this; end-to-end figures come from untraced
runs.  ``Tracer.install`` swaps each traced function for a wrapper in every
``combnull`` module that holds a reference to it, so calls between layers
are seen too (``combinatorics`` keeps its own reference to
``grid_weighted_sum``, for instance).  Spans are kept in flat arrays in
memory and written out at the end; scalar field operations are counted
only, because a span per scalar operation would swamp the run.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

from combnull import cli
from combnull import combinatorics as comb
from combnull import nullstellensatz as ns
from combnull.field import PrimeField, RationalField
from combnull.mpoly import MultiPoly

NS_FUNCS = ("grid_weighted_sum", "second_nonvanish", "zp_full_sum", "boolean_sum",
            "signed_two_element_sum", "lagrange_denominator")
SOLVERS = ("egz_solve", "olson_solve", "sumset", "restricted_sumset", "cauchy_davenport_check",
           "erdos_heilbronn_check", "common_roots", "chevalley_g", "regular_subgraph_find",
           "snevily_solve", "snevily_mod_n", "cycle_selection", "plane_cover_verify",
           "vandermonde_sq_coefficient", "symdiff_check")
RATIONAL_OPS = ("add", "sub", "mul", "neg", "inv", "div", "power")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [("field.prime.mul.calls", "count", "lower"), ("field.prime.power.calls", "count", "lower"),
     ("field.prime.inv.calls", "count", "lower"), ("field.rational.ops.calls", "count", "lower"),
     ("mpoly.evaluate.calls", "count", "lower"), ("mpoly.evaluate.self_s", "s", "lower"),
     ("mpoly.mul.calls", "count", "lower"), ("mpoly.mul.self_s", "s", "lower"),
     ("mpoly.mul.term_pairs", "count", "lower"), ("mpoly.pow.calls", "count", "lower"),
     ("mpoly.pow.busy_s", "s", "lower"), ("mpoly.parse_poly.self_s", "s", "lower"),
     ("mpoly.format_poly.self_s", "s", "lower")]
    + [(f"nullstellensatz.{fn}.{m}", "count" if m == "calls" else "s", "lower")
       for fn in NS_FUNCS for m in ("calls", "busy_s", "self_s")]
    + [("nullstellensatz.input_points", "count", "lower"),
       ("nullstellensatz.evals_per_point", "evals/point", "lower"),
       ("nullstellensatz.hit_ratio", "ratio", "higher")]
    + [(f"combinatorics.{fn}.{m}", "s", "lower") for fn in SOLVERS for m in ("busy_s", "self_s")]
    + [("combinatorics.common_roots.hit_ratio", "ratio", "higher"),
       ("cli.interpreter_s", "s", "lower"), ("cli.import_s", "s", "lower"),
       ("cli.run.busy_s", "s", "lower"), ("cli.run.self_s", "s", "lower"),
       ("cli.build_parser.self_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
)


def _grid_points(name, args):
    """Grid size a nullstellensatz entry point is handed."""
    if name in ("grid_weighted_sum", "second_nonvanish", "_weighted_sum_of_values"):
        return args[1].point_count()
    if name == "zp_full_sum":
        return args[0].field.p ** args[0].n_vars
    if name in ("boolean_sum", "signed_two_element_sum"):
        return 2 ** args[0].n_vars
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name, self.parent, self.instance_of = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.stack: list[int] = []
        self.instance = -1
        self.counts: dict[str, list[int]] = {}
        self.ns_depth = 0

    # ------------------------------------------------------------ recording

    def reset(self):
        for arr in (self.span_name, self.parent, self.instance_of, self.start, self.end):
            del arr[:]
        for cell in self.counts.values():
            cell[0] = 0

    def _cell(self, key):
        return self.counts.setdefault(key, [0])

    def _span(self, name, fn, after=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        short = name.split(".", 1)[1]
        in_ns = name.startswith("nullstellensatz.")
        points = self._cell("ns.input_points")

        def wrapper(*args, **kwargs):
            if in_ns:
                if not self.ns_depth:
                    points[0] += _grid_points(short, args)
                self.ns_depth += 1
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.instance_of.append(self.instance)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.start[idx] = t0
                self.stack.pop()
                if in_ns:
                    self.ns_depth -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        for cls, meth, key in ([(PrimeField, m, f"field.prime.{m}.calls") for m in ("mul", "power", "inv")]
                               + [(RationalField, m, "field.rational.ops.calls") for m in RATIONAL_OPS]):
            setattr(cls, meth, self._counted(getattr(cls, meth), self._cell(key)))

        evals = self._cell("ns.evals")
        pairs = self._cell("mpoly.mul.term_pairs")

        def count_eval(args, result):
            if self.ns_depth:
                evals[0] += 1

        def count_pairs(args, result):
            a, b = args
            pairs[0] += len(a.terms) * (len(b.terms) if isinstance(b, MultiPoly) else 1)

        MultiPoly.evaluate = self._span("mpoly.evaluate", MultiPoly.evaluate, count_eval)
        MultiPoly.__mul__ = MultiPoly.__rmul__ = self._span("mpoly.mul", MultiPoly.__mul__, count_pairs)
        MultiPoly.__pow__ = self._span("mpoly.pow", MultiPoly.__pow__)

        from combnull import mpoly
        for name in ("parse_poly", "format_poly"):
            self._replace(getattr(mpoly, name), self._span(f"mpoly.{name}", getattr(mpoly, name)))
        hits, searched = self._cell("ns.hits"), self._cell("ns.searched")

        def count_hits(args, result):
            hits[0] += len(result)
            searched[0] += args[1].point_count()

        for name in NS_FUNCS:
            after = count_hits if name == "second_nonvanish" else None
            self._replace(getattr(ns, name), self._span(f"nullstellensatz.{name}", getattr(ns, name), after))
        # vandermonde_sq_coefficient hands its grid to this private kernel
        # directly; wrap only that reference so grid_weighted_sum keeps its
        # own self time.
        comb._weighted_sum_of_values = self._span(
            "nullstellensatz._weighted_sum_of_values", comb._weighted_sum_of_values)

        roots, space = self._cell("roots"), self._cell("root_space")

        def count_roots(args, result):
            roots[0] += len(result)
            space[0] += args[0].field.p ** args[0].n_vars

        for name in SOLVERS:
            after = count_roots if name == "common_roots" else None
            self._replace(getattr(comb, name), self._span(f"combinatorics.{name}", getattr(comb, name), after))
        for name in ("run", "build_parser"):
            self._replace(getattr(cli, name), self._span(f"cli.{name}", getattr(cli, name)))

    @staticmethod
    def _counted(fn, cell):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    @staticmethod
    def _replace(orig, new):
        """Point every reference held by a combnull module at the wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "combnull" or mod_name.startswith("combnull."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, new)

    # ------------------------------------------------------------ reporting

    def count(self, key):
        return self._cell(key)[0]

    def self_check(self) -> str | None:
        """Calls between layers must be seen: one grid_weighted_sum over an
        N-point grid records exactly N evaluate calls, and the sum that
        cauchy_davenport_check makes through combinatorics' own reference to
        grid_weighted_sum is recorded as its child span."""
        from combnull.mpoly import parse_poly
        fld = PrimeField(7)
        f = parse_poly("x1^2*x2 + 3*x1 + 1", fld)
        grid = ns.Grid(fld, [[0, 1, 2], [1, 3, 4, 5]])
        self.reset()
        ns.grid_weighted_sum(f, grid)
        if self.count("ns.evals") != grid.point_count():
            return f"{self.count('ns.evals')} evaluate calls on a {grid.point_count()}-point grid"
        self.reset()
        comb.cauchy_davenport_check(fld, [0, 1, 2], [0, 3])
        spans = [(self.names[self.span_name[i]], self.parent[i]) for i in range(len(self.span_name))]
        nested = [self.names[self.span_name[p]] for name, p in spans
                  if name == "nullstellensatz.grid_weighted_sum" and p >= 0]
        self.reset()
        if nested != ["combinatorics.cauchy_davenport_check"]:
            return "the sum inside cauchy_davenport_check was not recorded as its child"
        return None

    def summary(self) -> dict[str, float]:
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls, busy, own = {}, {}, {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child[i]
        out = {key: float(cell[0]) for key, cell in self.counts.items() if key.startswith(("field.", "mpoly."))}
        for name in calls:
            out[f"{name}.calls"] = float(calls[name])
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        points = self.count("ns.input_points")
        out["nullstellensatz.input_points"] = float(points)
        out["nullstellensatz.evals_per_point"] = self.count("ns.evals") / points if points else 0.0
        searched = self.count("ns.searched")
        out["nullstellensatz.hit_ratio"] = self.count("ns.hits") / searched if searched else 0.0
        space = self.count("root_space")
        out["combinatorics.common_roots.hit_ratio"] = self.count("roots") / space if space else 0.0
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("instance\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.instance_of[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")
