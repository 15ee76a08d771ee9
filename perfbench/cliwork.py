"""The cli workload: one ``python -m combnull.cli`` process per request.

A pass is a fixed mix of 22 requests over all 13 solver commands at
README-example sizes, in text and JSON output, given as flags or as an
``--input -`` document, including requests whose documented result is exit
1, 2 or 3.  The seed fills in the values.  Each request knows its expected
exit code, status and key values; the key values are computed after the
timed loop straight from the library or by brute force, never through the
CLI.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import combnull
from combnull import cli

from checks import _plane_misses, _residue_sumset, _restricted
from workloads import _capped_graph, poly_text, raw_eval, weighted_sum_separable

STATUS = {0: "ok", 1: "no-witness", 3: "resource-limit"}


@dataclass
class Request:
    name: str
    argv: list[str]
    doc: str | None  # input document for --input -, None for flag form
    exit_code: int
    status: str
    expect: Callable[[], dict]  # key -> expected text value


def _fmt_list(values):
    return ",".join(str(v) for v in values)


def _fmt_points(points):
    return ";".join("(" + _fmt_list(pt) + ")" for pt in points)


def _doc(pairs: dict) -> str:
    return "".join(f"{k} {v}\n" for k, v in pairs.items())


def _form(command, values: dict, fmt: str, as_doc: bool):
    """argv and document for one request; flags with value True are switches."""
    argv = [command] + (["--format", "json"] if fmt == "json" else [])
    if as_doc:
        return argv + ["--input", "-"], _doc({k: ("true" if v is True else v) for k, v in values.items()})
    for k, v in values.items():
        argv += [f"--{k}"] if v is True else [f"--{k}", str(v)]
    return argv, None


def _lex_first(candidates, ok):
    return next((c for c in candidates if ok(c)), None)


def build_requests(seed) -> list[Request]:
    rng = random.Random(f"cli:{seed}")
    out: list[Request] = []

    def add(name, command, values, fmt, as_doc, exit_code, expect, status=None):
        argv, doc = _form(command, values, fmt, as_doc)
        out.append(Request(name, argv, doc, exit_code, status or STATUS[exit_code], expect))

    # coeff over Z_5, flags, text
    sets = [sorted(rng.sample(range(5), 3)), sorted(rng.sample(range(5), 2))]
    terms = {(rng.randint(0, 2), rng.randint(0, 1)): rng.randrange(1, 5) for _ in range(3)}
    add("coeff-zp", "coeff", {"p": 5, "poly": poly_text(terms), "sets": ";".join(map(_fmt_list, sets))},
        "text", False, 0, lambda t=terms, s=sets: {"weighted_sum": str(weighted_sum_separable(t, s, 5))})
    # coeff over Q, document, json
    qsets = [sorted(rng.sample(range(-4, 5), 3)), sorted(rng.sample(range(-4, 5), 3))]
    qterms = {(rng.randint(0, 3), rng.randint(0, 2)): Fraction(rng.randint(1, 9), rng.choice([1, 2]))
              for _ in range(3)}
    add("coeff-q", "coeff", {"rational": True, "poly": poly_text(qterms), "sets": ";".join(map(_fmt_list, qsets))},
        "json", True, 0, lambda t=qterms, s=qsets: {"weighted_sum": str(weighted_sum_separable(t, s))})
    # coeff beyond --max-grid-points: exit 3
    add("coeff-cap", "coeff", {"p": 7, "poly": "x1*x2", "sets": "0,1,2;0,1,2", "max-grid-points": rng.randint(2, 8)},
        "text", False, 3, lambda: {})
    # witness, flags, json
    wsets = [sorted(rng.sample(range(7), 3)), sorted(rng.sample(range(7), 3))]
    wterms = {(rng.randint(0, 2), rng.randint(0, 2)): rng.randrange(1, 7) for _ in range(2)}
    add("witness", "witness", {"p": 7, "poly": poly_text(wterms), "sets": ";".join(map(_fmt_list, wsets))},
        "json", False, 0, lambda t=wterms, s=wsets: {
            "count": str(sum(1 for pt in itertools.product(*s) if raw_eval(t, pt, 7)))})
    # witness with no nonvanishing point: exit 1
    a, b = rng.sample(range(7), 2)
    vterms = {(2, 0): 1, (1, 0): -(a + b) % 7, (0, 0): a * b % 7}
    add("witness-none", "witness", {"p": 7, "poly": poly_text({e: c for e, c in vterms.items() if c}),
                                    "sets": f"{min(a, b)},{max(a, b)};{rng.randrange(7)}"},
        "text", True, 1, lambda: {"count": "0"})
    # chevalley over Z_3, one quadratic in 3 variables
    cterms = {(2, 0, 0): 1, (0, 1, 1): rng.randrange(1, 3), (0, 0, 0): rng.randrange(3)}
    add("chevalley", "chevalley", {"p": 3, "nvars": 3, "polys": poly_text({e: c for e, c in cterms.items() if c})},
        "text", False, 0, lambda t=cterms: {
            "count": str(sum(1 for pt in itertools.product(range(3), repeat=3) if raw_eval(t, pt, 3) == 0))})
    # sumset with the Cauchy-Davenport check, flags, json
    sa, sb = rng.sample(range(7), 3), rng.sample(range(7), 2)
    add("sumset-cd", "sumset", {"p": 7, "a": _fmt_list(sa), "b": _fmt_list(sb), "check": "cauchy-davenport"},
        "json", False, 0, lambda: {"size": str(len(_residue_sumset(sa, sb, 7))),
                          "certificate": str(math.comb(len(sa) + len(sb) - 2, len(sa) - 1) % 7)})
    # restricted sumset, document, text
    ra, rb = rng.sample(range(11), 4), rng.sample(range(11), 4)
    add("sumset-restricted", "sumset", {"p": 11, "a": _fmt_list(ra), "b": _fmt_list(rb), "restricted": True},
        "text", True, 0, lambda: {"result": _fmt_list(_restricted(ra, rb, 11))})
    # egz, flags, text
    nums = [rng.randrange(100) for _ in range(5)]
    add("egz", "egz", {"p": 3, "nums": _fmt_list(nums)}, "text", False, 0, lambda: {
        "indices": _fmt_list(_lex_first(itertools.combinations(range(5), 3),
                                        lambda c: sum(nums[i] for i in c) % 3 == 0))})
    # egz with the wrong count of integers: exit 2
    add("egz-bad", "egz", {"p": 3, "nums": _fmt_list(rng.sample(range(100), 4))}, "json", False, 2,
        lambda: {}, status="input-error")
    # egz --check with a claim whose sum is not 0 mod 3: exit 2
    bad = [rng.randrange(100) for _ in range(5)]
    bad[2] += (1 - sum(bad[:3])) % 3
    add("egz-check", "egz", {"p": 3, "nums": _fmt_list(bad), "check": "0,1,2"}, "text", False, 2,
        lambda: {"check_valid": "false"}, status="check-failed")
    # olson at the Davenport threshold, flags, text
    vecs = [tuple(rng.randrange(3) for _ in range(2)) for _ in range(5)]
    add("olson", "olson", {"p": 3, "k": 2, "vectors": ";".join(map(_fmt_list, vecs))}, "text", False, 0, lambda: {
        "witness": _fmt_list(min(c for r in range(1, 6) for c in itertools.combinations(range(5), r)
                                 if all(sum(vecs[i][j] for i in c) % 3 == 0 for j in range(2))))})
    # olson on a zero-sum-free family: exit 1
    free = list(combnull.olson_lower_witness(2, 5))
    rng.shuffle(free)
    add("olson-none", "olson", {"p": 5, "k": 2, "vectors": ";".join(map(_fmt_list, free))}, "json", True, 1,
        lambda: {"witness": "none"})
    # planes: construct, then verify a family one plane short
    n = rng.randint(2, 4)
    add("planes-construct", "planes", {"n": n, "construct": True}, "text", False, 0,
        lambda: {"count": str(3 * n), "covers": "true"})
    short = list(combnull.plane_cover_construct(n).planes)
    short.pop(rng.randrange(len(short)))
    add("planes-verify", "planes", {"n": n, "planes": ";".join(map(_fmt_list, short))}, "json", False, 0,
        lambda: {"covers": "false", "missed": _fmt_points(_plane_misses(short, n))})
    # cycle labels, document, text
    pairs = [tuple(sorted(rng.sample(range(5), 2))) for _ in range(6)]
    add("cycle-labels", "cycle-labels", {"pairs": ";".join(map(_fmt_list, pairs))}, "text", True, 0, lambda: {
        "selection": _fmt_list(_lex_first(itertools.product(*pairs),
                                          lambda c: all(c[i] != c[(i + 1) % 6] for i in range(6)))),
        "certificate": "2"})
    # regular subgraph, flags, json
    edges = _capped_graph(rng, 5, 6, 3)

    def first_regular(edges=edges):
        for mask in range(1, 1 << len(edges)):
            degs = [0] * 5
            for j, (u, v) in enumerate(edges):
                if mask >> j & 1:
                    degs[u] += 1
                    degs[v] += 1
            if all(d in (0, 2) for d in degs):
                return {"witness": ",".join(f"{u}-{v}" for j, (u, v) in enumerate(edges) if mask >> j & 1)}

    add("regular-subgraph", "regular-subgraph", {"p": 2, "vertices": 5, "edges": ",".join(f"{u}-{v}" for u, v in edges)},
        "json", False, 0, first_regular)
    # snevily, both forms

    def first_perm(a, b, mod):
        return {"sigma": _fmt_list(_lex_first(itertools.permutations(range(1, len(a) + 1)),
                                              lambda s: len({(a[i] + b[s[i] - 1]) % mod for i in range(len(a))}) == len(a)))}

    sa7, sb7 = [rng.randrange(7) for _ in range(4)], rng.sample(range(7), 4)
    add("snevily-p", "snevily", {"p": 7, "a": _fmt_list(sa7), "b": _fmt_list(sb7)}, "text", False, 0,
        lambda: first_perm(sa7, sb7, 7))
    sn = [rng.randrange(7) for _ in range(4)]
    add("snevily-n", "snevily", {"n": 7, "a": _fmt_list(sn)}, "json", False, 0, lambda: first_perm(sn, [1, 2, 3, 4], 7))
    # vandermonde
    k = rng.randint(2, 4)
    add("vandermonde", "vandermonde", {"k": k}, "text", False, 0,
        lambda: {"coefficient": str(math.factorial(k) * (-1) ** (k * (k - 1) // 2))})
    # symdiff over 5 distinct sets, document, json
    masks = rng.sample(range(16), 5)
    colors = ["a", "b"] + [rng.choice("ab") for _ in range(3)]
    rng.shuffle(colors)
    add("symdiff", "symdiff", {"sets": ";".join(_fmt_list(i for i in range(4) if m >> i & 1) for m in masks),
                               "colors": ",".join(colors)}, "json", True, 0,
        lambda: {"count": str(len({x ^ y for x, c in zip(masks, colors) for y, d in zip(masks, colors)
                                   if c == "a" and d == "b"}))})
    # lagrange with the power-sum kernel at m = |A| - 1, which is 1
    pts = rng.sample(range(7), 3)
    add("lagrange", "lagrange", {"p": 7, "points": _fmt_list(pts), "values": _fmt_list(rng.sample(range(7), 3)),
                                 "power-sum": 2}, "text", False, 0, lambda: {"power_sum": "1"})
    return out


# -------------------------------------------------------------- running


def parse_output(text: str, as_json: bool) -> dict:
    """Output document as key -> text value, without the time_ms key."""
    if as_json:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("output is not a JSON object")
        doc = {k: ("true" if v is True else "false" if v is False else "none" if v is None else str(v))
               for k, v in doc.items()}
    else:
        doc = {}
        for line in text.splitlines():
            key, sep, value = line.partition(" ")
            if not sep:
                raise ValueError(f"not a key-value line: {line!r}")
            doc[key] = value
    doc.pop("time_ms", None)
    return doc


def normalize(req: Request, stdout: str):
    """The output document, or the reason it could not be parsed."""
    try:
        return parse_output(stdout, "json" in req.argv)
    except ValueError as exc:
        return f"unparsable output: {exc}"


def check(req: Request, code: int, doc) -> str | None:
    if code != req.exit_code:
        return f"exit {code}, expected {req.exit_code}"
    if isinstance(doc, str):
        return doc
    want = {"command": req.argv[0], "status": req.status, **req.expect()}
    wrong = {k: (doc.get(k), v) for k, v in want.items() if doc.get(k) != v}
    return f"got/expected {wrong}" if wrong else None


def child_env(src) -> dict:
    env = dict(os.environ)
    env.pop("COMBNULL_MAX_GRID_POINTS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def spawn(req: Request, env: dict, cwd, timeout: float):
    """Run one request in a fresh interpreter.

    Returns (exit code or None on timeout, stdout, peak RSS of the child in
    KiB).  The child is reaped with wait4 so its own resource usage is known.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "combnull.cli", *req.argv],
        stdin=subprocess.PIPE if req.doc is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=cwd)
    if req.doc is not None:
        proc.stdin.write(req.doc.encode())
        proc.stdin.close()
    chunks, deadline, timed_out = [], time.monotonic() + timeout, False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            if sel.select(left):
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                chunks.append(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out else proc.returncode), b"".join(chunks).decode(), usage.ru_maxrss


def run_in_process(req: Request) -> tuple[int, str]:
    """cli.run on the request with stdin, stdout and stderr redirected."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.doc or ""), io.StringIO(), io.StringIO()
    try:
        code = cli.run(req.argv)
        return code, sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
