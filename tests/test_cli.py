"""Command-line front end: flags, documents, exit codes, output shape."""

import importlib.metadata
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combnull import PrimeField, combinatorics, nullstellensatz, parse_poly
from combnull import cli as cli_mod
from combnull.cli import run
from combnull.search import shuffles

PYTHON = [sys.executable, "-m", "combnull.cli"]
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture
def cli(capsys, monkeypatch):
    """Invoke run() in-process; returns (exit code, output dict, stderr)."""

    def invoke(*args, stdin_text=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = run(list(args))
        captured = capsys.readouterr()
        doc = {}
        for line in captured.out.splitlines():
            key, _, value = line.partition(" ")
            doc[key] = value
        return code, doc, captured.err

    return invoke


# ------------------------------------------------------------------ happy paths


def test_coeff_reports_identity(cli):
    code, doc, _ = cli("coeff", "--p", "3", "--poly", "x1*x2", "--sets", "0,1;0,1")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["weighted_sum"] == "1"
    assert doc["identity_applies"] == "true"
    assert doc["coefficient"] == "1"
    assert doc["degree_bound"] == "2"


def test_coeff_rational_field(cli):
    code, doc, _ = cli(
        "coeff", "--rational", "--poly", "1/2*x1", "--sets", "0,2"
    )
    assert code == 0
    assert doc["coefficient"] == "1/2"


def test_witness_lists_nonvanishing_points(cli):
    code, doc, _ = cli("witness", "--p", "3", "--poly", "x1 + x2", "--sets", "0,1;0,1")
    assert code == 0
    assert doc["count"] == "3"
    assert doc["points"] == "(0,1);(1,0);(1,1)"


def test_witness_absent_gives_exit_one(cli):
    code, doc, _ = cli("witness", "--p", "2", "--poly", "x1^2 + x1", "--sets", "0,1")
    assert code == 1
    assert doc["status"] == "no-witness"
    assert doc["count"] == "0"


def test_chevalley_counts_roots(cli):
    code, doc, _ = cli(
        "chevalley", "--p", "3", "--nvars", "2", "--polys", "x1 + x2 + 1"
    )
    assert code == 0
    assert doc["warning_applies"] == "true"
    assert doc["count"] == "3"
    assert doc["roots"] == "(0,2);(1,1);(2,0)"


def test_sumset_cauchy_davenport_example(cli):
    code, doc, _ = cli(
        "sumset", "--p", "5", "--a", "0,1", "--b", "0,1", "--check", "cauchy-davenport"
    )
    assert code == 0
    assert doc["size"] == "3"
    assert doc["bound"] == "3"
    assert doc["satisfied"] == "true"
    assert doc["certificate"] == "2"


def test_sumset_plain_and_restricted(cli):
    code, doc, _ = cli("sumset", "--p", "5", "--a", "0,1", "--b", "0,1")
    assert code == 0
    assert doc["result"] == "0,1,2"
    code, doc, _ = cli(
        "sumset", "--p", "5", "--a", "0,1,2", "--b", "0,1,2", "--restricted"
    )
    assert doc["result"] == "1,2,3"


def test_sumset_erdos_heilbronn_self(cli):
    code, doc, _ = cli("sumset", "--p", "5", "--a", "0,1,2", "--check", "erdos-heilbronn")
    assert code == 0
    assert doc["kind"] == "erdos-heilbronn-self"
    assert doc["bound"] == "3"


def test_egz_example(cli):
    code, doc, _ = cli("egz", "--p", "3", "--nums", "0,1,2,4,5")
    assert code == 0
    assert doc["indices"] == "0,1,2"
    assert doc["sum_mod_p"] == "0"


def test_olson_no_witness_below_threshold(cli):
    code, doc, _ = cli("olson", "--p", "2", "--k", "2", "--vectors", "1,0;0,1")
    assert code == 1
    assert doc["status"] == "no-witness"
    assert doc["witness"] == "none"
    assert doc["threshold"] == "3"


def test_olson_witness_and_lower_construction(cli):
    code, doc, _ = cli("olson", "--p", "2", "--k", "2", "--vectors", "1,0;0,1;1,1")
    assert code == 0
    assert doc["witness"] == "0,1,2"
    code, doc, _ = cli("olson", "--p", "3", "--k", "1", "--construct-lower")
    assert code == 0
    assert doc["vectors"] == "(1);(1)"
    assert doc["count"] == "2"


def test_planes_construct_and_verify(cli):
    code, doc, _ = cli("planes", "--n", "2", "--construct")
    assert code == 0
    assert doc["count"] == "6"
    assert doc["covers"] == "true"
    assert doc["origin_free"] == "true"
    code, doc, _ = cli("planes", "--n", "1", "--planes", "1,0,0,-1;0,1,0,-1")
    assert code == 0
    assert doc["covers"] == "false"
    assert "(0,0,1)" in doc["missed"]


def test_cycle_labels_selection_and_certificate(cli):
    code, doc, _ = cli("cycle-labels", "--pairs", "1,2;1,2;1,2;1,2")
    assert code == 0
    assert doc["selection"] == "1,2,1,2"
    assert doc["certificate"] == "2"


def test_regular_subgraph_k4(cli):
    code, doc, _ = cli(
        "regular-subgraph", "--p", "2", "--vertices", "4",
        "--edges", "0-1,0-2,0-3,1-2,1-3,2-3",
    )
    assert code == 0
    assert doc["witness"] == "0-1,0-2,1-2"
    assert doc["witness_size"] == "3"


def test_snevily_both_forms(cli):
    code, doc, _ = cli("snevily", "--p", "5", "--a", "0,1", "--b", "1,0")
    assert code == 0
    assert doc["sigma"] == "2,1"
    assert doc["sums"] == "0,2"
    code, doc, _ = cli("snevily", "--n", "5", "--a", "0,0,0")
    assert code == 0
    assert doc["sigma"] == "1,2,3"


def test_vandermonde_example(cli):
    code, doc, _ = cli("vandermonde", "--k", "3")
    assert code == 0
    assert doc["coefficient"] == "-6"
    assert doc["verified"] == "true"
    code, doc, _ = cli("vandermonde", "--k", "8", "--closed-only")
    assert code == 0
    assert doc["coefficient"] == "40320"
    assert doc["verified"] == "false"


def test_symdiff_example(cli):
    code, doc, _ = cli("symdiff", "--sets", ";1;2", "--colors", "r,b,b")
    assert code == 0
    assert doc["bound"] == "2"
    assert doc["count"] == "2"
    assert doc["differences"] == "1;2"


def test_symdiff_length_mismatch_is_the_library_error(cli):
    code, doc, err = cli("symdiff", "--sets", ";1;2", "--colors", "r,b")
    assert (code, doc["status"], len(err.splitlines())) == (2, "input-error", 1)
    assert doc["error"] == "SizeMismatch: 3 sets but 2 colors"


def test_symdiff_past_the_work_cap_exits_three(cli):
    # 2^14 + 1 sets alternately colored: 8,192 x 8,193 pairs, past the cap
    sets = ";".join(",".join(str(i) for i in range(15) if m >> i & 1) for m in range((1 << 14) + 1))
    colors = ",".join("rb"[i % 2] for i in range((1 << 14) + 1))
    started = time.perf_counter()
    code, doc, err = cli("symdiff", "--input", "-", stdin_text=f"sets {sets}\ncolors {colors}\n")
    assert time.perf_counter() - started < 1
    assert (code, doc["status"], len(err.splitlines())) == (3, "resource-limit", 1)
    assert doc["error"].startswith("ResourceLimit: 8192 x 8193 differences over 15 elements")


def test_symdiff_past_the_answer_cap_exits_three(cli):
    # 2^9 + 1 random subsets of 40 elements: within the work cap, but their
    # distinct differences pass the answer cap
    rng = random.Random(0)
    masks = rng.sample(range(1 << 40), (1 << 9) + 1)
    sets = ";".join(",".join(str(i) for i in range(40) if m >> i & 1) for m in masks)
    colors = ",".join("rb"[i % 2] for i in range(len(masks)))
    code, doc, err = cli("symdiff", "--input", "-", stdin_text=f"sets {sets}\ncolors {colors}\n")
    assert (code, doc["status"], len(err.splitlines())) == (3, "resource-limit", 1)
    assert "past the answer cap" in doc["error"]


def test_only_selftest_imports_the_selftest_module():
    code = "import sys, combnull.cli; print('combnull.selftest' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.stdout == "False\n", out.stderr


# ------------------------------------------------------ what a process loads

_FAMILIES = ("cycles", "graphs", "planes", "shuffles", "sumsets", "symdiff", "zero_sums")
_HEAVY = ("combnull.combinatorics", "combnull.mpoly", "combnull.nullstellensatz",
          "combnull.search", *(f"combnull.search.{family}" for family in _FAMILIES),
          "combnull.selftest", "dataclasses", "json")

# imports the CLI and runs the request in argv, if any, with its document
# kept off stdout; then prints which of _HEAVY the interpreter holds
_PROBE = f"""
import io, sys, combnull.cli
if sys.argv[1:]:
    sys.stdout = io.StringIO()
    code = combnull.cli.run(sys.argv[1:])
    sys.stdout = sys.__stdout__
    assert code == 0, code
print(*[m for m in {_HEAVY!r} if m in sys.modules])
"""


def _loaded_by(argv):
    out = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True,
                         stdin=subprocess.DEVNULL, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_cli_imports_only_what_its_command_runs():
    assert _loaded_by([]) == []
    coeff = ["coeff", "--p", "3", "--poly", "x1*x2", "--sets", "0,1;0,1"]
    assert _loaded_by(coeff) == ["combnull.mpoly", "combnull.nullstellensatz"]
    egz = ["egz", "--p", "3", "--nums", "1,2,3,4,5"]
    family = ["combnull.search", "combnull.search.zero_sums"]
    assert _loaded_by(egz) == family
    assert _loaded_by(egz + ["--format", "json"]) == [*family, "json"]


def _combnull_modules_after(imports):
    code = f"import sys, {imports}; print(*sorted(m for m in sys.modules if m.startswith('combnull.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_search_imports_no_polynomial_layer():
    families = [f"combnull.search.{family}" for family in _FAMILIES]
    assert _combnull_modules_after(", ".join(families)) == [
        "combnull.errors", "combnull.field", "combnull.search", *families]


@pytest.mark.parametrize("family", _FAMILIES)
def test_each_search_family_loads_no_other_family(family):
    loaded = set(_combnull_modules_after(f"combnull.search.{family}"))
    assert loaded - {"combnull.errors", "combnull.field"} == {
        "combnull.search", f"combnull.search.{family}"}


def test_combinatorics_reexports_every_search_name():
    import combnull

    families = [importlib.import_module(f"combnull.search.{family}") for family in _FAMILIES]
    defined = [(name, family) for family in families for name, value in vars(family).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == family.__name__]
    assert len(defined) == 24  # 22 package names, egz_inputs and olson_inputs
    for name, family in defined:
        assert getattr(combinatorics, name) is getattr(family, name), name
        if name in combnull.__all__:
            assert getattr(combnull, name) is getattr(family, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        combinatorics.no_such_name


# every public name of the package, by defining module, as the package
# exported them when it imported every layer eagerly
_PUBLIC = {
    "errors": """ArityMismatch BadCount BadGridShape BadInput BadLength CombnullError
        EmptyInput FieldMismatch GridTooLarge HypothesisViolated InputError
        MonochromaticInput NotAMember NotPrime OddCycle OutOfRange RequiresDistinctSets
        ResourceLimit SchemaError SizeMismatch TheoremViolation""",
    "field": "FieldSpec PrimeField RationalField Scalar is_prime",
    "mpoly": "NEG_INF MultiPoly format_poly parse_poly sorted_terms",
    "nullstellensatz": """DEFAULT_MAX_GRID_POINTS MAX_GRID_POINTS_ENV Grid GridPoint
        boolean_sum grid_weighted_sum lagrange_denominator lagrange_interpolate
        second_nonvanish signed_two_element_sum weighted_power_sum zp_full_sum""",
    "combinatorics": """CycleLabels Graph PlaneCoverReport PlaneSet PolySystem SumsetReport
        cauchy_davenport_check chevalley_g common_roots cycle_selection
        cycle_selection_certificate cycle_selection_valid egz_solve egz_valid
        erdos_heilbronn_check olson_lower_witness olson_solve olson_valid
        plane_cover_construct plane_cover_verify regular_subgraph_find
        regular_subgraph_valid restricted_sumset snevily_mod_n snevily_solve sumset
        symdiff_check vandermonde_sq_coefficient""",
}


def test_package_names_resolve_on_first_access():
    import combnull

    public = {name: module for module, names in _PUBLIC.items() for name in names.split()}
    assert sorted(combnull.__all__) == sorted(public)
    assert set(public) <= set(dir(combnull))
    star: dict = {}
    exec("from combnull import *", star)
    for name, module in public.items():
        defined = getattr(importlib.import_module(f"combnull.{module}"), name)
        assert getattr(combnull, name) is defined, name
        assert star[name] is defined, name
    with pytest.raises(AttributeError, match="no_such_name"):
        combnull.no_such_name
    with pytest.raises(ImportError):
        exec("from combnull import no_such_name", {})
    code = "import sys, combnull; print(*sorted(m for m in sys.modules if m.startswith('combnull.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.stdout.split() in ([], ["combnull.errors"]), out.stderr


@pytest.mark.parametrize("command", ["coeff", "witness"])
def test_variable_count_is_not_a_flag(command, capsys):
    # the polynomial has one variable per grid set; --nvars could only disagree
    with pytest.raises(SystemExit) as exc:
        run([command, "--p", "3", "--poly", "x1*x2", "--sets", "0,1;0,1", "--nvars", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nvars 2" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run([command, "--help"])
    assert exc.value.code == 0
    assert "--nvars" not in capsys.readouterr().out


def test_lagrange_with_power_sum(cli):
    code, doc, _ = cli(
        "lagrange", "--p", "5", "--points", "0,1,2", "--values", "0,1,4",
        "--power-sum", "2",
    )
    assert code == 0
    assert doc["poly"] == "x1^2"
    assert doc["power_sum"] == "1"


# ------------------------------------------------------------------ re-checking


def test_witness_check_round_trip(cli):
    code, doc, _ = cli(
        "witness", "--p", "3", "--poly", "x1 + x2", "--sets", "0,1;0,1",
        "--check", "(0,1);(1,0)",
    )
    assert code == 0
    assert doc["check_valid"] == "true"
    code, doc, _ = cli(
        "witness", "--p", "3", "--poly", "x1 + x2", "--sets", "0,1;0,1",
        "--check", "(0,0)",
    )
    assert code == 2
    assert doc["status"] == "check-failed"
    assert doc["check_valid"] == "false"


def test_egz_check_round_trip(cli):
    good = cli("egz", "--p", "3", "--nums", "0,1,2,4,5", "--check", "0,1,2")
    assert good[0] == 0 and good[1]["check_valid"] == "true"
    bad = cli("egz", "--p", "3", "--nums", "0,1,2,4,5", "--check", "0,1,3")
    assert bad[0] == 2 and bad[1]["check_valid"] == "false"


def test_egz_check_skips_the_solver(cli):
    # p = 1031 is past the search's state cap; a claim needs only egz_valid
    ones = ",".join(["1"] * (2 * 1031 - 1))
    started = time.monotonic()
    code, doc, _ = cli("egz", "--p", "1031", "--nums", ones,
                       "--check", ",".join(map(str, range(1031))))
    assert time.monotonic() - started < 1.0
    assert (code, doc["check_valid"]) == (0, "true")
    assert "indices" not in doc and "sum" not in doc
    code, doc, _ = cli("egz", "--p", "1031", "--nums", ones,
                       "--check", ",".join(map(str, range(1030))))
    assert (code, doc["check_valid"]) == (2, "false")
    # the solver's input checks still apply
    assert cli("egz", "--p", "1031", "--nums", "1,1", "--check", "0")[0] == 2


def test_olson_check_round_trip(cli):
    good = cli("olson", "--p", "2", "--k", "2", "--vectors", "1,0;0,1;1,1",
               "--check", "0,1,2")
    assert good[0] == 0 and good[1]["check_valid"] == "true"
    bad = cli("olson", "--p", "2", "--k", "2", "--vectors", "1,0;0,1;1,1",
              "--check", "0,1")
    assert bad[0] == 2 and bad[1]["check_valid"] == "false"


def test_olson_check_out_of_range_index(cli):
    # an index past the end is a failed check, not a crash
    code, doc, err = cli("olson", "--p", "3", "--k", "2", "--vectors", "1,0;0,1;1,1;2,2;1,2",
                         "--check", "0,1,99")
    assert code == 2
    assert doc["status"] == "check-failed"
    assert doc["check_valid"] == "false"
    assert err == ""



def test_olson_check_skips_the_search(cli):
    # Z_3^13 is past the solver's state cap, but a claim needs no search
    units = ";".join(",".join("1" if i == j else "0" for j in range(13)) for i in range(13))
    code, doc, err = cli("olson", "--p", "3", "--k", "13", "--vectors", units, "--check", "0,1")
    assert (code, doc["status"], doc["check_valid"]) == (2, "check-failed", "false")
    assert err == ""
    code, doc, _ = cli("olson", "--p", "3", "--k", "13", "--vectors", f"{units};1{',0' * 12};1{',0' * 12}",
                       "--check", "0,13,14")
    assert (code, doc["status"], doc["check_valid"]) == (0, "ok", "true")
    code, doc, _ = cli("olson", "--p", "3", "--k", "13", "--vectors", units)
    assert (code, doc["status"]) == (3, "resource-limit")
    # the solver's input checks still apply to a claim
    for args, error in ((("--p", "4", "--k", "2", "--vectors", "1,0"), "NotPrime"),
                        (("--p", "3", "--k", "2", "--vectors", "1,0;1"), "SizeMismatch"),
                        (("--p", "3", "--k", "0", "--vectors", "1,0"), "BadInput")):
        code, doc, _ = cli("olson", *args, "--check", "0")
        assert (code, doc["status"]) == (2, "input-error")
        assert doc["error"].startswith(error)


def test_snevily_search_budget_exit_three(cli):
    # k close to p: the distinct-sum search backtracks without end in sight;
    # it stops at its budget with exit 3 instead of a RecursionError
    rng = random.Random(1)
    p, k = 1201, 1100
    a = ",".join(str(rng.randrange(p)) for _ in range(k))
    b = ",".join(map(str, rng.sample(range(p), k)))
    code, doc, err = cli("snevily", "--p", str(p), "--a", a, "--b", b)
    assert (code, doc["status"]) == (3, "resource-limit")
    assert doc["error"].startswith("ResourceLimit: distinct-sum search")
    assert len(err.splitlines()) == 1


def test_witness_check_rational_coordinates(cli):
    args = ("witness", "--rational", "--poly", "x1 + x2", "--sets", "0,1/2;0,1")
    code, doc, _ = cli(*args, "--check", "(1/2,1);(0,1)")
    assert code == 0
    assert doc["check_valid"] == "true"
    code, doc, _ = cli(*args, "--check", "(1/3,1)")
    assert code == 2
    assert doc["status"] == "check-failed"


def test_cycle_labels_long_cycle(cli):
    # 1200 vertices: deeper than the default recursion limit
    pairs = ";".join(["1,2"] * 1200)
    code, doc, _ = cli("cycle-labels", "--pairs", pairs)
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["selection"] == ",".join(["1,2"] * 600)
    assert "certificate" not in doc


def test_cycle_check_round_trip(cli):
    good = cli("cycle-labels", "--pairs", "1,2;1,2;1,2;1,2", "--check", "1,2,1,2")
    assert good[0] == 0 and good[1]["check_valid"] == "true"
    bad = cli("cycle-labels", "--pairs", "1,2;1,2;1,2;1,2", "--check", "1,1,1,2")
    assert bad[0] == 2 and bad[1]["check_valid"] == "false"


def test_regular_subgraph_check_round_trip(cli):
    args = ("regular-subgraph", "--p", "2", "--vertices", "4",
            "--edges", "0-1,0-2,0-3,1-2,1-3,2-3")
    good = cli(*args, "--check", "0-1,0-2,1-2")
    assert good[0] == 0 and good[1]["check_valid"] == "true"
    bad = cli(*args, "--check", "0-1")
    assert bad[0] == 2 and bad[1]["check_valid"] == "false"


# ------------------------------------------------------------------- exit codes


def test_input_error_exit_two(cli):
    code, doc, err = cli("egz", "--p", "4", "--nums", "0,0,0,0,0,0,0")
    assert code == 2
    assert doc["status"] == "input-error"
    assert "NotPrime" in doc["error"]
    assert "combnull egz" in err


def test_hypothesis_violations_exit_two(cli):
    code, doc, _ = cli("cycle-labels", "--pairs", "1,2;1,2;1,2")
    assert code == 2
    assert "OddCycle" in doc["error"]
    code, doc, _ = cli(
        "regular-subgraph", "--p", "3", "--vertices", "4",
        "--edges", "0-1,0-2,0-3,1-2,1-3,2-3",
    )
    assert code == 2
    assert "HypothesisViolated" in doc["error"]


def test_schema_errors_exit_two(cli):
    code, doc, _ = cli("snevily", "--p", "5", "--n", "4", "--a", "0")
    assert code == 2
    assert "SchemaError" in doc["error"]
    code, doc, _ = cli("coeff", "--poly", "x1", "--sets", "0,1")
    assert code == 2  # no field chosen
    code, doc, _ = cli("coeff", "--p", "5", "--rational", "--poly", "x1", "--sets", "0,1")
    assert code == 2  # both fields chosen
    code, doc, _ = cli("egz", "--p", "3", "--nums", "1,2,x,4,5")
    assert code == 2
    for argv in (
        ("regular-subgraph", "--p", "2", "--vertices", "3", "--edges", "0-1-2"),
        ("lagrange", "--p", "5", "--points", " ", "--values", "1"),  # an empty list
        ("witness", "--p", "5", "--poly", "x1*x2", "--sets", "0,1;0,1", "--check", "1,1"),
        ("sumset", "--p", "7", "--a", "0,1", "--check", "cauchy-davenport"),  # no --b
    ):
        code, doc, _ = cli(*argv)
        assert code == 2 and "SchemaError" in doc["error"], argv


def test_resource_limit_exit_three(cli, monkeypatch):
    monkeypatch.setenv("COMBNULL_MAX_GRID_POINTS", "4")
    code, doc, _ = cli("coeff", "--p", "3", "--poly", "x1*x2", "--sets", "0,1,2;0,1,2")
    assert code == 3
    assert doc["status"] == "resource-limit"
    assert "GridTooLarge" in doc["error"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_rational_height_budget_is_resource_limit(fmt):
    # over Q a value's bit size is bounded before anything is evaluated: 3^e
    # for e = 3*10^7 would take tens of seconds, and is refused at once
    for argv in (["coeff", "--rational", "--poly", "x1^30000000", "--sets", "2,3"],
                 ["witness", "--rational", "--poly", "x1^30000000 - 1", "--sets", "2,3"],
                 ["witness", "--rational", "--poly", "x1^30000000 - 1", "--sets", "2,3",
                  "--check", "(2)"]):
        started = time.monotonic()
        code, out, err = _run_raw(argv + ["--format", fmt])
        assert time.monotonic() - started < 0.5
        doc = _parsed(fmt, out)
        assert (code, doc["status"]) == (3, "resource-limit"), argv
        assert doc["error"].startswith("ResourceLimit: values over Q reach 60000000 bits")
        assert len(err.splitlines()) == 1


def test_internal_error_exit_four(cli, monkeypatch):
    # a solver whose witness fails its own re-check, and a CLI re-check that
    # fails, both end as status internal-error with exit 4, never exit 1
    monkeypatch.setattr(shuffles, "_distinct_sum_permutation", lambda a, b, m: (1, 1, 2))
    code, doc, err = cli("snevily", "--p", "7", "--a", "0,0,0", "--b", "1,2,3")
    assert code == 4
    assert doc["status"] == "internal-error"
    assert doc["error"].startswith("TheoremViolation: ")
    assert list(doc) == ["command", "status", "error", "time_ms"]
    assert len(err.splitlines()) == 1 and "internal error" in err

    code, doc, err = cli("snevily", "--n", "5", "--a", "0,0,0", "--format", "json")
    assert code == 4
    parsed = json.loads(" ".join(f"{k} {v}".strip() for k, v in doc.items()))
    assert parsed["status"] == "internal-error"
    assert parsed["error"].startswith("TheoremViolation: ")
    assert sorted(parsed) == ["command", "error", "status", "time_ms"]
    assert len(err.splitlines()) == 1

    fld = PrimeField(5)
    monkeypatch.setattr(nullstellensatz, "lagrange_interpolate", lambda *args: parse_poly("x1", fld, 1))
    code, doc, _ = cli("lagrange", "--p", "5", "--points", "0,1", "--values", "2,3")
    assert code == 4
    assert doc["status"] == "internal-error"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_grid_point_cap_below_one_exits_two(cli, cap):
    code, doc, _ = cli("coeff", "--p", "3", "--poly", "x1", "--sets", "0,1",
                       "--max-grid-points", cap)
    assert (code, doc["status"]) == (2, "input-error")
    assert doc["error"].startswith("BadInput: grid point cap must be >= 1")


@pytest.mark.parametrize("value, message", [
    ("abc", "must be an integer, got 'abc'"),
    ("0", "must be >= 1, got 0"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ("egz", "--p", "3", "--nums", "1,1,1,2,2"),
    ("sumset", "--p", "5", "--a", "0,1", "--b", "0,1"),
    ("symdiff", "--sets", "0;1;0,1", "--colors", "a,b,b"),
])
def test_bad_env_cap_exits_two_without_a_grid(monkeypatch, argv, fmt, value, message):
    # none of these commands enumerates a grid, yet the cap is read per request
    monkeypatch.setenv("COMBNULL_MAX_GRID_POINTS", value)
    code, out, err = _run_raw([*argv, "--format", fmt])
    assert code == 2, err
    assert len(err.splitlines()) == 1
    doc = json.loads(out) if fmt == "json" else dict(
        line.partition(" ")[::2] for line in out.splitlines())
    assert doc["status"] == "input-error"
    assert doc["error"] == f"BadInput: COMBNULL_MAX_GRID_POINTS {message}"


@pytest.mark.parametrize("args, key", [
    (("cycle-labels", "--pairs", "1,2;1,2;1,2"), "selection"),
    (("regular-subgraph", "--p", "2", "--vertices", "3", "--edges", "0-1,1-2"), "witness"),
    (("snevily", "--n", "2", "--a", "0,1"), "sigma"),
])
def test_forced_search_without_witness_exits_one(cli, args, key):
    # outside each theorem's hypotheses the search runs and finds nothing
    code, doc, _ = cli(*args, "--force-search")
    assert (code, doc["status"], doc[key]) == (1, "no-witness", "none")


def test_flag_overrides_env_cap(cli, monkeypatch):
    monkeypatch.setenv("COMBNULL_MAX_GRID_POINTS", "4")
    code, doc, _ = cli(
        "coeff", "--p", "3", "--poly", "x1*x2", "--sets", "0,1,2;0,1,2",
        "--max-grid-points", "100",
    )
    assert code == 0
    assert doc["weighted_sum"] == "0"


@pytest.mark.parametrize("args, points", [
    (("sumset", "--p", "101", "--a", ",".join(map(str, range(20))),
      "--b", ",".join(map(str, range(30, 50))), "--check", "cauchy-davenport"), 400),
    (("vandermonde", "--k", "3"), 27),
    (("lagrange", "--p", "101", "--points", ",".join(map(str, range(20))),
      "--values", ",".join(map(str, range(20))), "--power-sum", "19"), 20),
    (("cycle-labels", "--pairs", "1,2;3,4;1,2;3,4"), 16),
], ids=["cauchy-davenport", "vandermonde", "power-sum", "cycle-certificate"])
def test_flag_cap_reaches_every_certificate_grid(cli, args, points):
    # the Cauchy-Davenport certificate, the Vandermonde verification grid,
    # the power sum and the even-cycle certificate count against the flag as
    # coeff's grid does
    code, doc, _ = cli(*args, "--max-grid-points", str(points - 1))
    assert (code, doc["status"]) == (3, "resource-limit")
    assert doc["error"] == f"GridTooLarge: grid has {points} points, cap is {points - 1}"
    assert cli(*args, "--max-grid-points", str(points))[0] == 0


def test_division_by_zero_exit_two(cli):
    # Fraction coerced into Z_7 with a denominator divisible by 7
    code, doc, _ = cli("coeff", "--p", "7", "--poly", "1/7*x1", "--sets", "0,1")
    assert code == 2
    assert doc["status"] == "input-error"


# ----------------------------------------------------------- documents & stdin


def test_document_file_supplies_values(cli, tmp_path):
    doc_path = tmp_path / "req.txt"
    doc_path.write_text("# request\nk 3\n\n")
    code, doc, _ = cli("vandermonde", "--input", str(doc_path))
    assert code == 0
    assert doc["coefficient"] == "-6"


def test_flags_take_precedence_over_document(cli, tmp_path):
    doc_path = tmp_path / "req.txt"
    doc_path.write_text("k 4\n")
    code, doc, _ = cli("vandermonde", "--input", str(doc_path), "--k", "3")
    assert code == 0
    assert doc["coefficient"] == "-6"


def test_stdin_document_dash(cli):
    code, doc, _ = cli("vandermonde", "--input", "-", stdin_text="k 3\n")
    assert code == 0
    assert doc["coefficient"] == "-6"


def test_stdin_document_implicit(cli):
    # piped stdin is consulted even without --input
    code, doc, _ = cli("vandermonde", stdin_text="k 2\n")
    assert code == 0
    assert doc["coefficient"] == "-2"
    # --format and --max-grid-points are not flags of the command itself
    code, doc, _ = cli("vandermonde", "--max-grid-points", "27", stdin_text="k 3\n")
    assert code == 0
    assert doc["coefficient"] == "-6"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_misspelt_document_key_rejected(fmt):
    # a cap of 4 would exit 3; a misspelt key must not silently drop it
    document = "p 3\npoly x1*x2\nsets 0,1,2;0,1,2\nmax-grid-point 4\n"
    code, out, _ = _run_raw(["coeff", "--format", fmt, "--input", "-"], document)
    doc = _parsed(fmt, out)
    assert (code, doc["status"]) == (2, "input-error")
    assert doc["error"].startswith("SchemaError: ")
    assert "'max-grid-point'" in doc["error"]


class _UnreadableStdin(io.StringIO):
    """A piped stdin that fails the test when anything reads it."""

    def isatty(self):
        return False

    def read(self, *args):
        raise AssertionError("stdin was read although the command was given its own flags")

    readline = readlines = read


def test_flagged_command_ignores_piped_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    assert run(["egz", "--p", "3", "--nums", "1,1,1,2,2"]) == 0
    assert "indices 0,1,2" in capsys.readouterr().out


_NOT_UTF8 = b"p 3\nnums 1,2,\xff\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_document_file_not_utf8_exits_two(fmt, tmp_path):
    path = tmp_path / "req.txt"
    path.write_bytes(_NOT_UTF8)
    code, out, err = _run_raw(["egz", "--format", fmt, "--input", str(path)])
    doc = _parsed(fmt, out)
    assert (code, doc["status"], len(err.splitlines())) == (2, "input-error", 1)
    assert doc["error"] == f"SchemaError: input file {str(path)!r} is not utf-8: byte 0xff at offset 13"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stdin_document_not_utf8_exits_two(fmt):
    # strict decoding, as with PYTHONIOENCODING=utf-8; the locale's default
    # error handler may let the byte through to the value parsers instead
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
    out = subprocess.run(PYTHON + ["egz", "--format", fmt, "--input", "-"], input=_NOT_UTF8,
                         capture_output=True, env=env, timeout=60)
    doc = _parsed(fmt, out.stdout.decode())
    assert (out.returncode, doc["status"]) == (2, "input-error"), out.stderr
    assert doc["error"] == "SchemaError: stdin is not utf-8: byte 0xff at offset 13"
    assert out.stderr.decode() == "combnull egz: stdin is not utf-8: byte 0xff at offset 13\n"


def _with_closed(stream, argv):
    """A CLI process whose stdin, stdout or stderr is closed before it starts."""
    redirect = {"stdin": "<&-", "stdout": ">&-", "stderr": "2>&-"}[stream]
    return subprocess.run(["sh", "-c", f'exec "$0" -m combnull.cli "$@" {redirect}', sys.executable, *argv],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("stream", ["stdin", "stdout", "stderr"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_closed_standard_stream_keeps_the_exit_code(stream, fmt):
    for argv, code, status in ((["egz", "--p", "3", "--nums", "1,2,3,4,5"], 0, "ok"),
                               (["egz", "--p", "4", "--nums", "1,2,3"], 2, "input-error")):
        out = _with_closed(stream, argv + ["--format", fmt])
        assert out.returncode == code, out.stderr
        assert "Traceback" not in out.stdout + out.stderr
        assert "combnull egz:" not in out.stdout  # the diagnostic never joins the document
        if stream == "stdout":
            assert out.stdout == ""
        else:
            assert _parsed(fmt, out.stdout)["status"] == status
        if stream == "stderr" or code == 0:
            assert out.stderr == ""
        else:
            assert out.stderr == "combnull egz: EGZ needs a prime modulus, got 4\n"


def test_a_closed_stdin_is_no_document():
    out = _with_closed("stdin", ["egz", "--input", "-"])
    assert (out.returncode, _status(out)) == (2, "input-error"), out.stderr
    assert out.stderr == "combnull egz: cannot read stdin: it is closed\n"


def test_malformed_document_rejected(cli, tmp_path):
    doc_path = tmp_path / "req.txt"
    doc_path.write_text("k\n")
    code, doc, _ = cli("vandermonde", "--input", str(doc_path))
    assert code == 2
    assert "SchemaError" in doc["error"]
    code, doc, _ = cli("vandermonde", "--input", str(tmp_path / "absent.txt"))
    assert code == 2


# -------------------------------------------------------------------- selftest


def test_selftest_all_suites_pass(cli):
    code, doc, _ = cli("selftest")
    assert code == 0
    assert doc["status"] == "ok"
    assert doc["failures"] == "0"
    assert doc["suites_run"] == "10"
    assert all(v == "pass" for k, v in doc.items() if k.startswith("suite."))


def test_selftest_single_suite(cli):
    code, doc, _ = cli("selftest", "--suite", "fields")
    assert code == 0
    assert doc["suites_run"] == "1"
    assert doc["suite.fields"] == "pass"
    code, doc, _ = cli("selftest", "--suite", "nonsense")
    assert code == 2


def test_selftest_fault_injection_fails_loudly(cli):
    code, doc, _ = cli("selftest", "--inject-fault")
    assert code == 1
    assert doc["status"] == "fail"
    assert int(doc["failures"]) > 0
    fail_text = " ".join(v for k, v in doc.items() if k.startswith("suite."))
    assert "TheoremViolation" in fail_text
    # the report names at least one violated identity
    assert any(
        name in fail_text
        for name in ("Cauchy-Davenport", "Vandermonde", "coefficient", "kernel")
    )


# ---------------------------------------------------------------- output shape


def test_json_format(cli):
    monkey_stdout = cli("sumset", "--p", "5", "--a", "0,1", "--b", "0,1",
                        "--format", "json")
    # re-run via capsys raw: invoke returned parsed-as-text dict; reparse
    code, doc, _ = monkey_stdout
    assert code == 0
    # the single JSON line was split at the first space; reassemble
    raw = " ".join(f"{k} {v}".strip() for k, v in doc.items())
    parsed = json.loads(raw)
    assert parsed["command"] == "sumset"
    assert parsed["status"] == "ok"
    assert parsed["size"] == 3
    assert "time_ms" in parsed


def test_every_output_has_command_status_time(cli):
    code, doc, _ = cli("egz", "--p", "2", "--nums", "0,0,1")
    assert list(doc)[:2] == ["command", "status"]
    assert list(doc)[-1] == "time_ms"
    assert doc["command"] == "egz"


# ------------------------------------------------------------------ subprocess


def _declared_console_script() -> str | None:
    """The ``combnull`` target in pyproject.toml's [project.scripts], or None
    where tomllib is missing (Python < 3.11); the test then loads the target
    it knows the wrapper to use."""
    try:
        import tomllib
    except ImportError:
        return None
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["combnull"]


def test_entry_point_installed(monkeypatch):
    declared = _declared_console_script() or "combnull.cli:main"
    try:
        dist = importlib.metadata.distribution("combnull")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = dist.entry_points.select(group="console_scripts", name="combnull")
        assert [ep.value for ep in installed] == [declared]
        assert shutil.which("combnull")
    # Load the target the way the generated console-script wrapper does.
    main = importlib.metadata.EntryPoint(
        name="combnull", value=declared, group="console_scripts"
    ).load()
    monkeypatch.setattr(
        sys, "argv", ["combnull", "egz", "--p", "3", "--nums", "9,4,7,1,2"]
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0


def test_subprocess_runs_and_is_deterministic():
    # twice through the module, once through the package (python -m combnull)
    args = ["egz", "--p", "3", "--nums", "9,4,7,1,2"]
    runs = [
        subprocess.run(prefix + args, capture_output=True, text=True, stdin=subprocess.DEVNULL)
        for prefix in (PYTHON, PYTHON, [sys.executable, "-m", "combnull"])
    ]
    assert all(r.returncode == 0 for r in runs), [r.stderr for r in runs]
    stripped = [
        [ln for ln in r.stdout.splitlines() if not ln.startswith("time_ms")]
        for r in runs
    ]
    assert stripped[0] == stripped[1] == stripped[2]


def _status(result: subprocess.CompletedProcess) -> str:
    for line in result.stdout.splitlines():
        key, _, value = line.partition(" ")
        if key == "status":
            return value
    return ""


def test_subprocess_exit_codes():
    no_witness = subprocess.run(
        PYTHON + ["olson", "--p", "2", "--k", "2", "--vectors", "1,0;0,1"],
        capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    assert no_witness.returncode == 1, no_witness.stderr
    assert _status(no_witness) == "no-witness", no_witness.stderr
    bad_input = subprocess.run(
        PYTHON + ["vandermonde", "--k", "0"],
        capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    assert bad_input.returncode == 2, bad_input.stderr
    assert _status(bad_input) == "input-error", bad_input.stderr
    assert bad_input.stderr.strip()
    # Keep PYTHONPATH and the rest of the parent's env; the cap comes from
    # the environment only.
    env = {k: v for k, v in os.environ.items() if not k.startswith("COMBNULL_")}
    env["COMBNULL_MAX_GRID_POINTS"] = "4"
    capped = subprocess.run(
        PYTHON + ["coeff", "--p", "3", "--poly", "x1*x2", "--sets", "0,1,2;0,1,2"],
        capture_output=True, text=True, stdin=subprocess.DEVNULL, env=env,
    )
    assert capped.returncode == 3, capped.stderr
    assert _status(capped) == "resource-limit", capped.stderr
    assert "GridTooLarge" in capped.stdout, capped.stderr


def test_silent_stdin_pipe_does_not_block():
    # stdin stays open and silent: a fully flagged call must not wait for it
    proc = subprocess.Popen(
        PYTHON + ["egz", "--p", "3", "--nums", "1,1,1,2,2"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        pytest.fail("the command blocked on an open, silent stdin pipe")
    finally:
        proc.stdin.close()
    out, err = proc.stdout.read(), proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    assert code == 0, err
    assert "indices 0,1,2" in out


def test_selftest_ignores_an_open_silent_pipe():
    # every selftest flag is optional, so no flag given is no sign of a
    # document on stdin; the pipe stays open and nobody writes to it
    proc = subprocess.Popen(
        [sys.executable, "-m", "combnull", "selftest"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        pytest.fail("selftest blocked on an open, silent stdin pipe")
    finally:
        proc.stdin.close()
    out, err = proc.stdout.read(), proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    assert code == 0, err
    assert "failures 0" in out


def test_selftest_reads_stdin_only_with_input_dash(cli, monkeypatch):
    code, doc, _ = cli("selftest", "--input", "-", stdin_text="suite graphs\n")
    assert (code, doc["suites_run"], doc["suite.graphs"]) == (0, "1", "pass")
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    assert run(["selftest"]) == 0


def test_reader_closing_early_keeps_exit_code():
    # about 450 kB of output, far more than a pipe buffers, so writes after
    # the reader has gone must fail with a broken pipe
    sets = ";".join([",".join(map(str, range(211)))] * 2)
    proc = subprocess.Popen(
        PYTHON + ["witness", "--p", "211", "--poly", "1", "--sets", sets],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert head == b"command wi"
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failed_write_of_the_answer_exits_three(fmt):
    # every write to /dev/full fails with ENOSPC: the answer is lost, which is
    # a resource limit, not the command's own code, and gives no traceback
    for argv, diagnostics in ((["egz", "--p", "3", "--nums", "1,2,3,4,5"], []),
                              (["egz", "--p", "4", "--nums", "1,2,3"],
                               ["combnull egz: EGZ needs a prime modulus, got 4"])):
        with open("/dev/full", "w") as full:
            out = subprocess.run(PYTHON + argv + ["--format", fmt], stdin=subprocess.DEVNULL,
                                 stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        assert out.returncode == 3, out.stderr
        *first, last = out.stderr.splitlines()
        assert first == diagnostics
        assert last.startswith("combnull egz: cannot write output: [Errno 28]")


# ------------------------------------------------------- witness --check, limits


def test_witness_check_decides_without_enumerating(cli):
    # 101^4 points is past the grid cap; a claim is decided at its own points
    sets = ";".join([",".join(map(str, range(101)))] * 3 + [",".join(map(str, range(100)))])
    args = ("witness", "--p", "101", "--poly", "x1*x2 + x3 + x4 + 1", "--sets", sets)
    started = time.monotonic()
    code, doc, err = cli(*args, "--check", "(1,2,3,4)")
    assert time.monotonic() - started < 1.0
    assert (code, doc["status"], doc["check_valid"], err) == (0, "ok", "true", "")
    assert "count" not in doc and "points" not in doc
    for claim in ("(1,2,3,4);(0,0,0,100)",  # off the grid: 100 is not in the last set
                  "(1,2,3)",                 # wrong arity
                  "(0,0,99,1)"):             # a zero of f: 0 + 99 + 1 + 1 = 0 mod 101
        code, doc, _ = cli(*args, "--check", claim)
        assert (code, doc["status"], doc["check_valid"]) == (2, "check-failed", "false"), claim


_HUGE_PRIME = str((1 << 61) - 1)


@pytest.mark.parametrize("args", [
    ("coeff", "--p", _HUGE_PRIME, "--poly", "x1", "--sets", "0,1"),  # past 2^31
    ("egz", "--p", _HUGE_PRIME, "--nums", "1"),                       # not 2p - 1 numbers
    ("snevily", "--p", _HUGE_PRIME, "--a", "1,2", "--b", "1,1"),      # b repeats
])
def test_huge_prime_modulus_is_input_error(cli, args):
    started = time.monotonic()
    code, doc, err = cli(*args)
    assert time.monotonic() - started < 1.0
    assert (code, doc["status"], len(err.splitlines())) == (2, "input-error", 1)


def test_zero_sum_and_plane_work_bounds_exit_three(cli):
    started = time.monotonic()
    # EGZ shares the 2^20-state cap of the zero-sum search, so p <= 1021
    code, doc, err = cli("egz", "--p", "1031", "--nums", ",".join(["1"] * (2 * 1031 - 1)))
    assert (code, doc["status"], len(err.splitlines())) == (3, "resource-limit", 1)
    # 483 planes mark 162^2 columns each, plus the 162^3 points: 16,927,380,
    # over the default cap of 2^24
    code, doc, err = cli("planes", "--n", "161", "--construct")
    assert (code, doc["status"], len(err.splitlines())) == (3, "resource-limit", 1)
    assert "GridTooLarge" in doc["error"]
    code, doc, _ = cli("planes", "--n", "10000000", "--construct")
    assert (code, doc["status"]) == (3, "resource-limit")
    assert time.monotonic() - started < 1.0
    # 9 planes times 4^2 columns plus 4^3 points is 208
    assert cli("planes", "--n", "3", "--construct", "--max-grid-points", "208")[0] == 0
    assert cli("planes", "--n", "3", "--construct", "--max-grid-points", "207")[0] == 3
    assert cli("planes", "--n", "1", "--planes", "1,0,0,-1", "--max-grid-points", "7")[0] == 3


def test_planes_construct_counts_marks_not_point_plane_pairs(cli):
    # 180 planes * 61^2 marks + 61^3 points = 896,761, under the default cap
    code, doc, _ = cli("planes", "--n", "60", "--construct")
    assert (code, doc["count"], doc["covers"]) == (0, "180", "true")
    # a cube over the cap is refused by the construction, before any plane is built
    code, doc, _ = cli("planes", "--n", "3", "--construct", "--max-grid-points", "63")
    assert (code, doc["error"]) == (3, "GridTooLarge: cube has 64 points, cap is 63")


def test_olson_construct_lower_counts_against_the_grid_cap(cli):
    started = time.monotonic()
    for p, k in (("1000000007", "1"), ("3", "30000")):
        code, doc, err = cli("olson", "--p", p, "--k", k, "--construct-lower")
        assert (code, doc["status"], len(err.splitlines())) == (3, "resource-limit", 1)
        assert "GridTooLarge" in doc["error"]
    assert time.monotonic() - started < 1.0
    # k = 2, p = 3: four vectors of length 2 are 8 entries
    args = ("olson", "--p", "3", "--k", "2", "--construct-lower", "--max-grid-points")
    assert cli(*args, "8")[0] == 0
    assert cli(*args, "7")[0] == 3


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_olson_construct_lower_decides_a_claim_on_the_family(fmt):
    # the family is zero-sum free, so every claim on it fails
    code, out, err = _run_raw(["olson", "--p", "3", "--k", "2", "--construct-lower",
                               "--check", "0", "--format", fmt])
    doc = _parsed(fmt, out)
    assert (code, doc["status"], err) == (2, "check-failed", "")
    assert doc["check_valid"] in (False, "false")
    assert doc["vectors"] == "(1,0);(1,0);(0,1);(0,1)"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_vandermonde_past_the_digit_limit_exits_three_before_computing(cli):
    started = time.monotonic()
    for args in (("--k", "20000000", "--closed-only"), ("--k", "2000", "--closed-only"),
                 ("--k", "20000000")):
        code, doc, err = cli("vandermonde", *args)
        assert (code, doc["status"], len(err.splitlines())) == (3, "resource-limit", 1), args
        assert doc["error"].startswith("ResourceLimit: ")
    assert time.monotonic() - started < 1.0


def test_chevalley_g_bound_exits_three(cli):
    args = ("chevalley", "--p", "31", "--nvars", "3", "--polys", "x1^2+x2^2+x3^2+x1*x2+x2*x3+x1+x3+1")
    started = time.monotonic()
    # 31^3 = 29,791 grid points fit under 30,000, but g ranges over 61^3
    code, doc, err = cli(*args, "--max-grid-points", "30000")
    assert (code, doc["status"], len(err.splitlines())) == (3, "resource-limit", 1)
    assert "226981" in doc["error"]
    assert cli(*args, "--max-grid-points", "1000")[0] == 3
    assert time.monotonic() - started < 1.0
    code, doc, _ = cli(*args)
    assert (code, doc["count"]) == (0, "961")
    # f^30 has 38,145 terms; its constant term is 1, which g = f^30 - 1 drops
    assert len(doc["g"].split(" + ")) == 38144


def test_chevalley_g_range_refused_before_the_root_scan(cli, monkeypatch):
    # 13^6 = 4,826,809 grid points fit the default cap, but g ranges over
    # 25^6 = 244,140,625 exponent vectors: exit 3 before any root is sought.
    # Past both caps (13^7 points) the grid's message comes first, as before.
    monkeypatch.delenv("COMBNULL_MAX_GRID_POINTS", raising=False)
    monkeypatch.setattr(combinatorics, "common_roots", lambda *a: pytest.fail("roots were searched"))
    squares = "+".join(f"x{i}^2" for i in range(1, 7))
    started = time.monotonic()
    code, doc, err = cli("chevalley", "--p", "13", "--nvars", "6", "--polys", squares)
    assert (code, doc["status"], len(err.splitlines())) == (3, "resource-limit", 1)
    assert doc["error"] == "GridTooLarge: g ranges over 244140625 exponent vectors, cap is 16777216"
    code, doc, _ = cli("chevalley", "--p", "13", "--nvars", "7", "--polys", squares)
    assert (code, doc["error"]) == (3, "GridTooLarge: grid has 62748517 points, cap is 16777216")
    assert time.monotonic() - started < 2.0


def _run_raw(argv, stdin_text=""):
    """run() in-process with its standard streams redirected; returns
    (exit code, stdout, stderr).  Usable inside hypothesis tests, which
    cannot take function-scoped fixtures."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = run(list(argv))
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def _flag_args(command, values):
    # a switch takes no value on the command line
    flags = cli_mod.COMMANDS[command][2]
    return [f"--{k}" if k in flags and flags[k][0] is cli_mod._switch else f"--{k}={v}"
            for k, v in values.items()]


def _document(values):
    return "".join(f"{k} {'true' if v is True else v}\n" for k, v in values.items())


def _parsed(fmt, out):
    if fmt == "json":
        return json.loads(out)
    return dict(line.split(" ", 1) for line in out.splitlines())


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_digit_limit_literal_is_input_error(fmt):
    huge = "1" * 5000
    for argv in (["coeff", "--p", "7", "--poly", f"{huge}*x1", "--sets", "0,1"],
                 ["coeff", "--p", "7", "--poly", f"x1^{huge}", "--sets", "0,1"]):
        code, out, err = _run_raw(argv + ["--format", fmt])
        doc = _parsed(fmt, out)
        assert (code, doc["status"]) == (2, "input-error")
        assert doc["error"].startswith("SchemaError: number too long")
        assert len(err.splitlines()) == 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_digit_limit_result_is_resource_limit(fmt):
    # the sum is computed in milliseconds but has about 30,000 digits; a
    # product of two 3000-digit literals is a coefficient too long to print
    big = "7" * 3000
    for argv in (["coeff", "--rational", "--poly", "x1^100000", "--sets", "0,1/2"],
                 ["coeff", "--rational", "--poly", f"{big}*{big}*x1", "--sets", "0,1"]):
        code, out, err = _run_raw(argv + ["--format", fmt])
        doc = _parsed(fmt, out)
        assert (code, doc["status"]) == (3, "resource-limit")
        assert doc["error"].startswith("ResourceLimit: ")
        assert "too long to print" in doc["error"]
        assert len(err.splitlines()) == 1


# ------------------------------------------------------ one parser, two forms

# one valid request per command, switches given as True
_EXAMPLES = {
    "coeff": {"p": "3", "poly": "x1*x2", "sets": "0,1;0,1"},
    "witness": {"rational": True, "poly": "x1 + x2", "sets": "0,1/2;0,1"},
    "chevalley": {"p": "3", "nvars": "2", "polys": "x1 + x2 + 1"},
    "sumset": {"p": "5", "a": "0,1,2", "b": "0,1,2", "restricted": True},
    "egz": {"p": "3", "nums": "0,1,2,4,5", "check": "0,1,2"},
    "olson": {"p": "2", "k": "2", "vectors": "1,0;0,1;1,1"},
    "planes": {"n": "2", "construct": True},
    "cycle-labels": {"pairs": "1,2;3,4;1,2;3,4", "force-search": True},
    "regular-subgraph": {"p": "2", "vertices": "4", "edges": "0-1,0-2,0-3,1-2,1-3,2-3"},
    "snevily": {"n": "7", "a": "0,0,1"},
    "vandermonde": {"k": "3", "closed-only": True},
    "symdiff": {"sets": "0;1;0,1", "colors": "a,b,b"},
    "lagrange": {"p": "5", "points": "0,1,2", "values": "1,2,3", "power-sum": "2"},
    "selftest": {"suite": "fields"},
}


def test_examples_cover_every_command():
    assert sorted(_EXAMPLES) == sorted(cli_mod.COMMANDS)


# the solver layers each example of _EXAMPLES compiles: the grid commands the
# polynomial layers, a search its own family of the search package, and a
# polynomial certificate (chevalley, vandermonde) combinatorics with the
# polynomial layers and the package, but no family
_GRID = {"combnull.mpoly", "combnull.nullstellensatz"}
_POLY = _GRID | {"combnull.combinatorics", "combnull.search"}
_ALL_LAYERS = _POLY | {f"combnull.search.{family}" for family in _FAMILIES}


def _family(name):
    return {"combnull.search", f"combnull.search.{name}"}


_LAYERS = {
    "coeff": _GRID, "witness": _GRID, "lagrange": _GRID,
    "sumset": _family("sumsets"), "egz": _family("zero_sums"), "olson": _family("zero_sums"),
    "planes": _family("planes"), "regular-subgraph": _family("graphs"),
    "snevily": _family("shuffles"), "symdiff": _family("symdiff"),
    "chevalley": _POLY, "vandermonde": _POLY,
    # the example's even cycle of 4 vertices gets its certificate
    "cycle-labels": _POLY | _family("cycles"),
    "selftest": _ALL_LAYERS,
}

# requests beyond _EXAMPLES whose branch decides the layers: only an even
# cycle within the certificate cap, and only the Cauchy-Davenport check,
# compile the polynomial layers
_BRANCH_LAYERS = {
    "cycle-check": (["cycle-labels", "--pairs", "1,2;3,4;1,2;3,4", "--check", "1,3,1,4"],
                    _family("cycles")),
    "cycle-odd": (["cycle-labels", "--pairs", "1,2;3,4;5,6", "--force-search"], _family("cycles")),
    "cycle-past-cap": (["cycle-labels", "--pairs", ";".join(["1,2;3,4"] * 6)], _family("cycles")),
    "sumset-cd": (["sumset", "--p", "7", "--a", "0,1,2", "--b", "0,3", "--check", "cauchy-davenport"],
                  _POLY | _family("sumsets")),
    "sumset-eh": (["sumset", "--p", "7", "--a", "0,1,2", "--check", "erdos-heilbronn"],
                  _family("sumsets")),
}


@pytest.mark.parametrize("command", sorted(_EXAMPLES))
def test_only_the_solver_commands_compile_the_solvers(command):
    loaded = set(_loaded_by([command, *_flag_args(command, _EXAMPLES[command])]))
    assert loaded & _ALL_LAYERS == _LAYERS[command]
    assert ("combnull.selftest" in loaded) == (command == "selftest")
    assert not loaded & {"dataclasses", "json"}


@pytest.mark.parametrize("request_name", sorted(_BRANCH_LAYERS))
def test_a_branch_compiles_only_the_layers_it_runs(request_name):
    argv, layers = _BRANCH_LAYERS[request_name]
    assert set(_loaded_by(argv)) & _ALL_LAYERS == layers


@pytest.mark.parametrize("command", sorted(_EXAMPLES))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_flag_and_document_forms_agree(command, fmt):
    values = _EXAMPLES[command]
    by_flags = _run_raw([command, "--format", fmt, *_flag_args(command, values)])
    by_document = _run_raw([command, "--format", fmt, "--input", "-"], _document(values))
    assert by_flags[0] == by_document[0] == 0, (by_flags, by_document)
    docs = [_parsed(fmt, result[1]) for result in (by_flags, by_document)]
    for doc in docs:
        doc.pop("time_ms")
    assert docs[0] == docs[1]
    assert docs[0]["status"] == "ok"


def test_switch_words_in_any_case():
    for word in ("1", "TRUE", "Yes", "on"):
        assert cli_mod._switch(word, "restricted") is True
    for word in ("0", "False", "NO", "off"):
        assert cli_mod._switch(word, "restricted") is False


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, values, switch", [
    ("sumset", {"p": "5", "a": "0,1", "b": "1,2", "restricted": "maybe"}, "restricted"),
    ("vandermonde", {"k": "3", "closed-only": "nope"}, "closed-only"),
])
def test_document_switch_refuses_other_text(command, values, switch, fmt):
    code, out, err = _run_raw([command, "--format", fmt, "--input", "-"], _document(values))
    doc = _parsed(fmt, out)
    assert (code, doc["status"]) == (2, "input-error")
    assert doc["error"].startswith(f"SchemaError: {switch}: ")
    assert repr(values[switch]) in doc["error"]


def _outcome(call):
    """(exit code, stdout, stderr) of a call that exits, else what it returns."""
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        return call()
    except SystemExit as exc:
        return exc.code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdout, sys.stderr = saved


@pytest.mark.parametrize("command", sorted(cli_mod.COMMANDS))
@pytest.mark.parametrize("tail", [["--help"], ["--no-such-flag"], ["--input"], ["--format", "xml"]],
                         ids=["help", "unknown-flag", "flag-without-value", "bad-format"])
def test_one_command_parser_prints_what_the_full_parser_prints(command, tail):
    argv = [command, *tail]
    full = _outcome(lambda: cli_mod.build_parser().parse_args(argv))
    assert _outcome(lambda: cli_mod.build_parser(command).parse_args(argv)) == full
    assert _outcome(lambda: run(argv)) == full  # run builds the one subparser
    code, out, err = full
    assert code == (0 if tail == ["--help"] else 2)
    # an unknown flag is reported by the top level, the rest by the subcommand
    usage = "usage: combnull [-h]" if tail == ["--no-such-flag"] else f"usage: combnull {command} "
    assert (out if code == 0 else err).startswith(usage)


@pytest.mark.parametrize("command", sorted(_EXAMPLES))
def test_one_command_parser_reads_each_example_as_the_full_parser(command):
    requests = [[command, *_flag_args(command, _EXAMPLES[command])],
                [command, "--format", "json", "--input", "-"],
                *(argv for argv, _ in _BRANCH_LAYERS.values() if argv[0] == command)]
    for argv in requests:
        assert cli_mod.build_parser(command).parse_args(argv) == cli_mod.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [["--help"], [], ["no-such-command"]],
                         ids=["help", "no-command", "unknown-command"])
def test_top_level_help_and_errors_list_every_command(argv):
    code, out, err = _outcome(lambda: run(argv))
    assert code == (0 if argv == ["--help"] else 2)
    assert len(cli_mod.COMMANDS) == 14  # the 13 solver commands and selftest
    assert "{" + ",".join(cli_mod.COMMANDS) + "}" in (out if code == 0 else err)


@pytest.mark.parametrize("command", ["coeff", "egz", "symdiff"])
@pytest.mark.parametrize("as_document", [False, True])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("cap, error", [("abc", "SchemaError: "), ("0", "BadInput: ")])
def test_every_command_validates_the_grid_cap(command, as_document, fmt, cap, error):
    # egz and symdiff reach no grid, yet refuse a bad cap as coeff does
    values = {**_EXAMPLES[command], "max-grid-points": cap}
    if as_document:
        code, out, err = _run_raw([command, "--format", fmt, "--input", "-"], _document(values))
    else:
        code, out, err = _run_raw([command, "--format", fmt, *_flag_args(command, values)])
    doc = _parsed(fmt, out)
    assert (code, doc["status"], len(err.splitlines())) == (2, "input-error", 1)
    assert doc["error"].startswith(error)


# ---------------------------------------------------------------- list syntax

# one malformed value per list kind, with the rest of the request valid, and
# the exact error it gives; whitespace around a piece is not part of it
_LIST_ERRORS = [
    ("egz", {"p": "3", "nums": " "}, "SchemaError: nums: empty list"),
    ("egz", {"p": "3", "nums": "1,x,2"}, "SchemaError: nums: expected an integer, got 'x'"),
    ("cycle-labels", {"pairs": "1,2;3,4", "check": "1,a"},
     "SchemaError: check: expected a rational like 3 or 3/4, got 'a'"),
    ("regular-subgraph", {"p": "2", "vertices": "3", "edges": "0-1-2"},
     "SchemaError: edges: an edge looks like 0-1, got '0-1-2'"),
    ("symdiff", {"sets": "1;x;2", "colors": "a,b,b"},
     "SchemaError: sets: expected an integer, got 'x'"),
    ("lagrange", {"p": "5", "points": "1,2/0", "values": "1,2"},
     "SchemaError: points: expected a rational like 3 or 3/4, got '2/0'"),
    ("coeff", {"p": "3", "poly": "x1", "sets": "0,1;"}, "SchemaError: sets: empty list"),
    ("witness", {"p": "3", "poly": "x1", "sets": "0,1", "check": " (1,0) ; 1,1"},
     "SchemaError: check: a point looks like (0,1), got '1,1'"),
    ("chevalley", {"p": "3", "nvars": "2", "polys": "x1;"}, "SchemaError: empty polynomial text"),
    ("olson", {"p": "2", "k": "2", "vectors": "1,0;x"},
     "SchemaError: vectors: expected an integer, got 'x'"),
    # rows are parsed as the plane family consumes them: the first bad row
    # is reported, not the parse of a later one
    ("planes", {"n": "2", "planes": "1,0,0;1,0,0,-1;x"},
     "BadInput: a plane is 4 integers (a, b, c, d), got (1, 0, 0)"),
    ("regular-subgraph", {"p": "2", "vertices": "3", "edges": "0 - x"},
     "SchemaError: edges: expected an integer, got 'x'"),
]


@pytest.mark.parametrize("command, values, error, as_document", [
    pytest.param(command, values, error, as_document, id=f"{command}-{i}-{form}")
    for i, (command, values, error) in enumerate(_LIST_ERRORS)
    for as_document, form in ((False, "flags"), (True, "document"))
    # a document line cannot carry a blank value
    if not (as_document and any(not v.strip() for v in values.values()))
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_list_syntax_errors_are_pinned(command, values, error, as_document, fmt):
    if as_document:
        code, out, err = _run_raw([command, "--format", fmt, "--input", "-"], _document(values))
    else:
        code, out, err = _run_raw([command, "--format", fmt, *_flag_args(command, values)])
    doc = _parsed(fmt, out)
    assert (code, doc["status"], doc["error"]) == (2, "input-error", error)
    assert err == f"combnull {command}: {error.split(': ', 1)[1]}\n"


@pytest.mark.parametrize("pairs, error", [
    ("1;1,2", "BadGridShape: vertex 0 needs exactly 2 labels, got (1)"),
    ("1,2;1/2,2,3", "BadGridShape: vertex 1 needs exactly 2 labels, got (1/2, 2, 3)"),
    ("1,1;1,2", "BadInput: vertex 0 has equal labels 1"),
    ("3/4,0.75;1,2", "BadInput: vertex 0 has equal labels 3/4"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cycle_labels_errors_quote_labels_as_text(pairs, error, fmt):
    code, out, _ = _run_raw(["cycle-labels", "--format", fmt, "--pairs", pairs])
    doc = _parsed(fmt, out)
    assert (code, doc["error"]) == (2, error)
    assert "Fraction(" not in doc["error"]


def test_chevalley_degree_sum_skips_zero_members(cli):
    # the zero member imposes no constraint: the degree sum is 1 < 2, so the
    # root count is divisible by p
    code, doc, _ = cli("chevalley", "--p", "3", "--nvars", "2", "--polys", "0;x1 + x2")
    assert code == 0
    assert (doc["degree_sum"], doc["warning_applies"]) == ("1", "true")
    assert int(doc["count"]) % 3 == 0


@pytest.mark.parametrize("n, certificate", [(10, "2"), (12, None)])
def test_cycle_labels_certificate_up_to_the_library_cap(cli, n, certificate):
    code, doc, _ = cli("cycle-labels", "--pairs", ";".join(["1,2", "3,4"] * (n // 2)))
    assert (code, doc["n"]) == (0, str(n))
    assert doc.get("certificate") == certificate


# ---------------------------------------------------------------------- fuzz

_ALPHABET = "0123456789,;-/()x^*abnpz"
_EXIT_STATUS = {0: {"ok"}, 1: {"no-witness", "fail"}, 2: {"input-error", "check-failed"},
                3: {"resource-limit"}, 4: {"internal-error"}}


@st.composite
def _requests(draw):
    """A command and some of its flags: each absent, short text from the
    alphabet, or (most often) the value from the command's valid example, so
    that requests reach the solvers as well as the parsers."""
    command = draw(st.sampled_from(sorted(cli_mod.COMMANDS)))
    flags = {**cli_mod._SHARED, **cli_mod.COMMANDS[command][2]}
    example = {"max-grid-points": "64", **_EXAMPLES[command]}
    values = {}
    for name in flags:
        pick = draw(st.integers(0, 5))  # 0 absent, 1 any text, else the example's value
        if command == "selftest" and name == "suite":  # one suite, never the whole run
            values[name] = draw(st.sampled_from(["fields", "graphs", "x"]))
        elif pick == 0 or (pick > 1 and name not in example):
            continue
        elif pick == 1:
            values[name] = draw(st.text(_ALPHABET, max_size=6))
        else:
            values[name] = example[name]
    return command, values, draw(st.booleans()), draw(st.sampled_from(["text", "json"]))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_requests())
def test_fuzz_flags_and_documents_never_crash(request):
    command, values, as_document, fmt = request
    if as_document:
        argv, stdin = [command, "--format", fmt, "--input", "-"], _document(values)
    else:
        argv, stdin = [command, "--format", fmt, *_flag_args(command, values)], ""
    with mock.patch.dict(os.environ, {"COMBNULL_MAX_GRID_POINTS": "4096"}):
        code, out, err = _run_raw(argv, stdin)
    assert code in _EXIT_STATUS, (argv, stdin, code)
    assert err == "" or (err.count("\n") == 1 and err.startswith(f"combnull {command}: ")), err
    if fmt == "json":
        doc = json.loads(out)
    else:
        lines = out.splitlines()
        assert all(" " in line for line in lines), out
        doc = dict(line.split(" ", 1) for line in lines)
        assert list(doc)[:2] == ["command", "status"] and list(doc)[-1] == "time_ms"
    assert doc["command"] == command and "time_ms" in doc
    assert doc["status"] in _EXIT_STATUS[code], (argv, stdin, doc)
