"""First record: the ROADMAP baseline-table rows, timed by this benchmark.

``python3 perfbench/run.py --baseline`` times each row (median of RUNS runs,
perf_counter wall clock) and writes perfbench/baseline.json together with
the workloads, their seeds, the metric definitions from BENCHMARK.json, the
git commit, the Python version and the CPU count, so that later changes can
quote deltas against it.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

RUNS = 3


def rows():
    """(row, ROADMAP figure in seconds, zero-argument call) for each row."""
    import combnull
    import workloads as wl
    from combnull import combinatorics as comb
    from combnull import nullstellensatz as ns

    rng = random.Random("baseline")
    sums = wl.gen_grid_sum(rng, (12, 12, 12, 12), 101, 30, False)
    f, grid = wl.build_poly(sums), ns.Grid(combnull.PrimeField(101), sums["sets"])
    nums = [rng.randrange(10**6) for _ in range(421)]
    z7 = combnull.PrimeField(7)
    system = comb.PolySystem(z7, 6, [
        wl.build_poly({"p": 7, "terms": {**wl.random_terms(rng, 6, 3, 1, lambda: rng.randrange(1, 7)),
                                         **wl.random_terms(rng, 6, 1, 2, lambda: rng.randrange(1, 7), 2)}}, 6)
        for _ in range(2)])
    z101 = combnull.PrimeField(101)
    a, b = rng.sample(range(101), 20), rng.sample(range(101), 20)
    return [
        ("grid_weighted_sum, Z_101, 12^4 = 20,736 points, 30 terms", 1.36, lambda: ns.grid_weighted_sum(f, grid)),
        ("egz_solve, p = 211", 2.7, lambda: comb.egz_solve(nums, 211)),
        ("common_roots, 2 sparse polys over Z_7^6", 1.25, lambda: comb.common_roots(system)),
        ("cauchy_davenport_check, p = 101, |A| = |B| = 20", 0.36, lambda: comb.cauchy_davenport_check(z101, a, b)),
        ("vandermonde_sq_coefficient(6), verify on", 7.0, lambda: comb.vandermonde_sq_coefficient(6)),
    ]


def main(root, here) -> int:
    import cliwork

    env = cliwork.child_env(root / "src")
    table = rows() + [("CLI process, egz --p 3", 0.17, lambda: subprocess.run(
        [sys.executable, "-m", "combnull.cli", "egz", "--p", "3", "--nums", "4,4,9,2,7"],
        env=env, cwd=root, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True))]
    records = []
    for name, roadmap_s, call in table:
        runs = []
        for _ in range(RUNS):
            t0 = time.perf_counter()
            call()
            runs.append(time.perf_counter() - t0)
        records.append({"row": name, "median_s": statistics.median(runs), "runs_s": runs,
                        "roadmap_s": roadmap_s})
        print(f"{name}: {statistics.median(runs):.4f} s (ROADMAP {roadmap_s} s)")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    declared = json.loads((root / "BENCHMARK.json").read_text())
    doc = {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "timer": "time.perf_counter, wall clock, median of 3 runs",
        # inputs come from random.Random(stream) for variants 0-3 of the
        # --seed given on the command line; answers are stored for seed 0
        "workloads": [{**w, "seed": {"default": 0, "stream": f"{w['name']}:<seed>:<variant>",
                                     "stored_answers": w["name"] != "cli"}} for w in declared["workloads"]],
        "end_to_end": declared["end_to_end"],
        "per_layer": declared["per_layer"],
        "baseline_rows": records,
    }
    (here / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0
