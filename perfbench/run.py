#!/usr/bin/env python3
"""The combnull benchmark.

    python3 perfbench/run.py --workload grid_sums --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1     # every workload in turn
    python3 perfbench/run.py --smoke      # every workload and mode once at tiny sizes, all checks on
    python3 perfbench/run.py --baseline   # re-measure the ROADMAP baseline rows

Run from the root of a source checkout; the package is imported from src/.
Load shape: closed loop, one client, one process, no threads; in the cli
workload one child process at a time.  Workloads: grid_sums, grid_search,
additive (in process) and cli (a fresh interpreter per request).

A run builds its inputs from --seed, then repeats whole passes over them
until --seconds have gone by and at least 100 instances were timed, so that
p90 has at least ten samples beyond it.  Answers are checked after the timed
loop.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones:

  ops_per_s       instances answered correctly per second of timed wall clock:
                  ok_ratio * instances per pass / median timed seconds per pass
  latency_p50_ms  median wall time per instance
  latency_p90_ms  nearest-rank 90th percentile of wall time per instance
  ok_ratio        (attempted - failed) / attempted, i.e. 1 - fail ratio
  setup_s         fresh interpreter to first timed call (import combnull and
                  build every input object), median of several fresh processes
  peak_rss_mb     peak resident memory of the process running the instances
                  (for cli, of the largest child)

Timings are reported at reference speed.  On a shared machine the speed
drifts by tens of percent over minutes (measured on a 2-CPU x86_64 VM),
moving all interpreter-bound work together.  So before every instance a fixed
calibration runs (untimed): a pure-Python loop, or for cli a bare
interpreter start.  Each instance's time is scaled by the reference time
over the mean calibration time of the nearest instances; set-up times
likewise by interpreter starts just before and after each probe.  The
unscaled figures are printed too.

A failure is an unexpected exception, a wrong answer, a wrong exit code, an
unparsable output document or a per-instance timeout.  ``correct`` is false
when any failure is not a documented known defect (workloads.KNOWN_DEFECTS).

With --trace 1 one fixed pass runs untraced and then traced, and the metrics
are the per-layer ones of tracing.PER_LAYER plus trace.overhead_ratio
(traced over untraced wall time of that pass).  Span records are written to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("grid_sums", "grid_search", "additive", "cli")
DEFAULT_SEED = 0  # the seed whose expected answers are stored in expected_seed0.json
VARIANTS = 4  # distinct input sets per run; passes cycle through them
MIN_SAMPLES = 100
MAX_LOOP_S = 90.0  # stop adding passes past this, whatever --seconds says
INSTANCE_TIMEOUT_S = 60.0
SETUP_PROBES = 9
# Nominal times of calibration_s() and spawn_calibration_s(); timings are
# reported at this speed.
CAL_REF_S = 0.0025
SPAWN_REF_S = 0.065
CAL_WINDOW = 2  # instances on either side whose calibrations set one instance's factor
END_TO_END = [("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("ok_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class InstanceTimeout(BaseException):
    """Raised by SIGALRM inside an instance that ran past its time limit."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def p90(sorted_values):
    """Nearest rank: with n >= 100 samples at least ten lie beyond it."""
    return sorted_values[max(0, math.ceil(0.9 * len(sorted_values)) - 1)]


def build(workload, seed, tiny=False):
    """The input sets of one run: VARIANTS pools (one tiny pool with --tiny)."""
    if workload == "cli":
        import cliwork
        return [cliwork.build_requests(f"{seed}:{v}") for v in range(1 if tiny else VARIANTS)]
    import workloads
    return [workloads.build_pool(workload, f"{seed}:{v}", tiny) for v in range(1 if tiny else VARIANTS)]


def measure_setup(workload, seed, tiny) -> tuple[float, float]:
    """(raw, speed-adjusted) median over fresh processes of: spawn to inputs built.

    The child reports time.monotonic() when its inputs are ready; that clock
    is system-wide, so it can be compared with the parent's spawn time.
    """
    times, adjusted = [], []
    for _ in range(1 if tiny else SETUP_PROBES):
        cal = [spawn_calibration_s()]
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                              "--workload", workload, "--seed", str(seed)] + ["--tiny"] * tiny,
                             capture_output=True, text=True, timeout=120, check=True, cwd=ROOT).stdout
        times.append(float(out.split()[-1]) - t0)
        cal.append(spawn_calibration_s())
        adjusted.append(times[-1] * SPAWN_REF_S * len(cal) / sum(cal))
    return statistics.median(times), statistics.median(adjusted)


# ------------------------------------------------------------------- running


class Runner:
    """Runs instances of one workload and keeps samples and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.samples: list[float] = []
        # key -> first result, pickled: bytes are not tracked by the cyclic
        # garbage collector, so results kept for the checks after the timed
        # loop do not make the library's collections slower
        self.first: dict[str, bytes] = {}
        self.digest: dict[str, str] = {}  # key -> digest of the first result
        self.count: dict[str, int] = {}  # key -> answers returned, all passes
        self.failures: list[tuple[str, str, bool]] = []  # (key, reason, known defect)
        if workload == "cli":
            import cliwork
            self.cli = cliwork
            self.env = cliwork.child_env(SRC)
            self.peak_kib = 0

    def one(self, key, inst, in_process=False):
        if self.workload == "cli":
            return self._one_request(key, inst, in_process)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_TIMEOUT_S)
        try:
            result = inst.call()
            error = None
        except InstanceTimeout:
            error = "timeout"
        except Exception as exc:  # any exception the instance did not expect is a failure
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.samples.append(time.perf_counter() - t0)
        if error is not None:
            known = inst.defect is not None and isinstance(error, inst.defect)
            self.failures.append((key, f"{type(error).__name__}: {error}"[:200], known))
        else:
            import checks
            self._answer(key, result, checks.digest(checks.canon(inst, result)))

    def _one_request(self, key, req, in_process):
        t0 = time.perf_counter()
        if in_process:
            result = self.cli.run_in_process(req)
        else:
            code, out, kib = self.cli.spawn(req, self.env, ROOT, INSTANCE_TIMEOUT_S)
            self.peak_kib = max(self.peak_kib, kib)
            result = (code, out)
        self.samples.append(time.perf_counter() - t0)
        if result[0] is None:
            self.failures.append((key, "timeout", False))
        else:
            answer = (result[0], self.cli.normalize(req, result[1]))
            self._answer(key, answer, repr(answer))

    def _answer(self, key, result, digest):
        if key not in self.first:
            self.first[key] = pickle.dumps(result)
            self.digest[key] = digest
        elif digest != self.digest[key]:
            self.failures.append((key, "answer differs from the first pass", False))
            return
        self.count[key] = self.count.get(key, 0) + 1

    def check(self, pools, seed, tiny):
        """Check each distinct answer once; a wrong one fails every pass."""
        expected = {}
        path = HERE / "expected_seed0.json"
        if seed == DEFAULT_SEED and not tiny and self.workload != "cli" and path.exists():
            expected = json.loads(path.read_text()).get(self.workload, {})
        items = {_key(v, inst): inst for v, pool in enumerate(pools) for inst in pool}
        for key, pickled in self.first.items():
            inst, result = items[key], pickle.loads(pickled)
            if self.workload == "cli":
                reason = self.cli.check(inst, *result)
            else:
                import checks
                reason = checks.check(inst, result)
                if reason is None and key in expected and self.digest[key] != expected[key]:
                    reason = "differs from the stored expected answer"
            if reason is not None:
                self.failures += [(key, reason, False)] * self.count[key]


def _key(variant, inst):
    return f"v{variant}/{inst.name}"


def calibration_s() -> float:
    """Seconds taken by a fixed interpreter-bound loop (calls, integer
    arithmetic, tuple and dict traffic: the kind of work combnull does)."""
    t0 = time.perf_counter()
    counts, acc = {}, 0
    for i in range(4000):
        key = (i, i * 7 % 13)
        counts[key] = counts.get(key, 0) + 1
        acc = (acc + pow(i, 3, 101) * key[1]) % 101
    return time.perf_counter() - t0


def spawn_calibration_s() -> float:
    """Seconds to start and stop a bare interpreter: the reference for work
    done in fresh processes (cli requests, set-up probes)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], stdin=subprocess.DEVNULL, check=True, timeout=60)
    return time.perf_counter() - t0


def timed_loop(runner, pools, seconds, min_samples):
    """Whole passes until `seconds` and `min_samples` are reached.

    Before each instance a calibration runs (untimed): the loop, or for cli
    a bare interpreter.  Returns the passes run and, per instance, the speed
    factor reference / mean of the calibration times of the CAL_WINDOW
    instances on either side.
    """
    calibrate, ref = (spawn_calibration_s, SPAWN_REF_S) if runner.workload == "cli" else (calibration_s, CAL_REF_S)
    start = time.perf_counter()
    passes, cal = 0, []
    while True:
        v = passes % len(pools)
        for inst in pools[v]:
            cal.append(calibrate())
            runner.one(_key(v, inst), inst)
        passes += 1
        wall = time.perf_counter() - start
        if wall >= MAX_LOOP_S:
            break
        if len(runner.samples) >= min_samples and wall + wall / passes / 2 >= seconds:
            break
    near = [cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1] for i in range(len(cal))]
    return passes, [ref * len(c) / sum(c) for c in near]


def end_to_end(workload, seed, seconds, tiny=False):
    raw_setup_s, setup_s = measure_setup(workload, seed, tiny)
    pools = build(workload, seed, tiny)
    runner = Runner(workload)
    gc.collect()
    gc.freeze()  # the inputs live all run; keep them out of the collector's scans
    passes, factors = timed_loop(runner, pools, seconds, 1 if tiny else MIN_SAMPLES)
    runner.check(pools, seed, tiny)
    n = len(pools[0])  # every pass holds the same number of instances
    adjusted = [t * f for t, f in zip(runner.samples, factors)]
    pass_s = [sum(adjusted[i:i + n]) for i in range(0, len(adjusted), n)]
    lat = sorted(adjusted)
    attempted, failed = len(lat), len(runner.failures)
    ok_ratio = (attempted - failed) / attempted
    if workload == "cli":
        peak_kib = runner.peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        # the median pass time gives a throughput that one slow stretch of
        # the run cannot move
        "ops_per_s": ok_ratio * n / statistics.median(pass_s),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": p90(lat) * 1000,
        "ok_ratio": ok_ratio,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024,
    }
    raw = sorted(runner.samples)
    print(f"workload {workload} seed {seed} passes {passes} samples {attempted}")
    print(f"median speed factor {statistics.median(factors):.3f}; unadjusted: "
          f"p50 {statistics.median(raw) * 1000:.4g} ms, p90 {p90(raw) * 1000:.4g} ms, "
          f"setup {raw_setup_s:.4g} s")
    return runner, {name: (values[name], unit) for name, unit in END_TO_END}


def traced(workload, seed, tiny=False):
    import tracing
    pools = build(workload, seed, tiny)[:1]
    untraced = Runner(workload)
    t0 = time.perf_counter()
    for inst in pools[0]:
        untraced.one(_key(0, inst), inst, in_process=True)
    base_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    problem = tracer.self_check()
    if problem:
        raise SystemExit(f"trace self-check failed: {problem}")
    runner = Runner(workload)
    t0 = time.perf_counter()
    for i, inst in enumerate(pools[0]):
        tracer.instance = i
        runner.one(_key(0, inst), inst, in_process=True)
    traced_s = time.perf_counter() - t0
    runner.check(pools, seed, tiny)

    values = tracer.summary()
    values["trace.overhead_ratio"] = traced_s / base_s
    values.update(cli_floor())
    tracer.write(OUT / f"trace-{workload}-seed{seed}.tsv")
    print(f"workload {workload} seed {seed} traced pass of {len(runner.samples)} instances, "
          f"spans in {OUT.name}/trace-{workload}-seed{seed}.tsv")
    return runner, {name: (values.get(name, 0.0), unit) for name, unit, _ in tracing.PER_LAYER}


def cli_floor():
    """cli.interpreter_s: a bare interpreter; cli.import_s: importing combnull.cli on top of it."""
    import cliwork
    env = cliwork.child_env(SRC)

    def median_run(code):
        times = []
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                           stdin=subprocess.DEVNULL, cwd=ROOT)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    floor = median_run("pass")
    return {"cli.interpreter_s": floor, "cli.import_s": median_run("import combnull.cli") - floor}


def report(runner, metrics):
    unexpected = [f for f in runner.failures if not f[2]]
    for key, reason, known in runner.failures[:10]:
        print(f"failed {key}: {reason}{' (known defect)' if known else ''}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(runner.samples),
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


# --------------------------------------------------------------------- modes


def smoke() -> int:
    """Run every workload in both modes at tiny sizes, one pass each, through
    the same command line as a full run, and check the result line against
    BENCHMARK.json."""
    import tracing
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    ok &= [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == tracing.PER_LAYER
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                                  str(DEFAULT_SEED), "--seconds", "0", "--trace", str(trace), "--tiny"],
                                 capture_output=True, text=True, timeout=170, cwd=ROOT)
            try:
                result = json.loads(out.stdout.splitlines()[-1])
                good = (out.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                        and result["correct"] and result["attempted"] >= 1
                        and [(n, v["unit"]) for n, v in result["metrics"].items()]
                        == [(m["name"], m["unit"]) for m in declared[kind]])
            except (IndexError, ValueError, KeyError):
                good = False
            print(f"{workload} --trace {trace}: {'ok' if good else 'FAILED'}")
            if not good:
                print(out.stdout[-2000:] + out.stderr[-2000:])
            ok &= good
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "combnull" / "__init__.py").is_file():
        print(f"run.py: no combnull package under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("COMBNULL_MAX_GRID_POINTS", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.smoke:
        return smoke()
    if args.baseline:
        import baseline
        return baseline.main(ROOT, HERE)
    if args.workload is None:
        for workload in WORKLOADS:
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
        return 0
    if args.setup_probe:
        build(args.workload, args.seed, args.tiny)
        print(time.monotonic())
        return 0
    if args.trace:
        runner, metrics = traced(args.workload, args.seed, args.tiny)
    else:
        runner, metrics = end_to_end(args.workload, args.seed, args.seconds, args.tiny)
    report(runner, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
