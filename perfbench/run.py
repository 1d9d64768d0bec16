"""geoformal benchmark: four CLI workloads, end-to-end times and layer traces.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one in-process call of `geoformal.cli.main([...])` with
`--format json --seed N`, made in a fresh single-threaded interpreter
(`perfbench/worker.py`).  With `--trace 0` the run repeats the operation
until the next one would end after `--seconds` (at least once), checks every
report and prints the end-to-end metrics.  With `--trace 1` it makes one
untraced and one traced call, requires their JSON reports to be identical,
and prints the per-layer metrics of the traced call.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FLAG_FILE = os.path.join("perfbench", "flag_su4.yaml")
SPANS_DIR = ".perfbench_run"
RUN_LIMIT_S = 170        # every run must end well within 180 s
SETUP_SAMPLES = 7        # imports timed per run; setup_s is their median
# Reported times are scaled to the interpreter speed at which the worker's
# probe takes this long (its typical time on a 2-CPU Xeon VM in a quiet
# period): time * REFERENCE_PROBE_S / mean probe time measured alongside.
REFERENCE_PROBE_S = 300e-6

SU4_SU2_BETTI = [1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1]
SU3_T2_BETTI = [1, 0, 2, 0, 2, 0, 1]
AW_BETTI = [1, 0, 1, 0, 0, 1, 0, 1]
# Pinned from the program as it was when the benchmark was written, not
# proved: the harmonic dimensions of the normal metric on SU(4)/T^3, its
# probe verdict and the number of pairs the probe checks.
FLAG_HARMONIC_DIMS = [1, 0, 3, 0, 5, 0, 6, 0, 5, 0, 3, 0, 1]
FLAG_PAIRS_CHECKED = 154
SU4_SU2_PAIRS_CHECKED = 2
SUITE_NEGATIVE_ROWS = 38


def flag_betti():
    """Coefficients of prod_{k=2..4} (1 + t^2 + ... + t^(2k-2))."""
    poly = [1]
    for k in range(2, 5):
        factor = [1 if d % 2 == 0 else 0 for d in range(2 * k - 1)]
        out = [0] * (len(poly) + len(factor) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        poly = out
    return poly


def expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_su4_su2(rep, problems):
    tables, verdicts = rep["tables"], rep["verdicts"]
    expect(problems, "betti", tables["betti"], SU4_SU2_BETTI)
    expect(problems, "harmonic_dimensions", tables["harmonic_dimensions"], SU4_SU2_BETTI)
    expect(problems, "formality_probe", verdicts["formality_probe"], "FORMAL_FOR_THIS_METRIC")
    expect(problems, "formality_by_top_degree", verdicts["formality_by_top_degree"],
           "APPLIES_PROD")
    expect(problems, "pairs_checked", tables["probe"]["pairs_checked"], SU4_SU2_PAIRS_CHECKED)


def check_flag_su4(rep, problems):
    tables, verdicts = rep["tables"], rep["verdicts"]
    expect(problems, "betti", tables["betti"], flag_betti())
    expect(problems, "harmonic_dimensions", tables["harmonic_dimensions"], FLAG_HARMONIC_DIMS)
    expect(problems, "formality_probe", verdicts["formality_probe"], "NOT_FORMAL")
    expect(problems, "pairs_checked", tables["probe"]["pairs_checked"], FLAG_PAIRS_CHECKED)


def check_suite_negative(rep, problems):
    verdicts, tables = rep["verdicts"], rep["tables"]
    expect(problems, "suite", verdicts["suite"], "ALL_EXPECTED")
    expect(problems, "soundness_separation", verdicts["soundness_separation"], "OK")
    expect(problems, "rows", (tables["summary"]["passed"], tables["summary"]["total"]),
           (SUITE_NEGATIVE_ROWS, SUITE_NEGATIVE_ROWS))
    rows = {r["row"]: r for r in tables["rows"]}
    totaro00 = rows.get("certify totaro a=0 b=0", {})
    expect(problems, "totaro a=0 b=0", (totaro00.get("pass"),
                                        totaro00.get("got", {}).get("certificate")),
           (True, "NO_CERTIFICATE"))
    # homog rows are seed-free: their Betti numbers must not move with --seed
    for name, row in rows.items():
        if name.startswith("homog "):
            want = SU3_T2_BETTI if name == "homog su3/t2" else AW_BETTI
            expect(problems, f"{name} betti", row["got"].get("betti"), want)


def check_certify_deep(rep, problems):
    verdicts, verification = rep["verdicts"], rep["tables"]["verification"]
    expect(problems, "certificate", verdicts["certificate"], "INFEASIBLE")
    expect(problems, "verification", verdicts["verification"], "ACCEPTED")
    expect(problems, "trials", verification["trials"], 1000)
    expect(problems, "failed steps",
           [s["sid"] for s in verification["steps"] if not s["passed"]], [])


WORKLOADS = {
    "homog-su4-su2": (["homog", "su4/su2"], check_su4_su2),
    "homog-flag-su4": (["homog", "--file", FLAG_FILE], check_flag_su4),
    "suite-negative": (["suite", "--only", "negative", "--trials", "60",
                        "--restarts", "16"], check_suite_negative),
    "certify-totaro-deep": (["certify", "totaro", "--a", "1", "--b", "1",
                             "--trials", "1000"], check_certify_deep),
}


class Runner:
    """Starts workers, each in a fresh interpreter, within one run's time limit."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("GEOFORMAL_SEED", "PYTHONPATH")}
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def elapsed(self):
        return time.perf_counter() - self.t0

    def worker(self, cli_args, trace=False, spans="-"):
        """Returns the worker's result dict, or None if it failed or timed out."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT,
               "1" if trace else "0", spans] + cli_args
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            print("worker timed out", file=sys.stderr)
            return None
        try:
            if proc.returncode == 0:
                return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            pass
        sys.stderr.write(proc.stderr[-2000:])
        return None


def scaled(result, phase):
    """A worker's setup or wall time at the reference interpreter speed."""
    probe_s = result["setup_probe_s" if phase == "setup" else "call_probe_s"]
    return result[f"{phase}_s"] * REFERENCE_PROBE_S / probe_s


def check(workload, seed, result):
    """Problems with one operation's result; empty when it is correct."""
    if result is None:
        return ["worker failed"]
    if result["rc"] != 0:
        return [f"exit status {result['rc']}"]
    try:
        rep = json.loads(result["report"])
        problems = []
        expect(problems, "seed", rep["seed"], seed)
        WORKLOADS[workload][1](rep, problems)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
    return problems


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_per_trial"):
        return "count/trial"
    if name.endswith("ms_per_iteration"):
        return "ms"
    return "count"


def machine_line():
    import numpy
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} platform={platform.platform()}")


def run_untraced(runner, workload, seed, cli_args, seconds):
    results, durations = [], []
    while True:
        start = runner.elapsed()
        results.append(runner.worker(cli_args))
        durations.append(runner.elapsed() - start)
        if results[-1] is None or \
                runner.elapsed() + statistics.mean(durations) > seconds:
            break
    failed = 0
    for res in results:
        problems = check(workload, seed, res)
        if problems:
            failed += 1
            print(f"FAILED operation: {'; '.join(problems)}")
    setup = [scaled(r, "setup") for r in results if r is not None]
    while len(setup) < SETUP_SAMPLES and results[-1] is not None:
        res = runner.worker([])
        if res is None:
            break
        setup.append(scaled(res, "setup"))
    ok = [r for r in results if r is not None]
    if not ok or len(setup) < SETUP_SAMPLES:
        return len(results), failed or len(results), None
    metrics = {
        "wall_s": (statistics.median(scaled(r, "wall") for r in ok), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["maxrss_mb"] for r in ok), "MB"),
    }
    print(f"operations: {len(results)}; per operation: raw wall_s, mean probe us, "
          "scaled wall_s: " + "; ".join(
              f"{r['wall_s']:.3f} {1e6 * r['call_probe_s']:.1f} {scaled(r, 'wall'):.3f}"
              for r in ok))
    return len(results), failed, metrics


def run_traced(runner, workload, seed, cli_args):
    plain = runner.worker(cli_args)
    os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
    spans = os.path.join(ROOT, SPANS_DIR, f"spans-{workload}-seed{seed}.tsv.gz")
    traced = runner.worker(cli_args, trace=True, spans=spans)
    failed = 0
    for label, res in (("untraced", plain), ("traced", traced)):
        problems = check(workload, seed, res)
        if problems:
            failed += 1
            print(f"FAILED {label} operation: {'; '.join(problems)}")
    if plain is None or traced is None:
        return 2, max(failed, 1), None
    if traced["report"] != plain["report"]:
        failed += 1
        print("FAILED: the traced JSON report differs from the untraced one")
    if not traced["step_table_wrapped"]:
        print("note: the certificate step table changed shape; per-step times "
              "are not recorded, only certify.verify_s")
    metrics = {name: (value, unit_of(name)) for name, value in traced["layers"].items()}
    metrics["process.cpu_s"] = (plain["cpu_s"], "s")
    metrics["process.gc_s"] = (plain["gc_s"], "s")
    metrics["process.probe_us"] = (1e6 * traced["call_probe_s"], "us")
    metrics["trace_overhead_ratio"] = (scaled(traced, "wall") / scaled(plain, "wall"), "ratio")
    print(f"raw wall_s untraced {plain['wall_s']:.3f}, traced {traced['wall_s']:.3f}; "
          f"spans written to {os.path.relpath(spans, ROOT)}")
    return 2, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join("src", "geoformal", "cli.py"), FLAG_FILE)
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run the "
              "benchmark from a geoformal checkout", file=sys.stderr)
        return 2

    runner = Runner()
    cli_args = WORKLOADS[args.workload][0] + ["--format", "json", "--seed", str(args.seed)]
    print(f"workload: {args.workload} (geoformal {' '.join(cli_args)})")
    print(machine_line())
    if args.trace:
        attempted, failed, metrics = run_traced(runner, args.workload, args.seed, cli_args)
    else:
        attempted, failed, metrics = run_untraced(runner, args.workload, args.seed,
                                                  cli_args, args.seconds)
    print(f"failed_ratio: {failed / attempted:.4f} ({failed} failed of {attempted} attempted)")
    if metrics is None:
        print("error: no operation completed; no metrics to report", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
