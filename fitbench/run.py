"""End-to-end benchmark of gsda's fitters; the command BENCHMARK.json names.

Usage, from the root of a checkout:

    python3 fitbench/run.py --workload quantile-additive --seed 0 --seconds 30 --trace 0

Workloads: quantile-additive, pot-qp, minimize (see
fitbench/workloads.py for what each exercises).  A run fits a list of
inputs made from --seed; its length is --seconds times the workload's
sized rate, so two runs with one seed fit the same inputs.  Every
workload runs in its own process with BLAS fixed to one thread and
``src/`` on the path, so nothing needs installing.

``--trace 0`` prints the end-to-end metrics:

* fit_s: median seconds per fit (per minimization on minimize), over
  every fit attempted, capped ones included; the count is `attempted`
  (the fits started before the run's deadline);
* iters_per_s: descent iterations per fit-second;
* setup_s: process start to the first fit call (interpreter, imports,
  data, input CSVs); five extra processes only set up (their deadline
  has passed when they start), so it is a median of six;
* peak_rss_mb: ru_maxrss of the workload process.

Fit times are scaled to a nominal machine speed by a reference task
timed around each fit (reference.py); setup_s is not, since scaling it
by the reference measured during the fits widened its spread.  A fit fails when it raises,
reaches max_iter, returns non-finite output or fails its output check;
`failed` counts them, and `correct` is false when a fit reported
success but failed an exact check (not the statistical coverage one).

``--trace 1`` prints the per-layer metrics (tracer.LAYER_METRICS).  It
runs the fit list, halved, in two processes with equal time budgets, to
check that every count and objective repeats exactly on the fits both
completed.  Each fits every input traced and then plain, which measures
the tracing overhead.  It fails, printing no result, when a call site
the workload should use is never hit, when more than 10% of fit time
falls outside the named spans, or when any two fits of one input
disagree.  Spans go to .fitbench_out/spans-<workload>-<seed>.csv.

The last stdout line is the result JSON; the line before it records the
environment (git sha, source digest, nproc, Python, numpy, BLAS and its
threads, kernel path, raw fit seconds and the reference time).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".fitbench_out")

WORKLOADS = ("quantile-additive", "pot-qp", "minimize")
BLAS_THREADS = "1"
SETUP_PROBES = 5
MAX_UNATTRIBUTED = 0.10
RUN_LIMIT_S = 170.0  # every process this run starts ends by then
FIT_LIMIT_S = 150.0  # no fit starts later than this
TRACED_BUDGET_S = FIT_LIMIT_S / 2.0  # per traced process, from its own start
TIMING_FIELDS = ("seconds", "scale", "plain_seconds")

END_TO_END = {
    "fit_s": "s", "iters_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The run cannot give a trustworthy result."""


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, workdir, stop_at, kill_at, trace=0, spans=None):
    """Run worker.py once; returns (its JSON, monotonic time it was started).

    The worker starts no fit after ``stop_at`` and is killed at ``kill_at``.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(trace),
           "--deadline", repr(stop_at), "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    started = time.monotonic()
    limit = max(1.0, kill_at - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              cwd=ROOT, timeout=limit)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {limit:.0f} s and was killed") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest():
    """sha256 over src/**/*.py, which identifies the code when git cannot."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def is_failure(record):
    return record["status"] != "ok"


def final_f(fits):
    """Geometric mean of the fits' final objectives (on minimize they span decades)."""
    finals = [r["final_f"] for r in fits if 0.0 < r.get("final_f", math.nan) < math.inf]
    return math.exp(statistics.fmean(map(math.log, finals))) if finals else 0.0


def end_to_end(run, setups):
    """End-to-end metrics of one untraced run.

    Each fit's seconds are scaled to the nominal machine speed by the
    reference task timed around it (see reference.py).
    """
    seconds = [r["seconds"] * r["scale"] for r in run["fits"]]
    if not seconds:
        raise BenchError("no fit started before the deadline")
    batch = sum(seconds)
    iterations = sum(r.get("iterations", 0) for r in run["fits"])
    values = {
        "fit_s": statistics.median(seconds),
        "iters_per_s": iterations / batch if batch > 0 else 0.0,
        # unscaled: process start and imports did not follow the reference
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def run_untraced(args, start):
    stop_at, kill_at = start + FIT_LIMIT_S, start + RUN_LIMIT_S
    setups = []
    for k in range(SETUP_PROBES):
        probe, started = spawn(args, os.path.join(OUT_DIR, f"w{os.getpid()}-p{k}"),
                               0.0, kill_at)
        setups.append(probe["first_fit_at"] - started)
    run, started = spawn(args, os.path.join(OUT_DIR, f"w{os.getpid()}-run"),
                         stop_at, kill_at)
    setups.append(run["first_fit_at"] - started)
    if len(run["fits"]) < run["inputs"]:
        print(f"fitbench: the run reached its deadline after {len(run['fits'])} of "
              f"{run['inputs']} fits", file=sys.stderr)
    return run, end_to_end(run, setups)


def traced_problems(first, second):
    """Why two traced runs of one seed cannot be trusted; empty if they can.

    Fits are compared over the prefix both runs completed.
    """
    problems = []
    if first["missing_sites"]:
        problems.append(f"wrapped call sites never hit: {', '.join(first['missing_sites'])}")
    unattributed = first["layers"]["trace.unattributed_frac"]
    if unattributed > MAX_UNATTRIBUTED:
        problems.append(f"{unattributed:.1%} of fit time is outside the named spans")
    for index, (a, b) in enumerate(zip(first["fits"], second["fits"])):
        differ = sorted(k for k in a.keys() | b.keys()
                        if k not in TIMING_FIELDS
                        and json.dumps(a.get(k)) != json.dumps(b.get(k)))  # NaN equals NaN
        if differ:
            problems.append(f"fit {index} differs between two runs of one seed in {differ}")
            break
    if not all(r["plain_agrees"] for run in (first, second) for r in run["fits"]):
        problems.append("a traced fit and its plain repeat disagree")
    return problems


def run_traced(args, start):
    """Two traced runs of one list; per-layer metrics of the first.

    A run cut by its deadline is reported, not taken for a difference.
    """
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv")
    runs = []
    for k in range(2):
        stop_at = min(time.monotonic() + TRACED_BUDGET_S, start + FIT_LIMIT_S)
        run, _ = spawn(args, os.path.join(OUT_DIR, f"w{os.getpid()}-t{k}"),
                       stop_at, start + RUN_LIMIT_S, trace=1, spans=None if k else spans)
        runs.append(run)
        if len(run["fits"]) < run["inputs"]:
            print(f"fitbench: traced run {k} reached its deadline after "
                  f"{len(run['fits'])} of {run['inputs']} fits", file=sys.stderr)
    first, second = runs
    if not (first["fits"] and second["fits"]):
        raise BenchError("a traced run completed no fit before its deadline")

    problems = traced_problems(first, second)
    if problems:
        raise BenchError("; ".join(problems))

    layers = dict(first["layers"])
    traced_s = sum(r["seconds"] * r["scale"] for r in first["fits"])
    plain_s = sum(r.get("plain_seconds", 0.0) * r["scale"] for r in first["fits"])
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s > 0 else 0.0
    layers["run.batch_s"] = plain_s
    layers["run.fail_frac"] = sum(map(is_failure, first["fits"])) / len(first["fits"])
    layers["run.final_f"] = final_f(first["fits"])
    units = first["layer_units"]
    return first, {k: {"value": layers[k], "unit": units[k]} for k in units}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gsda", "__init__.py")):
        print("fitbench: no gsda package under src/ in this checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        run, metrics = (run_traced if args.trace else run_untraced)(args, start)
    except BenchError as exc:
        print(f"fitbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 3

    fits = run["fits"]
    for r in fits:
        if is_failure(r):
            print(f"fitbench: fit failed ({r['status']}): {r['detail']}", file=sys.stderr)
    env = dict(run["environment"], git_sha=git_sha(), src_sha256=src_digest(),
               fits=len(fits), not_started=run["inputs"] - len(fits),
               statuses=Counter(r["status"] for r in fits),
               reference_s=run["reference_s"], time_scale=run["time_scale"],
               fit_wall_s=sum(r["seconds"] for r in fits))
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": not any(r.get("wrong") for r in fits),
        "attempted": len(fits),
        "failed": sum(map(is_failure, fits)),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
