"""One workload run in its own process; started by run.py, not by hand.

Sets up every fit's inputs, then fits them in order until the deadline,
timing each call into gsda and checking its output afterwards.  A
worker whose deadline has already passed only sets up, which is how
run.py times setup alone.  With ``--trace 1`` the call sites in
tracer.SITES are patched for the whole run.  Prints one JSON object on
its last stdout line.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np

import gsda
from gsda import _kernels

import workloads
from reference import SpeedProbe
from tracer import DETERMINISTIC, LAYER_METRICS, Tracer

_ENGINE_COUNTS = ("iterations", "steps", "shrinks", "backtracks", "sampling_exhausted")


def environment():
    """Versions and settings a reader needs to compare two runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "gsda": gsda.__version__,
        "kernels": _kernels.ACTIVE,
    }


def timed_fit(workload, fit, inp, tracer=None):
    """Call fit once, then check its result; returns (seconds, record)."""
    clock = time.perf_counter
    start = clock()
    try:
        result = fit(inp, tracer)
    except Exception as exc:  # any exception out of gsda is a failed fit
        return clock() - start, {"status": "raised", "detail": f"{type(exc).__name__}: {exc}"}
    seconds = clock() - start
    return seconds, vars(workload.check(inp, result))


def run_fits(workload, inputs, deadline, tracer, probe):
    """Fit each input in order; returns the records of the fits started.

    No fit starts after ``deadline``, so the list may be shorter than
    ``inputs``.  With a tracer, each input is fitted twice in a row,
    traced and then plain, so the tracing overhead is measured on the
    same inputs at the same machine speed; ``plain_agrees`` says the two
    gave equal records, and ``counts`` holds the fit's share of the
    tracer's deterministic counts.

    Each record's ``scale`` brings its seconds to the nominal machine
    speed, from the reference task timed just before and just after the
    fit, outside the fit's own timing.
    """
    traced_fit = tracer.span("fit", workload.fit) if tracer else None
    records = []
    before = probe.measure()
    for index, inp in enumerate(inputs):
        if time.monotonic() > deadline:
            break
        if tracer is None:
            seconds, record = timed_fit(workload, workload.fit, inp)
        else:
            tracer.fit_id = index
            counts_before = [tracer.counts[k] for k in DETERMINISTIC]
            with tracer:
                seconds, record = timed_fit(workload, traced_fit, inp, tracer)
            plain_seconds, plain = timed_fit(workload, workload.fit, inp)
            record["plain_agrees"] = json.dumps(plain) == json.dumps(record)
            record["plain_seconds"] = plain_seconds
            record["counts"] = [tracer.counts[k] - c
                                for k, c in zip(DETERMINISTIC, counts_before)]
        after = probe.maybe_measure()
        records.append({"seconds": seconds, "scale": probe.scale_for(before, after), **record})
        before = after
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, required=True,
                        help="monotonic clock time after which no fit starts")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    fits = workloads.fit_count(workload, args.seconds, bool(args.trace))
    inputs = [workload.make_input(args.seed, i, args.workdir) for i in range(fits)]
    out = {"first_fit_at": time.monotonic(), "inputs": len(inputs)}

    probe = SpeedProbe()
    if args.trace:
        tracer = Tracer()
        records = run_fits(workload, inputs, args.deadline, tracer, probe)
        for name in _ENGINE_COUNTS:  # from the fits' traces
            tracer.counts["engine." + name] = sum(r.get(name, 0) for r in records)
        out["layers"] = tracer.layer_metrics()
        out["layer_units"] = LAYER_METRICS
        out["missing_sites"] = tracer.missing_sites(workload.sites)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        records = run_fits(workload, inputs, args.deadline, None, probe)
    out["fits"] = records
    out["reference_s"] = probe.median()
    out["time_scale"] = probe.scale()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["environment"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
