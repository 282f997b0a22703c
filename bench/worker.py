"""One workload in one fresh interpreter; started by ``bench/run.py``.

Imports the package, runs the workload's command sequence repeatedly for the
given number of seconds under the reference-speed probe (``probe.py``),
checks the outputs of one pass, and writes a JSON result to ``--out``.
With ``--trace 1`` it runs untraced passes for half the time, then one pass
with the span tracer installed, and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time

import moyalcalc
import moyalcalc.cli as cli
import numpy
import scipy

import probe
import spans
import workloads


def digest(outputs):
    h = hashlib.sha256()
    for _argv, _code, text in outputs:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def timed_passes(workload, main, seconds):
    """Run whole passes until the next one would overrun ``seconds``; at least one.

    Returns the raw and the probe-scaled time of each pass, the outputs of
    the first pass and the set of output digests of all passes.
    """
    raws, scaled, first, digests = [], [], None, set()
    timer = probe.Probe()
    began = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        outputs, raw, rescaled = timer.measure(workload.run, main)
        lap = time.perf_counter() - t0
        raws.append(raw)
        scaled.append(rescaled)
        first = first or outputs
        digests.add(digest(outputs))
        if time.perf_counter() - began + lap > seconds:
            return raws, scaled, first, digests


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="gzip CSV file for the spans of a traced pass")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)

    def run_main(cli_argv):
        # looked up on every call so that a traced pass sees the wrapped main
        return cli.main(cli_argv)

    # a traced run spends half its time on untraced passes, half on the traced one
    budget = args.seconds / 2 if args.trace else args.seconds
    raws, walls, outputs, digests = timed_passes(workload, run_main, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "raw_walls_s": raws,
        "walls_s": walls,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest(outputs),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            gc.collect()
            # the probe timer would add its time to the spans, so the traced
            # pass is rescaled by the probe speed just before and after it
            before = probe.speed()
            t0 = time.perf_counter()
            with tracer.span("workload"):
                traced = workload.run(run_main)
            traced_wall = time.perf_counter() - t0
            traced_wall *= probe.NOMINAL_S / statistics.mean((before, probe.speed()))
            with tracer.span("check"):
                attempted, failed, problems = workload.check(traced, moyalcalc)
        finally:
            tracer.uninstall()
        digests.add(digest(traced))
        layers = spans.layer_metrics(tracer.summary("workload"), tracer.summary("check"))
        layers["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        result["layers"] = layers
        result["spans"] = len(tracer)
        if args.spans:
            tracer.write(args.spans)
    else:
        attempted, failed, problems = workload.check(outputs, moyalcalc)
    if len(digests) > 1:
        problems.append("passes over the same inputs printed different output")
    result.update(attempted=attempted, failed=failed, problems=problems)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
