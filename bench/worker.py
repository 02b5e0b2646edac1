"""The measured process: one caller issuing one workload's operations as a
closed loop, in whole passes, then printing outputs and timings as one JSON
line on stdout.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE

With TRACE 0 it runs passes until SECONDS have elapsed. With TRACE 1 it
alternates untraced and traced passes until SECONDS have elapsed and at
least two of each have run, and writes the last traced pass's spans under
bench/results/. It is started by run.py, which checks the outputs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def run_pass(ops, tracer=None):
    times = []
    outputs = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        status, out = workloads.execute(op)
        times.append(time.perf_counter() - t0)
        outputs.append([status, out])
    return {"seconds": time.perf_counter() - start, "times": times, "outputs": outputs}


def main(argv):
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    ops = workloads.build(workload, seed)
    passes = []
    rss_kb = None
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            p["layers"] = tracer.summary()
        else:
            p = run_pass(ops)
        p["traced"] = traced
        passes.append(p)
        if rss_kb is None:
            # Peak RSS after one pass; later passes repeat the same inputs.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 4):
            break
    if trace:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        tracer.write(os.path.join(HERE, "results", f"spans-{workload}-seed{seed}.csv.gz"))
    sys.stdout.write(json.dumps({"passes": passes, "rss_kb": rss_kb}) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
