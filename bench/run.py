"""Benchmark of hyperdirichlet: one seeded workload per run, every output
checked against an mpmath reference or a property of the method.

    python3 bench/run.py --workload tables --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_ms, peak_rss_mb); with --trace 1 they are the per-layer ones of
tracing.py plus the tracing overhead. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Fresh imports timed on each side of the measured run, so that a slow spell
# of the machine at one moment does not set the median alone.
SETUP_SAMPLES = 2
TIMEOUT_S = 170.0


def fail(message):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def setup_samples(first):
    """Wall times of fresh interpreters importing the package and its CLI."""
    cmd = [sys.executable, "-c", "import hyperdirichlet, hyperdirichlet.cli"]
    env = dict(os.environ, PYTHONPATH=SRC)
    if first:
        # The first import compiles the sources; a user's installed copy is compiled.
        subprocess.run(cmd, env=env, check=True)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def check_passes(ops, refs, passes):
    """(attempted, failed, unexpected) over all passes; failures named once."""
    import checks
    groups = {}
    for i, op in enumerate(ops):
        if op.group:
            groups.setdefault(op.group, []).append(i)
    attempted = failed = 0
    unexpected = []
    reasons = {}
    for p in passes:
        outs = p["outputs"]
        for i, op in enumerate(ops):
            status, out = outs[i]
            peers = [(ops[j].name, *outs[j]) for j in groups.get(op.group, ()) if j != i]
            why = checks.check(op, status, out, refs[i], peers)
            attempted += 1
            if why is not None:
                failed += 1
                reasons.setdefault(op.name, why)
                if op.fault is None:
                    unexpected.append(op.name)
    for op in ops:
        if op.name in reasons:
            tag = f"known fault ({op.fault})" if op.fault else "WRONG"
            print(f"failed {op.name}: {tag}: {reasons[op.name]}")
        elif op.fault:
            print(f"passed {op.name}: known fault no longer shows ({op.fault})")
    return attempted, failed, sorted(set(unexpected))


def layer_metrics(passes):
    """Per-layer metrics: medians over traced passes; counts must repeat exactly."""
    import tracing
    traced = [p["layers"] for p in passes if p["traced"]]
    plain = [p["seconds"] for p in passes if not p["traced"]]
    metrics = {}
    repeat = True
    for name, unit in tracing.metric_names():
        if name == tracing.OVERHEAD:
            value = 1e3 * (statistics.median(p["seconds"] for p in passes if p["traced"])
                           - statistics.median(plain))
        else:
            values = [t[name] for t in traced]
            value = statistics.median(values)
            if unit == "count":
                if len(set(values)) == 1:
                    value = values[0]
                else:
                    print(f"count {name} differs between traced passes: {values}")
                    repeat = False
        metrics[name] = {"value": value, "unit": unit}
    return metrics, repeat


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hyperdirichlet", "__init__.py")):
        fail(f"no hyperdirichlet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import hyperdirichlet
    if not os.path.abspath(hyperdirichlet.__file__).startswith(SRC + os.sep):
        fail(f"imported hyperdirichlet from {hyperdirichlet.__file__}, not from {SRC}")
    import checks
    import oracles
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    bad = oracles.self_test()
    if bad:
        fail("oracle self-test failed: " + "; ".join(bad))

    setup = [] if args.trace else setup_samples(first=True)
    t0 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed)
    refs = [checks.reference(op) for op in ops]
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations per pass, "
          f"references in {time.perf_counter() - t0:.1f} s")

    # One caller, one process: the CLI's thread pool stays off.
    env = {k: v for k, v in os.environ.items() if k != "HYPERDIRICHLET_THREADS"}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
         repr(args.seconds), str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S, env=env)
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    passes = result["passes"]
    if not args.trace:
        setup += setup_samples(first=False)

    attempted, failed, unexpected = check_passes(ops, refs, passes)
    correct = not unexpected
    if args.trace:
        metrics, repeat = layer_metrics(passes)
        correct = correct and repeat
    else:
        # Each operation's time is its median over the passes, so a burst of
        # interference from other processes on the machine moves it less.
        typical = [statistics.median(p["times"][i] for p in passes) for i in range(len(ops))]
        p50_ops = workloads.p50_indices(args.workload, ops)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(ops) / sum(typical), "unit": "op/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(typical[i] for i in p50_ops),
                          "unit": "ms"},
            "peak_rss_mb": {"value": result["rss_kb"] / 1024.0, "unit": "MB"},
        }
    print(f"{len(passes)} passes, {attempted} operations attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    record = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(record, unexpected_failures=unexpected), fh, indent=1)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
