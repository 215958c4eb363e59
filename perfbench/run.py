"""Benchmark of the ffzeta pipelines, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload modp-dim --seed 1 --seconds 20 --trace 0

The package is imported from ./src of that checkout.  With --trace 0 the
run reports the end-to-end metrics with tracing off; with --trace 1 it
wraps each layer's public functions (see spans.py) and reports self times
and work counts per layer.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit status: 0 when
every answer checks out, 1 when a check fails, 2 when the package cannot
be found or the arguments are wrong.

Set-up (importing the package, building the fields, rings and tables the
workload touches) is repeated SETUP_REPS times from a fresh import and
reported as the median.  Timings are calibrated against host speed (see
calib.py); the raw round time goes to standard error.  The corpus is then run in whole rounds until the
next round would overrun --seconds (at least one round); every answer of
the first round is checked and every later round must repeat it.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

import calib
import spans
import workloads

SETUP_REPS = 3
PACKAGE = "ffzeta"


def _cap_threads():
    # the benchmark computes in this one thread; numerical libraries get no
    # pool beyond it (and never more than nproc)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def _purge():
    for name in [k for k in sys.modules
                 if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()


def fresh_import(src):
    """Import the package anew from `src`, refusing any other copy."""
    _purge()
    importlib.invalidate_caches()
    ff = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    where = os.path.dirname(os.path.dirname(os.path.abspath(ff.__file__)))
    if where != os.path.abspath(src):
        raise ImportError("%s imported from %s, not %s" % (PACKAGE, where,
                                                            src))
    return ff


def tail_index(n):
    """Index into n sorted samples of the highest percentile that leaves
    at least ten samples beyond it."""
    return max(0, n - 11)


def run(workload, corpus, seconds, trace, src, log=None):
    """Run one workload on `corpus`; returns (result dict, list of check
    failures)."""
    log = log or (lambda msg: None)
    cal = calib.Calibrator()
    setup_times = []
    setup_layers = []
    tracer = None
    try:
        for _ in range(SETUP_REPS):
            if tracer is not None:
                tracer.restore()
            before = cal.rate(0.02)
            t0 = time.perf_counter()
            ff = fresh_import(src)
            if trace:
                tracer = spans.Tracer()
                tracer.install(PACKAGE)
            workload.setup(ff, corpus)
            dt = time.perf_counter() - t0
            after = cal.rate(max(0.02, calib.SLICE_SHARE * dt))
            setup_times.append(cal.scale(dt, (before + after) / 2))
            if tracer is not None:
                setup_layers.append(tracer.layer_metrics())
        ops = workload.prepare(ff, corpus)
        rounds = []
        layers = []
        first = None
        failed = 0
        mismatched = 0
        start = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.reset()
            times = []
            outs = []
            raw = 0.0
            rate = cal.rate(calib.MIN_SLICE)
            for op in ops:
                t0 = time.perf_counter()
                try:
                    out = op()
                except Exception as exc:      # a failed operation is counted
                    out = exc
                dt = time.perf_counter() - t0
                after = cal.rate(calib.SLICE_SHARE * dt)
                times.append(cal.scale(dt, (rate + after) / 2))
                rate = after
                raw += dt
                outs.append(out)
            rounds.append((sum(times), raw, times))
            if tracer is not None:
                layers.append(tracer.layer_metrics())
            answers = [None if isinstance(o, Exception)
                       else workload.normalize(o) for o in outs]
            failed += sum(a is None for a in answers)
            if first is None:
                first = answers
                for o in outs:
                    if isinstance(o, Exception):
                        log("operation failed: %r" % (o,))
            else:
                mismatched += sum(a != b for a, b in zip(answers, first)
                                  if a is not None and b is not None)
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    good = [(item, a) for item, a in zip(corpus, first) if a is not None]
    errors = workload.check(ff, [i for i, _ in good], [a for _, a in good])
    if mismatched:
        errors.append("%d answers changed between rounds" % mismatched)
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
    }
    log("%d ops x %d rounds; round time median %.4f s calibrated, %.4f s "
        "raw" % (len(ops), len(rounds), statistics.median(r[0] for r in rounds),
                 statistics.median(r[1] for r in rounds)))
    if trace:
        metrics = {}
        for name in layers[0]:
            source = setup_layers if name.startswith("fq.") else layers
            metrics[name] = statistics.median(m[name] for m in source)
    else:
        per_op = sorted(statistics.median(r[2][i] for r in rounds)
                        for i in range(len(ops)))
        metrics = {
            "wall_s": statistics.median(r[0] for r in rounds),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_tail_ms": 1e3 * per_op[tail_index(len(per_op))],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result["metrics"] = metrics
    return result, errors


def _with_units(metrics):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None):
    _cap_threads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    def log(msg):
        print("[%s] %s" % (args.workload, msg), file=sys.stderr)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        log("no %s package under %s; run from the repository root"
            % (PACKAGE, src))
        return 2
    sys.path.insert(0, src)
    try:
        workload = workloads.WORKLOADS[args.workload]
        result, errors = run(workload, workload.corpus(args.seed),
                             args.seconds, args.trace, src, log=log)
    finally:
        _purge()
    for msg in errors[:20]:
        log("CHECK FAILED: " + msg)
    result["metrics"] = _with_units(result["metrics"])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
