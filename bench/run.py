"""Per-graph certification benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes over the workload's graph set, one op per graph, in a
seeded order, until the next pass would end after S seconds (at least
MIN_PASSES passes).  Each op is timed alone; its outputs are checked
outside the timed region.  The last line of stdout is one JSON object:
`correct`, `attempted`, `failed` and `metrics`, the end-to-end metrics
with --trace 0 and the per-layer metrics with --trace 1.  A traced run
also writes its spans to bench/out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# one thread: numpy's BLAS would otherwise use every core for the checks
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MIN_PASSES = 2
SETUP_REPEATS = 4  # fresh interpreters timed for setup_s, besides this one


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this process's set-up time and exit")
    return ap.parse_args(argv)


def _import_package():
    """Import peisert from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "peisert", "__init__.py")):
        sys.exit(f"no peisert package under {SRC}")
    sys.path.insert(0, SRC)
    import peisert
    if os.path.dirname(os.path.dirname(os.path.abspath(peisert.__file__))) != SRC:
        sys.exit(f"peisert imported from {peisert.__file__}, not {SRC}")


def _setup_seconds(args, own: float) -> float:
    """Median set-up time over this process and fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _certify(times_by_graph: dict) -> float:
    """Sum over graphs of the graph's median op time."""
    return sum(statistics.median(ts) for ts in times_by_graph.values())


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    ops = workloads.WORKLOADS[args.workload](args.seed)
    own_setup = time.perf_counter() - _START
    if args.setup_only:
        print(repr(own_setup))
        return 0
    setup_s = _setup_seconds(args, own_setup)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    rng = random.Random(args.seed)
    verified: dict[str, set] = {op.name: set() for op in ops}
    times: dict[str, list] = {op.name: [] for op in ops}
    traces = []
    attempted = failed = 0
    correct = True
    t_start = time.perf_counter()
    last_pass = 0.0
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - t_start + last_pass <= args.seconds:
        p0 = time.perf_counter()
        if tracer is not None:
            tracer.measure_peaks = passes == 0
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            attempted += 1
            gc.collect()
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    out = op.run()
                    wall = time.perf_counter() - t0
                    trace = None
                else:
                    out, trace = tracer.run_op(op.run)
                    wall = trace.wall_s
            except Exception:
                failed += 1
                sys.stderr.write(f"op {op.name} raised:\n{traceback.format_exc()}")
                continue
            try:
                key = checks.digest(out)
                if key not in verified[op.name]:
                    op.check(out)
                    verified[op.name].add(key)
            except checks.CheckFailed as e:
                failed += 1
                if not isinstance(e, checks.SearchTimedOut):
                    correct = False
                sys.stderr.write(f"op {op.name} failed its check: {e}\n")
                continue
            del out
            times[op.name].append(wall)
            if trace is not None:
                if abs(sum(trace.self_s.values()) - trace.wall_s) > 1e-6:
                    correct = False
                    sys.stderr.write(f"op {op.name}: span self times do not sum to its wall time\n")
                traces.append((passes, op.name, trace))
        last_pass = time.perf_counter() - p0
        passes += 1

    done = {name: ts for name, ts in times.items() if ts}
    if len(done) < len(times):
        correct = False
        sys.stderr.write("some graph has no successful op\n")
    if tracer is None:
        metrics = {
            "certify_s": _metric(_certify(done), "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": _metric(setup_s, "s"),
        }
    else:
        tracer.uninstall()
        metrics = _layer_metrics(traces)
        _write_spans(args, traces)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_metrics(traces) -> dict:
    """Per-op means of span self times and counters over the passes run
    without tracemalloc; peaks are maxima over the first pass, which
    measures them."""
    import tracing

    timed = [t for pass_no, _, t in traces if pass_no > 0]
    nops = max(len(timed), 1)
    metrics = {}
    for name in [name for _, _, name in tracing.SPANS] + [tracing.ROOT]:
        key = name + ("_self_s" if name in tracing.SELF_NAMED else "_s")
        metrics[key] = _metric(sum(t.self_s.get(name, 0.0) for t in timed) / nops, "s")
    counts = sorted(name + ".calls" for name in tracing.COUNTED_SPANS) + list(tracing.WORK_COUNTS)
    for name in counts:
        metrics[name] = _metric(sum(t.counts.get(name, 0) for t in timed) / nops, "count")
    for name in sorted(tracing.PEAK_SPANS):
        peak = max((t.peak_mb.get(name, 0.0) for pass_no, _, t in traces if pass_no == 0),
                   default=0.0)
        metrics[name + "_peak_mb"] = _metric(peak, "MB")
    walls: dict[str, list] = {}
    for pass_no, graph, t in traces:
        if pass_no > 0:
            walls.setdefault(graph, []).append(t.wall_s)
    metrics["certify_traced_s"] = _metric(_certify(walls), "s")
    return metrics


def _write_spans(args, traces):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as fh:
        for op_id, (pass_no, graph, trace) in enumerate(traces):
            for sid, parent, name, t0, t1 in trace.spans:
                fh.write(json.dumps({"op": op_id, "pass": pass_no, "graph": graph,
                                     "span": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
