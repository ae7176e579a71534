"""Steadiness study: run the benchmark once per seed and summarise.

    python3 bench/study.py run --workloads dense-m2,build-q49 --seeds 1-10 \
        --out bench/out/set-a.jsonl
    python3 bench/study.py summary bench/out/set-a.jsonl [bench/out/set-b.jsonl]

`run` appends one JSON line per run (workload, seed, wall time, the
benchmark's result).  `summary` prints, per workload and metric, the
median, the quartiles from statistics.quantiles(values, n=4) and their
distance as a share of the median; given a second file it also prints the
change of each median from the first file to the second.
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


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args):
    settings = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    with open(args.out, "a") as fh:
        for workload in args.workloads.split(","):
            for seed in _seeds(args.seeds):
                cmd = settings["command"] + ["--workload", workload, "--seed", str(seed),
                                             "--seconds", str(settings["run_seconds"]),
                                             "--trace", str(args.trace)]
                t0 = time.perf_counter()
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                wall = time.perf_counter() - t0
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "wall_s": wall, "result": result}
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                print(workload, seed, f"{wall:.1f}s", result["attempted"], result["failed"],
                      {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                      flush=True)


def _load(path):
    by_key: dict[tuple, list] = {}
    for line in open(path):
        rec = json.loads(line)
        by_key.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return by_key


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def summary(args):
    sets = [_load(p) for p in args.files]
    for key in sorted(sets[0]):
        recs = sets[0][key]
        walls = [r["wall_s"] for r in recs]
        fails = {(r["result"]["failed"], r["result"]["attempted"]) for r in recs}
        print(f"\n{key[0]} (trace {key[1]}): {len(recs)} runs, wall median "
              f"{statistics.median(walls):.1f}s max {max(walls):.1f}s, "
              f"correct {all(r['result']['correct'] for r in recs)}, (failed, attempted) {sorted(fails)}")
        for metric in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in recs]
            if len(values) < 2 or statistics.median(values) == 0:
                print(f"  {metric:44s} median {statistics.median(values):.6g}")
                continue
            med, q1, q3, spread = _stats(values)
            line = f"  {metric:44s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
            for other in sets[1:]:
                if key in other:
                    o = [r["result"]["metrics"][metric]["value"] for r in other[key]]
                    line += f"  next median {statistics.median(o):.6g} ({statistics.median(o) / med - 1:+.4f})"
            print(line)


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    args = ap.parse_args()
    run(args) if args.cmd == "run" else summary(args)


if __name__ == "__main__":
    main()
