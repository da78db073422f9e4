#!/usr/bin/env python3
"""Steadiness and reproducibility checks for the end-to-end benchmark.

    python3 e2ebench/check.py spread [--runs 10] [--workloads a,b]
    python3 e2ebench/check.py repro  [--seed 7] [--workloads a,b]

spread: runs each workload --runs times with seeds 1..N (--trace 0) and
prints, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them,
against the bound in BENCHMARK.json: "steady" below a third of the bound,
"within" up to the bound, "WIDE" beyond it. Exits 1 if any spread, setup_s's
included, is WIDE.

repro: runs each workload twice with the same seed in both modes and
checks that the request streams (stream_digest) and the count metrics,
which do not depend on timing, come out identical: resp_bytes, the cache
and memo hit rates, hits per query, OS nodes, selection operations and
back-end SELECTs per hit, frames in. Exits 1 on any difference.

Run from the repository root; both drive e2ebench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COUNT_METRICS = {
    0: ["resp_bytes"],
    1: ["api.resp_bytes.mean", "serve.cache_hit_rate", "search.memo_hit_rate",
        "search.hits_per_query", "core.os_nodes.mean", "core.select_ops.mean",
        "core.backend_selects.mean", "net.frames_in",
        "net.max_queued_bytes"],
}


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit("%s seed %d trace %d failed (exit %d)" %
                         (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith("stream_digest "):
            metrics["stream_digest"] = line.split()[1]
    return metrics


def spread(args, bench):
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            for k, v in run(workload, seed, 0, bench["run_seconds"]).items():
                if k != "stream_digest":
                    values.setdefault(k, []).append(v)
        print("%s (%d runs)" % (workload, args.runs))
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median if median else float("inf")
            if share < metric["bound"] / 3:
                verdict = "steady"
            elif share <= metric["bound"]:
                verdict = "within"
            else:
                verdict = "WIDE"
                ok = False
            print("  %-16s median %12.4f %-5s spread %.4f  bound %.2f  %-6s "
                  "[%s]" %
                  (metric["name"], median, metric["unit"], share,
                   metric["bound"], verdict,
                   " ".join("%.4g" % v for v in vals)))
    return ok


def repro(args, bench):
    ok = True
    for workload in args.workloads:
        for trace, names in COUNT_METRICS.items():
            seconds = bench["run_seconds"]
            first = run(workload, args.seed, trace, seconds)
            second = run(workload, args.seed, trace, seconds)
            for name in ["stream_digest"] + names:
                same = first[name] == second[name]
                ok = ok and same
                print("%-12s %-28s %18s %18s %s" %
                      (workload, name, first[name], second[name],
                       "same" if same else "DIFFERENT"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("spread", "repro"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    bench = benchmark()
    args.workloads = (args.workloads.split(",") if args.workloads else
                      [w["name"] for w in bench["workloads"]])
    ok = spread(args, bench) if args.mode == "spread" else repro(args, bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
