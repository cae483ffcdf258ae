#!/usr/bin/env python3
"""Compare two versions of the program on the repository benchmark.

Collect runs, alternating which side goes first in each pair, from two
checkouts (parent and change) into one JSON-lines file:

    python3 perfbench/compare.py collect PARENT_DIR CHANGE_DIR \\
        --out runs.jsonl [--workloads a,b] [--pairs 10] [--seed 1]

Then report one row per workload x end-to-end metric, with each side's
median and quartiles, judged against BENCHMARK.json's bounds:

    python3 perfbench/compare.py report runs.jsonl

A row reads
  worse       the change's median is worse than the parent's by more
              than the bound (a regression);
  unresolved  the run-to-run spread (quartile distance over median) of
              either side exceeds the bound, unless every change run is
              better than every parent run;
  better      the change wins at least nine tenths of the pairs and the
              medians differ by more than the parent's own spread;
  same        otherwise.
Pairs are matched by seed. Exit status is 1 when any row is worse or
any run was incorrect or failed a different share of operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def run_once(checkout, bench, workload, seed):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def collect(args):
    bench = load_benchmark(os.path.join(args.change, "BENCHMARK.json"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    sides = [("parent", args.parent), ("change", args.change)]
    with open(args.out, "a") as out:
        for i in range(args.pairs):
            seed = args.seed + i
            order = sides if i % 2 == 0 else sides[::-1]
            for workload in workloads:
                for side, checkout in order:
                    result = run_once(checkout, bench, workload, seed)
                    out.write(json.dumps({"side": side,
                                          "workload": workload,
                                          "seed": seed,
                                          "result": result}) + "\n")
                    out.flush()
                    print(f"pair {i} {workload} {side}: "
                          f"{'ok' if result else 'FAILED'}",
                          file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(args):
    bench = load_benchmark(args.benchmark)
    runs = {}
    for line in open(args.runs):
        rec = json.loads(line)
        runs.setdefault((rec["workload"], rec["side"]), {})[
            rec["seed"]] = rec["result"]
    bad = False
    header = (f"{'workload':14s} {'metric':22s} {'parent q1/med/q3':>30s} "
              f"{'change q1/med/q3':>30s} {'delta':>8s} {'bound':>6s} "
              f"verdict")
    print(header)
    for w in bench["workloads"]:
        name = w["name"]
        parent = runs.get((name, "parent"), {})
        change = runs.get((name, "change"), {})
        for side, results in (("parent", parent), ("change", change)):
            broken = [s for s, r in results.items()
                      if r is None or not r["correct"]]
            if broken:
                print(f"{name}: {side} runs incorrect or failed at "
                      f"seeds {broken}")
                bad = True
        shares = {side: {round(r["failed"] / r["attempted"], 12)
                         for r in results.values() if r}
                  for side, results in (("parent", parent),
                                        ("change", change))}
        if shares["parent"] != shares["change"]:
            print(f"{name}: failed share differs: {shares}")
            bad = True
        seeds = sorted(set(parent) & set(change))
        seeds = [s for s in seeds if parent[s] and change[s]]
        if not seeds:
            continue
        for m in bench["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "lower" else -1.0
            pv = [parent[s]["metrics"][metric]["value"] for s in seeds]
            cv = [change[s]["metrics"][metric]["value"] for s in seeds]
            pq, cq = quartiles(pv), quartiles(cv)
            delta = sign * (cq[1] - pq[1]) / pq[1]  # > 0: change worse
            spread = max((pq[2] - pq[0]) / pq[1], (cq[2] - cq[0]) / cq[1])
            wins = sum(1 for p, c in zip(pv, cv) if sign * (c - p) < 0)
            all_better = (max(sign * v for v in cv)
                          < min(sign * v for v in pv))
            if delta > bound:
                verdict = "worse"
                bad = True
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif (wins >= 0.9 * len(seeds)
                  and -delta > (pq[2] - pq[0]) / pq[1]):
                verdict = "better"
            else:
                verdict = "same"
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{name:14s} {metric:22s} {fmt(pq):>30s} {fmt(cq):>30s} "
                  f"{100 * delta:+7.1f}% {bound:6.2f} {verdict}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--seed", type=int, default=1)
    r = sub.add_parser("report")
    r.add_argument("runs")
    r.add_argument("--benchmark",
                   default=os.path.join(os.path.dirname(HERE),
                                        "BENCHMARK.json"))
    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args)
        return 0
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
