#!/usr/bin/env python3
"""Checks on the benchmark itself, run from the root of a checkout.

    python3 perfbench/check.py spread --workload bundle-socket --runs 10 --save a.json
    python3 perfbench/check.py spread --workload bundle-socket --first-seed 11 --against a.json
    python3 perfbench/check.py determinism --workload shard-2of3-agg

spread: runs the workload once per seed (1..runs) and prints, for every
end-to-end metric, the median and the distance between the first and
third quartiles as a share of the median (Python's
statistics.quantiles, n=4), next to the bound BENCHMARK.json fixes.
It fails when a spread reaches its bound (setup_s is exempt: its bound
applies to medians only) and flags one at a third of its bound, the
margin the benchmark is tuned to.  With --save FILE it writes the
series' medians; with --against FILE it also fails when a median is
worse than the saved series' by more than the metric's bound.

determinism: runs a traced workload twice on one seed and once on
another.  Every exact counter must repeat on the same seed, and the
other seed must produce a different document.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: %d of %d queries failed" %
                 (workload, seed, result["failed"], result["attempted"]))
    return lines, result


def spread(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        _, result = run(args.workload, seed, seconds, 0)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, v["value"])
                                              for k, v in result["metrics"].items())),
              flush=True)
    failures = []
    medians = {}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        q1, med, q3 = statistics.quantiles(values[name], n=4)
        medians[name] = med
        share = (q3 - q1) / med
        flag = ""
        if name != "setup_s":
            if share >= bound:
                flag = "  <-- FAILS: at or above the bound"
                failures.append("%s spread %.2f%%" % (name, 100 * share))
            elif share >= bound / 3:
                flag = "  <-- at least a third of the bound"
        print("%-28s median %-14.6g spread %6.2f%%  bound %4.0f%%%s" %
              (name, med, 100 * share, 100 * bound, flag))
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            shift = medians[name] / before[name] - 1
            worse = shift if metric["better"] == "lower" else -shift
            verdict = "ok"
            if worse > bound:
                verdict = "FAILS: worse by more than the bound"
                failures.append("%s median %+.2f%%" % (name, 100 * shift))
            print("%-28s median %-14.6g was %-14.6g shift %+7.2f%%  %s" %
                  (name, medians[name], before[name], 100 * shift, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    if failures:
        sys.exit("spread: FAILED: " + "; ".join(failures))
    print("spread: ok")


def exact_counters(lines):
    digest = next(line.split("digest ")[1].split(")")[0] for line in lines
                  if line.startswith("workload "))
    exact = {line.split()[1]: line.split()[2] for line in lines if line.startswith("exact ")}
    return digest, exact


def determinism(args):
    a_digest, a = exact_counters(run(args.workload, args.seed, args.seconds, 1)[0])
    b_digest, b = exact_counters(run(args.workload, args.seed, args.seconds, 1)[0])
    c_digest, _ = exact_counters(run(args.workload, args.seed + 1, args.seconds, 1)[0])
    ok = True
    if a_digest != b_digest:
        print("seed %d generated two different documents" % args.seed)
        ok = False
    for name in sorted(a):
        same = a[name] == b.get(name)
        ok &= same
        print("%-40s %-22s %s" % (name, a[name], "ok" if same else "differs: %s" % b.get(name)))
    if c_digest == a_digest:
        print("seeds %d and %d generated the same document" % (args.seed, args.seed + 1))
        ok = False
    print("determinism: %s" % ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--seconds", type=int, default=0, help="default: BENCHMARK.json run_seconds")
    s.add_argument("--save", help="write this series' medians to a JSON file")
    s.add_argument("--against", help="fail on a median worse than this saved series'")
    s.set_defaults(func=spread)
    d = sub.add_parser("determinism")
    d.add_argument("--workload", required=True)
    d.add_argument("--seed", type=int, default=7)
    d.add_argument("--seconds", type=int, default=2)
    d.set_defaults(func=determinism)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
