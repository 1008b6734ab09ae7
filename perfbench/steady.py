#!/usr/bin/env python3
"""Steadiness command for the benchmark in run.py.

    python3 perfbench/steady.py [--runs N] [--seconds S] [--workloads a,b]
    python3 perfbench/steady.py --selftest

First a self-test: every output checker of run.py (and the routing checker
of pb_tool) is fed a corrupted output and must reject it.  Then, per
workload, two sets of N untraced runs on distinct seeds.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile range over the median) and whether the sets agree within the
metric's bound from BENCHMARK.json: each set's spread within the bound, the
two medians apart by no more than the bound in either direction
(|b - a| / min(a, b)), and the same share of failed operations in both
sets.
Exit code 0 when the self-test passes and every workload agrees.
"""
import argparse
import copy
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def selftest():
    """Each checker must pass a good output and reject a corrupted one."""
    good = {"total.offered": 100, "total.delivered": 90, "total.dropped": 4,
            "total.residual": 6, "total.rejected_queue_full": 7,
            "fabric.hop0.sent": 50, "fabric.hop1.accepted": 50, "fabric.hop1.sent": 0}
    replies = [
        {"kind": "hot", "spec": "a", "cache_hit": False, "offered": 10,
         "delivered": 10, "dropped": 0, "residual": 0},
        {"kind": "hot", "spec": "a", "cache_hit": True, "offered": 12,
         "delivered": 11, "dropped": 1, "residual": 0},
        {"kind": "fabric", "spec": "f", "cache_hit": False, "offered": 5,
         "delivered": 5, "dropped": 0, "residual": 0},
    ]
    scrape = {"total.offered": 27, "total.delivered": 26, "total.dropped": 1,
              "total.residual": 0, "serve.cache.hits": 1, "serve.cache.misses": 1,
              "cache.evictions": 0}

    def bumped(d, key, by=1):
        d = copy.deepcopy(d)
        d[key] += by
        return d

    def reply_bumped(i, key, value=None):
        r = copy.deepcopy(replies)
        r[i][key] = value if value is not None else r[i][key] + 1
        return r

    cases = [
        ("conservation", lambda c: bench.check_conservation(c), good,
         bumped(good, "total.delivered")),
        ("seeded arrivals", lambda c: bench.check_arrivals(c, 107), good,
         bumped(good, "total.offered")),
        ("hop k+1 accepted == hop k sent", bench.check_hops, good,
         bumped(good, "fabric.hop1.accepted")),
        ("epochs_in_flight identity",
         lambda c: bench.check_same(bench.schedule_free(good), bench.schedule_free(c), "E"),
         dict(good, **{"fabric.pipeline.dispatches": 9}), bumped(good, "total.dropped")),
        ("reply delivered + 1 vs scrape",
         lambda r: "; ".join(bench.check_replies(r, scrape, 2)), replies,
         reply_bumped(1, "delivered")),
        ("cache hits vs replies",
         lambda r: "; ".join(bench.check_replies(r, scrape, 2)), replies,
         reply_bumped(0, "cache_hit", True)),
    ]
    ok = True
    for name, check, good_out, bad_out in cases:
        passes_good = check(good_out) == ""
        rejects_bad = check(bad_out) != ""
        print("selftest %-32s good accepted: %-5s corrupted rejected: %s"
              % (name, passes_good, rejects_bad))
        ok &= passes_good and rejects_bad
    bench.build()
    p = subprocess.run([bench.tool(), "selftest-routing"], capture_output=True, text=True)
    for line in p.stdout.splitlines():
        print("selftest routing: " + line)
    ok &= p.returncode == 0
    return ok


def one_run(workload, seed, seconds):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                        workload, "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print("  seed %d failed: %s" % (seed, p.stderr[-400:]))
        return None
    return json.loads(lines[-1])


def stats(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q[0], q[2], (q[2] - q[0]) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads")
    ap.add_argument("--selftest", action="store_true", help="run only the self-test")
    args = ap.parse_args()

    ok = selftest()
    print("selftest: %s" % ("pass" if ok else "FAIL"))
    if args.selftest:
        return 0 if ok else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    for workload in names:
        sets = []
        for s in range(2):
            seeds = range(1 + s * args.runs, 1 + (s + 1) * args.runs)
            results = [r for r in (one_run(workload, seed, seconds) for seed in seeds) if r]
            sets.append(results)
        if any(len(res) < 4 for res in sets):
            print("%s: too few successful runs" % workload)
            ok = False
            continue
        shares = [{r["failed"] / r["attempted"] for r in res} for res in sets]
        agree = shares[0] == shares[1] and len(shares[0]) == 1
        correct = all(r["correct"] for res in sets for r in res)
        print("%s: failed share %s, every run correct: %s" % (workload, shares, correct))
        agree &= correct
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = stats([r["metrics"][name]["value"] for r in sets[0]])
            b = stats([r["metrics"][name]["value"] for r in sets[1]])
            both = stats([r["metrics"][name]["value"] for res in sets for r in res])
            apart = abs(b[0] - a[0]) / min(a[0], b[0])
            fine = apart <= bound and a[3] <= bound and b[3] <= bound
            agree &= fine
            print("  %-16s med %.5g [%.5g, %.5g] spread %.3f | med %.5g [%.5g, %.5g] "
                  "spread %.3f | all runs spread %.3f | medians apart %.3f, bound %.2f %s"
                  % (name, a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], both[3], apart,
                     bound, "ok" if fine else "OUT"))
        print("%s: %s" % (workload, "agree" if agree else "DISAGREE"))
        ok &= agree
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
