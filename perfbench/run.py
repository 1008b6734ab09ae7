#!/usr/bin/env python3
"""End-to-end benchmark of the partial-concentrator switch system.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the tree in Release (perfbench/_build), runs one workload through the
program's user-facing entry points for S seconds of measurement, checks the
outputs, and prints one JSON object as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Host times are in reference units (ref-s, ref-ms, ref-ns):
raw seconds times NOMINAL_CALIB_S over the calibration kernel's time
measured next to them.  setup_s alone is in raw seconds (s).  Progress, raw seconds and calibration factors go to
stderr.  See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "_build")
RUNS = os.path.join(HERE, "_runs")
TARGETS = ["pb_tool", "pb_alloc", "pcs_serve", "pcs_served"]

# The calibration kernel's time on the reference host (4-vCPU x86-64,
# AVX-512); every host-time figure is scaled by NOMINAL_CALIB_S / measured.
NOMINAL_CALIB_S = 0.048

WORKLOADS = ["switch-campaign", "fabric-campaign", "route-batch", "serve-daemon"]

E2E = {
    "setup_s": "s",
    "msgs_per_s": "msgs/ref-s",
    "ops_per_s": "ops/ref-s",
    "request_p50_ms": "ref-ms",
    "request_p99_ms": "ref-ms",
    "peak_rss_mb": "MB",
    "allocs_per_kmsg": "allocs/kmsg",
}

PER_LAYER = {
    "runtime.inject_ns_per_msg": "ref-ns",
    "runtime.present_ns_per_msg": "ref-ns",
    "runtime.resolve_ns_per_msg": "ref-ns",
    "runtime.route_dispatch_ns_per_msg": "ref-ns",
    "plan.kernel_ns_per_msg": "ref-ns",
    "switch.compile_ms": "ref-ms",
    "fabric.alloc_ns_per_msg": "ref-ns",
    "fabric.route_ns_per_msg": "ref-ns",
    "fabric.resolve_ns_per_msg": "ref-ns",
    "fabric.hop_ns_per_msg": "ref-ns",
    "fabric.patterns_per_dispatch": "patterns",
    "pool.ctx_switches_per_dispatch": "count",
    "serve.encode_ns": "ref-ns",
    "serve.decode_ns": "ref-ns",
    "serve.campaign_ms": "ref-ms",
    "serve.wait_ms": "ref-ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.fabric_request_ms": "ref-ms",
    "serve.scrape_ms": "ref-ms",
    "obs.trace_overhead": "ratio",
}

# route-batch runs only by hand: its per-call p99 is not steady on the
# reference host (see README), so BENCHMARK.json leaves it and these
# route-batch-only layer metrics out.
ROUTE_BATCH_LAYERS = {
    "plan.route_ns_per_wire": "ref-ns",
    "plan.allocs_per_call": "allocs",
    "pool.cpu_per_wall": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run (no tree, build failure, dead daemon)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_metrics(samples):
    """request_p50_ms and request_p99_ms over every latency sample of the run."""
    log("latency: %d samples, p50 %.4f ms, p99 %.4f ms, max %.4f ms"
        % (len(samples), percentile(samples, 50), percentile(samples, 99), max(samples)))
    return {"request_p50_ms": percentile(samples, 50),
            "request_p99_ms": percentile(samples, 99)}


def median_rate(amounts, times):
    """Median over the run's repetitions of amount / time."""
    return median([a / t for a, t in zip(amounts, times)])


def mix_seed(seed, salt):
    return (seed * 1000003 + salt) % (1 << 62)


# --- build -------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no source tree next to perfbench/ to build")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
                   stdout=sys.stderr, check=True)


def tool():
    return os.path.join(BUILD, "pb_tool")


def example(name):
    return os.path.join(BUILD, "repo", "examples", name)


# --- processes -----------------------------------------------------------------

# Steal is CPU time the hypervisor gave other guests while this machine's
# vCPUs had work.  It comes in waves of a few seconds; inside one, a parallel
# route_batch call that loses a vCPU mid-dispatch waits 5-30 ms for it.  No
# change to the program causes or removes it, so time metrics are taken over
# the timed sections (commands, blocks of calls, windows of rounds) in which
# it stayed within STEAL_LIMIT of the host's CPU time.  The screen reads the
# host's counter only, never the measured times.
STEAL_LIMIT = 0.01
# Pooled latency samples the serve-daemon screen keeps at the least, so that
# ten or more lie beyond its p99.
MIN_LATENCY_SAMPLES = 1000


def host_steal():
    """(steal, total) CPU ticks of the host so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
        return v[7], sum(v)
    except (OSError, ValueError, IndexError):
        return 0, 0


def steal_share(a, b):
    return (b[0] - a[0]) / max(b[1] - a[1], 1)


def calm(shares, what, least=1):
    """Indices of the timed sections whose steal share stayed within
    STEAL_LIMIT; when fewer than a quarter of them, or fewer than `least`,
    did, that many sections with the least steal."""
    keep = [i for i, share in enumerate(shares) if share <= STEAL_LIMIT]
    want = min(len(shares), max(least, len(shares) // 4))
    if len(keep) < want:
        keep = sorted(sorted(range(len(shares)), key=lambda i: shares[i])[:want])
    log("steal screen, %s: %d of %d sections kept (steal share %.4f overall)"
        % (what, len(keep), len(shares), statistics.fmean(shares) if shares else 0.0))
    return keep


class Host:
    """Program processes of one run: the allocation counter preloaded into
    each, their resource usage, and the calibration kernel next to them."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.alloc_file = os.path.join(workdir, "allocs.txt")
        self.env = dict(os.environ,
                        LD_PRELOAD=os.path.join(BUILD, "libpb_alloc.so"),
                        PB_ALLOC_OUT=self.alloc_file)
        self.maxrss_kb = 0
        self.last_steal = 0.0  # steal share during the last run()
        self.counted = set()  # pids whose allocations are counted
        self.calib = subprocess.Popen([tool(), "calib-server"], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def calibrate(self):
        self.calib.stdin.write("c\n")
        self.calib.stdin.flush()
        line = self.calib.stdout.readline()
        if not line:
            raise BenchError("calibration kernel exited")
        return float(line)

    def close(self):
        if self.calib.poll() is None:
            self.calib.stdin.close()
            self.calib.wait(timeout=30)

    def note_usage(self, ru):
        self.maxrss_kb = max(self.maxrss_kb, ru.ru_maxrss)

    def run(self, args, tag, counted=False):
        """Runs one program command to completion; returns (wall seconds,
        rusage, exit code, stdout).  The allocations and peak resident set
        of `counted` commands go into allocs_per_kmsg and peak_rss_mb."""
        out_path = os.path.join(self.workdir, tag + ".out")
        err_path = os.path.join(self.workdir, tag + ".err")
        with open(out_path, "w") as fo, open(err_path, "w") as fe:
            steal0 = host_steal()
            t0 = time.monotonic()
            proc = subprocess.Popen(args, cwd=self.workdir, env=self.env,
                                    stdout=fo, stderr=fe)
            if counted:
                self.counted.add(proc.pid)
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
            self.last_steal = steal_share(steal0, host_steal())
            proc.returncode = os.waitstatus_to_exitcode(status)
        if counted:
            self.note_usage(ru)
        with open(out_path) as f:
            out = f.read()
        if proc.returncode != 0:
            with open(err_path) as f:
                log("%s exited %d: %s" % (tag, proc.returncode, f.read()[-2000:]))
        return wall, ru, proc.returncode, out

    def total_allocs(self):
        """Allocations of the counted processes, from the counter's exit lines."""
        if not os.path.exists(self.alloc_file):
            return 0
        with open(self.alloc_file) as f:
            pairs = [line.split() for line in f if line.strip()]
        return sum(int(n) for pid, n in pairs if int(pid) in self.counted)


def factor(*calib_s):
    """Raw seconds -> reference seconds, from the kernel timings around them."""
    return NOMINAL_CALIB_S / (sum(calib_s) / len(calib_s))


def write_config(path, keys):
    with open(path, "w") as f:
        for k, v in keys.items():
            f.write("%s = %s\n" % (k, v))


# --- trace reading -----------------------------------------------------------------

def read_spans(path):
    """Chrome trace events of a pcs_serve trace= file, grouped by campaign
    (pid): list of (name, cat, tid, ts_us, dur_us, args)."""
    with open(path) as f:
        doc = json.load(f)
    groups = {}
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        groups.setdefault(e.get("pid", 0), []).append(
            (e["name"], e.get("cat", ""), e.get("tid", 0), float(e["ts"]),
             float(e["dur"]), e.get("args", {})))
    return groups


def self_times(spans):
    """Per span name: total duration minus the direct children on its thread."""
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s[2], []).append(s)
    self_us = {}
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s[3], -s[4]))
        stack = []  # [name, end, child_total]
        def close(item):
            self_us[item[0]] = self_us.get(item[0], 0.0) + item[3] - item[2]
        for name, _, _, ts, dur, _ in tid_spans:
            while stack and ts >= stack[-1][1] - 1e-9:
                close(stack.pop())
            if stack:
                stack[-1][2] += dur
            stack.append([name, ts + dur, 0.0, dur])
        while stack:
            close(stack.pop())
    return self_us


def union_within(intervals, windows):
    """Length of the union of `intervals` inside the union of `windows`."""
    def merge(iv):
        out = []
        for a, b in sorted(iv):
            if out and a <= out[-1][1]:
                out[-1][1] = max(out[-1][1], b)
            else:
                out.append([a, b])
        return out
    ivs, wins = merge(intervals), merge(windows)
    total, j = 0.0, 0
    for a, b in ivs:
        while j < len(wins) and wins[j][1] <= a:
            j += 1
        k = j
        while k < len(wins) and wins[k][0] < b:
            total += max(0.0, min(b, wins[k][1]) - max(a, wins[k][0]))
            k += 1
    return total


def layer_profile(trace_paths, route_span):
    """Self time per span name, kernel wall inside `route_span` spans, route
    span totals, dispatch count and patterns routed, over trace files."""
    prof = {"self_us": {}, "kernel_us": 0.0, "route_us": 0.0, "dispatches": 0,
            "patterns": 0}
    for path in trace_paths:
        for spans in read_spans(path).values():
            for name, us in self_times(spans).items():
                prof["self_us"][name] = prof["self_us"].get(name, 0.0) + us
            kernel = [(s[3], s[3] + s[4]) for s in spans if s[1].startswith("plan")]
            routes = [(s[3], s[3] + s[4]) for s in spans if s[0] == route_span]
            prof["kernel_us"] += union_within(kernel, routes)
            prof["route_us"] += sum(b - a for a, b in routes)
            prof["dispatches"] += len(routes)
            prof["patterns"] += sum(int(s[5].get("patterns", 0)) for s in spans
                                    if s[1] == "plan.batch")
    return prof


# --- checks (pure functions of program outputs; see steady.py --selftest) ---

def totals(counters):
    return {k: counters.get("total." + k, 0)
            for k in ("offered", "delivered", "dropped", "residual",
                      "rejected_queue_full")}


def check_conservation(counters):
    t = totals(counters)
    if t["offered"] != t["delivered"] + t["dropped"] + t["residual"]:
        return "offered %d != delivered %d + dropped %d + residual %d" % (
            t["offered"], t["delivered"], t["dropped"], t["residual"])
    if t["delivered"] <= 0:
        return "campaign delivered nothing"
    return ""


def check_arrivals(counters, arrivals):
    t = totals(counters)
    if t["offered"] + t["rejected_queue_full"] != arrivals:
        return "offered %d + rejected_queue_full %d != %d seeded arrivals" % (
            t["offered"], t["rejected_queue_full"], arrivals)
    return ""


def check_hops(counters):
    hop = 0
    while "fabric.hop%d.sent" % (hop + 1) in counters or \
            "fabric.hop%d.accepted" % (hop + 1) in counters:
        sent = counters.get("fabric.hop%d.sent" % hop)
        acc = counters.get("fabric.hop%d.accepted" % (hop + 1))
        if sent != acc:
            return "hop %d sent %s but hop %d accepted %s" % (hop, sent, hop + 1, acc)
        hop += 1
    if hop == 0:
        return "no per-hop counters"
    return ""


def untraced_counters(counters):
    """Campaign counters without the tracer's profile.* roll-up."""
    return {k: v for k, v in counters.items() if not k.startswith("profile.")}


def schedule_free(counters):
    """Counters that must not depend on epochs_in_flight."""
    return {k: v for k, v in untraced_counters(counters).items()
            if not k.startswith("fabric.pipeline.")}


def check_same(a, b, what):
    """Two counter sets (dicts, or lists of them campaign by campaign) must
    be identical; names the first differing counters."""
    if isinstance(a, list):
        if len(a) != len(b):
            return "%s: %d vs %d campaigns" % (what, len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            why = check_same(x, y, "%s, campaign %d," % (what, i))
            if why:
                return why
        return ""
    if a != b:
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        return "%s differ in %s" % (what, ", ".join(diff[:5]))
    return ""


def check_replies(replies, scrape_counters, conns):
    """Daemon-level identities between the replies a client saw and the
    final scrape of the daemon's registry."""
    problems = []
    for key in ("offered", "delivered", "dropped", "residual"):
        want = sum(r[key] for r in replies)
        got = scrape_counters.get("total." + key, -1)
        if want != got:
            problems.append("scrape total.%s %d != sum of replies %d" % (key, got, want))
    # Each single-switch request checks out one plan; fabric requests may
    # add checkouts of their own once fabric nodes use the cache.
    single = [r for r in replies if r["kind"] in ("hot", "distinct")]
    hits = scrape_counters.get("serve.cache.hits", 0)
    misses = scrape_counters.get("serve.cache.misses", 0)
    if hits + misses < len(single):
        problems.append("cache hits %d + misses %d < %d single-switch requests"
                        % (hits, misses, len(single)))
    if hits < sum(1 for r in single if r["cache_hit"]):
        problems.append("scrape cache hits < single-switch replies marked cache_hit")
    specs = {r["spec"] for r in single}
    evictions = scrape_counters.get("cache.evictions", 0)
    if misses < len(specs):
        problems.append("fewer misses (%d) than distinct specs (%d)" % (misses, len(specs)))
    # Each miss is a first compile, a concurrent rebuild of the same key
    # (at most one per other connection), or a recompile after an eviction.
    if hits < len(single) - conns * (len(specs) + evictions):
        problems.append("cache hits %d below requests %d - %d x (specs %d + evictions %d)"
                        % (hits, len(single), conns, len(specs), evictions))
    return problems


# --- shared campaign-workload loop --------------------------------------------

class Command:
    """One timed pcs_serve command of a round."""

    def __init__(self, tag, wall, work, f, counters, ru, steal):
        self.tag = tag
        self.steal = steal        # host steal share while it ran
        self.wall = wall          # raw seconds, spawn to exit
        self.work = work          # raw seconds minus the round's set-up probe
        self.f = f                # calibration factor around the command
        self.delivered = sum(c["total.delivered"] for c in counters)
        self.campaigns = len(counters)
        self.dispatches = sum(c.get("route_batch_dispatches", 0) for c in counters)
        self.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw


def run_campaign_workload(host, args, commands, probes, arrivals, traced_round):
    """Rounds of pcs_serve commands.  `commands` lists (tag, argv, probe key,
    check group); each round runs every set-up probe, then every command,
    with the calibration kernel between commands.  Returns (rounds as lists
    of Command, the median cold set-up of the first probe in raw seconds,
    problems, attempted, failed, trace files of the traced round)."""
    problems, attempted, failed = [], 0, 0
    first, trace_files, setups = {}, [], []
    last_cal = host.calibrate()
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        idx, rnd = len(rounds), []
        # Set-up probes: the same commands cut to one measured epoch, each a
        # cold set-up in a fresh process.
        probe_wall = {}
        for key, argv in probes.items():
            probe_wall[key], _, rc, _ = host.run(argv, "probe")
            if rc != 0:
                raise BenchError("set-up probe failed")
        setups.append(next(iter(probe_wall.values())))
        last_cal = host.calibrate()
        for tag, argv, pkey, _ in commands:
            extra = []
            if idx == traced_round:
                tf = os.path.join(host.workdir, "trace_%s.json" % tag)
                extra = ["trace=" + tf]
                trace_files.append(tf)
            out = os.path.join(host.workdir, "out_%s.json" % tag)
            wall, ru, rc, _ = host.run(argv + extra + ["out=" + out], tag, counted=True)
            cal = host.calibrate()
            f, last_cal = factor(last_cal, cal), cal
            doc = None
            if rc == 0:
                with open(out) as fh:
                    doc = json.load(fh)
            n_campaigns = len(doc["campaigns"]) if doc else 1
            attempted += n_campaigns
            if doc is None:
                failed += n_campaigns
                continue
            counters = [c["metrics"]["counters"] for c in doc["campaigns"]]
            fabric = "fabric.hops" in doc["campaigns"][0]["metrics"]["gauges"]
            for c in counters:
                why = check_conservation(c)
                if not why and tag in arrivals:
                    why = check_arrivals(c, arrivals[tag])
                if not why and fabric:
                    why = check_hops(c)
                if why:
                    problems.append("%s round %d: %s" % (tag, idx, why))
            # Rounds repeat the same inputs, traced or not: same counters.
            plain = [untraced_counters(c) for c in counters]
            if tag not in first:
                first[tag] = plain
            else:
                why = check_same(first[tag], plain, "%s round %d counters" % (tag, idx))
                if why:
                    problems.append(why)
            rnd.append(Command(tag, wall, max(wall - probe_wall[pkey], 1e-6), f,
                               counters, ru, host.last_steal))
        rounds.append(rnd)
    # Commands of one check group must agree on every counter the schedule
    # does not own (fabric epochs_in_flight 1 vs 4).
    groups = {}
    for tag, _, _, group in commands:
        if group and tag in first:
            groups.setdefault(group, []).append(tag)
    for tags in groups.values():
        for tag in tags[1:]:
            why = check_same([schedule_free(c) for c in first[tags[0]]],
                             [schedule_free(c) for c in first[tag]],
                             "%s vs %s counters" % (tags[0], tag))
            if why:
                problems.append(why)
    setup_s = median(setups)
    log("setup: median of %d cold set-ups %.4f s" % (len(setups), setup_s))
    return rounds, setup_s, problems, attempted, failed, trace_files


def by_tag(rounds):
    """The rounds' commands grouped by tag, each tag's steal-screened."""
    tags = {}
    for rnd in rounds:
        for c in rnd:
            tags.setdefault(c.tag, []).append(c)
    return {tag: [cs[i] for i in calm([c.steal for c in cs], tag)]
            for tag, cs in tags.items()}


def command_work(tags):
    """Per command tag: its median work in ref-s, delivered messages and
    campaigns (identical in every round)."""
    return {tag: (median([c.work * c.f for c in cs]), cs[0].delivered, cs[0].campaigns)
            for tag, cs in tags.items()}


def campaign_e2e(host, rounds, setup_s):
    """A round runs every command once; a round's work in ref-s is the sum
    over commands of each command's median work, so msgs_per_s and
    ops_per_s are those of a median round.  request_p50_ms and
    request_p99_ms are the mean over commands of each command's own
    percentiles of its latency (spawn to exit), so commands of different
    sizes never share one distribution.  Time figures are over each
    command's steal-screened repetitions."""
    for rnd in rounds:
        log("round: " + ", ".join("%s %.4f s raw x %.4f steal %.3f"
                                  % (c.tag, c.work, c.f, c.steal) for c in rnd))
    tags = by_tag(rounds)
    work = command_work(tags)
    work_ref = sum(w for w, _, _ in work.values())
    metrics = {
        "setup_s": setup_s,
        "msgs_per_s": sum(m for _, m, _ in work.values()) / work_ref,
        "ops_per_s": sum(c for _, _, c in work.values()) / work_ref,
        "peak_rss_mb": host.maxrss_kb / 1024.0,
        "allocs_per_kmsg": host.total_allocs()
        / max(sum(c.delivered for rnd in rounds for c in rnd), 1) * 1e3,
    }
    per_tag = [latency_metrics([c.wall * c.f * 1e3 for c in cs])
               for cs in tags.values()]
    for key in ("request_p50_ms", "request_p99_ms"):
        metrics[key] = statistics.fmean(t[key] for t in per_tag)
    return metrics, sum(len(rnd) for rnd in rounds)


def campaign_layers(rounds, trace_files, route_span):
    """Per-layer figures: spans of the traced first round, process counters
    of the untraced rounds."""
    layers = {k: 0.0 for k in PER_LAYER}
    traced, plain = rounds[0], rounds[1:]
    prof = layer_profile(trace_files, route_span)
    msgs = max(sum(c.delivered for c in traced), 1)
    f = median([c.f for c in traced])
    per_msg = lambda us: us * 1e3 * f / msgs
    su = prof["self_us"]
    prefix, names = (("runtime.", ("inject", "present", "resolve"))
                     if route_span == "runtime.route" else
                     ("fabric.", ("alloc", "route", "resolve", "hop")))
    for name in names:
        key = "%s%s_ns_per_msg" % (prefix, name)
        if prefix + name in su:
            layers[key] = per_msg(su[prefix + name])
        else:
            del layers[key]  # a renamed or removed span: the metric is absent
    if route_span == "runtime.route":
        layers["runtime.route_dispatch_ns_per_msg"] = per_msg(
            prof["route_us"] - prof["kernel_us"])
    else:
        layers["fabric.patterns_per_dispatch"] = prof["patterns"] / max(prof["dispatches"], 1)
    layers["plan.kernel_ns_per_msg"] = per_msg(prof["kernel_us"])
    if plain:
        cmds = [c for rnd in plain for c in rnd]
        layers["pool.ctx_switches_per_dispatch"] = (
            sum(c.ctx_switches for c in cmds) / max(sum(c.dispatches for c in cmds), 1))
        work = command_work(by_tag(plain))
        layers["obs.trace_overhead"] = (sum(c.work * c.f for c in traced)
                                        / sum(w for w, _, _ in work.values()) - 1.0)
    return layers


# --- workloads ---------------------------------------------------------------------

SWITCH_CAMPAIGN = {
    "family": "revsort,columnsort", "n": 4096, "m": 3072, "beta": 0.75,
    "lanes": 4, "queue_depth": 4, "policy": "buffer-retry",
    "warmup_epochs": 32, "measure_epochs": 128, "drain_epochs_max": 512,
}
# Revsort(4096, 3072) guarantees m - eps = 3072 - 960 = 2112 of 4096 inputs
# (load 0.516); 0.3 sits inside that bound, 0.65 past it but below m, 0.9
# past m (queues fill, arrivals are refused, the drain can saturate).
SWITCH_LOADS = [0.3, 0.65, 0.9]

FABRICS = {
    "omega": {"family": "revsort", "n": 256, "m": 192, "topology": "omega",
              "hops": 4, "radix": 4, "credits": 8, "alloc": "islip",
              "route": "deterministic", "loads": "0.3,0.6", "queue_depth": 4,
              "warmup_epochs": 16, "measure_epochs": 64, "drain_epochs_max": 256},
    "fattree": {"family": "revsort", "n": 256, "m": 192, "topology": "fattree",
                "hops": 3, "radix": 8, "credits": 8, "alloc": "rr",
                "route": "adaptive", "deflect_max": 2, "loads": "0.3,0.6",
                "queue_depth": 4, "warmup_epochs": 16, "measure_epochs": 256,
                "drain_epochs_max": 256},
}

PROBE = ["warmup_epochs=0", "measure_epochs=1", "drain_epochs_max=0"]


def workload_switch_campaign(host, args):
    cfg = os.path.join(host.workdir, "switch.cfg")
    write_config(cfg, SWITCH_CAMPAIGN)
    epochs = SWITCH_CAMPAIGN["warmup_epochs"] + SWITCH_CAMPAIGN["measure_epochs"]
    arrivals, commands = {}, []
    for i, load in enumerate(SWITCH_LOADS):
        trace = os.path.join(host.workdir, "offered_%d.pcst" % i)
        p = subprocess.run([tool(), "gen-trace", str(SWITCH_CAMPAIGN["n"]),
                            str(SWITCH_CAMPAIGN["lanes"]), str(epochs), repr(load),
                            str(mix_seed(args.seed, i)), trace],
                           capture_output=True, text=True, check=True)
        tag = "load%d" % i
        arrivals[tag] = json.loads(p.stdout)["arrivals"]
        commands.append((tag, [example("pcs_serve"), "--config", cfg, "replay=" + trace],
                         "switch", None))
    probes = {"switch": [example("pcs_serve"), "--config", cfg,
                         "replay=" + os.path.join(host.workdir, "offered_0.pcst")] + PROBE
              + ["out=probe.json"]}
    traced_round = 0 if args.trace else -1
    rounds, setup_s, problems, att, fail, tfiles = run_campaign_workload(
        host, args, commands, probes, arrivals, traced_round)
    if args.trace:
        metrics = campaign_layers(rounds, tfiles, "runtime.route")
        samples = None
    else:
        metrics, samples = campaign_e2e(host, rounds, setup_s)
    return metrics, problems, att, fail, samples


def workload_fabric_campaign(host, args):
    commands, probes = [], {}
    seed = str(mix_seed(args.seed, 17))
    for name, keys in FABRICS.items():
        cfg = os.path.join(host.workdir, name + ".cfg")
        write_config(cfg, dict(keys, seed=seed))
        probes[name] = [example("pcs_serve"), "--config", cfg] + PROBE + ["out=probe.json"]
        for e in (1, 4):
            commands.append(("%s_e%d" % (name, e),
                             [example("pcs_serve"), "--config", cfg,
                              "epochs_in_flight=%d" % e], name, name))
    traced_round = 0 if args.trace else -1
    rounds, setup_s, problems, att, fail, tfiles = run_campaign_workload(
        host, args, commands, probes, {}, traced_round)
    if args.trace:
        metrics = campaign_layers(rounds, tfiles, "fabric.route")
        samples = None
    else:
        metrics, samples = campaign_e2e(host, rounds, setup_s)
    return metrics, problems, att, fail, samples


SETUP_PROBES = 15  # cold set-ups per run of the single-process workloads


def run_route_batch(host, args):
    """pb_tool route-batch with the allocation counter preloaded; answers
    each of its "cal" lines with a calibration-server timing.  Returns (its
    JSON result, rusage, the calibration timings, the host steal share of
    each block)."""
    err = open(os.path.join(host.workdir, "route_batch.err"), "w")
    proc = subprocess.Popen(
        [tool(), "route-batch", str(mix_seed(args.seed, 3)), str(args.seconds),
         "1" if args.trace else "0"], cwd=host.workdir, env=host.env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True)
    calib, steal, result = [], [], None
    try:
        for line in proc.stdout:
            if line.strip() == "cal":
                steal.append(host_steal())
                calib.append(host.calibrate())
                proc.stdin.write("\n")
                proc.stdin.flush()
            elif line.strip():
                result = line
    finally:
        proc.stdin.close()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.close()
    if proc.returncode != 0 or result is None:
        raise BenchError("route-batch run failed")
    host.note_usage(ru)
    return json.loads(result), ru, calib, [steal_share(a, b) for a, b in zip(steal, steal[1:])]


def workload_route_batch(host, args):
    setups = []
    for _ in range(SETUP_PROBES):
        _, _, rc, out = host.run([tool(), "route-setup", repr(time.monotonic())], "setup")
        if rc != 0:
            raise BenchError("route-batch set-up failed")
        setups.append(float(out))
        host.calibrate()
    d, ru, calib, block_steal = run_route_batch(host, args)
    if not d["alloc_counter"]:
        raise BenchError("allocation counter not loaded")
    blocks = d["blocks"]
    facs = [factor(calib[i], calib[i + 1]) for i in range(len(blocks))]
    problems = [d["first_wrong"]] if d["wrong"] else []
    if d["failed"]:
        log("%d route_batch calls failed, first: %s" % (d["failed"], d["first_failure"]))
    log("warm-up: %.4f s raw of routing, not timed" % d["warmup_s"])
    msgs = sum(b["msgs"] for b in blocks) + d["warmup_msgs"]
    plain = [i for i, b in enumerate(blocks) if not b["instrumented"]]
    if args.trace:
        inst = [i for i, b in enumerate(blocks) if b["instrumented"]]
        wires = sum(d["wires_per_call"]) / len(d["wires_per_call"])
        route_ref = sum(blocks[i]["route_s"] * facs[i] for i in inst)
        calls = sum(blocks[i]["calls"] for i in inst)
        metrics = {k: 0.0 for k in PER_LAYER}
        metrics.update({
            "plan.route_ns_per_wire": route_ref * 1e9 / (calls * wires),
            "plan.allocs_per_call": sum(blocks[i]["allocs"] for i in inst) / calls,
            "switch.compile_ms": median(d["compile_s"]) * 1e3 * factor(calib[0]),
            "pool.cpu_per_wall": sum(blocks[i]["cpu_s"] for i in inst)
            / sum(blocks[i]["route_s"] for i in inst),
            "pool.ctx_switches_per_dispatch": (ru.ru_nvcsw + ru.ru_nivcsw)
            / max(d["attempted"], 1),
        })
        per_call = lambda idx: median([blocks[i]["route_s"] * facs[i] / blocks[i]["calls"]
                                       for i in idx])
        if plain:
            metrics["obs.trace_overhead"] = per_call(inst) / per_call(plain) - 1.0
        return metrics, problems, d["attempted"], d["failed"], None
    for i in plain:
        log("block: route %.4f s raw, factor %.4f, steal %.4f"
            % (blocks[i]["route_s"], facs[i], block_steal[i]))
    plain = [plain[i] for i in calm([block_steal[i] for i in plain], "blocks")]
    kept = set(plain)
    ref_s = [blocks[i]["route_s"] * facs[i] for i in plain]
    metrics = latency_metrics([sec * facs[b] * 1e3
                               for sec, b in zip(d["call_s"], d["call_block"]) if b in kept])
    metrics.update({
        "setup_s": median(setups),
        "msgs_per_s": median_rate([blocks[i]["msgs"] for i in plain], ref_s),
        "ops_per_s": median_rate([blocks[i]["calls"] for i in plain], ref_s),
        "peak_rss_mb": host.maxrss_kb / 1024.0,
        "allocs_per_kmsg": d["total_allocs"] / max(msgs, 1) * 1e3,
    })
    return metrics, problems, d["attempted"], d["failed"], sum(
        1 for b in d["call_block"] if b in kept)


DAEMON = {
    "family": "revsort", "n": 1024, "m": 768, "arrival": "bernoulli", "arrival_p": 0.3,
    "queue_depth": 4, "policy": "buffer-retry", "seed": 1, "lanes": 2,
    "warmup_epochs": 8, "measure_epochs": 64, "drain_epochs_max": 256,
    "hops": 3, "radix": 2, "credits": 8, "alloc": "islip",
    "out": "served_metrics.json", "socket": "pb.sock",
    "max_inflight": 8, "tenant_quota": 4, "cache_mb": 1,
}
CONNECTIONS = max(1, (os.cpu_count() or 2) // 2)


def wait_for_socket(path, proc, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError("pcs_served exited during start-up")
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return
        except OSError:
            time.sleep(0.0001)
        finally:
            s.close()
    raise BenchError("pcs_served never bound its socket")


def pcs_serve_replica(host, cfg, req, tag):
    """Counters of the campaign a daemon request describes, run through
    pcs_serve with the daemon's base config and the request's fields."""
    over = ["family=" + req["family"]]
    # n before m when n grows, m before n when it shrinks (each key validates).
    nm = ["n=%d" % req["n"], "m=%d" % req["m"]]
    over += nm if req["n"] >= DAEMON["n"] else nm[::-1]
    if req["beta"] >= 0:
        over.append("beta=%r" % req["beta"])
    over += ["arrival_p=%r" % req["load"], "seed=%d" % req["seed"],
             "lanes=%d" % req["lanes"], "queue_depth=%d" % req["queue_depth"],
             "policy=" + req["policy"], "warmup_epochs=%d" % req["warmup_epochs"],
             "measure_epochs=%d" % req["measure_epochs"],
             "drain_epochs_max=%d" % req["drain_epochs_max"]]
    if req["topology"]:
        over += ["topology=" + req["topology"], "route=" + req["route"],
                 "epochs_in_flight=%d" % req["epochs_in_flight"],
                 "deflect_max=%d" % req["deflect_max"]]
    out = os.path.join(host.workdir, tag + ".json")
    _, _, rc, _ = host.run([example("pcs_serve"), "--config", cfg] + over + ["out=" + out],
                           tag)
    if rc != 0:
        return None
    with open(out) as f:
        return json.load(f)["campaigns"][0]["metrics"]["counters"]


def start_daemon(host, cfg):
    """Spawns pcs_served; returns (process, stderr file, seconds from spawn
    to its socket accepting a connection)."""
    sock = os.path.join(host.workdir, DAEMON["socket"])
    err = open(os.path.join(host.workdir, "daemon.err"), "a")
    t0 = time.monotonic()
    daemon = subprocess.Popen([example("pcs_served"), "--config", cfg], cwd=host.workdir,
                              env=host.env, stdout=subprocess.DEVNULL, stderr=err)
    try:
        wait_for_socket(sock, daemon)
    except BenchError:
        stop_daemon(host, daemon, err)
        raise
    return daemon, err, time.monotonic() - t0


def stop_daemon(host, daemon, err):
    """SIGTERM, then wait; returns (exit code, rusage)."""
    if daemon.poll() is None:
        daemon.terminate()
    _, status, ru = os.wait4(daemon.pid, 0)
    daemon.returncode = os.waitstatus_to_exitcode(status)
    err.close()
    return daemon.returncode, ru


def workload_serve_daemon(host, args):
    cfg = os.path.join(host.workdir, "served.cfg")
    write_config(cfg, DAEMON)
    problems = []
    # Cold set-ups: fresh daemons started and drained before the measured one.
    setups = []
    host.calibrate()
    for _ in range(SETUP_PROBES):
        daemon, err, setup_raw = start_daemon(host, cfg)
        rc, _ = stop_daemon(host, daemon, err)
        if rc != 0:
            problems.append("pcs_served exited %d after SIGTERM" % rc)
        setups.append(setup_raw)
        host.calibrate()
    setup_s = median(setups)
    log("setup: median of %d cold set-ups %.4f s" % (len(setups), setup_s))
    # The alloc file is per run; the probes' counts are set-up allocations.
    daemon, err, _ = start_daemon(host, cfg)
    host.counted.add(daemon.pid)
    try:
        client = subprocess.run(
            [tool(), "client", DAEMON["socket"], str(CONNECTIONS),
             str(mix_seed(args.seed, 5)), str(args.seconds), "1" if args.trace else "0"],
            cwd=host.workdir, capture_output=True, text=True)
    finally:
        rc, ru = stop_daemon(host, daemon, err)
    host.note_usage(ru)  # the measured daemon's peak, not the probes' or replicas'
    if client.returncode != 0:
        raise BenchError("daemon client failed: " + client.stderr[-500:])
    d = json.loads(client.stdout.strip().splitlines()[-1])
    if rc != 0:
        problems.append("pcs_served exited %d after SIGTERM" % rc)
    reqs = d["requests"]
    campaigns = [r for r in reqs if r["kind"] != "scrape"]
    for r in reqs:
        if not r["ok"] and not r["failed"]:
            problems.append("%s request, round %d: %s" % (r["kind"], r["round"], r["why"]))
        elif r["failed"]:
            log("%s request, round %d failed: %s" % (r["kind"], r["round"], r["why"]))
    scrape = json.loads(d["final_scrape"]) if d["final_scrape"] else {}
    counters = scrape.get("counters", {})
    counters.update(scrape.get("gauges", {}))
    if not d["final_scrape_ok"]:
        problems.append("final scrape failed")
    else:
        problems += check_replies([r for r in campaigns if not r["failed"]], counters,
                                  CONNECTIONS)
    # Sampled replies against the same campaigns run through pcs_serve.
    sampled = [r for r in campaigns if "request" in r and r["ok"]]
    log("checking %d daemon replies against pcs_serve" % len(sampled))
    for i, r in enumerate(sampled):
        want = pcs_serve_replica(host, cfg, r["request"], "replica%d" % i)
        if want is None:
            problems.append("pcs_serve could not run a sampled daemon request")
            continue
        got = {"total." + k: r[k] for k in ("offered", "delivered", "dropped", "residual")}
        why = check_same({k: want.get(k) for k in got}, got, "daemon reply vs pcs_serve")
        if why:
            problems.append(why)

    calib = d["calib"]
    facs = [factor(calib[i], calib[i + 1]) for i in range(len(d["round_wall"]))]
    by_round = {}
    for r in campaigns:
        by_round.setdefault(r["round"], []).append(r)
    for i, w in enumerate(d["round_wall"]):
        log("round: %.4f s raw, factor %.4f" % (w, facs[i]))
    failed = sum(1 for r in campaigns if r["failed"])
    if args.trace:
        f = median(facs)
        ok = [r for r in campaigns if r["ok"]]
        hist = scrape.get("histograms", {}).get("serve.wall.campaign_us", {})
        campaign_ms = hist.get("sum", 0) / max(hist.get("count", 1), 1) / 1e3
        rtt_ms = statistics.fmean(r["rtt_s"] * 1e3 for r in ok)
        log("raw mean round trip %.4f ms, daemon campaign wall %.4f ms" % (rtt_ms, campaign_ms))
        hits = counters.get("serve.cache.hits", 0)
        misses = counters.get("serve.cache.misses", 0)
        scrapes = [r for r in reqs if r["kind"] == "scrape" and r["ok"]]
        fabric = [r["rtt_s"] * 1e3 * facs[r["round"]] for r in ok if r["kind"] == "fabric"]
        metrics = {k: 0.0 for k in PER_LAYER}
        metrics.update({
            "serve.encode_ns": statistics.fmean(r["encode_s"] for r in ok) * 1e9 * f,
            "serve.decode_ns": statistics.fmean(r["decode_s"] for r in ok) * 1e9 * f,
            "serve.campaign_ms": campaign_ms * f,
            "serve.wait_ms": (rtt_ms - campaign_ms) * f,
            "serve.cache_hit_ratio": hits / max(hits + misses, 1),
            "serve.fabric_request_ms": statistics.fmean(fabric) if fabric else 0.0,
            "serve.scrape_ms": statistics.fmean(
                r["rtt_s"] * 1e3 * facs[min(r["round"], len(facs) - 1)] for r in scrapes),
            "switch.compile_ms": median(d["compile_s"]) * 1e3 * f,
            "pool.ctx_switches_per_dispatch": (ru.ru_nvcsw + ru.ru_nivcsw)
            / max(counters.get("route_batch_dispatches", 1), 1),
        })
        return metrics, problems, len(campaigns), failed, None
    # Steal screening over windows of consecutive measured rounds of about
    # half a second (a round alone spans too few of /proc/stat's 10 ms
    # ticks); the client's warm-up rounds are left out.
    walls = d["round_wall"]
    first = d["warmup_rounds"]
    log("warm-up: %d rounds, not timed" % first)
    per_window = max(1, round(0.5 / max(median(walls[first:]), 1e-3)))
    bounds = list(range(first, len(walls), per_window)) + [len(walls)]
    shares = [steal_share(d["steal"][a], d["steal"][b]) for a, b in zip(bounds, bounds[1:])]
    # Enough windows that the pooled p99 has ten samples or more beyond it.
    per_round = (sum(1 for r in campaigns if r["round"] >= first)
                 / max(len(walls) - first, 1))
    least = math.ceil(MIN_LATENCY_SAMPLES / max(per_round * per_window, 1))
    kept = {i for w in calm(shares, "windows of %d rounds" % per_window, least)
            for i in range(bounds[w], bounds[w + 1])}
    rounds = sorted(kept)
    rtts = [r["rtt_s"] * 1e3 * facs[r["round"]] for r in campaigns
            if r["ok"] and r["round"] in kept]
    delivered = sum(r["delivered"] for r in campaigns)
    ref_s = [walls[i] * facs[i] for i in rounds]
    metrics = latency_metrics(rtts)
    metrics.update({
        "setup_s": setup_s,
        "msgs_per_s": median_rate([sum(r["delivered"] for r in by_round.get(i, []))
                                   for i in rounds], ref_s),
        "ops_per_s": median_rate([len(by_round.get(i, [])) for i in rounds], ref_s),
        "peak_rss_mb": host.maxrss_kb / 1024.0,
        "allocs_per_kmsg": host.total_allocs() / max(delivered, 1) * 1e3,
    })
    return metrics, problems, len(campaigns), failed, len(rtts)


RUNNERS = {
    "switch-campaign": workload_switch_campaign,
    "fabric-campaign": workload_fabric_campaign,
    "route-batch": workload_route_batch,
    "serve-daemon": workload_serve_daemon,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    workdir = os.path.join(RUNS, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    host = Host(workdir)
    steal0 = host_steal()
    try:
        metrics, problems, attempted, failed, samples = RUNNERS[args.workload](host, args)
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        log("run failed: %r" % e)
        return 1
    finally:
        host.close()
    log("host steal share during the run: %.3f" % steal_share(steal0, host_steal()))
    for p in problems[:20]:
        log("CHECK FAILED: " + p)
    if samples is not None:
        log("latency samples: %d" % samples)
    units = E2E
    if args.trace:
        units = dict(PER_LAYER, **(ROUTE_BATCH_LAYERS if args.workload == "route-batch" else {}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
