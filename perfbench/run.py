#!/usr/bin/env python3
"""graphio benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload offline_cold|serve_hit|router_churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. It builds the release `graphio` binary and
the in-process helper (`perfbench/`, a Cargo package of its own), drives
the binary the way users run it, and prints one JSON line last:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import bisect
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("offline_cold", "serve_hit", "router_churn")
# Set-ups per run; setup_s is their median and the last one is measured.
# The offline set-up takes milliseconds, so it repeats more often.
SETUPS = 5
OFFLINE_SETUPS = 9
# The servers' CPU time is read every POLL_S during the timed window and
# cut into SLICE_S slices of the schedule (10 router_churn blocks).
POLL_S = 0.1
SLICE_S = 5.0
# Requests the traced pass replays on the serving workloads.
TRACE_LIMIT = {"serve_hit": 180, "router_churn": 120}
MEMORIES = "4,8,16,32"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def log(msg):
    print(msg, flush=True)


def build():
    """Builds both binaries; returns (graphio, perfbench) paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml here: run from the root of a graphio checkout")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "graphio"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH, "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, timeout=880)
        if r.returncode != 0:
            sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(target, "release", "graphio"),
            os.path.join(target, "release", "perfbench"))


def helper(perfbench, *args, timeout=170):
    r = subprocess.run([perfbench, *args], cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, timeout=timeout)
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
        fail("helper failed: " + " ".join(args[:1]))
    return r.stdout.decode()


def pct(values, q):
    """The q-quantile (0..1) of raw values, nearest rank."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(q * len(s)) - 1))]


def median(values):
    return statistics.median(values) if values else 0.0


class Proc:
    """A `graphio serve` / `graphio router` child with its log files."""

    def __init__(self, argv, name, workdir):
        self.router = argv[1] == "router"
        self.out_path = os.path.join(workdir, name + ".out")
        self.out = open(self.out_path, "w")
        self.err = open(os.path.join(workdir, name + ".err"), "w")
        self.p = subprocess.Popen(argv, cwd=ROOT, stdout=self.out, stderr=self.err,
                                  stdin=subprocess.DEVNULL)
        self.url = None

    def wait_ready(self, marker, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.out_path) as f:
                for line in f:
                    if marker in line:
                        self.url = line.split(marker, 1)[1].strip()
                        return self.url
            if self.p.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        fail("server did not come up: " + self.out_path)

    def cpu_s(self):
        """User + system CPU seconds of the process so far, all threads."""
        with open("/proc/%d/stat" % self.p.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        if self.p.poll() is None:
            self.p.terminate()
            try:
                self.p.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        self.out.close()
        self.err.close()


def stats(url):
    with urllib.request.urlopen(url + "/stats", timeout=10) as r:
        return json.loads(r.read())


def eigensolves(s):
    return s["linalg"]["dense_eigensolves"] + s["linalg"]["scale_tier_solves"]


def delta(after, before, *path):
    a, b = after, before
    for key in path:
        a, b = a[key], b[key]
    return a - b


def read_samples(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def check_rows(body, problems, name):
    """lower bounds <= simulated upper bound, row by row."""
    doc = json.loads(body)
    for row in doc["sweep"]:
        if row["thm4"] is None or row["thm5"] is None:
            problems.append("%s M=%s: missing bound" % (name, row["memory"]))
            continue
        sim = row["sim_upper"]
        if sim is not None and not (row["thm4"] <= sim and row["thm5"] <= sim
                                    and row["mincut"] <= sim):
            problems.append("%s M=%s: a lower bound exceeds sim_upper" % (name, row["memory"]))


class Run:
    def __init__(self, args, graphio, perfbench):
        self.args = args
        self.graphio = graphio
        self.perfbench = perfbench
        self.dir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.plan_dir = os.path.join(self.dir, "plan")
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.procs = []
        self.layers = {}

    def prepare(self):
        helper(self.perfbench, "prepare", "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--out", self.plan_dir)
        with open(os.path.join(self.plan_dir, "plan.json")) as f:
            self.plan = json.load(f)
        self.expected = {}
        for g in self.plan["graphs"]:
            path = os.path.join(self.plan_dir, "expected", g["id"] + ".json")
            if os.path.exists(path):
                with open(path) as f:
                    self.expected[g["id"]] = f.read()
                check_rows(self.expected[g["id"]], self.problems, g["id"])

    def count(self, samples):
        self.attempted += len(samples)
        bad = [s for s in samples if not s["ok"]]
        self.failed += len(bad)
        for s in bad[:3]:
            self.problems.append("request for graph %d failed: %s" % (s["graph"], s["error"]))

    # ---------------------------------------------------------------- offline

    def analyze(self, graph_id, data):
        """One `graphio analyze` call; returns (latency ms, CPU ms, peak RSS MB)."""
        t0 = time.perf_counter()
        p = subprocess.Popen([self.graphio, "analyze", "--memory-sweep", MEMORIES,
                              "--threads", "1", "--json"],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
        # analyze reads all of stdin before it writes, so this order cannot
        # deadlock; wait4 gives this child's own peak RSS and CPU time.
        p.stdin.write(data)
        p.stdin.close()
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        latency = (time.perf_counter() - t0) * 1e3
        self.attempted += 1
        if os.waitstatus_to_exitcode(status) != 0 or out.decode() != self.expected[graph_id]:
            self.failed += 1
            self.problems.append("analyze %s: CLI bytes differ from the library" % graph_id)
        return latency, (usage.ru_utime + usage.ru_stime) * 1e3, usage.ru_maxrss / 1024.0

    def offline(self):
        graphs = self.plan["graphs"]
        setup = []
        inputs = {}
        for _ in range(OFFLINE_SETUPS):
            # Generate the corpus, then one warm-up call on its smallest
            # graph, which pages the binary in.
            t0 = time.perf_counter()
            for g in graphs:
                r = subprocess.run([self.graphio, "generate", *g["generate"]],
                                   stdout=subprocess.PIPE, timeout=60)
                inputs[g["id"]] = r.stdout
            smallest = min(inputs, key=lambda k: len(inputs[k]))
            self.analyze(smallest, inputs[smallest])
            setup.append(time.perf_counter() - t0)
        for g in graphs:
            with open(os.path.join(self.plan_dir, "graphs", g["id"] + ".json"), "rb") as f:
                if inputs[g["id"]] != f.read() + b"\n":
                    self.problems.append("graphio generate %s differs from the library"
                                         % " ".join(g["generate"]))
        passes, latencies, peak = [], [], 0.0
        best = {g["id"]: (math.inf, math.inf) for g in graphs}
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < self.args.seconds:
            t_pass = time.perf_counter()
            for g in graphs:
                latency, cpu_ms, rss = self.analyze(g["id"], inputs[g["id"]])
                latencies.append(latency)
                wall, cpu = best[g["id"]]
                best[g["id"]] = (min(wall, latency), min(cpu, cpu_ms))
                peak = max(peak, rss)
            passes.append(time.perf_counter() - t_pass)
        self.e2e = {
            "setup_s": median(setup),
            # One pass made of each graph's fastest call: a busy host only
            # ever adds time, and a call is short enough to miss its bursts.
            "analyze_wall_s": sum(wall for wall, _ in best.values()) / 1e3,
            "cpu_ms": sum(cpu for _, cpu in best.values()) / len(best),
            "peak_rss_mb": peak,
        }
        self.layers.update({
            "p50_ms": median(latencies),
            "p99_ms": pct(latencies, 0.99),
            # Every offline call is a first sight: there is no cache.
            "cold_p50_ms": median(latencies),
        })
        self.samples_n = len(latencies)
        log("offline_cold: %d passes, %d analyze calls, pass walls %s s"
            % (len(passes), len(latencies), ", ".join("%.3f" % w for w in passes)))
        if self.args.trace:
            self.traced(None)

    # ---------------------------------------------------------------- serving

    def start_tiers(self, k):
        """Starts the workload's tiers; returns (front url, every tier)."""
        if self.args.workload == "serve_hit":
            s = Proc([self.graphio, "serve", "--port", "0", "--workers", "4", "--threads", "1"],
                     "serve%d" % k, self.dir)
            self.procs.append(s)
            return s.wait_ready("listening on "), [s]
        # Kept-alive connections pin pooled workers, so the backends get
        # room for the router's upstream pool beside the request in flight.
        backends = []
        for b in range(2):
            store = os.path.join(self.dir, "store%d-%d" % (k, b))
            s = Proc([self.graphio, "serve", "--port", "0", "--workers", "8", "--threads", "1",
                      "--store", store, "--cache-mb", "1"], "backend%d-%d" % (k, b), self.dir)
            self.procs.append(s)
            backends.append(s)
        addrs = [s.wait_ready("listening on ").replace("http://", "") for s in backends]
        r = Proc([self.graphio, "router", "--backends", ",".join(addrs),
                  "--listen", "127.0.0.1:0", "--workers", "4"], "router%d" % k, self.dir)
        self.procs.append(r)
        return r.wait_ready("listening on "), backends + [r]

    def load(self, url, phase, name):
        out = os.path.join(self.dir, name + ".jsonl")
        helper(self.perfbench, "load", "--plan", self.plan_dir, "--url", url,
               "--phase", phase, "--out", out,
               timeout=self.args.seconds + 120)
        return read_samples(out)

    def timed_load(self, url, tiers):
        """The timed window; returns (samples, CPU ms per request).

        CPU per request is that of the cheapest SLICE_S slice of the
        schedule (a busy host only ever adds), or of the whole window when
        it is shorter than one slice.
        """
        out = os.path.join(self.dir, "timed.jsonl")
        with open(os.path.join(self.dir, "timed.err"), "w") as err:
            p = subprocess.Popen([self.perfbench, "load", "--plan", self.plan_dir, "--url", url,
                                  "--phase", "timed", "--out", out],
                                 cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
            deadline = time.monotonic() + self.args.seconds + 120
            readings = []
            while p.poll() is None and time.monotonic() < deadline:
                readings.append((time.time(), sum(t.cpu_s() for t in tiers)))
                time.sleep(POLL_S)
            if p.poll() is None:
                p.kill()
            stdout = p.communicate()[0].decode()
        readings.append((time.time(), sum(t.cpu_s() for t in tiers)))
        if p.returncode != 0:
            fail("helper failed: load --phase timed (see %s)" % err.name)
        samples = read_samples(out)
        start = float(stdout.strip())
        times = [t for t, _ in readings]

        def cpu_at(t):
            i = min(max(bisect.bisect_left(times, t), 1), len(times) - 1)
            (t0, c0), (t1, c1) = readings[i - 1], readings[i]
            return c0 + (c1 - c0) * (t - t0) / max(t1 - t0, 1e-9)

        due = sorted(r["at"] for r in self.plan["requests"])
        per_request = []
        k = 0
        while (k + 1) * SLICE_S <= self.args.seconds:
            lo, hi = k * SLICE_S, (k + 1) * SLICE_S
            n = bisect.bisect_left(due, hi) - bisect.bisect_left(due, lo)
            if n:
                per_request.append((cpu_at(start + hi) - cpu_at(start + lo)) * 1e3 / n)
            k += 1
        if not per_request:
            per_request.append((readings[-1][1] - readings[0][1]) * 1e3 / max(1, len(samples)))
        return samples, min(per_request)

    def serving(self):
        setup, warm_samples = [], []
        for k in range(SETUPS):
            t0 = time.perf_counter()
            url, tiers = self.start_tiers(k)
            samples = self.load(url, "warm", "warm%d" % k)
            setup.append(time.perf_counter() - t0)
            warm_samples += samples
            self.count(samples)
            backends = [t for t in tiers if not t.router]
            solved = sum(eigensolves(stats(b.url)) for b in backends)
            if solved != 2 * len(samples):
                self.problems.append("set-up: %d eigensolves for %d first-sight graphs"
                                     % (solved, len(samples)))
            if k + 1 < SETUPS:
                for t in tiers:
                    t.stop()
        before = {t.url: stats(t.url) for t in tiers}
        timed, cpu_ms = self.timed_load(url, tiers)
        # Some counters move just after a response is flushed: let them settle.
        time.sleep(0.3)
        after = {t.url: stats(t.url) for t in tiers}
        self.count(timed)
        cold = [s for s in timed if s["class"] == "cold"]
        misses = [s for s in timed if s["session"] == "miss"]
        solved = sum(eigensolves(after[b.url]) - eigensolves(before[b.url]) for b in backends)
        if len(misses) != len(cold) or solved != 2 * len(cold):
            self.problems.append("timed: %d cold requests, %d session misses, %d eigensolves"
                                 % (len(cold), len(misses), solved))
        for t in tiers:
            if t.router:
                d = delta(after[t.url], before[t.url], "router", "errors")
            else:
                d = delta(after[t.url], before[t.url], "errors")
            if d:
                self.problems.append("%s counted %d errors" % (t.url, d))
        hits = [s["latency_us"] / 1e3 for s in timed if s["class"] == "hit"]
        colds = ([s["latency_us"] / 1e3 for s in cold] if cold
                 else [s["latency_us"] / 1e3 for s in warm_samples])
        latencies = [s["latency_us"] / 1e3 for s in timed]
        # One set-up pass made of each graph's fastest first-sight request,
        # over the set-ups, as offline.
        first = {}
        for s in warm_samples:
            first[s["graph"]] = min(first.get(s["graph"], math.inf), s["latency_us"])
        self.e2e = {
            "setup_s": median(setup),
            "analyze_wall_s": sum(first.values()) / 1e6,
            "cpu_ms": cpu_ms,
            "peak_rss_mb": sum(t.vm_hwm_mb() for t in tiers),
        }
        self.layers.update({
            "p50_ms": median(latencies),
            "p99_ms": pct(latencies, 0.99),
            "hit_p50_ms": median(hits),
            "cold_p50_ms": median(colds),
        })
        self.samples_n = len(latencies)
        log("%s: %d timed requests (%d cold), %d set-up requests, sessions %s"
            % (self.args.workload, len(timed), len(cold), len(warm_samples),
               {k: sum(1 for s in timed if s["session"] == k) for k in ("hit", "store", "miss")}))
        n = len(self.plan["warm"])
        log("set-up passes %s s, set-ups %s s"
            % (", ".join("%.3f" % (sum(s["latency_us"] for s in warm_samples[i:i + n]) / 1e6)
                         for i in range(0, len(warm_samples), n)),
               ", ".join("%.3f" % t for t in setup)))
        if self.args.trace:
            served = [s for s in timed if s["server_us"] is not None]
            cache = [(after[b.url]["cache"], before[b.url]["cache"]) for b in backends]
            hits_d = sum(a["hits"] - b["hits"] for a, b in cache)
            miss_d = sum(a["misses"] - b["misses"] for a, b in cache)
            store = [(after[b.url]["store"], before[b.url]["store"]) for b in backends]
            shits = sum(a.get("hits", 0) - b.get("hits", 0) for a, b in store)
            smiss = sum(a.get("misses", 0) - b.get("misses", 0) for a, b in store)
            self.layers.update({
                "service.server_ms": median([s["server_us"] / 1e3 for s in served]),
                "service.queue_wire_ms": median([(s["latency_us"] - s["server_us"]) / 1e3
                                                 for s in served]),
                "service.cache_hit_ratio": hits_d / max(1, hits_d + miss_d),
                "service.cache_evictions": sum(a["evictions"] - b["evictions"] for a, b in cache),
                "store.hit_ratio": shits / max(1, shits + smiss),
                "loadgen.late_ms": median([s["late_us"] / 1e3 for s in timed]),
            })
            if self.args.workload == "router_churn":
                self.layers["router.hop_ms"] = float(helper(
                    self.perfbench, "hop", "--plan", self.plan_dir, "--url", url).strip())
        for t in tiers:
            t.stop()
        if self.args.trace:
            self.traced([b.url.replace("http://", "") for b in backends])

    # ---------------------------------------------------------------- traced

    def traced(self, backends):
        args = ["trace", "--plan", self.plan_dir, "--scratch", os.path.join(self.dir, "trace"),
                "--spans", os.path.join(WORK, "spans-%s.jsonl" % self.args.workload)]
        if self.args.workload in TRACE_LIMIT:
            args += ["--limit", str(TRACE_LIMIT[self.args.workload])]
        if backends:
            args += ["--backends", ",".join(backends)]
        out = json.loads(helper(self.perfbench, *args))
        self.layers.update({k: v for k, v in out.items() if not k.startswith("trace.units")})
        unit = out.get("trace.unit_ms", 0.0)
        share = out.get("unspanned_ms", 0.0) / unit if unit else 0.0
        log("traced pass: %d unit(s), %.3f ms per unit, unspanned %.2f%%, overhead %.3f ms"
            % (out.get("trace.units", 0), unit, 100 * share, out.get("trace.overhead_ms", 0.0)))
        if share > 0.10:
            self.problems.append("traced pass leaves %.1f%% of its wall time unspanned"
                                 % (100 * share))

    def cleanup(self):
        for p in self.procs:
            try:
                p.stop()
            except Exception:
                pass
        shutil.rmtree(self.dir, ignore_errors=True)


def load_spec():
    with open(os.path.join(BENCH, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    spec = load_spec()
    graphio, perfbench = build()
    run = Run(args, graphio, perfbench)
    try:
        run.prepare()
        if args.workload == "offline_cold":
            run.offline()
        else:
            run.serving()
    finally:
        run.cleanup()
    error_rate = run.failed / max(1, run.attempted)
    run.layers["error_rate"] = error_rate
    latency = [] if args.trace else [
        (k, run.layers[k]) for k in ("p50_ms", "p99_ms", "hit_p50_ms", "cold_p50_ms")
        if k in run.layers]
    for name, value in list(run.e2e.items()) + latency:
        log("%-16s %14.4f" % (name, value))
    log("%-16s %14.4f   (%d failed of %d attempted; %d timed samples)"
        % ("error_rate", error_rate, run.failed, run.attempted, run.samples_n))
    if args.trace:
        metrics = {m["name"]: {"value": float(run.layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, m in metrics.items():
            log("%-26s %14.4f %s" % (name, m["value"], m["unit"]))
    else:
        metrics = {m["name"]: {"value": float(run.e2e[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for p in run.problems[:20]:
        log("CHECK FAILED: " + p)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
