#!/usr/bin/env python3
"""Same-host measured-time benchmark of the xplace placer.

Run from the root of a source checkout:

    python3 wallbench/run.py --workload flat_place --seed 1 --seconds 30 --trace 0

It builds the release `xplace` binary (and, for the traced run, the
`wallbench` in-process tracer next to this file), generates the workload's
designs from `--seed`, drives the binary for `--seconds`, verifies every
output, and prints one JSON result as the last line of standard output.
`--trace 0` reports the end-to-end metrics, whose timings are CPU times;
`--trace 1` reports the per-layer metrics of a separate traced run, wall
times included. See `README.md` next to this file for the workloads, the
metrics and the baseline findings.
"""

import argparse
from collections import Counter
import http.client
import json
import math
import os
import random
import shutil
import signal
from statistics import fmean, median, quantiles
import subprocess
import sys
import threading
import time

# The program runs at this kernel width, and the load generator uses at
# most this many threads and connections (the 2-core reference host).
THREADS = 2
CLIENTS = 2
# A place run counts only if GP converged to this overflow (the CLI's
# default `stop_overflow`): time to a solution of stated accuracy.
OVERFLOW_TARGET = 0.10
# Serve workload: pool of seeded designs, jobs per submitted manifest.
SERVE_POOL = 8
SERVE_CELLS = 1000
JOBS_PER_MANIFEST = 2
# Set-ups per run; `setup_s` is the median of their CPU times. A daemon
# start-up costs ~3 ms and an `xplace stats` of a place design 50-100 ms,
# so either count costs a few seconds and keeps the median steady.
SERVE_SETUPS = 200
PLACE_SETUPS = 40
# The traced run fails if its spans cover less than this share of the
# fastest of UNTRACED_REFS untraced runs made just before it (host noise
# only ever slows a run). Under hypervisor steal a short run can take
# 1.5-2x its quiet time, so the floor only catches a missing layer that is
# half of the run, such as GP.
TRACE_COVERAGE_MIN = 0.5
UNTRACED_REFS = 3
# Per-process watchdog: no single child may outlive this.
CHILD_TIMEOUT_S = 100.0
# A place run repeats for `--seconds`, and at least 3 times unless that
# would take longer than this.
MIN_REPS_WITHIN_S = 90.0

PLACE_WORKLOADS = {
    # One flat `place` of a ~10k-cell design: GP kernels dominate.
    "flat_place": {"cells": 10000, "multilevel": False},
    # `place --multilevel` of a larger design: coarsening, coarse-level GP,
    # and a larger parse / LG / DP share.
    "ml_place": {"cells": 15000, "multilevel": True},
}
# The third workload, "serve_jobs", is a `serve` daemon fed by closed-loop
# clients with small jobs (SERVE_* above).


class BenchError(Exception):
    """A failure of the benchmark's own set-up (not of an operation)."""


class Tally:
    """Operations attempted and failed. An operation (a place run, a served
    job, a refused submission, a daemon start) fails once however many of
    its checks fail; `problems` keeps every message for the log, also those
    of checks that belong to no single operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, problems):
        """Counts one operation with its failed checks; True if it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems


def log(msg):
    print(msg, flush=True)


def tail(xs):
    """Highest percentile with at least ten samples beyond it.

    With 21 samples or fewer no sample above the median has ten beyond it,
    so the tail is the median. Returns (value, percentile, n).
    """
    s = sorted(xs)
    n = len(s)
    if n <= 21:
        return median(s), 50.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------- host


def host_fingerprint():
    fields = {}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                fields.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    l3_kb = fields.get("cache size", "0").split()[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": fields.get("model name", "unknown"),
        "l3_mb": round(int(l3_kb) / 1024, 1) if l3_kb.isdigit() else None,
    }


def cpu_times():
    """System-wide jiffies per state from `/proc/stat` (None if absent)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor stole between two `cpu_times`: on
    a shared VM host this, not the program, explains most slow runs."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta), 1)


# ---------------------------------------------------------------- build


def build(root, traced):
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target
    cmds = [["cargo", "build", "--release", "--offline", "-q", "--bin", "xplace"]]
    if traced:
        manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
        cmds.append(["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest])
    for cmd in cmds:
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=850)
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "xplace"), os.path.join(target, "release", "wallbench")


# ---------------------------------------------------------------- inputs


def synth(xplace, name, cells, seed, out_dir):
    r = subprocess.run(
        [xplace, "synth", name, str(cells), "--out", out_dir, "--seed", str(seed)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if r.returncode != 0:
        raise BenchError(f"synth {name} failed: {r.stderr.strip()}")
    return os.path.join(out_dir, name + ".aux")


def design_seeds(seed, count):
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


# ---------------------------------------------------------------- children


class Child:
    """A child process with a watchdog, reaped with `wait4` so its peak
    RSS is measured from outside."""

    live = set()

    def __init__(self, cmd, log_prefix):
        self.stderr = open(log_prefix + ".err", "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        self.timer.start()
        self.rusage = None
        Child.live.add(self)

    def kill(self):
        # `os.kill`, not `Popen.kill`: the latter polls, and a poll that
        # reaps the child would lose its rusage to `wait4`.
        if self.proc.returncode is None:
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass

    def wait(self):
        """Reaps the child; returns (exit code, seconds since spawn)."""
        if self.proc.returncode is None:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - self.t0
        self.timer.cancel()
        self.proc.stdout.close()
        self.stderr.close()
        Child.live.discard(self)
        return self.proc.returncode, elapsed

    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0 if self.rusage else float("nan")

    def cpu_s(self):
        """User + system CPU seconds of the child and all its threads.
        The kernel leaves time the hypervisor stole out of it, and time
        spent waiting for a CPU never enters it."""
        if not self.rusage:
            return float("nan")
        return self.rusage.ru_utime + self.rusage.ru_stime


# ---------------------------------------------------------------- place


def verify_report(report, what):
    """The output checks every placement must pass; returns the failed ones."""
    gp, lg, dp = report.get("gp", {}), report.get("lg") or {}, report.get("dp") or {}
    problems = []
    if not gp.get("converged"):
        problems.append(f"{what}: GP did not converge")
    if not gp.get("final_overflow", 1.0) <= OVERFLOW_TARGET:
        problems.append(f"{what}: final overflow {gp.get('final_overflow')} > {OVERFLOW_TARGET}")
    if not (dp.get("final_hpwl", math.inf) <= lg.get("final_hpwl", -math.inf)):
        problems.append(f"{what}: post-DP HPWL {dp.get('final_hpwl')} > post-LG {lg.get('final_hpwl')}")
    if not (0 < dp.get("final_hpwl", 0) < math.inf):
        problems.append(f"{what}: bad HPWL {dp.get('final_hpwl')}")
    return problems


def final_hpwl(op):
    return op["report"]["dp"]["final_hpwl"]


def check_identical(ops, what):
    """Placements of one design must agree bit for bit: an operation whose
    HPWL differs from the most common one fails."""
    ops = [op for op in ops if op.get("report")]
    if not ops:
        return
    ref = Counter(final_hpwl(op) for op in ops).most_common(1)[0][0]
    for op in ops:
        if final_hpwl(op) != ref:
            op["problems"].append(f"{what}: HPWL {final_hpwl(op)!r} differs from identical runs' {ref!r}")


def place_once(xplace, aux, work, multilevel, k):
    """One `xplace place` run: an operation dict whose `problems` list the
    failed checks (empty if the run passed)."""
    pl = os.path.join(work, f"run{k}.pl")
    rep = os.path.join(work, f"run{k}.json")
    cmd = [xplace, "place", aux, "--threads", str(THREADS), "-o", pl, "--report", rep]
    if multilevel:
        cmd.append("--multilevel")
    child = Child(cmd, os.path.join(work, f"run{k}"))
    loaded = False
    for line in child.proc.stdout:
        loaded = loaded or line.startswith("loaded ")
    code, elapsed = child.wait()
    what = f"place run {k}"
    op = {"problems": [], "report": None}
    if code != 0:
        op["problems"].append(f"{what}: exit code {code}")
        return op
    if not loaded:
        op["problems"].append(f"{what}: no 'loaded' line")
        return op
    try:
        with open(rep) as f:
            op["report"] = json.load(f)
    except (OSError, ValueError) as e:
        op["problems"].append(f"{what}: unreadable report: {e}")
        return op
    op["problems"] += verify_report(op["report"], what)
    op.update(place_s=elapsed, cpu_s=child.cpu_s(), rss_mb=child.peak_rss_mb())
    return op


def stats_setups(xplace, aux, work, count, tally):
    """CPU seconds of `count` `xplace stats` runs of `aux`: process start,
    the parse and design build that `place` does before its `loaded` line,
    and exit."""
    setups = []
    for _ in range(count):
        child = Child([xplace, "stats", aux], os.path.join(work, "stats"))
        child.proc.stdout.read()
        code, _ = child.wait()
        if tally.op([] if code == 0 else [f"stats run: exit code {code}"]):
            setups.append(child.cpu_s())
    return setups


def run_place(xplace, work, spec, seed, seconds, trace, wallbench, tally):
    (dseed,) = design_seeds(seed, 1)
    aux = synth(xplace, "design", spec["cells"], dseed, work)
    log(f"design: {spec['cells']} cells, synth seed {dseed}, multilevel={spec['multilevel']}")
    if trace:
        return traced_run(xplace, wallbench, work, aux, spec["multilevel"], seconds, tally)

    # Half the set-ups before the placements and half after them, so that
    # setup_s samples the host at both ends of the run.
    setups = stats_setups(xplace, aux, work, PLACE_SETUPS // 2, tally)
    runs = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(runs) >= 3 or elapsed >= MIN_REPS_WITHIN_S):
            break
        runs.append(place_once(xplace, aux, work, spec["multilevel"], len(runs) + 1))
    setups += stats_setups(xplace, aux, work, PLACE_SETUPS // 2, tally)
    check_identical(runs, "design")
    samples = [op for op in runs if tally.op(op["problems"])]
    if not samples or not setups:
        return None
    report = samples[0]["report"]
    times = [s["place_s"] for s in samples]
    cpus = [s["cpu_s"] for s in samples]
    log(f"place wall s: {' '.join(f'{x:.3f}' for x in times)} (median {median(times):.3f}, not gated)")
    log(f"place CPU s:  {' '.join(f'{x:.3f}' for x in cpus)}")
    return end_to_end(
        place_cpu_s=median(cpus),
        setup_s=median(setups),
        hpwl=report["dp"]["final_hpwl"],
        modeled_gp_ms=report["gp"]["modeled_ns"] / 1e6,
        peak_rss_mb=median(s["rss_mb"] for s in samples),
    )


def end_to_end(place_cpu_s, setup_s, hpwl, modeled_gp_ms, peak_rss_mb):
    return {
        "place_cpu_s": (place_cpu_s, "s"),
        "setup_s": (setup_s, "s"),
        "hpwl": (hpwl, "um"),
        "modeled_gp_ms": (modeled_gp_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------- HTTP


def http_open(addr, method, target, body=None, headers=None, timeout=CHILD_TIMEOUT_S):
    """Sends one request; returns the connection and its response. The
    caller reads the body and closes the connection."""
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(method, target, body=body, headers=headers or {})
        return conn, conn.getresponse()
    except BaseException:
        conn.close()
        raise


def http_call(addr, method, target):
    """A small request/response exchange; returns the body of a 200."""
    conn, resp = http_open(addr, method, target, timeout=10)
    try:
        body = resp.read()
    finally:
        conn.close()
    if resp.status != 200:
        raise BenchError(f"{method} {target}: HTTP {resp.status}")
    return body


def http_json(addr, method, target):
    return json.loads(http_call(addr, method, target))


# ---------------------------------------------------------------- serve


class Daemon:
    def __init__(self, xplace, work):
        self.child = Child(
            [xplace, "serve", "--addr", "127.0.0.1:0", "--threads", str(THREADS)],
            os.path.join(work, "serve"),
        )
        self.addr = None
        for line in self.child.proc.stdout:
            if line.startswith("serving on http://"):
                self.addr = line.split("http://", 1)[1].split()[0]
                break
        if self.addr is None:
            self.child.kill()
            self.child.wait()
            raise BenchError("daemon did not report its address")
        # The daemon prints its address once it listens, so the first
        # probe normally succeeds; it waits in the backlog until served.
        while True:
            try:
                if http_json(self.addr, "GET", "/health")["status"] == "ok":
                    break
            except (OSError, BenchError, ValueError, KeyError):
                pass
            if time.perf_counter() - self.child.t0 > 30:
                self.stop()
                raise BenchError("daemon never became healthy")
            time.sleep(0.001)

    def stop(self):
        """Drains the daemon and reaps it; returns the failed checks."""
        try:
            http_call(self.addr, "POST", "/shutdown")
        except (OSError, BenchError):
            self.child.kill()
        # Read its last lines so it never writes to a closed pipe.
        self.child.proc.stdout.read()
        code, _ = self.child.wait()
        return [] if code == 0 else [f"daemon exit code {code}"]


TRACE_FRAME = b'"frame":"trace"'


class Submission:
    """One closed-loop `POST /batch`, timed frame by frame."""

    def __init__(self, addr, client, jobs):
        self.jobs = jobs  # [(name, aux)]
        manifest = {"jobs": [{"name": n, "aux": a} for n, a in jobs]}
        self.body = json.dumps(manifest).encode()
        self.addr, self.client = addr, client
        self.refusals = []  # one failed operation each
        self.problems = []  # fail every job of the submission
        self.t_submit = self.t_hello = self.t_batch = None
        self.t_start, self.t_job, self.records = {}, {}, {}
        self.trace_frames = []
        self.trace_problems = {i: [] for i in range(len(jobs))}
        self.trace_lines = {i: 0 for i in range(len(jobs))}
        self.trace_bytes = {i: 0 for i in range(len(jobs))}

    def run(self):
        """Submits (retrying refusals) and consumes the frame stream.
        Trace frames are kept raw and checked by `check_traces` after the
        measured phase, so the client spends little CPU beside the daemon."""
        headers = {"X-Client": self.client}
        while True:
            self.t_submit = time.perf_counter()
            conn, resp = http_open(self.addr, "POST", "/batch", self.body, headers)
            if resp.status in (429, 503) and len(self.refusals) < 20:
                # A refusal counts as a failed operation even when the
                # retry succeeds.
                resp.read()
                conn.close()
                self.refusals.append(f"{self.client}: batch refused with HTTP {resp.status}, retrying")
                time.sleep(float(resp.getheader("Retry-After", "1")))
                continue
            break
        try:
            if resp.status != 200:
                self.problems.append(f"{self.client}: batch refused with HTTP {resp.status}: {resp.read()!r}")
                return
            while True:
                line = resp.readline()
                if not line:
                    break
                if TRACE_FRAME in line[:32]:
                    self.trace_frames.append(line)
                elif line.strip():
                    self.frame(json.loads(line))
            if self.t_batch is None:
                self.problems.append(f"{self.client}: stream ended without a batch frame")
        finally:
            conn.close()

    def frame(self, fr):
        now = time.perf_counter()
        kind = fr["frame"]
        if kind == "hello":
            self.t_hello = now
        elif kind == "start":
            self.t_start[fr["job"]] = now
        elif kind == "job":
            self.t_job[fr["job"]] = now
            self.records[fr["job"]] = fr["record"]
        elif kind == "batch":
            self.t_batch = now

    def check_traces(self):
        """Every streamed trace line must parse as JSON."""
        for raw in self.trace_frames:
            fr = None
            try:
                fr = json.loads(raw)
                job, line = fr["job"], fr["line"]
                json.loads(line)
                self.trace_lines[job] += 1
            except (ValueError, KeyError, TypeError):
                msg = f"{self.client}: unparseable trace frame {raw[:80]!r}"
                if isinstance(fr, dict) and fr.get("job") in self.trace_problems:
                    self.trace_problems[fr["job"]].append(msg)
                else:
                    self.problems.append(msg)
                continue
            self.trace_bytes[job] += len(line) + 1
        self.trace_frames = []

    def job_ops(self):
        """One operation per job of the manifest, with its failed checks."""
        ops = []
        for i, (name, aux) in enumerate(self.jobs):
            what = f"job {name}"
            problems = self.problems + self.trace_problems[i]
            rec = self.records.get(i)
            op = {"problems": problems, "report": None, "aux": aux}
            ops.append(op)
            if rec is None or rec.get("status") != "completed" or rec.get("report") is None:
                problems.append(f"{what}: not completed ({rec and rec.get('error')})")
                continue
            op["report"] = rec["report"]
            if i not in self.t_start:
                problems.append(f"{what}: no start frame")
                continue
            if self.trace_lines[i] == 0:
                problems.append(f"{what}: empty trace")
            problems += verify_report(rec["report"], what)
            op.update(
                latency=self.t_job[i] - self.t_submit,
                wait=self.t_start[i] - self.t_submit,
                run=self.t_job[i] - self.t_start[i],
                trace_lines=self.trace_lines[i],
                trace_bytes=self.trace_bytes[i],
            )
        return ops


def stats_counters(stats):
    shed = stats["shed"]
    return {
        "jobs_completed": stats["jobs_completed"],
        "jobs_failed": stats["jobs_failed"],
        "shed": shed["queue_full"] + shed["quota"] + shed["shutdown"],
        "design_hits": stats["design_cache"]["hits"],
        "design_misses": stats["design_cache"]["misses"],
        "plan_hits": stats["plan_cache"]["hits"],
        "plan_misses": stats["plan_cache"]["misses"],
    }


def serve_phase(daemon, pool, seed, seconds, clients=CLIENTS, per_manifest=JOBS_PER_MANIFEST):
    """Closed-loop clients submit manifests drawn from `pool` until
    `seconds` have passed; returns the phase record. Its `jobs` are
    operations not yet tallied, so the caller can add checks to them."""
    before = stats_counters(http_json(daemon.addr, "GET", "/stats"))
    subs = [[] for _ in range(clients)]
    start = time.perf_counter()
    deadline = start + seconds

    def client(c):
        rng = random.Random(seed * 1000 + c)
        order = list(range(len(pool)))
        rng.shuffle(order)
        k = 0
        while True:
            names = []
            for i in range(per_manifest):
                d = order[(k * per_manifest + i) % len(order)]
                names.append((f"c{c}b{k}j{i}", pool[d]))
            sub = Submission(daemon.addr, f"client{c}", names)
            try:
                sub.run()
            except (OSError, http.client.HTTPException, ValueError, KeyError) as e:
                sub.problems.append(f"client{c}: stream failed: {e}")
            subs[c].append(sub)
            k += 1
            if time.perf_counter() >= deadline:
                return

    threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    subs = [s for per in subs for s in per]
    ends = [s.t_batch for s in subs if s.t_batch is not None]
    wall = (max(ends) if ends else time.perf_counter()) - start
    after = stats_counters(http_json(daemon.addr, "GET", "/stats"))
    delta = {k: after[k] - before[k] for k in before}

    jobs = []
    for s in subs:
        s.check_traces()
        jobs += s.job_ops()
    by_design = {}
    for j in jobs:
        by_design.setdefault(j["aux"], []).append(j)
    for aux, ops in by_design.items():
        check_identical(ops, os.path.basename(aux))
    submitted = sum(len(s.jobs) for s in subs)
    daemon_problems = []
    if delta["jobs_completed"] != submitted:
        daemon_problems.append(f"/stats jobs_completed delta {delta['jobs_completed']} != {submitted} submitted")
    return {"subs": subs, "jobs": jobs, "wall": wall, "delta": delta,
            "daemon_problems": daemon_problems}


def tally_phase(tally, phase, daemon_problems):
    """Counts the phase's refusals, jobs and serving daemon; returns the
    jobs that passed every check."""
    for s in phase["subs"]:
        for msg in s.refusals:
            tally.op([msg])
    good = [j for j in phase["jobs"] if tally.op(j["problems"])]
    tally.op(phase["daemon_problems"] + daemon_problems)
    return good


def serve_pool(xplace, work, seed):
    return [
        synth(xplace, f"pool{i}", SERVE_CELLS, s, work)
        for i, s in enumerate(design_seeds(seed, SERVE_POOL))
    ]


def daemon_setups(xplace, work, count, tally):
    """CPU seconds of `count` daemons that each start, answer one
    `GET /health` and shut down."""
    setups = []
    for _ in range(count):
        daemon = Daemon(xplace, work)
        if tally.op(daemon.stop()):
            setups.append(daemon.child.cpu_s())
    return setups


def run_serve(xplace, work, seed, seconds, trace, wallbench, tally):
    pool = serve_pool(xplace, work, seed)
    log(f"pool: {SERVE_POOL} designs of {SERVE_CELLS} cells; {CLIENTS} closed-loop clients, "
        f"{JOBS_PER_MANIFEST} jobs per manifest")
    if trace:
        return traced_run(xplace, wallbench, work, pool[0], False, seconds, tally, pool, seed)

    # Half the start-ups before the phase and half after it, so that
    # setup_s samples the host at both ends of the run.
    setups = daemon_setups(xplace, work, SERVE_SETUPS // 2, tally)
    daemon = Daemon(xplace, work)
    try:
        phase = serve_phase(daemon, pool, seed, seconds)
    finally:
        stopped = daemon.stop()
    jobs = tally_phase(tally, phase, stopped)
    setups += daemon_setups(xplace, work, SERVE_SETUPS // 2, tally)
    if not jobs or not setups:
        return None
    latencies = [j["latency"] for j in jobs]
    t, pct, n = tail(latencies)
    q = quantiles(setups, n=4)
    log(f"setup_s over {len(setups)} daemon start-ups: median {median(setups) * 1e3:.3f} ms CPU, "
        f"quartiles {q[0] * 1e3:.3f}-{q[2] * 1e3:.3f} ms")
    log(f"{len(jobs)} jobs in {phase['wall']:.2f} s = {len(jobs) / phase['wall']:.3f} jobs/s; "
        f"latency p50 {median(latencies):.3f} s, p{pct:.0f} of {n} samples {t:.3f} s (wall, not gated)")
    return end_to_end(
        # Every CPU second the daemon spent, start-up and drain included,
        # per job it completed.
        place_cpu_s=daemon.child.cpu_s() / len(jobs),
        setup_s=median(setups),
        hpwl=fmean(final_hpwl(j) for j in jobs),
        modeled_gp_ms=fmean(j["report"]["gp"]["modeled_ns"] for j in jobs) / 1e6,
        peak_rss_mb=daemon.child.peak_rss_mb(),
    )


# ---------------------------------------------------------------- traced


def run_wallbench(wallbench, aux, work, multilevel, micro_seconds):
    out = os.path.join(work, "traced")
    cmd = [wallbench, aux, "--threads", str(THREADS), "--out", out,
           "--micro-seconds", f"{micro_seconds:.3f}"]
    if multilevel:
        cmd.append("--multilevel")
    child = Child(cmd, os.path.join(work, "wallbench"))
    lines = child.proc.stdout.readlines()
    code, _ = child.wait()
    if code != 0 or not lines:
        raise BenchError(f"traced run failed with exit code {code}")
    return json.loads(lines[-1])


def traced_problems(traced, untraced_place_s, reference, covered):
    """The checks on the traced flow: the same output checks as a CLI run,
    and it must be the same program run as the untraced one."""
    problems = verify_report(
        {
            "gp": {"converged": traced["gp_converged"], "final_overflow": traced["gp_final_overflow"]},
            "lg": {"final_hpwl": traced["lg_hpwl"]},
            "dp": {"final_hpwl": traced["hpwl"]},
        },
        "traced flow",
    )
    for key, ref in (("hpwl", reference["dp"]["final_hpwl"]),
                     ("gp_iterations", reference["gp"]["iterations"]),
                     ("launches", reference["gp"]["launches"])):
        if traced[key] != ref:
            problems.append(f"traced {key} {traced[key]!r} != untraced {ref!r}")
    coverage = covered / untraced_place_s
    log(f"trace coverage: spans {covered:.3f} s of untraced {untraced_place_s:.3f} s "
        f"= {coverage:.3f} (min {TRACE_COVERAGE_MIN})")
    if coverage < TRACE_COVERAGE_MIN:
        problems.append(f"traced spans cover {coverage:.3f} of place_s < {TRACE_COVERAGE_MIN}")
    return problems


def flow_coverage(traced):
    """Seconds covered by the spans directly under the `flow` span."""
    flow_id = next(i for i, s in enumerate(traced["spans"]) if s["name"] == "flow")
    return sum(s["end_s"] - s["start_s"] for s in traced["spans"] if s["parent"] == flow_id)


def layer_metrics(traced, phase, jobs, untraced_place_s, served_plans):
    """Per-layer metrics from the in-process traced run, the served phase
    (`jobs` are its jobs that passed) and the untraced reference runs.
    Plan-cache counts come from the served phase when it is the workload's
    traffic (`served_plans`), else from the traced flow's GP."""
    spans = {s["name"]: s["end_s"] - s["start_s"] for s in traced["spans"]}
    covered = flow_coverage(traced)
    micro = traced["micro"]

    gp_s = spans["core.gp"]
    iters = traced["gp_iterations"]
    subs, delta = phase["subs"], phase["delta"]
    if served_plans:
        plan_hits, plan_misses = delta["plan_hits"], delta["plan_misses"]
    else:
        plan_hits, plan_misses = traced["plan_cache_hits"], traced["plan_cache_misses"]
    runs = [j["run"] for j in jobs] or [float("nan")]
    stragglers = []
    for s in subs:
        r = [s.t_job[i] - s.t_start[i] for i in s.t_job if i in s.t_start]
        if r:
            stragglers.append(max(r) / median(r))
    tails = [s.t_batch - max(s.t_job.values()) for s in subs if s.t_batch and s.t_job]
    admits = [s.t_hello - s.t_submit for s in subs if s.t_hello]
    latencies = [j["latency"] for j in jobs] or [float("nan")]
    latency_tail, pct, n = tail(latencies)
    log(f"serve.job_latency_tail_s = p{pct:.0f} of {n} samples")
    n_jobs = max(len(jobs), 1)
    log(f"modeled vs measured: device.modeled_ms = {traced['modeled_ns'] / 1e6:.3f} ms "
        f"beside core.gp_s = {gp_s:.3f} s ({gp_s * 1e9 / max(traced['modeled_ns'], 1):.0f}x)")
    m = {
        "db.read_aux_s": (spans["db.read_aux"], "s"),
        "db.input_mb": (traced["input_bytes"] / 1e6, "MB"),
        "db.write_pl_s": (spans["db.write_pl"], "s"),
        "db.coarsen_s": (spans["db.coarsen"], "s"),
        "db.levels": (traced["levels"], "count"),
        "db.design_cache_hits": (delta["design_hits"], "count"),
        "db.design_cache_misses": (delta["design_misses"], "count"),
        "ops.wirelength_ms": (micro["wirelength_ms"], "ms"),
        "ops.density_ms": (micro["density_ms"], "ms"),
        "ops.wirelength_mb": (micro["wirelength_bytes"] / 1e6, "MB"),
        "ops.density_mb": (micro["density_bytes"] / 1e6, "MB"),
        "ops.wirelength_mflop": (micro["wirelength_flops"] / 1e6, "Mflop"),
        "ops.density_mflop": (micro["density_flops"] / 1e6, "Mflop"),
        "fft.solve_ms": (micro["solve_ms"], "ms"),
        "fft.grid_bins": (micro["grid_bins"], "count"),
        "fft.solve_mb": (micro["solve_bytes"] / 1e6, "MB"),
        "fft.solve_mflop": (micro["solve_flops"] / 1e6, "Mflop"),
        "fft.plan_cache_hits": (plan_hits, "count"),
        "fft.plan_cache_misses": (plan_misses, "count"),
        "core.gp_s": (gp_s, "s"),
        "core.gp_iterations": (iters, "count"),
        "core.gp_ms_per_iter": (gp_s * 1e3 / iters, "ms"),
        "core.eval_ms": (micro["eval_ms"], "ms"),
        "core.step_ms": (micro["step_ms"], "ms"),
        "core.host_frac": (1.0 - traced["kernel_body_ns"] / 1e9 / gp_s, "fraction"),
        "core.coarse_gp_s": (gp_s - traced["gp_wall_seconds"], "s"),
        "device.launches": (traced["launches"], "count"),
        "device.syncs": (traced["syncs"], "count"),
        "device.modeled_ms": (traced["modeled_ns"] / 1e6, "ms"),
        "device.kernel_body_s": (traced["kernel_body_ns"] / 1e9, "s"),
        "parallel.eval_speedup": (micro["eval_ms_w1"] / micro["eval_ms"], "ratio"),
        "parallel.job_concurrency": (sum(j["run"] for j in jobs) / phase["wall"], "ratio"),
        "legal.lg_s": (spans["legal.lg"], "s"),
        "legal.dp_s": (spans["legal.dp"], "s"),
        "legal.check_s": (spans["legal.check"], "s"),
        "route.congestion_s": (spans["route.congestion"], "s"),
        "telemetry.report_s": (spans["telemetry.report"], "s"),
        "telemetry.trace_lines_per_job": (sum(j["trace_lines"] for j in jobs) / n_jobs, "count"),
        "telemetry.trace_kb_per_job": (sum(j["trace_bytes"] for j in jobs) / n_jobs / 1e3, "kB"),
        "sched.job_wait_s": (median([j["wait"] for j in jobs] or [float("nan")]), "s"),
        "sched.job_run_s": (median(runs), "s"),
        "sched.straggler_ratio": (median(stragglers or [float("nan")]), "ratio"),
        "serve.admit_s": (median(admits or [float("nan")]), "s"),
        "serve.tail_s": (median(tails or [float("nan")]), "s"),
        "serve.shed": (delta["shed"], "count"),
        "serve.client_retries": (sum(len(s.refusals) for s in subs), "count"),
        "serve.jobs_per_s": (len(jobs) / phase["wall"], "jobs/s"),
        "serve.job_latency_p50_s": (median(latencies), "s"),
        "serve.job_latency_tail_s": (latency_tail, "s"),
        "bench.place_wall_s": (untraced_place_s, "s"),
        "bench.trace_gap_s": (untraced_place_s - covered, "s"),
    }
    return m


def traced_run(xplace, wallbench, work, aux, multilevel, seconds, tally, pool=None, seed=0):
    """The traced run of `aux`: a served phase (the `serve_jobs` traffic
    over `pool`, or `aux` as a one-job batch), then untraced CLI references
    and right after them the in-process traced flow."""
    daemon = Daemon(xplace, work)
    try:
        if pool:
            phase = serve_phase(daemon, pool, seed, seconds / 2)
        else:
            phase = serve_phase(daemon, [aux], 0, 0.0, clients=1, per_manifest=1)
    finally:
        stopped = daemon.stop()
    refs = [place_once(xplace, aux, work, multilevel, k) for k in range(UNTRACED_REFS)]
    same = list(refs)
    if not multilevel:
        # A served job is always flat, so only a flat CLI run must match it.
        same += [j for j in phase["jobs"] if j["aux"] == aux]
    check_identical(same, os.path.basename(aux))
    jobs = tally_phase(tally, phase, stopped)
    refs = [r for r in refs if tally.op(r["problems"])]
    if not refs:
        return None
    traced = run_wallbench(wallbench, aux, work, multilevel, micro_seconds(seconds))
    untraced_s = min(r["place_s"] for r in refs)
    tally.op(traced_problems(traced, untraced_s, refs[0]["report"], flow_coverage(traced)))
    return layer_metrics(traced, phase, jobs, untraced_s, served_plans=pool is not None)


def micro_seconds(seconds):
    return max(1.0, seconds / 5.0)


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*PLACE_WORKLOADS, "serve_jobs"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isfile(os.path.join(root, "src", "main.rs"))):
        print("error: run from the root of an xplace source checkout", file=sys.stderr)
        return 2
    host = host_fingerprint()
    log(f"host: nproc={host['nproc']} cpu={host['cpu']!r} l3_mb={host['l3_mb']}")
    try:
        xplace, wallbench = build(root, args.trace == 1)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    work = os.path.join(root, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    times_before = cpu_times()
    tally = Tally()
    try:
        if args.workload == "serve_jobs":
            metrics = run_serve(xplace, work, args.seed, args.seconds, args.trace, wallbench, tally)
        else:
            metrics = run_place(
                xplace, work, PLACE_WORKLOADS[args.workload], args.seed, args.seconds,
                args.trace, wallbench, tally)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        for child in list(Child.live):
            child.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)

    steal = steal_share(times_before, cpu_times())
    if steal is not None:
        log(f"host: {100 * steal:.1f} % of CPU time stolen by the hypervisor during the run")
    for e in tally.problems:
        log(f"FAILED: {e}")
    if metrics is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    problems = []
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} was not measured")
            metrics[name] = (0.0, unit)
    for e in problems:
        log(f"FAILED: {e}")
    if not args.trace:
        rate = tally.failed / tally.attempted
        log(f"error_rate = {rate:.4f} ({tally.failed} of {tally.attempted} operations)")
        metrics["success_rate"] = (1.0 - rate, "fraction")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<32} {value:>16.6f} {unit}")
    result = {
        "correct": not tally.problems and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
