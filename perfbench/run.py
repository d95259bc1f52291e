#!/usr/bin/env python3
"""Serving benchmark for `orion serve DB --wal --domains 2 --group-commit-window 500`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

It builds bin/orion.exe and perfbench/gen.exe from source, writes a
seeded store, and runs trials: start the server on a fresh copy of the
store and log, build the workload's composites over the wire, run the
write phase (and, on wal-growth and hot-pair, a read-back phase), check
the gate, kill -9 the server, fsck its files and recover copies of
them.  The last line of stdout is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A failed
gate exits 1 and prints no result.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, "_build", "default")
ORION = os.path.join(BUILD, "bin", "orion.exe")
GEN = os.path.join(BUILD, "perfbench", "gen.exe")

WORKLOADS = ("wal-growth", "hot-pair", "snapshot-read")

# The README's multi-client configuration, sized to a 2-core host.
SERVE_FLAGS = ["--wal", "--domains", "2", "--group-commit-window", "500"]

# Setup samples a run takes, the trials' own starts included.
SETUP_SAMPLES = {"wal-growth": 31, "hot-pair": 31, "snapshot-read": 5}
# `orion recover` timings per trial.
RECOVERS_PER_TRIAL = {"wal-growth": 5, "hot-pair": 1, "snapshot-read": 3}

# The engine calls no fsync: Wal.sync writes the whole log to a tmp file
# and renames it over the old one.  A kill -9 therefore leaves the same
# bytes in the files on tmpfs as on a disk, and the server's writes are
# reported as wchar from /proc/PID/io.
FLUSH_POLICY = "no fsync; Wal.sync rewrites the whole log to a tmp file and renames it; writes reported as wchar"

# Per-process set of child processes, stopped on exit.
CHILDREN = []


class GateFailure(Exception):
    """A correctness check failed: the run prints no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, check=True, **kw):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, **kw)
    if check and p.returncode != 0:
        raise GateFailure("%s exited %d:\n%s" % (" ".join(cmd[:2]), p.returncode, p.stdout[-2000:]))
    return p


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc in CHILDREN:
        CHILDREN.remove(proc)


def build():
    for need in ("dune-project", "bin/orion.ml", "perfbench/gen.ml", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit("perfbench: %s not found; run from the root of a checkout" % need)
    # No dune cache: the build reads and writes only inside the checkout.
    p = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--profile", "release",
         "bin/orion.exe", "perfbench/gen.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        raise SystemExit("perfbench: build failed:\n" + p.stdout[-4000:])


# Where the server's files live ------------------------------------------

def fs_type(path):
    """Filesystem type of the mount holding [path], from /proc/self/mounts."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1].replace("\\040", " ")
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                best, kind = mnt, parts[2]
    return kind


def work_dir():
    """A private directory for the store, log and socket: on tmpfs when
    /dev/shm is one, so the whole-log rewrites stay off the shared disk;
    else inside the checkout."""
    base = "/dev/shm"
    if not (os.path.isdir(base) and os.access(base, os.W_OK) and fs_type(base) == "tmpfs"):
        base = os.path.join(ROOT, ".perfbench-run")
        os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="perfbench-", dir=base)


# Host -------------------------------------------------------------------

def cpu_times(cpus):
    """Summed /proc/stat times of [cpus]: user nice system idle iowait
    irq softirq steal."""
    total = [0] * 8
    with open("/proc/stat") as f:
        for line in f:
            name, *vals = line.split()
            if name.startswith("cpu") and name[3:].isdigit() and int(name[3:]) in cpus:
                total = [t + int(v) for t, v in zip(total, vals[:8])]
    return total


def ref_ms():
    """One pass of a fixed loop: how fast this host runs right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(200000):
        s += i * i
    return (time.perf_counter() - t0) * 1e3


class Host:
    def __init__(self, cpus):
        self.cpus = cpus
        self.cpu0 = cpu_times(cpus)
        self.ref = [ref_ms() for _ in range(5)]
        self.load = os.getloadavg()[0]

    def finish(self):
        self.ref += [ref_ms() for _ in range(5)]
        d = [b - a for a, b in zip(self.cpu0, cpu_times(self.cpus))]
        total = max(1, sum(d))
        return {
            "nproc": os.cpu_count(),
            "cpus": sorted(self.cpus),
            "loadavg_1m": self.load,
            "host.ref_ms": statistics.median(self.ref),
            "host.steal_frac": d[7] / total,
            "host.iowait_frac": d[4] / total,
        }


# Stats deltas -----------------------------------------------------------

def counter(s, k):
    return s["counters"].get(k, 0)


def delta(a, b, k):
    return counter(b, k) - counter(a, k)


def hsum(a, b, k):
    return b["hist_sum"].get(k, 0.0) - a["hist_sum"].get(k, 0.0)


def hcount(a, b, k):
    return b["hist_count"].get(k, 0) - a["hist_count"].get(k, 0)


def prefixed_delta(a, b, prefix, suffix):
    return sum(v - a["counters"].get(k, 0) for k, v in b["counters"].items()
               if k.startswith(prefix) and k.endswith(suffix))


def ratio(x, y):
    return x / y if y else 0.0


def percentile(xs, q):
    """Nearest-rank percentile of [xs]."""
    s = sorted(xs)
    if not s:
        return 0.0
    return s[max(0, math.ceil(q * len(s)) - 1)]


def block_percentile(trials, key, q):
    """Median, over consecutive blocks of the run's samples, of each
    block's [q] percentile.  A block holds enough samples to put at least
    100 beyond the percentile; the samples left over join the last block,
    and a run with fewer samples than one block needs is one block."""
    xs = [x for t in trials for x in t[key]]
    need = math.ceil(100 / (1 - q))
    n = max(1, len(xs) // need)
    bounds = [i * need for i in range(n)] + [len(xs)]
    return statistics.median(percentile(xs[a:b], q) for a, b in zip(bounds, bounds[1:]))


# One run ----------------------------------------------------------------

class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = work_dir()
        self.seed_db = os.path.join(self.dir, "seed.odb")
        self.setup_s = []
        self.recover_s = []
        self.trials = []
        self.crashed = None  # (db, wal) of the last trial, for the engine rows
        self.engine = None

    def gen(self, *args):
        return run([GEN] + [str(a) for a in args])

    def start_server(self, tdir):
        db = os.path.join(tdir, "db.odb")
        shutil.copyfile(self.seed_db, db)
        sock = os.path.join(tdir, "s.sock")
        out = open(os.path.join(tdir, "server.log"), "w")
        t = time.monotonic()
        proc = subprocess.Popen([ORION, "serve", db, "--socket", sock] + SERVE_FLAGS,
                                stdout=out, stderr=subprocess.STDOUT)
        out.close()
        CHILDREN.append(proc)
        return proc, db, sock, t

    def load(self, tdir, setup_only):
        proc, db, sock, launched = self.start_server(tdir)
        out = os.path.join(tdir, "load.json")
        expect = os.path.join(tdir, "expect.txt")
        try:
            self.gen("load", "--workload", self.workload, "--seed", self.seed, "--socket", sock,
                     "--wal-file", db + ".wal", "--server-pid", proc.pid,
                     "--seconds", self.seconds, "--trace", int(self.trace),
                     "--setup-only", int(setup_only), "--out", out, "--expect", expect)
            if proc.poll() is not None:
                raise GateFailure("server exited with %s during the load" % proc.returncode)
        finally:
            stop(proc)  # kill -9: the crash recovery must survive
        with open(out) as f:
            res = json.load(f)
        self.setup_s.append(res["setup_done"] - launched)
        return res, db, expect

    def trial(self, k):
        tdir = os.path.join(self.dir, "t%d" % k)
        os.mkdir(tdir)
        res, db, expect = self.load(tdir, setup_only=False)
        if res["errors"] or res["tx_failed"] or res["read_failed"]:
            raise GateFailure("trial %d: %s" % (k, "; ".join(res["errors"][:5]) or "failed operations"))
        if self.workload == "wal-growth" and res["log_bytes_end"] <= 2 * 1024 * 1024:
            raise GateFailure("wal-growth log ended at %d bytes, not past 2 MB" % res["log_bytes_end"])
        # The killed server's files must check clean and recover every
        # acknowledged commit.
        run([ORION, "fsck", db])
        for r in range(RECOVERS_PER_TRIAL[self.workload]):
            copy = os.path.join(tdir, "rec%d.odb" % r)
            shutil.copyfile(db, copy)
            shutil.copyfile(db + ".wal", copy + ".wal")
            t = time.monotonic()
            run([ORION, "recover", copy])
            self.recover_s.append(time.monotonic() - t)
            if r == 0:
                check_recovered(copy, expect)
        self.crashed = (db, db + ".wal")
        res["dir"] = tdir
        self.trials.append(res)
        return res

    def extra_setup(self, k):
        tdir = os.path.join(self.dir, "s%d" % k)
        os.mkdir(tdir)
        self.load(tdir, setup_only=True)
        shutil.rmtree(tdir)

    def run(self):
        self.gen("setup", "--workload", self.workload, "--seed", self.seed, "--db", self.seed_db)
        write_s = 0.0
        k = 0
        while True:
            res = self.trial(k)
            write_s += res["write_s"]
            k += 1
            # Snapshot-read's one trial writes for --seconds itself.
            if self.workload == "snapshot-read" or write_s >= self.seconds:
                break
            # Only the last trial's files are kept for the engine rows.
            shutil.rmtree(self.trials[-1]["dir"])
        for j in range(SETUP_SAMPLES[self.workload] - len(self.setup_s)):
            self.extra_setup(j)
        if self.trace:
            out = os.path.join(self.dir, "engine.json")
            self.gen("engine", "--seed", self.seed, "--db", self.crashed[0], "--wal", self.crashed[1],
                     "--dir", self.dir, "--out", out)
            with open(out) as f:
                self.engine = json.load(f)

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def check_recovered(db, expect):
    """Gate: the recovered store holds exactly the acknowledged components."""
    p = run([GEN, "verify", "--db", db, "--expect", expect], check=False)
    if p.returncode != 0:
        raise GateFailure("recovered store differs from the acknowledged commits:\n" + p.stdout[-2000:])


# Metrics ----------------------------------------------------------------

def end_to_end(b):
    ts = b.trials
    committed = sum(t["tx_committed"] for t in ts)
    reads = sum(t["reads"] for t in ts)
    read_ms = [x for t in ts for x in t["read_ms"]]
    wchar = sum(t["proc1"]["io"]["wchar"] - t["proc0"]["io"]["wchar"] for t in ts)
    return {
        "setup_s": statistics.median(b.setup_s),
        "tx_per_s": committed / sum(t["write_s"] for t in ts),
        "read_per_s": reads / sum(t["read_s"] for t in ts),
        "read_p50_ms": percentile(read_ms, 0.50),
        "write_bytes_per_tx": wchar / committed,
        "rss_peak_mb": statistics.median(t["proc2"]["hwm_kb"] for t in ts) / 1024.0,
        "recover_s": statistics.median(b.recover_s),
    }


def tenth_rates(t):
    """Commits per second over the first and the last tenth of a trial's commits."""
    done = sorted(t["done_at"])
    n = len(done) // 10
    if n < 2:
        return 0.0, 0.0
    return (n - 1) / (done[n - 1] - done[0]), (n - 1) / (done[-1] - done[-n])


def traced_time(d, period):
    """Time of a phase of [d] seconds spent in traced periods: the odd
    ones of [period] seconds each, counted from the phase's start."""
    full = int(d // period)
    return (full // 2) * period + ((d - full * period) if full % 2 == 1 else 0.0)


def per_layer(b, host):
    ts = b.trials
    med = statistics.median
    committed = sum(t["tx_committed"] for t in ts)
    reads = sum(t["reads"] for t in ts)
    snapshot = b.workload == "snapshot-read"

    def spans(key):
        xs = [x for t in ts for x in t[key]]
        return med(xs) if xs else 0.0

    def w(f):
        """Summed over the write phases."""
        return sum(f(t["stats0"], t["stats1"]) for t in ts)

    def rd(f):
        """Summed over the phases that ran the snapshot reads."""
        return sum(f(t["stats0"], t["stats1"]) if snapshot else f(t["stats1"], t["stats2"]) for t in ts)

    def whole(f):
        return sum(f(t["stats0"], t["stats2"]) for t in ts)

    def wmean(k):
        n = w(lambda a, c: hcount(a, c, k))
        return ratio(w(lambda a, c: hsum(a, c, k)), n)

    def per_tx(k):
        return ratio(w(lambda a, c: delta(a, c, k)), committed)

    batches = w(lambda a, c: delta(a, c, "wal.group_commit.batches"))
    solo = w(lambda a, c: delta(a, c, "wal.group_commit.solo_txs"))
    batched = w(lambda a, c: delta(a, c, "wal.group_commit.batched_txs"))
    mvcc_reads = rd(lambda a, c: delta(a, c, "mvcc.reads"))
    hits = whole(lambda a, c: delta(a, c, "edge_cache.hits"))
    misses = whole(lambda a, c: delta(a, c, "edge_cache.misses"))
    setup_hits = sum(counter(t["setup_stats"], "pool.hits") for t in ts)
    setup_misses = sum(counter(t["setup_stats"], "pool.misses") for t in ts)
    tenths = [tenth_rates(t) for t in ts]
    # Tracing's cost: the closed loop's rate in traced against untraced
    # periods of the same write phases (the reader on snapshot-read,
    # whose writer runs on a schedule).
    kind = "reads" if snapshot else "tx"
    traced = sum(t["traced_" + kind] for t in ts)
    untraced = sum(t["untraced_" + kind] for t in ts)
    traced_s = sum(traced_time(t["write_s"], t["trace_period"]) for t in ts)
    untraced_s = sum(t["write_s"] for t in ts) - traced_s
    span_s = sum(t["tx_span_s"] + t["read_span_s"] for t in ts)
    covered_s = sum(t["tx_s"] + t["read_tx_s"] for t in ts)
    m = {
        "client.begin_us": spans("begin_us"),
        "client.lock_us": spans("lock_us"),
        "client.eval_us": spans("eval_us"),
        "client.commit_us": spans("commit_us"),
        "client.snapshot_us": spans("snapshot_us"),
        "client.components_of_us": spans("components_us"),
        "client.tx_p50_ms": percentile([x for t in ts for x in t["tx_ms"]], 0.5),
        "client.tx_p99_ms": block_percentile(ts, "tx_ms", 0.99),
        "client.read_p99_ms": block_percentile(ts, "read_ms", 0.99),
        "client.stage_cover": ratio(span_s, covered_s),
        "client.attempts_per_commit": ratio(committed + sum(t["retries"] for t in ts), committed),
        "frame.decode_us": wmean("frame.decode_seconds") * 1e6,
        "frame.encode_us": wmean("frame.encode_seconds") * 1e6,
        "server.requests_per_tx": per_tx("server.requests"),
        "server.dispatch_us": wmean("server.dispatch_seconds") * 1e6,
        "server.cpu_ms_per_tx": ratio(sum(t["proc1"]["cpu_ms"] - t["proc0"]["cpu_ms"] for t in ts), committed),
        "server.parks_per_tx": per_tx("server.parks_total"),
        "server.deadlock_victims_per_tx": per_tx("server.deadlock_victims"),
        "txsvc.wait_us_per_tx": ratio(w(lambda a, c: hsum(a, c, "txsvc.wait_seconds")), committed) * 1e6,
        "txsvc.hold_us_per_tx": ratio(w(lambda a, c: hsum(a, c, "txsvc.hold_seconds")), committed) * 1e6,
        "txsvc.contended_frac": ratio(w(lambda a, c: delta(a, c, "txsvc.contended")),
                                      w(lambda a, c: delta(a, c, "txsvc.acquires"))),
        "txsvc.merged_searches_per_tx": per_tx("txsvc.merged_searches"),
        "txsvc.partition_contended_frac": ratio(
            w(lambda a, c: prefixed_delta(a, c, "txsvc.partition{", ".contended")),
            w(lambda a, c: prefixed_delta(a, c, "txsvc.partition{", ".acquires"))),
        "lock.acquisitions_per_tx": per_tx("lock.acquisitions"),
        "lock.blocks_per_tx": per_tx("lock.blocks"),
        "lock.wait_ms_per_tx": ratio(w(lambda a, c: hsum(a, c, "lock.wait_seconds")), committed) * 1e3,
        "wal.syncs_per_tx": per_tx("wal.syncs"),
        "wal.log_bytes_per_tx": per_tx("wal.bytes"),
        "wal.log_mb_end": med(t["log_bytes_end"] for t in ts) / 1e6,
        "wal.sync_ms": wmean("wal.sync_seconds") * 1e3,
        "wal.append_us": wmean("wal.append_seconds") * 1e6,
        "wal.group_commit.batch_mean": ratio(solo + batched, batches),
        "wal.group_commit.solo_frac": ratio(solo, solo + batched),
        "wal_growth.tx_per_s.first_tenth": med(a for a, _ in tenths),
        "wal_growth.tx_per_s.last_tenth": med(z for _, z in tenths),
        "mvcc.published_per_tx": per_tx("mvcc.published"),
        "mvcc.pruned_per_tx": per_tx("mvcc.pruned"),
        "mvcc.reads_per_read": ratio(mvcc_reads, reads),
        "mvcc.fallthrough_frac": ratio(rd(lambda a, c: delta(a, c, "mvcc.fallthroughs")), mvcc_reads),
        "mvcc.chains_peak": max(t["chains_peak"] for t in ts),
        "traversal.components_us": ratio(whole(lambda a, c: hsum(a, c, "traversal.components_seconds")),
                                         whole(lambda a, c: hcount(a, c, "traversal.components_seconds"))) * 1e6,
        "edge_cache.hit_frac": ratio(hits, hits + misses),
        "pool.miss_frac.setup": ratio(setup_misses, setup_hits + setup_misses),
        "pool.evictions.setup": med(counter(t["setup_stats"], "pool.evictions") for t in ts),
        "obs.tracing_overhead": 1.0 - ratio(ratio(traced, traced_s), ratio(untraced, untraced_s)),
        "host.ref_ms": host["host.ref_ms"],
        "host.steal_frac": host["host.steal_frac"],
        "host.iowait_frac": host["host.iowait_frac"],
    }
    m.update(b.engine)
    return m


# Main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_signal)

    # The server, the generator and the tools share one CPU, which they
    # inherit from this process.  On a VM whose vCPUs are preempted by
    # the hypervisor (steal), a wakeup sent to the other vCPU waits until
    # it runs again; on one vCPU a preemption stalls the whole loop at
    # once, and the figures fall with steal instead of twice as fast.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    host = Host({cpu})
    b = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        b.run()
        hinfo = host.finish()
        metrics = per_layer(b, hinfo) if args.trace else end_to_end(b)
    except GateFailure as e:
        log("perfbench: gate failed: %s" % e)
        sys.exit(1)
    finally:
        for p in list(CHILDREN):
            stop(p)
        where = b.dir
        b.cleanup()

    ts = b.trials
    late = [x for t in ts for x in t["late_ms"]]
    info = dict(hinfo, workload=args.workload, seed=args.seed, trace=args.trace,
                fs=fs_type(os.path.dirname(where)), work_dir=os.path.dirname(where),
                flush_policy=FLUSH_POLICY, trials=len(ts), setups=len(b.setup_s),
                recovers=len(b.recover_s),
                tx_samples=sum(len(t["tx_ms"]) for t in ts),
                read_samples=sum(len(t["read_ms"]) for t in ts),
                log_bytes_end=[t["log_bytes_end"] for t in ts],
                deadlock_retries=sum(t["retries"] for t in ts))
    if late:
        info["generator_late_p50_ms"] = percentile(late, 0.5)
        info["generator_late_p99_ms"] = percentile(late, 0.99)
    print(json.dumps({"info": info}))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log("perfbench: no figure for %s" % ", ".join(missing))
        sys.exit(1)
    attempted = sum(t["tx_attempted"] + t["reads"] for t in ts)
    failed = sum(t["tx_failed"] + t["read_failed"] for t in ts)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
