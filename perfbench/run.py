#!/usr/bin/env python3
"""Repository benchmark: closed-loop batch-dynamic workloads on par::UfoTree
and ParUfoConnectivity, with end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload social-wave --seed 1 --seconds 40 --trace 0

The first run configures and builds perfbench/CMakeLists.txt twice (telemetry
off and on) under $CARGO_TARGET_DIR (default .bench_build). --seconds sets the
measured round count (a fixed number of rounds per second at the reference
rate), so every run of a seed does the same work. The pool width is nproc - 1
(at least 1), and every pass asks glibc's malloc for transparent huge pages.
--trace 0 splits the rounds over three untraced passes (separate
processes) and prints the end-to-end metrics averaged over them.
--trace 1 runs an untraced pass, a traced pass at the same width and a traced
pass at width 1, and prints the per-layer metrics, the tracing overhead and
the width-1 ratios. The last line of standard output is one JSON object; any
mismatch against the oracle exits with code 1. perfbench/README.md defines
every metric.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("social-wave", "road-trickle")
E2E = (
    ("update_medges_s", "Medges/s"),
    ("delete_p50_ms", "ms"),
    ("insert_p50_ms", "ms"),
    ("query_mq_s", "Mq/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Tail latencies: printed by every run, but kept out of the bounded metrics
# of --trace 0, because between runs on a shared host their spread (0.2 to
# 0.8 of the median) exceeds any usable bound. --trace 1 records them as
# per-layer metrics from its untraced pass.
TAIL = (
    ("delete_p90_ms", "ms"),
    ("insert_p90_ms", "ms"),
)
# Spans whose width-1 over pool-width ratio the traced run reports.
RATIO_SPANS = (
    "par.batch_update", "par.edge_delete", "par.teardown", "par.edge_insert",
    "par.recluster", "par.flush", "par.recycle", "conn.search", "conn.promote",
    "connectivity.batch_erase", "connectivity.batch_insert",
    "connectivity.erase_self",
)
# Measured rounds per --seconds, about each workload's rate at width 3. The
# round count is fixed so every run of a seed does identical work: a
# time-bounded loop would let a faster program run more rounds, and per-round
# cost creeps up with the rounds already run (social-wave's erase p50 rose
# from about 84 to 118 ms over 400 rounds of one process on a 4-vCPU VM).
ROUNDS_PER_S = {"social-wave": 5, "road-trickle": 40}
MIN_ROUNDS = 100  # calls of each kind per run, so p90 has >= 10 beyond it
# End-to-end passes per --trace 0 run; set-up time is their median. Each
# process draws one of two memory layouts from the allocator, and with 4 KiB
# pages social-wave's insert p50 differed by about 12% between them (peak RSS
# 750 or 775 MB, about half the processes each); averaging three processes
# keeps that draw from deciding a run's figures. (A median over pooled calls
# would not: it lands in the majority's layout.)
E2E_PASSES = 3
# Every pass asks glibc's malloc to back its memory with transparent huge
# pages (madvise; the host's THP mode must allow it, and glibc must be 2.35
# or later, else the setting does nothing). The workloads make random
# accesses over 0.7 GB, so with 4 KiB pages most of them also miss the TLB,
# and the page walks' extra memory accesses track the host's memory load.
# Over six interleaved processes per setting on a shared 4-vCPU VM,
# social-wave's erase p50 spread 0.30 of its median with 4 KiB pages and
# 0.06 with huge pages (insert p50 0.25 and 0.05, query rate 0.12 and 0.04).
MALLOC_TUNABLES = "glibc.malloc.hugetlb=1"
RUN_DEADLINE = 170  # seconds for all passes of one run, after the builds


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()  # exits with code 2 on an unknown or mistyped flag
    if a.seed < 0 or not 1 <= a.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in [1, 60]")
    return a


def thp_mode():
    """The host's transparent-huge-page mode, as the kernel reports it."""
    try:
        text = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return "unknown"
    return text.split("[")[1].split("]")[0] if "[" in text else "unknown"


def nproc():
    return len(os.sched_getaffinity(0))


def pool_width():
    # One CPU is left to the rest of the host. On a 4-vCPU virtual machine a
    # pool as wide as the machine stalled at every fork-join barrier whenever
    # the hypervisor took one vCPU away: social-wave's erase p50 read 122 to
    # 179 ms across runs at width 4 and 102 to 112 ms at width 3 (three of
    # four seeds).
    return max(1, nproc() - 1)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(obs):
    """Configure (once) and build one tree; returns the benchmark binary."""
    if not (ROOT / "src" / "core" / "ufo.h").is_file():
        fail("library sources (src/) are missing; run from a full checkout")
    tree = build_dir() / ("perfbench-obs-on" if obs else "perfbench-obs-off")
    tree.mkdir(parents=True, exist_ok=True)
    log = tree / "build.log"
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DUFO_OBSERVABILITY={'ON' if obs else 'OFF'}"])
    steps.append(["cmake", "--build", str(tree), "-j", str(nproc())])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return tree / "ufo_perfbench"


def run_pass(binary, args, width, deadline, rounds, extra=()):
    env = dict(os.environ, UFOTREE_NUM_THREADS=str(width),
               GLIBC_TUNABLES=MALLOC_TUNABLES)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--rounds={rounds}", *extra]
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before the next pass")
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=left)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        fail("a pass did not finish in time")
    lines = p.stdout.decode().strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"pass exited with code {p.returncode} and no result")
    if p.returncode not in (0, 1) or (p.returncode == 1) == res["correct"]:
        fail(f"pass exited with code {p.returncode}")
    return res


def metric(out, name, value, unit):
    out[name] = {"value": value, "unit": unit}


def percentile(values, p):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(1, math.ceil(p * len(v))) - 1]


def summarize(passes):
    """End-to-end values of one or more passes: the mean over passes of each
    pass's median (p50) or peak RSS, the median set-up, and the p90s over the
    pooled calls."""
    def mean_of(stat):
        return statistics.fmean(stat(p) for p in passes)
    pooled = {k: [x for p in passes for x in p[k]] for k in ("delete_ms", "insert_ms")}
    return {
        "update_medges_s": mean_of(lambda p: statistics.median(p["update_medges_s"])),
        "delete_p50_ms": mean_of(lambda p: percentile(p["delete_ms"], 0.5)),
        "delete_p90_ms": percentile(pooled["delete_ms"], 0.9),
        "insert_p50_ms": mean_of(lambda p: percentile(p["insert_ms"], 0.5)),
        "insert_p90_ms": percentile(pooled["insert_ms"], 0.9),
        "query_mq_s": mean_of(lambda p: statistics.median(p["query_mq_s"])),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": mean_of(lambda p: p["peak_rss_mb"]),
        "calls": len(pooled["delete_ms"]),
    }


def main():
    args = parse_args()
    width = pool_width()
    off = build(obs=False)
    on = build(obs=True)
    deadline = time.monotonic() + RUN_DEADLINE

    rounds = max(MIN_ROUNDS, ROUNDS_PER_S[args.workload] * args.seconds)
    if args.trace == 0:
        share = math.ceil(rounds / E2E_PASSES)
        plan = [(off, width, share, ())] * E2E_PASSES
    else:
        # Three passes share the run, each measuring the same rounds: half
        # those of an end-to-end run, and at least MIN_ROUNDS.
        half = max(MIN_ROUNDS, rounds // 2)
        spans = build_dir() / f"spans-{args.workload}-{args.seed}.json"
        ckpt = build_dir() / f"checkpoint-{os.getpid()}.bin"
        plan = [(off, width, half, ()),
                (on, width, half, (f"--spans-out={spans}", f"--checkpoint={ckpt}")),
                (on, 1, half, ())]
    passes = []
    for binary, w, n, extra in plan:
        passes.append(run_pass(binary, args, w, deadline, n, extra))
        if not passes[-1]["correct"]:
            break
    for p in passes:
        print(f"# pass workload={p['workload']} seed={p['seed']} "
              f"nproc={p['nproc']} pool_width={p['pool_width']} "
              f"build_type={p['build_type']} thp={thp_mode()} "
              f"traced={str(p['traced']).lower()} "
              f"rounds={p['rounds']} delete_calls={len(p['delete_ms'])} "
              f"insert_calls={len(p['insert_ms'])} "
              f"op_fail_frac={p['failed'] / max(1, p['attempted'])}")
    correct = all(p["correct"] for p in passes)
    metrics = {}
    if correct:
        untraced = summarize(passes if args.trace == 0 else passes[:1])
        for name, unit in TAIL:
            print(f"# {name} {untraced[name]:.6g} {unit} "
                  f"(of {untraced['calls']} calls per kind)")
        if args.trace == 0:
            for name, unit in E2E:
                metric(metrics, name, untraced[name], unit)
        else:
            _, traced, width1 = passes
            traced_e2e = summarize([traced])
            for name, (value, unit) in sorted(traced["layer"].items()):
                metric(metrics, name, value, unit)
            for name, unit in TAIL:
                metric(metrics, name, untraced[name], unit)
            for name, unit in E2E + TAIL:
                metric(metrics, f"overhead.{name}",
                       traced_e2e[name] - untraced[name], unit)
            for span in RATIO_SPANS:
                t1 = width1["span_s_per_round"][span]
                tw = traced["span_s_per_round"][span]
                metric(metrics, f"{span}.t1_over_tw",
                       t1 / tw if tw > 0 else 0.0, "ratio")
            metric(metrics, "host.nproc", traced["nproc"], "count")
            metric(metrics, "pool.width", traced["pool_width"], "count")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        p = passes[-1]
        print(f"# MISMATCH ({p['workload']}, width {p['pool_width']}): "
              f"{p['mismatch']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
