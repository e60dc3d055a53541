#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from this checkout and runs it.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload cold_admit --seed 1 --seconds 40 --trace 0

prints the run metadata, every metric by name with its unit, and as the last
line one JSON object {"correct", "attempted", "failed", "metrics"}; --trace 0
gives the end-to-end metrics, --trace 1 the per-layer metrics of the traced
run. Other modes:

    --all                 every workload once; prints the end-to-end metrics of
                          each by name with units and exits non-zero when any
                          correctness check failed
    --runs N              N runs at seeds seed..seed+N-1; median and quartiles
                          of every metric over the runs
    --selftest            the benchmark's unit tests, plus two runs in one
                          directory that must both start cold and agree on
                          their digests

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build); every result is appended to <build>/results.jsonl with its
metadata, and traced runs leave their spans in <build>/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hit_stream", "cold_admit", "churn_events", "paper_sweep"]
RUN_TIMEOUT_S = 170

# The end-to-end metrics each workload reports under the names README.md
# defines (printed by --all).
REPORTED = {
    "hit_stream": ["setup_s", "hit_p50_us", "hit_p99_us", "hit_max_rate", "failed_share",
                   "peak_rss_mb"],
    "cold_admit": ["setup_s", "cold_p50_ms", "cold_p90_ms", "cold_per_s", "shed_p50_us",
                   "failed_share", "peak_rss_mb"],
    "churn_events": ["setup_s", "hit_p50_us", "hit_p99_us", "event_p50_us", "event_p90_us",
                     "failed_share", "peak_rss_mb"],
    "paper_sweep": ["setup_s", "sweep_instances_per_s", "failed_share", "peak_rss_mb"],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures once and builds `targets`; returns the build directory,
    or None when the build fails."""
    cmake_dir = os.path.join(build_root(), "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1), "--target"]
                 + targets)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return None
    return cmake_dir


def source_identity():
    """The git commit when the checkout is a repository, and always a digest
    of the library and benchmark sources."""
    commit = "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, workdir=None, echo=True):
    """Runs perfbench once; returns (exit code, stdout lines, parsed result or None)."""
    own_dir = workdir is None
    if own_dir:
        workdir = os.path.join(build_root(), "work", "%s-%d-%d" % (workload, seed, os.getpid()))
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", "."]
    try:
        done = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out, err = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode(errors="replace") if isinstance(e.stdout, bytes) else e.stdout or ""
        code, err = 124, "perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S
    if err:
        sys.stderr.write(err)
    lines = out.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    traces = os.path.join(build_root(), "traces")
    for name in os.listdir(workdir):
        if name.startswith("spans-"):
            os.makedirs(traces, exist_ok=True)
            shutil.move(os.path.join(workdir, name), os.path.join(traces, name))
    if own_dir:
        shutil.rmtree(workdir, ignore_errors=True)
    if echo:
        for line in lines[:-1] if result is not None else lines:
            print(line)
    return code, lines, result


def record(meta, result):
    with open(os.path.join(build_root(), "results.jsonl"), "a") as f:
        f.write(json.dumps(dict(meta, result=result)) + "\n")


def binary_meta(lines):
    """key=value fields of the binary's `meta` line."""
    for line in lines:
        if line.startswith("meta "):
            return dict(kv.split("=", 1) for kv in line.split()[1:] if "=" in kv)
    return {}


def reported(lines):
    """{name: (value, unit)} of the binary's `metric` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = (float(parts[2]), parts[3])
    return out


def notes(lines):
    return dict(line.split(" ", 2)[1:] for line in lines
                if line.startswith("note ") and len(line.split(" ", 2)) == 3)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--runs", type=int, default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.selftest):
        ap.error("--workload, --all or --selftest is required")

    targets = ["perfbench", "perfbench_tests"] if args.selftest else ["perfbench"]
    cmake_dir = build(targets)
    if cmake_dir is None:
        return 1
    binary = os.path.join(cmake_dir, "perfbench")
    commit, source = source_identity()
    print("meta commit=%s source=%s" % (commit, source))

    def one(workload, seed, trace, echo=True):
        code, lines, result = run_once(binary, workload, seed, args.seconds, trace, echo=echo)
        meta = dict(binary_meta(lines), commit=commit, source=source, exit_code=code,
                    unix_time=int(time.time()))
        record(meta, result)
        return code, lines, result

    if args.selftest:
        return selftest(binary, os.path.join(cmake_dir, "perfbench_tests"))

    if args.all:
        failed = False
        table = []
        for workload in WORKLOADS:
            code, lines, result = one(workload, args.seed, False, echo=False)
            ok = code == 0 and result is not None and result["correct"]
            failed |= not ok
            got = reported(lines)
            for name in REPORTED[workload]:
                value, unit = got.get(name, (float("nan"), "?"))
                table.append((workload, name, value, unit))
            for line in lines:
                if line.startswith("problem "):
                    print("%s: %s" % (workload, line))
            print("%-13s %s" % (workload, "correct" if ok else "FAILED"))
        for workload, name, value, unit in table:
            print("%-13s %-22s %14.6g %s" % (workload, name, value, unit))
        return 1 if failed else 0

    if args.runs > 0:
        values = {}
        failed = False
        for k in range(args.runs):
            code, lines, result = one(args.workload, args.seed + k, args.trace == 1, echo=False)
            if result is None or not result["correct"] or code != 0:
                failed = True
                print("seed %d: FAILED (exit %d)" % (args.seed + k, code))
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            print("seed %d: %s" % (args.seed + k, json.dumps(
                {n: round(m["value"], 4) for n, m in result["metrics"].items()})))
        print("%-32s %12s %12s %12s %8s  (%s, %d runs)" % (
            "metric", "q1", "median", "q3", "spread", args.workload, args.runs))
        for name, (vals, unit) in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print("%-32s %12.6g %12.6g %12.6g %8.4f  %s" % (name, q1, med, q3, spread, unit))
        return 1 if failed else 0

    code, lines, result = one(args.workload, args.seed, args.trace == 1)
    if result is None:
        log("perfbench: no result from %s" % args.workload)
        return code or 1
    print(lines[-1], flush=True)
    return code


def selftest(binary, tests):
    """Unit tests, then two cold_admit runs in one directory: both must
    start cold, leave no snapshot behind and agree on their digest."""
    work = os.path.join(build_root(), "work", "selftest-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ok = subprocess.run([tests], cwd=work, timeout=RUN_TIMEOUT_S).returncode == 0
    digests = []
    for attempt in range(2):
        code, lines, result = run_once(binary, "cold_admit", 7, 2, False, workdir=work,
                                       echo=False)
        n = notes(lines)
        leftovers = [f for f in os.listdir(work) if ".snapshot" in f]
        run_ok = (code == 0 and result is not None and result["correct"]
                  and n.get("start_cold") == "1" and not leftovers)
        print("selftest run %d: exit=%d start_cold=%s digest=%s leftovers=%s -> %s" % (
            attempt + 1, code, n.get("start_cold"), n.get("cold_digest"), leftovers,
            "ok" if run_ok else "FAILED"))
        ok &= run_ok
        digests.append(n.get("cold_digest"))
    same = digests[0] is not None and digests[0] == digests[1]
    print("selftest digests %s" % ("agree" if same else "DIFFER"))
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok and same else 1


if __name__ == "__main__":
    sys.exit(main())
