#!/usr/bin/env python3
"""Builds and runs the interaction benchmark for one workload.

    python3 perfbench/run.py --workload brush_distinct --seed 1 \
        --seconds 10 --trace 0 [--out FILE]

Run from the root of a checkout. The first run configures and builds the
benchmark (and the program sources it links) with CMake into the
directory named by $CARGO_TARGET_DIR, or `.bench_build`; later runs only
rebuild what changed. Each run appends one record (a run header with the
host, source and input identity, plus the result) to FILE, by default
`.bench_runs/runs.jsonl`; `compare.py` reads these files. A traced run
(--trace 1) also writes its spans as Chrome trace JSON next to FILE.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is non-zero when the build or run fails or any answer
fails its check.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds the benchmark binary; returns its path."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(build_dir, "perfbench")


def read_first(path, prefix=None):
    try:
        with open(path) as f:
            for line in f:
                if prefix is None:
                    return line.strip()
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_identity():
    """Git commit when the checkout is a repository, and always a digest of
    the program and benchmark sources (so two runs can be told apart even
    where git is absent)."""
    sha = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return sha or "unknown", h.hexdigest()[:16]


def host_header():
    sha, digest = source_identity()
    return {
        "cpu_model": read_first("/proc/cpuinfo", "model name") or "unknown",
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "governor": read_first(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "git_sha": sha,
        "source_digest": digest,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["brush_distinct", "brush_shared", "explore_net"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--out", default=os.path.join(".bench_runs", "runs.jsonl"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1
    header = host_header()
    out_path = os.path.join(ROOT, args.out)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(
            os.path.dirname(out_path),
            f"trace-{args.workload}-seed{args.seed}.json")
        cmd += ["--trace_out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith('{"header"'):
                header.update(json.loads(line)["header"])
    except (json.JSONDecodeError, KeyError) as e:
        log(f"unreadable benchmark output: {e}")
        return 1
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "header": header, "result": result}
    if trace_path:
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    with open(out_path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"header": header}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
