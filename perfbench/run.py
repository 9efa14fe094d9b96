#!/usr/bin/env python3
"""SurfOS end-to-end benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the SurfOS libraries
from src/) into $CARGO_TARGET_DIR or .bench_build/, then runs one workload
in a fresh process with a fixed thread budget and a clean SURFOS_*
environment. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice, untraced then with the harness's span recorder on, and
reports the per-layer metrics of the traced run plus the tracing overhead;
the two runs' FleetReport hashes must match. Sample counts, the run stamp
(nproc, SIMD backend, threads) and the output checks are printed on the
lines before the result. A run that cannot report honestly (too few
samples beyond a percentile, a crash, a build failure) exits non-zero
without a result.
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
BINARY = "surfos_perfbench"
CHILD_TIMEOUT_S = 170  # one child; a traced run has two and gets half each

# SurfOS pool size (the generator is the pool's calling thread, so this is
# the run's whole thread count), capped at nproc - 1 so a core is left for
# the kernel and this driver. Two threads measured steadiest on a shared
# 4-vCPU host: fleet_storm's IQR/median was 0.02-0.07 at two threads against
# 0.09-0.10 at three, and replan_sweep, run interleaved on the same seeds,
# 0.17-0.22 at two against 0.21-0.26 at three.
POOL_THREADS = 2
# The end-to-end metric whose traced/untraced ratio is the tracing overhead.
OVERHEAD_BASIS = "epoch_ms.p50"


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_root):
    """Configures and builds the harness; returns the binary path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", build_dir, "--target", BINARY, "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.exit(f"perfbench build failed ({' '.join(step[:2])}); see {log_path}")
    return os.path.join(build_dir, BINARY)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SURFOS_")}
    threads = min(POOL_THREADS, (os.cpu_count() or 1) - 1)
    env["SURFOS_THREADS"] = str(max(1, threads))
    return env


def run_child(binary, args, trace, run_dir, timeout):
    """Runs one workload process; returns its result record."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(
            run_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload}: no result within {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"{args.workload}: harness exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{args.workload}: harness printed no result")
    return json.loads(lines[-1])


def check_hash(record, run_dir, args, binary, checks):
    """Untraced runs of one seed must reproduce the first run's report hash
    (per binary: a rebuilt program may legitimately decide differently)."""
    if record["hashed_epochs"] == 0:
        return
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:12]
    path = os.path.join(run_dir, f"hash-{args.workload}-seed{args.seed}"
                                 f"-s{args.seconds}-{build_id}.txt")
    if os.path.exists(path):
        with open(path) as f:
            expected = f.read().strip()
        checks["report hash matches earlier runs of this seed"] = (
            "" if expected == record["report_hash"]
            else f"{record['report_hash']} != {expected}")
    else:
        with open(path, "w") as f:
            f.write(record["report_hash"] + "\n")


def select(spec_metrics, produced, workload):
    """The declared metrics, in declaration order, as value/unit pairs."""
    out = {}
    for m in spec_metrics:
        got = produced.get(m["name"])
        if got is None:
            sys.exit(f"{workload}: harness did not report {m['name']}")
        if got["unit"] != m["unit"]:
            sys.exit(f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
        out[m["name"]] = got
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload}; one of {names}")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("SurfOS sources (src/) not found next to perfbench/")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    started = time.time()
    binary = build(build_root)
    log(f"build ready in {time.time() - started:.1f} s")
    run_dir = os.path.join(build_root, "run")
    os.makedirs(run_dir, exist_ok=True)

    checks = {}
    if args.trace:
        base = run_child(binary, args, 0, run_dir, CHILD_TIMEOUT_S // 2)
        record = run_child(binary, args, 1, run_dir, CHILD_TIMEOUT_S // 2)
        checks["report hash identical traced and untraced"] = (
            "" if base["report_hash"] == record["report_hash"]
            else f"{record['report_hash']} != {base['report_hash']}")
        plain = base["end_to_end"][OVERHEAD_BASIS]["value"]
        traced = record["end_to_end"][OVERHEAD_BASIS]["value"]
        record["per_layer"]["trace.overhead_pct"] = {
            "value": 100.0 * (traced - plain) / plain, "unit": "%",
            "samples": record["end_to_end"][OVERHEAD_BASIS]["samples"]}
        metrics = select(spec["per_layer"], record["per_layer"], args.workload)
    else:
        record = run_child(binary, args, 0, run_dir, CHILD_TIMEOUT_S)
        check_hash(record, run_dir, args, binary, checks)
        metrics = select(spec["end_to_end"], record["end_to_end"], args.workload)

    checks.update(record["checks"])
    failures = {name: detail for name, detail in checks.items() if detail}
    stamp = record["stamp"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"nproc {stamp['nproc']}, simd {stamp['simd']}, threads {stamp['threads']}, "
          f"report hash {record['report_hash']} over {record['hashed_epochs']} epochs")
    for name, detail in checks.items():
        print(f"  check {'FAIL' if detail else 'ok  '} {name}"
              + (f": {detail}" if detail else ""))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:6s} n={m['samples']}")

    result = {
        "correct": not failures,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
