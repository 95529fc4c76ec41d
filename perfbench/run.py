#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the simulator library from src/) into
.bench_build/perfbench, runs the harness for the workload in one process,
checks the simulated answers against perfbench/reference.json when the seed
is one recorded there, and prints one JSON object as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with
--trace 1 its per-layer metrics, and the traced run's spans are written as
Chrome-trace JSON to .bench_build/perfbench/traces/. Exits non-zero, without
a result line, when the build fails; exits non-zero after the result line
when any output check fails.

--update-reference records this run's simulated answers as the reference for
the seed (for a change that is meant to move them).
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
BUDGETS = os.path.join(ROOT, "bench", "budgets.json")
HARNESS_TIMEOUT_S = 170


def build():
    """Configure and build the harness; None when either step fails."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perf_harness", "-j", jobs]]
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-6000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(BUILD, "perf_harness")


def run_harness(exe, args, trace_path):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: harness timed out\n")
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write("perfbench: harness exited with %d\n" % proc.returncode)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        sys.stderr.write("perfbench: harness printed no result\n")
        return None


def check_serve_scale(sim):
    """Compares the traced fleet_steady run's smoke-size answers with the
    bench/serve_scale entries of bench/budgets.json (pinned to 10 digits)."""
    with open(BUDGETS) as f:
        pinned = json.load(f)["benches"]["serve_scale"]["metrics"]
    problems = []
    for name, budget in (("sim_tokens_per_s", "scale.tokens_per_s"),
                         ("sim_ttft_p50_ms", "scale.ttft_p50_ms")):
        got, want = sim[name], pinned[budget]
        if abs(got - want) > 1e-9 * abs(want):
            problems.append("serve_scale smoke %s = %r, bench/budgets.json %s %r"
                            % (name, got, budget, want))
        else:
            print("serve_scale smoke %s = %.10g matches bench/budgets.json %s"
                  % (name, got, budget))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(REFERENCE) as f:
        reference = json.load(f)
    # BENCHMARK.json lists the gated workloads; reference.json every workload
    # the harness runs (device_cold too).
    if args.workload not in reference["workloads"]:
        parser.error("unknown workload %r" % args.workload)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    exe = build()
    if exe is None:
        return 2
    trace_path = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces",
                                  "%s-seed%d.trace.json" % (args.workload, args.seed))
    out = run_harness(exe, args, trace_path)
    if out is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    problems = list(out["problems"])
    attempted = max(1, int(out["attempted"]))
    failed = int(out["failed"])
    recorded = reference["workloads"][args.workload]["seeds"]
    key = str(args.seed)
    if args.update_reference:
        recorded[key] = {"sim": out["sim"]}
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=2, sort_keys=False)
            f.write("\n")
    elif key in recorded:
        for name, want in sorted(recorded[key]["sim"].items()):
            got = out["sim"].get(name)
            if got != want:
                problems.append("%s = %r, reference %r" % (name, got, want))
    if out["serve_scale"]:
        problems += check_serve_scale(out["serve_scale"])
    metrics = {}
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append("metric %s missing or not in %s" % (m["name"], m["unit"]))
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if problems:
        failed = attempted  # a wrong answer cannot be pinned on one operation
    for p in problems:
        print("CHECK FAILED: %s" % p)
    if args.update_reference:
        note = "; seed %s recorded in reference.json" % key
    elif key in recorded:
        note = "; seed %s checked against reference.json" % key
    else:
        note = ""
    print("failed_share %.6g (%d of %d operations)%s" % (failed / attempted, failed, attempted,
                                                        note))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
