#!/usr/bin/env python3
"""Bench-coverage map of src/: which monde:: functions no bench or example runs.

Configures a Debug build with `--coverage -O1` in its own directory, runs
every bench (serve_* with --smoke, the rest at their defaults) and every
example, all at one thread, then reads gcov's per-function counts for every
object of the `monde` library. A monde:: function defined under src/ that
never ran is listed, and the list is diffed against an allowlist of test
oracles and other deliberate exceptions (scripts/bench_coverage_allow.txt):

    <qualified name>  # <reason it stays although no bench runs it>

Names are compared without parameter lists, so one allowlist line covers
every overload. A function defined inline in a header is seen only where a
src/ file compiles a call to it. Exit status 0 means the never-run list equals the allowlist;
1 means it does not (new never-run functions, or allowlist lines for
functions that now run or no longer exist).

    python3 scripts/bench_coverage.py                   # build, run, report
    python3 scripts/bench_coverage.py --summary "$GITHUB_STEP_SUMMARY"
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "scripts", "bench_coverage_allow.txt")


def configure_and_build(build_dir: str, jobs: int) -> None:
    subprocess.run(
        ["cmake", "-B", build_dir, "-S", ROOT, "-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS=--coverage -O1", "-DCMAKE_EXE_LINKER_FLAGS=--coverage",
         "-DMONDE_BUILD_TESTS=OFF"],
        check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs)], check=True,
                   stdout=subprocess.DEVNULL)


def run_binaries(build_dir: str) -> list[str]:
    """Runs every bench and example once; returns the names that failed."""
    for gcda in glob.glob(os.path.join(build_dir, "**", "*.gcda"), recursive=True):
        os.remove(gcda)
    # Benches write traces and JSON into their working directory.
    workdir = os.path.join(build_dir, "coverage_run")
    os.makedirs(workdir, exist_ok=True)
    failed = []
    for kind in ("bench", "examples"):
        for exe in sorted(glob.glob(os.path.join(build_dir, kind, "*"))):
            if not (os.path.isfile(exe) and os.access(exe, os.X_OK)):
                continue
            name = os.path.basename(exe)
            cmd = [exe] + (["--smoke"] if name.startswith("serve_") else [])
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"  {kind}/{name}: {status} ({time.monotonic() - t0:.1f} s)", file=sys.stderr)
            if proc.returncode != 0:
                failed.append(name)
                sys.stderr.write(proc.stderr[-2000:])
    return failed


def strip_params(name: str) -> str:
    """`monde::a::f(int) const` -> `monde::a::f`; keeps `operator()` and
    lambda/template text, drops every other parenthesized list."""
    out = []
    depth = 0
    i = 0
    while i < len(name):
        if name.startswith("operator()", i) and depth == 0:
            out.append("operator()")
            i += len("operator()")
            continue
        c = name[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0:
            out.append(c)
        i += 1
    text = "".join(out).strip()
    for suffix in (" const", " &&", " &"):
        if text.endswith(suffix):
            text = text[: -len(suffix)]
    return text


def qualified(demangled: str) -> str | None:
    """The function's qualified name if it is a monde:: function. Template
    instantiations carry a return type before it, which is dropped; the
    space inside a conversion operator's name is not a separator."""
    name = strip_params(demangled)
    depth = 0
    start = 0
    for i, c in enumerate(name):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0 and not name.startswith("operator", max(0, i - 8)):
            start = i + 1
    name = name[start:]
    return name if name.startswith("monde::") else None


def never_run(build_dir: str) -> dict[str, str]:
    """Qualified name -> defining file for every monde:: function in src/
    that no run executed (summed over every object that compiled it)."""
    objdir = os.path.join(build_dir, "CMakeFiles", "monde.dir")
    gcnos = sorted(glob.glob(os.path.join(objdir, "**", "*.gcno"), recursive=True))
    if not gcnos:
        sys.exit(f"no .gcno files under {objdir}")
    src_root = os.path.join(ROOT, "src") + os.sep
    counts: dict[str, int] = {}
    files: dict[str, str] = {}
    for gcno in gcnos:
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory", os.path.dirname(gcno),
             gcno], cwd=build_dir, capture_output=True, text=True, check=True)
        for line in proc.stdout.splitlines():
            if not line.startswith("{"):
                continue
            for entry in json.loads(line).get("files", []):
                path = os.path.normpath(os.path.join(build_dir, entry["file"]))
                if not path.startswith(src_root):
                    continue
                for fn in entry.get("functions", []):
                    name = qualified(fn["demangled_name"])
                    if name is None:
                        continue
                    counts[name] = counts.get(name, 0) + fn["execution_count"]
                    files.setdefault(name, os.path.relpath(path, ROOT))
    return {name: files[name] for name, n in counts.items() if n == 0}


def read_allowlist(path: str) -> dict[str, str]:
    allow = {}
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" # ")
            if not sep or not reason.strip():
                sys.exit(f"{path}: every line needs '<name>  # <reason>': {line!r}")
            allow[name.strip()] = reason.strip()
    return allow


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-coverage"))
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--summary", help="append the report as markdown to this file")
    args = ap.parse_args()
    if shutil.which("gcov") is None:
        sys.exit("gcov not found")

    build_dir = os.path.abspath(args.build_dir)
    configure_and_build(build_dir, args.jobs)
    failed = run_binaries(build_dir)
    missing = never_run(build_dir)
    allow = read_allowlist(ALLOWLIST)

    new = sorted(set(missing) - set(allow))
    stale = sorted(set(allow) - set(missing))
    lines = [f"{len(missing)} monde:: functions in src/ never ran; "
             f"{len(allow)} allowlisted."]
    if failed:
        lines.append("binaries that failed: " + ", ".join(failed))
    if new:
        lines.append("never ran and not allowlisted (delete, exercise, or allowlist):")
        lines += [f"  + {name}  ({missing[name]})" for name in new]
    if stale:
        lines.append("allowlisted but ran or gone (drop the line):")
        lines += [f"  - {name}" for name in stale]
    if not (new or stale or failed):
        lines.append("clean: the never-run list equals the allowlist.")
    report = "\n".join(lines)
    print(report)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write("## Bench coverage of src/\n\n```\n" + report + "\n```\n")
    return 1 if (new or stale or failed) else 0


if __name__ == "__main__":
    sys.exit(main())
