#!/usr/bin/env python3
"""Wall-clock perf trend gate: record measured runtimes, fail on regressions.

The budget gate (check_bench_budget.py) pins SIMULATED metrics, which are
deterministic and machine-independent. Wall-clock is neither, so it gets a
different treatment: every nightly serve-scale-full run appends its measured
runtime (a `--perf` record: {"bench", "threads", "wall_s"} plus optional
per-phase keys "advance_s"/"dispatch_s"/"commit_s" and an optional
"peak_rss_mb") to a retained history file, and this script gates the newest
sample against the trailing median of its own (bench, threads) group. The
phase split shows where the wall-clock went (parallel advancement vs
sequential dispatch and commit) and peak RSS how much memory the run held.
Both are display-only by default. --max-phase-share turns the phase split
into a gate: a sequential phase swelling past its share cap fails the run
even when total wall_s still squeaks under the regression band. --max-rss
caps peak RSS, so a memory win cannot regress silently. A slow sample on an unlucky runner widens the band once; a
real slowdown shifts every subsequent sample and trips the gate.

Usage:
    check_perf_trend.py --history perf_history.jsonl --add run1.perf.json...
    check_perf_trend.py --history perf_history.jsonl            # check only
    check_perf_trend.py ... --require-speedup serve_scale_full:8:1:2.0
    check_perf_trend.py ... --max-phase-share serve_scale_full:8:dispatch_s:0.25
    check_perf_trend.py ... --max-rss serve_scale_full:1:545

The trend table goes to stdout and, when $GITHUB_STEP_SUMMARY is set, to
the job summary. Gating rules:

  * regression: newest wall_s > trailing-median(previous samples, same
    bench+threads) * (1 + --max-regression). Groups with fewer than
    --min-samples prior samples only report, never fail (cold history).
  * speedup (opt-in): --require-speedup BENCH:FAST:BASE:RATIO requires the
    newest BENCH sample at FAST threads to be at least RATIO x faster than
    the newest at BASE threads -- the parallel-advancement acceptance
    criterion, e.g. serve_scale_full:8:1:2.0.
  * phase share (opt-in): --max-phase-share BENCH:THREADS:PHASE:SHARE caps
    PHASE (advance_s / dispatch_s / commit_s) at SHARE of the newest
    sample's wall_s. Dispatch and commit run sequentially, so a dispatch-
    phase blowup at 8 threads silently erodes the parallel speedup long
    before total wall-clock trips the 25% band -- this catches it the
    night it lands.
  * peak RSS (opt-in): --max-rss BENCH:THREADS:MIB fails when the newest
    sample of that bench+threads group held more than MIB MiB (or
    carries no peak_rss_mb). Peak memory is nearly deterministic, so a
    fixed cap works where wall-clock needs a trailing median.
"""

import argparse
import datetime
import json
import os
import statistics
import sys

TRAILING_WINDOW = 10  # samples per (bench, threads) group the median sees
PHASE_KEYS = ("advance_s", "dispatch_s", "commit_s")  # optional, display-only
RSS_KEY = "peak_rss_mb"  # optional; gated only by --max-rss


def load_history(path):
    entries = []
    try:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                for key in ("bench", "threads", "wall_s"):
                    if key not in entry:
                        raise ValueError(f"{path}:{line_no}: missing '{key}'")
                entries.append(entry)
    except FileNotFoundError:
        pass
    return entries


def append_records(history_path, record_paths, date):
    added = []
    for path in record_paths:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        for key in ("bench", "threads", "wall_s"):
            if key not in record:
                print(f"error: {path} is not a --perf record (no '{key}')",
                      file=sys.stderr)
                return None
        entry = {
            "date": date,
            "bench": record["bench"],
            "threads": int(record["threads"]),
            "wall_s": float(record["wall_s"]),
        }
        for key in PHASE_KEYS + (RSS_KEY,):  # optional, retained for the table
            if key in record:
                entry[key] = float(record[key])
        added.append(entry)
    os.makedirs(os.path.dirname(history_path) or ".", exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as f:
        for entry in added:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    return added


def group_key(entry):
    return (entry["bench"], int(entry["threads"]))


def render_table(entries):
    """Markdown trend table: one row per group, trailing samples oldest-first."""
    groups = {}
    for entry in entries:
        groups.setdefault(group_key(entry), []).append(entry)
    lines = [
        "| bench | threads | trailing wall_s (oldest..newest) | median | latest |"
        " adv/disp/commit | peak RSS MiB |",
        "|---|---|---|---|---|---|---|",
    ]
    for (bench, threads), samples in sorted(groups.items()):
        tail = samples[-TRAILING_WINDOW:]
        walls = [s["wall_s"] for s in tail]
        newest = tail[-1]
        if all(key in newest for key in PHASE_KEYS):
            phases = "/".join(f"{newest[key]:.1f}" for key in PHASE_KEYS)
        else:
            phases = "-"
        rss = f"{newest[RSS_KEY]:.1f}" if RSS_KEY in newest else "-"
        lines.append(
            f"| {bench} | {threads} | "
            f"{' '.join(f'{w:.1f}' for w in walls)} | "
            f"{statistics.median(walls):.1f} | {walls[-1]:.1f} | {phases} | {rss} |"
        )
    return "\n".join(lines)


def check_regressions(entries, max_regression, min_samples):
    failures = []
    groups = {}
    for entry in entries:
        groups.setdefault(group_key(entry), []).append(entry)
    for (bench, threads), samples in sorted(groups.items()):
        prior = [s["wall_s"] for s in samples[:-1]][-TRAILING_WINDOW:]
        latest = samples[-1]["wall_s"]
        if len(prior) < min_samples:
            print(f"  {bench} t{threads}: {latest:.1f}s "
                  f"({len(prior)} prior sample(s), gate warms up at {min_samples})")
            continue
        median = statistics.median(prior)
        limit = median * (1.0 + max_regression)
        verdict = "ok" if latest <= limit else "REGRESSION"
        print(f"  {bench} t{threads}: {latest:.1f}s vs trailing median "
              f"{median:.1f}s (limit {limit:.1f}s) -- {verdict}")
        if latest > limit:
            failures.append(
                f"{bench} threads={threads}: wall {latest:.1f}s exceeds "
                f"{100 * max_regression:.0f}% over trailing median {median:.1f}s"
            )
    return failures


def check_speedup(entries, spec):
    bench, fast_t, base_t, min_ratio = spec
    latest = {}
    for entry in entries:
        if entry["bench"] == bench:
            latest[int(entry["threads"])] = entry["wall_s"]
    if fast_t not in latest or base_t not in latest:
        return (f"{bench}: --require-speedup needs samples at threads={fast_t} "
                f"and threads={base_t}; have threads={sorted(latest)}")
    ratio = latest[base_t] / latest[fast_t]
    print(f"  {bench}: t{base_t} {latest[base_t]:.1f}s / t{fast_t} "
          f"{latest[fast_t]:.1f}s = {ratio:.2f}x (need >= {min_ratio:.2f}x)")
    if ratio < min_ratio:
        return (f"{bench}: threads={fast_t} is only {ratio:.2f}x faster than "
                f"threads={base_t} (required {min_ratio:.2f}x)")
    return None


def check_phase_share(entries, spec):
    bench, threads, phase, max_share = spec
    newest = None
    for entry in entries:
        if entry["bench"] == bench and int(entry["threads"]) == threads:
            newest = entry
    if newest is None:
        return (f"{bench}: --max-phase-share needs a sample at "
                f"threads={threads}; none in history")
    if phase not in newest:
        return (f"{bench} threads={threads}: newest sample carries no "
                f"'{phase}' (bench must run with phase measurement on)")
    share = newest[phase] / newest["wall_s"]
    print(f"  {bench} t{threads}: {phase} {newest[phase]:.1f}s / wall "
          f"{newest['wall_s']:.1f}s = {100 * share:.1f}% "
          f"(max {100 * max_share:.0f}%)")
    if share > max_share:
        return (f"{bench} threads={threads}: {phase} is {100 * share:.1f}% "
                f"of wall-clock (max {100 * max_share:.0f}%) -- the "
                f"sequential phase is eating the parallel speedup")
    return None


def check_max_rss(entries, spec):
    bench, threads, max_mib = spec
    newest = None
    for entry in entries:
        if entry["bench"] == bench and int(entry["threads"]) == threads:
            newest = entry
    if newest is None:
        return (f"{bench}: --max-rss needs a sample at threads={threads}; "
                f"none in history")
    if RSS_KEY not in newest:
        return (f"{bench} threads={threads}: newest sample carries no "
                f"'{RSS_KEY}'")
    rss = newest[RSS_KEY]
    print(f"  {bench} t{threads}: peak RSS {rss:.1f} MiB "
          f"(max {max_mib:.1f} MiB)")
    if rss > max_mib:
        return (f"{bench} threads={threads}: peak RSS {rss:.1f} MiB exceeds "
                f"the {max_mib:.1f} MiB cap")
    return None


def parse_speedup(text):
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected BENCH:FAST_THREADS:BASE_THREADS:MIN_RATIO")
    return (parts[0], int(parts[1]), int(parts[2]), float(parts[3]))


def parse_phase_share(text):
    parts = text.split(":")
    if len(parts) != 4 or parts[2] not in PHASE_KEYS:
        raise argparse.ArgumentTypeError(
            "expected BENCH:THREADS:PHASE:MAX_SHARE with PHASE one of "
            + "/".join(PHASE_KEYS))
    return (parts[0], int(parts[1]), parts[2], float(parts[3]))


def parse_max_rss(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected BENCH:THREADS:MIB")
    return (parts[0], int(parts[1]), float(parts[2]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", required=True,
                        help="JSONL history file (retained across runs)")
    parser.add_argument("--add", nargs="*", default=[],
                        help="--perf record files to append before checking")
    parser.add_argument("--date", default=None,
                        help="date stamped onto --add entries (default: today, UTC)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fraction over the trailing median (default 0.25)")
    parser.add_argument("--min-samples", type=int, default=3,
                        help="prior samples needed before a group gates (default 3)")
    parser.add_argument("--require-speedup", type=parse_speedup, default=None,
                        metavar="BENCH:FAST:BASE:RATIO",
                        help="require the newest FAST-threads sample to beat the "
                        "newest BASE-threads sample by RATIO x")
    parser.add_argument("--max-phase-share", type=parse_phase_share,
                        action="append", default=[],
                        metavar="BENCH:THREADS:PHASE:SHARE",
                        help="cap PHASE at SHARE of the newest sample's "
                        "wall_s for that bench+threads group (repeatable)")
    parser.add_argument("--max-rss", type=parse_max_rss, action="append",
                        default=[], metavar="BENCH:THREADS:MIB",
                        help="cap the newest sample's peak RSS for that "
                        "bench+threads group at MIB MiB (repeatable)")
    args = parser.parse_args()

    if args.add:
        date = args.date or datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%d")
        if append_records(args.history, args.add, date) is None:
            return 2

    entries = load_history(args.history)
    if not entries:
        print(f"perf trend: no history at {args.history}, nothing to check")
        return 0

    table = render_table(entries)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as f:
            f.write("## Wall-clock perf trend\n\n" + table + "\n")
    print(table)
    print()

    print("regression gate:")
    failures = check_regressions(entries, args.max_regression, args.min_samples)
    if args.require_speedup:
        print("speedup gate:")
        failure = check_speedup(entries, args.require_speedup)
        if failure:
            failures.append(failure)
    if args.max_phase_share:
        print("phase-share gate:")
        for spec in args.max_phase_share:
            failure = check_phase_share(entries, spec)
            if failure:
                failures.append(failure)
    if args.max_rss:
        print("peak-RSS gate:")
        for spec in args.max_rss:
            failure = check_max_rss(entries, spec)
            if failure:
                failures.append(failure)
    if failures:
        print(f"perf trend check FAILED ({len(failures)} violation(s)):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("perf trend check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
