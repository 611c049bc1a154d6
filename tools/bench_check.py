#!/usr/bin/env python3
"""Bench-regression gate: run bench_micro (or, with --scale, bench_scale)
and compare against the checked-in baseline json.

Usage:
    bench_check.py --bench-binary build/bench/bench_micro
        [--baseline BENCH_micro.json] [--label LABEL]
        [--tolerance FACTOR] [--filter REGEX] [--min-time SECS]
    bench_check.py --scale --bench-binary build/bench/bench_scale
        [--baseline BENCH_scale.json] [--label LABEL]
        [--tolerance FACTOR]
    bench_check.py --nas --bench-binary build/bench/bench_micro
        [--baseline BENCH_micro.json] [--label pr3-seed]
        [--min-speedup FACTOR] [--min-time SECS]

Default mode runs the microbenchmark binary with --json into a temporary
file, then compares each fresh ns/op figure against the baseline entry
(the LAST entry in the file unless --label picks one). A benchmark
regresses when

    fresh_ns > baseline_ns * tolerance

--scale mode instead runs `bench_scale --smoke` in a scratch directory
and compares the throughput of each sweep point, keyed by (protocol,
vehicles), against the baseline entry's serial points (`shards` and
`threads` absent or 1 — older entries also recorded sharded and
threaded variants of the kernel, which no longer exists). Throughput is
better-is-bigger, so a point regresses when

    fresh_events_per_s < baseline_events_per_s / tolerance

A fresh point with no baseline point fails the gate too: a gate whose
every point skips would never fire.

The default tolerance is deliberately wide (5x): this is a smoke gate
against order-of-magnitude regressions (an accidental O(n^2), a lost
pool, a debug build sneaking into CI), not a statistical benchmark —
shared CI machines are far too noisy for tight bands. Speedups and
benchmarks missing from either side never fail the default gate (new
benchmarks have no baseline yet; retired ones no longer matter).

--nas mode is the SoA mobility-kernel speedup floor rather than a
regression band: it runs BM_NasLaneStep/40000 fresh and compares it
against the *scalar seed* baseline entry (--label defaults to pr3-seed
here), failing when

    baseline_ns / fresh_ns < min_speedup

i.e. the vectorized kernel must hold at least the claimed multiple over
the pre-SoA scalar kernel on the machine running the gate. The default
floor (3x) sits below the PR's measured margin so machine-to-machine
variance does not flake the gate.

Exit codes: 0 ok, 1 regression(s), 2 usage/environment error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def load_baseline(path, label):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_check: cannot read baseline {path}: {err}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        sys.exit(f"bench_check: {path} has no entries")
    if label:
        for entry in entries:
            if entry.get("label") == label:
                return entry["label"], entry.get("results", {})
        sys.exit(f"bench_check: no baseline entry labelled {label!r} in {path}")
    entry = entries[-1]  # newest entry: labels accumulate in PR order
    return entry.get("label", "?"), entry.get("results", {})


def run_bench(binary, filter_regex, min_time):
    fd, fresh_path = tempfile.mkstemp(suffix=".json", prefix="bench_check_")
    os.close(fd)
    os.unlink(fresh_path)  # bench_micro accumulates; start clean
    cmd = [
        binary,
        f"--json={fresh_path}",
        "--json-label=bench_check",
        # Bare seconds: the "0.01s" suffix form only parses on
        # google-benchmark >= 1.8.
        f"--benchmark_min_time={min_time}",
    ]
    if filter_regex:
        cmd.append(f"--benchmark_filter={filter_regex}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except OSError as err:
        sys.exit(f"bench_check: cannot run {binary}: {err}")
    if proc.returncode != 0:
        print(proc.stdout)
        sys.exit(f"bench_check: {binary} exited {proc.returncode}")
    try:
        with open(fresh_path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(proc.stdout)
        sys.exit(f"bench_check: bench run produced no readable json: {err}")
    finally:
        try:
            os.unlink(fresh_path)
        except OSError:
            pass
    for entry in doc.get("entries", []):
        if entry.get("label") == "bench_check":
            return entry.get("results", {})
    sys.exit("bench_check: bench json missing the bench_check entry")


def point_key(point):
    """(protocol, vehicles) identity of a serial scale sweep point, or
    None when the point lacks either key or is a sharded/threaded
    variant (shards or threads present and != 1)."""
    protocol = point.get("protocol")
    vehicles = point.get("vehicles")
    if not isinstance(protocol, str):
        return None
    if not isinstance(vehicles, (int, float)):
        return None
    if point.get("shards", 1) != 1 or point.get("threads", 1) != 1:
        return None
    return (protocol, int(vehicles))


def scale_points(entry):
    """{(protocol, vehicles): events_per_s} over an entry's serial
    points."""
    points = {}
    for point in entry.get("points", []):
        key = point_key(point)
        rate = point.get("events_per_s")
        if key is not None and isinstance(rate, (int, float)):
            points[key] = float(rate)
    return points


def load_scale_baseline(path, label):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_check: cannot read baseline {path}: {err}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        sys.exit(f"bench_check: {path} has no entries")
    entry = None
    if label:
        for candidate in entries:
            if candidate.get("label") == label:
                entry = candidate
                break
        if entry is None:
            sys.exit(
                f"bench_check: no baseline entry labelled {label!r} in {path}")
    else:
        entry = entries[-1]  # newest entry: labels accumulate in PR order
    return entry.get("label", "?"), scale_points(entry)


def run_scale_bench(binary):
    """Runs bench_scale --smoke in a scratch directory and returns its
    fresh points keyed like the baseline."""
    binary = os.path.abspath(binary)
    with tempfile.TemporaryDirectory(prefix="bench_check_scale_") as cwd:
        try:
            proc = subprocess.run([binary, "--smoke"], cwd=cwd,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            sys.exit(f"bench_check: cannot run {binary}: {err}")
        if proc.returncode != 0:
            print(proc.stdout)
            sys.exit(f"bench_check: {binary} exited {proc.returncode}")
        fresh_path = os.path.join(cwd, "BENCH_scale.json")
        try:
            with open(fresh_path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(proc.stdout)
            sys.exit(f"bench_check: scale run produced no readable json: "
                     f"{err}")
    points = {}
    for entry in doc.get("entries", []):
        points.update(scale_points(entry))
    if not points:
        sys.exit("bench_check: scale run produced no gateable points")
    return points


def check_scale(args):
    label, baseline = load_scale_baseline(args.baseline, args.label)
    fresh = run_scale_bench(args.bench_binary)

    print(f"baseline: {args.baseline} [{label}]  tolerance x{args.tolerance}")
    regressions = []
    missing = []
    for key in sorted(fresh):
        protocol, vehicles = key
        name = f"{protocol} N={vehicles}"
        fresh_rate = fresh[key]
        base_rate = baseline.get(key)
        if base_rate is None:
            print(f"  {name:16s} {fresh_rate:>14.0f} ev/s  NO BASELINE")
            missing.append(name)
            continue
        ratio = base_rate / fresh_rate if fresh_rate > 0 else float("inf")
        flag = "  REGRESSION" if ratio > args.tolerance else ""
        print(f"  {name:16s} {base_rate:>14.0f} -> {fresh_rate:<14.0f} ev/s "
              f"(x{ratio:.2f} slower){flag}")
        if flag:
            regressions.append((name, base_rate, fresh_rate, ratio))

    if regressions:
        print(f"\n{len(regressions)} scale point(s) beyond x{args.tolerance} "
              f"of [{label}]:")
        for name, base_rate, fresh_rate, ratio in regressions:
            print(f"  {name}: {base_rate:.0f} -> {fresh_rate:.0f} ev/s "
                  f"(x{ratio:.2f} slower)")
    if missing:
        print(f"\n{len(missing)} fresh scale point(s) have no serial "
              f"baseline in [{label}]: {', '.join(missing)}")
    if regressions or missing:
        return 1
    print("\nno scale regressions.")
    return 0


def check_nas(args):
    """SoA mobility-kernel floor: fresh BM_NasLaneStep/40000 must beat
    the scalar seed baseline entry by at least --min-speedup."""
    name = "BM_NasLaneStep/40000"
    label, baseline = load_baseline(args.baseline, args.label)
    base_ns = baseline.get(name)
    if not isinstance(base_ns, (int, float)) or base_ns <= 0:
        sys.exit(f"bench_check: baseline [{label}] has no usable {name}")
    fresh = run_bench(args.bench_binary, name + "$", args.min_time)
    fresh_ns = fresh.get(name)
    if not isinstance(fresh_ns, (int, float)) or fresh_ns <= 0:
        sys.exit(f"bench_check: bench run produced no {name}")
    speedup = base_ns / fresh_ns
    print(f"baseline: {args.baseline} [{label}]  "
          f"min speedup x{args.min_speedup}")
    flag = "  FAIL" if speedup < args.min_speedup else ""
    print(f"  {name:36s} {base_ns:>14.1f} -> {fresh_ns:<14.1f} ns/op "
          f"(x{speedup:.2f} faster){flag}")
    if flag:
        print(f"\nSoA kernel below the x{args.min_speedup} floor "
              f"vs [{label}].")
        return 1
    print("\nSoA speedup floor met.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-binary", default="",
                        help="path to the bench executable (required)")
    parser.add_argument("--baseline", default="BENCH_micro.json",
                        help="checked-in baseline file (default "
                             "BENCH_micro.json)")
    parser.add_argument("--label", default="",
                        help="baseline entry label (default: last entry)")
    parser.add_argument("--tolerance", type=float, default=5.0,
                        help="regression factor vs baseline (default 5.0)")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex passed through")
    parser.add_argument("--min-time", default="0.01",
                        help="--benchmark_min_time seconds (default 0.01)")
    parser.add_argument("--scale", action="store_true",
                        help="gate bench_scale throughput per (protocol, "
                             "vehicles) instead of bench_micro ns/op")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="--nas mode: minimum SoA-vs-seed ns/op ratio "
                             "(default 3.0)")
    parser.add_argument("--nas", action="store_true",
                        help="gate the SoA mobility kernel's speedup over "
                             "the scalar seed baseline entry")
    args = parser.parse_args()

    if args.tolerance <= 0:
        sys.exit("bench_check: --tolerance must be > 0")
    if args.nas:
        if not args.bench_binary:
            sys.exit("bench_check: --nas needs --bench-binary")
        if not args.label:
            args.label = "pr3-seed"
        if args.min_speedup is None:
            args.min_speedup = 3.0
        if args.min_speedup <= 0:
            sys.exit("bench_check: --min-speedup must be > 0")
        return check_nas(args)
    if not args.bench_binary:
        sys.exit("bench_check: --bench-binary is required")
    if args.scale:
        if args.baseline == "BENCH_micro.json":
            args.baseline = "BENCH_scale.json"
        return check_scale(args)

    label, baseline = load_baseline(args.baseline, args.label)
    fresh = run_bench(args.bench_binary, args.filter, args.min_time)
    if not fresh:
        sys.exit("bench_check: bench run produced no results "
                 "(bad --filter regex?)")

    print(f"baseline: {args.baseline} [{label}]  tolerance x{args.tolerance}")
    regressions = []
    for name in sorted(fresh):
        fresh_ns = fresh[name]
        base_ns = baseline.get(name)
        if base_ns is None:
            print(f"  {name:36s} {fresh_ns:>14.1f} ns/op  (no baseline)")
            continue
        ratio = fresh_ns / base_ns if base_ns > 0 else float("inf")
        flag = "  REGRESSION" if ratio > args.tolerance else ""
        print(f"  {name:36s} {base_ns:>14.1f} -> {fresh_ns:<14.1f} ns/op "
              f"(x{ratio:.2f}){flag}")
        if flag:
            regressions.append((name, base_ns, fresh_ns, ratio))

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) beyond x{args.tolerance} "
              f"of [{label}]:")
        for name, base_ns, fresh_ns, ratio in regressions:
            print(f"  {name}: {base_ns:.1f} -> {fresh_ns:.1f} ns/op "
                  f"(x{ratio:.2f})")
        return 1
    print("\nno bench regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
