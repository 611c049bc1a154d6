#!/usr/bin/env python3
"""The CAVENET++ benchmark: user workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload

Workloads: paper_figs and serve_mixed (the ones BENCHMARK.json lists),
and highway_3k and trace_roundtrip, which run by hand only: on a shared
host their timings swing past any usable bound (see perfbench/README.md).
The first call builds the harness and the
cavenet-serve daemon from the sources in ./src and ./tools into
$CARGO_TARGET_DIR (default .bench_build)/perfbench.

Inputs are generated from --seed; the same seed gives the same inputs.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The full record (host and
build facts, sim_digest, every metric) is also written under
<build>/results/.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_figs", "highway_3k", "trace_roundtrip", "serve_mixed")
HARNESS_TIMEOUT_S = 150

# Prefixes of the simulation counters that are deterministic per seed and
# go into sim_digest (kernel.* dispatch counters appear only when the
# profiler is attached, so they stay out).
DIGEST_PREFIXES = ("chan.", "mac.", "rtr.", "agt.", "phy.")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


# ---- build ----------------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt",
                   "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            fail(f"missing {needed}: run from a CAVENET++ checkout")
    out.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "--build", str(out), "-j",
              str(max(1, min(4, os.cpu_count() or 1))), "--target",
              "perfbench_harness", "cavenet_serve_daemon"]]
    if not (out / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(out / "build.log", "wb") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=800).returncode != 0:
                sys.stderr.write((out / "build.log").read_text()[-4000:])
                fail("build failed")
    return out / "perfbench_harness", out / "cavenet_tools" / "cavenet-serve"


def host_facts(out, harness, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = (out / "CMakeCache.txt").read_text()

    def cache_value(key):
        for line in cache.splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
        return "unknown"

    probe = subprocess.run([str(harness), "--workload", "host"],
                           capture_output=True, text=True, timeout=30)
    simd = json.loads(probe.stdout)["simd_active"] if probe.returncode == 0 \
        else None
    try:
        # The ceiling keeps git from describing an enclosing repository
        # when the checkout itself is not one.
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        describe = ""
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "cavenet_simd_option": cache_value("CAVENET_SIMD"),
        "simd_avx2_dispatched": simd,
        "git_describe": describe or "unknown",
        "seed": seed,
    }


# ---- statistics -----------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples
    beyond it, or (None, None) when there are too few samples."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def add_tails(extra, **samples):
    """Adds each timing's sample count "<name>.n" and, with enough samples,
    its tail "<name>.p<percentile>"."""
    for name, values in samples.items():
        extra[f"{name}.n"] = len(values)
        value, pct = tail(values)
        if value is not None:
            extra[f"{name}.p{pct:.1f}"] = value


def digest(counts, blobs):
    h = hashlib.sha256(json.dumps(counts, sort_keys=True).encode())
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()[:16]


# ---- inputs ---------------------------------------------------------------

FIGURES = (("fig8_aodv", "Fig. 8", "aodv", "AODV"),
           ("fig9_olsr", "Fig. 9", "olsr", "OLSR"),
           ("fig10_dymo", "Fig. 10", "dymo", "DYMO"))


def paper_fig_specs(rng):
    """Figs. 8-10: the Table-I scenario per protocol, senders 1..8, on the
    mobility pattern the checked-in specs use (seed 3). The benchmark seed
    draws the start of the 80 s CBR window: the cost of the OLSR figure
    varies by about 40% between mobility realizations, and by about 10%
    between receivers, which would swamp any code change."""
    start = round(rng.uniform(10.0, 15.0), 3)
    specs = []
    for name, title, protocol, label in FIGURES:
        specs.append({
            "name": name, "title": title, "kind": "goodput_surface",
            "scenario": {
                "seed": 3,
                "routing": {"protocol": protocol},
                "traffic": {"senders": {"first": 1, "last": 8},
                            "start_s": start, "stop_s": start + 80},
            },
            "outputs": {"csv": f"goodput_{label}.csv",
                        "manifest": f"goodput_{label}.manifest.json"},
        })
    return specs


def highway_spec(rng):
    """One campaign point: Table-I density scaled to 3000 vehicles on
    40,000 cells, AODV, one CBR flow, 4 sim-s. No `engine` block."""
    return {
        "name": "highway_3k", "kind": "campaign",
        "scenario": {
            "seed": rng.randrange(1, 2**31),
            "duration_s": 4,
            "mobility": {"lane_cells": 40000, "vehicles": 3000},
            "routing": {"protocol": "aodv"},
            "traffic": {"sender": 1, "start_s": 1, "stop_s": 4},
        },
    }


# ---- output checks --------------------------------------------------------

def read_manifest(path):
    manifest = json.loads(path.read_text())
    stats = manifest.get("stats", {})
    return manifest, stats.get("counters", {}), stats.get("quantiles", {})


def check_csv_per_sender(path, senders, seconds):
    """Figure CSV: the per-second rows of each sender 1..8, in order."""
    lines = path.read_text().splitlines()
    if lines[0] != "sender,second,goodput_bps":
        return f"{path.name}: unexpected header"
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows[::seconds]] != senders or \
            len(rows) != len(senders) * seconds:
        return f"{path.name}: expected {seconds} rows for each sender"
    if any(float(r[2]) < 0 for r in rows):
        return f"{path.name}: negative goodput"
    return None


def check_delivery(label, pdr, counters):
    if not 0.0 <= pdr <= 1.0:
        return f"{label}: PDR {pdr} outside [0, 1]"
    if counters.get("agt.rx.delivered", 0) > counters.get("agt.tx.cbr", 0):
        return f"{label}: agt.rx.delivered > agt.tx.cbr"
    return None


def sim_outputs(workload, out, specs):
    """Checks the simulation outputs and collects their counts.
    Returns (problems, counts, csv_blobs, access_p50s)."""
    problems, counts, blobs, access = [], {}, [], []
    manifests = []
    if workload == "paper_figs":
        for spec in specs:
            csv = out / spec["outputs"]["csv"]
            manifest = out / spec["outputs"]["manifest"]
            problems.append(check_csv_per_sender(csv, list(range(1, 9)), 100))
            manifests.append(manifest)
            blobs.append(csv.read_bytes())
    else:
        csv = out / "highway_3k.csv"
        header, *rows = [line.split(",")
                         for line in csv.read_text().splitlines()]
        if len(rows) != 1:
            problems.append("highway_3k.csv: expected one row per point")
        for row in rows:
            record = dict(zip(header, row))
            if int(record["rx_packets"]) > int(record["tx_packets"]):
                problems.append("highway_3k.csv: rx_packets > tx_packets")
        manifests.append(out / "highway_3k.point_0000.manifest.json")
        blobs.append(csv.read_bytes())
    for path in manifests:
        manifest, counters, quantiles = read_manifest(path)
        problems.append(check_delivery(path.name,
                                       manifest["metrics"]["pdr"], counters))
        for name, value in counters.items():
            if name.startswith(DIGEST_PREFIXES):
                counts[name] = counts.get(name, 0) + value
        q = quantiles.get("mac.delay.access")
        if q and q.get("count"):
            access.append((q["p50"], q["count"]))
    return [p for p in problems if p], counts, blobs, access


# ---- in-process workloads (the C++ harness) -------------------------------

def run_harness(workload, harness, work, rng, seconds, trace):
    args = [str(harness), "--workload", workload, "--out-dir", str(work),
            "--result", str(work / "harness.json"), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    specs = []
    if workload == "paper_figs":
        specs = paper_fig_specs(rng)
    elif workload == "highway_3k":
        specs = [highway_spec(rng)]
    else:
        args += ["--road-seed", str(rng.randrange(1, 2**31))]
    for spec in specs:
        path = work / f"{spec['name']}.json"
        path.write_text(json.dumps(spec, indent=2) + "\n")
        args += ["--spec", str(path)]
    with open(work / "harness.log", "wb") as log:
        proc = subprocess.run(args, stdout=log, stderr=subprocess.STDOUT,
                              timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write((work / "harness.log").read_text()[-4000:])
        fail(f"harness exited with {proc.returncode}")
    raw = json.loads((work / "harness.json").read_text())

    problems = []
    for phase in ("untraced", "traced"):
        if phase in raw and not raw[phase]["digest_stable"]:
            problems.append(f"{phase} iterations produced different outputs")
    if trace and raw["traced"]["digest"] != raw["untraced"]["digest"]:
        problems.append("traced and untraced outputs differ")
    counts = dict(raw["counts"])
    blobs = [raw["untraced"]["digest"].encode()]
    access = []
    if workload != "trace_roundtrip":
        sim_problems, sim_counts, blobs, access = sim_outputs(
            workload, work, specs)
        problems += sim_problems
        counts.update(sim_counts)
    return raw, counts, blobs, problems, access


def layer_times(spans_path, traced_iterations):
    """Per-iteration total and self time per span name, from the span file."""
    spans = json.loads(spans_path.read_text())["spans"]
    total, self_time = {}, {}
    for span in spans:
        duration = (span["end_ns"] - span["start_ns"]) * 1e-9
        total[span["name"]] = total.get(span["name"], 0.0) + duration
        self_time[span["name"]] = self_time.get(span["name"], 0.0) + duration
        if span["parent"] >= 0:
            parent = spans[span["parent"]]["name"]
            self_time[parent] = self_time.get(parent, 0.0) - duration
    setup = {s["name"] for s in spans if s["iteration"] < 0}
    per_iter = max(1, traced_iterations)
    for table in (total, self_time):
        for name in table:
            if name not in setup:
                table[name] /= per_iter
    return total, self_time


def harness_workload(workload, harness, work, rng, seconds, trace):
    raw, counts, blobs, problems, access = run_harness(
        workload, harness, work, rng, seconds, trace)
    untraced = raw["untraced"]
    wall = median(untraced["wall_s"])
    work_units = counts.get("trace.events" if workload == "trace_roundtrip"
                            else "netsim.events", 0)
    failed = untraced["failed"] + (untraced["attempted"] if problems else 0)
    attempted = untraced["attempted"]
    metrics = {
        "setup_s": median(raw["setup_s"]),
        "wall_s": wall,
        "work_per_s": work_units / wall if wall > 0 else 0.0,
        "peak_rss_mb": raw["peak_rss_mib"],
    }
    extra = {"error_frac": failed / attempted if attempted else 1.0}
    if workload == "trace_roundtrip":
        extra["trace_events_per_s"] = metrics["work_per_s"]
    else:
        extra["events_per_s"] = metrics["work_per_s"]
    add_tails(extra, setup_s=raw["setup_s"], wall_s=untraced["wall_s"])

    layers = {}
    if trace:
        traced = raw["traced"]
        attempted += traced["attempted"]
        failed += traced["failed"] + (traced["attempted"] if problems else 0)
        n = len(traced["wall_s"])
        total, self_time = layer_times(work / "spans.json", n)
        kernel = {label: {"wall_s": c["wall_s"] / n,
                          "dispatches": c["dispatches"] / n}
                  for label, c in raw["kernel"].items()}
        run_s = total.get("scenario.run", 0.0)
        kernel_wall = sum(c["wall_s"] for c in kernel.values())
        traced_wall = median(traced["wall_s"])
        events = counts.get("netsim.events", 0)
        layers.update({
            "core.step_s": raw["traced_extras"].get("core.step_s", 0.0),
            "core.vehicle_steps": counts.get("core.vehicle_steps", 0),
            "trace.generate_s": total.get("trace.generate", 0.0),
            "trace.write_s": total.get("trace.write", 0.0),
            "trace.read_s": total.get("trace.read", 0.0),
            "trace.compile_s": total.get("trace.compile", 0.0),
            "trace.events": counts.get("trace.events", 0),
            "trace.bytes": counts.get("trace.bytes", 0),
            "spec.load_s": total.get("spec.load", 0.0),
            "spec.points": counts.get("spec.points", 0),
            "scenario.run_s": run_s,
            "netsim.events": events,
            "netsim.ns_per_event": run_s / events * 1e9 if events else 0.0,
            "netsim.unattributed_s": run_s - kernel_wall if run_s else 0.0,
        })
        for label in ("mac", "phy", "chan", "aodv", "olsr", "dymo", "app.cbr"):
            k = kernel.get(label, {"wall_s": 0.0, "dispatches": 0})
            layers[f"kernel.{label}.wall_s"] = k["wall_s"]
            layers[f"kernel.{label}.dispatches"] = k["dispatches"]
        # Named layers: every span under the iteration, with scenario.run
        # split into the kernel handlers and the per-dispatch kernel
        # overhead; the rest is unnamed. The overhead is an estimate, from
        # a separate pass of empty events (it includes the profiler's own
        # clock reads), so coverage is reported with and without it.
        overhead_ns = raw["traced_extras"]["netsim.dispatch_overhead_ns"]
        dispatches = sum(c["dispatches"] for c in kernel.values())
        layers["netsim.dispatch_overhead_ns"] = overhead_ns
        dispatch_s = overhead_ns * 1e-9 * dispatches
        iteration_s = total.get("iteration", 0.0)
        measured = iteration_s - self_time.get("iteration", 0.0) - \
            layers["netsim.unattributed_s"]
        layers["obs.layer_coverage_measured_frac"] = (
            measured / iteration_s if iteration_s else 0.0)
        layers["obs.layer_coverage_frac"] = (
            (measured + min(dispatch_s, layers["netsim.unattributed_s"])) /
            iteration_s if iteration_s else 0.0)
        layers["obs.trace_overhead_frac"] = traced_wall / wall - 1.0
        extra["traced_wall_s"] = traced_wall
    layers.update(sim_layers(counts, access))
    sim = digest(counts, blobs)
    return (metrics, extra, layers, attempted, failed, problems, sim)


def sim_layers(counts, access):
    evaluated = counts.get("chan.evaluated", 0)
    tx = counts.get("agt.tx.cbr", 0)
    layers = {name: counts.get(name, 0) for name in (
        "chan.tx", "chan.evaluated", "chan.culled", "phy.drop.collision",
        "mac.tx.data", "mac.retry", "mac.drop.retry_limit",
        "rtr.tx.control", "rtr.fwd.data", "rtr.drop.no_route",
        "agt.tx.cbr", "agt.rx.delivered")}
    layers["chan.useful_frac"] = (counts.get("phy.rx.frames", 0) / evaluated
                                  if evaluated else 0.0)
    layers["agt.pdr"] = counts.get("agt.rx.delivered", 0) / tx if tx else 0.0
    # Count-weighted mean of each run's p50 MAC access delay.
    weight = sum(c for _, c in access)
    layers["mac.delay.access.p50_s"] = (
        sum(p * c for p, c in access) / weight if weight else 0.0)
    return layers


# ---- serve_mixed ----------------------------------------------------------

CLIENTS = 2
# C = new spec (cold), W = repeat of an earlier spec of the same client.
PLAN = "CCWCWCWW"
JOBS_PER_CLIENT = len(PLAN)
# Cold job size: REPLICATIONS Table-I runs of COLD_DURATION_S sim-seconds.
# The daemon's event stream polls every 50 ms; a cold job runs for about
# 20 polls, so a change in simulation time moves its latency by more than
# one poll.
REPLICATIONS = 8
COLD_DURATION_S = 400
# Daemon start-ups timed after each round besides the round's own, so the
# set-up samples spread over the whole run; setup_s is their median.
EXTRA_STARTS_PER_ROUND = 2


def serve_plan(rng):
    """Per client: JOBS_PER_CLIENT submissions (body text, kind, twin).
    Warm jobs repeat one of the client's own earlier specs, every other one
    reformatted (other spacing, same fingerprint)."""
    plans = []
    for client in range(CLIENTS):
        protocols = ["aodv", "dymo"] * (PLAN.count("C") // 2)
        rng.shuffle(protocols)
        plan, cold = [], []
        for k, kind in enumerate(PLAN):
            if kind == "C":
                spec = {
                    "name": f"c{client}_job{k:02d}", "kind": "campaign",
                    "scenario": {
                        "seed": rng.randrange(1, 2**31),
                        "duration_s": COLD_DURATION_S,
                        "routing": {"protocol": protocols[len(cold)]},
                        "traffic": {"sender": rng.randrange(1, 9)},
                    },
                    "sweep": {"replications": REPLICATIONS},
                }
                cold.append(len(plan))
                plan.append((json.dumps(spec), "cold", None))
            else:
                twin = rng.choice(cold)
                text = plan[twin][0]
                if (len(plan) - len(cold)) % 2:
                    text = json.dumps(json.loads(text), indent=3)
                plan.append((text, "warm", twin))
        plans.append(plan)
    return plans


def request(port, method, target, body=None):
    """One request (the daemon closes every connection). Returns
    (status, body bytes, seconds)."""
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, target, body=body)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start
    finally:
        conn.close()


def proc_status(pid):
    fields = {}
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    except OSError:
        pass
    return fields


class Daemon:
    def __init__(self, binary, state):
        state.mkdir(parents=True)
        self.log = open(state.parent / f"{state.name}.log", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(binary), "--state-dir", str(state), "--workers", "2",
             "--heartbeat", "0"],
            stdout=self.log, stderr=subprocess.STDOUT)
        self.port = None
        log_path = Path(self.log.name)
        deadline = start + 20
        while self.port is None:
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                self.stop()
                fail("cavenet-serve did not start")
            for line in log_path.read_text(errors="replace").splitlines():
                if "listening on 127.0.0.1:" in line:
                    self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.001)
        while True:
            try:
                if request(self.port, "GET", "/v1/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                self.stop()
                fail("cavenet-serve healthz never succeeded")
            time.sleep(0.001)
        self.startup_s = time.perf_counter() - start

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def run_client(port, plan, records):
    """Closed loop with a fixed request pattern per job: submit, follow the
    event stream to the end, read the job status, list the results.
    The status read is needed because the event stream can end before its
    last lines (the daemon snapshots the stream text before it checks
    whether the job is terminal)."""
    for text, kind, twin in plan:
        record = {"kind": kind, "twin": twin, "ok": False, "http_s": []}
        records.append(record)
        start = time.perf_counter()
        try:
            status, body, took = request(port, "POST", "/v1/jobs",
                                         text.encode())
            record["http_s"].append(took)
            record["submit_s"] = took
            if status != 201:
                continue
            job = json.loads(body)["job"]
            record["job"] = job
            status, body, took = request(port, "GET",
                                         f"/v1/jobs/{job}/events?follow=1")
            record["latency_s"] = time.perf_counter() - start
            record["http_s"].append(took)
            record["events_s"] = took
            record["events"] = [json.loads(line)
                                for line in body.splitlines() if line]
            if status != 200:
                continue
            status, body, took = request(port, "GET", f"/v1/jobs/{job}")
            record["http_s"].append(took)
            record["status_s"] = took
            record["status"] = json.loads(body)
            if status != 200:
                continue
            status, body, took = request(port, "GET", f"/v1/jobs/{job}/results")
            record["http_s"].append(took)
            record["results_s"] = took
            record["files"] = json.loads(body)["files"]
            record["ok"] = (status == 200 and
                            record["status"]["state"] == "done")
        except (OSError, ValueError, KeyError, http.client.HTTPException) as error:
            record["error"] = repr(error)


def check_round(state, records):
    """Per-job checks; returns (failed job count, problems, blobs)."""
    failed, problems, blobs = 0, [], []
    for jobs in records:
        for record in jobs:
            hits = record.get("status", {}).get("cache_hits", -1)
            units = record.get("status", {}).get("units", 0)
            ok = record["ok"] and units > 0 and (
                (record["kind"] == "cold" and hits == 0) or
                (record["kind"] == "warm" and hits == units))
            if ok and record["kind"] == "warm":
                # Byte-identical to the cold twin's artifacts.
                twin = jobs[record["twin"]]
                mine = sorted(f["name"] for f in record["files"])
                ok = twin.get("job") and mine == sorted(
                    f["name"] for f in twin["files"]) and all(
                    (state / "jobs" / record["job"] / name).read_bytes() ==
                    (state / "jobs" / twin["job"] / name).read_bytes()
                    for name in mine)
            if ok and record["kind"] == "cold":
                names = sorted(f["name"] for f in record["files"])
                blobs += [(state / "jobs" / record["job"] / name).read_bytes()
                          for name in names if name.endswith(".csv")]
            if not ok:
                failed += 1
                problems.append(f"job {record.get('job', '?')} "
                                f"({record['kind']}): "
                                f"{record.get('error', 'check failed')}")
    return failed, problems, blobs


def serve_round(daemon_binary, state, plans, traced):
    """One round: a fresh daemon, both clients' plans, then the checks.
    Traced rounds also sample the daemon's thread count."""
    daemon = Daemon(daemon_binary, state)
    threads_peak = [0]
    sampling = threading.Event()

    def sample_threads(pid=daemon.proc.pid):
        while not sampling.is_set():
            n = int(proc_status(pid).get("Threads", "0") or 0)
            threads_peak[0] = max(threads_peak[0], n)
            time.sleep(0.005)

    sampler = threading.Thread(target=sample_threads)
    try:
        if traced:
            sampler.start()
        records = [[] for _ in plans]
        clients = [threading.Thread(target=run_client,
                                    args=(daemon.port, plan, out))
                   for plan, out in zip(plans, records)]
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        wall = time.perf_counter() - start
        sampling.set()
        if traced:
            sampler.join()
        status = proc_status(daemon.proc.pid)
        _, body, _ = request(daemon.port, "GET", "/v1/stats")
        stats = json.loads(body)
    finally:
        sampling.set()
        daemon.stop()
    failed, problems, blobs = check_round(state, records)
    counters = stats.get("counters", {})
    counts = {name: counters.get(name, 0) for name in (
        "serve.cache.hits", "serve.cache.misses", "serve.units.executed",
        "serve.cache.bytes_written", "serve.cache.bytes_served",
        "serve.http.requests")}
    shutil.rmtree(state, ignore_errors=True)
    return {
        "setup_s": daemon.startup_s, "wall_s": wall, "traced": traced,
        "records": [r for jobs in records for r in jobs],
        "failed": failed, "problems": problems,
        # The cached artifacts embed the build's `git describe`, so the
        # byte counts stay out of the digest.
        "digest": digest({name: counts[name] for name in (
            "serve.cache.hits", "serve.cache.misses", "serve.units.executed")},
            blobs),
        "counts": counts,
        "rss_mib": int(status.get("VmHWM", "0 kB").split()[0]) / 1024.0,
        "threads_end": int(status.get("Threads", "0") or 0),
        "threads_peak": threads_peak[0],
    }


def serve_workload(daemon_binary, work, rng, seconds, trace):
    """Rounds until the window is over. Traced runs spend the first half
    untraced (the overhead baseline) and the second half traced."""
    plans = serve_plan(rng)
    starts = []
    rounds = []
    for traced, window in ([(False, seconds / 2), (True, seconds / 2)]
                           if trace else [(False, seconds)]):
        start = time.perf_counter()
        while not rounds or rounds[-1]["traced"] != traced or \
                time.perf_counter() - start < window:
            rounds.append(serve_round(daemon_binary,
                                      work / f"state{len(rounds)}", plans,
                                      traced))
            for _ in range(EXTRA_STARTS_PER_ROUND):
                state = work / f"start{len(starts)}"
                daemon = Daemon(daemon_binary, state)
                daemon.stop()
                starts.append(daemon.startup_s)
                shutil.rmtree(state, ignore_errors=True)

    problems = [p for r in rounds for p in r["problems"]]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds produced different results")
    records = [rec for r in rounds for rec in r["records"]]
    jobs_per_round = CLIENTS * JOBS_PER_CLIENT
    attempted = len(records)
    failed = sum(r["failed"] for r in rounds)
    wall = median([r["wall_s"] for r in rounds if not r["traced"]])
    latency = [r["latency_s"] for r in records if "latency_s" in r]
    cold = [r["latency_s"] for r in records
            if r["kind"] == "cold" and "latency_s" in r]
    warm = [r["latency_s"] for r in records
            if r["kind"] == "warm" and "latency_s" in r]
    http_s = [t for r in records for t in r["http_s"]]
    job_tail, job_tail_pct = tail(latency)
    starts += [r["setup_s"] for r in rounds]
    metrics = {
        "setup_s": median(starts),
        "wall_s": wall,
        "work_per_s": jobs_per_round / wall,
        "peak_rss_mb": median([r["rss_mib"] for r in rounds]),
    }
    extra = {
        "error_frac": failed / attempted,
        "jobs_per_s": metrics["work_per_s"],
        "job_cold_p50_s": median(cold),
        "job_warm_p50_s": median(warm),
        "http_p50_ms": median(http_s) * 1e3,
        "rounds": len(rounds),
        "threads_at_round_end": median([r["threads_end"] for r in rounds]),
    }
    if job_tail is not None:
        extra[f"job_tail_s.p{job_tail_pct:.1f}"] = job_tail
    add_tails(extra, setup_s=starts,
              wall_s=[r["wall_s"] for r in rounds if not r["traced"]],
              http_ms=[t * 1e3 for t in http_s])
    counts = rounds[0]["counts"]
    hits, misses = counts["serve.cache.hits"], counts["serve.cache.misses"]
    layers = {
        "serve.cache.hits": hits,
        "serve.cache.misses": misses,
        "serve.cache.hit_frac": hits / (hits + misses) if hits + misses else 0,
        "serve.units.executed": counts["serve.units.executed"],
        "serve.cache.bytes_written": counts["serve.cache.bytes_written"],
        "serve.cache.bytes_served": counts["serve.cache.bytes_served"],
        "serve.http.requests": counts["serve.http.requests"],
        "serve.job_cold_p50_s": extra["job_cold_p50_s"],
        "serve.job_warm_p50_s": extra["job_warm_p50_s"],
        "serve.job_tail_s": job_tail or max(latency, default=0.0),
        "serve.http_p50_ms": extra["http_p50_ms"],
    }
    if trace:
        events = [e for r in records for e in r.get("events", [])]
        layers.update({
            "serve.queue_wait_s": median(
                [e["wall_s"] for e in events
                 if e["event"] in ("point_started", "point_resumed")]),
            "serve.unit_exec_s": median(
                [e["point_wall_s"] for e in events
                 if e["event"] == "point_finished"]),
            "serve.http.submit_ms": median(
                [r["submit_s"] for r in records if "submit_s" in r]) * 1e3,
            "serve.http.events_ms": median(
                [r["events_s"] for r in records if "events_s" in r]) * 1e3,
            "serve.http.results_ms": median(
                [r["results_s"] for r in records if "results_s" in r]) * 1e3,
            "serve.threads_peak": max(r["threads_peak"] for r in rounds),
            "obs.trace_overhead_frac": median(
                [r["wall_s"] for r in rounds if r["traced"]]) / wall - 1.0,
        })
        spans = serve_spans([r for r in rounds if r["traced"]])
        (work / "spans.json").write_text(json.dumps(spans) + "\n")
    return (metrics, extra, layers, attempted, failed, problems,
            rounds[0]["digest"])


def serve_spans(rounds):
    """Client-side spans of the traced serve run: one per job with its four
    requests as children (times relative to each job's submit)."""
    spans = []
    for index, round_ in enumerate(rounds):
        for record in round_["records"]:
            if "latency_s" not in record:
                continue
            parent = len(spans)
            spans.append({"name": f"serve.job.{record['kind']}",
                          "start_ns": 0,
                          "end_ns": int(record["latency_s"] * 1e9),
                          "parent": -1, "iteration": index})
            offset = 0.0
            for name in ("submit", "events", "status", "results"):
                took = record.get(f"{name}_s")
                if took is None:
                    continue
                spans.append({"name": f"serve.http.{name}",
                              "start_ns": int(offset * 1e9),
                              "end_ns": int((offset + took) * 1e9),
                              "parent": parent, "iteration": index})
                offset += took
    return {"run_id": f"serve_mixed-{os.getpid()}", "spans": spans}


# ---- main -----------------------------------------------------------------

def run_workload(workload, seed, seconds, trace, out, harness, daemon):
    e2e, per_layer = load_benchmark_metrics()
    work = out / "runs" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    try:
        if workload == "serve_mixed":
            result = serve_workload(daemon, work, rng, seconds, trace)
        else:
            result = harness_workload(workload, harness, work, rng, seconds,
                                      trace)
        metrics, extra, layers, attempted, failed, problems, sim = result
        if trace:
            span_file = out / "results" / f"{workload}-s{seed}.spans.json"
            span_file.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(work / "spans.json", span_file)
            extra["span_file"] = os.path.relpath(span_file, ROOT)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = host_facts(out, harness, seed)
    correct = failed == 0 and not problems
    units = dict(e2e + per_layer)
    print(f"== {workload}  seed {seed}  trace {int(trace)}")
    print("host: " + json.dumps(facts, sort_keys=True))
    print(f"sim_digest: {sim}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{'error_frac':<28} {extra.pop('error_frac'):.6g} ratio  "
          f"({failed} failed / {attempted} attempted)")
    for name, value in metrics.items():
        print(f"{name:<28} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:<28} {value}")
    if trace:
        for name, value in sorted(layers.items()):
            print(f"{name:<28} {value:.6g} {units.get(name, '')}")

    chosen = per_layer if trace else e2e
    values = {**metrics, **layers}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                          for name, unit in chosen}}
    record = dict(result, workload=workload, trace=trace, host=facts,
                  sim_digest=sim, extra=extra, layers=layers,
                  problems=problems)
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    out = build_dir()
    harness, daemon = build(out)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        run_workload(workload, args.seed, args.seconds, bool(args.trace),
                     out, harness, daemon)
    return 0


if __name__ == "__main__":
    sys.exit(main())
