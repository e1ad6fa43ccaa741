#!/usr/bin/env python3
"""muse-bench: one open-loop, reference-checked benchmark of the MuSE
planner and runtime.

    python3 musebench/run.py --workload casestudy --seed 1 --seconds 20 --trace 0
    python3 musebench/run.py --selftest

Run from the root of a checkout. The first run builds the repository's
libraries and the probe binary from source into .bench_build/musebench.
Every measurement runs in a fresh probe process (musebench/src/probe.cc);
this script paces nothing itself, it only starts probes, checks their
matches against the in-order reference, and aggregates.

The last line of stdout is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json lists both). Provenance, the per-run
detail and the benchmark's own spans (Chrome trace format) are written to
.bench_build/musebench/out/. See musebench/README.md for the method.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "musebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "musebench")
PROBE = os.path.join(BUILD_DIR, "musebench_probe")
OUT_DIR = os.path.join(BUILD_DIR, "out")

WORKLOADS = ("casestudy", "filter_nseq", "plan_fig7")
DEFAULT_SEED = 1
# Never used while the benchmark was tuned; claims must also hold on it.
HELDOUT_SEED = 9001

# Set-ups per end-to-end run, for the median setup_s (plan_fig7 plans for
# seconds); the traced run sets up a third as often for its core.* rows.
SETUP_REPS = {"casestudy": 15, "filter_nseq": 15, "plan_fig7": 3}
# Nominal-rate runs per end-to-end run at --seconds 20 (plan_fig7 spends
# most of its time planning); the traced mode runs half as many pairs.
NOMINAL_RUNS = {"casestudy": 6, "filter_nseq": 6, "plan_fig7": 3}
# 1 in N source events carries a trace id in the traced runs.
TRACE_SAMPLE_EVERY = 64
# max_eps grid: nominal * 2^(k / STEPS_PER_OCTAVE), k = 0 .. GRID_STEPS - 1.
STEPS_PER_OCTAVE = 16
GRID_STEPS = 64
# Fresh runs a max_eps grid point may take to pass once.
PROBE_REPS = 2
# A probe keeps pace when its run ends within this share of its schedule.
PACE_TOLERANCE = 0.05
# At least this many samples must lie beyond the reported tail quantile.
TAIL_SAMPLES = 10
PROBE_TIMEOUT_S = 120

END_TO_END = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("cpu_us_per_event", "us"),
    ("max_eps", "1/s"),
    ("wire_bytes_per_event", "B"),
    ("transmission_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("core.catalog_s", "s"),
    ("core.plan_s", "s"),
    ("core.select_s", "s"),
    ("core.enumerate_s", "s"),
    ("core.construct_s", "s"),
    ("core.par_eval_cpu_s", "s"),
    ("core.graphs_constructed", "count"),
    ("core.construct_yield", "ratio"),
    ("core.lb_rejections", "count"),
    ("core.par_wasted_evals", "count"),
    ("cep.replay_us_per_event", "us"),
    ("cep.candidates_per_event", "count"),
    ("cep.match_yield", "ratio"),
    ("cep.peak_buffered", "count"),
    ("cep.evictions_per_event", "count"),
    ("cep.peak_pending", "count"),
    ("cep.pending_released", "count"),
    ("cep.inbox_batch_rows_frac", "ratio"),
    ("rt.nseq_p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("dist.sim_us_per_event", "us"),
    ("dist.node_inputs_per_event", "count"),
    ("dist.task_outputs_per_event", "count"),
    ("dist.dup_dropped", "count"),
    ("dist.sink_dedup_peak", "count"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.message_frame_bytes", "B"),
    ("wire.frames_per_event", "count"),
    ("transport.ns_per_packet", "ns"),
    ("transport.stalls", "count"),
    ("transport.source_stall_ms", "ms"),
    ("transport.gen_late_frac", "ratio"),
    ("trace.transport_us_p50", "us"),
    ("trace.transport_us_p99", "us"),
    ("trace.inbox_wait_us_p50", "us"),
    ("trace.inbox_wait_us_p99", "us"),
    ("trace.evaluate_us_p50", "us"),
    ("trace.evaluate_us_p99", "us"),
    ("trace.completed_frac", "ratio"),
    ("trace.spans_dropped", "count"),
    ("trace.overhead_frac", "ratio"),
    ("rt.unaccounted_us_per_event", "us"),
    ("match_error_frac", "ratio"),
]


class BenchError(Exception):
    """A probe failed or the sources are missing: no result is printed."""


def log(msg):
    print(f"musebench: {msg}", file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"repository sources not found under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def steal_seconds():
    """CPU time the hypervisor gave to other guests so far (Linux), or
    None. Recorded so a noisy run can be told from a slow program."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return {"git_sha": proc.stdout.strip()}
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                             recursive=True))
    files += sorted(glob.glob(os.path.join(BENCH_DIR, "src", "*")))
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return {"source_sha256": h.hexdigest()}


# --- probes ------------------------------------------------------------------

class Session:
    """The probes of one benchmark run, with their spans and raw output."""

    def __init__(self, workload, seed, short):
        self.workload = workload
        self.seed = seed
        self.short = short
        self.plan = os.path.join(
            OUT_DIR, f"plan-{workload}-seed{seed}{'-short' if short else ''}"
            f"-{os.getpid()}.json")
        self.t0 = time.time()
        self.spans = []  # Chrome trace events
        self.records = []

    def probe(self, mode, label, **flags):
        cmd = [PROBE, mode, "--workload", self.workload, "--seed",
               str(self.seed), "--plan", self.plan]
        if self.short:
            cmd += ["--short", "1"]
        for key, value in flags.items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        start = time.time()
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"probe timed out: {' '.join(cmd)}") from e
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            raise BenchError(f"probe failed ({proc.returncode}): "
                             f"{' '.join(cmd)}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        pid = len(self.records) + 1
        base_us = (start - self.t0) * 1e6
        self.spans.append({"name": "process_name", "ph": "M", "pid": pid,
                           "args": {"name": f"{pid}:{mode}:{label}"}})
        for i, (name, ts, dur, parent) in enumerate(out.pop("spans", [])):
            self.spans.append({
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": base_us + ts, "dur": dur,
                "args": {"span": i, "parent": parent}})
        self.records.append({"mode": mode, "label": label, "flags": flags,
                             "out": out})
        return out


# --- statistics ----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def pool(histograms):
    """Merges the bucket triples [lo, hi, count] of several runs."""
    merged = {}
    for h in histograms:
        for lo, hi, c in h["buckets"]:
            merged[(lo, hi)] = merged.get((lo, hi), 0) + c
    filled = [h for h in histograms if h["buckets"]]
    return {"buckets": sorted((lo, hi, c) for (lo, hi), c in merged.items()),
            "min": min((h["min"] for h in filled), default=0.0),
            "max": max((h["max"] for h in filled), default=0.0)}


def count(hist):
    return sum(c for _, _, c in hist["buckets"])


def tail_q(n, q=0.99):
    """The highest quantile <= q with at least TAIL_SAMPLES samples beyond
    it (the median when there are too few samples for any tail)."""
    if n <= 0:
        return q
    return max(0.5, min(q, 1.0 - TAIL_SAMPLES / n))


def quantile(hist, q):
    """Quantile of a bucketed histogram, interpolated by rank inside the
    bucket that holds it and clamped to the exact min and max."""
    n = count(hist)
    if n == 0:
        return 0.0
    rank = q * (n - 1)
    seen = 0
    for lo, hi, c in hist["buckets"]:
        if seen + c > rank:
            value = lo + (hi - lo) * (rank - seen + 0.5) / c
            return min(max(value, hist["min"]), hist["max"])
        seen += c
    return hist["max"]


def error_frac(counts, reference):
    missing_or_extra = sum(abs(a - b) for a, b in zip(counts, reference))
    return missing_or_extra / max(1, sum(reference))


def late_frac(run):
    return max(0.0, run["wall_s"] - run["scheduled_s"]) / run["scheduled_s"]


# --- one run -------------------------------------------------------------------

def nominal_runs(workload, seconds):
    """Fresh-process nominal-rate runs: NOMINAL_RUNS at 20 s, scaled."""
    return max(3, int(round(NOMINAL_RUNS[workload] * seconds / 20.0)))


def tail_ms(run):
    """The run's latency at the highest quantile <= p99 it supports."""
    hist = run["latency"]
    return quantile(hist, tail_q(count(hist)))


def probe_passes(run, reference, limit_ms):
    return (not run["wedged"] and run["counts"] == reference
            and late_frac(run) <= PACE_TOLERANCE and tail_ms(run) < limit_ms)


def max_eps_search(s, setup, reference):
    """Fixed-step log bisection over the rate grid; the nominal rate is
    grid point 0 and assumed to pass (the nominal runs check it). A grid
    point passes when one of up to PROBE_REPS fresh runs passes: CPU time
    the host steals, or other load from outside the process, only makes a
    run fail, never pass."""
    nominal = setup["nominal_eps"]
    rate = lambda k: nominal * 2.0 ** (k / STEPS_PER_OCTAVE)
    lo, hi = 0, GRID_STEPS
    probes = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        runs = []
        ok = False
        while not ok and len(runs) < PROBE_REPS:
            runs.append(s.probe("rt", f"max_eps@{rate(mid):.0f}#{len(runs)}",
                                rate=rate(mid)))
            ok = probe_passes(runs[-1], reference, setup["p99_limit_ms"])
        probes.append({
            "offered_eps": rate(mid), "passed": ok, "runs": len(runs),
            "late_frac": [late_frac(r) for r in runs],
            "tail_ms": [tail_ms(r) for r in runs],
            "match_error_frac": [error_frac(r["counts"], reference)
                                 for r in runs]})
        lo, hi = (mid, hi) if ok else (lo, mid)
    return rate(lo), probes


def run_end_to_end(s, setup, ref, seconds):
    reference = ref["counts"]
    nominal = setup["nominal_eps"]
    runs = [s.probe("rt", f"nominal#{i}", rate=nominal)
            for i in range(nominal_runs(s.workload, seconds))]
    failed = sum(1 for r in runs
                 if r["wedged"] or r["counts"] != reference)
    max_eps, probes = max_eps_search(s, setup, reference)
    # One latency distribution over every nominal run's matches: the
    # steadiest estimate across seeds, and it supports p99 on casestudy,
    # whose single runs emit fewer than 1000 matches.
    latency = pool([r["latency"] for r in runs])
    samples = count(latency)
    metrics = {
        "setup_s": median(setup["setup_s"]),
        "p50_ms": quantile(latency, 0.5),
        "cpu_us_per_event": median([r["cpu_us_per_event"] for r in runs]),
        "max_eps": max_eps,
        "wire_bytes_per_event": median(
            [r["network_bytes"] / r["injected_events"] for r in runs]),
        "transmission_ratio": setup["transmission_ratio"],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }
    detail = {
        "nominal_runs": len(runs),
        "latency_samples": samples,
        "p99_ms": quantile(latency, tail_q(samples)),
        "p99_reported_quantile": tail_q(samples),
        "achieved_eps": median([r["achieved_eps"] for r in runs]),
        "injected_events": runs[0]["injected_events"],
        "nominal_passes_probe": all(
            probe_passes(r, reference, setup["p99_limit_ms"]) for r in runs),
        "match_error_frac": max(error_frac(r["counts"], reference)
                                for r in runs),
        "max_eps_probes": probes,
    }
    return metrics, len(runs), failed, detail


def run_layers(s, setup, ref, seconds):
    reference = ref["counts"]
    nominal = setup["nominal_eps"]
    plain, traced = [], []
    for i in range(max(2, nominal_runs(s.workload, seconds) // 2)):
        # Alternate which side runs first, so drift hits both alike.
        order = [0, TRACE_SAMPLE_EVERY][::(1 if i % 2 == 0 else -1)]
        for every in order:
            run = s.probe("rt", f"{'traced' if every else 'untraced'}#{i}",
                          rate=nominal, trace_sample=every, collect=1)
            (traced if every else plain).append(run)
    every_run = plain + traced
    failed = sum(1 for r in every_run
                 if r["wedged"] or r["counts"] != reference
                 or r["fingerprints"] != ref["fingerprints"])
    failed += int(ref["sim_counts"] != reference
                  or ref["sim_fingerprints"] != ref["fingerprints"])
    failed += int(ref["crash_sim_fingerprints"] != ref["fingerprints"])

    def per_event(key):
        return median([r[key] / r["injected_events"] for r in plain])

    def stage(name, field):
        return median([r["trace"][name][field] for r in traced])

    frames_per_event = per_event("inputs_processed")
    latency = pool([r["latency"] for r in plain])
    cpu = median([r["cpu_us_per_event"] for r in plain])
    cpu_traced = median([r["cpu_us_per_event"] for r in traced])
    setup_med = lambda key: median(setup[key])
    constructed = setup_med("graphs_constructed")
    events = ref["injectable_events"]
    metrics = {
        "core.catalog_s": setup_med("catalog_s"),
        "core.plan_s": setup_med("plan_s"),
        "core.select_s": setup_med("select_s"),
        "core.enumerate_s": setup_med("enumerate_s"),
        "core.construct_s": setup_med("construct_s"),
        "core.par_eval_cpu_s": setup_med("par_eval_cpu_s"),
        "core.graphs_constructed": constructed,
        "core.construct_yield": (
            (constructed - setup_med("graphs_discarded")) / constructed
            if constructed else 0.0),
        "core.lb_rejections": setup_med("lb_rejections"),
        "core.par_wasted_evals": setup_med("par_wasted_evals"),
        "cep.replay_us_per_event": ref["replay_us_per_event"],
        "cep.candidates_per_event": ref["sim_candidates"] / events,
        "cep.match_yield": (ref["sim_composite_outputs"] / ref["sim_candidates"]
                            if ref["sim_candidates"] else 0.0),
        "cep.peak_buffered": median([r["peak_buffered"] for r in plain]),
        "cep.evictions_per_event": per_event("evictions"),
        "cep.peak_pending": median([r["peak_pending"] for r in plain]),
        "cep.pending_released": median(
            [r["pending_released"] for r in plain]),
        "cep.inbox_batch_rows_frac": median(
            [r["inbox_batch_rows"] / r["inputs_processed"] for r in plain]),
        "rt.nseq_p50_ms": median(
            [quantile(r["nseq_latency"], 0.5) for r in plain]),
        "p99_ms": quantile(latency, tail_q(count(latency))),
        "dist.sim_us_per_event": ref["sim_us_per_event"],
        "dist.node_inputs_per_event": ref["node_inputs_per_event"],
        "dist.task_outputs_per_event": ref["task_outputs_per_event"],
        "dist.dup_dropped": ref["crash_dup_dropped"],
        "dist.sink_dedup_peak": ref["sink_dedup_peak"],
        "wire.encode_ns_per_frame": ref["wire_encode_ns_per_frame"],
        "wire.decode_ns_per_frame": ref["wire_decode_ns_per_frame"],
        "wire.message_frame_bytes": median(
            [r["network_bytes"] / r["network_frames"]
             if r["network_frames"] else 0.0 for r in plain]),
        "wire.frames_per_event": frames_per_event,
        "transport.ns_per_packet": ref["transport_ns_per_packet"],
        "transport.stalls": median([r["stalls"] for r in plain]),
        "transport.source_stall_ms": median(
            [r["source_stall_us"] / 1000.0 for r in plain]),
        "transport.gen_late_frac": median([late_frac(r) for r in plain]),
        "trace.transport_us_p50": stage("transport", "p50_us"),
        "trace.transport_us_p99": stage("transport", "p99_us"),
        "trace.inbox_wait_us_p50": stage("inbox-wait", "p50_us"),
        "trace.inbox_wait_us_p99": stage("inbox-wait", "p99_us"),
        "trace.evaluate_us_p50": stage("evaluate", "p50_us"),
        "trace.evaluate_us_p99": stage("evaluate", "p99_us"),
        "trace.completed_frac": median(
            [r["trace"]["completed"] / r["trace"]["traces"]
             if r["trace"]["traces"] else 0.0 for r in traced]),
        "trace.spans_dropped": median([r["trace"]["dropped"] for r in traced]),
        "trace.overhead_frac": cpu_traced / cpu - 1.0 if cpu else 0.0,
        # CPU per event the layers timed in isolation do not explain: the
        # simulator's node work, plus wire encode+decode and one transport
        # round trip per frame (paced sources send one-frame packets).
        "rt.unaccounted_us_per_event": cpu - ref["sim_us_per_event"]
        - frames_per_event * (ref["wire_encode_ns_per_frame"]
                              + ref["wire_decode_ns_per_frame"]
                              + ref["transport_ns_per_packet"]) / 1000.0,
        "match_error_frac": max(error_frac(r["counts"], reference)
                                for r in every_run),
    }
    detail = {"untraced_runs": len(plain), "traced_runs": len(traced),
              "cpu_us_per_event_untraced": cpu,
              "cpu_us_per_event_traced": cpu_traced,
              "trace_sample_every": TRACE_SAMPLE_EVERY}
    return metrics, len(every_run) + 2, failed, detail


def run_benchmark(workload, seed, seconds, trace, short=False):
    """Runs one workload and returns (result object, provenance record)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    steal_start = steal_seconds()
    s = Session(workload, seed, short)
    try:
        reps = SETUP_REPS[workload]
        setup = s.probe("setup", "setup",
                        reps=max(1, reps // 3) if trace else reps)
        ref = s.probe("reference", "reference", layers=int(bool(trace)))
        if trace:
            metrics, attempted, failed, detail = run_layers(
                s, setup, ref, seconds)
        else:
            metrics, attempted, failed, detail = run_end_to_end(
                s, setup, ref, seconds)
    finally:
        if os.path.exists(s.plan):
            os.remove(s.plan)
    steal_end = steal_seconds()
    oracle_ok = ref["oracle_agree"] == ref["oracle_slices"]
    correct = failed == 0 and oracle_ok and setup["plan_stable"]
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    provenance = {
        "workload": workload,
        "seed": seed,
        "seeds": {"default": DEFAULT_SEED, "held_out": HELDOUT_SEED},
        "trace": trace,
        "seconds": seconds,
        "short": short,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "wall_s": time.time() - s.t0,
        "cpu_steal_s": (steal_end - steal_start
                        if steal_start is not None and steal_end is not None
                        else None),
        "compiler": setup["compiler"],
        "build_type": setup["build_type"],
        **source_id(),
        "rt_threads": max(1, (os.cpu_count() or 2) - 1),
        "offered_eps": setup["nominal_eps"],
        "trace_events": setup["trace_events"],
        "injected_events": setup["injectable_events"],
        "trace_eps": setup["trace_eps"],
        "window_ms": setup["window_ms"],
        "instance_seed": setup["instance_seed"] or None,
        "slack_virtual_ms": setup["nominal_slack_ms"],
        "slack_wall_tolerance_ms": setup["slack_tolerance_ms"],
        "p99_limit_ms": setup["p99_limit_ms"],
        "plan_tasks": setup["tasks"],
        "reference_counts": ref["counts"],
        "oracle_slices_agree": f"{ref['oracle_agree']}/{ref['oracle_slices']}",
        **detail,
    }
    tag = f"{workload}-seed{seed}-trace{trace}{'-short' if short else ''}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as f:
        json.dump({"result": result, "provenance": provenance,
                   "probes": s.records}, f, indent=1)
    with open(os.path.join(OUT_DIR, f"spans-{tag}.json"), "w") as f:
        json.dump({"traceEvents": s.spans}, f)
    return result, provenance


# --- self-test -----------------------------------------------------------------

def check_schema(result, trace):
    expected = dict(PER_LAYER if trace else END_TO_END)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == set(expected), "metric names differ"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == expected[name]
        assert math.isfinite(m["value"]), name
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    assert {(m["name"], m["unit"]) for m in declared[key]} == \
        set(expected.items()), f"BENCHMARK.json {key} differs from run.py"


def selftest():
    """Tiny-size runs of every workload in both modes (reference must
    match, schema must hold), then one probe far above the knee that must
    show a loss or a late generator."""
    build()
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_benchmark(workload, DEFAULT_SEED, 1, trace,
                                      short=True)
            check_schema(result, trace)
            assert result["correct"], f"{workload} trace={trace}: {result}"
            log(f"selftest {workload} trace={trace}: ok")
    s = Session("filter_nseq", DEFAULT_SEED, short=True)
    setup = s.probe("setup", "setup")
    ref = s.probe("reference", "reference")
    run = s.probe("rt", "overload", rate=setup["nominal_eps"] * 200)
    os.remove(s.plan)
    loss = error_frac(run["counts"], ref["counts"])
    assert loss > 0 or late_frac(run) > PACE_TOLERANCE, \
        f"overload probe shows neither loss nor lateness: {run}"
    log(f"selftest overload: match_error_frac={loss:.4f} "
        f"late_frac={late_frac(run):.3f}: ok")
    print("selftest passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            selftest()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        build()
        result, provenance = run_benchmark(args.workload, args.seed,
                                           args.seconds, args.trace)
    except BenchError as e:
        log(str(e))
        return 2
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
