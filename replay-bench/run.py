#!/usr/bin/env python3
"""Outside-in replay benchmark for HotC.

Run from the repository root:

    python3 replay-bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds `hotc-replay-bench` (the package next to this file) in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then replays the workload's
seeded scenario once per process, so each replay's `VmHWM` is its own, until
`--seconds` have passed. Every run first takes the digest that
`hotc_cli::run_scenario` gives for the same scenario; every replay must match
it and pass its output and workload checks.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, each the median
over the replays. Host times are scaled to the reference host speed: each
replay process also times a fixed host-speed probe (`src/calibrate.rs`),
once before the replay and once after, and a replay's times are multiplied
by PROBE_REFERENCE_S over its probe time (its rate by the inverse).
`--trace 1` alternates untraced and traced replays and reports the
per-layer metrics, medians over the traced replays, with
`trace.overhead_frac`: the traced replay time over the untraced one, minus 1.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only if every check
passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["zipf_10k_evict", "hot_set_warm", "flash_crowd_cap"]
# Printed with the end-to-end metrics but not gated: on these workloads
# failed_frac is always 0 (failures count in `failed` instead), and the
# simulated percentiles sit on one histogram bucket whatever the seed.
SHOWN_ONLY = [("failed_frac", "ratio"), ("sim_p50_ms", "ms"), ("sim_p99_ms", "ms")]
MIN_REPLAYS = 3
# The probe's time (before plus after) on the reference host, 2 vCPUs of a
# shared Intel Xeon VM; host times are reported at that speed.
PROBE_REFERENCE_S = 0.21
# Host timings, scaled by the probe; `replay_req_per_s` is a rate.
HOST_TIMES = {"setup_s", "replay_s", "report_s", "total_s"}
HOST_RATES = {"replay_req_per_s"}
# Start no replay that could end after this many seconds of the run.
DEADLINE_S = 150.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def declared_metrics():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, env={**os.environ, "CARGO_TARGET_DIR": target},
                          stdout=sys.stderr)
    if done.returncode != 0:
        raise SystemExit("replay-bench: build failed")
    return os.path.join(target, "release", "hotc-replay-bench")


def invoke(binary, args, timeout):
    """Runs one bench process; returns its JSON line, or None if it failed."""
    try:
        done = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        log(f"replay-bench: {' '.join(args)} timed out")
        return None
    if done.returncode != 0:
        log(f"replay-bench: {' '.join(args)} failed: {done.stderr.strip()}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(binary, workload, seed, seconds, trace):
    """Replays one workload until `seconds` have passed; returns
    (errors, attempted, failed, untraced records, traced records)."""
    start = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    errors = []
    reference = invoke(binary, ["reference"] + base, DEADLINE_S)
    if reference is None:
        return ["the reference run failed"], 1, 1, [], []
    base += ["--expect", reference["digest"]]
    plain, traced = [], []
    attempted = failed = 0
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_REPLAYS and (not trace or len(traced) >= MIN_REPLAYS)
        if (enough and elapsed >= seconds) or elapsed + longest > DEADLINE_S:
            break
        want_traced = trace and len(traced) < len(plain)
        began = time.monotonic()
        rec = invoke(binary, ["run"] + base + (["--trace"] if want_traced else []),
                     DEADLINE_S - elapsed)
        longest = max(longest, time.monotonic() - began)
        if rec is None:
            errors.append("a replay process failed")
            attempted += 1
            failed += 1
            break
        attempted += rec["requests"]
        failed += rec["failed"]
        problem = rec["check_error"]
        if problem is not None:
            errors.append(problem)
            failed += rec["requests"] - rec["failed"]
            break
        (traced if want_traced else plain).append(rec)
    if not errors and (len(plain) < MIN_REPLAYS or (trace and len(traced) < MIN_REPLAYS)):
        errors.append("too few replays fit in the deadline")
    return errors, attempted, failed, plain, traced


def at_reference_speed(record, key):
    """A record's value, with host times scaled by its probe to the reference
    host speed: a slow moment stretches the probe as it stretches the
    replay, and the ratio stays."""
    value = record[key]
    speed = PROBE_REFERENCE_S / record["probe_s"]
    if key in HOST_TIMES:
        return value * speed
    if key in HOST_RATES:
        return value / speed
    return value


def median_of(records, key):
    return statistics.median(at_reference_speed(r, key) for r in records)


def metrics_for(workload_records, trace, end_to_end, per_layer):
    plain, traced = workload_records
    out = {}
    if not trace:
        for m in end_to_end:
            out[m["name"]] = {"value": median_of(plain, m["name"]), "unit": m["unit"]}
        return out
    for m in per_layer:
        name = m["name"]
        if name == "trace.overhead_frac":
            value = median_of(traced, "replay_s") / median_of(plain, "replay_s") - 1.0
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    end_to_end, per_layer = declared_metrics()
    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in names:
        errors, n, bad, plain, traced = run_workload(
            binary, name, args.seed, args.seconds, args.trace == 1)
        attempted += n
        failed += bad
        print(f"== {name} (seed {args.seed}, {len(plain)} untraced"
              f" + {len(traced)} traced replays)")
        for e in errors:
            print(f"  CHECK FAILED: {e}")
        if errors:
            correct = False
            continue
        found = metrics_for((plain, traced), args.trace == 1, end_to_end, per_layer)
        if not args.trace:
            for key, unit in SHOWN_ONLY:
                print(f"  {key:<34} {median_of(plain, key):>16.6g} {unit}")
            for key, unit in [("probe_s", "s"), ("replay_req_per_s", "req/s")]:
                raw = statistics.median(r[key] for r in plain)
                print(f"  {'unscaled ' + key:<34} {raw:>16.6g} {unit}")
        for key, m in found.items():
            print(f"  {key:<34} {m['value']:>16.6g} {m['unit']}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = m
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
