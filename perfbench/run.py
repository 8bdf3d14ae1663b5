#!/usr/bin/env python3
"""Repository benchmark: four psn-study workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-forwarding --seed 1 --seconds 25 --trace 0

The script builds `perfbench/` (a package of its own that links the
workspace crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), computes the workload's reference report once through the
other engine, untimed, and then:

* `--trace 0` runs the study in a fresh process, one at a time, with two
  threads, until `--seconds` is used up (at least three runs). Each run's
  report digest must equal the reference. The metrics are end to end:
  wall time from the study call to the rendered report (median), setup
  time from the worker's `main` to its first layer call (median over
  every run and ten setup-only processes per second, spread between the
  runs), CPU time and peak RSS of the run's process (read with wait4),
  and work units per wall second.
* `--trace 1` runs one process that alternates untraced runs with traced
  passes over the same public layer calls, and prints per-layer medians.
  Spans go to `.bench_out/spans-<workload>-seed<seed>.json`.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Any failed run, reference mismatch or store
quarantine makes the exit code nonzero. `--workload all` runs every
workload of BENCHMARK.json in turn and ends with one object whose metric
names carry a `<workload>/` prefix.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

MIN_RUNS = 3
# Setup-only processes per second of the measured period. They are spread
# between the timed runs, so that setup_s samples the host as they do.
SETUP_PER_S = 10
# Every child must end well inside the 180 s a whole invocation may take.
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_PROFILE = "release (opt-level 3, debug off; perfbench/Cargo.toml)"


def declared_metrics(kind):
    """(name, unit) of every `end_to_end` or `per_layer` metric of
    BENCHMARK.json, in its order."""
    try:
        with open("BENCHMARK.json") as f:
            return [(m["name"], m["unit"]) for m in json.load(f)[kind]]
    except (OSError, ValueError, KeyError) as e:
        fail(f"reading BENCHMARK.json: {e}")


# Why a per-layer metric reads 0 on a workload, keyed by what the workload
# lacks. A metric that reads 0 for none of these reasons is reported as a
# plain 0.
NOT_APPLICABLE = {
    "materialized": {
        "trace.source_fold_s": "the materialized engine has no stream pass; see trace.generate_s",
        "spacetime.spill_stores": "the materialized engine never spills",
        "spacetime.spill_loads": "the materialized engine never spills",
        "spacetime.spill_loads_spread": "the materialized engine never spills",
        "spacetime.loads_per_busy_slot": "the materialized engine never spills",
        "spacetime.avoided_reloads": "the materialized engine never spills",
        "forwarding.loads_per_sim": "the materialized engine never spills",
        "artifact.peak_stream_mib": "no streaming pass records a peak",
    },
    "streaming": {
        "trace.generate_s": "streaming runs never build a trace; see trace.source_fold_s",
        "artifact.builds": "streaming runs resolve nothing through the store",
    },
    "explosion": {
        "forwarding.timeline_build_s": "the explosion study builds no timeline",
        "forwarding.timeline_mib": "the explosion study builds no timeline",
        "forwarding.simulate_s": "the explosion study runs no simulator",
        "forwarding.simulate_1w_s": "the explosion study runs no simulator",
        "forwarding.message_sims": "the explosion study runs no simulator",
        "forwarding.delivered": "the explosion study runs no simulator",
        "forwarding.loads_per_sim": "the explosion study runs no simulator",
    },
    "forwarding": {
        "spacetime.enumerate_s": "the forwarding study runs no enumeration",
        "spacetime.enumerate_1w_s": "the forwarding study runs no enumeration",
        "spacetime.paths_delivered": "the forwarding study runs no enumeration",
    },
}


def log(message=""):
    print(message, flush=True)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    """Builds the worker binary; returns its path."""
    if not os.path.isfile(MANIFEST):
        fail(f"{MANIFEST} not found: run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"building the benchmark failed: {e}")
    if done.returncode != 0:
        fail(f"building the benchmark failed (exit {done.returncode})")
    return os.path.join(target, "release", "psn-perfbench")


def spawn(binary, args, env):
    """Runs one child to completion. Returns (exit code, stdout, resource
    usage of that child alone)."""
    child = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
        child.stdout.close()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out.decode(), usage


def last_json(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def host_block():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": model, "build_profile": BUILD_PROFILE}


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end(binary, args, env, ref):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    walls, setups, cpus, rss, durations, failures = [], [], [], [], [], 0
    setup_only = 0
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        typical = statistics.median(durations) if durations else 0.0
        if len(walls) + failures >= MIN_RUNS and elapsed + typical > args.seconds:
            break
        spawned = time.monotonic()
        code, out, usage = spawn(binary, ["run"] + common, env)
        durations.append(time.monotonic() - spawned)
        while setup_only < SETUP_PER_S * (time.monotonic() - started):
            setup_only += 1
            setup_code, setup_out, _ = spawn(binary, ["setup"] + common, env)
            setup_row = last_json(setup_out) if setup_code == 0 else None
            if setup_row is None:
                failures += 1
            else:
                setups.append(setup_row["setup_s"])
        row = last_json(out) if code == 0 else None
        if row is None or row["digest"] != ref["digest"] or row["quarantines"] != 0:
            failures += 1
            if failures > MIN_RUNS:
                break
            continue
        walls.append(row["wall_s"])
        setups.append(row["setup_s"])
        cpus.append(usage.ru_utime + usage.ru_stime)
        rss.append(usage.ru_maxrss / 1024.0)

    attempted = len(walls) + failures
    if not walls:
        log(f"failed_frac {failures / attempted:.4f} ratio ({failures} of {attempted} runs)")
        return 1, result(False, attempted, failures, {})
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mib": statistics.median(rss),
        "work_per_s": ref["work_units"] / wall,
    }
    log(f"end to end, {len(walls)} runs, one process each, one at a time, "
        f"{ref['threads']} threads:")
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail
                 else "no percentile has ten samples beyond it")
    declared = declared_metrics("end_to_end")
    if sorted(name for name, _ in declared) != sorted(metrics):
        fail(f"BENCHMARK.json end_to_end names differ from {sorted(metrics)}")
    for name, unit in declared:
        line = f"  {name:<14} {metrics[name]:12.6g} {unit:<4}"
        if name == "wall_s":
            line += f"  median of n={len(walls)}; {tail_text}"
        elif name == "setup_s":
            line += (f"  median of n={len(setups)} (every run plus {setup_only} "
                     "setup-only processes)")
        elif name == "work_per_s":
            line += f"  {ref['work_unit']} per wall second ({ref['work_units']} per run)"
        elif name == "cpu_s":
            line += f"  user+system of the run's process; cpu/wall {metrics['cpu_s'] / wall:.2f}"
        log(line)
    log(f"  {'failed_frac':<14} {failures / attempted:12.6g} ratio"
        f"  {failures} of {attempted} runs exited nonzero or differed from the reference")
    return (0 if failures == 0 else 1), result(
        failures == 0, attempted, failures,
        {name: {"value": metrics[name], "unit": unit} for name, unit in declared})


def per_layer(binary, args, env, ref):
    os.makedirs(".bench_out", exist_ok=True)
    spans = os.path.join(".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
    cmd = ["trace", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--expect", ref["digest"], "--spans", spans]
    code, out, _ = spawn(binary, cmd, env)
    row = last_json(out) if code == 0 else None
    if row is None:
        log("traced run failed (nonzero exit, a report that differs from the reference, "
            "or counters that differ across passes or worker counts)")
        return 1, result(False, 1, 1, {})
    value = row["metrics"]
    declared = declared_metrics("per_layer")
    if sorted(name for name, _ in declared) != sorted(value):
        fail(f"BENCHMARK.json per_layer names differ from the traced run's {sorted(value)}")
    kinds = ["streaming" if ref["window"] != "materialized" else "materialized", ref["study"]]
    notes = {}
    for kind in kinds:
        for name, why in NOT_APPLICABLE.get(kind, {}).items():
            if value[name] == 0:
                notes.setdefault(name, why)
    log(f"per layer, {row['passes']} traced passes (medians); spans in {spans}:")
    for name, unit in declared:
        line = f"  {name:<32} {value[name]:14.6g} {unit:<5}"
        if name in notes:
            line += f"  n/a: {notes[name]}"
        log(line)
    log(f"  artifact builds by kind: {row['builds_by_kind']}")
    study = value["core.study_s"]
    stream = (value["trace.source_fold_s"] + value["spacetime.graph_build_s"]
              + value["forwarding.timeline_build_s"])
    log("  shares of core.study_s (the untraced run_study_with call): "
        f"simulate {value['forwarding.simulate_s'] / study:.1%}, "
        f"enumerate {value['spacetime.enumerate_s'] / study:.1%}, "
        f"source+graph+timeline {stream / study:.1%}, "
        f"unattributed {value['core.unattributed_s'] / study:.1%}")
    if value["core.unattributed_s"] < 0:
        log("  warning: core.unattributed_s is negative: the traced layer calls took longer "
            "than the untraced study call")
    if row["negative_derived_spans"]:
        log(f"  warning: {row['negative_derived_spans']} derived spans came out negative: "
            "calibration noise exceeded the span's share of the stream pass")
    log(f"  tracing overhead {value['core.tracing_overhead_s']:.4f} s "
        f"(traced study+render minus untraced wall {value['core.untraced_wall_s']:.4f} s)")
    return 0, result(True, row["passes"], 0,
                     {name: {"value": value[name], "unit": unit} for name, unit in declared})


def run_workload(binary, args, env):
    """Runs one workload; returns (exit code, result)."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    code, out, _ = spawn(binary, ["reference"] + common, env)
    ref = last_json(out) if code == 0 else None
    if ref is None:
        log(f"workload {args.workload}: the reference run failed")
        return 1, result(False, 1, 1, {})
    host = host_block()
    seeding = ("draws the forwarding messages" if ref["seed_applied"] else
               "not applied: this workload keeps its study's message draw")
    log(f"workload {args.workload}, seed {args.seed} ({seeding}), scenario seed "
        f"{ref['scenario_seed']}; closed loop, one client")
    log(f"host: nproc {host['nproc']}, cpu {host['cpu_model']!r}, "
        f"build {host['build_profile']}")
    log(f"inputs: {ref['nodes']} nodes, {ref['contacts']} contacts, "
        f"{ref['busy_slots']} busy of {ref['slots']} slots, window {ref['window']}, "
        f"{ref['messages']} messages, {ref['message_sims']} message-simulations, "
        f"threads {ref['threads']}")
    log(f"reference: the other engine, untimed; report {ref['report_bytes']} bytes, "
        f"digest {ref['digest']}")
    run = per_layer if args.trace else end_to_end
    return run(binary, args, env, ref)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or `all` to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    binary = build()
    tmp = os.path.abspath(os.path.join(".bench_tmp", str(os.getpid())))
    os.makedirs(tmp, exist_ok=True)
    # The spill slabs of streaming runs go to the temp dir: keep them in
    # the checkout.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        if args.workload != "all":
            code, outcome = run_workload(binary, args, env)
            log(json.dumps(outcome))
            return code
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        codes, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            args.workload = name
            code, outcome = run_workload(binary, args, env)
            log(json.dumps(outcome))
            log()
            codes.append(code)
            total["correct"] = total["correct"] and outcome["correct"]
            total["attempted"] += outcome["attempted"]
            total["failed"] += outcome["failed"]
            for metric, value in outcome["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = value
        log(json.dumps(total))
        return max(codes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".bench_tmp")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
