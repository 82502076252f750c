#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark package
(perfbench/Cargo.toml, release profile), pins itself and its children
to at most two CPUs, runs the workload in a child process of its own
and takes that child's peak resident set from the kernel's accounting.

--trace 0 prints every end-to-end metric named in BENCHMARK.json.
--trace 1 runs the workload twice, untraced and then traced, and prints
every per-layer metric: the traced run's layer metrics (computed from
its spans, which go to perfbench/out/), its work counters, and the
tracing overhead of each end-to-end metric (traced minus untraced).
A layer the workload does not exercise reads 0.

--scale toy runs the self-test's small sizes instead of the full ones.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MAX_CPUS = 2
OVERHEAD = "overhead."
WORK = "work."


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    command = [
        "cargo", "build", "--release", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if proc.returncode != 0:
        fail("the benchmark does not build")
    for line in proc.stdout.splitlines():
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if (message.get("reason") == "compiler-artifact"
                and message["target"]["name"] == "perfbench"
                and message.get("executable")):
            return message["executable"]
    fail("cargo reported no perfbench executable")


def pin_cpus():
    """Restricts this process, and so its children, to MAX_CPUS CPUs."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, cpus[:MAX_CPUS])
    except (AttributeError, OSError):
        pass


def run_child(exe, args, traced):
    """Runs one workload process; returns its result and peak RSS in MiB."""
    command = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
        "--scale", args.scale,
    ]
    if traced:
        spans = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.spans.jsonl")
        command += ["--trace-out", spans]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(f"workload {args.workload} exited with {proc.returncode}")
    lines = output.splitlines()
    if not lines:
        fail(f"workload {args.workload} printed no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    # ru_maxrss is in KiB on Linux.
    return result, usage.ru_maxrss / 1024.0


def end_to_end(spec, result, peak_rss_mb):
    """The end-to-end metric values of one child, by name."""
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["peak_rss_mb"] = peak_rss_mb
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name not in values:
            fail(f"workload printed no {name}")
        if name != "peak_rss_mb" and result["metrics"][name]["unit"] != metric["unit"]:
            fail(f"{name} printed in {result['metrics'][name]['unit']}, declared {metric['unit']}")
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full")
    args = parser.parse_args()
    try:
        with open(SPEC_PATH) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_PATH}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    exe = build()
    pin_cpus()
    untraced, untraced_rss = run_child(exe, args, traced=False)
    plain = end_to_end(spec, untraced, untraced_rss)
    runs = [untraced]
    if args.trace == 0:
        metrics = {
            m["name"]: {"value": plain[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    else:
        traced, traced_rss = run_child(exe, args, traced=True)
        runs.append(traced)
        with_spans = end_to_end(spec, traced, traced_rss)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        counters = traced["counters"]
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name.startswith(OVERHEAD):
                base = name[len(OVERHEAD):]
                value = with_spans[base] - plain[base]
            elif name.startswith(WORK):
                value = counters.get(name[len(WORK):], 0)
            else:
                value = layers.get(name, 0.0)
            metrics[name] = {"value": value, "unit": m["unit"]}
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print("counters: " + json.dumps(untraced["counters"], sort_keys=True))
    if len(runs) == 2:
        # Tracing must not change the work done.
        attempted += 1
        if runs[1]["counters"] != untraced["counters"]:
            print("run.py: traced and untraced work counters differ", file=sys.stderr)
            failed += 1
    print(json.dumps({
        "correct": failed == 0 and all(r["correct"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
