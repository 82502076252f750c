#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the repository root. It runs the benchmark crate's unit
tests, then every workload at toy size (2k-node scenarios, a 12-cell
sweep layer, a 300-node 4-epoch replica set with the kill inside) and checks
that each run:

- passes its output checks and prints every metric with its unit;
- repeats its work counters exactly when run twice with one seed;
- traced, prints every per-layer metric, non-zero wherever the
  workload exercises that layer, with parts that add up to the whole,
  and writes well-formed spans.

Finally it checks that the benchmark fails cleanly (non-zero exit, no
result line) in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SEED = 7

# Per-layer metrics each workload must report as non-zero when traced.
SCENARIO_ROUNDS = [
    "scenario.round_ms_p50", "scenario.first_round_ms", "scenario.round_plain_ms_p50",
    "scenario.round_refresh_ms_p50", "scenario.final_ms", "graph.watts_strogatz_ms",
]
EXERCISED = {
    "mega_static": SCENARIO_ROUNDS + [
        "scenario.coverage", "work.interactions", "work.messages",
        "sweep.cells_per_s", "sweep.cell_ms_p50", "sweep.cell_setup_ms_p50", "sweep.efficiency",
    ],
    "overlay_churn": SCENARIO_ROUNDS + [
        "scenario.coverage", "membership.shuffle_ms_p50", "work.whitewashes",
    ],
    "service_replicated": [
        "replica.commit_ms_p50", "replica.visible_ms_p99", "replica.recovery_ms",
        "replica.failover_ms", "replica.apply_us_mean", "replica.coverage",
        "journal.append_ns_mean", "journal.bytes_written", "journal.scan_ms",
        "service.commit_ms_p50", "service.commit_ms_last", "service.refresh_iterations",
        "service.checkpoint_ms_p50", "service.checkpoint_ms_last",
        "service.checkpoint_bytes_last", "service.restore_ms_last", "host.replayed",
        "host.segments_opened", "replica.sequenced", "replica.retained_log_max",
        "work.ops", "work.commits", "work.checkpoints_written",
    ],
}
COVERAGE = {"mega_static": "scenario.coverage", "overlay_churn": "scenario.coverage",
            "service_replicated": "replica.coverage"}
SPAN_KEYS = {"id", "name", "parent", "start_ns", "end_ns", "workload", "run", "attrs"}

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        failures.append(message)


def run(workload, trace, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
    )
    return proc.returncode, proc.stdout.splitlines()


def result_and_counters(lines):
    counters = next(l for l in lines if l.startswith("counters: "))
    return json.loads(lines[-1]), counters


def check_metrics(workload, result, declared):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result has exactly the four keys")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload}: output checks pass ({result['failed']} of {result['attempted']} failed)")
    names = [m["name"] for m in declared]
    check(sorted(result["metrics"]) == sorted(names),
          f"{workload}: prints every declared metric and no other")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            check(False, f"{workload}: {m['name']} printed as {got}")


def main():
    tests = subprocess.run(["cargo", "test", "--release", "--quiet", "--manifest-path",
                            os.path.join(HERE, "Cargo.toml")])
    check(tests.returncode == 0, "benchmark crate unit tests")

    for workload in EXERCISED:
        code, first = run(workload, 0)
        check(code == 0, f"{workload}: untraced run exits 0")
        if code != 0:
            continue
        result, counters = result_and_counters(first)
        check_metrics(workload, result, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            value = result["metrics"][m["name"]]["value"]
            check(value > 0, f"{workload}: {m['name']} = {value} is positive")
        _, again = run(workload, 0)
        check(result_and_counters(again)[1] == counters,
              f"{workload}: work counters repeat across runs ({counters})")

        code, traced = run(workload, 1)
        check(code == 0, f"{workload}: traced run exits 0")
        if code != 0:
            continue
        result, traced_counters = result_and_counters(traced)
        check_metrics(workload, result, SPEC["per_layer"])
        check(traced_counters == counters, f"{workload}: traced run does the same work")
        for name in EXERCISED[workload]:
            value = result["metrics"][name]["value"]
            check(value > 0, f"{workload}: {name} = {value} is non-zero")
        if workload in COVERAGE:
            coverage = result["metrics"][COVERAGE[workload]]["value"]
            check(0.95 <= coverage <= 1.0, f"{workload}: timed parts cover {coverage:.3f} of the run")
        spans_path = os.path.join(HERE, "out", f"{workload}-seed{SEED}.spans.jsonl")
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f]
        check(spans and all(set(s) == SPAN_KEYS and s["workload"] == workload
                            and s["end_ns"] >= s["start_ns"] for s in spans),
              f"{workload}: {len(spans)} well-formed spans")

    # Outside a full checkout the benchmark cannot build and must fail.
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    code, lines = run("mega_static", 0, cwd=bare, env=env)
    check(code != 0 and not any(l.startswith("{") for l in lines),
          f"bare directory: exits {code} without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
