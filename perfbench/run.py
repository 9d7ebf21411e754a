#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload batch-10k --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --self-test

The Rust harness in this directory is built from source with cargo (into
$CARGO_TARGET_DIR, default .bench_build) and run once per workload in its own
process, so the peak RSS it reports belongs to that workload alone. With
--trace 1 the harness runs twice on the same seed and every deterministic work
counter must repeat exactly. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Any failed check of the
program's output exits 1.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-10k", "reuse-drift-1k", "service-tcp-1k")
# Every invocation must end within 180 s, both traced runs included.
RUN_TIMEOUT_S = 170
TIMED_OUT = -1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Compile the harness; return the binary path or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"perfbench: build failed with status {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def run_harness(binary, workload, seed, seconds, trace, extra, deadline):
    """Run the harness once; return (exit status, parsed last JSON line)."""
    workdir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench-work")
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir, *extra]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {timeout:.0f} s")
        return TIMED_OUT, None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def counter_diff(a, b):
    """Deterministic counters that differ between two traced runs."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def measure(binary, workload, seed, seconds, trace, toy=False):
    """One benchmark invocation; returns (ok, contract result or None)."""
    extra = ["--scale", "toy"] if toy else []
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    status, first = run_harness(binary, workload, seed, seconds, trace, extra, deadline)
    if first is None:
        return False, None
    ok = status == 0 and first["correct"]
    if first.get("unresolved"):
        log(f"perfbench: {first['unresolved']} timing reconciliation(s) unresolved")
    if trace and ok:
        # The same seed again, without the reconciliations (less work than
        # the first run): every deterministic work counter must repeat
        # exactly. A host too slow to fit it in the time limit leaves the
        # check unresolved rather than failed.
        elapsed = time.monotonic() - start
        if deadline - time.monotonic() < elapsed:
            log(f"perfbench: UNRESOLVED: determinism run skipped, the first took {elapsed:.0f} s")
            return contract_result(first, ok, trace)
        status, second = run_harness(binary, workload, seed, seconds, trace,
                                     extra + ["--no-reconcile"], deadline)
        if second is None and status == TIMED_OUT:
            log("perfbench: UNRESOLVED: determinism run did not finish in time")
        elif second is None or status != 0 or not second["correct"]:
            ok = False
        else:
            diff = counter_diff(first["deterministic"], second["deterministic"])
            for k in diff:
                log(f"perfbench: counter {k} differs: {first['deterministic'].get(k)} "
                    f"vs {second['deterministic'].get(k)}")
            ok = not diff
    return contract_result(first, ok, trace)


def contract_result(first, ok, trace):
    """(ok, result line): the first run's figures, checked against BENCHMARK.json."""
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    if want is not None and got != want:
        log(f"perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(want) ^ set(got)) or 'units'}")
        ok = False
    return ok, {
        "correct": ok,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": first["metrics"],
    }


def self_test(binary):
    """Toy-size smoke check of the harness: every workload in both modes."""
    assert counter_diff({"a": "1", "b": "2"}, {"a": "1", "b": "3"}) == ["b"]
    assert counter_diff({"a": "1"}, {"a": "1"}) == []
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            ok, result = measure(binary, workload, 7, 1, trace, toy=True)
            metrics = result["metrics"] if result else {}
            values_ok = all(isinstance(m["value"], (int, float)) for m in metrics.values())
            good = ok and values_ok and result["attempted"] >= 1
            log(f"self-test {workload} trace {trace}: {'ok' if good else 'FAILED'}")
            failures += not good
    tests = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                            "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                           stdout=sys.stderr)
    failures += tests.returncode != 0
    return failures == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=8)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return 0 if self_test(binary) else 1
    ok, result = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
