#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/self_test.py

For every workload it checks that an untraced run prints exactly the
end-to-end metrics of BENCHMARK.json, and a traced run exactly its
per-layer metrics, each with its unit; that both runs pass their
correctness checks; that a corrupted journal (scenario_mix) or a wrong
result digest (variational_loop, qrc_series) makes the check fail; and
that the benchmark refuses to run without the repository's sources.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
FAULTS = {"scenario_mix": "journal", "variational_loop": "digest",
          "qrc_series": "digest"}
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(args, cwd=None):
    """Runs the benchmark; returns (exit code, parsed last line or None)."""
    proc = subprocess.run(RUN + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_result(label, result, table):
    expect(result is not None, label + ": prints a JSON result")
    if result is None:
        return
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           label + ": result has exactly the four keys")
    expect(result.get("correct") is True, label + ": correctness checks pass")
    expect(result.get("attempted", 0) >= 1 and result.get("failed") == 0,
           label + ": operations attempted, none failed")
    metrics = result.get("metrics", {})
    expect([(n, m.get("unit")) for n, m in metrics.items()] ==
           [(m["name"], m["unit"]) for m in table],
           label + ": every metric prints once, with its unit")
    expect(all(isinstance(m.get("value"), (int, float)) and
               sorted(m) == ["unit", "value"] for m in metrics.values()),
           label + ": every value is a number")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        base = ["--workload", workload, "--seed", "1", "--seconds", "0.2",
                "--smoke"]
        code, result = run(base + ["--trace", "0"])
        expect(code == 0, workload + " untraced: exits 0")
        check_result(workload + " untraced", result, bench["end_to_end"])
        if result:
            expect(all(m["value"] > 0 for m in result["metrics"].values()),
                   workload + " untraced: no end-to-end metric reads 0")
        code, result = run(base + ["--trace", "1"])
        expect(code == 0, workload + " traced: exits 0")
        check_result(workload + " traced", result, bench["per_layer"])
        code, result = run(base + ["--trace", "0", "--corrupt",
                                   FAULTS[workload]])
        expect(code == 0 and result is not None and
               result["correct"] is False,
               workload + ": a corrupted " + FAULTS[workload] +
               " fails the check")

    # Without the repository's sources the benchmark must fail fast and
    # print no result.
    bare = os.path.join(".bench_build", "self_test_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    code, result = run(["--workload", "qrc_series", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare)
    expect(code != 0 and result is None,
           "without sources: exits non-zero, prints no result")
    shutil.rmtree(bare)

    print("self-test: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
