"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with the code and with the limits its
format sets; runs every workload at the tiny size, untraced and traced,
and requires every output check to pass and every metric to be
reported; runs every workload again with one planted wrong answer and
requires fail_frac above 0; and checks that the benchmark refuses to
run, without printing a result, in a copy that holds only
BENCHMARK.json and perfbench/. Exits 0 when all of this holds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import tracing
import workloads
from run import E2E, OUT, ROOT

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def contract_problems(bench):
    problems = []
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"unexpected keys {sorted(bench)}")
    if [w["name"] for w in bench["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in bench["end_to_end"]] != list(E2E):
        problems.append("end_to_end metrics differ from run.E2E")
    if [(m["name"], m["unit"]) for m in bench["per_layer"]] != list(tracing.PER_LAYER):
        problems.append("per_layer metrics differ from tracing.PER_LAYER")
    entries = bench["workloads"] + bench["end_to_end"] + bench["per_layer"]
    names = [e["name"] for e in entries]
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for entry in entries:
        if not NAME.fullmatch(entry["name"]):
            problems.append(f"bad name {entry['name']!r}")
        if "unit" in entry and not UNIT.fullmatch(entry["unit"]):
            problems.append(f"bad unit {entry['unit']!r}")
        if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
            problems.append(f"bad why for {entry['name']}")
    for metric in bench["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            problems.append(f"bad end_to_end entry {metric}")
    for metric in bench["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"bad per_layer entry {metric}")
    return problems


def bench_run(cwd, workload, trace=0, plant=False):
    """(exit code, parsed last stdout line or None) of one tiny run."""
    results = os.path.join(OUT, "selftest.jsonl")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", "--results", results]
    proc = subprocess.run(cmd + (["--plant"] if plant else []), cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = contract_problems(bench)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    for workload in workloads.WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            code, result = bench_run(ROOT, workload, trace)
            if code != 0 or result is None:
                problems.append(f"{workload} trace={trace}: exit {code}, no result")
            elif not result["correct"] or result["failed"] or set(result["metrics"]) != expected:
                problems.append(f"{workload} trace={trace}: {result}")
            elif trace == 0 and not all(m["value"] > 0 for m in result["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive: {result}")
        code, result = bench_run(ROOT, workload, plant=True)
        if code != 0 or result is None or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: planted wrong answer not caught: {result}")
        print(f"{workload}: checked")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, result = bench_run(bare, "ref-grid")
        if code == 0 or result is not None:
            problems.append(f"ran without the program's sources: exit {code}, {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for line in problems:
        print(f"FAIL {line}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
