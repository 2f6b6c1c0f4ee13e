"""Benchmark of the scalareq simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the named workload again and again, each time in a fresh worker
process with the BLAS thread pools pinned to one thread, one process
after another, for about S seconds (at least three runs, or two traced
pairs). Every run's outputs are checked. The command prints each metric
by name and unit, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. It appends the same result,
with the environment it was measured in, to a result set
(perfbench/out/results.jsonl unless --results names another file) that
compare.py reads.

With --trace 0 the metrics are the end-to-end ones, medians over the
runs. With --trace 1 untraced and traced runs alternate, and the
metrics are the per-layer ones from the traced runs plus the tracing
overhead. README.md lists the workloads and what each metric measures.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E = (("wall_s", "s"), ("setup_s", "s"), ("steps_per_s", "1/s"), ("peak_rss_mib", "MiB"))
MIN_RUNS = 3
MIN_PAIRS = 2
DEADLINE_S = 150.0  # a whole invocation must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment():
    """Commit, source digest, machine and library versions of a result set."""
    import numpy as np

    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": PIN,
    }


def run_once(args, traced, deadline, index):
    """One workload run in a fresh process; returns its result with timings."""
    out = os.path.join(OUT, f"run-{os.getpid()}-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--trace", str(int(traced)), "--out", out] + (["--plant"] if args.plant else [])
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **PIN},
                            stdout=sys.stderr.fileno())
    try:
        code = proc.wait(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{args.workload} run did not finish within {DEADLINE_S} s")
    wall = time.monotonic() - start
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    if traced:
        os.replace(out + ".spans.jsonl", os.path.join(OUT, f"spans-{args.workload}.jsonl"))
    result["wall_s"] = wall
    result["setup_s"] = result["setup_end"] - start
    return result


def measure(args):
    """Untraced runs (or alternating untraced/traced pairs) for ~args.seconds."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    plain, traced = [], []
    while True:
        if args.trace:
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for flag in order:
                (traced if flag else plain).append(
                    run_once(args, flag, deadline, len(plain) + len(traced)))
            done, needed = len(traced), MIN_PAIRS
            last = plain[-1]["wall_s"] + traced[-1]["wall_s"]
        else:
            plain.append(run_once(args, False, deadline, len(plain)))
            done, needed = len(plain), MIN_RUNS
            last = plain[-1]["wall_s"]
        if done >= needed and time.monotonic() - started + last > args.seconds:
            return plain, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(runs):
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "steps_per_s": [r["steps"] / r["solve_s"] for r in runs],
        "peak_rss_mib": [r["peak_rss_kib"] / 1024.0 for r in runs],
    }
    return samples, {name: (statistics.median(samples[name]), unit) for name, unit in E2E}


def per_layer(plain, traced):
    samples = {name: [r["layers"][name] for r in traced]
               for name, _ in tracing.PER_LAYER if name not in tracing.RUN_LEVEL}
    samples["trace.uncovered_frac"] = [(r["wall_s"] - r["root_span_s"]) / r["wall_s"]
                                       for r in traced]
    metrics = {name: (statistics.median(samples[name]), unit)
               for name, unit in tracing.PER_LAYER if name in samples}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    metrics["trace_overhead"] = (overhead, "s")
    return samples, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(OUT, "results.jsonl"),
                        help="result set to append this run to")
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    parser.add_argument("--plant", action="store_true",
                        help="plant one wrong answer per run (self-test)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "scalareq", "__init__.py")):
        print(f"perfbench: no scalareq sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        plain, traced = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment()
    runs = plain + traced
    pinned = all(r["threads_pinned"] for r in runs)
    samples, metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    units = [u for r in runs for u in r["units"]]
    failures = [f"{name}: {problems}" for name, ok, problems in units if not ok]
    attempted, failed = len(units), len(failures)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}: "
          f"{len(plain)} untraced and {len(traced)} traced runs; commit {env['commit'][:12]}, "
          f"source {env['source_sha256']}, nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, {env['blas']}, "
          f"{'BLAS threads pinned to 1' if pinned else 'WARNING: BLAS thread pin missing'}")
    for name, (value, unit) in metrics.items():
        q1, q3 = quartiles(samples.get(name, [value]))
        print(f"  {name} = {value:.6g} {unit}  (median; quartiles {q1:.6g}..{q3:.6g})")
    print(f"  fail_frac = {failed / attempted:.6g} 1  ({failed} of {attempted} cells and "
          f"certificate calls failed their output check)")
    for line in failures[:10]:
        print(f"  FAILED {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "env": {**env, "threads_pinned": pinned},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "samples": samples,
    }
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
