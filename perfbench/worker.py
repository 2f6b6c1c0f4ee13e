"""One workload run in a fresh process.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --size full|tiny --trace 0|1 --out RESULT.json [--plant]

Imports ``scalareq`` from DIR/src, runs the workload in a scratch
directory under DIR, and writes one JSON result: the clocks that bound
set-up and the solve phase, the steps and units of the run, peak
resident memory, whether the BLAS thread pin reached it and, when
traced, the per-layer values. ``--plant`` plants one wrong answer per workload for
the benchmark's self-test. run.py starts this script; it is not meant
to be run by hand.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

# run.py sets each to "1" for every worker
PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--plant", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import scalareq
    import scalareq.cli  # noqa: F401  (imported during set-up, not on first use)

    if os.path.commonpath([os.path.realpath(scalareq.__file__), os.path.realpath(src)]) \
            != os.path.realpath(src):
        raise SystemExit(f"scalareq imported from {scalareq.__file__}, not from {src}")

    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(f"{args.workload}-{args.seed}-{os.getpid()}")

    workdir = os.path.join(os.path.dirname(args.out), f"work-{os.getpid()}")
    os.makedirs(workdir)
    run = workloads.Run(workdir, args.size, args.seed, args.plant)
    try:
        workloads.WORKLOADS[args.workload](run)
    except Exception as exc:  # the program failed outside any single cell
        run.unit("workload", [repr(exc)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.setup_done()
    if run.solve_end is None:
        run.solve_end = time.monotonic()

    result = {
        "setup_end": run.setup_end,
        "solve_s": run.solve_end - run.setup_end,
        "steps": run.steps,
        "units": run.units,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads_pinned": all(os.environ.get(var) == "1" for var in PIN),
    }
    if tracer is not None:
        tracer.dump(args.out + ".spans.jsonl")
        result["layers"] = tracer.layer_metrics()
        result["root_span_s"] = tracer.root_span_s()
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
