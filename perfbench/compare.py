"""Compare two result sets of perfbench/run.py.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSON-lines file run.py appends to. Runs of the two
sides are paired by workload and seed; run the pairs alternately, the
parent first in every other pair (README.md shows a loop). For every
workload and end-to-end metric one row gives each side's median and
quartiles, the change's share of pairs won, and a verdict under the
rule of the choosing-metrics guide, section 8:

- better:      the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the
               parent's interquartile range;
- worse:       the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json;
- unresolved:  either side's spread (IQR / median) exceeds the bound,
               unless every change run beats every parent run;
- same:        none of the above.

Per-layer medians from traced runs follow each workload's rows, with
their change. Warnings flag a result set whose BLAS thread pin is
missing and environments that differ between the sides.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ENV_KEYS = ("nproc", "python", "numpy", "blas")


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    """(median, q1, q3) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def paired(parent, change):
    """(parent run, change run) pairs with the same seed, in run order."""
    by_seed = {}
    for run in change:
        by_seed.setdefault(run["seed"], []).append(run)
    pairs = []
    for run in parent:
        if by_seed.get(run["seed"]):
            pairs.append((run, by_seed[run["seed"]].pop(0)))
    return pairs


def verdict(p_values, c_values, pairs, better, bound):
    """Verdict and win count for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p_med, p_q1, p_q3 = spread(p_values)
    c_med, c_q1, c_q3 = spread(c_values)
    worse_by = -sign * (c_med - p_med) / p_med
    if max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med) > bound:
        if all(sign * (c - p) > 0 for c in c_values for p in p_values):
            return "better (every run)", wins
        return "unresolved", wins
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "better", wins
    if worse_by > bound:
        return "worse", wins
    return "same", wins


def environment_warnings(label, runs):
    warnings = []
    if any(not run["env"].get("threads_pinned") for run in runs):
        warnings.append(f"{label}: a run's BLAS thread pin is missing")
    for key in ENV_KEYS:
        values = {str(run["env"].get(key)) for run in runs}
        if len(values) > 1:
            warnings.append(f"{label}: runs differ in {key}: {sorted(values)}")
    return warnings


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    parent, change = load(args.parent), load(args.change)

    warnings = environment_warnings("parent", parent) + environment_warnings("change", change)
    for key in ENV_KEYS:
        sides = {str(run["env"].get(key)) for run in parent[:1] + change[:1]}
        if len(sides) > 1:
            warnings.append(f"parent and change differ in {key}: {sorted(sides)}")
    for line in warnings:
        print(f"WARNING: {line}")

    print(f"{'workload':<10} {'metric':<13} {'parent median [q1..q3]':>34} "
          f"{'change median [q1..q3]':>34} {'change':>8} {'won':>7} verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        p_runs = [r for r in parent if r["workload"] == workload and not r["trace"]]
        c_runs = [r for r in change if r["workload"] == workload and not r["trace"]]
        if not p_runs or not c_runs:
            print(f"{workload:<10} no untraced runs on {'both sides' if not p_runs and not c_runs else 'one side'}")
            continue
        pairs = paired(p_runs, c_runs)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p_values = [r["metrics"][name] for r in p_runs]
            c_values = [r["metrics"][name] for r in c_runs]
            value_pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs]
            result, wins = verdict(p_values, c_values, value_pairs, metric["better"],
                                   metric["bound"])
            p_med, p_q1, p_q3 = spread(p_values)
            c_med, c_q1, c_q3 = spread(c_values)
            note = "" if len(pairs) >= 10 else f" (only {len(pairs)} pairs)"
            p_cell = f"{p_med:.6g} [{p_q1:.4g}..{p_q3:.4g}]"
            c_cell = f"{c_med:.6g} [{c_q1:.4g}..{c_q3:.4g}]"
            print(f"{workload:<10} {name:<13} {p_cell:>34} {c_cell:>34} "
                  f"{(c_med - p_med) / p_med:>+8.1%} {wins:>3}/{len(pairs):<3} {result}{note}")
        failed = [sum(r["failed"] for r in runs) for runs in (p_runs, c_runs)]
        if any(failed):
            print(f"{workload:<10} failed output checks: parent {failed[0]}, change {failed[1]}")
        p_traced = [r for r in parent if r["workload"] == workload and r["trace"]]
        c_traced = [r for r in change if r["workload"] == workload and r["trace"]]
        if p_traced and c_traced:
            for metric in bench["per_layer"]:
                name = metric["name"]
                p_med = statistics.median(r["metrics"][name] for r in p_traced)
                c_med = statistics.median(r["metrics"][name] for r in c_traced)
                if p_med or c_med:
                    change_text = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "new"
                    print(f"{'':<10}   layer {name:<34} {p_med:>12.6g} -> {c_med:<12.6g} "
                          f"{change_text} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
