"""Command-line interface.

Subcommands, each reading one config file: gen (write the config's
instance to a file), run (single simulation to a trace CSV), compare
(experiment grid to a results CSV), bounds (print every computable rate
constant), pe-check (certify a schedule's persistent excitation).

main owns the exit policy: a bad value or file (ValueError, OSError)
exits 2 with one "scalareq: error:" line. A diverged run and a pe-check
FAIL exit 1; an internal RuntimeError keeps its traceback.
"""

import argparse
import functools
import sys

import numpy as np

from .compression import verify_pe_ct, verify_pe_dt
from .errors import PEVerificationFailed, SimulationDiverged
from .harness import (load_instance, parse_config, parse_list, run_experiment,
                      save_instance, serialize)
from .theory import (consensus_rate, dt_stepsize_and_rate, lemma1_constants,
                     observability_gram, solver_ct_rate)
from .dynamics import run_simulation

def _list_of(cast):
    """argparse type: a comma- or space-separated list of cast values."""
    def convert(text):
        return parse_list(text, cast)
    convert.__name__ = f"{cast.__name__} list"
    return convert


def _cmd_gen(args):
    inst = args.config.instance()
    save_instance(inst, args.out)
    print(f"wrote instance n={inst.n} m={inst.m} seed={inst.seed} to {args.out}")
    return 0


def _cmd_run(args):
    config = args.config
    if args.instance:
        try:
            inst = load_instance(args.instance)
        except ValueError as exc:  # malformed file, or one that holds no valid instance
            raise ValueError(f"--instance: {exc}") from exc
    else:
        inst = config.instance()
    schedule = config.schedule(inst.m)
    try:
        trace = run_simulation(inst, schedule, config.run(args.mode), args.mode)
    except SimulationDiverged as exc:
        print(f"scalareq: error: run diverged: {exc}", file=sys.stderr)
        return 1
    serialize(trace, args.out)
    status = (f"converged at {trace.hit_clock}" if trace.converged
              else f"not converged (final err {trace.final_err:.3e})")
    print(f"{status}; {len(trace)} rows -> {args.out}")
    return 0


def _cmd_compare(args):
    for seed in args.seeds:
        if seed < 0:
            raise ValueError(f"--seeds {seed} is negative")
    rows = run_experiment(args.config, args.mode, args.compressors, args.s_list,
                          args.seeds, args.record_every)
    serialize(rows, args.out)
    print(f"{len(rows)} result rows -> {args.out}")
    return 0


def _cmd_bounds(args):
    config = args.config
    inst = config.instance()
    schedule = config.schedule(inst.m)
    h, s = config.run_h, config.run_s
    spec = inst.spectrum

    values = {}
    if schedule.rows is None:
        T = 2 * np.pi / min(schedule.frequencies)
    else:
        T = schedule.period_steps * schedule.dwell
    witness = verify_pe_ct(schedule, T)
    gamma, c = consensus_rate(witness.alpha, T, spec.lambda2, spec.lambda_n)
    k_x, gamma_x = lemma1_constants(witness.alpha * spec.lambda2, T, spec.lambda_n)
    gamma_f, alpha_bar, alpha_prime = solver_ct_rate(
        witness.alpha, T, spec.lambda2, spec.lambda_n, inst.rho_m, inst.h_M, s)
    values.update(gamma=gamma, c=c, gamma_f=gamma_f, alpha_bar=alpha_bar,
                  alpha_prime=alpha_prime, k_x=k_x, gamma_x=gamma_x)

    if schedule.rows is not None and schedule.period_steps >= schedule.m:
        K = schedule.period_steps
        _, g = observability_gram(spec, schedule, h, 0, K)
        if g > 0:
            s_star, _, _ = dt_stepsize_and_rate(g, K, inst.h_M, inst.rho_m)
            values.update(g=g, s_star=s_star)
            if 0 < s < s_star:
                _, beta, gamma_d = dt_stepsize_and_rate(g, K, inst.h_M, inst.rho_m, s)
                values.update(beta=beta, gamma_d=gamma_d)

    for key, val in values.items():
        print(f"{key} = {float(val)!r}")
    print(",".join(values))
    print(",".join(repr(float(v)) for v in values.values()))
    return 0


def _cmd_pe_check(args):
    if not 0 < args.window < np.inf:
        raise ValueError(f"--window {args.window:g} is not finite and positive")
    if args.domain == "dt" and not args.window.is_integer():
        raise ValueError(f"--window {args.window:g} is not a whole number of steps (--domain dt)")
    schedule = args.config.schedule()
    try:
        witness = (verify_pe_ct(schedule, args.window) if args.domain == "ct"
                   else verify_pe_dt(schedule, int(args.window)))
    except PEVerificationFailed as exc:
        print(f"FAIL: {exc}")
        if exc.eigenvalues is not None:
            print("gram eigenvalues:", " ".join(f"{v:.3e}" for v in exc.eigenvalues))
        return 1
    print(f"PE witness: alpha={witness.alpha!r} window={witness.window!r}")
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process. Each subcommand's
    handler is looked up by name when it runs (see main)."""
    parser = argparse.ArgumentParser(
        prog="scalareq",
        description="Distributed network linear-equation solvers with "
                    "scalarized communication compression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate and save the instance of a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run one simulation and write its trace CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True, choices=["ct", "dt"])
    p.add_argument("--instance", help="instance file (defaults to config-driven generation)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="run an experiment grid and write results CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--mode", required=True, choices=["ct", "dt"])
    p.add_argument("--compressors", type=_list_of(str), default=("scalarized", "none"))
    p.add_argument("--s-list", type=_list_of(float))
    p.add_argument("--seeds", type=_list_of(int), default=(0, 1, 2, 3, 4))
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bounds", help="print rate constants for a config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("pe-check", help="verify persistent excitation of a schedule")
    p.add_argument("--config", required=True)
    p.add_argument("--domain", default="ct", choices=["ct", "dt"])
    p.add_argument("--window", type=float, required=True)
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        args.config = parse_config(args.config)
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (OSError, ValueError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
