"""Reference implementations that tests compare the package against.

``run_simulation_stepwise`` is the single-step form of
``dynamics.run_simulation``: it evaluates the error, the divergence
guard and the trace record after every step, and steps with the
node-by-node discrete update or an RK4 step of ``solver_ct_rhs``, so it
shares neither the block loop nor the cached maps of the package.
"""

import numpy as np

from scalareq.compression import make_schedule
from scalareq.dynamics import (DIVERGENCE_GUARD, Trace, _rk4_step, solver_ct_rhs,
                               solver_dt_step)
from scalareq.errors import SimulationDiverged
from scalareq.harness import account


def reference_step(inst, schedule, cfg, mode, rng):
    """step(k, x): discrete step k by the node loop, or RK4 step k of the
    continuous solver field (midpoint-frozen for piecewise-constant
    schedules)."""
    if mode == "dt":
        return lambda k, x: solver_dt_step(inst, schedule, cfg.h, cfg.s, k, x,
                                           cfg.compressor, rng=rng)
    if cfg.compressor.kind == "none":
        schedule = make_schedule("identity", schedule.m)
    freeze = "stage" if schedule.kind == "trigonometric" else "midpoint"
    rhs = lambda t, x: solver_ct_rhs(inst, schedule, cfg.s, t, x)
    return lambda k, x: _rk4_step(rhs, k * cfg.dt_int, x, cfg.dt_int, freeze)


def run_simulation_stepwise(inst, schedule, cfg, mode):
    """``run_simulation`` with one step, one error norm, one guard check
    and one record at a time."""
    n, m = inst.H.shape
    cfg.validate(schedule, mode, inst.spectrum.lambda_n if n >= 2 else None)
    if cfg.x0 is not None:
        x = np.array(cfg.x0, dtype=float).reshape(n * m)
    else:
        x = np.random.default_rng([cfg.seed, 1]).standard_normal(n * m)
    step = reference_step(inst, schedule, cfg, mode, np.random.default_rng([cfg.seed, 2]))

    ref = np.tile(np.asarray(inst.v_star, dtype=float), n)
    links = 2 * len(inst.graph.edges)
    msg_scalars, msg_bits = account(cfg.compressor, m)
    clocks, errs, diss, scals, bits = [], [], [], [], []

    def record(clock, xv, rounds, err):
        X = xv.reshape(n, m)
        clocks.append(clock)
        errs.append(err)
        diss.append(float(np.linalg.norm(X - X.mean(axis=0))))
        scals.append(rounds * links * msg_scalars)
        bits.append(rounds * links * msg_bits)

    def finish(converged, hit_clock, last_err):
        return Trace(clock=clocks, err=errs, disagreement=diss, scalars_tx_cum=scals,
                     bits_tx_cum=bits, converged=converged, hit_clock=hit_clock,
                     final_err=last_err)

    if mode == "dt":
        last, clock_at = int(cfg.horizon), lambda k: k
    else:
        last = int(np.ceil(cfg.horizon / cfg.dt_int - 1e-9))
        clock_at = lambda k: k * cfg.dt_int
    k = 0
    while True:
        clock = clock_at(k)
        err = float(np.linalg.norm(x - ref)) / n
        if err <= cfg.tol:
            record(clock, x, k, err)
            return finish(True, clock, err)
        if k >= last:
            record(clock, x, k, err)
            return finish(False, None, err)
        if k % cfg.record_every == 0:
            record(clock, x, k, err)
        x = step(k, x)
        k += 1
        nrm = float(np.linalg.norm(x))
        if not np.isfinite(nrm) or nrm > DIVERGENCE_GUARD:
            raise SimulationDiverged(f"state norm {nrm:.3e} beyond guard",
                                     clock=clock_at(k), norm=nrm)
