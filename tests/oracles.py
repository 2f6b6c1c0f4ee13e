"""Reference implementations that tests compare the package against.

- ``consensus_rhs`` / ``solver_ct_rhs`` are the right-hand sides of the
  compressed consensus flow and the continuous solver, one clock at a
  time, on the package's consensus operator.
- ``solver_dt_step`` is the discrete solver step computed node by node:
  each node combines its own state with one received scalar per
  neighbor, and the baseline compressors quantize one node's vector at a
  time.
- ``integrate`` is a classical fixed-step RK4 integrator of any
  right-hand side, returning a ``Trajectory``.
- ``scalarize`` / ``unfold`` are the transmitted scalar y = C^T x and its
  reconstruction C y at the receiver.
- ``run_simulation_stepwise`` is the single-step form of
  ``dynamics.run_simulation``: it evaluates the error, the divergence
  guard and the trace record after every step, and steps with the node
  loop or an RK4 step of ``solver_ct_rhs``, so it shares neither the
  block loop nor the cached maps of the package.
- ``serialize_trace_rows`` / ``serialize_result_rows`` write a trace or
  results CSV one formatted cell at a time through ``csv.writer``.
- ``fit_rate_polyfit`` is ``harness.fit_rate`` by ``np.polyfit``.
- ``interval_gram_ct`` is the continuous window gram of a cyclic-basis
  or table schedule summed one dwell interval at a time;
  ``midpoint_gram_ct`` is the N-point midpoint rule for a trigonometric
  one; ``sampled_alpha`` is the PE level read off evenly spaced window
  starts in one period, an upper bound on the exact witness;
  ``stepwise_gram_dt`` is the discrete window gram summed one step at a
  time.
"""

import csv
from dataclasses import dataclass

import numpy as np

from scalareq.compression import UNIT_NORM_TOL, Compressor, account, eval_ct, eval_dt
from scalareq.dynamics import DIVERGENCE_GUARD, Trace, _drift, _exchange
from scalareq.errors import SimulationDiverged
from scalareq.harness import RESULT_COLUMNS, TRACE_COLUMNS


def consensus_rhs(L, schedule, t, x):
    """Compressed consensus flow -(L (x) C(t) C(t)^T) x.

    Each node needs only the scalars y_j = C^T x_j from its neighbors.
    schedule None is the full exchange, plain consensus -(L (x) I) x.
    """
    X = np.asarray(x, dtype=float).reshape(L.shape[0], -1)
    C = None if schedule is None else eval_ct(schedule, t)
    return -_exchange(L, X, C).reshape(-1)


def solver_ct_rhs(inst, schedule, s, t, x):
    """Continuous solver flow: compressed consensus plus the local
    projection -s H_i (H_i^T x_i - b_i). At s = 0 this is the consensus
    flow; at x = 1 (x) v* it vanishes identically. schedule None is the
    full exchange."""
    X = np.asarray(x, dtype=float).reshape(inst.H.shape)
    C = None if schedule is None else eval_ct(schedule, t)
    return _drift(inst.graph.laplacian, s * inst.H, inst.H, inst.b, C, X).reshape(-1)


def _check_unit(C):
    if abs(np.linalg.norm(C) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("compression vector must have unit norm")


def scalarize(C, x):
    """The transmitted scalar y = C^T x."""
    C = np.asarray(C, dtype=float)
    _check_unit(C)
    return float(np.dot(C, x))


def unfold(C, y):
    """Receiver-side reconstruction C * y; unfold(C, scalarize(C, x))
    is the rank-1 orthogonal projection of x onto span(C)."""
    C = np.asarray(C, dtype=float)
    _check_unit(C)
    return C * float(y)


@dataclass
class Trajectory:
    """Raw integrator output: states sampled every dt_int."""

    times: np.ndarray
    states: np.ndarray


def rk4_step(rhs, t, x, dt, freeze):
    """One classical RK4 step; freeze='midpoint' evaluates all four
    stages at t + dt/2."""
    if freeze == "midpoint":
        tm = t + 0.5 * dt
        k1 = rhs(tm, x)
        k2 = rhs(tm, x + 0.5 * dt * k1)
        k3 = rhs(tm, x + 0.5 * dt * k2)
        k4 = rhs(tm, x + dt * k3)
    else:
        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = rhs(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(rhs, x0, t0, t1, dt_int, freeze="stage"):
    """Classical fixed-step RK4 of dx/dt = rhs(t, x) over [t0, t1].

    dt_int must tile the interval. freeze='midpoint' evaluates all four
    stages at the step midpoint; use it for piecewise-constant-in-time
    systems whose switching instants land on step boundaries (the step
    then integrates each smooth piece at full order, since stepping a
    stage across a switch would degrade accuracy).

    Returns a :class:`Trajectory` sampled every dt_int.
    """
    if dt_int <= 0:
        raise ValueError(f"need dt_int > 0, got {dt_int}")
    span = t1 - t0
    if span <= 0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    N = round(span / dt_int)
    if N < 1 or abs(N * dt_int - span) > 1e-9 * max(span, 1.0):
        raise ValueError(f"dt_int={dt_int} does not tile [{t0}, {t1}]")
    if freeze not in ("stage", "midpoint"):
        raise ValueError(f"freeze must be 'stage' or 'midpoint', got {freeze!r}")
    x = np.array(x0, dtype=float)
    times = t0 + dt_int * np.arange(N + 1)
    states = np.empty((N + 1, x.size))
    states[0] = x
    for i in range(N):
        x = rk4_step(rhs, t0 + i * dt_int, x, dt_int, freeze)
        nrm = float(np.linalg.norm(x))
        if not np.isfinite(nrm) or nrm > DIVERGENCE_GUARD:
            raise SimulationDiverged(
                f"state norm {nrm:.3e} beyond guard at t={times[i + 1]:.6g}",
                clock=float(times[i + 1]), norm=nrm,
            )
        states[i + 1] = x
    return Trajectory(times=times, states=states)


def solver_dt_step(inst, schedule, h, s, k, x, compressor=None, rng=None):
    """One step of the discrete solver at step index k.

    Scalarized mode is computed node by node from each node's own state
    plus one received scalar per neighbor, so the scalar-communication
    structure of the update is explicit in the code path. 'none'
    exchanges raw states; the baseline kinds substitute the compressed
    state vector, quantized one node at a time in node order, for every
    transmitted state in the consensus term.
    """
    compressor = compressor or Compressor("scalarized")
    H, b = inst.H, inst.b
    n, m = H.shape
    if n >= 2:
        lambda_n = inst.spectrum.lambda_n
        if not 0.0 < h < 2.0 / lambda_n:
            raise ValueError(f"stepsize h={h} outside (0, {2.0 / lambda_n:.6g})")
    X = np.asarray(x, dtype=float).reshape(n, m)

    if compressor.kind == "scalarized":
        C = eval_dt(schedule, k)
        y = np.array([float(np.dot(X[i], C)) for i in range(n)])
        Xn = np.empty_like(X)
        for i in range(n):
            acc = 0.0
            for (j, w) in inst.graph.neighbor_lists[i]:
                acc += w * (y[j] - y[i])
            r_i = float(np.dot(H[i], X[i])) - b[i]
            Xn[i] = X[i] + (h * acc) * C - (s * r_i) * H[i]
        return Xn.reshape(-1)

    L = inst.graph.laplacian
    r = (X * H).sum(axis=1) - b
    if compressor.kind == "none":
        Q = X
    elif compressor.kind == "uniform":
        Q = np.floor(X + 0.5)
    else:
        Q = np.stack([compressor.apply(X[i], rng=rng) for i in range(n)])
    return (X - h * (L @ Q) - s * r[:, None] * H).reshape(-1)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def serialize_trace_rows(trace, path):
    """Write a Trace as ``harness.serialize`` does, formatting one cell at
    a time."""
    with open(path, "w", newline="") as fh:
        for key in sorted(trace.meta):
            fh.write(f"# {key}={_fmt(trace.meta[key])}\n")
        fh.write(f"# converged={_fmt(trace.converged)}\n")
        hit = _fmt(trace.hit_clock) if trace.hit_clock is not None else "none"
        fh.write(f"# hit_clock={hit}\n")
        fh.write(f"# final_err={_fmt(trace.final_err)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for i in range(len(trace)):
            writer.writerow([
                _fmt(float(trace.clock[i])), _fmt(float(trace.err[i])),
                _fmt(float(trace.disagreement[i])),
                _fmt(int(trace.scalars_tx_cum[i])), _fmt(int(trace.bits_tx_cum[i])),
            ])
    return path


def serialize_result_rows(rows, path):
    """Write a list of ResultRow as ``harness.serialize`` does, formatting
    one cell at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for r in rows:
            writer.writerow([
                r.mode, r.compressor, _fmt(float(r.h)), _fmt(float(r.s)), _fmt(int(r.seed)),
                _fmt(float(r.hit_clock)), _fmt(bool(r.converged)), _fmt(int(r.scalars_at_hit)),
                _fmt(int(r.bits_at_hit)), _fmt(float(r.rate_emp)),
            ])
    return path


def reference_step(inst, schedule, cfg, mode, rng):
    """step(k, x): discrete step k by the node loop, or RK4 step k of the
    continuous solver field (midpoint-frozen for piecewise-constant
    schedules)."""
    if mode == "dt":
        return lambda k, x: solver_dt_step(inst, schedule, cfg.h, cfg.s, k, x,
                                           cfg.compressor, rng=rng)
    if cfg.compressor.kind == "none":
        schedule = None
    freeze = "stage" if schedule is not None and schedule.kind == "trigonometric" else "midpoint"
    rhs = lambda t, x: solver_ct_rhs(inst, schedule, cfg.s, t, x)
    return lambda k, x: rk4_step(rhs, k * cfg.dt_int, x, cfg.dt_int, freeze)


def run_simulation_stepwise(inst, schedule, cfg, mode):
    """``run_simulation`` with one step, one error norm, one guard check
    and one record at a time."""
    n, m = inst.H.shape
    cfg.validate(inst, schedule, mode)
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
                                     clock=clock_at(k), norm=nrm,
                                     scalars=k * links * msg_scalars, bits=k * links * msg_bits)


def fit_rate_polyfit(trace):
    """(rate_emp, r_squared) of ``harness.fit_rate``, fitted by np.polyfit."""
    clock = np.asarray(trace.clock, dtype=float)
    err = np.asarray(trace.err, dtype=float)
    tail = slice(len(clock) // 2, None)
    clock, err = clock[tail], err[tail]
    keep = np.isfinite(err) & (err > 0)
    clock, err = clock[keep], err[keep]
    if len(clock) < 3 or clock[-1] == clock[0]:
        return float("nan"), float("nan")
    log_err = np.log(err)
    slope, intercept = np.polyfit(clock, log_err, 1)
    pred = slope * clock + intercept
    ss_res = float(np.sum((log_err - pred) ** 2))
    ss_tot = float(np.sum((log_err - log_err.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), r2


def interval_gram_ct(schedule, start, T):
    """Integral of C C^T over [start, start+T] for a cyclic-basis or table
    schedule, as one outer product per dwell interval the window meets."""
    dwell = schedule.dwell
    G = np.zeros((schedule.m, schedule.m))
    idx = int(np.floor(start / dwell + 1e-9))
    t, end = start, start + T
    while t < end - 1e-12 * dwell:
        seg_end = min((idx + 1) * dwell, end)
        C = eval_ct(schedule, idx * dwell)
        G += (seg_end - t) * np.outer(C, C)
        t, idx = seg_end, idx + 1
    return G


def midpoint_gram_ct(schedule, start, T, N=1000):
    """Midpoint rule with N points for the window gram of a trigonometric
    schedule. Each entry is within T^3 w_max^2 / (6 m N^2) of the integral:
    the rule's error is at most T h^2 max|f''| / 24 with h = T / N, and an
    entry f = (2/m) sin or cos (w_i t) times sin or cos (w_j t) has
    |f''| <= (2/m)(w_i^2 + w_j^2) <= 4 w_max^2 / m."""
    t = start + (np.arange(N) + 0.5) * (T / N)
    wt = np.multiply.outer(t, schedule.frequencies)
    C = np.sqrt(2.0 / schedule.m) * np.stack([np.sin(wt), np.cos(wt)], axis=-1).reshape(N, -1)
    return (T / N) * (C.T @ C)


def sampled_alpha(schedule, T, samples=8):
    """Smallest gram eigenvalue over ``samples`` window starts evenly
    spread across one period (2 pi / min frequency when trigonometric,
    whose grams take the midpoint rule)."""
    if schedule.kind == "trigonometric":
        period, gram = 2 * np.pi / min(schedule.frequencies), midpoint_gram_ct
    else:
        period, gram = schedule.period_steps * schedule.dwell, interval_gram_ct
    return min(float(np.linalg.eigvalsh(gram(schedule, j * period / samples, T))[0])
               for j in range(samples))


def stepwise_gram_dt(schedule, start, K):
    """sum_{j<K} C[start+j] C[start+j]^T, one eval_dt call per step."""
    return sum(np.outer(C, C) for C in (eval_dt(schedule, start + j) for j in range(K)))
