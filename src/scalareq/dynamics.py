"""Right-hand sides, steppers, and trace recording for the three dynamics:

- compressed consensus flow        dx/dt = -(L (x) C C^T) x
- continuous solver                dx_i/dt = sum_j a_ij C (y_j - y_i) - s H_i (H_i^T x_i - b_i)
- discrete solver                  x[k+1] = x[k] - h (L (x) C C^T) x[k] - s (H x[k] - B)

Node i transmits only the scalar y_i = C^T x_i in scalarized mode; the
baseline compressors transmit full (compressed) m-vectors instead.

Every solver step, flow and certificate applies one consensus operator,
(L (x) C C^T) x: node i sends y_i = C^T x_i and the receiver unfolds the
weighted sum along C. Scalarized and uncompressed runs step with it
directly; periodic runs of small networks (n m <= DENSE_MAX_DIM) cache
the affine one-step maps of a schedule period, read off the same step
applied to the identity basis. The node-by-node ``solver_dt_step`` is
the reference for the one-scalar-per-neighbor update and steps the
baseline compressors.
"""

from dataclasses import dataclass, field

import numpy as np

from .compression import Compressor, eval_ct, eval_dt
from .errors import SimulationDiverged

DIVERGENCE_GUARD = 1e12
# Largest n m whose periodic runs step through cached dense one-step
# maps rather than applying the structured operator. Measured per step
# on a 2-vCPU x86 host with one BLAS thread (cycle graph, cyclic-basis
# schedule): dt dense 6.7 / 14.1 / 26 us against structured 10.9 / 11.7 /
# 12.0 us at n m = 200 / 250 / 300. The four-stage ct step crosses later
# (dense 46 vs structured 67 us at n m = 500, 97 vs 60 us at 600), since
# its maps stay cache-resident for a whole dwell. The constant sits at
# the dt crossover, where one period of maps still takes a few MB.
DENSE_MAX_DIM = 256


@dataclass
class RunConfig:
    """Configuration of one simulation run.

    horizon is a maximum step count for discrete runs and a maximum time
    for continuous runs. tol is the accuracy target on the error metric
    ||x - 1 (x) v*|| / n. record_every thins trace rows (the hitting row
    is always recorded).
    """

    h: float = 0.2
    s: float = 0.02
    dt_int: float = 1e-3
    horizon: float = 10_000
    tol: float = 1e-2
    compressor: Compressor = field(default_factory=lambda: Compressor("scalarized"))
    seed: int = 0
    x0: np.ndarray | None = None
    record_every: int = 1

    def validate(self, schedule, mode, lambda_n=None):
        if self.tol <= 0 or self.dt_int <= 0 or self.horizon <= 0:
            raise ValueError("tol, dt_int and horizon must be positive")
        if self.s < 0:
            raise ValueError(f"need s >= 0, got {self.s}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.compressor.kind == "scalarized" and schedule.kind == "identity":
            raise ValueError("scalarized compression needs a unit-vector schedule")
        if mode == "dt":
            if self.h <= 0:
                raise ValueError(f"need h > 0, got {self.h}")
            if lambda_n is not None and self.h * lambda_n >= 2.0:
                raise ValueError(
                    f"stepsize h={self.h} violates h < 2/lambda_n = {2.0 / lambda_n:.6g}"
                )
        elif mode == "ct":
            if self.compressor.kind not in ("scalarized", "none"):
                raise ValueError(
                    "continuous runs support the scalarized or none compressors only"
                )
            if schedule.kind in ("cyclic-basis", "table") and self.compressor.kind == "scalarized":
                if schedule.dwell is None:
                    raise ValueError("continuous runs need a schedule dwell")
                ratio = schedule.dwell / self.dt_int
                if abs(ratio - round(ratio)) > 1e-9 * max(ratio, 1.0) or round(ratio) < 1:
                    raise ValueError(
                        f"dt_int={self.dt_int} must subdivide the schedule dwell "
                        f"{schedule.dwell}"
                    )
        else:
            raise ValueError(f"mode must be 'ct' or 'dt', got {mode!r}")


@dataclass
class Trace:
    """Per-step records of one run plus its outcome summary."""

    clock: np.ndarray
    err: np.ndarray
    disagreement: np.ndarray
    scalars_tx_cum: np.ndarray
    bits_tx_cum: np.ndarray
    converged: bool = False
    hit_clock: float | None = None
    final_err: float = np.nan
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("clock", "err", "disagreement"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("scalars_tx_cum", "bits_tx_cum"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if len(self.clock) > 1:
            if not np.all(np.diff(self.clock) > 0):
                raise ValueError("trace clocks must be strictly increasing")
            if np.any(np.diff(self.scalars_tx_cum) < 0) or np.any(np.diff(self.bits_tx_cum) < 0):
                raise ValueError("cumulative counters must be nondecreasing")

    def __len__(self):
        return len(self.clock)


@dataclass
class Trajectory:
    """Raw integrator output: states sampled every dt_int."""

    times: np.ndarray
    states: np.ndarray


def _exchange(L, X, C):
    """(L (x) C C^T) x on stacked states X of shape (..., n, m).

    Node i sends the scalar y_i = C^T x_i and unfolds what it receives
    along C; C = None is the full-vector exchange (L (x) I) x. Leading
    batch axes of X are carried through.
    """
    if C is None:
        return L @ X
    return (L @ (X @ C)[..., None]) * C


def _drift(L, H, b, C, h, s, X):
    """-h (L (x) C C^T) x - s (H_i^T x_i - b_i) H_i on stacked states X.

    h = 1 is the continuous solver field and h * field the discrete
    solver increment; b = 0 gives the linear part alone.
    """
    r = (X * H).sum(axis=-1) - b
    return -h * _exchange(L, X, C) - s * r[..., None] * H


def _laplacian(inst):
    return inst.spectrum.L if inst.n >= 2 else inst.graph.laplacian()


def consensus_rhs(L, schedule, t, x):
    """Compressed consensus flow -(L (x) C(t) C(t)^T) x.

    Each node needs only the scalars y_j = C^T x_j from its neighbors.
    An identity schedule degenerates to plain consensus -(L (x) I) x.
    """
    X = np.asarray(x, dtype=float).reshape(L.shape[0], -1)
    C = None if schedule.kind == "identity" else eval_ct(schedule, t)
    return -_exchange(L, X, C).reshape(-1)


def solver_ct_rhs(inst, schedule, s, t, x):
    """Continuous solver flow: compressed consensus plus the local
    projection -s H_i (H_i^T x_i - b_i). At s = 0 this is the consensus
    flow; at x = 1 (x) v* it vanishes identically."""
    X = np.asarray(x, dtype=float).reshape(inst.H.shape)
    C = None if schedule.kind == "identity" else eval_ct(schedule, t)
    return _drift(_laplacian(inst), inst.H, inst.b, C, 1.0, s, X).reshape(-1)


def _rk4_step(rhs, t, x, dt, freeze):
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
        x = _rk4_step(rhs, t0 + i * dt_int, x, dt_int, freeze)
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
    state vector for every transmitted state in the consensus term.
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
            for (j, w) in inst.graph.neighbors(i):
                acc += w * (y[j] - y[i])
            r_i = float(np.dot(H[i], X[i])) - b[i]
            Xn[i] = X[i] + (h * acc) * C - (s * r_i) * H[i]
        return Xn.reshape(-1)

    L = _laplacian(inst)
    r = (X * H).sum(axis=1) - b
    if compressor.kind == "none":
        Q = X
    elif compressor.kind == "uniform":
        Q = np.floor(X + 0.5)
    else:
        # per-node application keeps the noise stream identical to
        # sequential node-order draws
        Q = np.stack([compressor.apply(X[i], rng=rng) for i in range(n)])
    return (X - h * (L @ Q) - s * r[:, None] * H).reshape(-1)


def _advance(L, H, schedule, cfg, mode):
    """One solver step advance(k, X, b) of a scalarized or uncompressed
    run: discrete step k, or RK4 step k of length dt_int. X may carry
    leading batch axes."""
    def C_at(clock, evaluate):
        return None if cfg.compressor.kind == "none" else evaluate(schedule, clock)

    if mode == "dt":
        return lambda k, X, b: X + _drift(L, H, b, C_at(k, eval_dt), cfg.h, cfg.s, X)
    # piecewise-constant schedules switch on step boundaries, where a
    # midpoint-frozen step integrates each smooth piece at full order
    freeze = "stage" if schedule.kind == "trigonometric" else "midpoint"

    def advance(k, X, b):
        rhs = lambda t, Y: _drift(L, H, b, C_at(t, eval_ct), 1.0, cfg.s, Y)
        return _rk4_step(rhs, k * cfg.dt_int, X, cfg.dt_int, freeze)
    return advance


def _stepper(inst, schedule, cfg, mode, rng):
    """step(k, x) on flat stacked states for one run.

    Periodic linear runs with n m <= DENSE_MAX_DIM cache the affine
    maps x -> A x + w of one schedule period, read off advance applied
    to the identity basis (b = 0) and to the zero state; larger runs
    apply the structured operator every step. Baseline compressors step
    node by node.
    """
    n, m = inst.H.shape
    kind = cfg.compressor.kind
    if kind not in ("scalarized", "none"):
        return lambda k, x: solver_dt_step(inst, schedule, cfg.h, cfg.s, k, x,
                                           cfg.compressor, rng=rng)
    advance = _advance(_laplacian(inst), inst.H, schedule, cfg, mode)
    periodic = kind == "none" or schedule.kind in ("cyclic-basis", "table")
    if not periodic or n * m > DENSE_MAX_DIM:
        return lambda k, x: advance(k, x.reshape(n, m), inst.b).reshape(-1)
    count = 1 if kind == "none" else schedule.period_steps
    stride = 1 if kind == "none" or mode == "dt" else round(schedule.dwell / cfg.dt_int)
    d = n * m
    basis = np.eye(d).reshape(d, n, m)
    maps = [(np.ascontiguousarray(advance(j * stride, basis, 0.0).reshape(d, d).T),
             advance(j * stride, np.zeros((n, m)), inst.b).reshape(d))
            for j in range(count)]

    def step(k, x):
        A, w = maps[(k // stride) % count]
        return A @ x + w
    return step


def run_simulation(inst, schedule, cfg, mode):
    """Run one simulation to tolerance or horizon and record its Trace.

    The error metric is ||x - 1 (x) v*|| / n against the instance's
    planted solution; the run converges at the first clock where it
    drops to cfg.tol. Communication counters follow the harness
    accounting convention, with one exchange round per discrete step
    (dt) or per integrator step (ct).
    """
    from .harness import account  # accounting convention lives with the harness

    n, m = inst.H.shape
    lambda_n = inst.spectrum.lambda_n if n >= 2 else None
    cfg.validate(schedule, mode, lambda_n)

    if cfg.x0 is not None:
        x = np.array(cfg.x0, dtype=float).reshape(n * m)
    else:
        x = np.random.default_rng([cfg.seed, 1]).standard_normal(n * m)
    noise_rng = np.random.default_rng([cfg.seed, 2])

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
        return Trace(
            clock=clocks, err=errs, disagreement=diss,
            scalars_tx_cum=scals, bits_tx_cum=bits,
            converged=converged, hit_clock=hit_clock, final_err=last_err,
            meta={
                "mode": mode, "h": cfg.h, "s": cfg.s, "dt_int": cfg.dt_int,
                "tol": cfg.tol, "horizon": cfg.horizon, "seed": cfg.seed,
                "compressor": cfg.compressor.label, "schedule": schedule.kind,
                "record_every": cfg.record_every,
            },
        )

    step = _stepper(inst, schedule, cfg, mode, noise_rng)
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
            if not clocks or clocks[-1] != clock:
                record(clock, x, k, err)
            return finish(False, None, err)
        if k % cfg.record_every == 0:
            record(clock, x, k, err)
        x = step(k, x)
        k += 1
        nrm = float(np.linalg.norm(x))
        if not np.isfinite(nrm) or nrm > DIVERGENCE_GUARD:
            at = f"step {k}" if mode == "dt" else f"t={clock_at(k):.6g}"
            raise SimulationDiverged(f"state norm {nrm:.3e} beyond guard at {at}",
                                     clock=clock_at(k), norm=nrm)
