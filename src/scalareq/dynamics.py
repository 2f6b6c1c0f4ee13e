"""Steppers and trace recording for the continuous and discrete solvers:

- continuous solver                dx_i/dt = sum_j a_ij C (y_j - y_i) - s H_i (H_i^T x_i - b_i)
- discrete solver                  x[k+1] = x[k] - h (L (x) C C^T) x[k] - s (H x[k] - B)

Node i transmits only the scalar y_i = C^T x_i in scalarized mode; the
baseline compressors transmit full (compressed) m-vectors instead.

Every solver step and certificate applies one consensus operator,
(L (x) C C^T) x: node i sends y_i = C^T x_i and the receiver unfolds the
weighted sum along C. A baseline-compressor step exchanges the
compressed states instead, L Q(X), with Q applied to every node's row of
the stacked state X at once. ``run_simulation`` advances a run in blocks
of B steps, each block handed over as the errors E = X - 1 (x) v*, and
does its bookkeeping (error norms, divergence guard, stopping step,
trace rows) once per block, as array operations: row norms from einsum,
the node average as two skinny products. The guard needs exact state
norms only for a block whose bound ||x|| <= n err + ||1 (x) v*|| reaches
half of DIVERGENCE_GUARD. A run steps with its graph's Laplacian, and
RunConfig.validate, which checks every input of a run, reads lambda_n
only for the dt step size. Compression vectors come from eval_dt or
eval_ct: one call per block, at all of its steps and RK4 stages, or one
per run for the period of cached maps. Every dense map [A; w] maps a row
state z to [z, 1] @ [A; w] = z A + w.

``_stepper`` fills each block by one of four paths, and its docstring
alone says which runs take which:
- lifted: two lifts of a periodic run's error maps (``_period_maps``),
  held with the block starts [e, 1] in one array, give a block in two
  products: the outer lift the errors at k, k + L, ..., k + (q - 1) L,
  the inner lift the B = L q errors of the block from those starts;
- mapped: the same maps step the errors one at a time;
- trig-maps: a scalarized trigonometric run steps its exact states
  through dense per-step maps D_k = D0 - h (L (x) C_k C_k^T), built a
  chunk at a time by one product of the chunk's C_k C_k^T coefficients
  with a table read off the exchange on the identity basis
  (``_trig_steps``);
- structured: the exact states step through the one solver field
  ``_drift``, with h L and s H bound once per run, each step of the
  whole state written straight into its row of the block.
A trace's meta names the path (``path``) and B (``block``). The
node-by-node step, the right-hand sides and the RK4 integrator that the
tests compare against live in tests/oracles.py.
"""

from dataclasses import dataclass, field

import numpy as np

from .compression import Compressor, _clocks, account, eval_ct, eval_dt
from .errors import SimulationDiverged

DIVERGENCE_GUARD = 1e12
# Largest n m whose periodic runs step through cached dense one-step
# maps rather than the structured operator. Per step of 2000-step runs,
# best of 7 in 6 rounds (2-vCPU x86 host, one BLAS thread, cycle, m = 5,
# cyclic basis, dt s = 0.02, ct s = 0.5, dt_int 1e-3), the maps one step
# at a time against structured at n m = 200 / 255: dt 10.7 / 24.6 against
# 12.1 / 13.0 us, crossing near 210; ct 11.2 / 23.5 against 52 / 52 us.
# Between the two crossovers one constant slows one mode by up to 2x.
DENSE_MAX_DIM = 256
# A block holds at most BLOCK_ELEMENTS state entries (B n m) and at most
# MAX_BLOCK steps, since a run computes up to B - 1 states past its
# stopping step and longer blocks no longer cut the bookkeeping per step.
# Lifted runs take B = L q (see _block_shape).
BLOCK_ELEMENTS = 8192
MAX_BLOCK = 256
# Largest size of the lifted maps of one run, in bytes: the inner lift of
# L steps and the outer lift of q - 1 repeats hold L + q - 1 maps of
# (n m)^2 floats, their offset rows on top. On the reference network
# (n m = 50) larger lifts raise the peak memory of a run by over 1 MiB.
LIFT_BYTES = 1 << 20
# Largest n m whose scalarized trigonometric runs step through dense
# per-step maps (see _trig_steps) rather than the structured operator.
# A map costs (m (m + 1) / 2 + 1) (n m)^2 multiply-adds to build, against
# a structured step whose cost at these sizes is mostly fixed per-call
# overhead. Measured per step, map against structured (2-vCPU x86 host,
# one BLAS thread, 600-step runs with their set-up, best of 7
# alternating): m = 4, dt 14.4 / 23.5 us and ct 46 / 96 us at n m = 64,
# dt 36.5 / 22.7 and ct 107 / 95 us at 96 (crossing near 85 and 95);
# m = 6, dt 14.4 / 14.6 us at 60 and 18.1 / 15.5 at 66, ct 49 / 71 at 66
# and 84 / 74 at 72. The constant sits at the m = 6 dt crossover. The
# table and buffers of a run count against LIFT_BYTES (see _trig_chunk).
TRIG_MAP_MAX_DIM = 64
# Most steps whose maps such a run builds per chunk. Per-step time is flat
# from 16: at n = 10, m = 4 (same host) dt 5.4 / 4.9 / 5.1 us and ct 22.0 /
# 21.6 / 20.5 us at 16 / 34 / 70 steps, against 10.0 and 24.2 us at 8.
TRIG_CHUNK_STEPS = 16


def _check_stepsize(h, lambda_n):
    """Refuse a discrete step size outside 0 < h < 2 / lambda_n, nan included."""
    if not 0.0 < h < 2.0 / lambda_n:
        raise ValueError(f"need 0 < h < 2/lambda_n = {2.0 / lambda_n:.6g}, got {h}")


@dataclass
class RunConfig:
    """Configuration of one simulation run.

    horizon is a maximum step count for discrete runs, a whole number,
    and a maximum time for continuous runs. tol is the accuracy target on
    the error metric ||x - 1 (x) v*|| / n. record_every, a whole number,
    thins trace rows (the hitting row is always recorded).
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

    def validate(self, inst, schedule, mode):
        """Check every input of a run of inst under schedule in mode, each so
        that nan fails it; lambda_n is read only for h < 2 / lambda_n in dt."""
        if schedule.m != inst.m:
            raise ValueError(f"schedule has m={schedule.m} but the instance has m={inst.m}")
        if not (self.tol > 0 and self.dt_int > 0 and 0 < self.horizon < np.inf):
            raise ValueError("tol, dt_int and horizon must be positive, and horizon finite")
        if not self.s >= 0:
            raise ValueError(f"need s >= 0, got {self.s}")
        if not self.record_every >= 1:
            raise ValueError("record_every must be >= 1")
        _clocks(self.record_every, "record_every", whole=True)
        if mode == "dt":
            _clocks(self.horizon, "horizon", whole=True)
            if not self.h > 0:
                raise ValueError(f"need h > 0, got {self.h}")
            if inst.graph.edges:
                _check_stepsize(self.h, inst.spectrum.lambda_n)
        elif mode == "ct":
            if self.compressor.kind not in ("scalarized", "none"):
                raise ValueError(
                    "continuous runs support the scalarized or none compressors only"
                )
            if schedule.rows is not None and self.compressor.kind == "scalarized":
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


def _first_disorder(clock, scalars, bits):
    """(k, what is wrong) of the first row k of a trace whose clock is not
    above row k - 1's or whose counters fall below it, or None."""
    rises = np.diff(clock) > 0
    bad = np.flatnonzero(~rises | (np.diff(scalars) < 0) | (np.diff(bits) < 0))
    if bad.size:
        k = int(bad[0])
        return k + 1, ("trace clocks must be strictly increasing" if not rises[k]
                       else "cumulative counters must be nondecreasing")


TRACE_COLUMNS = dict(clock=float, err=float, disagreement=float,
                     scalars_tx_cum=int, bits_tx_cum=int)


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
        for name, kind in TRACE_COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), np.int64 if kind is int else kind))
        bad = _first_disorder(self.clock, self.scalars_tx_cum, self.bits_tx_cum)
        if bad:
            raise ValueError(bad[1])

    def __len__(self):
        return len(self.clock)


def _exchange(L, X, C):
    """(L (x) C C^T) x on stacked states X of shape (..., n, m).

    Node i sends the scalar y_i = C^T x_i and unfolds what it receives
    along C; C = None is the full-vector exchange (L (x) I) x. Leading
    batch axes of X are carried through, and those of C, shape (..., m),
    broadcast against them.
    """
    if C is None:
        return L @ X
    return (L @ (X @ C[..., None])) * C[..., None, :]


def _drift(hL, sH, H, b, C, X, out=None):
    """-(hL (x) C C^T) x - (H_i^T x_i - b_i) sH_i on stacked states X, with
    the scalings hL = h L and sH = s H bound once by the caller.

    h = 1 gives the continuous solver field, and the step size h the
    discrete solver increment; b = 0 gives the linear part alone. The
    drift is written into out when given, which must not overlap X.
    """
    r = np.einsum("...ij,ij->...i", X, H) - b
    out = np.multiply(r[..., None], sH, out=out)
    out += _exchange(hL, X, C)
    return np.negative(out, out=out)


def _phase(schedule, cfg, mode):
    """(rows, stride) of a periodic linear run, whose step k applies the
    compression rows[(k // stride) % len(rows)]: [None], the full
    exchange, without compression, and C[0 .. period - 1] for scalarized
    cyclic-basis and table runs; stride is 1 in dt and the steps per
    dwell in ct. None for trigonometric and baseline-compressor runs."""
    if cfg.compressor.kind == "none":
        return [None], 1
    if schedule.rows is None or cfg.compressor.kind != "scalarized":
        return None
    return (eval_dt(schedule, np.arange(schedule.period_steps)),
            1 if mode == "dt" else round(schedule.dwell / cfg.dt_int))


def _compression(schedule, cfg, mode):
    """C_of(k, count): the compression of steps k .. k + count - 1, one
    entry per step, from one evaluator call: the row C[k] in dt, and in
    ct the (3, m) stack of the rows that the RK4 stages at t, t + dt/2 and
    t + dt apply (for a period table the row of the step's dwell index
    thrice: it switches on step boundaries, where a midpoint-frozen step
    integrates each smooth piece at full order). None without
    scalarization."""
    if cfg.compressor.kind != "scalarized":
        return lambda k, count: [None] * count
    if mode == "dt":
        return lambda k, count: eval_dt(schedule, np.arange(k, k + count))
    if schedule.rows is None:
        dt = cfg.dt_int
        return lambda k, count: eval_ct(schedule, (np.arange(k, k + count) * dt)[:, None]
                                        + [0.0, 0.5 * dt, dt])
    stride = _phase(schedule, cfg, mode)[1]
    return lambda k, count: np.repeat(
        eval_dt(schedule, np.arange(k, k + count) // stride)[:, None], 3, axis=1)


def _advance(L, H, cfg, mode, rng=None):
    """advance(C, X, b, out=None): one solver step of the stacked states
    X, which may carry leading batch axes, written into out when given:
    discrete step, or RK4 step of length dt_int, with C the step's entry
    of ``_compression``. h L and s H are bound once here. A baseline
    compressor Q steps X - h L Q(X) - s r H, its noise drawn from rng."""
    h, s, dt = cfg.h, cfg.s, cfg.dt_int
    if cfg.compressor.kind in Compressor.BASELINES:
        Q = cfg.compressor.apply
        # this order of evaluation fixes the last bits of baseline traces
        return lambda C, X, b, out=None: np.subtract(
            X - h * _exchange(L, Q(X, rng), None),
            s * ((X * H).sum(axis=-1) - b)[..., None] * H, out=out)
    sH = s * H
    if mode == "dt":
        hL = h * L

        def advance(C, X, b, out=None):
            out = _drift(hL, sH, H, b, C, X, out)
            out += X
            return out
        return advance

    def advance(C, X, b, out=None):
        C1, C2, C4 = (None, None, None) if C is None else C
        k1 = _drift(L, sH, H, b, C1, X)
        k2 = _drift(L, sH, H, b, C2, X + 0.5 * dt * k1)
        k3 = _drift(L, sH, H, b, C2, X + 0.5 * dt * k2)
        k4 = _drift(L, sH, H, b, C4, X + dt * k3)
        return np.add(X, (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=out)
    return advance


def _period_maps(inst, rows, cfg, mode, origin):
    """The (P, d + 1, d) error maps [A_r; w_r], d = n m, of a periodic
    linear run whose P compression rows are rows (see ``_phase``): the
    steps of row r take z = x - origin to [z, 1] @ [A_r; w_r]. Built at
    any d; ``_stepper`` decides which runs step through them. All rows'
    steps x -> x A + g are read off one drift on the identity basis (D)
    and one at 0: x + drift(x) in dt; in ct RK4 on the frozen field, the
    Taylor polynomial x P(Z) + dt g Q(Z) of exp(dt D), Z = dt D, in Horner
    form, Q(Z) = I + Z/2 + Z^2/6 + Z^3/24 and P(Z) = I + Z Q(Z) (three
    products where RK4 takes four drifts). w = origin A + g - origin."""
    H = inst.H
    d = H.size
    P, C = len(rows), None if rows[0] is None else rows
    basis = np.broadcast_to(np.eye(d).reshape(d, *H.shape), (P, d) + H.shape)
    hL, sH, eye = (cfg.h if mode == "dt" else 1.0) * inst.graph.laplacian, cfg.s * H, np.eye(d)
    D = _drift(hL, sH, H, 0.0, None if C is None else C[:, None], basis).reshape(P, d, d)
    g = _drift(hL, sH, H, inst.b, C, np.zeros((P,) + H.shape)).reshape(P, 1, d)
    if mode == "ct":
        Z = cfg.dt_int * D
        Q = eye + Z / 4.0
        for j in (3.0, 2.0):
            Q = eye + (Z / j) @ Q
        D, g = Z @ Q, cfg.dt_int * (g @ Q)
    maps = np.empty((P, d + 1, d))
    np.add(eye, D, out=maps[:, :d])
    maps[:, d] = origin @ maps[:, :d] + g[:, 0] - origin
    return maps


def _lift(maps, stride, out):
    """Write into out, a (d + 1, B d) array, the lift of B steps of a
    periodic affine run whose step i maps the row state z to [z, 1] @
    maps[(i // stride) % len(maps)]: [z, 1] @ out[:, j d:(j+1) d] is the
    state j + 1 steps after z, for j < B, when z sits at a multiple of the
    period len(maps) stride. Each step is one product of the block before
    it with the step's A, the step's offset row w added to its last row."""
    d = maps.shape[2]
    out[:, :d] = maps[0]
    for j in range(1, out.shape[1] // d):
        M = maps[(j // stride) % len(maps)]
        np.matmul(out[:, (j - 1) * d:j * d], M[:d], out=out[:, j * d:(j + 1) * d])
        out[d, j * d:(j + 1) * d] += M[d]


def _block_shape(period, B, d):
    """(L, q) of a two-level lifted block of at most B steps, or None
    when it would serve fewer than two starts, which the one-step maps
    outpace: an inner lift over L steps, the multiple of the period
    nearest sqrt(B), and an outer lift of the L-step map over q - 1
    repeats. The two lifts hold L + q - 1 maps, fewest near L = sqrt(B);
    L and q shrink until those fit in LIFT_BYTES."""
    fits = LIFT_BYTES // (8 * d * d)
    L = period * max(1, min(round(np.sqrt(B) / period), fits // period))
    q = min(B // L, fits - L + 1)
    return (L, q) if q >= 2 else None


def _apply_maps(z, maps, out):
    """Step the row state z through the maps [A; w] in turn, each state
    z A + w into the next row of out; returns the last state. The product
    is np.dot, whose 1-D by 2-D call costs about half that of @ at these
    sizes (2.4 against 4.2 us at 40 x 40)."""
    for j, M in enumerate(maps):
        z = out[j] = np.dot(z, M[:-1]) + M[-1]
    return z


def _trig_chunk(d, m, mode, B):
    """Steps per chunk of the dense per-step maps of a scalarized
    trigonometric run of n m = d, at most TRIG_CHUNK_STEPS, or None when
    the run applies the structured operator instead: d above
    TRIG_MAP_MAX_DIM, or the table and the buffers of one step do not
    fit in LIFT_BYTES. The run holds a table of r = m (m + 1) / 2 + 1
    maps, g and the r - 1 index pairs of the table rows, and per map of a
    chunk one buffer [D; g] of (d + 1) d floats and r coefficients; a
    chunk of c steps holds c maps in dt and 2 c + 1 in ct (_trig_steps)."""
    if d > TRIG_MAP_MAX_DIM:
        return None
    rows = m * (m + 1) // 2 + 1
    maps = (LIFT_BYTES // 8 - rows * d * d - d - 2 * rows) // (d * d + d + rows)
    steps = maps if mode == "dt" else (maps - 1) // 2
    return min(steps, TRIG_CHUNK_STEPS, B) if steps >= 1 else None


def _half_steps(k, count, dt):
    """Clocks j dt / 2, j = 2 k, ..., 2 (k + count), of the RK4 stages of
    steps k .. k + count - 1: step i's stages sit at rows 2 (i - k),
    2 (i - k) + 1 and 2 (i - k) + 2. Even rows equal i dt exactly; odd
    ones are within one rounding of i dt + dt / 2."""
    return np.arange(2 * k, 2 * (k + count) + 1) * (0.5 * dt)


def _trig_steps(L, inst, schedule, cfg, mode, chunk):
    """steps(k, x, out) of a scalarized trigonometric run through dense
    per-step maps: the exact row states at steps k + 1, ..., k + len(out)
    into out, given the state x at step k; returns the last one.

    The drift of a step with compression C is x @ D(C) + g, where
    D(C) = D0 - h (L (x) C C^T) is linear in the upper triangle of C C^T
    (h = 1 in ct). The table holds D0 and, for each pair a <= b, the
    exchange map of E_ab + E_ba, read off _exchange on the identity
    basis: with C = e_a for a = b, and for a < b by polarization,
    exchange(e_a + e_b) - exchange(e_a) - exchange(e_b), exact since
    every entry is 0 or an entry of L. A chunk's maps are one product of
    its coefficient rows (1, C_a C_b for a <= b) with the table, into
    buffers allocated once.
    A dt step is x @ (I + D(C[k])) + g. A ct step is RK4 with C at the
    stage times t, t + dt/2 and t + dt: four matrix-vector products by
    maps on the half-step grid j dt / 2, the map at t + dt shared with
    the next step, the table scaled by dt / 2."""
    H = inst.H
    n, m = H.shape
    d = n * m
    basis, zero, unit = np.eye(d).reshape(d, n, m), np.zeros((n, m)), np.eye(m)
    a, b = np.triu_indices(m)
    h = cfg.h if mode == "dt" else 1.0
    table = np.empty((len(a) + 1, d * d))
    hL, sH = h * L, cfg.s * H
    table[0] = _drift(hL, sH, H, 0.0, np.zeros(m), basis).reshape(-1)
    single = [_exchange(L, basis, e).reshape(-1) for e in unit]
    for p, (i, j) in enumerate(zip(a, b), start=1):
        table[p] = single[i] if i == j else (_exchange(L, basis, unit[i] + unit[j]).reshape(-1)
                                             - single[i] - single[j])
    table[1:] *= -h
    g = _drift(hL, sH, H, inst.b, np.zeros(m), zero).reshape(-1)
    if mode == "dt":
        table[0] += np.eye(d).reshape(-1)
    else:
        table *= 0.5 * cfg.dt_int
        g *= 0.5 * cfg.dt_int
    maps = chunk if mode == "dt" else 2 * chunk + 1
    coef, buf = np.empty((maps, len(a) + 1)), np.empty((maps, d + 1, d))
    coef[:, 0], buf[:, d] = 1.0, g

    def build(C):
        """The maps [D; g] of the compression rows C, one per row, in the buffer."""
        np.multiply(C[:, a], C[:, b], out=coef[:len(C), 1:])
        np.matmul(coef[:len(C)], table, out=buf[:len(C), :d].reshape(len(C), -1))
        return buf[:len(C)]

    if mode == "dt":
        def steps(k, x, out):
            C = eval_dt(schedule, np.arange(k, k + len(out)))
            for j in range(0, len(out), chunk):
                c = min(chunk, len(out) - j)
                x = _apply_maps(x, build(C[j:j + c]), out[j:j + c])
            return x
        return steps

    def steps(k, x, out):
        # a_i = (dt / 2) k_i of the RK4 stages
        C = eval_ct(schedule, _half_steps(k, len(out), cfg.dt_int))
        for j in range(0, len(out), chunk):
            c = min(chunk, len(out) - j)
            D = build(C[2 * j:2 * (j + c) + 1])[:, :d]
            for i in range(c):
                a1 = np.dot(x, D[2 * i]) + g
                a2 = np.dot(x + a1, D[2 * i + 1]) + g
                a3 = np.dot(x + a2, D[2 * i + 1]) + g
                a4 = np.dot(x + 2.0 * a3, D[2 * i + 2]) + g
                x = out[j + i] = x + (a1 + 2.0 * (a2 + a3) + a4) / 3.0
        return x
    return steps


def _stepper(inst, schedule, cfg, mode, rng, last, origin=None):
    """(B, fill) for one run of at most last steps: fill(k, z, count) returns the
    states at steps k + 1, ..., k + count (k a multiple of B, count <= B) less
    origin (default 0), as a (count, n m) array, given z, the state at step k
    less origin. run_simulation passes origin = 1 (x) v*, so that fill maps
    errors to errors. fill.path names its path.

    Periodic linear runs with n m <= DENSE_MAX_DIM whose period of maps is no
    larger than the largest cyclic-basis run's (8 MiB) step through the maps
    [A; w] of ``_period_maps``; these gates are held here alone. When two
    lifts of those maps serve q >= 2 block starts (``_block_shape``), a block
    of B = L q steps is filled from them, held with the starts [z, 1] in one
    array per run ("lifted"); otherwise the block is filled step by step
    through the maps ("mapped"). Scalarized trigonometric runs with n m <=
    TRIG_MAP_MAX_DIM whose table and buffers fit in LIFT_BYTES (see
    ``_trig_chunk``) step their exact states through dense per-step maps
    (``_trig_steps``, "trig-maps"); every other run (baseline compressors,
    larger trigonometric runs, longer tables, n m > DENSE_MAX_DIM) steps them
    by the whole-state advance ("structured"). Both subtract origin from the
    block; a call that continues the block returned last starts from its exact
    last state, so z + origin is formed only at a run's first block.
    """
    n, m = inst.H.shape
    d = n * m
    B = max(1, min(MAX_BLOCK, BLOCK_ELEMENTS // d, last))
    origin = np.zeros(d) if origin is None else origin
    phase = _phase(schedule, cfg, mode)
    if phase is not None and d <= DENSE_MAX_DIM and len(phase[0]) * d * d <= DENSE_MAX_DIM**2.5:
        rows, stride = phase
        maps = _period_maps(inst, rows, cfg, mode, origin)
        shape = _block_shape(len(maps) * stride, B, d)
        if shape is not None:
            L, q = shape
            lifts = np.empty((d + 1, (L + q - 1) * d + q))
            T, U, starts = lifts[:, :L * d], lifts[:, L * d:-q], lifts[:, -q:].T
            starts[:, d] = 1.0
            with np.errstate(over="ignore", invalid="ignore"):  # an unstable run's maps
                _lift(maps, stride, T)
                _lift(T[None, :, -d:], 1, U)

            def lifted(k, z, count):
                p = -(-count // L)
                starts[0, :d] = z
                starts[1:p, :d] = (starts[0] @ U[:, :(p - 1) * d]).reshape(-1, d)
                return (starts[:p] @ T).reshape(-1, d)[:count]
            lifted.path = "lifted"
            return L * q, lifted

        def mapped(k, z, count):
            out = np.empty((count, d))
            _apply_maps(z, (maps[((k + j) // stride) % len(maps)] for j in range(count)), out)
            return out
        mapped.path = "mapped"
        return B, mapped

    lap = inst.graph.laplacian
    chunk = None
    if schedule.rows is None and cfg.compressor.kind == "scalarized":
        chunk = _trig_chunk(d, m, mode, B)
    if chunk is not None:
        steps = _trig_steps(lap, inst, schedule, cfg, mode, chunk)
    else:
        advance, C_of = _advance(lap, inst.H, cfg, mode, rng), _compression(schedule, cfg, mode)

        def steps(k, x, out):
            # each step straight into its block row; the last state is
            # copied, since fill shifts the block by origin
            x, rows = x.reshape(n, m), out.reshape(len(out), n, m)
            for j, C in enumerate(C_of(k, len(out))):
                x = advance(C, x, inst.b, rows[j])
            return x.copy()
    end = [None, None]  # step and exact state of the last row returned

    def fill(k, z, count):
        x = end[1] if k == end[0] else z + origin
        out = np.empty((count, d))
        end[:] = k + count, steps(k, x, out)
        out -= origin
        return out
    fill.path = "structured" if chunk is None else "trig-maps"
    return B, fill


def run_simulation(inst, schedule, cfg, mode):
    """Run one simulation to tolerance or horizon and record its Trace.

    The error metric is ||x - 1 (x) v*|| / n against the instance's
    planted solution; the run converges at the first clock where it
    drops to cfg.tol, and raises SimulationDiverged at the first step
    whose state norm is not finite or exceeds DIVERGENCE_GUARD.
    Communication counters follow compression.account, with one exchange
    round per discrete step (dt) or per integrator step (ct).

    The run advances in blocks of B steps (see ``_stepper``) up to its last
    step: step horizon in dt, in ct the first integrator step at or past
    the horizon (horizon 0.0105 at dt_int 1e-3 ends at t = 0.011). It
    steps in error coordinates: each block is the errors
    E = X - 1 (x) v* of its states. It evaluates each block's error
    norms (one norm pass over E), guard, stopping step and every
    record_every-th trace row (the disagreement of E, which is that of
    X) as array operations. Since ||x|| <= n err + ||1 (x) v*||, the guard
    computes the state norms ||E + 1 (x) v*|| only for a block where that
    bound reaches half of DIVERGENCE_GUARD, or is not finite; the reported
    clock and norm are those of the first state beyond the guard. States
    computed past the stopping step are discarded, and floating-point
    overflow in them is not reported.
    """
    n, m = inst.H.shape
    cfg.validate(inst, schedule, mode)

    if cfg.x0 is not None:
        x = np.array(cfg.x0, dtype=float).reshape(n * m)
    else:
        x = np.random.default_rng([cfg.seed, 1]).standard_normal(n * m)
    unbiased = cfg.compressor.kind == "unbiased"  # the only compressor that draws noise
    noise_rng = np.random.default_rng([cfg.seed, 2]) if unbiased else None

    ref = np.tile(np.asarray(inst.v_star, dtype=float), n)
    links = 2 * len(inst.graph.edges)
    msg_scalars, msg_bits = account(cfg.compressor, m)
    if mode == "dt":
        last, unit = int(cfg.horizon), 1
    else:
        last, unit = int(np.ceil(cfg.horizon / cfg.dt_int - 1e-9)), cfg.dt_int

    rows = []  # (steps, err, disagreement) of the recorded rows, block by block
    # row norms and the node average by products, not strided reductions
    norms = lambda D: np.sqrt(np.einsum("ij,ij->i", D, D))
    average = np.tile(np.eye(m) / n, (n, 1))  # (n m, m)
    spread = np.tile(np.eye(m), (1, n))  # (m, n m): the average at every node
    ref_norm = float(np.linalg.norm(ref))

    def record(ks, err, E):
        # 1 (x) v* has no disagreement, so the errors' disagreement is the states'
        rows.append((ks, err, norms(E - (E @ average) @ spread)))

    def finish(converged, hit_clock, last_err):
        ks, errs, diss = (np.concatenate(col) for col in zip(*rows))
        return Trace(
            clock=ks * unit, err=errs, disagreement=diss,
            scalars_tx_cum=ks * (links * msg_scalars), bits_tx_cum=ks * (links * msg_bits),
            converged=converged, hit_clock=hit_clock, final_err=last_err,
            meta={
                "mode": mode, "h": cfg.h, "s": cfg.s, "dt_int": cfg.dt_int,
                "tol": cfg.tol, "horizon": cfg.horizon, "seed": cfg.seed,
                "compressor": cfg.compressor.label, "schedule": schedule.kind,
                "record_every": cfg.record_every, "path": fill.path, "block": B,
            },
        )

    B, fill = _stepper(inst, schedule, cfg, mode, noise_rng, last, origin=ref)
    # states past the stopping step may overflow; they are discarded
    with np.errstate(over="ignore", invalid="ignore"):
        k, E = 0, (x - ref)[None]  # E holds the errors x - 1 (x) v* at steps k, k + 1, ...
        while True:
            ks = np.arange(k, k + len(E))
            err = norms(E) / n
            stop, bad = err <= cfg.tol, None
            # ||x|| <= n err + ||1 (x) v*||: below half the guard no state of
            # the block can fail it; otherwise (NaN and inf too) take the
            # exact norms. The initial state, alone in the first block, is
            # not guarded; NaN fails the guard
            if not n * err.max() + ref_norm < DIVERGENCE_GUARD / 2:
                nrm = norms(E + ref)
                bad = ~(nrm <= DIVERGENCE_GUARD) & (k > 0)
                stop |= bad
            stops = np.flatnonzero(stop)
            end = stops[0] if stops.size else last - k  # no block passes the horizon
            keep = slice(int(-k % cfg.record_every), end, int(cfg.record_every))
            if end < len(E):
                break
            record(ks[keep], err[keep], E[keep])
            k = int(ks[-1])
            E = fill(k, E[-1], min(B, last - k))
            k += 1

    rounds = int(ks[end])
    clock = rounds * unit
    if bad is not None and bad[end]:
        at = f"step {clock}" if mode == "dt" else f"t={clock:.6g}"
        raise SimulationDiverged(f"state norm {nrm[end]:.3e} beyond guard at {at}",
                                 clock=clock, norm=float(nrm[end]),
                                 scalars=rounds * links * msg_scalars,
                                 bits=rounds * links * msg_bits)
    keep = np.append(np.arange(len(E))[keep], end)
    record(ks[keep], err[keep], E[keep])
    converged = bool(err[end] <= cfg.tol)
    return finish(converged, clock if converged else None, float(err[end]))
