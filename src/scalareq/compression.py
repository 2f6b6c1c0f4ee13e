"""Compression-vector schedules, persistent-excitation checks, and compressors.

A schedule emits the unit compression vector C(t) (continuous clock) or
C[k] (step index). Persistent excitation (PE) means the windowed gram
of C C^T is bounded below by alpha * I; ``verify_pe_ct`` /
``verify_pe_dt`` certify this and return the witness (alpha, window).

The scalarized compressor transmits the single scalar C^T x and unfolds
it along C at the receiver. The three baseline compressors (unbiased
l-bit quantizer, top-k sparsifier, uniform quantizer) transmit full
m-vectors and exist for the communication comparison experiments.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import PEVerificationFailed
from .linalg import sym_eig

UNIT_NORM_TOL = 1e-12
PE_FLOOR = 1e-10

KINDS = ("cyclic-basis", "trigonometric", "identity", "table")


@dataclass(frozen=True)
class CompressionSchedule:
    """Rule generating the unit compression vector over time.

    kind:
        'cyclic-basis'  standard basis vectors in round-robin; continuous
                        clocks dwell for ``dwell`` seconds per vector.
        'trigonometric' interleaved (sin, cos) pairs at the given
                        frequencies, scaled to unit norm; m must equal
                        2 * len(frequencies).
        'identity'      sentinel for no compression (full-vector
                        exchange); has no unit vector to emit.
        'table'         explicit unit vectors, cycled; continuous clocks
                        dwell per row when ``dwell`` is set.
    """

    kind: str
    m: int
    dwell: float | None = None
    frequencies: tuple = field(default_factory=tuple)
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {KINDS}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got {self.m}")
        if self.dwell is not None and self.dwell <= 0:
            raise ValueError(f"need dwell > 0, got {self.dwell}")
        if self.kind == "trigonometric":
            if not self.frequencies:
                raise ValueError("trigonometric schedule needs at least one frequency")
            object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
            if any(f <= 0 for f in self.frequencies):
                raise ValueError("frequencies must be positive")
            if self.m != 2 * len(self.frequencies):
                raise ValueError(
                    f"trigonometric schedule needs m = 2 * len(frequencies); "
                    f"got m={self.m}, {len(self.frequencies)} frequencies"
                )
        if self.kind == "table":
            if self.table is None or len(self.table) == 0:
                raise ValueError("table schedule needs at least one stored vector")
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or tab.shape[1] != self.m:
                raise ValueError(f"table must have shape (*, {self.m}), got {tab.shape}")
            norms = np.linalg.norm(tab, axis=1)
            if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
                raise ValueError("table rows must be unit vectors to 1e-12")
            object.__setattr__(self, "table", tab)

    @property
    def period_steps(self):
        """Number of steps after which the discrete sequence repeats."""
        if self.kind == "cyclic-basis":
            return self.m
        if self.kind == "table":
            return len(self.table)
        return 1


def make_schedule(kind, m, dwell=None, frequencies=(), table=None):
    """Convenience constructor for :class:`CompressionSchedule`."""
    return CompressionSchedule(kind=kind, m=m, dwell=dwell,
                               frequencies=tuple(frequencies), table=table)


def _basis(m, i):
    e = np.zeros(m)
    e[i] = 1.0
    return e


def _interval_index(t, dwell):
    # nudge so clocks sitting a rounding error below a dwell boundary
    # land in the interval they denote
    return int(np.floor(t / dwell + 1e-9))


def eval_ct(schedule, t):
    """Compression vector C(t) at continuous time t >= 0 (unit norm)."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    if schedule.kind == "identity":
        raise ValueError("identity schedule emits no unit vector; callers branch on kind")
    if schedule.kind == "trigonometric":
        scale = np.sqrt(2.0 / schedule.m)
        C = np.empty(schedule.m)
        for i, w in enumerate(schedule.frequencies):
            C[2 * i] = scale * np.sin(w * t)
            C[2 * i + 1] = scale * np.cos(w * t)
        return C
    if schedule.dwell is None:
        raise ValueError(f"{schedule.kind} schedule needs a dwell for continuous clocks")
    idx = _interval_index(t, schedule.dwell)
    if schedule.kind == "cyclic-basis":
        return _basis(schedule.m, idx % schedule.m)
    return schedule.table[idx % len(schedule.table)].copy()


def eval_dt(schedule, k):
    """Compression vector C[k] at step k >= 0 (unit norm)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    k = int(k)
    if schedule.kind == "identity":
        raise ValueError("identity schedule emits no unit vector; callers branch on kind")
    if schedule.kind == "cyclic-basis":
        return _basis(schedule.m, k % schedule.m)
    if schedule.kind == "table":
        return schedule.table[k % len(schedule.table)].copy()
    # trigonometric: sample the continuous rule at step times
    step_time = schedule.dwell if schedule.dwell is not None else 1.0
    return eval_ct(schedule, k * step_time)


def pe_gram_dt(schedule, start, K):
    """Exact discrete window gram sum_{j=0}^{K-1} C[start+j] C[start+j]^T."""
    if K < 1:
        raise ValueError(f"need window K >= 1, got {K}")
    if schedule.kind == "identity":
        return K * np.eye(schedule.m)
    G = np.zeros((schedule.m, schedule.m))
    for j in range(int(K)):
        C = eval_dt(schedule, int(start) + j)
        G += np.outer(C, C)
    return G


def pe_gram_ct(schedule, start, T, quadrature_step=None):
    """Continuous window gram: integral of C C^T over [start, start+T].

    Piecewise-constant schedules (cyclic-basis, table) are integrated by
    exact interval sums, so the result is exact for any start. A
    quadrature step passed for those kinds must divide the dwell (it is
    then redundant). Trigonometric schedules use the midpoint rule.
    """
    if T <= 0:
        raise ValueError(f"need window T > 0, got {T}")
    if start < 0:
        raise ValueError(f"need start >= 0, got {start}")
    m = schedule.m
    if schedule.kind == "identity":
        return T * np.eye(m)
    if schedule.kind == "trigonometric":
        step = quadrature_step if quadrature_step is not None else T / 1000.0
        N = max(1, int(round(T / step)))
        # the rows of C are eval_ct at the N midpoints
        wt = np.multiply.outer(start + (np.arange(N) + 0.5) * (T / N), schedule.frequencies)
        C = np.empty((N, m))
        C[:, 0::2] = np.sin(wt)
        C[:, 1::2] = np.cos(wt)
        C *= np.sqrt(2.0 / m)
        return (T / N) * (C.T @ C)

    dwell = schedule.dwell
    if dwell is None:
        raise ValueError(f"{schedule.kind} schedule needs a dwell for continuous clocks")
    if quadrature_step is not None:
        ratio = dwell / quadrature_step
        if abs(ratio - round(ratio)) > 1e-9 * max(ratio, 1.0):
            raise ValueError(
                f"quadrature step {quadrature_step} does not align with dwell {dwell}"
            )
    G = np.zeros((m, m))
    end = start + T
    idx = _interval_index(start, dwell)
    t = start
    while t < end - 1e-12 * dwell:
        seg_end = min((idx + 1) * dwell, end)
        C = eval_ct(schedule, idx * dwell)
        G += (seg_end - t) * np.outer(C, C)
        t = seg_end
        idx += 1
    return G


@dataclass(frozen=True)
class PEWitness:
    """Certified excitation level over a window: gram >= alpha * I."""

    alpha: float
    window: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"witness needs alpha > 0, got {self.alpha}")
        # trace of the window gram equals the window length, so the
        # smallest eigenvalue can never exceed it
        if self.alpha > self.window + 1e-9:
            raise ValueError(f"alpha {self.alpha} exceeds window {self.window}")


def _verify(grams_by_start, window):
    worst_start, worst_lam, alpha = None, None, np.inf
    for start, G in grams_by_start:
        lam, _ = sym_eig(G)
        if lam[0] < alpha:
            alpha, worst_start, worst_lam = float(lam[0]), start, lam
    if alpha <= PE_FLOOR:
        raise PEVerificationFailed(
            f"schedule is not persistently exciting: min eigenvalue {alpha:.3e} "
            f"at start {worst_start}",
            start=worst_start,
            eigenvalues=worst_lam,
        )
    return PEWitness(alpha=alpha, window=window)


def verify_pe_ct(schedule, T, start_samples=8):
    """Certify continuous PE over windows of length T.

    Window starts are sampled across one schedule period (or across
    [0, T] when no period is defined); alpha is the worst smallest gram
    eigenvalue over the sampled starts.
    """
    if start_samples < 1:
        raise ValueError("need start_samples >= 1")
    if schedule.kind in ("cyclic-basis", "table") and schedule.dwell is not None:
        period = schedule.period_steps * schedule.dwell
    elif schedule.kind == "trigonometric":
        period = 2 * np.pi / min(schedule.frequencies)
    else:
        period = T
    starts = [j * period / start_samples for j in range(start_samples)]
    return _verify(((s, pe_gram_ct(schedule, s, T)) for s in starts), T)


def verify_pe_dt(schedule, K, start_samples=None):
    """Certify discrete PE over windows of K steps.

    Defaults to checking every start in one schedule period.
    """
    if start_samples is None:
        start_samples = schedule.period_steps
    if start_samples < 1:
        raise ValueError("need start_samples >= 1")
    return _verify(((k0, pe_gram_dt(schedule, k0, K)) for k0 in range(start_samples)), K)


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


def compress_unbiased(x, l, noise=None, rng=None):
    """Unbiased l-bit quantizer.

    Each entry is scaled to [0, 2^(l-1)] of the infinity norm and
    floored after adding uniform [0,1) dither, keeping the sign:

        out_i = (||x||_inf / 2^(l-1)) * sign(x_i) * floor(2^(l-1)|x_i| / ||x||_inf + w_i)

    The zero vector maps to zero. Pass ``noise`` explicitly for
    deterministic output, or ``rng`` to draw one uniform per entry.
    """
    x = np.asarray(x, dtype=float)
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    norm_inf = float(np.abs(x).max()) if x.size else 0.0
    if norm_inf == 0.0:
        return np.zeros_like(x)
    if noise is None:
        if rng is None:
            raise ValueError("provide explicit noise or an rng")
        noise = rng.uniform(size=x.shape)
    noise = np.asarray(noise, dtype=float)
    if noise.shape != x.shape or noise.min() < 0.0 or noise.max() >= 1.0:
        raise ValueError("noise must match x in shape with entries in [0, 1)")
    levels = 2.0 ** (l - 1)
    return (norm_inf / levels) * np.sign(x) * np.floor(levels * np.abs(x) / norm_inf + noise)


def compress_topk(x, k):
    """Keep the k largest-magnitude entries (ties: lowest index), zero the rest."""
    x = np.asarray(x, dtype=float)
    if not 1 <= k <= x.size:
        raise ValueError(f"need 1 <= k <= {x.size}, got {k}")
    order = np.argsort(-np.abs(x), kind="stable")
    out = np.zeros_like(x)
    out[order[:k]] = x[order[:k]]
    return out


def compress_uniform(x):
    """Uniform quantizer to the nearest integer lattice: floor(x + 1/2)."""
    return np.floor(np.asarray(x, dtype=float) + 0.5)


@dataclass(frozen=True)
class Compressor:
    """Per-run compressor selection for the discrete/continuous solvers.

    kind 'scalarized' and 'none' are structural (handled inside the
    steppers); the baseline kinds apply a pointwise map to each
    transmitted state vector.
    """

    kind: str
    l: int | None = None
    k: int | None = None

    BASELINES = ("unbiased", "topk", "uniform")

    def __post_init__(self):
        allowed = ("scalarized", "none") + self.BASELINES
        if self.kind not in allowed:
            raise ValueError(f"unknown compressor kind {self.kind!r}; expected one of {allowed}")
        if self.kind == "unbiased" and (self.l is None or self.l < 1):
            raise ValueError("unbiased compressor needs l >= 1")
        if self.kind == "topk" and (self.k is None or self.k < 1):
            raise ValueError("topk compressor needs k >= 1")

    @property
    def label(self):
        if self.kind == "unbiased":
            return f"unbiased(l={self.l})"
        if self.kind == "topk":
            return f"topk(k={self.k})"
        return self.kind

    def apply(self, x, rng=None):
        """Pointwise baseline map; undefined for structural kinds."""
        if self.kind == "unbiased":
            return compress_unbiased(x, self.l, rng=rng)
        if self.kind == "topk":
            return compress_topk(x, self.k)
        if self.kind == "uniform":
            return compress_uniform(x)
        raise ValueError(f"{self.kind!r} is not a pointwise compressor")
