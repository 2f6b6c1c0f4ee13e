"""Compression-vector schedules, persistent-excitation checks, and compressors.

A schedule emits the unit compression vector C(t) (continuous clock) or
C[k] (step index), read from its period table ``rows`` or evaluated as
(sin, cos) pairs. The solvers and certificates read C through
``eval_ct`` and ``eval_dt``, which take a scalar or an array of clocks
(steps) and refuse nan, infinite or negative ones and fractional steps.
Persistent excitation (PE) means the windowed gram of C C^T is bounded
below by alpha * I; ``verify_pe_ct`` / ``verify_pe_dt`` certify this
exactly, over every window start, and return the witness (alpha,
window). A gram's eigenvalues are resolved only to about eps times its
trace, the window length, so a witness needs alpha above
PE_FLOOR * max(1, window). Every gram is in closed form: whole periods
plus interval overlaps of a table, or for (sin, cos) pairs the integral
or the Dirichlet-kernel sum of e^{ift} over the window.

The scalarized compressor transmits the single scalar C^T x and unfolds
it along C at the receiver. The three baseline compressors (unbiased
l-bit quantizer, dithered by the rng it is given; top-k sparsifier;
uniform quantizer) transmit full m-vectors and exist for the
communication comparison experiments.
``account`` prices one message of each: one exchange round sends one
message over each directed link (two per undirected edge), a raw real
scalar costs 64 bits, quantized entries cost their bit width, and top-k
index entries count as scalars and ceil(log2 m) bits each.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import PEVerificationFailed

UNIT_NORM_TOL = 1e-12
PE_FLOOR = 1e-10

KINDS = ("cyclic-basis", "trigonometric", "table")


@dataclass(frozen=True)
class CompressionSchedule:
    """Rule generating the unit compression vector over time.

    kind:
        'cyclic-basis'  standard basis vectors in round-robin; continuous
                        clocks dwell for ``dwell`` seconds per vector.
        'trigonometric' interleaved (sin, cos) pairs at the given
                        frequencies, scaled to unit norm; m must equal
                        2 * len(frequencies).
        'table'         explicit unit vectors, cycled; continuous clocks
                        dwell per row when ``dwell`` is set.

    rows is the period table, step k reading rows[k % len(rows)]: np.eye(m)
    (cyclic-basis), the validated table (table), or None (trigonometric).
    """

    kind: str
    m: int
    dwell: float | None = None
    frequencies: tuple = field(default_factory=tuple)
    table: np.ndarray | None = None
    rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; expected one of {KINDS}")
        if self.m < 1:
            raise ValueError(f"need m >= 1, got {self.m}")
        if self.dwell is not None and not self.dwell > 0:
            raise ValueError(f"need dwell > 0, got {self.dwell}")
        if self.kind == "trigonometric":
            if not self.frequencies:
                raise ValueError("trigonometric schedule needs at least one frequency")
            object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
            if not all(f > 0 for f in self.frequencies):
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
        rows = {"cyclic-basis": np.eye(self.m), "table": self.table}.get(self.kind)
        object.__setattr__(self, "rows", rows)

    @property
    def period_steps(self):
        """Number of steps after which the discrete sequence repeats."""
        return 1 if self.rows is None else len(self.rows)


def make_schedule(kind, m, dwell=None, frequencies=(), table=None):
    """Convenience constructor for :class:`CompressionSchedule`."""
    return CompressionSchedule(kind=kind, m=m, dwell=dwell,
                               frequencies=tuple(frequencies), table=table)


def _clocks(x, name, whole=False, step=1.0):
    """x as an array, or ValueError naming its first entry that is nan,
    negative, infinite, fractional if whole, or above max float / step, so
    that a step's clock x * step is finite too."""
    x = np.asarray(x)
    top = sys.float_info.max / max(step, 1.0)
    ok = (x >= 0) & (x <= top) & ((x == np.floor(x)) if whole else True)  # nan fails all
    if not ok.all():
        raise ValueError(f"need {'whole' if whole else 'finite'} {name} >= 0, got {x[~ok][0]}")
    return x


def _step_length(schedule):
    """Clock per step of a trigonometric schedule: its dwell, or 1 without."""
    return 1.0 if schedule.dwell is None else schedule.dwell


def _sinusoids(schedule, t):
    """C(t) of a trigonometric schedule at the clocks t, unchecked: one sin
    and one cos call, shape t.shape + (m,)."""
    wt = np.multiply.outer(t, schedule.frequencies)
    C = np.empty(wt.shape[:-1] + (schedule.m,))
    C[..., 0::2] = np.sin(wt)
    C[..., 1::2] = np.cos(wt)
    C *= np.sqrt(2.0 / schedule.m)
    return C


def eval_ct(schedule, t):
    """Compression vectors C(t) at the continuous clocks t, a scalar or an
    array of finite t >= 0, as an array of shape t.shape + (m,) of unit
    rows."""
    t = _clocks(t, "t")
    if schedule.rows is None:
        return _sinusoids(schedule, t)
    if schedule.dwell is None:
        raise ValueError(f"{schedule.kind} schedule needs a dwell for continuous clocks")
    # nudge clocks a rounding error below a dwell boundary into the interval
    # they denote; reduce mod the period (exactly) before the integer cast
    step = np.floor(t / schedule.dwell + 1e-9) % len(schedule.rows)
    return np.take(schedule.rows, step.astype(np.intp), axis=0)


def eval_dt(schedule, k):
    """Compression vectors C[k] at the steps k, a scalar or an array of whole
    k >= 0, as an array of shape k.shape + (m,): row k mod period of the
    table, or a trigonometric schedule's C(t) at t = k _step_length."""
    if schedule.rows is None:
        step = _step_length(schedule)
        return _sinusoids(schedule, _clocks(k, "k", whole=True, step=step) * step)
    k = _clocks(k, "k", whole=True)
    return np.take(schedule.rows, (k % len(schedule.rows)).astype(np.intp), axis=0)


def _finite(grams, window):
    """grams, or ValueError when the window has overflowed an entry: the
    one finiteness check of every PE gram, whose builders compute with
    float overflow silenced."""
    if not np.isfinite(grams).all():
        raise ValueError(f"window {window:g} overflows the PE gram")
    return grams


@np.errstate(over="ignore", invalid="ignore")  # _finite refuses what overflows
def _piecewise_grams(schedule, dwell, T, starts=None):
    """(starts, window grams over [a, a+T] for a in starts) of a schedule
    with a period table, holding each row for one dwell; by default the starts
    of verify_pe_ct. Whole periods in T add dwell * sum_j C_j C_j^T each, and
    the rest r = T mod period the overlaps of [a, a+r] (a mod period) with
    the dwell intervals of [0, 2*period) times C_j C_j^T, in one product."""
    if dwell is None:
        raise ValueError(f"{schedule.kind} schedule needs a dwell for continuous clocks")
    rows = schedule.rows
    period = len(rows) * dwell
    r = math.fmod(T, period)
    if starts is None:
        k = np.arange(len(rows)) * dwell
        starts = np.concatenate([k, np.mod(k - r, period)])
    a = np.mod(starts, period)[:, None]
    edges = np.arange(2 * len(rows) + 1) * dwell
    overlap = np.clip(np.minimum(a + r, edges[1:]) - np.maximum(a, edges[:-1]), 0.0, None)
    outer = rows[:, :, None] * rows[:, None, :]
    grams = np.tensordot(overlap, np.concatenate([outer, outer]), axes=1)
    return starts, _finite(grams + np.round((T - r) / period) * dwell * outer.sum(axis=0), T)


@np.errstate(over="ignore", invalid="ignore")  # _finite refuses what overflows
def _trig_gram(schedule, kernel, window):
    """Window gram of a trigonometric schedule, given kernel(f), the integral
    or sum of e^{ift} over the window: each entry is 2/m times half a sum of
    sinusoids at the sum and difference f of two frequencies."""
    w = np.asarray(schedule.frequencies)
    diff, both = kernel(w[:, None] - w), kernel(w[:, None] + w)
    G = np.empty((schedule.m, schedule.m))
    G[0::2, 0::2], G[1::2, 1::2] = (diff - both).real, (diff + both).real
    G[0::2, 1::2], G[1::2, 0::2] = (both + diff).imag, (both - diff).imag
    return _finite(G / schedule.m, window)


def _split(x):
    """(hi, lo) with x = hi + lo and 26 significant bits in hi (Veltkamp)."""
    c = (2.0**27 + 1) * x
    hi = c - (c - x)
    return hi, x - hi


def _dirichlet(schedule, start, K):
    """kernel(f) = sum_{j<K} e^{i phi (start+j)}, phi = f d the angle per step
    of clock d: e^{i phi c} sin(K phi/2) / sin(phi/2) with c = start + (K-1)/2
    (K times d is never formed, so K may be as large as a float), K at phi = 0.
    phi is first reduced mod 2 pi, which changes no term: atan2 reduces the
    rounded product p = fl(f d) exactly, and Dekker's split adds f d - p. So
    a resonant angle keeps the size the exact sum sees, not a ratio of
    rounding errors; the sign (-1)^(n (K-1)) of reducing phi/2 by n pi
    cancels against the phase's."""
    d = _step_length(schedule)
    c = start + (K - 1) / 2

    def kernel(f):
        p = f * d
        (f1, f2), (d1, d2) = _split(f), _split(d)
        phi = np.arctan2(np.sin(p), np.cos(p)) + (((f1 * d1 - p) + f1 * d2 + f2 * d1) + f2 * d2)
        half = np.sin(phi / 2)
        ratio = np.divide(np.sin(float(K) * phi / 2), half, out=np.full(phi.shape, float(K)),
                          where=half != 0)
        return np.exp(1j * phi * c) * ratio
    return kernel


def pe_gram_dt(schedule, start, K):
    """Exact discrete window gram sum_{j=0}^{K-1} C[start+j] C[start+j]^T,
    K >= 1 and start >= 0 whole: the continuous one at dwell 1 for a period
    table, and for a trigonometric schedule the Dirichlet-kernel sums of the
    steps' sinusoids (see _dirichlet), whose cost does not grow with K."""
    if K < 1 or start < 0:
        raise ValueError(f"need window K >= 1 and start >= 0, got K={K}, start={start}")
    start, K = int(_clocks(start, "start", whole=True)), int(_clocks(K, "window K", whole=True))
    if schedule.rows is not None:
        return _piecewise_grams(schedule, 1, K, [start])[1][0]
    return _trig_gram(schedule, _dirichlet(schedule, start, K), K)


def pe_gram_ct(schedule, start, T):
    """Exact continuous window gram: integral of C C^T over [start, start+T],
    by whole periods and interval overlaps, or for (sin, cos) pairs as
    T e^{ifc} sinc(fT/2), c the window's midpoint (np.sinc is 1 at f = 0)."""
    if not 0 < T < math.inf:
        raise ValueError(f"need a finite window T > 0, got {T}")
    if start < 0:
        raise ValueError(f"need start >= 0, got {start}")
    if schedule.rows is None:
        return _trig_gram(schedule, lambda f: T * np.exp(1j * f * (start + T / 2))
                          * np.sinc(f * T / (2 * np.pi)), T)
    return _piecewise_grams(schedule, schedule.dwell, T, [start])[1][0]


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


def _verify(starts, grams, window):
    """Witness from the smallest eigenvalue over the window grams of all
    starts, read off one batched eigvalsh, if it exceeds the rounding of
    those grams, PE_FLOOR * max(1, window)."""
    lam = np.linalg.eigvalsh(np.asarray(grams))
    worst = int(np.argmin(lam[:, 0]))
    alpha = float(lam[worst, 0])
    if alpha <= PE_FLOOR * max(1.0, window):
        raise PEVerificationFailed(
            f"schedule is not persistently exciting: min eigenvalue {alpha:.3e} "
            f"at start {starts[worst]}",
            eigenvalues=lam[worst],
        )
    return PEWitness(alpha=alpha, window=window)


def verify_pe_ct(schedule, T):
    """Certify continuous PE over windows of length T, exactly: alpha is
    the smallest gram eigenvalue over every window start.

    Piecewise-constant schedules: between breakpoints the gram is affine in
    the start and its smallest eigenvalue concave, so the minimum lies where
    the window begins or ends on a dwell boundary, at a start k dwell or
    (k dwell - T) mod period, k < period_steps. Trigonometric schedules:
    C(t + tau) = R(tau) C(t), R rotating each (sin, cos) pair, so every
    start's gram R G(0) R^T has the spectrum of start 0's.
    """
    if schedule.rows is not None and 0 < T < math.inf:
        return _verify(*_piecewise_grams(schedule, schedule.dwell, T), T)
    return _verify([0.0], [pe_gram_ct(schedule, 0.0, T)], T)  # which rejects a bad T


def verify_pe_dt(schedule, K):
    """Certify discrete PE over windows of K steps, K >= 1 whole, exactly:
    every start in one schedule period is checked, for a trigonometric
    schedule start 0, as C[k + j] = R(k dwell) C[j] (see verify_pe_ct)."""
    if schedule.rows is not None and K >= 1:
        steps = int(_clocks(K, "window K", whole=True))
        return _verify(*_piecewise_grams(schedule, 1, steps, np.arange(schedule.period_steps)), K)
    return _verify([0], [pe_gram_dt(schedule, 0, K)], K)  # which rejects a bad K


def compress_unbiased(x, l, rng):
    """Unbiased l-bit quantizer, applied to each row (last axis) of x.

    Each entry is scaled to [0, 2^(l-1)] of its row's infinity norm and
    floored after adding uniform [0,1) dither, keeping the sign:

        out_i = (||x||_inf / 2^(l-1)) * sign(x_i) * floor(2^(l-1)|x_i| / ||x||_inf + w_i)

    A zero row maps to zero and draws nothing; the dither w is one
    rng.uniform draw over the nonzero rows in row order, which is what
    quantizing the rows one by one draws.
    """
    x = np.asarray(x, dtype=float)
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1])
    norm_inf = np.abs(rows).max(axis=1, initial=0.0)
    # when every row is live (the common case) they need no fancy indexing
    every = norm_inf.all()
    live = slice(None) if every else np.flatnonzero(norm_inf)
    X, norm_inf = rows[live], norm_inf[live, None]
    if not len(X):
        return np.zeros(x.shape)
    noise = rng.uniform(size=X.shape)
    levels = 2.0 ** (l - 1)
    q = (norm_inf / levels) * np.sign(X) * np.floor(levels * np.abs(X) / norm_inf + noise)
    if every:
        return q.reshape(x.shape)
    out = np.zeros(rows.shape)
    out[live] = q
    return out.reshape(x.shape)


def compress_topk(x, k):
    """Keep the k largest-magnitude entries of each row (last axis) of x
    (ties: lowest index) and zero the rest."""
    x = np.asarray(x, dtype=float)
    m = x.shape[-1]
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= {m}, got {k}")
    rows = x.reshape(-1, m)
    keep = np.argsort(-np.abs(rows), axis=1, kind="stable")[:, :k]
    at = np.arange(len(rows))[:, None]
    out = np.zeros(rows.shape)
    out[at, keep] = rows[at, keep]
    return out.reshape(x.shape)


def compress_uniform(x):
    """Uniform quantizer to the nearest integer lattice: floor(x + 1/2)."""
    return np.floor(np.asarray(x, dtype=float) + 0.5)


@dataclass(frozen=True)
class Compressor:
    """Per-run compressor selection for the discrete/continuous solvers.

    kind 'scalarized' and 'none' are structural (handled inside the
    steppers); the baseline kinds map each transmitted state vector, a
    row of the stacked node states, to its compressed form.
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

    def apply(self, x, rng):
        """Baseline map of each row (last axis) of x, dithered by rng when
        unbiased (None for other kinds); undefined for structural kinds."""
        if self.kind == "unbiased":
            return compress_unbiased(x, self.l, rng)
        if self.kind == "topk":
            return compress_topk(x, self.k)
        if self.kind == "uniform":
            return compress_uniform(x)
        raise ValueError(f"{self.kind!r} is not a pointwise compressor")


def account(compressor, m):
    """Per-message cost (scalars, bits) of one state transmitted under
    the Compressor compressor.

    scalarized: 1 scalar (the projection coefficient), 64 bits.
    none / uniform: m scalars, 64 m bits.
    topk: k values + k indices = 2k scalars; 64k + k ceil(log2 m) bits.
    unbiased(l): m quantized entries + the norm scalar = m + 1 scalars;
        m l + 64 bits.
    """
    kind, k = compressor.kind, compressor.k
    if kind == "scalarized":
        return 1, 64
    if kind in ("none", "uniform"):
        return m, 64 * m
    if kind == "topk":
        if not 1 <= k <= m:
            raise ValueError(f"topk accounting needs 1 <= k <= {m}, got {k}")
        idx_bits = math.ceil(math.log2(m)) if m > 1 else 0
        return 2 * k, 64 * k + idx_bits * k
    return m + 1, m * compressor.l + 64  # unbiased
