"""Instance generation, experiment orchestration, communication
accounting, and serialization.

Communication convention: one exchange round per solver step sends one
message over each directed link (two per undirected edge). A raw real
scalar costs 64 bits; quantized entries cost their bit width; top-k
index entries count as scalars and ceil(log2 m) bits each.
"""

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .compression import Compressor, CompressionSchedule
from .dynamics import RunConfig, Trace, run_simulation
from .errors import RankDeficientError, SimulationDiverged
from .graph import WeightedGraph, build_graph, laplacian_spectrum
from .linalg import rank_check

TRACE_COLUMNS = ("clock", "err", "disagreement", "scalars_tx_cum", "bits_tx_cum")
RESULT_COLUMNS = ("mode", "compressor", "h", "s", "seed", "hit_clock",
                  "converged", "scalars_at_hit", "bits_at_hit", "rate_emp")
RESAMPLE_CAP = 10


@dataclass(frozen=True)
class ProblemInstance:
    """One stacked system H v = b over a graph, with planted solution v*.

    Row i and offset b_i are private to node i. seed records the draw
    that produced H (None for instances loaded from a file).
    """

    H: np.ndarray
    b: np.ndarray
    graph: WeightedGraph
    v_star: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        b = np.asarray(self.b, dtype=float)
        v = np.asarray(self.v_star, dtype=float)
        if H.ndim != 2 or b.shape != (H.shape[0],) or v.shape != (H.shape[1],):
            raise ValueError(
                f"shape mismatch: H {H.shape}, b {b.shape}, v_star {v.shape}"
            )
        if self.graph.n != H.shape[0]:
            raise ValueError(f"graph has {self.graph.n} nodes but H has {H.shape[0]} rows")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "v_star", v)
        verdict = rank_check(H, b)
        if not verdict:
            raise RankDeficientError(f"instance invalid: {verdict.reason}",
                                     sigma_min=verdict.sigma_m)

    @property
    def n(self):
        return self.H.shape[0]

    @property
    def m(self):
        return self.H.shape[1]

    @cached_property
    def spectrum(self):
        return laplacian_spectrum(self.graph)


def gen_instance(n, m, v_star, graph_kind="cycle", seed=0, weight=1.0):
    """Draw H with i.i.d. standard normal entries and plant b = H v*.

    The draw comes from a child stream [seed, 0] so other per-run
    streams (initial state, compressor noise) stay independent.
    Rank-deficient draws are resampled up to 10 times.
    """
    v = np.asarray(v_star, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"v_star must have length {m}, got shape {v.shape}")
    if n < m:
        raise ValueError(f"need n >= m, got n={n}, m={m}")
    graph = WeightedGraph(n=1) if n == 1 else build_graph(graph_kind, n, weight)
    rng = np.random.default_rng([seed, 0])
    for _ in range(RESAMPLE_CAP):
        H = rng.standard_normal((n, m))
        b = H @ v
        if rank_check(H, b):
            return ProblemInstance(H=H, b=b, graph=graph, v_star=v, seed=seed)
    raise RankDeficientError(f"no full-rank draw after {RESAMPLE_CAP} resamples")


def account(compressor, m, l=None, k_top=None):
    """Per-message cost (scalars, bits) of one transmitted state.

    scalarized: 1 scalar (the projection coefficient), 64 bits.
    none / uniform: m scalars, 64 m bits.
    topk: k values + k indices = 2k scalars; 64k + k ceil(log2 m) bits.
    unbiased(l): m quantized entries + the norm scalar = m + 1 scalars;
        m l + 64 bits.
    """
    if isinstance(compressor, Compressor):
        kind, l, k_top = compressor.kind, compressor.l, compressor.k
    else:
        kind = compressor
    if kind == "scalarized":
        return 1, 64
    if kind in ("none", "uniform"):
        return m, 64 * m
    if kind == "topk":
        if not k_top or not 1 <= k_top <= m:
            raise ValueError(f"topk accounting needs 1 <= k <= {m}, got {k_top}")
        idx_bits = math.ceil(math.log2(m)) if m > 1 else 0
        return 2 * k_top, 64 * k_top + idx_bits * k_top
    if kind == "unbiased":
        if not l or l < 1:
            raise ValueError(f"unbiased accounting needs l >= 1, got {l}")
        return m + 1, m * l + 64
    raise ValueError(f"unknown compressor kind {kind!r}")


def fit_rate(trace):
    """Least-squares slope fit of log(err) over the trailing half of a
    trace. Returns (rate_emp, r_squared) with rate_emp = exp(slope) per
    clock unit, or (nan, nan) when the tail is unusable."""
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


@dataclass(frozen=True)
class ResultRow:
    """One experiment grid cell. final_err is carried on the object for
    non-converged rows but is not part of the results CSV schema."""

    mode: str
    compressor: str
    h: float
    s: float
    seed: int
    hit_clock: float
    converged: bool
    scalars_at_hit: int
    bits_at_hit: int
    rate_emp: float
    final_err: float = float("nan")


@dataclass
class ExperimentSpec:
    """Description of an experiment grid over (compressor, s, seed)."""

    schedule: CompressionSchedule
    mode: str = "dt"
    n: int = 10
    m: int = 5
    v_star: tuple = (2.0, 1.0, 3.0, 4.0, -1.0)
    graph_kind: str = "cycle"
    weight: float = 1.0
    h: float = 0.2
    s_values: tuple = (0.02,)
    seeds: tuple = (0, 1, 2, 3, 4)
    compressors: tuple = field(
        default_factory=lambda: (Compressor("scalarized"), Compressor("none"))
    )
    tol: float = 1e-2
    horizon: float = 200_000
    dt_int: float = 1e-3
    record_every: int = 1


def run_experiment(spec):
    """Run every grid cell and return one ResultRow per cell.

    Cells are isolated: a diverging run produces a not-converged row
    (hit_clock set to the horizon) without aborting its siblings.
    """
    rows = []
    instances = {
        seed: gen_instance(spec.n, spec.m, spec.v_star, spec.graph_kind, seed, spec.weight)
        for seed in spec.seeds
    }
    for comp in spec.compressors:
        msg_scalars, msg_bits = account(comp, spec.m)
        for s in spec.s_values:
            for seed in spec.seeds:
                inst = instances[seed]
                links = 2 * len(inst.graph.edges)
                cfg = RunConfig(h=spec.h, s=s, dt_int=spec.dt_int, horizon=spec.horizon,
                                tol=spec.tol, compressor=comp, seed=seed,
                                record_every=spec.record_every)
                try:
                    tr = run_simulation(inst, spec.schedule, cfg, spec.mode)
                except SimulationDiverged as exc:
                    rounds = int(exc.clock if spec.mode == "dt"
                                 else round(exc.clock / spec.dt_int))
                    rows.append(ResultRow(
                        mode=spec.mode, compressor=comp.label, h=spec.h, s=s, seed=seed,
                        hit_clock=spec.horizon, converged=False,
                        scalars_at_hit=rounds * links * msg_scalars,
                        bits_at_hit=rounds * links * msg_bits,
                        rate_emp=float("nan"), final_err=float("inf"),
                    ))
                    continue
                rate, _ = fit_rate(tr)
                rows.append(ResultRow(
                    mode=spec.mode, compressor=comp.label, h=spec.h, s=s, seed=seed,
                    hit_clock=tr.hit_clock if tr.converged else spec.horizon,
                    converged=tr.converged,
                    scalars_at_hit=int(tr.scalars_tx_cum[-1]),
                    bits_at_hit=int(tr.bits_tx_cum[-1]),
                    rate_emp=rate, final_err=tr.final_err,
                ))
    return rows


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def serialize(obj, path):
    """Write a Trace or a list of ResultRow to CSV.

    Trace files start with '# key=value' metadata lines so a run's
    configuration travels with its data; both formats round-trip
    byte-exactly for fixed inputs.
    """
    if isinstance(obj, Trace):
        with open(path, "w", newline="") as fh:
            for key in sorted(obj.meta):
                fh.write(f"# {key}={_fmt(obj.meta[key])}\n")
            fh.write(f"# converged={_fmt(obj.converged)}\n")
            fh.write(f"# hit_clock={_fmt(obj.hit_clock) if obj.hit_clock is not None else 'none'}\n")
            fh.write(f"# final_err={_fmt(obj.final_err)}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            for i in range(len(obj)):
                writer.writerow([
                    _fmt(float(obj.clock[i])), _fmt(float(obj.err[i])),
                    _fmt(float(obj.disagreement[i])),
                    _fmt(int(obj.scalars_tx_cum[i])), _fmt(int(obj.bits_tx_cum[i])),
                ])
        return path
    rows = list(obj)
    if not all(isinstance(r, ResultRow) for r in rows):
        raise TypeError("serialize expects a Trace or a list of ResultRow")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for r in rows:
            writer.writerow([
                r.mode, r.compressor, _fmt(float(r.h)), _fmt(float(r.s)),
                _fmt(int(r.seed)), _fmt(float(r.hit_clock)), _fmt(r.converged),
                _fmt(int(r.scalars_at_hit)), _fmt(int(r.bits_at_hit)),
                _fmt(float(r.rate_emp)),
            ])
    return path


def _parse_meta_value(s):
    if s == "none":
        return None
    if s in ("true", "false"):
        return s == "true"
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            continue
    return s


def parse_trace(path):
    """Read back a trace CSV written by :func:`serialize`."""
    meta = {}
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key.strip()] = _parse_meta_value(val.strip())
            elif line and not line.startswith("clock"):
                rows.append(line.split(","))
    converged = bool(meta.pop("converged", False))
    hit_clock = meta.pop("hit_clock", None)
    final_err = meta.pop("final_err", float("nan"))
    cols = list(zip(*rows)) if rows else [[] for _ in TRACE_COLUMNS]
    return Trace(
        clock=[float(v) for v in cols[0]],
        err=[float(v) for v in cols[1]],
        disagreement=[float(v) for v in cols[2]],
        scalars_tx_cum=[int(v) for v in cols[3]],
        bits_tx_cum=[int(v) for v in cols[4]],
        converged=converged, hit_clock=hit_clock,
        final_err=final_err if final_err is not None else float("nan"),
        meta=meta,
    )


def parse_results(path):
    """Read back a results CSV written by :func:`serialize`."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != RESULT_COLUMNS:
            raise ValueError(f"unexpected results header {header}")
        for rec in reader:
            out.append(ResultRow(
                mode=rec[0], compressor=rec[1], h=float(rec[2]), s=float(rec[3]),
                seed=int(rec[4]), hit_clock=float(rec[5]), converged=rec[6] == "true",
                scalars_at_hit=int(rec[7]), bits_at_hit=int(rec[8]),
                rate_emp=float(rec[9]),
            ))
    return out


def save_instance(inst, path):
    """Write an instance file: 'n m', n rows of 'H_i... b_i', the edge
    list as 'i j weight' lines, then 'v_star ...'."""
    lines = [f"{inst.n} {inst.m}"]
    for i in range(inst.n):
        lines.append(" ".join(repr(float(v)) for v in (*inst.H[i], inst.b[i])))
    for (i, j, w) in inst.graph.edges:
        lines.append(f"{i} {j} {repr(float(w))}")
    lines.append("v_star " + " ".join(repr(float(v)) for v in inst.v_star))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def load_instance(path):
    """Read an instance file written by :func:`save_instance`.

    A file that is empty, ends early, or holds a malformed or
    non-numeric line raises ValueError naming the line.
    """
    with open(path) as fh:
        raw = fh.readlines()
    lines = [(no, ln.split()) for no, ln in enumerate(raw, 1)
             if ln.strip() and not ln.startswith("#")]

    def fail(no, what):
        raise ValueError(f"{path}, line {no}: {what}")

    def fields(i, what, casts):
        if i >= len(lines):
            fail(len(raw) + 1, f"file ends before {what}")
        no, toks = lines[i]
        if len(toks) != len(casts):
            fail(no, f"{what} needs {len(casts)} values, got {len(toks)}")
        try:
            return [cast(tok) for cast, tok in zip(casts, toks)]
        except ValueError:
            fail(no, f"{what} has a non-numeric value in {' '.join(toks)!r}")

    n, m = fields(0, "the 'n m' header", (int, int))
    if n < 1 or m < 1:
        fail(lines[0][0], f"need n, m >= 1, got n={n}, m={m}")
    H = np.empty((n, m))
    b = np.empty(n)
    for i in range(n):
        vals = fields(1 + i, f"row {i}", (float,) * (m + 1))
        H[i] = vals[:m]
        b[i] = vals[m]
    edges = []
    v_star = None
    for i in range(1 + n, len(lines)):
        toks = lines[i][1]
        if toks[0] == "v_star":
            v_star = np.array(fields(i, "the v_star line", (str,) + (float,) * m)[1:])
            break
        edges.append(tuple(fields(i, "edge", (int, int, float))))
    if v_star is None:
        fail(len(raw) + 1, "file ends before the v_star line")
    graph = WeightedGraph(n=n, edges=tuple(edges))
    return ProblemInstance(H=H, b=b, graph=graph, v_star=v_star, seed=None)


def parse_config(path):
    """Plain-text key/value config: one 'key = value' per line, '#'
    comments; returns the raw string mapping."""
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, val = line.partition("=")
            else:
                key, _, val = line.partition(" ")
            cfg[key.strip()] = val.strip()
    return cfg


def _parse_list(text):
    return [tok for tok in text.replace(",", " ").split() if tok]


def schedule_from_config(cfg):
    kind = cfg.get("schedule.kind", "cyclic-basis")
    m = int(cfg.get("schedule.m", cfg.get("instance.m", 5)))
    dwell = float(cfg["schedule.dwell"]) if "schedule.dwell" in cfg else 0.01
    freqs = tuple(float(tok) for tok in _parse_list(cfg.get("schedule.frequencies", "")))
    table = None
    if "schedule.table_file" in cfg:
        table = np.loadtxt(cfg["schedule.table_file"], ndmin=2)
    return CompressionSchedule(kind=kind, m=m, dwell=dwell,
                               frequencies=freqs, table=table)


def compressor_from_config(cfg):
    kind = cfg.get("compressor.kind", "scalarized")
    l = int(cfg["compressor.l"]) if "compressor.l" in cfg else None
    k = int(cfg["compressor.k"]) if "compressor.k" in cfg else None
    return Compressor(kind=kind, l=l, k=k)


def instance_from_config(cfg):
    n = int(cfg.get("graph.n", 10))
    m = int(cfg.get("instance.m", 5))
    v_star = [float(tok) for tok in _parse_list(cfg.get("instance.v_star", "2 1 3 4 -1"))]
    return gen_instance(n, m, v_star,
                        graph_kind=cfg.get("graph.kind", "cycle"),
                        seed=int(cfg.get("run.seed", 0)),
                        weight=float(cfg.get("graph.weight", 1.0)))


def runconfig_from_config(cfg, mode):
    horizon_default = 20_000 if mode == "dt" else 50.0
    horizon = float(cfg.get("run.horizon", horizon_default))
    return RunConfig(
        h=float(cfg.get("run.h", 0.2)),
        s=float(cfg.get("run.s", 0.02)),
        dt_int=float(cfg.get("run.dt_int", 1e-3)),
        horizon=int(horizon) if mode == "dt" else horizon,
        tol=float(cfg.get("run.tol", 1e-2)),
        compressor=compressor_from_config(cfg),
        seed=int(cfg.get("run.seed", 0)),
    )
