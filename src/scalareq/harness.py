"""The planted problem instance, admitted only when its entries are finite
and its v* is the unique solution of H v = b, with its data constants
(rho_m, h_M); the typed run config, instance generation, the experiment
grid (run_experiment, which takes every axis of the grid as an argument)
and serialization."""

import typing
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .compression import Compressor, CompressionSchedule
from .dynamics import TRACE_COLUMNS, RunConfig, Trace, _first_disorder, run_simulation
from .errors import RankDeficientError, SimulationDiverged
from .graph import WeightedGraph, build_graph, laplacian_spectrum
from .linalg import _check_planted

RESAMPLE_CAP = 10


@dataclass(frozen=True)
class ProblemInstance:
    """One stacked system H v = b over a graph, with planted solution v*.

    Row i and offset b_i are private to node i. seed records the draw
    that produced H (None for instances loaded from a file). It is
    admitted only if H, b and v* are finite (a non-finite entry raises
    ValueError naming the array) and v* is the unique solution of
    H v = b (see linalg._check_planted), the check that gives
    sigma_m = sigma_m(H); rho_m and h_M, the data constants of every
    solver rate, are read off it and H.
    """

    H: np.ndarray
    b: np.ndarray
    graph: WeightedGraph
    v_star: np.ndarray
    seed: int | None = None
    sigma_m: float = field(init=False, repr=False, compare=False)

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
        for name, arr in (("H", H), ("b", b), ("v_star", v)):
            if not np.isfinite(arr).all():
                raise ValueError(f"instance invalid: {name} has a non-finite entry")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "v_star", v)
        object.__setattr__(self, "sigma_m", _check_planted(H, b, v))

    @property
    def n(self):
        return self.H.shape[0]

    @property
    def m(self):
        return self.H.shape[1]

    @property
    def rho_m(self):
        """lambda_min(H^T H) / n, taken as sigma_m(H)^2 / n."""
        return self.sigma_m**2 / self.n

    @property
    def h_M(self):
        """The largest Euclidean row norm of H."""
        return float(np.linalg.norm(self.H, axis=1).max())

    @cached_property
    def spectrum(self):
        return laplacian_spectrum(self.graph)


def gen_instance(n, m, v_star, graph_kind="cycle", seed=0, weight=1.0):
    """Draw H with i.i.d. standard normal entries and plant b = H v*.

    The draw comes from a child stream [seed, 0] so other per-run
    streams (initial state, compressor noise) stay independent.
    Draws that ProblemInstance refuses as rank-deficient are resampled
    up to 10 times.
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
        try:
            return ProblemInstance(H=H, b=H @ v, graph=graph, v_star=v, seed=seed)
        except RankDeficientError:
            continue
    raise RankDeficientError(f"no full-rank draw after {RESAMPLE_CAP} resamples")


def parse_list(text, cast=str):
    """Split a comma- or space-separated list and cast each entry."""
    return tuple(cast(tok) for tok in text.replace(",", " ").split())


@dataclass(frozen=True)
class Config:
    """Every setting of a run, one field per config-file key.

    The key of a field is its name with the first '_' read as '.'
    (run_horizon <-> run.horizon). run_horizon = None means 20 000
    steps (dt) or 50.0 time units (ct).
    The methods instance, schedule, compressor and run raise ValueError
    when the values do not make a valid object.
    """

    graph_kind: str = "cycle"
    graph_n: int = 10
    graph_weight: float = 1.0
    instance_m: int = 5
    instance_v_star: tuple[float, ...] = (2.0, 1.0, 3.0, 4.0, -1.0)
    schedule_kind: str = "cyclic-basis"
    schedule_dwell: float = 0.01
    schedule_frequencies: tuple[float, ...] = ()
    schedule_table_file: str | None = None
    compressor_kind: str = "scalarized"
    compressor_l: int | None = None
    compressor_k: int | None = None
    run_h: float = 0.2
    run_s: float = 0.02
    run_seed: int = 0
    run_tol: float = 1e-2
    run_horizon: float | None = None
    run_dt_int: float = 1e-3

    def instance(self, seed=None):
        """The planted instance drawn from seed (default run_seed)."""
        return gen_instance(self.graph_n, self.instance_m, self.instance_v_star,
                            self.graph_kind, self.run_seed if seed is None else seed,
                            self.graph_weight)

    def schedule(self, m=None):
        """The compression schedule, whose m is 2 len(frequencies) for a
        trigonometric one, the table's column count for a table one and
        instance_m otherwise; m, when given, is the dimension of the
        instance it will drive, and a schedule of another m is refused.
        Only a table schedule reads schedule_table_file."""
        table = self.schedule_table_file if self.schedule_kind == "table" else None
        if table is not None:
            try:
                table = np.loadtxt(table, ndmin=2)
            except (OSError, ValueError) as exc:
                raise ValueError(f"schedule.table_file = {table}: {exc}") from None
        # 0 frequencies or no table: CompressionSchedule names what is missing
        own = {"trigonometric": 2 * len(self.schedule_frequencies),
               "table": None if table is None else table.shape[1]}
        schedule = CompressionSchedule(
            kind=self.schedule_kind, dwell=self.schedule_dwell,
            m=own.get(self.schedule_kind) or self.instance_m,
            frequencies=self.schedule_frequencies, table=table)
        if m is not None and schedule.m != m:
            raise ValueError(f"schedule has m={schedule.m} but the instance has m={m}")
        return schedule

    def compressor(self, kind=None):
        """The compressor of the given kind (default compressor_kind)."""
        return Compressor(kind or self.compressor_kind,
                          l=self.compressor_l, k=self.compressor_k)

    def run(self, mode):
        """The RunConfig of one run in mode 'dt' or 'ct'."""
        horizon = self.run_horizon
        if horizon is None:
            horizon = 20_000 if mode == "dt" else 50.0
        elif mode == "dt" and not float(horizon).is_integer():
            raise ValueError(f"run.horizon = {horizon} is not a whole number of dt steps")
        return RunConfig(h=self.run_h, s=self.run_s, dt_int=self.run_dt_int,
                         horizon=int(horizon) if mode == "dt" else horizon,
                         tol=self.run_tol, compressor=self.compressor(), seed=self.run_seed)


_KEYS = {f.name.replace("_", ".", 1): f for f in fields(Config)}


def _finite_float(text):
    """float(text), refusing nan and inf."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _convert(kind, text):
    casts = [t for t in typing.get_args(kind) if t is not type(None)]
    cast = casts[0] if casts else kind
    cast = _finite_float if cast is float else cast
    if typing.get_origin(kind) is tuple:
        return parse_list(text, cast)
    return cast(text)


def parse_config(path):
    """Read 'key = value' lines ('#' starts a comment) into a Config. An
    unknown or repeated key, a line without '=', a value of the wrong type
    (nan and inf for a float, a negative run.seed) or a v_star of the
    wrong length raises ValueError naming the line."""
    values, where = {}, {}
    with open(path) as fh:
        for no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, text = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"{path}, line {no}: expected 'key = value', got {line!r}")
            if key not in _KEYS:
                raise ValueError(f"{path}, line {no}: unknown key {key!r}")
            name = _KEYS[key].name
            if name in where:
                raise ValueError(f"{path}, line {no}: {key} already set on line {where[name]}")
            try:
                values[name] = _convert(_KEYS[key].type, text)
                if name == "run_seed" and values[name] < 0:
                    raise ValueError(f"{text} is negative")
            except ValueError as exc:
                raise ValueError(f"{path}, line {no}: bad value for {key}: {exc}") from None
            where[name] = no
    config = Config(**values)
    if len(config.instance_v_star) != config.instance_m:
        no = where.get("instance_v_star", where.get("instance_m"))
        raise ValueError(f"{path}, line {no}: instance.v_star has {len(config.instance_v_star)} "
                         f"values but instance.m = {config.instance_m}")
    return config


def fit_rate(trace):
    """Least-squares slope fit of log(err) over the trailing half of a
    trace, in the closed form of centred clocks and log errors. Returns
    (rate_emp, r_squared) with rate_emp = exp(slope) per clock unit, or
    (nan, nan) when the tail is unusable."""
    clock = np.asarray(trace.clock, dtype=float)
    err = np.asarray(trace.err, dtype=float)
    tail = slice(len(clock) // 2, None)
    clock, err = clock[tail], err[tail]
    keep = np.isfinite(err) & (err > 0)
    clock, err = clock[keep], err[keep]
    if len(clock) < 3 or clock[-1] == clock[0]:
        return float("nan"), float("nan")
    t = clock - clock.mean()
    y = np.log(err)
    y -= y.mean()
    slope = float(t @ y) / float(t @ t)
    res = y - slope * t
    ss_res, ss_tot = float(res @ res), float(y @ y)
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


# the results CSV columns: every ResultRow field but final_err, with its type
RESULT_COLUMNS = {f.name: f.type for f in fields(ResultRow) if f.name != "final_err"}


def run_experiment(config, mode, compressors, s_values, seeds, record_every):
    """Run the grid over (compressor kind, s, seed) on config in mode and
    return one ResultRow per cell; no s_values (None or empty) means
    (config.run_s,).

    Cells are isolated: a diverging run produces a not-converged row
    (hit_clock set to the horizon) without aborting its siblings.
    """
    base, schedule = config.run(mode), config.schedule(config.instance_m)
    instances = {seed: config.instance(seed) for seed in seeds}
    rows = []
    for kind in compressors:
        comp = config.compressor(kind)
        for s in s_values or (config.run_s,):
            for seed in seeds:
                cfg = replace(base, s=s, seed=seed, compressor=comp,
                              record_every=record_every)
                try:
                    tr = run_simulation(instances[seed], schedule, cfg, mode)
                except SimulationDiverged as exc:
                    outcome = dict(hit_clock=cfg.horizon, converged=False,
                                   scalars_at_hit=exc.scalars, bits_at_hit=exc.bits,
                                   rate_emp=float("nan"), final_err=float("inf"))
                else:
                    outcome = dict(hit_clock=tr.hit_clock if tr.converged else cfg.horizon,
                                   converged=tr.converged,
                                   scalars_at_hit=int(tr.scalars_tx_cum[-1]),
                                   bits_at_hit=int(tr.bits_tx_cum[-1]),
                                   rate_emp=fit_rate(tr)[0], final_err=tr.final_err)
                rows.append(ResultRow(mode=mode, compressor=comp.label, h=cfg.h, s=s,
                                      seed=seed, **outcome))
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
    """Write a Trace or a list of ResultRow to CSV: a trace's '# key=value'
    metadata lines (its run's configuration and outcome), the header, then
    one line per row. Every cell is a repr float, an exact int, true/false
    or a label without a comma, so none is quoted, and both formats
    round-trip byte-exactly."""
    if isinstance(obj, Trace):
        meta = [(key, _fmt(obj.meta[key])) for key in sorted(obj.meta)]
        meta += [("converged", _fmt(obj.converged)),
                 ("hit_clock", "none" if obj.hit_clock is None else _fmt(obj.hit_clock)),
                 ("final_err", _fmt(obj.final_err))]
        # tolist gives Python ints and floats, whose str is their repr
        columns, cells = TRACE_COLUMNS, [getattr(obj, name).tolist() for name in TRACE_COLUMNS]
    else:
        rows = list(obj)
        if not all(isinstance(r, ResultRow) for r in rows):
            raise TypeError("serialize expects a Trace or a list of ResultRow")
        meta, columns = [], RESULT_COLUMNS
        cells = [[_fmt(kind(getattr(r, name))) for r in rows] for name, kind in columns.items()]
    line = ",".join(["{}"] * len(columns)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in meta)
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(line.format, *cells))
    return path


def _bool(text):
    """A bool as _fmt writes it."""
    if text not in ("true", "false"):
        raise ValueError(f"{text!r} is not true or false")
    return text == "true"


def _parse_meta_value(s):
    """A metadata value as serialize wrote it: a bool, an int, a float, or
    the string itself (the compressor label "none" included)."""
    for cast in (_bool, int, float, str):
        try:
            return cast(s)
        except ValueError:
            pass


def _cast_line(path, no, what, casts, toks, sep=" "):
    """The cells toks of line no of path, each cast by its entry of casts;
    another width or a cell that does not cast raises ValueError naming
    the file and the line."""
    if len(toks) != len(casts):
        raise ValueError(f"{path}, line {no}: {what} needs {len(casts)} values, got {len(toks)}")
    try:
        return [cast(tok) for cast, tok in zip(casts, toks)]
    except ValueError:
        raise ValueError(f"{path}, line {no}: {what} has a non-numeric value in "
                         f"{sep.join(toks)!r}") from None


def _read_table(path, columns):
    """(meta, rows, first) of a CSV that serialize wrote: the values of its
    opening '# key=value' lines, the rows below the header, each cell cast
    by the type of its column, and the line number of the first row. A
    '#' line that is not '# key=value', a repeated key, a missing or wrong
    header, a row of another width or a cell that does not cast raises
    ValueError naming the line."""
    header = ",".join(columns)
    casts = [_bool if kind is bool else kind for kind in columns.values()]
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    meta, where, at = {}, {}, 0
    while at < len(lines) and lines[at].startswith("#"):
        key, eq, val = (part.strip() for part in lines[at][1:].partition("="))
        if not (key and eq):
            raise ValueError(f"{path}, line {at + 1}: expected '# key=value', got {lines[at]!r}")
        if key in where:
            raise ValueError(f"{path}, line {at + 1}: {key} already set on line {where[key]}")
        meta[key], where[key] = _parse_meta_value(val), at + 1
        at += 1
    if at == len(lines):
        raise ValueError(f"{path}, line {at + 1}: file ends before the header")
    if lines[at] != header:
        raise ValueError(f"{path}, line {at + 1}: expected the header {header!r}, "
                         f"got {lines[at]!r}")
    rows = [_cast_line(path, no, "row", casts, line.split(","), ",")
            for no, line in enumerate(lines[at + 1:], at + 2)]
    return meta, rows, at + 2


def parse_trace(path):
    """Read back a trace CSV written by :func:`serialize`; a row whose clock
    does not rise or whose counters fall raises ValueError naming it."""
    meta, rows, first = _read_table(path, TRACE_COLUMNS)
    columns = {name: [row[j] for row in rows] for j, name in enumerate(TRACE_COLUMNS)}
    bad = _first_disorder(columns["clock"], columns["scalars_tx_cum"], columns["bits_tx_cum"])
    if bad:
        raise ValueError(f"{path}, line {first + bad[0]}: {bad[1]}")
    hit_clock = meta.pop("hit_clock", "none")  # "none": the run never reached tol
    return Trace(**columns, converged=bool(meta.pop("converged", False)),
                 hit_clock=None if hit_clock == "none" else hit_clock,
                 final_err=meta.pop("final_err", float("nan")), meta=meta)


def parse_results(path):
    """Read back a results CSV written by :func:`serialize` (no '#' lines)."""
    meta, rows, _ = _read_table(path, RESULT_COLUMNS)
    if meta:
        raise ValueError(f"{path}, line 1: a results file has no '#' lines")
    return [ResultRow(**dict(zip(RESULT_COLUMNS, row))) for row in rows]


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

    A file that is empty, ends early, holds a malformed line, a value
    that is not a number or a float that is not finite, or has a line
    after v_star raises ValueError naming the line.
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
        vals = _cast_line(path, no, what, casts, toks)
        if not all(np.isfinite(v) for v in vals if isinstance(v, float)):
            fail(no, f"{what} has a non-finite value in {' '.join(toks)!r}")
        return vals

    n, m = fields(0, "the 'n m' header", (int, int))
    if n < 1 or m < 1:
        fail(lines[0][0], f"need n, m >= 1, got n={n}, m={m}")
    Hb = np.array([fields(1 + i, f"row {i}", (float,) * (m + 1)) for i in range(n)])
    H, b = Hb[:, :m].copy(), Hb[:, m].copy()
    edges = []
    for i in range(1 + n, len(lines)):
        toks = lines[i][1]
        if toks[0] == "v_star":
            v_star = np.array(fields(i, "the v_star line", (str,) + (float,) * m)[1:])
            if i + 1 < len(lines):
                fail(lines[i + 1][0], "unexpected line after the v_star line")
            break
        edges.append(tuple(fields(i, "edge", (int, int, float))))
    else:
        fail(len(raw) + 1, "file ends before the v_star line")
    graph = WeightedGraph(n=n, edges=tuple(edges))
    return ProblemInstance(H=H, b=b, graph=graph, v_star=v_star, seed=None)


