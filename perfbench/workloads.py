"""The four benchmark workloads.

Each workload makes its inputs (configs, table files, instances) from
the workload seed, hands only those to the program, and checks the
outputs with ``checks``. A workload records its units (cells or
certificate calls, each passed or failed), the solver steps it drove,
and the clock at the end of set-up and of the solve phase.

Horizons are cut so that a run's work is set by the horizon rather
than by the conditioning of the drawn instance: at s = 0.02 the
hitting step of the reference config varies sevenfold across instance
seeds, which would make wall time a measure of the draw. README.md in
this directory gives the rationale of each workload.
"""

import contextlib
import io
import math
import os
import time

import numpy as np

import checks

DT_INT = 1e-3
# trigonometric dwell that makes the sampled schedule periodic in 16 steps
TRIG_DWELL = 2 * math.pi / 16
TRIG_PERIOD_STEPS = 16
LARGE_TOL = 0.1
CERT_S = 1e-10  # below every certified step-size bound s*, so bounds prints beta
TABLE_ROWS = 8
TABLE_WINDOW = 6  # dwell-aligned partial window, exactly covered by the sampled starts

SIZES = {
    "full": {
        "ref_seeds": 5, "ref_dt_horizon": 2000, "ref_ct_horizon": 2.0,
        "node_dt_horizon": 2000, "node_ct_horizon": 2.0,
        "large_n": 100, "large_m": 10, "large_none_horizon": 2000, "large_scal_horizon": 300,
        "certify_ns": (10, 20, 30),
    },
    "tiny": {
        "ref_seeds": 1, "ref_dt_horizon": 60, "ref_ct_horizon": 0.05,
        "node_dt_horizon": 40, "node_ct_horizon": 0.03,
        "large_n": 12, "large_m": 4, "large_none_horizon": 200, "large_scal_horizon": 30,
        "certify_ns": (5,),
    },
}

REF = {
    "graph.kind": "cycle", "graph.n": 10, "instance.m": 5,
    "instance.v_star": "2 1 3 4 -1", "schedule.kind": "cyclic-basis",
    "schedule.dwell": 0.01, "run.h": 0.2, "run.s": 0.02, "run.tol": 0.01,
}
TRIG = {
    "instance.m": 4, "instance.v_star": "2 1 3 4",
    "schedule.kind": "trigonometric", "schedule.frequencies": "1 2",
}
REF_LINKS = checks.cycle_links(REF["graph.n"])


class Run:
    """State of one workload run inside a worker process."""

    def __init__(self, workdir, size, seed, plant):
        self.workdir = workdir
        self.size = SIZES[size]
        self.rng = np.random.default_rng(seed)
        self.plant = plant
        self.units = []  # (name, ok, problems)
        self.steps = 0
        self.setup_end = None
        self.solve_end = None

    def path(self, name):
        return os.path.join(self.workdir, name)

    def seeds(self, count):
        return [int(s) for s in self.rng.choice(1_000_000, size=count, replace=False)]

    def setup_done(self):
        if self.setup_end is None:
            self.setup_end = time.monotonic()

    def unit(self, name, problems):
        self.units.append((name, not problems, "; ".join(problems)))

    def cli(self, argv):
        """Run a scalareq subcommand in-process; return (exit code, stdout)."""
        from scalareq import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def config(self, name, entries):
        path = self.path(name)
        with open(path, "w") as fh:
            for key, value in entries.items():
                fh.write(f"{key} = {value}\n")
        return path


def ref_grid(run):
    """`scalareq compare` on the reference config, dt then ct."""
    size = run.size
    seeds = run.seeds(size["ref_seeds"])
    grids = (
        ("dt", ("0.02", "0.002", "0.0005"), "1", size["ref_dt_horizon"], {}),
        ("ct", ("3.0", "0.5"), "10", size["ref_ct_horizon"], {"run.dt_int": DT_INT}),
    )
    jobs = []
    for mode, s_list, every, horizon, extra in grids:
        cfg = run.config(f"ref_{mode}.cfg", {**REF, **extra, "run.horizon": horizon})
        jobs.append((mode, cfg, s_list, every, float(horizon)))
    run.setup_done()
    for mode, cfg, s_list, every, horizon in jobs:
        out = run.path(f"ref_{mode}.csv")
        cells = 2 * len(s_list) * len(seeds)
        try:
            run.cli(["compare", "--config", cfg, "--mode", mode,
                     "--compressors", "scalarized,none", "--s-list", ",".join(s_list),
                     "--seeds", ",".join(map(str, seeds)), "--record-every", every,
                     "--out", out])
            rows = checks.read_results(out)
        except Exception as exc:  # the program failed: every cell of the grid fails
            for _ in range(cells):
                run.unit(f"compare {mode}", [repr(exc)])
            continue
        if run.plant and mode == "dt":
            rows[0]["scalars_at_hit"] = str(int(rows[0]["scalars_at_hit"]) - 1)
        pairs = checks.pair_problems(rows)
        for row in rows:
            problems = checks.result_row(row, REF["instance.m"], REF_LINKS, horizon, DT_INT)
            problems += pairs.get((row["mode"], row["s"], row["seed"]), [])
            run.unit(f"{mode} {row['compressor']} s={row['s']} seed={row['seed']}", problems)
            run.steps += checks.rounds_of(float(row["hit_clock"]), mode, DT_INT)
        for _ in range(cells - len(rows)):
            run.unit(f"compare {mode}", ["results CSV is missing a cell"])
    run.solve_end = time.monotonic()


def node_path(run):
    """Reference-size `scalareq run` calls that bypass the dense path."""
    size = run.size
    seed = run.seeds(1)[0]
    dt = {"run.horizon": size["node_dt_horizon"]}
    ct = {"run.horizon": size["node_ct_horizon"], "run.dt_int": DT_INT}
    runs = (
        ("topk", "dt", {"compressor.kind": "topk", "compressor.k": 2, **dt}),
        ("unbiased", "dt", {"compressor.kind": "unbiased", "compressor.l": 2, **dt}),
        ("uniform", "dt", {"compressor.kind": "uniform", **dt}),
        ("trig-dt", "dt", {**TRIG, **dt}),
        ("trig-ct", "ct", {**TRIG, **ct}),
    )
    jobs = [(name, mode, run.config(f"node_{name}.cfg",
                                    {**REF, **extra, "run.seed": seed, "run.tol": 1e-300}),
             int(extra.get("instance.m", REF["instance.m"])))
            for name, mode, extra in runs]
    run.setup_done()
    for name, mode, cfg, m in jobs:
        out = run.path(f"node_{name}.csv")
        try:
            run.cli(["run", "--config", cfg, "--mode", mode, "--out", out])
            meta, rows = checks.read_trace(out)
        except Exception as exc:
            run.unit(name, [repr(exc)])
            continue
        if run.plant and name == "topk":
            clock, err, scalars, bits = rows[-1]
            rows[-1] = (clock, err, scalars - 1, bits)
        problems = checks.trace_run(rows, mode, DT_INT, meta["converged"] == "true",
                                    float(meta["final_err"]), meta["compressor"], m,
                                    REF_LINKS, 1e-300)
        run.unit(name, problems)
        if rows:
            run.steps += checks.rounds_of(rows[-1][0], mode, DT_INT)
    run.solve_end = time.monotonic()


def large_net(run):
    """A 100-node cycle: heavy spectrum set-up, then dense-path dt runs."""
    import scalareq

    size = run.size
    n, m = size["large_n"], size["large_m"]
    seed = run.seeds(1)[0]
    v_star = run.rng.integers(-3, 4, size=m).astype(float)
    inst = scalareq.gen_instance(n, m, v_star, "cycle", seed)
    eigenvalues = inst.spectrum.eigenvalues.copy()
    run.setup_done()
    if run.plant:
        eigenvalues[1] += 1e-6
    run.unit("spectrum", checks.cycle_spectrum(eigenvalues, n))
    schedule = scalareq.make_schedule("cyclic-basis", m, dwell=0.01)
    for label, tol, horizon in (("none", LARGE_TOL, size["large_none_horizon"]),
                                ("scalarized", 1e-300, size["large_scal_horizon"])):
        cfg = scalareq.RunConfig(h=0.2, s=0.02, tol=tol, horizon=horizon,
                                 compressor=scalareq.Compressor(label), seed=seed)
        try:
            tr = scalareq.run_simulation(inst, schedule, cfg, "dt")
        except Exception as exc:
            run.unit(label, [repr(exc)])
            continue
        rows = list(zip(tr.clock.tolist(), tr.err.tolist(),
                        tr.scalars_tx_cum.tolist(), tr.bits_tx_cum.tolist()))
        run.unit(label, checks.trace_run(rows, "dt", DT_INT, tr.converged, float(tr.final_err),
                                         label, m, checks.cycle_links(n), tol))
        run.steps += int(tr.clock[-1])
    run.solve_end = time.monotonic()


class _Piecewise:
    """A cyclic-basis or table schedule, evaluated by the benchmark."""

    def __init__(self, rows, dwell, window_steps):
        self.rows, self.dwell, self.window = np.asarray(rows, dtype=float), dwell, window_steps
        self.period = len(self.rows)

    def dt(self, k):
        return self.rows[k % self.period]

    def ct_gram(self, start, T):
        d = self.dwell
        j = np.arange(math.floor(start / d) - 1, math.ceil((start + T) / d) + 1)
        overlap = np.clip(np.minimum(start + T, (j + 1) * d) - np.maximum(start, j * d), 0, None)
        C = self.rows[j % self.period]
        return (C * overlap[:, None]).T @ C

    def ct_starts(self):
        # verify_pe_ct's sampled starts plus every dwell boundary of a period
        period = self.period * self.dwell
        return sorted({j * period / 8 for j in range(8)}
                      | {k * self.dwell for k in range(self.period)})


class _Trig:
    """The trigonometric schedule of TRIG at dwell TRIG_DWELL."""

    def __init__(self, frequencies):
        self.w = np.asarray(frequencies, dtype=float)
        self.m = 2 * len(self.w)
        self.period = TRIG_PERIOD_STEPS
        self.window = TRIG_PERIOD_STEPS

    def at(self, t):
        t = np.atleast_1d(t)[:, None] * self.w
        C = np.empty((t.shape[0], self.m))
        C[:, 0::2], C[:, 1::2] = np.sin(t), np.cos(t)
        return np.sqrt(2.0 / self.m) * C

    def dt(self, k):
        return self.at(k * TRIG_DWELL)[0]

    def ct_gram(self, start, T):
        x, wts = np.polynomial.legendre.leggauss(128)
        C = self.at(start + 0.5 * T * (x + 1.0))
        return 0.5 * T * (C * wts[:, None]).T @ C

    def ct_starts(self):
        return list(np.linspace(0.0, 2 * math.pi, 32, endpoint=False))


def _min_eig(G):
    return float(np.linalg.eigvalsh(G)[0])


def _dt_minima(sched, K):
    minima = []
    for k0 in range(sched.period):
        C = np.array([sched.dt(k0 + j) for j in range(K)])
        minima.append(_min_eig(C.T @ C))
    return minima


def _observability_minima(sched, n, h):
    """lambda_min of I - T^T T over one period of starts, per cycle eigenvalue."""
    lams = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(1, n) / n)
    m = len(sched.dt(0))
    minima = []
    for k0 in range(sched.period):
        worst = np.inf
        for lam in lams:
            T = np.eye(m)
            for j in range(sched.period):
                c = sched.dt(k0 + j)
                T = (np.eye(m) - h * lam * np.outer(c, c)) @ T
            worst = min(worst, _min_eig(np.eye(m) - T.T @ T))
        minima.append(worst)
    return minima


def _bounds_values(text):
    names, values = text.strip().splitlines()[-2:]
    return dict(zip(names.split(","), (float(v) for v in values.split(","))))


def _pe_alpha(text):
    line = next(ln for ln in text.splitlines() if ln.startswith("PE witness:"))
    return float(line.split("alpha=")[1].split()[0])


def certify(run):
    """`scalareq bounds` and `pe-check` in both domains on five configs."""
    seed = run.seeds(1)[0]
    base = {**REF, "run.seed": seed, "run.s": CERT_S}
    dwell = REF["schedule.dwell"]
    configs = []
    for n in run.size["certify_ns"]:
        table = run.rng.standard_normal((TABLE_ROWS, REF["instance.m"]))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        table_file = run.path(f"table_n{n}.txt")
        np.savetxt(table_file, table, fmt="%.17g")
        cfg = {**base, "graph.n": n, "schedule.kind": "table", "schedule.table_file": table_file}
        configs.append((f"table-n{n}", n, cfg, _Piecewise(table, dwell, TABLE_WINDOW)))
    configs.append(("cyclic-n10", 10, base,
                    _Piecewise(np.eye(REF["instance.m"]), dwell, REF["instance.m"])))
    configs.append(("trig-n10", 10, {**base, **TRIG, "schedule.dwell": TRIG_DWELL},
                    _Trig((1.0, 2.0))))
    jobs = [(name, n, run.config(f"{name}.cfg", cfg), sched) for name, n, cfg, sched in configs]
    run.setup_done()
    plant_g = run.plant
    for name, n, cfg, sched in jobs:
        piecewise = isinstance(sched, _Piecewise)
        T = sched.window * dwell if piecewise else 2 * math.pi
        calls = (
            ("bounds", ["bounds", "--config", cfg]),
            ("pe-check dt", ["pe-check", "--config", cfg, "--domain", "dt",
                             "--window", str(sched.window)]),
            ("pe-check ct", ["pe-check", "--config", cfg, "--domain", "ct",
                             "--window", repr(T)]),
        )
        for call, argv in calls:
            try:
                code, text = run.cli(argv)
                if code != 0:
                    raise RuntimeError(f"exit code {code}: {text.strip()}")
                if call == "bounds":
                    values = _bounds_values(text)
                    problems = checks.rate_in_unit_interval(values)
                    if piecewise:
                        g = values.get("g")
                        if plant_g and g is not None:
                            g, plant_g = 2.0 * g, False
                        problems += checks.certificate_at_most(
                            "g", g, _observability_minima(sched, n, float(REF["run.h"])))
                elif call == "pe-check dt":
                    problems = checks.certificate_at_most(
                        "alpha", _pe_alpha(text), _dt_minima(sched, sched.window))
                else:
                    problems = checks.certificate_at_most(
                        "alpha", _pe_alpha(text),
                        [_min_eig(sched.ct_gram(a, T)) for a in sched.ct_starts()])
            except Exception as exc:
                problems = [repr(exc)]
            run.unit(f"{name} {call}", problems)
            run.steps += 1
    run.solve_end = time.monotonic()


WORKLOADS = {
    "ref-grid": ref_grid,
    "node-path": node_path,
    "large-net": large_net,
    "certify": certify,
}
