import inspect
import re
import shlex
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalareq import cli, harness
from scalareq.compression import KINDS, Compressor, account, make_schedule
from scalareq.dynamics import RunConfig, Trace, run_simulation
from scalareq.errors import RankDeficientError
from scalareq.graph import build_graph
from scalareq.harness import (RESULT_COLUMNS, TRACE_COLUMNS, Config, ProblemInstance,
                              ResultRow, fit_rate, gen_instance, load_instance,
                              parse_config, parse_results, parse_trace,
                              run_experiment, save_instance, serialize)

from oracles import (fit_rate_polyfit, run_simulation_stepwise, serialize_result_rows,
                     serialize_trace_rows)

V_STAR = (2.0, 1.0, 3.0, 4.0, -1.0)
SCHED5 = make_schedule("cyclic-basis", 5, dwell=0.01)


@pytest.fixture(scope="module")
def inst10():
    return gen_instance(10, 5, V_STAR, seed=0)


def test_gen_instance_reference_case(inst10):
    assert inst10.n == 10 and inst10.m == 5
    assert inst10.seed == 0
    expect_H = np.random.default_rng([0, 0]).standard_normal((10, 5))
    assert np.array_equal(inst10.H, expect_H)
    assert np.array_equal(inst10.b, inst10.H @ np.array(V_STAR))
    assert len(inst10.graph.edges) == 10
    assert np.abs(np.linalg.lstsq(inst10.H, inst10.b, rcond=None)[0] - V_STAR).max() < 1e-9


def test_gen_instance_deterministic():
    a = gen_instance(10, 5, V_STAR, seed=2)
    b = gen_instance(10, 5, V_STAR, seed=2)
    assert np.array_equal(a.H, b.H)
    assert not np.array_equal(a.H, gen_instance(10, 5, V_STAR, seed=3).H)


def test_gen_instance_single_node():
    inst = gen_instance(1, 1, (7.0,), seed=3)
    assert inst.graph.n == 1
    assert inst.H.shape == (1, 1)
    assert inst.b[0] == inst.H[0, 0] * 7.0


class _Draws:
    """Stand-in for the generator of an instance draw: standard_normal
    returns the given arrays in turn."""

    def __init__(self, arrays):
        self.arrays = list(arrays)

    def standard_normal(self, shape):
        return self.arrays.pop(0)


def test_gen_instance_validation(monkeypatch):
    with pytest.raises(ValueError, match="length"):
        gen_instance(10, 5, (1.0, 2.0))
    with pytest.raises(ValueError, match="n >= m"):
        gen_instance(3, 5, V_STAR)
    # a rank-deficient draw is resampled, up to 10 draws in all
    full = np.random.default_rng(5).standard_normal((10, 5))
    deficient = full.copy()
    deficient[:, 4] = deficient[:, 0]
    draws = _Draws([deficient] * 3 + [full, deficient])
    monkeypatch.setattr(harness.np.random, "default_rng", lambda seed: draws)
    inst = gen_instance(10, 5, V_STAR, seed=0)
    assert np.array_equal(inst.H, full) and len(draws.arrays) == 1
    draws.arrays = [deficient] * 10 + [full]
    with pytest.raises(RankDeficientError, match="^no full-rank draw after 10 resamples$"):
        gen_instance(10, 5, V_STAR, seed=0)
    assert len(draws.arrays) == 1


def test_problem_instance_validation():
    H = np.random.default_rng(0).standard_normal((4, 2))
    v = np.array([1.0, -1.0])
    g4 = build_graph("path", 4)
    with pytest.raises(ValueError, match="shape"):
        ProblemInstance(H=H, b=np.zeros(3), graph=g4, v_star=v)
    with pytest.raises(ValueError, match="nodes"):
        ProblemInstance(H=H, b=H @ v, graph=build_graph("path", 3), v_star=v)
    rank1 = np.ones((3, 2))
    with pytest.raises(RankDeficientError):
        ProblemInstance(H=rank1, b=np.full(3, 2.0), graph=build_graph("path", 3),
                        v_star=np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["H", "b", "v_star"])
def test_problem_instance_refuses_non_finite_entries(inst10, name, bad):
    # checked before the backward error, which an infinite v_star passes as inf <= 1e-8 inf
    arrays = {"H": inst10.H.copy(), "b": inst10.b.copy(), "v_star": inst10.v_star.copy()}
    arrays[name].flat[0] = bad
    with pytest.raises(ValueError, match=f"instance invalid: {name} has a non-finite entry"):
        ProblemInstance(graph=inst10.graph, **arrays)


def test_account_conventions():
    assert account(Compressor("scalarized"), 5) == (1, 64)
    assert account(Compressor("none"), 5) == (5, 320)
    assert account(Compressor("uniform"), 5) == (5, 320)
    assert account(Compressor("topk", k=2), 5) == (4, 134)
    assert account(Compressor("unbiased", l=2), 5) == (6, 74)
    # scalar states carry no index bits
    assert account(Compressor("topk", k=1), 1) == (2, 64)


def test_account_validation():
    # a topk compressor keeps at most m entries of an m-vector
    with pytest.raises(ValueError, match="topk"):
        account(Compressor("topk", k=6), 5)
    with pytest.raises(ValueError, match="topk"):
        Compressor("topk")
    with pytest.raises(ValueError, match="unbiased"):
        Compressor("unbiased")
    with pytest.raises(ValueError, match="unknown"):
        Compressor("wavelet")


def _make_trace(err, clock=None):
    n = len(err)
    clock = np.arange(n) if clock is None else np.asarray(clock)
    return Trace(clock=clock, err=err, disagreement=np.zeros(n),
                 scalars_tx_cum=np.arange(n), bits_tx_cum=64 * np.arange(n))


def test_fit_rate_exact_geometric_decay():
    tr = _make_trace(0.9 ** np.arange(100))
    rate, r2 = fit_rate(tr)
    assert rate == pytest.approx(0.9, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_degenerate_tails():
    # a flat tail fits rate 1; its r-squared is ill-defined, only bounded
    rate, r2 = fit_rate(_make_trace(np.full(50, 0.5)))
    assert rate == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= r2 <= 1.0
    rate, _ = fit_rate(_make_trace(np.zeros(50)))
    assert np.isnan(rate)
    rate, _ = fit_rate(_make_trace(np.array([4.0, 3.0, 2.0, 1.0])))
    assert np.isnan(rate)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 3000), st.sampled_from([1.0, 1e-3, 0.01]))
def test_fit_rate_matches_polyfit(seed, rows, unit):
    # random tails: clocks with random gaps, log errors on a random slope
    # with noise from negligible to dominant, and some unusable entries
    rng = np.random.default_rng(seed)
    clock = unit * np.cumsum(rng.integers(1, 30, size=rows))
    log_err = (rng.uniform(-1e-2, 1e-3) / unit * clock
               + 10.0 ** rng.uniform(-12.0, 1.0) * rng.standard_normal(rows))
    err = np.exp(log_err)
    err[rng.random(rows) < 0.05] = rng.choice([0.0, -1.0, np.inf, np.nan])
    tr = _make_trace(err, clock)
    rate, r2 = fit_rate(tr)
    want_rate, want_r2 = fit_rate_polyfit(tr)
    if np.isnan(want_rate):
        assert np.isnan(rate) and np.isnan(r2) and np.isnan(want_r2)
        return
    assert rate == pytest.approx(want_rate, rel=1e-10)
    assert r2 == pytest.approx(want_r2, abs=1e-10)


def test_serialize_trace_roundtrip(tmp_path, inst10):
    cfg = RunConfig(h=0.2, s=0.02, horizon=50, tol=1e-300, record_every=7)
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    path = tmp_path / "trace.csv"
    serialize(tr, path)
    back = parse_trace(path)
    assert np.array_equal(back.clock, tr.clock)
    assert np.array_equal(back.err, tr.err)
    assert np.array_equal(back.disagreement, tr.disagreement)
    assert np.array_equal(back.scalars_tx_cum, tr.scalars_tx_cum)
    assert np.array_equal(back.bits_tx_cum, tr.bits_tx_cum)
    assert back.converged is False
    assert back.hit_clock is None
    assert back.final_err == tr.final_err
    assert back.meta == tr.meta


def test_serialize_trace_converged_metadata(tmp_path, inst10):
    cfg = RunConfig(h=0.2, s=0.02, horizon=20000, tol=0.5, record_every=100)
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    assert tr.converged
    path = tmp_path / "trace.csv"
    serialize(tr, path)
    back = parse_trace(path)
    assert back.converged is True
    assert back.hit_clock == tr.hit_clock
    assert back.err[-1] <= 0.5


def test_serialize_is_deterministic(tmp_path, inst10):
    cfg = RunConfig(h=0.2, s=0.02, horizon=30, tol=1e-300)
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    serialize(tr, p1)
    serialize(run_simulation(inst10, SCHED5, cfg, "dt"), p2)
    assert p1.read_bytes() == p2.read_bytes()


SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-17, 1.0, 1e300, 1.7976931348623157e308,
                           float("inf"), float("-inf"), float("nan")])


@st.composite
def _traces(draw):
    """Random traces: integer or fractional clocks, errors from subnormal
    to huge, counters past 2**53 (where a float no longer holds every
    int), and NaN, infinite or missing outcome fields."""
    rows = draw(st.integers(0, 40))
    steps = np.cumsum(draw(st.lists(st.integers(1, 10**6), min_size=rows, max_size=rows)),
                      dtype=np.int64)
    unit = draw(st.sampled_from([1, 1e-3, 0.01, 2 ** -10, 0.1]))
    values = st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
    cols = [draw(st.lists(values, min_size=rows, max_size=rows)) for _ in range(2)]
    # links up to the count that takes bits_tx_cum to 2**63, far past 2**53
    links = draw(st.integers(0, (2**57 - 1) // int(steps[-1] if rows else 1)))
    hit = draw(st.one_of(st.none(), st.integers(0, 10**6), st.floats(0, 1e6)))
    return Trace(clock=steps * unit, err=cols[0], disagreement=cols[1],
                 scalars_tx_cum=steps * links, bits_tx_cum=steps * links * 64,
                 converged=hit is not None, hit_clock=hit,
                 final_err=draw(st.one_of(SPECIAL, st.floats())),
                 meta={"mode": draw(st.sampled_from(["dt", "ct"])), "h": draw(st.floats()),
                       "seed": draw(st.integers(0, 2**63 - 1)), "compressor": "topk(k=2)"})


@settings(max_examples=100, deadline=None)
@given(_traces())
def test_serialize_trace_matches_cell_by_cell_writer(tmp_path_factory, trace):
    d = tmp_path_factory.mktemp("writer")
    serialize(trace, d / "columns.csv")
    serialize_trace_rows(trace, d / "cells.csv")
    assert (d / "columns.csv").read_bytes() == (d / "cells.csv").read_bytes()


def test_serialize_results_roundtrip(tmp_path):
    rows = [
        ResultRow(mode="dt", compressor="scalarized", h=0.2, s=0.02, seed=0,
                  hit_clock=8927.0, converged=True, scalars_at_hit=178540,
                  bits_at_hit=11426560, rate_emp=0.9987),
        ResultRow(mode="dt", compressor="none", h=0.2, s=0.02, seed=1,
                  hit_clock=200000.0, converged=False, scalars_at_hit=5,
                  bits_at_hit=320, rate_emp=float("nan")),
    ]
    path = tmp_path / "results.csv"
    serialize(rows, path)
    back = parse_results(path)
    assert len(back) == 2
    assert back[0] == rows[0]
    assert back[1].converged is False
    assert np.isnan(back[1].rate_emp)
    assert back[1].compressor == "none"


LABELS = st.one_of(st.sampled_from(["scalarized", "none", "uniform"]),
                   st.integers(1, 64).map(lambda k: Compressor("topk", k=k).label),
                   st.integers(1, 64).map(lambda l: Compressor("unbiased", l=l).label))
GAINS = st.one_of(SPECIAL.filter(lambda v: 0 < v < float("inf")),
                  st.floats(min_value=0, exclude_min=True, allow_infinity=False))


@st.composite
def _run_meta(draw):
    """Trace metadata with the keys and value types run_simulation writes."""
    mode = draw(st.sampled_from(["dt", "ct"]))
    horizon = st.integers(1, 10**9) if mode == "dt" else GAINS
    return {"mode": mode, "h": draw(GAINS), "s": draw(st.one_of(st.just(0.0), GAINS)),
            "dt_int": draw(GAINS), "tol": draw(GAINS), "horizon": draw(horizon),
            "seed": draw(st.integers(0, 2**63 - 1)), "compressor": draw(LABELS),
            "schedule": draw(st.sampled_from(KINDS)), "record_every": draw(st.integers(1, 10**6))}


COUNTS = st.integers(0, 2**63 - 1)


@st.composite
def _results(draw):
    """Result rows as run_experiment makes them, of every compressor,
    diverged cells included (no hit, NaN rate, infinite final error): NaN,
    infinite, -0.0 and subnormal rates, and seeds and counters past 2**53."""
    values = st.one_of(SPECIAL, st.floats())
    return [ResultRow(mode=draw(st.sampled_from(["dt", "ct"])), compressor=draw(LABELS),
                      h=draw(GAINS), s=draw(GAINS), seed=draw(COUNTS),
                      hit_clock=draw(st.floats(0, 1e9)), converged=draw(st.booleans()),
                      scalars_at_hit=draw(COUNTS), bits_at_hit=draw(COUNTS),
                      rate_emp=draw(values), final_err=draw(values))
            for _ in range(draw(st.integers(0, 12)))]


def _same(a, b):
    """Equal, with NaN equal to NaN and the types of the values equal."""
    if isinstance(a, float) and isinstance(b, float) and np.isnan(a) and np.isnan(b):
        return True
    return type(a) is type(b) and a == b


@settings(max_examples=100, deadline=None)
@given(_traces(), _run_meta())
def test_trace_round_trip_is_byte_exact(tmp_path_factory, trace, meta):
    # serialize -> parse_trace gives back every value, so serializing it
    # again writes the same bytes
    trace.meta = meta
    d = tmp_path_factory.mktemp("trip")
    serialize(trace, d / "first.csv")
    back = parse_trace(d / "first.csv")
    serialize(back, d / "second.csv")
    assert (d / "first.csv").read_bytes() == (d / "second.csv").read_bytes()
    assert back.meta.keys() == meta.keys()
    assert all(_same(back.meta[key], meta[key]) for key in meta)
    assert back.converged == trace.converged
    assert _same(back.hit_clock, trace.hit_clock) and _same(back.final_err, trace.final_err)
    for name in ("clock", "err", "disagreement", "scalars_tx_cum", "bits_tx_cum"):
        assert np.array_equal(getattr(back, name), getattr(trace, name), equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(_results())
def test_serialize_results_matches_cell_by_cell_writer(tmp_path_factory, rows):
    d = tmp_path_factory.mktemp("writer")
    serialize(rows, d / "columns.csv")
    serialize_result_rows(rows, d / "cells.csv")
    assert (d / "columns.csv").read_bytes() == (d / "cells.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(_results())
def test_results_round_trip_is_byte_exact(tmp_path_factory, rows):
    # every CSV column comes back as written; final_err is not a column
    d = tmp_path_factory.mktemp("trip")
    serialize(rows, d / "first.csv")
    back = parse_results(d / "first.csv")
    serialize(back, d / "second.csv")
    assert (d / "first.csv").read_bytes() == (d / "second.csv").read_bytes()
    assert len(back) == len(rows)
    for got, want in zip(back, rows):
        for name in RESULT_COLUMNS:
            assert _same(getattr(got, name), getattr(want, name)), name


def test_serialize_rejects_unknown_payload(tmp_path):
    with pytest.raises(TypeError):
        serialize([1, 2, 3], tmp_path / "x.csv")


TRACE_HEAD = "# mode=dt\nclock,err,disagreement,scalars_tx_cum,bits_tx_cum\n"
RESULTS_HEAD = "mode,compressor,h,s,seed,hit_clock,converged,scalars_at_hit,bits_at_hit,rate_emp\n"


@pytest.mark.parametrize("parse, text, where", [
    (parse_results, "who,what\n1,2\n", "line 1: expected the header 'mode,compressor,"),
    (parse_results, RESULTS_HEAD + "dt,none,0.2,0.02,0,3.0\n",
     "line 2: row needs 10 values, got 6"),
    (parse_results, RESULTS_HEAD + "dt,none,0.2,0.02,0,3.0,false,1,64,nan\n"
     "dt,none,0.2,x,0,3.0,false,1,64,nan\n",
     "line 3: row has a non-numeric value in 'dt,none,0.2,x,0,3.0,false,1,64,nan'"),
    (parse_results, RESULTS_HEAD + "dt,none,0.2,0.02,0,3.0,yes,1,64,nan\n",
     "line 2: row has a non-numeric value"),
    (parse_trace, TRACE_HEAD + "0.0,1.0,0.5,0\n", "line 3: row needs 5 values, got 4"),
    (parse_trace, TRACE_HEAD + "0.0,1.0,0.5,0,0\n1.0,0.5,0.2,20,1280,7\n",
     "line 4: row needs 5 values, got 6"),
    (parse_trace, TRACE_HEAD + "0.0,1.0,0.5,20.5,1312\n", "line 3: row has a non-numeric value"),
    (parse_trace, "# mode=dt\ntime,err,disagreement,scalars_tx_cum,bits_tx_cum\n0.0,1.0,0.5,0,0\n",
     "line 2: expected the header 'clock,err,disagreement,scalars_tx_cum,bits_tx_cum', "
     "got 'time,err,disagreement,scalars_tx_cum,bits_tx_cum'"),
    (parse_trace, "# mode=dt\n0.0,1.0,0.5,0,0\n", "line 2: expected the header"),
    (parse_trace, "# mode=dt\n# converged=false\n", "line 3: file ends before the header"),
    (parse_trace, TRACE_HEAD + "1.0,1.0,0.5,0,0\n0.5,0.5,0.2,20,1280\n",
     "line 4: trace clocks must be strictly increasing"),
    (parse_trace, TRACE_HEAD + "0.0,1.0,0.5,0,0\n1.0,0.5,0.2,20,1280\n2.0,0.2,0.1,20,640\n",
     "line 5: cumulative counters must be nondecreasing"),
    (parse_trace, "# mode=dt\n# oops\n" + TRACE_HEAD[10:],
     "line 2: expected '# key=value', got '# oops'"),
    (parse_trace, "#=dt\n" + TRACE_HEAD[10:], "line 1: expected '# key=value', got '#=dt'"),
    (parse_results, "# mode=dt\n" + RESULTS_HEAD, "line 1: a results file has no '#' lines"),
    (parse_trace, "# mode=dt\n# mode=ct\n" + TRACE_HEAD[10:],
     "line 2: mode already set on line 1"),
], ids=["results-header", "results-short-row", "results-text-cell", "results-bool-cell",
        "trace-short-row", "trace-long-row", "trace-fractional-counter", "trace-header",
        "trace-no-header", "trace-metadata-only", "trace-clock-back", "trace-counter-back",
        "trace-loose-comment", "trace-meta-without-key", "results-metadata",
        "trace-repeated-key"])
def test_parse_names_the_bad_line(tmp_path, parse, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}, {where}")):
        parse(path)


def test_save_load_instance_roundtrip(tmp_path, inst10):
    path = tmp_path / "instance.txt"
    save_instance(inst10, path)
    back = load_instance(path)
    assert np.array_equal(back.H, inst10.H)
    assert np.array_equal(back.b, inst10.b)
    assert np.array_equal(back.v_star, inst10.v_star)
    assert back.graph.edges == inst10.graph.edges
    assert back.seed is None


def test_load_instance_rejects_missing_solution(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("2 1\n1.0 2.0\n3.0 6.0\n0 1 1.0\n")
    with pytest.raises(ValueError, match="v_star"):
        load_instance(path)


@pytest.mark.parametrize("text,where", [
    ("", "line 1: file ends before the 'n m' header"),
    ("# only a comment\n\n", "line 3: file ends before the 'n m' header"),
    ("3 1\n1.0 2.0\n", "line 3: file ends before row 1"),
    ("1 x\n", "line 1: the 'n m' header has a non-numeric value"),
    ("2 1\n1.0 2.0\n\n3.0 six\n", "line 4: row 1 has a non-numeric value"),
    ("2 1\n1.0 2.0\n3.0\n", "line 3: row 1 needs 2 values, got 1"),
    ("2 1\n1.0 2.0\n3.0 6.0\n0 one 1.0\nv_star 2.0\n", "line 4: edge has a non-numeric"),
    ("2 1\n1.0 2.0\n3.0 6.0\n0 1 1.0\nv_star\n", "line 5: the v_star line needs 2 values"),
    ("3 1\n1 2\n2 4\n3 6\n0 1 1.0\n1 2 1.0\nv_star 2\n0 2 1.0\n",
     "line 8: unexpected line after the v_star line"),
    ("# no nodes\n0 1\n", "line 2: need n, m >= 1, got n=0, m=1"),
    ("2 0\n", "line 1: need n, m >= 1, got n=2, m=0"),
], ids=["empty", "comments-only", "short", "header-text", "row-text", "row-width",
        "edge-text", "v_star-width", "edge-after-v_star", "n-zero", "m-zero"])
def test_load_instance_names_the_bad_line(tmp_path, text, where):
    path = tmp_path / "broken.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=where):
        load_instance(path)


def test_parse_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment configuration\n"
        "graph.kind = cycle\n"
        "graph.n = 10\n"
        "instance.m = 5\n"
        "instance.v_star = 2 1 3 4 -1\n"
        "run.s = 0.02  # gain\n"
        "\n"
        "compressor.kind = topk\n"
        "compressor.k = 2\n"
    )
    cfg = parse_config(path)
    assert cfg.graph_kind == "cycle"
    assert cfg.run_s == 0.02
    assert cfg.instance_v_star == (2.0, 1.0, 3.0, 4.0, -1.0)
    assert cfg.compressor_kind == "topk" and cfg.compressor_k == 2
    # the comment line set nothing: every other field keeps its default
    assert cfg == Config(compressor_kind="topk", compressor_k=2)


def test_schedule_from_config_defaults_and_kinds(tmp_path):
    sched = Config().schedule()
    assert sched.kind == "cyclic-basis" and sched.m == 5 and sched.dwell == 0.01
    assert Config(instance_m=3, instance_v_star=(1.0, 2.0, 3.0)).schedule().m == 3
    # a trigonometric or table schedule fixes its own m, whatever instance_m
    trig = Config(schedule_kind="trigonometric", schedule_frequencies=(1.0, 2.5)).schedule()
    assert trig.frequencies == (1.0, 2.5) and trig.m == 4
    table_file = tmp_path / "table.txt"
    table_file.write_text("1 0\n0 1\n")
    tab = Config(schedule_kind="table", schedule_table_file=str(table_file)).schedule()
    assert tab.table.shape == (2, 2) and tab.m == 2
    assert tab.period_steps == 2


def test_compressor_from_config():
    assert Config().compressor().kind == "scalarized"
    comp = Config(compressor_kind="unbiased", compressor_l=3).compressor()
    assert comp.kind == "unbiased" and comp.l == 3
    assert Config(compressor_l=3).compressor("unbiased") == comp


def test_instance_from_config_default_matches_reference(inst10):
    inst = Config().instance()
    assert np.array_equal(inst.H, inst10.H)
    assert np.array_equal(inst.v_star, inst10.v_star)


def test_runconfig_from_config_defaults():
    dt_cfg = Config().run("dt")
    assert dt_cfg.horizon == 20_000 and isinstance(dt_cfg.horizon, int)
    assert dt_cfg.h == 0.2 and dt_cfg.s == 0.02 and dt_cfg.tol == 1e-2
    assert dt_cfg.compressor.kind == "scalarized"
    ct_cfg = Config().run("ct")
    assert ct_cfg.horizon == 50.0
    over = Config(run_horizon=100.0, run_tol=1e-4).run("dt")
    assert over.horizon == 100 and isinstance(over.horizon, int) and over.tol == 1e-4
    assert Config(run_horizon=20.7).run("ct").horizon == 20.7
    with pytest.raises(ValueError, match="run.horizon = 20.7 is not a whole number"):
        Config(run_horizon=20.7).run("dt")


KEYS = {f.name.replace("_", ".", 1): f.name for f in fields(Config)}
FLOATS = st.floats(allow_nan=False, allow_infinity=False)  # parse_config refuses both
VALUES = {
    str: st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_./", min_size=1,
                 max_size=12),
    int: st.integers(-10**6, 10**6),
    float: FLOATS,
    tuple[float, ...]: st.lists(FLOATS, max_size=6).map(tuple),
}


def _values(kind):
    """Strategy of (value, text) for one Config field type."""
    if typing.get_origin(kind) is not tuple:  # X | None draws an X
        kind = next((t for t in typing.get_args(kind) if t is not type(None)), kind)
    if kind == tuple[float, ...]:
        return st.tuples(VALUES[kind], st.sampled_from([" ", ", ", ","])).map(
            lambda vs: (vs[0], vs[1].join(map(repr, vs[0]))))
    return VALUES[kind].map(lambda v: (v, v if isinstance(v, str) else repr(v)))


@st.composite
def _config_files(draw):
    """A random subset of keys with valid values, laid out as a config
    file with comments, blank lines and uneven spacing."""
    keys = draw(st.lists(st.sampled_from(sorted(KEYS)), unique=True))
    keys = [k for k in keys if k not in ("instance.m", "instance.v_star")]
    types = {f.name: f.type for f in fields(Config)}
    values, texts = {}, {}
    for key in keys:
        # a seed is a non-negative int
        drawn = (st.integers(0, 10**6).map(lambda v: (v, repr(v))) if key == "run.seed"
                 else _values(types[KEYS[key]]))
        values[KEYS[key]], texts[key] = draw(drawn)
    if draw(st.booleans()):  # instance.v_star must have instance.m values
        v_star, texts["instance.v_star"] = draw(_values(tuple[float, ...]))
        values["instance_v_star"], values["instance_m"] = v_star, len(v_star)
        texts["instance.m"] = str(len(v_star))
    lines = []
    for key in draw(st.permutations(sorted(texts))):
        pad = draw(st.sampled_from(["", " ", "  ", "\t"]))
        comment = draw(st.sampled_from(["", "  # note", "# x = 1"]))
        lines.append(f"{pad}{key}{pad} ={draw(st.sampled_from(['', ' ', '   ']))}"
                     f"{texts[key]}{comment}")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   ", "#"])))
    return values, lines


@settings(max_examples=200, deadline=None)
@given(data=_config_files(), typo=st.sampled_from(["run.horizn", "graph.size", "run_h",
                                                   "schedule", "instance.v"]),
       at=st.floats(0, 1))
def test_parse_config_returns_exactly_the_written_values(tmp_path_factory, data, typo, at):
    values, lines = data
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert parse_config(path) == Config(**values)
    index = int(at * len(lines))
    path.write_text("\n".join(lines[:index] + [f"{typo} = 1"] + lines[index:]) + "\n")
    with pytest.raises(ValueError, match=f"line {index + 1}: unknown key '{typo}'"):
        parse_config(path)


@pytest.mark.parametrize("text, where", [
    ("run.h = 0.2\nrun.horizn = 20\n", "line 2: unknown key 'run.horizn'"),
    ("# size\ngraph.n 10\n", "line 2: expected 'key = value'"),
    ("graph.n = ten\n", "line 1: bad value for graph.n"),
    ("\ncompressor.k = 2.5\n", "line 2: bad value for compressor.k"),
    ("instance.v_star = 1 x\n", "line 1: bad value for instance.v_star"),
    ("instance.m = 3\n", "line 1: instance.v_star has 5 values but instance.m = 3"),
    ("instance.m = 2\n\ninstance.v_star = 1 2 3\n",
     "line 3: instance.v_star has 3 values but instance.m = 2"),
    ("graph.n = 10\ngraph.n = 12\n", "line 2: graph.n already set on line 1"),
    ("run.seed = 3\n# again\nrun.seed=3\n", "line 3: run.seed already set on line 1"),
    ("run.seed = -1\n", "line 1: bad value for run.seed: -1 is negative"),
])
def test_parse_config_names_the_bad_line(tmp_path, text, where):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}, {where}")):
        parse_config(path)


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    example = section.split("```", 2)[1]
    documented = {line.partition("=")[0].strip() for line in example.splitlines()
                  if "=" in line}
    others = section.split("Other accepted keys:", 1)[1].split("\n\n", 1)[0]
    documented |= set(re.findall(r"`([a-z_]+\.[a-z_]+)`", others))
    assert documented == set(harness._KEYS)


def test_readme_lists_the_output_columns():
    # the two headers in README's Output files section are the columns
    # that serialize writes and the readers demand
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Output files", 1)[1].split("\n## ", 1)[0]
    headers = [block.strip() for block in section.split("```")[1::2]]
    assert headers == [",".join(TRACE_COLUMNS), ",".join(RESULT_COLUMNS)]


def test_readme_lists_every_schedule_and_graph_kind():
    # the Layout table names the kinds that the package accepts, no more
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    schedules = re.search(r"direction schedules \(([^;)]*)", readme).group(1).split(", ")
    assert tuple(schedules) == KINDS
    graphs = re.search(r"`build_graph` \(([^)]*)\)", readme).group(1).split(", ")
    built = re.findall(r'kind == "([\w-]+)"', inspect.getsource(build_graph))
    assert graphs == built
    for kind in graphs:
        assert build_graph(kind, 4).n == 4


def test_readme_cli_lines_parse(tmp_path, monkeypatch):
    # every `scalareq ...` line of README's CLI section parses against the
    # CLI, with README's typical config file as run.cfg, so a flag the CLI
    # no longer takes cannot stay in the docs; the handlers only record
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI", 1)[1].split("\n## ", 1)[0]
    typical = readme.split("## Config format", 1)[1].split("```", 2)[1]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(typical)
    called = []
    for name in [name for name in vars(cli) if name.startswith("_cmd_")]:
        monkeypatch.setattr(cli, name, lambda args, name=name: called.append(name) or 0)
    lines = [line for line in section.replace("\\\n", " ").splitlines()
             if line.startswith("scalareq ")]
    for line in lines:
        try:
            code = cli.main(shlex.split(line)[1:])
        except SystemExit as exc:
            code = exc.code
        assert code == 0, line
    commands = [shlex.split(line)[1] for line in lines]
    assert called == ["_cmd_" + c.replace("-", "_") for c in commands]
    assert set(commands) == {"gen", "run", "compare", "bounds", "pe-check"}


def test_run_experiment_grid():
    rows = run_experiment(Config(run_horizon=300, run_tol=1e-300), "dt", ("scalarized", "none"),
                          (0.02,), (0, 1), 50)
    assert len(rows) == 4
    by_comp = {}
    for row in rows:
        assert row.mode == "dt" and row.h == 0.2 and not row.converged
        assert row.hit_clock == 300
        assert row.rate_emp < 1.0
        by_comp.setdefault(row.compressor, []).append(row)
    scal, bits = account(Compressor("scalarized"), 5)
    assert all(r.scalars_at_hit == 300 * 20 * scal for r in by_comp["scalarized"])
    scal, bits = account(Compressor("none"), 5)
    assert all(r.bits_at_hit == 300 * 20 * bits for r in by_comp["none"])


def test_reference_grid_hit_clocks_match_stepwise_oracle():
    # the dt reference grid: every cell hits (or misses) its tolerance at
    # the step, and with the scalars, that a one-step-at-a-time run gives
    config = Config(run_tol=1e-2, run_horizon=2000)
    rows = run_experiment(config, "dt", ("scalarized", "none"), (0.02, 0.002, 0.0005),
                          (0, 1, 2, 3, 4), 1)
    assert len(rows) == 30
    schedule = config.schedule()
    for row in rows:
        kind = "none" if row.compressor == "none" else "scalarized"
        cfg = replace(config.run("dt"), s=row.s, seed=row.seed, compressor=config.compressor(kind),
                      record_every=2000)
        oracle = run_simulation_stepwise(config.instance(row.seed), schedule, cfg, "dt")
        assert row.converged == oracle.converged
        assert row.hit_clock == (oracle.hit_clock if oracle.converged else 2000)
        assert row.scalars_at_hit == oracle.scalars_tx_cum[-1]
    assert any(row.converged for row in rows) and not all(row.converged for row in rows)


def test_run_experiment_isolates_divergence():
    rows = run_experiment(Config(run_horizon=100, run_tol=1e-2), "dt", ("scalarized", "none"),
                          (0.02, 5.0), (0,), 10)
    assert len(rows) == 4
    diverged = [r for r in rows if r.s == 5.0]
    healthy = [r for r in rows if r.s == 0.02]
    assert len(diverged) == 2
    for row in diverged:
        assert not row.converged
        assert row.hit_clock == 100
        assert np.isinf(row.final_err)
        assert np.isnan(row.rate_emp)
    for row in healthy:
        assert np.isfinite(row.final_err)
