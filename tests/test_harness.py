import numpy as np
import pytest

from scalareq.compression import Compressor, make_schedule
from scalareq.dynamics import RunConfig, Trace, run_simulation
from scalareq.errors import RankDeficientError
from scalareq.graph import build_graph
from scalareq.harness import (ExperimentSpec, ProblemInstance, ResultRow,
                              account, compressor_from_config, fit_rate,
                              gen_instance, instance_from_config,
                              load_instance, parse_config, parse_results,
                              parse_trace, run_experiment,
                              runconfig_from_config, save_instance,
                              schedule_from_config, serialize)
from scalareq.linalg import least_squares

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
    assert np.abs(least_squares(inst10.H, inst10.b) - V_STAR).max() < 1e-9


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


def test_gen_instance_validation():
    with pytest.raises(ValueError, match="length"):
        gen_instance(10, 5, (1.0, 2.0))
    with pytest.raises(ValueError, match="n >= m"):
        gen_instance(3, 5, V_STAR)


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


def test_account_conventions():
    assert account("scalarized", 5) == (1, 64)
    assert account("none", 5) == (5, 320)
    assert account("uniform", 5) == (5, 320)
    assert account("topk", 5, k_top=2) == (4, 134)
    assert account("unbiased", 5, l=2) == (6, 74)
    assert account(Compressor("topk", k=2), 5) == (4, 134)
    assert account(Compressor("unbiased", l=2), 5) == (6, 74)
    # scalar states carry no index bits
    assert account("topk", 1, k_top=1) == (2, 64)


def test_account_validation():
    with pytest.raises(ValueError, match="topk"):
        account("topk", 5)
    with pytest.raises(ValueError, match="unbiased"):
        account("unbiased", 5)
    with pytest.raises(ValueError, match="unknown"):
        account("wavelet", 5)


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


def test_serialize_rejects_unknown_payload(tmp_path):
    with pytest.raises(TypeError):
        serialize([1, 2, 3], tmp_path / "x.csv")


def test_parse_results_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("who,what\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        parse_results(path)


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
], ids=["empty", "comments-only", "short", "header-text", "row-text", "row-width",
        "edge-text", "v_star-width"])
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
    assert cfg["graph.kind"] == "cycle"
    assert cfg["run.s"] == "0.02"
    assert cfg["instance.v_star"] == "2 1 3 4 -1"
    assert "experiment" not in cfg


def test_schedule_from_config_defaults_and_kinds(tmp_path):
    sched = schedule_from_config({})
    assert sched.kind == "cyclic-basis" and sched.m == 5 and sched.dwell == 0.01
    assert schedule_from_config({"instance.m": "3"}).m == 3
    trig = schedule_from_config({
        "schedule.kind": "trigonometric", "schedule.m": "4",
        "schedule.frequencies": "1, 2.5",
    })
    assert trig.frequencies == (1.0, 2.5)
    table_file = tmp_path / "table.txt"
    table_file.write_text("1 0\n0 1\n")
    tab = schedule_from_config({
        "schedule.kind": "table", "schedule.m": "2",
        "schedule.table_file": str(table_file),
    })
    assert tab.table.shape == (2, 2)
    assert tab.period_steps == 2


def test_compressor_from_config():
    assert compressor_from_config({}).kind == "scalarized"
    comp = compressor_from_config({"compressor.kind": "unbiased", "compressor.l": "3"})
    assert comp.kind == "unbiased" and comp.l == 3


def test_instance_from_config_default_matches_reference(inst10):
    inst = instance_from_config({})
    assert np.array_equal(inst.H, inst10.H)
    assert np.array_equal(inst.v_star, inst10.v_star)


def test_runconfig_from_config_defaults():
    dt_cfg = runconfig_from_config({}, "dt")
    assert dt_cfg.horizon == 20_000 and isinstance(dt_cfg.horizon, int)
    assert dt_cfg.h == 0.2 and dt_cfg.s == 0.02 and dt_cfg.tol == 1e-2
    assert dt_cfg.compressor.kind == "scalarized"
    ct_cfg = runconfig_from_config({}, "ct")
    assert ct_cfg.horizon == 50.0
    over = runconfig_from_config({"run.horizon": "100", "run.tol": "1e-4"}, "dt")
    assert over.horizon == 100 and over.tol == 1e-4


def test_run_experiment_grid():
    spec = ExperimentSpec(schedule=SCHED5, s_values=(0.02,), seeds=(0, 1),
                          horizon=300, tol=1e-300, record_every=50)
    rows = run_experiment(spec)
    assert len(rows) == 4
    by_comp = {}
    for row in rows:
        assert row.mode == "dt" and row.h == 0.2 and not row.converged
        assert row.hit_clock == 300
        assert row.rate_emp < 1.0
        by_comp.setdefault(row.compressor, []).append(row)
    scal, bits = account("scalarized", 5)
    assert all(r.scalars_at_hit == 300 * 20 * scal for r in by_comp["scalarized"])
    scal, bits = account("none", 5)
    assert all(r.bits_at_hit == 300 * 20 * bits for r in by_comp["none"])


def test_run_experiment_isolates_divergence():
    spec = ExperimentSpec(schedule=SCHED5, s_values=(0.02, 5.0), seeds=(0,),
                          horizon=100, tol=1e-2, record_every=10)
    rows = run_experiment(spec)
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
