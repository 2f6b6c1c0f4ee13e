import numpy as np
import pytest

from scalareq.cli import main
from scalareq.harness import load_instance, parse_results, parse_trace


def _write_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(
        "graph.kind = cycle\n"
        "graph.n = 10\n"
        "instance.m = 5\n"
        "instance.v_star = 2 1 3 4 -1\n"
        "schedule.kind = cyclic-basis\n"
        "schedule.dwell = 0.01\n"
        "run.h = 0.2\n"
        "run.s = 0.02\n"
        + extra
    )
    return str(path)


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    rc = main(["gen", "--out", str(out), "--n", "6", "--m", "2",
               "--v-star", "1,-2", "--seed", "1", "--graph", "path"])
    assert rc == 0
    assert "wrote instance n=6 m=2" in capsys.readouterr().out
    inst = load_instance(str(out))
    assert inst.n == 6 and inst.m == 2
    assert np.array_equal(inst.v_star, [1.0, -2.0])
    assert len(inst.graph.edges) == 5


def test_run_writes_trace(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.horizon = 200\nrun.tol = 1e-300\n")
    out = tmp_path / "trace.csv"
    rc = main(["run", "--config", cfg, "--mode", "dt", "--out", str(out)])
    assert rc == 0
    assert "not converged" in capsys.readouterr().out
    tr = parse_trace(str(out))
    assert len(tr) == 201
    assert tr.meta["mode"] == "dt"
    assert not tr.converged


def test_run_accepts_instance_file(tmp_path):
    inst_path = tmp_path / "inst.txt"
    main(["gen", "--out", str(inst_path)])
    cfg = _write_config(tmp_path, "run.horizon = 50\nrun.tol = 1e-300\n")
    out = tmp_path / "trace.csv"
    rc = main(["run", "--config", cfg, "--mode", "dt",
               "--instance", str(inst_path), "--out", str(out)])
    assert rc == 0
    assert len(parse_trace(str(out))) == 51


def test_run_continuous_mode(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.horizon = 0.2\nrun.tol = 1e-300\nrun.s = 1.0\n")
    out = tmp_path / "trace.csv"
    rc = main(["run", "--config", cfg, "--mode", "ct", "--out", str(out)])
    assert rc == 0
    tr = parse_trace(str(out))
    assert tr.clock[-1] == pytest.approx(0.2, abs=1e-12)


def test_run_large_network_applies_structured_operator(tmp_path):
    # n m = 10^4: dense one-step maps would need 10 x 800 MB, the
    # structured exchange needs O(n^2 + n m) memory
    cfg = _write_config(tmp_path, "graph.n = 1000\ninstance.m = 10\n"
                        "instance.v_star = 2 1 3 4 -1 0 1 -2 3 1\n"
                        "run.horizon = 50\nrun.tol = 1e-300\n")
    out = tmp_path / "trace.csv"
    rc = main(["run", "--config", cfg, "--mode", "dt", "--out", str(out)])
    assert rc == 0
    tr = parse_trace(str(out))
    assert len(tr) == 51
    assert tr.scalars_tx_cum[-1] == 50 * 2000
    assert np.all(np.isfinite(tr.err)) and tr.err[-1] < tr.err[0]


def test_compare_writes_results(tmp_path, capsys):
    cfg = _write_config(tmp_path, "run.horizon = 200\n")
    out = tmp_path / "results.csv"
    rc = main(["compare", "--config", cfg, "--mode", "dt", "--seeds", "0",
               "--s-list", "0.02", "--record-every", "50", "--out", str(out)])
    assert rc == 0
    assert "2 result rows" in capsys.readouterr().out
    rows = parse_results(str(out))
    assert {r.compressor for r in rows} == {"scalarized", "none"}
    assert all(r.s == 0.02 for r in rows)


def test_bounds_prints_constants(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["bounds", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    for key in ("gamma", "c", "gamma_f", "alpha_bar", "alpha_prime",
                "k_x", "gamma_x", "g", "s_star"):
        assert f"{key} = " in out
    lines = out.strip().splitlines()
    header, row = lines[-2].split(","), lines[-1].split(",")
    assert len(header) == len(row)
    assert all(np.isfinite(float(v)) for v in row)


def test_bounds_rejects_identity_schedule(tmp_path, capsys):
    cfg = _write_config(tmp_path, "schedule.kind = identity\n")
    rc = main(["bounds", "--config", cfg])
    assert rc == 2
    assert "unit-vector schedule" in capsys.readouterr().err


def test_pe_check_passes_for_cyclic(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    rc = main(["pe-check", "--config", cfg, "--domain", "ct", "--window", "0.05"])
    assert rc == 0
    assert "PE witness" in capsys.readouterr().out
    rc = main(["pe-check", "--config", cfg, "--domain", "dt", "--window", "5"])
    assert rc == 0


def test_pe_check_fails_for_frozen_vector(tmp_path, capsys):
    table_file = tmp_path / "table.txt"
    table_file.write_text("1 0\n")
    cfg = _write_config(tmp_path,
                        "schedule.kind = table\n"
                        "schedule.m = 2\n"
                        f"schedule.table_file = {table_file}\n")
    rc = main(["pe-check", "--config", cfg, "--domain", "dt", "--window", "5"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "gram eigenvalues" in out
