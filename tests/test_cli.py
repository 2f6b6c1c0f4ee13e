import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalareq
from scalareq.cli import main
from scalareq.harness import load_instance, parse_config, parse_results, parse_trace


BASE_CONFIG = ("graph.kind = cycle", "graph.n = 10", "instance.m = 5",
               "instance.v_star = 2 1 3 4 -1", "schedule.kind = cyclic-basis",
               "schedule.dwell = 0.01", "run.h = 0.2", "run.s = 0.02")


def _write_config(tmp_path, extra="", name="run.cfg"):
    """The reference config, then the lines of extra. A config sets each
    key once, so a line whose key a later line sets again is commented
    out; every line keeps its number."""
    path = tmp_path / name
    lines = [*BASE_CONFIG, *extra.splitlines()]
    keys = [line.partition("=")[0].strip() for line in lines]
    path.write_text("".join(f"# {line}\n" if key in keys[i + 1:] else f"{line}\n"
                            for i, (line, key) in enumerate(zip(lines, keys))))
    return str(path)


GEN_6X2 = ("graph.kind = path\ngraph.n = 6\ninstance.m = 2\ninstance.v_star = 1 -2\n"
           "run.seed = 1\n")


def test_gen_writes_instance(tmp_path, capsys):
    cfg = _write_config(tmp_path, GEN_6X2)
    out = tmp_path / "inst.txt"
    rc = main(["gen", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "wrote instance n=6 m=2 seed=1" in capsys.readouterr().out
    inst = load_instance(str(out))
    assert inst.n == 6 and inst.m == 2
    assert np.array_equal(inst.v_star, [1.0, -2.0])
    assert len(inst.graph.edges) == 5
    # the instance that run --config simulates, drawn with run.seed
    assert np.array_equal(inst.H, parse_config(cfg).instance().H)


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
    cfg = _write_config(tmp_path, "run.horizon = 50\nrun.tol = 1e-300\n")
    main(["gen", "--config", cfg, "--out", str(inst_path)])
    out = tmp_path / "trace.csv"
    rc = main(["run", "--config", cfg, "--mode", "dt",
               "--instance", str(inst_path), "--out", str(out)])
    assert rc == 0
    assert len(parse_trace(str(out))) == 51


@pytest.mark.parametrize("mode, extra", [
    ("dt", "run.horizon = 300\n"),
    ("ct", "run.horizon = 0.3\nrun.s = 1.0\n"),
])
def test_run_of_the_generated_instance_writes_the_same_trace(tmp_path, mode, extra):
    # gen --config writes the instance that run --config simulates
    cfg = _write_config(tmp_path, extra + "run.tol = 1e-300\n")
    inst_path, drawn, loaded = (tmp_path / name for name in ("inst.txt", "a.csv", "b.csv"))
    assert main(["gen", "--config", cfg, "--out", str(inst_path)]) == 0
    assert main(["run", "--config", cfg, "--mode", mode, "--out", str(drawn)]) == 0
    assert main(["run", "--config", cfg, "--mode", mode, "--instance", str(inst_path),
                 "--out", str(loaded)]) == 0
    assert drawn.read_bytes() == loaded.read_bytes()


def test_pe_check_ignores_a_stale_table_file(tmp_path, monkeypatch, capsys):
    # only a table schedule reads schedule.table_file (a missing one is the
    # missing-table case of test_config_building_error_exits_2_in_one_line)
    monkeypatch.chdir(tmp_path)
    cfg = _write_config(tmp_path, "schedule.table_file = nothere.txt\n")
    assert main(["pe-check", "--config", cfg, "--window", "0.05"]) == 0
    assert capsys.readouterr().out.startswith("PE witness: alpha=0.01 ")


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


def test_bounds_prints_beta_below_s_star(tmp_path, capsys):
    # run.s inside the certified range (0, s*) adds the per-step decrease
    # beta and the rate gamma_d = 1 - beta
    cfg = _write_config(tmp_path, "run.s = 1e-10\n")
    assert main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    assert "beta" in values and "gamma_d" in values
    s_star, beta, gamma_d = (float(values[key]) for key in ("s_star", "beta", "gamma_d"))
    assert 1e-10 < s_star
    assert 0 < beta < 1
    assert gamma_d == 1 - beta


def test_bounds_rejects_identity_schedule(tmp_path, capsys):
    # the uncompressed exchange is compressor.kind = none, not a schedule
    cfg = _write_config(tmp_path, "schedule.kind = identity\n")
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", cfg])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == ("scalareq: error: unknown schedule kind 'identity'; expected one "
                            "of ('cyclic-basis', 'trigonometric', 'table')\n")
    assert captured.out == ""


def test_schedule_m_is_an_unknown_key(tmp_path, capsys):
    # a schedule fixes its own m: from its frequencies, its table or instance.m
    cfg = _write_config(tmp_path, "schedule.m = 4\n")
    with pytest.raises(SystemExit) as exc:
        main(["pe-check", "--config", cfg, "--window", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"scalareq: error: {cfg}, line 9: unknown key 'schedule.m'\n"


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
                        f"schedule.table_file = {table_file}\n")
    rc = main(["pe-check", "--config", cfg, "--domain", "dt", "--window", "5"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "gram eigenvalues" in out
    # a rank-one table, whose gram rounds to an eigenvalue of 1.5e-10 at 1e6
    table_file.write_text("0.6 0.8\n-0.6 -0.8\n0.6 0.8\n")
    rc = main(["pe-check", "--config", cfg, "--domain", "ct", "--window", "1e6"])
    assert rc == 1
    assert capsys.readouterr().out.startswith("FAIL: schedule is not persistently exciting")


@pytest.mark.parametrize("command", [
    ["run", "--mode", "dt", "--out", "trace.csv"],
    ["compare", "--mode", "dt", "--seeds", "0", "--out", "results.csv"],
    ["bounds"],
    ["pe-check", "--window", "5"],
])
def test_config_error_exits_2_naming_the_line(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, "run.horizon = 50\nrun.horizn = 20\n")
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--config", cfg] + command[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{cfg}, line 10: unknown key 'run.horizn'" in err


@pytest.mark.parametrize("kind, extra", [
    ("scalarized", ""), ("none", ""),
    ("topk", "compressor.k = 3\n"), ("unbiased", "compressor.l = 3\n"),
])
def test_compare_cell_equals_run_of_the_same_config(tmp_path, kind, extra):
    cfg = _write_config(tmp_path, f"compressor.kind = {kind}\n{extra}"
                        "run.seed = 3\nrun.horizon = 3000\nrun.tol = 0.05\n")
    trace_out, results_out = tmp_path / "trace.csv", tmp_path / "results.csv"
    assert main(["run", "--config", cfg, "--mode", "dt", "--out", str(trace_out)]) == 0
    assert main(["compare", "--config", cfg, "--mode", "dt", "--compressors", kind,
                 "--seeds", "3", "--out", str(results_out)]) == 0
    tr, (row,) = parse_trace(str(trace_out)), parse_results(str(results_out))
    assert row.converged == tr.converged == (kind in ("scalarized", "none"))
    assert row.hit_clock == (tr.hit_clock if tr.converged else tr.clock[-1])
    assert row.scalars_at_hit == tr.scalars_tx_cum[-1]
    assert row.s == tr.meta["s"] and row.h == tr.meta["h"]


@pytest.mark.parametrize("kind, missing", [("topk", "k"), ("unbiased", "l")])
def test_compare_takes_compressor_settings_from_the_config(tmp_path, capsys, kind, missing):
    cfg = _write_config(tmp_path, "run.horizon = 50\n")
    with pytest.raises(SystemExit) as compare_exit:
        main(["compare", "--config", cfg, "--mode", "dt", "--compressors", kind,
              "--seeds", "0", "--out", str(tmp_path / "r.csv")])
    compare_err = capsys.readouterr().err
    cfg = _write_config(tmp_path, f"compressor.kind = {kind}\nrun.horizon = 50\n")
    with pytest.raises(SystemExit) as run_exit:
        main(["run", "--config", cfg, "--mode", "dt", "--out", str(tmp_path / "t.csv")])
    run_err = capsys.readouterr().err
    assert compare_exit.value.code == run_exit.value.code == 2
    assert f"needs {missing} >= 1" in run_err
    assert compare_err == run_err


@pytest.mark.parametrize("command, extra, message", [
    (["run", "--mode", "dt", "--out", "t.csv"], "run.horizon = 20.7\n",
     "run.horizon = 20.7 is not a whole number of dt steps"),
    (["run", "--mode", "dt", "--out", "t.csv"], "compressor.kind = topk\n",
     "topk compressor needs k >= 1"),
    (["compare", "--mode", "dt", "--compressors", "topk", "--seeds", "0", "--out", "r.csv"],
     "", "topk compressor needs k >= 1"),
    (["run", "--mode", "dt", "--out", "t.csv"], "graph.n = 3\n", "need n >= m, got n=3, m=5"),
    (["pe-check", "--window", "5"], "schedule.kind = table\nschedule.table_file = missing.txt\n",
     "schedule.table_file = missing.txt: "),
    (["bounds"], "schedule.kind = table\nschedule.table_file = {bad}\n",
     "schedule.table_file = {bad}: "),
    (["run", "--mode", "ct", "--out", "t.csv"], "schedule.kind = trigonometric\n",
     "trigonometric schedule needs at least one frequency"),
    (["run", "--mode", "dt", "--out", "t.csv"], "schedule.kind = identity\n",
     "unknown schedule kind 'identity'"),
    (["run", "--mode", "dt", "--out", "t.csv"], "graph.kind = custom\n",
     "unknown graph kind 'custom'"),
    (["bounds"], "graph.kind = custom\n", "unknown graph kind 'custom'"),
    (["run", "--mode", "dt", "--out", "t.csv"], "run.h = 5.0\n",
     "stepsize h=5.0 violates h < 2/lambda_n = 0.5"),
    (["bounds"], "run.h = 5.0\n", "need 0 < h < 2/lambda_n = 0.5, got 5.0"),
    (["run", "--mode", "dt", "--out", "t.csv"], "compressor.kind = topk\ncompressor.k = 9\n",
     "topk accounting needs 1 <= k <= 5, got 9"),
    (["run", "--mode", "ct", "--out", "t.csv"], "compressor.kind = topk\ncompressor.k = 2\n",
     "continuous runs support the scalarized or none compressors only"),
    (["compare", "--mode", "ct", "--seeds", "0", "--out", "r.csv"], "run.dt_int = 0.003\n",
     "dt_int=0.003 must subdivide the schedule dwell 0.01"),
    (["compare", "--mode", "dt", "--seeds", "0", "--record-every", "0", "--out", "r.csv"], "",
     "record_every must be >= 1"),
    (["compare", "--mode", "dt", "--seeds", "0", "--s-list", "-1", "--out", "r.csv"], "",
     "need s >= 0, got -1.0"),
    (["bounds"], "run.s = 0\n", "need s > 0, got 0.0"),
    (["bounds"], "schedule.kind = table\nschedule.table_file = {rows2}\n",
     "schedule is not persistently exciting"),
    (["bounds"], "graph.n = 1\ninstance.m = 1\ninstance.v_star = 2\n",
     "spectral analysis needs n >= 2"),
    # a non-finite float is refused with its file, line and key ({bad.parent}
    # is the directory of the config file)
    (["run", "--mode", "dt", "--out", "t.csv"], "run.h = nan\n",
     "{bad.parent}/run.cfg, line 10: bad value for run.h: nan is not a finite number"),
    (["run", "--mode", "ct", "--out", "t.csv"], "schedule.dwell = nan\n",
     "{bad.parent}/run.cfg, line 10: bad value for schedule.dwell: nan is not a finite number"),
    (["run", "--mode", "ct", "--out", "t.csv"], "run.dt_int = nan\n",
     "{bad.parent}/run.cfg, line 10: bad value for run.dt_int: nan is not a finite number"),
    (["run", "--mode", "dt", "--out", "t.csv"], "run.tol = NaN\n",
     "{bad.parent}/run.cfg, line 10: bad value for run.tol: NaN is not a finite number"),
    (["bounds"], "run.s = inf\n",
     "{bad.parent}/run.cfg, line 10: bad value for run.s: inf is not a finite number"),
    (["run", "--mode", "dt", "--out", "t.csv"], "instance.v_star = 2 1 -inf 4 -1\n",
     "{bad.parent}/run.cfg, line 10: bad value for instance.v_star: -inf is not a finite number"),
    # a negative seed is refused where it is read, naming the key or the flag
    (["run", "--mode", "dt", "--out", "t.csv"], "run.seed = -1\n",
     "{bad.parent}/run.cfg, line 10: bad value for run.seed: -1 is negative"),
    (["compare", "--mode", "dt", "--seeds=-3", "--out", "r.csv"], "", "--seeds -3 is negative"),
], ids=["dt-horizon", "run-topk-without-k", "compare-topk-without-k", "n-below-m",
        "missing-table", "malformed-table", "trig-without-frequencies",
        "run-identity-schedule", "run-custom-graph", "bounds-custom-graph",
        "run-h-unstable", "bounds-h-unstable", "run-topk-k-above-m", "run-ct-topk",
        "compare-ct-dt-int", "compare-record-every-0", "compare-negative-s", "bounds-s-0",
        "bounds-not-exciting-table", "bounds-one-node", "run-h-nan", "run-ct-dwell-nan",
        "run-ct-dt-int-nan", "run-tol-nan", "bounds-s-inf", "run-v-star-inf",
        "run-seed-negative", "compare-seeds-negative"])
def test_config_building_error_exits_2_in_one_line(tmp_path, monkeypatch, capsys,
                                                  command, extra, message):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 x\n")
    rows2 = tmp_path / "rows2.txt"  # e1, e2 of m = 5: not persistently exciting
    rows2.write_text("1 0 0 0 0\n0 1 0 0 0\n")
    cfg = _write_config(tmp_path, "run.horizon = 20\n" + extra.format(bad=bad, rows2=rows2))
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--config", cfg] + command[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"scalareq: error: {message.format(bad=bad)}")


def test_bounds_takes_the_svds_of_rank_check_only(tmp_path, monkeypatch, capsys):
    # the instance takes one SVD, of H, when it is built; rho_m and h_M
    # are read off the sigma_m it keeps, not from a second SVD
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda M, **kwargs: shapes.append(M.shape) or svd(M, **kwargs))
    assert main(["bounds", "--config", _write_config(tmp_path)]) == 0
    assert shapes == [(10, 5)]


def test_internal_error_keeps_its_traceback(tmp_path, monkeypatch):
    # a failed consistency check is the program's fault, not the user's
    monkeypatch.setattr(scalareq.theory, "TELESCOPE_TOL", -1.0)
    with pytest.raises(RuntimeError, match="grammian telescoping identity violated"):
        main(["bounds", "--config", _write_config(tmp_path)])


def test_module_entry_exits_2_in_one_line(tmp_path):
    cfg = _write_config(tmp_path, "run.h = 5.0\n")
    src = str(Path(scalareq.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "scalareq.cli", "bounds", "--config", cfg],
                          capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("scalareq: error: need 0 < h < 2/lambda_n = 0.5, got 5.0")


def test_consecutive_main_calls_in_one_process_both_succeed(tmp_path, capsys):
    # main builds its parser once per process; a second call with another
    # subcommand parses its own flags and runs its own handler
    cfg = _write_config(tmp_path, "run.horizon = 20\n")
    assert main(["bounds", "--config", cfg]) == 0
    assert main(["run", "--config", cfg, "--mode", "dt", "--out", str(tmp_path / "t.csv")]) == 0
    assert main(["pe-check", "--config", cfg, "--window", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "s_star = " in out and "21 rows" in out and "PE witness: alpha=" in out


def test_import_loads_no_third_party_module_but_numpy(tmp_path):
    # CI installs numpy alone; a module another package provides (scipy, say)
    # would import here, where it may be installed, and fail only there
    src = str(Path(scalareq.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import scalareq, scalareq.cli; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"numpy", "scalareq"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "scalareq"} == set()


def test_run_rejects_schedule_of_another_dimension(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    main(["gen", "--config", _write_config(tmp_path, GEN_6X2, "gen.cfg"), "--out", str(inst_path)])
    cfg = _write_config(tmp_path, "run.horizon = 50\n")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", cfg, "--mode", "dt", "--instance", str(inst_path),
              "--out", str(tmp_path / "trace.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == \
        "scalareq: error: schedule has m=5 but the instance has m=2\n"


# one non-finite value in a valid 3-node, m = 1 instance: (name, line,
# its text, what the line holds). Read without a finite check, these end
# in "matrix has non-finite entries", "SVD did not converge" or a diverged
# run, none of which names the file
VALID_INSTANCE = ("3 1", "1 2", "2 4", "3 6", "0 1 1.0", "1 2 1.0", "v_star 2")
NON_FINITE_INSTANCES = (("weight-nan", 5, "0 1 nan", "edge"), ("weight-inf", 6, "1 2 inf", "edge"),
                        ("h-nan", 2, "nan 2", "row 0"), ("b-inf", 3, "2 inf", "row 1"),
                        ("v-star-nan", 7, "v_star nan", "the v_star line"))


@pytest.mark.parametrize("argv, extra, code, message", [
    (["run", "--mode", "dt", "--out", "t.csv"], "run.s = 5.0\n", 1,
     r"run diverged: state norm \d\.\d{3}e\+\d\d beyond guard at step 7"),
    (["run", "--mode", "dt", "--instance", "short.txt", "--out", "t.csv"], "", 2,
     r"--instance: short\.txt, line 3: file ends before row 1"),
    (["run", "--mode", "dt", "--instance", "rank1.txt", "--out", "t.csv"], "", 2,
     r"--instance: instance invalid: rank\(H\) < 2: "),
    (["run", "--mode", "dt", "--instance", "wrong-v-star.txt", "--out", "t.csv"],
     "instance.m = 1\ninstance.v_star = 2\n", 2,
     r"--instance: instance invalid: v_star does not solve H v = b: backward error "),
    (["gen", "--out", "i.txt"], "instance.m = 2\n", 2,
     r"\S*run\.cfg, line 4: instance\.v_star has 5 values but instance\.m = 2"),
    (["gen", "--out", "i.txt"], "graph.n = 1\n", 2, r"need n >= m, got n=1, m=5"),
    (["run", "--mode", "dt", "--instance", "tail.txt", "--out", "t.csv"], "", 2,
     r"--instance: tail\.txt, line 8: unexpected line after the v_star line"),
] + [
    (["run", "--mode", "dt", "--instance", f"{name}.txt", "--out", "t.csv"],
     "instance.m = 1\ninstance.v_star = 2\n", 2,
     rf"--instance: {name}\.txt, line {no}: {what} has a non-finite value in ")
    for name, no, _, what in NON_FINITE_INSTANCES
], ids=["diverges", "short-instance", "rank-deficient-instance", "wrong-v-star",
        "gen-m-without-v-star",
        "gen-n-below-m", "edge-after-v-star"] + [f"instance-{c[0]}" for c in NON_FINITE_INSTANCES])
def test_bad_run_or_input_ends_in_one_line(tmp_path, monkeypatch, capsys,
                                           argv, extra, code, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "short.txt").write_text("2 1\n1.0 2.0\n")
    (tmp_path / "rank1.txt").write_text("2 2\n1 1 2\n2 2 4\n0 1 1.0\nv_star 1 1\n")
    (tmp_path / "tail.txt").write_text("3 1\n1 2\n2 4\n3 6\n0 1 1.0\n1 2 1.0\nv_star 2\n0 2 1.0\n")
    (tmp_path / "wrong-v-star.txt").write_text("\n".join(VALID_INSTANCE[:-1] + ("v_star 2.5",)) + "\n")
    for name, no, text, _ in NON_FINITE_INSTANCES:
        lines = VALID_INSTANCE[:no - 1] + (text,) + VALID_INSTANCE[no:]
        (tmp_path / f"{name}.txt").write_text("\n".join(lines) + "\n")
    argv = [argv[0], "--config", _write_config(tmp_path, "run.horizon = 50\n" + extra)] + argv[1:]
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(f"scalareq: error: {message}.*\n", err)


def _three_column_table(tmp_path):
    table = tmp_path / "table3.txt"
    table.write_text("1 0 0\n0 1 0\n0 0 1\n")
    return f"schedule.kind = table\nschedule.table_file = {table}\n"


def test_bounds_rejects_schedule_of_another_dimension(tmp_path, capsys):
    cfg = _write_config(tmp_path, "instance.m = 2\ninstance.v_star = 1 -2\n"
                                  + _three_column_table(tmp_path))
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", cfg])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "scalareq: error: schedule has m=3 but the instance has m=2\n"
    assert captured.out == ""


def test_compare_rejects_schedule_of_another_dimension(tmp_path, capsys):
    cfg = _write_config(tmp_path, "instance.m = 2\ninstance.v_star = 1 -2\nrun.horizon = 50\n"
                                  + _three_column_table(tmp_path))
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", cfg, "--mode", "dt", "--seeds", "0", "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "scalareq: error: schedule has m=3 but the instance has m=2\n"
    assert captured.out == "" and not out.exists()


TRIG_SCHEDULE = "schedule.kind = trigonometric\nschedule.frequencies = 1 2\n"


def _assert_pe_check_usage_error(capsys, cfg, args):
    with pytest.raises(SystemExit) as exc:
        main(["pe-check", "--config", cfg] + args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("scalareq: error: --window ")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("args", [
    ["--domain", "dt", "--window", "5.9"],
    ["--domain", "ct", "--window", "0"],
    ["--domain", "dt", "--window", "0"],
    ["--domain", "ct", "--window", "-1"],
    ["--domain", "dt", "--window", "-1"],
    ["--domain", "ct", "--window", "nan"],
    ["--domain", "ct", "--window", "inf"],
    ["--domain", "dt", "--window", "inf"],
])
def test_pe_check_rejects_bad_arguments(tmp_path, capsys, args):
    _assert_pe_check_usage_error(capsys, _write_config(tmp_path), args)


def test_pe_check_rejects_infinite_window_on_trigonometric_schedule(tmp_path, capsys):
    _assert_pe_check_usage_error(capsys, _write_config(tmp_path, TRIG_SCHEDULE),
                                 ["--window", "inf"])


@pytest.mark.parametrize("domain,extra", [("ct", ""), ("dt", ""), ("ct", TRIG_SCHEDULE)],
                         ids=["ct-", "dt-", "ct-trigonometric"])
def test_pe_check_long_window_costs_no_more(tmp_path, capsys, domain, extra):
    # whole periods of a window are summed in closed form, so 1e300 is quick
    cfg = _write_config(tmp_path, extra)
    assert main(["pe-check", "--config", cfg, "--domain", domain, "--window", "1e300"]) == 0
    assert "PE witness" in capsys.readouterr().out


TRIG_INSTANCE = "instance.m = 4\ninstance.v_star = 2 1 3 4\n" + TRIG_SCHEDULE


@pytest.mark.parametrize("window", ["1e9", "1e300"])
def test_pe_check_dt_trigonometric_returns_at_any_window(tmp_path, window):
    # the discrete gram is a Dirichlet kernel in closed form, where a sum
    # over the window's steps would not return
    cfg = _write_config(tmp_path, TRIG_INSTANCE)
    src = str(Path(scalareq.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "scalareq.cli", "pe-check", "--config", cfg,
                           "--domain", "dt", "--window", window],
                          capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PE witness: alpha=")


@pytest.mark.parametrize("extra", [
    "",
    "schedule.kind = table\nschedule.table_file = {table}\n",
    TRIG_INSTANCE,
], ids=["cyclic", "table", "trigonometric"])
def test_bounds_prints_plain_floats(tmp_path, capsys, extra):
    table = tmp_path / "table.txt"
    table.write_text("1 0 0 0 0\n0 1 0 0 0\n0.6 0.8 0 0 0\n0 0 1 0 0\n0 0 0 1 0\n0 0 0 0 1\n")
    cfg = _write_config(tmp_path, extra.format(table=table))
    assert main(["bounds", "--config", cfg]) == 0
    pairs = [line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line]
    assert len(pairs) >= 7
    for key, value in pairs:
        assert np.isfinite(float(value)), key


def test_pe_check_trigonometric_schedule_sets_its_own_m(tmp_path, capsys):
    # m = 2 len(frequencies), whatever the default instance.m = 5 says
    cfg = tmp_path / "trig.cfg"
    cfg.write_text("schedule.kind = trigonometric\nschedule.frequencies = 1 2\n")
    assert main(["pe-check", "--config", str(cfg), "--domain", "ct",
                 "--window", "6.283185307179586"]) == 0
    assert capsys.readouterr().out.startswith("PE witness: alpha=")


@pytest.mark.parametrize("domain, extra", [
    ("ct", ""),
    ("ct", TRIG_INSTANCE),
    ("dt", "instance.m = 4\ninstance.v_star = 2 1 3 4\nschedule.kind = trigonometric\n"
           "schedule.frequencies = 1.5 1.5\nschedule.dwell = 1\n"),
], ids=["ct-cyclic", "ct-trigonometric", "dt-resonant-trigonometric"])
def test_pe_check_window_overflowing_its_gram_exits_2(tmp_path, capsys, domain, extra):
    cfg = _write_config(tmp_path, extra)
    with pytest.raises(SystemExit) as exc:
        main(["pe-check", "--config", cfg, "--domain", domain, "--window", "1.7e308"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "scalareq: error: window 1.7e+308 overflows the PE gram\n"
    assert captured.out == ""
