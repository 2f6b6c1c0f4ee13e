import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scalareq.compression import Compressor, account, eval_ct, eval_dt, make_schedule
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalareq.dynamics as dynamics
import scalareq.harness as harness
from scalareq.dynamics import (BLOCK_ELEMENTS, DENSE_MAX_DIM, LIFT_BYTES, MAX_BLOCK,
                               TRIG_MAP_MAX_DIM, RunConfig, Trace, run_simulation)
from scalareq.dynamics import (_advance, _block_shape, _compression, _drift, _half_steps,
                               _period_maps, _phase, _stepper, _trig_chunk)
from scalareq.errors import SimulationDiverged
from scalareq.graph import WeightedGraph, build_graph
from scalareq.harness import Config, ProblemInstance, gen_instance, run_experiment

import oracles
from oracles import (consensus_rhs, integrate, reference_step, run_simulation_stepwise,
                     solver_ct_rhs, solver_dt_step)

V_STAR = (2.0, 1.0, 3.0, 4.0, -1.0)
SCHED5 = make_schedule("cyclic-basis", 5, dwell=0.01)
SCHED4 = make_schedule("cyclic-basis", 4, dwell=0.01)
TRIG4 = make_schedule("trigonometric", 4, frequencies=(1.0, 2.0))
TRIG4_DWELL = make_schedule("trigonometric", 4, dwell=0.3, frequencies=(1.0, 2.0))


@pytest.fixture(scope="module")
def inst10():
    return gen_instance(10, 5, V_STAR, seed=0)


@pytest.fixture(scope="module")
def inst10m4():
    return gen_instance(10, 4, V_STAR[:4], seed=0)


@pytest.fixture(scope="module")
def inst17m4():
    # above TRIG_MAP_MAX_DIM: trigonometric runs apply the structured operator
    inst = gen_instance(17, 4, V_STAR[:4], seed=0)
    assert inst.n * inst.m > TRIG_MAP_MAX_DIM
    return inst


@pytest.fixture(scope="module")
def cycle60():
    # above DENSE_MAX_DIM: runs apply the structured operator every step
    inst = gen_instance(60, 5, V_STAR, seed=0)
    assert inst.n * inst.m > DENSE_MAX_DIM
    return inst


@pytest.fixture(scope="module")
def pair_inst():
    # two nodes on a path, scalar states: H = [[1],[2]], b = H * 3
    return ProblemInstance(
        H=np.array([[1.0], [2.0]]),
        b=np.array([3.0, 6.0]),
        graph=build_graph("path", 2),
        v_star=np.array([3.0]),
    )


def test_consensus_rhs_scalar_states():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    sched = make_schedule("cyclic-basis", 1, dwell=1.0)
    dx = consensus_rhs(L, sched, 0.0, np.array([1.0, 3.0]))
    assert np.array_equal(dx, [2.0, -2.0])


def test_consensus_rhs_acts_along_compression_vector():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    sched = make_schedule("cyclic-basis", 2, dwell=1.0)
    dx = consensus_rhs(L, sched, 0.0, np.array([1.0, 5.0, 3.0, 7.0]))
    # C = e_0: only the first coordinate of each node moves
    assert np.array_equal(dx, [2.0, 0.0, -2.0, 0.0])


def test_consensus_rhs_full_exchange():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    dx = consensus_rhs(L, None, 0.0, np.array([1.0, 5.0, 3.0, 7.0]))
    assert np.array_equal(dx, [2.0, 2.0, -2.0, -2.0])


def test_solver_ct_rhs_vanishes_at_solution(inst10):
    x = np.tile(V_STAR, 10)
    dx = solver_ct_rhs(inst10, SCHED5, 0.02, 0.0, x)
    assert np.abs(dx).max() < 1e-12


def test_solver_ct_rhs_hand_case(pair_inst):
    sched = make_schedule("cyclic-basis", 1, dwell=1.0)
    dx = solver_ct_rhs(pair_inst, sched, 0.5, 0.0, np.array([1.0, 2.0]))
    assert np.allclose(dx, [2.0, 1.0], atol=1e-14)


def test_solver_ct_rhs_reduces_to_consensus_at_zero_gain(inst10):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50)
    dx = solver_ct_rhs(inst10, SCHED5, 0.0, 0.123, x)
    ref = consensus_rhs(inst10.spectrum.L, SCHED5, 0.123, x)
    assert np.array_equal(dx, ref)


def test_integrate_zero_field_is_constant():
    traj = integrate(lambda t, x: np.zeros_like(x), np.array([1.0, -2.0]),
                     0.0, 1.0, 0.25)
    assert traj.times.shape == (5,)
    assert np.array_equal(traj.states, np.tile([1.0, -2.0], (5, 1)))


def test_integrate_scalar_decay_fourth_order():
    traj = integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, 0.01)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-9


def test_integrate_rejects_bad_grid():
    with pytest.raises(ValueError, match="tile"):
        integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, 0.3)
    with pytest.raises(ValueError, match="t1 > t0"):
        integrate(lambda t, x: -x, np.array([1.0]), 1.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="freeze"):
        integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, 0.1, freeze="euler")


def test_integrate_divergence_guard():
    with pytest.raises(SimulationDiverged) as exc:
        integrate(lambda t, x: x, np.array([1.0]), 0.0, 40.0, 0.1)
    assert exc.value.norm > 1e12
    assert exc.value.clock < 40.0


def test_midpoint_freeze_matches_linear_propagator(inst10):
    # on one smooth piece the four midpoint stages compose to the
    # degree-4 Taylor polynomial of expm(-dt M) for the frozen affine
    # system dx/dt = -M x + c; the cached ct map must be that polynomial
    n, m, s, dt = 10, 5, 0.7, 0.01
    assert n * m <= DENSE_MAX_DIM
    H, b = inst10.H, inst10.b
    C = np.zeros(m)
    C[0] = 1.0
    Hblk = np.zeros((n * m, n * m))
    for i in range(n):
        Hblk[i * m:(i + 1) * m, i * m:(i + 1) * m] = np.outer(H[i], H[i])
    M = np.kron(inst10.spectrum.L, np.outer(C, C)) + s * Hblk
    c = s * (b[:, None] * H).reshape(-1)
    B = -dt * M
    B2 = B @ B
    B3 = B2 @ B
    I = np.eye(n * m)
    R = I + B + B2 / 2.0 + B3 / 6.0 + B3 @ B / 24.0
    w = dt * (I + B / 2.0 + B2 / 6.0 + B3 / 24.0) @ c
    _, fill = _stepper(inst10, SCHED5, RunConfig(s=s, dt_int=dt), "ct", None, 1)
    x0 = np.random.default_rng(2).standard_normal(n * m)
    assert np.abs(fill(0, x0, 1)[0] - (R @ x0 + w)).max() < 1e-13
    assert np.abs(fill(0, np.zeros(n * m), 1)[0] - w).max() < 1e-13
def test_consensus_flow_disagreement_monotone(inst10):
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(50)
    rhs = lambda t, x: consensus_rhs(inst10.spectrum.L, SCHED5, t, x)
    traj = integrate(rhs, x0, 0.0, 0.5, 1e-3, freeze="midpoint")
    X = traj.states.reshape(len(traj.times), 10, 5)
    dis = np.linalg.norm(X - X.mean(axis=1, keepdims=True), axis=(1, 2))
    assert np.all(np.diff(dis) <= 1e-12)
    assert dis[-1] < dis[0]


def test_solver_dt_step_fixed_point(inst10):
    x = np.tile(V_STAR, 10)
    for comp in (None, Compressor("none")):
        out = solver_dt_step(inst10, SCHED5, 0.2, 0.02, 0, x, comp)
        assert np.abs(out - x).max() < 1e-14


def test_solver_dt_step_hand_case(pair_inst):
    sched = make_schedule("cyclic-basis", 1, dwell=1.0)
    out = solver_dt_step(pair_inst, sched, 0.5, 0.1, 0, np.array([1.0, 2.0]))
    assert np.allclose(out, [1.7, 1.9], atol=1e-15)


def test_solver_dt_step_rejects_unstable_stepsize(pair_inst):
    with pytest.raises(ValueError, match="outside"):
        solver_dt_step(pair_inst, make_schedule("cyclic-basis", 1, dwell=1.0),
                       1.01, 0.0, 0, np.array([1.0, 2.0]))


def test_solver_dt_step_preserves_average_without_gain(inst10):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(50)
    mean0 = x.reshape(10, 5).mean(axis=0)
    for k in range(100):
        x = solver_dt_step(inst10, SCHED5, 0.2, 0.0, k, x)
    assert np.abs(x.reshape(10, 5).mean(axis=0) - mean0).max() < 1e-13


def test_solver_dt_step_disagreement_non_expansive(inst10):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(50)
    dis = []
    for k in range(60):
        X = x.reshape(10, 5)
        dis.append(np.linalg.norm(X - X.mean(axis=0)))
        x = solver_dt_step(inst10, SCHED5, 0.2, 0.0, k, x)
    assert np.all(np.diff(dis) <= 1e-12)


def test_scalarized_step_uses_only_transmitted_scalars(inst10):
    # recompute the scalarized update from each node's own state plus the
    # received scalars alone; it must agree bit for bit
    from scalareq.compression import eval_dt

    rng = np.random.default_rng(6)
    x = rng.standard_normal(50)
    h, s, k = 0.2, 0.02, 7
    X = x.reshape(10, 5)
    C = eval_dt(SCHED5, k)
    wire = [float(np.dot(X[i], C)) for i in range(10)]  # the scalars sent
    expect = np.empty_like(X)
    for i in range(10):
        acc = 0.0
        for (j, w) in inst10.graph.neighbor_lists[i]:
            acc += w * (wire[j] - wire[i])
        r_i = float(np.dot(inst10.H[i], X[i])) - inst10.b[i]
        expect[i] = X[i] + (h * acc) * C - (s * r_i) * inst10.H[i]
    got = solver_dt_step(inst10, SCHED5, h, s, k, x)
    assert np.array_equal(got, expect.reshape(-1))


def test_baseline_compressor_steps_finite(inst10):
    rng = np.random.default_rng(7)
    x = rng.standard_normal(50)
    for comp in (Compressor("uniform"), Compressor("topk", k=2),
                 Compressor("unbiased", l=4)):
        cfg = RunConfig(h=0.2, s=0.02, compressor=comp)
        _, fill = _stepper(inst10, SCHED5, cfg, "dt", np.random.default_rng(0), 1)
        out = fill(0, x, 1)
        assert np.all(np.isfinite(out))
        assert out.shape == (1, 50)


def test_unbiased_step_noise_stream_is_node_sequential(inst10):
    # the whole-state step draws all node noises in one block; it must
    # equal per-node draws in node order
    comp = Compressor("unbiased", l=2)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(50)
    cfg = RunConfig(h=0.2, s=0.02, compressor=comp)
    _, fill = _stepper(inst10, SCHED5, cfg, "dt", np.random.default_rng([9, 2]), 1)
    out_a = fill(0, x, 1)[0]
    rng_b = np.random.default_rng([9, 2])
    X = x.reshape(10, 5)
    Q = np.stack([comp.apply(X[i], rng=rng_b) for i in range(10)])
    L = inst10.spectrum.L
    r = (X * inst10.H).sum(axis=1) - inst10.b
    expect = X - 0.2 * (L @ Q) - 0.02 * r[:, None] * inst10.H
    assert np.array_equal(out_a, expect.reshape(-1))


def _trig_reference(inst, sched, cfg, mode):
    """The reference step of a scalarized trigonometric run: RK4 of
    solver_ct_rhs, which evaluates C at every stage, in ct; in dt the
    operator step with C evaluated at every step (the node loop sums the
    scalarized exchange in another order)."""
    if mode == "ct":
        return reference_step(inst, sched, cfg, mode, None)
    n, m = inst.H.shape
    L = inst.spectrum.L
    return lambda k, x: (x.reshape(n, m) + _drift(cfg.h * L, cfg.s * inst.H, inst.H, inst.b,
                                                  eval_dt(sched, k), x.reshape(n, m))).reshape(-1)


@pytest.mark.parametrize("mode, kind, sched, n", [
    ("dt", "topk", SCHED4, 10), ("dt", "unbiased", SCHED4, 10), ("dt", "uniform", SCHED4, 10),
    ("dt", "scalarized", TRIG4, 17), ("dt", "scalarized", TRIG4_DWELL, 17),
    ("ct", "scalarized", TRIG4, 17),
], ids=["topk", "unbiased", "uniform", "trig-dt", "trig-dt-dwell", "trig-ct"])
def test_whole_state_fill_matches_reference_bit_for_bit(inst10m4, inst17m4, mode, kind, sched, n):
    # 300 steps in blocks of B (204 at n = 10, 120 at n = 17): the
    # baselines against the node loop, which quantizes node by node; the
    # trigonometric runs, on a network above TRIG_MAP_MAX_DIM, where they
    # apply the structured operator, against _trig_reference
    inst = inst10m4 if n == 10 else inst17m4
    n, m = inst.H.shape
    comp = Compressor(kind, l=2, k=2)
    cfg = RunConfig(h=0.2, s=0.5 if mode == "ct" else 0.02, dt_int=1e-3, compressor=comp)
    if kind == "scalarized":
        ref = _trig_reference(inst, sched, cfg, mode)
    else:
        ref = reference_step(inst, sched, cfg, mode, np.random.default_rng([4, 2]))
    B, fill = _stepper(inst, sched, cfg, mode, np.random.default_rng([4, 2]), 300)
    assert B == BLOCK_ELEMENTS // (n * m)
    x = np.random.default_rng([4, 1]).standard_normal(n * m)
    got = [x]
    for k in range(0, 300, B):
        got.extend(fill(k, got[-1], min(B, 300 - k)))
    want = []
    for k in range(300):
        x = ref(k, x)
        want.append(x)
    assert np.array_equal(got[1:], want)


@pytest.mark.parametrize("mode, sched", [("dt", TRIG4), ("dt", TRIG4_DWELL), ("ct", TRIG4)],
                         ids=["trig-dt", "trig-dt-dwell", "trig-ct"])
@pytest.mark.parametrize("k", [0, 204, 123_457])
def test_trigonometric_map_fill_matches_reference(inst10m4, mode, sched, k):
    # n m = 40 steps through the dense per-step maps: two blocks of 204
    # steps from step k follow _trig_reference to 1e-12 per row
    inst = inst10m4
    d = inst.n * inst.m
    assert d <= TRIG_MAP_MAX_DIM
    cfg = RunConfig(h=0.2, s=0.5 if mode == "ct" else 0.02, dt_int=1e-3)
    B, fill = _stepper(inst, sched, cfg, mode, None, k + 408)
    assert B == 204
    x = np.random.default_rng([4, 1]).standard_normal(d)
    first = fill(k, x, B)
    got = np.concatenate([first, fill(k + B, first[-1], B)])
    ref = _trig_reference(inst, sched, cfg, mode)
    want = [ref(k, x)]
    for j in range(1, 2 * B):
        want.append(ref(k + j, want[-1]))
    want = np.array(want)
    scale = np.maximum(_row_norms(want), np.linalg.norm(x))
    assert np.all(_row_norms(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("k", [0, 204, 123_457])
def test_half_step_clocks_match_the_rk4_stage_times(k):
    # the ct map path reads its stage vectors off a half-step clock grid:
    # t = k dt exactly, t + dt / 2 and t + dt (which is the next step's
    # t) within one rounding of the clock, so the rows match eval_ct to
    # 1e-15 while the clock is below 1 and to twice the frequency times
    # the clock's spacing beyond
    dt = 1e-3
    clocks = _half_steps(k, 204, dt)
    rows = eval_ct(TRIG4, clocks)
    for j in range(204):
        t = (k + j) * dt
        assert clocks[2 * j] == t
        for i, t_stage in ((1, t + 0.5 * dt), (2, t + dt)):
            assert abs(clocks[2 * j + i] - t_stage) <= np.spacing(t_stage)
        for row, t_stage in ((rows[2 * j], t), (rows[2 * j + 1], t + 0.5 * dt),
                             (rows[2 * j + 2], t + dt)):
            bound = max(1e-15, 2.0 * max(TRIG4.frequencies) * np.spacing(t_stage))
            assert np.abs(row - eval_ct(TRIG4, t_stage)).max() <= bound


@pytest.mark.parametrize("sched", [TRIG4, TRIG4_DWELL], ids=["trig", "trig-dwell"])
@pytest.mark.parametrize("k", [0, 204, 123_457])
def test_block_trigonometric_vectors_equal_eval(sched, k):
    cfg = RunConfig(dt_int=1e-3)
    rows = _compression(sched, cfg, "dt")(k, 204)
    assert np.array_equal(rows, [eval_dt(sched, k + j) for j in range(204)])
    stages = _compression(sched, cfg, "ct")(k, 204)
    dt = cfg.dt_int
    for j, C in enumerate(stages):
        t = (k + j) * dt
        assert np.array_equal(C, [eval_ct(sched, t), eval_ct(sched, t + 0.5 * dt),
                                  eval_ct(sched, t + dt)])


def test_fast_dt_path_matches_stepper(inst10, cycle60):
    # the 10-node run steps through the dense cache, the 60-node run
    # through the structured operator; both must follow the node loop
    for inst in (inst10, cycle60):
        n = inst.n
        cfg = RunConfig(h=0.2, s=0.02, horizon=200, tol=1e-300, record_every=1)
        tr = run_simulation(inst, SCHED5, cfg, "dt")
        x = np.random.default_rng([0, 1]).standard_normal(n * 5)
        ref = np.tile(V_STAR, n)
        for k in range(200):
            x = solver_dt_step(inst, SCHED5, 0.2, 0.02, k, x)
        err_ref = float(np.linalg.norm(x - ref)) / n
        assert tr.err[-1] == pytest.approx(err_ref, rel=1e-9)


def test_fast_ct_path_matches_reference_integrator(inst10, cycle60):
    for inst in (inst10, cycle60):
        n = inst.n
        cfg = RunConfig(s=1.0, dt_int=1e-3, horizon=0.5, tol=1e-300, record_every=1)
        tr = run_simulation(inst, SCHED5, cfg, "ct")
        x = np.random.default_rng([0, 1]).standard_normal(n * 5)
        rhs = lambda t, xv: solver_ct_rhs(inst, SCHED5, 1.0, t, xv)
        traj = integrate(rhs, x, 0.0, 0.5, 1e-3, freeze="midpoint")
        ref = np.tile(V_STAR, n)
        err_ref = float(np.linalg.norm(traj.states[-1] - ref)) / n
        assert tr.err[-1] == pytest.approx(err_ref, rel=1e-9)


def _random_instance(rng, n, m):
    """A planted instance on a random connected weighted graph of n nodes."""
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((i, j))
    graph = WeightedGraph(n, [(i, j, float(rng.uniform(0.5, 2.0))) for (i, j) in sorted(edges)])
    H = rng.standard_normal((n, m))
    v = rng.standard_normal(m)
    return ProblemInstance(H=H, b=H @ v, graph=graph, v_star=v)


def _random_problem(seed):
    """A random connected weighted graph, a planted instance on it and a
    random unit-vector table schedule."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, min(n, 4) + 1))
    inst = _random_instance(rng, n, m)
    table = rng.standard_normal((int(rng.integers(1, 7)), m))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    return inst, make_schedule("table", m, dwell=0.05, table=table), rng


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_structured_advance_matches_oracles(seed):
    inst, sched, rng = _random_problem(seed)
    n, m = inst.H.shape
    L = inst.spectrum.L
    h = float(rng.uniform(0.05, 0.95)) * 2.0 / inst.spectrum.lambda_n
    s = float(rng.uniform(0.0, 0.5))
    cfg = RunConfig(h=h, s=s, dt_int=0.01)
    k = int(rng.integers(0, 30))
    X = rng.standard_normal((3, n, m))

    C = _compression(sched, cfg, "dt")(k, 1)[0]
    advance = _advance(L, inst.H, cfg, "dt")
    for Xi, Yi in zip(X, advance(C, X, inst.b)):
        oracle = solver_dt_step(inst, sched, h, s, k, Xi.reshape(-1))
        assert np.abs(Yi.reshape(-1) - oracle).max() <= 1e-12
        assert np.abs(advance(C, Xi, inst.b) - Yi).max() <= 1e-12

    C = _compression(sched, cfg, "ct")(k, 1)[0]
    advance = _advance(L, inst.H, cfg, "ct")
    t0 = k * cfg.dt_int
    rhs = lambda t, xv: solver_ct_rhs(inst, sched, s, t, xv)
    for Xi, Yi in zip(X, advance(C, X, inst.b)):
        traj = integrate(rhs, Xi.reshape(-1), t0, t0 + cfg.dt_int, cfg.dt_int,
                         freeze="midpoint")
        assert np.abs(Yi.reshape(-1) - traj.states[-1]).max() <= 1e-12


def test_run_simulation_converges_immediately_at_solution(inst10):
    cfg = RunConfig(h=0.2, s=0.02, horizon=100, tol=1e-2,
                    x0=np.tile(V_STAR, 10))
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    assert tr.converged
    assert tr.hit_clock == 0
    assert len(tr) == 1
    assert tr.scalars_tx_cum[0] == 0


LEDGER_KINDS = {"dt": ("scalarized", "none", "topk", "unbiased", "uniform"),
                "ct": ("scalarized", "none")}


@st.composite
def _ledger_configs(draw):
    """(config, mode, record_every) of a run that neither converges nor
    diverges: any compressor of its mode, a random network and horizon,
    h lambda_n <= 1 and a small gain s."""
    mode = draw(st.sampled_from(["dt", "ct"]))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(max(m, 3), 8))
    steps = draw(st.integers(1, 300))
    config = Config(graph_kind=draw(st.sampled_from(["cycle", "path", "complete"])), graph_n=n,
                    instance_m=m, instance_v_star=tuple(float(v) for v in range(1, m + 1)),
                    schedule_dwell=0.05, compressor_kind=draw(st.sampled_from(LEDGER_KINDS[mode])),
                    compressor_l=draw(st.integers(1, 4)), compressor_k=draw(st.integers(1, m)),
                    run_h=1.0 / n, run_s=0.01, run_tol=1e-300, run_dt_int=0.01,
                    run_horizon=steps if mode == "dt" else steps * 0.01,
                    run_seed=draw(st.integers(0, 1000)))
    return config, mode, draw(st.integers(1, 50))


@settings(max_examples=40, deadline=None)
@given(_ledger_configs())
def test_run_simulation_counter_ledger(case):
    # every recorded row has sent rounds * 2|E| messages (one per directed
    # link and round) at the compressor's per-message cost, and a diverged
    # grid cell is charged the same way up to its divergence
    config, mode, record_every = case
    inst = config.instance()
    schedule = config.schedule(inst.m)
    cfg = replace(config.run(mode), record_every=record_every)
    tr = run_simulation(inst, schedule, cfg, mode)
    links = 2 * len(inst.graph.edges)
    scalars, bits = account(cfg.compressor, inst.m)
    unit = 1 if mode == "dt" else cfg.dt_int
    rounds = np.rint(tr.clock / unit).astype(np.int64)
    assert rounds[-1] == round(cfg.horizon / unit)
    assert np.all(rounds[:-1] % record_every == 0)
    assert np.array_equal(tr.scalars_tx_cum, rounds * links * scalars)
    assert np.array_equal(tr.bits_tx_cum, rounds * links * bits)
    assert not tr.converged and tr.hit_clock is None
    assert tr.final_err == tr.err[-1]

    wild = replace(config, run_s=1e4, run_horizon=300 if mode == "dt" else 3.0)
    with pytest.raises(SimulationDiverged) as exc:
        run_simulation(inst, schedule, wild.run(mode), mode)
    rounds = round(exc.value.clock / unit)
    assert exc.value.scalars == rounds * links * scalars
    assert exc.value.bits == rounds * links * bits
    (row,) = run_experiment(wild, mode, (config.compressor_kind,), None, (config.run_seed,), 1)
    assert not row.converged
    assert (row.scalars_at_hit, row.bits_at_hit) == (exc.value.scalars, exc.value.bits)


def test_run_simulation_counts_full_vectors_without_compression(inst10):
    cfg = RunConfig(h=0.2, s=0.02, horizon=4, tol=1e-300, record_every=1,
                    compressor=Compressor("none"))
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    scal, bits = account(Compressor("none"), 5)
    assert tr.scalars_tx_cum[-1] == 4 * 20 * scal
    assert tr.bits_tx_cum[-1] == 4 * 20 * bits


def test_run_simulation_record_thinning(inst10):
    cfg = RunConfig(h=0.2, s=0.02, horizon=10, tol=1e-300, record_every=3)
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    assert np.array_equal(tr.clock, [0, 3, 6, 9, 10])


def test_run_simulation_records_hit_row_when_thinned(inst10):
    cfg = RunConfig(h=0.2, s=0.02, horizon=20000, tol=1e-2, record_every=1000)
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    assert tr.converged
    assert tr.hit_clock == tr.clock[-1]
    assert tr.hit_clock % 1000 != 0
    assert tr.err[-1] <= 1e-2


def test_run_simulation_ct_trigonometric_schedule():
    rng = np.random.default_rng(10)
    H = rng.standard_normal((2, 2))
    v = np.array([1.0, -1.0])
    inst = ProblemInstance(H=H, b=H @ v, graph=build_graph("path", 2), v_star=v)
    sched = make_schedule("trigonometric", 2, frequencies=(1.0,))
    cfg = RunConfig(s=0.5, dt_int=1e-2, horizon=1.0, tol=1e-300)
    tr = run_simulation(inst, sched, cfg, "ct")
    assert len(tr) == 101
    assert np.all(np.isfinite(tr.err))


SCALAR_INST = ProblemInstance(H=np.array([[1.0]]), b=np.array([1.0]),
                              graph=WeightedGraph(n=1), v_star=np.array([1.0]))


def test_run_simulation_divergence_guard():
    # x[k+1] - 1 = -2 (x[k] - 1) from x[0] = 10: |x[37]| = 9 2^37 - 1 is
    # the first state beyond 1e12
    sched = make_schedule("cyclic-basis", 1, dwell=1.0)
    cfg = RunConfig(h=0.1, s=3.0, horizon=1000, tol=1e-300,
                    x0=np.array([10.0]))
    with pytest.raises(SimulationDiverged) as exc:
        run_simulation(SCALAR_INST, sched, cfg, "dt")
    assert exc.value.norm == 9 * 2**37 - 1
    assert exc.value.clock == 37


@pytest.mark.parametrize("kind, mode, s, dt_int, clock", [
    ("scalarized", "dt", 3.0, 1e-3, 37), ("scalarized", "dt", 1e3, 1e-3, 4),
    ("scalarized", "dt", 1e6, 1e-3, 2), ("scalarized", "ct", 1e3, 1.0, 2.0),
    ("uniform", "dt", 3.0, 1e-3, 37), ("uniform", "dt", 1e3, 1e-3, 4),
    ("uniform", "dt", 1e6, 1e-3, 2),
])
def test_run_simulation_diverges_mid_block_without_warnings(kind, mode, s, dt_int, clock):
    # the block of 256 steps (lifted maps for scalarized, the node loop
    # for uniform) holds the guard crossing in its middle; at s >= 1e3 the
    # states after it overflow, which must stay silent (warnings fail the
    # tests) and must not move the reported clock
    sched = make_schedule("cyclic-basis", 1, dwell=1.0)
    cfg = RunConfig(h=0.1, s=s, dt_int=dt_int, horizon=1000 if mode == "dt" else 1000.0,
                    tol=1e-300, x0=np.array([10.0]), compressor=Compressor(kind))
    assert _stepper(SCALAR_INST, sched, cfg, mode, None, 1000)[0] == 256
    with pytest.raises(SimulationDiverged) as exc:
        run_simulation(SCALAR_INST, sched, cfg, mode)
    assert exc.value.clock == clock
    assert 1e12 < exc.value.norm < np.inf
    with pytest.raises(SimulationDiverged) as oracle:
        run_simulation_stepwise(SCALAR_INST, sched, cfg, mode)
    assert oracle.value.clock == clock
    assert oracle.value.norm == pytest.approx(exc.value.norm, rel=1e-12)
    assert (oracle.value.scalars, oracle.value.bits) == (exc.value.scalars, exc.value.bits)


def test_runconfig_validation(inst10):
    with pytest.raises(ValueError, match="positive"):
        RunConfig(tol=0.0).validate(inst10, SCHED5, "dt")
    with pytest.raises(ValueError, match="s >= 0"):
        RunConfig(s=-0.1).validate(inst10, SCHED5, "dt")
    with pytest.raises(ValueError, match="record_every"):
        RunConfig(record_every=0).validate(inst10, SCHED5, "dt")
    with pytest.raises(ValueError, match="h > 0"):
        RunConfig(h=0.0).validate(inst10, SCHED5, "dt")
    with pytest.raises(ValueError, match="lambda_n"):
        RunConfig(h=0.6).validate(inst10, SCHED5, "dt")
    with pytest.raises(ValueError, match="scalarized or none"):
        RunConfig(compressor=Compressor("topk", k=2)).validate(inst10, SCHED5, "ct")
    with pytest.raises(ValueError, match="subdivide"):
        RunConfig(dt_int=3e-4).validate(inst10, SCHED5, "ct")
    with pytest.raises(ValueError, match="mode"):
        RunConfig().validate(inst10, SCHED5, "st")
    with pytest.raises(ValueError, match="need a schedule dwell"):
        RunConfig().validate(inst10, make_schedule("table", 5, table=np.eye(5)), "ct")
    with pytest.raises(ValueError, match="schedule has m=4 but the instance has m=5"):
        RunConfig().validate(inst10, SCHED4, "ct")
    with pytest.raises(ValueError, match="schedule has m=4 but the instance has m=5"):
        run_simulation(inst10, SCHED4, RunConfig(), "dt")


def test_only_the_dt_step_size_check_computes_the_spectrum(monkeypatch):
    # a run steps with the graph's L, which the spectrum shares; lambda_n
    # is read only for h < 2 / lambda_n in dt
    calls = []
    spectrum = harness.laplacian_spectrum
    monkeypatch.setattr(harness, "laplacian_spectrum", lambda G: calls.append(G) or spectrum(G))
    inst = gen_instance(10, 5, V_STAR, seed=0)
    run_simulation(inst, SCHED5, RunConfig(horizon=0.005), "ct")
    run_simulation_stepwise(inst, SCHED5, RunConfig(horizon=0.005), "ct")
    assert calls == []
    run_simulation(inst, SCHED5, RunConfig(horizon=5), "dt")
    assert calls == [inst.graph]
    assert inst.spectrum.L is inst.graph.laplacian


@pytest.mark.parametrize("mode, setting, match", [
    ("dt", {"tol": np.nan}, "positive"), ("ct", {"dt_int": np.nan}, "positive"),
    ("dt", {"horizon": np.nan}, "positive"), ("dt", {"s": np.nan}, "s >= 0"),
    ("dt", {"h": np.nan}, "h > 0"), ("ct", {"horizon": np.inf}, "horizon finite"),
], ids=["tol", "dt_int", "horizon", "s", "h", "horizon-inf"])
def test_runconfig_refuses_non_finite_settings(inst10, mode, setting, match):
    # nan fails every comparison, so each check must be one that nan fails;
    # an infinite horizon has no last step
    with pytest.raises(ValueError, match=match):
        RunConfig(**setting).validate(inst10, SCHED5, mode)


@pytest.mark.parametrize("mode, setting, message", [
    ("dt", {"horizon": 10.5}, "need whole horizon >= 0, got 10.5"),
    ("dt", {"horizon": 0.5}, "need whole horizon >= 0, got 0.5"),
    ("dt", {"record_every": 1.5}, "need whole record_every >= 0, got 1.5"),
    ("ct", {"record_every": 2.5, "horizon": 0.01}, "need whole record_every >= 0, got 2.5"),
], ids=["dt-horizon", "dt-horizon-below-one", "dt-record-every", "ct-record-every"])
def test_runconfig_refuses_fractional_steps(inst10, mode, setting, message):
    # a dt horizon counts steps and record_every thins rows by steps: 10.5
    # would run 10 steps under horizon=10.5, 0.5 none, and 1.5 fail in a slice
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_simulation(inst10, SCHED5, RunConfig(**setting), mode)
    # whole floats are steps
    tr = run_simulation(inst10, SCHED5, RunConfig(horizon=10.0, record_every=2.0), "dt")
    assert tr.clock.tolist() == [0, 2, 4, 6, 8, 10]


def test_schedule_refuses_nan_dwell_and_frequency():
    with pytest.raises(ValueError, match="dwell > 0"):
        make_schedule("cyclic-basis", 5, dwell=np.nan)
    with pytest.raises(ValueError, match="positive"):
        make_schedule("trigonometric", 4, frequencies=(1.0, np.nan))


def test_trace_invariants():
    with pytest.raises(ValueError, match="increasing"):
        Trace(clock=[0.0, 0.0], err=[1.0, 1.0], disagreement=[0.0, 0.0],
              scalars_tx_cum=[0, 1], bits_tx_cum=[0, 64])
    with pytest.raises(ValueError, match="nondecreasing"):
        Trace(clock=[0.0, 1.0], err=[1.0, 1.0], disagreement=[0.0, 0.0],
              scalars_tx_cum=[1, 0], bits_tx_cum=[0, 64])


def _assert_same_run(trace, oracle):
    """Identical clocks, counters and outcome; err and disagreement within
    1e-12 relative to the larger of the value and its initial value. Both
    loops round at the scale of the state, and the error of a converged
    run falls to that rounding floor."""
    assert np.array_equal(trace.clock, oracle.clock)
    assert np.array_equal(trace.scalars_tx_cum, oracle.scalars_tx_cum)
    assert np.array_equal(trace.bits_tx_cum, oracle.bits_tx_cum)
    assert (trace.converged, trace.hit_clock) == (oracle.converged, oracle.hit_clock)
    assert trace.final_err == trace.err[-1] and oracle.final_err == oracle.err[-1]
    for got, want in ((trace.err, oracle.err), (trace.disagreement, oracle.disagreement)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), want[0]))


def _run_both(inst, sched, cfg, mode):
    """Run the block loop and the stepwise oracle; require the same trace,
    or divergence at the same clock."""
    try:
        oracle = run_simulation_stepwise(inst, sched, cfg, mode)
    except SimulationDiverged as exc:
        with pytest.raises(SimulationDiverged) as got:
            run_simulation(inst, sched, cfg, mode)
        assert got.value.clock == exc.clock
        assert got.value.norm == pytest.approx(exc.norm, rel=1e-9)
        assert (got.value.scalars, got.value.bits) == (exc.scalars, exc.bits)
        return None
    trace = run_simulation(inst, sched, cfg, mode)
    _assert_same_run(trace, oracle)
    return trace


def _record_lows(err, margin=1e-6):
    """Steps k whose error lies below every earlier error by a relative margin."""
    best = np.minimum.accumulate(err)
    return [k for k in range(1, len(err)) if err[k] < best[k - 1] * (1.0 - margin)]


def _tol_hitting_at(full, k):
    """A tolerance that the error of trace full first meets at step k."""
    return float(np.sqrt(full.err[k] * full.err[:k].min()))


def _decided_alike(full, k):
    """Whether every error trace within _assert_same_run's bound of full's
    also first meets _tol_hitting_at(full, k) at step k. Near the rounding
    floor the two loops' errors differ by more than the record-low margin,
    and such a tolerance may stop either loop first."""
    tol = _tol_hitting_at(full, k)
    slack = 1e-12 * np.maximum(full.err[:k + 1], full.err[0])
    return full.err[k] + slack[k] < tol and bool(np.all(full.err[:k] - slack[:k] > tol))


RUN_KINDS = [("dt", "scalarized"), ("dt", "none"), ("dt", "topk"), ("dt", "unbiased"),
             ("dt", "uniform"), ("ct", "scalarized"), ("ct", "none")]


# a run whose record-low steps reach the rounding floor, where the two
# loops' errors differ by more than the record-low margin
@example(52676306, ("dt", "scalarized"), "table", "first", 253, 1)
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(RUN_KINDS),
       st.sampled_from(["table", "cyclic-basis", "trigonometric"]),
       st.sampled_from(["k0", "first", "last", "random", "unstable"]),
       st.integers(1, 700), st.integers(1, 60))
def test_block_loop_matches_stepwise_oracle(seed, run_kind, sched_kind, where, steps, every):
    # where the run should stop: at k = 0, on the first or last row of a
    # block, at a random tolerance, or (dt) by divergence; the horizon
    # is rarely a multiple of the block size
    mode, kind = run_kind
    inst, sched, rng = _random_problem(seed)
    n, m = inst.H.shape
    if sched_kind == "cyclic-basis":
        sched = make_schedule("cyclic-basis", m, dwell=0.05)
    elif sched_kind == "trigonometric" and m % 2 == 0:
        sched = make_schedule("trigonometric", m, dwell=0.05,
                              frequencies=rng.uniform(0.5, 3.0, m // 2))
    comp = Compressor(kind, l=int(rng.integers(1, 4)), k=int(rng.integers(1, m + 1)))
    h = float(rng.uniform(0.05, 0.95)) * 2.0 / inst.spectrum.lambda_n
    s = float(rng.uniform(0.0, 0.5))
    if where == "unstable" and mode == "dt":
        s = float(rng.uniform(2.5, 6.0)) / float(np.max(np.sum(inst.H ** 2, axis=1)))
    if mode == "ct":
        steps = 1 + steps // 3
    cfg = RunConfig(h=h, s=s, dt_int=0.01, horizon=steps if mode == "dt" else steps * 0.01,
                    tol=1e-300, compressor=comp, seed=int(rng.integers(0, 1000)),
                    record_every=every)
    x0 = np.random.default_rng([cfg.seed, 1]).standard_normal(n * m)
    err0 = float(np.linalg.norm(x0 - np.tile(inst.v_star, n))) / n
    tol = err0 * 10.0 ** -float(rng.uniform(0.0, 6.0))
    if where == "k0":
        tol = 2.0 * err0
    elif where in ("first", "last"):
        B = _stepper(inst, sched, cfg, mode, None, steps)[0]
        try:
            full = run_simulation_stepwise(inst, sched, replace(cfg, record_every=1), mode)
        except SimulationDiverged:
            full = None
        row = 1 if where == "first" else 0
        hits = [] if full is None else [k for k in _record_lows(full.err)
                                         if k % B == row and _decided_alike(full, k)]
        if hits:
            tol = _tol_hitting_at(full, hits[int(rng.integers(0, len(hits)))])
    _run_both(inst, sched, replace(cfg, tol=tol), mode)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["dt", "ct"]),
       st.sampled_from(["scalarized", "none"]), st.sampled_from(["first", "last", "random"]),
       st.integers(1, 200), st.integers(1, 40))
def test_structured_fill_matches_stepwise_oracle(seed, mode, kind, where, steps, every):
    # random connected networks above DENSE_MAX_DIM, where a linear run
    # writes each whole-state step straight into its block row, against
    # the node loop (dt) or RK4 of solver_ct_rhs (ct), stopping on the
    # first or last row of a block or at a random record low. The runs
    # must stop at the same step with errors within _assert_same_run's
    # 1e-12 of max(err, err0): h lambda_n and s max ||h_i||^2 are below
    # 0.95, so no step expands the errors, and the two loops' rounding
    # differences (a few ulps of the state per step, summed in another
    # order) add up over at most 200 steps to below 1e-13 of the error
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 7))
    n = DENSE_MAX_DIM // m + int(rng.integers(1, 8))
    inst = _random_instance(rng, n, m)
    table = rng.standard_normal((int(rng.integers(1, 7)), m))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    sched = make_schedule("table", m, dwell=0.05, table=table)
    if mode == "ct":
        steps = 1 + steps // 3
    cfg = RunConfig(h=float(rng.uniform(0.05, 0.95)) / inst.spectrum.lambda_n,
                    s=float(rng.uniform(0.05, 0.95)) / float((inst.H**2).sum(axis=1).max()),
                    dt_int=0.01, horizon=steps if mode == "dt" else steps * 0.01, tol=1e-300,
                    compressor=Compressor(kind), seed=int(rng.integers(0, 1000)),
                    record_every=every)
    B, fill = _stepper(inst, sched, cfg, mode, None, steps)
    assert n * m > DENSE_MAX_DIM and fill.path == "structured"
    full = run_simulation_stepwise(inst, sched, replace(cfg, record_every=1), mode)
    hits = [k for k in _record_lows(full.err) if _decided_alike(full, k)
            and (where == "random" or k % B == (1 if where == "first" else 0))]
    if hits:
        cfg = replace(cfg, tol=_tol_hitting_at(full, hits[int(rng.integers(0, len(hits)))]))
    _run_both(inst, sched, cfg, mode)


@pytest.mark.parametrize("mode", ["dt", "ct"])
@pytest.mark.parametrize("n", [10, 12, 60])
def test_block_loop_hits_on_first_and_last_block_rows(inst10, cycle60, n, mode):
    # n = 10 advances through lifted maps; n = 12 too in dt, but in ct a
    # period of its lifted maps would exceed LIFT_BYTES, so it steps
    # through the one-step maps; n = 60 steps through the structured
    # operator
    inst = {10: inst10, 60: cycle60}.get(n) or gen_instance(n, 5, V_STAR, seed=0)
    steps = 300
    cfg = RunConfig(h=0.2, s=0.02 if mode == "dt" else 1.0, dt_int=1e-3, tol=1e-300,
                    horizon=steps if mode == "dt" else steps * 1e-3, record_every=7)
    B = _stepper(inst, SCHED5, cfg, mode, None, steps)[0]
    assert 1 < B < steps
    full = run_simulation_stepwise(inst, SCHED5, replace(cfg, record_every=1), mode)
    lows = _record_lows(full.err)
    for row in (1, 0):
        k = next(k for k in lows if k % B == row)
        trace = _run_both(inst, SCHED5, replace(cfg, tol=_tol_hitting_at(full, k)), mode)
        assert trace.hit_clock == full.clock[k] and trace.clock[-1] == full.clock[k]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["dt", "ct"]), st.booleans(),
       st.booleans(), st.booleans(), st.integers(1, 300), st.integers(1, 40))
def test_trigonometric_runs_match_stepwise_oracle_across_the_crossover(
        seed, mode, above, dwell, unstable, steps, every):
    # random networks just below or just above TRIG_MAP_MAX_DIM (dense
    # per-step maps or the structured operator), random frequencies,
    # dwell, h and s; an unstable dt run must diverge at the oracle's clock
    rng = np.random.default_rng(seed)
    m = int(rng.choice([2, 4]))
    top = TRIG_MAP_MAX_DIM // m
    n = int(rng.integers(top + 1, top + 4)) if above else int(rng.integers(max(2, m), top + 1))
    inst = _random_instance(rng, n, m)
    sched = make_schedule("trigonometric", m,
                          dwell=float(rng.uniform(0.01, 0.5)) if dwell else None,
                          frequencies=rng.uniform(0.2, 3.0, m // 2))
    h = float(rng.uniform(0.05, 0.95)) * 2.0 / inst.spectrum.lambda_n
    s = float(rng.uniform(0.0, 1.0)) / float(np.max(np.sum(inst.H ** 2, axis=1)))
    if unstable and mode == "dt":
        s = float(rng.uniform(2.5, 6.0)) / float(np.max(np.sum(inst.H ** 2, axis=1)))
    dt_int = float(rng.uniform(1e-3, 0.05))
    cfg = RunConfig(h=h, s=s, dt_int=dt_int, tol=1e-300, record_every=every,
                    horizon=steps if mode == "dt" else steps * dt_int,
                    seed=int(rng.integers(0, 1000)))
    fill = _stepper(inst, sched, cfg, mode, None, steps)[1]
    assert fill.path == ("structured" if above else "trig-maps")
    _run_both(inst, sched, cfg, mode)


@pytest.mark.parametrize("mode", ["dt", "ct"])
@pytest.mark.parametrize("m", [2, 4])
def test_trigonometric_map_path_flips_at_the_constant(monkeypatch, mode, m):
    # the run at n m = TRIG_MAP_MAX_DIM builds its table and buffers, and
    # the numpy memory they hold fits in LIFT_BYTES; one node more and the
    # run applies the structured operator
    held = []
    build = dynamics._trig_steps

    def spy(*args):
        tracemalloc.start()
        numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        before = tracemalloc.take_snapshot().filter_traces(numpy_only)
        steps = build(*args)
        after = tracemalloc.take_snapshot().filter_traces(numpy_only)
        tracemalloc.stop()
        held.append(sum(stat.size_diff for stat in after.compare_to(before, "filename")))
        return steps
    monkeypatch.setattr(dynamics, "_trig_steps", spy)
    sched = make_schedule("trigonometric", m, frequencies=np.arange(1.0, m // 2 + 1.0))
    cfg = RunConfig(h=0.2, s=0.02, dt_int=1e-3)
    top = TRIG_MAP_MAX_DIM // m
    for n, eligible in ((top, True), (top + 1, False)):
        held.clear()
        inst = gen_instance(n, m, V_STAR[:m], seed=0)
        fill = _stepper(inst, sched, cfg, mode, None, 1000)[1]
        assert fill.path == ("trig-maps" if eligible else "structured")
        assert len(held) == (fill.path == "trig-maps")  # the spy measured the table's one build
        assert all(0 < size <= LIFT_BYTES for size in held)


@pytest.mark.parametrize("mode, kind", [("dt", "scalarized"), ("dt", "none"),
                                        ("ct", "scalarized"), ("ct", "none")])
def test_lifted_path_holds_its_lifts_in_one_allocation(inst10, mode, kind):
    # the inner lift, the outer lift and the block starts of a lifted run
    # on the reference network are one numpy allocation, held while the
    # run lasts: L + q - 1 maps with their offset rows, at most
    # LIFT_BYTES (d + 1) / d, and q starts [z, 1]
    cfg = RunConfig(h=0.2, s=0.02 if mode == "dt" else 1.0, dt_int=1e-3,
                    compressor=Compressor(kind))
    d = inst10.n * inst10.m
    inst10.graph.laplacian  # built once and held by the graph
    tracemalloc.start()
    try:
        numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        before = tracemalloc.take_snapshot().filter_traces(numpy_only)
        B, fill = _stepper(inst10, SCHED5, cfg, mode, None, 2000)
        after = tracemalloc.take_snapshot().filter_traces(numpy_only)
    finally:
        tracemalloc.stop()
    assert fill.path == "lifted"
    held = after.compare_to(before, "filename")
    rows, stride = _phase(SCHED5, cfg, mode)
    L, q = _block_shape(len(rows) * stride, min(MAX_BLOCK, BLOCK_ELEMENTS // d, 2000), d)
    assert B == L * q
    assert sum(stat.count_diff for stat in held) == 1
    assert 0 < sum(stat.size_diff for stat in held) <= LIFT_BYTES * (d + 1) / d + 8 * q * (d + 1)


def test_trigonometric_chunks_fit_the_lift_budget():
    for m in range(1, 13):
        rows = m * (m + 1) // 2 + 1
        for d in range(m, TRIG_MAP_MAX_DIM + 2 * m, m):
            for mode, per_step, extra in (("dt", 1, 0), ("ct", 2, 1)):
                for B in (1, 7, BLOCK_ELEMENTS // d):
                    c = _trig_chunk(d, m, mode, B)
                    if d > TRIG_MAP_MAX_DIM:
                        assert c is None
                    elif c is not None:
                        maps = per_step * c + extra
                        assert 1 <= c <= B
                        assert 8 * (rows * d * d + d + 2 * rows
                                    + maps * (d * d + d + rows)) <= LIFT_BYTES


def _row_norms(a):
    """2-norms of the rows of a, scaled by each row's largest entry: dt
    steps with s·||h_i||² > 2 grow the state past 1e154 within a block,
    where squaring the entries would overflow."""
    top = np.abs(a).max(axis=1, keepdims=True)
    return top[:, 0] * np.linalg.norm(a / np.where(top > 0, top, 1.0), axis=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["dt", "ct"]),
       st.sampled_from(["scalarized", "none"]), st.sampled_from(["table", "cyclic-basis"]),
       st.integers(1, 400))
def test_two_level_fill_matches_one_step_maps(seed, mode, kind, sched_kind, last):
    # every prefix of a lifted block, or of a block of one-step maps where
    # a lift would serve one start, from a block start, equals the states
    # of the one-step reference step applied count times
    inst, sched, rng = _random_problem(seed)
    n, m = inst.H.shape
    d = n * m
    if sched_kind == "cyclic-basis":
        sched = make_schedule("cyclic-basis", m, dwell=0.05)
    cfg = RunConfig(h=float(rng.uniform(0.05, 0.95)) * 2.0 / inst.spectrum.lambda_n,
                    s=float(rng.uniform(0.0, 0.5)), dt_int=0.01, compressor=Compressor(kind))
    B, fill = _stepper(inst, sched, cfg, mode, None, last)
    rows, stride = _phase(sched, cfg, mode)
    shape = _block_shape(len(rows) * stride, min(MAX_BLOCK, BLOCK_ELEMENTS // d, last), d)
    if fill.path == "lifted":
        L, q = shape
        assert B == L * q and L % (len(rows) * stride) == 0
        assert (L + q - 1) * d * d * 8 <= LIFT_BYTES
    else:  # no room for a second block start: the one-step maps
        assert fill.path == "mapped" and shape is None
    k = B * int(rng.integers(0, 3))
    x = rng.standard_normal(d)
    step = reference_step(inst, sched, cfg, mode, None)
    want = [step(k, x)]
    for j in range(1, B):
        want.append(step(k + j, want[-1]))
    want = np.array(want)
    scale = np.maximum(_row_norms(want), np.linalg.norm(x))
    for count in range(1, B + 1):
        got = fill(k, x, count)
        assert got.shape == (count, d)
        assert np.all(_row_norms(got - want[:count]) <= 1e-12 * scale[:count])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["dt", "ct"]),
       st.sampled_from(["scalarized", "none"]), st.sampled_from(["table", "cyclic-basis"]),
       st.integers(1, 400))
def test_error_coordinate_fill_matches_reference_steps(seed, mode, kind, sched_kind, last):
    # with origin 1 (x) v*, two consecutive lifted blocks map the error at a
    # block start to the errors of the one-step reference step applied
    # count times, as the run loop calls them; s ||h_i||^2 <= 1 keeps a dt
    # step's growth below 2, so 2 B <= 512 reference steps cannot overflow
    inst, sched, rng = _random_problem(seed)
    n, m = inst.H.shape
    d = n * m
    if sched_kind == "cyclic-basis":
        sched = make_schedule("cyclic-basis", m, dwell=0.05)
    cfg = RunConfig(h=float(rng.uniform(0.05, 0.95)) * 2.0 / inst.spectrum.lambda_n,
                    s=float(rng.uniform(0.0, 1.0)) / float(np.max(np.sum(inst.H ** 2, axis=1))),
                    dt_int=0.01, compressor=Compressor(kind))
    ref = np.tile(inst.v_star, n)
    B, fill = _stepper(inst, sched, cfg, mode, None, last, origin=ref)
    k = B * int(rng.integers(0, 3))
    x = rng.standard_normal(d)
    step = reference_step(inst, sched, cfg, mode, None)
    want = [step(k, x)]
    for j in range(1, 2 * B):
        want.append(step(k + j, want[-1]))
    want = np.array(want)
    first = fill(k, x - ref, B)
    got = np.concatenate([first, fill(k + B, first[-1], B)])
    scale = np.maximum(_row_norms(want), np.linalg.norm(x))
    assert np.all(_row_norms(got - (want - ref)) <= 1e-12 * scale)


def _assert_maps_match_rk4(inst, sched, cfg):
    """Every row's map [A; w] of _period_maps, dt and ct, equals the step
    of _advance on the identity basis (A) and on the zero state (w)."""
    n, m = inst.H.shape
    d = n * m
    basis, zero = np.eye(d).reshape(d, n, m), np.zeros((n, m))
    for mode in ("ct", "dt"):
        rows, stride = _phase(sched, cfg, mode)
        maps = _period_maps(inst, rows, cfg, mode, np.zeros(d))
        assert maps.shape == (len(rows), d + 1, d)
        advance = _advance(inst.graph.laplacian, inst.H, cfg, mode)
        C_of = _compression(sched, cfg, mode)
        for r, M in enumerate(maps):
            C = C_of(r * stride, 1)[0]
            A_rk4 = advance(C, basis, 0.0).reshape(d, d)
            w_rk4 = advance(C, zero, inst.b).reshape(d)
            assert np.abs(M[:d] - A_rk4).max() <= 1e-13
            assert np.abs(M[d] - w_rk4).max() <= 1e-13 * max(1.0, np.abs(w_rk4).max())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["scalarized", "none"]),
       st.floats(1e-4, 0.05), st.floats(0.0, 3.0))
def test_taylor_ct_maps_match_rk4_on_the_identity_basis(seed, kind, dt, s):
    # every row's Horner-built ct map [A; w] equals the midpoint-frozen RK4
    # step applied to the identity basis (A) and to the zero state (w); the
    # dt map is that step
    inst, sched, rng = _random_problem(seed)
    cfg = RunConfig(h=float(rng.uniform(0.05, 0.95)) * 2.0 / inst.spectrum.lambda_n, s=s,
                    dt_int=dt, compressor=Compressor(kind))
    _assert_maps_match_rk4(inst, sched, cfg)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["scalarized", "none"]),
       st.floats(1e-4, 0.05), st.floats(0.0, 3.0))
def test_taylor_ct_maps_match_rk4_above_the_dense_gate(seed, kind, dt, s):
    # the same at 260 <= n m <= 300, above DENSE_MAX_DIM: _period_maps builds
    # the maps of a periodic run at any size, and _stepper alone gates them
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    inst = _random_instance(rng, int(rng.integers(-(-260 // m), 300 // m + 1)), m)
    assert DENSE_MAX_DIM < inst.n * m <= 300
    table = rng.standard_normal((int(rng.integers(1, 7)), m))
    sched = make_schedule("table", m, dwell=0.05,
                          table=table / np.linalg.norm(table, axis=1, keepdims=True))
    cfg = RunConfig(h=float(rng.uniform(0.05, 0.95)) * 2.0 / inst.spectrum.lambda_n, s=s,
                    dt_int=dt, compressor=Compressor(kind))
    _assert_maps_match_rk4(inst, sched, cfg)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["dt", "ct"]),
       st.sampled_from(["scalarized", "none"]), st.booleans())
def test_period_map_product_advances_one_period(seed, mode, kind, errors):
    # the product of one period's maps, each applied stride times, is the
    # period map M_P: from a state (or, with origin 1 (x) v*, an error) at
    # a period multiple it gives the reference step's one period later
    inst, sched, rng = _random_problem(seed)
    n, m = inst.H.shape
    d = n * m
    cfg = RunConfig(h=float(rng.uniform(0.05, 0.95)) * 2.0 / inst.spectrum.lambda_n,
                    s=float(rng.uniform(0.0, 1.0)) / float(np.max(np.sum(inst.H ** 2, axis=1))),
                    dt_int=0.01, compressor=Compressor(kind))
    origin = np.tile(inst.v_star, n) if errors else np.zeros(d)
    rows, stride = _phase(sched, cfg, mode)
    maps = _period_maps(inst, rows, cfg, mode, origin)
    period_map = np.eye(d + 1)  # homogeneous: [z, 1] -> [[z, 1] @ [A; w], 1]
    for M in maps:
        hom = np.eye(d + 1)
        hom[:, :d] = M
        period_map = period_map @ np.linalg.matrix_power(hom, stride)
    period = len(maps) * stride
    k = period * int(rng.integers(0, 4))
    x = rng.standard_normal(d)
    step = reference_step(inst, sched, cfg, mode, None)
    want = x
    for j in range(period):
        want = step(k + j, want)
    got = np.append(x - origin, 1.0) @ period_map[:, :d]
    assert np.linalg.norm(got - (want - origin)) <= 1e-12 * max(np.linalg.norm(want),
                                                              np.linalg.norm(x))


def _patch_guard(monkeypatch, guard):
    """Lower DIVERGENCE_GUARD for the block loop and the stepwise oracle."""
    for module in (dynamics, oracles):
        monkeypatch.setattr(module, "DIVERGENCE_GUARD", guard)


@pytest.mark.parametrize("mode, kind", [("dt", "scalarized"), ("dt", "uniform"),
                                        ("ct", "scalarized"), ("ct", "none")])
def test_guard_bound_above_half_takes_exact_norms(inst10, monkeypatch, mode, kind):
    # a guard of 30 on the reference network, where ||1 (x) v*|| = 17.6:
    # the bound n err + ||1 (x) v*|| stays above half the guard in every
    # block, and above the guard itself over the first steps, while no
    # state leaves the ball of radius 23 (rank_check refuses instances
    # whose ||v*|| comes near the real guard). The exact norms must keep
    # the run going, as the stepwise oracle does
    _patch_guard(monkeypatch, 30.0)
    ref = np.tile(V_STAR, 10)
    u = np.random.default_rng(5).standard_normal(50)
    x0 = ref + 20.0 * u / np.linalg.norm(u)
    assert 15.0 < np.linalg.norm(ref) and np.linalg.norm(x0) < 30.0
    assert np.linalg.norm(x0 - ref) + np.linalg.norm(ref) > 30.0
    cfg = RunConfig(h=0.2, s=0.02 if mode == "dt" else 1.0, dt_int=1e-3, tol=1e-300,
                    horizon=400 if mode == "dt" else 0.4, record_every=3, x0=x0,
                    compressor=Compressor(kind))
    trace = _run_both(inst10, SCHED5, cfg, mode)
    assert trace is not None and trace.clock[-1] == cfg.horizon


@pytest.mark.parametrize("guard, s, x0, clock, norm", [
    (1.5, 3.0, 1.0 - 0.75 / 2**10, 11, 2.5),
    (0.9, 0.5, 1.001, 1, 1.0005),
], ids=["bound-passes-early", "guard-below-solution"])
def test_guard_bound_above_half_reports_the_exact_norm(monkeypatch, guard, s, x0, clock, norm):
    # x[k] - 1 = (1 - s)^k (x[0] - 1), v* = 1. Under a guard of 1.5 with
    # s = 3 the bound |x - 1| + 1 first passes the guard at k = 10, where
    # x = 0.25, and the first state beyond it is x[11] = 2.5. Under a
    # guard of 0.9, below ||1 (x) v*||, the errors stay small while every
    # state is beyond the guard, from x[1] = 1.0005 on
    _patch_guard(monkeypatch, guard)
    sched = make_schedule("cyclic-basis", 1, dwell=1.0)
    cfg = RunConfig(h=0.1, s=s, horizon=1000, tol=1e-300, x0=np.array([x0]))
    for run in (run_simulation, run_simulation_stepwise):
        with pytest.raises(SimulationDiverged) as exc:
            run(SCALAR_INST, sched, cfg, "dt")
        assert exc.value.clock == clock
        assert exc.value.norm == pytest.approx(norm, rel=1e-12)


@given(st.integers(1, 60), st.integers(1, MAX_BLOCK), st.integers(1, DENSE_MAX_DIM))
def test_block_shape_fits_the_lift_budget(period, B, d):
    # a shape serves q >= 2 block starts: L a multiple of the period, the
    # L + q - 1 maps within LIFT_BYTES and L q <= B. None exactly when no
    # q >= 2 fits beside the inner lift L, the multiple of the period
    # nearest sqrt(B) within the budget; so always when even L = period
    # leaves no room for a second start
    shape = _block_shape(period, B, d)
    maps = LIFT_BYTES // (8 * d * d)
    L = period * max(1, min(round(np.sqrt(B) / period), maps // period))
    assert (shape is None) == (min(B // L, maps - L + 1) < 2)
    if period + 1 > maps or 2 * period > B:
        assert shape is None
    if shape is not None:
        q = shape[1]
        assert shape[0] == L and L % period == 0
        assert q >= 2 and L + q - 1 <= maps and L * q <= B


@pytest.mark.parametrize("mode, kind, B", [
    ("dt", "scalarized", 150), ("dt", "none", 156), ("ct", "scalarized", 150), ("ct", "none", 156),
])
def test_reference_network_lifts_blocks_of_150_steps(inst10, mode, kind, B):
    # inner lifts of 15, 13, 50 and 13 steps; a fallback to one-step maps
    # would give blocks of 8192 // 50 = 163 steps
    cfg = RunConfig(h=0.2, s=0.02 if mode == "dt" else 1.0, dt_int=1e-3,
                    compressor=Compressor(kind))
    assert _stepper(inst10, SCHED5, cfg, mode, None, 2000)[0] == B


@pytest.mark.parametrize("mode, steps", [("dt", 7), ("ct", 60)])
def test_short_reference_runs_step_through_one_step_maps(inst10, mode, steps):
    # fewer steps than two inner lifts (5 dt, 50 ct steps): a lift would
    # serve one block start, so the run applies the one-step maps
    cfg = RunConfig(h=0.2, s=0.02 if mode == "dt" else 0.5, dt_int=1e-3, tol=1e-300,
                    horizon=steps if mode == "dt" else steps * 1e-3)
    trace = run_simulation(inst10, SCHED5, cfg, mode)
    assert (trace.meta["path"], trace.meta["block"]) == ("mapped", steps)
    _assert_same_run(trace, run_simulation_stepwise(inst10, SCHED5, cfg, mode))


@pytest.mark.parametrize("path", ["lifted", "mapped", "trig", "structured"])
@pytest.mark.parametrize("mode", ["dt", "ct"])
def test_trace_meta_names_the_fill_path_and_block(path, mode):
    inst, sched, cfg = _fill_case(0, path, mode, "scalarized")
    cfg = replace(cfg, tol=1e-300, horizon=300 if mode == "dt" else 0.3)
    B, fill = _stepper(inst, sched, cfg, mode, None, 300)
    trace = run_simulation(inst, sched, cfg, mode)
    assert fill.path == FILL_PATHS.get(path, path)
    assert (trace.meta["path"], trace.meta["block"]) == (fill.path, B)


def test_every_cyclic_basis_run_caches_its_maps():
    # n >= m, so a cyclic-basis period at n m <= DENSE_MAX_DIM holds at
    # most sqrt(DENSE_MAX_DIM) maps, which the cache bound admits
    for m in range(1, 17):
        inst = gen_instance(DENSE_MAX_DIM // m, m, np.ones(m), seed=0)
        sched = make_schedule("cyclic-basis", m, dwell=0.01)
        for mode in ("dt", "ct"):
            fill = _stepper(inst, sched, RunConfig(h=0.2, s=0.02, dt_int=1e-3), mode, None, 1000)[1]
            assert fill.path in ("lifted", "mapped"), (m, mode)


def test_long_table_steps_structured_within_the_cache_bound():
    # 400 maps of 100^2 floats would hold 31 MiB of numpy memory for a
    # 50-step run; past the 8 MiB bound the run steps structured
    inst = gen_instance(20, 5, V_STAR, seed=0)
    table = np.random.default_rng(0).standard_normal((400, 5))
    sched = make_schedule("table", 5, dwell=0.01,
                          table=table / np.linalg.norm(table, axis=1, keepdims=True))
    cfg = RunConfig(h=0.2, s=0.02, horizon=50, tol=1e-300)
    assert _stepper(inst, sched, cfg, "dt", None, 50)[1].path == "structured"
    tracemalloc.start()
    try:
        trace = run_simulation(inst, sched, cfg, "dt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20
    _assert_same_run(trace, run_simulation_stepwise(inst, sched, cfg, "dt"))


def test_run_simulation_never_steps_past_the_horizon(inst10, monkeypatch):
    # a uniform-quantizer step applies the compressor once to the whole state
    calls = []
    apply = Compressor.apply
    monkeypatch.setattr(Compressor, "apply",
                        lambda self, X, rng=None: calls.append(X.shape) or apply(self, X, rng))
    cfg = RunConfig(h=0.2, s=0.02, horizon=300, tol=1e-300, record_every=1,
                    compressor=Compressor("uniform"))
    assert 300 % _stepper(inst10, SCHED5, cfg, "dt", None, 300)[0] != 0
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    assert calls == [(10, 5)] * 300
    assert tr.clock[-1] == 300 and len(tr) == 301


# (fill path, mode, compressor) of the equilibrium and average tests: every
# path of _stepper in both modes; baseline compressors always step structured
FILL_CASES = [("lifted", mode, kind) for mode in ("dt", "ct") for kind in ("scalarized", "none")]
FILL_CASES += [(path, mode, "scalarized") for path in ("mapped", "trig") for mode in ("dt", "ct")]
FILL_CASES += [("structured", mode, kind) for mode in ("dt", "ct")
               for kind in ("scalarized", "none")]
FILL_CASES += [("structured", "dt", kind) for kind in ("topk", "uniform")]
FILL_PATHS = {"trig": "trig-maps"}  # the fill.path of each case's short name


def _fill_case(seed, path, mode, kind):
    """(inst, schedule, cfg) of a valid random run meant to fill by path: a
    small network on a table schedule (lifted), n m = 60 on a 40-row table
    (mapped: a period of maps exceeds LIFT_BYTES), a trigonometric
    schedule at n m <= TRIG_MAP_MAX_DIM (trig: m = 4, or m = 2 on networks
    of 2 or 3 nodes), or n m >= 260 (structured). h lambda_n and
    s max ||h_i||^2 are at most 0.95, so no dt step expands the errors;
    ct steps of 1e-3 are as safe."""
    rng = np.random.default_rng(seed)
    n, m, rows = {"lifted": (int(rng.integers(2, 9)), int(rng.integers(1, 4)),
                             int(rng.integers(1, 7))),
                  "mapped": (12, 5, 40), "trig": (int(rng.integers(2, 17)), 4, None),
                  "structured": (int(rng.integers(52, 61)), 5, 5)}[path]
    if rows is None:
        m = 4 if n >= 4 else 2
    inst = _random_instance(rng, n, min(m, n))
    if rows is None:
        sched = make_schedule("trigonometric", inst.m, dwell=float(rng.uniform(0.01, 1.0)),
                              frequencies=rng.uniform(0.1, 3.0, size=inst.m // 2))
    else:
        table = rng.standard_normal((rows, inst.m))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        sched = make_schedule("table", inst.m, dwell=0.01, table=table)
    cfg = RunConfig(h=float(rng.uniform(0.05, 0.95)) / inst.spectrum.lambda_n,
                    s=float(rng.uniform(0.05, 0.95)) / float((inst.H**2).sum(axis=1).max()),
                    dt_int=1e-3, compressor=Compressor(kind, k=2, l=3))
    return inst, sched, cfg


def _two_fills(path, inst, sched, cfg, mode, z):
    """Errors of two consecutive blocks from the error z at step 0, once the
    run is checked to be valid and the fill that _stepper returned to take
    path."""
    cfg.validate(inst, sched, mode)
    origin = np.tile(inst.v_star, inst.n)
    rng = np.random.default_rng([cfg.seed, 2])
    B, fill = _stepper(inst, sched, cfg, mode, rng, 600, origin=origin)
    assert fill.path == FILL_PATHS.get(path, path)
    first = fill(0, z, B)
    return np.concatenate([first, fill(B, first[-1], B)])


@pytest.mark.parametrize("path, mode, kind", FILL_CASES)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_planted_solution_is_an_equilibrium_of_every_fill_path(path, mode, kind, seed):
    # from the error 0 every step stays at 1 (x) v*, up to rounding
    inst, sched, cfg = _fill_case(seed, path, mode, kind)
    E = _two_fills(path, inst, sched, cfg, mode, np.zeros(inst.n * inst.m))
    assert np.abs(E).max() <= 1e-12 * max(1.0, np.linalg.norm(inst.v_star))


@pytest.mark.parametrize("path, mode, kind",
                         FILL_CASES + [("structured", "dt", "unbiased")])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_zero_gain_preserves_the_node_average_on_every_fill_path(path, mode, kind, seed):
    # at s = 0, 1^T L = 0 keeps the node average of the states, and so of
    # the errors, where it starts, whatever the compression
    inst, sched, cfg = _fill_case(seed, path, mode, kind)
    cfg = replace(cfg, s=0.0)
    n, m = inst.H.shape
    z = np.random.default_rng(seed).standard_normal(n * m)
    E = _two_fills(path, inst, sched, cfg, mode, z)
    drift = E.reshape(-1, n, m).mean(axis=1) - z.reshape(n, m).mean(axis=0)
    assert np.abs(drift).max() <= 1e-12 * max(1.0, np.abs(z).max() + np.abs(inst.v_star).max())
