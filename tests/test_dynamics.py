import numpy as np
import pytest

from scalareq.compression import Compressor, make_schedule
from hypothesis import given, settings
from hypothesis import strategies as st

from scalareq.dynamics import (DENSE_MAX_DIM, RunConfig, Trace, consensus_rhs,
                               integrate, run_simulation, solver_ct_rhs,
                               solver_dt_step)
from scalareq.dynamics import _advance, _stepper
from scalareq.errors import SimulationDiverged
from scalareq.graph import WeightedGraph, build_graph
from scalareq.harness import ProblemInstance, account, gen_instance

V_STAR = (2.0, 1.0, 3.0, 4.0, -1.0)
SCHED5 = make_schedule("cyclic-basis", 5, dwell=0.01)


@pytest.fixture(scope="module")
def inst10():
    return gen_instance(10, 5, V_STAR, seed=0)


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


def test_consensus_rhs_identity_schedule():
    L = np.array([[1.0, -1.0], [-1.0, 1.0]])
    dx = consensus_rhs(L, make_schedule("identity", 2), 0.0,
                       np.array([1.0, 5.0, 3.0, 7.0]))
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
    step = _stepper(inst10, SCHED5, RunConfig(s=s, dt_int=dt), "ct", None)
    x0 = np.random.default_rng(2).standard_normal(n * m)
    assert np.abs(step(0, x0) - (R @ x0 + w)).max() < 1e-13
    assert np.abs(step(0, np.zeros(n * m)) - w).max() < 1e-13
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
        for (j, w) in inst10.graph.neighbors(i):
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
        out = solver_dt_step(inst10, SCHED5, 0.2, 0.02, 0, x, comp,
                             rng=np.random.default_rng(0))
        assert np.all(np.isfinite(out))
        assert out.shape == (50,)


def test_unbiased_step_noise_stream_is_node_sequential(inst10):
    # drawing all node noises in one block must equal per-node draws
    comp = Compressor("unbiased", l=2)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(50)
    out_a = solver_dt_step(inst10, SCHED5, 0.2, 0.02, 0, x, comp,
                           rng=np.random.default_rng([9, 2]))
    rng_b = np.random.default_rng([9, 2])
    X = x.reshape(10, 5)
    Q = np.stack([comp.apply(X[i], rng=rng_b) for i in range(10)])
    L = inst10.spectrum.L
    r = (X * inst10.H).sum(axis=1) - inst10.b
    expect = X - 0.2 * (L @ Q) - 0.02 * r[:, None] * inst10.H
    assert np.array_equal(out_a, expect.reshape(-1))


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


def _random_problem(seed):
    """A random connected weighted graph, a planted instance on it and a
    random unit-vector table schedule."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, min(n, 4) + 1))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((i, j))
    graph = build_graph("custom", n, edges=[(i, j, float(rng.uniform(0.5, 2.0)))
                                            for (i, j) in sorted(edges)])
    H = rng.standard_normal((n, m))
    v = rng.standard_normal(m)
    inst = ProblemInstance(H=H, b=H @ v, graph=graph, v_star=v)
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

    advance = _advance(L, inst.H, sched, cfg, "dt")
    for Xi, Yi in zip(X, advance(k, X, inst.b)):
        oracle = solver_dt_step(inst, sched, h, s, k, Xi.reshape(-1))
        assert np.abs(Yi.reshape(-1) - oracle).max() <= 1e-12
        assert np.abs(advance(k, Xi, inst.b) - Yi).max() <= 1e-12

    advance = _advance(L, inst.H, sched, cfg, "ct")
    t0 = k * cfg.dt_int
    rhs = lambda t, xv: solver_ct_rhs(inst, sched, s, t, xv)
    for Xi, Yi in zip(X, advance(k, X, inst.b)):
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


def test_run_simulation_counter_ledger(inst10):
    cfg = RunConfig(h=0.2, s=0.02, horizon=7, tol=1e-300, record_every=1)
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    # cycle-10: 20 directed links; scalarized sends 1 scalar / 64 bits
    assert np.array_equal(tr.clock, np.arange(8))
    assert np.array_equal(tr.scalars_tx_cum, 20 * np.arange(8))
    assert np.array_equal(tr.bits_tx_cum, 64 * 20 * np.arange(8))
    assert not tr.converged
    assert tr.hit_clock is None
    assert tr.final_err == tr.err[-1]


def test_run_simulation_counts_full_vectors_without_compression(inst10):
    cfg = RunConfig(h=0.2, s=0.02, horizon=4, tol=1e-300, record_every=1,
                    compressor=Compressor("none"))
    tr = run_simulation(inst10, SCHED5, cfg, "dt")
    scal, bits = account("none", 5)
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


def test_run_simulation_divergence_guard():
    inst = ProblemInstance(H=np.array([[1.0]]), b=np.array([1.0]),
                           graph=WeightedGraph(n=1), v_star=np.array([1.0]))
    sched = make_schedule("cyclic-basis", 1, dwell=1.0)
    cfg = RunConfig(h=0.1, s=3.0, horizon=1000, tol=1e-300,
                    x0=np.array([10.0]))
    with pytest.raises(SimulationDiverged) as exc:
        run_simulation(inst, sched, cfg, "dt")
    assert exc.value.norm > 1e12
    assert exc.value.clock <= 1000


def test_runconfig_validation(inst10):
    lam_n = inst10.spectrum.lambda_n
    with pytest.raises(ValueError, match="positive"):
        RunConfig(tol=0.0).validate(SCHED5, "dt", lam_n)
    with pytest.raises(ValueError, match="s >= 0"):
        RunConfig(s=-0.1).validate(SCHED5, "dt", lam_n)
    with pytest.raises(ValueError, match="record_every"):
        RunConfig(record_every=0).validate(SCHED5, "dt", lam_n)
    with pytest.raises(ValueError, match="unit-vector"):
        RunConfig().validate(make_schedule("identity", 5), "dt", lam_n)
    with pytest.raises(ValueError, match="h > 0"):
        RunConfig(h=0.0).validate(SCHED5, "dt", lam_n)
    with pytest.raises(ValueError, match="lambda_n"):
        RunConfig(h=0.6).validate(SCHED5, "dt", lam_n)
    with pytest.raises(ValueError, match="scalarized or none"):
        RunConfig(compressor=Compressor("topk", k=2)).validate(SCHED5, "ct", lam_n)
    with pytest.raises(ValueError, match="subdivide"):
        RunConfig(dt_int=3e-4).validate(SCHED5, "ct", lam_n)
    with pytest.raises(ValueError, match="mode"):
        RunConfig().validate(SCHED5, "st", lam_n)


def test_trace_invariants():
    with pytest.raises(ValueError, match="increasing"):
        Trace(clock=[0.0, 0.0], err=[1.0, 1.0], disagreement=[0.0, 0.0],
              scalars_tx_cum=[0, 1], bits_tx_cum=[0, 64])
    with pytest.raises(ValueError, match="nondecreasing"):
        Trace(clock=[0.0, 1.0], err=[1.0, 1.0], disagreement=[0.0, 0.0],
              scalars_tx_cum=[1, 0], bits_tx_cum=[0, 64])
