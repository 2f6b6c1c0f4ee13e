import numpy as np
import pytest

from scalareq.compression import eval_dt, make_schedule
from scalareq.graph import build_graph, laplacian_spectrum
from scalareq.theory import (RateConstants, consensus_rate,
                             dt_stepsize_and_rate, lemma1_constants,
                             lyapunov_v1, observability_gram, solver_ct_rate)

SCHED5 = make_schedule("cyclic-basis", 5, dwell=0.01)


@pytest.fixture(scope="module")
def cycle10():
    return laplacian_spectrum(build_graph("cycle", 10))


@pytest.fixture(scope="module")
def pair():
    return laplacian_spectrum(build_graph("path", 2))


def test_consensus_rate_simple_algebra():
    # q = 2 * 1 * 1 / (1 + 1)^2 = 1/2
    gamma, c = consensus_rate(1.0, 1.0, 1.0, 1.0)
    assert gamma == pytest.approx(0.5, abs=1e-15)
    assert c == pytest.approx(2.0, abs=1e-15)


def test_consensus_rate_ten_cycle(cycle10):
    gamma, c = consensus_rate(0.01, 0.05, cycle10.lambda2, cycle10.lambda_n)
    assert gamma == pytest.approx(0.8990792379906796, abs=1e-12)
    assert c == pytest.approx(1.005333377502517, abs=1e-12)


def test_consensus_rate_validation():
    with pytest.raises(ValueError, match="alpha"):
        consensus_rate(2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        consensus_rate(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="lambda2"):
        consensus_rate(0.5, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="lambda2"):
        consensus_rate(0.5, 1.0, 0.0, 1.0)


def test_lemma1_constants_halving_excitation():
    k_x, gamma_x = lemma1_constants(1.0, 1.0, 1.0)
    assert k_x == pytest.approx(2.0, abs=1e-15)
    assert gamma_x == pytest.approx(np.log(2.0), abs=1e-15)
    with pytest.raises(ValueError):
        lemma1_constants(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="too large"):
        lemma1_constants(10.0, 1.0, 1.0)


@pytest.mark.parametrize("alpha,T,lam2,lam_n", [
    (0.01, 0.05, 0.38196601125010515, 4.0),
    (0.5, 1.0, 1.0, 2.0),
    (0.2, 2.0, 0.7, 3.3),
])
def test_consensus_rate_agrees_with_scalar_lemma(alpha, T, lam2, lam_n):
    # the flow rate is the scalar lemma applied at excitation alpha*lambda2
    # with regressor bound lambda_n
    gamma, c = consensus_rate(alpha, T, lam2, lam_n)
    k_x, gamma_x = lemma1_constants(alpha * lam2, T, lam_n)
    assert c == pytest.approx(k_x, rel=1e-14)
    assert gamma == pytest.approx(np.exp(-gamma_x), rel=1e-12)


def test_solver_ct_rate_worked_values():
    gamma_f, alpha_bar, alpha_prime = solver_ct_rate(
        alpha=0.5, T=1.0, lambda2=1.0, lambda_n=2.0, rho_m=1.0, h_M=1.0, s=1.0)
    assert alpha_prime == pytest.approx(2.5, abs=1e-15)
    assert alpha_bar == pytest.approx(0.21922359359558485, rel=1e-10)
    assert gamma_f == pytest.approx(0.9824621125123532, rel=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_solver_ct_rate_root_identity(seed):
    rng = np.random.default_rng(seed)
    T = float(rng.uniform(0.1, 2.0))
    alpha = float(rng.uniform(0.01, 1.0)) * T
    lam2 = float(rng.uniform(0.1, 2.0))
    lam_n = lam2 * float(rng.uniform(1.0, 4.0))
    rho_m = float(rng.uniform(0.05, 1.5))
    h_M = float(rng.uniform(0.3, 2.0))
    s = float(rng.uniform(1e-3, 2.0))
    gamma_f, alpha_bar, alpha_prime = solver_ct_rate(alpha, T, lam2, lam_n, rho_m, h_M, s)
    assert 0.0 < gamma_f < 1.0
    assert 0.0 < alpha_bar < alpha_prime
    # alpha_bar is the smaller root of x^2 - alpha' x + lam2 alpha rho_m T s
    assert alpha_bar * (alpha_prime - alpha_bar) == pytest.approx(
        lam2 * alpha * rho_m * T * s, rel=1e-9)


def test_solver_ct_rate_weak_gain_limit():
    base = dict(alpha=0.01, T=0.05, lambda2=0.4, lambda_n=4.0, rho_m=0.3, h_M=2.0)
    g_small, _, _ = solver_ct_rate(s=1e-8, **base)
    g_moderate, _, _ = solver_ct_rate(s=0.1, **base)
    assert g_moderate < g_small < 1.0
    assert g_small > 1.0 - 1e-6


def test_solver_ct_rate_validation():
    with pytest.raises(ValueError, match="s > 0"):
        solver_ct_rate(0.5, 1.0, 1.0, 2.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="alpha <= T"):
        solver_ct_rate(2.0, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0)


def test_observability_gram_two_node_hand_case(pair):
    sched = make_schedule("cyclic-basis", 1, dwell=1.0)
    G, g = observability_gram(pair, sched, h=0.2, k=0, K=1)
    # A = 1 - 0.2 * 2 = 0.6; G = 2*0.2*2 - 0.04*4 = 0.64 = 1 - 0.36
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(0.64, abs=1e-15)
    assert g == pytest.approx(0.64, abs=1e-15)


def test_observability_gram_ten_cycle(cycle10):
    G, g = observability_gram(cycle10, SCHED5, h=0.2, k=0, K=5)
    assert G.shape == (45, 45)
    assert g == pytest.approx(0.14695048315002943, abs=1e-12)
    # cyclic schedules give the same excitation from every start
    _, g3 = observability_gram(cycle10, SCHED5, h=0.2, k=3, K=5)
    assert g3 == pytest.approx(g, abs=1e-12)


def test_observability_gram_monotone_in_window(cycle10):
    _, g5 = observability_gram(cycle10, SCHED5, h=0.2, k=0, K=5)
    _, g10 = observability_gram(cycle10, SCHED5, h=0.2, k=0, K=10)
    assert g10 >= g5 - 1e-12


def test_observability_gram_frozen_schedule_not_exciting(pair):
    frozen = make_schedule("table", 2, dwell=1.0, table=[[1.0, 0.0]])
    G, g = observability_gram(pair, frozen, h=0.2, k=0, K=4)
    assert g == 0.0
    assert G.shape == (2, 2)


def test_observability_gram_validation(pair):
    sched = make_schedule("cyclic-basis", 2, dwell=1.0)
    with pytest.raises(ValueError, match="lambda_n"):
        observability_gram(pair, sched, h=1.1, k=0, K=2)
    with pytest.raises(ValueError, match="window"):
        observability_gram(pair, sched, h=0.2, k=0, K=1)


def _dense_gram_oracle(spectrum, schedule, h, k, K):
    """The grammian, g and V1 transitions built from dense kron products
    of the full (n-1) m disagreement state."""
    lams = spectrum.eigenvalues[1:]
    m = schedule.m
    dim = m * len(lams)
    W = np.diag(2.0 * h * lams - h**2 * lams**2)

    def outer_at(idx):
        if schedule.kind == "identity":
            return np.eye(m)
        C = eval_dt(schedule, idx)
        return np.outer(C, C)

    def gram_at(k0):
        G, T = np.zeros((dim, dim)), np.eye(dim)
        for j in range(K):
            CC = outer_at(k0 + j)
            G += T.T @ np.kron(W, CC) @ T
            T = (np.eye(dim) - h * np.kron(np.diag(lams), CC)) @ T
        return G

    g = min(float(np.linalg.eigvalsh(gram_at(k0))[0]) for k0 in range(schedule.period_steps))
    return gram_at(k), g


@pytest.mark.parametrize("seed", range(12))
def test_observability_gram_matches_dense_kron_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 5))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((i, j))
    spec = laplacian_spectrum(build_graph(
        "custom", n, edges=[(i, j, float(rng.uniform(0.5, 2.0))) for (i, j) in sorted(edges)]))
    if seed % 4 == 3:
        sched = make_schedule("identity", m)
        K = m
    else:
        table = rng.standard_normal((int(rng.integers(m, m + 4)), m))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        sched = make_schedule("table", m, dwell=0.01, table=table)
        K = len(table)
    h = float(rng.uniform(0.05, 0.95)) * 2.0 / spec.lambda_n
    k = int(rng.integers(0, 10))
    G, g = observability_gram(spec, sched, h, k, K)
    G_ref, g_ref = _dense_gram_oracle(spec, sched, h, k, K)
    assert G.shape == G_ref.shape
    assert np.abs(G - G_ref).max() <= 1e-12
    assert g == pytest.approx(g_ref, rel=1e-10)


def test_lyapunov_v1_single_window_is_energy(cycle10):
    rng = np.random.default_rng(0)
    z = rng.standard_normal(45)
    assert lyapunov_v1(cycle10, SCHED5, 0.2, 1, 0, z) == pytest.approx(
        float(z @ z), rel=1e-12)


def test_lyapunov_v1_two_node_hand_case(pair):
    sched = make_schedule("cyclic-basis", 1, dwell=1.0)
    v = lyapunov_v1(pair, sched, 0.2, 2, 0, np.array([1.0]))
    assert v == pytest.approx(1.36, abs=1e-15)


def test_dt_stepsize_worked_values():
    s_star, beta, gamma_d = dt_stepsize_and_rate(0.5, 5, 1.0, 1.0, s=0.01)
    assert s_star == pytest.approx(0.01954174427674671, rel=1e-12)
    assert beta == pytest.approx(0.0047, rel=1e-12)
    assert gamma_d == pytest.approx(0.9953, rel=1e-12)


def test_dt_stepsize_without_s_gives_bound_only():
    s_star, beta, gamma_d = dt_stepsize_and_rate(0.5, 5, 1.0, 1.0)
    assert s_star == pytest.approx(0.01954174427674671, rel=1e-12)
    assert beta is None and gamma_d is None


def test_dt_stepsize_branches_meet_at_full_excitation():
    # g = 1, K = 1, h_M = rho_m = 1 puts both branches at exactly 1/6
    s_star, _, _ = dt_stepsize_and_rate(1.0, 1, 1.0, 1.0)
    assert s_star == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_dt_stepsize_near_boundary_stays_valid():
    s_star = dt_stepsize_and_rate(0.5, 5, 1.0, 1.0)[0]
    _, beta, _ = dt_stepsize_and_rate(0.5, 5, 1.0, 1.0, s=s_star * (1 - 1e-9))
    assert beta > 0.0


def test_dt_stepsize_validation():
    with pytest.raises(ValueError, match="excitation"):
        dt_stepsize_and_rate(0.0, 5, 1.0, 1.0)
    with pytest.raises(ValueError, match="excitation"):
        dt_stepsize_and_rate(1.5, 5, 1.0, 1.0)
    with pytest.raises(ValueError, match="K >= 1"):
        dt_stepsize_and_rate(0.5, 0, 1.0, 1.0)
    with pytest.raises(ValueError, match="out of range"):
        dt_stepsize_and_rate(0.5, 5, 1.0, 1.0, s=1.0)
    with pytest.raises(ValueError, match="out of range"):
        dt_stepsize_and_rate(0.5, 5, 1.0, 1.0, s=0.0)


@pytest.mark.parametrize("seed", range(25))
def test_dt_stepsize_half_bound_always_contracts(seed):
    # rho_m <= h_M^2 always holds for real data matrices (the smallest
    # gram eigenvalue cannot beat the largest row)
    rng = np.random.default_rng(seed)
    h_M = float(rng.uniform(0.5, 2.0))
    rho_m = h_M**2 * float(rng.uniform(0.05, 1.0))
    g = float(rng.uniform(0.05, 1.0))
    K = int(rng.integers(1, 11))
    s_star, beta, gamma_d = dt_stepsize_and_rate(
        g, K, h_M, rho_m, s=dt_stepsize_and_rate(g, K, h_M, rho_m)[0] / 2)
    assert 0.0 < beta < 1.0
    assert gamma_d == 1.0 - beta


def test_rate_constants_as_dict():
    rc = RateConstants(gamma=0.9, c=1.1)
    assert rc.as_dict() == {"gamma": 0.9, "c": 1.1}
    assert RateConstants().as_dict() == {}
