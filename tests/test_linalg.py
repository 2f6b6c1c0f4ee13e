import numpy as np
import pytest

from scalareq.graph import build_graph
from scalareq.harness import ProblemInstance, gen_instance
from scalareq.linalg import rank_check


def test_rank_check_identity_consistent():
    verdict = rank_check(np.eye(2), np.array([1.0, 1.0]))
    assert verdict
    assert verdict.satisfied


def test_rank_check_rank_deficient():
    H = np.array([[1.0, 0.0], [1.0, 0.0]])
    verdict = rank_check(H, np.array([1.0, 2.0]))
    assert not verdict
    assert "rank" in verdict.reason


def test_rank_check_inconsistent_augmentation():
    H = np.vstack([np.eye(2), np.eye(2)])
    verdict = rank_check(H, np.array([1.0, 2.0, 1.0, 3.0]))
    assert not verdict
    assert "inconsistent" in verdict.reason


@pytest.mark.parametrize("seed", range(4))
def test_rank_check_planted_property(seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((9, 4))
    v = rng.standard_normal(4)
    assert rank_check(H, H @ v)


@pytest.mark.parametrize("n,m", [(10, 5), (30, 5), (100, 10)])
def test_rank_check_accepts_every_planted_consistent_system(n, m):
    rng = np.random.default_rng([n, m])
    rejected = []
    for draw in range(200):
        H = rng.standard_normal((n, m))
        verdict = rank_check(H, H @ rng.standard_normal(m))
        if not verdict:
            rejected.append((draw, verdict.reason))
    assert rejected == []


def _planted_sigma_system(sigma_m, seed, n, m):
    """H with singular values (1, ..., 1, sigma_m) and b = H v consistent.

    v is the top right singular vector, so [H b] has singular values
    (sqrt(2), 1, ..., 1, sigma_m, 0) and sigma_max([H b]) = sqrt(2).
    """
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    sig = np.ones(m)
    sig[-1] = sigma_m
    H = U @ np.diag(sig) @ V.T
    return H, H @ V[:, 0]


@pytest.mark.parametrize("n,m", [(10, 5), (100, 10)])
def test_rank_check_resolves_planted_sigma_near_threshold(n, m):
    # RANK_TOL = 1e-8 sits 3x from either planted value
    sigma_max = np.sqrt(2.0)
    wrong = []
    for seed in range(20):
        H, b = _planted_sigma_system(3e-8 * sigma_max, seed, n, m)
        verdict = rank_check(H, b)
        if not verdict or abs(verdict.sigma_m / (3e-8 * sigma_max) - 1.0) > 1e-6:
            wrong.append((seed, verdict.reason, verdict.sigma_m))
        H, b = _planted_sigma_system(3e-9 * sigma_max, seed, n, m)
        verdict = rank_check(H, b)
        if verdict or "rank(H)" not in verdict.reason:
            wrong.append((seed, verdict.reason, verdict.sigma_m))
    assert wrong == []


def test_gen_instance_accepts_a_large_planted_solution():
    # sigma_m(H) = 0.85 is full rank whatever the units of v*
    v = 1e8 * np.array([2.0, 1.0, 3.0, 4.0, -1.0])
    inst = gen_instance(10, 5, v, seed=0)
    assert np.array_equal(inst.H, gen_instance(10, 5, v / 1e8, seed=0).H)


@pytest.mark.parametrize("seed", range(4))
def test_rank_check_verdict_does_not_depend_on_the_scale_of_b(seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((10, 5))
    v = rng.standard_normal(5)
    for scale in 10.0 ** np.arange(-8, 9):
        verdict = rank_check(H, H @ (scale * v))
        assert verdict, (scale, verdict.reason)
        assert verdict.sigma_m == rank_check(H, H @ v).sigma_m


@pytest.mark.parametrize("seed", range(4))
def test_rank_check_rejects_rank_deficient_h_at_every_scale(seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((10, 5))
    H[:, 4] = H[:, :4] @ rng.standard_normal(4)  # rank 4
    v = rng.standard_normal(5)
    for scale in 10.0 ** np.arange(-8, 9):
        verdict = rank_check(H, H @ (scale * v))
        assert not verdict and "rank(H) < 5" in verdict.reason, (scale, verdict.reason)


def test_rank_check_shape_preconditions():
    with pytest.raises(ValueError):
        rank_check(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        rank_check(np.ones((3, 2)), np.ones(2))


def _on_cycle(H):
    """A ProblemInstance of data matrix H on a cycle, planted at v = 1."""
    H = np.asarray(H, dtype=float)
    return ProblemInstance(H=H, b=H.sum(axis=1), graph=build_graph("cycle", H.shape[0]),
                           v_star=np.ones(H.shape[1]))


def _svd_rho_m(H):
    return np.linalg.svd(H, compute_uv=False).min() ** 2 / H.shape[0]


def test_spectral_constants_identity():
    inst = _on_cycle(np.eye(4))
    assert inst.rho_m == pytest.approx(_svd_rho_m(np.eye(4)), abs=1e-12)
    assert inst.rho_m == pytest.approx(0.25, abs=1e-12)
    assert inst.h_M == pytest.approx(1.0, abs=1e-12)


def test_spectral_constants_stacked_identities():
    H = np.vstack([np.eye(3), np.eye(3)])
    inst = _on_cycle(H)
    # H^T H = 2 I, so rho_m = 2/(2m) = 1/m
    assert inst.rho_m == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert inst.rho_m == pytest.approx(_svd_rho_m(H), abs=1e-12)
    assert inst.h_M == pytest.approx(np.linalg.norm(H, axis=1).max(), abs=1e-12)


def test_spectral_constants_cross_check_and_permutation():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((10, 5))
    inst = _on_cycle(H)
    lam = np.linalg.eigvalsh(H.T @ H)
    assert inst.rho_m == pytest.approx(_svd_rho_m(H), rel=1e-10)
    assert inst.rho_m == pytest.approx(lam[0] / 10, rel=1e-10)
    assert inst.h_M == pytest.approx(np.linalg.norm(H, axis=1).max(), rel=1e-12)
    perm = rng.permutation(10)
    inst_p = _on_cycle(H[perm])
    assert inst_p.rho_m == pytest.approx(inst.rho_m, rel=1e-10)
    assert inst_p.h_M == pytest.approx(inst.h_M, rel=1e-12)


@pytest.mark.parametrize("c", [1e-9, 1.0, 1e9])
def test_spectral_constants_scale_with_h_as_rank_check_decides(c):
    # an instance that ProblemInstance accepts has its constants, at any
    # scale of H: rank is decided relative to sigma_1
    inst = gen_instance(10, 5, (2.0, 1.0, 3.0, 4.0, -1.0), seed=0)
    scaled = ProblemInstance(H=c * inst.H, b=c * inst.b, graph=inst.graph, v_star=inst.v_star)
    assert scaled.rho_m == pytest.approx(_svd_rho_m(c * inst.H), rel=1e-12)
    assert scaled.rho_m == pytest.approx(c**2 * inst.rho_m, rel=1e-12)
    assert scaled.h_M == pytest.approx(np.linalg.norm(c * inst.H, axis=1).max(), rel=1e-12)
    assert scaled.h_M == pytest.approx(c * inst.h_M, rel=1e-12)
