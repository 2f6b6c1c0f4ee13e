import numpy as np
import pytest

from scalareq.errors import RankDeficientError
from scalareq.harness import ProblemInstance, gen_instance
from scalareq.linalg import rank_check, spectral_constants


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


def test_spectral_constants_identity():
    sc = spectral_constants(np.eye(4))
    assert sc.rho_m == pytest.approx(0.25, abs=1e-12)
    assert sc.h_M == pytest.approx(1.0, abs=1e-12)


def test_spectral_constants_stacked_identities():
    H = np.vstack([np.eye(3), np.eye(3)])
    sc = spectral_constants(H)
    # H^T H = 2 I, so rho_m = 2/(2m) = 1/m
    assert sc.rho_m == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert sc.h_M == pytest.approx(1.0, abs=1e-12)


def test_spectral_constants_cross_check_and_permutation():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((10, 5))
    sc = spectral_constants(H)
    lam = np.linalg.eigvalsh(H.T @ H)
    assert sc.rho_m == pytest.approx(lam[0] / 10, rel=1e-10)
    assert sc.h_M == pytest.approx(np.linalg.norm(H, axis=1).max(), rel=1e-12)
    perm = rng.permutation(10)
    sc_p = spectral_constants(H[perm])
    assert sc_p.rho_m == pytest.approx(sc.rho_m, rel=1e-10)
    assert sc_p.h_M == pytest.approx(sc.h_M, rel=1e-12)


@pytest.mark.parametrize("c", [1e-9, 1.0, 1e9])
def test_spectral_constants_scale_with_h_as_rank_check_decides(c):
    # an instance that ProblemInstance accepts has its constants, at any
    # scale of H: rank is decided relative to sigma_1 in both places
    inst = gen_instance(10, 5, (2.0, 1.0, 3.0, 4.0, -1.0), seed=0)
    scaled = ProblemInstance(H=c * inst.H, b=c * inst.b, graph=inst.graph, v_star=inst.v_star)
    sc, ref = spectral_constants(scaled.H), spectral_constants(inst.H)
    assert sc.rho_m == pytest.approx(c**2 * ref.rho_m, rel=1e-12)
    assert sc.h_M == pytest.approx(c * ref.h_M, rel=1e-12)


def test_spectral_constants_rank_deficient_raises():
    H = np.zeros((4, 2))
    H[:, 0] = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(RankDeficientError):
        spectral_constants(H)
