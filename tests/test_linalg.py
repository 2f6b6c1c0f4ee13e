import numpy as np
import pytest

from scalareq.errors import RankDeficientError
from scalareq.graph import build_graph
from scalareq.harness import ProblemInstance, gen_instance

# "rank_check" in a test name is the check a ProblemInstance makes when it
# is built: rank(H) = m, and v_star solves H v = b.


def _planted(H, b, v_star):
    """The ProblemInstance of (H, b, v_star) on a cycle (a path for n = 2)."""
    H = np.asarray(H, dtype=float)
    graph = build_graph("path" if H.shape[0] == 2 else "cycle", H.shape[0])
    return ProblemInstance(H=H, b=np.asarray(b, dtype=float), graph=graph,
                           v_star=np.asarray(v_star, dtype=float))


def test_rank_check_identity_consistent():
    inst = _planted(np.eye(2), [1.0, 1.0], [1.0, 1.0])
    assert inst.sigma_m == 1.0


def test_rank_check_rank_deficient():
    H = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RankDeficientError, match="rank"):
        _planted(H, [1.0, 2.0], [1.0, 0.0])


def test_rank_check_inconsistent_augmentation():
    # no v solves it; the least-squares solution (1, 2.5) is refused too
    H = np.vstack([np.eye(2), np.eye(2)])
    b = np.array([1.0, 2.0, 1.0, 3.0])
    v_ls = np.linalg.lstsq(H, b, rcond=None)[0]
    with pytest.raises(ValueError, match="v_star does not solve H v = b: backward error"):
        _planted(H, b, v_ls)


@pytest.mark.parametrize("seed", range(4))
def test_rank_check_planted_property(seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((9, 4))
    v = rng.standard_normal(4)
    assert np.array_equal(_planted(H, H @ v, v).v_star, v)


@pytest.mark.parametrize("n,m", [(10, 5), (30, 5), (100, 10)])
def test_rank_check_accepts_every_planted_consistent_system(n, m):
    rng = np.random.default_rng([n, m])
    graph = build_graph("cycle", n)
    rejected = []
    for draw in range(200):
        H = rng.standard_normal((n, m))
        v = rng.standard_normal(m)
        try:
            ProblemInstance(H=H, b=H @ v, graph=graph, v_star=v)
        except ValueError as exc:
            rejected.append((draw, str(exc)))
    assert rejected == []


@pytest.mark.parametrize("rel", [1e-6, 1e-3, 1.0])
@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_problem_instance_refuses_a_v_star_that_does_not_solve(rel, scale):
    # b = H v at any units of v, and v_star off by rel * ||v|| in one entry
    inst = gen_instance(10, 5, scale * np.array([2.0, 1.0, 3.0, 4.0, -1.0]), seed=0)
    wrong = inst.v_star.copy()
    wrong[0] += rel * np.linalg.norm(inst.v_star)
    with pytest.raises(ValueError, match="instance invalid: v_star does not solve H v = b"):
        ProblemInstance(H=inst.H, b=inst.b, graph=inst.graph, v_star=wrong)
    with pytest.raises(ValueError, match="instance invalid: v_star has a non-finite entry"):
        ProblemInstance(H=inst.H, b=inst.b, graph=inst.graph, v_star=np.full(5, np.nan))


def _planted_sigma_system(sigma_m, seed, n, m):
    """(H, b, v) with H of singular values (1, ..., 1, sigma_m) and b = H v,
    v the top right singular vector of H."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    sig = np.ones(m)
    sig[-1] = sigma_m
    H = U @ np.diag(sig) @ V.T
    return H, H @ V[:, 0], V[:, 0]


@pytest.mark.parametrize("n,m", [(10, 5), (100, 10)])
def test_rank_check_resolves_planted_sigma_near_threshold(n, m):
    # sigma_max(H) = 1, and RANK_TOL = 1e-8 sits 3x from either planted value
    wrong = []
    for seed in range(20):
        inst = _planted(*_planted_sigma_system(3e-8, seed, n, m))
        if abs(inst.sigma_m / 3e-8 - 1.0) > 1e-6:
            wrong.append((seed, inst.sigma_m))
        try:
            _planted(*_planted_sigma_system(3e-9, seed, n, m))
        except RankDeficientError as exc:
            if "rank(H)" not in str(exc):
                wrong.append((seed, str(exc)))
        else:
            wrong.append((seed, "accepted"))
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
    sigma_m = _planted(H, H @ v, v).sigma_m
    for scale in 10.0 ** np.arange(-8, 9):
        assert _planted(H, H @ (scale * v), scale * v).sigma_m == sigma_m, scale


@pytest.mark.parametrize("seed", range(4))
def test_rank_check_rejects_rank_deficient_h_at_every_scale(seed):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((10, 5))
    H[:, 4] = H[:, :4] @ rng.standard_normal(4)  # rank 4
    v = rng.standard_normal(5)
    for scale in 10.0 ** np.arange(-8, 9):
        with pytest.raises(RankDeficientError, match=r"rank\(H\) < 5"):
            _planted(H, H @ (scale * v), scale * v)


def test_rank_check_shape_preconditions():
    with pytest.raises(ValueError, match="need n >= m >= 1, got n=2, m=3"):
        _planted(np.ones((2, 3)), np.ones(2), np.ones(3))
    with pytest.raises(ValueError, match="shape mismatch"):
        _planted(np.ones((3, 2)), np.ones(2), np.ones(2))


def _on_cycle(H):
    """The instance of data matrix H planted at v = 1."""
    return _planted(H, np.sum(H, axis=1), np.ones(np.shape(H)[1]))


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
