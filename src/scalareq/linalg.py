"""Small dense real linear algebra: the check that admits a planted instance.

``_check_planted`` takes one SVD of H. Its singular values decide
rank(H) = m and give sigma_m(H), from which ``ProblemInstance`` serves
rho_m = sigma_m^2 / n; the backward error of the planted v* then decides
that v* solves H v = b, so b is consistent and v* is the unique solution
every error is measured against.

``numpy.linalg`` (LAPACK) is the only eigensolver and singular-value
routine in the package, called directly where it is needed: ``eigh``
where eigenvectors are read, ``eigvalsh`` where eigenvalues alone are,
and ``svd`` here, whose singular values are resolved to about
eps * sigma_max rather than the sqrt(eps) * sigma_max of square roots
of gram eigenvalues.
"""

import numpy as np

from .errors import RankDeficientError

RANK_TOL = 1e-8


def _check_planted(H, b, v_star):
    """sigma_m(H) of the stacked system H v = b (H n x m, n >= m >= 1),
    once v_star is checked to be its unique exact solution.

    rank(H) = m holds iff sigma_m(H) > RANK_TOL * sigma_1(H), a test
    relative to H, so the units of v* do not decide it; otherwise
    RankDeficientError. v_star must then solve the system to a normwise
    backward error ||H v* - b|| / (||H||_2 ||v*|| + ||b||) <= RANK_TOL
    (Rigal and Gaches; Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 7.1); otherwise ValueError.
    """
    n, m = H.shape
    if n < m or m < 1:
        raise ValueError(f"need n >= m >= 1, got n={n}, m={m}")
    sig = np.linalg.svd(H, compute_uv=False)
    if sig[-1] <= RANK_TOL * sig[0]:
        raise RankDeficientError(f"instance invalid: rank(H) < {m}: sigma_m = {sig[-1]:.3e}")
    residual = np.linalg.norm(H @ v_star - b)
    scale = sig[0] * np.linalg.norm(v_star) + np.linalg.norm(b)
    if not residual <= RANK_TOL * scale:  # a nan residual fails too
        raise ValueError(f"instance invalid: v_star does not solve H v = b: "
                         f"backward error {residual / scale:.3e}")
    return float(sig[-1])
