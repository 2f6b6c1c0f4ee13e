"""Small dense real linear algebra.

Rank/consistency verification for stacked linear systems. The verdict
keeps sigma_m(H), from which ``ProblemInstance`` serves the constant
rho_m = sigma_m^2 / n of every solver rate bound (with h_M, the largest
row norm of H).

``numpy.linalg`` (LAPACK) is the only eigensolver and singular-value
routine in the package, called directly where it is needed: ``eigh``
where eigenvectors are read, ``eigvalsh`` where eigenvalues alone are,
and ``svd`` here, on whose singular values every rank or conditioning
threshold is tested; they resolve sigma to about eps * sigma_max rather
than the sqrt(eps) * sigma_max of square roots of gram eigenvalues.
"""

from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-8


def _singular_values(M):
    """Singular values of M (n x c) in ascending order, c of them.

    Computed by SVD, so each is resolved to about eps * sigma_max. When
    n < c the missing c - n values are exact zeros and lead the array.
    """
    sig = np.linalg.svd(M, compute_uv=False)[::-1]
    return np.concatenate([np.zeros(M.shape[1] - sig.size), sig])


@dataclass(frozen=True)
class RankVerdict:
    """Outcome of the solvability check for a stacked system H v = b."""

    satisfied: bool
    reason: str
    sigma_m: float
    sigma_aug: float

    def __bool__(self):
        return self.satisfied


def rank_check(H, b, tol=RANK_TOL):
    """Verify rank(H) = rank([H b]) = m, i.e. the stacked system has a
    unique exact least-squares solution.

    The verdict holds iff the m-th singular value of H exceeds
    tol * sigma_1(H), and the (m+1)-th singular value of [H b] stays
    below tol * sigma_1([H b]). Each test is relative to the matrix it
    examines, so scaling b (the units of v*) does not change whether H
    has full column rank.
    """
    H = np.asarray(H, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = H.shape
    if b.shape != (n,):
        raise ValueError(f"shape mismatch: H {H.shape}, b {b.shape}")
    if n < m or m < 1:
        raise ValueError(f"need n >= m >= 1, got n={n}, m={m}")
    sig_h = _singular_values(H)
    sig_a = _singular_values(np.column_stack([H, b]))
    sigma_m = float(sig_h[0])
    sigma_aug = float(sig_a[0])
    if sigma_m <= tol * max(float(sig_h[-1]), 1e-300):
        return RankVerdict(False, f"rank(H) < {m}: sigma_m = {sigma_m:.3e}", sigma_m, sigma_aug)
    if sigma_aug > tol * max(float(sig_a[-1]), 1e-300):
        return RankVerdict(
            False,
            f"inconsistent augmentation: sigma_{m + 1}([H b]) = {sigma_aug:.3e}",
            sigma_m,
            sigma_aug,
        )
    return RankVerdict(True, "unique exact solution exists", sigma_m, sigma_aug)
