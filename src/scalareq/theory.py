"""Closed-form convergence constants and step-size bounds.

Covers the window-contraction rate of the compressed consensus flow,
the scalar-excitation lemma behind it, the continuous solver rate, the
discrete observability grammian with its excitation level g, and the
discrete step-size bound s* with the per-step Lyapunov decrease beta.
"""

from dataclasses import dataclass

import numpy as np

from .compression import eval_dt
from .dynamics import _exchange

G_FLOOR = 1e-10
TELESCOPE_TOL = 1e-9


@dataclass(frozen=True)
class RateConstants:
    """Bundle of computed bound constants; fields are None when the
    inputs needed for them were not supplied."""

    gamma: float | None = None
    c: float | None = None
    gamma_f: float | None = None
    alpha_bar: float | None = None
    alpha_prime: float | None = None
    k_x: float | None = None
    gamma_x: float | None = None
    g: float | None = None
    s_star: float | None = None
    beta: float | None = None
    gamma_d: float | None = None

    def as_dict(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}


def consensus_rate(alpha, T, lambda2, lambda_n):
    """Per-unit-time contraction (gamma, c) of the compressed consensus
    flow under excitation alpha over windows of length T:

        gamma = (1 - 2 alpha lambda2 / (1 + T lambda_n)^2)^(1/T)
        c     = 1 / (1 - 2 alpha lambda2 / (1 + T lambda_n)^2)

    The disagreement satisfies dis(t)^2 <= c ||x(0)||^2 gamma^t.
    """
    if not 0 < alpha <= T:
        raise ValueError(f"need 0 < alpha <= T, got alpha={alpha}, T={T}")
    if not 0 < lambda2 <= lambda_n:
        raise ValueError(f"need 0 < lambda2 <= lambda_n, got {lambda2}, {lambda_n}")
    q = 2.0 * alpha * lambda2 / (1.0 + T * lambda_n) ** 2
    # alpha <= T and lambda2 <= lambda_n force q < 1
    if not 0.0 < q < 1.0:
        raise ValueError(f"contraction argument {q} outside (0, 1)")
    return (1.0 - q) ** (1.0 / T), 1.0 / (1.0 - q)


def lemma1_constants(alpha1, T1, phi_bar):
    """Exponential-stability constants (k_x, gamma_x) of a scalar
    persistently excited flow with excitation alpha1 over windows T1 and
    regressor bound phi_bar:

        gamma_x = -(1/T1) ln(1 - 2 alpha1 / (1 + phi_bar T1)^2)
        k_x     = 1 / (1 - 2 alpha1 / (1 + phi_bar T1)^2)
    """
    if alpha1 <= 0 or T1 <= 0 or phi_bar <= 0:
        raise ValueError("all arguments must be positive")
    q = 2.0 * alpha1 / (1.0 + phi_bar * T1) ** 2
    if q >= 1.0:
        raise ValueError(f"excitation too large: log argument {1.0 - q} <= 0")
    return 1.0 / (1.0 - q), -np.log(1.0 - q) / T1


def solver_ct_rate(alpha, T, lambda2, lambda_n, rho_m, h_M, s):
    """Continuous solver rate constants (gamma_f, alpha_bar, alpha_prime):

        alpha' = lambda2 alpha + (h_M^2 + rho_m) T s
        abar   = (alpha' - sqrt(alpha'^2 - 4 lambda2 alpha rho_m T s)) / 2
        gamma_f = (1 - 2 abar / (1 + (lambda_n + 2 s h_M^2) T)^2)^(1/T)

    The discriminant is evaluated in the stable form
    (a - b)^2 + 4 lambda2 alpha T s h_M^2 with a = lambda2 alpha and
    b = (h_M^2 + rho_m) T s, which is nonnegative by construction.
    """
    for name, v in (("alpha", alpha), ("T", T), ("lambda2", lambda2),
                    ("lambda_n", lambda_n), ("rho_m", rho_m), ("h_M", h_M), ("s", s)):
        if v <= 0:
            raise ValueError(f"need {name} > 0, got {v}")
    if alpha > T:
        raise ValueError(f"need alpha <= T, got alpha={alpha}, T={T}")
    a = lambda2 * alpha
    b = (h_M**2 + rho_m) * T * s
    alpha_prime = a + b
    disc = (a - b) ** 2 + 4.0 * lambda2 * alpha * T * s * h_M**2
    root = np.sqrt(disc)
    # rationalized form avoids cancellation when root is close to alpha'
    alpha_bar = 2.0 * lambda2 * alpha * rho_m * T * s / (alpha_prime + root)
    q = 2.0 * alpha_bar / (1.0 + (lambda_n + 2.0 * s * h_M**2) * T) ** 2
    if not 0.0 < q < 1.0:
        raise ValueError(f"contraction argument {q} outside (0, 1)")
    return (1.0 - q) ** (1.0 / T), float(alpha_bar), float(alpha_prime)


def _direction(schedule, idx):
    """C[idx], with None (full exchange) for the identity schedule."""
    return None if schedule.kind == "identity" else eval_dt(schedule, idx)


def _gram_blocks(lams, schedule, h, k0, K):
    """Per-eigenvalue blocks G_i of the K-step grammian started at k0.

    T[c, i] holds column c of block i's transition T_i, so one
    consensus exchange with L = diag(lams) steps every block at once.
    With E = (Lambda (x) CC^T) T and (Lambda (x) CC^T)^2 = Lambda^2 (x) CC^T,
    each term T^T ((2h Lambda - h^2 Lambda^2) (x) CC^T) T is
    2h T^T E - h^2 E^T E.
    """
    m, p = schedule.m, len(lams)
    Lam = np.diag(lams)
    T = np.repeat(np.eye(m)[:, None, :], p, axis=1)
    G = np.zeros((p, m, m))
    for j in range(K):
        E = _exchange(Lam, T, _direction(schedule, k0 + j))
        G += 2.0 * h * np.einsum("cir,dir->icd", T, E) - h**2 * np.einsum("cir,dir->icd", E, E)
        T = T - h * E
    resid = float(np.abs(G - (np.eye(m) - np.einsum("cir,dir->icd", T, T))).max())
    if resid > TELESCOPE_TOL:
        raise RuntimeError(f"grammian telescoping identity violated: residual {resid:.3e}")
    return G


def observability_gram(spectrum, schedule, h, k, K):
    """K-step observability grammian of the compressed consensus
    transition on the disagreement subspace, and its excitation level g.

    With A[i] = I - h (Lambda (x) C[i]C[i]^T) and transition products
    T[k+j, k] = A[k+j-1] ... A[k]:

        G_K[k] = sum_{j=0}^{K-1} T[k+j,k]^T ((2h Lambda - h^2 Lambda^2) (x) C[k+j]C[k+j]^T) T[k+j,k]

    which telescopes to I - T[k+K,k]^T T[k+K,k]. Lambda is diagonal, so
    both split into n-1 independent m x m blocks, one per nonzero
    Laplacian eigenvalue lambda_i with A_i[j] = I - h lambda_i C[j]C[j]^T;
    the telescoping identity is verified to 1e-9 on every block. G_K is
    returned as the dense block-diagonal matrix in eigen-major order
    (block i spans rows and columns i m .. i m + m - 1). g is the
    minimum of lambda_min(G_K) over one schedule period of start
    indices; a non-exciting schedule reports g = 0.
    """
    if not 0.0 < h < 2.0 / spectrum.lambda_n:
        raise ValueError(f"need 0 < h < 2/lambda_n = {2.0 / spectrum.lambda_n:.6g}, got {h}")
    m = schedule.m
    if K < m:
        raise ValueError(f"window K={K} must be at least the compressed dimension m={m}")
    lams = spectrum.eigenvalues[1:]
    p = len(lams)
    period = schedule.period_steps
    blocks = _gram_blocks(lams, schedule, h, int(k), K)
    g = np.inf
    for k0 in range(period):
        # periodic schedules make the grammian depend on the start only mod period
        Gb = blocks if k0 == int(k) % period else _gram_blocks(lams, schedule, h, k0, K)
        g = min(g, float(np.linalg.eigvalsh(0.5 * (Gb + Gb.swapaxes(1, 2))).min()))
    if g <= G_FLOOR:
        g = 0.0
    G_K = np.zeros((p, m, p, m))
    G_K[np.arange(p), :, np.arange(p), :] = blocks
    return G_K.reshape(p * m, p * m), float(g)


def lyapunov_v1(spectrum, schedule, h, K, k, z):
    """Windowed transition energy V1[k] = sum_{j=0}^{K-1} ||T[k+j,k] z||^2
    on the disagreement subspace (diagnostic for the discrete decrease)."""
    lams = spectrum.eigenvalues[1:]
    Lam = np.diag(lams)
    v = np.asarray(z, dtype=float).reshape(len(lams), schedule.m)
    total = 0.0
    for j in range(K):
        total += float(np.vdot(v, v))
        v = v - h * _exchange(Lam, v, _direction(schedule, int(k) + j))
    return total


def dt_stepsize_and_rate(g, K, h_M, rho_m, s=None):
    """Discrete step-size bound s* and, given s < s*, the per-step
    Lyapunov decrease beta and rate gamma_d = 1 - beta.

        s* = min( (sqrt(A^2 + (4g/K)(2 + 4 h_M^2/rho_m)) - A)
                      / (2 h_M^2 (2 + 4 h_M^2/rho_m)),
                  rho_m / (2 h_M^2 (rho_m + 2 h_M^2)) )
        with A = 3 + 2 h_M^4 / rho_m^2

        beta = min( g - K(3 s h_M^2 + 2 s^2 h_M^4 + 4 s^2 h_M^6/rho_m
                          + 2 s h_M^6/rho_m^2),
                    s rho_m/2 - s^2 h_M^2 (rho_m + 2 h_M^2) )

    The first branch of s* is the positive root of the first beta
    branch and the second of the second, so s < s* makes both positive.
    """
    if not 0.0 < g <= 1.0:
        raise ValueError(f"need excitation level g in (0, 1], got {g}")
    if K < 1 or h_M <= 0 or rho_m <= 0:
        raise ValueError("need K >= 1 and positive h_M, rho_m")
    A = 3.0 + 2.0 * h_M**4 / rho_m**2
    slope = 2.0 + 4.0 * h_M**2 / rho_m
    branch1 = (np.sqrt(A**2 + (4.0 * g / K) * slope) - A) / (2.0 * h_M**2 * slope)
    branch2 = rho_m / (2.0 * h_M**2 * (rho_m + 2.0 * h_M**2))
    s_star = float(min(branch1, branch2))
    if s is None:
        return s_star, None, None
    if not 0.0 < s < s_star:
        raise ValueError(f"stepsize s={s} out of range (0, s*={s_star:.6g})")
    c_z = g - K * (3.0 * s * h_M**2 + 2.0 * s**2 * h_M**4
                   + 4.0 * s**2 * h_M**6 / rho_m + 2.0 * s * h_M**6 / rho_m**2)
    c_x = s * rho_m / 2.0 - s**2 * h_M**2 * (rho_m + 2.0 * h_M**2)
    beta = float(min(c_z, c_x))
    if not 0.0 < beta < 1.0:
        raise ValueError(f"decrease factor beta={beta} outside (0, 1)")
    return s_star, beta, 1.0 - beta
