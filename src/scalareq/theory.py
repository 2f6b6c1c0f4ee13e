"""Closed-form convergence constants and step-size bounds.

Covers the window-contraction rate of the compressed consensus flow,
the scalar-excitation lemma behind it, the continuous solver rate, the
discrete observability grammian (its m x m block per Laplacian eigenvalue)
with its excitation level g, and the discrete step-size bound s* with the
per-step Lyapunov decrease beta.
"""

import numpy as np

from .compression import _clocks, eval_dt
from .dynamics import _check_stepsize, _exchange

G_FLOOR = 1e-10
TELESCOPE_TOL = 1e-9


def _contraction(alpha1, T, phi_bar):
    """Lemma 1's window contraction q = 2 alpha1 / (1 + phi_bar T)^2 under
    excitation alpha1 over windows T with regressor bound phi_bar, checked
    to lie in (0, 1); the consensus, Lemma-1 and continuous rates read it."""
    q = 2.0 * alpha1 / (1.0 + phi_bar * T) ** 2
    if not 0.0 < q < 1.0:
        raise ValueError(f"excitation too large: contraction {q} outside (0, 1)")
    return q


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
    # Lemma 1 at excitation alpha lambda2 with regressor bound lambda_n;
    # alpha <= T and lambda2 <= lambda_n force q < 1
    q = _contraction(alpha * lambda2, T, lambda_n)
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
    q = _contraction(alpha1, T1, phi_bar)
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
    # Lemma 1 at excitation alpha_bar with regressor bound lambda_n + 2 s h_M^2
    q = _contraction(alpha_bar, T, lambda_n + 2.0 * s * h_M**2)
    return (1.0 - q) ** (1.0 / T), float(alpha_bar), float(alpha_prime)


def _gram_blocks(lams, schedule, h, k0, K):
    """Per-eigenvalue blocks G_i of the K-step grammian started at k0.

    Block i evolves as a one-node network with the 1 x 1 Laplacian
    [lams[i]], and T[c, i, 0] holds column c of its transition T_i, so
    one consensus exchange over the stack lams[:, None, None] steps every
    block at once. With E = (Lambda (x) CC^T) T and
    (Lambda (x) CC^T)^2 = Lambda^2 (x) CC^T, each term
    T^T ((2h Lambda - h^2 Lambda^2) (x) CC^T) T is 2h T^T E - h^2 E^T E.
    """
    m, p = schedule.m, len(lams)
    L = lams[:, None, None]
    T = np.repeat(np.eye(m)[:, None, None, :], p, axis=1)
    G = np.zeros((p, m, m))
    for C in eval_dt(schedule, k0 + np.arange(K)):
        E = _exchange(L, T, C)
        G += 2.0 * h * np.einsum("ciur,diur->icd", T, E) - h**2 * np.einsum("ciur,diur->icd", E, E)
        T = T - h * E
    resid = float(np.abs(G - (np.eye(m) - np.einsum("ciur,diur->icd", T, T))).max())
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
    the telescoping identity is verified to 1e-9 on every block. Returns
    (blocks, g): blocks[i] is the m x m block of lambda_{i+2}, so G_K is
    the block-diagonal matrix of the (n-1, m, m) blocks in eigen-major
    order (block i spans rows and columns i m .. i m + m - 1), and g is
    the minimum of lambda_min(G_K) over one schedule period of start
    indices; a non-exciting schedule reports g = 0.
    """
    _check_stepsize(h, spectrum.lambda_n)
    m = schedule.m
    k, K = int(_clocks(k, "k", whole=True)), int(_clocks(K, "window K", whole=True))
    if K < m:
        raise ValueError(f"window K={K} must be at least the compressed dimension m={m}")
    lams = spectrum.eigenvalues[1:]
    period = schedule.period_steps
    blocks = _gram_blocks(lams, schedule, h, k, K)
    g = np.inf
    for k0 in range(period):
        # periodic schedules make the grammian depend on the start only mod period
        Gb = blocks if k0 == k % period else _gram_blocks(lams, schedule, h, k0, K)
        g = min(g, float(np.linalg.eigvalsh(0.5 * (Gb + Gb.swapaxes(1, 2))).min()))
    return blocks, float(g) if g > G_FLOOR else 0.0


def lyapunov_v1(spectrum, schedule, h, K, k, z):
    """Windowed transition energy V1[k] = sum_{j=0}^{K-1} ||T[k+j,k] z||^2
    on the disagreement subspace (diagnostic for the discrete decrease)."""
    k, K = int(_clocks(k, "k", whole=True)), int(_clocks(K, "window K", whole=True))
    lams = spectrum.eigenvalues[1:]
    # one one-node network per eigenvalue, as in _gram_blocks
    v = np.asarray(z, dtype=float).reshape(len(lams), 1, schedule.m)
    total = 0.0
    for C in eval_dt(schedule, k + np.arange(K)):
        total += float(np.vdot(v, v))
        v = v - h * _exchange(lams[:, None, None], v, C)
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
