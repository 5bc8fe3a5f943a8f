"""Detectability analysis for linear signal maps v' = L v.

Provides the rank test deciding whether a gain D with spectral radius
rho(L - D P) < 1 can exist, a bounded search that actually finds one at
desk scale, and the construction of a quadratic norm in which a stable
map is a strict contraction (the certificate the nonlinear theory's
contraction hypothesis reduces to in the linear case).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_discrete_lyapunov
from scipy.optimize import minimize_scalar

#: eigenvalues with modulus above 1 - STABILITY_TOL count as not decaying
STABILITY_TOL = 1e-9


def spectral_radius(M) -> float:
    """Largest eigenvalue modulus."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    return float(np.max(np.abs(np.linalg.eigvals(M))))


@dataclass
class DetectabilityVerdict:
    detectable: bool
    witness: Optional[complex] = None

    def __bool__(self):
        return self.detectable


def hautus_detectable(L, P, tol=STABILITY_TOL) -> DetectabilityVerdict:
    """Rank test: every non-decaying eigendirection must be visible to P.

    (L, P) is detectable iff the stacked matrix [lambda I - L; P] has full
    column rank for every eigenvalue lambda with |lambda| >= 1 (equivalently
    Ker(lambda I - L) and Ker P intersect trivially). On failure the
    offending eigenvalue is returned as a witness.
    """
    L = np.asarray(L, dtype=float)
    P = np.atleast_2d(np.asarray(P, dtype=float))
    d = L.shape[0]
    for lam in np.linalg.eigvals(L):
        if abs(lam) < 1.0 - tol:
            continue
        stacked = np.vstack([lam * np.eye(d) - L, P])
        if np.linalg.matrix_rank(stacked) < d:
            return DetectabilityVerdict(False, witness=complex(lam))
    return DetectabilityVerdict(True)


def detectability_shift_equivalence(L, P) -> bool:
    """Self-check: the verdict is unchanged when observing through the map
    (P replaced by P L); zero eigenvalues are irrelevant as they decay."""
    L = np.asarray(L, dtype=float)
    P = np.atleast_2d(np.asarray(P, dtype=float))
    return bool(hautus_detectable(L, P)) == bool(hautus_detectable(L, P @ L))


@dataclass
class GainSearchResult:
    success: bool
    gain: np.ndarray
    radius: float


def _coordinate_descent(L, P, D, sweeps=8):
    best = spectral_radius(L - D @ P)
    for _ in range(sweeps):
        improved = False
        for i in range(D.shape[0]):
            for j in range(D.shape[1]):
                def objective(v):
                    Dt = D.copy()
                    Dt[i, j] = v
                    return spectral_radius(L - Dt @ P)

                res = minimize_scalar(objective)
                if res.fun < best - 1e-13:
                    D[i, j] = float(res.x)
                    best = res.fun
                    improved = True
        if not improved:
            break
    return D, best


def find_gain(L, P, budget=20) -> GainSearchResult:
    """Search for D minimizing rho(L - D P).

    Deterministic coordinate descent from D = 0, then up to ``budget``
    seeded random restarts. Success means a gain with spectral radius
    strictly below one was found; failure is inconclusive (the rank test
    is the authority on impossibility).
    """
    L = np.asarray(L, dtype=float)
    P = np.atleast_2d(np.asarray(P, dtype=float))
    d = L.shape[0]
    p = P.shape[0]
    best_D, best_rho = _coordinate_descent(L, P, np.zeros((d, p)))
    rng = np.random.default_rng(0)
    scale = max(1.0, float(np.max(np.abs(L))))
    for _ in range(int(budget)):
        if best_rho < 1.0 - 1e-9:
            break
        D0 = scale * rng.standard_normal((d, p))
        D, rho = _coordinate_descent(L, P, D0)
        if rho < best_rho:
            best_D, best_rho = D, rho
    return GainSearchResult(bool(best_rho < 1.0), best_D, float(best_rho))


def contractive_norm(M, alpha_target=None):
    """Quadratic form S with V(x) = x^T S x strictly decreasing along x -> M x.

    S solves the discrete Lyapunov equation S = I + M^T S M (the sum of the
    series S = sum_i (M^T)^i M^i); then V(M x) <= alpha V(x) with
    alpha = 1 - 1/lambda_max(S) < 1. With ``alpha_target`` the equation is
    rescaled to S = I + M^T S M / alpha_target, so the certificate
    guarantees that specific factor (requires rho(M)^2 < alpha_target).

    Returns ``(S, alpha)``; raises ValueError when M is not stable enough.
    """
    M = np.asarray(M, dtype=float)
    rho = spectral_radius(M)
    if alpha_target is None:
        if rho >= 1.0:
            raise ValueError(f"map is not stable: spectral radius {rho:.6g} >= 1")
        scale = 1.0
    else:
        if not 0.0 < alpha_target < 1.0:
            raise ValueError("alpha_target must lie in (0, 1)")
        if rho**2 >= alpha_target:
            raise ValueError(
                f"cannot certify factor {alpha_target}: spectral radius^2 = {rho**2:.6g}"
            )
        scale = 1.0 / alpha_target
    S = solve_discrete_lyapunov(np.sqrt(scale) * M.T, np.eye(M.shape[0]))
    S = 0.5 * (S + S.T)
    if alpha_target is None:
        alpha = 1.0 - 1.0 / float(np.linalg.eigvalsh(S)[-1])
    else:
        alpha = float(alpha_target)
    return S, alpha
