"""Detectability analysis for linear signal maps v' = L v.

Provides the rank test deciding whether a gain D with spectral radius
rho(L - D P) < 1 can exist, a bounded search that actually finds one at
desk scale, and the construction of a quadratic norm in which a stable
map is a strict contraction (the certificate the nonlinear theory's
contraction hypothesis reduces to in the linear case).

scipy is imported on first use, inside the gain search and the norm
construction, so importing the package (and every subcommand but
``detect``) does not load it.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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

    (L, P) is detectable iff Ker(lambda I - L) and Ker P intersect
    trivially for every eigenvalue lambda with |lambda| >= 1 (equivalently
    the stacked [lambda I - L; P] has full column rank). On failure the
    offending eigenvalue is returned as a witness.

    Each block is judged on its own scale, so that a map far larger than P
    cannot hide P's rows: the kernel is spanned by the singular directions
    of lambda I - L under that matrix's rank tolerance (at least one, as
    lambda is an eigenvalue), and P must keep its rank on it at P's own
    tolerance times s_max / gap, the kernel's sensitivity to rounding.
    """
    L = np.asarray(L, dtype=float)
    P = np.atleast_2d(np.asarray(P, dtype=float))
    d = L.shape[0]
    eps = np.finfo(float).eps
    p_scale = np.linalg.norm(P, 2) * ((d + P.shape[0]) * eps)
    for lam in np.linalg.eigvals(L):
        if abs(lam) < 1.0 - tol:
            continue
        _, s, vh = np.linalg.svd(lam * np.eye(d) - L)
        n_null = max(1, int(np.sum(s <= s[0] * (d * eps))))
        condition = s[0] / s[d - n_null - 1] if n_null < d else 1.0
        kernel = vh[d - n_null :].conj().T
        if np.linalg.matrix_rank(P @ kernel, tol=p_scale * condition) < n_null:
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
    from scipy.optimize import minimize_scalar

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
    seeded random restarts, N(0, 1) entries scaled by max |L_ij|, which
    raise OverflowError before the search starts if they would leave float
    range. Success means a gain with spectral radius strictly below one was
    found; failure is inconclusive (the rank test is the authority on
    impossibility).
    """
    L = np.asarray(L, dtype=float)
    P = np.atleast_2d(np.asarray(P, dtype=float))
    d, p = L.shape[0], P.shape[0]
    scale = max(1.0, float(np.max(np.abs(L))))

    def draws():
        rng = np.random.default_rng(0)
        for _ in range(int(budget)):
            yield rng.standard_normal((d, p))

    # a Python float product overflows to inf without a numpy warning
    if any(math.isinf(scale * float(np.max(np.abs(z)))) for z in draws()):
        raise OverflowError(f"random restarts scaled by max |L_ij| = {scale:.6g} overflow")
    best_D, best_rho = _coordinate_descent(L, P, np.zeros((d, p)))
    for z in draws():
        if best_rho < 1.0 - 1e-9:
            break
        D, rho = _coordinate_descent(L, P, scale * z)
        if rho < best_rho:
            best_D, best_rho = D, rho
    return GainSearchResult(bool(best_rho < 1.0), best_D, float(best_rho))


def contractive_norm(M):
    """Quadratic form S with V(x) = x^T S x strictly decreasing along x -> M x.

    S solves the discrete Lyapunov equation S = I + M^T S M (the sum of the
    series S = sum_i (M^T)^i M^i); then V(M x) <= alpha V(x) with
    alpha = 1 - 1/lambda_max(S) < 1.

    Returns ``(S, alpha)``; raises ValueError when M is not stable.
    """
    from scipy.linalg import solve_discrete_lyapunov

    M = np.asarray(M, dtype=float)
    rho = spectral_radius(M)
    if rho >= 1.0:
        raise ValueError(f"map is not stable: spectral radius {rho:.6g} >= 1")
    S = solve_discrete_lyapunov(M.T, np.eye(M.shape[0]))
    S = 0.5 * (S + S.T)
    return S, 1.0 - 1.0 / float(np.linalg.eigvalsh(S)[-1])
