"""Prony solve: from noisy power sums b~_0 .. b~_{2l'-1} at a fixed z,
recover estimates of the elementary symmetric values sigma_j(z) of the
mixture's P-values.

The Hankel matrix B with B_{ij} = b_{i+j-2} factors as V^T A V where V is
the Vandermonde matrix of the u_i = P(z; x^(i)) and A = diag(a_i).  The
power sums satisfy the linear recurrence b_{k+l} = sum_j r_j b_{k+l-j}
with r_j = (-1)^(j-1) sigma_j, so solving B w = v with v_i = b_{l-1+i}
yields sigma_j = (-1)^(j-1) w_{l+1-j}.

The solve returns None when B~ is numerically singular; the recovery
driver leaves such a point out and weights every other point by
its delta-method error.  `gate_stage` reproduces the paper's conditioning
gate, which certifies a solve in its worst-case analysis: given lower
bounds alpha on the minimum mixture weight and beta on the weight product,
plus a scale delta, it rejects when sigma_min(B~) < (3/4) alpha delta or
|det B~| < beta delta^2 / 2 — exactly when the Vandermonde factor may be
too close to singular for the solve to be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ParameterError


@dataclass(frozen=True)
class HankelSystem:
    """B~ (l' x l' Hankel) and right-hand side v~ built from one b-series."""

    B_tilde: np.ndarray
    v_tilde: np.ndarray
    ell_prime: int

    @classmethod
    def from_power_sums(cls, b) -> "HankelSystem":
        b = np.asarray(b, dtype=complex)
        if len(b) % 2 != 0 or len(b) < 2:
            raise ParameterError("need b_0..b_{2l'-1} (even length >= 2)")
        lp = len(b) // 2
        B = np.empty((lp, lp), dtype=complex)
        for i in range(lp):
            for j in range(lp):
                B[i, j] = b[i + j]
        v = b[lp : 2 * lp].copy()
        return cls(B, v, lp)


@dataclass(frozen=True)
class PronyThresholds:
    """Gate parameters: alpha <= min a_i <= 2 alpha, beta <= prod a_i <=
    2 beta, and the scale delta."""

    alpha: float
    beta: float
    delta: float = 1e-6

    def __post_init__(self):
        for name in ("alpha", "beta", "delta"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ParameterError(f"{name} must lie in (0,1], got {v!r}")


def gate_stage(sys: HankelSystem, th: PronyThresholds) -> str | None:
    """None if the gate passes, else which stage failed ("singular"/"det")."""
    smin = float(np.linalg.svd(sys.B_tilde, compute_uv=False)[-1])
    if smin < 0.75 * th.alpha * th.delta:
        return "singular"
    det = complex(np.linalg.det(sys.B_tilde))
    if abs(det) < 0.5 * th.beta * th.delta ** 2:
        return "det"
    return None


def solve_sigma(sys: HankelSystem) -> tuple | None:
    """Dense solve B~ w~ = v~; returns (sigma_1, .., sigma_l') with
    sigma_j = (-1)^(j-1) w~_{l'+1-j}, or None if B~ is singular in floating
    point (numerical rank below l', as numpy.linalg.matrix_rank counts it)
    or the solve is not finite."""
    lp = sys.ell_prime
    if not np.all(np.isfinite(sys.B_tilde)) or np.linalg.matrix_rank(sys.B_tilde) < lp:
        return None
    w = np.linalg.solve(sys.B_tilde, sys.v_tilde)
    if not np.all(np.isfinite(w)):
        return None
    return tuple(complex((-1) ** (j - 1) * w[lp - j]) for j in range(1, lp + 1))


def sigma_error_stds(sys: HankelSystem, cov, count: int) -> tuple:
    """Delta-method standard deviation of each sigma_j estimate.

    `cov` is the Hermitian covariance over one trace of the estimators of
    b_1..b_{2l'-1} (b~_0 = 1 is exact) and `count` the number of traces
    averaged.  Linearizes w = B^{-1} v around the estimates: perturbing b_k
    moves w by B^{-1} (dv/db_k - dB/db_k w), the k-th column of the
    Jacobian J, so the errors of w have covariance J cov J^H / count.
    The b~_k share traces, so the off-diagonal terms matter."""
    lp = sys.ell_prime
    cov = np.asarray(cov)
    if cov.shape != (2 * lp - 1, 2 * lp - 1):
        raise ParameterError("need the covariance of b_1..b_{2l'-1}")
    Binv = np.linalg.inv(sys.B_tilde)
    w = Binv @ sys.v_tilde
    J = np.empty((lp, 2 * lp - 1), dtype=complex)
    for k in range(1, 2 * lp):
        dv = np.zeros(lp, dtype=complex)
        dB = np.zeros((lp, lp), dtype=complex)
        for i in range(lp):
            if lp + i == k:
                dv[i] = 1.0
            for j in range(lp):
                if i + j == k:
                    dB[i, j] = 1.0
        J[:, k - 1] = Binv @ (dv - dB @ w)
    var = np.einsum("ik,kl,il->i", J, cov, J.conj()).real / count
    # w components map to sigma in reverse order (sigma_j from w_{l'+1-j})
    return tuple(float(v) for v in np.sqrt(np.maximum(var, 0.0))[::-1])


def recurrence_check(b, r) -> float:
    """Residual of b_{k+l} = sum_j r_j b_{k+l-j} over 0 <= k <= l-1."""
    b = [complex(v) for v in b]
    r = [complex(v) for v in r]
    lp = len(r)
    if len(b) != 2 * lp:
        raise ParameterError("need len(b) = 2 * len(r)")
    worst = 0.0
    for k in range(lp):
        pred = sum(r[j - 1] * b[k + lp - j] for j in range(1, lp + 1))
        worst = max(worst, abs(b[k + lp] - pred))
    return worst


def sigma_to_recurrence(sigma) -> tuple:
    """r_j = (-1)^(j-1) sigma_j."""
    return tuple((-1) ** j * complex(s) if j % 2 else complex(s) for j, s in enumerate(sigma))
