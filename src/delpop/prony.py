"""Prony solve: from noisy power sums b~_0 .. b~_{2l'-1} at a fixed z,
recover estimates of the elementary symmetric values sigma_j(z) of the
mixture's P-values.

The Hankel matrix B with B_{ij} = b_{i+j-2} factors as V^T A V where V is
the Vandermonde matrix of the u_i = P(z; x^(i)) and A = diag(a_i).  The
power sums satisfy the linear recurrence b_{k+l} = sum_j r_j b_{k+l-j}
with r_j = (-1)^(j-1) sigma_j, so solving B w = v with v_i = b_{l-1+i}
yields sigma_j = (-1)^(j-1) w_{l+1-j}.

A conditioning gate precedes the solve: given lower bounds alpha on the
minimum mixture weight and beta on the weight product, plus a scale delta,
it rejects when sigma_min(B~) < (3/4) alpha delta or |det B~| <
beta delta^2 / 2 — exactly when the Vandermonde factor may be too close to
singular for the solve to be trusted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import InternalInconsistencyError, ParameterError
from .estimator import MomentEstimates


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
    2 beta, scale delta with gamma = delta^2, output error budget eta."""

    alpha: float
    beta: float
    delta: float = 1e-6
    eta: float = 1e-4

    def __post_init__(self):
        for name in ("alpha", "beta", "delta", "eta"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ParameterError(f"{name} must lie in (0,1], got {v!r}")

    @property
    def gamma(self) -> float:
        return self.delta ** 2


@dataclass(frozen=True)
class SigmaEstimates:
    """values[j-1] estimates sigma_j(z) for j = 1..l'."""

    values: tuple
    ell_prime: int
    gate: str = "yes"


def conditioning_gate(sys: HankelSystem, th: PronyThresholds) -> bool:
    """Two-stage test: smallest singular value, then determinant."""
    if gate_stage(sys, th) is not None:
        return False
    return True


def gate_stage(sys: HankelSystem, th: PronyThresholds) -> str | None:
    """None if the gate passes, else which stage failed ("singular"/"det")."""
    smin = float(np.linalg.svd(sys.B_tilde, compute_uv=False)[-1])
    if smin < 0.75 * th.alpha * th.delta:
        return "singular"
    det = complex(np.linalg.det(sys.B_tilde))
    if abs(det) < 0.5 * th.beta * th.delta ** 2:
        return "det"
    return None


def solve_sigma(sys: HankelSystem, th: PronyThresholds) -> SigmaEstimates:
    """Dense solve B~ w~ = v~; sigma_j = (-1)^(j-1) w~_{l'+1-j}.

    Callers must gate first; a singular solve after a YES gate means the
    thresholds were too loose for float precision."""
    lp = sys.ell_prime
    try:
        w = np.linalg.solve(sys.B_tilde, sys.v_tilde)
    except np.linalg.LinAlgError as exc:
        raise InternalInconsistencyError(f"gated Hankel solve failed: {exc}")
    if not np.all(np.isfinite(w.view(float))):
        raise InternalInconsistencyError("gated Hankel solve returned non-finite values")
    sigma = tuple(complex((-1) ** (j - 1) * w[lp - j]) for j in range(1, lp + 1))
    return SigmaEstimates(sigma, lp)


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


def estimate_sigma_at_point(
    estimates: MomentEstimates,
    z_index: int,
    ell_prime: int,
    th: PronyThresholds,
) -> SigmaEstimates | None:
    """Assemble the Hankel system from sample means at one grid point, gate,
    and solve.  Returns None when the gate says the P-values are too close
    together at this z (separation below threshold)."""
    try:
        b = [estimates.means[(z_index, k)] for k in range(2 * ell_prime)]
    except KeyError:
        raise ParameterError(
            f"estimates missing k entries for point {z_index}, l'={ell_prime}"
        )
    sys = HankelSystem.from_power_sums(b)
    stage = gate_stage(sys, th)
    if stage is not None:
        return None
    out = solve_sigma(sys, th)
    return out


def sigma_record_json(z: complex, result: SigmaEstimates | None, ell_prime: int, stage=None) -> str:
    rec = {
        "z": [z.real, z.imag],
        "ell_prime": ell_prime,
        "gate": "yes" if result is not None else f"no:{stage or 'singular'}",
        "sigma": []
        if result is None
        else [[s.real, s.imag] for s in result.values],
    }
    return json.dumps(rec)
