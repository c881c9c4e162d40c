"""Prony solve: from noisy power sums b~_0 .. b~_{2l'-1} at each grid point
z, recover estimates of the elementary symmetric values sigma_j(z) of the
mixture's P-values.

The Hankel matrix B with B_{ij} = b_{i+j-2} factors as V^T A V where V is
the Vandermonde matrix of the u_i = P(z; x^(i)) and A = diag(a_i).  The
power sums satisfy the linear recurrence b_{k+l} = sum_j r_j b_{k+l-j}
with r_j = (-1)^(j-1) sigma_j, so solving B w = v with v_i = b_{l-1+i}
yields sigma_j = (-1)^(j-1) w_{l+1-j}.

Every array here has a leading point axis: the Hankel systems of all
grid points form one (P, l', l') stack, and the rank check, the solve and
the inverse of the error model are one stacked call each.  A point whose
B~ is numerically singular or not finite gets NaN for sigma and its
error; the recovery driver leaves such a point out and weights every
other point by its delta-method error.  `gate_stage` reproduces the
paper's conditioning gate, which certifies a solve in its worst-case
analysis: given lower bounds alpha on the minimum mixture weight and beta
on the weight product, plus a scale delta, it rejects when
sigma_min(B~) < (3/4) alpha delta or |det B~| < beta delta^2 / 2 — exactly
when the Vandermonde factor may be too close to singular for the solve to
be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ParameterError


@dataclass(frozen=True)
class HankelSystem:
    """B~ (a (P, l', l') stack of Hankel matrices) and right-hand sides v~
    (P, l'), one per row of a (P, 2l') array of b-series."""

    B_tilde: np.ndarray
    v_tilde: np.ndarray
    ell_prime: int

    @classmethod
    def from_power_sums(cls, b) -> "HankelSystem":
        b = np.asarray(b, dtype=complex)
        if b.ndim != 2 or b.shape[1] % 2 != 0 or b.shape[1] < 2:
            raise ParameterError("need b_0..b_{2l'-1} (even length >= 2) at each point")
        lp = b.shape[1] // 2
        hankel = np.add.outer(np.arange(lp), np.arange(lp))
        return cls(b[:, hankel], b[:, lp:], lp)

    @cached_property
    def usable(self) -> np.ndarray:
        """(P,) mask of the points whose B~ is finite and of numerical rank
        l', as numpy.linalg.matrix_rank counts it."""
        finite = np.isfinite(self.B_tilde).all(axis=(1, 2))
        # an SVD of a non-finite matrix does not converge: rank the identity
        rank = np.linalg.matrix_rank(_identity_outside(self.B_tilde, finite))
        return finite & (rank == self.ell_prime)


def _identity_outside(B: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The (P, l', l') stack B with the identity at every point outside
    `mask`, so that a stacked solve or inverse cannot fail on them."""
    return np.where(mask[:, None, None], B, np.eye(B.shape[-1]))


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


def gate_stage(sys: HankelSystem, th: PronyThresholds) -> list:
    """Per point, None if the gate passes, else which stage failed
    ("singular"/"det")."""
    smin = np.linalg.svd(sys.B_tilde, compute_uv=False)[:, -1]
    det = np.abs(np.linalg.det(sys.B_tilde))
    return [
        "singular" if s < 0.75 * th.alpha * th.delta
        else "det" if d < 0.5 * th.beta * th.delta ** 2
        else None
        for s, d in zip(smin.tolist(), det.tolist())
    ]


def solve_sigma(sys: HankelSystem) -> np.ndarray:
    """Dense solve B~ w~ = v~ at every point; returns the (P, l') array of
    (sigma_1, .., sigma_l') with sigma_j = (-1)^(j-1) w~_{l'+1-j}, and a NaN
    row at each point that is not `usable` or whose solve is not finite."""
    lp = sys.ell_prime
    B = _identity_outside(sys.B_tilde, sys.usable)
    w = np.linalg.solve(B, sys.v_tilde[:, :, None])[:, :, 0]
    w[~(sys.usable & np.isfinite(w).all(axis=1))] = np.nan
    return w[:, ::-1] * (-1.0) ** np.arange(lp)


def sigma_error_stds(sys: HankelSystem, cov, count: int) -> np.ndarray:
    """Delta-method standard deviation of each sigma_j estimate at every
    point, a (P, l') array with a NaN row at each point that is not
    `usable`.

    `cov` is the (P, 2l'-1, 2l'-1) Hermitian covariance over one trace of
    the estimators of b_1..b_{2l'-1} (b~_0 = 1 is exact) and `count` the
    number of traces averaged.  Linearizes w = B^{-1} v around the
    estimates: perturbing b_k moves w by B^{-1} (dv/db_k - dB/db_k w), the
    k-th column of the Jacobian J, so the errors of w have covariance
    J cov J^H / count.  The b~_k share traces, so the off-diagonal terms
    matter."""
    lp = sys.ell_prime
    cov = np.asarray(cov)
    if cov.shape != (len(sys.B_tilde), 2 * lp - 1, 2 * lp - 1):
        raise ParameterError("need the covariance of b_1..b_{2l'-1} at each point")
    Binv = np.linalg.inv(_identity_outside(sys.B_tilde, sys.usable))
    w = (Binv @ sys.v_tilde[:, :, None])[:, :, 0]
    # dv/db_k and dB/db_k are 0/1 patterns, as v_i = b_{l'+i} and B_ij = b_{i+j};
    # each column of J is one matrix-vector product, as in a per-point solve
    k, i = np.arange(1, 2 * lp)[:, None], np.arange(lp)
    dv = k == i + lp
    dB = k[:, :, None] == np.add.outer(i, i)
    JT = (Binv[:, None] @ (dv - np.einsum("kij,pj->pki", dB, w))[..., None])[..., 0]
    var = np.einsum("pki,pkl,pli->pi", JT, cov, JT.conj()).real / count
    var[~sys.usable] = np.nan
    # w components map to sigma in reverse order (sigma_j from w_{l'+1-j})
    return np.sqrt(np.maximum(var, 0.0))[:, ::-1]


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
