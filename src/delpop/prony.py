"""Prony solve: from noisy power sums b~_0 .. b~_{2l'-1} at each grid point
z, estimates of the elementary symmetric values sigma_j(z) of the
mixture's P-values.

The Hankel matrix B with B_{ij} = b_{i+j-2} factors as V^T A V where V is
the Vandermonde matrix of the u_i = P(z; x^(i)) and A = diag(a_i).  The
power sums satisfy the linear recurrence b_{k+l} = sum_j r_j b_{k+l-j}
with r_j = (-1)^(j-1) sigma_j, so solving B w = v with v_i = b_{l-1+i}
yields sigma_j = (-1)^(j-1) w_{l+1-j}.

Every array here has a leading point axis: the Hankel systems of all
grid points form one (P, l', l') stack, solved in one stacked call.
`gate_stage` reproduces the paper's conditioning gate, which certifies a
solve in its worst-case analysis: given lower bounds alpha on the minimum
mixture weight and beta on the weight product, plus a scale delta, it
rejects when sigma_min(B~) < (3/4) alpha delta or |det B~| < beta
delta^2 / 2 — exactly when the Vandermonde factor may be too close to
singular for the solve to be trusted.  These reproduce the paper's
lemmas; the recovery pipeline solves the same recurrence jointly over
every point for the integer coefficients instead (`coeffs.recover_sigmas`).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    (sigma_1, .., sigma_l') with sigma_j = (-1)^(j-1) w~_{l'+1-j}."""
    w = np.linalg.solve(sys.B_tilde, sys.v_tilde[:, :, None])[:, :, 0]
    return w[:, ::-1] * (-1.0) ** np.arange(sys.ell_prime)
