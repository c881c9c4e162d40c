"""Integer coefficient recovery for the symmetric polynomials sigma_k.

sigma_k(z) of a mixture of n-bit strings is a polynomial in z with
nonnegative integer coefficients: degree <= k*n, each coefficient at most
binom(l, k) * n^k, and t_0..t_{k-1} = 0 because P has no constant term.
So once sigma_k is estimated at enough grid points, each with its own
tolerance, one least-squares solve of the Vandermonde system for
t_k..t_{kn}, with every point weighted by the inverse of its tolerance,
followed by rounding, gives its coefficients.  The exact factoring and moment
validation downstream certify the answer.  On the P-th roots of unity of
`zgrid.recovery_grid`, P > k*n, the Vandermonde columns z^k..z^{kn} are
orthogonal, so the system before weighting is perfectly conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ParameterError, ProblemParams


class CoefficientRecoveryError(RuntimeError):
    """sigma_k could not be recovered; the message gives the reason."""

    def __init__(self, k, message):
        super().__init__(f"sigma_{k}: {message}")
        self.k = k


class NoFeasibleCoefficientError(CoefficientRecoveryError):
    """The rounded polynomial breaks the coefficient bound or misses a point
    by more than its tolerance (tolerance too tight or estimates too noisy)."""


class AmbiguousCoefficientError(CoefficientRecoveryError):
    """The grid points do not determine the coefficients (too few points or
    a numerically rank-deficient system)."""


@dataclass(frozen=True)
class SymmetricPolynomial:
    """sigma_k as an integer polynomial; coeffs[i] is the z^i coefficient."""

    k: int
    coeffs: tuple

    def __post_init__(self):
        if any(int(c) != c or c < 0 for c in self.coeffs):
            raise ParameterError("coefficients must be nonnegative integers")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))


def coefficient_bound(params: ProblemParams, k: int) -> int:
    return math.comb(params.ell, k) * params.n ** k


def recover_polynomial(k, zs, values, tols, params: ProblemParams) -> SymmetricPolynomial:
    """Recover the integer coefficients of sigma_k from per-point estimates.

    `values[i]` estimates sigma_k(zs[i]) within tolerance `tols[i]`; `tols`
    broadcasts against `zs`, so one number serves every point.
    t_0..t_{k-1} are zero; t_k..t_{kn} solve the Vandermonde system in the
    least-squares sense, with each point's real and imaginary rows divided
    by its tolerance, and are then rounded.  The integer answer must lie in
    [0, coefficient_bound] and match every point's real and imaginary parts
    within that point's tolerance."""
    zs = np.asarray(zs, dtype=complex).ravel()
    values = np.asarray(values, dtype=complex).ravel()
    if not zs.size:
        raise ParameterError("need at least one grid point")
    if values.shape != zs.shape:
        raise ParameterError("need one value per grid point")
    tols = np.broadcast_to(np.asarray(tols, dtype=float), zs.shape)
    if not np.all(tols > 0):
        raise ParameterError("tolerances must be positive")
    powers = zs[:, None] ** np.arange(k, k * params.n + 1)
    unknowns = powers.shape[1]
    row_weights = 1.0 / np.concatenate([tols, tols])
    A = np.vstack([powers.real, powers.imag]) * row_weights[:, None]
    rhs = np.concatenate([values.real, values.imag]) * row_weights
    solution, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < unknowns:
        raise AmbiguousCoefficientError(
            k, f"{len(rhs)} real equations of rank {rank} for {unknowns} unknown coefficients"
        )
    rounded = np.rint(solution)
    bound = coefficient_bound(params, k)
    outside = np.flatnonzero((rounded < 0) | (rounded > bound))
    if outside.size:
        i = k + int(outside[0])
        raise NoFeasibleCoefficientError(
            k, f"coefficient {i} rounds to {rounded[outside[0]]:.0f}, outside [0, {bound}]"
        )
    resid = values - powers @ rounded
    miss = np.maximum(np.abs(resid.real), np.abs(resid.imag)) / tols
    worst = int(np.argmax(miss))
    if miss[worst] > 1.0:
        raise NoFeasibleCoefficientError(
            k, f"integer polynomial misses z={zs[worst]:.4g} by {miss[worst]:.3g} tolerances"
        )
    return SymmetricPolynomial(k, (0,) * k + tuple(int(c) for c in rounded))
