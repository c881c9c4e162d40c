"""Integer coefficient recovery for the symmetric polynomials sigma_k.

sigma_k(z) of a mixture of n-bit strings is a polynomial in z with
nonnegative integer coefficients: degree <= k*n, each coefficient at most
binom(l, k) * n^k, and t_0..t_{k-1} = 0 because P has no constant term.

`recover_sigmas` is the recovery route.  The Prony recurrence
sum_j (-1)^(j-1) sigma_j(z) b_{k+l'-j}(z) = b_{k+l'}(z), k = 0..l'-1, is
linear in every coefficient t_{j,d} of every sigma_j at once, so one
system over the grid holds all U = sum_j (j(n-1)+1) unknowns.  Every
product in it has degree at most (2l'-1)n, below the P of
`zgrid.recovery_grid`, so on that grid the equations are the polynomial
identity itself: a point whose Hankel matrix is singular still satisfies
them at the true sigma, and no point is left out.  Each point's rows are
divided by the standard error of b_{2l'-1}; the real and imaginary rows
are stacked and the columns scaled to unit norm; one QR gives the rank
check and, in integer coordinates, Babai's nearest plane (Babai 1986),
which rounds one unknown at a time from the last, each against the ones
already fixed.  The exact factoring and moment validation downstream
certify the answer, so no residual rule or tolerance is applied.

`recover_polynomial` rounds one sigma_k from per-point values and
tolerances; it reproduces the paper's coefficient-recovery lemma and the
pipeline does not call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ParameterError, ProblemParams


class CoefficientRecoveryError(RuntimeError):
    """sigma_k could not be recovered, or with k None the joint system of
    sigma_1..sigma_l' could not.  The message gives the reason: a moment
    that is not finite, a rank too low to determine the coefficients, a
    coefficient outside its bound, or a point missed by more than its
    tolerance."""

    def __init__(self, k, message):
        super().__init__(message if k is None else f"sigma_{k}: {message}")


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


def recover_sigmas(ell_prime: int, estimates, params: ProblemParams) -> list:
    """[sigma_1 .. sigma_l'] as SymmetricPolynomials from one integer
    least-squares solve of the joint Prony system of `estimates`, the
    MomentEstimates of b_0..b_{2l'-1} or more on a conjugate-symmetric
    grid.

    The conjugate rows repeat the others' equations, so the first half of
    the grid (centre included) makes the (points, l', U) system.  Each
    point's rows are divided by the standard error of b_{2l'-1}, floored
    at float64 eps times the point's largest |b_k|, so exact moments (zero
    covariance) are weighted by their rounding level.  Raises
    ParameterError when ell_prime < 1 or the estimates stop short of
    b_{2l'-1}, and CoefficientRecoveryError when a moment or weight is not
    finite, when some |R_ii| of the column-scaled QR is at most
    max|R_ii| * max(shape) * eps, or when a coefficient lies outside
    [0, coefficient_bound]."""
    n, lp = params.n, ell_prime
    if lp < 1:
        raise ParameterError(f"ell_prime must be >= 1, got {lp}")
    if estimates.k_max < 2 * lp - 1:
        raise ParameterError(
            f"l'={lp} needs b_1..b_{2 * lp - 1}, the estimates end at b_{estimates.k_max}"
        )
    half = (len(estimates.grid) + 1) // 2
    b = estimates.means[:half, : 2 * lp]
    eps = np.finfo(float).eps
    weight = np.maximum(estimates.stderrs[:half, 2 * lp - 1], eps * np.abs(b).max(axis=1))
    if not (np.isfinite(b).all() and np.isfinite(weight).all()):
        raise CoefficientRecoveryError(None, "a moment estimate or its standard error is not finite")
    powers = estimates.grid[:half, None] ** np.arange(lp * n + 1)
    # row k of point z: sum_{j,d} (-1)^(j-1) b_{k+l'-j}(z) z^d t_{j,d} = b_{k+l'}(z)
    k = np.arange(lp)
    A = np.concatenate(
        [(-1) ** (j - 1) * b[:, k + lp - j, None] * powers[:, None, j : j * n + 1]
         for j in range(1, lp + 1)],
        axis=2,
    ) / weight[:, None, None]
    rhs = (b[:, lp:] / weight[:, None]).ravel()
    A = A.reshape(len(rhs), -1)
    A, rhs = np.vstack([A.real, A.imag]), np.concatenate([rhs.real, rhs.imag])
    unknowns = A.shape[1]
    norms = np.linalg.norm(A, axis=0)
    # R of [A / norms, rhs]: its last column is Q^T rhs, so Q is never formed
    R = np.linalg.qr(np.column_stack([A / np.where(norms > 0, norms, 1.0), rhs]), mode="r")
    R, target = R[:unknowns, :unknowns], R[:unknowns, unknowns]
    diag = np.abs(np.diagonal(R))
    rank = int(np.count_nonzero(diag > diag.max(initial=0.0) * max(A.shape) * eps))
    if rank < unknowns:
        raise CoefficientRecoveryError(
            None, f"{len(rhs)} real equations of rank {rank} for {unknowns} unknown coefficients"
        )
    # Babai's nearest plane in integer coordinates: R diag(norms) t ~ Q^T rhs
    R = R * norms
    t = np.zeros(unknowns)
    for i in range(unknowns - 1, -1, -1):
        t[i] = np.rint((target[i] - R[i, i + 1 :] @ t[i + 1 :]) / R[i, i])
    polys, start = [], 0
    for j in range(1, lp + 1):
        coeffs = t[start : start + j * (n - 1) + 1]
        start += len(coeffs)
        bound = coefficient_bound(params, j)
        outside = np.flatnonzero((coeffs < 0) | (coeffs > bound))
        if outside.size:
            raise CoefficientRecoveryError(
                j, f"coefficient {j + outside[0]} is {coeffs[outside[0]]:.0f}, outside [0, {bound}]"
            )
        polys.append(SymmetricPolynomial(j, (0,) * j + tuple(int(c) for c in coeffs)))
    return polys


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
        raise CoefficientRecoveryError(
            k, f"{len(rhs)} real equations of rank {rank} for {unknowns} unknown coefficients"
        )
    rounded = np.rint(solution)
    bound = coefficient_bound(params, k)
    outside = np.flatnonzero((rounded < 0) | (rounded > bound))
    if outside.size:
        i = k + int(outside[0])
        raise CoefficientRecoveryError(
            k, f"coefficient {i} rounds to {rounded[outside[0]]:.0f}, outside [0, {bound}]"
        )
    resid = values - powers @ rounded
    miss = np.maximum(np.abs(resid.real), np.abs(resid.imag)) / tols
    worst = int(np.argmax(miss))
    if miss[worst] > 1.0:
        raise CoefficientRecoveryError(
            k, f"integer polynomial misses z={zs[worst]:.4g} by {miss[worst]:.3g} tolerances"
        )
    return SymmetricPolynomial(k, (0,) * k + tuple(int(c) for c in rounded))
