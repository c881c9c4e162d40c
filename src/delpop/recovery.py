"""End-to-end recovery: moments -> Prony -> integer coefficients ->
support -> weight fitting -> moment-matching validation.

The sparsity l' is unknown, so every l' = 1..l is tried.  Each l' makes one
pass over the grid: every point's Hankel system is solved for sigma and its
delta-method error, and the coefficient solve weights each point by the
inverse of its tolerance, so a badly conditioned point carries almost no
weight.  Only a point whose Hankel matrix is numerically singular, or
whose solve or predicted error is not finite, is left out.  Each l' yields at most one candidate
support through the Prony/coefficient/factoring chain; failures are
recorded rather than fatal, and the first candidate whose fitted mixture
reproduces every moment estimate within the validation margin is
returned.  Wrong guesses of l' are harmless: their candidates fail the
validation.  Nothing here reads `ProblemParams.eps`; the reference
`exhaustive_distinguisher` takes the n, l and eps it reads as arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, asdict

import numpy as np

from .core import (
    BitString,
    CorruptInputError,
    InternalInconsistencyError,
    ParameterError,
    ProblemParams,
    RecoveryFailedError,
    SparseDistribution,
    eval_poly,
)
from .channel import ChannelConfig, sample_trace_batch
from .coeffs import CoefficientRecoveryError, recover_polynomial
from .estimator import MomentEstimates, accumulate_moments
from .prony import HankelSystem, sigma_error_stds, solve_sigma
from .support import assemble_char_poly, decode_support, integer_roots
from .zgrid import arc_grid


class MarginError(RuntimeError):
    """No enumerated distribution matches the estimates within margin."""


# Each point's coefficient tolerance is the larger of COEFF_TOL and
# COEFF_SAFETY times its predicted sigma error.
COEFF_TOL = 0.02
COEFF_SAFETY = 4.0
# A candidate must reproduce each moment estimate within
# VALIDATION_ABS + VALIDATION_SIGMA * its standard error.
VALIDATION_ABS = 0.03
VALIDATION_SIGMA = 8.0
# Fitted weights at or below this are dropped.
WEIGHT_FLOOR = 1e-6


@dataclass
class RecoveryConfig:
    """What a run varies: sample_count traces feed the moment estimates on
    `zgrid.arc_grid`, grid_points points (an odd count) spaced
    grid_spacing radians apart on a symmetric arc of half-width at most
    2*pi, and seed drives the channel sampler.  The default arc is wide:
    for moderate-to-large p the estimator weights stay bounded by
    (1 + q)/p over the whole unit circle, so wide arcs cost little
    variance and keep the Vandermonde system of the integer coefficient
    recovery well conditioned.
    """

    sample_count: int = 100_000
    grid_spacing: float = 0.23
    grid_points: int = 25
    seed: int = 0


@dataclass
class RecoveryResult:
    distribution: SparseDistribution
    diagnostics: dict = field(default_factory=dict)
    seed: int = 0
    config: dict = field(default_factory=dict)


def recover_support_candidates(estimates: MomentEstimates, params: ProblemParams):
    """Run prony -> coefficient recovery -> factoring once for each
    l' = 1..l; returns ([(l', support strings)], [(l', failure message)]),
    every l' in exactly one of the two lists."""
    results, failures = [], []
    for ell_prime in range(1, params.ell + 1):
        outcome = _candidate(ell_prime, estimates, params)
        (failures if isinstance(outcome, str) else results).append((ell_prime, outcome))
    return results, failures


def _candidate(ell_prime, estimates, params):
    """Solve sigma at every grid point in one stacked call, recover each
    sigma_k polynomial, and factor.  Returns the support tuple or a
    failure string.

    Each point enters the coefficient solve with its own tolerance: the
    larger of a floor and a safety multiple of its predicted sigma error.
    The solve weights each point by the inverse of its tolerance, so poorly
    conditioned points contribute weak-but-valid rows instead of either
    poisoning the solve or being thrown away.  A point whose Hankel matrix
    is numerically singular, or whose solve or predicted error is not
    finite, is left out: with exact moments its predicted error is 0, so
    only dropping it keeps its rounding noise out of the solve."""
    b = estimates.means[:, : 2 * ell_prime]
    cov = estimates.cov[:, : 2 * ell_prime - 1, : 2 * ell_prime - 1]
    sys = HankelSystem.from_power_sums(b)
    sigmas = solve_sigma(sys)
    stds = sigma_error_stds(sys, cov, estimates.count)
    rows = np.isfinite(sigmas).all(axis=1) & np.isfinite(stds).all(axis=1)
    if not rows.any():
        return "prony failed: every grid point's Hankel solve is singular or not finite"
    zs, sigmas = estimates.grid[rows], sigmas[rows]
    tols = np.maximum(COEFF_TOL, COEFF_SAFETY * stds[rows])
    polys = []
    for k in range(1, ell_prime + 1):
        try:
            polys.append(recover_polynomial(k, zs, sigmas[:, k - 1], tols[:, k - 1], params))
        except CoefficientRecoveryError as exc:
            return f"coefficient recovery failed: {exc}"
    try:
        char = assemble_char_poly(polys)
        enc = integer_roots(char, params.n)
        strings = decode_support(enc, params.n)
    except CorruptInputError as exc:
        return f"factoring failed: {exc}"
    return strings


def _moment_powers(strings, estimates: MomentEstimates) -> np.ndarray:
    """P(z; x)^k for every grid point z, k = 1..k_max and string x, as a
    (points, k_max, strings) array."""
    u = np.array(
        [[eval_poly(x, z) for x in strings] for z in estimates.grid.tolist()], dtype=complex
    ).reshape(len(estimates.grid), 1, len(strings))
    return np.cumprod(np.repeat(u, estimates.k_max, axis=1), axis=1)


def _validation_margin(estimates: MomentEstimates) -> np.ndarray:
    """(P, k_max) margin within which a candidate's moments must reproduce
    the estimates b_1..b_{k_max}."""
    return VALIDATION_ABS + VALIDATION_SIGMA * estimates.stderrs[:, 1:]


def fit_weights(support, estimates: MomentEstimates) -> list:
    """Mixture weights a_i >= 0 with sum a_i = 1 that minimize the worst
    Re/Im moment residual, each divided by its point's validation margin.
    The LP is feasible for every support; whether the fit is good enough
    is for `validate_candidate` to decide."""
    # imported here, its only use: scipy.optimize more than doubles the
    # package's import time and memory, which callers that fit no weights
    # (the simulate, estimate, distinguish and oracle-check modes) skip
    from scipy.optimize import linprog

    support = list(support)
    ns = len(support)
    if len(set(support)) != ns:
        raise ParameterError("support strings must be distinct")
    margin = _validation_margin(estimates)
    coef = _moment_powers(support, estimates) / margin[:, :, None]
    target = estimates.means[:, 1:] / margin
    # per (point, k): the +Re, +Im, -Re and -Im residuals, each <= the slack
    A = np.stack([coef.real, coef.imag, -coef.real, -coef.imag], axis=2).reshape(-1, ns)
    b = np.stack([target.real, target.imag, -target.real, -target.imag], axis=2).ravel()
    A_ub = np.hstack([A, -np.ones((len(A), 1))])
    A_eq = np.append(np.ones(ns), 0.0).reshape(1, -1)
    c = np.zeros(ns + 1)
    c[-1] = 1.0
    bounds = [(0.0, 1.0)] * ns + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b, A_eq=A_eq, b_eq=[1.0], bounds=bounds, method="highs")
    if not res.success:
        raise InternalInconsistencyError(f"weight LP failed: {res.message}")
    return [float(a) for a in res.x[:-1]]


def _build_distribution(support, weights) -> SparseDistribution:
    """The candidate mixture without weights at or below WEIGHT_FLOOR; at
    most l weights sum to 1, so the largest, at least 1/l, always stays."""
    pairs = [(x, a) for x, a in zip(support, weights) if a > WEIGHT_FLOOR]
    total = sum(a for _, a in pairs)
    return SparseDistribution(
        tuple(x for x, _ in pairs), tuple(a / total for _, a in pairs)
    )


def validate_candidate(d: SparseDistribution, estimates: MomentEstimates) -> float | None:
    """Largest normalized moment residual if the candidate reproduces every
    estimate within its `_validation_margin`, else None."""
    model = _moment_powers(d.support, estimates) @ np.asarray(d.weights)
    margin = _validation_margin(estimates)
    resid = np.abs(model - estimates.means[:, 1:])
    if np.any(resid > margin):
        return None
    return float(np.max(resid / margin, initial=0.0))


def recover(
    trace_source,
    params: ProblemParams,
    config: RecoveryConfig | None = None,
) -> RecoveryResult:
    """Full pipeline on an i.i.d. trace stream (batches of padded 0/1 rows)."""
    config = config or RecoveryConfig()
    if config.sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    grid = arc_grid(config.grid_spacing, config.grid_points)
    k_max = 2 * params.ell - 1
    estimates = accumulate_moments(trace_source, grid, k_max, params, config.sample_count)
    diagnostics = {
        "grid_points": len(grid),
        "points": estimates.point_table(),
        "candidates": [],
    }
    candidates, failures = recover_support_candidates(estimates, params)
    diagnostics["failures"] = failures
    for ell_prime, strings in candidates:
        record = {
            "ell_prime": ell_prime,
            "support": [str(x) for x in strings],
            "accepted": False,
        }
        diagnostics["candidates"].append(record)
        d = _build_distribution(strings, fit_weights(strings, estimates))
        score = validate_candidate(d, estimates)
        if score is None:
            record["reason"] = "moment validation failed"
            continue
        record["accepted"] = True
        record["validation_worst"] = score
        return RecoveryResult(
            distribution=d,
            diagnostics=diagnostics,
            seed=config.seed,
            config=asdict(config),
        )
    if not candidates:
        raise RecoveryFailedError("no support candidate survived the pipeline", diagnostics)
    raise RecoveryFailedError("all candidates failed moment validation", diagnostics)


def channel_trace_source(d: SparseDistribution, params: ProblemParams, config: RecoveryConfig):
    """Endless batches of 2^16 padded traces of d through the channel at
    retention params.p, seeded by config.seed; feeds recover()."""
    rng = np.random.default_rng(config.seed)
    cfg = ChannelConfig(params.p, config.seed)
    while True:
        yield sample_trace_batch(d, cfg, 1 << 16, rng)[0]


def recover_from_channel(
    d: SparseDistribution,
    params: ProblemParams,
    config: RecoveryConfig | None = None,
) -> RecoveryResult:
    config = config or RecoveryConfig()
    return recover(channel_trace_source(d, params, config), params, config)


def exhaustive_distinguisher(
    estimates: MomentEstimates,
    n: int,
    ell: int,
    eps: float,
    weight_grid: float | None = None,
    margin: float = 1e-7,
) -> SparseDistribution:
    """Reference brute-force learner for tiny instances (n <= 8, l <= 2):
    enumerate all n-bit supports of size <= l and find mixture weights
    matching every moment estimate within margin.  The weight pitch is
    weight_grid, or eps / (4 l) if it is None.

    For a fixed pair of strings the moments are linear in the weight a, so
    the admissible a form an interval per constraint; the intersection over
    all (z, k) replaces an explicit scan of the weight grid, and the
    returned weight is snapped to the grid pitch when the snapped value
    stays admissible."""
    if not (1 <= n <= 8 and 1 <= ell <= 2):
        raise ParameterError("exhaustive search limited to 1 <= n <= 8, 1 <= ell <= 2")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0,1), got {eps!r}")
    if margin < 0:
        raise ParameterError("margin must be nonnegative")
    pitch = weight_grid if weight_grid is not None else eps / (4.0 * ell)
    strings = [BitString(bits) for bits in itertools.product((0, 1), repeat=n)]
    strings.sort()
    # one column per (point, k) constraint, one row per string
    M = _moment_powers(strings, estimates).reshape(-1, len(strings)).T
    b = estimates.means[:, 1:].ravel()

    single = np.flatnonzero(np.all(np.abs(M - b) <= margin, axis=1))
    if single.size:
        return SparseDistribution((strings[single[0]],), (1.0,))

    if ell >= 2:
        for si in range(len(strings) - 1):
            # every pair (si, sj > si) at once: |c a + d| <= margin per
            # constraint, with c = u_si^k - u_sj^k and d = u_sj^k - b
            c = M[si] - M[si + 1 :]
            dd = M[si + 1 :] - b
            A = np.abs(c) ** 2
            flat = A < 1e-30
            cd = c.conj() * dd
            # |c a + d|^2 <= margin^2 is A a^2 + 2 B a + C <= 0 with B =
            # Re(conj(c) d) and C = |d|^2 - margin^2; the half-discriminant
            # B^2 - A C equals A margin^2 - Im(conj(c) d)^2, which avoids
            # the catastrophic cancellation of the direct form when margin
            # is tiny against the moment magnitudes.
            disc = A * margin ** 2 - cd.imag ** 2
            root = np.sqrt(np.maximum(disc, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                lo = np.where(flat, 0.0, (-cd.real - root) / A).max(axis=1)
                hi = np.where(flat, 1.0, (-cd.real + root) / A).min(axis=1)
            lo = np.maximum(lo, 1e-9)
            hi = np.minimum(hi, 1.0 - 1e-9)
            ok = (
                ~np.any(flat & (np.abs(dd) > margin), axis=1)
                & ~np.any(~flat & (disc < 0), axis=1)
                & (lo <= hi)
            )
            hits = np.flatnonzero(ok)
            if not hits.size:
                continue
            j = hits[0]
            lo, hi = float(lo[j]), float(hi[j])
            a = round(((lo + hi) / 2.0) / pitch) * pitch if pitch > 0 else (lo + hi) / 2.0
            if not (lo <= a <= hi):
                a = (lo + hi) / 2.0
            return SparseDistribution((strings[si], strings[si + 1 + j]), (a, 1.0 - a))

    raise MarginError("no enumerated distribution matches the estimates within margin")
