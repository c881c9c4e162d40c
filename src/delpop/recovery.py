"""End-to-end recovery: moments -> integer coefficients of sigma ->
support -> weight fitting -> moment-matching validation.

`recover_histogram` runs the pipeline on a `TraceHistogram`: sampled
traces, a trace file, or an exact trace law given a trace count.
`recover` reduces a trace stream to its histogram first.

The sparsity l' is unknown, so l' = 1..l are tried in order.  Each l'
solves one joint Prony system over the grid for the integer coefficients
of sigma_1..sigma_l' and factors the result (`support_candidate`), then
fits weights to the support and validates the mixture against every
moment estimate.  The first mixture that validates is returned.  Each l'
tried leaves one record in `diagnostics["ell_primes"]`: its support when
solve and factoring gave one, and the reason it failed, or the
validation score of the accepted mixture.  Wrong guesses of l' are
harmless: their candidates fail the validation.  Nothing here reads
`ProblemParams.eps`; the reference `exhaustive_distinguisher` takes the
n, l and eps it reads as arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    BitString,
    CorruptInputError,
    ParameterError,
    ProblemParams,
    RecoveryFailedError,
    SparseDistribution,
    eval_poly,
)
from .channel import ChannelConfig, sample_trace_batch
from .coeffs import CoefficientRecoveryError, recover_sigmas
from .estimator import MomentEstimates, TraceHistogram
from .support import factor_support
from .zgrid import recovery_grid


# A candidate must reproduce each moment estimate within
# VALIDATION_ABS + VALIDATION_SIGMA * its standard error.
VALIDATION_ABS = 0.03
VALIDATION_SIGMA = 8.0
# Fitted weights at or below this are dropped.
WEIGHT_FLOOR = 1e-6
# `exhaustive_distinguisher` accepts a mixture whose moments all lie
# within this of the estimates.
DISTINGUISH_MARGIN = 1e-7


@dataclass
class RecoveryConfig:
    """What a run varies.  `recover` reads only sample_count, the number of
    traces that feed the moment estimates; seed seeds the channel sampler
    of `channel_trace_source`.  The grid is not a setting:
    `zgrid.recovery_grid` derives it from n and l.
    """

    sample_count: int = 100_000
    seed: int = 0


@dataclass
class RecoveryResult:
    distribution: SparseDistribution
    diagnostics: dict


def support_candidate(ell_prime: int, estimates: MomentEstimates, params: ProblemParams):
    """The support tuple that the joint solve for sigma_1..sigma_l' and
    exact factoring give; raises CoefficientRecoveryError when the solve
    fails and CorruptInputError when factoring does."""
    return factor_support(recover_sigmas(ell_prime, estimates, params), params.n)


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
    """Mixture weights with sum a_i = 1 that minimize the sum over every
    grid point and k of |model - estimate|^2 / margin^2, the squared form
    of the residual `validate_candidate` checks.  Setting the last weight
    to 1 - sum of the others leaves one least-squares solve over the
    stacked real and imaginary rows.  The weights are not bounded below:
    a string that does not fit may get a negative weight, which
    `_build_distribution` drops; whether the fit is good enough is for
    `validate_candidate` to decide."""
    support = list(support)
    if len(set(support)) != len(support):
        raise ParameterError("support strings must be distinct")
    margin = _validation_margin(estimates)
    cols = (_moment_powers(support, estimates) / margin[:, :, None]).reshape(margin.size, -1)
    A = cols[:, :-1] - cols[:, -1:]
    b = (estimates.means[:, 1:] / margin).ravel() - cols[:, -1]
    head = np.linalg.lstsq(np.vstack([A.real, A.imag]), np.append(b.real, b.imag), rcond=None)[0]
    return [*head.tolist(), 1.0 - float(head.sum())]


def _build_distribution(support, weights) -> SparseDistribution:
    """The candidate mixture without weights at or below WEIGHT_FLOOR,
    negative ones included, rescaled to sum to 1; at most l weights sum
    to 1, so the largest, at least 1/l, always stays."""
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


def recover_histogram(hist: TraceHistogram, params: ProblemParams) -> RecoveryResult:
    """Full pipeline on a trace histogram: sampled traces, a trace file, or
    an exact trace law given a trace count, which sets the standard errors
    and so the validation margin."""
    if hist.rows.shape[1] != params.n:
        raise ParameterError(f"histogram rows have {hist.rows.shape[1]} bits, not n={params.n}")
    grid = recovery_grid(params.n, params.ell)
    estimates = hist.estimates(grid, 2 * params.ell - 1, params.p)
    records = []
    diagnostics = {
        "grid_points": len(grid),
        "points": estimates.point_table(),
        "ell_primes": records,
    }
    for ell_prime in range(1, params.ell + 1):
        record = {"ell_prime": ell_prime}
        records.append(record)
        try:
            strings = support_candidate(ell_prime, estimates, params)
        except CoefficientRecoveryError as exc:
            record["reason"] = f"coefficient recovery failed: {exc}"
            continue
        except CorruptInputError as exc:
            record["reason"] = f"factoring failed: {exc}"
            continue
        record["support"] = [str(x) for x in strings]
        d = _build_distribution(strings, fit_weights(strings, estimates))
        score = validate_candidate(d, estimates)
        if score is not None:
            record["validation_worst"] = score
            return RecoveryResult(distribution=d, diagnostics=diagnostics)
        record["reason"] = "moment validation failed"
    candidate = f"candidate {record['support']}: " if "support" in record else ""
    raise RecoveryFailedError(f"l'={ell_prime}: {candidate}{record['reason']}", diagnostics)


def recover(
    trace_source,
    params: ProblemParams,
    config: RecoveryConfig | None = None,
) -> RecoveryResult:
    """Full pipeline on the first config.sample_count traces of an i.i.d.
    trace stream (batches of padded 0/1 rows)."""
    config = config or RecoveryConfig()
    hist = TraceHistogram.from_batches(trace_source, params.n, config.sample_count)
    return recover_histogram(hist, params)


def channel_trace_source(d: SparseDistribution, p: float, config: RecoveryConfig):
    """config.sample_count padded traces of d through the channel at
    retention p, seeded by config.seed, in batches of 2^16; feeds
    recover() and `delpop simulate`.  p is checked here, before any trace
    is drawn.  The last batch is drawn whole and cut, so a smaller count
    gives the first traces of a larger one."""
    cfg = ChannelConfig(p)
    rng = np.random.default_rng(config.seed)
    return (sample_trace_batch(d, cfg, 1 << 16, rng)[: config.sample_count - start]
            for start in range(0, config.sample_count, 1 << 16))


def recover_from_channel(
    d: SparseDistribution,
    params: ProblemParams,
    config: RecoveryConfig | None = None,
) -> RecoveryResult:
    config = config or RecoveryConfig()
    return recover(channel_trace_source(d, params.p, config), params, config)


def exhaustive_distinguisher(
    estimates: MomentEstimates,
    n: int,
    ell: int,
    eps: float,
) -> SparseDistribution:
    """Reference brute-force learner for tiny instances (n <= 8, l <= 2):
    enumerate all n-bit supports of size <= l and find mixture weights
    matching every moment estimate within DISTINGUISH_MARGIN.  The weight
    pitch is eps / (4 l).

    For a fixed pair of strings the moments are linear in the weight a, so
    the admissible a form an interval per constraint; the intersection over
    all (z, k) replaces an explicit scan of the weight grid, and the
    returned weight is snapped to the grid pitch when the snapped value
    stays admissible."""
    if not (1 <= n <= 8 and 1 <= ell <= 2):
        raise ParameterError("exhaustive search limited to 1 <= n <= 8, 1 <= ell <= 2")
    if not 0.0 < eps < 1.0:
        raise ParameterError(f"eps must lie in (0,1), got {eps!r}")
    pitch = eps / (4.0 * ell)
    strings = [BitString(bits) for bits in itertools.product((0, 1), repeat=n)]
    strings.sort()
    # one column per (point, k) constraint, one row per string
    M = _moment_powers(strings, estimates).reshape(-1, len(strings)).T
    b = estimates.means[:, 1:].ravel()

    single = np.flatnonzero(np.all(np.abs(M - b) <= DISTINGUISH_MARGIN, axis=1))
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
            disc = A * DISTINGUISH_MARGIN ** 2 - cd.imag ** 2
            root = np.sqrt(np.maximum(disc, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                lo = np.where(flat, 0.0, (-cd.real - root) / A).max(axis=1)
                hi = np.where(flat, 1.0, (-cd.real + root) / A).min(axis=1)
            lo = np.maximum(lo, 1e-9)
            hi = np.minimum(hi, 1.0 - 1e-9)
            ok = (
                ~np.any(flat & (np.abs(dd) > DISTINGUISH_MARGIN), axis=1)
                & ~np.any(~flat & (disc < 0), axis=1)
                & (lo <= hi)
            )
            hits = np.flatnonzero(ok)
            if not hits.size:
                continue
            j = hits[0]
            lo, hi = float(lo[j]), float(hi[j])
            a = round(((lo + hi) / 2.0) / pitch) * pitch
            if not (lo <= a <= hi):
                a = (lo + hi) / 2.0
            return SparseDistribution((strings[si], strings[si + 1 + j]), (a, 1.0 - a))

    raise RecoveryFailedError("no enumerated distribution matches the estimates within margin")
