"""End-to-end recovery: moments -> Prony -> integer coefficients ->
support -> weight fitting -> moment-matching validation.

The sparsity l', the minimum-weight bound alpha = 2^(-m1), and the
weight-product bound beta = 2^(-m2) are unknown, so all plausible
(l', m1, m2) tuples are enumerated; each produces at most one candidate
support through the Prony/LP/factoring chain, failures are recorded
rather than fatal, and the first candidate whose fitted mixture
reproduces every usable moment estimate within the validation margin is
returned.  Wrong guesses are harmless: their candidates fail the fit or
the validation.

When p is far below n^(-1/2), traces are first re-randomized with the
subsampling reduction so the estimator runs at effective retention
n^(-1/2) (conditioned on trace length <= t, which leaves moment
estimates unbiased for the conditioned channel the reduction targets).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.optimize import linprog

from .core import (
    BitString,
    ParameterError,
    ProblemParams,
    RecoveryFailedError,
    SparseDistribution,
    eval_poly,
    power_sum,
)
from .channel import ChannelConfig, SubsampleConfig, choose_threshold, sample_trace_batch
from .coeffs import (
    AmbiguousCoefficientError,
    NoFeasibleCoefficientError,
    recover_polynomial,
)
from .estimator import MomentEstimates, accumulate_moments
from .prony import (
    HankelSystem,
    PronyThresholds,
    gate_stage,
    sigma_error_stds,
    solve_sigma,
)
from .support import assemble_char_poly, decode_support, integer_roots
from .zgrid import GridSpec, build_arc_grid
from .core import CorruptInputError


class MarginError(RuntimeError):
    """No enumerated distribution matches the estimates within margin."""


@dataclass(frozen=True)
class CandidateEnumeration:
    ell_prime: int
    m1: int
    m2: int

    @property
    def alpha(self) -> float:
        return 2.0 ** -self.m1

    @property
    def beta(self) -> float:
        return 2.0 ** -self.m2


@dataclass
class RecoveryConfig:
    """Tunable pipeline knobs.

    The default grid is a wide symmetric arc: for moderate-to-large p the
    estimator weights stay bounded by (1 + q)/p over the whole unit circle,
    so wide arcs cost little variance and make the integer LP recovery
    unambiguous, whereas the narrow theoretical arcs are only forced when p
    is small.
    """

    sample_count: int = 100_000
    grid_spacing: float = 0.23
    grid_points: int = 25
    delta: float = 0.01
    eta: float = 1e-4
    m1_max: int | None = None
    coeff_tol: float = 0.02  # floor of the per-point coefficient tolerance
    coeff_safety: float = 4.0  # multiplier on the predicted sigma error
    coeff_cap: float = 2.0  # points with larger predicted error are skipped
    min_gate_points: int = 3
    fit_tol: float = 0.25
    validation_abs: float = 0.03
    validation_sigma: float = 8.0
    weight_floor: float = 1e-6
    subsample_budget: float = 0.05
    seed: int = 0

    def grid_spec(self) -> GridSpec:
        # spacing * (points-1)/2 is the arc half-width; expressed through L
        # via the 2pi/L mode so the spec carries the full geometry.
        half = self.grid_spacing * (self.grid_points - 1) / 2.0
        L = max(1, math.floor(2.0 * math.pi / max(half, 1e-9)))
        return GridSpec(
            kind="arc",
            L=L,
            spacing=self.grid_spacing,
            max_points=self.grid_points,
            width_mode="2pi",
        )


@dataclass
class RecoveryResult:
    distribution: SparseDistribution
    diagnostics: dict = field(default_factory=dict)
    seed: int = 0
    config: dict = field(default_factory=dict)


def enumerate_candidates(params: ProblemParams, alpha_known: float | None, m1_max: int | None):
    """(l', m1, m2) tuples in deterministic order."""
    if alpha_known is not None:
        if not (0.0 < alpha_known <= 1.0):
            raise ParameterError("alpha_known must lie in (0,1]")
        m1_values = [max(1, math.ceil(math.log2(1.0 / alpha_known)))]
    else:
        m = m1_max if m1_max is not None else max(1, math.ceil(math.log2(1.0 / params.eps)))
        m1_values = list(range(1, m + 1))
    out = []
    for ell_prime in range(1, params.ell + 1):
        for m1 in m1_values:
            for m2 in range(1, ell_prime * m1 + 1):
                out.append(CandidateEnumeration(ell_prime, m1, m2))
    return out


def _gate_filter(estimates: MomentEstimates, enum: CandidateEnumeration, config: RecoveryConfig):
    """Run the conditioning gate at every usable point; returns
    {point index: (z, HankelSystem)} for the YES points."""
    th = PronyThresholds(enum.alpha, enum.beta, delta=config.delta, eta=config.eta)
    lp = enum.ell_prime
    kept = {}
    for gp in estimates.usable_points():
        b = [estimates.means[(gp.index, k)] for k in range(2 * lp)]
        sys = HankelSystem.from_power_sums(b)
        if gate_stage(sys, th) is None:
            kept[gp.index] = (gp.z, sys)
    return kept


def recover_support_candidates(
    estimates: MomentEstimates,
    params: ProblemParams,
    alpha_known: float | None = None,
    config: RecoveryConfig | None = None,
):
    """Run prony -> coefficient LP -> factoring for every enumerated
    (l', m1, m2); returns ([(enumeration, support strings)], [(enumeration,
    failure message)]).  When nothing succeeds the failures are raised in
    aggregate instead."""
    config = config or RecoveryConfig()
    failures = []
    results = []
    cache = {}
    for enum in enumerate_candidates(params, alpha_known, config.m1_max):
        kept = _gate_filter(estimates, enum, config)
        if len(kept) < config.min_gate_points:
            failures.append((enum, f"only {len(kept)} gate-YES points"))
            continue
        key = (enum.ell_prime, tuple(sorted(kept)))
        if key in cache:
            outcome = cache[key]
        else:
            outcome = _candidate_from_points(kept, enum.ell_prime, estimates, params, config)
            cache[key] = outcome
        if isinstance(outcome, str):
            failures.append((enum, outcome))
        else:
            results.append((enum, outcome))
    if not results:
        raise RecoveryFailedError(
            "no support candidate survived the pipeline",
            {"failures": [(asdict(e), msg) for e, msg in failures]},
        )
    return results, failures


def _candidate_from_points(kept, ell_prime, estimates, params, config):
    """Solve sigma at each gate-YES point, recover each sigma_k polynomial,
    and factor.  Returns the support tuple or a failure string.

    Each point enters the coefficient LP with its own tolerance: a floor
    plus a safety multiple of the point's predicted sigma error, so poorly
    conditioned points contribute weak-but-valid rows instead of either
    poisoning the program or being thrown away."""
    th = PronyThresholds(0.5, 0.5, delta=config.delta, eta=config.eta)
    sigma_by_k = {k: [] for k in range(1, ell_prime + 1)}
    for idx in sorted(kept):
        z, sys = kept[idx]
        est = solve_sigma(sys, th)
        cov = estimates.covariances[idx][: 2 * ell_prime - 1, : 2 * ell_prime - 1]
        stds = sigma_error_stds(sys, cov, estimates.counts[(idx, 1)])
        for k in range(1, ell_prime + 1):
            tol = max(config.coeff_tol, config.coeff_safety * stds[k - 1])
            if tol > config.coeff_cap:
                continue
            sigma_by_k[k].append((z, est.values[k - 1], tol))
    if any(len(pts) < config.min_gate_points for pts in sigma_by_k.values()):
        return "too few well-conditioned points for some sigma_k"
    polys = []
    for k in range(1, ell_prime + 1):
        try:
            polys.append(recover_polynomial(k, sigma_by_k[k], config.coeff_tol, params))
        except (NoFeasibleCoefficientError, AmbiguousCoefficientError) as exc:
            return f"coefficient recovery failed: {exc}"
    try:
        char = assemble_char_poly(polys)
        enc = integer_roots(char, params.n)
        strings = decode_support(enc, params.n)
    except CorruptInputError as exc:
        return f"factoring failed: {exc}"
    return strings


def fit_weights(support, estimates: MomentEstimates, tol: float):
    """Feasibility LP for mixture weights: a_i >= 0, sum a_i = 1, and every
    usable |Re/Im moment residual| <= tol.  Solved as min of the worst
    residual; returns weights when the optimum is within tol, else None."""
    support = list(support)
    ns = len(support)
    if len(set(support)) != ns:
        raise ParameterError("support strings must be distinct")
    rows, rhs = [], []
    for gp in estimates.usable_points():
        u = [eval_poly(x, gp.z) for x in support]
        for k in range(1, estimates.k_max + 1):
            target = estimates.means.get((gp.index, k))
            if target is None:
                continue
            coef = np.array([ui ** k for ui in u])
            for sgn in (1.0, -1.0):
                rows.append(np.append(sgn * coef.real, -1.0))
                rhs.append(sgn * target.real)
                rows.append(np.append(sgn * coef.imag, -1.0))
                rhs.append(sgn * target.imag)
    if not rows:
        return None
    A_ub = np.array(rows)
    b_ub = np.array(rhs)
    A_eq = np.append(np.ones(ns), 0.0).reshape(1, -1)
    c = np.zeros(ns + 1)
    c[-1] = 1.0
    bounds = [(0.0, 1.0)] * ns + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], bounds=bounds, method="highs")
    if not res.success or float(res.x[-1]) > tol:
        return None
    return [float(a) for a in res.x[:-1]]


def _build_distribution(support, weights, floor: float) -> SparseDistribution | None:
    pairs = [(x, a) for x, a in zip(support, weights) if a > floor]
    if not pairs:
        return None
    total = sum(a for _, a in pairs)
    return SparseDistribution(
        tuple(x for x, _ in pairs), tuple(a / total for _, a in pairs)
    )


def validate_candidate(
    d: SparseDistribution, estimates: MomentEstimates, config: RecoveryConfig
) -> float | None:
    """Largest normalized moment residual if the candidate reproduces every
    usable estimate within margin_abs + margin_sigma * stderr, else None."""
    worst = 0.0
    for gp in estimates.usable_points():
        for k in range(1, estimates.k_max + 1):
            mean = estimates.means.get((gp.index, k))
            if mean is None:
                continue
            margin = config.validation_abs + config.validation_sigma * estimates.stderrs.get(
                (gp.index, k), 0.0
            )
            resid = abs(power_sum(d, gp.z, k) - mean)
            if resid > margin:
                return None
            worst = max(worst, resid / margin)
    return worst


def recover(
    trace_source,
    params: ProblemParams,
    config: RecoveryConfig | None = None,
    alpha_known: float | None = None,
) -> RecoveryResult:
    """Full pipeline on an i.i.d. trace stream (batches of padded 0/1 rows)."""
    config = config or RecoveryConfig()
    if config.sample_count < 1:
        raise ParameterError("sample_count must be >= 1")
    grid = build_arc_grid(config.grid_spec())
    k_max = 2 * params.ell - 1
    estimates = accumulate_moments(trace_source, grid, k_max, params, config.sample_count)
    diagnostics = {
        "grid_points": len(grid),
        "dropped_points": dict(estimates.dropped),
        "candidates": [],
    }
    candidates, failures = recover_support_candidates(estimates, params, alpha_known, config)
    diagnostics["failures"] = [(asdict(e), msg) for e, msg in failures]
    seen = set()
    for enum, strings in candidates:
        key = tuple(strings)
        if key in seen:
            continue
        seen.add(key)
        record = {
            "enum": asdict(enum),
            "support": [str(x) for x in strings],
            "accepted": False,
        }
        diagnostics["candidates"].append(record)
        weights = fit_weights(strings, estimates, config.fit_tol)
        if weights is None:
            record["reason"] = "weight LP infeasible"
            continue
        d = _build_distribution(strings, weights, config.weight_floor)
        if d is None:
            record["reason"] = "all weights at floor"
            continue
        score = validate_candidate(d, estimates, config)
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
    raise RecoveryFailedError("all candidates failed weight fitting or validation", diagnostics)


def channel_trace_source(
    d: SparseDistribution, params: ProblemParams, config: RecoveryConfig
):
    """Batched sampler feeding recover(); applies the small-p subsampling
    reduction when p < (1/2) n^(-1/2) and returns the effective params."""
    rng = np.random.default_rng(config.seed)
    n = params.n
    small_p = params.p < 0.5 * n ** -0.5
    eff_params = params
    sub_cfg = None
    if small_p:
        t = choose_threshold(n, config.subsample_budget)
        sub_cfg = SubsampleConfig(n, t)
        eff_params = ProblemParams(n, params.ell, sub_cfg.target_p, params.eps)

    def source():
        cfg = ChannelConfig(params.p, config.seed)
        batch = 1 << 16
        while True:
            bits, counts = sample_trace_batch(d, cfg, batch, rng)
            if not small_p:
                yield bits
                continue
            keep = counts >= sub_cfg.t
            bits = bits[keep]
            counts = counts[keep]
            out = np.zeros_like(bits)
            for row in range(len(bits)):
                while True:
                    x_len = int(rng.binomial(n, sub_cfg.target_p))
                    if x_len <= sub_cfg.t:
                        break
                if x_len:
                    idx = np.sort(rng.choice(counts[row], size=x_len, replace=False))
                    out[row, :x_len] = bits[row, idx]
            yield out

    return source(), eff_params


def recover_from_channel(
    d: SparseDistribution,
    params: ProblemParams,
    config: RecoveryConfig | None = None,
    alpha_known: float | None = None,
) -> RecoveryResult:
    config = config or RecoveryConfig()
    source, eff_params = channel_trace_source(d, params, config)
    return recover(source, eff_params, config, alpha_known)


def exhaustive_distinguisher(
    estimates: MomentEstimates,
    params: ProblemParams,
    weight_grid: float | None = None,
    margin: float = 1e-7,
) -> SparseDistribution:
    """Reference brute-force learner for tiny instances (n <= 8, l <= 2):
    enumerate all supports of size <= l and find mixture weights matching
    every usable moment estimate within margin.

    For a fixed pair of strings the moments are linear in the weight a, so
    the admissible a form an interval per constraint; the intersection over
    all (z, k) replaces an explicit scan of the weight grid, and the
    returned weight is snapped to the grid pitch when the snapped value
    stays admissible."""
    if params.n > 8 or params.ell > 2:
        raise ParameterError("exhaustive search limited to n <= 8, ell <= 2")
    if margin < 0:
        raise ParameterError("margin must be nonnegative")
    pitch = weight_grid if weight_grid is not None else params.eps / (4.0 * params.ell)
    strings = [
        BitString(bits) for bits in itertools.product((0, 1), repeat=params.n)
    ]
    strings.sort()
    usable = [
        (gp, k, estimates.means[(gp.index, k)])
        for gp in estimates.usable_points()
        for k in range(1, estimates.k_max + 1)
        if (gp.index, k) in estimates.means
    ]
    if not usable:
        raise ParameterError("no usable moment estimates")
    U = {
        (si, gp.index): eval_poly(x, gp.z)
        for si, x in enumerate(strings)
        for gp in estimates.usable_points()
    }

    for si, x in enumerate(strings):
        if all(abs(U[(si, gp.index)] ** k - b) <= margin for gp, k, b in usable):
            return SparseDistribution((x,), (1.0,))

    if params.ell >= 2:
        for si, sj in itertools.combinations(range(len(strings)), 2):
            lo, hi = 0.0, 1.0
            ok = True
            for gp, k, b in usable:
                c = U[(si, gp.index)] ** k - U[(sj, gp.index)] ** k
                dd = U[(sj, gp.index)] ** k - b
                A = abs(c) ** 2
                if A < 1e-30:
                    if abs(dd) > margin:
                        ok = False
                        break
                    continue
                B = (c.conjugate() * dd).real
                # |c a + d|^2 <= margin^2 is A a^2 + 2 B a + C <= 0 with
                # C = |d|^2 - margin^2; the half-discriminant B^2 - A C
                # equals A margin^2 - Im(conj(c) d)^2, which avoids the
                # catastrophic cancellation of the direct form when margin
                # is tiny against the moment magnitudes.
                disc = A * margin ** 2 - (c.conjugate() * dd).imag ** 2
                if disc < 0:
                    ok = False
                    break
                root = math.sqrt(disc)
                lo = max(lo, (-B - root) / A)
                hi = min(hi, (-B + root) / A)
                if lo > hi:
                    ok = False
                    break
            if not ok:
                continue
            lo = max(lo, 1e-9)
            hi = min(hi, 1.0 - 1e-9)
            if lo > hi:
                continue
            a = round(((lo + hi) / 2.0) / pitch) * pitch if pitch > 0 else (lo + hi) / 2.0
            if not (lo <= a <= hi):
                a = (lo + hi) / 2.0
            return SparseDistribution((strings[si], strings[sj]), (a, 1.0 - a))

    raise MarginError("no enumerated distribution matches the estimates within margin")
