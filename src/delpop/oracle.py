"""Brute-force ground truth: exact channel laws by enumerating all 2^n
retention subsets, the exact estimator expectations E[g_1..g_m] at a set
of points that `oracle-check` sweeps (`exact_g_expectation`), and the
exact power sums that `distinguish` reads (`exact_moments`, from
`core.moment_powers`).  Cost guards keep everything under a second.
An exact law is a TraceHistogram without a trace count: its distinct
padded rows in ascending order, each weighted by the compensated sum
(math.fsum) of its probability terms.  Estimator expectations are that
histogram's `estimates(covariance=False)` on the conjugate-symmetric grid
of the points and their conjugates, the path sampled means take, and
their rounding stays far below test tolerances.

The paper's small-p reduction lemma lives here too.  Discarding traces
shorter than a threshold t >= `threshold_floor(n)` and keeping a random
subsequence whose length is Bin(n, n^(-1/2)) conditioned on being at most
t turns retention p into n^(-1/2) conditioned on length <= t
(`exact_subsample_law` against `exact_trace_law(max_len=t)`), at the cost
that `BINOMIAL_REDUCTION_C` bounds.  No sampler ships: g_k is unbiased
only for the unconditioned channel, so recovery runs the estimator at the
true p.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import BitString, ParameterError, SparseDistribution, moment_powers
from .estimator import MomentEstimates, TraceHistogram


def _law(buckets: dict, norm: float = 1.0) -> TraceHistogram:
    """The law whose row r has weight fsum(buckets[r]) / norm, with the
    rows sorted ascending."""
    if not buckets:
        raise ParameterError("no retention subset meets the length bound")
    rows = sorted(buckets)
    weights = np.array([math.fsum(buckets[row]) / norm for row in rows])
    return TraceHistogram(np.array(rows, dtype=np.int8), weights)


def exact_trace_law(x: BitString, p: float, max_len: int | None = None) -> TraceHistogram:
    """Sum p^|S| (1-p)^(n-|S|) over all retention subsets S, grouped by the
    padded output string.  With max_len, only subsets with |S| <= max_len
    count and the sum is renormalized: the law conditioned on trace length
    <= max_len.  The length of a padded trace is ambiguous from its bits
    alone, so the subsets are filtered, not the rows."""
    n = x.n
    if n > 16:
        raise ParameterError("exact_trace_law limited to n <= 16")
    if not (0.0 < p < 1.0):
        raise ParameterError("p must lie in (0,1)")
    buckets, norm_terms = {}, []
    for keep_mask in itertools.product((False, True), repeat=n):
        kept = tuple(itertools.compress(x.bits, keep_mask))
        r = len(kept)
        if max_len is not None and r > max_len:
            continue
        prob = p ** r * (1.0 - p) ** (n - r)
        norm_terms.append(prob)
        buckets.setdefault(kept + (0,) * (n - r), []).append(prob)
    return _law(buckets, 1.0 if max_len is None else math.fsum(norm_terms))


def exact_mixture_trace_law(d: SparseDistribution, p: float) -> TraceHistogram:
    buckets = {}
    for x, a in zip(d.support, d.weights):
        law = exact_trace_law(x, p)
        for row, prob in zip(map(tuple, law.rows.tolist()), law.weights.tolist()):
            buckets.setdefault(row, []).append(a * prob)
    return _law(buckets)


def exact_g_expectation(x: BitString, zs, m: int, p: float) -> np.ndarray:
    """E over the channel of g_1..g_m(trace, z) at every z of zs, as a
    (len(zs), m) array from x's exact trace law: the unbiasedness oracle.
    It should equal P(z; x)^1..P(z; x)^m, `moment_powers([x], zs, m)[..., 0]`."""
    if x.n > 12:
        raise ParameterError("exact_g_expectation limited to n <= 12")
    zs = np.asarray(zs, dtype=complex)
    grid = np.concatenate([zs, zs[::-1].conj()])  # estimates sweeps its first half: zs
    return exact_trace_law(x, p).estimates(grid, m, p, covariance=False).means[: len(zs), 1:]


def exact_moments(d: SparseDistribution, grid, k_max: int) -> MomentEstimates:
    """Oracle-exact MomentEstimates: the power sums b_0..b_{k_max} of d at
    every grid point, with count 1 and zero covariances."""
    if k_max < 1:
        raise ParameterError("k_max must be >= 1")
    grid = np.asarray(grid, dtype=complex)
    means = np.ones((len(grid), k_max + 1), dtype=complex)
    means[:, 1:] = moment_powers(d.support, grid, k_max) @ np.asarray(d.weights)
    return MomentEstimates(grid, means, np.zeros((len(grid), k_max, k_max), complex), 1)


# For any 2*sqrt(n) <= t <= n and 0 < p < n^(-1/2), the point masses obey
#     P(Bin(n, p) = t) >= P(Bin(n, n^(-1/2)) = t) ** (C * ln(1/p)),
# which bounds how much harder it is to see a length-t trace at retention p
# than at the reduction target n^(-1/2).  C = 3 dominates the exact ratio
# (max ~2.71, approached as p -> 0 at large n with t near the 2*sqrt(n)
# floor); verified numerically over a wide (n, t, p) table in the tests.
BINOMIAL_REDUCTION_C = 3.0


def threshold_floor(n: int) -> int:
    """The smallest threshold t the reduction allows: ceil(2 sqrt(n))."""
    return math.ceil(2.0 * math.sqrt(n))


def exact_subsample_law(x: BitString, p: float, t: int) -> TraceHistogram:
    """Exact output law of the reduction applied to x's traces at
    retention p with threshold t: enumerate retention subsets with
    |S| >= t, the conditioned Bin(n, n^(-1/2)) length draw, and every
    subsequence choice."""
    n = x.n
    if n > 8:
        raise ParameterError("exact_subsample_law limited to n <= 8")
    pp = n ** -0.5
    # conditioned length law: Bin(n, pp) restricted to <= t
    len_terms = [math.comb(n, j) * pp ** j * (1 - pp) ** (n - j) for j in range(t + 1)]
    len_norm = math.fsum(len_terms)
    len_law = [v / len_norm for v in len_terms]
    # acceptance: P(|S| >= t)
    accept_terms = []
    buckets = {}
    for keep_mask in itertools.product((False, True), repeat=n):
        kept = tuple(itertools.compress(x.bits, keep_mask))
        r = len(kept)
        if r < t:
            continue
        prob = p ** r * (1.0 - p) ** (n - r)
        accept_terms.append(prob)
        for x_len in range(t + 1):
            subs = list(itertools.combinations(kept, x_len))
            for sub in subs:
                out = sub + (0,) * (n - x_len)
                buckets.setdefault(out, []).append(prob * len_law[x_len] / len(subs))
    return _law(buckets, math.fsum(accept_terms))
