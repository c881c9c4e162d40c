"""Brute-force ground truth for tests: exact channel laws by enumerating
all 2^n retention subsets, exact estimator expectations, and exact
elementary symmetric values.  Cost guards keep everything under a second.
Law probabilities are compensated sums (math.fsum); estimator expectations
are the weighted mean of a law's TraceHistogram, the path sampled moments
take, and stay far below test tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BitString,
    ParameterError,
    ProblemParams,
    SparseDistribution,
    eval_poly,
)
from .estimator import MomentEstimates, TraceHistogram, moments_from_values


@dataclass(frozen=True)
class ExactTraceLaw:
    """Map from padded trace bits to exact probability."""

    probs: tuple  # tuple of (bits tuple, probability), sorted by bits

    def as_dict(self) -> dict:
        return dict(self.probs)

    def total(self) -> float:
        return math.fsum(p for _, p in self.probs)

    def histogram(self) -> TraceHistogram:
        """The law as a trace histogram, with the probabilities as weights."""
        rows = np.array([bits for bits, _ in self.probs], dtype=np.int8)
        return TraceHistogram(rows, np.array([prob for _, prob in self.probs]))


def _pack(bits, keep_mask, n):
    kept = tuple(b for b, k in zip(bits, keep_mask) if k)
    return kept + (0,) * (n - len(kept)), len(kept)


def exact_trace_law(x: BitString, p: float) -> ExactTraceLaw:
    """Sum p^|S| (1-p)^(n-|S|) over all retention subsets S, grouped by the
    padded output string."""
    n = x.n
    if n > 16:
        raise ParameterError("exact_trace_law limited to n <= 16")
    if not (0.0 < p < 1.0):
        raise ParameterError("p must lie in (0,1)")
    buckets = {}
    for keep_mask in itertools.product((False, True), repeat=n):
        out, r = _pack(x.bits, keep_mask, n)
        prob = p ** r * (1.0 - p) ** (n - r)
        buckets.setdefault(out, []).append(prob)
    probs = tuple((bits, math.fsum(terms)) for bits, terms in sorted(buckets.items()))
    return ExactTraceLaw(probs)


def exact_mixture_trace_law(d: SparseDistribution, p: float) -> ExactTraceLaw:
    buckets = {}
    for x, a in zip(d.support, d.weights):
        for bits, prob in exact_trace_law(x, p).probs:
            buckets.setdefault(bits, []).append(a * prob)
    probs = tuple((bits, math.fsum(terms)) for bits, terms in sorted(buckets.items()))
    return ExactTraceLaw(probs)


def exact_g_expectation(x: BitString, z: complex, m: int, p: float) -> complex:
    """E over the channel of g_m(trace, z): the unbiasedness oracle.  Should
    equal eval_poly(x, z)^m."""
    n = x.n
    if n > 12:
        raise ParameterError("exact_g_expectation limited to n <= 12")
    hist = exact_trace_law(x, p).histogram()
    means, _ = hist.g_moments(z, m, ProblemParams(n=n, ell=1, p=p))
    return complex(means[m - 1])


def exact_sigma(d: SparseDistribution, z: complex):
    """Elementary symmetric values of the P(z; x^(i)) by direct expansion
    over all size-k subsets of the support."""
    u = [eval_poly(x, z) for x in d.support]
    out = []
    for k in range(1, len(u) + 1):
        out.append(sum(math.prod(c) for c in itertools.combinations(u, k)))
    return tuple(out)


def exact_moments(d: SparseDistribution, grid, k_max: int) -> MomentEstimates:
    """Oracle-exact MomentEstimates (power sums, no sampling noise)."""
    from .core import power_sum

    return moments_from_values(grid, k_max, lambda z, k: power_sum(d, z, k))


def exact_subsample_law(x: BitString, p: float, t: int) -> ExactTraceLaw:
    """Exact output law of the small-p subsampling of x's traces:
    enumerate retention subsets with |S| >= t, the conditioned
    Bin(n, n^(-1/2)) length draw, and every subsequence choice."""
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
        kept, r = _pack(x.bits, keep_mask, n)
        prob = p ** r * (1.0 - p) ** (n - r)
        if r < t:
            continue
        accept_terms.append(prob)
        retained = kept[:r]
        for x_len in range(t + 1):
            pl = len_law[x_len]
            subs = list(itertools.combinations(range(r), x_len))
            for idx in subs:
                out = tuple(retained[i] for i in idx) + (0,) * (n - x_len)
                buckets.setdefault(out, []).append(prob * pl / len(subs))
    norm = math.fsum(accept_terms)
    probs = tuple(
        (bits, math.fsum(terms) / norm) for bits, terms in sorted(buckets.items())
    )
    return ExactTraceLaw(probs)


def exact_conditioned_trace_law(x: BitString, p: float, t: int) -> ExactTraceLaw:
    """Trace law at retention p conditioned on length <= t.  The length of a
    padded trace is ambiguous from its bits alone, so this enumerates the
    retention subsets directly rather than filtering exact_trace_law."""
    n = x.n
    buckets = {}
    norm_terms = []
    for keep_mask in itertools.product((False, True), repeat=n):
        out, r = _pack(x.bits, keep_mask, n)
        if r > t:
            continue
        prob = p ** r * (1.0 - p) ** (n - r)
        norm_terms.append(prob)
        buckets.setdefault(out, []).append(prob)
    norm = math.fsum(norm_terms)
    probs = tuple(
        (bits, math.fsum(terms) / norm) for bits, terms in sorted(buckets.items())
    )
    return ExactTraceLaw(probs)


def law_tv(a: ExactTraceLaw, b: ExactTraceLaw) -> float:
    da, db = a.as_dict(), b.as_dict()
    keys = set(da) | set(db)
    return 0.5 * math.fsum(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys)
