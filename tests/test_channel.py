import math

import numpy as np
import pytest
from scipy.stats import chi2

from delpop.channel import (
    BINOMIAL_REDUCTION_C,
    ChannelConfig,
    SubsampleConfig,
    Trace,
    binomial_tail,
    choose_threshold,
    read_trace_file,
    sample_trace,
    sample_trace_batch,
    subsample_trace,
    threshold_floor,
    write_trace_file,
)
from delpop.core import BitString, ParameterError, SparseDistribution
from delpop.oracle import exact_mixture_trace_law
from oracles import random_distribution


def test_trace_padding_invariant():
    Trace((1, 0, 1, 0, 0), 3)
    with pytest.raises(ParameterError):
        Trace((1, 0, 1, 0, 0), 2)  # nonzero bit in the padding
    with pytest.raises(ParameterError):
        Trace((1, 0), 3)


def test_sample_trace_no_deletions_limit():
    d = SparseDistribution((BitString.from_string("1011"),), (1.0,))
    rng = np.random.default_rng(0)
    cfg = ChannelConfig(1.0 - 1e-15, 0)
    for _ in range(50):
        t = sample_trace(d, cfg, rng)
        assert t.bits == (1, 0, 1, 1)
        assert t.retained_count == 4


def test_single_retention_probability():
    # x = 11, p = 0.5: two single-retention subsets, each probability 0.25
    d = SparseDistribution((BitString.from_string("11"),), (1.0,))
    rng = np.random.default_rng(1)
    hits = 0
    trials = 40_000
    for _ in range(trials):
        t = sample_trace(d, ChannelConfig(0.5, 0), rng)
        if t.bits == (1, 0) and t.retained_count == 1:
            hits += 1
    se = math.sqrt(0.5 * 0.5 / trials)
    assert abs(hits / trials - 0.5) <= 5 * se


def test_retained_count_mean():
    d = SparseDistribution((BitString.from_string("100110"),), (1.0,))
    rng = np.random.default_rng(2)
    p = 0.7
    _, counts = sample_trace_batch(d, ChannelConfig(p, 0), 100_000, rng)
    mean = counts.mean()
    sigma = math.sqrt(6 * p * (1 - p) / len(counts))
    assert abs(mean - 6 * p) <= 5 * sigma


def test_batch_agrees_with_exact_law_chi_square():
    rng = np.random.default_rng(3)
    d = random_distribution(rng, 5, 2)
    p = 0.6
    law = exact_mixture_trace_law(d, p).as_dict()
    bits, _ = sample_trace_batch(d, ChannelConfig(p, 0), 1_000_000, rng)
    observed = {}
    for row in map(tuple, bits):
        observed[row] = observed.get(row, 0) + 1
    n_samp = len(bits)
    stat = 0.0
    dof = 0
    for key, prob in law.items():
        exp = prob * n_samp
        if exp < 10:
            continue
        stat += (observed.get(key, 0) - exp) ** 2 / exp
        dof += 1
    assert stat <= chi2.ppf(0.999, dof - 1)


def test_sampling_is_reproducible():
    d = SparseDistribution(
        (BitString.from_string("1100"), BitString.from_string("0011")), (0.5, 0.5)
    )
    a, _ = sample_trace_batch(d, ChannelConfig(0.5, 7), 500, np.random.default_rng(7))
    b, _ = sample_trace_batch(d, ChannelConfig(0.5, 7), 500, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_binomial_tail_examples():
    assert binomial_tail(5, 0.3, 0) == 1.0
    assert binomial_tail(2, 0.5, 1) == pytest.approx(0.75)
    assert binomial_tail(2, 0.5, 2) == pytest.approx(0.25)
    with pytest.raises(ParameterError):
        binomial_tail(2, 1.5, 1)


def test_binomial_tail_matches_direct_sum():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        p = float(rng.uniform(0.05, 0.95))
        t = int(rng.integers(0, n + 1))
        direct = sum(
            math.comb(n, j) * p ** j * (1 - p) ** (n - j) for j in range(t, n + 1)
        )
        assert binomial_tail(n, p, t) == pytest.approx(direct, rel=1e-12)


def test_choose_threshold_derived_example():
    # n = 16: tail at t = 16 is 4^-16 ~ 2.3e-10 < 1e-9, so t = 15
    assert choose_threshold(16, 1e-9) == 15


def test_choose_threshold_clamps_to_floor():
    # budget 1.0 is met by no t, so the floor ceil(2 sqrt n) is returned
    assert choose_threshold(16, 1.0) == threshold_floor(16) == 8


def test_choose_threshold_monotone_in_budget():
    budgets = [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.9]
    ts = [choose_threshold(25, b) for b in budgets]
    assert ts == sorted(ts, reverse=True)


def test_subsample_discards_short_traces():
    cfg = SubsampleConfig(9, 6)
    rng = np.random.default_rng(5)
    raw = Trace((1, 1, 0, 1, 0, 0, 0, 0, 0), 5)  # length 5 < t = 6
    assert subsample_trace(raw, cfg, rng) is None


def test_subsample_config_validation():
    with pytest.raises(ParameterError):
        SubsampleConfig(9, 10)  # t > n
    with pytest.raises(ParameterError):
        SubsampleConfig(9, 5)  # t < 2 sqrt(n)
    assert SubsampleConfig(9, 6).target_p == pytest.approx(1 / 3)


def test_subsample_keeps_subsequence_of_retained_prefix():
    cfg = SubsampleConfig(4, 4)
    rng = np.random.default_rng(6)
    raw = Trace((1, 0, 1, 1), 4)
    for _ in range(200):
        out = subsample_trace(raw, cfg, rng)
        assert out is not None
        kept = out.bits[: out.retained_count]
        # kept must be a subsequence of the retained prefix
        it = iter(raw.bits[: raw.retained_count])
        assert all(any(b == c for c in it) for b in kept)


def test_binomial_pmf_reduction_inequality():
    # P(Bin(n,p) = t) >= P(Bin(n, n^-1/2) = t) ** (C ln(1/p)) with C = 3
    def logpmf(n, p, t):
        return (
            math.lgamma(n + 1)
            - math.lgamma(t + 1)
            - math.lgamma(n - t + 1)
            + t * math.log(p)
            + (n - t) * math.log1p(-p)
        )

    for n in (16, 25, 36, 64, 100, 256):
        target = n ** -0.5
        for t in range(threshold_floor(n), n + 1):
            b = logpmf(n, target, t)
            for p in (target / 2, target / 10, target / 100, 1e-6):
                if not (0 < p < target):
                    continue
                a = logpmf(n, p, t)
                assert a >= BINOMIAL_REDUCTION_C * math.log(1.0 / p) * b


def test_trace_file_roundtrip(tmp_path):
    path = tmp_path / "traces.txt"
    rows = ["1010", "1100", "0000"]
    write_trace_file(path, rows, 4, 0.5, 9)
    header, traces = read_trace_file(path)
    assert header == {"n": "4", "p": "0.5", "seed": "9"}
    assert traces.dtype == np.int8
    assert ["".join(map(str, t)) for t in traces] == rows
