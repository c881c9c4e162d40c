import math

import numpy as np
import pytest
from scipy.stats import chi2

from delpop.channel import (
    BINOMIAL_REDUCTION_C,
    ChannelConfig,
    SubsampleConfig,
    Trace,
    read_trace_file,
    sample_trace_batch,
    subsample_trace,
    threshold_floor,
    write_trace_file,
)
from delpop.core import BitString, ParameterError, SparseDistribution
from delpop.estimator import TraceHistogram
from delpop.oracle import exact_mixture_trace_law, exact_subsample_law
from oracles import law_dict, random_distribution


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
    bits, counts = sample_trace_batch(d, cfg, 50, rng)
    assert np.all(bits == (1, 0, 1, 1))
    assert np.all(counts == 4)


def test_single_retention_probability():
    # x = 11, p = 0.5: two single-retention subsets, each probability 0.25
    d = SparseDistribution((BitString.from_string("11"),), (1.0,))
    rng = np.random.default_rng(1)
    trials = 40_000
    bits, counts = sample_trace_batch(d, ChannelConfig(0.5, 0), trials, rng)
    hits = int(np.sum(np.all(bits == (1, 0), axis=1) & (counts == 1)))
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


def _assert_chi_square_fits(law, observed, total):
    """Pearson's statistic of the row counts `observed` in `total` draws
    against the exact law, over the rows expected at least 10 times, is
    within its 0.999 quantile; no row outside the law was drawn."""
    assert set(observed) <= set(law)
    stat = 0.0
    dof = 0
    for key, prob in law.items():
        exp = prob * total
        if exp < 10:
            continue
        stat += (observed.get(key, 0) - exp) ** 2 / exp
        dof += 1
    assert stat <= chi2.ppf(0.999, dof - 1)


def test_batch_agrees_with_exact_law_chi_square():
    rng = np.random.default_rng(3)
    d = random_distribution(rng, 5, 2)
    p = 0.6
    law = law_dict(exact_mixture_trace_law(d, p))
    bits, _ = sample_trace_batch(d, ChannelConfig(p, 0), 1_000_000, rng)
    hist = TraceHistogram.from_batches([bits], d.n, len(bits))
    observed = {row: w * hist.count for row, w in law_dict(hist).items()}
    _assert_chi_square_fits(law, observed, hist.count)


def test_subsample_output_follows_exact_subsample_law():
    # t < n, so the length draw's rejection of X > t shapes the law
    x, p, t = BitString.from_string("110101"), 0.8, 5
    cfg = SubsampleConfig(x.n, t)
    rng = np.random.default_rng(5)
    raw, counts = sample_trace_batch(
        SparseDistribution((x,), (1.0,)), ChannelConfig(p, 0), 20_000, rng
    )
    observed = {}
    for bits, count in zip(raw.tolist(), counts.tolist()):
        out = subsample_trace(Trace(tuple(bits), count), cfg, rng)
        if out is not None:
            observed[out.bits] = observed.get(out.bits, 0) + 1
    law = law_dict(exact_subsample_law(x, p, t))
    _assert_chi_square_fits(law, observed, sum(observed.values()))


def test_sampling_is_reproducible():
    d = SparseDistribution(
        (BitString.from_string("1100"), BitString.from_string("0011")), (0.5, 0.5)
    )
    a, _ = sample_trace_batch(d, ChannelConfig(0.5, 7), 500, np.random.default_rng(7))
    b, _ = sample_trace_batch(d, ChannelConfig(0.5, 7), 500, np.random.default_rng(7))
    assert np.array_equal(a, b)


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
    # threshold_floor is the smallest threshold the config accepts
    assert threshold_floor(16) == 8
    SubsampleConfig(16, threshold_floor(16))
    with pytest.raises(ParameterError):
        SubsampleConfig(16, threshold_floor(16) - 1)


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
    rows = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]], dtype=np.int8)
    write_trace_file(path, [rows[:2], rows[2:]], 0.5, 9)  # two batches, one header
    assert path.read_text() == "#n=4 p=0.5 seed=9\n1010\n1100\n0000\n"
    header, traces = read_trace_file(path)
    assert header == {"n": "4", "p": "0.5", "seed": "9"}
    assert traces.dtype == np.int8
    assert np.array_equal(traces, rows)
