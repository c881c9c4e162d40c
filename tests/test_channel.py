import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chi2

from delpop.channel import (
    ChannelConfig,
    read_trace_file,
    sample_trace_batch,
    write_trace_file,
)
from delpop.core import BitString, ParameterError, SparseDistribution
from delpop.estimator import TraceHistogram
from delpop.oracle import exact_mixture_trace_law
from oracles import law_dict, random_distribution


def test_channel_config_holds_only_p():
    names = [f.name for f in dataclasses.fields(ChannelConfig)]
    assert names == ["p"]
    with pytest.raises(ParameterError):
        ChannelConfig(1.0)


def test_sample_trace_no_deletions_limit():
    d = SparseDistribution((BitString.from_string("1011"),), (1.0,))
    rng = np.random.default_rng(0)
    cfg = ChannelConfig(1.0 - 1e-15)
    bits = sample_trace_batch(d, cfg, 50, rng)
    assert np.all(bits == (1, 0, 1, 1))


def test_single_retention_probability():
    # x = 11, p = 0.5: two single-retention subsets, each probability 0.25
    d = SparseDistribution((BitString.from_string("11"),), (1.0,))
    rng = np.random.default_rng(1)
    trials = 40_000
    bits = sample_trace_batch(d, ChannelConfig(0.5), trials, rng)
    hits = int(np.sum(np.all(bits == (1, 0), axis=1)))
    se = math.sqrt(0.5 * 0.5 / trials)
    assert abs(hits / trials - 0.5) <= 5 * se


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
    bits = sample_trace_batch(d, ChannelConfig(p), 1_000_000, rng)
    hist = TraceHistogram.from_batches([bits], d.n, len(bits))
    observed = {row: w * hist.count for row, w in law_dict(hist).items()}
    _assert_chi_square_fits(law, observed, hist.count)


def test_sampling_is_reproducible():
    d = SparseDistribution(
        (BitString.from_string("1100"), BitString.from_string("0011")), (0.5, 0.5)
    )
    a = sample_trace_batch(d, ChannelConfig(0.5), 500, np.random.default_rng(7))
    b = sample_trace_batch(d, ChannelConfig(0.5), 500, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert a.dtype == np.int8 and a.flags.c_contiguous


def test_trace_file_roundtrip(tmp_path):
    path = tmp_path / "traces.txt"
    rows = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 0]], dtype=np.int8)
    write_trace_file(path, [rows[:2], rows[2:]], 0.5, 9)  # two batches, one header
    assert path.read_text() == "#n=4 p=0.5 seed=9\n1010\n1100\n0000\n"
    header, traces = read_trace_file(path)
    assert header == {"n": "4", "p": "0.5", "seed": "9"}
    assert traces.dtype == np.int8 and traces.flags.c_contiguous
    assert np.array_equal(traces, rows)
