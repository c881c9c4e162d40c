import cmath
import itertools
import math

import numpy as np
import pytest

from delpop.core import BitString, ParameterError, SparseDistribution, eval_poly, power_sum
from delpop.oracle import (
    BINOMIAL_REDUCTION_C,
    exact_g_expectation,
    exact_mixture_trace_law,
    exact_moments,
    exact_subsample_law,
    exact_trace_law,
    threshold_floor,
)
from delpop.zgrid import unit_roots
from oracles import exact_sigma, law_dict, law_tv, random_bitstring, random_distribution


def test_trace_law_single_bit():
    law = law_dict(exact_trace_law(BitString.from_string("1"), 0.5))
    assert law == {(1,): 0.5, (0,): 0.5}


def test_trace_law_two_ones():
    law = law_dict(exact_trace_law(BitString.from_string("11"), 0.5))
    assert law[(1, 1)] == pytest.approx(0.25)
    assert law[(1, 0)] == pytest.approx(0.5)
    assert law[(0, 0)] == pytest.approx(0.25)


def test_trace_law_normalization():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        x = random_bitstring(rng, n)
        p = float(rng.uniform(0.1, 0.9))
        assert exact_trace_law(x, p).weights.sum() == pytest.approx(1.0, abs=1e-14)
        law = exact_trace_law(x, p, max_len=int(rng.integers(0, n + 1)))
        assert law.weights.sum() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ParameterError):
        exact_trace_law(BitString((0,) * 17), 0.5)
    with pytest.raises(ParameterError):
        exact_trace_law(BitString((0,) * 17), 0.5, max_len=3)
    # a length bound no retention subset meets leaves no law
    with pytest.raises(ParameterError):
        exact_trace_law(BitString.from_string("101"), 0.5, max_len=-1)
    with pytest.raises(ParameterError):
        exact_subsample_law(BitString.from_string("101"), 0.5, 4)


def test_mixture_law_is_weighted_combination():
    d = SparseDistribution(
        (BitString.from_string("10"), BitString.from_string("11")), (0.3, 0.7)
    )
    law = law_dict(exact_mixture_trace_law(d, 0.6))
    l0 = law_dict(exact_trace_law(d.support[0], 0.6))
    l1 = law_dict(exact_trace_law(d.support[1], 0.6))
    for key in set(l0) | set(l1):
        want = 0.3 * l0.get(key, 0.0) + 0.7 * l1.get(key, 0.0)
        assert law[key] == pytest.approx(want)


def test_g_expectation_is_the_unbiasedness_oracle():
    rng = np.random.default_rng(5)
    for _ in range(8):
        x = random_bitstring(rng, 5)
        z = cmath.exp(1j * rng.uniform(-0.8, 0.8))
        for m in (1, 2, 3):
            got = exact_g_expectation(x, z, m, 0.6)
            assert abs(got - eval_poly(x, z) ** m) <= 1e-9


def test_g_expectation_all_zero_string():
    x = BitString.from_string("0000")
    for m in (1, 2, 3):
        assert abs(exact_g_expectation(x, 1.0, m, 0.5)) <= 1e-12


def test_exact_sigma_examples():
    one = SparseDistribution((BitString.from_string("101"),), (1.0,))
    z = 0.7 + 0.2j
    assert exact_sigma(one, z) == (pytest.approx(eval_poly(one.support[0], z)),)
    cross = SparseDistribution(
        (BitString.from_string("10"), BitString.from_string("01")), (0.5, 0.5)
    )
    assert exact_sigma(cross, 2.0) == (pytest.approx(6.0), pytest.approx(8.0))


def test_exact_sigma_newton_identity_crosscheck():
    # p_k - sigma_1 p_{k-1} + ... + (-1)^(k-1) sigma_{k-1} p_1 = (-1)^(k-1) k sigma_k
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = random_distribution(rng, 5, 3)
        z = cmath.exp(1j * rng.uniform(-1.0, 1.0))
        u = [eval_poly(x, z) for x in d.support]
        sig = exact_sigma(d, z)
        pk = [sum(ui ** k for ui in u) for k in range(0, 4)]
        assert pk[1] == pytest.approx(sig[0])
        assert pk[2] - sig[0] * pk[1] == pytest.approx(-2 * sig[1])
        assert pk[3] - sig[0] * pk[2] + sig[1] * pk[1] == pytest.approx(3 * sig[2])


def test_exact_moments_are_power_sums():
    rng = np.random.default_rng(9)
    d = random_distribution(rng, 4, 2)
    grid = unit_roots(5)
    est = exact_moments(d, grid, 3)
    for i, z in enumerate(grid.tolist()):
        for k in range(4):
            assert est.means[i, k] == pytest.approx(power_sum(d, z, k))


def test_subsample_law_matches_conditioned_channel():
    # the subsampled output law equals the n^(-1/2) channel conditioned on
    # length <= t, exactly (enumerated)
    assert threshold_floor(16) == 8
    cases = [((1, 0, 1, 1), 0.3, 4), ((1, 1, 0, 1, 0, 1), 0.2, 5), ((0, 1, 1, 0, 1), 0.25, 5)]
    for bits, p, t in cases:
        x = BitString(bits)
        assert threshold_floor(x.n) <= t <= x.n  # the lemma's range of thresholds
        sub = exact_subsample_law(x, p, t)
        target = exact_trace_law(x, x.n ** -0.5, max_len=t)
        assert law_tv(sub, target) <= 1e-12
        assert sub.weights.sum() == pytest.approx(1.0, abs=1e-12)


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


def test_law_tv_basic():
    a = exact_trace_law(BitString.from_string("1"), 0.5)
    b = exact_trace_law(BitString.from_string("0"), 0.5)
    assert law_tv(a, a) == 0.0
    assert law_tv(a, b) == pytest.approx(0.5)  # they share the all-zero trace
