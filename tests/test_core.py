import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delpop.core import (
    BitString,
    ParameterError,
    ProblemParams,
    SparseDistribution,
    eval_poly,
    load_distribution,
    power_sum,
    save_distribution,
    tv_distance,
)


def test_problem_params_validation():
    p = ProblemParams(8, 2, 0.9, 0.1)
    assert p.q == 1.0 - 0.9
    with pytest.raises(ParameterError):
        ProblemParams(0, 2, 0.9)
    with pytest.raises(ParameterError):
        ProblemParams(8, 2, 1.0)
    with pytest.raises(ParameterError):
        ProblemParams(8, 2, 0.9, eps=0.0)


def test_bitstring_roundtrip_and_validation():
    x = BitString.from_string("0110")
    assert str(x) == "0110"
    assert x.n == 4
    with pytest.raises(ParameterError):
        BitString((0, 2))
    with pytest.raises(ParameterError):
        BitString.from_string("01a")


def test_eval_poly_all_zero():
    x = BitString.from_string("000")
    for z in (1.0, 2.0, 0.3 + 0.4j):
        assert eval_poly(x, z) == 0


def test_eval_poly_counts_ones_at_one():
    assert eval_poly(BitString.from_string("101"), 1.0) == pytest.approx(2.0)


def test_eval_poly_direct_sum():
    # x = 11 at z = 2: 2^1 + 2^2
    assert eval_poly(BitString.from_string("11"), 2.0) == pytest.approx(6.0)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=24), st.floats(-1.0, 1.0))
def test_eval_poly_matches_direct_sum(bits, theta):
    x = BitString(tuple(bits))
    z = complex(math.cos(theta), math.sin(theta))
    direct = sum(b * z ** i for i, b in enumerate(bits, start=1))
    assert abs(eval_poly(x, z) - direct) <= 1e-12 * max(1.0, abs(direct))
    assert abs(eval_poly(x, z)) <= x.n + 1e-9


def test_distribution_canonicalization_and_refused_renormalization():
    a, b = BitString.from_string("10"), BitString.from_string("01")
    d = SparseDistribution((a, b), (0.7, 0.3))
    assert d.support == (b, a)  # sorted lexicographically
    assert d.weights == (0.3, 0.7)
    with pytest.raises(ParameterError):
        SparseDistribution((a, b), (0.7, 0.4))
    with pytest.raises(ParameterError):
        SparseDistribution((a, a), (0.5, 0.5))
    with pytest.raises(ParameterError):
        SparseDistribution((a, b), (1.1, -0.1))


def test_tv_distance_examples():
    one = SparseDistribution((BitString.from_string("1"),), (1.0,))
    zero = SparseDistribution((BitString.from_string("0"),), (1.0,))
    half = SparseDistribution(
        (BitString.from_string("1"), BitString.from_string("0")), (0.5, 0.5)
    )
    assert tv_distance(one, one) == 0.0
    assert tv_distance(one, zero) == pytest.approx(1.0)
    assert tv_distance(half, one) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        tv_distance(one, SparseDistribution((BitString.from_string("10"),), (1.0,)))


def test_tv_distance_is_a_metric():
    rng = np.random.default_rng(3)
    from oracles import random_distribution

    for _ in range(25):
        d0 = random_distribution(rng, 4, int(rng.integers(1, 4)))
        d1 = random_distribution(rng, 4, int(rng.integers(1, 4)))
        d2 = random_distribution(rng, 4, int(rng.integers(1, 4)))
        t01, t10 = tv_distance(d0, d1), tv_distance(d1, d0)
        assert t01 == pytest.approx(t10)
        assert 0.0 <= t01 <= 1.0
        assert t01 <= tv_distance(d0, d2) + tv_distance(d2, d1) + 1e-12
        assert (t01 < 1e-15) == (d0 == d1)


def test_power_sum_examples():
    one = SparseDistribution((BitString.from_string("1"),), (1.0,))
    assert power_sum(one, 0.3 + 0.1j, 0) == pytest.approx(1.0)
    assert power_sum(one, 1.0, 3) == pytest.approx(1.0)
    # weights (0.5, 0.5) with P-values 1 and 2 at z = 1
    d = SparseDistribution(
        (BitString.from_string("10"), BitString.from_string("11")), (0.5, 0.5)
    )
    assert power_sum(d, 1.0, 3) == pytest.approx(4.5)


def test_power_sum_matches_monte_carlo():
    rng = np.random.default_rng(11)
    d = SparseDistribution(
        (BitString.from_string("1010"), BitString.from_string("0111")), (0.3, 0.7)
    )
    z = complex(math.cos(0.2), math.sin(0.2))
    draws = rng.choice(len(d.support), p=d.weights, size=200_000)
    vals = np.array([eval_poly(x, z) ** 2 for x in d.support])[draws]
    mc = vals.mean()
    se = vals.std() / math.sqrt(len(vals))
    assert abs(mc - power_sum(d, z, 2)) <= 5 * se + 1e-12


def test_distribution_json_roundtrip(tmp_path):
    d = SparseDistribution(
        (BitString.from_string("101"), BitString.from_string("010")), (0.25, 0.75)
    )
    path = tmp_path / "dist.json"
    save_distribution(d, path)
    assert load_distribution(path) == d
    obj = json.loads(path.read_text())
    assert set(obj) == {"n", "support", "weights"}
    with pytest.raises(ParameterError):
        SparseDistribution.from_json_dict({"n": 2, "support": ["101"], "weights": [1.0]})


@pytest.mark.parametrize("n", [2.7, True, "3", float("nan"), float("inf")])
def test_distribution_json_rejects_n_that_is_not_an_integer(n):
    with pytest.raises(ParameterError):
        SparseDistribution.from_json_dict({"n": n, "support": ["101"], "weights": [1.0]})


def test_distribution_json_accepts_integral_float_n():
    d = SparseDistribution.from_json_dict({"n": 3.0, "support": ["101"], "weights": [1.0]})
    assert d.n == 3
