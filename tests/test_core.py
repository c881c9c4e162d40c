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
    load_distribution,
    moment_powers,
    save_distribution,
    tv_distance,
)
from delpop.zgrid import recovery_grid
from oracles import eval_poly, power_sum, random_bitstring


def test_problem_params_validation():
    p = ProblemParams(8, 2, 0.9, 0.1)
    assert (p.n, p.ell, p.p, p.eps) == (8, 2, 0.9, 0.1)
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
    zs = [1.0, 2.0, 0.3 + 0.4j]
    assert not np.any(moment_powers([x], zs, 3))
    for z in zs:
        assert eval_poly(x, z) == 0


def test_eval_poly_counts_ones_at_one():
    assert moment_powers([BitString.from_string("101")], [1.0], 1)[0, 0, 0] == pytest.approx(2.0)


def test_eval_poly_direct_sum():
    # x = 11 at z = 2: 2^1 + 2^2, and its square
    powers = moment_powers([BitString.from_string("11")], [2.0], 2)
    assert powers[0, :, 0] == pytest.approx([6.0, 36.0])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=24), st.floats(-1.0, 1.0))
def test_eval_poly_matches_direct_sum(bits, theta):
    x = BitString(tuple(bits))
    z = complex(math.cos(theta), math.sin(theta))
    direct = sum(b * z ** i for i, b in enumerate(bits, start=1))
    for value in (eval_poly(x, z), moment_powers([x], [z], 1)[0, 0, 0]):
        assert abs(value - direct) <= 1e-12 * max(1.0, abs(direct))
        assert abs(value) <= x.n + 1e-9


def test_moment_powers_matches_horner_reference():
    # (points, k_max, strings) against the scalar Horner reference, on the
    # recovery grid and off the unit circle, long strings included
    rng = np.random.default_rng(33)
    for n in (1, 8, 48, 64):
        strings = [random_bitstring(rng, n) for _ in range(5)] + [BitString((0,) * n)]
        theta = rng.uniform(-np.pi, np.pi, 4)
        grid = np.concatenate(
            [recovery_grid(n, 2), 0.9 * np.exp(1j * theta), 1.1 * np.exp(1j * theta)]
        )
        powers = moment_powers(strings, grid, 5)
        assert powers.shape == (len(grid), 5, len(strings))
        want = np.array(
            [[[eval_poly(x, z) ** k for x in strings] for k in range(1, 6)] for z in grid.tolist()]
        )
        np.testing.assert_allclose(powers, want, rtol=1e-12)


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
    assert moment_powers(one.support, [1.0], 3)[0, 2] @ one.weights == pytest.approx(1.0)
    # weights (0.5, 0.5) with P-values 1 and 2 at z = 1
    d = SparseDistribution(
        (BitString.from_string("10"), BitString.from_string("11")), (0.5, 0.5)
    )
    assert moment_powers(d.support, [1.0], 3)[0] @ d.weights == pytest.approx([1.5, 2.5, 4.5])
    assert power_sum(d, 1.0, 3) == pytest.approx(4.5)


def test_power_sum_matches_monte_carlo():
    rng = np.random.default_rng(11)
    d = SparseDistribution(
        (BitString.from_string("1010"), BitString.from_string("0111")), (0.3, 0.7)
    )
    z = complex(math.cos(0.2), math.sin(0.2))
    squares = moment_powers(d.support, [z], 2)[0, 1]
    draws = rng.choice(len(d.support), p=d.weights, size=200_000)
    vals = squares[draws]
    mc = vals.mean()
    se = vals.std() / math.sqrt(len(vals))
    assert abs(mc - squares @ d.weights) <= 5 * se + 1e-12


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


@pytest.mark.parametrize(
    "key, value",
    [("weights", "1"), ("support", {"0101": 1}), ("support", "0101"), ("weights", "55")],
)
def test_distribution_json_rejects_support_or_weights_that_is_not_an_array(key, value):
    obj = {"n": 4, "support": ["0101"], "weights": [1.0], key: value}
    with pytest.raises(ParameterError, match=f"malformed distribution object: {key} must be an array"):
        SparseDistribution.from_json_dict(obj)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("weights", ["1"], "weights must be numbers"),  # float() would read 1.0
        ("weights", [True], "weights must be numbers"),  # float() would read 1.0
        ("weights", [" 1 "], "weights must be numbers"),  # float() strips the blanks
        ("support", [["0", "1", "0", "1"]], "support entries must be strings"),  # a list of bits
    ],
    ids=["string-weight", "bool-weight", "padded-string-weight", "list-support-entry"],
)
def test_distribution_json_rejects_entries_of_the_wrong_type(key, value, message):
    obj = {"n": 4, "support": ["0101"], "weights": [1.0], key: value}
    with pytest.raises(ParameterError, match=f"malformed distribution object: {message}"):
        SparseDistribution.from_json_dict(obj)
