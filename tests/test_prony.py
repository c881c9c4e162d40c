import cmath
import math

import numpy as np
import pytest

from delpop.channel import ChannelConfig, sample_trace_batch
from delpop.core import InternalInconsistencyError, ParameterError, SparseDistribution, BitString
from delpop.core import ProblemParams
from delpop.estimator import accumulate_moments, moments_from_values
from delpop.core import power_sum
from delpop.prony import (
    HankelSystem,
    PronyThresholds,
    SigmaEstimates,
    conditioning_gate,
    estimate_sigma_at_point,
    gate_stage,
    recurrence_check,
    sigma_error_stds,
    sigma_record_json,
    sigma_to_recurrence,
    solve_sigma,
)
from delpop.zgrid import GridPoint
from oracles import elementary_symmetric


def separated_instance(rng, lp, min_sep=0.6):
    while True:
        u = np.exp(1j * rng.uniform(0, 2 * math.pi, lp)) * rng.uniform(0.8, 1.4, lp)
        if all(abs(u[i] - u[j]) >= min_sep for i in range(lp) for j in range(i)):
            break
    a = rng.uniform(0.2, 1.0, lp)
    a /= a.sum()
    b = [complex((a * u ** k).sum()) for k in range(2 * lp)]
    return u, a, b


def test_hankel_structure():
    b = [1, 2, 3, 4]
    sys = HankelSystem.from_power_sums(b)
    assert sys.ell_prime == 2
    assert np.array_equal(sys.B_tilde, np.array([[1, 2], [2, 3]], dtype=complex))
    assert np.array_equal(sys.v_tilde, np.array([3, 4], dtype=complex))
    with pytest.raises(ParameterError):
        HankelSystem.from_power_sums([1, 2, 3])


def test_thresholds_enforce_gamma_is_delta_squared():
    th = PronyThresholds(0.5, 0.25, delta=1e-3)
    assert th.gamma == pytest.approx(1e-6)
    with pytest.raises(ParameterError):
        PronyThresholds(0.0, 0.5)
    with pytest.raises(ParameterError):
        PronyThresholds(0.5, 0.5, delta=2.0)


def test_gate_trivial_examples():
    th = PronyThresholds(0.5, 0.5, delta=0.5)
    # l' = 1, B = [1]: smin = 1 >= 0.1875, |det| = 1 >= 0.0625
    assert conditioning_gate(HankelSystem.from_power_sums([1.0, 1.0]), th) is True
    # all-zero b fails at the first (singular-value) stage
    zero = HankelSystem.from_power_sums([0.0, 0.0, 0.0, 0.0])
    assert conditioning_gate(zero, th) is False
    assert gate_stage(zero, th) == "singular"


def test_gate_duplicate_u_fails():
    rng = np.random.default_rng(5)
    u = np.array([1.0 + 0.2j, 1.0 + 0.2j, -1.0 + 0j])
    a = np.array([0.3, 0.3, 0.4])
    b = [complex((a * u ** k).sum()) for k in range(6)]
    noise = 1e-9 * np.exp(1j * rng.uniform(0, 2 * math.pi, 6))
    th = PronyThresholds(0.25, 0.02, delta=0.05)
    assert conditioning_gate(HankelSystem.from_power_sums(b + noise), th) is False


def test_solve_sigma_single_component():
    th = PronyThresholds(0.9, 0.9, delta=0.1)
    est = solve_sigma(HankelSystem.from_power_sums([1.0, 5.0]), th)
    assert est.values == (pytest.approx(5.0),)


def test_solve_sigma_two_component_example():
    # a = (0.5, 0.5), u = (1, 2): b = (1, 1.5, 2.5, 4.5), sigma = (3, 2)
    th = PronyThresholds(0.5, 0.25, delta=0.05)
    sys = HankelSystem.from_power_sums([1.0, 1.5, 2.5, 4.5])
    est = solve_sigma(sys, th)
    assert est.values[0] == pytest.approx(3.0)
    assert est.values[1] == pytest.approx(2.0)
    r = sigma_to_recurrence(est.values)
    # b_2 = r_1 b_1 + r_2 b_0 = 3 * 1.5 - 2 * 1
    assert r[0] * 1.5 + r[1] * 1.0 == pytest.approx(2.5)


def test_solve_sigma_matches_elementary_symmetric():
    rng = np.random.default_rng(7)
    th = PronyThresholds(0.05, 1e-3, delta=1e-3)
    for _ in range(100):
        lp = int(rng.integers(1, 6))
        u, a, b = separated_instance(rng, lp)
        est = solve_sigma(HankelSystem.from_power_sums(b), th)
        for k in range(1, lp + 1):
            want = elementary_symmetric(u, k)
            assert abs(est.values[k - 1] - want) <= 1e-9
        assert recurrence_check(b, sigma_to_recurrence(est.values)) <= 1e-10


def test_solve_sigma_singular_after_gate_is_internal_error():
    th = PronyThresholds(0.5, 0.5, delta=0.5)
    sys = HankelSystem.from_power_sums([0.0, 0.0, 0.0, 0.0])
    with pytest.raises(InternalInconsistencyError):
        solve_sigma(sys, th)


def test_easy_matrix_factorization():
    # B = V^T A V and v = V^T A U^l column, built explicitly
    rng = np.random.default_rng(9)
    for _ in range(25):
        lp = int(rng.integers(1, 6))
        u, a, b = separated_instance(rng, lp)
        # V rows indexed by component: V[t, i] = u_t^i, so B = V^T A V
        V = np.array([[u[t] ** i for i in range(lp)] for t in range(lp)])
        A = np.diag(a)
        sys = HankelSystem.from_power_sums(b)
        assert np.allclose(sys.B_tilde, V.T @ A @ V, atol=1e-12 * max(1, np.abs(sys.B_tilde).max()))
        v = V.T @ A @ (u ** lp)
        assert np.allclose(sys.v_tilde, v, atol=1e-12 * max(1, np.abs(v).max()))


def test_vandermonde_smallest_singular_value_bound():
    # sigma_min(V) >= |det V| / ||V||_F^(l-1)
    rng = np.random.default_rng(11)
    for _ in range(50):
        lp = int(rng.integers(2, 7))
        u = rng.normal(size=lp) + 1j * rng.normal(size=lp)
        V = np.array([[u[j] ** i for j in range(lp)] for i in range(lp)])
        smin = np.linalg.svd(V, compute_uv=False)[-1]
        bound = abs(np.linalg.det(V)) / np.linalg.norm(V, "fro") ** (lp - 1)
        assert smin >= bound - 1e-12


def test_recurrence_check_examples():
    assert recurrence_check([1.0, 5.0], [5.0]) == 0.0
    # perturbing r_1 by 1 moves the residual by |b_0| = 1
    assert recurrence_check([1.0, 5.0], [6.0]) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        recurrence_check([1.0, 2.0, 3.0], [1.0])


def test_estimate_sigma_at_point_single_string():
    d = SparseDistribution((BitString.from_string("1011"),), (1.0,))
    grid = [GridPoint(cmath.exp(0.3j), "arc", 0)]
    est = moments_from_values(grid, 1, lambda z, k: power_sum(d, z, k))
    th = PronyThresholds(0.9, 0.9, delta=0.01)
    out = estimate_sigma_at_point(est, 0, 1, th)
    assert out is not None
    from delpop.core import eval_poly

    assert out.values[0] == pytest.approx(eval_poly(d.support[0], grid[0].z))


def test_estimate_sigma_at_point_degenerate_returns_none():
    # two strings whose P values collide at z = 1 (same number of ones)
    d = SparseDistribution(
        (BitString.from_string("1100"), BitString.from_string("0011")), (0.5, 0.5)
    )
    grid = [GridPoint(1.0 + 0j, "arc", 0)]
    est = moments_from_values(grid, 3, lambda z, k: power_sum(d, z, k))
    th = PronyThresholds(0.25, 0.1, delta=0.05)
    assert estimate_sigma_at_point(est, 0, 2, th) is None


def test_estimate_sigma_at_point_oracle_exact_two_strings():
    d = SparseDistribution(
        (BitString.from_string("1010"), BitString.from_string("0110")), (0.4, 0.6)
    )
    z = cmath.exp(0.5j)
    grid = [GridPoint(z, "arc", 0)]
    est = moments_from_values(grid, 3, lambda zz, k: power_sum(d, zz, k))
    th = PronyThresholds(0.25, 0.1, delta=0.01)
    out = estimate_sigma_at_point(est, 0, 2, th)
    assert out is not None
    from delpop.oracle import exact_sigma

    want = exact_sigma(d, z)
    assert out.values[0] == pytest.approx(want[0])
    assert out.values[1] == pytest.approx(want[1])


def test_sigma_record_json_shape():
    import json

    rec = json.loads(
        sigma_record_json(1 + 0j, SigmaEstimates((2 + 1j,), 1), 1)
    )
    assert rec["gate"] == "yes"
    assert rec["sigma"] == [[2.0, 1.0]]
    rec = json.loads(sigma_record_json(1 + 0j, None, 2, stage="det"))
    assert rec["gate"] == "no:det"
    assert rec["sigma"] == []


def test_sigma_error_stds_match_replicate_spread():
    """The delta-method std of each sigma_j is within 25% of the spread of
    sigma_j over 200 independent samples (n=6, l=2, p=0.8)."""
    d = SparseDistribution(
        (BitString.from_string("110100"), BitString.from_string("011011")), (0.6, 0.4)
    )
    params = ProblemParams(6, 2, 0.8)
    grid = [GridPoint(cmath.exp(0.6j), "arc", 0)]
    th = PronyThresholds(0.5, 0.5)
    rng = np.random.default_rng(7)
    count = 5000
    sigmas, predicted = [], []
    for _ in range(200):
        bits, _ = sample_trace_batch(d, ChannelConfig(0.8), count, rng)
        est = accumulate_moments([bits], grid, 3, params, count)
        sys = HankelSystem.from_power_sums([est.means[(0, k)] for k in range(4)])
        sigmas.append(solve_sigma(sys, th).values)
        predicted.append(sigma_error_stds(sys, est.covariances[0], count))
    sigmas = np.array(sigmas)
    empirical = np.sqrt(np.mean(np.abs(sigmas - sigmas.mean(axis=0)) ** 2, axis=0))
    for j in range(2):
        stds = [s[j] for s in predicted]
        assert min(stds) >= 0.75 * empirical[j]
        assert max(stds) <= 1.25 * empirical[j]


def test_sigma_error_stds_zero_for_exact_moments():
    d = SparseDistribution(
        (BitString.from_string("110100"), BitString.from_string("011011")), (0.6, 0.4)
    )
    grid = [GridPoint(cmath.exp(0.6j), "arc", 0)]
    est = moments_from_values(grid, 3, lambda z, k: power_sum(d, z, k))
    sys = HankelSystem.from_power_sums([est.means[(0, k)] for k in range(4)])
    assert sigma_error_stds(sys, est.covariances[0], est.counts[(0, 1)]) == (0.0, 0.0)
