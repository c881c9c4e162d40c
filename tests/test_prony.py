import cmath
import math

import numpy as np
import pytest

from delpop.channel import ChannelConfig, sample_trace_batch
from delpop.core import ParameterError, SparseDistribution, BitString
from delpop.estimator import TraceHistogram
from delpop.oracle import exact_moments
from delpop.zgrid import unit_roots
from delpop.prony import (
    HankelSystem,
    PronyThresholds,
    gate_stage,
    solve_sigma,
)
from oracles import elementary_symmetric, exact_sigma, recurrence_check, sigma_to_recurrence


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
    # one (l', l') Hankel matrix and right-hand side per row of b-series
    sys = HankelSystem.from_power_sums([[1, 2, 3, 4], [5, 6, 7, 8]])
    assert sys.ell_prime == 2
    want_B = np.array([[[1, 2], [2, 3]], [[5, 6], [6, 7]]], dtype=complex)
    assert np.array_equal(sys.B_tilde, want_B)
    assert np.array_equal(sys.v_tilde, np.array([[3, 4], [7, 8]], dtype=complex))
    with pytest.raises(ParameterError):
        HankelSystem.from_power_sums([[1, 2, 3]])
    with pytest.raises(ParameterError):  # no point axis
        HankelSystem.from_power_sums([1, 2, 3, 4])


def test_thresholds_validation():
    th = PronyThresholds(0.5, 0.25, delta=1e-3)
    assert (th.alpha, th.beta, th.delta) == (0.5, 0.25, 1e-3)
    with pytest.raises(ParameterError):
        PronyThresholds(0.0, 0.5)
    with pytest.raises(ParameterError):
        PronyThresholds(0.5, 0.5, delta=2.0)


def test_gate_trivial_examples():
    th = PronyThresholds(0.5, 0.5, delta=0.5)
    # l' = 1, B = [1]: smin = 1 >= 0.1875, |det| = 1 >= 0.0625
    assert gate_stage(HankelSystem.from_power_sums([[1.0, 1.0]]), th) == [None]
    # all-zero b fails at the first (singular-value) stage
    zero = HankelSystem.from_power_sums([[0.0, 0.0, 0.0, 0.0]])
    assert gate_stage(zero, th) == ["singular"]


def test_gate_duplicate_u_fails():
    rng = np.random.default_rng(5)
    u = np.array([1.0 + 0.2j, 1.0 + 0.2j, -1.0 + 0j])
    a = np.array([0.3, 0.3, 0.4])
    b = [complex((a * u ** k).sum()) for k in range(6)]
    noise = 1e-9 * np.exp(1j * rng.uniform(0, 2 * math.pi, 6))
    th = PronyThresholds(0.25, 0.02, delta=0.05)
    [stage] = gate_stage(HankelSystem.from_power_sums([b + noise]), th)
    assert stage is not None


def test_solve_sigma_single_component():
    sigma = solve_sigma(HankelSystem.from_power_sums([[1.0, 5.0]]))
    assert sigma.shape == (1, 1)
    assert sigma[0, 0] == pytest.approx(5.0)


def test_solve_sigma_two_component_example():
    # a = (0.5, 0.5), u = (1, 2): b = (1, 1.5, 2.5, 4.5), sigma = (3, 2)
    sys = HankelSystem.from_power_sums([[1.0, 1.5, 2.5, 4.5]])
    [sigma] = solve_sigma(sys)
    assert sigma[0] == pytest.approx(3.0)
    assert sigma[1] == pytest.approx(2.0)
    r = sigma_to_recurrence(sigma)
    # b_2 = r_1 b_1 + r_2 b_0 = 3 * 1.5 - 2 * 1
    assert r[0] * 1.5 + r[1] * 1.0 == pytest.approx(2.5)


def test_solve_sigma_matches_elementary_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(100):
        lp = int(rng.integers(1, 6))
        u, a, b = separated_instance(rng, lp)
        [sigma] = solve_sigma(HankelSystem.from_power_sums([b]))
        for k in range(1, lp + 1):
            want = elementary_symmetric(u, k)
            assert abs(sigma[k - 1] - want) <= 1e-9
        assert recurrence_check(b, sigma_to_recurrence(sigma)) <= 1e-10


def test_easy_matrix_factorization():
    # B = V^T A V and v = V^T A U^l column, built explicitly
    rng = np.random.default_rng(9)
    for _ in range(25):
        lp = int(rng.integers(1, 6))
        u, a, b = separated_instance(rng, lp)
        # V rows indexed by component: V[t, i] = u_t^i, so B = V^T A V
        V = np.array([[u[t] ** i for i in range(lp)] for t in range(lp)])
        A = np.diag(a)
        sys = HankelSystem.from_power_sums([b])
        B = sys.B_tilde[0]
        assert np.allclose(B, V.T @ A @ V, atol=1e-12 * max(1, np.abs(B).max()))
        v = V.T @ A @ (u ** lp)
        assert np.allclose(sys.v_tilde[0], v, atol=1e-12 * max(1, np.abs(v).max()))


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


def _sigma_at(est, ell_prime, th):
    """Gate and solve the Hankel system of the first grid point: None when
    the gate rejects it."""
    sys = HankelSystem.from_power_sums(est.means[:1, : 2 * ell_prime])
    [stage] = gate_stage(sys, th)
    return None if stage is not None else solve_sigma(sys)[0]


def test_estimate_sigma_at_point_single_string():
    d = SparseDistribution((BitString.from_string("1011"),), (1.0,))
    z = cmath.exp(0.3j)
    est = exact_moments(d, [z], 1)
    th = PronyThresholds(0.9, 0.9, delta=0.01)
    out = _sigma_at(est, 1, th)
    assert out is not None
    from delpop.core import eval_poly

    assert out[0] == pytest.approx(eval_poly(d.support[0], z))


def test_estimate_sigma_at_point_degenerate_returns_none():
    # two strings whose P values collide at z = 1 (same number of ones)
    d = SparseDistribution(
        (BitString.from_string("1100"), BitString.from_string("0011")), (0.5, 0.5)
    )
    est = exact_moments(d, [1.0 + 0j], 3)
    th = PronyThresholds(0.25, 0.1, delta=0.05)
    assert _sigma_at(est, 2, th) is None


def test_estimate_sigma_at_point_oracle_exact_two_strings():
    d = SparseDistribution(
        (BitString.from_string("1010"), BitString.from_string("0110")), (0.4, 0.6)
    )
    z = cmath.exp(0.5j)
    est = exact_moments(d, [z], 3)
    th = PronyThresholds(0.25, 0.1, delta=0.01)
    out = _sigma_at(est, 2, th)
    assert out is not None
    want = exact_sigma(d, z)
    assert out[0] == pytest.approx(want[0])
    assert out[1] == pytest.approx(want[1])


def _per_point_reference(b):
    """sigma at one point, by a dense solve of its own Hankel system."""
    lp = len(b) // 2
    B = np.array([[b[i + j] for j in range(lp)] for i in range(lp)])
    w = np.linalg.solve(B, np.array(b[lp:]))
    return np.array([(-1) ** (j - 1) * w[lp - j] for j in range(1, lp + 1)])


@pytest.mark.parametrize("ell_prime", [1, 2, 3])
def test_stacked_solve_matches_per_point_reference(ell_prime):
    # an acceptance-point estimate (n=8, l=2, p=0.9) up to b_5 on 25 points
    d = SparseDistribution(
        (BitString.from_string("10101010"), BitString.from_string("01010101")), (0.6, 0.4)
    )
    bits = sample_trace_batch(d, ChannelConfig(0.9), 100_000, np.random.default_rng(3))
    est = TraceHistogram.from_batches([bits], 8, len(bits)).estimates(unit_roots(25), 5, 0.9)
    b = est.means[:, : 2 * ell_prime]
    sigma = solve_sigma(HankelSystem.from_power_sums(b))
    assert sigma.shape == (len(b), ell_prime)
    for i in range(len(b)):
        assert np.allclose(sigma[i], _per_point_reference(b[i]), rtol=1e-14, atol=0)
