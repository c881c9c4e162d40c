"""Acceptance gate: the eleven end-to-end and property checks, at the
stated scales and tolerances.  Each test is self-contained and uses only
independent oracles (enumeration, exact integer arithmetic) for its
expected values.
"""

import cmath
import math
import time

import numpy as np

from delpop.coeffs import SymmetricPolynomial, recover_polynomial
from delpop.core import (
    BitString,
    ProblemParams,
    SparseDistribution,
    eval_poly,
    power_sum,
    tv_distance,
)
from delpop.oracle import (
    BINOMIAL_REDUCTION_C,
    exact_g_expectation,
    exact_moments,
    exact_subsample_law,
    exact_trace_law,
    threshold_floor,
)
from delpop.prony import (
    HankelSystem,
    PronyThresholds,
    gate_stage,
    solve_sigma,
)
from delpop.recovery import RecoveryConfig, exhaustive_distinguisher, recover_from_channel
from delpop.support import (
    assemble_char_poly,
    decode_support,
    encode_string,
    eval_int,
    integer_roots,
)
from delpop.zgrid import unit_roots
from oracles import (
    elementary_symmetric,
    exact_sigma,
    exact_sigma_coeffs,
    f_sum_naive,
    f_sum_rows,
    law_tv,
    random_bitstring,
    random_distribution,
    random_support,
    recurrence_check,
    sigma_to_recurrence,
)


def test_acceptance_1_estimator_unbiasedness():
    """E[g_m] equals P(z; x)^m to 1e-8 over a 50-string sweep, under 60 s."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    zs = [cmath.exp(1j * t) for t in (-0.8, -0.35, 0.0, 0.35, 0.8)]
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        x = random_bitstring(rng, n)
        for m in (1, 2, 3):
            for p in (0.3, 0.5, 0.9):
                for z in zs:
                    got = exact_g_expectation(x, z, m, p)
                    want = eval_poly(x, z) ** m
                    worst = max(worst, abs(got - want))
    assert worst <= 1e-8
    assert time.monotonic() - start < 60.0


def test_acceptance_2_f_sum_dp_equivalence():
    """Prefix recurrence equals naive chain enumeration to 1e-10 relative."""
    rng = np.random.default_rng(102)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, 5))
        bits = tuple(int(b) for b in rng.integers(0, 2, n))
        w = [complex(a, b) for a, b in rng.uniform(-1.3, 1.3, (k, 2))]
        got = f_sum_rows(np.array([bits], dtype=np.int8), w)[0]
        want = f_sum_naive(bits, w)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _separated_instance(rng, lp, min_sep=0.6, rad=(0.8, 1.4)):
    while True:
        u = np.exp(1j * rng.uniform(0, 2 * math.pi, lp)) * rng.uniform(*rad, lp)
        if all(abs(u[i] - u[j]) >= min_sep for i in range(lp) for j in range(i)):
            break
    a = rng.uniform(0.2, 1.0, lp)
    a /= a.sum()
    b = [complex((a * u ** k).sum()) for k in range(2 * lp)]
    return u, a, b


def test_acceptance_3_prony_exactness_and_recurrence():
    """Exact power sums -> sigma to 1e-9, recurrence residual to 1e-10."""
    rng = np.random.default_rng(103)
    for _ in range(100):
        lp = int(rng.integers(1, 6))
        u, a, b = _separated_instance(rng, lp)
        [sigma] = solve_sigma(HankelSystem.from_power_sums([b]))
        for k in range(1, lp + 1):
            assert abs(sigma[k - 1] - elementary_symmetric(u, k)) <= 1e-9
        assert recurrence_check(b, sigma_to_recurrence(sigma)) <= 1e-10


def test_acceptance_4_robust_prony_bound():
    """Noise at alpha gamma^2 eta / (4 l^2) keeps the solved w within eta."""
    rng = np.random.default_rng(104)
    eta = 1e-4
    for _ in range(100):
        lp = int(rng.integers(1, 6))
        u, a, b = _separated_instance(rng, lp, min_sep=0.6, rad=(0.9, 1.3))
        sys = HankelSystem.from_power_sums([b])
        V = np.array([[u[j] ** i for j in range(lp)] for i in range(lp)])
        smin_V = np.linalg.svd(V, compute_uv=False)[-1]
        gamma = min(1.0, smin_V / np.abs(u).max() ** lp)
        smin_B = np.linalg.svd(sys.B_tilde[0], compute_uv=False)[-1]
        alpha = min(1.0, smin_B / gamma, float(a.min()))
        w_exact = np.linalg.solve(sys.B_tilde[0], sys.v_tilde[0])
        bound = alpha * gamma ** 2 * eta / (4 * lp ** 2)
        noise = bound * np.exp(1j * rng.uniform(0, 2 * math.pi, 2 * lp))
        noisy = HankelSystem.from_power_sums([np.array(b) + noise])
        w_tilde = np.linalg.solve(noisy.B_tilde[0], noisy.v_tilde[0])
        assert float(np.linalg.norm(w_tilde - w_exact)) <= eta


def test_acceptance_5_gate_soundness():
    """50 constructed YES instances pass, 50 NO instances fail."""
    rng = np.random.default_rng(105)
    for _ in range(50):
        lp = int(rng.integers(1, 5))
        u, a, b = _separated_instance(rng, lp, min_sep=0.7, rad=(0.9, 1.2))
        sys = HankelSystem.from_power_sums([b])
        V = np.array([[u[j] ** i for j in range(lp)] for i in range(lp)])
        alpha = float(a.min())
        beta = float(np.prod(a))
        smin_B = np.linalg.svd(sys.B_tilde[0], compute_uv=False)[-1]
        # choose delta so |det V| >= delta and smin(V^T A V) >= alpha delta
        # hold with a factor-2 margin
        delta = min(1.0, abs(np.linalg.det(V)) / 2, smin_B / (2 * alpha))
        th = PronyThresholds(alpha, beta, delta=delta)
        noise = (alpha * delta / (4 * lp)) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, 2 * lp)
        )
        noisy = HankelSystem.from_power_sums([np.array(b) + noise])
        assert gate_stage(noisy, th) == [None]
    for _ in range(50):
        lp = int(rng.integers(2, 5))
        u = np.exp(1j * rng.uniform(0, 2 * math.pi, lp))
        u[1] = u[0]  # det V = 0: degenerate support
        a = rng.uniform(0.3, 1.0, lp)
        a /= a.sum()
        b = np.array([complex((a * u ** k).sum()) for k in range(2 * lp)])
        th = PronyThresholds(0.25, 0.1, delta=0.05)
        noise = (0.25 * 0.05 / 100) * np.exp(1j * rng.uniform(0, 2 * math.pi, 2 * lp))
        [stage] = gate_stage(HankelSystem.from_power_sums([b + noise]), th)
        assert stage is not None


def test_acceptance_6_coefficient_recovery():
    """Exact integer coefficients from noisy sigma values, 100/100, < 5 min."""
    start = time.monotonic()
    rng = np.random.default_rng(106)
    grid = unit_roots(33).tolist()
    assert len(grid) == 33
    tol = 0.02
    for _ in range(100):
        n = int(rng.integers(4, 11))
        ell = int(rng.integers(1, 4))
        d = random_distribution(rng, n, ell)
        params = ProblemParams(n, ell, 0.9)
        sig = [exact_sigma(d, z) for z in grid]
        for k in range(1, ell + 1):
            values = [
                sig[i][k - 1] + (tol / 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                for i in range(len(grid))
            ]
            poly = recover_polynomial(k, grid, values, tol, params)
            assert poly.coeffs == exact_sigma_coeffs(d.support, k, n)
    assert time.monotonic() - start < 300.0


def test_acceptance_7_factor_round_trip():
    """encode -> sigma -> char poly -> roots -> decode, exact on 200 sets."""
    rng = np.random.default_rng(107)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        lp = int(rng.integers(1, min(5, 2 ** n) + 1))
        support = random_support(rng, n, lp)
        sigmas = [
            SymmetricPolynomial(k, exact_sigma_coeffs(support, k, n))
            for k in range(1, lp + 1)
        ]
        char = assemble_char_poly(sigmas)
        for x in support:
            assert eval_int(char.coeffs, encode_string(x)) == 0
        enc = integer_roots(char, n)
        assert decode_support(enc, n) == support


def test_acceptance_8_mean_based_insufficiency_witness():
    """The hard n = 8 pair: identical k=1 moments, separated k=2 moments."""
    d0 = SparseDistribution(
        (BitString.from_string("00000000"), BitString.from_string("11111111")),
        (0.5, 0.5),
    )
    d1 = SparseDistribution(
        (BitString.from_string("00001111"), BitString.from_string("11110000")),
        (0.5, 0.5),
    )
    grid = unit_roots(33).tolist()
    gap1 = max(
        abs(power_sum(d0, z, 1) - power_sum(d1, z, 1)) for z in grid
    )
    gap2 = max(
        abs(power_sum(d0, z, 2) - power_sum(d1, z, 2)) for z in grid
    )
    assert gap1 <= 1e-12
    assert gap2 > 1e-3


def test_acceptance_9_end_to_end_statistical():
    """n=8, l=2, p=0.9, weights (0.6, 0.4), 10^6 traces: TV <= 0.1 in at
    least 9 of 10 fixed seeds, under 10 minutes."""
    start = time.monotonic()
    d = SparseDistribution(
        (BitString.from_string("10101010"), BitString.from_string("01010101")),
        (0.6, 0.4),
    )
    params = ProblemParams(8, 2, 0.9, eps=0.1)
    passed = 0
    for seed in range(10):
        config = RecoveryConfig(sample_count=1_000_000, seed=seed)
        try:
            result = recover_from_channel(d, params, config)
        except Exception:
            continue
        if tv_distance(result.distribution, d) <= 0.1:
            passed += 1
    assert passed >= 9
    assert time.monotonic() - start < 600.0


def test_acceptance_10_exhaustive_distinguisher():
    """TV <= 0.25 on 20 random tiny instances with oracle-exact moments."""
    rng = np.random.default_rng(110)
    grid = unit_roots(9)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        support = random_support(rng, n, 2)
        a = float(rng.uniform(0.2, 0.8))
        d = SparseDistribution(support, (a, 1.0 - a))
        est = exact_moments(d, grid, 3)
        out = exhaustive_distinguisher(est, n, 2, 0.25)
        assert tv_distance(out, d) <= 0.25


def test_acceptance_11_small_p_reduction():
    """Subsampled trace law equals the conditioned n^(-1/2) channel law, and
    the binomial point-mass inequality holds with the documented constant."""
    cases = [
        ((1, 0, 1, 1), 0.3, 4),
        ((1, 1, 0, 1, 0, 1), 0.2, 5),
        ((0, 1, 1, 0, 1), 0.25, 5),
        ((1, 1, 1, 1, 1, 1), 0.15, 6),
        ((0, 0, 1, 0), 0.2, 4),
    ]
    for bits, p, t in cases:
        x = BitString(bits)
        sub = exact_subsample_law(x, p, t)
        target = exact_trace_law(x, x.n ** -0.5, max_len=t)
        assert law_tv(sub, target) <= 1e-12

    def logpmf(n, p, t):
        return (
            math.lgamma(n + 1)
            - math.lgamma(t + 1)
            - math.lgamma(n - t + 1)
            + t * math.log(p)
            + (n - t) * math.log1p(-p)
        )

    assert BINOMIAL_REDUCTION_C == 3.0
    for n in (16, 25, 36, 49, 64, 100, 144, 256):
        target_p = n ** -0.5
        for t in range(threshold_floor(n), n + 1):
            base = logpmf(n, target_p, t)
            for p in (target_p / 2, target_p / 4, target_p / 10, target_p / 100, 1e-4, 1e-6):
                if not (0.0 < p < target_p):
                    continue
                lhs = logpmf(n, p, t)
                rhs = BINOMIAL_REDUCTION_C * math.log(1.0 / p) * base
                assert lhs >= rhs
