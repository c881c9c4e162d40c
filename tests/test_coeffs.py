import cmath
import math

import numpy as np
import pytest

from delpop.coeffs import (
    CoefficientRecoveryError,
    SymmetricPolynomial,
    coefficient_bound,
    recover_polynomial,
    recover_sigmas,
)
from delpop.core import BitString, ParameterError, ProblemParams, SparseDistribution
from delpop.oracle import exact_moments
from delpop.support import eval_int
from delpop.zgrid import recovery_grid, unit_roots
from oracles import exact_sigma, exact_sigma_coeffs, random_distribution


def sigma_values_for(d, grid, k, noise=0.0, rng=None):
    values = []
    for z in grid.tolist():
        val = exact_sigma(d, z)[k - 1]
        if noise and rng is not None:
            val += noise * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        values.append(val)
    return np.array(values)


def test_symmetric_polynomial_validation_and_eval():
    poly = SymmetricPolynomial(1, (0, 1, 1))
    assert eval_int(poly.coeffs, 2) == 6
    with pytest.raises(ParameterError):
        SymmetricPolynomial(1, (0, -1))
    with pytest.raises(ParameterError):
        SymmetricPolynomial(1, (0.5,))


def test_coefficient_bound():
    params = ProblemParams(10, 3, 0.9)
    assert coefficient_bound(params, 1) == 30
    assert coefficient_bound(params, 2) == 300
    assert coefficient_bound(params, 3) == 1000


def two_string_cross():
    return SparseDistribution(
        (BitString.from_string("10"), BitString.from_string("01")), (0.5, 0.5)
    )


def test_recover_polynomial_example_sigma1():
    # sigma_1 = z + z^2 for the {10, 01} mixture
    d = two_string_cross()
    params = ProblemParams(2, 2, 0.9)
    grid = unit_roots(9)
    values = sigma_values_for(d, grid, 1)
    assert recover_polynomial(1, grid, values, 0.05, params).coeffs == (0, 1, 1)


def test_recover_polynomial_examples():
    d = two_string_cross()
    params = ProblemParams(2, 2, 0.9)
    grid = unit_roots(9)
    s1 = recover_polynomial(1, grid, sigma_values_for(d, grid, 1), 0.05, params)
    assert s1.coeffs == (0, 1, 1)
    s2 = recover_polynomial(2, grid, sigma_values_for(d, grid, 2), 0.05, params)
    assert s2.coeffs == (0, 0, 0, 1, 0)  # sigma_2 = z * z^2, padded to degree k*n


def test_recover_polynomial_single_string_reads_bits():
    d = SparseDistribution((BitString.from_string("10110"),), (1.0,))
    params = ProblemParams(5, 1, 0.9)
    grid = unit_roots(13)
    poly = recover_polynomial(1, grid, sigma_values_for(d, grid, 1), 0.05, params)
    assert poly.coeffs == (0, 1, 0, 1, 1, 0)


def test_recovered_constant_term_is_zero_and_bounded():
    rng = np.random.default_rng(5)
    params_pool = [(4, 2), (6, 2), (5, 3)]
    grid = unit_roots(33)
    for n, ell in params_pool:
        d = random_distribution(rng, n, ell)
        params = ProblemParams(n, ell, 0.9)
        for k in range(1, ell + 1):
            poly = recover_polynomial(k, grid, sigma_values_for(d, grid, k), 0.02, params)
            assert poly.coeffs[0] == 0
            assert max(poly.coeffs) <= coefficient_bound(params, k)
            assert poly.coeffs == exact_sigma_coeffs(d.support, k, n)


def test_noise_within_half_tolerance_is_harmless():
    rng = np.random.default_rng(8)
    d = random_distribution(rng, 6, 2)
    params = ProblemParams(6, 2, 0.9)
    grid = unit_roots(33)
    tol = 0.02
    for k in (1, 2):
        clean = recover_polynomial(k, grid, sigma_values_for(d, grid, k), tol, params)
        noisy = recover_polynomial(
            k, grid, sigma_values_for(d, grid, k, noise=tol / 2, rng=rng), tol, params
        )
        assert noisy == clean


def test_monotone_tolerance():
    rng = np.random.default_rng(9)
    d = random_distribution(rng, 5, 2)
    params = ProblemParams(5, 2, 0.9)
    grid = unit_roots(25)
    for k in (1, 2):
        values = sigma_values_for(d, grid, k)
        wide = recover_polynomial(k, grid, values, 0.05, params)
        for tol in (0.02, 0.005, 1e-4):
            assert recover_polynomial(k, grid, values, tol, params) == wide


def test_per_point_tolerances():
    d = two_string_cross()
    params = ProblemParams(2, 2, 0.9)
    grid = unit_roots(9)
    values = sigma_values_for(d, grid, 1)
    values[0] += 0.5  # the first point is noisy but declared so
    tols = np.full(len(grid), 0.02)
    tols[0] = 1.0
    assert recover_polynomial(1, grid, values, tols, params).coeffs == (0, 1, 1)
    with pytest.raises(CoefficientRecoveryError, match="misses"):
        recover_polynomial(1, grid, values, 0.02, params)


def test_infeasible_and_ambiguous_errors():
    d = two_string_cross()
    params = ProblemParams(2, 2, 0.9)
    grid = unit_roots(9)
    # shift every value by a constant 0.9: with t_0 pinned at 0 no integer
    # polynomial comes within tol 0.01
    shifted = sigma_values_for(d, grid, 1) + 0.9
    with pytest.raises(CoefficientRecoveryError, match="misses"):
        recover_polynomial(1, grid, shifted, 0.01, params)
    # at n=3 a single grid point gives 2 real rows for 3 unknowns t_1..t_3
    d3 = SparseDistribution((BitString.from_string("101"),), (1.0,))
    values3 = sigma_values_for(d3, grid, 1)
    with pytest.raises(CoefficientRecoveryError, match="rank 2 for 3"):
        recover_polynomial(1, grid[:1], values3[:1], 0.05, ProblemParams(3, 1, 0.9))


def test_rounded_coefficient_above_bound_is_rejected():
    # l=1, n=2: coefficients of sigma_1 are at most 2, but these values are 3z
    params = ProblemParams(2, 1, 0.9)
    assert coefficient_bound(params, 1) == 2
    grid = unit_roots(9)
    with pytest.raises(CoefficientRecoveryError, match="outside"):
        recover_polynomial(1, grid, 3 * grid, 0.05, params)


def test_low_coefficients_are_pinned():
    d = two_string_cross()
    params = ProblemParams(2, 2, 0.9)
    grid = unit_roots(9)
    # sigma_2 = z^3: only t_2..t_4 are unknowns, t_0 and t_1 come back zero
    assert recover_polynomial(2, grid, sigma_values_for(d, grid, 2), 0.05, params).coeffs == (
        0, 0, 0, 1, 0,
    )
    # one off-axis point (2 real rows) determines the 2 unknowns t_1, t_2
    z = complex(grid[0])
    assert z.imag != 0
    assert recover_polynomial(1, [z], [exact_sigma(d, z)[0]], 0.05, params).coeffs == (0, 1, 1)
    # values 1 + z + z^2 need t_0 = 1, which is pinned at 0
    with pytest.raises(CoefficientRecoveryError, match="misses"):
        recover_polynomial(1, grid, 1 + grid + grid ** 2, 0.05, params)


def test_input_validation():
    params = ProblemParams(2, 2, 0.9)
    with pytest.raises(ParameterError):
        recover_polynomial(1, [], [], 0.05, params)
    with pytest.raises(ParameterError):
        recover_polynomial(1, [1.0], [2.0], 0.0, params)
    with pytest.raises(ParameterError):
        recover_polynomial(1, [1.0, -1.0], [2.0, 0.0], [0.05, 0.0], params)
    with pytest.raises(ParameterError):
        recover_polynomial(1, [1.0, -1.0], [2.0], 0.05, params)


@pytest.mark.parametrize("ell_prime", [0, -1])
def test_recover_sigmas_refuses_ell_prime_below_one(ell_prime):
    params = ProblemParams(2, 2, 0.9)
    est = exact_moments(two_string_cross(), recovery_grid(2, 2), 3)
    with pytest.raises(ParameterError, match="ell_prime must be >= 1"):
        recover_sigmas(ell_prime, est, params)


def test_recover_sigmas_refuses_estimates_that_stop_short_of_b_2l_minus_1():
    # l' = 3 needs b_1..b_5 and these estimates end at b_3; l' = 2 needs b_3
    d = SparseDistribution((BitString.from_string("1010"), BitString.from_string("0110")), (0.3, 0.7))
    params = ProblemParams(4, 3, 0.9)
    est = exact_moments(d, recovery_grid(4, 3), 3)
    with pytest.raises(ParameterError, match="needs b_1..b_5, the estimates end at b_3"):
        recover_sigmas(3, est, params)
    sigma = [exact_sigma_coeffs(d.support, k, 4) for k in (1, 2)]
    assert [s.coeffs for s in recover_sigmas(2, est, params)] == [tuple(c) for c in sigma]
