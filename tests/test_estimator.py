import cmath
import math

import numpy as np
import pytest

from delpop.channel import ChannelConfig, Trace, sample_trace_batch
from delpop.core import BitString, ParameterError, ProblemParams, SparseDistribution, eval_poly
from delpop.estimator import (
    MomentEstimates,
    SingularGridPointError,
    accumulate_moments,
    composition_weights,
    compositions,
    f_sum,
    f_sum_batch,
    g_batch,
    g_estimate,
    moments_from_values,
    multinomial,
)
from delpop.oracle import exact_g_expectation
from delpop.zgrid import GridPoint, GridSpec, build_arc_grid, build_disc_grid
from oracles import f_sum_naive, random_bitstring


def test_compositions_small_cases():
    assert compositions(1) == [(1,)]
    assert compositions(2) == [(1, 1), (2,)]
    assert set(compositions(3)) == {(3,), (2, 1), (1, 2), (1, 1, 1)}
    assert len(compositions(3)) == 4
    for m in range(1, 8):
        assert len(compositions(m)) == 2 ** (m - 1)
        assert all(sum(c) == m and min(c) >= 1 for c in compositions(m))
    with pytest.raises(ParameterError):
        compositions(0)


def test_multinomial_exact():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(3, (2, 1)) == 3
    assert multinomial(5, (5,)) == 1
    with pytest.raises(ParameterError):
        multinomial(3, (1, 1))


def test_composition_weights_formula():
    z, p = 0.8 + 0.3j, 0.5
    w = composition_weights(z, (1, 2), p)
    q = 1 - p
    assert w[0] == pytest.approx((z ** 3 - q) / p)
    assert w[1] == pytest.approx((z ** 2 - q) / p)


def test_composition_weights_singular():
    # z with z^1 = q makes the last weight vanish
    with pytest.raises(SingularGridPointError):
        composition_weights(0.5 + 0j, (1,), 0.5)


def test_f_sum_examples():
    assert f_sum(Trace((0, 0, 0), 0), (2.0, 3.0)) == 0
    # trace 110, k=2, w=(2,3): only chain (1,2) contributes 2^1 * 3^1
    assert f_sum(Trace((1, 1, 0), 2), (2.0, 3.0)) == pytest.approx(6.0)
    assert f_sum(Trace((1, 1, 1), 3), (1.0,)) == pytest.approx(3.0)


def test_f_sum_k_exceeds_n():
    assert f_sum(Trace((1, 1), 2), (2.0, 2.0, 2.0)) == 0


def test_f_sum_zero_weight_entry():
    bits = (1, 0, 1, 1)
    w = (0.0, 2.0)
    got = f_sum(Trace(bits, 4), w)
    assert got == pytest.approx(f_sum_naive(bits, w))


def test_f_sum_matches_naive_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, 5))
        bits = tuple(int(b) for b in rng.integers(0, 2, n))
        w = [complex(a, b) for a, b in rng.uniform(-1.2, 1.2, (k, 2))]
        got = f_sum_batch(np.array([bits], dtype=np.int8), w)[0]
        want = f_sum_naive(bits, w)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_g_at_z_one_counts_retained_ones():
    # m=1, z=1: w = 1 and g_1 = (number of retained ones) / p
    params = ProblemParams(3, 1, 0.5)
    assert g_estimate(Trace((1, 1, 0), 2), 1.0, 1, params) == pytest.approx(4.0)
    rng = np.random.default_rng(23)
    for _ in range(20):
        bits = tuple(int(b) for b in rng.integers(0, 2, 6))
        r = sum(bits)
        t = Trace(tuple(sorted(bits, reverse=True)), 6)
        assert g_estimate(t, 1.0, 1, ProblemParams(6, 1, 0.3)) == pytest.approx(r / 0.3)


def test_g_exact_expectations_tiny_cases():
    # x = 101, p = 0.5, z = 1, m = 1: expectation is P(1; x) = 2
    assert exact_g_expectation(BitString.from_string("101"), 1.0, 1, 0.5) == pytest.approx(2.0)
    # x = 11, p = 0.5, z = 1, m = 2: expectation is P(1; x)^2 = 4
    assert exact_g_expectation(BitString.from_string("11"), 1.0, 2, 0.5) == pytest.approx(4.0)


def test_g_unbiasedness_spot_checks():
    rng = np.random.default_rng(29)
    zs = [cmath.exp(1j * t) for t in (-0.7, 0.0, 0.4)]
    for _ in range(10):
        x = random_bitstring(rng, 6)
        for m in (1, 2):
            for p in (0.4, 0.8):
                for z in zs:
                    got = exact_g_expectation(x, z, m, p)
                    assert abs(got - eval_poly(x, z) ** m) <= 1e-9


def test_disc_grid_weight_bound():
    # inside |z - (1 - p/m)| <= p/m every composition weight has |w| <= 1
    for p in (0.3, 0.6, 0.9):
        for m in (1, 2, 3):
            spec = GridSpec(kind="disc", spacing=p / (4 * m), m=m, max_points=64)
            for gp in build_disc_grid(spec, p):
                for parts in compositions(m):
                    try:
                        w = composition_weights(gp.z, parts, p)
                    except SingularGridPointError:
                        continue
                    assert max(abs(v) for v in w) <= 1.0 + 1e-12


def _arc(npts, spacing):
    spec = GridSpec(kind="arc", L=1, spacing=spacing, max_points=npts, width_mode="2pi")
    return build_arc_grid(spec)


def test_accumulate_moments_single_trace():
    grid = _arc(3, 0.3)
    params = ProblemParams(4, 2, 0.7)
    batch = np.array([(1, 0, 1, 0)], dtype=np.int8)
    est = accumulate_moments([batch], grid, 3, params, 1)
    for gp in grid:
        assert est.means[(gp.index, 0)] == 1.0
        for k in range(1, 4):
            want = g_estimate(Trace((1, 0, 1, 0), 3), gp.z, k, params)
            assert est.means[(gp.index, k)] == pytest.approx(want)


def test_accumulate_moments_k0_is_one_and_counts_equal():
    grid = _arc(5, 0.25)
    params = ProblemParams(5, 2, 0.8)
    rng = np.random.default_rng(31)
    d = SparseDistribution((BitString.from_string("10110"),), (1.0,))
    bits, _ = sample_trace_batch(d, ChannelConfig(0.8, 0), 2000, rng)
    est = accumulate_moments([bits], grid, 3, params, 2000)
    counts = set(est.counts.values())
    assert counts == {2000}
    for gp in grid:
        assert est.means[(gp.index, 0)] == 1.0


def test_accumulate_moments_unbiased_within_5_sigma():
    grid = [GridPoint(1.0 + 0j, "arc", 0)]
    params = ProblemParams(3, 1, 0.9)
    d = SparseDistribution((BitString.from_string("101"),), (1.0,))
    rng = np.random.default_rng(37)
    bits, _ = sample_trace_batch(d, ChannelConfig(0.9, 0), 100_000, rng)
    est = accumulate_moments([bits], grid, 1, params, 100_000)
    assert abs(est.means[(0, 1)] - 2.0) <= 5 * est.stderrs[(0, 1)]


def test_accumulate_moments_drops_singular_points():
    # z = q on the real axis makes w vanish for the k=1 composition
    params = ProblemParams(3, 1, 0.5)
    grid = [GridPoint(0.5 + 0j, "disc", 0), GridPoint(1.0 + 0j, "disc", 1)]
    batch = np.array([(1, 1, 0)], dtype=np.int8)
    est = accumulate_moments([batch], grid, 1, params, 1)
    assert 0 in est.dropped
    assert (0, 1) not in est.means
    assert (1, 1) in est.means
    assert est.usable_points() == [grid[1]]


def test_accumulate_moments_conjugate_symmetry():
    grid = _arc(5, 0.35)
    params = ProblemParams(4, 2, 0.8)
    d = SparseDistribution((BitString.from_string("1011"),), (1.0,))
    rng = np.random.default_rng(41)
    bits, _ = sample_trace_batch(d, ChannelConfig(0.8, 0), 3000, rng)
    est = accumulate_moments([bits], grid, 3, params, 3000)
    by_theta = {round(cmath.phase(gp.z), 12): gp.index for gp in grid}
    for theta, idx in by_theta.items():
        mirror = by_theta[-theta]
        for k in range(4):
            assert est.means[(idx, k)] == pytest.approx(
                est.means[(mirror, k)].conjugate()
            )


def test_accumulate_moments_histogram_matches_raw_rows():
    grid = _arc(5, 0.3)
    params = ProblemParams(6, 2, 0.7)
    rng = np.random.default_rng(43)
    distinct = rng.integers(0, 2, size=(40, 6)).astype(np.int8)
    rows = distinct[rng.integers(0, 40, size=3000)]
    est = accumulate_moments([rows], grid, 3, params, len(rows))
    for gp in grid:
        for k in range(1, 4):
            vals = g_batch(rows, gp.z, k, params)
            mean = vals.mean()
            stderr = math.sqrt(float(np.mean(np.abs(vals - mean) ** 2)) / len(rows))
            assert abs(est.means[(gp.index, k)] - mean) <= 1e-12 * max(1.0, abs(mean))
            assert abs(est.stderrs[(gp.index, k)] - stderr) <= 1e-12 * max(1.0, stderr)
            assert est.counts[(gp.index, k)] == len(rows)
    shuffled = rows[rng.permutation(len(rows))]
    batches = [shuffled[:7], shuffled[7:1000], shuffled[1000:]]
    again = accumulate_moments(batches, grid, 3, params, len(rows))
    assert again.means == est.means
    assert again.stderrs == est.stderrs
    for gp in grid:
        assert np.array_equal(again.covariances[gp.index], est.covariances[gp.index])


def test_accumulate_moments_exhausted_source():
    grid = _arc(3, 0.3)
    params = ProblemParams(3, 1, 0.5)
    batch = np.array([(1, 1, 0)], dtype=np.int8)
    with pytest.raises(ParameterError):
        accumulate_moments([batch], grid, 1, params, 10)


def test_moment_json_has_contracted_fields():
    import json

    grid = _arc(3, 0.3)
    est = moments_from_values(grid, 2, lambda z, k: z ** k)
    recs = json.loads(est.to_json())
    assert len(recs) == 3 * 3
    for rec in recs:
        assert set(rec) == {"z", "grid_kind", "k", "mean", "count"}
        assert rec["grid_kind"] == "arc"
