import math

import numpy as np
import pytest

from delpop.core import (
    BitString,
    ParameterError,
    ProblemParams,
    RecoveryFailedError,
    SparseDistribution,
    tv_distance,
)
from delpop.estimator import moments_from_values
from delpop.core import power_sum
from delpop.oracle import exact_moments
from delpop.recovery import (
    CandidateEnumeration,
    MarginError,
    RecoveryConfig,
    channel_trace_source,
    enumerate_candidates,
    exhaustive_distinguisher,
    fit_weights,
    recover,
    recover_from_channel,
    recover_support_candidates,
)
from delpop.zgrid import GridSpec, build_arc_grid
from oracles import random_distribution


def default_grid(config=None):
    config = config or RecoveryConfig()
    return build_arc_grid(config.grid_spec())


def test_candidate_enumeration_ranges():
    params = ProblemParams(8, 2, 0.9, eps=0.1)
    cands = enumerate_candidates(params, None, None)
    # m1 runs to ceil(log2(1/eps)) = 4; m2 to ell' * m1
    assert CandidateEnumeration(1, 1, 1) in cands
    assert CandidateEnumeration(2, 4, 8) in cands
    assert all(1 <= c.ell_prime <= 2 for c in cands)
    assert all(1 <= c.m2 <= c.ell_prime * c.m1 for c in cands)
    assert cands[0].alpha == 0.5
    known = enumerate_candidates(params, 0.25, None)
    assert {c.m1 for c in known} == {2}


def test_grid_spec_geometry():
    config = RecoveryConfig(grid_points=25, grid_spacing=0.23)
    grid = build_arc_grid(config.grid_spec())
    assert len(grid) == 25
    assert any(abs(gp.z - 1.0) <= 1e-14 for gp in grid)


def test_support_candidates_from_exact_moments():
    rng = np.random.default_rng(1)
    d = random_distribution(rng, 6, 2)
    params = ProblemParams(6, 2, 0.9)
    est = exact_moments(d, default_grid(), 3)
    results, _ = recover_support_candidates(est, params)
    supports = {strings for _, strings in results}
    assert d.support in supports


def test_support_candidates_single_string():
    d = SparseDistribution((BitString.from_string("110101"),), (1.0,))
    params = ProblemParams(6, 1, 0.9)
    est = exact_moments(d, default_grid(), 1)
    results, _ = recover_support_candidates(est, params)
    assert all(strings == d.support for _, strings in results)


def test_fit_weights_truth_feasible():
    rng = np.random.default_rng(2)
    d = random_distribution(rng, 5, 2)
    est = exact_moments(d, default_grid(), 3)
    w = fit_weights(d.support, est, 1e-6)
    assert w is not None
    assert w == pytest.approx(list(d.weights), abs=1e-6)


def test_fit_weights_single_string():
    d = SparseDistribution((BitString.from_string("1010"),), (1.0,))
    est = exact_moments(d, default_grid(), 1)
    assert fit_weights(d.support, est, 1e-8) == pytest.approx([1.0])


def test_fit_weights_missing_heavy_string_infeasible():
    d = SparseDistribution(
        (BitString.from_string("1110"), BitString.from_string("0001")), (0.6, 0.4)
    )
    est = exact_moments(d, default_grid(), 3)
    assert fit_weights((d.support[0],), est, 0.05) is None


def test_recover_point_mass_end_to_end():
    d = SparseDistribution((BitString.from_string("10110100"),), (1.0,))
    params = ProblemParams(8, 1, 0.9)
    config = RecoveryConfig(sample_count=100_000, seed=3)
    result = recover_from_channel(d, params, config)
    assert result.distribution.support == d.support
    assert result.distribution.weights[0] == pytest.approx(1.0)


def test_recover_two_string_fixture():
    d = SparseDistribution(
        (BitString.from_string("10101010"), BitString.from_string("01010101")),
        (0.6, 0.4),
    )
    params = ProblemParams(8, 2, 0.9)
    config = RecoveryConfig(sample_count=200_000, seed=0)
    result = recover_from_channel(d, params, config)
    assert tv_distance(result.distribution, d) <= 0.1
    assert result.diagnostics["candidates"][-1]["accepted"] is True


def test_recover_is_deterministic():
    d = SparseDistribution(
        (BitString.from_string("1100"), BitString.from_string("0011")), (0.5, 0.5)
    )
    params = ProblemParams(4, 2, 0.9)
    config = RecoveryConfig(sample_count=50_000, seed=11)
    r1 = recover_from_channel(d, params, config)
    r2 = recover_from_channel(d, params, config)
    assert r1.distribution == r2.distribution
    assert r1.diagnostics == r2.diagnostics


def test_recover_rejects_zero_samples():
    params = ProblemParams(4, 1, 0.9)
    with pytest.raises(ParameterError):
        recover(iter(()), params, RecoveryConfig(sample_count=0))


def test_recover_validation_soundness():
    d = SparseDistribution(
        (BitString.from_string("110010"), BitString.from_string("001101")),
        (0.7, 0.3),
    )
    params = ProblemParams(6, 2, 0.9)
    config = RecoveryConfig(sample_count=100_000, seed=5)
    source, eff = channel_trace_source(d, params, config)
    grid = default_grid(config)
    from delpop.estimator import accumulate_moments

    est = accumulate_moments(source, grid, 3, eff, config.sample_count)
    result = recover(
        channel_trace_source(d, params, config)[0], eff, config
    )
    out = result.distribution
    for gp in est.usable_points():
        for k in range(1, 4):
            margin = config.validation_abs + config.validation_sigma * est.stderrs[
                (gp.index, k)
            ]
            assert abs(power_sum(out, gp.z, k) - est.means[(gp.index, k)]) <= margin


def test_recovery_failure_carries_diagnostics():
    # moments of a 3-string mixture cannot be explained with ell = 1
    d = SparseDistribution(
        (
            BitString.from_string("111000"),
            BitString.from_string("000111"),
            BitString.from_string("101010"),
        ),
        (0.4, 0.35, 0.25),
    )
    params = ProblemParams(6, 1, 0.9)
    est = exact_moments(d, default_grid(), 1)
    with pytest.raises(RecoveryFailedError) as info:
        recover_support_candidates(est, params)
    assert info.value.diagnostics["failures"]


def test_small_p_routing_uses_subsample_reduction():
    params = ProblemParams(16, 1, 0.12)  # p below half of n^(-1/2) = 0.25
    d = SparseDistribution((BitString.from_string("1011001010110010"),), (1.0,))
    config = RecoveryConfig(seed=7)
    source, eff = channel_trace_source(d, params, config)
    assert eff.p == pytest.approx(0.25)
    batch = next(source)
    assert batch.shape[1] == 16
    # effective traces should be much shorter than raw length-16/0.25 ones
    assert batch.sum() <= batch.shape[0] * 16


def test_exhaustive_distinguisher_exact_single():
    d = SparseDistribution((BitString.from_string("0110"),), (1.0,))
    params = ProblemParams(4, 2, 0.9, eps=0.25)
    grid = build_arc_grid(GridSpec(kind="arc", L=2, spacing=0.4, max_points=9, width_mode="2pi"))
    est = exact_moments(d, grid, 3)
    out = exhaustive_distinguisher(est, params)
    assert out == d


def test_exhaustive_distinguisher_exact_pair():
    d = SparseDistribution(
        (BitString.from_string("1000"), BitString.from_string("1110")), (0.77, 0.23)
    )
    params = ProblemParams(4, 2, 0.9, eps=0.25)
    grid = build_arc_grid(GridSpec(kind="arc", L=2, spacing=0.4, max_points=9, width_mode="2pi"))
    est = exact_moments(d, grid, 3)
    out = exhaustive_distinguisher(est, params)
    assert tv_distance(out, d) <= 0.25


def test_exhaustive_distinguisher_margin_zero_with_noise():
    rng = np.random.default_rng(13)
    d = SparseDistribution(
        (BitString.from_string("100"), BitString.from_string("011")), (0.5, 0.5)
    )
    params = ProblemParams(3, 2, 0.9, eps=0.25)
    grid = build_arc_grid(GridSpec(kind="arc", L=2, spacing=0.4, max_points=9, width_mode="2pi"))
    est = moments_from_values(
        grid, 3, lambda z, k: power_sum(d, z, k) + 1e-3 * (rng.normal() + 1j * rng.normal())
    )
    with pytest.raises(MarginError):
        exhaustive_distinguisher(est, params, margin=0.0)


def test_exhaustive_distinguisher_guards():
    params = ProblemParams(9, 2, 0.9)
    grid = build_arc_grid(GridSpec(kind="arc", L=2, spacing=0.4, max_points=9, width_mode="2pi"))
    d = SparseDistribution((BitString((0,) * 9),), (1.0,))
    est = exact_moments(d, grid, 3)
    with pytest.raises(ParameterError):
        exhaustive_distinguisher(est, params)
