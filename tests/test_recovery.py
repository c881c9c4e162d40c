import dataclasses
import math
import types

import numpy as np
import pytest
import scipy.optimize

from delpop.core import (
    BitString,
    InternalInconsistencyError,
    ParameterError,
    ProblemParams,
    RecoveryFailedError,
    SparseDistribution,
    eval_poly,
    tv_distance,
)
from delpop.estimator import moments_from_values
from delpop.core import power_sum
from delpop.oracle import exact_g_expectation, exact_moments
from delpop import prony, recovery
from delpop.prony import HankelSystem, solve_sigma
from delpop.recovery import (
    MarginError,
    RecoveryConfig,
    channel_trace_source,
    exhaustive_distinguisher,
    fit_weights,
    recover,
    recover_from_channel,
    recover_support_candidates,
    validate_candidate,
)
from delpop.zgrid import arc_grid
from oracles import random_distribution


def default_grid(config=None):
    config = config or RecoveryConfig()
    return arc_grid(config.grid_spacing, config.grid_points)


def test_candidate_enumeration_ranges(monkeypatch):
    # one pass per l' = 1..ell with no conditioning gate: each l' is
    # reported exactly once, as a candidate or a failure
    d = SparseDistribution(
        (
            BitString.from_string("110100"),
            BitString.from_string("011011"),
            BitString.from_string("101110"),
        ),
        (0.45, 0.35, 0.2),
    )
    params = ProblemParams(6, 3, 0.9, eps=0.1)
    est = exact_moments(d, default_grid(), 5)

    def no_gate(*args):
        raise AssertionError("the driver must not gate")

    monkeypatch.setattr(prony, "gate_stage", no_gate)
    assert not hasattr(recovery, "gate_stage")
    results, failures = recover_support_candidates(est, params)
    reported = sorted([lp for lp, _ in results] + [lp for lp, _ in failures])
    assert reported == [1, 2, 3]
    assert (3, d.support) in results


def test_grid_spec_geometry():
    config = RecoveryConfig()
    assert (config.grid_spacing, config.grid_points) == (0.23, 25)
    grid = default_grid(config)
    assert len(grid) == 25
    assert grid[12] == 1.0
    assert np.angle(grid[-1]) == pytest.approx(12 * 0.23)


def test_support_candidates_from_exact_moments():
    rng = np.random.default_rng(1)
    d = random_distribution(rng, 6, 2)
    params = ProblemParams(6, 2, 0.9)
    est = exact_moments(d, default_grid(), 3)
    results, _ = recover_support_candidates(est, params)
    supports = {strings for _, strings in results}
    assert d.support in supports


def test_recovery_config_holds_only_run_settings():
    names = [f.name for f in dataclasses.fields(RecoveryConfig)]
    assert names == ["sample_count", "grid_spacing", "grid_points", "seed"]


def test_support_candidates_l_prime_above_support_size():
    # one string, ell = 2: the l' = 2 Hankel matrix of exact moments is
    # singular, exactly at some points and up to rounding at the others, so
    # l' = 2 fails by name and l' = 1 gives the string
    d = SparseDistribution((BitString.from_string("110101"),), (1.0,))
    params = ProblemParams(6, 2, 0.9)
    est = exact_moments(d, default_grid(), 3)
    results, failures = recover_support_candidates(est, params)
    assert results == [(1, d.support)]
    assert len(failures) == 1 and failures[0][0] == 2
    assert "failed:" in failures[0][1]
    config = RecoveryConfig(sample_count=100_000, seed=0)
    assert recover_from_channel(d, params, config).distribution == d


def test_l_prime_without_usable_points_fails_by_name():
    # on the one-point grid z = 1 the l' = 2 Hankel system of a single
    # string is exactly singular, so l' = 2 has no point left
    d = SparseDistribution((BitString.from_string("110101"),), (1.0,))
    est = exact_moments(d, arc_grid(0.23, 1), 3)
    results, failures = recover_support_candidates(est, ProblemParams(6, 2, 0.9))
    assert results == []
    failures = dict(failures)
    assert failures[1].startswith("coefficient recovery failed")
    assert failures[2].startswith("prony failed")


def test_singular_hankel_point_is_skipped(monkeypatch):
    # equal popcounts: P(1; x) is the same for both strings, so the l' = 2
    # Hankel system at z = 1 is exactly singular; that point is left out
    # and the others still give the truth
    d = SparseDistribution(
        (BitString.from_string("110100"), BitString.from_string("001011")), (0.6, 0.4)
    )
    params = ProblemParams(6, 2, 0.9)
    grid = default_grid()
    est = exact_moments(d, grid, 3)
    center = int(np.flatnonzero(grid == 1.0)[0])
    sigma = solve_sigma(HankelSystem.from_power_sums(est.means[:, :4]))
    assert np.flatnonzero(np.isnan(sigma).any(axis=1)).tolist() == [center]
    used = []
    solve = recovery.recover_polynomial
    monkeypatch.setattr(
        recovery,
        "recover_polynomial",
        lambda k, zs, *rest: used.append(list(zs)) or solve(k, zs, *rest),
    )
    results, _ = recover_support_candidates(est, params)
    assert (2, d.support) in results
    # l' = 1 solves sigma_1 on every point; l' = 2 solves sigma_1, sigma_2
    # on all but z = 1
    assert [len(zs) for zs in used] == [len(grid), len(grid) - 1, len(grid) - 1]
    assert 1.0 not in used[1] and 1.0 not in used[2]


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
    w = fit_weights(d.support, est)
    assert w == pytest.approx(list(d.weights), abs=1e-6)
    assert validate_candidate(d, est) == pytest.approx(0.0, abs=1e-9)


def test_fit_weights_single_string():
    d = SparseDistribution((BitString.from_string("1010"),), (1.0,))
    est = exact_moments(d, default_grid(), 1)
    assert fit_weights(d.support, est) == pytest.approx([1.0])


def test_fit_weights_solver_failure_is_internal_error(monkeypatch):
    # the LP is feasible by construction, so a solver failure is a fault
    d = SparseDistribution((BitString.from_string("1010"),), (1.0,))
    est = exact_moments(d, default_grid(), 1)
    failed = types.SimpleNamespace(success=False, message="numerical trouble")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    with pytest.raises(InternalInconsistencyError):
        fit_weights(d.support, est)


def test_missing_heavy_string_fails_validation():
    d = SparseDistribution(
        (BitString.from_string("1110"), BitString.from_string("0001")), (0.6, 0.4)
    )
    est = exact_moments(d, default_grid(), 3)
    support = (d.support[0],)
    assert fit_weights(support, est) == pytest.approx([1.0])
    assert validate_candidate(SparseDistribution(support, (1.0,)), est) is None


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
    grid = default_grid(config)
    from delpop.estimator import accumulate_moments

    est = accumulate_moments(
        channel_trace_source(d, params, config), grid, 3, params, config.sample_count
    )
    result = recover(channel_trace_source(d, params, config), params, config)
    out = result.distribution
    for i, z in enumerate(grid.tolist()):
        for k in range(1, 4):
            margin = recovery.VALIDATION_ABS + recovery.VALIDATION_SIGMA * est.stderrs[i, k]
            assert abs(power_sum(out, z, k) - est.means[i, k]) <= margin


THREE_STRINGS = SparseDistribution(
    (
        BitString.from_string("111000"),
        BitString.from_string("000111"),
        BitString.from_string("101010"),
    ),
    (0.4, 0.35, 0.25),
)


def test_recovery_failure_carries_diagnostics():
    # moments of a 3-string mixture cannot be explained with ell = 1
    params = ProblemParams(6, 1, 0.9)
    est = exact_moments(THREE_STRINGS, default_grid(), 1)
    results, failures = recover_support_candidates(est, params)
    assert results == []
    assert [lp for lp, _ in failures] == [1]
    assert "failed:" in failures[0][1]


@pytest.mark.parametrize("ell", [1, 2])
def test_recover_without_candidates_fails_with_full_diagnostics(ell):
    # no l' yields a candidate: recover() still reports the grid, the
    # points and the (empty) candidates alongside each l''s failure
    config = RecoveryConfig(sample_count=20_000)
    with pytest.raises(RecoveryFailedError, match="no support candidate survived") as info:
        recover_from_channel(THREE_STRINGS, ProblemParams(6, ell, 0.9), config)
    diagnostics = info.value.diagnostics
    assert set(diagnostics) == {"grid_points", "points", "candidates", "failures"}
    assert diagnostics["candidates"] == []
    assert [lp for lp, _ in diagnostics["failures"]] == list(range(1, ell + 1))
    assert len(diagnostics["points"]) == diagnostics["grid_points"]


def test_small_p_moment_estimates_are_unbiased():
    # recovery runs the estimator at the true p, however small; at p = 0.12,
    # below half of 8^(-1/2), E[g_m] still equals P^m on the default arc
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = BitString(tuple(int(b) for b in rng.integers(0, 2, 8)))
        for z in default_grid().tolist():
            for m in (1, 2, 3):
                got = exact_g_expectation(x, z, m, 0.12)
                assert abs(got - eval_poly(x, z) ** m) <= 1e-9


def test_exhaustive_distinguisher_exact_single():
    d = SparseDistribution((BitString.from_string("0110"),), (1.0,))
    grid = arc_grid(0.4, 9)
    est = exact_moments(d, grid, 3)
    out = exhaustive_distinguisher(est, 4, 2, 0.25)
    assert out == d


def test_exhaustive_distinguisher_exact_pair():
    d = SparseDistribution(
        (BitString.from_string("1000"), BitString.from_string("1110")), (0.77, 0.23)
    )
    grid = arc_grid(0.4, 9)
    est = exact_moments(d, grid, 3)
    out = exhaustive_distinguisher(est, 4, 2, 0.25)
    assert tv_distance(out, d) <= 0.25


def test_exhaustive_distinguisher_margin_zero_with_noise():
    rng = np.random.default_rng(13)
    d = SparseDistribution(
        (BitString.from_string("100"), BitString.from_string("011")), (0.5, 0.5)
    )
    grid = arc_grid(0.4, 9)
    est = moments_from_values(
        grid, 3, lambda z, k: power_sum(d, z, k) + 1e-3 * (rng.normal() + 1j * rng.normal())
    )
    with pytest.raises(MarginError):
        exhaustive_distinguisher(est, 3, 2, 0.25, margin=0.0)


def test_exhaustive_distinguisher_guards():
    grid = arc_grid(0.4, 9)
    d = SparseDistribution((BitString((0,) * 9),), (1.0,))
    est = exact_moments(d, grid, 3)
    with pytest.raises(ParameterError):
        exhaustive_distinguisher(est, 9, 2, 0.1)
