import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from delpop.coeffs import CoefficientRecoveryError
from delpop.core import (
    BitString,
    CorruptInputError,
    ParameterError,
    ProblemParams,
    RecoveryFailedError,
    SparseDistribution,
    tv_distance,
)
from delpop.oracle import exact_g_expectation, exact_mixture_trace_law, exact_moments
from delpop import prony, recovery
from delpop.prony import HankelSystem
from delpop.recovery import (
    RecoveryConfig,
    channel_trace_source,
    exhaustive_distinguisher,
    fit_weights,
    recover,
    recover_from_channel,
    recover_histogram,
    support_candidate,
    validate_candidate,
)
from delpop.zgrid import recovery_grid, unit_roots
from oracles import eval_poly, power_sum, random_distribution


def default_grid(params=ProblemParams(6, 2, 0.9)):
    return recovery_grid(params.n, params.ell)


def test_candidate_enumeration_ranges(monkeypatch):
    # each l' = 1..ell runs with no conditioning gate and ends in a support
    # or a named stage failure; l' = 3 gives the truth
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
    for ell_prime in (1, 2):
        try:
            support_candidate(ell_prime, est, params)
        except (CoefficientRecoveryError, CorruptInputError):
            pass
    assert support_candidate(3, est, params) == d.support


def test_grid_spec_geometry():
    for n, ell in [(1, 1), (6, 2), (8, 2), (16, 3)]:
        grid = recovery_grid(n, ell)
        count = 2 * ell * n + 1
        assert len(grid) == count
        assert grid[(count - 1) // 2] == 1.0
        assert np.array_equal(grid[::-1], grid.conj())
        assert np.abs(grid ** count - 1.0).max() <= 1e-12


def test_support_candidates_from_exact_moments():
    rng = np.random.default_rng(1)
    d = random_distribution(rng, 6, 2)
    params = ProblemParams(6, 2, 0.9)
    est = exact_moments(d, default_grid(), 3)
    assert support_candidate(2, est, params) == d.support


@pytest.mark.parametrize("n, ell", [(16, 2), (12, 3), (24, 2)])
def test_support_candidates_from_exact_moments_at_k_n_above_25(n, ell):
    # sigma_ell has ell*n - ell + 1 > 25 unknown coefficients, more than a
    # 25-point conjugate-symmetric grid gives independent real equations
    params = ProblemParams(n, ell, 0.9)
    d = random_distribution(np.random.default_rng(n), n, ell)
    est = exact_moments(d, default_grid(params), 2 * ell - 1)
    assert support_candidate(ell, est, params) == d.support


def test_recovery_config_holds_only_run_settings():
    names = [f.name for f in dataclasses.fields(RecoveryConfig)]
    assert names == ["sample_count", "seed"]


def test_support_candidates_l_prime_above_support_size():
    # one string, ell = 2: the l' = 2 Hankel matrix of exact moments is
    # singular, exactly at some points and up to rounding at the others, so
    # l' = 2 fails at a named stage and l' = 1 gives the string
    d = SparseDistribution((BitString.from_string("110101"),), (1.0,))
    params = ProblemParams(6, 2, 0.9)
    est = exact_moments(d, default_grid(), 3)
    assert support_candidate(1, est, params) == d.support
    with pytest.raises((CoefficientRecoveryError, CorruptInputError)):
        support_candidate(2, est, params)
    config = RecoveryConfig(sample_count=100_000, seed=0)
    assert recover_from_channel(d, params, config).distribution == d


def test_l_prime_without_usable_points_fails_by_name():
    # on the one-point grid z = 1 the joint system has 2 real equations per
    # l' (the imaginary row is 0) against 6 and 17 unknowns: each l' fails
    # its rank check by name
    d = SparseDistribution((BitString.from_string("110101"),), (1.0,))
    est = exact_moments(d, unit_roots(1), 3)
    params = ProblemParams(6, 2, 0.9)
    with pytest.raises(CoefficientRecoveryError) as info:
        support_candidate(1, est, params)
    assert str(info.value) == "2 real equations of rank 1 for 6 unknown coefficients"
    with pytest.raises(CoefficientRecoveryError) as info:
        support_candidate(2, est, params)
    assert str(info.value).startswith("4 real equations of rank")
    assert str(info.value).endswith("for 17 unknown coefficients")


def test_singular_hankel_point_is_skipped():
    # equal popcounts: P(1; x) is the same for both strings, so the l' = 2
    # Hankel system at z = 1 is exactly singular; the joint system keeps
    # that point's equations, which the true sigma satisfies, and still
    # gives the truth
    d = SparseDistribution(
        (BitString.from_string("110100"), BitString.from_string("001011")), (0.6, 0.4)
    )
    params = ProblemParams(6, 2, 0.9)
    grid = default_grid()
    est = exact_moments(d, grid, 3)
    center = int(np.flatnonzero(grid == 1.0)[0])
    hankel = HankelSystem.from_power_sums(est.means[:, :4]).B_tilde
    assert np.linalg.matrix_rank(hankel[center]) == 1
    assert support_candidate(2, est, params) == d.support
    # z = 1 is not left out: a NaN there fails every l' in the solve
    est.means[center, 1] = math.nan
    for ell_prime in (1, 2):
        with pytest.raises(CoefficientRecoveryError):
            support_candidate(ell_prime, est, params)


@pytest.mark.parametrize("row", [0, 5])
def test_non_finite_moment_fails_every_l_prime_by_name(row):
    # a NaN in one point's means (b_1 here): every l' fails in the solve,
    # by name
    d = SparseDistribution(
        (BitString.from_string("110100"), BitString.from_string("011011")), (0.6, 0.4)
    )
    params = ProblemParams(6, 3, 0.9)
    est = exact_moments(d, default_grid(params), 5)
    assert support_candidate(2, est, params) == d.support
    est.means[row, 1] = math.nan
    for ell_prime in (1, 2, 3):
        with pytest.raises(CoefficientRecoveryError,
                           match="^a moment estimate or its standard error is not finite$"):
            support_candidate(ell_prime, est, params)


def test_support_candidates_single_string():
    d = SparseDistribution((BitString.from_string("110101"),), (1.0,))
    params = ProblemParams(6, 1, 0.9)
    est = exact_moments(d, default_grid(), 1)
    assert support_candidate(1, est, params) == d.support


def test_all_zero_string_is_recovered():
    # every b_k, k >= 1, and every standard error is 0, so a point's rows
    # are weighted by the floor on b_0 = 1 alone and the solve stays finite
    d = SparseDistribution((BitString.from_string("000000"),), (1.0,))
    params = ProblemParams(6, 2, 0.9)
    est = exact_moments(d, default_grid(), 3)
    assert support_candidate(1, est, params) == d.support
    with pytest.raises((CoefficientRecoveryError, CorruptInputError)):
        support_candidate(2, est, params)
    config = RecoveryConfig(sample_count=10_000, seed=1)
    assert recover_from_channel(d, params, config).distribution == d


def test_fit_weights_truth_feasible():
    # exact moments up to k_max = 2l - 1, for l = 1..6
    for n, ell, seed in [(5, 2, 2), (6, 1, 0), (8, 3, 1), (10, 4, 2), (12, 5, 3), (12, 6, 4)]:
        rng = np.random.default_rng(seed)
        d = random_distribution(rng, n, ell)
        est = exact_moments(d, default_grid(), 2 * ell - 1)
        w = fit_weights(d.support, est)
        assert w == pytest.approx(list(d.weights), abs=1e-6)
        fitted = recovery._build_distribution(d.support, w)
        assert fitted.support == d.support
        # the moments reach 1e10 at l = 6, so float rounding alone leaves
        # residuals of about 1e-16 of the largest one
        rounding = 1e-14 * np.abs(est.means).max() / recovery.VALIDATION_ABS
        assert validate_candidate(fitted, est) == pytest.approx(0.0, abs=rounding)


def test_fit_weights_single_string():
    d = SparseDistribution((BitString.from_string("1010"),), (1.0,))
    est = exact_moments(d, default_grid(), 1)
    assert fit_weights(d.support, est) == pytest.approx([1.0])


def test_fit_weights_drops_a_string_outside_the_mixture():
    # nothing bounds a weight below, so the extra string's weight lands
    # near 0 from either side and is dropped before validation
    d = SparseDistribution(
        (BitString.from_string("110100"), BitString.from_string("011011")), (0.65, 0.35)
    )
    extra = BitString.from_string("101110")
    est = exact_moments(d, default_grid(), 5)
    w = fit_weights((*d.support, extra), est)
    assert w[-1] <= recovery.WEIGHT_FLOOR
    fitted = recovery._build_distribution((*d.support, extra), w)
    assert fitted.support == d.support
    assert fitted.weights == pytest.approx(d.weights, abs=1e-6)
    assert validate_candidate(fitted, est) == pytest.approx(0.0, abs=1e-6)


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
    accepted = result.diagnostics["ell_primes"][-1]
    assert accepted["ell_prime"] == 2 and "reason" not in accepted
    assert accepted["validation_worst"] <= 1.0


def _envelope_probe():
    path = Path(__file__).resolve().parents[1] / "tools" / "envelope_probe.py"
    spec = importlib.util.spec_from_file_location("envelope_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n, ell, p", [(8, 3, 0.9), (8, 2, 0.5)])
def test_recover_probe_instances_at_a_million_traces(n, ell, p):
    # two instances of tools/envelope_probe.py (seed 2) that a per-point
    # Prony solve with per-sigma rounding missed at 10^6 traces
    probe = _envelope_probe()
    truth = probe.random_instance(n, ell, 2)
    params = ProblemParams(n, ell, p, eps=probe.EPS)
    result = recover_from_channel(truth, params, RecoveryConfig(sample_count=10**6, seed=2))
    assert tv_distance(result.distribution, truth) <= 0.1


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


ACCEPTANCE_POINT = SparseDistribution(
    (BitString.from_string("10101010"), BitString.from_string("01010101")), (0.6, 0.4)
)


@pytest.mark.parametrize("case", ["acceptance-point", "random-n16-l3"])
def test_recover_histogram_from_an_exact_law(case):
    # an exact trace law given the count of 10^9 traces: noise-free moments
    # whose standard errors set the validation margin
    if case == "acceptance-point":
        d, ell = ACCEPTANCE_POINT, 2
    else:
        d, ell = random_distribution(np.random.default_rng(16), 16, 3), 3
    law = dataclasses.replace(exact_mixture_trace_law(d, 0.9), count=10**9)
    result = recover_histogram(law, ProblemParams(d.n, ell, 0.9))
    assert sorted(result.distribution.support) == sorted(d.support)
    assert tv_distance(result.distribution, d) <= 1e-12
    assert [f.name for f in dataclasses.fields(result)] == ["distribution", "diagnostics"]


def test_recover_histogram_refuses_a_law_without_a_count_or_of_another_n():
    law = exact_mixture_trace_law(ACCEPTANCE_POINT, 0.9)
    with pytest.raises(ParameterError, match="no trace count"):
        recover_histogram(law, ProblemParams(8, 2, 0.9))
    with pytest.raises(ParameterError, match="8 bits, not n=9"):
        recover_histogram(dataclasses.replace(law, count=10**6), ProblemParams(9, 2, 0.9))


def test_channel_trace_source_gives_the_first_traces_of_a_longer_run():
    # exactly sample_count rows, cut inside the second batch, and the same
    # rows as the first of a larger count for that seed
    d = SparseDistribution((BitString.from_string("110010"),), (1.0,))
    rows = [np.concatenate(list(channel_trace_source(d, 0.7, RecoveryConfig(count, 9))))
            for count in (70_000, 140_000)]
    assert len(rows[0]) == 70_000 and len(rows[1]) == 140_000
    assert np.array_equal(rows[0], rows[1][:70_000])


def test_recover_validation_soundness():
    d = SparseDistribution(
        (BitString.from_string("110010"), BitString.from_string("001101")),
        (0.7, 0.3),
    )
    params = ProblemParams(6, 2, 0.9)
    config = RecoveryConfig(sample_count=100_000, seed=5)
    grid = default_grid(params)
    from delpop.estimator import TraceHistogram

    hist = TraceHistogram.from_batches(channel_trace_source(d, params.p, config), 6, config.sample_count)
    est = hist.estimates(grid, 3, params.p)
    result = recover(channel_trace_source(d, params.p, config), params, config)
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
    # moments of a 3-string mixture cannot be explained with ell = 1: l' = 1
    # gives a one-string candidate, whose record in the failure's
    # diagnostics names it and why it was rejected, as the message does
    config = RecoveryConfig(sample_count=20_000)
    with pytest.raises(RecoveryFailedError) as info:
        recover_from_channel(THREE_STRINGS, ProblemParams(6, 1, 0.9), config)
    [record] = info.value.diagnostics["ell_primes"]
    assert record["ell_prime"] == 1 and "validation_worst" not in record
    assert record["reason"] == "moment validation failed"
    [string] = record["support"]
    assert len(string) == 6 and set(string) <= {"0", "1"}
    assert str(info.value) == f"l'=1: candidate {record['support']}: moment validation failed"


@pytest.mark.parametrize("ell", [1, 2])
def test_recover_without_candidates_fails_with_full_diagnostics(ell):
    # every l' yields a candidate and every candidate fails validation:
    # recover() still reports the grid, the points and each l''s record
    config = RecoveryConfig(sample_count=20_000)
    with pytest.raises(RecoveryFailedError,
                       match=f"^l'={ell}: candidate .*: moment validation failed$") as info:
        recover_from_channel(THREE_STRINGS, ProblemParams(6, ell, 0.9), config)
    diagnostics = info.value.diagnostics
    assert set(diagnostics) == {"grid_points", "points", "ell_primes"}
    records = diagnostics["ell_primes"]
    assert [r["ell_prime"] for r in records] == list(range(1, ell + 1))
    assert all(r["reason"] == "moment validation failed" for r in records)
    assert not any("validation_worst" in r for r in records)
    assert len(diagnostics["points"]) == diagnostics["grid_points"]


def test_records_stop_at_the_accepted_l_prime(monkeypatch):
    # the probe's (8, 3, 0.9) cell with two strings, as an exact law given
    # 10^9 traces: l' = 1 fails validation, l' = 2 is accepted, and l' = 3
    # is never solved
    probe = _envelope_probe()
    truth = probe.random_instance(8, 2, 0)
    law = dataclasses.replace(exact_mixture_trace_law(truth, 0.9), count=10**9)
    solved = []

    def counted(ell_prime, *args):
        solved.append(ell_prime)
        return recover_sigmas(ell_prime, *args)

    recover_sigmas = recovery.recover_sigmas
    monkeypatch.setattr(recovery, "recover_sigmas", counted)
    result = recover_histogram(law, ProblemParams(8, 3, 0.9))
    assert result.distribution.support == truth.support
    assert solved == [1, 2]
    rejected, accepted = result.diagnostics["ell_primes"]
    assert rejected["ell_prime"] == 1 and rejected["reason"] == "moment validation failed"
    assert accepted["ell_prime"] == 2 and "reason" not in accepted
    assert accepted["support"] == [str(x) for x in truth.support]
    assert 0.0 <= accepted["validation_worst"] <= 1.0


def test_a_factoring_failure_is_recorded_by_stage(monkeypatch):
    # every l' fails at factoring: its record has no support, and the
    # message names the largest l' and the stage
    def corrupt(sigmas, n):
        raise CorruptInputError("no exact integer root located")

    monkeypatch.setattr(recovery, "factor_support", corrupt)
    law = dataclasses.replace(exact_mixture_trace_law(ACCEPTANCE_POINT, 0.9), count=10**9)
    with pytest.raises(RecoveryFailedError,
                       match="^l'=2: factoring failed: no exact integer root located$") as info:
        recover_histogram(law, ProblemParams(8, 2, 0.9))
    assert info.value.diagnostics["ell_primes"] == [
        {"ell_prime": lp, "reason": "factoring failed: no exact integer root located"}
        for lp in (1, 2)
    ]


def test_failure_records_every_l_prime_in_order():
    # the probe's (8, 3, 0.9) instance, seed 0, at 10^4 traces: l' = 1 and
    # 2 fail validation and l' = 3 the coefficient solve; one record per
    # l', each with its reason, and the message names l' = 3's
    probe = _envelope_probe()
    truth = probe.random_instance(8, 3, 0)
    with pytest.raises(RecoveryFailedError) as info:
        recover_from_channel(truth, ProblemParams(8, 3, 0.9), RecoveryConfig(10**4, 0))
    records = info.value.diagnostics["ell_primes"]
    assert [r["ell_prime"] for r in records] == [1, 2, 3]
    assert [r["reason"].split(":")[0] for r in records] == [
        "moment validation failed", "moment validation failed", "coefficient recovery failed"]
    assert "support" not in records[2]
    assert str(info.value) == f"l'=3: {records[2]['reason']}"


def test_small_p_moment_estimates_are_unbiased():
    # recovery runs the estimator at the true p, however small; at p = 0.12,
    # below half of 8^(-1/2), E[g_m] still equals P^m on the recovery grid
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = BitString(tuple(int(b) for b in rng.integers(0, 2, 8)))
        grid = default_grid()
        got = exact_g_expectation(x, grid, 3, 0.12)
        for z, row in zip(grid.tolist(), got):
            for m in (1, 2, 3):
                assert abs(row[m - 1] - eval_poly(x, z) ** m) <= 1e-9


def test_exhaustive_distinguisher_exact_single():
    d = SparseDistribution((BitString.from_string("0110"),), (1.0,))
    grid = unit_roots(9)
    est = exact_moments(d, grid, 3)
    out = exhaustive_distinguisher(est, 4, 2, 0.25)
    assert out == d


def test_exhaustive_distinguisher_exact_pair():
    d = SparseDistribution(
        (BitString.from_string("1000"), BitString.from_string("1110")), (0.77, 0.23)
    )
    grid = unit_roots(9)
    est = exact_moments(d, grid, 3)
    out = exhaustive_distinguisher(est, 4, 2, 0.25)
    assert tv_distance(out, d) <= 0.25


def test_exhaustive_distinguisher_margin_zero_with_noise():
    rng = np.random.default_rng(13)
    d = SparseDistribution(
        (BitString.from_string("100"), BitString.from_string("011")), (0.5, 0.5)
    )
    grid = unit_roots(9)
    est = exact_moments(d, grid, 3)
    noise = rng.normal(size=(len(grid), 3, 2))
    est.means[:, 1:] += 1e-3 * (noise[..., 0] + 1j * noise[..., 1])
    with pytest.raises(RecoveryFailedError, match="within margin"):
        exhaustive_distinguisher(est, 3, 2, 0.25)


def test_exhaustive_distinguisher_guards():
    grid = unit_roots(9)
    d = SparseDistribution((BitString((0,) * 9),), (1.0,))
    est = exact_moments(d, grid, 3)
    with pytest.raises(ParameterError):
        exhaustive_distinguisher(est, 9, 2, 0.1)
