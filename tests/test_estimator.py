import cmath
import math

import numpy as np
import pytest

from delpop.channel import ChannelConfig, sample_trace_batch
from delpop.core import BitString, ParameterError, ProblemParams, SparseDistribution
from delpop import estimator
from delpop.estimator import (
    CHUNK,
    HIST_ROWS,
    STACK_ROWS,
    SingularGridPointError,
    TraceHistogram,
)
from delpop.oracle import exact_g_expectation, exact_mixture_trace_law, exact_moments
from delpop.zgrid import unit_roots
from oracles import (
    composition_weights,
    compositions,
    eval_poly,
    f_sum_naive,
    f_sum_rows,
    g_moments_rows,
    g_rows,
    multinomial,
    random_bitstring,
)


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


def _rows(*traces):
    return np.array(traces, dtype=np.int8)


def _moments(hist, zs, k_max, p, covariance=True):
    """The means of g_1..g_{k_max} at the points zs and their covariances
    (None without `covariance`), as `estimates` gives them on the
    conjugate-symmetric grid of zs and their conjugates, whose first half,
    zs, is all it sweeps."""
    zs = np.asarray(zs, dtype=complex)
    est = hist.estimates(np.concatenate([zs, zs[::-1].conj()]), k_max, p, covariance)
    return est.means[: len(zs), 1:], None if est.cov is None else est.cov[: len(zs)]


def _g_each_row(rows, z, k_max, p):
    """g_1..g_{k_max} at z of each row alone, from one-row histograms."""
    return np.array([_moments(TraceHistogram(row[None], np.ones(1)), [z], k_max, p)[0][0] for row in rows])


def test_f_sum_examples():
    # trace 110, k=2, w=(2,3): only chain (1,2) contributes 2^1 * 3^1
    got = f_sum_rows(_rows((0, 0, 0), (1, 1, 0)), (2.0, 3.0))
    assert got == pytest.approx([0.0, 6.0])
    assert f_sum_rows(_rows((1, 1, 1)), (1.0,)) == pytest.approx([3.0])


def test_f_sum_k_exceeds_n():
    assert np.array_equal(f_sum_rows(_rows((1, 1)), (2.0, 2.0, 2.0)), [0])


def test_f_sum_zero_weight_entry():
    bits = (1, 0, 1, 1)
    w = (0.0, 2.0)
    got = f_sum_rows(_rows(bits), w)[0]
    assert got == pytest.approx(f_sum_naive(bits, w))


def test_f_sum_transposed_rows_k_above_n_and_zero_weight():
    rows = _rows((1, 0, 1, 1), (0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 0))
    assert np.array_equal(f_sum_rows(rows, (2.0,) * 5), np.zeros(4))
    for w in ((0.0, 2.0), (1.5, 0.0), (0.5 + 1j, 0.0, -1.0)):
        got = f_sum_rows(rows, w)
        for bits, value in zip(rows.tolist(), got):
            assert value == pytest.approx(f_sum_naive(bits, w), abs=1e-12)


def test_g_moments_match_row_major_reference_at_benchmark_scale():
    # n = 48, 2 000 distinct rows, k_max = 5: the size of one estimate-n48-l3 point
    rng = np.random.default_rng(53)
    rows = rng.integers(0, 2, size=(2000, 48)).astype(np.int8)
    hist = TraceHistogram(rows, rng.dirichlet(np.ones(len(rows))))
    p = 0.7
    for z in unit_roots(13).tolist()[:6:2]:
        [means], [cov] = _moments(hist, [z], 5, p)
        want_means, want_cov = g_moments_rows(rows, hist.weights, z, 5, p)
        assert np.all(np.abs(means - want_means) <= 1e-12 * np.abs(want_means))
        assert np.max(np.abs(cov - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))


def test_g_moments_k_max_above_n():
    rows = _rows((1, 0, 1), (0, 1, 1), (1, 1, 0))
    hist = TraceHistogram(rows, np.array([0.5, 0.3, 0.2]))
    z = cmath.exp(-0.4j)
    [means], [cov] = _moments(hist, [z], 5, 0.6)
    want_means, want_cov = g_moments_rows(rows, hist.weights, z, 5, 0.6)
    assert means == pytest.approx(want_means, rel=1e-12)
    assert cov == pytest.approx(want_cov, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9, 13, 16, 17, 48])
@pytest.mark.parametrize("p", [0.12, 0.3, 0.5, 0.9])
def test_g_moments_sweep_matches_composition_sum(n, p):
    # every k_max from 1 to 6 (above n for n = 1, 3), full and partial last
    # chunks, an all-zero row, rows that share every chunk but the first,
    # and arc points and points inside and outside the unit circle
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 2, size=(30, n)).astype(np.int8)
    rows[0] = 0
    rows[1:17] = rows[1]
    rows[1:17, :CHUNK] = ((np.arange(16)[:, None] >> np.arange(CHUNK - 1, -1, -1)) & 1)[:, :n]
    rows = np.unique(rows, axis=0)
    hist = TraceHistogram(rows, rng.dirichlet(np.ones(len(rows))))
    zs = (cmath.exp(-0.4j), cmath.exp(1.3j), 0.7 * cmath.exp(0.3j), 1.15 * cmath.exp(-1.1j), 0.5 + 0.2j)
    for z in zs:
        want_means, want_cov = g_moments_rows(rows, hist.weights, z, 6, p)
        for k_max in range(1, 7):
            [means], [cov] = _moments(hist, [z], k_max, p)
            want_c = want_cov[:k_max, :k_max]
            assert np.all(np.abs(means - want_means[:k_max]) <= 1e-12 * np.abs(want_means[:k_max]))
            assert np.max(np.abs(cov - want_c)) <= 1e-12 * np.max(np.abs(want_c))


def _assert_matches_oracle(hist, z, k_max, p):
    [means], [cov] = _moments(hist, [z], k_max, p)
    want_means, want_cov = g_moments_rows(hist.rows, hist.weights, z, k_max, p)
    assert np.all(np.abs(means - want_means) <= 1e-12 * np.abs(want_means))
    assert np.max(np.abs(cov - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))


def test_sweep_matches_composition_sum_on_edge_rows():
    # padded channel rows (p = 0.3 leaves long trailing zero runs), then an
    # all-zero row, a single 1 at position 1 and at position n, and an
    # all-ones row, given in ascending order of 1-count where the trie
    # numbers its leaves by pattern: a sweep that did not map each row to
    # its leaf would pair each row's g with another row's weight
    n, p = 16, 0.3
    d = SparseDistribution((BitString.from_string("1101011101101011"),), (1.0,))
    bits = sample_trace_batch(d, ChannelConfig(p), 40, np.random.default_rng(59))
    edge = np.zeros((4, n), dtype=np.int8)
    edge[1, 0] = edge[2, n - 1] = 1
    edge[3] = 1
    rows = np.concatenate([edge[:3], bits, edge[3:]])
    rows = rows[np.argsort(rows.sum(axis=1), kind="stable")]
    assert rows[:, n // 2 :].sum(axis=1).min() == 0  # some long trailing zero runs
    hist = TraceHistogram(rows, np.random.default_rng(61).dirichlet(np.ones(len(rows))))
    for z in (cmath.exp(-0.4j), cmath.exp(2.1j), 0.8 * cmath.exp(0.3j)):
        _assert_matches_oracle(hist, z, 5, p)


def test_sweep_k_max_above_every_row_count():
    rows = _rows((0, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (1, 1, 0, 1, 0, 0))
    hist = TraceHistogram(rows, np.array([0.1, 0.2, 0.3, 0.4]))
    for z in (cmath.exp(-1.1j), cmath.exp(0.5j)):
        _assert_matches_oracle(hist, z, 6, 0.7)


def test_g_moments_stack_of_points_matches_one_point_at_a_time():
    # one sweep over an array of points gives each point's single-point
    # results
    rng = np.random.default_rng(211)
    rows = np.unique(rng.integers(0, 2, size=(40, 11)).astype(np.int8), axis=0)
    hist = TraceHistogram(rows, rng.dirichlet(np.ones(len(rows))))
    p = 0.7
    zs = [cmath.exp(-1.2j), 0.9 + 0.1j, cmath.exp(0.3j)]
    means, cov = _moments(hist, zs, 4, p)
    for i, z in enumerate(zs):
        [one_means], [one_cov] = _moments(hist, [z], 4, p)
        assert np.all(np.abs(means[i] - one_means) <= 1e-12 * np.abs(one_means))
        assert np.max(np.abs(cov[i] - one_cov)) <= 1e-12 * np.max(np.abs(one_cov))


def test_real_points_have_real_moments():
    # at real z every transfer matrix is real, so the sweep's Im rows stay
    # 0 and the means and covariance come out real to the last bit; z = 1
    # is the centre of every grid
    rng = np.random.default_rng(401)
    rows = np.unique(rng.integers(0, 2, size=(300, 21)).astype(np.int8), axis=0)
    assert len(rows) >= 295
    hist = TraceHistogram(rows, rng.dirichlet(np.ones(len(rows))))
    p = 0.7
    zs = np.array([1.0, 0.6, -0.8])
    means, cov = _moments(hist, zs, 5, p)
    only, _ = _moments(hist, zs, 5, p, covariance=False)
    assert np.all(means.imag == 0.0) and np.all(cov.imag == 0.0) and np.all(only.imag == 0.0)
    for i, z in enumerate(zs.tolist()):
        want_means, want_cov = g_moments_rows(rows, hist.weights, z, 5, p)
        for got in (means[i], only[i]):
            assert np.all(np.abs(got - want_means) <= 1e-12 * np.abs(want_means))
        assert np.max(np.abs(cov[i] - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 8, 9, 12, 16, 21, 48])
def test_g_means_match_g_moments(n):
    # a directly built histogram: unsorted rows, unequal weights, rows that
    # share their bits from 8 on but not their first byte and rows that
    # share their first byte only; a stack of points on, inside and outside
    # the unit circle, and one of them alone
    rng = np.random.default_rng(300 + n)
    rows = rng.integers(0, 2, size=(60, n)).astype(np.int8)
    rows[:20, 8:] = rows[0, 8:]
    rows[20:40, :8] = rows[20, :8]
    rows = np.unique(rows, axis=0)
    rows = rows[rng.permutation(len(rows))]
    hist = TraceHistogram(rows, rng.dirichlet(np.ones(len(rows))))
    p = 0.7
    zs = np.array([cmath.exp(-0.4j), cmath.exp(2.6j), 0.8 * cmath.exp(0.3j),
                   1.15 * cmath.exp(-1.1j), 0.5 + 0.2j, 1.0 + 0j])
    for k_max in range(1, 7):
        want, _ = _moments(hist, zs, k_max, p)
        got, _ = _moments(hist, zs, k_max, p, covariance=False)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        [one], _ = _moments(hist, zs[3:4], k_max, p, covariance=False)
        assert np.all(np.abs(one - want[3]) <= 1e-12 * np.abs(want[3]))


def test_g_moments_and_g_means_share_one_trie(monkeypatch):
    # the means stop at bit 8 and the covariance sweep extends that same
    # plan by its last two levels: whichever runs first, a histogram builds
    # each level once
    built = []

    def counted(rows, stop, top=None):
        out = plan(rows, stop, top)
        built.append(len(out.levels) - (len(top.levels) if top else 0))
        return out

    plan = estimator._trie_plan
    monkeypatch.setattr(estimator, "_trie_plan", counted)
    rng = np.random.default_rng(17)
    rows = np.unique(rng.integers(0, 2, size=(30, 20)).astype(np.int8), axis=0)
    weights = rng.dirichlet(np.ones(len(rows)))
    p = 0.7
    zs = np.exp(-1j * np.arange(1, 4))
    for covariance_first in (True, False):
        built.clear()
        hist = TraceHistogram(rows, weights)
        if covariance_first:
            want, _ = _moments(hist, zs, 3, p)
            got, _ = _moments(hist, zs, 3, p, covariance=False)
        else:
            got, _ = _moments(hist, zs, 3, p, covariance=False)
            want, _ = _moments(hist, zs, 3, p)
        assert built == [3, 2] and len(hist._plan.levels) == 5
        assert all(a is b for a, b in zip(hist._plan.levels, hist._byte_plan.levels))
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_g_moments_sum_the_weights_of_duplicate_rows():
    # duplicate rows share one trie leaf, which carries their summed weight
    rng = np.random.default_rng(67)
    X = rng.integers(0, 2, size=(25, 9)).astype(np.int8)
    X[3] = 0
    X = np.concatenate([X, X[[3, 7, 3, 20]]])
    weights = rng.dirichlet(np.ones(len(X)))
    hist = TraceHistogram(X, weights)
    p = 0.6
    for z in (cmath.exp(-0.7j), 1.1 * cmath.exp(0.4j)):
        for k_max in (1, 3, 6):
            [means], [cov] = _moments(hist, [z], k_max, p)
            want_means, want_cov = g_moments_rows(X, weights, z, k_max, p)
            assert np.all(np.abs(means - want_means) <= 1e-12 * np.maximum(1.0, np.abs(want_means)))
            assert np.max(np.abs(cov - want_cov)) <= 1e-12 * max(1.0, np.max(np.abs(want_cov)))


def test_singular_point_rule_per_order():
    # at z = sqrt(q) only W(2) = (z^2 - q)/p vanishes: g_1 is defined, g_2 is not
    p, z = 0.75, 0.5 + 0j
    X = _rows((1, 0, 1, 1, 0), (0, 1, 1, 0, 1), (0, 0, 0, 0, 0))
    w = (z - (1 - p)) / p
    want = z / (p * w) * (X * w ** np.arange(1, 6)).sum(axis=1)
    assert _g_each_row(X, z, 1, p)[:, 0] == pytest.approx(want, rel=1e-14)
    hist = TraceHistogram(X, np.full(3, 1 / 3))
    with pytest.raises(SingularGridPointError) as err:
        _moments(hist, [z], 2, p)
    assert err.value.s == 2
    with pytest.raises(ParameterError):
        _moments(hist, [z], 0, p)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 10, 12, 15, 16, 17, 48, 63, 64, 65, 100])
def test_histogram_rows_at_every_key_width(n):
    # integer keys of 1, 2, 4 and 8 bytes, byte-string keys above 64 bits,
    # and the two overlapping word reads of 8 < n < 16
    rng = np.random.default_rng(n)
    distinct = rng.integers(0, 2, size=(25, n)).astype(np.int8)
    rows = distinct[rng.integers(0, len(distinct), size=400)]
    hist = TraceHistogram.from_batches([rows[:150], rows[150:151], rows[151:]], n, len(rows))
    want, counts = np.unique(rows, axis=0, return_counts=True)
    assert hist.rows.dtype == np.int8
    assert np.array_equal(hist.rows, want)
    assert np.array_equal(hist.weights, counts / len(rows))
    assert hist.count == len(rows)


@pytest.mark.parametrize("n", [17, 33, 48, 65])
def test_histogram_merges_batches_of_wide_rows_as_unique_does(n):
    # batches that repeat earlier keys, bring new ones, are empty, or hold
    # one row; a lone batch, and many batches of the same rows
    rng = np.random.default_rng(900 + n)
    distinct = rng.integers(0, 2, size=(300, n)).astype(np.int8)
    rows = distinct[rng.integers(0, len(distinct), size=2000)]
    rows[:500] = distinct[rng.integers(0, 20, size=500)]
    sizes = [[2000], [500, 1500], [1, 0, 40, 900, 1, 1058], [7] * 285 + [5],
             list(rng.multinomial(2000, np.ones(30) / 30))]
    want, counts = np.unique(rows, axis=0, return_counts=True)
    for size in sizes:
        batches = np.split(rows, np.cumsum(size)[:-1])
        hist = TraceHistogram.from_batches(batches, n, len(rows))
        assert np.array_equal(hist.rows, want)
        assert np.array_equal(hist.weights, counts / len(rows))
        assert hist.count == len(rows)


def _unequal_batches(n, sizes, seed):
    rng = np.random.default_rng(seed)
    distinct = rng.integers(0, 2, size=(60, n)).astype(np.int8)
    rows = distinct[rng.integers(0, len(distinct), size=sum(sizes))]
    return rows, np.split(rows, np.cumsum(sizes)[:-1])


@pytest.mark.parametrize("n", [8, 16, 17])
def test_histogram_stops_at_limit_inside_a_batch(n):
    # 2^n bins up to 16 bits, the sorted keys at 17
    rows, batches = _unequal_batches(n, [1, 37, 500, 3, 900], n)
    limit = 1 + 37 + 211

    def source():
        yield from batches[:3]
        raise AssertionError("source pulled past the batch that reaches limit")

    hist = TraceHistogram.from_batches(source(), n, limit)
    want, counts = np.unique(rows[:limit], axis=0, return_counts=True)
    assert np.array_equal(hist.rows, want)
    assert np.array_equal(hist.weights, counts / limit)
    assert hist.count == limit


@pytest.mark.parametrize("n", range(1, 17))
def test_histogram_word_keys_match_unique_rows(n):
    # padded one-word (n < 8), exact one-word (8), overlapping two-word
    # (9..15) and disjoint two-word (16) keys; unequal batches, an empty
    # one, a limit inside the last batch pulled, rows with leading zeros, a
    # Fortran-ordered batch, which the 8-byte word views cannot take as is,
    # and a row-strided one
    rows, batches = _unequal_batches(n, [3, 1, 250, 40, 700], 100 + n)
    rows[:30, : (n + 1) // 2] = 0
    rows[30:40] = 0  # the batches are views of rows
    batches[2] = np.asfortranarray(batches[2])
    strided = np.repeat(batches[3], 2, axis=0)[::2]
    assert not strided.flags.c_contiguous
    batches[3] = strided
    batches.insert(1, rows[:0])
    limit = len(rows) - 500
    hist = TraceHistogram.from_batches(batches, n, limit)
    want, counts = np.unique(rows[:limit], axis=0, return_counts=True)
    assert np.array_equal(hist.rows, want)
    assert np.array_equal(hist.weights, counts / limit)
    assert hist.count == limit


@pytest.mark.parametrize("n", [1, 3, 4, 7, 8, 12, 16])
def test_histogram_counts_batches_across_blocks(n):
    # a batch one block and 37 rows long, a Fortran-ordered batch longer
    # than a block, and a limit inside the second block of the last batch
    rng = np.random.default_rng(200 + n)
    sizes = [HIST_ROWS + 37, HIST_ROWS + 1000, 2 * HIST_ROWS]
    rows = rng.integers(0, 2, size=(sum(sizes), n)).astype(np.int8)
    batches = np.split(rows, np.cumsum(sizes)[:-1])
    batches[1] = np.asfortranarray(batches[1])
    limit = sizes[0] + sizes[1] + HIST_ROWS + 123
    hist = TraceHistogram.from_batches(batches, n, limit)
    want, counts = np.unique(rows[:limit], axis=0, return_counts=True)
    assert np.array_equal(hist.rows, want)
    assert np.array_equal(hist.weights, counts / limit)
    assert hist.count == limit
    # the whole batch is checked, not only its first block
    bad = batches[0].copy()
    bad[HIST_ROWS + 5, n - 1] = 2
    with pytest.raises(ParameterError, match="trace bits must be 0 or 1"):
        TraceHistogram.from_batches([bad], n, len(bad))


@pytest.mark.parametrize("n", [8, 16, 17])
def test_histogram_source_exhausted_before_limit(n):
    rows, batches = _unequal_batches(n, [5, 40, 2], n)
    with pytest.raises(ParameterError, match="exhausted after 47 of 48"):
        TraceHistogram.from_batches(iter(batches), n, len(rows) + 1)


def test_histogram_source_of_one_trace_exhausted():
    batch = np.array([(1, 1, 0)], dtype=np.int8)
    with pytest.raises(ParameterError, match="exhausted after 1 of 10"):
        TraceHistogram.from_batches([batch], 3, 10)


@pytest.mark.parametrize("n", [8, 17])
@pytest.mark.parametrize("limit", [0, -5])
def test_histogram_needs_at_least_one_trace(n, limit):
    # refused before the source is read, whether it holds traces or none
    def source():
        raise AssertionError("the source was read")
        yield

    for batches in (source(), [np.zeros((3, n), dtype=np.int8)], []):
        with pytest.raises(ParameterError, match="trace count must be >= 1"):
            TraceHistogram.from_batches(batches, n, limit)


@pytest.mark.parametrize("n", [4, 20])
@pytest.mark.parametrize(
    "dtype, bad", [(np.int64, 257), (np.int64, -255), (float, 0.5), (np.int8, 2), (np.int8, -1)]
)
def test_histogram_rejects_bits_other_than_0_and_1(n, dtype, bad):
    # 257 and -255 wrap to 1 and 0.5 truncates to 0 under an int8 cast
    batch = np.zeros((3, n), dtype=dtype)
    batch[1, :2] = (0, 1)
    batch[1, 2] = bad
    with pytest.raises(ParameterError, match="trace bits must be 0 or 1"):
        TraceHistogram.from_batches([batch], n, len(batch))


@pytest.mark.parametrize("n", [4, 20])
def test_histogram_accepts_0_1_bits_of_any_dtype(n):
    rows = np.random.default_rng(n).integers(0, 2, size=(30, n)).astype(np.int8)
    want = TraceHistogram.from_batches([rows], n, len(rows))
    for dtype in (bool, np.int64, float):
        got = TraceHistogram.from_batches([rows.astype(dtype)], n, len(rows))
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.weights, want.weights)


def test_f_sum_matches_naive_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, 5))
        bits = tuple(int(b) for b in rng.integers(0, 2, n))
        w = [complex(a, b) for a, b in rng.uniform(-1.2, 1.2, (k, 2))]
        got = f_sum_rows(np.array([bits], dtype=np.int8), w)[0]
        want = f_sum_naive(bits, w)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_g_at_z_one_counts_retained_ones():
    # m=1, z=1: w = 1 and g_1 = (number of retained ones) / p
    p = 0.5
    assert _g_each_row(_rows((1, 1, 0)), 1.0, 1, p)[:, 0] == pytest.approx([4.0])
    rng = np.random.default_rng(23)
    rows = np.sort(rng.integers(0, 2, (20, 6)), axis=1)[:, ::-1].astype(np.int8)
    got = _g_each_row(rows, 1.0, 1, 0.3)[:, 0]
    assert got == pytest.approx(rows.sum(axis=1) / 0.3)
    # a real z (a Python float) for every order at once
    hist = TraceHistogram(rows, np.full(len(rows), 1 / len(rows)))
    _assert_matches_oracle(hist, 1.0, 3, 0.3)


def test_g_exact_expectations_tiny_cases():
    # x = 101, p = 0.5, z = 1, m = 1: expectation is P(1; x) = 2
    assert exact_g_expectation(BitString.from_string("101"), [1.0], 1, 0.5)[0, 0] == pytest.approx(2.0)
    # x = 11, p = 0.5, z = 1, m = 2: expectation is P(1; x)^2 = 4
    assert exact_g_expectation(BitString.from_string("11"), [1.0], 2, 0.5)[0, 1] == pytest.approx(4.0)


def test_g_unbiasedness_spot_checks():
    rng = np.random.default_rng(29)
    zs = [cmath.exp(1j * t) for t in (-0.7, 0.0, 0.4)]
    for _ in range(10):
        x = random_bitstring(rng, 6)
        for p in (0.4, 0.8):
            got = exact_g_expectation(x, zs, 2, p)
            for z, row in zip(zs, got):
                for m in (1, 2):
                    assert abs(row[m - 1] - eval_poly(x, z) ** m) <= 1e-9


def test_disc_grid_weight_bound():
    # inside |z - (1 - p/m)| <= p/m every composition weight has |w| <= 1;
    # the points are a lattice of pitch p/(4m) around the disc's center
    for p in (0.3, 0.6, 0.9):
        for m in (1, 2, 3):
            c, rho = 1.0 - p / m, p / m
            lattice = [c + complex(a, b) * rho / 4 for a in range(-4, 5) for b in range(-4, 5)]
            for z in [z for z in lattice if abs(z - c) <= rho]:
                for parts in compositions(m):
                    try:
                        w = composition_weights(z, parts, p)
                    except SingularGridPointError:
                        continue
                    assert max(abs(v) for v in w) <= 1.0 + 1e-12


def test_arc_grid_weights_at_least_one():
    # on |z| = 1, |w| = |z^s - q| / p >= (1 - q) / p = 1: no root of unity is singular
    for p in (0.05, 0.5, 0.95):
        for count in (25, 125, 31):
            for z in unit_roots(count).tolist():
                for m in range(1, 6):
                    for parts in compositions(m):
                        w = composition_weights(z, parts, p)
                        assert min(abs(v) for v in w) >= 1.0 - 1e-12


def test_estimates_single_trace():
    grid = unit_roots(3)
    p = 0.7
    batch = np.array([(1, 0, 1, 0)], dtype=np.int8)
    est = TraceHistogram.from_batches([batch], batch.shape[1], 1).estimates(grid, 3, p)
    for i, z in enumerate(grid.tolist()):
        assert est.means[i, 0] == 1.0
        assert est.means[i, 1:] == pytest.approx(g_rows(batch, z, 3, p)[0])


def test_estimates_k0_is_one_and_counts_equal():
    grid = unit_roots(5)
    p = 0.8
    rng = np.random.default_rng(31)
    d = SparseDistribution((BitString.from_string("10110"),), (1.0,))
    bits = sample_trace_batch(d, ChannelConfig(0.8), 2000, rng)
    est = TraceHistogram.from_batches([bits], bits.shape[1], 2000).estimates(grid, 3, p)
    assert est.count == 2000
    assert np.all(est.means[:, 0] == 1.0)


def test_estimates_unbiased_within_5_sigma():
    grid = [1.0 + 0j]
    p = 0.9
    d = SparseDistribution((BitString.from_string("101"),), (1.0,))
    rng = np.random.default_rng(37)
    bits = sample_trace_batch(d, ChannelConfig(0.9), 100_000, rng)
    est = TraceHistogram.from_batches([bits], bits.shape[1], 100_000).estimates(grid, 1, p)
    assert abs(est.means[0, 1] - 2.0) <= 5 * est.stderrs[0, 1]


def test_estimates_raises_on_singular_point():
    # z = q on the real axis makes w vanish for the k=1 composition
    p = 0.5
    hist = TraceHistogram.from_batches([np.array([(1, 1, 0)], dtype=np.int8)], 3, 1)
    with pytest.raises(SingularGridPointError):
        hist.estimates([0.5 + 0j], 1, p)
    est = hist.estimates([1.0 + 0j], 1, p)
    assert est.means[0, 1] == pytest.approx(2 / 0.5)  # z = 1: (retained ones) / p
    with pytest.raises(SingularGridPointError):
        hist.estimates([0.5 + 0j], 1, p, covariance=False)
    est = hist.estimates([1.0 + 0j], 1, p, covariance=False)
    assert est.means[0, 1] == pytest.approx(2 / 0.5)


def test_estimates_rejects_asymmetric_grid():
    p = 0.5
    hist = TraceHistogram.from_batches([np.array([(1, 1, 0)], dtype=np.int8)], 3, 1)
    with pytest.raises(ParameterError):
        hist.estimates([1j, 1.0 + 0j], 1, p)
    with pytest.raises(ParameterError):
        hist.estimates([1j, 1.0 + 0j], 1, p, covariance=False)


def _spy_sweeps(monkeypatch):
    """Record each `_g_sweep` call of the estimator: whether it is a head
    (no start states), its points and the levels it sweeps."""
    calls = []
    sweep = estimator._g_sweep

    def counted(levels, T, start=None):
        calls.append((start is None, len(T), len(levels)))
        return sweep(levels, T, start)

    monkeypatch.setattr(estimator, "_g_sweep", counted)
    return calls


# tail stacks per estimates call of the 2 rows below, whose trie levels have
# 1 and 2 nodes: the default STACK_ROWS fits the whole trie in the head; 1
# fits the 1-node level at one point only; 4 fits both levels at up to 2
# points, and stacks the tail 2 points at a time
_TAIL_STACKS = {(1, STACK_ROWS): 1, (1, 1): 1, (1, 4): 1,
                (3, STACK_ROWS): 1, (3, 1): 2, (3, 4): 1,
                (25, STACK_ROWS): 1, (25, 1): 13, (25, 4): 7}


@pytest.mark.parametrize("count", [1, 3, 25])
def test_estimates_evaluates_one_point_per_conjugate_pair(monkeypatch, count):
    # the transfer matrices of the grid's first half are built once, its
    # head swept once, and its tail in stacks by the head/tail rule
    grid = unit_roots(count)
    half = (count + 1) // 2
    p = 0.8
    batch = np.array([(1, 0, 1, 0), (1, 1, 0, 0)], dtype=np.int8)
    transfer = estimator._transfer_matrices
    for stack_rows in (STACK_ROWS, 1, 4):
        built = []

        def counted(zs, k_max, p):
            built.append(np.array(zs))
            return transfer(zs, k_max, p)

        monkeypatch.setattr(estimator, "_transfer_matrices", counted)
        monkeypatch.setattr(estimator, "STACK_ROWS", stack_rows)
        sweeps = _spy_sweeps(monkeypatch)
        est = TraceHistogram.from_batches([batch], batch.shape[1], 2).estimates(grid, 3, p)
        # the Im z <= 0 member of each pair, each once, in one build
        assert len(built) == 1 and np.array_equal(built[0], grid[:half])
        assert np.all(built[0].imag <= 0)
        heads = [points for head, points, _ in sweeps if head]
        tails = [points for head, points, _ in sweeps if not head]
        assert heads == [half]
        assert sum(tails) == half and len(tails) == _TAIL_STACKS[count, stack_rows]
        assert np.array_equal(est.means[::-1], est.means.conj())


@pytest.mark.parametrize("covariance", [True, False])
def test_narrow_head_and_wide_tail_match_one_point_at_a_time(monkeypatch, covariance):
    # rows whose last 16 bits take 4 values: the levels above bit 12 have
    # at most 4 nodes, the level of chunk 1 up to 1 024, and the leaves
    # more than 3 000; every split of those levels into head and tail gives each
    # point's one-point results, and sweeps the head once per call
    rng = np.random.default_rng(71)
    suffixes = rng.integers(0, 2, size=(4, 16)).astype(np.int8)
    rows = np.concatenate([rng.integers(0, 2, size=(3600, 12)).astype(np.int8),
                           suffixes[rng.integers(0, 4, size=3600)]], axis=1)
    rows = np.unique(rows, axis=0)
    hist = TraceHistogram(rows, rng.dirichlet(np.ones(len(rows))))
    widths = [len(parent) for parent, _ in hist._plan.levels]
    assert len(rows) > 3000 and max(widths[:4]) <= 4
    grid = unit_roots(25)
    p = 0.7
    want = [_moments(hist, [z], 5, p) for z in grid[:13].tolist()]
    levels = len((hist._plan if covariance else hist._byte_plan).levels)
    for stack_rows in (STACK_ROWS, 1, 4, 200):
        monkeypatch.setattr(estimator, "STACK_ROWS", stack_rows)
        sweeps = _spy_sweeps(monkeypatch)
        est = hist.estimates(grid, 5, p, covariance)
        heads = [(points, swept) for head, points, swept in sweeps if head]
        tails = [(points, swept) for head, points, swept in sweeps if not head]
        assert len(heads) == 1 and heads[0][0] == 13
        assert {swept for _, swept in tails} == {levels - heads[0][1]}
        assert sum(points for points, _ in tails) == 13
        for i, (want_means, want_cov) in enumerate(want):
            assert np.all(np.abs(est.means[i, 1:] - want_means) <= 1e-12 * np.abs(want_means))
            if covariance:
                assert np.max(np.abs(est.cov[i] - want_cov)) <= 1e-12 * np.max(np.abs(want_cov))
        if stack_rows == STACK_ROWS and covariance:
            # the levels down to chunk 1 fit at 13 points, and the leaves
            # go 5 points at a time
            assert heads == [(13, levels - 1)] and tails == [(5, 1), (5, 1), (3, 1)]
        elif stack_rows == STACK_ROWS:
            assert heads == [(13, levels)] and tails == [(13, 0)]


def test_estimates_one_point_per_stack_matches_default(monkeypatch):
    rng = np.random.default_rng(47)
    distinct = rng.integers(0, 2, size=(50, 10)).astype(np.int8)
    rows = distinct[rng.integers(0, len(distinct), size=2000)]
    grid = unit_roots(25)
    p = 0.7
    want = TraceHistogram.from_batches([rows], rows.shape[1], len(rows)).estimates(grid, 5, p)
    monkeypatch.setattr(estimator, "STACK_ROWS", 1)
    got = TraceHistogram.from_batches([rows], rows.shape[1], len(rows)).estimates(grid, 5, p)
    assert np.all(np.abs(got.means - want.means) <= 1e-12 * np.abs(want.means))
    for c, w in zip(got.cov, want.cov):
        assert np.max(np.abs(c - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("n", [6, 20])
def test_estimates_means_only(monkeypatch, n):
    # the means of the covariance path, no covariance, no standard errors,
    # in one stack of points and in one point per stack
    rng = np.random.default_rng(59 + n)
    distinct = rng.integers(0, 2, size=(30, n)).astype(np.int8)
    rows = distinct[rng.integers(0, len(distinct), size=900)]
    grid = unit_roots(25)
    p = 0.7
    want = TraceHistogram.from_batches([rows], n, len(rows)).estimates(grid, 5, p)
    for stack_rows in (STACK_ROWS, 1):
        monkeypatch.setattr(estimator, "STACK_ROWS", stack_rows)
        hist = TraceHistogram.from_batches([rows], n, len(rows))
        got = hist.estimates(grid, 5, p, covariance=False)
        assert got.cov is None and got.count == want.count
        assert np.all(np.abs(got.means - want.means) <= 1e-12 * np.abs(want.means))
        with pytest.raises(ParameterError):
            got.stderrs
    batch = np.array([(1, 0, 1, 0, 0, 1), (1, 1, 0, 0, 1, 0)], dtype=np.int8)
    monkeypatch.setattr(estimator, "STACK_ROWS", 4)
    sweeps = _spy_sweeps(monkeypatch)
    TraceHistogram.from_batches([batch], 6, 2).estimates(grid, 3, 0.8, covariance=False)
    # 6-bit rows have no level above bit 8: an empty head and an empty
    # tail, so one stack holds all 13 points
    assert sweeps == [(True, 13, 0), (False, 13, 0)]


def test_estimates_of_a_law_without_a_trace_count_have_no_stderrs():
    d = SparseDistribution((BitString.from_string("10110"),), (1.0,))
    est = exact_mixture_trace_law(d, 0.8).estimates(unit_roots(3), 3, 0.8)
    assert est.count is None
    with pytest.raises(ParameterError, match="no trace count"):
        est.stderrs


def test_estimates_conjugate_symmetry():
    grid = unit_roots(5)
    p = 0.8
    d = SparseDistribution((BitString.from_string("1011"),), (1.0,))
    rng = np.random.default_rng(41)
    bits = sample_trace_batch(d, ChannelConfig(0.8), 3000, rng)
    est = TraceHistogram.from_batches([bits], bits.shape[1], 3000).estimates(grid, 3, p)
    by_theta = {round(cmath.phase(z), 12): i for i, z in enumerate(grid.tolist())}
    for theta, i in by_theta.items():
        mirror = by_theta[-theta]
        assert est.means[i] == pytest.approx(est.means[mirror].conj())
        assert est.cov[i] == pytest.approx(est.cov[mirror].conj())


def test_estimates_histogram_matches_raw_rows():
    grid = unit_roots(5)
    p = 0.7
    rng = np.random.default_rng(43)
    distinct = rng.integers(0, 2, size=(40, 6)).astype(np.int8)
    which = rng.integers(0, 40, size=3000)
    rows = distinct[which]
    est = TraceHistogram.from_batches([rows], rows.shape[1], len(rows)).estimates(grid, 3, p)
    assert est.count == len(rows)
    for i, z in enumerate(grid.tolist()):
        per_row = g_rows(distinct, z, 3, p)[which]
        for k in range(1, 4):
            vals = per_row[:, k - 1]
            mean = vals.mean()
            stderr = math.sqrt(float(np.mean(np.abs(vals - mean) ** 2)) / len(rows))
            assert abs(est.means[i, k] - mean) <= 1e-12 * max(1.0, abs(mean))
            assert abs(est.stderrs[i, k] - stderr) <= 1e-12 * max(1.0, stderr)
    shuffled = rows[rng.permutation(len(rows))]
    batches = [shuffled[:7], shuffled[7:1000], shuffled[1000:]]
    again = TraceHistogram.from_batches(batches, 6, len(rows)).estimates(grid, 3, p)
    assert np.array_equal(again.means, est.means)
    assert np.array_equal(again.cov, est.cov)


def test_moment_json_has_contracted_fields():
    import json

    grid = unit_roots(3)
    # the one-string mixture "1" has power sums z^k
    est = exact_moments(SparseDistribution((BitString.from_string("1"),), (1.0,)), grid, 2)
    recs = json.loads(est.to_json())
    assert len(recs) == 3 * 3
    for rec in recs:
        assert set(rec) == {"z", "k", "mean", "count"}


def test_moment_json_k0_mean_is_positive_one_at_every_point():
    # the mirrored Im z > 0 rows are conjugates of evaluated rows; the k = 0
    # column is the constant 1 and must not become 1 - 0j there
    import json

    p = 0.7
    batch = np.array([(1, 0, 1, 0)], dtype=np.int8)
    est = TraceHistogram.from_batches([batch], batch.shape[1], 1).estimates(unit_roots(3), 1, p)
    k0 = [rec["mean"] for rec in json.loads(est.to_json()) if rec["k"] == 0]
    assert len(k0) == 3
    for re, im in k0:
        assert (re, math.copysign(1.0, im)) == (1.0, 1.0)
