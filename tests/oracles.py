"""Shared independent oracles for the tests.

Everything here recomputes expected values by a different route than the
library (direct enumeration, exact integer polynomial arithmetic) so the
tests compare two independent implementations.
"""

import itertools
import math

import numpy as np

from delpop.core import BitString, ParameterError, SparseDistribution
from delpop.estimator import SINGULAR_TOL, SingularGridPointError


def eval_poly(x: BitString, z: complex) -> complex:
    """P(z; x) = sum_{i=1..n} x_i z^i, by Horner from the top coefficient:
    the scalar reference for `delpop.core.moment_powers`."""
    acc = 0.0 + 0.0j
    for b in reversed(x.bits):
        acc = (acc + b) * z
    return acc


def power_sum(d: SparseDistribution, z: complex, k: int) -> complex:
    """b_k = sum_i a_i P(z; x^(i))^k by `eval_poly`; b_0 equals the weight
    sum (1)."""
    return sum(a * eval_poly(x, z) ** k for x, a in zip(d.support, d.weights))


def compositions(m: int):
    """All 2^(m-1) ordered compositions of m, lexicographic by parts."""
    if m < 1:
        raise ParameterError("m must be >= 1")

    def gen(rem):
        if rem == 0:
            yield ()
            return
        for first in range(1, rem + 1):
            for rest in gen(rem - first):
                yield (first,) + rest

    return list(gen(m))


def multinomial(m: int, parts) -> int:
    """Exact multinomial coefficient m! / (b_1! ... b_k!)."""
    if sum(parts) != m:
        raise ParameterError("parts must sum to m")
    out = math.factorial(m)
    for b in parts:
        out //= math.factorial(b)
    return out


def composition_weights(z: complex, parts, p: float):
    """w_{B,r} = (z^(b_r + ... + b_k) - q) / p for r = 1..k.

    Raises SingularGridPointError when any weight is (near) zero."""
    q = 1.0 - p
    suffix = 0
    w = [0j] * len(parts)
    for r in range(len(parts) - 1, -1, -1):
        suffix += parts[r]
        w[r] = (z ** suffix - q) / p
        if abs(w[r]) < SINGULAR_TOL:
            raise SingularGridPointError(z, suffix)
    return w


def random_bitstring(rng, n):
    return BitString(tuple(int(b) for b in rng.integers(0, 2, n)))


def random_support(rng, n, size):
    seen = set()
    while len(seen) < size:
        seen.add(tuple(int(b) for b in rng.integers(0, 2, n)))
    return tuple(BitString(b) for b in sorted(seen))


def random_distribution(rng, n, ell, min_weight=0.2):
    support = random_support(rng, n, ell)
    w = rng.uniform(min_weight, 1.0, ell)
    w = w / w.sum()
    w = list(float(a) for a in w)
    w[-1] = 1.0 - sum(w[:-1])
    return SparseDistribution(support, tuple(w))


def poly_mul(a, b):
    """Exact integer polynomial product, ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_add(a, b):
    m = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(m)
    ]


def bit_poly(x):
    """P(z; x) as an ascending integer coefficient list (constant term 0)."""
    return [0] + [int(b) for b in x.bits]


def exact_sigma_coeffs(support, k, n):
    """Coefficients of sigma_k over the support, exact, padded to k*n + 1."""
    polys = [bit_poly(x) for x in support]
    total = [0]
    for comb in itertools.combinations(range(len(polys)), k):
        term = [1]
        for t in comb:
            term = poly_mul(term, polys[t])
        total = poly_add(total, term)
    total = total + [0] * (k * n + 1 - len(total))
    return tuple(total[: k * n + 1])


def f_sum_naive(bits, w):
    """Direct enumeration of the gap-weighted chain sum over index tuples."""
    n = len(bits)
    k = len(w)
    total = 0.0 + 0.0j
    for idx in itertools.combinations(range(1, n + 1), k):
        if any(bits[i - 1] == 0 for i in idx):
            continue
        term = 1.0 + 0.0j
        prev = 0
        for r, i in enumerate(idx):
            term *= w[r] ** (i - prev)
            prev = i
        total += term
    return total


def f_sum_rows(X, w):
    """The chain sum f(x~, w) per row of X by the row-major prefix
    recurrence: column j of S_{r-1} is read and then overwritten with
    column j of S_r.  A reference for the library's transposed kernel."""
    N, n = X.shape
    if len(w) > n:
        return np.zeros(N, dtype=complex)
    S = X * np.cumprod(np.full(n, w[0], dtype=complex))[None, :]
    for wr in w[1:]:
        acc = np.zeros(N, dtype=complex)
        for j in range(n):
            chained = X[:, j] * acc
            acc = (acc + S[:, j]) * wr
            S[:, j] = chained
    return S.sum(axis=1)


def law_dict(hist):
    """A trace law (or any TraceHistogram) as {padded row tuple: weight}."""
    return dict(zip(map(tuple, hist.rows.tolist()), hist.weights.tolist()))


def law_tv(a, b) -> float:
    """Total-variation distance between two trace laws over the same n."""
    da, db = law_dict(a), law_dict(b)
    return 0.5 * math.fsum(abs(da.get(r, 0.0) - db.get(r, 0.0)) for r in da.keys() | db.keys())


def g_rows(rows, z, k_max, p):
    """g_1..g_{k_max} at z of each row, as a (rows, k_max) array, by the
    paper's sum over compositions (module docstring of `delpop.estimator`),
    built on `f_sum_rows`."""
    G = np.zeros((len(rows), k_max), dtype=complex)
    for m in range(1, k_max + 1):
        for parts in compositions(m):
            w = composition_weights(z, parts, p)
            expo = sum((r + 1) * b for r, b in enumerate(parts))
            coef = multinomial(m, parts) * p ** (-len(parts)) * z ** expo / np.prod(w)
            G[:, m - 1] += coef * f_sum_rows(rows, w)
    return G


def g_moments_rows(rows, weights, z, k_max, p):
    """Weighted means of `g_rows` over the rows and their covariance."""
    G = g_rows(rows, z, k_max, p)
    means = weights @ G
    D = G - means
    return means, (D.T * weights) @ D.conj()


def elementary_symmetric(values, k):
    return sum(
        np.prod(c) for c in itertools.combinations([complex(v) for v in values], k)
    )


def exact_sigma(d, z) -> tuple:
    """sigma_1..sigma_l of the mixture d at z: the elementary symmetric
    values of the P(z; x) over its support."""
    u = [eval_poly(x, z) for x in d.support]
    return tuple(elementary_symmetric(u, k) for k in range(1, len(u) + 1))


def recurrence_check(b, r) -> float:
    """Residual of the power-sum recurrence b_{k+l} = sum_j r_j b_{k+l-j}
    over 0 <= k <= l-1."""
    b = [complex(v) for v in b]
    r = [complex(v) for v in r]
    lp = len(r)
    if len(b) != 2 * lp:
        raise ParameterError("need len(b) = 2 * len(r)")
    worst = 0.0
    for k in range(lp):
        pred = sum(r[j - 1] * b[k + lp - j] for j in range(1, lp + 1))
        worst = max(worst, abs(b[k + lp] - pred))
    return worst


def sigma_to_recurrence(sigma) -> tuple:
    """Recurrence coefficients r_j = (-1)^(j-1) sigma_j."""
    return tuple((-1) ** j * complex(s) if j % 2 else complex(s) for j, s in enumerate(sigma))
