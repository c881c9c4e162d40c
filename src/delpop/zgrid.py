"""Evaluation grids: roots of unity.

`unit_roots(count)` is the count-th roots of unity for an odd count, the
points e^{i*j*2*pi/count}, |j| <= (count-1)/2, as a complex array in
increasing angle.  Row i and row count-1-i are an exact conjugate pair.
On |z| = 1 every composition weight of the estimator satisfies
|w| = |z^s - q| / p >= (1 - q) / p = 1, so no grid point is singular.

Recovery evaluates on the P-th roots of unity, P = 2*l*n + 1
(`recovery_grid`): every b_k, k <= 2l - 1, and every sigma_k, k <= l, has
degree below P, so its P values fix its coefficients.  The paper's narrow
arc of half-width about 1/L, L ~ (n / (log n * p^2))^(1/3), only loses at
small n: at n = 8, l = 2 and 10^6 traces, arcs of half-width 0.4 to 1.6
rad estimated the sigma_1 coefficients far worse than a 2.76 rad arc at
every p from 0.12 to 0.5.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ParameterError


def unit_roots(count: int) -> np.ndarray:
    """The count-th roots of unity for an odd count, e^{i*j*2*pi/count}
    for j = -(count-1)/2 .. (count-1)/2, as a complex array in increasing
    angle: 1 at the centre, conjugate pairs at rows i and count-1-i."""
    if not (isinstance(count, int) and count >= 1 and count % 2 == 1):
        raise ParameterError(f"grid point count must be a positive odd integer, got {count!r}")
    spacing = 2.0 * math.pi / count
    upper = [complex(math.cos(j * spacing), math.sin(j * spacing))
             for j in range(1, (count - 1) // 2 + 1)]
    return np.array([z.conjugate() for z in reversed(upper)] + [1.0 + 0.0j] + upper)


def recovery_grid(n: int, ell: int) -> np.ndarray:
    """The grid of `recover` and `distinguish` on n-bit strings at sparsity
    bound ell: the (2*ell*n + 1)-th roots of unity."""
    return unit_roots(2 * ell * n + 1)
