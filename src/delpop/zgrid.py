"""Evaluation grids: roots of unity.

A grid is a complex array of points e^{i*j*spacing}, |j| <= (count-1)/2,
in increasing angle.  On |z| = 1 every composition weight of the
estimator satisfies |w| = |z^s - q| / p >= (1 - q) / p = 1, so no grid
point is singular.  Row i and row count-1-i are an exact conjugate pair.

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


def _check_count(count) -> None:
    if not (isinstance(count, int) and count >= 1 and count % 2 == 1):
        raise ParameterError(f"grid point count must be a positive odd integer, got {count!r}")


def arc_grid(spacing: float, count: int) -> np.ndarray:
    """The count points e^{i*j*spacing}, j = -(count-1)/2 .. (count-1)/2,
    as a complex array in increasing angle.  count must be odd and the
    arc's half-width spacing*(count-1)/2 at most 2*pi."""
    _check_count(count)
    if not spacing > 0:
        raise ParameterError(f"grid spacing must be positive, got {spacing!r}")
    half = (count - 1) // 2
    if spacing * half > 2.0 * math.pi:
        raise ParameterError(
            f"arc half-width {spacing * half:.4g} exceeds 2*pi; use fewer points or a finer spacing"
        )
    upper = [complex(math.cos(j * spacing), math.sin(j * spacing)) for j in range(1, half + 1)]
    return np.array([z.conjugate() for z in reversed(upper)] + [1.0 + 0.0j] + upper)


def unit_roots(count: int) -> np.ndarray:
    """The count-th roots of unity for an odd count, as
    `arc_grid(2*pi/count, count)` orders them: 1 at the centre, conjugate
    pairs at rows i and count-1-i."""
    _check_count(count)
    return arc_grid(2.0 * math.pi / count, count)


def recovery_grid(n: int, ell: int) -> np.ndarray:
    """The grid of `recover` and `distinguish` on n-bit strings at sparsity
    bound ell: the (2*ell*n + 1)-th roots of unity."""
    return unit_roots(2 * ell * n + 1)
