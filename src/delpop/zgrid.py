"""Evaluation grids: symmetric arcs on the unit circle.

A grid is a complex array of points e^{i*j*spacing}, |j| <= (count-1)/2,
in increasing angle.  On |z| = 1 every composition weight of the
estimator satisfies |w| = |z^s - q| / p >= (1 - q) / p = 1, so no arc
point is singular.  The j < 0 half is the exact conjugate of the j > 0
half, so row i and row count-1-i are a conjugate pair.

The paper's analysis uses a narrow arc of half-width about 1/L, with
L ~ (n / (log n * p^2))^(1/3).  At small n that arc only loses: at n = 8,
l = 2 and 10^6 traces, arcs of half-width 0.4 to 1.6 rad estimated the
sigma_1 coefficients far worse than a 2.76 rad arc at every p from 0.12
to 0.5.  So spacing and point count are explicit configuration, and the
default arc spans most of the circle.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ParameterError


def arc_grid(spacing: float, count: int) -> np.ndarray:
    """The count points e^{i*j*spacing}, j = -(count-1)/2 .. (count-1)/2,
    as a complex array in increasing angle.  count must be odd and the
    arc's half-width spacing*(count-1)/2 at most 2*pi."""
    if not (isinstance(count, int) and count >= 1 and count % 2 == 1):
        raise ParameterError(f"grid point count must be a positive odd integer, got {count!r}")
    if not spacing > 0:
        raise ParameterError(f"grid spacing must be positive, got {spacing!r}")
    half = (count - 1) // 2
    if spacing * half > 2.0 * math.pi:
        raise ParameterError(
            f"arc half-width {spacing * half:.4g} exceeds 2*pi; use fewer points or a finer spacing"
        )
    upper = [complex(math.cos(j * spacing), math.sin(j * spacing)) for j in range(1, half + 1)]
    return np.array([z.conjugate() for z in reversed(upper)] + [1.0 + 0.0j] + upper)
