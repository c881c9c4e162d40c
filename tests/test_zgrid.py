import math

import numpy as np
import pytest

from delpop.core import ParameterError
from delpop.zgrid import recovery_grid, unit_roots

# odd counts: the one-point grid, the grids the tests use, and the
# recovery grids of the acceptance point and of n = 48, l = 3
COUNTS = [1, 3, 5, 9, 13, 25, 31, 33, 125, 289]


def test_unit_roots_of_order_three():
    grid = unit_roots(3)
    assert len(grid) == 3
    assert np.angle(grid) == pytest.approx([-2 * math.pi / 3, 0.0, 2 * math.pi / 3])


def test_unit_roots_length():
    for count in COUNTS:
        assert len(unit_roots(count)) == count
    assert len(recovery_grid(8, 2)) == 33


def test_unit_roots_contain_one_and_are_conjugate_pairs():
    # row i and row count-1-i are exact conjugates, so each pair costs one evaluation
    for count in COUNTS:
        grid = unit_roots(count)
        assert grid[(count - 1) // 2] == 1.0
        assert np.array_equal(grid[::-1], grid.conj())
        assert np.all(np.abs(np.abs(grid) - 1.0) <= 1e-14)


def test_unit_roots_angles():
    # point j sits at theta = j * 2*pi/count, |j| <= (count - 1) / 2, in
    # increasing angle
    for count in COUNTS:
        j = np.arange(count) - (count - 1) // 2
        assert np.abs(unit_roots(count) - np.exp(2j * np.pi * j / count)).max() <= 1e-14
        assert np.all(np.diff(np.angle(unit_roots(count))) > 0)


def test_grids_are_deterministic():
    for count in COUNTS:
        assert np.array_equal(unit_roots(count), unit_roots(count))


def test_unit_roots_rejections():
    # even, zero, negative and non-int counts
    for count in (24, 2, 0, -3, 5.0, "5", None):
        with pytest.raises(ParameterError, match="positive odd integer"):
            unit_roots(count)
