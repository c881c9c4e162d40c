import numpy as np
import pytest

from delpop.core import ParameterError
from delpop.zgrid import arc_grid

# (spacing, count) pairs: the defaults, the grids the tests use, and arcs
# past pi and up to the 2*pi limit
ARCS = [
    (0.5, 3),
    (0.25, 5),
    (0.3, 5),
    (0.4, 9),
    (0.1, 21),
    (0.17, 21),
    (0.35, 21),
    (0.23, 25),
    (0.4, 31),
    (0.07, 33),
    (0.19, 33),
    (0.1, 125),
    (1.0, 1),
]


def test_arc_grid_endpoints_plus_center():
    grid = arc_grid(0.5, 3)
    assert len(grid) == 3
    assert np.angle(grid) == pytest.approx([-0.5, 0.0, 0.5])


def test_arc_grid_count_formula():
    for spacing, count in ARCS:
        assert len(arc_grid(spacing, count)) == count


def test_arc_grid_contains_one_and_is_symmetric():
    # the j < 0 half is the exact conjugate of the j > 0 half
    for spacing, count in ARCS:
        grid = arc_grid(spacing, count)
        assert grid[(count - 1) // 2] == 1.0
        assert np.array_equal(grid[::-1], grid.conj())
        assert np.all(np.abs(np.abs(grid) - 1.0) <= 1e-14)


def test_arc_grid_cap_keeps_points_nearest_zero():
    # point j sits at theta = j * spacing, |j| <= (count - 1) / 2, in
    # increasing angle
    assert np.angle(arc_grid(0.3, 5)) == pytest.approx([-0.6, -0.3, 0.0, 0.3, 0.6])
    for spacing, count in ARCS:
        j = np.arange(count) - (count - 1) // 2
        assert np.abs(arc_grid(spacing, count) - np.exp(1j * j * spacing)).max() <= 1e-14


def test_grids_are_deterministic():
    for spacing, count in ARCS:
        assert np.array_equal(arc_grid(spacing, count), arc_grid(spacing, count))


def test_arc_grid_rejections():
    # even or non-positive counts, non-positive spacings, and arcs whose
    # half-width spacing * (count - 1) / 2 exceeds 2*pi
    for spacing, count in [
        (0.23, 24),
        (0.23, 2),
        (0.23, 0),
        (0.23, -3),
        (0.0, 5),
        (-0.1, 5),
        (float("nan"), 5),
        (0.23, 61),
        (0.4, 33),
        (0.1, 127),
    ]:
        with pytest.raises(ParameterError):
            arc_grid(spacing, count)
