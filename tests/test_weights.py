import numpy as np
import pytest

import orlicztf as o
from conftest import weight_oracle
from orlicztf import Weight

# unit spacing: sample k of an axis sits at k - 4
GRID = o.make_grid(8, 4.0, 2)
GRIDS = [o.make_grid(8, 4.0), GRID, o.make_grid(4, 2.0, 4)]


def test_constant_one():
    w = Weight.constant_one()
    assert w.is_constant_one
    for grid in GRIDS:
        assert np.array_equal(w.evaluate(grid), np.ones(grid.shape))


def test_polynomial_values():
    w = Weight.polynomial(2.0)
    got = w.evaluate(GRID)
    assert got.shape == GRID.shape
    assert got[5, 6] == 1.0 + 1.0 + 4.0  # the point (1, 2)
    assert got[4, 4] == 1.0  # the origin


def test_exponential_positive_and_radial():
    w = Weight.exponential(1.0)
    vals = w.evaluate(GRID)
    assert np.all(vals >= 1.0) and vals[4, 4] == 1.0
    # x -> -x maps samples 1..7 of each axis onto themselves
    inner = vals[1:, 1:]
    assert np.allclose(inner, inner[::-1, ::-1], rtol=1e-12)
    assert np.allclose(inner, inner.T, rtol=1e-12)


@pytest.mark.parametrize("w", [Weight.constant_one(), Weight.polynomial(1.0),
                               Weight.polynomial(-2.5), Weight.exponential(0.7),
                               Weight.exponential(400.0)],
                         ids=["one", "polynomial1", "polynomial-2.5", "exponential0.7",
                              "exponential400"])
def test_per_axis_sum_equals_the_coordinate_stack(w):
    """|x|^2 summed per axis in axis order gives the values of the weight on
    a meshgrid coordinate stack bit for bit, for fields of 1, 2 and 4 axes;
    an exponential weight that overflows is inf, without a warning."""
    with np.errstate(over="raise"):
        for grid in GRIDS:
            assert np.array_equal(w.evaluate(grid), weight_oracle(w, grid))
