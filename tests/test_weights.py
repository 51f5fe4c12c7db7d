import numpy as np

from orlicztf import Weight

PTS = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.0]])  # three 2-d points, rows


def test_constant_one():
    w = Weight.constant_one()
    assert w.is_constant_one
    assert np.all(w.evaluate(PTS) == 1.0)


def test_polynomial_values():
    w = Weight.polynomial(2.0)
    got = w.evaluate(PTS)
    ref = 1.0 + np.sum(PTS**2, axis=-1)
    assert np.allclose(got, ref, rtol=1e-12)


def test_exponential_positive_and_radial():
    w = Weight.exponential(1.0)
    vals = w.evaluate(PTS)
    assert np.all(vals >= 1.0)
    flipped = w.evaluate(-PTS)
    assert np.allclose(vals, flipped, rtol=1e-12)
