"""Edge cases of the numpy kernels in ``sgcp._accel``."""

import numpy as np
import pytest

from sgcp._accel import sigmoid, trapezoid_weights


def test_sigmoid_extreme_arguments():
    x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    with np.errstate(over="raise"):
        s = sigmoid(x)
    assert s[0] == 0.0 and s[-1] == 1.0  # saturates without overflow


def test_trapezoid_weights_sum_to_one():
    # weights integrate the constant 1 over the unit cube exactly
    for dim, res in ((1, 2), (1, 9), (2, 5), (3, 4)):
        w = trapezoid_weights(dim, res)
        assert w.shape == (res**dim,)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-13)


def test_trapezoid_weights_cached_and_readonly():
    w1 = trapezoid_weights(2, 5)
    w2 = trapezoid_weights(2, 5)
    assert w1 is w2
    with pytest.raises(ValueError):
        w1[0] = 99.0
