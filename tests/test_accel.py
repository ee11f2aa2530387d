"""Edge cases of the numpy kernels in ``sgcp._accel``."""

import math
import warnings

import numpy as np
import pytest

from sgcp._accel import (interp_apply, interp_stencil, sgcp_suffstats, sigmoid,
                         trapezoid_weights)


def _two_branch_sigmoid(x):
    # the stable textbook form: exp only ever sees -|x|
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def test_sigmoid_extreme_arguments():
    x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    with np.errstate(over="raise"):
        s = sigmoid(x)
    assert s[0] == 0.0 and s[-1] == 1.0  # saturates without overflow


def test_sigmoid_matches_two_branch_formula():
    x = np.linspace(-800.0, 800.0, 20001)
    np.testing.assert_allclose(sigmoid(x), _two_branch_sigmoid(x), rtol=0.0, atol=4e-16)


@pytest.mark.parametrize("dim, resolution", [(1, 64), (2, 16), (3, 5)])
def test_interp_apply_matches_corner_loop(dim, resolution):
    rng = np.random.default_rng(dim)
    stencil = interp_stencil(dim, resolution, rng.random((300, dim)))
    values = rng.standard_normal(resolution**dim)
    flat, w = stencil
    want = np.zeros(flat.shape[1])
    for corner in range(flat.shape[0]):
        want += w[corner] * values[flat[corner]]
    np.testing.assert_array_equal(interp_apply(values, stencil), want)


def test_suffstats_underflow_at_a_data_point_is_minus_inf():
    # sigmoid(-800) underflows to exactly 0; its log must read -inf, quietly
    g = np.full(8, -800.0)
    g[:2] = 0.0
    stencil = interp_stencil(1, 8, np.array([[0.0], [0.9]]))
    weights = trapezoid_weights(1, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sum_log, int_s = sgcp_suffstats(g, weights, stencil)
    assert sum_log == -math.inf
    assert int_s == float(weights @ sigmoid(g))


def test_suffstats_nan_field_is_minus_inf():
    g = np.zeros(8)
    g[7] = math.nan
    stencil = interp_stencil(1, 8, np.array([[0.99]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sum_log, _ = sgcp_suffstats(g, trapezoid_weights(1, 8), stencil)
    assert sum_log == -math.inf


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
