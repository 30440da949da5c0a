"""Observed order of accuracy against closed forms on smooth, non-polynomial data.

The radial engine integrates local cubics exactly, so errors fall like
h^4 as n_r doubles.  A single-resolution test can keep passing when the
order drops (one misplaced stencil node at the rim costs an order but
little absolute accuracy at one size); these refinement studies ask for
an observed order of at least 3.5 over the last two doublings.
"""

import numpy as np
import pytest
from scipy.special import expi

from phdisk import GridFunction, cauchy, green_potential, make_grid, w12_norm

N_THETA = 64
N_RS = (32, 64, 128, 256)
MIN_ORDER = 3.5


def gauss(z):
    return np.exp(-np.abs(z) ** 2)


CASES = {
    # C(e^{-|z|^2} z) = e^{-1} - e^{-|z|^2}
    "cauchy_gauss_z": (cauchy, lambda z: gauss(z) * z, lambda z: np.exp(-1.0) - gauss(z)),
    # C(e^{-|z|^2}) = (1 - e^{-|z|^2}) / z
    "cauchy_gauss": (cauchy, gauss, lambda z: (1.0 - gauss(z)) / z),
    # P(e^{-r^2}) = log(r)/2 - Ei(-r^2)/4 + Ei(-1)/4
    "green_gauss": (
        green_potential,
        gauss,
        lambda z: 0.5 * np.log(np.abs(z)) - 0.25 * expi(-np.abs(z) ** 2) + 0.25 * expi(-1.0),
    ),
}


def assert_order(errors):
    errors = np.array(errors)
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all(orders[-2:] >= MIN_ORDER), f"errors {errors}, orders {orders}"


@pytest.mark.parametrize("name", CASES)
def test_observed_order(name):
    op, source, exact = CASES[name]
    errors = []
    for n_r in N_RS:
        z = make_grid(N_THETA, n_r).nodes_z()
        out = op(GridFunction(make_grid(N_THETA, n_r), source(z)))
        errors.append(float(np.max(np.abs(out.values - exact(z)))))
    assert_order(errors)


def test_w12_norm_observed_order():
    # ||f||_2 = sqrt(pi (1 - e^{-2}) / 2) and |d f| = |dbar f| = r e^{-r^2},
    # ||d f||_2 = sqrt(pi (1 - 3 e^{-2}) / 4) for f = e^{-|z|^2}; measured
    # errors 8.8e-7, 5.5e-8, 3.4e-9, 2.1e-10 (order 4.0)
    e2 = np.exp(-2.0)
    exact = np.sqrt(np.pi * (1.0 - e2) / 2.0) + 2.0 * np.sqrt(np.pi * (1.0 - 3.0 * e2) / 4.0)
    errors = []
    for n_r in N_RS:
        g = make_grid(N_THETA, n_r)
        errors.append(abs(w12_norm(GridFunction(g, gauss(g.nodes_z()))) - exact))
    assert_order(errors)
