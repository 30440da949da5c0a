"""Observed order of accuracy against closed forms on smooth, non-polynomial data.

The radial engine integrates local cubics exactly, so errors fall like
h^4 as n_r doubles.  A single-resolution test can keep passing when the
order drops (one misplaced stencil node at the rim costs an order but
little absolute accuracy at one size); these refinement studies ask for
an observed order of at least 3.5 over the last two doublings.
"""

import numpy as np
import pytest
from helpers import expi_neg

from phdisk import (
    BoundaryFunction,
    GridFunction,
    SolverConfig,
    beurling,
    cauchy,
    cauchy_renormalized,
    green_potential,
    make_grid,
    parametrize_imag,
    parametrize_real,
    reflect_transform,
    solve_conductivity,
    solve_dbar,
    solve_riesz,
    w12_norm,
)

N_THETA = 64
N_RS = (32, 64, 128, 256)
MIN_ORDER = 3.5


def gauss(z):
    return np.exp(-np.abs(z) ** 2)


def green_gauss_exact(z):
    """P(e^{-r^2}) = log(r)/2 - Ei(-r^2)/4 + Ei(-1)/4."""
    return 0.5 * np.log(np.abs(z)) - 0.25 * expi_neg(np.abs(z) ** 2) + 0.25 * expi_neg(1.0)


CASES = {
    # C(e^{-|z|^2} z) = e^{-1} - e^{-|z|^2}
    "cauchy_gauss_z": (cauchy, lambda z: gauss(z) * z, lambda z: np.exp(-1.0) - gauss(z)),
    # C(e^{-|z|^2}) = (1 - e^{-|z|^2}) / z
    "cauchy_gauss": (cauchy, gauss, lambda z: (1.0 - gauss(z)) / z),
    # S(e^{-|z|^2}) = (|z|^2 e^{-|z|^2} - 1 + e^{-|z|^2}) / z^2
    "beurling_gauss": (
        beurling,
        gauss,
        lambda z: (np.abs(z) ** 2 * gauss(z) - 1.0 + gauss(z)) / z**2,
    ),
    # R(e^{-|z|^2} conj(z)) = -(1 - 2/e) z^2
    "reflect_gauss_zbar": (
        reflect_transform,
        lambda z: gauss(z) * np.conj(z),
        lambda z: -(1.0 - 2.0 / np.e) * z**2,
    ),
    # C_2(e^{-|z|^2}) on D_2.5: (1 - e^{-|z|^2}) / z on D, (1 - e^{-1}) / z
    # beyond it; the radii 2.5 j/n_r put every odd target off the nodes
    "cauchy_renormalized_gauss": (
        lambda h: cauchy_renormalized(h, 2.5),
        gauss,
        lambda z: (1.0 - gauss(np.minimum(np.abs(z), 1.0))) / z,
    ),
    "green_gauss": (green_potential, gauss, green_gauss_exact),
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
        errors.append(float(np.max(np.abs(out.values - exact(out.grid.nodes_z())))))
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


def test_solve_dbar_observed_order():
    # a = e^{-|z|^2}, psi = Re e^{e^{i theta}}, lambda = 1, theta0 = 0.3:
    # A = C(a) + e^{-2i theta0} R(a) + e^{-i theta0} H with C(a) = (1 -
    # e^{-|z|^2})/z, R(a) = -(1 - 1/e) z (R is conjugate-linear) and H =
    # e^z + i/2pi; measured errors 6.6e-8, 3.8e-9, 2.6e-10, 1.7e-11
    theta0, lam = 0.3, 1.0
    errors = []
    for n_r in N_RS:
        g = make_grid(N_THETA, n_r)
        z = g.nodes_z()
        psi = BoundaryFunction(np.exp(np.exp(1j * g.thetas)).real)
        A, _ = solve_dbar(GridFunction(g, gauss(z)), psi, lam, theta0)
        H = np.exp(z) + 1j * lam / (2.0 * np.pi)
        exact = (1.0 - gauss(z)) / z - np.exp(-2j * theta0) * (1.0 - 1.0 / np.e) * z + np.exp(-1j * theta0) * H
        errors.append(float(np.max(np.abs(A.values - exact))))
    assert_order(errors)


# Constant coefficient, kappa up to 3: w = e^{2 kappa x} is real and solves
# dbar w = kappa conj(w) with Re w = e^{2 kappa cos theta} on T and
# int_T Im w = 0.  The factorization iteration stalled or failed to
# contract at kappa = 2 and 3; the linear solve takes 17, 26, 46 and 67
# operator applications at every mesh.
KAPPAS = (0.5, 1.0, 2.0, 3.0)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_constant_coefficient_riesz_observed_order(kappa):
    errors = []
    for n in (64, 128, 256):
        g = make_grid(n, n)
        psi = BoundaryFunction(np.exp(2.0 * kappa * np.cos(g.thetas)))
        cfg = SolverConfig(tol=1e-12)
        w, _, _ = solve_riesz(GridFunction.constant(g, kappa), psi, 0.0, cfg)
        exact = np.exp(2.0 * kappa * g.nodes_z().real)
        errors.append(float(np.max(np.abs(w.values - exact))) / np.exp(2.0 * kappa))
    assert_order(errors)


# Critical exponent r = 2.  With L = log(e/|z|), w = L^t is real and solves
# dbar w = alpha conj(w) for alpha = dbar w / w = -t e^{i theta}/(2 |z| L),
# which lies in L^2 and in no L^{2+eps}; Re w = 1 on T and int_T Im w = 0.
# The matching conductivity sigma = L^{2t} (unbounded, not strictly
# elliptic) has the exact solution u = 1 for psi = 1.  The observed order is
# gated on |z| >= 0.1; the largest error over the whole grid sits near the
# singular origin and falls only slowly (t = 1/2, Riesz: 8.0e-4, 7.3e-4,
# 6.7e-4), so it is printed, not asserted.
CRITICAL_TS = (0.5, 1.0, 2.0, 4.0)
CRITICAL_NS = (64, 128, 256)
AWAY = 0.1


def critical_study(t, solve):
    """Errors on |z| >= AWAY and over the whole grid, one per resolution;
    solve(grid, L) returns the pointwise error of one solve."""
    away, whole = [], []
    for n in CRITICAL_NS:
        g = make_grid(n, n)
        err = solve(g, np.log(np.e / np.abs(g.nodes_z())))
        away.append(float(np.max(err[g.radii >= AWAY])))
        whole.append(float(np.max(err)))
    print(f"t = {t}: whole-grid max errors {whole}")
    return away


@pytest.mark.parametrize("t", CRITICAL_TS)
def test_critical_riesz_observed_order(t):
    def solve(g, L):
        z = g.nodes_z()
        alpha = GridFunction(g, -t * z / (2.0 * np.abs(z) ** 2 * L))
        w, _, _ = solve_riesz(alpha, BoundaryFunction(np.ones(g.n_theta)), 0.0)
        return np.abs(w.values - L**t) / L**t

    assert_order(critical_study(t, solve))


@pytest.mark.parametrize("t", CRITICAL_TS)
def test_critical_conductivity_observed_order(t):
    def solve(g, L):
        sigma = GridFunction(g, L ** (2.0 * t))
        u, _, _, _ = solve_conductivity(sigma, BoundaryFunction(np.ones(g.n_theta)))
        return np.abs(u.values - 1.0)

    assert_order(critical_study(t, solve))


# Both parametrizations on a non-polynomial exponent: F = 1 and
# s = a e^x + i(b sin y + c |z|^2 e^x), alpha = dbar s e^{2i Im s}.  The
# fixed point resolves polynomial s almost exactly, so only data like this
# can show an order drop.  Measured relative W^{1,2} orders 4.07, 4.04,
# 4.02 (parametrize_imag, 16 steps) and 4.12, 4.07, 4.04 (parametrize_real,
# 28 steps).
PARAM_ABC = (0.3, 0.4, 0.3)
PARAM_NS = (32, 64, 128, 256)


def param_exponent(z):
    """(s, alpha) of the family at the nodes z."""
    a, b, c = PARAM_ABC
    x, y = z.real, z.imag
    ex, r2 = np.exp(x), np.abs(z) ** 2
    im_s = b * np.sin(y) + c * r2 * ex
    dbar_s = 0.5 * (a * ex - b * np.cos(y) - 2.0 * c * y * ex + 1j * c * ex * (2.0 * x + r2))
    return a * ex + 1j * im_s, dbar_s * np.exp(2j * im_s)


@pytest.mark.parametrize("imag", [True, False], ids=["imag", "real"])
def test_parametrization_observed_order(imag):
    # tr Im s = b sin(sin t) + c e^{cos t} with int_T Re s = 2 pi a I0(1),
    # or tr Re s = a e^{cos t} with int_T Im s = 2 pi c I0(1)
    a, b, c = PARAM_ABC
    errors = []
    for n in PARAM_NS:
        g = make_grid(n, n)
        s_exact, alpha = param_exponent(g.nodes_z())
        if imag:
            psi = BoundaryFunction.from_function(n, lambda t: b * np.sin(np.sin(t)) + c * np.exp(np.cos(t)))
            solve, lam = parametrize_imag, 2.0 * np.pi * a * np.i0(1.0)
        else:
            psi = BoundaryFunction.from_function(n, lambda t: a * np.exp(np.cos(t)))
            solve, lam = parametrize_real, 2.0 * np.pi * c * np.i0(1.0)
        exact = GridFunction(g, s_exact)
        s, rep = solve(GridFunction(g, alpha), GridFunction.constant(g, 1.0), psi, lam, SolverConfig(tol=1e-12))
        assert rep.converged, rep.to_dict()
        errors.append(w12_norm(s - exact) / w12_norm(exact))
    assert_order(errors)
