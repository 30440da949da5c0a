"""Shared random-field builders and closed-form fields for the test suite."""

import functools

import numpy as np

from phdisk import GridFunction, make_grid, solvers, w12_norm


def random_smooth_bandlimited(grid, rng, max_mode, real=False, amplitude=1.0):
    """Band-limited field whose mode-n radial profile vanishes like rho^|n|.

    These are genuine smooth disk functions; a profile staying O(1) at the
    origin would make the Cauchy transform log-singular there and the
    identity checks meaningless.
    """
    rows = np.zeros((grid.n_theta, grid.n_r), dtype=complex)
    r = grid.radii
    for idx in range(grid.n_theta):
        n = grid.mode_numbers[idx]
        if abs(n) > max_mode:
            continue
        c = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / (1.0 + abs(n))
        with np.errstate(under="ignore"):
            rows[idx] = r ** abs(n) * (c[0] + c[1] * r + c[2] * r * r)
    vals = np.fft.ifft(rows.T * grid.n_theta, axis=1) * amplitude
    if real:
        vals = vals.real.astype(complex)
    return GridFunction(grid, vals)


def random_initial_s(grid, rng, scale=0.1):
    """Small random band-limited field, ||s||_{W^{1,2}} = scale."""
    f = random_smooth_bandlimited(grid, rng, 6)
    return f * (scale / w12_norm(f))


def perturb_starts(monkeypatch, rng):
    """Start the loop of every level of the solves that follow away from
    the descent's start: s = random_initial_s on the level's grid, drawn
    from `rng`, multiplies GMRES's start x by e^s in place (`solve_riesz`)
    or adds Im s to the fixed-point loop's start (the parametrizations).
    A uniquely solvable problem then ends at the same solution."""
    gmres, picard = solvers._gmres, solvers._picard

    def level_s(x):
        n_r, n_theta = x.shape
        return random_initial_s(make_grid(n_theta, n_r), rng).values

    def perturbed_gmres(rhs, x, *args):
        x *= np.exp(level_s(x))
        return gmres(rhs, x, *args)

    def perturbed_picard(state, *args):
        return picard(state + level_s(state).imag, *args)

    monkeypatch.setattr(solvers, "_gmres", perturbed_gmres)
    monkeypatch.setattr(solvers, "_picard", perturbed_picard)


@functools.cache
def loglog_mean():
    """a = mean over T of log log(3/|zeta - 1|).

    The integrand is even in theta and log-singular at theta = 0, so a is
    its mean over [0, pi]: 64-node Gauss-Legendre in u, theta = pi u^4,
    which flattens the singularity (within 1.9e-12 of adaptive quadrature).
    """
    x, wts = np.polynomial.legendre.leggauss(64)
    u = 0.5 * (x + 1.0)
    theta = np.pi * u**4
    f = np.log(np.log(3.0 / (2.0 * np.sin(0.5 * theta))))
    return float(np.sum(f * 4.0 * u**3 * 0.5 * wts))


def expi_neg(x):
    """Ei(-x) for x in (0, 1]: gamma + log x + sum_k (-x)^k / (k k!), to a
    relative 2e-15 (the terms fall below 1e-20 by k = 20)."""
    x = np.asarray(x, dtype=float)
    term = np.ones_like(x)
    total = np.zeros_like(x)
    for k in range(1, 25):
        term = term * (-x) / k  # (-x)^k / k!
        total += term / k
    return np.euler_gamma + np.log(x) + total


def ellipk(m):
    """Complete elliptic integral K(m) = pi / (2 AGM(1, sqrt(1 - m))), m < 1."""
    a, b = 1.0, np.sqrt(1.0 - m)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return np.pi / (a + b)


def exw_w(z):
    """Critical-exponent counterexample w = 1/(log(3/|z-1|) sqrt(z-1)), in G^2_alpha."""
    t = np.abs(z - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / (np.log(3.0 / t) * np.sqrt(z - 1.0))


def exw_F(z):
    """Real-normalized factor F^r = e^{-s} w of exw_w, not in H^2.

    s = a - log log(3/|z-1|) is the real_on_T exponent (a = loglog_mean()),
    so F^r = e^{-a} (z-1)^{-1/2}.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(-loglog_mean()) * (z - 1.0) ** (-0.5)
