"""Linear operators of the theory, evaluated per angular mode.

All kernels (Cauchy, Beurling, reflection, Green, Poisson, conjugation)
diagonalize over e^{in theta}; each operator reduces to the radial
cumulative integrals provided by `radial`.  Mode n of the source feeds
mode n-1 of the Cauchy transform (n-2 for Beurling); modes leaving the
alias-free band |n| < n_theta/2 are dropped.

Sign and normalization conventions:

    C(h)(z)   = (1/pi) int_D h(t)/(z-t) dm(t),  so dbar C(h) = h,
    B(h)      = d C(h), computed analytically from the same integrals,
    R(beta)   = -(1/pi) int_D z conj(beta)/(1 - conj(xi) z) dm, holomorphic,
    P(psi)    = -(1/2pi) int_D log|(1 - conj(z) t)/(z - t)| psi dm,
                the Green potential: Laplacian P = psi, P = 0 on T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    BoundaryFunction,
    DiskGrid,
    GridFunction,
    boundary_trace,
    lp_norm_disk,
    make_grid,
    wirtinger_derivatives,
)
from .radial import get_engine

__all__ = [
    "cauchy",
    "beurling",
    "cauchy_renormalized",
    "reflect_transform",
    "green_potential",
    "poisson_extend",
    "harmonic_conjugate",
    "conjugate_function",
    "riesz_extension",
    "harmonicity_defect",
    "solve_dbar",
    "DbarResiduals",
]


def _engine_for(grid: DiskGrid):
    return get_engine(grid.n_r, grid.n_theta // 2 + 2)


def _mode_rows(f: GridFunction) -> np.ndarray:
    """Angular Fourier profiles as rows, shape (n_theta, n_r), FFT order."""
    return f.angular_modes().T.copy()


def _from_mode_rows(grid: DiskGrid, rows: np.ndarray) -> np.ndarray:
    return np.fft.ifft(rows.T * grid.n_theta, axis=1)


def _cauchy_mode_rows(h: GridFunction, radii: np.ndarray | None = None):
    """Radial profiles of C(h) indexed by the *source* mode n.

    Returns (g, nvals, rows): g[k] lives on output mode nvals[k] - 1 and
    rows are the source profiles.  Source modes n <= 0 integrate inward
    with exponent 1 - n, modes n > 0 outward with exponent n - 1.  g is
    sampled on the source radii, or on `radii` when given; beyond the unit
    circle the inward integral is its value at r = 1 times r^{n-1} and the
    outward one vanishes.
    """
    eng = _engine_for(h.grid)
    rows = _mode_rows(h)
    nvals = h.grid.mode_numbers
    neg = nvals <= 0
    p, q = 1 - nvals[neg], nvals[~neg] - 1
    if radii is None:
        g = np.zeros_like(rows)
        g[neg] = 2.0 * eng.cumulative_in(rows[neg], p)
        g[~neg] = -2.0 * eng.cumulative_out(rows[~neg], q)
    else:
        # the engine runs once per distinct radius clipped to the unit circle
        rim, at = np.unique(np.minimum(radii, 1.0), return_inverse=True)
        scale = np.power((rim[at] / radii)[None, :], p[:, None].astype(float))
        g = np.zeros((len(nvals), len(radii)), dtype=complex)
        g[neg] = 2.0 * eng.cumulative_in_at(rows[neg], p, rim)[:, at] * scale
        g[~neg] = -2.0 * eng.cumulative_out_at(rows[~neg], q, rim)[:, at]
    return g, nvals, rows


def _place_shifted(grid: DiskGrid, g: np.ndarray, nvals: np.ndarray, shift: int):
    """Scatter per-source-mode rows onto output modes n + shift."""
    N = grid.n_theta
    out = np.zeros_like(g)
    target = nvals + shift
    ok = (target >= -N // 2) & (target < N // 2)
    out[target[ok] % N] = g[ok]
    return out


def cauchy(h: GridFunction) -> GridFunction:
    """Area Cauchy transform C(h) on the grid (h extended by zero off D)."""
    # dropping the source rows at once lets the output reuse their memory
    g, nvals = _cauchy_mode_rows(h)[:2]
    out = _place_shifted(h.grid, g, nvals, -1)
    return h.with_values(_from_mode_rows(h.grid, out))


def beurling(h: GridFunction) -> GridFunction:
    """Beurling transform B(h) = d C(h), by analytic mode differentiation."""
    grid = h.grid
    g, nvals, rows = _cauchy_mode_rows(h)
    inv_r = 1.0 / grid.radii[None, :]
    prof_b = rows + (nvals[:, None] - 1) * inv_r * g
    out = _place_shifted(grid, prof_b, nvals, -2)
    return h.with_values(_from_mode_rows(grid, out))


def cauchy_renormalized(
    h: GridFunction, R: float, eval_grid: DiskGrid | None = None
) -> GridFunction:
    """Renormalized transform C_2(h) on D_R for h supported in the unit disk.

    For disk-supported sources the renormalization term vanishes and
    C_2(h) = C(h) evaluated on the larger disk; outside the unit disk only
    the non-positive source modes survive.
    """
    if R < 1.0:
        raise ValueError("R must be >= 1")
    grid = h.grid
    if eval_grid is None:
        eval_grid = make_grid(grid.n_theta, grid.n_r, outer_radius=R)
    if eval_grid.n_theta != grid.n_theta:
        raise ValueError("eval grid must share n_theta with the source grid")
    if abs(eval_grid.outer_radius - R) > 1e-12:
        raise ValueError("eval grid radius does not match R")
    g, nvals = _cauchy_mode_rows(h, eval_grid.radii)[:2]
    out = _place_shifted(eval_grid, g, nvals, -1)
    return GridFunction(eval_grid, _from_mode_rows(eval_grid, out))


def reflect_transform(beta: GridFunction) -> GridFunction:
    """R(beta): holomorphic on D, R(beta)(0) = 0, equal to -conj(C(beta)(1/conj z)).

    Used by the boundary normalizations: C - R is real on T, C + R is
    pure imaginary on T, and both have zero boundary mean.
    """
    grid = beta.grid
    eng = _engine_for(grid)
    rows = _mode_rows(beta)
    nvals = grid.mode_numbers
    N = grid.n_theta
    out = np.zeros_like(rows)
    ks = np.arange(0, N // 2 - 1)  # output mode k+1 stays in band
    src = (-ks) % N
    M = eng.full_moment(rows[src], ks + 1)
    powers = np.power(grid.radii[None, :], (ks + 1)[:, None].astype(float))
    out[(ks + 1) % N] = -2.0 * np.conj(M)[:, None] * powers
    return beta.with_values(_from_mode_rows(grid, out))


def green_potential(psi: GridFunction) -> GridFunction:
    """Green potential P(psi): discrete Laplacian psi, zero boundary ring."""
    grid = psi.grid
    eng = _engine_for(grid)
    rows = _mode_rows(psi)
    nvals = grid.mode_numbers
    radii = grid.radii
    out = np.zeros_like(rows)

    idx0 = int(np.where(nvals == 0)[0][0])
    prof_rho = rows[idx0] * radii
    S0 = eng.cumulative_in(prof_rho[None, :], np.array([0]))[0]
    T0 = eng.cumulative_out_rholog(rows[idx0][None, :])[0]
    out[idx0] = np.log(radii) * S0 + T0

    nz = nvals != 0
    k = np.abs(nvals[nz])
    S = eng.cumulative_in(rows[nz], k + 1)
    T = eng.cumulative_out(rows[nz] * radii[None, :], k)
    full = S[:, -1]
    rk = np.power(radii[None, :], k[:, None].astype(float))
    out[nz] = (rk * full[:, None] - radii[None, :] * S - T) / (2.0 * k[:, None])
    out[:, -1] = 0.0  # exact zero trace on T
    return psi.with_values(_from_mode_rows(grid, out))


def poisson_extend(u: BoundaryFunction, grid: DiskGrid) -> GridFunction:
    """Harmonic extension: mode n goes to u_n r^{|n|}; the ring equals u."""
    if u.n_theta != grid.n_theta:
        raise ValueError("boundary function does not match grid angles")
    modes = u.modes()
    powers = np.power(grid.radii[:, None], np.abs(grid.mode_numbers)[None, :].astype(float))
    vals = np.fft.ifft(modes[None, :] * powers * grid.n_theta, axis=1)
    vals[-1] = u.values
    return GridFunction(grid, vals)


def conjugate_function(psi: BoundaryFunction) -> BoundaryFunction:
    """Boundary conjugate: Fourier multiplier -i sgn(n), zero mean output."""
    modes = psi.modes().copy()
    mult = -1j * np.sign(psi.mode_numbers)
    return BoundaryFunction(np.fft.ifft(modes * mult * psi.n_theta))


def harmonic_conjugate(u: GridFunction) -> GridFunction:
    """Harmonic conjugate v (u + iv holomorphic, int_T v = 0).

    Built from the boundary modes of u extended by r^{|n|}; the caller is
    responsible for u being harmonic (see `harmonicity_defect`).
    """
    return poisson_extend(conjugate_function(boundary_trace(u)), u.grid)


def harmonicity_defect(u: GridFunction) -> float:
    """||u - E(tr u)||_{L^2(D_0.9)}: zero for Poisson extensions."""
    ext = poisson_extend(boundary_trace(u), u.grid)
    return lp_norm_disk(u - ext, 2.0, r_max=0.9)


def riesz_extension(psi: BoundaryFunction, grid: DiskGrid) -> GridFunction:
    """Holomorphic g with Re tr g = psi and int_T Im tr g = 0 (psi real)."""
    modes = psi.modes()
    nvals = psi.mode_numbers
    gmodes = modes * (1.0 + np.sign(nvals))
    powers = np.power(grid.radii[:, None], np.abs(nvals)[None, :].astype(float))
    vals = np.fft.ifft(gmodes[None, :] * powers * grid.n_theta, axis=1)
    return GridFunction(grid, vals)


@dataclass(frozen=True)
class DbarResiduals:
    """Observable defects of a dbar integration (never trusted as exact)."""

    dbar: float
    trace: float
    mean: float

    def to_dict(self) -> dict:
        return {"dbar": self.dbar, "trace": self.trace, "mean": self.mean}


def solve_dbar(
    a: GridFunction,
    psi: BoundaryFunction,
    lam: float,
    theta0: float = 0.0,
) -> tuple[GridFunction, DbarResiduals]:
    """Unique A with dbar A = a, tr Re(e^{i theta0} A) = psi, int_T Im(e^{i theta0} A) = lam.

    A = C(a) + Phi with Phi holomorphic assembled from the Poisson
    extension of psi - tr Re(e^{i theta0} C(a)) and its conjugate; the
    free imaginary constant hits lam.  The returned residuals report how
    well the discrete A meets all three conditions.
    """
    if float(np.max(np.abs(psi.values.imag))) > 1e-10:
        raise ValueError("psi must be real-valued")
    grid = a.grid
    rot = np.exp(1j * theta0)
    Ca = cauchy(a)
    g_tr = boundary_trace(Ca * rot)
    eta = BoundaryFunction(np.real(g_tr.values).astype(complex))
    target = BoundaryFunction(psi.values.real.astype(complex)) - eta
    holo = riesz_extension(target, grid)
    im_so_far = (g_tr + boundary_trace(holo)).values.imag
    c = (lam - float(np.sum(im_so_far)) * 2.0 * np.pi / grid.n_theta) / (2.0 * np.pi)
    A = Ca + (holo + GridFunction.constant(grid, 1j * c)) * np.conj(rot)

    _, dbar_A = wirtinger_derivatives(A)
    res_dbar = lp_norm_disk(dbar_A - a, 2.0, r_max=0.9)
    tr_rot = boundary_trace(A * rot)
    res_trace = BoundaryFunction(tr_rot.values.real - psi.values.real).lp_norm(2.0)
    res_mean = abs(float(np.sum(tr_rot.values.imag)) * 2.0 * np.pi / grid.n_theta - lam)
    return A, DbarResiduals(res_dbar, res_trace, res_mean)
