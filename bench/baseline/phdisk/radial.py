"""Radial product quadrature for the per-mode kernel integrals.

Every kernel in the disk transforms (Cauchy, Beurling, reflection, Green)
diagonalizes over angular modes, leaving cumulative radial integrals of
the form

    S_a(r) = int_0^r  f(rho) (rho/r)^a drho        (inner),
    T_b(r) = int_r^1  f(rho) (r/rho)^b drho        (outer),

with mode-dependent integer exponents up to n_theta/2 + 2.  The kernels
vary by many orders of magnitude across a single radial cell for large
exponents, so node-based quadrature of the product is hopeless.  Instead
each cell carries the local cubic interpolant of f and the kernel is
integrated exactly against it (moments computed by Gauss-Legendre after
an exponential substitution that flattens the kernel).  Cumulation uses
recurrences whose scaling factors are powers of ratios <= 1, so nothing
overflows no matter the exponent.
"""

from __future__ import annotations

import numpy as np

_GL_NODES = 48
_Y_CAP = 45.0  # kernel factor e^{-y}; beyond this the tail is below 3e-20

_GL_REF = np.polynomial.legendre.leggauss(_GL_NODES)


def _inner_moments(n_cells: int, a: int) -> np.ndarray:
    """nu_q(i) = int_0^1 x^q ((i+x)/(i+1))^a dx for cells i=0..n_cells-1."""
    out = np.empty((n_cells, 4))
    if a == 0:
        out[:] = 1.0 / np.arange(1, 5)
        return out
    # cell 0 has rho = h*x, kernel (x/1)^a exactly
    out[0] = 1.0 / (np.arange(4) + a + 1.0)
    i = np.arange(1, n_cells, dtype=float)
    ymax = np.minimum(a * np.log((i + 1.0) / i), _Y_CAP)
    xr, wr = _GL_REF
    y = 0.5 * ymax[:, None] * (xr[None, :] + 1.0)
    wy = 0.5 * ymax[:, None] * wr[None, :]
    x = np.maximum((i[:, None] + 1.0) * np.exp(-y / a) - i[:, None], 0.0)
    base = np.exp(-y) * ((i[:, None] + 1.0) / a) * np.exp(-y / a) * wy
    xq = np.ones_like(x)
    for q in range(4):
        out[1:, q] = np.sum(xq * base, axis=1)
        xq = xq * x
    return out


def _outer_moments(n_cells: int, b: int) -> np.ndarray:
    """nu'_q(i) = int_0^1 x^q (i/(i+x))^b dx for cells i=1..n_cells-1.

    Row 0 (the cell touching the origin) is never used by outer
    integrals and is left as zeros.
    """
    out = np.zeros((n_cells, 4))
    if b == 0:
        out[1:] = 1.0 / np.arange(1, 5)
        return out
    i = np.arange(1, n_cells, dtype=float)
    ymax = np.minimum(b * np.log((i + 1.0) / i), _Y_CAP)
    xr, wr = _GL_REF
    y = 0.5 * ymax[:, None] * (xr[None, :] + 1.0)
    wy = 0.5 * ymax[:, None] * wr[None, :]
    x = np.minimum(i[:, None] * np.expm1(y / b), 1.0)
    base = np.exp(-y) * (i[:, None] / b) * np.exp(y / b) * wy
    xq = np.ones_like(x)
    for q in range(4):
        out[1:, q] = np.sum(xq * base, axis=1)
        xq = xq * x
    return out


def _stencil_data(n_r: int):
    """Cubic-interpolation stencils per cell in local coordinates.

    Cell i spans [rho_i, rho_{i+1}] with rho_i = i*h (rho_0 = 0 holds no
    data; its cubic extrapolates the first four nodes).  Returns the
    (n_cells, 4) gather indices into the node values and the (n_cells,
    4, 4) coefficient matrices mapping stencil values to monomial
    coefficients in x = rho/h - i, x in [0, 1].
    """
    cells = np.arange(n_r)
    start = np.clip(cells - 2, 0, n_r - 4)
    gather = start[:, None] + np.arange(4)[None, :]
    delta = start + 1 - cells  # leftmost stencil node in local coordinates
    inv = {}
    for d in np.unique(delta):
        xs = d + np.arange(4, dtype=float)
        V = xs[:, None] ** np.arange(4)[None, :]
        inv[d] = np.linalg.inv(V)
    coeff_maps = np.stack([inv[d] for d in delta])  # (n_cells, 4, 4): q <- node
    return gather, coeff_maps


class RadialEngine:
    """Cached moment tables and stencils for one radial grid size."""

    def __init__(self, n_r: int, a_max: int):
        self.n_r = n_r
        self.a_max = a_max
        self.h = 1.0 / n_r
        self.gather, self.coeff_maps = _stencil_data(n_r)
        self.inner = np.stack([_inner_moments(n_r, a) for a in range(a_max + 1)])
        self.outer = np.stack([_outer_moments(n_r, b) for b in range(a_max + 1)])

    def cell_coeffs(self, profiles: np.ndarray) -> np.ndarray:
        """Local cubic coefficients, (M, n_cells, 4), profiles (M, n_r)."""
        vals = profiles[:, self.gather]  # (M, n_cells, 4)
        return np.einsum("iqs,mis->miq", self.coeff_maps, vals)

    def _log_tables(self):
        """Moments of x^q (i+x) and x^q (i+x) log(i+x) per cell (cells i >= 1)."""
        if not hasattr(self, "_log_alpha"):
            i = np.arange(self.n_r, dtype=float)[:, None]
            q = np.arange(4)[None, :]
            self._log_alpha = i / (q + 1.0) + 1.0 / (q + 2.0)
            xr, wr = _GL_REF
            x = 0.5 * (xr + 1.0)
            w = 0.5 * wr
            beta = np.zeros((self.n_r, 4))
            ii = np.arange(1, self.n_r, dtype=float)[:, None]
            f = (ii + x[None, :]) * np.log(ii + x[None, :])
            xq = np.ones_like(x)[None, :]
            for qq in range(4):
                beta[1:, qq] = np.sum(xq * f * w[None, :], axis=1)
                xq = xq * x[None, :]
            self._log_beta = beta
        return self._log_alpha, self._log_beta

    def cumulative_out_rholog(self, profiles: np.ndarray) -> np.ndarray:
        """T[m, j] = int_{rho_{j+1}}^1 prof_m(rho) rho log(rho) drho.

        The rho log rho factor is integrated exactly against the local
        cubics; interpolating through the log would leave a rough error
        that discrete Laplacians amplify.
        """
        alpha, beta = self._log_tables()
        coeffs = self.cell_coeffs(profiles)
        logh = np.log(self.h)
        c = self.h**2 * (
            logh * np.einsum("miq,iq->mi", coeffs, alpha)
            + np.einsum("miq,iq->mi", coeffs, beta)
        )
        T = np.zeros_like(c)
        T[:, :-1] = np.cumsum(c[:, :0:-1], axis=1)[:, ::-1]
        return T

    def _gather_exp(self, table: np.ndarray, exps: np.ndarray) -> np.ndarray:
        if np.any(exps > self.a_max) or np.any(exps < 0):
            raise ValueError("exponent outside the cached table range")
        return table[exps]  # (M, n_cells, 4)

    def cumulative_in(self, profiles: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """S[m, j] = int_0^{rho_{j+1}} prof_m(rho) (rho/rho_{j+1})^{a_m} drho."""
        coeffs = self.cell_coeffs(profiles)
        nu = self._gather_exp(self.inner, exps)
        c = self.h * np.einsum("miq,miq->mi", coeffs, nu)
        M, n = c.shape
        j = np.arange(1, n, dtype=float)
        ratios = np.power((j / (j + 1.0))[None, :], exps[:, None].astype(float))
        S = np.empty_like(c)
        S[:, 0] = c[:, 0]
        for jj in range(1, n):
            S[:, jj] = ratios[:, jj - 1] * S[:, jj - 1] + c[:, jj]
        return S

    def cumulative_out(self, profiles: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """T[m, j] = int_{rho_{j+1}}^1 prof_m(rho) (rho_{j+1}/rho)^{b_m} drho."""
        coeffs = self.cell_coeffs(profiles)
        nu = self._gather_exp(self.outer, exps)
        c = self.h * np.einsum("miq,miq->mi", coeffs, nu)
        M, n = c.shape
        j = np.arange(1, n, dtype=float)
        ratios = np.power((j / (j + 1.0))[None, :], exps[:, None].astype(float))
        T = np.zeros_like(c)
        for jj in range(n - 2, -1, -1):
            T[:, jj] = ratios[:, jj] * T[:, jj + 1] + c[:, jj + 1]
        return T

    def full_moment(self, profiles: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """int_0^1 prof_m(rho) rho^{a_m} drho (kernel normalized at r=1)."""
        return self.cumulative_in(profiles, exps)[:, -1]

    # Arbitrary-target evaluation, used by the renormalized transform where
    # the evaluation radii do not coincide with the source nodes.

    def _partial_inner(self, coeffs, exps, cell: int, xstar: float) -> np.ndarray:
        """int_{rho_cell}^{r*} prof (rho/r*)^a drho, r* = (cell + xstar) h."""
        xr, wr = _GL_REF
        a = exps.astype(float)
        i = float(cell)
        out = np.zeros(coeffs.shape[0], dtype=coeffs.dtype)
        for m in range(coeffs.shape[0]):
            am = a[m]
            if am == 0:
                xs = 0.5 * xstar * (xr + 1.0)
                ws = 0.5 * xstar * wr
                ker = np.ones_like(xs)
            else:
                if i == 0.0:
                    # kernel (x/xstar)^a on [0, xstar]
                    xs = 0.5 * xstar * (xr + 1.0)
                    ws = 0.5 * xstar * wr
                    with np.errstate(divide="ignore"):
                        ker = np.exp(am * (np.log(np.maximum(xs, 1e-300)) - np.log(xstar)))
                else:
                    ymax = min(am * np.log((i + xstar) / i), _Y_CAP)
                    y = 0.5 * ymax * (xr + 1.0)
                    wy = 0.5 * ymax * wr
                    xs = np.maximum((i + xstar) * np.exp(-y / am) - i, 0.0)
                    ws = ((i + xstar) / am) * np.exp(-y / am) * wy
                    ker = np.exp(-y)
            poly = sum(coeffs[m, cell, q] * xs**q for q in range(4))
            out[m] = self.h * np.sum(poly * ker * ws)
        return out

    def _partial_outer(self, coeffs, exps, cell: int, xstar: float) -> np.ndarray:
        """int_{r*}^{rho_{cell+1}} prof (r*/rho)^b drho, r* = (cell + xstar) h."""
        xr, wr = _GL_REF
        b = exps.astype(float)
        i = float(cell)
        out = np.zeros(coeffs.shape[0], dtype=coeffs.dtype)
        for m in range(coeffs.shape[0]):
            bm = b[m]
            if bm == 0:
                xs = xstar + 0.5 * (1.0 - xstar) * (xr + 1.0)
                ws = 0.5 * (1.0 - xstar) * wr
                ker = np.ones_like(xs)
            else:
                ymax = min(bm * np.log((i + 1.0) / (i + xstar)), _Y_CAP)
                y = 0.5 * ymax * (xr + 1.0)
                wy = 0.5 * ymax * wr
                xs = np.minimum((i + xstar) * np.exp(y / bm) - i, 1.0)
                ws = ((i + xstar) / bm) * np.exp(y / bm) * wy
                ker = np.exp(-y)
            poly = sum(coeffs[m, cell, q] * xs**q for q in range(4))
            out[m] = self.h * np.sum(poly * ker * ws)
        return out

    def cumulative_in_at(self, profiles, exps, targets) -> np.ndarray:
        """S at arbitrary radii in (0, 1], shape (M, len(targets))."""
        S_nodes = self.cumulative_in(profiles, exps)
        coeffs = self.cell_coeffs(profiles)
        a = exps[:, None].astype(float)
        out = np.empty((profiles.shape[0], len(targets)), dtype=profiles.dtype)
        for k, r in enumerate(targets):
            pos = r / self.h
            cell = min(int(np.floor(pos + 1e-9)), self.n_r - 1)
            xstar = pos - cell
            if xstar < 1e-9:
                out[:, k] = S_nodes[:, cell - 1] if cell >= 1 else 0.0
                continue
            part = self._partial_inner(coeffs, exps, cell, xstar)
            if cell >= 1:
                scale = np.power(cell / (cell + xstar), a[:, 0])
                out[:, k] = scale * S_nodes[:, cell - 1] + part
            else:
                out[:, k] = part
        return out

    def cumulative_out_at(self, profiles, exps, targets) -> np.ndarray:
        """T at arbitrary radii in (0, 1], shape (M, len(targets))."""
        T_nodes = self.cumulative_out(profiles, exps)
        coeffs = self.cell_coeffs(profiles)
        b = exps[:, None].astype(float)
        out = np.empty((profiles.shape[0], len(targets)), dtype=profiles.dtype)
        for k, r in enumerate(targets):
            pos = r / self.h
            cell = min(int(np.floor(pos + 1e-9)), self.n_r - 1)
            xstar = pos - cell
            if xstar < 1e-9 and cell >= 1:
                out[:, k] = T_nodes[:, cell - 1]
                continue
            part = self._partial_outer(coeffs, exps, cell, xstar)
            if cell + 1 <= self.n_r - 1:
                scale = np.power((cell + xstar) / (cell + 1.0), b[:, 0])
                out[:, k] = part + scale * T_nodes[:, cell]
            else:
                out[:, k] = part
        return out


_ENGINES: dict[tuple[int, int], RadialEngine] = {}


def get_engine(n_r: int, a_max: int) -> RadialEngine:
    key = (n_r, a_max)
    eng = _ENGINES.get(key)
    if eng is None:
        eng = RadialEngine(n_r, a_max)
        _ENGINES[key] = eng
    return eng
