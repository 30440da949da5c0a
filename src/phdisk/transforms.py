"""Linear operators of the theory, evaluated per angular mode.

All kernels (Cauchy, Beurling, reflection, Green, Poisson, conjugation)
diagonalize over e^{in theta}; each operator reduces to the radial
cumulative integrals provided by `radial`.  Mode n of the source feeds
mode n-1 of the Cauchy transform (n-2 for Beurling); modes leaving the
alias-free band |n| < n_theta/2 are dropped.

Layout: a transform reads its modes from one forward FFT,
`np.fft.fft(values, axis=1)`, and works on them in that layout, radius-
major (n_r, n_theta) in FFT order; one inverse FFT returns C-ordered
values.  The modes stay unnormalized (the inverse FFT's 1/n_theta
restores the scale).  Columns are grouped into runs whose radial
exponents are consecutive, so the engine reads its weight tables as
views, and one `RadialEngine.sweep` serves every run.

`cauchy_reflect` gives C(h) + sign R(h) from one FFT pair and one sweep,
since R's moment for output mode m is the last node of C's inward
integral for source mode 1 - m; `cauchy` and `reflect_transform` are its
two halves.  `cauchy_trace` gives C(h) on T alone: there the outward
integrals vanish and the inward ones are full moments, one dot product
per mode and no sweep.  The mode-space core of `cauchy_reflect`,
`_cauchy_reflect_modes`, takes values and leaves the output modes in the
workspace without the inverse FFT, so a solver that iterates on modes
(`solve_riesz`) pays one forward FFT per pass.  The work arrays live in
a `Workspace`, which a solve allocates once and passes to every step;
the public transforms allocate their own per call, and this module
keeps no work arrays of its own.

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
    "cauchy_trace",
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


class Workspace:
    """Work arrays of `cauchy_reflect` and of a Riesz step on one grid.

    `modes` takes the source modes (see `_source_modes`); `out` holds the
    output modes and, after the in-place inverse FFT, the values; `vals`
    holds a step's source values.  Once a pass has swept them, the source
    modes are spent, and `spare`, their memory read as a C-ordered
    (n_r, n_theta) array, is scratch.  A solve allocates one and passes
    it to every step, so its result is overwritten by the next call; the
    public transforms allocate one per call.
    """

    def __init__(self, grid: DiskGrid):
        self.grid = grid
        shape = (grid.n_r, grid.n_theta)
        self.modes = np.empty((grid.n_r, grid.n_theta + 1), dtype=complex)
        self.spare = self.modes.reshape(-1)[: grid.n_r * grid.n_theta].reshape(shape)
        self.out = np.empty(shape, dtype=complex)
        self.vals = np.empty(shape, dtype=complex)


def _modes(f: GridFunction) -> np.ndarray:
    """Angular modes times n_theta, radius-major (n_r, n_theta), FFT order.

    The transforms are linear, so they work on unnormalized modes and the
    inverse FFT's 1/n_theta restores the scale.
    """
    return np.fft.fft(f.require_unmasked("angular transform"), axis=1)


def _source_modes(values: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """`_modes` of values in an (n_r, n_theta + 1) array whose last column
    repeats mode 0, so that the inward source modes 1 - n_theta/2, ..., -1,
    0 of the Cauchy transform are the run of columns n_theta/2 + 1, ...,
    n_theta."""
    n_r, N = values.shape
    if buf is None:
        buf = np.empty((n_r, N + 1), dtype=complex)
    np.fft.fft(values, axis=1, out=buf[:, :N])
    buf[:, N] = buf[:, 0]
    return buf


def _cauchy_reflect_modes(values: np.ndarray, c: float, r: float, work: Workspace) -> np.ndarray:
    """Output modes of c C(h) + r R(h) in work.out, c in {0, 1}, for the
    h with these values on work.grid.

    Column j of the modes is angular mode n (FFT order).  Source mode
    n <= 0 feeds output mode n - 1 of C through the inward integral with
    exponent 1 - n, and source mode n > 0 feeds it through the outward one
    with exponent n - 1; output modes -1, ..., -n_theta/2 then sit in
    columns n_theta/2, ..., n_theta - 1 with exponents n_theta/2, ..., 1,
    and output modes 0, ..., n_theta/2 - 2 in the columns of the same
    number with exponents 0, ..., n_theta/2 - 2.  Both runs of exponents
    are consecutive, so the engine's weights are views, and one sweep
    fills both blocks of work.out in place.  R's output mode m >= 1 is
    -2 conj(M_m) r^m with M_m the full moment of source mode 1 - m at
    exponent m: the last node of C's inward integral in column
    n_theta - m, or, without C, one dot product per mode.  The modes are
    those of `np.fft.fft(values, axis=1)`, unnormalized; work.modes is
    spent when this returns.
    """
    grid = work.grid
    half = grid.n_theta // 2
    eng = _engine_for(grid)
    B = _source_modes(values, work.modes)
    O = work.out
    inward = (B[:, half + 1 :], slice(half, 0, -1), O[:, half:])
    if c:
        outward = (B[:, 1:half], slice(0, half - 1), O[:, : half - 1])
        eng.sweep(inward=[inward], outward=[outward])
        O[:, half - 1] = 0.0
        moments = O[-1, half + 1 :]  # exponents half - 1, ..., 1
    else:
        moments = eng.full_moments(B[:, half + 2 :], slice(half - 1, 0, -1))
    # R's coefficients, before C's scaling below overwrites `moments`
    coef = (-2.0 * r) * np.conj(moments[::-1])
    if c:
        O[:, :half] *= -2.0
        O[:, half:] *= 2.0
    else:
        O.fill(0.0)
    if r:
        # the source modes are spent: their buffer takes the R term
        O[:, 1:half] += np.multiply(grid.mode_powers[:, 1:half], coef, out=B[:, 1:half])
    return O


def _cauchy_reflect(h: GridFunction, c: float, r: float) -> GridFunction:
    O = _cauchy_reflect_modes(h.require_unmasked("angular transform"), c, r, Workspace(h.grid))
    return h.with_values(np.fft.ifft(O, axis=1, out=O))


def cauchy_reflect(h: GridFunction, sign: float) -> GridFunction:
    """C(h) + sign R(h) from one FFT pair and one radial sweep.

    sign = -1 gives the real_on_T exponent C - R of the similarity
    factorization and the Riesz solver's step, sign = +1 the
    imaginary_on_T one.
    """
    return _cauchy_reflect(h, 1.0, sign)


def cauchy(h: GridFunction) -> GridFunction:
    """Area Cauchy transform C(h) on the grid (h extended by zero off D)."""
    return _cauchy_reflect(h, 1.0, 0.0)


def cauchy_trace(h: GridFunction) -> BoundaryFunction:
    """Boundary trace of C(h) on T, without the interior of C(h).

    At r = 1 the outward integrals vanish and the inward ones are the full
    moments: output mode -m (m = 1, ..., n_theta/2) is 2 M_m, M_m the full
    moment of source mode 1 - m at exponent m, and every other mode is 0.
    One forward FFT, one dot product per mode and one n_theta-point
    inverse FFT; equal to `cauchy(h)` on its boundary ring up to rounding.
    """
    grid = h.grid
    half = grid.n_theta // 2
    B = _source_modes(h.require_unmasked("angular transform"))
    out = np.zeros(grid.n_theta, dtype=complex)
    out[half:] = 2.0 * _engine_for(grid).full_moments(B[:, half + 1 :], slice(half, 0, -1))
    return BoundaryFunction(np.fft.ifft(out, out=out))


def beurling(h: GridFunction) -> GridFunction:
    """Beurling transform B(h) = d C(h), by analytic mode differentiation.

    Output mode m is H_{m+2} + (m+1)/r C_{m+1} from the source modes H
    and C's output modes; modes n_theta/2 - 2 and n_theta/2 - 1 have no
    source in band.
    """
    grid = h.grid
    work = Workspace(grid)
    C = _cauchy_reflect_modes(h.require_unmasked("angular transform"), 1.0, 0.0, work)
    half = grid.n_theta // 2
    out = np.roll(C, -1, axis=1)
    out *= (grid.mode_numbers + 1.0)[None, :]
    out /= grid.radii[:, None]
    out += np.roll(work.modes[:, : grid.n_theta], -2, axis=1)
    out[:, half - 2 : half] = 0.0
    return h.with_values(np.fft.ifft(out, axis=1, out=out))


def cauchy_renormalized(
    h: GridFunction, R: float, eval_grid: DiskGrid | None = None
) -> GridFunction:
    """Renormalized transform C_2(h) on D_R for h supported in the unit disk.

    For disk-supported sources the renormalization term vanishes and
    C_2(h) = C(h) evaluated on the larger disk; outside the unit disk only
    the non-positive source modes survive: the inward integral is its
    value at r = 1 times r^{n-1} and the outward one vanishes.  The column
    layout is that of `_cauchy_reflect_modes`.
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
    N, half = grid.n_theta, grid.n_theta // 2
    eng = _engine_for(grid)
    B = _source_modes(h.require_unmasked("angular transform"))
    radii = eval_grid.radii
    # the engine runs once per distinct radius clipped to the unit circle;
    # the radii ascend, so the distinct ones start where the clipped values step
    clipped = np.minimum(radii, 1.0)
    first = np.concatenate(([True], clipped[1:] != clipped[:-1]))
    rim, at = clipped[first], np.cumsum(first) - 1
    p = np.arange(half, 0, -1)
    q = np.arange(half - 1)
    out = np.zeros((len(radii), N), dtype=complex)
    S = eng.cumulative_in_at(B[:, half + 1 :].T, p, rim)
    out[:, half:] = 2.0 * S.T[at] * np.power((rim[at] / radii)[:, None], p[None, :])
    T = eng.cumulative_out_at(B[:, 1:half].T, q, rim)
    out[:, : half - 1] = -2.0 * T.T[at]
    return GridFunction(eval_grid, np.fft.ifft(out, axis=1, out=out))


def reflect_transform(beta: GridFunction) -> GridFunction:
    """R(beta): holomorphic on D, R(beta)(0) = 0, equal to -conj(C(beta)(1/conj z)).

    Used by the boundary normalizations: C - R is real on T, C + R is
    pure imaginary on T, and both have zero boundary mean.
    """
    return _cauchy_reflect(beta, 0.0, 1.0)


def green_potential(psi: GridFunction) -> GridFunction:
    """Green potential P(psi): discrete Laplacian psi, zero boundary ring.

    Mode n != 0 (k = |n|) is (r^k S(1) - r S - T) / 2k with S the inward
    integral of the source at exponent k + 1 and T the outward integral
    of r times the source at exponent k; the positive and the negative
    modes are two runs of columns with consecutive exponents, and one
    sweep serves all four blocks and mode 0's inward integral.
    """
    grid = psi.grid
    N, half = grid.n_theta, grid.n_theta // 2
    eng = _engine_for(grid)
    B = _modes(psi)
    r = grid.radii[:, None]
    rB = B * r
    S = np.empty_like(B)
    T = np.empty_like(B)
    T[:, 0] = 0.0  # mode 0 has no outward block
    pos, neg = slice(1, half), slice(half, N)
    eng.sweep(
        inward=[
            (rB[:, :1], slice(0, 1), S[:, :1]),
            (B[:, pos], slice(2, half + 1), S[:, pos]),
            (B[:, neg], slice(half + 1, 1, -1), S[:, neg]),
        ],
        outward=[
            (rB[:, pos], slice(1, half), T[:, pos]),
            (rB[:, neg], slice(half, 0, -1), T[:, neg]),
        ],
    )
    mode0 = np.log(grid.radii) * S[:, 0] + eng.cumulative_out_rholog(B[:, 0][None, :])[0]
    out = np.multiply(grid.mode_powers, S[-1])
    out -= np.multiply(S, r, out=S)
    out -= T
    k2 = 2.0 * np.abs(grid.mode_numbers)
    k2[0] = 1.0
    out /= k2
    out[:, 0] = mode0
    out[-1] = 0.0  # exact zero trace on T
    return psi.with_values(np.fft.ifft(out, axis=1, out=out))


def _extend(grid: DiskGrid, modes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Values of sum_n modes_n r^{|n|} e^{in theta} (modes as `BoundaryFunction.modes`)."""
    vals = np.multiply(grid.mode_powers, modes * grid.n_theta, out=out)
    return np.fft.ifft(vals, axis=1, out=vals)


def _poisson_values(u: BoundaryFunction, grid: DiskGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Values of `poisson_extend(u, grid)`, in `out` when given."""
    if u.n_theta != grid.n_theta:
        raise ValueError("boundary function does not match grid angles")
    vals = _extend(grid, u.modes(), out)
    vals[-1] = u.values
    return vals


def poisson_extend(u: BoundaryFunction, grid: DiskGrid) -> GridFunction:
    """Harmonic extension: mode n goes to u_n r^{|n|}; the ring equals u."""
    return GridFunction(grid, _poisson_values(u, grid))


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
    return GridFunction(grid, _extend(grid, psi.modes() * (1.0 + np.sign(psi.mode_numbers))))


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
