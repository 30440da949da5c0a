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
two halves, and the parametrizations iterate it.  Its mode-space core,
`_cauchy_reflect_modes`, takes values and returns the output modes
without the inverse FFT, in buffers its caller may pass: `solve_riesz`
allocates them once and applies C + R to alpha conj(w) through it, one
FFT pair and one sweep an application, with the output written over
the source values.  The public transforms allocate per call, and this
module keeps no work arrays of its own.

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


def _cauchy_reflect_modes(
    values: np.ndarray,
    c: float,
    r: float,
    grid: DiskGrid,
    modes: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Output modes of c C(h) + r R(h), c in {0, 1}, for the h with these
    values on the grid.

    Column j of the modes is angular mode n (FFT order).  Source mode
    n <= 0 feeds output mode n - 1 of C through the inward integral with
    exponent 1 - n, and source mode n > 0 feeds it through the outward one
    with exponent n - 1.  One sweep takes both as one block, written into
    the first n_theta - 1 columns of the output: the outward source columns
    1, ..., n_theta/2 - 1 at exponents 0, ..., n_theta/2 - 2, then the
    inward ones read in reverse, n_theta, ..., n_theta/2 + 1 (source modes
    0, ..., 1 - n_theta/2), at exponents 1, ..., n_theta/2, so every table
    view runs forward.  The copy-out scales by +-2 and puts output modes
    0, ..., n_theta/2 - 2 in the columns of the same number and modes -1,
    ..., -n_theta/2 in columns n_theta - 1, ..., n_theta/2.  R's output
    mode m >= 1 is -2 conj(M_m) r^m with M_m the full moment of source
    mode 1 - m at exponent m: the last node of the sweep's inward column
    for exponent m, or, without C, one dot product per mode.  Band rule:
    R keeps m = 1, ..., n_theta/2, the partners of C's output modes -1,
    ..., -n_theta/2; its mode n_theta/2 lands in the Nyquist column beside
    C's mode -n_theta/2, which is the same e^{i n_theta theta / 2} on the
    grid, so C + R is pure imaginary and C - R real on T for every source
    in band, mode 1 - n_theta/2 included.  The modes are those of
    `np.fft.fft(values, axis=1)`, unnormalized.

    `modes`, an (n_r, n_theta + 1) buffer, takes the source modes (see
    `_source_modes`) and is spent when this returns; `out`, an
    (n_r, n_theta) array, takes the output modes and may be `values`
    itself, which the forward FFT reads before anything is written.  Both
    are allocated when None.
    """
    N, half = grid.n_theta, grid.n_theta // 2
    eng = _engine_for(grid)
    B = _source_modes(values, modes)
    O = np.empty(values.shape, dtype=complex) if out is None else out
    if c:
        X = eng.sweep(
            [(B[:, 1:half], slice(0, half - 1), False), (B[:, N:half:-1], slice(1, half + 1), True)],
            out=O[:, : N - 1],
        )
        moments = X[-1, half - 1 :].copy()  # the copy-out overwrites X
        # numpy buffers the overlapping operands of these in-place moves
        np.multiply(X[::-1, : half - 1], -2.0, out=O[:, : half - 1])
        np.multiply(X[:, : half - 2 : -1], 2.0, out=O[:, half:])
        O[:, half - 1] = 0.0
    else:
        moments = eng.full_moments(B[:, N:half:-1], slice(1, half + 1))
        O.fill(0.0)
    coef = (-2.0 * r) * np.conj(moments)  # exponents 1, ..., half
    if r:
        # the source modes are spent: their buffer takes the R term
        cols = slice(1, half + 1)
        O[:, cols] += np.multiply(grid.mode_powers[:, cols], coef, out=B[:, cols])
    return O


def _cauchy_reflect(h: GridFunction, c: float, r: float) -> GridFunction:
    O = _cauchy_reflect_modes(h.require_unmasked("angular transform"), c, r, h.grid)
    return h.with_values(np.fft.ifft(O, axis=1, out=O))


def cauchy_reflect(h: GridFunction, sign: float) -> GridFunction:
    """C(h) + sign R(h) from one FFT pair and one radial sweep.

    sign = -1 gives the real_on_T exponent C - R of the similarity
    factorization, sign = +1 the imaginary_on_T one and the operator of
    the Riesz solver's integral equation.
    """
    return _cauchy_reflect(h, 1.0, sign)


def cauchy(h: GridFunction) -> GridFunction:
    """Area Cauchy transform C(h) on the grid (h extended by zero off D)."""
    return _cauchy_reflect(h, 1.0, 0.0)


def beurling(h: GridFunction) -> GridFunction:
    """Beurling transform B(h) = d C(h), by analytic mode differentiation.

    Output mode m is H_{m+2} + (m+1)/r C_{m+1} from the source modes H
    and C's output modes; modes n_theta/2 - 2 and n_theta/2 - 1 have no
    source in band.
    """
    grid = h.grid
    modes = np.empty((grid.n_r, grid.n_theta + 1), dtype=complex)
    C = _cauchy_reflect_modes(h.require_unmasked("angular transform"), 1.0, 0.0, grid, modes)
    half = grid.n_theta // 2
    out = np.roll(C, -1, axis=1)
    out *= (grid.mode_numbers + 1.0)[None, :]
    out /= grid.radii[:, None]
    out += np.roll(modes[:, : grid.n_theta], -2, axis=1)
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
    if not R >= 1.0:  # false for NaN as well
        raise ValueError(f"R must be >= 1 (got {R!r})")
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
    rim = np.minimum(radii, 1.0)
    p = np.arange(half, 0, -1)
    q = np.arange(half - 1)
    out = np.zeros((len(radii), N), dtype=complex)
    S = eng.cumulative_in_at(B[:, half + 1 :].T, p, rim)
    out[:, half:] = 2.0 * S.T * np.power((rim / radii)[:, None], p[None, :])
    T = eng.cumulative_out_at(B[:, 1:half].T, q, rim)
    out[:, : half - 1] = -2.0 * T.T
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
    of r times the source at exponent k; the positive modes and the
    negative ones, read from -1 down, are two runs of columns with
    ascending exponents, and one sweep serves all four blocks and mode 0's
    inward integral.
    """
    grid = psi.grid
    N, half = grid.n_theta, grid.n_theta // 2
    eng = _engine_for(grid)
    B = _modes(psi)
    r = grid.radii[:, None]
    rB = B * r
    order = np.r_[:half, N - 1 : half - 1 : -1]  # FFT column k is sweep column order[k]
    neg = slice(N - 1, half - 1, -1)
    X = eng.sweep([
        (rB[:, :1], slice(0, 1), True),
        (B[:, 1:half], slice(2, half + 1), True),
        (B[:, neg], slice(2, half + 2), True),
        (rB[:, 1:half], slice(1, half), False),
        (rB[:, neg], slice(1, half + 1), False),
    ])
    S = X[:, order]  # FFT order; the outward integrals follow, radius-reversed
    mode0 = np.log(grid.radii) * S[:, 0] + eng.cumulative_out_rholog(B[:, 0][None, :])[0]
    out = np.multiply(grid.mode_powers, S[-1])
    out -= np.multiply(S, r, out=S)
    out[:, 1:] -= X[::-1, N - 1 + order[1:]]
    k2 = 2.0 * np.abs(grid.mode_numbers)
    k2[0] = 1.0
    out /= k2
    out[:, 0] = mode0
    out[-1] = 0.0  # exact zero trace on T
    return psi.with_values(np.fft.ifft(out, axis=1, out=out))


def _extend(grid: DiskGrid, modes: np.ndarray) -> np.ndarray:
    """Values of sum_n modes_n r^{|n|} e^{in theta} (modes as `BoundaryFunction.modes`)."""
    vals = grid.mode_powers * (modes * grid.n_theta)
    return np.fft.ifft(vals, axis=1, out=vals)


def poisson_extend(u: BoundaryFunction, grid: DiskGrid) -> GridFunction:
    """Harmonic extension: mode n goes to u_n r^{|n|}; the ring equals u."""
    if u.n_theta != grid.n_theta:
        raise ValueError("boundary function does not match grid angles")
    vals = _extend(grid, u.modes())
    vals[-1] = u.values
    return GridFunction(grid, vals)


def conjugate_function(psi: BoundaryFunction) -> BoundaryFunction:
    """Boundary conjugate: Fourier multiplier -i sgn(n), zero mean output.

    The Nyquist mode, negative in `fftfreq` order, gets +i: H^2 = -I holds
    on zero-mean data, but a real Nyquist component comes back imaginary
    (cos 32t on 64 angles gives i (-1)^k; `riesz_extension` keeps Im = 0)."""
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


def _require_real(psi: BoundaryFunction, name: str, grid: DiskGrid) -> BoundaryFunction:
    """psi as real boundary data on the angles of `grid`, else a ValueError."""
    if psi.n_theta != grid.n_theta:
        raise ValueError(
            f"boundary function does not match grid angles: {name} has {psi.n_theta} "
            f"samples, the grid {grid.n_theta} angles"
        )
    if float(np.max(np.abs(psi.values.imag))) > 1e-10:
        raise ValueError(f"{name} must be real-valued")
    return BoundaryFunction(psi.values.real.astype(complex), psi.mask)


def _holo_with_real_trace(psi, lam_imag_integral, grid) -> np.ndarray:
    """Values of the holomorphic A with tr Re A = psi and int_T Im A =
    lam_imag_integral: psi's modes doubled for n > 0
    and dropped for n < 0, extended; the mean and, for even n_theta, the
    Nyquist mode are their own conjugates and keep weight 1."""
    weight = 1.0 + np.sign(psi.mode_numbers)
    if psi.n_theta % 2 == 0:
        weight[psi.n_theta // 2] = 1.0
    A = _extend(grid, psi.modes() * weight)
    A += 1j * lam_imag_integral / (2.0 * np.pi)
    return A


def riesz_extension(psi: BoundaryFunction, grid: DiskGrid) -> GridFunction:
    """Holomorphic g with Re tr g = psi and int_T Im tr g = 0 (psi real)."""
    return GridFunction(grid, _holo_with_real_trace(_require_real(psi, "psi", grid), 0.0, grid))


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

    A = e^{-i theta0} [(C + R)(e^{i theta0} a) + H], H the holomorphic
    function with tr Re H = psi and int_T Im H = lam
    (`_holo_with_real_trace`).  R is holomorphic, so dbar A = a; C + R is
    pure imaginary on T with zero boundary mean, so H alone carries the
    trace and the mean.  The returned residuals report how well the
    discrete A meets all three conditions.
    """
    grid = a.grid
    psi = _require_real(psi, "psi", grid)
    rot = np.exp(1j * theta0)
    vals = cauchy_reflect(a * rot, 1.0).values
    vals += _holo_with_real_trace(psi, lam, grid)
    vals *= np.conj(rot)
    A = a.with_values(vals)

    _, dbar_A = wirtinger_derivatives(A)
    res_dbar = lp_norm_disk(dbar_A - a, 2.0, r_max=0.9)
    tr_rot = boundary_trace(A * rot)
    res_trace = BoundaryFunction(tr_rot.values.real - psi.values.real).lp_norm(2.0)
    res_mean = abs(float(np.sum(tr_rot.values.imag)) * 2.0 * np.pi / grid.n_theta - lam)
    return A, DbarResiduals(res_dbar, res_trace, res_mean)
