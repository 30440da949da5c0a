"""Solvers for the constructive boundary problems.

The generalized M. Riesz problem is real-linear in w, and is solved as
the integral equation of generalized analytic functions (Vekua 1962),
w - (C + R)(alpha conj(w)) = H, by restarted GMRES on the real view of
the values (`_gmres`, Saad & Schultz 1986), with restart length
RESTART = 8.  It needs no smallness of alpha: constant alpha = 3 and
sigma = e^{4x} converge.  The solve is nested (`_riesz_values`; Brandt
1977, for the starting guess only): the same equation is solved on the
half grid first, recursively down to 32 x 32, and each converged coarse
solution, interpolated (`_prolong`), starts the next finer loop.  At
256^2 the fine loop then takes 2-3 applications instead of 15, and
sigma = log(e/|z|)^8, where GMRES(8) from H stalls, converges.  A
coarse level that does not converge ends the descent, and the given
grid starts from H.  Reports count fine-grid applications.  Its
conductivity wrapper solves the same equation.

The parametrizations are nonlinear in s.  Once the prescribed trace is
absorbed into a holomorphic shift H of F, s - H is the exponent of the
similarity factorization (Bers 1953, Vekua 1962; `similarity.factorize`)
of the solution it defines, s - H = (C -+ R)(beta e^{-2i Im(s - H)}).
Both iterate that formula on phi = Im(s - H), in one loop (`_picard`)
that mixes each step with the last ANDERSON_WINDOW = 3 difference pairs
(windowed Anderson acceleration with real coefficients, mixing weight
tau, starting at 1).  Safeguard: whenever the residual g(x) - x grows,
the history is dropped and tau halved, and the loop fails explicitly if
the residual keeps growing at the floor.  Nothing is asserted about
rates: reports carry the whole increment history and the final tau.
Every loop runs on plain arrays.

The three problems:

 * parametrize_imag: s with dbar(e^s F) = alpha conj(e^s F),
   tr Im s = psi, int_T Re s = lambda (map: Im (C - R)(beta e^{-2i phi}),
   C - R real on T),
 * parametrize_real: same equation with tr Re s = psi, int_T Im s =
   lambda (map: Im (C + R)(beta e^{-2i phi}), C + R pure imaginary on
   T); the two share one body and one `cauchy_reflect` a step,
 * solve_riesz: w with Re tr w = psi, int_T Im tr w = c (the linear
   equation above), plus its conductivity wrapper.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    BoundaryFunction,
    GridFunction,
    boundary_trace,
    hardy_norm,
    lp_norm_disk,
    make_grid,
    w12_norm,
    w12_norm_modes,
    wirtinger_derivatives,
)
from .radial import get_engine
from .similarity import beltrami_ratio, reconstruct, residual_beltrami
from .transforms import _cauchy_reflect_modes, _holo_with_real_trace, _require_real, cauchy_reflect

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolverDivergence",
    "parametrize_imag",
    "parametrize_real",
    "solve_riesz",
    "solve_conductivity",
    "conductivity_residual",
]

DAMPING_FLOOR = 1.0 / 64.0
ANDERSON_WINDOW = 3
RESTART = 8


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 200
    zero_threshold: float | None = None
    p: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer >= 1")
        zt = self.zero_threshold
        if zt is not None and not (
            isinstance(zt, numbers.Real) and math.isfinite(zt) and zt >= 0.0
        ):
            raise ValueError("zero_threshold must be None or a finite number >= 0")
        if not self.p >= 1.0:
            raise ValueError("p must be >= 1")


@dataclass
class SolveReport:
    iterations: int = 0
    increment_history: list = field(default_factory=list)
    residual_beltrami: float = 0.0
    boundary_mismatch: float = 0.0
    normalization_defects: dict = field(default_factory=dict)
    measured_constant: float = 0.0
    converged: bool = False
    damping_final: float = 1.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "increment_history": list(self.increment_history),
            "residual_beltrami": self.residual_beltrami,
            "boundary_mismatch": self.boundary_mismatch,
            "normalization_defects": dict(self.normalization_defects),
            "measured_constant": self.measured_constant,
            "converged": self.converged,
            "damping_final": self.damping_final,
            **({"extra": dict(self.extra)} if self.extra else {}),
        }


class SolverDivergence(RuntimeError):
    """Fixed point not reached within max_iter at minimum damping."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def _picard(state: np.ndarray, apply_map, step_norm, cfg: SolverConfig):
    """Anderson-mixed fixed-point loop shared by the two parametrizations.

    `state` is the initial iterate, a real array, which is left alone;
    `apply_map` takes an iterate to a new real array of the same shape,
    which the loop keeps.  `step_norm` takes a residual to a float.
    Nothing is wrapped per step, so a map may run in any linear
    coordinates of its problem: the mixing coefficients below are
    least-squares solutions, unchanged when every iterate is scaled
    alike.  Each step evaluates the map once, forms the residual
    f = g(x) - x and mixes it with the last ANDERSON_WINDOW difference
    pairs (Anderson 1965; Walker & Ni 2011, type II, mixing weight tau):

        x+ = x + tau f - sum_i gamma_i (dx_i + tau df_i),

    with dx_i, df_i the differences of successive iterates and residuals
    and gamma minimizing ||f - sum_i gamma_i df_i||, by the Gram matrix
    <df_i, df_j>.  The increment recorded, and tested against cfg.tol, is
    tau step_norm(f), the increment of a plain damped step.  Safeguard:
    tau starts at 1; when the Euclidean norm of f grows, the history is
    cleared and tau halved down to DAMPING_FLOOR; five growths at the
    floor end the loop unconverged.

    Returns (x, history, converged, tau), x a new array.
    """
    tau = 1.0
    x = np.array(state, dtype=float)
    dxs: list[np.ndarray] = []  # the window's pairs, oldest first
    dfs: list[np.ndarray] = []
    last = None  # (f, x+ - x) of the last step, until the next f completes its pair
    history: list[float] = []
    prev = math.inf
    bad_at_floor = 0
    for _ in range(cfg.max_iter):
        f = apply_map(x)
        f -= x
        res = math.sqrt(_real_dot(f, f))
        if not res <= prev:
            dxs.clear()
            dfs.clear()
            last = None
            if tau > DAMPING_FLOOR:
                tau = max(tau / 2.0, DAMPING_FLOOR)
            else:
                bad_at_floor += 1
        prev = res
        history.append(tau * step_norm(f))
        if last is not None:
            dfs.append(np.subtract(f, last[0], out=last[0]))
            dxs.append(last[1])
        step = f * tau
        if dfs:
            gram = [[_real_dot(a, b) for b in dfs] for a in dfs]
            gamma = np.linalg.lstsq(gram, [_real_dot(d, f) for d in dfs], rcond=1e-12)[0]
            for c, dx, df in zip(gamma, dxs, dfs):
                step -= c * dx
                step -= (c * tau) * df
        x += step
        last = f, step
        if len(dfs) == ANDERSON_WINDOW:  # the next pair takes the oldest's place
            del dxs[0], dfs[0]
        if history[-1] < cfg.tol:
            return x, history, True, tau
        if bad_at_floor >= 5:
            return x, history, False, tau
    return x, history, False, tau


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b>, the Euclidean inner product of real and imaginary parts."""
    return float(np.vdot(a, b).real)


def _gmres(rhs: np.ndarray, x: np.ndarray, apply, cfg: SolverConfig):
    """Restarted GMRES(RESTART) for A x = rhs on complex arrays, x updated in place.

    `apply(v, out)` writes A v into `out`.  A need only be real-linear (it
    may conjugate), so this is GMRES on the real view R^{2N} (Saad &
    Schultz 1986): the Krylov basis is orthonormal under Re <a, b>, and
    the Hessenberg matrix and its Givens rotations are real.  The first
    cycle starts from the true residual rhs - A x; a restart starts from
    the residual the last cycle left, V q with q the rotated
    least-squares residual, which costs no application.  `rhs` is left
    alone: the basis vectors and one scratch vector for the scaled
    vectors are this loop's own, the basis allocated one vector at a
    time, as each is first needed.

    Applications of A are counted up to cfg.max_iter; after each,
    ||r|| / ||rhs|| is recorded (from the least-squares problem inside a
    cycle), and the loop stops once it is at most tol / 10.  Returns
    (history, converged).
    """
    bnorm = math.sqrt(_real_dot(rhs, rhs))
    target = 0.1 * cfg.tol * bnorm
    basis = [np.empty_like(x), np.empty_like(x)]
    scratch = np.empty_like(x)
    apply(x, basis[1])
    r = np.subtract(rhs, basis[1], out=basis[0])
    res = math.sqrt(_real_dot(r, r))
    history = [res / bnorm]
    while res > target and len(history) < cfg.max_iter:
        r /= res
        hess = np.zeros((RESTART + 1, RESTART))
        rot = np.zeros((RESTART, 2))  # (cos, sin) of each Givens rotation
        g = np.zeros(RESTART + 1)
        g[0] = res
        k = 0
        while k < RESTART and res > target and len(history) < cfg.max_iter:
            if len(basis) == k + 1:
                basis.append(np.empty_like(x))
            v = basis[k + 1]
            apply(basis[k], v)
            for i in range(k + 1):  # modified Gram-Schmidt
                hess[i, k] = h = _real_dot(basis[i], v)
                v -= np.multiply(basis[i], h, out=scratch)
            hess[k + 1, k] = h = math.sqrt(_real_dot(v, v))
            if h > 0.0:
                v /= h
            for i in range(k):
                cs, sn = rot[i]
                a, b = hess[i, k], hess[i + 1, k]
                hess[i, k], hess[i + 1, k] = cs * a + sn * b, cs * b - sn * a
            d = math.hypot(hess[k, k], hess[k + 1, k])
            cs, sn = hess[k, k] / d, hess[k + 1, k] / d
            rot[k] = cs, sn
            hess[k, k] = d
            g[k + 1] = -sn * g[k]
            g[k] *= cs
            k += 1
            res = abs(float(g[k]))
            history.append(res / bnorm)
        y = np.linalg.solve(np.triu(hess[:k, :k]), g[:k])
        for i in range(k):
            x += np.multiply(basis[i], y[i], out=scratch)
        if res > target and len(history) < cfg.max_iter:
            # the residual V q, q = G_1^T ... G_k^T (g_k e_k), into basis[0]
            q = np.zeros(k + 1)
            q[k] = g[k]
            for i in reversed(range(k)):
                cs, sn = rot[i]
                q[i], q[i + 1] = cs * q[i] - sn * q[i + 1], sn * q[i] + cs * q[i + 1]
            r *= q[0]
            for i in range(1, k + 1):
                r += np.multiply(basis[i], q[i], out=scratch)
            res = math.sqrt(_real_dot(r, r))
    return history, res <= target


def _phi_norm(d: np.ndarray, grid) -> float:
    """w12_norm of the grid increment with values d."""
    return w12_norm_modes(np.fft.fft(d, axis=1), grid)


def _instrument(s_norm, alpha, psi, lam):
    denom = lp_norm_disk(alpha, 2.0) + psi.lp_norm(2.0) + abs(lam)
    return s_norm / denom if denom > 0 else 0.0


def _mismatch(values: np.ndarray, psi: BoundaryFunction, p: float) -> float:
    """L^p(T) norm of the real boundary values less psi."""
    return BoundaryFunction(values - psi.values.real).lp_norm(p)


def _finish(name, history, converged, tau, w, alpha, mismatch, defects, constant, extra=None) -> SolveReport:
    """The report of a solve from its loop's increment history, convergence
    flag and final damping, and the solution w; raises SolverDivergence
    if the loop did not converge."""
    report = SolveReport(
        iterations=len(history),
        increment_history=history,
        residual_beltrami=residual_beltrami(w, alpha),
        boundary_mismatch=mismatch,
        normalization_defects=defects,
        measured_constant=constant,
        converged=converged,
        damping_final=tau,
        extra=extra or {},
    )
    if not converged:
        raise SolverDivergence(f"{name} did not converge", report)
    return report


def _parametrize(imag, alpha, F, psi, lam, cfg, initial_s):
    """Body shared by the two parametrizations: the similarity
    factorization of `similarity.factorize`, iterated to its fixed point.

    The prescribed trace is absorbed into the holomorphic shift H = iA
    (`imag`: tr Im s = psi, int_T Re s = lam) or H = A (tr Re s = psi,
    int_T Im s = lam), A from `_holo_with_real_trace`; F becomes
    F' = e^H F and beta = alpha conj(F')/F' its Beltrami ratio.  Then
    w = e^{s'} F', s' = s - H, solves dbar w = alpha conj(w) exactly when

        s' = (C + sign R)(beta e^{-2i Im s'}),

    with sign = -1 for `imag` (C - R is real on T) and +1 otherwise
    (C + R is pure imaginary on T).  Both have zero boundary mean, so H
    alone carries the trace and the mean, at every step.  `_picard` finds
    the fixed point phi of phi -> Im (C + sign R)(beta e^{-2i phi}),
    starting from Im(initial_s - H), or 0; then
    s = H + (C + sign R)(beta e^{-2i phi}).
    """
    cfg = cfg or SolverConfig()
    grid = alpha.grid
    psi = _require_real(psi, "psi", grid)
    if float(np.max(np.abs(F.require_unmasked("parametrization")))) == 0.0:
        raise ValueError("F must not be identically zero")
    A = _holo_with_real_trace(psi, -lam if imag else lam, grid)
    H = GridFunction(grid, A * 1j if imag else A)
    with np.errstate(under="ignore"):
        Fp = F.with_values(np.exp(H.values) * F.values)
    beta = beltrami_ratio(Fp, alpha, cfg.zero_threshold).values
    sign = -1.0 if imag else 1.0

    def exponent(phi: np.ndarray) -> GridFunction:
        return cauchy_reflect(GridFunction(grid, beta * np.exp(-2j * phi)), sign)

    def apply_map(phi: np.ndarray) -> np.ndarray:
        return exponent(phi).values.imag.copy()  # contiguous, without the complex pass

    x0 = np.zeros(beta.shape) if initial_s is None else (initial_s - H).values.imag
    loop = _picard(x0, apply_map, lambda d: _phi_norm(d, grid), cfg)
    s = exponent(loop[0]) + H
    w = reconstruct(s, F)

    tr_s = boundary_trace(s).values
    traced, free = (tr_s.imag, tr_s.real) if imag else (tr_s.real, tr_s.imag)
    mismatch = _mismatch(traced, psi, 2.0)
    mean_def = abs(float(np.sum(free)) * 2.0 * np.pi / grid.n_theta - lam)
    keys = ("im_trace", "re_mean") if imag else ("re_trace", "im_mean")
    defects = dict(zip(keys, (mismatch, mean_def)))
    constant = _instrument(w12_norm(s), alpha, psi, lam)
    name = "parametrize_imag" if imag else "parametrize_real"
    return s, _finish(name, *loop[1:], w, alpha, mismatch, defects, constant)


def parametrize_imag(
    alpha: GridFunction,
    F: GridFunction,
    psi: BoundaryFunction,
    lam: float,
    cfg: SolverConfig | None = None,
    initial_s: GridFunction | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Sobolev factor s with w = e^s F pseudo-holomorphic, tr Im s = psi,
    int_T Re s = lam.

    With the boundary data absorbed into F' = e^{iA} F, s - iA is the
    real_on_T exponent (C - R)(beta e^{-2i Im(s - iA)}) of the
    factorization of w, beta = alpha conj(F')/F'; its imaginary part is
    iterated to the fixed point.
    """
    return _parametrize(True, alpha, F, psi, lam, cfg, initial_s)


def parametrize_real(
    alpha: GridFunction,
    F: GridFunction,
    psi: BoundaryFunction,
    lam: float,
    cfg: SolverConfig | None = None,
    initial_s: GridFunction | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Variant prescribing tr Re s = psi and int_T Im s = lam.

    With F' = e^A F, s - A is the imaginary_on_T exponent
    (C + R)(beta e^{-2i Im(s - A)}) of the factorization of w: the same
    map as `parametrize_imag` with the sign of R turned, and no separate
    unknown for the boundary trace of Im s.
    """
    return _parametrize(False, alpha, F, psi, lam, cfg, initial_s)


def _prolong(wc: np.ndarray, grid) -> np.ndarray:
    """Values on `grid` of the function with values wc on its half grid.

    The half grid keeps the odd rows and the even columns.  In radius the
    even rows are the coarse cells' midpoints, where the cell cubics of
    the coarse level's engine are evaluated at x = 1/2; in angle the
    modes are zero-padded, the coarse Nyquist mode split between +n and
    -n.
    """
    n_c, m_c = wc.shape
    eng = get_engine(n_c, m_c // 2 + 2)  # the key of `transforms._engine_for`
    gather, maps = eng.gather, eng.coeff_maps
    mid = (0.5 ** np.arange(4.0)) @ maps  # (n_c, 4): stencil weights at x = 1/2
    modes = np.fft.fft(wc, axis=1)
    rows = np.empty((2 * n_c, m_c), dtype=complex)
    rows[1::2] = modes
    rows[0::2] = np.einsum("ks,ksm->km", mid, modes[gather])
    half = m_c // 2
    out = np.zeros((2 * n_c, 2 * m_c), dtype=complex)
    out[:, :half] = rows[:, :half]
    out[:, half + 1 - m_c :] = rows[:, half + 1 :]
    out[:, half] = out[:, -half] = 0.5 * rows[:, half]
    out *= 2.0  # the inverse FFT's 1/n_theta on twice the angles
    return np.fft.ifft(out, axis=1, out=out)


def _riesz_values(av, psi, c, grid, cfg, s0, given=True):
    """Values of the solution w of A w = H on `grid`, nested coarse to fine.

    H = E(psi + i psi~) + i c / 2 pi (`_holo_with_real_trace`).  When n_r
    is even and both halves of the grid are at least 32, the problem is
    first solved on the half grid: the odd rows and even columns of alpha
    (`av`) and of s0, the even samples of psi.  If that solve converged,
    its w, prolonged (`_prolong`), starts `_gmres` here; if not, the
    descent ends: a coarse level returns (None, histories, False) without
    a loop of its own, and the given grid (`given`) starts from H.  The
    coarsest level starts from e^{s0} H (H when s0 is None).  Each level
    forms H once, runs GMRES to its own stopping rule and closes with the
    plain step w = H + (C + R)(alpha conj(w)); the source-mode buffer of
    its applications is allocated once.  H = 0 (psi and c zero, on the
    samples the level keeps) gives w = 0 without an application.
    Returns (w, histories, converged): histories holds the loops run,
    coarsest first.
    """
    H = _holo_with_real_trace(psi, c, grid)
    scale = float(np.max(np.abs(H)))
    if scale == 0.0:
        return np.zeros_like(H), [[]], True
    H /= scale
    n_r, n_t = grid.n_r, grid.n_theta
    histories = []
    x = None
    if n_r % 2 == 0 and min(n_r, n_t) >= 64:
        coarse = make_grid(n_t // 2, n_r // 2, grid.outer_radius)
        wc, histories, ok = _riesz_values(
            av[1::2, ::2],
            BoundaryFunction(psi.values[::2]),
            c,
            coarse,
            cfg,
            None if s0 is None else s0[1::2, ::2],
            given=False,
        )
        if ok:
            x = _prolong(wc, grid)
            x /= scale
        elif not given:
            return None, histories, False
        del wc
    elif s0 is not None:
        x = H * np.exp(s0)
    if x is None:
        x = H.copy()
    modes = np.empty((n_r, n_t + 1), dtype=complex)

    def reflect(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """(C + R)(alpha conj(v)) in out: 2 FFTs and one sweep."""
        h = np.conjugate(v, out=out)
        h *= av
        _cauchy_reflect_modes(h, 1.0, 1.0, grid, modes, out)
        return np.fft.ifft(out, axis=1, out=out)

    def apply(v: np.ndarray, out: np.ndarray) -> None:
        np.subtract(v, reflect(v, out), out=out)

    history, converged = _gmres(H, x, apply, cfg)
    w = reflect(x, x)
    w += H
    w *= scale
    return w, histories + [history], converged


def solve_riesz(
    alpha: GridFunction,
    psi: BoundaryFunction,
    c: float,
    cfg: SolverConfig | None = None,
    initial_s: GridFunction | None = None,
) -> tuple[GridFunction, BoundaryFunction, SolveReport]:
    """Generalized M. Riesz problem: w with Re w_T = psi, int_T Im w_T = c.

    Solves the real-linear integral equation of generalized analytic
    functions (Vekua 1962)

        A w = w - (C + R)(alpha conj(w)) = H,   H = riesz_extension(psi) + i c / 2 pi,

    by `_gmres` on the values of w, with H scaled to max |H| = 1 and w
    scaled back.  Its solution has dbar w = alpha conj(w), and since
    C + R is pure imaginary on T with zero boundary mean, Re w_T = psi
    and int_T Im w_T = c.  The loop stops at ||A w - H|| <= (tol / 10)
    ||H||; one plain step w = H + (C + R)(alpha conj(w)) then puts both
    boundary conditions at rounding.  The solve is nested
    (`_riesz_values`): on grids with even n_r and both sides at least 64
    the same problem is solved on the half grid first, down to sides of
    32, and each converged coarse solution, interpolated, starts the
    next finer loop; an unconverged coarse level ends the descent, and
    the given grid starts from H.  The coarsest start is e^{initial_s} H
    (H when initial_s is None).  SolverConfig.zero_threshold does not act
    here.  report.iterations counts applications of A on the given
    grid, with ||A w - H|| / ||H|| after each in increment_history;
    extra["coarse_iterations"] holds the coarse levels' counts, coarsest
    first.  Returns (w, psi_sharp, report) with psi_sharp = Im w_T the
    generalized conjugate function.
    """
    cfg = cfg or SolverConfig()
    grid = alpha.grid
    psi = _require_real(psi, "psi", grid)
    s0 = None if initial_s is None else initial_s.require_unmasked("initial state")
    av = alpha.require_unmasked("coefficient")
    w, histories, converged = _riesz_values(av, psi, c, grid, cfg, s0)

    w = GridFunction(grid, w)
    tr = w.values[grid.boundary_ring_index]
    psi_sharp = BoundaryFunction(tr.imag.astype(complex))
    dtheta = 2.0 * np.pi / grid.n_theta
    defects = {
        "re_trace_sup": float(np.max(np.abs(tr.real - psi.values.real))),
        "im_mean": abs(float(np.sum(tr.imag)) * dtheta - c),
    }
    mismatch = _mismatch(tr.real, psi, cfg.p)
    denom = psi.lp_norm(cfg.p) + abs(c)
    constant = hardy_norm(w, cfg.p) / denom if denom > 0 else 0.0
    history = histories.pop()
    extra = {"coarse_iterations": [len(h) for h in histories]} if histories else None
    report = _finish("solve_riesz", history, converged, 1.0, w, alpha, mismatch, defects, constant, extra)
    return w, psi_sharp, report


def conductivity_residual(sigma: GridFunction, u: GridFunction) -> float:
    """||div(sigma grad u)||_{L^2(D_0.9)} via 4 Re d(sigma dbar u), u real."""
    dbar_u = wirtinger_derivatives(u.with_values(u.values.real.astype(complex)))[1]
    flux = sigma.values.real * dbar_u.values
    d_flux, _ = wirtinger_derivatives(u.with_values(flux))
    return lp_norm_disk(u.with_values(4.0 * d_flux.values.real.astype(complex)), 2.0, r_max=0.9)


def solve_conductivity(
    sigma: GridFunction,
    psi: BoundaryFunction,
    cfg: SolverConfig | None = None,
) -> tuple[GridFunction, GridFunction, GridFunction, SolveReport]:
    """Dirichlet problem div(sigma grad u) = 0 with weighted boundary data.

    Reduces to the Riesz problem through w = sigma^{1/2} u + i sigma^{-1/2} v
    and alpha = dbar log sigma^{1/2}; the conjugate-flux gauge is c = 0.
    Returns (u, v, w, report); the report adds the PDE residual and the
    weighted boundary match of the trace-limit clause.
    """
    cfg = cfg or SolverConfig()
    grid = sigma.grid
    psi = _require_real(psi, "psi", grid)
    sv = sigma.require_unmasked("conductivity").real
    if np.any(sv <= 0.0):
        raise ValueError("sigma must be strictly positive on the grid")
    ring = grid.boundary_ring_index
    # alpha = dbar log sigma^{1/2}; the d part and log sigma^{1/2} are not
    # kept through the solve, nor alpha past it, and sigma^{1/2} is formed
    # after it
    alpha = wirtinger_derivatives(GridFunction(grid, 0.5 * np.log(sv).astype(complex)))[1]
    psi_w = BoundaryFunction((np.sqrt(sv[ring]) * psi.values.real).astype(complex))
    w, _, report = solve_riesz(alpha, psi_w, 0.0, cfg)
    del alpha
    sqrt_sigma = np.sqrt(sv)
    u = GridFunction(grid, (w.values.real / sqrt_sigma).astype(complex))
    v = GridFunction(grid, (sqrt_sigma * w.values.imag).astype(complex))
    weighted = _mismatch(sqrt_sigma[ring] * u.values.real[ring], psi_w, cfg.p)
    report.extra.update(
        pde_residual=conductivity_residual(sigma, u),
        weighted_boundary_match=weighted,
    )
    return u, v, w, report
