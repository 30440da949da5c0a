"""Fixed-point solvers for the constructive boundary problems.

Existence in the theory comes from a compactness argument that gives no
algorithm; here each problem is solved by iterating the contraction-shaped
map the construction suggests, in one shared loop (`_picard`) that mixes
each step with the last ANDERSON_WINDOW = 3 steps (Anderson acceleration
with real coefficients, mixing weight `damping`).  Safeguard: whenever the
residual g(x) - x grows, the history is dropped and the weight halved, and
the loop fails explicitly if the residual keeps growing at the floor.
Nothing is asserted about rates: reports carry the whole increment history
and the engaged damping level.  Each problem is one loop, on plain
arrays; the Riesz solver runs it on the angular modes of s.

The three problems:

 * parametrize_imag: s with dbar(e^s F) = alpha conj(e^s F),
   tr Im s = psi, int_T Re s = lambda (map: Green potential of
   4 Im d(beta e^{-2i phi})),
 * parametrize_real: same equation with tr Re s = psi, int_T Im s =
   lambda (joint map on phi and its boundary trace u, one Green map and
   one Cauchy transform a step); the two share one body,
 * solve_riesz: w with Re tr w = psi, int_T Im tr w = c (alternating
   factorization/extension construction), plus its conductivity wrapper.
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
    w12_norm,
    w12_norm_modes,
    wirtinger_derivatives,
)
from .similarity import beltrami_ratio, beltrami_values, reconstruct, residual_beltrami
from .transforms import (
    Workspace,
    _cauchy_reflect_modes,
    _poisson_values,
    cauchy,
    cauchy_trace,
    conjugate_function,
    green_potential,
    poisson_extend,
    riesz_extension,
)

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


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 200
    damping: float = 1.0
    zero_threshold: float | None = None
    p: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
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
    """Anderson-mixed fixed-point loop shared by all solvers.

    `state` is the initial iterate, a complex array, which is left alone;
    `apply_map` takes an iterate to an array of the same shape, whose
    buffer is overwritten by the residual: it may be a work array the map
    reuses, since the loop is done with it before the next evaluation.
    `step_norm` takes a residual to a float.  Nothing is wrapped per
    step, so a map may run in any linear coordinates of its problem, the
    Riesz map on unnormalized angular modes: the mixing coefficients below
    are least-squares solutions, unchanged when every iterate is scaled
    alike.  Each step evaluates the map once, forms the residual
    f = g(x) - x and mixes it with the last ANDERSON_WINDOW differences
    (Anderson 1965; Walker & Ni 2011, type II, mixing weight tau):

        x+ = x + tau (f - sum_i gamma_i v_i),   v_i = dx_i / tau + df_i,

    with dx_i, df_i the differences of successive iterates and residuals
    and gamma minimizing ||f - sum_i gamma_i df_i|| over real coefficients
    (the maps are only real-linear; the Gram matrix Re <df_i, df_j> gains
    one row per step).  The increment recorded, and tested against
    cfg.tol, is tau step_norm(f), the increment of a plain damped step.
    Safeguard: when the Euclidean norm of f grows, the history is cleared
    and tau halved down to DAMPING_FLOOR; five growths at the floor end
    the loop unconverged.

    Returns (x, history, converged, tau), x a new array.
    """
    tau = cfg.damping
    x = np.array(state, dtype=complex)

    # ring buffers, one slot per difference; slot `pending` holds
    # -sum_i gamma_i v_i and f of the last step until the next residual
    # completes its pair
    v = np.empty((ANDERSON_WINDOW,) + x.shape, dtype=complex)
    df = np.empty_like(v)
    gram = np.zeros((ANDERSON_WINDOW, ANDERSON_WINDOW))
    live: list[int] = []  # slots of complete pairs, oldest first
    pending = None
    history: list[float] = []
    prev = math.inf
    bad_at_floor = 0
    for _ in range(cfg.max_iter):
        f = apply_map(x)
        f -= x
        res = math.sqrt(_real_dot(f, f))
        if not res <= prev:
            live.clear()
            pending = None
            if tau > DAMPING_FLOOR:
                tau = max(tau / 2.0, DAMPING_FLOOR)
            else:
                bad_at_floor += 1
        prev = res
        inc = tau * step_norm(f)
        if pending is not None:
            np.subtract(f, df[pending], out=df[pending])
            v[pending] += f
            live.append(pending)
            for j in live:
                gram[pending, j] = gram[j, pending] = _real_dot(df[pending], df[j])
        gamma = {}
        if live:
            rhs = [_real_dot(df[i], f) for i in live]
            coef = np.linalg.lstsq(gram[np.ix_(live, live)], rhs, rcond=1e-12)[0]
            gamma = dict(zip(live, coef))
        # this step's pair takes the oldest slot once the window is full
        if len(live) == ANDERSON_WINDOW:
            pending = live.pop(0)
        else:
            pending = min(set(range(ANDERSON_WINDOW)) - set(live))
        _mix(v, df, pending, gamma, f)
        if tau != 1.0:
            f *= tau
        x += f
        del f  # not held through the next map evaluation
        history.append(inc)
        if inc < cfg.tol:
            return x, history, True, tau
        if bad_at_floor >= 5:
            return x, history, False, tau
    return x, history, False, tau


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re <a, b>, the Euclidean inner product of real and imaginary parts."""
    return float(np.vdot(a, b).real)


def _mix(v, df, slot, gamma, f) -> None:
    """In place: v[slot] = -sum_i gamma_i v_i, df[slot] = f, f += v[slot].

    `slot` holds the oldest pair (or none); its own term goes first, and
    df[slot] is then free as the scratch buffer of the other axpys.
    """
    out, scratch = v[slot], df[slot]
    if slot in gamma:
        out *= -gamma.pop(slot)
    else:
        out.fill(0.0)
    for i, c in gamma.items():
        np.multiply(v[i], -c, out=scratch)
        out += scratch
    np.copyto(scratch, f)
    f += out


def _require_real(psi: BoundaryFunction, name: str) -> BoundaryFunction:
    if float(np.max(np.abs(psi.values.imag))) > 1e-10:
        raise ValueError(f"{name} must be real-valued")
    return BoundaryFunction(psi.values.real.astype(complex), psi.mask)


def _holo_with_real_trace(psi, lam_imag_integral, grid):
    """Holomorphic A, tr Re A = psi, int_T Im A = lam_imag_integral."""
    A = riesz_extension(psi, grid)
    return A + GridFunction.constant(grid, 1j * lam_imag_integral / (2.0 * np.pi))


def _assemble_s(m: GridFunction, phi2: np.ndarray, grid) -> GridFunction:
    """s = m + holomorphic correction chosen so that Im s = phi2 on T."""
    tau = BoundaryFunction(phi2[grid.boundary_ring_index] - boundary_trace(m).values.imag)
    return m + riesz_extension(tau, grid) * 1j


def _green_map(grid, beta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Values of G(phi) = P(4 Im d(beta e^{-2i phi})) from the values of
    beta and of phi, whose real part is read."""
    g = GridFunction(grid, beta * np.exp(-2j * phi.real))
    dg, _ = wirtinger_derivatives(g)
    return green_potential(g.with_values(4.0 * dg.values.imag.astype(complex))).values


def _phi_norm(d: np.ndarray, grid) -> float:
    """w12_norm of the grid increment with values d."""
    return w12_norm_modes(np.fft.fft(d, axis=1), grid)


def _u_norm(d: np.ndarray) -> float:
    # sum (1+|n|) |d_n|^2 is the W^{1,2}(D) norm (squared, up to the
    # usual constants) of the harmonic extension of the boundary
    # increment, which is the leading term of the s increment
    d = BoundaryFunction(d)
    n = np.abs(d.mode_numbers)
    return float(np.sqrt(2.0 * np.pi * np.sum((1.0 + n) * np.abs(d.modes()) ** 2)))


def _instrument(s_norm, alpha, psi, lam):
    denom = lp_norm_disk(alpha, 2.0) + psi.lp_norm(2.0) + abs(lam)
    return s_norm / denom if denom > 0 else 0.0


def _mismatch(values: np.ndarray, psi: BoundaryFunction, p: float) -> float:
    """L^p(T) norm of the real boundary values less psi."""
    return BoundaryFunction(values - psi.values.real).lp_norm(p)


def _finish(name, loop, w, alpha, mismatch, defects, constant) -> SolveReport:
    """The report of a solve from `_picard`'s (x, history, converged, tau)
    and the solution w; raises SolverDivergence if the loop did not converge."""
    _, history, converged, tau = loop
    report = SolveReport(
        iterations=len(history),
        increment_history=history,
        residual_beltrami=residual_beltrami(w, alpha),
        boundary_mismatch=mismatch,
        normalization_defects=defects,
        measured_constant=constant,
        converged=converged,
        damping_final=tau,
    )
    if not converged:
        raise SolverDivergence(f"{name} did not converge", report)
    return report


def _parametrize(imag, alpha, F, psi, lam, cfg, initial_s, problem):
    """Body shared by the two parametrizations.

    The prescribed trace is absorbed into the holomorphic shift H = iA
    (`imag`: tr Im s = psi, int_T Re s = lam) or H = A (tr Re s = psi,
    int_T Im s = lam), A from `_holo_with_real_trace`; F becomes e^H F and
    beta its Beltrami ratio.  `problem(beta, grid, phi0)` gives the
    fixed-point problem as (x0, apply_map, step_norm) for `_picard`, on a
    state whose first n_r rows are phi = Im s', s' = s - H; phi0 is
    Im(initial_s - H), or None.  Then s = C(beta e^{-2i phi}) plus the
    holomorphic correction with Im s' = phi, plus H.
    """
    cfg = cfg or SolverConfig()
    psi = _require_real(psi, "psi")
    grid = alpha.grid
    if float(np.max(np.abs(F.require_unmasked("parametrization")))) == 0.0:
        raise ValueError("F must not be identically zero")
    A = _holo_with_real_trace(psi, -lam if imag else lam, grid)
    H = A * 1j if imag else A
    with np.errstate(under="ignore"):
        Fp = F.with_values(np.exp(H.values) * F.values)
    beta = beltrami_ratio(Fp, alpha, cfg.zero_threshold)

    phi0 = None if initial_s is None else (initial_s - H).values.imag
    loop = _picard(*problem(beta.values, grid, phi0), cfg)
    phi = loop[0][: grid.n_r].real
    m = cauchy(beta.with_values(beta.values * np.exp(-2j * phi)))
    s = _assemble_s(m, phi, grid) + H
    w = reconstruct(s, F)

    tr_s = boundary_trace(s).values
    traced, free = (tr_s.imag, tr_s.real) if imag else (tr_s.real, tr_s.imag)
    mismatch = _mismatch(traced, psi, 2.0)
    mean_def = abs(float(np.sum(free)) * 2.0 * np.pi / grid.n_theta - lam)
    keys = ("im_trace", "re_mean") if imag else ("re_trace", "im_mean")
    defects = dict(zip(keys, (mismatch, mean_def)))
    constant = _instrument(w12_norm(s), alpha, psi, lam)
    name = "parametrize_imag" if imag else "parametrize_real"
    return s, _finish(name, loop, w, alpha, mismatch, defects, constant)


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

    The boundary data and the holomorphic factor are absorbed first
    (replace F by e^{iA} F and alpha by alpha conj(F')/F'), leaving the
    homogeneous fixed point phi = G(phi) for phi = Im s'.
    """

    def problem(beta, grid, phi0):
        x0 = np.zeros((grid.n_r, grid.n_theta)) if phi0 is None else phi0
        return x0, lambda x: _green_map(grid, beta, x), lambda d: _phi_norm(d, grid)

    return _parametrize(True, alpha, F, psi, lam, cfg, initial_s, problem)


def parametrize_real(
    alpha: GridFunction,
    F: GridFunction,
    psi: BoundaryFunction,
    lam: float,
    cfg: SolverConfig | None = None,
    initial_s: GridFunction | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Variant prescribing tr Re s = psi and int_T Im s = lam.

    Here Im s' is not zero on T: its trace is a zero-mean boundary
    function u, and phi = Im s' solves phi = E u + G(phi) (E the
    harmonic extension), while u is fixed by the trace of
    C(beta e^{-2i phi}): with tr0 that trace less its mean, u is Im tr0
    minus the conjugate function of Re tr0.  Both are one fixed point
    on the stacked state x of shape (n_r + 1, n_theta): rows 0..n_r-1
    hold phi and row n_r holds u.  Its increment is measured as
    w12_norm(phi) plus the W^{1,2} norm of u's harmonic extension.
    """

    def problem(beta, grid, phi0):
        n_r = grid.n_r
        x0 = np.zeros((n_r + 1, grid.n_theta), dtype=complex)
        if phi0 is not None:
            x0[:n_r] = phi0
            x0[n_r] = phi0[-1] - np.mean(phi0[-1])
        g = np.empty_like(x0)

        def joint_map(x):
            # Gauss-Seidel order: u+ is read from the new phi+, so u acts
            # on itself within one step.  In the Jacobi order (u+ from x's
            # phi) it does so only through two, u -> phi -> u, and on
            # criterion 06's data the residual keeps growing: the weight
            # falls to the damping floor and the loop stops unconverged
            # after 30 steps, its increment stalled at about 8e-5.
            phi = _poisson_values(BoundaryFunction(x[n_r]), grid, out=g[:n_r])
            phi += _green_map(grid, beta, x[:n_r])
            tr = cauchy_trace(GridFunction(grid, beta * np.exp(-2j * phi.real))).values
            tr0 = tr - np.mean(tr)
            re = BoundaryFunction(tr0.real.astype(complex))
            g[n_r] = tr0.imag - conjugate_function(re).values
            return g

        return x0, joint_map, lambda f: _phi_norm(f[:n_r], grid) + _u_norm(f[n_r])

    return _parametrize(False, alpha, F, psi, lam, cfg, initial_s, problem)


def solve_riesz(
    alpha: GridFunction,
    psi: BoundaryFunction,
    c: float,
    cfg: SolverConfig | None = None,
    initial_s: GridFunction | None = None,
) -> tuple[GridFunction, BoundaryFunction, SolveReport]:
    """Generalized M. Riesz problem: w with Re w_T = psi, int_T Im w_T = c.

    Alternates the real_on_T factorization update s = C(beta) - R(beta)
    with the boundary reconstruction of the holomorphic factor from
    e^{-h} psi and its conjugate (h = Re tr s), damping as configured.
    Returns (w, psi_sharp, report) with psi_sharp = Im w_T the
    generalized conjugate function.
    """
    cfg = cfg or SolverConfig()
    psi = _require_real(psi, "psi")
    grid = alpha.grid
    dtheta = 2.0 * np.pi / grid.n_theta
    if psi.lp_norm(2.0) == 0.0 and c == 0.0:
        w = GridFunction.zeros(grid)
        return w, BoundaryFunction.zeros(grid.n_theta), SolveReport(converged=True)

    def holo_factor(h: np.ndarray) -> BoundaryFunction:
        """Boundary values of the holomorphic factor for h = Re tr s."""
        eh = np.exp(h)
        phi = BoundaryFunction((np.exp(-h) * psi.values.real).astype(complex))
        phit = conjugate_function(phi)
        c0 = (c - float(np.sum(eh * phit.values.real)) * dtheta) / (
            float(np.sum(eh)) * dtheta
        )
        return BoundaryFunction(phi.values.real + 1j * (phit.values.real + c0))

    # the step's work arrays, reused by every step of this solve
    work = Workspace(grid)
    av = alpha.require_unmasked("Beltrami ratio")

    def riesz_map(X: np.ndarray) -> np.ndarray:
        """Angular modes of C(beta) - R(beta) for s with angular modes X."""
        s = np.fft.ifft(X, axis=1, out=work.out)
        F = _poisson_values(holo_factor(s[-1].real), grid, out=work.vals)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            w = np.exp(s, out=s)
            w *= F
        beta = beltrami_values(w, av, cfg.zero_threshold, out=work.vals)
        return _cauchy_reflect_modes(beta, 1.0, -1.0, work)

    def step_norm(f: np.ndarray) -> float:
        # after the sweep the step's source values and modes are spent
        return w12_norm_modes(f, grid, (work.vals, work.spare))

    if initial_s is None:
        X0 = np.zeros((grid.n_r, grid.n_theta), dtype=complex)
    else:
        X0 = np.fft.fft(initial_s.require_unmasked("initial state"), axis=1)
    loop = _picard(X0, riesz_map, step_norm, cfg)
    del work  # its buffers are not held through the report

    s = GridFunction(grid, np.fft.ifft(loop[0], axis=1))
    F = poisson_extend(holo_factor(s.values[-1].real), grid)
    w = reconstruct(s, F)
    psi_sharp = BoundaryFunction(boundary_trace(w).values.imag.astype(complex))
    tr_s = boundary_trace(s)
    defects = {
        "im_trace_sup": float(np.max(np.abs(tr_s.values.imag))),
        "re_mean": abs(float(np.sum(tr_s.values.real)) * dtheta),
    }
    mismatch = _mismatch(boundary_trace(w).values.real, psi, cfg.p)
    denom = psi.lp_norm(cfg.p) + abs(c)
    constant = hardy_norm(w, cfg.p) / denom if denom > 0 else 0.0
    return w, psi_sharp, _finish("solve_riesz", loop, w, alpha, mismatch, defects, constant)


def conductivity_residual(sigma: GridFunction, u: GridFunction) -> float:
    """||div(sigma grad u)||_{L^2(D_0.9)} via 4 Re d(sigma dbar u), u real."""
    _, dbar_u = wirtinger_derivatives(u.with_values(u.values.real.astype(complex)))
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
    psi = _require_real(psi, "psi")
    sv = sigma.require_unmasked("conductivity").real
    if np.any(sv <= 0.0):
        raise ValueError("sigma must be strictly positive on the grid")
    grid = sigma.grid
    # alpha = dbar log sigma^{1/2}; the d part and log sigma^{1/2} are not
    # kept through the solve
    alpha = wirtinger_derivatives(GridFunction(grid, 0.5 * np.log(sv).astype(complex)))[1]
    sqrt_sigma = np.sqrt(sv)
    psi_w = BoundaryFunction(
        (sqrt_sigma[grid.boundary_ring_index] * psi.values.real).astype(complex)
    )
    w, _, report = solve_riesz(alpha, psi_w, 0.0, cfg)
    u = GridFunction(grid, (w.values.real / sqrt_sigma).astype(complex))
    v = GridFunction(grid, (sqrt_sigma * w.values.imag).astype(complex))
    ring = grid.boundary_ring_index
    weighted = _mismatch(sqrt_sigma[ring] * u.values.real[ring], psi_w, cfg.p)
    report.extra = {
        "pde_residual": conductivity_residual(sigma, u),
        "weighted_boundary_match": weighted,
    }
    return u, v, w, report
