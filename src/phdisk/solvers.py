"""Solvers for the constructive boundary problems.

The generalized M. Riesz problem is real-linear in w, and is solved as
the integral equation of generalized analytic functions (Vekua 1962),
w - (C + R)(alpha conj(w)) = H, by restarted GMRES on the real view of
the values (`_gmres`, Saad & Schultz 1986), with restart length
RESTART = 8.  It needs no smallness of alpha: constant alpha = 3 and
sigma = e^{4x} converge.  A solve closes with the plain step
w = H + (C + R)(alpha conj(x)) from its last iterate x, formed as x + r
from the residual r that GMRES holds, so it makes exactly as many C + R
passes as its loop counts applications.  Its conductivity wrapper
solves the same equation.

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
Both loops keep their iterates as plain arrays; the parametrization map
still wraps each step's source in a GridFunction for `cauchy_reflect`.
Every solve here, like `transforms.solve_dbar`, measures its two
boundary conditions with one helper, `transforms._trace_defects`.

All three solve coarse to fine (`_descend`; Brandt 1977, for the
starting guess only): the problem is first solved on the half grid,
recursively down to sides of 32, and each converged coarse solution,
interpolated at order 6 (`_prolong`; Brandt's rule asks for an order
above the discretization's), starts the next finer loop.  A coarse level
that does not converge ends the descent, and the given grid starts
cold, as the coarsest level does: each level starts from the prolonged
coarse solution or cold.
Reports count the given grid's steps and list the coarse levels' counts
in extra["coarse_iterations"].  At 256^2 the Riesz fine loop then takes
1-2 applications instead of 15, sigma = log(e/|z|)^8, where GMRES(8)
from H stalls, converges, and parametrize_real at alpha = 1/2,
psi = cos takes 1 fine step instead of 20.

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
from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import (
    BoundaryFunction,
    GridFunction,
    _defect_norm,
    _fd_weights,
    _wirtinger_rows,
    boundary_trace,
    hardy_norm,
    lp_norm_disk,
    make_grid,
    w12_norm,
    w12_norm_modes,
)
from .similarity import beltrami_values, reconstruct, residual_beltrami
from .transforms import (
    _cauchy_reflect_modes,
    _holo_with_real_trace,
    _real_part,
    _require_finite,
    _require_real,
    _trace_defects,
    cauchy_reflect,
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
RESTART = 8
# six-node Lagrange weights of coarse nodes 0..5 at x = -1/2, 1/2, ..., 9/2
# (node units): `_prolong`'s first three midpoints, interior, last two
_MIDPOINT_WEIGHTS = np.array([_fd_weights(np.arange(6.0) - x, 0) for x in np.arange(-0.5, 5.0)])


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        # a bool is a numbers.Integral, but True is neither a tolerance nor a count
        tol, max_iter = self.tol, self.max_iter
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be a finite positive number; got {tol!r}")
        if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1; got {max_iter!r}")


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
        """The fields in order, copied; an empty `extra` is left out."""
        d = asdict(self)
        if not d["extra"]:
            del d["extra"]
        return d


class SolverDivergence(RuntimeError):
    """A solve's last loop did not converge: GMRES ran out of max_iter
    applications, or the fixed-point loop ran out of steps or kept
    growing at the damping floor.  `report` is the solve's report."""

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
    """Re <a, b>, the Euclidean inner product of real and imaginary parts.

    Summed by `np.einsum` over the float views, not by BLAS, which splits
    a long dot product over its threads: the bits do not depend on the
    thread count.
    """
    return float(np.einsum("i,i", a.ravel().view(np.float64), b.ravel().view(np.float64)))


def _gmres(rhs: np.ndarray, x: np.ndarray, apply, cfg: SolverConfig):
    """Restarted GMRES(RESTART) for A x = rhs on complex arrays, x updated in place.

    `apply(v, out)` writes A v into `out`.  A need only be real-linear (it
    may conjugate), so this is GMRES on the real view R^{2N} (Saad &
    Schultz 1986): the Krylov basis is orthonormal under Re <a, b>, and
    the Hessenberg matrix and its Givens rotations are real.  The first
    cycle starts from the true residual rhs - A x; each cycle ends by
    forming the residual it leaves, V q with q the rotated least-squares
    residual, which costs no application: a restart starts from it, and
    the caller gets the last one.  `rhs` is left
    alone: the basis vectors and one scratch vector for the scaled
    vectors are this loop's own, the basis allocated one vector at a
    time, as each is first needed.

    Applications of A are counted up to cfg.max_iter; after each,
    ||r|| / ||rhs|| is recorded (from the least-squares problem inside a
    cycle), and the loop stops once it is at most tol / 10.  Returns
    (history, converged, r), r = rhs - A x for the final x, up to the
    drift of the recurrence; r is basis[0], this loop's own array.
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
        # the residual V q, q = G_1^T ... G_k^T (g_k e_k), into basis[0]
        q = np.zeros(k + 1)
        q[k] = g[k]
        for i in reversed(range(k)):
            cs, sn = rot[i]
            q[i], q[i + 1] = cs * q[i] - sn * q[i + 1], sn * q[i] + cs * q[i + 1]
        r *= q[0]
        for i in range(1, k + 1):
            r += np.multiply(basis[i], q[i], out=scratch)
        if res > target and len(history) < cfg.max_iter:  # restart from r / ||r||
            res = math.sqrt(_real_dot(r, r))
    return history, res <= target, r


def _finish(name, loops, w, alpha, mismatch, defects, constant) -> SolveReport:
    """The report of a solve from its loops, coarsest first, each an
    (increment history, convergence flag, final damping), and the solution
    w; raises SolverDivergence if the last loop did not converge."""
    history, converged, tau = loops[-1]
    report = SolveReport(
        iterations=len(history),
        increment_history=history,
        residual_beltrami=residual_beltrami(w, alpha),
        boundary_mismatch=mismatch,
        normalization_defects=defects,
        measured_constant=constant,
        converged=converged,
        damping_final=tau,
        extra={"coarse_iterations": [len(loop[0]) for loop in loops[:-1]]} if len(loops) > 1 else {},
    )
    if not converged:
        raise SolverDivergence(f"{name} did not converge", report)
    return report


def _parametrize(imag, alpha, F, psi, lam, cfg):
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
    alone carries the trace and the mean, at every step.  On every level
    of the descent (`_descend`), `_picard` finds the fixed point phi of
    phi -> Im (C + sign R)(beta e^{-2i phi}), from Im(s - H) for the
    prolonged coarse s, or cold from 0; then
    s = H + (C + sign R)(beta e^{-2i phi}).
    """
    _require_finite(lam, "lam")
    cfg = cfg or SolverConfig()
    grid = alpha.grid
    psi = _require_real(psi, "psi", grid)
    Fv = F.require_unmasked("parametrization")
    if float(np.max(np.abs(Fv))) == 0.0:
        raise ValueError("F must not be identically zero")
    sign = -1.0 if imag else 1.0

    def level(grid, av, Fv, pv, start):
        A = _holo_with_real_trace(BoundaryFunction(pv), -lam if imag else lam, grid)
        H = A * 1j if imag else A
        with np.errstate(under="ignore"):
            Fp = np.exp(H) * Fv
        beta = beltrami_values(Fp, av)

        def exponent(phi: np.ndarray) -> GridFunction:
            return cauchy_reflect(GridFunction(grid, beta * np.exp(-2j * phi)), sign)

        def apply_map(phi: np.ndarray) -> np.ndarray:
            return exponent(phi).values.imag.copy()  # contiguous, without the complex pass

        x0 = np.zeros(beta.shape) if start is None else (start - H).imag
        phi, *loop = _picard(x0, apply_map, lambda d: w12_norm_modes(np.fft.fft(d, axis=1), grid), cfg)
        return exponent(phi).values + H, loop

    arrays = (alpha.require_unmasked("Beltrami ratio"), Fv, psi.require_unmasked("boundary data"))
    s, loops = _descend(level, grid, arrays)
    s = GridFunction(grid, s)
    w = reconstruct(s, F)

    tr_s = boundary_trace(s).values
    traced, free = (tr_s.imag, tr_s.real) if imag else (tr_s.real, tr_s.imag)
    mismatch, mean_def = _trace_defects(traced, free, psi, lam)
    keys = ("im_trace", "re_mean") if imag else ("re_trace", "im_mean")
    defects = dict(zip(keys, (mismatch, mean_def)))
    denom = lp_norm_disk(alpha, 2.0) + psi.lp_norm(2.0) + abs(lam)
    constant = w12_norm(s) / denom if denom > 0 else 0.0
    name = "parametrize_imag" if imag else "parametrize_real"
    return s, _finish(name, loops, w, alpha, mismatch, defects, constant)


def parametrize_imag(
    alpha: GridFunction,
    F: GridFunction,
    psi: BoundaryFunction,
    lam: float,
    cfg: SolverConfig | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Sobolev factor s with w = e^s F pseudo-holomorphic, tr Im s = psi,
    int_T Re s = lam.

    With the boundary data absorbed into F' = e^{iA} F, s - iA is the
    real_on_T exponent (C - R)(beta e^{-2i Im(s - iA)}) of the
    factorization of w, beta = alpha conj(F')/F'; its imaginary part is
    iterated to the fixed point.
    """
    return _parametrize(True, alpha, F, psi, lam, cfg)


def parametrize_real(
    alpha: GridFunction,
    F: GridFunction,
    psi: BoundaryFunction,
    lam: float,
    cfg: SolverConfig | None = None,
) -> tuple[GridFunction, SolveReport]:
    """Variant prescribing tr Re s = psi and int_T Im s = lam.

    With F' = e^A F, s - A is the imaginary_on_T exponent
    (C + R)(beta e^{-2i Im(s - A)}) of the factorization of w: the same
    map as `parametrize_imag` with the sign of R turned, and no separate
    unknown for the boundary trace of Im s.
    """
    return _parametrize(False, alpha, F, psi, lam, cfg)


def _prolong(wc: np.ndarray) -> np.ndarray:
    """Values on the grid twice as fine of the function with values wc on
    the fine grid's half grid, its odd rows and even columns.

    In radius the even rows lie midway between consecutive coarse nodes
    (the first between the origin and node 0), where six-node Lagrange
    interpolation is of order 6: centred, weights (3, -25, 150, 150, -25,
    3)/256, on the interior, one-sided on the first or last six nodes for
    the first three and the last two midpoints.  In angle the modes are
    zero-padded, the coarse Nyquist mode split between +n and -n.
    """
    n_c, m_c = wc.shape
    modes = np.fft.fft(wc, axis=1)
    rows = np.empty((2 * n_c, m_c), dtype=complex)
    rows[1::2] = modes
    mid, w = rows[0::2], _MIDPOINT_WEIGHTS
    mid[:3] = np.einsum("ks,sm->km", w[:3], modes[:6])
    mid[-2:] = np.einsum("ks,sm->km", w[4:], modes[-6:])
    inner = np.multiply(w[3, 0], modes[: n_c - 5], out=mid[3:-2])
    for s in range(1, 6):
        inner += w[3, s] * modes[s : n_c - 5 + s]
    half = m_c // 2
    out = np.zeros((2 * n_c, 2 * m_c), dtype=complex)
    out[:, :half] = rows[:, :half]
    out[:, half + 1 - m_c :] = rows[:, half + 1 :]
    out[:, half] = out[:, -half] = 0.5 * rows[:, half]
    out *= 2.0  # the inverse FFT's 1/n_theta on twice the angles
    return np.fft.ifft(out, axis=1, out=out)


def _descend(level, grid, arrays, given=True):
    """(solution values, loops) of the problem `level` solves, on `grid`,
    found coarse to fine.

    `level(grid, *arrays, start)` solves the problem with data `arrays`
    on one grid, from the prolonged coarse solution `start`, or cold when
    `start` is None, and returns (solution values, loop), loop the
    (increment history, convergence flag, final damping) of its
    iteration.  When n_r is even and both halves of the grid are at least
    32, the problem is first solved on the half grid: the odd rows and
    even columns of each grid array (coarse radius (k+1)/(n_r/2) is fine
    row 2k+1), the even samples of each boundary array.  A converged
    coarse solution, prolonged, starts the level here.  An unconverged
    one ends the descent: a coarse level returns (None, loops) without a
    loop of its own, and the given grid (`given`) starts cold, as the
    level where no half grid was tried does.  `loops` holds the loops
    run, coarsest first.
    """
    loops, start = [], None
    if grid.n_r % 2 == 0 and min(grid.n_r, grid.n_theta) >= 64:
        coarse = make_grid(grid.n_theta // 2, grid.n_r // 2, grid.outer_radius)
        half = [a[::2] if a.ndim == 1 else a[1::2, ::2] for a in arrays]
        sol, loops = _descend(level, coarse, half, given=False)
        if loops[-1][1]:
            start = _prolong(sol)
        elif not given:
            return None, loops
        del sol
    sol, loop = level(grid, *arrays, start)
    return sol, loops + [loop]


def solve_riesz(
    alpha: GridFunction,
    psi: BoundaryFunction,
    c: float,
    cfg: SolverConfig | None = None,
) -> tuple[GridFunction, BoundaryFunction, SolveReport]:
    """Generalized M. Riesz problem: w with Re w_T = psi, int_T Im w_T = c.

    Solves the real-linear integral equation of generalized analytic
    functions (Vekua 1962)

        A w = w - (C + R)(alpha conj(w)) = H,   H = riesz_extension(psi) + i c / 2 pi,

    by `_gmres` on the values of w, with H scaled to max |H| = 1 and w
    scaled back.  Its solution has dbar w = alpha conj(w), and since
    C + R is pure imaginary on T with zero boundary mean, Re w_T = psi
    and int_T Im w_T = c.  The loop stops at ||A w - H|| <= (tol / 10)
    ||H||; one plain step w = H + (C + R)(alpha conj(x)) from the last
    iterate x then puts both boundary conditions at rounding.  It is
    formed as x + r, r = H - A x the residual GMRES already holds, and
    costs no application.  Every level of the descent (`_descend`) runs
    this loop, from the prolonged coarse solution, or cold from x = H.
    report.boundary_mismatch is ||Re w_T - psi||_{L^2(T)} and
    report.measured_constant ||w||_{H^2} / (||psi||_{L^2(T)} + |c|).
    report.iterations counts applications of A on the given grid, with
    ||A w - H|| / ||H|| after each in increment_history;
    extra["coarse_iterations"] holds the coarse levels' counts, coarsest
    first.  Returns (w, psi_sharp, report) with psi_sharp = Im w_T the
    generalized conjugate function.
    """
    _require_finite(c, "c")
    cfg = cfg or SolverConfig()
    grid = alpha.grid
    psi = _require_real(psi, "psi", grid)

    def level(grid, av, pv, start):
        """w on one grid: H scaled to max |H| = 1, GMRES from the start
        (x = H when cold) and the closing x + r, w scaled back; H = 0
        gives w = 0 without an application."""
        H = _holo_with_real_trace(BoundaryFunction(pv), c, grid)
        scale = float(np.max(np.abs(H)))
        if scale == 0.0:
            return np.zeros_like(H), ([], True, 1.0)
        H /= scale
        if start is not None:
            x = start
            x /= scale
        else:
            x = H.copy()
        modes = np.empty((grid.n_r, grid.n_theta + 1), dtype=complex)

        def reflect(v: np.ndarray, out: np.ndarray) -> np.ndarray:
            """(C + R)(alpha conj(v)) in out: 2 FFTs and one sweep."""
            h = np.conjugate(v, out=out)
            h *= av
            _cauchy_reflect_modes(h, 1.0, 1.0, grid, modes, out)
            return np.fft.ifft(out, axis=1, out=out)

        def apply(v: np.ndarray, out: np.ndarray) -> None:
            np.subtract(v, reflect(v, out), out=out)

        history, converged, r = _gmres(H, x, apply, cfg)
        w = x
        w += r
        w *= scale
        return w, (history, converged, 1.0)

    arrays = (alpha.require_unmasked("coefficient"), psi.require_unmasked("boundary data"))
    w, loops = _descend(level, grid, arrays)

    w = GridFunction(grid, w)
    tr = w.values[grid.boundary_ring_index]
    psi_sharp = BoundaryFunction(tr.imag.astype(complex))
    mismatch, im_mean = _trace_defects(tr.real, tr.imag, psi, c)
    defects = {"re_trace_sup": float(np.max(np.abs(tr.real - psi.values.real))), "im_mean": im_mean}
    denom = psi.lp_norm(2.0) + abs(c)
    constant = hardy_norm(w, 2.0) / denom if denom > 0 else 0.0
    report = _finish("solve_riesz", loops, w, alpha, mismatch, defects, constant)
    return w, psi_sharp, report


def conductivity_residual(sigma: GridFunction, u: GridFunction) -> float:
    """||div(sigma grad u)||_{L^2(D_0.9)} via 4 Re d(sigma dbar u), u real.

    Only the rows the norm reads are formed: the flux sigma dbar u on the
    rows of D_0.9 and the two above them, d of it on the rows of D_0.9.
    """
    sigma._check_match(u)
    g = u.grid
    weights, K = g.interior_weights_upto(0.9)
    rows = min(K + 2, g.n_r)
    uv = u.require_unmasked("differentiation")[: rows + 2].real.astype(complex)
    flux = _wirtinger_rows(uv, g, rows, False, True)[1]
    np.multiply(sigma.values.real[:rows], flux, out=flux)
    div = _wirtinger_rows(flux, g, K, True, False)[0].real
    div *= 4.0
    return _defect_norm(div, weights, g.n_theta)


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
    grid = sigma.grid
    psi = _require_real(psi, "psi", grid)
    sv = _real_part(sigma.require_unmasked("conductivity"), "sigma")
    if np.any(sv <= 0.0):
        raise ValueError("sigma must be strictly positive on the grid")
    ring = grid.boundary_ring_index
    # alpha = dbar log sigma^{1/2}; the d part is not formed, log
    # sigma^{1/2} is not kept through the solve, nor alpha past it, and
    # sigma^{1/2} is formed after it
    log_half = 0.5 * np.log(sv).astype(complex)
    alpha = GridFunction(grid, _wirtinger_rows(log_half, grid, grid.n_r, False, True)[1])
    del log_half
    psi_w = BoundaryFunction((np.sqrt(sv[ring]) * psi.values.real).astype(complex))
    w, _, report = solve_riesz(alpha, psi_w, 0.0, cfg)
    del alpha
    sqrt_sigma = np.sqrt(sv)
    u = GridFunction(grid, (w.values.real / sqrt_sigma).astype(complex))
    v = GridFunction(grid, (sqrt_sigma * w.values.imag).astype(complex))
    weighted, _ = _trace_defects(sqrt_sigma[ring] * u.values.real[ring], w.values.imag[ring], psi_w, 0.0)
    report.extra.update(
        pde_residual=conductivity_residual(sigma, u),
        weighted_boundary_match=weighted,
    )
    return u, v, w, report
